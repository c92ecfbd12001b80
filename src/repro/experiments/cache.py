"""Content-addressed result cache for sweep execution.

A sweep point is cached under a key that hashes three things:

* the **scenario name**;
* the **fully-resolved parameters** (seed included) — the spec written next
  to the results, so two invocations that resolve to the same spec share a
  cache entry regardless of which defaults were spelled out;
* a **code-version salt** covering every ``*.py`` source file of the
  :mod:`repro` package — any code change anywhere in the tree invalidates
  the whole cache.  Hashing only the runner's own source would miss changes
  in the layers below it (the kernel, the network model, the services), all
  of which feed the simulated results; whole-tree hashing is crude but safe,
  and costs a few milliseconds once per process.

Entries are one JSON file per key (sharded by the first two hex digits),
written atomically via a temp file + :func:`os.replace`, so concurrent
sweep workers and concurrent sweeps can share a cache directory without
locks: the worst case is two processes writing byte-identical content.

The stored envelope is ``{"format", "key", "scenario", "run"}`` where
``run`` is exactly the serialised run document
(:meth:`repro.experiments.runner.ScenarioResult.to_dict`): the spec echo
and what the scenario returned, nothing host-dependent — so a cache hit
reproduces the run entry byte-for-byte in the merged sweep JSON.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional

__all__ = [
    "CacheStats",
    "ResultCache",
    "canonical_digest",
    "code_version_salt",
    "default_cache_dir",
    "point_key",
]

#: environment variable overriding the default cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

_ENVELOPE_FORMAT = 1

_CODE_SALT: Optional[str] = None


def default_cache_dir() -> str:
    """``$REPRO_CACHE_DIR`` or ``~/.cache/repro``."""
    override = os.environ.get(CACHE_DIR_ENV)
    if override:
        return override
    return os.path.join(os.path.expanduser("~"), ".cache", "repro")


def code_version_salt() -> str:
    """A digest of every ``*.py`` file under the installed ``repro`` package.

    Computed once per process.  Simulated results depend on the whole stack
    (kernel ordering, network allocation, service algorithms), so the salt
    deliberately covers the entire tree rather than a single runner.
    """
    global _CODE_SALT
    if _CODE_SALT is None:
        import repro
        root = os.path.dirname(os.path.abspath(repro.__file__))
        digest = hashlib.sha256()
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames.sort()
            for filename in sorted(filenames):
                if not filename.endswith(".py"):
                    continue
                path = os.path.join(dirpath, filename)
                digest.update(os.path.relpath(path, root).encode("utf-8"))
                with open(path, "rb") as fh:
                    digest.update(fh.read())
        _CODE_SALT = digest.hexdigest()[:16]
    return _CODE_SALT


def canonical_digest(doc: object) -> "hashlib._Hash":
    """SHA-256 over the canonical JSON form of *doc*.

    Canonical = sorted keys, tight separators, ``repr`` fallback for exotic
    values.  The single content-hashing rule shared by cache keys and
    per-point seed derivation, so the two can never drift apart.
    """
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"),
                      default=repr)
    return hashlib.sha256(blob.encode("utf-8"))


def point_key(scenario: str, params: Mapping[str, object],
              salt: Optional[str] = None) -> str:
    """The content-addressed key of one sweep point."""
    return canonical_digest(
        {"params": {str(k): params[k] for k in params},
         "salt": salt if salt is not None else code_version_salt(),
         "scenario": scenario}).hexdigest()


@dataclass
class CacheStats:
    """Hit/miss/store accounting of one :class:`ResultCache` instance."""

    hits: int = 0
    misses: int = 0
    stores: int = 0


class ResultCache:
    """A directory of content-addressed sweep-point results."""

    def __init__(self, root: Optional[str] = None):
        self.root = os.path.abspath(root or default_cache_dir())
        self.stats = CacheStats()

    def _path(self, key: str) -> str:
        return os.path.join(self.root, key[:2], key + ".json")

    # -- read / write -------------------------------------------------------
    def get(self, key: str) -> Optional[Dict[str, object]]:
        """The cached run document for *key*, or ``None`` (counted as miss).

        A corrupted or unreadable entry is treated as a miss — the point
        simply re-runs and overwrites it.
        """
        try:
            with open(self._path(key)) as fh:
                envelope = json.load(fh)
            run = envelope["run"]
            if envelope.get("format") != _ENVELOPE_FORMAT \
                    or not isinstance(run, dict):
                raise ValueError("unusable cache envelope")
        except (OSError, ValueError, KeyError, TypeError):
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return run

    def put(self, key: str, scenario: str, run: Mapping[str, object]) -> None:
        """Store one run document atomically (temp file + rename).

        An unwritable cache (read-only HOME, full disk) degrades to not
        caching — mirroring :meth:`get`'s treat-as-miss policy — instead of
        crashing a sweep after its points were already computed.
        """
        path = self._path(key)
        tmp = None
        try:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            envelope = {"format": _ENVELOPE_FORMAT, "key": key,
                        "scenario": scenario, "run": run}
            fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path),
                                       suffix=".tmp")
            with os.fdopen(fd, "w") as fh:
                json.dump(envelope, fh, sort_keys=True)
            os.replace(tmp, path)
        except OSError:
            if tmp is not None:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
            return
        self.stats.stores += 1

    # -- maintenance --------------------------------------------------------
    def entries(self) -> List[Dict[str, object]]:
        """Every stored entry: ``{"key", "scenario", "bytes", "path"}``."""
        out: List[Dict[str, object]] = []
        if not os.path.isdir(self.root):
            return out
        for dirpath, dirnames, filenames in os.walk(self.root):
            dirnames.sort()
            for filename in sorted(filenames):
                if not filename.endswith(".json"):
                    continue
                path = os.path.join(dirpath, filename)
                scenario = "?"
                try:
                    with open(path) as fh:
                        scenario = json.load(fh).get("scenario", "?")
                except (OSError, ValueError):
                    pass
                out.append({
                    "key": filename[:-len(".json")],
                    "scenario": scenario,
                    "bytes": os.path.getsize(path),
                    "path": path,
                })
        return out

    def clear(self) -> int:
        """Remove every entry; returns the number of entries removed."""
        removed = 0
        for entry in self.entries():
            try:
                os.unlink(str(entry["path"]))
                removed += 1
            except OSError:  # pragma: no cover - raced removal
                pass
        return removed

    def size_bytes(self) -> int:
        return sum(int(entry["bytes"]) for entry in self.entries())

    def __len__(self) -> int:
        return len(self.entries())

"""Logical file content and per-host local file systems.

BitDew never looks inside the files it moves; it needs their size, an MD5
checksum for integrity verification (the receiver-driven transfer check of
§3.4.2) and, on each host, a local cache directory it can add to and purge.
:class:`FileContent` is the logical file: a name, a size in MB, a checksum
and, optionally, a small real payload (handy in unit tests).  When no
payload is given the checksum is derived from a content seed so that two
files created from the same seed compare equal and a corrupted copy can be
detected.

:class:`LocalFileSystem` is one host's storage: path -> FileContent with
capacity accounting (DSL-Lab nodes have 2 GB flash, §4.1) and purge support
(the "clean the storage space" administration task of §2.1).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional

__all__ = ["FileContent", "LocalFileSystem", "StorageFullError"]


class StorageFullError(RuntimeError):
    """Raised when a host's disk cannot hold a new file."""


def _md5_of(text: str) -> str:
    return hashlib.md5(text.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class FileContent:
    """A logical file: what BitDew knows about the bytes it moves."""

    name: str
    size_mb: float
    checksum: str
    payload: Optional[bytes] = None

    def __post_init__(self):
        if self.size_mb < 0:
            raise ValueError("size_mb must be non-negative")

    @classmethod
    def from_seed(cls, name: str, size_mb: float, seed: Optional[str] = None) -> "FileContent":
        """Create a logical file whose checksum derives from a content seed."""
        content_seed = seed if seed is not None else name
        return cls(name=name, size_mb=float(size_mb),
                   checksum=_md5_of(f"{content_seed}:{size_mb}"))

    @classmethod
    def from_bytes(cls, name: str, payload: bytes) -> "FileContent":
        """Create a logical file carrying a real (small) payload."""
        return cls(name=name, size_mb=len(payload) / (1024.0 * 1024.0),
                   checksum=hashlib.md5(payload).hexdigest(), payload=payload)

    def verify(self, other: "FileContent") -> bool:
        """True when *other* is an intact copy of this file."""
        return (self.checksum == other.checksum
                and abs(self.size_mb - other.size_mb) < 1e-12)

    def corrupted(self) -> "FileContent":
        """Return a copy with a flipped checksum (fault-injection helper)."""
        return FileContent(self.name, self.size_mb,
                           _md5_of(self.checksum + "!corrupt"), self.payload)


class LocalFileSystem:
    """One host's local storage: a path-addressed cache with a capacity."""

    def __init__(self, capacity_mb: float = float("inf"), owner: Optional[str] = None):
        if capacity_mb <= 0:
            raise ValueError("capacity_mb must be positive")
        self.capacity_mb = float(capacity_mb)
        self.owner = owner
        self._files: Dict[str, FileContent] = {}
        #: running total of the stored sizes; exactly 0.0 when empty
        self._used_mb = 0.0

    # -- capacity ----------------------------------------------------------
    @property
    def used_mb(self) -> float:
        return self._used_mb

    @property
    def free_mb(self) -> float:
        return self.capacity_mb - self.used_mb

    # -- file operations ------------------------------------------------------
    def write(self, path: str, content: FileContent) -> FileContent:
        """Store *content* at *path* (overwriting), enforcing capacity."""
        existing = self._files.get(path)
        needed = content.size_mb - (existing.size_mb if existing else 0.0)
        if needed > self.free_mb + 1e-12:
            raise StorageFullError(
                f"{self.owner or 'host'}: cannot store {content.size_mb:.1f} MB, "
                f"only {self.free_mb:.1f} MB free"
            )
        self._files[path] = content
        self._used_mb += needed
        return content

    def read(self, path: str) -> FileContent:
        try:
            return self._files[path]
        except KeyError:
            raise FileNotFoundError(path) from None

    def exists(self, path: str) -> bool:
        return path in self._files

    def delete(self, path: str) -> bool:
        removed = self._files.pop(path, None)
        if removed is not None:
            self._used_mb = self._used_mb - removed.size_mb if self._files else 0.0
        return removed is not None

    def list_paths(self) -> List[str]:
        return sorted(self._files)

    def purge(self) -> int:
        """Delete everything; returns the number of files removed."""
        count = len(self._files)
        self._files.clear()
        self._used_mb = 0.0
        return count

    def __len__(self) -> int:
        return len(self._files)

    def __contains__(self, path: str) -> bool:
        return path in self._files

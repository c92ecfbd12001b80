"""The one id space of a run.

BitDew gives every runtime object an AUID (§3.5), and hosts, flows,
transfer records and out-of-band handles are numbered as they are built.
Those numbers leak into results — BitTorrent names its RNG streams after
``host.uid``, ``Host.__hash__`` is the uid, the elastic ring hashes AUIDs —
so all five sequences live here and :func:`rewind` puts them back to the
state of a freshly imported interpreter.  ``run_spec`` is its only caller:
every run, first in a process or Nth on a reused pool worker, numbers its
objects identically.  Code that builds ``Environment``s without
``run_spec`` (tests, ``examples/``) just keeps drawing process-monotonic
ids.

Draw with ``next(ids.hosts)`` — the attribute read at draw time, never
``from repro.sim.ids import hosts``: :func:`rewind` rebinds the names.
"""

from __future__ import annotations

import itertools
from typing import Iterator

__all__ = ["AUID_RUN_BASELINE", "auids", "flows", "handles", "hosts",
           "rewind", "transfers"]

#: The first AUID a run draws.  Importing ``repro`` consumes exactly one
#: (``repro.core.attributes.DEFAULT_ATTRIBUTE`` is ``attribute:1``); pinned
#: by ``tests/test_ids.py::test_import_consumes_exactly_one_auid``.
AUID_RUN_BASELINE = 2

hosts: Iterator[int] = itertools.count()
flows: Iterator[int] = itertools.count()
transfers: Iterator[int] = itertools.count(1)
handles: Iterator[int] = itertools.count(1)
auids: Iterator[int] = itertools.count(1)


def rewind() -> None:
    """Restart every sequence where a fresh interpreter's first run starts."""
    global hosts, flows, transfers, handles, auids
    hosts = itertools.count()
    flows = itertools.count()
    transfers = itertools.count(1)
    handles = itertools.count(1)
    auids = itertools.count(AUID_RUN_BASELINE)

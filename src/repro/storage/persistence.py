"""AUID generation.

The BitDew prototype persists every runtime object (Data, Attribute,
Locator, Transfer, ...) through Java JDO/JPOX; each object carries an AUID,
"a variant of the DCE UID" (§3.5).  :func:`new_auid` derives such an
identifier from a label and the run's AUID sequence, so a seeded simulation
that creates its objects in the same order gets the same AUIDs.  The string
is exactly ``str(uuid.uuid5(namespace, f"{label}:{n}"))``, computed with one
SHA-1 and no ``uuid.UUID`` object; there is no random fallback.  The
services persist their objects through
:class:`repro.storage.database.Database` directly.
"""

from __future__ import annotations

import hashlib

from repro.sim import ids

__all__ = ["new_auid"]

#: ``uuid.UUID("8c6b7f2e-bd3e-4c5a-9e6d-2b1f0a7c4d5e").bytes``
_NAMESPACE = bytes.fromhex("8c6b7f2ebd3e4c5a9e6d2b1f0a7c4d5e")


def new_auid(label: str) -> str:
    """Return the next AUID of the run for *label* (a version-5 UUID string)."""
    name = f"{label}:{next(ids.auids)}".encode()
    digest = bytearray(
        hashlib.sha1(_NAMESPACE + name, usedforsecurity=False).digest()[:16])
    digest[6] = digest[6] & 0x0F | 0x50     # RFC 4122 version 5
    digest[8] = digest[8] & 0x3F | 0x80     # RFC 4122 variant
    h = digest.hex()
    return f"{h[:8]}-{h[8:12]}-{h[12:16]}-{h[16:20]}-{h[20:]}"

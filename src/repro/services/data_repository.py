"""Data Repository service (DR, paper §3.4.2).

The DR has two responsibilities: interfacing with persistent storage and
providing remote access to data.  It "acts as a wrapper around legacy file
server or file system" — here it wraps the stable service host's
:class:`~repro.storage.filesystem.LocalFileSystem` and hands out
:class:`~repro.core.data.Locator` objects plus the protocol description the
Data Transfer service needs to move the bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.data import Data, Locator
from repro.core.exceptions import DataNotFoundError
from repro.net.host import Host
from repro.storage.filesystem import FileContent, LocalFileSystem
from repro.transfer.oob import TransferEndpoint

__all__ = ["DataRepositoryService", "ProtocolDescription"]

#: The protocol a repository locator names when the caller asks for none.
_DEFAULT_PROTOCOL = "http"
#: Simulated service time of one remote repository access, in seconds.
_ACCESS_OVERHEAD_S = 0.0005


@dataclass(frozen=True)
class ProtocolDescription:
    """What a client needs to set up the file transfer service (§3.4.1)."""

    protocol: str
    host_name: str
    reference: str
    supports_resume: bool = True


class DataRepositoryService:
    """Persistent storage with remote access, on a stable host."""

    def __init__(self, env, host: Host,
                 filesystem: Optional[LocalFileSystem] = None):
        self.env = env
        self.host = host
        self.filesystem = filesystem if filesystem is not None else LocalFileSystem(
            owner=host.name)
        self.default_protocol = _DEFAULT_PROTOCOL
        #: data_uid -> repository path
        self._paths: Dict[str, str] = {}
        self.requests = 0

    # -- storage ------------------------------------------------------------------
    def path_for(self, data: Data) -> str:
        return f"repository/{data.uid}/{data.name}"

    def store_now(self, data: Data, content: FileContent) -> Locator:
        """Write content into the repository and return its permanent locator."""
        if not data.matches_content(content):
            raise ValueError(
                f"content checksum/size does not match data {data.name!r}")
        path = self.path_for(data)
        self.filesystem.write(path, content)
        self._paths[data.uid] = path
        return Locator(data_uid=data.uid, host_name=self.host.name,
                       reference=path, protocol=self.default_protocol,
                       permanent=True)

    def has(self, data_uid: str) -> bool:
        path = self._paths.get(data_uid)
        return path is not None and self.filesystem.exists(path)

    def retrieve_now(self, data_uid: str) -> FileContent:
        path = self._paths.get(data_uid)
        if path is None or not self.filesystem.exists(path):
            raise DataNotFoundError(
                f"repository on {self.host.name} holds no content for {data_uid!r}")
        return self.filesystem.read(path)

    def delete_now(self, data_uid: str) -> bool:
        path = self._paths.pop(data_uid, None)
        if path is None:
            return False
        return self.filesystem.delete(path)

    def register_upload(self, data: Data) -> Locator:
        """Acknowledge content uploaded out-of-band into the repository path.

        Used by clients that push content with the Data Transfer service: the
        bytes land at :meth:`path_for`; this records the path and returns the
        permanent locator to register in the Data Catalog.
        """
        path = self.path_for(data)
        if not self.filesystem.exists(path):
            raise DataNotFoundError(
                f"no uploaded content at {path!r} on {self.host.name}")
        content = self.filesystem.read(path)
        if not data.matches_content(content):
            raise ValueError(
                f"uploaded content does not match data {data.name!r} "
                "(checksum/size mismatch)")
        self._paths[data.uid] = path
        return Locator(data_uid=data.uid, host_name=self.host.name,
                       reference=path, protocol=self.default_protocol,
                       permanent=True)

    def endpoint_for(self, data_uid: str) -> TransferEndpoint:
        """The repository-side endpoint of a transfer of *data_uid*."""
        path = self._paths.get(data_uid)
        if path is None:
            raise DataNotFoundError(
                f"repository on {self.host.name} holds no content for {data_uid!r}")
        return TransferEndpoint(host=self.host, filesystem=self.filesystem,
                                path=path)

    @property
    def stored_count(self) -> int:
        return len(self._paths)

    @property
    def used_mb(self) -> float:
        return self.filesystem.used_mb

    # -- remote-access protocol (generators: costed when called over RPC) -----------
    def describe_protocol(self, data_uid: str, protocol: Optional[str] = None):
        """Generator: the protocol description for downloading *data_uid*."""
        self.requests += 1
        yield self.env.timeout(_ACCESS_OVERHEAD_S)
        path = self._paths.get(data_uid)
        if path is None:
            raise DataNotFoundError(
                f"repository on {self.host.name} holds no content for {data_uid!r}")
        return ProtocolDescription(
            protocol=(protocol or self.default_protocol),
            host_name=self.host.name,
            reference=path,
        )

    def delete(self, data_uid: str):
        """Generator: remote delete of the repository's permanent copy."""
        self.requests += 1
        yield self.env.timeout(_ACCESS_OVERHEAD_S)
        return self.delete_now(data_uid)

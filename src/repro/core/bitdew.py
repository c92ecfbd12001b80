"""The BitDew API (paper §3.3): create, put, get, search, publish.

"The BitDew APIs provide functions to create a slot in this space and to put
and get files between the local storage and the data space."

The API object is bound to one *host agent* (one attached node); every
method that talks to a remote service is a generator meant to be yielded
from a simulation process — this is the Python counterpart of the blocking
Java calls in the paper's listings.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Generator, Optional, Set, Union

from repro.core.attributes import Attribute, parse_attribute
from repro.core.data import Data, DataFlag, DataStatus
from repro.core.events import DataEventType
from repro.core.exceptions import DataNotFoundError
from repro.storage.filesystem import FileContent
from repro.sim.kernel import Event

if TYPE_CHECKING:  # typing-only: the runtime import goes runtime -> bitdew
    from repro.core.runtime import HostAgent

__all__ = ["BitDew"]


class BitDew:
    """Data-space manipulation bound to one host agent."""

    def __init__(self, agent: "HostAgent") -> None:
        self.agent = agent
        self.env = agent.env

    # ------------------------------------------------------------------ creation
    def create_data(self, name: str, size_mb: float = 0.0,
                    content: Optional[FileContent] = None,
                    flags: DataFlag = DataFlag.NONE
                    ) -> Generator[Event, Any, Data]:
        """Generator: create a data slot and register it in the Data Catalog.

        When *content* is given the meta-information (size, MD5) is computed
        from it, exactly like creating a datum from a file in the paper.
        """
        if content is not None:
            data = Data.from_content(content, flags=flags, name=name)
            self.agent.filesystem.write(self.agent.cache_path(data), content)
        else:
            data = Data(name=name, size_mb=size_mb, flags=flags)
        registered = yield from self.agent.invoke("dc", "register_data", data)
        self.agent.register_local(data, content_present=content is not None)
        self.agent.event_bus.dispatch(DataEventType.CREATE, data,
                                      self.agent.attribute_of(data), self.env.now)
        return registered if registered is not None else data

    def createData(self, *args: Any,  # noqa: N802 - paper-style alias
                   **kwargs: Any) -> Generator[Event, Any, Data]:
        return self.create_data(*args, **kwargs)

    def create_attribute(
            self, definition: Union[str, Dict[str, Any], Attribute]) -> Attribute:
        """Parse/build an attribute (``attr name = {replica=..., oob=...}``)."""
        if isinstance(definition, Attribute):
            return definition
        if isinstance(definition, dict):
            return Attribute(**definition)
        return parse_attribute(definition)

    def createAttribute(  # noqa: N802 - paper-style alias
            self, definition: Union[str, Dict[str, Any], Attribute]) -> Attribute:
        return self.create_attribute(definition)

    # ------------------------------------------------------------------ content movement
    def put(self, data: Data, content: FileContent,
            protocol: Optional[str] = None) -> Generator[Event, Any, Any]:
        """Generator: copy *content* into the data space (the repository).

        The local cache gets a copy as well; the repository copy becomes the
        datum's permanent locator registered in the Data Catalog.
        """
        if not data.matches_content(content):
            # The slot may have been created empty; fill in the meta-information.
            data.size_mb = content.size_mb
            data.checksum = content.checksum
        self.agent.filesystem.write(self.agent.cache_path(data), content)
        self.agent.register_local(data, content_present=True)
        locator = yield from self.agent.upload(data, content, protocol=protocol)
        data.status = DataStatus.AVAILABLE
        return locator

    def get(self, data: Data, protocol: Optional[str] = None,
            blocking: bool = True
            ) -> Generator[Event, Any, Optional[FileContent]]:
        """Generator: copy the datum's content from the data space to the cache.

        With ``blocking=False`` the download is started in the background and
        tracked by the TransferManager (use ``wait_for``/``barrier``).
        """
        if self.agent.has_local(data.uid) and self.agent.local_content(data.uid) is not None:
            return self.agent.local_content(data.uid)
        if blocking:
            content = yield from self.agent.fetch(data, protocol=protocol)
            return content
        process = self.env.process(self.agent.fetch(data, protocol=protocol))
        self.agent.transfer_manager.track(data, process)
        yield self.env.timeout(0.0)
        return None

    # ------------------------------------------------------------------ search / delete
    def search_data(self, name: str) -> Generator[Event, Any, Data]:
        """Generator: find a datum by its label through the Data Catalog."""
        matches = yield from self.agent.invoke("dc", "find_by_name", name)
        if not matches:
            raise DataNotFoundError(f"no data named {name!r} in the catalog")
        return matches[0]

    def searchData(  # noqa: N802 - paper-style alias
            self, name: str) -> Generator[Event, Any, Data]:
        return self.search_data(name)

    def delete_data(self, data: Data) -> Generator[Event, Any, Data]:
        """Generator: delete the datum everywhere (catalog, scheduler,
        repository, cache)."""
        yield from self.agent.invoke("dc", "delete_data", data.uid)
        yield from self.agent.invoke("ds", "unschedule", data.uid)
        yield from self.agent.invoke("dr", "delete", data.uid)
        self.agent.remove_local(data.uid, fire_event=True)
        data.status = DataStatus.DELETED
        return data

    # ------------------------------------------------------------------ generic publish/search
    def publish(self, key: str, value: Any) -> Generator[Event, Any, Any]:
        """Generator: publish an arbitrary key/value pair in the DHT (§3.3)."""
        result = yield from self.agent.ddc.publish_pair(
            f"kv:{key}", value, origin=self.agent.host.name)
        return result

    def search(self, key: str) -> Generator[Event, Any, Set[Any]]:
        """Generator: look up the values published under *key* in the DHT."""
        values = yield from self.agent.ddc.search_pair(
            f"kv:{key}", origin=self.agent.host.name)
        return values

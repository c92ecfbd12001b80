"""Collaborative BitTorrent-style transfer protocol (the paper's collective
out-of-band protocol, §3.4.2, evaluated in §4.3 and §5).

The paper distributes large shared files (the 2.68 GB Genebase, the
application binary) with BitTorrent because a swarm's aggregate upload
capacity grows with the number of participants: completion time stays nearly
flat as nodes are added, whereas an FTP server's uplink is divided among
them (Figures 3a and 5).  BitTorrent also pays a noticeably higher fixed
overhead (tracker announce, peer handshakes, per-piece protocol chatter),
which is why the paper observes FTP winning for small files and small node
counts.

Two swarm models are provided (this is the ablation called out in
``DESIGN.md``):

``piece``
    A piece-level simulation: the file is cut into pieces; every leecher
    repeatedly selects its rarest missing piece, picks a peer that has it
    and a free upload slot, and downloads the piece as a network flow.
    Completed peers keep seeding.  Faithful but O(nodes x pieces) flows.
    The swarm indexes who holds what (``_Swarm.holders``), so one selection
    costs a sort of the peer's missing pieces by ``len(holders[piece])``
    plus a walk over the holders of the pieces it tries (usually one) --
    never a scan of the swarm.

``fluid``
    A calibrated analytic model of swarm makespan (seed-constrained start-up,
    peer-exchange steady state, piece-granularity propagation term) used for
    large sweeps where the piece-level model would be too slow.  The seeder's
    uplink is reserved as background load for the duration so that concurrent
    point-to-point transfers still see the contention.

``auto`` (default) picks ``piece`` when ``nodes x pieces`` is below
``DETAIL_BUDGET`` and ``fluid`` otherwise.

The calibration is module constants: piece size and piece-count bounds
(``PIECE_SIZE_MB``, ``MIN_PIECES``, ``MAX_PIECES``), the fixed costs
(``TRACKER_ANNOUNCE_S``, ``HANDSHAKE_S``, ``PER_PIECE_OVERHEAD_S``,
``PEER_DISCOVERY_S``), the per-peer slot limits (``MAX_UPLOADS_PER_PEER``,
``MAX_PARALLEL_PIECE_DOWNLOADS``), the per-connection throughput cap
(``CONNECTION_RATE_CAP_MBPS``) and the fluid model's ``EFFICIENCY``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, Generator, List, Optional, Set, Tuple

from repro.sim.kernel import Environment, Event
from repro.sim.rng import RandomStreams
from repro.net.flows import Network, TransferFailed
from repro.net.host import Host
from repro.transfer.oob import (
    DaemonConnector,
    NonBlockingOOBTransfer,
    TransferError,
    TransferHandle,
)

__all__ = ["BitTorrentProtocol", "SwarmStats"]

#: A file is cut into pieces of this size, at least ``MIN_PIECES`` and at
#: most ``MAX_PIECES`` of them.
PIECE_SIZE_MB = 4.0
MAX_PIECES = 64
MIN_PIECES = 4
#: Joining a swarm: the .torrent fetch and tracker announce, then the first
#: peer handshakes.
TRACKER_ANNOUNCE_S = 0.5
HANDSHAKE_S = 0.2
#: Protocol chatter (have / request messages) around each piece.
PER_PIECE_OVERHEAD_S = 0.01
MAX_UPLOADS_PER_PEER = 4
MAX_PARALLEL_PIECE_DOWNLOADS = 2
#: The fluid model's wait for simultaneously arriving peers (one tracker poll).
PEER_DISCOVERY_S = 1.0
#: BitTorrent clients (Azureus/BTPD in the paper) do not saturate a GigE
#: link; this caps each peer connection's application throughput.
CONNECTION_RATE_CAP_MBPS = 8.0
#: The share of a peer's upload capacity the fluid model counts as useful.
EFFICIENCY = 0.85
#: ``auto`` mode simulates a swarm piece by piece up to this many
#: ``peers x pieces``.
DETAIL_BUDGET = 4000


@dataclass
class SwarmStats:
    """Aggregate statistics of one swarm (exported for experiment reports)."""

    infohash: str
    piece_count: int
    peers_joined: int = 0
    peers_completed: int = 0
    pieces_transferred: int = 0


class _Peer:
    """Piece-level swarm participant."""

    def __init__(self, handle: TransferHandle, piece_count: int):
        self.handle = handle
        self.host: Host = handle.destination.host
        self.pieces: Set[int] = set()
        self.piece_count = piece_count
        self.active_uploads = 0
        self.active_downloads = 0
        #: position in the swarm's join order, assigned by ``_Swarm.add_peer``
        self.rank = -1

    @property
    def complete(self) -> bool:
        return len(self.pieces) == self.piece_count


class _Swarm:
    """All state shared by the transfers of one content item."""

    def __init__(self, env: Environment, infohash: str, piece_count: int,
                 piece_size_mb: float):
        self.env = env
        self.infohash = infohash
        self.piece_count = piece_count
        self.piece_size_mb = piece_size_mb
        #: initial seeders: hosts that have the full content (the service node)
        self.seed_hosts: List[Host] = []
        self.seed_active_uploads: Dict[int, int] = {}
        #: members by join rank (two transfers on one host are two peers)
        self.peers: Dict[int, _Peer] = {}
        #: ``holders[piece]``: the member peers that hold *piece*, in the
        #: order they got it (the seeds hold every piece and are not listed)
        self.holders: List[List[_Peer]] = [[] for _ in range(piece_count)]
        self._watched_hosts: Set[int] = set()
        self.stats = SwarmStats(infohash=infohash, piece_count=piece_count)
        self._changed = env.event()
        #: background-load reservation flag for the fluid model
        self.background_reserved = False
        self.fluid_active = 0

    # -- change notification ---------------------------------------------------
    def notify(self) -> None:
        event, self._changed = self._changed, self.env.event()
        if not event.triggered:
            event.succeed(None)

    @property
    def changed(self) -> Event:
        return self._changed

    def _watch(self, host: Host) -> None:
        """A member's host going down or coming back changes what the parked
        leechers can download (and fails the one parked on that host)."""
        if host.uid not in self._watched_hosts:
            self._watched_hosts.add(host.uid)
            host.on_failure(self._host_changed)
            host.on_recovery(self._host_changed)

    def _host_changed(self, _host: Host) -> None:
        self.notify()

    # -- membership ---------------------------------------------------------------
    def add_seed(self, host: Host) -> None:
        if host.uid not in self.seed_active_uploads:
            self.seed_hosts.append(host)
            self.seed_active_uploads[host.uid] = 0
            self._watch(host)
            self.notify()

    def add_peer(self, peer: _Peer) -> None:
        # peers_joined only grows, so it numbers the joins.
        peer.rank = self.stats.peers_joined
        self.peers[peer.rank] = peer
        self.stats.peers_joined += 1
        self._watch(peer.host)
        self.notify()

    def add_piece(self, peer: _Peer, piece: int) -> None:
        peer.pieces.add(piece)
        self.holders[piece].append(peer)

    def remove_peer(self, peer: _Peer) -> None:
        del self.peers[peer.rank]
        for piece in peer.pieces:
            self.holders[piece].remove(peer)
        self.notify()


class BitTorrentProtocol(NonBlockingOOBTransfer):
    """BitTorrent: collaborative swarm distribution of shared files."""

    name = "bittorrent"
    daemon_based = True

    def __init__(
        self,
        env: Environment,
        network: Network,
        mode: str = "auto",
        rng: Optional[RandomStreams] = None,
    ):
        super().__init__(env, network)
        if mode not in ("auto", "piece", "fluid"):
            raise ValueError("mode must be 'auto', 'piece' or 'fluid'")
        self.mode = mode
        self.daemon = DaemonConnector(env)
        self.rng = rng if rng is not None else RandomStreams(7)
        self._swarms: Dict[str, _Swarm] = {}

    # -- swarm management -------------------------------------------------------
    def piece_count_for(self, size_mb: float) -> int:
        if size_mb <= 0:
            return 1
        raw = int(math.ceil(size_mb / PIECE_SIZE_MB))
        return max(MIN_PIECES, min(MAX_PIECES, raw))

    def swarm_for(self, handle: TransferHandle) -> _Swarm:
        infohash = handle.content.checksum
        swarm = self._swarms.get(infohash)
        if swarm is None:
            pieces = self.piece_count_for(handle.content.size_mb)
            swarm = _Swarm(self.env, infohash, pieces,
                           handle.content.size_mb / pieces)
            self._swarms[infohash] = swarm
        swarm.add_seed(handle.source.host)
        return swarm

    def swarm_stats(self, content_checksum: str) -> Optional[SwarmStats]:
        swarm = self._swarms.get(content_checksum)
        return swarm.stats if swarm else None

    def _effective_mode(self, swarm: _Swarm) -> str:
        if self.mode != "auto":
            return self.mode
        expected_peers = max(len(swarm.peers) + 1, swarm.stats.peers_joined + 1)
        if expected_peers * swarm.piece_count > DETAIL_BUDGET:
            return "fluid"
        return "piece"

    # -- OOBTransfer interface -----------------------------------------------------
    def connect(self, handle: TransferHandle):
        """Start the local daemon, fetch metadata and announce to the tracker."""
        yield from self.daemon.ensure_started(handle.destination.host)
        latency = self.network.latency_between(handle.source.host,
                                               handle.destination.host)
        # .torrent metadata fetch + tracker announce + first peer handshakes.
        yield self.env.timeout(TRACKER_ANNOUNCE_S + HANDSHAKE_S
                               + 2.0 * latency)
        return True

    def disconnect(self, handle: TransferHandle):
        yield from self.daemon.command()
        return True

    def _run_transfer(self, handle: TransferHandle):
        if not handle.source.exists():
            raise TransferError(
                f"source file {handle.source.path!r} missing on "
                f"{handle.source.host.name}"
            )
        swarm = self.swarm_for(handle)
        if self._effective_mode(swarm) == "fluid":
            yield from self._run_fluid(handle, swarm)
        else:
            yield from self._run_piece_level(handle, swarm)
        return handle

    # -- piece-level model -----------------------------------------------------------
    def _run_piece_level(self, handle: TransferHandle, swarm: _Swarm):
        peer = _Peer(handle, swarm.piece_count)
        swarm.add_peer(peer)
        try:
            while not peer.complete:
                if not peer.host.online:
                    raise TransferError(f"peer {peer.host.name} went offline")
                choice = self._select_piece_and_source(swarm, peer)
                if choice is None:
                    # Nothing downloadable right now: wait for the swarm to change.
                    yield swarm.changed
                    continue
                piece, kind, source = choice
                yield from self._download_piece(swarm, peer, piece, kind, source)
            # Full file assembled locally.
            handle.transferred_mb = handle.content.size_mb
            handle.destination.write(handle.source.read())
            swarm.stats.peers_completed += 1
            # The peer keeps seeding (its pieces stay available to others).
            swarm.notify()
        except TransferError:
            swarm.remove_peer(peer)
            raise
        return handle

    def _select_piece_and_source(
            self, swarm: _Swarm, peer: _Peer) -> Optional[Tuple[int, str, Any]]:
        """Rarest-first piece selection + least-busy source selection.

        Among the online holders of a piece with a free upload slot the
        source is the minimum of ``(active_uploads, join order)``, the seeds
        ordered before every peer.
        """
        if peer.active_downloads >= MAX_PARALLEL_PIECE_DOWNLOADS:
            return None
        missing = [p for p in range(swarm.piece_count) if p not in peer.pieces]
        if not missing:
            return None
        # Order by availability (rarest first); shuffle ties via the RNG.
        missing = self.rng.shuffle(f"pieces-{peer.host.uid}", missing)
        holders = swarm.holders
        missing.sort(key=lambda piece: len(holders[piece]))
        # The seeds hold every piece, so the best of them is the same for all.
        seed, seed_uploads = None, MAX_UPLOADS_PER_PEER
        for host in swarm.seed_hosts:
            uploads = swarm.seed_active_uploads[host.uid]
            if uploads < seed_uploads and host.online:
                seed, seed_uploads = host, uploads
        for piece in missing:
            # *peer* misses the piece, so it is not among its holders.
            source, uploads = None, seed_uploads
            for holder in holders[piece]:
                busy = holder.active_uploads
                if (busy < uploads or (busy == uploads and source is not None
                                       and holder.rank < source.rank)) \
                        and holder.host.online:
                    source, uploads = holder, busy
            if source is not None:
                return piece, "peer", source
            if seed is not None:
                return piece, "seed", seed
        return None

    def _download_piece(self, swarm: _Swarm, peer: _Peer, piece: int,
                        kind: str, source: Any) -> Generator[Event, Any, None]:
        source_host = source if kind == "seed" else source.host
        peer.active_downloads += 1
        if kind == "seed":
            swarm.seed_active_uploads[source_host.uid] += 1
        else:
            source.active_uploads += 1
        try:
            yield self.env.timeout(PER_PIECE_OVERHEAD_S)
            flow = self.network.transfer(
                source_host, peer.host, swarm.piece_size_mb,
                label=f"bt:{swarm.infohash[:8]}:p{piece}->{peer.host.name}",
                rate_cap_mbps=CONNECTION_RATE_CAP_MBPS,
            )
            try:
                yield flow.done
            except TransferFailed as exc:
                raise TransferError(str(exc)) from exc
            swarm.add_piece(peer, piece)
            peer.handle.transferred_mb = len(peer.pieces) * swarm.piece_size_mb
            swarm.stats.pieces_transferred += 1
            swarm.notify()
        finally:
            peer.active_downloads -= 1
            if kind == "seed":
                swarm.seed_active_uploads[source_host.uid] -= 1
            else:
                source.active_uploads -= 1

    # -- fluid model -------------------------------------------------------------------
    def _fluid_makespan(self, handle: TransferHandle, swarm: _Swarm,
                        n_peers: int) -> float:
        """Analytic swarm completion time for a homogeneous-ish swarm."""
        size_mb = handle.content.size_mb
        # Upload side: up to max_uploads_per_peer parallel connections, each
        # capped; download side: the piece-level model downloads pieces
        # serially, so one connection cap applies (keeps both models aligned).
        upload_cap = CONNECTION_RATE_CAP_MBPS * MAX_UPLOADS_PER_PEER
        seed_up = sum(min(h.uplink_mbps, upload_cap)
                      for h in swarm.seed_hosts if h.online)
        seed_up = max(seed_up, 1e-9)
        peer_up = min(handle.destination.host.uplink_mbps, upload_cap)
        peer_down = min(handle.destination.host.downlink_mbps,
                        CONNECTION_RATE_CAP_MBPS)
        n = max(1, n_peers)
        # Steady-state bound: total demand over total (efficiency-discounted)
        # upload capacity, the receiver's downlink, and the requirement that
        # the seed push at least one full copy into the swarm.
        aggregate = (n * size_mb) / (seed_up + (n - 1) * peer_up * EFFICIENCY)
        steady = max(size_mb / peer_down, size_mb / seed_up, aggregate)
        # Piece-granularity propagation: the last piece still has to ripple
        # through ~log2(n) exchange generations.
        propagation = (swarm.piece_size_mb / (peer_up * EFFICIENCY)) \
            * math.ceil(math.log2(n + 1))
        overhead = swarm.piece_count * PER_PIECE_OVERHEAD_S
        return steady + propagation + overhead

    def _run_fluid(self, handle: TransferHandle, swarm: _Swarm):
        swarm.stats.peers_joined += 1
        swarm.fluid_active += 1
        seed_host = handle.source.host
        if not swarm.background_reserved:
            # The swarm keeps the seeder's uplink busy; reserve it so that
            # concurrent point-to-point transfers observe the contention.
            self.network.add_background_load(seed_host, "up",
                                             seed_host.uplink_mbps * 0.9)
            swarm.background_reserved = True
        try:
            # Let the tracker learn about simultaneously-arriving peers before
            # sizing the swarm (one tracker-poll interval).
            yield self.env.timeout(PEER_DISCOVERY_S)
            # Peers currently known to the tracker (including this one).
            n_peers = swarm.fluid_active + swarm.stats.peers_completed
            makespan = self._fluid_makespan(handle, swarm, n_peers)
            jitter = self.rng.uniform(
                f"bt-jitter-{handle.destination.host.uid}", 0.0, 0.05 * makespan)
            yield self.env.timeout(makespan + jitter)
            if not handle.destination.host.online:
                raise TransferError(
                    f"peer {handle.destination.host.name} went offline")
            handle.transferred_mb = handle.content.size_mb
            handle.destination.write(handle.source.read())
            swarm.stats.peers_completed += 1
        finally:
            swarm.fluid_active -= 1
            if swarm.fluid_active == 0 and swarm.background_reserved:
                self.network.remove_background_load(seed_host, "up",
                                                    seed_host.uplink_mbps * 0.9)
                swarm.background_reserved = False
        return handle

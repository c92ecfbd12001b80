"""Oracle for the swarm's holder index.

``ReferenceSwarm`` is the piece selection the indexed ``_Swarm`` replaced:
``piece_availability`` and ``holders_of`` scan every peer of the swarm, once
per missing piece per selection, and the source is the head of a stable sort
of the holders found.  A hypothesis state machine drives an indexed swarm and
a reference swarm through the same joins, landed pieces, upload slots, host
failures / recoveries, peer failures and same-host re-joins, and after every
step requires the same ``(piece, kind, source)`` for every member (the two
sides draw their tie shuffles from equally seeded streams, so a selection
that consumed the RNG differently would drift apart too).
"""

from __future__ import annotations

import pytest
from hypothesis import Phase, settings, strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize, invariant,
                                 precondition, rule, run_state_machine_as_test)

from repro.net.flows import Network
from repro.net.host import Host
from repro.sim import ids
from repro.sim.kernel import Environment
from repro.sim.rng import RandomStreams
from repro.storage.filesystem import FileContent, LocalFileSystem
from repro.transfer.bittorrent import (
    MAX_PARALLEL_PIECE_DOWNLOADS as MAX_PARALLEL,
    MAX_UPLOADS_PER_PEER as MAX_UPLOADS,
    BitTorrentProtocol,
    _Peer,
    _Swarm,
)
from repro.transfer.oob import TransferEndpoint

PIECES = 4
N_SEEDS = 2
N_HOSTS = 5
MAX_PEERS = 8


# ---------------------------------------------------------------------------
# The reference: scan every peer per question, sort the holders per piece.
# ---------------------------------------------------------------------------
class ReferenceSwarm:
    def __init__(self, piece_count):
        self.piece_count = piece_count
        self.seed_hosts = []
        self.seed_active_uploads = {}
        self.peers = []          # join order; two peers may share a host

    def add_seed(self, host):
        self.seed_hosts.append(host)
        self.seed_active_uploads[host.uid] = 0

    def add_peer(self, peer):
        self.peers.append(peer)

    def add_piece(self, peer, piece):
        peer.pieces.add(piece)

    def remove_peer(self, peer):
        self.peers.remove(peer)

    # -- the pre-index selection, verbatim ------------------------------------
    def piece_availability(self, piece):
        count = len(self.seed_hosts)
        for peer in self.peers:
            if piece in peer.pieces:
                count += 1
        return count

    def holders_of(self, piece, max_uploads):
        """Peers/seeds that have *piece* and a free upload slot (online only)."""
        holders = []
        for host in self.seed_hosts:
            if host.online and self.seed_active_uploads[host.uid] < max_uploads:
                holders.append(("seed", host))
        for peer in self.peers:
            if (piece in peer.pieces and peer.host.online
                    and peer.active_uploads < max_uploads):
                holders.append(("peer", peer))
        return holders

    def select(self, peer, rng, max_uploads, max_parallel):
        """Rarest-first piece selection + least-busy source selection."""
        if peer.active_downloads >= max_parallel:
            return None
        missing = [p for p in range(self.piece_count) if p not in peer.pieces]
        if not missing:
            return None
        # Order by availability (rarest first); shuffle ties via the RNG.
        missing = rng.shuffle(f"pieces-{peer.host.uid}", missing)
        missing.sort(key=self.piece_availability)
        for piece in missing:
            holders = self.holders_of(piece, max_uploads)
            holders = [h for h in holders
                       if not (h[0] == "peer" and h[1] is peer)]
            if not holders:
                continue
            holders.sort(key=lambda h: (
                self.seed_active_uploads[h[1].uid] if h[0] == "seed"
                else h[1].active_uploads
            ))
            kind, source = holders[0]
            return piece, kind, source
        return None


# ---------------------------------------------------------------------------
# The state machine
# ---------------------------------------------------------------------------
class SwarmMachine(RuleBasedStateMachine):
    protocol_class = BitTorrentProtocol

    @initialize()
    def build(self):
        ids.rewind()    # the tie shuffles are named after host uids
        env = Environment()
        network = Network(env)
        self.seeds = [network.add_host(Host(f"seed{i}", stable=True))
                      for i in range(N_SEEDS)]
        self.hosts = [network.add_host(Host(f"host{i}"))
                      for i in range(N_HOSTS)]
        self.content = FileContent.from_seed("file.bin", 10)
        self.protocol = self.protocol_class(
            env, network, mode="piece", rng=RandomStreams(11))
        self.reference_rng = RandomStreams(11)
        self.swarm = _Swarm(env, self.content.checksum, PIECES, 2.0)
        self.reference = ReferenceSwarm(PIECES)
        for swarm in (self.swarm, self.reference):
            for seed in self.seeds:
                swarm.add_seed(seed)
                # A swarm's steady state: the seeds' slots are all taken, so
                # the peers' order decides (``seed_slots`` frees them).
                swarm.seed_active_uploads[seed.uid] = MAX_UPLOADS
        #: live members, oldest first: (indexed side's peer, reference's peer)
        self.members = []

    members_exist = precondition(lambda self: self.members)
    INDEX = st.integers(0, MAX_PEERS - 1)

    def _member(self, index):
        return index % len(self.members)

    # -- membership ------------------------------------------------------------
    @precondition(lambda self: len(self.members) < MAX_PEERS)
    @rule(host=st.integers(0, N_HOSTS - 1))
    def join(self, host):
        """A host joins; one that is already a member joins a second time."""
        fs = LocalFileSystem()
        source = TransferEndpoint(self.seeds[0], fs, "file.bin")
        pair = tuple(
            _Peer(self.protocol.create_handle(
                self.content, source,
                TransferEndpoint(self.hosts[host], fs, "copy.bin")),
                PIECES)
            for _ in range(2))
        self.swarm.add_peer(pair[0])
        self.reference.add_peer(pair[1])
        self.members.append(pair)

    @members_exist
    @rule(index=INDEX)
    def peer_fails(self, index):
        pair = self.members.pop(self._member(index))
        self.swarm.remove_peer(pair[0])
        self.reference.remove_peer(pair[1])

    # -- pieces and slots ------------------------------------------------------
    @members_exist
    @rule(indices=st.lists(INDEX, min_size=1, max_size=3),
          piece=st.integers(0, PIECES - 1))
    def land_piece(self, indices, piece):
        """*piece* lands on up to three members, in that (not join) order."""
        for index in indices:
            mine, theirs = self.members[self._member(index)]
            if piece not in mine.pieces:
                self.swarm.add_piece(mine, piece)
                self.reference.add_piece(theirs, piece)

    @members_exist
    @rule(index=INDEX, uploads=st.integers(0, MAX_UPLOADS),
          downloads=st.integers(0, MAX_PARALLEL))
    def peer_slots(self, index, uploads, downloads):
        for peer in self.members[self._member(index)]:
            peer.active_uploads = uploads
            peer.active_downloads = downloads

    @rule(seed=st.integers(0, N_SEEDS - 1), uploads=st.integers(0, MAX_UPLOADS))
    def seed_slots(self, seed, uploads):
        for swarm in (self.swarm, self.reference):
            swarm.seed_active_uploads[self.seeds[seed].uid] = uploads

    # -- hosts (shared by the two swarms) --------------------------------------
    @rule(host=st.integers(0, N_HOSTS + N_SEEDS - 1), up=st.booleans())
    def host_state(self, host, up):
        target = (self.hosts + self.seeds)[host]
        if up:
            target.recover()
        else:
            target.fail()

    # -- what must match after every step --------------------------------------
    def _plain(self, choice, side):
        if choice is None:
            return None
        piece, kind, source = choice
        if kind == "seed":
            return piece, kind, source.name
        return piece, kind, [pair[side] for pair in self.members].index(source)

    @invariant()
    def same_choice_for_every_member(self):
        for mine, theirs in self.members:
            indexed = self.protocol._select_piece_and_source(self.swarm, mine)
            expected = self.reference.select(
                theirs, self.reference_rng, MAX_UPLOADS, MAX_PARALLEL)
            assert self._plain(indexed, 0) == self._plain(expected, 1)

    @invariant()
    def index_holds_exactly_the_members_pieces(self):
        swarm = self.swarm
        assert list(swarm.peers.values()) == [pair[0] for pair in self.members]
        assert all(rank == peer.rank for rank, peer in swarm.peers.items())
        for piece, holders in enumerate(swarm.holders):
            assert len(holders) == len(set(map(id, holders)))
            assert {id(p) for p in holders} == {
                id(p) for p in swarm.peers.values() if piece in p.pieces}


SwarmMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None)
TestSwarmAgainstReference = SwarmMachine.TestCase


# ---------------------------------------------------------------------------
# The oracle bites: a plausible slip of the indexed selection must fail it.
# ---------------------------------------------------------------------------
class _AcquisitionOrderProtocol(BitTorrentProtocol):
    """Equally busy peers tie-break by who got the piece first (the order of
    ``holders[piece]``), not by who joined the swarm first."""

    def _select_piece_and_source(self, swarm, peer):
        choice = super()._select_piece_and_source(swarm, peer)
        if choice is None or choice[1] == "seed":
            return choice
        piece, _, source = choice
        return piece, "peer", next(
            holder for holder in swarm.holders[piece]
            if holder.active_uploads == source.active_uploads
            and holder.host.online)


def test_oracle_fails_a_wrong_swarm(hypothesis_own_constants):
    machine = type("Mutant", (SwarmMachine,),
                   {"protocol_class": _AcquisitionOrderProtocol})
    with pytest.raises(AssertionError):
        run_state_machine_as_test(
            machine, settings=settings(max_examples=300, derandomize=True,
                                       database=None, deadline=None,
                                       phases=[Phase.generate],
                                       report_multiple_bugs=False))

"""Unit tests for the out-of-band transfer framework and protocols."""

import pytest

from repro.net.flows import Network
from repro.net.host import Host
from repro.storage.filesystem import FileContent, LocalFileSystem
from repro.transfer import bittorrent
from repro.transfer.bittorrent import BitTorrentProtocol, _Peer
from repro.transfer.ftp import FTPProtocol
from repro.transfer.http import HTTPProtocol
from repro.transfer.oob import (
    TransferEndpoint,
    TransferError,
    TransferState,
)
from repro.transfer.registry import ProtocolRegistry, UnknownProtocolError, default_registry


@pytest.fixture
def platform(env):
    """A server with a file, plus four workers, on a 100 MB/s LAN."""
    network = Network(env, default_latency_s=0.001)
    server = network.add_host(Host("server", uplink_mbps=100, downlink_mbps=100,
                                   stable=True))
    server_fs = LocalFileSystem(owner="server")
    content = FileContent.from_seed("file.bin", 50)
    server_fs.write("file.bin", content)
    workers = []
    for i in range(4):
        host = network.add_host(Host(f"w{i}", uplink_mbps=100, downlink_mbps=100))
        workers.append((host, LocalFileSystem(owner=host.name)))
    source = TransferEndpoint(server, server_fs, "file.bin")
    return network, server, source, content, workers


def make_handle(protocol, content, source, worker):
    host, fs = worker
    return protocol.create_handle(
        content, source, TransferEndpoint(host, fs, "downloads/file.bin"))


def piece_file(source, pieces):
    """A file on the server that ``PIECE_SIZE_MB`` cuts into *pieces* full
    pieces: ``(its endpoint, its content)``."""
    name = f"pieces{pieces}.bin"
    content = FileContent.from_seed(name, pieces * bittorrent.PIECE_SIZE_MB)
    source.filesystem.write(name, content)
    return TransferEndpoint(source.host, source.filesystem, name), content


def start_swarm(env, network, source, content, n_workers):
    """*n_workers* fresh hosts all fetching *content* piece by piece."""
    bt = BitTorrentProtocol(env, network, mode="piece")
    workers = [(network.add_host(Host(f"peer{i}", uplink_mbps=100,
                                      downlink_mbps=100)), LocalFileSystem())
               for i in range(n_workers)]
    handles = [make_handle(bt, content, source, w) for w in workers]
    for handle in handles:
        bt.non_blocking_receive(handle)
    return bt, workers, handles


def join_by_hand(bt, content, source, hosts):
    """The swarm of *content* with one peer per entry of *hosts*, joined in
    that order and holding nothing: the tests place pieces and slots."""
    peers = []
    for host in hosts:
        handle = make_handle(bt, content, source, (host, LocalFileSystem()))
        swarm = bt.swarm_for(handle)
        peers.append(_Peer(handle, swarm.piece_count))
        swarm.add_peer(peers[-1])
    return swarm, peers


def assert_index_matches_members(swarm):
    for piece, holders in enumerate(swarm.holders):
        assert sorted(p.rank for p in holders) == [
            rank for rank, p in swarm.peers.items() if piece in p.pieces]


class TestHandleAndEndpoints:
    def test_progress_and_probe(self, env, platform):
        network, server, source, content, workers = platform
        protocol = FTPProtocol(env, network)
        handle = make_handle(protocol, content, source, workers[0])
        assert handle.progress == 0.0
        assert handle.probe() is TransferState.PENDING
        protocol.non_blocking_receive(handle)
        env.run(until=handle.done)
        assert handle.state is TransferState.COMPLETE
        assert handle.progress == 1.0
        assert handle.throughput_mbps > 0
        assert workers[0][1].read("downloads/file.bin").verify(content)

    def test_cancel(self, env, platform):
        network, server, source, content, workers = platform
        protocol = FTPProtocol(env, network)
        handle = make_handle(protocol, content, source, workers[0])
        protocol.non_blocking_receive(handle)
        env.run(until=0.1)
        handle.cancel("test cancel")
        env.run(until=5)
        assert handle.state is TransferState.CANCELLED

    def test_probe_detects_corruption(self, env, platform):
        network, server, source, content, workers = platform
        protocol = FTPProtocol(env, network)
        handle = make_handle(protocol, content, source, workers[0])
        protocol.non_blocking_receive(handle)
        env.run(until=handle.done)
        # Corrupt the received copy behind the handle's back.
        workers[0][1].write("downloads/file.bin", content.corrupted())
        assert handle.probe() is TransferState.FAILED


class TestFTP:
    def test_blocking_receive(self, env, platform, drive):
        network, server, source, content, workers = platform
        protocol = FTPProtocol(env, network)
        handle = make_handle(protocol, content, source, workers[0])
        result = drive(env, protocol.blocking_receive(handle))
        assert result.state is TransferState.COMPLETE
        # 50 MB at 100 MB/s + control overhead.
        assert 0.5 < env.now < 1.0

    def test_missing_source_fails(self, env, platform):
        network, server, _, content, workers = platform
        protocol = FTPProtocol(env, network)
        bogus_source = TransferEndpoint(server, LocalFileSystem(), "missing.bin")
        handle = protocol.create_handle(content, bogus_source,
                                        TransferEndpoint(*workers[0], "x"))
        protocol.non_blocking_receive(handle)
        env.run(until=5)
        assert handle.state is TransferState.FAILED
        assert "missing" in handle.error

    def test_concurrent_downloads_share_server_uplink(self, env, platform):
        network, server, source, content, workers = platform
        protocol = FTPProtocol(env, network)
        handles = [make_handle(protocol, content, source, w) for w in workers]
        for handle in handles:
            protocol.non_blocking_receive(handle)
        env.run(until=env.all_of([h.done for h in handles]))
        # 4 x 50 MB through a 100 MB/s uplink: at least 2 s.
        assert max(h.end_time for h in handles) >= 2.0

    def test_offline_destination_fails(self, env, platform):
        network, server, source, content, workers = platform
        protocol = FTPProtocol(env, network)
        handle = make_handle(protocol, content, source, workers[0])
        workers[0][0].fail()
        protocol.non_blocking_receive(handle)
        env.run(until=5)
        assert handle.state is TransferState.FAILED


class TestHTTP:
    def test_lower_setup_cost_than_ftp(self, env, platform, drive):
        network, server, source, content, workers = platform
        small = FileContent.from_seed("tiny.bin", 0.01)
        source.filesystem.write("tiny.bin", small)
        tiny_source = TransferEndpoint(source.host, source.filesystem, "tiny.bin")

        http = HTTPProtocol(env, network)
        handle = http.create_handle(small, tiny_source,
                                    TransferEndpoint(*workers[0], "t1"))
        drive(env, http.blocking_receive(handle))
        http_time = env.now

        from repro.sim.kernel import Environment
        env2 = Environment()
        network2 = Network(env2, default_latency_s=0.001)
        server2 = network2.add_host(Host("server", uplink_mbps=100, downlink_mbps=100))
        worker2 = network2.add_host(Host("w", uplink_mbps=100, downlink_mbps=100))
        fs2 = LocalFileSystem()
        fs2.write("tiny.bin", small)
        ftp = FTPProtocol(env2, network2)
        handle2 = ftp.create_handle(small, TransferEndpoint(server2, fs2, "tiny.bin"),
                                    TransferEndpoint(worker2, LocalFileSystem(), "t1"))
        proc = env2.process(ftp.blocking_receive(handle2))
        env2.run(until=proc)
        assert http_time < env2.now

    def test_keep_alive_avoids_second_handshake(self, env, platform, drive):
        network, server, source, content, workers = platform
        http = HTTPProtocol(env, network)
        handle1 = make_handle(http, content, source, workers[0])
        drive(env, http.blocking_receive(handle1))
        first = env.now
        handle2 = http.create_handle(
            content, source, TransferEndpoint(*workers[0], "downloads/again.bin"))
        drive(env, http.blocking_receive(handle2))
        assert (env.now - first) < first  # second fetch strictly cheaper


class TestBitTorrent:
    def test_piece_level_swarm_completes(self, env, platform):
        network, server, source, content, workers = platform
        bt = BitTorrentProtocol(env, network, mode="piece")
        handles = [make_handle(bt, content, source, w) for w in workers]
        for handle in handles:
            bt.non_blocking_receive(handle)
        env.run(until=env.all_of([h.done for h in handles]))
        for (host, fs), handle in zip(workers, handles):
            assert handle.state is TransferState.COMPLETE
            assert fs.read("downloads/file.bin").verify(content)
        stats = bt.swarm_stats(content.checksum)
        assert stats.peers_completed == len(workers)
        assert stats.pieces_transferred >= stats.piece_count  # peers exchange pieces

    def test_fluid_swarm_completes(self, env, platform):
        network, server, source, content, workers = platform
        bt = BitTorrentProtocol(env, network, mode="fluid")
        handles = [make_handle(bt, content, source, w) for w in workers]
        for handle in handles:
            bt.non_blocking_receive(handle)
        env.run(until=env.all_of([h.done for h in handles]))
        assert all(h.state is TransferState.COMPLETE for h in handles)

    def test_piece_count_bounds(self, env, platform):
        network, *_ = platform
        bt = BitTorrentProtocol(env, network)
        assert bittorrent.PIECE_SIZE_MB == 4.0
        assert (bittorrent.MIN_PIECES, bittorrent.MAX_PIECES) == (4, 64)
        assert bt.piece_count_for(1) == 4
        assert bt.piece_count_for(100) == 25
        assert bt.piece_count_for(10_000) == 64
        assert bt.piece_count_for(0) == 1

    def test_auto_mode_picks_fluid_for_large_swarms(self, env, platform,
                                                    monkeypatch):
        network, server, source, content, workers = platform
        bt = BitTorrentProtocol(env, network)
        assert bt.mode == "auto"
        swarm = bt.swarm_for(make_handle(bt, content, source, workers[0]))
        assert swarm.piece_count == 13
        assert bt._effective_mode(swarm) == "piece"
        # Crossing 4000 units by input takes ~300 joined peers at 13 pieces.
        monkeypatch.setattr(bittorrent, "DETAIL_BUDGET", 10)
        assert bt._effective_mode(swarm) == "fluid"

    def test_invalid_parameters(self, env, platform):
        network, *_ = platform
        with pytest.raises(ValueError):
            BitTorrentProtocol(env, network, mode="bogus")

    def test_daemon_started_once_per_host(self, env, platform, drive):
        network, server, source, content, workers = platform
        bt = BitTorrentProtocol(env, network, mode="piece")
        daemon = bt.daemon
        handle = make_handle(bt, content, source, workers[0])
        drive(env, bt.blocking_receive(handle))
        assert daemon.is_started(workers[0][0])
        assert not daemon.is_started(workers[1][0])
        daemon.stop(workers[0][0])
        assert not daemon.is_started(workers[0][0])

    def test_bt_slower_than_ftp_for_tiny_files(self, env, platform, drive):
        network, server, source, content, workers = platform
        tiny = FileContent.from_seed("tiny.bin", 1)
        source.filesystem.write("tiny.bin", tiny)
        tiny_source = TransferEndpoint(source.host, source.filesystem, "tiny.bin")

        ftp = FTPProtocol(env, network)
        bt = BitTorrentProtocol(env, network, mode="piece")
        start = env.now
        drive(env, ftp.blocking_receive(ftp.create_handle(
            tiny, tiny_source, TransferEndpoint(*workers[0], "ftp.bin"))))
        ftp_time = env.now - start
        start = env.now
        drive(env, bt.blocking_receive(bt.create_handle(
            tiny, tiny_source, TransferEndpoint(*workers[1], "bt.bin"))))
        bt_time = env.now - start
        assert bt_time > ftp_time


    # -- the swarm's failure path ------------------------------------------------
    def test_leecher_host_failing_mid_piece_leaves_the_swarm(self, env, platform):
        network, server, source, *_ = platform
        source, content = piece_file(source, 5)
        bt, workers, handles = start_swarm(env, network, source, content, 4)
        offered = []
        select = bt._select_piece_and_source

        def recording_select(swarm, peer):
            choice = select(swarm, peer)
            offered.append(choice and choice[2])
            return choice
        bt._select_piece_and_source = recording_select
        env.run(until=2.0)
        swarm = bt._swarms[content.checksum]
        victim = swarm.peers[0]
        assert victim.active_downloads and victim.pieces  # mid-piece, holds some
        del offered[:]
        victim.host.fail()
        env.run(until=env.all_of([h.done for h in handles[1:]]))
        assert victim.handle.state is TransferState.FAILED
        assert victim not in swarm.peers.values()
        assert not any(victim in holders for holders in swarm.holders)
        assert_index_matches_members(swarm)
        assert all(h.state is TransferState.COMPLETE for h in handles[1:])
        assert offered and victim not in offered

    def test_parked_leechers_wake_when_the_seed_recovers(self, env, platform,
                                                         monkeypatch):
        """With one upload slot each, the peers have traded what the seed gave
        out by t = 5 s and all hold the same two pieces: nothing more can
        land while the seed is away, so only its recovery can wake them."""
        network, server, source, *_ = platform
        source, content = piece_file(source, 5)
        # No input gives a peer a single upload slot.
        monkeypatch.setattr(bittorrent, "MAX_UPLOADS_PER_PEER", 1)
        bt, workers, handles = start_swarm(env, network, source, content, 6)
        env.run(until=2.5)
        server.fail()
        env.run(until=6.0)
        server.recover()
        env.run(until=5000)
        states = [h.state for h in handles]
        # The one mid-piece from the seed failed with it; the five parked ones
        # must not still be TRANSFERRING on an empty event queue.
        assert states.count(TransferState.FAILED) == 1
        assert states.count(TransferState.COMPLETE) == 5
        assert all(6.0 < h.end_time < 15.0 for h in handles
                   if h.state is TransferState.COMPLETE)

    def test_parked_peer_fails_with_its_own_host(self, env, platform,
                                                 monkeypatch):
        network, server, source, *_ = platform
        source, content = piece_file(source, 5)
        monkeypatch.setattr(bittorrent, "MAX_UPLOADS_PER_PEER", 1)
        bt, workers, handles = start_swarm(env, network, source, content, 6)
        env.run(until=2.5)
        server.fail()
        env.run(until=5.5)
        swarm = bt._swarms[content.checksum]
        assert not any(peer.active_downloads for peer in swarm.peers.values())
        parked = next(iter(swarm.peers.values()))
        parked.host.fail()
        env.run(until=5.9)
        assert parked.handle.state is TransferState.FAILED
        assert "went offline" in parked.handle.error
        assert parked not in swarm.peers.values()
        assert_index_matches_members(swarm)

    # -- membership is per transfer, not per host ------------------------------
    def test_two_transfers_on_one_host_are_two_peers(self, env, platform):
        network, server, source, _, workers = platform
        source, content = piece_file(source, 5)
        bt = BitTorrentProtocol(env, network, mode="piece")
        handles = [bt.create_handle(content, source, TransferEndpoint(
            *workers[i], f"downloads/copy{n}.bin"))
            for n, i in enumerate((0, 0, 1))]
        for handle in handles:
            bt.non_blocking_receive(handle)
        env.run(until=env.all_of([h.done for h in handles]))
        swarm = bt._swarms[content.checksum]
        assert all(h.state is TransferState.COMPLETE for h in handles)
        assert len(swarm.peers) == swarm.stats.peers_joined == 3
        assert [len(holders) for holders in swarm.holders] == [3] * 5

    def test_remove_peer_removes_that_peer(self, env, platform):
        network, server, source, _, workers = platform
        source, content = piece_file(source, 5)
        bt = BitTorrentProtocol(env, network, mode="piece")
        host = workers[0][0]
        swarm, (first, second) = join_by_hand(bt, content, source, [host, host])
        swarm.add_piece(first, 0)
        swarm.add_piece(second, 0)
        swarm.add_piece(second, 3)
        swarm.remove_peer(first)
        assert list(swarm.peers.values()) == [second]
        assert swarm.holders[0] == [second] and swarm.holders[3] == [second]

    def test_failed_handle_rejoins_on_the_same_host(self, env, platform):
        network, server, source, *_ = platform
        source, content = piece_file(source, 5)
        bt, workers, handles = start_swarm(env, network, source, content, 3)
        env.run(until=2.0)
        swarm = bt._swarms[content.checksum]
        first_life = swarm.peers[0]
        assert first_life.pieces
        first_life.host.fail()
        env.run(until=2.5)
        assert handles[0].state is TransferState.FAILED
        first_life.host.recover()
        retry = env.process(bt.blocking_receive(handles[0]))
        env.run(until=env.all_of([retry] + [h.done for h in handles[1:]]))
        assert all(h.state is TransferState.COMPLETE for h in handles)
        assert [p.handle for p in swarm.peers.values()] == [
            handles[1], handles[2], handles[0]]
        assert first_life not in swarm.peers.values()
        assert_index_matches_members(swarm)
        assert [len(holders) for holders in swarm.holders] == [3] * 5

    # -- selection ---------------------------------------------------------------
    def test_rarest_piece_is_picked_first(self, env, platform):
        network, server, source, _, workers = platform
        source, content = piece_file(source, 5)
        bt = BitTorrentProtocol(env, network, mode="piece")
        swarm, (a, b, c, leecher) = join_by_hand(
            bt, content, source, [host for host, _ in workers])
        for peer, pieces in ((a, (0, 1, 2, 4)), (b, (0, 1, 4)), (c, (0, 2, 4))):
            for piece in pieces:
                swarm.add_piece(peer, piece)
        # Piece 3 is on the seed only; whatever the tie shuffle draws, it wins.
        for _ in range(10):
            assert bt._select_piece_and_source(swarm, leecher)[0] == 3
        swarm.add_piece(leecher, 3)
        for _ in range(10):
            assert bt._select_piece_and_source(swarm, leecher)[0] in (1, 2)

    def test_source_is_the_least_busy_then_seed_then_earliest_joiner(
            self, env, platform):
        network, server, source, _, workers = platform
        source, content = piece_file(source, 5)
        bt = BitTorrentProtocol(env, network, mode="piece")
        full = bittorrent.MAX_UPLOADS_PER_PEER
        swarm, (early, late, leecher) = join_by_hand(
            bt, content, source, [host for host, _ in workers[:3]])
        for piece in range(5):          # the later joiner got every piece first
            swarm.add_piece(late, piece)
            swarm.add_piece(early, piece)

        def chosen():
            return bt._select_piece_and_source(swarm, leecher)[2]
        swarm.seed_active_uploads[server.uid] = full - 1
        early.active_uploads = late.active_uploads = full - 1
        assert chosen() is server                   # equally busy: the seed
        late.active_uploads = full - 2
        assert chosen() is late                     # strictly less busy wins
        swarm.seed_active_uploads[server.uid] = full  # no free slot on the seed
        late.active_uploads = full - 1
        assert chosen() is early                    # equally busy: join order
        early.host.fail()
        assert chosen() is late
        late.active_uploads = full
        assert bt._select_piece_and_source(swarm, leecher) is None

    def test_selection_reads_the_candidate_pieces_holders_only(
            self, env, platform):
        """50 peers x 20 pieces: the 19 rarest pieces have two holders each,
        all out of upload slots, and the seed is full too."""
        reads = 0

        class CountedHost(Host):
            """``online`` is a plain attribute on ``Host``; here each read
            of it is counted."""

            @property
            def online(self):
                nonlocal reads
                reads += 1
                return self._online

            @online.setter
            def online(self, value):
                self._online = value

        network, server, source, *_ = platform
        source, content = piece_file(source, 20)
        bt = BitTorrentProtocol(env, network, mode="piece")
        swarm, peers = join_by_hand(
            bt, content, source, [CountedHost(f"p{i}") for i in range(50)])
        leecher, busy, free = peers[0], peers[1:39], peers[39:49]
        assert swarm.piece_count == 20
        for piece in range(19):
            for peer in busy[2 * piece:2 * piece + 2]:
                peer.active_uploads = bittorrent.MAX_UPLOADS_PER_PEER
                swarm.add_piece(peer, piece)
        for peer in free:
            swarm.add_piece(peer, 19)
        swarm.seed_active_uploads[server.uid] = bittorrent.MAX_UPLOADS_PER_PEER

        class NeverScanned(dict):
            def values(self):
                raise AssertionError("the selection scanned the membership")
            __iter__ = items = keys = values
        swarm.peers = NeverScanned(swarm.peers)
        reads = 0
        choice = bt._select_piece_and_source(swarm, leecher)
        assert choice == (19, "peer", free[0])
        assert 1 <= reads <= len(swarm.holders[19])


class TestRegistry:
    def test_default_registry_protocols(self, env, platform):
        network, *_ = platform
        registry = default_registry(env, network)
        assert set(registry.names()) == {"bittorrent", "ftp", "http"}
        assert registry.supports("FTP")
        assert isinstance(registry.get("ftp"), FTPProtocol)
        # Instances are cached.
        assert registry.get("ftp") is registry.get("ftp")

    def test_unknown_protocol(self, env, platform):
        network, *_ = platform
        registry = default_registry(env, network)
        with pytest.raises(UnknownProtocolError):
            registry.get("gridftp")

    def test_register_custom_protocol(self, env, platform):
        network, *_ = platform
        registry = ProtocolRegistry(env, network)
        registry.register("ftp", lambda e, n: FTPProtocol(e, n))
        with pytest.raises(ValueError):
            registry.register("ftp", lambda e, n: FTPProtocol(e, n))
        registry.register("ftp", lambda e, n: HTTPProtocol(e, n), replace=True)
        assert isinstance(registry.get("ftp"), HTTPProtocol)

    def test_register_instance(self, env, platform):
        network, *_ = platform
        registry = ProtocolRegistry(env, network)
        instance = HTTPProtocol(env, network)
        registry.register_instance("http", instance)
        assert registry.get("http") is instance

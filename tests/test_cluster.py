import multiprocessing
import re
import socket
import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import states_equal

from dtmgibbs import cluster, model
from dtmgibbs.cluster import (KIND_BOUNDARY, KIND_DONE, PeerDisconnected,
                              ProtocolError, SocketTransport, Topology,
                              _adjacency, decode_frame, default_topology,
                              encode_boundary, encode_frame,
                              exchange_boundaries, parse_topology,
                              recv_boundary, run_distributed_sockets,
                              worker_loop)
from dtmgibbs.engine import TrainConfig, train
from dtmgibbs.model import Hyperparams, init_state, load_checkpoint
from dtmgibbs.samplers import WordTables
from dtmgibbs.synthetic import generate_synthetic

# short enough that a protocol hang fails the test quickly
TIMEOUT = 10.0


class TestFrames:
    def test_round_trip(self):
        alpha = np.array([0.5, -1.0, 2.0])
        phi = np.arange(12, dtype=float).reshape(3, 4)
        frame = decode_frame(encode_boundary(5, 2, alpha, phi), "test")
        assert frame.kind == KIND_BOUNDARY
        assert frame.iteration == 5 and frame.sender == 2
        assert frame.dims == (3, 4)
        values = np.frombuffer(frame.payload, dtype="<f8")
        np.testing.assert_array_equal(values, np.concatenate((alpha, phi.ravel())))

    def test_corruption_detected(self):
        data = bytearray(encode_boundary(1, 1, np.ones(2), np.ones((2, 3))))
        data[-12] ^= 0xFF  # flip a payload byte
        with pytest.raises(ProtocolError, match="test: checksum mismatch"):
            decode_frame(bytes(data), "test")

    def test_bad_magic_rejected(self):
        with pytest.raises(ProtocolError):
            decode_frame(b"XXXX" + b"\x00" * 32, "test")


class _Counting:
    """Transport wrapper tallying boundary frames."""

    def __init__(self, inner, log):
        self.inner = inner
        self.log = log

    def send(self, to_id, data):
        frame = decode_frame(data, "sent")
        if frame.kind == KIND_BOUNDARY:
            self.log.append((self.inner.worker_id, to_id, len(frame.payload)))
        self.inner.send(to_id, data)

    def recv(self, from_id):
        return self.inner.recv(from_id)

    def close(self):
        self.inner.close()


class _Corrupting:
    """Flips a payload byte of every frame it delivers, or of the first one
    only with ``once``; ``sent_after`` logs the frames sent after that."""

    def __init__(self, inner, once=False):
        self.inner = inner
        self.once = once
        self.corrupted = False
        self.sent_after = []

    def send(self, to_id, data):
        if self.corrupted:
            self.sent_after.append((to_id, data))
        self.inner.send(to_id, data)

    def recv(self, from_id):
        data = self.inner.recv(from_id)
        if self.once and self.corrupted:
            return data
        self.corrupted = True
        mangled = bytearray(data)
        mangled[-8] ^= 0xFF
        return mangled


def _socketpair_transports(assignment, timeout=TIMEOUT):
    """One SocketTransport per worker; adjacent workers share a socketpair."""
    conns = {w: {} for w in assignment}
    for w, (_, right, *_) in _adjacency(assignment).items():
        if right is not None:
            conns[w][right], conns[right][w] = socket.socketpair()
    return {w: SocketTransport(w, c, timeout=timeout) for w, c in conns.items()}


def _on_threads(jobs):
    """Run {key: callable} on one test thread each; returns (results, errors)."""
    out, errs = {}, {}

    def run(key, fn):
        try:
            out[key] = fn()
        except Exception as exc:  # noqa: BLE001
            errs[key] = exc

    threads = [threading.Thread(target=run, args=item) for item in jobs.items()]
    for th in threads:
        th.start()
    for th in threads:
        th.join(timeout=6 * TIMEOUT)
        assert not th.is_alive(), f"{th.name} still running"
    return out, errs


def _tcp_transports():
    """Workers 1 and 2 joined by ``SocketTransport.connect`` over 127.0.0.1:
    worker 1 accepts, worker 2 dials."""
    addrs = {w: ("127.0.0.1", port) for w, port in zip((1, 2), cluster.free_ports(2))}
    out, errs = _on_threads({
        w: (lambda w=w: SocketTransport.connect(w, addrs[w], {3 - w: addrs[3 - w]},
                                                timeout=TIMEOUT))
        for w in (1, 2)})
    assert not errs, errs
    return out


def _pair_exchange(wrap1=lambda tr: tr, k=3, v=4):
    """Run one boundary exchange between workers 1 and 2 over a socketpair.
    Worker 1, at chain position 0, sends first and then receives through
    ``wrap1(transport)``."""
    alpha1, phi1 = np.ones(k), np.ones((k, v))
    alpha2, phi2 = 2 * np.ones(k), 2 * np.ones((k, v))
    transports = _socketpair_transports({1: [1], 2: [2]})
    try:
        return _on_threads({
            1: lambda: exchange_boundaries(wrap1(transports[1]), 1, 0, 0,
                                           send_right=(1, alpha1, phi1), right_peer=2),
            2: lambda: exchange_boundaries(transports[2], 2, 0, 1,
                                           send_left=(2, alpha2, phi2), left_peer=1),
        })
    finally:
        for tr in transports.values():
            tr.close()


def _run_workers(monkeypatch, ckpt_dir, corpus, hyper, cfg, assignment=None, log=None,
                 metrics_sink=None, timeout=TIMEOUT):
    """``run_worker`` for every worker of ``assignment`` (1:1 by default) on
    test threads, with socketpairs in place of TCP connections; returns
    (results, errors), where results maps each worker to its owned states."""
    assignment = assignment or default_topology(corpus.n_slices)
    transports = _socketpair_transports(assignment, timeout)
    if log is not None:
        transports = {w: _Counting(tr, log) for w, tr in transports.items()}
    monkeypatch.setattr(SocketTransport, "connect",
                        classmethod(lambda cls, w, *args, **kwargs: transports[w]))
    addresses = dict.fromkeys(assignment)
    try:
        return _on_threads({
            w: (lambda w=w: cluster.run_worker(w, assignment, addresses, corpus, hyper,
                                               cfg, ckpt_dir, metrics_sink=metrics_sink))
            for w in assignment})
    finally:
        for tr in transports.values():
            tr.close()


def _as_state(results):
    slices = {t: sl for states in results.values() for t, sl in states.items()}
    return SimpleNamespace(slices=[slices[t] for t in sorted(slices)])


class TestExchange:
    def test_two_workers_swap_values(self):
        out, errs = _pair_exchange()
        assert not errs
        a, p = out[1]["right"]
        np.testing.assert_array_equal(a, 2 * np.ones(3))
        a, p = out[2]["left"]
        np.testing.assert_array_equal(p, np.ones((3, 4)))

    def test_single_corrupted_frame_fails_without_retransmit(self):
        wrappers = []

        def wrap(tr):
            wrappers.append(_Corrupting(tr, once=True))
            return wrappers[-1]

        out, errs = _pair_exchange(wrap)
        assert list(errs) == [1], errs
        assert isinstance(errs[1], ProtocolError)
        assert str(errs[1]).startswith("worker 1 <- 2: checksum mismatch"), errs[1]
        # no nack and no second copy: the receiver sends nothing back
        assert wrappers[0].sent_after == []
        np.testing.assert_array_equal(out[2]["left"][0], np.ones(3))

    def test_persistent_corruption_fails(self):
        out, errs = _pair_exchange(_Corrupting)
        assert list(errs) == [1], errs
        assert isinstance(errs[1], ProtocolError)
        assert str(errs[1]).startswith("worker 1 <- 2: checksum mismatch"), errs[1]

    def test_iteration_mismatch_is_protocol_error(self):
        transports = _socketpair_transports({1: [1], 2: [2]})
        sender, receiver = transports[1], transports[2]
        try:
            sender.send(2, encode_boundary(9, 1, np.zeros(2), np.zeros((2, 3))))
            with pytest.raises(ProtocolError, match="worker 2 <- 1: iteration mismatch"):
                recv_boundary(receiver, 2, 1, 3, 1, (2, 3))
        finally:
            sender.close()
            receiver.close()

    def test_other_kind_is_protocol_error(self):
        transports = _socketpair_transports({1: [1], 2: [2]})
        sender, receiver = transports[1], transports[2]
        try:
            sender.send(2, encode_frame(KIND_DONE, 3, 1))
            with pytest.raises(ProtocolError, match="expected a boundary frame"):
                recv_boundary(receiver, 2, 1, 3, 1, (2, 3))
        finally:
            sender.close()
            receiver.close()

    def test_frame_from_another_slice_is_protocol_error(self):
        transports = _socketpair_transports({1: [1], 2: [2]})
        sender, receiver = transports[1], transports[2]
        try:
            sender.send(2, encode_boundary(3, 5, np.zeros(2), np.zeros((2, 3))))
            with pytest.raises(ProtocolError, match="worker 2 <- 1: boundary frame of "
                                                    "slice 5, expected slice 1"):
                recv_boundary(receiver, 2, 1, 3, 1, (2, 3))
        finally:
            sender.close()
            receiver.close()

    def test_frame_of_other_dims_is_protocol_error(self):
        # a well-formed frame whose (K, V) differs from the receiver's
        # own shape is refused before its values reach the samplers
        transports = _socketpair_transports({1: [1], 2: [2]})
        sender, receiver = transports[1], transports[2]
        try:
            sender.send(2, encode_boundary(3, 1, np.zeros(3), np.zeros((3, 30))))
            with pytest.raises(ProtocolError, match=r"worker 2 <- 1: boundary frame has "
                                                    r"\(K, V\) = \(3, 30\), this worker's "
                                                    r"slices have \(3, 20\)"):
                recv_boundary(receiver, 2, 1, 3, 1, (3, 20))
        finally:
            sender.close()
            receiver.close()

    def test_adjacent_ids_of_equal_parity_do_not_deadlock(self, monkeypatch, tmp_path):
        # the send/receive order follows the chain position, not the id:
        # workers 1 and 3 are positions 0 and 1, so one sends while the
        # other receives; were both to receive first, each would time out
        hyper = Hyperparams(K=2)
        corpus, _ = generate_synthetic(hyper, v=10, n_slices=2,
                                       docs_per_slice=6, doc_len=8, seed=0)
        cfg = TrainConfig(iterations=3, minibatch_size=3, seed=1)
        out, errs = _run_workers(monkeypatch, tmp_path / "ck", corpus, hyper, cfg,
                                 assignment={1: [1], 3: [2]}, timeout=0.5)
        assert not errs, errs
        assert states_equal(train(corpus, hyper, cfg).state, _as_state(out))

    def test_chain_with_frames_beyond_socket_buffers_does_not_deadlock(self):
        # no acks pace the senders: the even/odd order alone must keep a
        # chain moving when one frame (K + K*V f8 values, 1.6 MB) is far
        # larger than a socketpair's buffer
        k, v, rounds, workers = 50, 4000, 3, (1, 2, 3, 4)
        assignment = {w: [w] for w in workers}
        adjacency = _adjacency(assignment)
        transports = _socketpair_transports(assignment)
        assert transports[1]._conns[2].getsockopt(
            socket.SOL_SOCKET, socket.SO_SNDBUF) < 8 * (k + k * v)
        rng = np.random.default_rng(0)
        loads = {w: (w, rng.normal(size=k), rng.normal(size=(k, v))) for w in workers}

        def job(w):
            left, right, position = adjacency[w]
            sides = dict(send_left=loads[w], send_right=loads[w],
                         left_peer=left, right_peer=right)
            return lambda: [exchange_boundaries(transports[w], w, i, position, **sides)
                            for i in range(rounds)][-1]

        try:
            t0 = time.monotonic()
            out, errs = _on_threads({w: job(w) for w in workers})
            elapsed = time.monotonic() - t0
        finally:
            for tr in transports.values():
                tr.close()
        assert not errs, errs
        assert elapsed < TIMEOUT, f"{elapsed:.1f} s for {rounds} rounds"
        for w in workers:
            left, right, _ = adjacency[w]
            for side, peer in (("left", left), ("right", right)):
                if peer is None:
                    assert out[w][side] is None
                else:
                    np.testing.assert_array_equal(out[w][side][0], loads[peer][1])
                    np.testing.assert_array_equal(out[w][side][1], loads[peer][2])


class TestDistributedRuns:
    def test_single_slice_no_messages(self, monkeypatch, tmp_path):
        log = []
        hyper = Hyperparams(K=2)
        corpus, _ = generate_synthetic(hyper, v=10, n_slices=1,
                                       docs_per_slice=6, doc_len=8, seed=0)
        res, errs = _run_workers(monkeypatch, tmp_path, corpus, hyper,
                                 TrainConfig(iterations=2, minibatch_size=3, seed=1),
                                 log=log)
        assert not errs, errs
        assert len(_as_state(res).slices) == 1
        assert log == []

    def test_message_count_and_volume(self, small_synthetic, monkeypatch, tmp_path):
        log = []
        hyper, corpus, _ = small_synthetic  # T=3, K=4, V=40
        cfg = TrainConfig(iterations=2, minibatch_size=5, seed=3)
        _, errs = _run_workers(monkeypatch, tmp_path, corpus, hyper, cfg, log=log)
        assert not errs, errs
        t, k, v = corpus.n_slices, hyper.K, corpus.vocabulary.size
        assert len(log) == 2 * (t - 1) * cfg.iterations
        values = sum(e[2] for e in log) // 8
        assert values == 2 * (t - 1) * (k + k * v) * cfg.iterations

    def test_in_process_equals_sequential(self, small_synthetic, monkeypatch, tmp_path):
        hyper, corpus, _ = small_synthetic
        cfg = TrainConfig(iterations=4, minibatch_size=6, seed=11)
        seq = train(corpus, hyper, cfg).state
        res, errs = _run_workers(monkeypatch, tmp_path, corpus, hyper, cfg)
        assert not errs, errs
        assert states_equal(seq, _as_state(res))

    def test_packed_workers_equal_sequential(self, small_synthetic, tmp_path):
        hyper, corpus, _ = small_synthetic  # T=3 on 2 workers
        cfg = TrainConfig(iterations=3, minibatch_size=6, seed=12)
        seq = train(corpus, hyper, cfg).state
        packed = run_distributed_sockets(corpus, hyper, cfg, tmp_path / "ck",
                                         assignment=default_topology(3, workers=2))
        assert states_equal(seq, packed)

    def test_metrics_from_every_worker_every_iteration(self, small_synthetic,
                                                       monkeypatch, tmp_path):
        hyper, corpus, _ = small_synthetic
        cfg = TrainConfig(iterations=3, minibatch_size=6, seed=14)
        rows = []
        _, errs = _run_workers(monkeypatch, tmp_path, corpus, hyper, cfg,
                               metrics_sink=rows.append)
        assert not errs, errs
        seen = sorted((r["iteration"], r["slice"]) for r in rows)
        expected = [(i, t) for i in range(3) for t in range(1, corpus.n_slices + 1)]
        assert seen == expected

    def test_stopped_worker_run_leaves_the_last_periodic_checkpoint(
            self, small_synthetic, monkeypatch, tmp_path):
        # every worker stops during iteration 5 (0-based) of 7, with a
        # checkpoint due every 3: the set on disk is the one stamped 3
        hyper, corpus, _ = small_synthetic
        cfg = TrainConfig(iterations=7, minibatch_size=6, seed=16, checkpoint_every=3)

        class Stop(Exception):
            pass

        def stop_at_iteration_5(row):
            if row["iteration"] == 5:
                raise Stop

        _, errs = _run_workers(monkeypatch, tmp_path / "ck", corpus, hyper, cfg,
                               metrics_sink=stop_at_iteration_5)
        assert sorted(errs) == [1, 2, 3]
        assert all(isinstance(e, Stop) for e in errs.values()), errs
        loaded, seed, iteration = load_checkpoint(tmp_path / "ck", corpus, hyper)
        assert (seed, iteration) == (16, 3)
        seq = train(corpus, hyper, TrainConfig(iterations=3, minibatch_size=6, seed=16))
        assert states_equal(seq.state, loaded)

    def test_socket_workers_equal_sequential(self, small_synthetic, tmp_path):
        # mini-batches of 6: B = min(V, ceil(6 * 30 / 4)) = V = 40, so every
        # word table is rebuilt each iteration, through the carried path
        hyper, corpus, _ = small_synthetic
        cfg = TrainConfig(iterations=3, minibatch_size=6, seed=15)
        seq = train(corpus, hyper, cfg).state
        assert all(WordTables(sl, 6).budget == corpus.vocabulary.size for sl in seq.slices)
        assert all(sl.word_src.dtype == np.float32 for sl in seq.slices)
        sock = run_distributed_sockets(corpus, hyper, cfg, tmp_path / "ck")
        assert states_equal(seq, sock)


    def test_socket_workers_equal_sequential_with_stale_tables(self, stale_synthetic,
                                                              tmp_path):
        # B=15 < V=200: each worker carries its own slices' word tables
        hyper, corpus, cfg = stale_synthetic
        seq = train(corpus, hyper, cfg).state
        assert all(sl.word_src is not None for sl in seq.slices)
        sock = run_distributed_sockets(corpus, hyper, cfg, tmp_path / "ck",
                                       assignment=default_topology(4, workers=2))
        assert states_equal(seq, sock)


class TestSocketFailures:
    def test_unreachable_peer_raises_after_retries(self):
        from dtmgibbs.cluster import free_ports
        mine, dead = free_ports(2)  # nothing listens on `dead`
        with pytest.raises(PeerDisconnected, match="cannot reach"):
            SocketTransport.connect(2, ("127.0.0.1", mine),
                                    {1: ("127.0.0.1", dead)}, connect_retries=3)

    def _run_until_failure(self, small_synthetic, tmp_path):
        hyper, corpus, _ = small_synthetic
        cfg = TrainConfig(iterations=200, minibatch_size=6, seed=1)
        t0 = time.monotonic()
        with pytest.raises(PeerDisconnected) as err:
            run_distributed_sockets(corpus, hyper, cfg, tmp_path / "ck")
        assert time.monotonic() - t0 < 15
        assert multiprocessing.active_children() == []   # survivors were stopped
        return str(err.value)

    def test_worker_dying_before_connect_stops_the_run(self, small_synthetic,
                                                       tmp_path, monkeypatch):
        real = cluster.run_worker

        def run_worker(worker_id, *args, **kwargs):
            if worker_id == 1:
                raise RuntimeError("worker 1 fails before connecting")
            return real(worker_id, *args, **kwargs)

        monkeypatch.setattr(cluster, "run_worker", run_worker)
        message = self._run_until_failure(small_synthetic, tmp_path)
        assert "worker-1 exited with code 1" in message

    def test_frozen_worker_stops_the_run(self, small_synthetic, tmp_path, monkeypatch):
        real = cluster.worker_loop

        def worker_loop(worker_id, *args, **kwargs):
            if worker_id == 1:
                time.sleep(120)   # connected, then silent but alive
            return real(worker_id, *args, **kwargs)

        monkeypatch.setattr(cluster, "worker_loop", worker_loop)
        monkeypatch.setattr(cluster, "DEFAULT_TIMEOUT", 1.0)
        message = self._run_until_failure(small_synthetic, tmp_path)
        # worker 2 times out waiting on worker 1, and worker 3 waiting on
        # worker 2, at about the same time; the sleeping worker 1 is stopped
        assert re.search(r"worker-[23] exited with code 1", message), message

    def test_silent_peer_raises_peer_disconnected(self):
        mine, theirs = socket.socketpair()
        transport = SocketTransport(1, {2: mine}, timeout=0.2)
        try:
            with pytest.raises(PeerDisconnected, match=r"worker 1 <- 2: no progress in 0.2 s"):
                transport.recv(2)
        finally:
            transport.close()
            theirs.close()

    def test_closed_peer_raises_peer_disconnected(self):
        mine, theirs = socket.socketpair()
        transport = SocketTransport(1, {2: mine}, timeout=TIMEOUT)
        theirs.close()
        try:
            with pytest.raises(PeerDisconnected, match=r"worker 1 -> 2: .*Broken pipe"):
                transport.send(2, bytes(1 << 20))
        finally:
            transport.close()


class TestTcpTransport:
    """Over real TCP (socketpairs cannot show it): every socket sets
    TCP_NODELAY, and exchange rounds are not stalled."""

    def test_connected_pair_sets_nodelay(self):
        transports = _tcp_transports()
        try:
            accepted, dialed = transports[1]._conns[2], transports[2]._conns[1]
            for conn in (accepted, dialed):
                assert conn.family == socket.AF_INET
                assert conn.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY) != 0
        finally:
            for tr in transports.values():
                tr.close()

    def test_exchange_rounds_are_not_stalled(self):
        # a few ms per round on loopback; one delayed-ACK stall (about
        # 40 ms) per round breaks the bar
        k, v, rounds = 50, 1000, 20
        rng = np.random.default_rng(0)
        loads = {w: (w, rng.normal(size=k), rng.normal(size=(k, v))) for w in (1, 2)}
        sides = {1: dict(send_right=loads[1], right_peer=2),
                 2: dict(send_left=loads[2], left_peer=1)}
        transports = _tcp_transports()

        def job(w):
            return lambda: [exchange_boundaries(transports[w], w, i, w - 1, **sides[w])
                            for i in range(rounds)][-1]

        try:
            t0 = time.perf_counter()
            out, errs = _on_threads({w: job(w) for w in (1, 2)})
            per_round = (time.perf_counter() - t0) / rounds
        finally:
            for tr in transports.values():
                tr.close()
        assert not errs, errs
        np.testing.assert_array_equal(out[1]["right"][1], loads[2][2])
        np.testing.assert_array_equal(out[2]["left"][1], loads[1][2])
        assert per_round < 0.020, f"{per_round * 1e3:.1f} ms per exchange round"


class TestWorkerInit:
    def test_owned_slices_equal_full_init(self, small_synthetic):
        hyper, corpus, _ = small_synthetic  # T=3
        cfg = TrainConfig(iterations=0, seed=9)
        full = init_state(corpus, hyper, cfg.seed)
        states = worker_loop(2, {1: [1], 2: [2, 3]}, corpus, hyper, cfg, None)
        assert sorted(states) == [2, 3]
        assert states_equal(SimpleNamespace(slices=full.slices[1:]),
                            _as_state({2: states}))

    def test_builds_only_owned_slices(self, monkeypatch):
        hyper = Hyperparams(K=3)
        corpus, _ = generate_synthetic(hyper, v=20, n_slices=4,
                                       docs_per_slice=6, doc_len=8, seed=2)
        streams = []
        real = model.rng_for

        def rng_for(seed, *path):
            streams.append(path)
            return real(seed, *path)

        monkeypatch.setattr(model, "rng_for", rng_for)
        worker_loop(2, default_topology(4), corpus, hyper,
                    TrainConfig(iterations=0, seed=1), None)
        assert sorted(streams) == [("init-phi", 2), ("init-z", 2)]


class TestTopology:
    def test_parse_and_checksum(self, tmp_path):
        p = tmp_path / "topo.txt"
        p.write_text("# chain of two\n"
                     "coordinator = 127.0.0.1:7000\n"
                     "worker 1 = 127.0.0.1:7001\n"
                     "worker 2 = 127.0.0.1:7002\n"
                     "slices 1 = 1\n"
                     "slices 2 = 2\n", encoding="utf-8")
        topo = parse_topology(p)
        assert topo.coordinator == ("127.0.0.1", 7000)
        assert topo.workers == {1: ("127.0.0.1", 7001), 2: ("127.0.0.1", 7002)}
        assert topo.assignment() == {1: [1], 2: [2]}
        other = Topology(coordinator=None, workers=topo.workers, slices=topo.slices)
        assert topo.checksum() == other.checksum()
        changed = Topology(coordinator=None,
                           workers={1: ("127.0.0.1", 7001), 2: ("127.0.0.1", 9999)},
                           slices=topo.slices)
        assert topo.checksum() != changed.checksum()

    def test_env_override(self, tmp_path, monkeypatch):
        p = tmp_path / "topo.txt"
        p.write_text("coordinator = 127.0.0.1:7000\nworker 1 = 127.0.0.1:7001\n",
                     encoding="utf-8")
        monkeypatch.setenv("DTMGIBBS_COORDINATOR", "10.0.0.9:4242")
        assert parse_topology(p).coordinator == ("10.0.0.9", 4242)

    def test_default_topology_packing(self):
        assert default_topology(4) == {1: [1], 2: [2], 3: [3], 4: [4]}
        packed = default_topology(5, workers=2)
        owned = sorted(t for ts in packed.values() for t in ts)
        assert owned == [1, 2, 3, 4, 5]
        assert len(packed) == 2

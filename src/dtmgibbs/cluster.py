"""Per-time-slice worker protocol.

Each worker owns one slice (or a contiguous run of slices).  At the
start of every iteration adjacent workers swap their current slice mean
and topic-term parameters, then compute independently; that handshake
is the only cross-worker communication, so the run is almost
embarrassingly parallel.

Neighbor values consumed by the samplers are always the peer's
previous-iteration values, which makes a distributed run numerically
identical to the sequential engine.

Workers run as separate processes, one per slice or per contiguous run
of slices, joined by one TCP connection per adjacent pair;
``run_worker`` is the entry point of a worker process, whether
``run_distributed_sockets`` forks it or ``dtmgibbs worker`` starts it.

Wire format::

    magic    4s   "DTMB"
    version  u8   2
    kind     u8   0 alpha, 1 phi, 2 ack, 3 nack, 4 hello, 5 hello-ok,
                  6 hello-mismatch, 7 metrics, 8 done
    iter     u32
    from     i32  sending slice/worker id
    ndim     u8
    dims     u32 * ndim
    nbytes   u32
    payload  nbytes bytes (f8 little-endian for alpha/phi, utf-8 otherwise)
    crc      u32  CRC-32 of every byte before it, header included

Socket framing adds a u32 length prefix per frame.

Every TCP socket the package dials or accepts sets ``TCP_NODELAY``
(``configure_socket``).  The exchange is stop-and-wait: each frame
waits for a small ack before the next one goes out.  With Nagle's
algorithm on, a frame's last partial segment is held until the
previous segment is acknowledged, and the receiver delays that ACK
(about 40 ms on Linux), so every frame would stall for a delayed ACK.

A timeout, reset or broken pipe on a socket surfaces as
``PeerDisconnected`` naming this worker and the peer.
"""

from __future__ import annotations

import os
import socket
import struct
import time
import zlib
from dataclasses import dataclass, field

import numpy as np

from .corpus import Corpus
from .engine import TrainConfig, neighbor_contexts, run_iteration
from .model import Hyperparams, ModelState, accumulate_counts, init_slice_state

MAGIC = b"DTMB"
VERSION = 2

KIND_ALPHA = 0
KIND_PHI = 1
KIND_ACK = 2
KIND_NACK = 3
KIND_HELLO = 4
KIND_HELLO_OK = 5
KIND_HELLO_MISMATCH = 6
KIND_METRICS = 7
KIND_DONE = 8

_HEAD = struct.Struct("<4sBBIiB")
DEFAULT_TIMEOUT = 120.0


class ProtocolError(RuntimeError):
    pass


class PeerDisconnected(ProtocolError):
    pass


@dataclass(frozen=True)
class BoundaryMessage:
    """One parameter payload exchanged between adjacent workers."""

    iteration: int
    slice_from: int
    kind: int                 # KIND_ALPHA or KIND_PHI
    payload: np.ndarray       # (K,) or (K, V) float64

    def encode(self) -> bytes:
        return encode_frame(self.kind, self.iteration, self.slice_from,
                            np.ascontiguousarray(self.payload, dtype="<f8").tobytes(),
                            dims=self.payload.shape)


def encode_frame(kind: int, iteration: int, sender: int, payload: bytes = b"",
                 dims=()) -> bytes:
    head = _HEAD.pack(MAGIC, VERSION, kind, iteration, sender, len(dims))
    dim_bytes = struct.pack(f"<{len(dims)}I", *dims) if dims else b""
    body = head + dim_bytes + struct.pack("<I", len(payload)) + payload
    return body + struct.pack("<I", zlib.crc32(body))


@dataclass
class Frame:
    kind: int
    iteration: int
    sender: int
    dims: tuple
    payload: bytes
    crc_ok: bool

    def array(self) -> np.ndarray:
        arr = np.frombuffer(self.payload, dtype="<f8").astype(np.float64)
        return arr.reshape(self.dims) if self.dims else arr

    def text(self) -> str:
        return self.payload.decode("utf-8")


def decode_frame(data: bytes) -> Frame:
    """Parse one frame; a frame whose length disagrees with its header
    raises ProtocolError, a checksum mismatch sets ``crc_ok`` False."""
    if len(data) < _HEAD.size:
        raise ProtocolError(f"truncated frame ({len(data)} bytes)")
    magic, version, kind, iteration, sender, ndim = _HEAD.unpack_from(data, 0)
    if magic != MAGIC:
        raise ProtocolError("bad magic bytes in frame")
    if version != VERSION:
        raise ProtocolError(f"unsupported frame version {version}")
    off = _HEAD.size
    if len(data) < off + 4 * ndim + 4:
        raise ProtocolError(f"truncated frame ({len(data)} bytes)")
    dims = struct.unpack_from(f"<{ndim}I", data, off) if ndim else ()
    off += 4 * ndim
    (nbytes,) = struct.unpack_from("<I", data, off)
    off += 4
    if len(data) != off + nbytes + 4:
        raise ProtocolError(f"frame of {len(data)} bytes declares a "
                            f"{nbytes}-byte payload")
    payload = data[off:off + nbytes]
    (crc,) = struct.unpack_from("<I", data, off + nbytes)
    return Frame(kind, iteration, sender, dims, payload,
                 crc_ok=(zlib.crc32(memoryview(data)[:off + nbytes]) == crc))


# ---------------------------------------------------------------------------
# Transport: length-prefixed frames over one socket per adjacent peer.
# ---------------------------------------------------------------------------

def configure_socket(conn: socket.socket, timeout: float) -> socket.socket:
    """Give ``conn`` its blocking timeout and, on TCP, ``TCP_NODELAY``.

    Other families (the AF_UNIX socketpairs of the tests) have no Nagle
    algorithm and no such option.
    """
    conn.settimeout(timeout)
    if conn.family in (socket.AF_INET, socket.AF_INET6):
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return conn


def _peer_error(conn: socket.socket, who: str, exc: OSError) -> PeerDisconnected:
    if isinstance(exc, TimeoutError):
        return PeerDisconnected(f"{who}: no progress in {conn.gettimeout():g} s")
    return PeerDisconnected(f"{who}: {exc}")


def _read_exact(conn: socket.socket, n: int, who: str) -> bytearray:
    buf = bytearray(n)
    view = memoryview(buf)
    got = 0
    while got < n:
        try:
            chunk = conn.recv_into(view[got:])
        except (TimeoutError, ConnectionError) as exc:
            raise _peer_error(conn, who, exc) from exc
        if not chunk:
            raise PeerDisconnected(f"{who}: peer closed the connection")
        got += chunk
    return buf


class SocketTransport:
    """Length-prefixed frames over already-connected sockets, one per peer.

    ``conns`` maps each adjacent worker id to its socket; every socket
    goes through ``configure_socket`` with ``timeout``.  ``connect``
    builds the sockets over TCP.
    """

    def __init__(self, worker_id: int, conns: dict, timeout: float | None = None):
        self.worker_id = worker_id
        self._conns = dict(conns)
        timeout = DEFAULT_TIMEOUT if timeout is None else timeout
        for conn in self._conns.values():
            configure_socket(conn, timeout)

    @classmethod
    def connect(cls, worker_id: int, address, peers: dict,
                timeout: float | None = None,
                connect_retries: int = 50) -> "SocketTransport":
        """Dial the peers with smaller ids and accept the larger ones.

        The dialing worker identifies itself with a hello frame.
        ``peers`` maps peer id to (host, port); ``address`` is where
        this worker listens.  ``timeout`` defaults to the module's
        ``DEFAULT_TIMEOUT`` as it is at call time.
        """
        timeout = DEFAULT_TIMEOUT if timeout is None else timeout
        conns = {}
        need_accept = [p for p in peers if p > worker_id]
        listener = None
        try:
            if need_accept:
                listener = socket.create_server(address, reuse_port=False)
                listener.settimeout(timeout)
            for peer_id, addr in sorted(peers.items()):
                if peer_id < worker_id:
                    conns[peer_id] = _dial(worker_id, peer_id, addr, timeout,
                                           connect_retries)
            for _ in need_accept:
                conn, _ = listener.accept()
                configure_socket(conn, timeout)
                hello = recv_frame(conn, f"worker {worker_id} <- new peer")
                if hello.kind != KIND_HELLO:
                    conn.close()
                    raise ProtocolError("expected hello frame on accept")
                conns[hello.sender] = conn
        except BaseException:
            for conn in conns.values():
                conn.close()
            raise
        finally:
            if listener is not None:
                listener.close()
        return cls(worker_id, conns, timeout)

    def send(self, to_id: int, data: bytes) -> None:
        send_frame(self._conns[to_id], data, f"worker {self.worker_id} -> {to_id}")

    def recv(self, from_id: int) -> bytearray:
        return _recv_bytes(self._conns[from_id], f"worker {self.worker_id} <- {from_id}")

    def close(self) -> None:
        for conn in self._conns.values():
            try:
                conn.close()
            except OSError:
                pass


def _dial(worker_id: int, peer_id: int, addr, timeout: float,
          retries: int) -> socket.socket:
    last = None
    for _ in range(retries):
        try:
            conn = configure_socket(socket.create_connection(addr, timeout=timeout),
                                    timeout)
            send_frame(conn, encode_frame(KIND_HELLO, 0, worker_id),
                       f"worker {worker_id} -> {peer_id}")
            return conn
        except OSError as exc:
            last = exc
            time.sleep(0.1)
    raise PeerDisconnected(f"worker {worker_id}: cannot reach {peer_id} at {addr}: {last}")


def send_frame(conn: socket.socket, data: bytes, who: str) -> None:
    try:
        conn.sendall(struct.pack("<I", len(data)) + data)
    except (TimeoutError, ConnectionError) as exc:
        raise _peer_error(conn, who, exc) from exc


def _recv_bytes(conn: socket.socket, who: str) -> bytearray:
    (n,) = struct.unpack("<I", _read_exact(conn, 4, who))
    return _read_exact(conn, n, who)


def recv_frame(conn: socket.socket, who: str) -> Frame:
    return decode_frame(_recv_bytes(conn, who))


# ---------------------------------------------------------------------------
# Boundary exchange
# ---------------------------------------------------------------------------

def _send_with_ack(transport, to_id: int, msg: BoundaryMessage) -> None:
    data = msg.encode()
    for attempt in range(2):
        transport.send(to_id, data)
        reply = decode_frame(transport.recv(to_id))
        if reply.kind == KIND_ACK:
            return
        if reply.kind != KIND_NACK:
            raise ProtocolError(f"expected ack/nack, got kind {reply.kind}")
    raise ProtocolError(f"peer {to_id} rejected frame twice (checksum)")


def _recv_with_retry(transport, from_id: int, expect_kind: int, iteration: int,
                     my_id: int) -> Frame:
    for attempt in range(2):
        frame = decode_frame(transport.recv(from_id))
        if not frame.crc_ok:
            transport.send(from_id, encode_frame(KIND_NACK, iteration, my_id))
            continue
        transport.send(from_id, encode_frame(KIND_ACK, iteration, my_id))
        if frame.kind != expect_kind:
            raise ProtocolError(f"expected frame kind {expect_kind}, got {frame.kind}")
        if frame.iteration != iteration:
            raise ProtocolError(f"iteration mismatch: header {frame.iteration}, local {iteration}")
        return frame
    raise ProtocolError(f"checksum failure from {from_id} after one retransmit")


def exchange_boundaries(transport, worker_id: int, iteration: int,
                        send_left=None, send_right=None,
                        left_peer: int | None = None,
                        right_peer: int | None = None) -> dict:
    """Swap (alpha, phi) payloads with the adjacent workers.

    ``send_left``/``send_right`` are (slice_index, alpha, phi) tuples
    destined for the respective peer.  Even-indexed workers send first
    then receive; odd-indexed do the reverse, which keeps any chain
    deadlock-free.  Returns {'left': (alpha, phi) | None, 'right': ...}
    holding the peers' previous-iteration values.

    A corrupted frame is re-requested once (nack) and then fatal; an
    iteration mismatch in a header is immediately fatal.
    """
    received = {"left": None, "right": None}

    def do_send():
        for peer, load in ((left_peer, send_left), (right_peer, send_right)):
            if peer is None:
                continue
            slice_index, alpha, phi = load
            _send_with_ack(transport, peer,
                           BoundaryMessage(iteration, slice_index, KIND_ALPHA, alpha))
            _send_with_ack(transport, peer,
                           BoundaryMessage(iteration, slice_index, KIND_PHI, phi))

    def do_recv():
        for side, peer in (("left", left_peer), ("right", right_peer)):
            if peer is None:
                continue
            a = _recv_with_retry(transport, peer, KIND_ALPHA, iteration, worker_id)
            p = _recv_with_retry(transport, peer, KIND_PHI, iteration, worker_id)
            received[side] = (a.array(), p.array())

    if worker_id % 2 == 0:
        do_send()
        do_recv()
    else:
        do_recv()
        do_send()
    return received


# ---------------------------------------------------------------------------
# Worker loop and distributed runners
# ---------------------------------------------------------------------------

@dataclass
class WorkerResult:
    worker_id: int
    slices: dict          # slice_index -> SliceState
    counts: dict          # slice_index -> CountSet
    metrics: list


def worker_loop(worker_id: int, owned_slices, corpus: Corpus, hyper: Hyperparams,
                cfg: TrainConfig, transport, n_slices_total: int,
                left_peer: int | None, right_peer: int | None,
                initial: dict | None = None, start_iteration: int = 0,
                metrics_sink=None) -> WorkerResult:
    """Run cfg.iterations for a contiguous run of owned slices.

    Only the lowest/highest owned slices are exchanged with peers; the
    values received are filed under slices lo-1 and hi+1 next to the
    worker's own previous-iteration values, and ``neighbor_contexts``
    reads all of them, as in the sequential engine.
    """
    owned = sorted(owned_slices)
    lo, hi = owned[0], owned[-1]
    if initial is None:
        v = corpus.vocabulary.size
        states = {t: init_slice_state(corpus.slices[t - 1], hyper.K, v, cfg.seed)
                  for t in owned}
    else:
        states = dict(initial)
    counts = {t: accumulate_counts(states[t], range(states[t].n_docs)) for t in owned}
    metrics = []

    for i in range(start_iteration, start_iteration + cfg.iterations):
        prev_alpha = {t: states[t].alpha for t in owned}
        prev_phi = {t: states[t].phi for t in owned}
        got = exchange_boundaries(
            transport, worker_id, i,
            send_left=(lo, prev_alpha[lo], prev_phi[lo]) if left_peer is not None else None,
            send_right=(hi, prev_alpha[hi], prev_phi[hi]) if right_peer is not None else None,
            left_peer=left_peer, right_peer=right_peer)
        for t, side in ((lo - 1, "left"), (hi + 1, "right")):
            if got[side] is not None:
                prev_alpha[t], prev_phi[t] = got[side]

        for t in owned:
            nb_alpha, nb_phi = neighbor_contexts(prev_alpha, prev_phi, t, n_slices_total)
            counts[t], row = run_iteration(states[t], nb_alpha, nb_phi, hyper, cfg, i)
            metrics.append(row)
            if metrics_sink is not None:
                metrics_sink(row)
    return WorkerResult(worker_id, states, counts, metrics)


def default_topology(n_slices: int, workers: int | None = None) -> dict:
    """worker id -> owned slice list; 1:1 by default, contiguous packing
    when there are fewer workers than slices."""
    if workers is None or workers >= n_slices:
        return {t: [t] for t in range(1, n_slices + 1)}
    splits = np.array_split(np.arange(1, n_slices + 1), workers)
    return {w + 1: [int(t) for t in part] for w, part in enumerate(splits) if len(part)}


def _adjacency(assignment: dict) -> dict:
    """worker -> (left_peer, right_peer) under contiguous slice ownership."""
    by_low = sorted(assignment.items(), key=lambda kv: min(kv[1]))
    ordered = [w for w, _ in by_low]
    out = {}
    for pos, w in enumerate(ordered):
        out[w] = (ordered[pos - 1] if pos > 0 else None,
                  ordered[pos + 1] if pos + 1 < len(ordered) else None)
    return out


def run_worker(worker_id: int, assignment: dict, addresses: dict,
               corpus: Corpus, hyper: Hyperparams, cfg: TrainConfig,
               checkpoint_dir, *, start_iteration: int = 0,
               initial: dict | None = None, metrics_sink=None) -> WorkerResult:
    """One worker process: connect to the chain neighbours, train the
    owned slices, and write their checkpoints.

    ``assignment`` maps every worker id to its slices and ``addresses``
    every worker id to its (host, port).  The checkpoints are stamped
    ``start_iteration + cfg.iterations``.
    """
    left, right = _adjacency(assignment)[worker_id]
    peers = {p: addresses[p] for p in (left, right) if p is not None}
    transport = SocketTransport.connect(worker_id, addresses[worker_id], peers)
    try:
        res = worker_loop(worker_id, assignment[worker_id], corpus, hyper, cfg,
                          transport, corpus.n_slices, left, right,
                          initial=initial, start_iteration=start_iteration,
                          metrics_sink=metrics_sink)
    finally:
        transport.close()
    from .model import write_slice_checkpoint  # call-time lookup: tracers rebind it
    for sl in res.slices.values():
        write_slice_checkpoint(checkpoint_dir, sl, cfg.seed,
                               start_iteration + cfg.iterations, corpus.n_slices)
    return res


# ---------------------------------------------------------------------------
# Static topology files: `worker <id> = host:port`, `slices <id> = a,b`,
# optional `coordinator = host:port`.  The checksum fingerprints the
# worker/slice layout so every participant can verify it runs the same file.
# ---------------------------------------------------------------------------

@dataclass
class Topology:
    coordinator: tuple | None
    workers: dict                      # id -> (host, port)
    slices: dict = field(default_factory=dict)  # id -> [slice indices]

    def checksum(self) -> int:
        parts = []
        for w in sorted(self.workers):
            host, port = self.workers[w]
            owned = ",".join(str(t) for t in self.slices.get(w, [w]))
            parts.append(f"{w}@{host}:{port}#{owned}")
        return zlib.crc32("|".join(parts).encode())

    def assignment(self) -> dict:
        return {w: list(self.slices.get(w, [w])) for w in self.workers}


def free_ports(n: int) -> list:
    socks = [socket.create_server(("127.0.0.1", 0)) for _ in range(n)]
    ports = [s.getsockname()[1] for s in socks]
    for s in socks:
        s.close()
    return ports


def run_distributed_sockets(corpus: Corpus, hyper: Hyperparams, cfg: TrainConfig,
                            out_dir, assignment: dict | None = None, *,
                            state: ModelState | None = None,
                            start_iteration: int = 0) -> ModelState:
    """Loopback-socket distributed run: one OS process per worker.

    Workers write per-slice checkpoints into ``out_dir``; the assembled
    final state is loaded back from them.  Numerically identical to the
    sequential runner.  As soon as one worker exits non-zero the others
    are terminated and ``PeerDisconnected`` names the worker and its
    exit code.
    """
    import multiprocessing as mp
    from multiprocessing.connection import wait

    from .model import load_checkpoint

    n = corpus.n_slices
    if assignment is None:
        assignment = default_topology(n)
    addresses = {w: ("127.0.0.1", p)
                 for w, p in zip(sorted(assignment), free_ports(len(assignment)))}
    initial = {w: None for w in assignment}
    if state is not None:
        initial = {w: {t: state.slices[t - 1] for t in owned}
                   for w, owned in assignment.items()}

    ctx = mp.get_context("fork")
    procs = [ctx.Process(target=run_worker,
                         args=(w, assignment, addresses, corpus, hyper, cfg, out_dir),
                         kwargs=dict(start_iteration=start_iteration,
                                     initial=initial[w]),
                         name=f"worker-{w}")
             for w in sorted(assignment)]
    try:
        for p in procs:
            p.start()
        running = {p.sentinel: p for p in procs}
        while running:
            for sentinel in wait(list(running)):
                p = running.pop(sentinel)
                p.join()
                if p.exitcode != 0:
                    raise PeerDisconnected(f"socket worker {p.name} exited with "
                                           f"code {p.exitcode}")
    finally:
        for p in procs:
            if p.is_alive():
                p.terminate()
        for p in procs:
            if p.pid is not None:
                p.join()
    final, _, _ = load_checkpoint(out_dir, corpus, hyper)
    return final


def _parse_addr(text: str) -> tuple:
    host, _, port = text.rpartition(":")
    return host, int(port)


def parse_topology(path) -> Topology:
    coordinator = None
    workers = {}
    slices = {}
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key == "coordinator":
                coordinator = _parse_addr(value)
            elif key.startswith("worker"):
                workers[int(key.split()[1])] = _parse_addr(value)
            elif key.startswith("slices"):
                slices[int(key.split()[1])] = [int(x) for x in value.split(",") if x]
            else:
                raise ValueError(f"{path}: unknown topology key {key!r}")
    if not workers:
        raise ValueError(f"{path}: no workers defined")
    env = os.environ.get("DTMGIBBS_COORDINATOR")
    if env:
        coordinator = _parse_addr(env)
    return Topology(coordinator=coordinator, workers=workers, slices=slices)

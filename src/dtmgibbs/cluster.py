"""Per-time-slice worker protocol.

Each worker owns one slice (or a contiguous run of slices).  At the
start of every iteration adjacent workers swap their current slice mean
and topic-term parameters, then compute independently; that handshake
is the only cross-worker communication, so the run is almost
embarrassingly parallel.

A worker runs ``engine.run_slices``, the loop ``train`` runs, over the
slices it owns (``worker_loop``).  Neighbor values consumed by the
samplers are always the peer's previous-iteration values, which makes a
distributed run, checkpoints included, identical to the sequential one.

Workers run as separate processes, one per slice or per contiguous run
of slices, joined by one TCP connection per adjacent pair;
``run_worker`` is the entry point of a worker process, whether
``run_distributed_sockets`` forks it or ``dtmgibbs worker`` starts it.

Wire format::

    magic    4s   "DTMB"
    version  u8   3
    kind     u8   4 hello, 5 hello-ok, 6 hello-mismatch, 7 metrics, 8 done,
                  9 boundary
    iter     u32
    from     i32  sending slice/worker id
    ndim     u8
    dims     u32 * ndim
    nbytes   u32
    payload  nbytes bytes (f8 little-endian for boundary, utf-8 otherwise)
    crc      u32  CRC-32 of every byte before it, header included

Socket framing adds a u32 length prefix per frame.  Kinds 0-3 (version
2's separate alpha and phi frames and their ack and nack) are retired.
A boundary frame has dims ``(K, V)`` and carries ``K + K*V`` values,
alpha first and then phi row by row; each adjacent pair sends one per
direction per iteration, with no reply.

``decode_frame`` raises ``ProtocolError`` on any malformed frame,
checksum mismatches included, so every receiver (boundary exchange,
peer hello, coordinator) fails fast, naming the peer; nothing is
retried.  TCP delivers the bytes in order; the CRC catches corruption.

Every TCP socket the package dials or accepts sets ``TCP_NODELAY``
(``configure_socket``).  With Nagle's algorithm on, a frame's last
partial segment may be held until the segments before it are
acknowledged, and the receiver may delay that ACK (about 40 ms on
Linux), while the peer cannot take its next step before the whole
frame has arrived.

A timeout, reset or broken pipe on a socket surfaces as
``PeerDisconnected`` naming this worker and the peer.
"""

from __future__ import annotations

import os
import socket
import struct
import time
import zlib
from dataclasses import dataclass, field, replace

import numpy as np

from .corpus import Corpus
from .engine import TrainConfig, run_slices
from .model import Hyperparams, ModelState, init_slice_state

MAGIC = b"DTMB"
VERSION = 3

KIND_NACK = 3    # retired, never sent; kept for the benchmark tracer's nack count
KIND_HELLO = 4
KIND_HELLO_OK = 5
KIND_HELLO_MISMATCH = 6
KIND_METRICS = 7
KIND_DONE = 8
KIND_BOUNDARY = 9

_HEAD = struct.Struct("<4sBBIiB")
DEFAULT_TIMEOUT = 120.0


class ProtocolError(RuntimeError):
    pass


class PeerDisconnected(ProtocolError):
    pass


def encode_frame(kind: int, iteration: int, sender: int, payload: bytes = b"",
                 dims=()) -> bytes:
    head = (_HEAD.pack(MAGIC, VERSION, kind, iteration, sender, len(dims))
            + struct.pack(f"<{len(dims) + 1}I", *dims, len(payload)))
    crc = zlib.crc32(payload, zlib.crc32(head))
    return b"".join((head, payload, struct.pack("<I", crc)))


def encode_boundary(iteration: int, sender: int, alpha: np.ndarray,
                    phi: np.ndarray) -> bytes:
    """One boundary frame: dims (K, V), alpha then phi as f8 values."""
    values = np.concatenate((alpha, phi.ravel())).astype("<f8", copy=False)
    return encode_frame(KIND_BOUNDARY, iteration, sender, values.tobytes(),
                        dims=phi.shape)


@dataclass
class Frame:
    kind: int
    iteration: int
    sender: int
    dims: tuple
    payload: bytes

    def text(self) -> str:
        return self.payload.decode("utf-8")


def decode_frame(data: bytes, who: str) -> Frame:
    """Parse one frame.  A frame whose length disagrees with its header
    or whose checksum does not match raises ProtocolError naming ``who``."""
    if len(data) < _HEAD.size:
        raise ProtocolError(f"{who}: truncated frame ({len(data)} bytes)")
    magic, version, kind, iteration, sender, ndim = _HEAD.unpack_from(data, 0)
    if magic != MAGIC:
        raise ProtocolError(f"{who}: bad magic bytes in frame")
    if version != VERSION:
        raise ProtocolError(f"{who}: unsupported frame version {version}")
    off = _HEAD.size
    if len(data) < off + 4 * ndim + 4:
        raise ProtocolError(f"{who}: truncated frame ({len(data)} bytes)")
    *dims, nbytes = struct.unpack_from(f"<{ndim + 1}I", data, off)
    off += 4 * (ndim + 1)
    if len(data) != off + nbytes + 4:
        raise ProtocolError(f"{who}: frame of {len(data)} bytes declares a "
                            f"{nbytes}-byte payload")
    (crc,) = struct.unpack_from("<I", data, off + nbytes)
    if zlib.crc32(memoryview(data)[:off + nbytes]) != crc:
        raise ProtocolError(f"{who}: checksum mismatch in a kind-{kind} frame")
    return Frame(kind, iteration, sender, tuple(dims), data[off:off + nbytes])


# ---------------------------------------------------------------------------
# Transport: length-prefixed frames over one socket per adjacent peer.
# ---------------------------------------------------------------------------

def configure_socket(conn: socket.socket, timeout: float) -> socket.socket:
    """Give ``conn`` its blocking timeout and, on TCP, ``TCP_NODELAY``, so
    a frame's last partial segment is not held back by Nagle's algorithm.

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


def _dial(worker_id: int, peer_id, addr, timeout: float, retries: int,
          hello: bytes = b"") -> socket.socket:
    """Connect to ``peer_id`` (a worker id, or a name such as
    "coordinator") at ``addr``, retrying while it is not yet listening,
    and send a hello frame carrying ``hello``."""
    last = None
    for _ in range(retries):
        try:
            conn = configure_socket(socket.create_connection(addr, timeout=timeout),
                                    timeout)
            send_frame(conn, encode_frame(KIND_HELLO, 0, worker_id, hello),
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
    return decode_frame(_recv_bytes(conn, who), who)


# ---------------------------------------------------------------------------
# Boundary exchange
# ---------------------------------------------------------------------------

def recv_boundary(transport, worker_id: int, peer: int, iteration: int,
                  slice_index: int, shape: tuple) -> tuple:
    """(alpha, phi) from ``peer``'s boundary frame of slice ``slice_index``
    for ``iteration``, whose phi must have this worker's ``shape`` (K, V);
    any other frame is a ProtocolError naming the peer."""
    who = f"worker {worker_id} <- {peer}"
    frame = decode_frame(transport.recv(peer), who)
    if frame.kind != KIND_BOUNDARY:
        raise ProtocolError(f"{who}: expected a boundary frame, got kind {frame.kind}")
    if frame.iteration != iteration:
        raise ProtocolError(f"{who}: iteration mismatch: header {frame.iteration}, "
                            f"local {iteration}")
    if frame.sender != slice_index:
        raise ProtocolError(f"{who}: boundary frame of slice {frame.sender}, expected "
                            f"slice {slice_index}; the workers' slice layouts differ")
    dims = frame.dims
    if len(dims) != 2 or len(frame.payload) != 8 * dims[0] * (1 + dims[1]):
        raise ProtocolError(f"{who}: boundary frame of {len(frame.payload)} bytes "
                            f"has dims {dims}")
    if tuple(dims) != tuple(shape):
        raise ProtocolError(f"{who}: boundary frame has (K, V) = {tuple(dims)}, this "
                            f"worker's slices have {tuple(shape)}")
    k, v = dims
    values = np.frombuffer(frame.payload, dtype="<f8").astype(np.float64)
    return values[:k], values[k:].reshape(k, v)


def exchange_boundaries(transport, worker_id: int, iteration: int, position: int,
                        send_left=None, send_right=None,
                        left_peer: int | None = None,
                        right_peer: int | None = None) -> dict:
    """Swap (alpha, phi) payloads with the adjacent workers.

    ``send_left``/``send_right`` are (slice_index, alpha, phi) tuples
    destined for the respective peer, if there is one; each goes out as
    one boundary frame, and each peer's frame must come from the
    adjacent slice.
    Workers at an even chain ``position`` (see ``_adjacency``) send
    first then receive; odd ones do the reverse, so every send meets a
    receiving peer and the chain cannot deadlock even when a frame
    exceeds the socket buffers.
    Returns {'left': (alpha, phi) | None, 'right': ...} holding the
    peers' previous-iteration values.

    A corrupt or truncated frame, or one of another kind, iteration or
    slice, is immediately fatal (ProtocolError).
    """
    received = {"left": None, "right": None}

    def do_send():
        for peer, load in ((left_peer, send_left), (right_peer, send_right)):
            if peer is not None:
                transport.send(peer, encode_boundary(iteration, *load))

    def do_recv():
        for side, peer, load, step in (("left", left_peer, send_left, -1),
                                       ("right", right_peer, send_right, 1)):
            if peer is not None:
                received[side] = recv_boundary(transport, worker_id, peer, iteration,
                                               load[0] + step, load[2].shape)

    if position % 2 == 0:
        do_send()
        do_recv()
    else:
        do_recv()
        do_send()
    return received


# ---------------------------------------------------------------------------
# Worker loop and distributed runners
# ---------------------------------------------------------------------------

def worker_loop(worker_id: int, assignment: dict, corpus: Corpus, hyper: Hyperparams,
                cfg: TrainConfig, transport, *, initial: dict | None = None,
                start_iteration: int = 0, metrics_sink=None) -> dict:
    """``engine.run_slices`` over the contiguous run of slices that
    ``assignment`` gives this worker; returns their states by index.

    Only the lowest/highest owned slices are exchanged with peers; the
    values received are filed under slices lo-1 and hi+1.  Metrics rows
    go to ``metrics_sink`` only, so workers never share one CSV.
    """
    owned = sorted(assignment[worker_id])
    lo, hi = owned[0], owned[-1]
    left, right, position = _adjacency(assignment)[worker_id]
    if initial is None:
        initial = {t: init_slice_state(corpus.slices[t - 1], hyper.K,
                                       corpus.vocabulary.size, cfg.seed) for t in owned}
    states = dict(initial)

    def exchange(i, alphas, phis):
        got = exchange_boundaries(transport, worker_id, i, position,
                                  send_left=(lo, alphas[lo], phis[lo]),
                                  send_right=(hi, alphas[hi], phis[hi]),
                                  left_peer=left, right_peer=right)
        for t, side in ((lo - 1, "left"), (hi + 1, "right")):
            if got[side] is not None:
                alphas[t], phis[t] = got[side]

    run_slices(states, corpus.n_slices, hyper, replace(cfg, metrics_path=None),
               start_iteration=start_iteration, exchange=exchange,
               metrics_sink=metrics_sink)
    return states


def default_topology(n_slices: int, workers: int | None = None) -> dict:
    """worker id -> owned slice list; 1:1 by default, contiguous packing
    when there are fewer workers than slices."""
    if workers is None or workers >= n_slices:
        return {t: [t] for t in range(1, n_slices + 1)}
    splits = np.array_split(np.arange(1, n_slices + 1), workers)
    return {w + 1: [int(t) for t in part] for w, part in enumerate(splits) if len(part)}


def _adjacency(assignment: dict) -> dict:
    """worker -> (left_peer, right_peer, position) under contiguous slice
    ownership; ``position`` counts the workers along the chain from 0."""
    by_low = sorted(assignment.items(), key=lambda kv: min(kv[1]))
    ordered = [w for w, _ in by_low]
    out = {}
    for pos, w in enumerate(ordered):
        out[w] = (ordered[pos - 1] if pos > 0 else None,
                  ordered[pos + 1] if pos + 1 < len(ordered) else None, pos)
    return out


def run_worker(worker_id: int, assignment: dict, addresses: dict,
               corpus: Corpus, hyper: Hyperparams, cfg: TrainConfig,
               checkpoint_dir, *, start_iteration: int = 0,
               initial: dict | None = None, metrics_sink=None) -> dict:
    """One worker process: connect to the chain neighbours and train the
    owned slices, checkpointing them into ``checkpoint_dir`` as ``train``
    does (every ``cfg.checkpoint_every`` iterations and at the end).

    ``assignment`` maps every worker id to its slices and ``addresses``
    every worker id to its (host, port).  Returns the owned states.
    """
    left, right, _ = _adjacency(assignment)[worker_id]
    peers = {p: addresses[p] for p in (left, right) if p is not None}
    transport = SocketTransport.connect(worker_id, addresses[worker_id], peers)
    try:
        return worker_loop(worker_id, assignment, corpus, hyper,
                           replace(cfg, checkpoint_dir=str(checkpoint_dir)), transport,
                           initial=initial, start_iteration=start_iteration,
                           metrics_sink=metrics_sink)
    finally:
        transport.close()


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
    host, sep, port = text.rpartition(":")
    if not sep:
        raise ValueError(f"address {text!r} is not host:port")
    return host, int(port)


def parse_topology(path) -> Topology:
    """The topology file at ``path``; a malformed line raises ValueError
    naming ``path:line``."""
    coordinator = None
    workers = {}
    slices = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, _, value = line.partition("=")
            words, value = key.split(), value.strip()
            try:
                if words == ["coordinator"]:
                    coordinator = _parse_addr(value)
                elif len(words) == 2 and words[0] == "worker":
                    workers[int(words[1])] = _parse_addr(value)
                elif len(words) == 2 and words[0] == "slices":
                    slices[int(words[1])] = [int(x) for x in value.split(",") if x]
                else:
                    raise ValueError(f"unknown topology key {key.strip()!r}; expected "
                                     "'coordinator', 'worker <id>' or 'slices <id>'")
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    if not workers:
        raise ValueError(f"{path}: no workers defined")
    env = os.environ.get("DTMGIBBS_COORDINATOR")
    if env:
        coordinator = _parse_addr(env)
    return Topology(coordinator=coordinator, workers=workers, slices=slices)

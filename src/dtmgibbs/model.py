"""Model state: per-slice parameters, count matrices, checkpoints.

State is partitioned by time slice; exactly one worker owns a slice.
Within a worker the sampler blocks read a frozen snapshot of the
previous iteration and write disjoint fields, so nothing here needs
locks.
"""

from __future__ import annotations

import os
import struct
import weakref
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .corpus import Corpus, TimeSlice
from .kernels import log_sum_exp, rng_for

CHECKPOINT_MAGIC = b"DTMC"
CHECKPOINT_VERSION = 2

PHI_INIT_VARIANCE = 0.01  # small symmetric-breaking noise; exact zero would
                          # leave every topic identical under the doc-proposal


@dataclass(frozen=True)
class Hyperparams:
    """Topic count and the three chain/emission variances."""

    K: int
    sigma2: float = 0.1  # drift variance of the slice-level mean chain
    beta2: float = 0.1   # drift variance of the per-topic term chains
    psi2: float = 0.1    # spread of document parameters around the slice mean

    def __post_init__(self):
        if self.K < 1:
            raise ValueError("K must be >= 1")
        if min(self.sigma2, self.beta2, self.psi2) <= 0:
            raise ValueError("variances must be positive")


class CountSet:
    """Topic-count tallies over one mini-batch of documents.

    docs               the tallied document ids, in mini-batch order
    c_doc[i, k]        times topic k appears in document docs[i]
    c_word_topic[k,w]  times word w carries topic k
    c_topic[k]         total tokens assigned to topic k
    """

    __slots__ = ("docs", "c_doc", "c_word_topic", "c_topic", "n_tokens")

    def __init__(self, k: int, v: int):
        self.docs = np.empty(0, dtype=np.int64)
        self.c_doc = np.zeros((0, k), dtype=np.int64)
        self.c_word_topic = np.zeros((k, v), dtype=np.int32)
        self.c_topic = np.zeros(k, dtype=np.int64)
        self.n_tokens = 0

    def validate(self, tokens=None) -> None:
        """Assert the conservation invariants; cheap, used in debug runs."""
        if (np.any(self.c_doc < 0) or np.any(self.c_word_topic < 0)
                or np.any(self.c_topic < 0)):
            raise AssertionError("negative counts")
        if self.c_doc.shape != (self.docs.shape[0], self.c_topic.shape[0]):
            raise AssertionError("c_doc does not have one row per document")
        if not np.array_equal(self.c_word_topic.sum(axis=1), self.c_topic):
            raise AssertionError("c_word_topic rows do not sum to c_topic")
        if int(self.c_topic.sum()) != self.n_tokens:
            raise AssertionError("c_topic does not sum to n_tokens")
        if int(self.c_doc.sum()) != self.n_tokens:
            raise AssertionError("c_doc does not sum to n_tokens")
        if tokens is not None:
            lengths = np.array([len(tokens[d]) for d in self.docs], dtype=np.int64)
            bad = np.flatnonzero(self.c_doc.sum(axis=1) != lengths)
            if bad.size:
                raise AssertionError(f"c_doc row of doc {int(self.docs[bad[0]])} "
                                     "does not sum to doc length")

    def equals(self, other: "CountSet") -> bool:
        return (self.n_tokens == other.n_tokens
                and np.array_equal(self.c_word_topic, other.c_word_topic)
                and np.array_equal(self.c_topic, other.c_topic)
                and np.array_equal(self.docs, other.docs)
                and np.array_equal(self.c_doc, other.c_doc))


def row_log_norms(x: np.ndarray) -> np.ndarray:
    """Row-wise log(sum(exp(row))) of a 2-D array via the max-shift.

    Each entry equals the one-row formula ``m + log(sum(exp(row - m)))``
    bit for bit: the rows are summed from C-contiguous memory, so numpy
    reduces each one in the same order as a 1-D sum.  The exponentials
    overwrite the shifted copy, so the only temporary is one array the
    size of ``x``.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    m = x.max(axis=1)
    e = x - m[:, None]
    np.exp(e, out=e)
    return m + np.log(e.sum(axis=1))


def _refresh_rows(values: np.ndarray, norms: np.ndarray, rows=None) -> None:
    """Recompute ``norms`` for the given rows of ``values`` (all if None)."""
    if rows is None:
        norms[:] = row_log_norms(values)
    else:
        rows = np.asarray(rows, dtype=np.intp)
        norms[rows] = row_log_norms(values[rows])


class SliceState:
    """All sampled parameters of one time slice.

    Keeps the log-normalizers of eta rows and phi rows cached; the
    gradient and likelihood code reads them instead of recomputing
    log-sum-exp per use.  Writers must call the refresh helpers.  Pass
    ``phi_log_norm`` when the phi normalizers are already known (a
    frozen phi scored document by document) to skip their K*V
    exponentials.

    ``successor`` builds the next iteration's state in O(mini-batch):
    it hands this state's eta, eta normalizers and z list to the
    successor, which writes its new rows there, and keeps only the rows
    they replaced.  This state stays readable: its first read of
    ``eta``, ``eta_log_norm`` or ``z`` afterwards copies its values back
    out (O(D_t), once), and a successor that is itself advanced first
    makes such a predecessor copy.  A trainer that drops each state once
    it has the next one never pays for a copy.  Write into the arrays of
    the newest state only, and read a state's arrays from the state
    again after advancing it: an array held from before is the
    successor's now.
    """

    __slots__ = ("slice_index", "tokens", "alpha", "phi", "phi_log_norm",
                 "_eta", "_eta_log_norm", "_z", "_handed", "_before", "__weakref__")

    def __init__(self, slice_index: int, tokens, alpha, phi, eta, z,
                 phi_log_norm=None):
        self.slice_index = slice_index
        self.tokens = tokens          # list of int32 arrays, shared with the corpus
        self.alpha = alpha            # (K,)
        self.phi = phi                # (K, V)
        self._eta = eta               # (D_t, K)
        self._z = z                   # list of int32 arrays, aligned with tokens
        self._eta_log_norm = np.empty(eta.shape[0])
        self._handed = None           # (successor, docs, replaced eta, norms, z)
        self._before = None           # weakref to a predecessor reading our arrays
        self.refresh_eta_norm()
        if phi_log_norm is None:
            self.phi_log_norm = np.empty(phi.shape[0])
            self.refresh_phi_norm()
        else:
            self.phi_log_norm = phi_log_norm

    @property
    def eta(self) -> np.ndarray:
        return self._own()._eta

    @property
    def eta_log_norm(self) -> np.ndarray:
        return self._own()._eta_log_norm

    @property
    def z(self) -> list:
        return self._own()._z

    def _own(self) -> "SliceState":
        """Take back a private copy of the arrays handed to the successor."""
        if self._handed is not None:
            nxt, docs, eta_rows, norm_rows, z_rows = self._handed
            eta, norms, z = nxt._eta.copy(), nxt._eta_log_norm.copy(), list(nxt._z)
            eta[docs] = eta_rows
            norms[docs] = norm_rows
            for d, zd in zip(docs.tolist(), z_rows):
                z[d] = zd
            self._eta, self._eta_log_norm, self._z = eta, norms, z
            self._handed = None
            nxt._before = None
        return self

    def successor(self, alpha, phi, changed_docs, eta_rows, z_rows) -> "SliceState":
        """The same slice one iteration on: new ``alpha`` and ``phi``, and
        for the documents ``changed_docs`` the new eta rows ``eta_rows``
        and z arrays ``z_rows``; every other document is unchanged.

        Only the changed eta normalizers are recomputed; the result
        equals ``SliceState(...)`` on the same values bit for bit.
        """
        self._own()
        before = self._before() if self._before is not None else None
        if before is not None:
            before._own()
        docs = np.asarray(changed_docs, dtype=np.intp).reshape(-1)
        eta, norms, z = self._eta, self._eta_log_norm, self._z
        nxt = SliceState.__new__(SliceState)
        self._handed = (nxt, docs, eta[docs], norms[docs], [z[d] for d in docs.tolist()])
        self._eta = self._eta_log_norm = self._z = None
        eta[docs] = eta_rows
        for d, zd in zip(docs.tolist(), z_rows):
            z[d] = zd
        nxt.slice_index = self.slice_index
        nxt.tokens = self.tokens
        nxt.alpha = alpha
        nxt.phi = phi
        nxt._eta, nxt._eta_log_norm, nxt._z = eta, norms, z
        nxt._handed = None
        nxt._before = weakref.ref(self)
        nxt.phi_log_norm = np.empty(phi.shape[0])
        nxt.refresh_eta_norm(docs)
        nxt.refresh_phi_norm()
        return nxt

    @property
    def n_docs(self) -> int:
        return self.eta.shape[0]

    @property
    def k(self) -> int:
        return self.phi.shape[0]

    @property
    def v(self) -> int:
        return self.phi.shape[1]

    def refresh_eta_norm(self, docs=None) -> None:
        _refresh_rows(self.eta, self.eta_log_norm, docs)

    def refresh_phi_norm(self, topics=None) -> None:
        _refresh_rows(self.phi, self.phi_log_norm, topics)

    def validate_normalizers(self, atol: float = 1e-9) -> None:
        for d in range(self.n_docs):
            if abs(self.eta_log_norm[d] - log_sum_exp(self.eta[d])) > atol:
                raise AssertionError(f"stale eta normalizer for doc {d}")
        for kk in range(self.k):
            if abs(self.phi_log_norm[kk] - log_sum_exp(self.phi[kk])) > atol:
                raise AssertionError(f"stale phi normalizer for topic {kk}")


@dataclass
class ModelState:
    hyper: Hyperparams
    slices: list            # SliceState, index t-1 holds slice t
    counts: list            # CountSet per slice, refreshed each iteration
    vocabulary_size: int = field(default=0)

    @property
    def n_slices(self) -> int:
        return len(self.slices)


def init_slice_state(sl: TimeSlice, k: int, v: int, seed: int) -> SliceState:
    """Fresh state of one slice, from streams keyed by its index alone,
    so a worker can build just the slices it owns.  Every token's topic
    comes from one draw."""
    t = sl.slice_index
    tokens = [doc.tokens for doc in sl.docs]
    phi = rng_for(seed, "init-phi", t).normal(0.0, np.sqrt(PHI_INIT_VARIANCE), size=(k, v))
    eta = np.zeros((sl.n_docs, k))
    ends = np.cumsum([len(w) for w in tokens], dtype=np.int64)
    n_tokens = int(ends[-1]) if len(tokens) else 0
    z_all = rng_for(seed, "init-z", t).integers(0, k, size=n_tokens, dtype=np.int32)
    return SliceState(t, tokens, np.zeros(k), phi, eta, split_flat(z_all, ends))


def split_flat(flat: np.ndarray, ends) -> list:
    """Per-document arrays cut from a flat token array; ``ends[i]`` is
    where document i stops.  Each is a copy: a view would keep the whole
    flat array alive for as long as any one document keeps its slice."""
    ends = np.asarray(ends).tolist()
    return [flat[a:b].copy() for a, b in zip([0] + ends[:-1], ends)]


def init_state(corpus: Corpus, hyper: Hyperparams, seed: int) -> ModelState:
    """Fresh state: zero means, small-noise topics, uniform assignments."""
    v = corpus.vocabulary.size
    slices = []
    counts = []
    for sl in corpus.slices:
        state = init_slice_state(sl, hyper.K, v, seed)
        slices.append(state)
        counts.append(accumulate_counts(state, range(sl.n_docs)))
    return ModelState(hyper=hyper, slices=slices, counts=counts, vocabulary_size=v)


def gather_docs(slice_state: SliceState, docs: np.ndarray):
    """(words, topics, lengths) of the given documents, each document's
    tokens contiguous and in ``docs`` order."""
    if docs.shape[0] == 0:
        empty = np.empty(0, dtype=np.int32)
        return empty, empty, np.empty(0, dtype=np.int64)
    idx = docs.tolist()
    z = [slice_state.z[d] for d in idx]
    lengths = np.fromiter(map(len, z), dtype=np.int64, count=len(z))
    w_all = np.concatenate([slice_state.tokens[d] for d in idx])
    return w_all, np.concatenate(z), lengths


def accumulate_counts(slice_state: SliceState, doc_subset) -> CountSet:
    """Tally counts over a document subset only (the mini-batch).

    Each table is one scatter-add over int32 keys: a ``bincount`` of
    ``row*K + z`` for ``c_doc``, and an ``add.at`` of ``z*V + w`` into
    the int32 ``c_word_topic``, which is as fast here and, unlike a
    ``bincount``, allocates no int64 K*V temporary (that temporary
    raised the peak RSS of a K=50, V=1000 run by about 1 MB).
    """
    k, v = slice_state.k, slice_state.v
    cs = CountSet(k, v)
    docs = np.asarray(doc_subset, dtype=np.int64).reshape(-1)
    m = docs.shape[0]
    if m == 0:
        return cs
    w_all, z_all, lengths = gather_docs(slice_state, docs)
    key = np.repeat(np.arange(0, m * k, k, dtype=np.int32), lengths)
    key += z_all
    cs.docs = docs
    cs.c_doc = np.bincount(key, minlength=m * k).reshape(m, k)
    np.multiply(z_all, v, out=key)
    key += w_all
    np.add.at(cs.c_word_topic.reshape(-1), key, np.ones(key.shape[0], dtype=np.int32))
    cs.c_topic = cs.c_word_topic.sum(axis=1, dtype=np.int64)
    cs.n_tokens = int(z_all.shape[0])
    return cs


# ---------------------------------------------------------------------------
# Checkpoints: one versioned binary file per slice, little-endian throughout.
# Layout: magic, version, master_seed u64, iteration u32, T u32, K u32, V u32,
# D_t u32, slice_index u32, alpha (K f8), phi (K*V f8), eta (D_t*K f8),
# doc lengths (D_t u32), z (sum(lengths) i32), then a u32 CRC-32 of all the
# bytes before it.  Files are written under a temporary name and renamed
# into place, so a reader sees the old file or the new one, never a mix.
# ---------------------------------------------------------------------------

_HEADER = struct.Struct("<4sBQIIIIII")
_CRC = struct.Struct("<I")


def checkpoint_path(directory, slice_index: int) -> Path:
    return Path(directory) / f"slice_{slice_index:04d}.dtmc"


def _checkpoint_chunks(sl: SliceState, master_seed: int, iteration: int, t_total: int):
    k, v, d_t = sl.k, sl.v, sl.n_docs
    yield _HEADER.pack(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, master_seed, iteration,
                       t_total, k, v, d_t, sl.slice_index)
    yield sl.alpha.astype("<f8").tobytes()
    yield sl.phi.astype("<f8").tobytes()
    yield sl.eta.astype("<f8").tobytes()
    yield np.asarray([len(z) for z in sl.z], dtype="<u4").tobytes()
    yield (np.concatenate(sl.z).astype("<i4") if d_t else np.empty(0, "<i4")).tobytes()


def write_slice_checkpoint(directory, sl: SliceState, master_seed: int,
                           iteration: int, t_total: int) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = checkpoint_path(directory, sl.slice_index)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            crc = 0
            for chunk in _checkpoint_chunks(sl, master_seed, iteration, t_total):
                fh.write(chunk)
                crc = zlib.crc32(chunk, crc)
            fh.write(_CRC.pack(crc))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_checkpoint(directory, state: ModelState, master_seed: int, iteration: int) -> None:
    for sl in state.slices:
        write_slice_checkpoint(directory, sl, master_seed, iteration, state.n_slices)


def read_slice_checkpoint(path) -> dict:
    """Decode one slice file into a dict of arrays plus header fields.

    A file shorter than its header or its declared arrays, longer than
    them, or whose CRC-32 does not match its bytes raises ValueError.
    """
    blob = Path(path).read_bytes()
    if len(blob) < _HEADER.size + _CRC.size:
        raise ValueError(f"{path}: truncated checkpoint ({len(blob)} bytes, "
                         f"its header and checksum need {_HEADER.size + _CRC.size})")
    magic, version, master_seed, iteration, t_total, k, v, d_t, slice_index = \
        _HEADER.unpack_from(blob, 0)
    if magic != CHECKPOINT_MAGIC:
        raise ValueError(f"{path}: not a checkpoint file")
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {version}")
    body_end = len(blob) - _CRC.size
    off = _HEADER.size

    def take(dtype: str, count: int) -> np.ndarray:
        nonlocal off
        end = off + np.dtype(dtype).itemsize * count
        if end > body_end:
            raise ValueError(f"{path}: truncated checkpoint ({len(blob)} bytes, "
                             f"its arrays and checksum need at least {end + _CRC.size})")
        arr = np.frombuffer(blob, dtype, count=count, offset=off)
        off = end
        return arr

    alpha = take("<f8", k).copy()
    phi = take("<f8", k * v).reshape(k, v).copy()
    eta = take("<f8", d_t * k).reshape(d_t, k).copy()
    lengths = take("<u4", d_t).copy()
    z_flat = take("<i4", int(lengths.sum()))
    if off != body_end:
        raise ValueError(f"{path}: {body_end - off} bytes after the declared arrays")
    (crc,) = _CRC.unpack_from(blob, body_end)
    if zlib.crc32(memoryview(blob)[:body_end]) != crc:
        raise ValueError(f"{path}: checksum mismatch, the file is corrupt")
    z = split_flat(z_flat, np.cumsum(lengths, dtype=np.int64))
    return {"master_seed": master_seed, "iteration": iteration, "T": t_total,
            "K": k, "V": v, "D_t": d_t, "slice_index": slice_index,
            "alpha": alpha, "phi": phi, "eta": eta, "z": z}


def load_checkpoint(directory, corpus: Corpus, hyper: Hyperparams) -> tuple[ModelState, int, int]:
    """Rebuild a ModelState from per-slice files; returns (state, seed, iteration).

    Dimensions must match the corpus and hyperparameters exactly, and
    every slice file must carry the same master seed and iteration; a
    torn set raises ValueError.
    """
    directory = Path(directory)
    slices = []
    counts = []
    master_seed = None
    iteration = None
    for sl in corpus.slices:
        data = read_slice_checkpoint(checkpoint_path(directory, sl.slice_index))
        if master_seed is not None and (data["master_seed"], data["iteration"]) != (
                master_seed, iteration):
            raise ValueError(f"torn checkpoint set: slice {sl.slice_index} is from seed "
                             f"{data['master_seed']} iteration {data['iteration']}, "
                             f"earlier slices from seed {master_seed} iteration {iteration}")
        master_seed, iteration = data["master_seed"], data["iteration"]
        if data["K"] != hyper.K or data["V"] != corpus.vocabulary.size:
            raise ValueError(f"checkpoint dims (K={data['K']}, V={data['V']}) do not match "
                             f"model (K={hyper.K}, V={corpus.vocabulary.size})")
        if data["T"] != corpus.n_slices or data["D_t"] != sl.n_docs:
            raise ValueError(f"checkpoint slice {sl.slice_index} does not match corpus shape")
        tokens = [doc.tokens for doc in sl.docs]
        for zd, wd in zip(data["z"], tokens):
            if zd.shape[0] != wd.shape[0]:
                raise ValueError("checkpoint z lengths do not match corpus documents")
        state = SliceState(sl.slice_index, tokens, data["alpha"], data["phi"],
                           data["eta"], data["z"])
        slices.append(state)
        counts.append(accumulate_counts(state, range(sl.n_docs)))
    model = ModelState(hyper=hyper, slices=slices, counts=counts,
                       vocabulary_size=corpus.vocabulary.size)
    return model, int(master_seed), int(iteration)

"""Numerically stable primitives shared by every sampler.

Everything here is pure given an explicit ``numpy.random.Generator``
argument.  All floating point work is in 64-bit IEEE-754: the Langevin
noise scales get tiny late in a run and single precision would swamp them.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass

import numpy as np

__all__ = [
    "rng_for",
    "log_sum_exp",
    "softmax",
    "AliasTable",
    "build_alias_table",
    "alias_draw",
    "refill_pool",
    "pool_draw",
    "pool_draw_many",
    "SgldSchedule",
    "step_size",
]


def rng_for(master_seed: int, *path) -> np.random.Generator:
    """Independent counter-based random stream keyed by (master_seed, *path).

    The key is a 128-bit digest of the seed and the path components
    (ints or strings), fed to a Philox generator.  Identical keys give
    identical streams no matter which process asks, which is what makes
    layout-invariant and resumable runs possible: every consumer derives
    its stream from logical coordinates such as
    ``(slice, block, iteration, document)``, never from scheduling order.
    """
    h = hashlib.blake2b(digest_size=16)
    h.update(struct.pack("<q", int(master_seed)))
    for part in path:
        if isinstance(part, str):
            h.update(b"s")
            h.update(part.encode("utf-8"))
        else:
            h.update(b"i")
            h.update(struct.pack("<q", int(part)))
        h.update(b"\x00")
    key = np.frombuffer(h.digest(), dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def log_sum_exp(x) -> float:
    """log(sum(exp(x))) via the max-shift, safe for |x_i| up to ~700."""
    x = np.asarray(x, dtype=np.float64)
    if x.size == 0:
        raise ValueError("log_sum_exp of an empty vector")
    m = x.max()
    if not np.isfinite(m):
        raise ValueError("log_sum_exp requires finite input")
    return float(m + np.log(np.exp(x - m).sum()))


def softmax(x) -> np.ndarray:
    """exp(x_k) / sum_j exp(x_j), shift-invariant and overflow-free."""
    x = np.asarray(x, dtype=np.float64)
    if x.size == 0:
        raise ValueError("softmax of an empty vector")
    e = np.exp(x - x.max())
    return e / e.sum()


def softmax_rows(mat: np.ndarray) -> np.ndarray:
    """Row-wise softmax of a 2-D array."""
    m = mat.max(axis=1, keepdims=True)
    e = np.exp(mat - m)
    return e / e.sum(axis=1, keepdims=True)


class AliasTable:
    """Walker alias structure over a fixed discrete distribution.

    ``prob[j]`` is the threshold of column j and ``alias[j]`` the other
    outcome the column indexes; each column covers at most two outcomes.
    A draw costs two uniforms: pick a column, then a weighted coin.

    The table also carries a FIFO pool of pre-drawn samples so hot loops
    can take stale draws one at a time; a pool holds at most K entries
    and is refilled in bulk.  The table (and its pool cursor) must be
    owned by one thread or synchronized externally.
    """

    __slots__ = ("prob", "alias", "_pool", "_pool_pos")

    def __init__(self, prob: np.ndarray, alias: np.ndarray):
        self.prob = prob
        self.alias = alias
        self._pool = np.empty(0, dtype=np.int64)
        self._pool_pos = 0

    @property
    def k(self) -> int:
        return self.prob.shape[0]

    def pool_size(self) -> int:
        return self._pool.shape[0] - self._pool_pos


def _alias_arrays(weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two-worklist construction; touches each index O(1) times.

    Works on Python floats, which is several times faster than indexing
    numpy scalars at the K of one proposal table; the arithmetic is the
    same IEEE-754 double arithmetic either way.
    """
    k = weights.shape[0]
    scaled = (weights * (k / weights.sum())).tolist()
    prob = [1.0] * k
    alias = list(range(k))

    small = [j for j, x in enumerate(scaled) if x < 1.0]
    large = [j for j, x in enumerate(scaled) if x >= 1.0]
    while small and large:
        s = small.pop()
        g = large.pop()
        prob[s] = scaled[s]
        alias[s] = g
        scaled[g] -= 1.0 - scaled[s]
        if scaled[g] < 1.0:
            small.append(g)
        else:
            large.append(g)
    # leftovers are exactly 1 up to rounding; they keep prob 1, alias self
    return np.array(prob, dtype=np.float64), np.array(alias, dtype=np.int64)


def build_alias_table(weights) -> AliasTable:
    """Build an alias table from non-negative weights in O(K)."""
    w = np.ascontiguousarray(weights, dtype=np.float64)
    if w.ndim != 1 or w.shape[0] < 1:
        raise ValueError("weights must be a non-empty 1-D vector")
    if np.any(w < 0) or not np.all(np.isfinite(w)):
        raise ValueError("weights must be finite and non-negative")
    if w.sum() <= 0:
        raise ValueError("weights must not be all zero")
    return AliasTable(*_alias_arrays(w))


def build_alias_matrix(weight_rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stacked alias construction for n distributions at once.

    Returns (prob, alias), each of shape (n, K); row i equals
    ``build_alias_table(weight_rows[i])`` bit for bit.  The two-worklist
    construction of every row runs in lockstep: each row keeps its small
    and large stacks in one (n, K) index array, small indices ascending
    from the left and large ones ascending after them, and every step
    pops the top of both stacks of all rows that still have both, with
    the scalar builder's arithmetic.  A step removes one index from a
    row, so at most K vectorized steps replace n*K interpreted ones.
    """
    # one C-ordered copy, scaled in place: row sums must run along
    # contiguous rows to round as the scalar builder's do
    scaled = np.array(weight_rows, dtype=np.float64, order="C")
    n, k = scaled.shape
    scaled *= (k / scaled.sum(axis=1))[:, None]
    is_large = scaled >= 1.0
    scaled = scaled.ravel()
    prob = np.ones(n * k, dtype=np.float64)
    alias = np.tile(np.arange(k, dtype=np.int64), n)

    n_large = is_large.sum(axis=1)
    base = np.arange(n, dtype=np.int64) * k
    # flat positions in `stack`: the small stack of row r fills
    # [base, base + n_small), its large stack [base + k - n_large, ...)
    stack = np.argsort(is_large, axis=1, kind="stable")
    stack += base[:, None]
    stack = stack.ravel()
    large_bottom = base + (k - n_large)
    small_top = large_bottom - 1                # flat position of each top
    large_top = base + k - 1
    rows = np.flatnonzero((n_large > 0) & (n_large < k))
    while rows.size:
        st, gt = small_top[rows], large_top[rows]
        s, g = stack[st], stack[gt]
        ss = scaled[s]
        prob[s] = ss
        alias[s] = g - base[rows]
        sg = scaled[g] - (1.0 - ss)
        scaled[g] = sg
        to_small = sg < 1.0
        # g moves onto the small stack in place of s, or stays on top of
        # the large stack while s is popped
        stack[st[to_small]] = g[to_small]
        large_top[rows[to_small]] -= 1
        small_top[rows[~to_small]] -= 1
        rows = rows[(small_top[rows] >= base[rows])
                    & (large_top[rows] >= large_bottom[rows])]
    return prob.reshape(n, k), alias.reshape(n, k)


def alias_draw(table: AliasTable, rng: np.random.Generator, size: int) -> np.ndarray:
    """``size`` draws from the table's distribution, two uniforms each."""
    k = table.k
    u = rng.random((size, 2))
    j = np.minimum((u[:, 0] * k).astype(np.int64), k - 1)
    return np.where(u[:, 1] < table.prob[j], j, table.alias[j])


def alias_draw_stacked(prob: np.ndarray, alias: np.ndarray, rows: np.ndarray,
                       rng: np.random.Generator) -> np.ndarray:
    """Vectorized draws from stacked tables, one draw from table rows[i]."""
    k = prob.shape[1]
    n = rows.shape[0]
    u = rng.random((n, 2))
    j = np.minimum((u[:, 0] * k).astype(np.int64), k - 1)
    return np.where(u[:, 1] < prob[rows, j], j, alias[rows, j])


def refill_pool(table: AliasTable, rng: np.random.Generator) -> AliasTable:
    """Fill an empty pool with exactly K fresh draws."""
    if table.pool_size() != 0:
        raise ValueError("refill_pool requires an empty pool")
    table._pool = alias_draw(table, rng, size=table.k)
    table._pool_pos = 0
    return table


def pool_draw(table: AliasTable, rng: np.random.Generator) -> int:
    """Pop the oldest pooled draw, refilling first when the pool is dry."""
    if table._pool_pos >= table._pool.shape[0]:
        refill_pool(table, rng)
    v = table._pool[table._pool_pos]
    table._pool_pos += 1
    return int(v)


def pool_draw_many(table: AliasTable, rng: np.random.Generator, n: int) -> np.ndarray:
    """Pop n pooled draws in FIFO order, refilling as needed."""
    out = np.empty(n, dtype=np.int64)
    filled = 0
    while filled < n:
        avail = table._pool.shape[0] - table._pool_pos
        if avail == 0:
            refill_pool(table, rng)
            continue
        take = min(avail, n - filled)
        out[filled:filled + take] = table._pool[table._pool_pos:table._pool_pos + take]
        table._pool_pos += take
        filled += take
    return out


@dataclass(frozen=True)
class SgldSchedule:
    """Decaying Langevin step size eps_i = a * (b + i)^(-c).

    a > 0 scales the whole schedule, b >= 0 delays the decay, and the
    exponent c in (0.5, 1] guarantees eps_i -> 0 slowly enough that the
    discretization error vanishes without a Metropolis correction.
    """

    a: float
    b: float
    c: float

    def __post_init__(self):
        if self.a <= 0:
            raise ValueError("schedule scale a must be positive")
        if self.b < 0:
            raise ValueError("schedule offset b must be non-negative")
        if not (0.5 < self.c <= 1.0):
            raise ValueError("decay exponent c must lie in (0.5, 1]")

    def step(self, i: int) -> float:
        return step_size(self, i)


def step_size(schedule: SgldSchedule, i: int) -> float:
    """eps_i = a * (b + i)^(-c); strictly decreasing in i."""
    if i < 0:
        raise ValueError("iteration index must be >= 0")
    base = schedule.b + i
    if base <= 0:
        raise ValueError("b + i must be positive (need b > 0 when i can be 0)")
    return schedule.a * base ** (-schedule.c)

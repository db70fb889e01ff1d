"""Successive-cancellation computation of conditional bit distributions.

Works over the chain V = U G_N where the U-block is i.i.d. per symbol with a
finite observation attached: each position carries a joint P(u, o), u binary,
o in a finite alphabet. The engine computes

    P(V^i = b | V^{1:i-1} = prefix, O^{1:N} = obs)

exactly, for every index in order, via the pairwise recursion induced by the
B_N F^{\\otimes n} factorization: v-indices are processed in natural order; the
odd member of each pair combines the two half-block subproblems with the
check-node (f) rule, the even member with the bit-node (g) rule, and decided
pairs push partial sums (v_odd xor v_even, v_even) down the tree. Every node
pair is renormalized after each combine, so no log domain is needed at the
target blocklengths.

The tree is stored batch last: level lam holds a (2, 2^lam, B) array, so one
node's B rows are contiguous. It is evaluated lazily, as in simplified SC
decoding (Alamdar-Yazdi and Kschischang, IEEE Commun. Lett. 2011): a node
block is computed only when an index that reads it asks for its root pair,
so a walk pays for a stack only at the indices whose tag consults it. A
block that no consulted index reads is never computed, and no other index
reads it (PairStack states the rule).

Near the leaves a level's pairs take few distinct values, so those levels
are held as codes into exact pair tables, a bit-exact cousin of Fast-SSC's
skipped nodes (Sarkis et al., IEEE JSAC 2014). A leaf is one of the K_n
columns of the leaf table U_n (K_n = 1 for an observation-free prior) and
its code is the observed symbol. A level-lam node is f of two children or g
of two children and a partial sum, so its pair lies in the union table
U_lam = f(U_(lam+1) x U_(lam+1)) ++ g(U_(lam+1) x U_(lam+1) x {0, 1}) of
K_lam = 3 K_(lam+1)^2 entries: an f node is coded l K + r and a g node
K^2 + 2 (l K + r) + s, with l and r its children's codes, K = K_(lam+1) and
s its partial sum. Every level whose table has at most 2^16 entries is held
as a (2^lam, B) uint16 array; the lowest level above them gathers its
children's pairs from the top table and runs the float or bool ops. That
rule is written once, in _new_level, _level_step and _root_finish, and
serves both PairStack and pinned_pairs, as _partial_sums serves both for
the partial sums. K_n = 1
codes three levels (tables of 3, 27 and 2187 entries), K_n = 2..7 two,
K_n = 8..147 one and K_n >= 148 none. This is exact: each table entry is
computed once, by the same _fop / _gop / _normalize elementwise IEEE ops
(multiply, add, max, divide, xor on bit patterns) on the same operand
values as the tree would apply to the node, and the gather copies it
unchanged, so every pair the tree holds, and every root pair, draw, chain
factor and null count, is bit for bit the uncoded tree's.

On a hard channel (SymbolChannel.hard: every observation column holds at
most one positive entry, or two exactly equal ones, and every positive
entry squared is still positive) the tree runs on supports: bool leaves
(entry > 0), products AND, sums OR, no normalization; the root support
maps to (1, 0), (0, 1) or (1/2, 1/2), and an empty support is the flagged
null pair. This is exact. A float leaf pair is (a, 0), (0, a), (a, a) or
(0, 0). The first combine of two such leaves multiplies positive entries
into at least the squared smallest entry, which the property requires to
be positive, and both entries of a pair come out as the same rounded
product or the same sum of two equal ones, so the float node is (x, 0),
(0, x), (x, x) or (0, 0) with x > 0 exactly where its support says. Since
x / x = 1 and x / (x + x) = 1/2 in IEEE arithmetic, normalization turns it
into the normalized indicator of its support, and every later combine
works on entries 0, 1/2 and 1 with products at least 1/4. So every float
pair the tree would hold, the root included, is exactly the normalized
indicator of the support the bool tree holds, and draws (u < q1), argmax
decisions, chain factors q[bit] and null counts are bit for bit the same.
The level ops (_fop, _gop) are written once: on bool arrays numpy's
* is AND and + is OR.

Where the bit is moreover a function of the observation (no column with two
positive entries, SymbolChannel.functional), every support is a single bit
or empty, and the walk uses FunctionalStack instead of any tree: the root
pair at index i is the indicator of v*_i, where v* = G_N(u*(obs)) is the
one block of positive mass, while the pushed prefix agrees with v* and no
observed symbol has zero mass, and null otherwise.

A Monte Carlo profile pins the walk to a block v it knows in advance, so no
index waits for another's decision (genie-aided SC, Arikan, "Channel
polarization", IEEE T-IT 2009): pinned_pairs evaluates every index's root
pair level by level, with no per-index loop.

Null conditioning (a prefix of probability zero given the observation,
reachable through pinned bits or draws inconsistent with the model, or
through an observed symbol of zero mass) yields the uniform
pair and a diagnostic count instead of an error; samplers and chain
probabilities treat the fallback as part of the sampling law, which keeps
every induced distribution properly normalized.

Observation alphabets for multi-variable conditionings are flattened to one
finite alphabet with the first-listed variable fastest-varying (x fastest);
SymbolChannel owns that layout.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .probability import NORM_TOL, JointPmf
from .transform import apply_transform

# per-index sampling tags
UNIFORM_HALF = 0
PRIOR_CONDITIONAL = 1
OBSERVATION_CONDITIONAL = 2
PINNED = 3


def derive_rng(seed: int, *key: int) -> np.random.Generator:
    """Deterministic, platform-stable stream for a seed and a spawn key.

    With no key this is the plain `SeedSequence(seed)` stream.
    """
    return np.random.default_rng(np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(key)))


_COUNT_CELLS = 64  # most cells for which counting cum[k] < x beats searchsorted


def _cell_index(cum: np.ndarray, x: np.ndarray) -> np.ndarray:
    """np.searchsorted(cum, x) (side left) of a nondecreasing cum, in
    np.min_scalar_type(cum.size).

    On a sorted cum that index is the count of the cum[k] < x, which over
    at most _COUNT_CELLS cells is cheaper to accumulate in place, one
    comparison per cell, than to search for.
    """
    dtype = np.min_scalar_type(cum.size)
    if cum.size > _COUNT_CELLS:
        return np.searchsorted(cum, x).astype(dtype)
    cells = np.zeros(np.shape(x), dtype)
    below = np.empty(np.shape(x), bool)
    for edge in cum:
        np.less(edge, x, out=below)
        cells += below.view(np.uint8)
    return cells


def _split_cells(cells: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """np.divmod(cells, size) of unsigned cells, both in the cells' dtype.

    The divisor is typed as the cells are, so NEP 50 promotion does not
    widen them. numpy vectorizes // by a scalar but not %, so the remainder
    is formed as cells - q size, which is exact in unsigned arithmetic.
    """
    divisor = cells.dtype.type(size)
    quotient = cells // divisor
    rem = quotient * divisor
    np.subtract(cells, rem, out=rem)
    return quotient, rem


def _in_alphabet(symbols: np.ndarray, size: int) -> bool:
    """Whether every symbol lies in [0, size): max() alone for an unsigned
    dtype, min() too for any other."""
    if not symbols.size:
        return True
    return int(symbols.max()) < size and (symbols.dtype.kind == "u" or symbols.min() >= 0)


@dataclass
class AnomalyLog:
    """Mutable counter for null-conditioning (decode anomaly) events."""

    count: int = 0

    def add(self, n: int) -> None:
        self.count += int(n)


@dataclass(frozen=True)
class SymbolChannel:
    """Per-position joint P(u, o), identical across all N positions.

    table[u, o] is the joint probability of bit u and observation symbol o.
    A table with a single observation column is the prior-only chain.

    The channel owns the observation layout: o flattens one symbol per
    observed variable, the first variable fastest-varying, and obs_sizes
    lists the variables' alphabet sizes in that order (one variable of the
    table's width when not given).
    """

    table: np.ndarray
    obs_sizes: tuple | None = None

    def __post_init__(self):
        table = np.asarray(self.table, dtype=np.float64)
        if table.ndim != 2 or table.shape[0] != 2 or table.shape[1] < 1:
            raise ValueError(f"channel table must have shape (2, M), got {table.shape}")
        if np.any(table < 0):
            raise ValueError("channel table entries must be nonnegative")
        if abs(float(table.sum()) - 1.0) > NORM_TOL:
            raise ValueError("channel table must sum to 1")
        sizes = self.obs_sizes
        sizes = (table.shape[1],) if sizes is None else tuple(int(s) for s in sizes)
        if int(np.prod(sizes)) != table.shape[1]:
            raise ValueError(f"observation sizes {sizes} do not multiply to {table.shape[1]}")
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "obs_sizes", sizes)

    @property
    def obs_size(self) -> int:
        return self.table.shape[1]

    @property
    def hard(self) -> bool:
        """Whether the SC tree may run on supports (module docstring): every
        column holds at most one positive entry or two exactly equal ones,
        and every positive entry squared is still positive, so no product
        of two leaves underflows to 0."""
        positive = self.table > 0
        one = positive.sum(axis=0) <= 1
        return bool(np.all(one | (self.table[0] == self.table[1]))
                    and np.all(self.table[positive] ** 2 > 0))

    @property
    def functional(self) -> bool:
        """Whether the bit is a function of the observation, exactly enough
        for FunctionalStack: the channel is hard and no column holds two
        positive entries (a column may be all zero)."""
        return self.hard and bool(np.all((self.table > 0).sum(axis=0) <= 1))

    def prior(self) -> "SymbolChannel":
        """Marginalize the observation away: the prior chain P(u)."""
        return SymbolChannel(self.table.sum(axis=1, keepdims=True), ())

    @classmethod
    def from_joint(cls, j: JointPmf, bit_var: str, obs_vars: Sequence[str] = ()) -> "SymbolChannel":
        """Slice a per-symbol channel out of a joint PMF, observing `obs_vars`."""
        obs_vars = tuple(obs_vars)
        marg = j.marginal((bit_var,) + obs_vars).mass
        # reverse obs axes so the first listed variable varies fastest
        marg = marg.transpose((0,) + tuple(range(marg.ndim - 1, 0, -1)))
        return cls(marg.reshape(2, -1), tuple(j.size_of(v) for v in obs_vars))

    def flatten_obs(self, values: Sequence[np.ndarray]) -> np.ndarray:
        """Flat symbols of per-variable symbol arrays (broadcast together),
        in the smallest unsigned dtype that holds obs_size - 1.

        A symbol outside its variable's alphabet [0, size) raises
        ValueError, since it would alias another variable's symbol.
        """
        if len(values) != len(self.obs_sizes):
            raise ValueError(
                f"expected {len(self.obs_sizes)} observation arrays, got {len(values)}")
        values = [np.asarray(vals) for vals in values]
        dtype = np.min_scalar_type(self.obs_size - 1)
        out = np.zeros(np.broadcast_shapes(*(vals.shape for vals in values)), dtype)
        stride = 1
        for k, (vals, size) in enumerate(zip(values, self.obs_sizes)):
            if not _in_alphabet(vals, size):
                raise ValueError(f"observation variable {k} has symbols outside [0, {size})")
            if size > 1:  # a 1-symbol variable adds 0, and its stride may not fit dtype
                out += vals.astype(dtype, copy=False) * dtype.type(stride)
            stride *= size
        return out

    def split_obs(self, symbols: np.ndarray) -> list:
        """Inverse of flatten_obs: one symbol array per observed variable."""
        rem = np.asarray(symbols, dtype=np.int64)
        out = []
        for size in self.obs_sizes:
            out.append(rem % size)
            rem = rem // size
        return out


@dataclass(frozen=True)
class SamplingPolicy:
    """Per-index sampling tags over [N], with values for the pinned indices.

    tags[i] is one of UNIFORM_HALF, PRIOR_CONDITIONAL,
    OBSERVATION_CONDITIONAL, PINNED. `pinned` carries the bit for every
    PINNED index (other positions ignored) and may be (N,) or batched (B, N).
    """

    tags: np.ndarray
    pinned: np.ndarray | None = None

    def __post_init__(self):
        tags = np.asarray(self.tags, dtype=np.uint8)
        if tags.ndim != 1:
            raise ValueError("tags must be a 1-D vector over [N]")
        if np.any(tags > PINNED):
            raise ValueError("unknown sampling tag")
        pinned = self.pinned
        if np.any(tags == PINNED):
            if pinned is None:
                raise ValueError("policy has PINNED indices but no pinned bits")
            pinned = np.asarray(pinned, dtype=np.uint8)
            if pinned.shape[-1] != tags.size:
                raise ValueError("pinned bits must cover [N] along the last axis")
        object.__setattr__(self, "tags", tags)
        object.__setattr__(self, "pinned", pinned)

    @property
    def size(self) -> int:
        return self.tags.size

    @classmethod
    def observation_only(cls, n_len: int) -> "SamplingPolicy":
        return cls(np.full(n_len, OBSERVATION_CONDITIONAL, dtype=np.uint8))

    @classmethod
    def all_pinned(cls, bits: np.ndarray) -> "SamplingPolicy":
        bits = np.asarray(bits, dtype=np.uint8)
        return cls(np.full(bits.shape[-1], PINNED, dtype=np.uint8), bits)

    @classmethod
    def from_sets(
        cls,
        n_len: int,
        uniform: Sequence[int] = (),
        prior: Sequence[int] = (),
        observation: Sequence[int] = (),
        pinned_at: Sequence[int] = (),
        pinned_bits: np.ndarray | None = None,
    ) -> "SamplingPolicy":
        """Build a policy from disjoint index sets covering [N].

        pinned_bits holds the values for `pinned_at` in that order, shaped
        (len(pinned_at),) or (B, len(pinned_at)).
        """
        tags = np.full(n_len, 255, dtype=np.uint8)
        for idx, tag in ((uniform, UNIFORM_HALF), (prior, PRIOR_CONDITIONAL),
                         (observation, OBSERVATION_CONDITIONAL), (pinned_at, PINNED)):
            idx = np.asarray(idx, dtype=np.intp)
            if idx.size and np.any(tags[idx] != 255):
                raise ValueError("index sets overlap")
            tags[idx] = tag
        if np.any(tags == 255):
            raise ValueError("index sets must cover [N]")
        pinned = None
        if len(tuple(pinned_at)):
            if pinned_bits is None:
                raise ValueError("pinned_at requires pinned_bits")
            pinned_bits = np.atleast_2d(np.asarray(pinned_bits, dtype=np.uint8))
            pinned = np.zeros(pinned_bits.shape[:-1] + (n_len,), dtype=np.uint8)
            pinned[..., np.asarray(pinned_at, dtype=np.intp)] = pinned_bits
            if pinned.shape[0] == 1:
                pinned = pinned[0]
        return cls(tags, pinned)


def _normalize(out: np.ndarray) -> None:
    """Divide every float pair of out (2, ...) by its total, in place.

    A zero total means both entries are +0: dividing by the smallest
    subnormal keeps them 0 and leaves every positive total unchanged.
    Supports (bool) are not normalized.
    """
    if out.dtype == bool:
        return
    total = out[0] + out[1]
    np.maximum(total, 5e-324, out=total)
    np.divide(out, total, out=out)


def _fop(left: np.ndarray, right: np.ndarray, out: np.ndarray) -> None:
    """Check-node combine out = f(left, right) of (2, ...) pairs, normalized.

    out[b] = left[b] right[0] + left[1 - b] right[1]. On bool supports the
    products are AND and the sums OR, which is the same code.
    """
    np.multiply(left[0], right[0], out=out[0])
    out[0] += left[1] * right[1]
    np.multiply(left[1], right[0], out=out[1])
    out[1] += left[0] * right[1]
    _normalize(out)


def _gop(left: np.ndarray, right: np.ndarray, low: np.ndarray, out: np.ndarray) -> None:
    """Bit-node combine out = g(left, right) given the partial sums `low`.

    out = (left[low], left[1 - low]) * right, normalized. The swap selects
    on the bit patterns, which is exact for either dtype and several times
    faster than np.where on a mask without pattern.
    """
    word = np.uint8 if out.dtype == bool else np.uint64
    swap = np.negative(low, dtype=word)  # 0 or all ones
    l0, l1 = left[0].view(word), left[1].view(word)
    diff = np.bitwise_xor(l0, l1)
    diff &= swap
    bits = out.view(word)
    np.bitwise_xor(l0, diff, out=bits[0])
    np.bitwise_xor(l1, diff, out=bits[1])
    out *= right
    _normalize(out)


CODE_LIMIT = 1 << 16  # most entries of a union table whose level is held as uint16 codes
_SLAB_ROWS = 64  # rows per uniform draw transposed into an (N, B) block


def _union_table(table: np.ndarray) -> np.ndarray:
    """Every pair a node can hold whose children are entries of table (2, K).

    Entry l K + r is f(table[l], table[r]) and entry K^2 + 2 (l K + r) + s is
    g(table[l], table[r]) on partial sum s, computed by _fop and _gop.
    """
    k = table.shape[1]
    left, right = table[:, np.arange(k * k) // k], np.tile(table, k)
    out = np.empty((2, 3 * k * k), table.dtype)
    _fop(left, right, out[:, : k * k])
    low = np.tile(np.arange(2, dtype=np.uint8), k * k)
    _gop(np.repeat(left, 2, axis=1), np.repeat(right, 2, axis=1), low, out[:, k * k :])
    return out


def _union_tables(leaf_table: np.ndarray, n: int) -> list:
    """[U_n, U_(n-1), ...]: the leaf table, then each level's union table
    while it has at most CODE_LIMIT entries, up to the root U_0."""
    tables = [leaf_table]
    while len(tables) <= n and 3 * tables[-1].shape[1] ** 2 <= CODE_LIMIT:
        tables.append(_union_table(tables[-1]))
    return tables


def _encode(left: np.ndarray, right: np.ndarray, k: int, low, out: np.ndarray) -> None:
    """A coded level's codes from its children's codes l, r into a K-entry
    table: l K + r for the f op (low None), K^2 + 2 (l K + r) + s for g on
    the partial sums s = low."""
    np.multiply(left, k, out=out)
    out += right
    if low is not None:
        out <<= 1
        out += low
        out += k * k


def _root_pairs(root: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Float pairs (2, ...) of root pairs or supports, and the null mask.

    A normalized float pair is kept; a support maps to (1, 0), (0, 1) or
    (1/2, 1/2). A null pair (0, 0), or an empty support, becomes the
    uniform pair and is flagged.
    """
    if root.dtype == bool:
        pair = root.astype(np.float64)
        total = pair[0] + pair[1]
        pair /= np.maximum(total, 1.0)
    else:
        pair = root.copy()
        total = pair[0] + pair[1]
    null = total <= 0.0
    pair[:, null] = 0.5
    return pair, null


def _new_level(tables: list, depth: int, shape: tuple) -> np.ndarray:
    """An empty level lam = n - depth whose nodes fill shape (..., 2^lam, B).

    This is the level rule, decided here only: the level is held as uint16
    codes into its union table tables[depth] while that table exists (see
    _union_tables), else as (2,) + shape pairs of the leaf table's dtype.
    Nodes sit on the second-to-last axis, so a PairStack's one block and
    pinned_pairs' row of blocks share _level_step and _root_finish, which
    read the rule off the arrays they are given.
    """
    if depth < len(tables):
        return np.empty(shape, np.uint16)
    return np.empty((2,) + shape, tables[0].dtype)


def _level_step(tables: list, depth: int, child: np.ndarray, low, out: np.ndarray) -> np.ndarray:
    """Write level `depth` into out from its child level: node j combines
    child nodes 2j and 2j + 1 by f where low is None and by g on the
    partial sums low otherwise. A coded out gets codes (_encode); an out of
    pairs reads pairs, gathered from the top table tables[-1] when the child
    is still coded (it has one axis fewer). Returns the child as read, so a
    caller stepping a level's f and g halves gathers it once."""
    if out.dtype == np.uint16:
        _encode(child[..., 0::2, :], child[..., 1::2, :], tables[depth - 1].shape[1], low, out)
        return child
    if child.ndim < out.ndim:
        child = np.take(tables[-1], child, axis=1)
    left, right = child[..., 0::2, :], child[..., 1::2, :]
    if low is None:
        _fop(left, right, out)
    else:
        _gop(left, right, low, out)
    return child


def _root_finish(root: np.ndarray, tables: list) -> tuple[np.ndarray, np.ndarray]:
    """_root_pairs of level 0: gathered from U_0 when the tree is coded up
    to the root, and normalized when the root is a leaf (N = 1)."""
    if root.dtype.kind in "ui":
        root = np.take(tables[-1], root, axis=1)
        if len(tables) == 1:
            _normalize(root)
    return _root_pairs(root)


def _partial_sums(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The partial sums (a ^ b, b) of two sibling blocks (..., 2^lam, B) of
    decided bits, interleaved: a_j ^ b_j at node 2j and b_j at 2j + 1."""
    out = np.empty(a.shape[:-2] + (2 * a.shape[-2], a.shape[-1]), np.uint8)
    np.bitwise_xor(a, b, out=out[..., 0::2, :])
    out[..., 1::2, :] = b
    return out


class PairStack:
    """Batched SC tree holding one probability pair per node, batch last.

    Drive with push(i, bits) for i = 0..N-1 in order; pair_at(i) may be
    called at any subset of those indices, each before push(i). Built from
    leaves = (table, codes) as `_leaf_pairs` gives them: leaf j of row b
    holds the pair table[:, codes[j, b]] of the (2, K) table, float joint
    pairs or bool supports (a hard channel; the whole tree then runs on
    supports). Level n is the (N, B) leaf codes, level 0 the root, and each
    level between is held as the level rule (_new_level) says: codes near
    the leaves, pairs above. Pairs that condition on a zero-probability
    event stay (0, 0) and are reported through the null mask of pair_at.

    Evaluation is lazy. The level-lam block that index phi reads is the one
    as of phi_lam = phi & ~(2^lam - 1): the f op when bit lam of phi is
    clear, the g op (on the partial sums `low[lam]` pushed at phi_lam - 1)
    when it is set. Each level keeps the stamp phi_lam of its block, and
    pair_at(phi) walks lam = n-1 .. 0 recomputing exactly the levels whose
    stamp differs. `low[lam]` is next written by push(phi_lam - 1 +
    2^(lam+1)), after every index that reads this block, so a block computed
    late equals the one computed at phi_lam. A block no consulted index
    reads is never computed, and nothing else reads it.
    """

    def __init__(self, leaves: tuple):
        table, codes = leaves
        table = np.asarray(table)
        if table.dtype != bool:
            table = table.astype(np.float64, copy=False)
        codes = np.asarray(codes)
        if table.ndim != 2 or table.shape[0] != 2 or codes.ndim != 2:
            raise ValueError("leaves must be a (2, K) table and (N, B) codes")
        n_len, batch = codes.shape
        if n_len <= 0 or n_len & (n_len - 1):
            raise ValueError(f"block length must be a power of two, got {n_len}")
        self.batch = batch
        self.n_len = n_len
        self.n = n_len.bit_length() - 1
        self.tables = _union_tables(table, self.n)  # tables[d] is U_(n-d)
        self.levels = [_new_level(self.tables, self.n - lam, (1 << lam, batch))
                       for lam in range(self.n)] + [codes]
        self.low = [np.zeros((1 << lam, batch), dtype=np.uint8) for lam in range(self.n)]
        self.stamps = [-1] * self.n
        self._next = 0

    def pair_at(self, phi: int) -> tuple[np.ndarray, np.ndarray]:
        """Root pair at index phi, (B, 2) (uniform where null), and the null mask."""
        if phi != self._next:
            raise ValueError(f"pair_at({phi}) must come before push({phi}); expected {self._next}")
        for lam in range(self.n - 1, -1, -1):
            stamp = phi & -(1 << lam)
            if self.stamps[lam] != stamp:
                low = self.low[lam] if phi >> lam & 1 else None
                _level_step(self.tables, self.n - lam, self.levels[lam + 1], low, self.levels[lam])
                self.stamps[lam] = stamp
        pair, null = _root_finish(self.levels[0][..., 0, :], self.tables)
        return pair.T, null

    def push(self, phi: int, bits: np.ndarray) -> None:
        """Record the decided (B,) bits at index phi and propagate partial sums."""
        if phi != self._next:
            raise ValueError(f"indices must be pushed in order; expected {self._next}")
        self._next = phi + 1
        cur = np.asarray(bits, dtype=np.uint8).reshape(1, self.batch)
        lam, j = 0, phi
        while (j & 1) and lam < self.n:
            cur = _partial_sums(self.low[lam], cur)
            lam += 1
            j >>= 1
        if lam < self.n:
            self.low[lam][...] = cur


def pinned_pairs(ch: SymbolChannel, obs: np.ndarray, v: np.ndarray) -> tuple:
    """Root pair at every index of the walk pinned to the (N, B) block v,
    given the (N, B) observations obs.

    Equals PairStack's pair_at(phi) after push(0 .. phi-1) of v's rows, for
    every phi, without a per-index loop: v is known up front, so no index
    waits for another's decision (genie-aided SC). Level lam is evaluated
    for all its 2^(n-lam) blocks of 2^lam nodes at once, by the level rule
    (_new_level, _level_step) with blocks on the third-to-last axis; block h
    is f of block h >> 1 of level lam + 1 when h is even and g of it when h
    is odd, on the partial sums of v[(h-1) 2^lam, h 2^lam), which are built
    once per level by _partial_sums, as push builds them. Returns the
    (2, N, B) float pairs, uniform where null, and the (N, B) null mask.
    """
    n_len, batch = v.shape
    n = n_len.bit_length() - 1
    table, level = _leaf_pairs(ch, obs)
    tables = _union_tables(table, n)
    sums = [np.asarray(v, dtype=np.uint8)]  # sums[lam]: per 2^lam-block partial sums
    for lam in range(n - 1):
        prev = sums[lam].reshape(n_len >> (lam + 1), 2, 1 << lam, batch)
        sums.append(_partial_sums(prev[:, 0], prev[:, 1]).reshape(n_len, batch))
    for lam in range(n - 1, -1, -1):
        blocks = n_len >> (lam + 1)
        low = sums[lam].reshape(blocks, 2, 1 << lam, batch)[:, 0]
        child = level.reshape(level.shape[:-2] + (blocks, 2 << lam, batch))
        out = _new_level(tables, n - lam, (blocks, 2, 1 << lam, batch))
        child = _level_step(tables, n - lam, child, None, out[..., 0, :, :])
        _level_step(tables, n - lam, child, low, out[..., 1, :, :])
        level = out.reshape(out.shape[:-4] + (n_len, batch))
    return _root_finish(level, tables)


class FunctionalStack:
    """PairStack's root pairs for a functional channel, without the tree.

    The bit is u*(o), the row of symbol o's one positive entry, and
    v* = G_N(u*(obs)) is the only v-block of positive mass. A row is alive
    while every symbol it observes has positive mass and every pushed bit
    equals v*'s; pair_at gives the indicator of v*[phi] on alive rows and the
    uniform pair, flagged null, on the rest. This is exactly PairStack's
    output on the same channel (module docstring). Drive it as PairStack;
    obs is the (N, B) observations.
    """

    def __init__(self, ch: SymbolChannel, obs: np.ndarray):
        if not ch.functional:
            raise ValueError("FunctionalStack needs a functional channel")
        n_len, batch = obs.shape
        positive = ch.table > 0
        if ch.obs_size == 1:  # one trial stands for every trial
            obs = np.zeros((n_len, 1), dtype=np.uint8)
        # the transform runs along the rows of the (B, N) view; its .T is C-order again
        self.v_star = np.broadcast_to(apply_transform(positive[1][obs].T).T, (n_len, batch))
        self.alive = np.broadcast_to(positive.any(axis=0)[obs].all(axis=0), (batch,)).copy()
        self._next = 0

    def pair_at(self, phi: int) -> tuple[np.ndarray, np.ndarray]:
        """Root pair at index phi, (B, 2) (uniform where null), and the null mask."""
        if phi != self._next:
            raise ValueError(f"pair_at({phi}) must come before push({phi}); expected {self._next}")
        pair = np.empty((self.alive.size, 2))
        pair[:, 1] = self.v_star[phi]
        pair[:, 0] = 1.0 - pair[:, 1]
        null = ~self.alive
        pair[null] = 0.5
        return pair, null

    def push(self, phi: int, bits: np.ndarray) -> None:
        """Record the decided (B,) bits at index phi."""
        if phi != self._next:
            raise ValueError(f"indices must be pushed in order; expected {self._next}")
        self._next = phi + 1
        self.alive &= bits == self.v_star[phi]


def _stack_for(ch: SymbolChannel, obs: np.ndarray):
    """The SC stack of ch at (N, B) observations: FunctionalStack where the
    channel is functional, else PairStack, on supports where it is hard."""
    if ch.functional:
        return FunctionalStack(ch, obs)
    return PairStack(_leaf_pairs(ch, obs))


def _leaf_pairs(ch: SymbolChannel, obs: np.ndarray) -> tuple:
    """(table, codes): the (2, K) leaf table, the joint pairs or their
    supports (bool) where the channel is hard, and the (N, B) leaf codes,
    the realized (N, B) observations themselves, as C-order uint16 where K
    allows. Observations held trial-last already are cast row by row, with
    no transpose; narrow (uint8) ones are widened only in this copy.

    An observation-free channel's codes are a read-only broadcast of 0.
    """
    table = ch.table > 0 if ch.hard else ch.table
    if ch.obs_size == 1:
        return table, np.broadcast_to(np.uint16(0), obs.shape)
    dtype = np.uint16 if ch.obs_size <= CODE_LIMIT else np.intp
    return table, np.ascontiguousarray(obs, dtype=dtype)


def _trial_last(a: np.ndarray, n_len: int, batch: int, what: str) -> np.ndarray:
    """An (N,) or (B, N) array as a trial-last (N, B) one: a read-only
    broadcast of an (N,) array, a C-order copy of a (B, N) one. Raises
    ValueError, naming `what`, on any other shape."""
    if a.shape == (n_len,):
        return np.broadcast_to(a[:, None], (n_len, batch))
    if a.shape != (batch, n_len):
        raise ValueError(f"{what} must have shape ({n_len},) or ({batch}, {n_len})")
    return np.ascontiguousarray(a.T)


def _trial_last_obs(ch: SymbolChannel, obs, n_len: int, batch: int) -> np.ndarray:
    """(N,) or (B, N) observations as trial-last (N, B) symbols of ch,
    range-checked.

    An unsigned array keeps its dtype, so narrow symbols reach the leaf
    codes unwidened; any other dtype is cast to intp. Raises ValueError on a
    wrong shape or a symbol outside [0, ch.obs_size).
    """
    obs = np.asarray(obs)
    if obs.dtype.kind != "u":
        obs = obs.astype(np.intp)
    if not _in_alphabet(obs, ch.obs_size):
        raise ValueError("observation symbol out of range")
    return _trial_last(obs, n_len, batch, "observations")


def _lift(ch: SymbolChannel, obs, policy: SamplingPolicy, *blocks) -> tuple:
    """Lift the (N,) or (B, N) inputs of a public entry point to trial-last
    (N, B) arrays, once: the one transpose between the public layout and
    the walk's.

    B is the leading size of every batched array among obs, the pinned bits
    and `blocks` (1 if none is batched). A missing observation is symbol 0 at
    every position, i.e. the prior of an observation-free channel. Returns
    (batched, obs, pinned, *blocks): pinned is None where the policy has
    none, and `batched` tells the caller whether to keep the batch axis on
    the way out.
    """
    n_len = policy.size
    sizes = {np.shape(a)[0] for a in (obs, policy.pinned, *blocks)
             if a is not None and np.ndim(a) == 2}
    if len(sizes) > 1:
        raise ValueError("inconsistent batch sizes")
    batch = min(sizes, default=1)
    if obs is None:
        if ch.obs_size > 1 and np.any(policy.tags == OBSERVATION_CONDITIONAL):
            raise ValueError("the policy samples the observation conditional but obs is None")
        obs = np.zeros(n_len, dtype=np.uint8)
    lifted = [None if bits is None else _trial_last(bits, n_len, batch, "bit blocks")
              for bits in (policy.pinned, *blocks)]
    return (bool(sizes), _trial_last_obs(ch, obs, n_len, batch), *lifted)


def sc_conditional(
    ch: SymbolChannel,
    obs: np.ndarray,
    prefix: Sequence[int],
    *,
    anomalies: AnomalyLog | None = None,
) -> np.ndarray:
    """Exact pair (P(V^i=0 | prefix, obs), P(V^i=1 | prefix, obs)).

    i = len(prefix) + 1; obs is the length-N observation block. Equals the
    marginalization of the blocklength joint prod_j P(u_j, o_j) 1(u = v G_N)
    over all completions of the prefix. On a zero-probability prefix the
    uniform pair is returned and `anomalies`, when given, is bumped.
    """
    obs = np.asarray(obs)
    if obs.ndim != 1:
        raise ValueError("obs must be a length-N vector")
    n_len = obs.size
    if n_len <= 0 or n_len & (n_len - 1):
        raise ValueError(f"block length must be a power of two, got {n_len}")
    prefix = np.asarray(prefix, dtype=np.uint8).reshape(-1)
    if prefix.size >= n_len:
        raise ValueError("prefix must be shorter than the block")
    stack = PairStack(_leaf_pairs(ch, _trial_last_obs(ch, obs, n_len, 1)))
    for phi in range(prefix.size):
        stack.push(phi, prefix[phi : phi + 1])
    pair, null = stack.pair_at(prefix.size)
    if anomalies is not None:
        anomalies.add(null.sum())
    return pair[0]


def _policy_pass(
    ch: SymbolChannel,
    obs: np.ndarray,
    tags: np.ndarray,
    pinned: np.ndarray | None,
    fd_mode: str,
    anomalies: AnomalyLog | None,
    *,
    uniforms: tuple | None = None,
    v_block: np.ndarray | None = None,
):
    """The SC walk: each index's sampling law, drawn from or followed.

    The walk runs trial-last: obs, the pinned bits (read at PINNED indices
    only, so other rows may hold anything), v_block and the `uniforms` =
    (private, shared) blocks are (N, B), and row phi holds index phi of
    every trial. At every index the walk forms the law (q0, q1) of its tag
    in `tags`: the observation stack's pair on OBSERVATION_CONDITIONAL, the
    prior stack's pair on PRIOR_CONDITIONAL (under fd_mode="argmax" the
    indicator of its more likely bit), 1/2 on UNIFORM_HALF and the indicator
    of the pinned bit on PINNED. An indicator law is held as its bit. Given
    `uniforms` the walk draws bit = u < q1, with the shared block on
    UNIFORM_HALF, and copies the bit of an indicator law; given `v_block`
    it follows those bits and multiplies the chain probability by q[bit] (1
    or 0 for an indicator law). Returns ((N, B) v_block, chain), chain None
    when drawing. A stack exists only if the tags consult it; it is
    evaluated only at the indices whose tag consults it, and every decided
    bit is pushed to every stack. A functional channel's stack is a
    FunctionalStack and a hard channel's a support tree (`_stack_for`).
    """
    if fd_mode not in ("sample", "argmax"):
        raise ValueError(f"fd_mode must be 'sample' or 'argmax', got {fd_mode!r}")
    n_len, batch = obs.shape
    if n_len & (n_len - 1):
        raise ValueError(f"block length must be a power of two, got {n_len}")
    stacks = {}
    if np.any(tags == OBSERVATION_CONDITIONAL):
        stacks[OBSERVATION_CONDITIONAL] = _stack_for(ch, obs)
    if np.any(tags == PRIOR_CONDITIONAL):
        stacks[PRIOR_CONDITIONAL] = _stack_for(ch.prior(), obs)

    chain = None
    if v_block is None:
        private_u, shared_u = uniforms
        v_block = np.empty((n_len, batch), dtype=np.uint8)
    else:
        chain = np.ones(batch)
    for phi in range(n_len):
        tag = int(tags[phi])
        point = None  # the bit of an indicator law
        if tag in stacks:
            pair, null = stacks[tag].pair_at(phi)
            if anomalies is not None:
                anomalies.add(null.sum())
            q0, q1 = pair[:, 0], pair[:, 1]
            if tag == PRIOR_CONDITIONAL and fd_mode == "argmax":
                point = (q1 > q0).astype(np.uint8)
        elif tag == UNIFORM_HALF:
            q0 = q1 = 0.5
        else:
            point = pinned[phi]
        if chain is None:
            bits = point
            if bits is None:
                u = shared_u if tag == UNIFORM_HALF else private_u
                bits = (u[phi] < q1).astype(np.uint8)
            v_block[phi] = bits
        else:
            bits = v_block[phi]
            chain *= np.where(bits == 1, q1, q0) if point is None else (bits == point)
        for stack in stacks.values():
            stack.push(phi, bits)
    return v_block, chain


def _uniform_block(rng: np.random.Generator, batch: int, n_len: int, keep: bool = True):
    """The doubles of rng.random((B, N)), as an (N, B) block.

    They are drawn in _SLAB_ROWS-row slabs, which give the same doubles as
    one (B, N) draw, and each slab is transposed into place, so no (B, N)
    temporary is made. With keep=False only the stream advances and None is
    returned: a PCG64 stream holding no buffered 32-bit half is advanced by
    B N outputs, since each double consumes exactly one 64-bit output, and
    any other stream draws the slabs and drops them.
    """
    bit_gen = rng.bit_generator
    if not keep and type(bit_gen) is np.random.PCG64 and not bit_gen.state["has_uint32"]:
        bit_gen.advance(batch * n_len)
        return None
    block = np.empty((n_len, batch)) if keep else None
    slab = np.empty((min(_SLAB_ROWS, batch), n_len))
    for start in range(0, batch, _SLAB_ROWS):
        rows = slab[: min(_SLAB_ROWS, batch - start)]
        rng.random(out=rows)
        if keep:
            block[:, start : start + rows.shape[0]] = rows.T
    return block


def _sample_trial_last(
    ch: SymbolChannel,
    obs: np.ndarray,
    tags: np.ndarray,
    pinned: np.ndarray | None,
    rng: np.random.Generator,
    shared_rng: np.random.Generator | None,
    fd_mode: str,
    anomalies: AnomalyLog | None,
) -> np.ndarray:
    """sample_sequential on trial-last inputs: the (N, B) v-block drawn at
    the (N, B) observations obs under `tags`, with the (N, B) pins `pinned`
    read at the PINNED indices (None where there are none).

    Both streams give one (B, N) uniform block, held as (N, B); a block no
    index reads is skipped, not kept (sample_sequential states the rule).
    """
    n_len, batch = obs.shape
    drawn = (tags == OBSERVATION_CONDITIONAL) | ((tags == PRIOR_CONDITIONAL) & (fd_mode == "sample"))
    private_u = _uniform_block(rng, batch, n_len, keep=bool(np.any(drawn)))
    shared_u = _uniform_block(shared_rng or rng, batch, n_len,
                              keep=bool(np.any(tags == UNIFORM_HALF)))
    v_block, _ = _policy_pass(ch, obs, tags, pinned, fd_mode, anomalies,
                              uniforms=(private_u, shared_u))
    return v_block


def sample_sequential(
    ch: SymbolChannel,
    obs,
    policy: SamplingPolicy,
    rng: np.random.Generator,
    *,
    shared_rng: np.random.Generator | None = None,
    fd_mode: str = "sample",
    anomalies: AnomalyLog | None = None,
) -> np.ndarray:
    """Draw v-blocks index by index under the per-index sampling rules.

    UNIFORM_HALF indices draw Ber(1/2) from `shared_rng` (falling back to
    `rng`); PRIOR_CONDITIONAL samples P(V^i | v^{1:i-1}) with no observation;
    OBSERVATION_CONDITIONAL samples the observation conditional; PINNED
    copies the given bit. Both streams are consumed as one (B, N) uniform
    block up front, so outputs are reproducible for a fixed seed regardless
    of the tag layout. A block no index reads is skipped, not kept: the
    shared one when no index is UNIFORM_HALF, the private one when none is
    OBSERVATION_CONDITIONAL or, under fd_mode="sample", PRIOR_CONDITIONAL.
    Returns (B, N) blocks, squeezed to (N,) for unbatched inputs: the
    transposed view of the walk's trial-last block.

    fd_mode="argmax" replaces the PRIOR_CONDITIONAL draw with the
    higher-probability bit (a documented deviation from the sampling rules).
    """
    batched, obs, pinned = _lift(ch, obs, policy)
    v_block = _sample_trial_last(ch, obs, policy.tags, pinned, rng, shared_rng, fd_mode,
                                 anomalies)
    return v_block.T if batched else v_block[:, 0]


def chain_probability(
    ch: SymbolChannel,
    obs,
    policy: SamplingPolicy,
    v_block: np.ndarray,
    *,
    fd_mode: str = "sample",
    anomalies: AnomalyLog | None = None,
):
    """Probability that the sequential sampler outputs exactly `v_block`.

    prod_i q_i(v^i | v^{1:i-1}, obs) with the policy's branch at each index;
    PINNED indices contribute 1 on a match and 0 otherwise. Accepts (N,) or
    (B, N) binary blocks and returns a scalar or (B,) vector accordingly.
    """
    v_block = np.asarray(v_block)
    if np.any((v_block != 0) & (v_block != 1)):
        raise ValueError("v_block must hold bits 0 and 1 only")
    batched, obs, pinned, v_block = _lift(ch, obs, policy, v_block.astype(np.uint8))
    _, chain = _policy_pass(ch, obs, policy.tags, pinned, fd_mode, anomalies, v_block=v_block)
    return chain if batched else float(chain[0])

"""Successive-cancellation computation of conditional bit distributions.

Works over the chain V = U G_N where the U-block is i.i.d. per symbol with a
finite observation attached: each position carries a joint P(u, o), u binary,
o in a finite alphabet. The engine computes

    P(V^i = b | V^{1:i-1} = prefix, O^{1:N} = obs)

exactly, for every index in order, via the pairwise recursion induced by the
B_N F^{\\otimes n} factorization: v-indices are processed in natural order; the
odd member of each pair combines the two half-block subproblems with the
check-node (f) rule, the even member with the bit-node (g) rule on the
partial sums (v_odd xor v_even, v_even) of bits already decided, which a
stack reads off the walk's block when it needs them (pull, not push). Every
node pair is renormalized after each combine, so no log domain is needed at
the target blocklengths.

The tree is stored batch last: level lam holds a (2, 2^lam, B) array, or
(2, 2^lam, W) packed words (below), so one node's B rows are contiguous. It
is evaluated lazily, as in simplified SC decoding (Alamdar-Yazdi and
Kschischang, IEEE Commun. Lett. 2011): a node block is computed only when
an index that reads it asks for its root pair, so a walk pays for a stack
only at the indices whose tag consults it. A block that no consulted index
reads is never computed, and no other index reads it (PairStack states the
rule).

Near the leaves a float tree's pairs take few distinct values, so those
levels are held as codes into exact pair tables, a bit-exact cousin of
Fast-SSC's skipped nodes (Sarkis et al., IEEE JSAC 2014). A leaf is one of
the K_n columns of the leaf table U_n (K_n = 1 for an observation-free
prior) and its code is the observed symbol. A level-lam node is f of two
children or g of two children and a partial sum, so its pair lies in the
union table U_lam = f(U_(lam+1) x U_(lam+1)) ++ g(U_(lam+1) x U_(lam+1) x
{0, 1}) of K_lam = 3 K_(lam+1)^2 entries: an f node is coded l K + r and a
g node K^2 + 2 (l K + r) + s, with l and r its children's codes,
K = K_(lam+1) and s its partial sum. Every level whose table has at most
2^16 entries is held as a (2^lam, B) uint16 array; the lowest level above
them gathers its children's pairs from the top table and runs the float
ops. K_n = 1 codes three levels (tables of 3, 27 and 2187 entries),
K_n = 2..7 two, K_n = 8..147 one and K_n >= 148 none. This is exact: each
table entry is computed once, by the same _fop / _gop / _normalize
elementwise IEEE ops (multiply, add, max, divide, xor on bit patterns) on
the same operand values as the tree would apply to the node, and the
gather copies it unchanged, so every pair the tree holds, and every root
pair, draw, chain factor and null count, is bit for bit the uncoded
tree's. A tree coded up to its root (N <= 8 for K_n = 1, N <= 4 for
K_n = 2..7) decides its root by one gather, as Fast-SSC looks a node up
instead of computing it: its root table (_root_table), built once per
tree, is the top table with every null pair (0, 0) set to the uniform
pair, plus the null flags, the N = 1 leaf table normalized first. Each
entry goes through the ops the uncoded tree applies to a root holding it,
so the root table holds that tree's root pairs bit for bit, and the codes,
widened to intp once, gather both the pairs and the flags. A float root
is finished in place (_root_pairs); only PairStack, whose level 0
persists, finishes a copy.

On a hard channel (SymbolChannel.hard: every observation column holds at
most one positive entry, or two exactly equal ones, and every positive
entry squared is still positive) the tree runs on supports: a leaf's
support is {u : entry > 0}, products are AND, sums OR, and there is no
normalization; the root support maps to (1, 0), (0, 1) or (1/2, 1/2), and
an empty support is the flagged null pair. This is exact. A float leaf
pair is (a, 0), (0, a), (a, a) or (0, 0). The first combine of two such
leaves multiplies positive entries into at least the squared smallest
entry, which the property requires to be positive, and both entries of a
pair come out as the same rounded product or the same sum of two equal
ones, so the float node is (x, 0), (0, x), (x, x) or (0, 0) with x > 0
exactly where its support says. Since x / x = 1 and x / (x + x) = 1/2 in
IEEE arithmetic, normalization turns it into the normalized indicator of
its support, and every later combine works on entries 0, 1/2 and 1 with
products at least 1/4. So every float pair the tree would hold, the root
included, is exactly the normalized indicator of the support the support
tree holds, and draws (u < q1), argmax decisions, chain factors q[bit] and
null counts are bit for bit the same.

A support pair has four values, one bit per entry, so a support tree
packs its trials: every level, the leaves and the partial sums are uint64
words, 64 trials per word (trial b at bit b % 64 of word b // 64, the
inter-frame packing of fast software polar decoders: Le Gal, Leroux and
Jego, IEEE T-SP 2015), and the pair ops are bitwise: f is
(l0 & r0 | l1 & r1, l1 & r0 | l0 & r1), and g swaps l0 and l1 under the
packed partial sums and ANDs with r. It needs no codes and no union
tables. Only the root's two rows are unpacked, into the code s0 + 2 s1
of each trial's support, and the root is decided by one gather from a
fixed, read-only 4-entry table (_SUPPORT_ROOT) of the pairs (1/2, 1/2)
flagged null, (1, 0), (0, 1) and (1/2, 1/2): the float tree's root pairs
bit for bit, by the argument above.

The level rule is written once, in _new_level, _level_step and
_root_finish, and serves both PairStack and pinned_pairs, as
_partial_sums builds the partial sums for both: packed words on a support
tree (a bool leaf table), codes then float pairs on a float tree. The pair
ops (_fop, _gop) are written once too, and pick AND / OR or multiply /
add by the dtype of the level they write.

Where the bit is moreover a function of the observation (no column with two
positive entries, SymbolChannel.functional), every support is a single bit
or empty, and the walk uses FunctionalStack instead of any tree: the root
pair at index i is the indicator of v*_i, where v* = G_N(u*(obs)) is the
one block of positive mass, while the decided prefix agrees with v* and no
observed symbol has zero mass, and null otherwise. That law does not depend
on the bits decided at the indices it serves, only on whether a trial is
still alive, so the walk decides a whole run of them in one slice: a draw
from the indicator is u < 1.0 or u < 0.0, so an alive trial copies v* over
the run, stays alive and reads no uniform, and a null one stays null. A
walk whose draws are all of this kind never draws its private uniform
block (sample_sequential).

A known block pins the walk, so no index waits for another's decision
(genie-aided SC, Arikan, "Channel polarization", IEEE T-IT 2009):
pinned_pairs evaluates every index's root pair level by level, with no
per-index loop. A Monte Carlo profile knows its block in advance, and
chain_probability is asked about one, so both read their pairs there.

A drawn block is the one walk, sample_sequential, on (N,) or (B, N) arrays
through the adapter _lift, which chain_probability shares. The (B, N)
transposed view of a C-order (N, B) array, which the round loop passes,
lifts to that array, with no copy. The walk steps over maximal runs of
equal tags, as Fast-SSC decodes a constituent code whose law needs no
traversal in one step (Sarkis et al., IEEE JSAC 2014): a PINNED run copies
its pins, a UNIFORM_HALF run draws its shared uniforms, and a
FunctionalStack's run takes v* on its alive trials, each as one (run, B)
slice. Only the indices of a tag served by a PairStack, whose root pair at
one index depends on the bits decided at the last, are stepped one at a
time. Each of the walk's two streams holds one uniform block, a single
(B, N) draw read through its transposed (N, B) view and drawn only when a
run reads it (_DeferredBlock).

Null conditioning (a prefix of probability zero given the observation,
reachable through pinned bits or draws inconsistent with the model, or
through an observed symbol of zero mass) yields the uniform
pair and a diagnostic count instead of an error; samplers and chain
probabilities treat the fallback as part of the sampling law, which keeps
every induced distribution properly normalized.

Observation alphabets for multi-variable conditionings are flattened to one
finite alphabet with the first-listed variable fastest-varying (x fastest);
SymbolChannel owns that layout, and mixed_radix writes it, for flatten_obs
and, digits reversed, for the C-order index of a function table.
"""
from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .probability import NORM_TOL, JointPmf
from .transform import apply_transform, check_block_length

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
    """Whether every symbol is an integer in [0, size): max() alone for an
    unsigned dtype, min() too for a signed or bool one; any other dtype
    must hold integral values too, so a fraction is rejected, not
    truncated into range."""
    if not symbols.size:
        return True
    if symbols.dtype.kind not in "biu":
        return bool(np.all((symbols >= 0) & (symbols < size) & (symbols == np.floor(symbols))))
    return int(symbols.max()) < size and (symbols.dtype.kind == "u" or symbols.min() >= 0)


def mixed_radix(digits: Sequence, sizes: Sequence[int], names=None) -> np.ndarray:
    """The flat symbols sum_k digits[k] prod(sizes[:k]) of digit arrays
    (broadcast together), the first digit fastest, in the smallest unsigned
    dtype that holds prod(sizes) - 1.

    The sum is formed in place by Horner steps from the last digit, so no
    stride is formed, and every step stays below prod(sizes). Pass the
    digits reversed for the C-order flat index into a table of shape
    `sizes[::-1]`. A digit outside [0, sizes[k]) raises ValueError naming
    names[k] (k when not given), since it would alias another digit.
    """
    digits = [np.asarray(d) for d in digits]
    names = range(len(sizes)) if names is None else names
    dtype = np.min_scalar_type(int(np.prod(sizes)) - 1)
    flat = np.zeros(np.broadcast_shapes(*(d.shape for d in digits)), dtype)
    span = 1  # the flat range so far; at 1 flat is all 0 and needs no multiply
    for d, size, name in reversed(list(zip(digits, sizes, names))):
        if not _in_alphabet(d, size):
            raise ValueError(f"variable {name!r} has symbols outside [0, {size})")
        if span > 1:
            flat *= dtype.type(size)
        np.add(flat, d, out=flat, casting="unsafe")  # in range, so the cast is exact
        span *= size
    return flat


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
        if not np.all(table >= 0):  # NaN fails this and the sum check
            raise ValueError("channel table entries must be nonnegative numbers")
        if not abs(float(table.sum()) - 1.0) <= NORM_TOL:
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
        """Flat symbols of per-variable symbol arrays (broadcast together):
        `mixed_radix` over obs_sizes, in the smallest unsigned dtype that
        holds obs_size - 1. A symbol outside its variable's alphabet
        [0, size) raises ValueError, since it would alias another
        variable's symbol.
        """
        if len(values) != len(self.obs_sizes):
            raise ValueError(
                f"expected {len(self.obs_sizes)} observation arrays, got {len(values)}")
        return mixed_radix(values, self.obs_sizes)

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
    OBSERVATION_CONDITIONAL, PINNED. `pinned` carries the bit, 0 or 1, of
    every PINNED index (other positions ignored), (N,) or batched (B, N).
    Both are checked before the uint8 cast, so nothing wraps into range.
    """

    tags: np.ndarray
    pinned: np.ndarray | None = None

    def __post_init__(self):
        tags = np.asarray(self.tags)
        if tags.ndim != 1:
            raise ValueError("tags must be a 1-D vector over [N]")
        if not np.all(np.isin(tags, range(PINNED + 1))):
            raise ValueError("unknown sampling tag")
        tags = tags.astype(np.uint8, copy=False)
        pinned = self.pinned
        at = tags == PINNED
        if np.any(at):
            if pinned is None:
                raise ValueError("policy has PINNED indices but no pinned bits")
            pinned = np.asarray(pinned)
            if pinned.shape[-1] != tags.size:
                raise ValueError("pinned bits must cover [N] along the last axis")
            bits = pinned[..., at]
            if np.any((bits != 0) & (bits != 1)):
                raise ValueError("pinned bits must be 0 or 1 at the PINNED indices")
            pinned = pinned.astype(np.uint8, copy=False)
        object.__setattr__(self, "tags", tags)
        object.__setattr__(self, "pinned", pinned)

    @property
    def size(self) -> int:
        return self.tags.size


def _normalize(out: np.ndarray) -> None:
    """Divide every float pair of out (2, ...) by its total, in place.

    A zero total means both entries are +0: dividing by the smallest
    subnormal keeps them 0 and leaves every positive total unchanged.
    Supports (packed words) are not normalized.
    """
    if out.dtype == np.uint64:
        return
    total = out[0] + out[1]
    np.maximum(total, 5e-324, out=total)
    np.divide(out, total, out=out)


def _fop(left: np.ndarray, right: np.ndarray, out: np.ndarray) -> None:
    """Check-node combine out = f(left, right) of (2, ...) pairs, normalized.

    out[b] = left[b] right[0] + left[1 - b] right[1], with the products AND
    and the sums OR on packed supports.
    """
    packed = out.dtype == np.uint64
    mul, add = (np.bitwise_and, np.bitwise_or) if packed else (np.multiply, np.add)
    mul(left[0], right[0], out=out[0])
    add(out[0], mul(left[1], right[1]), out=out[0])
    mul(left[1], right[0], out=out[1])
    add(out[1], mul(left[0], right[1]), out=out[1])
    _normalize(out)


def _gop(left: np.ndarray, right: np.ndarray, low: np.ndarray, out: np.ndarray) -> None:
    """Bit-node combine out = g(left, right) given the partial sums `low`.

    out = (left[low], left[1 - low]) * right, normalized. The swap selects
    on the bit patterns, which is exact for float pairs and several times
    faster than np.where on a mask without pattern; on packed supports the
    packed partial sums are the swap mask themselves.
    """
    packed = out.dtype == np.uint64
    swap = low if packed else np.negative(low, dtype=np.uint64)  # 0 or all ones
    l0, l1 = left[0].view(np.uint64), left[1].view(np.uint64)
    diff = np.bitwise_xor(l0, l1)
    diff &= swap
    bits = out.view(np.uint64)
    np.bitwise_xor(l0, diff, out=bits[0])
    np.bitwise_xor(l1, diff, out=bits[1])
    if packed:
        out &= right
    else:
        out *= right
    _normalize(out)


CODE_LIMIT = 1 << 16  # most entries of a union table whose level is held as uint16 codes


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
    while it has at most CODE_LIMIT entries, up to the root U_0. A support
    table (bool) has none: its tree is held as packed words."""
    tables = [leaf_table]
    while (leaf_table.dtype != bool and len(tables) <= n
           and 3 * tables[-1].shape[1] ** 2 <= CODE_LIMIT):
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
    """Float root pairs (2, ...) and their null mask, in place: a null pair
    (0, 0) becomes the uniform pair and is flagged, a normalized pair is
    kept. root is overwritten, so a caller whose root is a view of state it
    keeps (PairStack's level 0) passes a copy; a root table and pinned_pairs'
    fresh root level are passed as they are.
    """
    null = root[0] + root[1] <= 0.0
    root[:, null] = 0.5
    return root, null


# the root table of every packed support root, by the code s0 + 2 s1 of the
# support: the float rule applied to the normalized indicators (0, 0),
# (1, 0), (0, 1) and (1/2, 1/2), so the empty support is the null uniform pair
_SUPPORT_ROOT = _root_pairs(np.array([[0.0, 1.0, 0.0, 0.5], [0.0, 0.0, 1.0, 0.5]]))
_SUPPORT_ROOT[0].flags.writeable = _SUPPORT_ROOT[1].flags.writeable = False


def _root_table(tables: list, root: np.ndarray):
    """The (pairs, null) table that decides the tree's root level `root`
    by its codes, or None for a float root.

    A support tree's root is decided by _SUPPORT_ROOT. A float tree coded
    up to its root (tables U_n ... U_0) is decided by its top table with
    every null pair (0, 0) set to the uniform pair (_root_pairs), the N = 1
    leaf table normalized first: each entry goes through the ops the tree
    would apply to a root holding it, so the table holds the uncoded tree's
    root pairs bit for bit.
    """
    if _supports(tables):
        return _SUPPORT_ROOT
    if root.dtype.kind not in "ui":
        return None
    top = tables[-1].copy()
    if len(tables) == 1:
        _normalize(top)
    return _root_pairs(top)


def _pack(bits: np.ndarray) -> np.ndarray:
    """(..., B) bits (bool or 0/1) as (..., W) uint64 words, W = ceil(B/64):
    trial b at bit b % 8 of byte b // 8, which is bit b % 64 of word b // 64
    on a little-endian host, and the padding bits of the last word 0. Every
    op on the words is bitwise, so the layout needs no particular host."""
    batch = bits.shape[-1]
    out = np.zeros(bits.shape[:-1] + (-(-batch // 64) * 8,), np.uint8)
    out[..., : -(-batch // 8)] = np.packbits(bits, axis=-1, bitorder="little")
    return out.view(np.uint64)


def _unpack(words: np.ndarray, batch: int) -> np.ndarray:
    """The (..., B) bool bits of (..., W) words packed by _pack."""
    return np.unpackbits(words.view(np.uint8), axis=-1, count=batch,
                         bitorder="little").view(bool)


def _supports(tables: list) -> bool:
    """Whether the tree of these tables runs on packed supports."""
    return tables[0].dtype == bool


def _leaf_level(tables: list, codes: np.ndarray) -> np.ndarray:
    """Level n from the (N, B) leaf codes: the codes themselves, or on
    supports the packed (2, N, W) words of the leaf supports."""
    if _supports(tables):
        return _pack(np.take(tables[0], codes, axis=1))
    return codes


def _new_level(tables: list, depth: int, shape: tuple) -> np.ndarray:
    """An empty level lam = n - depth whose nodes fill shape (..., 2^lam, B).

    This is the level rule, decided here only: a support tree (a bool leaf
    table) holds every level as (2,) + shape uint64 words with the B trials
    packed into W = ceil(B/64) (_pack); a float tree holds the level as
    uint16 codes into its union table tables[depth] while that table exists
    (see _union_tables), else as (2,) + shape float pairs. Nodes sit on the
    second-to-last axis, so a PairStack's one block and pinned_pairs' row
    of blocks share _level_step and _root_finish, which read the rule off
    the arrays they are given.
    """
    if _supports(tables):
        return np.empty((2,) + shape[:-1] + (-(-shape[-1] // 64),), np.uint64)
    if depth < len(tables):
        return np.empty(shape, np.uint16)
    return np.empty((2,) + shape, tables[0].dtype)


def _level_step(tables: list, depth: int, child: np.ndarray, low, out: np.ndarray) -> np.ndarray:
    """Write level `depth` into out from its child level: node j combines
    child nodes 2j and 2j + 1 by f where low is None and by g on the
    partial sums low otherwise. A coded out gets codes (_encode); an out of
    pairs or words reads pairs or words, gathered from the top table
    tables[-1] when the child is still coded (it has one axis fewer).
    Returns the child as read, so a caller stepping a level's f and g
    halves gathers it once."""
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


def _root_finish(root: np.ndarray, root_table, batch: int) -> tuple[np.ndarray, np.ndarray]:
    """Level 0 for B = batch trials as float pairs (2, ...), uniform where
    null, and the null mask, by the tree's root table (_root_table): packed
    support words become the codes s0 + 2 s1 and coded nodes their codes,
    each widened to intp once, and the codes gather both the pairs and the
    null flags, fresh arrays. A float root (root_table None) is finished in
    place by _root_pairs, so its caller owns the copy: PairStack, whose
    level 0 persists, passes one, and pinned_pairs passes its fresh level.
    """
    if root_table is None:
        return _root_pairs(root)
    if root.dtype == np.uint64:
        bits = _unpack(root, batch)
        codes = bits[1].astype(np.intp)
        codes <<= 1
        codes |= bits[0]
    else:
        codes = root.astype(np.intp)
    pairs, null = root_table
    return np.take(pairs, codes, axis=1), null[codes]


def _partial_sums(tables: list, bits: np.ndarray, top: int) -> list:
    """[s_0, ..., s_top]: s_lam the partial sums of every 2^lam-row block of
    the (R, B) decided bits, R a multiple of 2^top, as the tree holds them:
    (R, W) packed words on supports, (R, B) uint8 otherwise. s_0 is the
    bits; a 2^(lam+1)-row block's sums interleave those of its halves a and
    b, a_j ^ b_j at row 2j and b_j at 2j + 1."""
    bits = np.asarray(bits, dtype=np.uint8)
    sums = [_pack(bits) if _supports(tables) else bits]
    rows = bits.shape[0]
    for lam in range(top):
        halves = sums[lam].reshape(rows >> (lam + 1), 2, 1 << lam, -1)
        out = np.empty((rows >> (lam + 1), 1 << lam, 2, halves.shape[-1]), halves.dtype)
        np.bitwise_xor(halves[:, 0], halves[:, 1], out=out[:, :, 0])
        out[:, :, 1] = halves[:, 1]
        sums.append(out.reshape(rows, -1))
    return sums


class PairStack:
    """Batched SC tree holding one probability pair per node, batch last.

    pair_at(phi, v) gives index phi's root pair given the rows before phi
    of the walk's (N, B) block v. Built from leaves = (table, codes) as
    `_leaf_pairs` gives them: leaf j of row b holds the pair
    table[:, codes[j, b]] of the (2, K) table, float joint pairs or bool
    supports (a hard channel). Level n is the leaf level (_leaf_level),
    level 0 the root, and each level between is held as the level rule
    (_new_level) says: on supports every level and the leaves are packed
    uint64 words, 64 trials per word, and so are the partial sums a g step
    reads (_partial_sums), while pair_at unpacks only the root's two rows;
    on float pairs the leaf level is the (N, B) codes, the levels near it
    codes too, pairs above. Pairs that condition on a zero-probability
    event stay (0, 0) (an empty support) and are reported through the null
    mask of pair_at. pair_at decides a packed or coded root by one gather
    from root_table, built once here (_root_table), and finishes a float
    root on a copy, since level 0 persists and a returned pair must not
    change at the next consult.

    Evaluation is lazy, by stamps. The level-lam block that index phi reads
    is the one of stamp phi_lam = phi & ~(2^lam - 1): the f op when bit lam
    of phi is clear, else the g op on the partial sums of v's rows
    [phi_lam - 2^lam, phi_lam). A level is recomputed when its stamp
    changes, and the rows it reads are decided and fixed, so the stacks
    may be consulted at any indices, in any order.
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
        check_block_length(n_len)
        self.batch = batch
        self.n = n_len.bit_length() - 1
        self.tables = _union_tables(table, self.n)  # tables[d] is U_(n-d)
        self.levels = [_new_level(self.tables, self.n - lam, (1 << lam, batch))
                       for lam in range(self.n)] + [_leaf_level(self.tables, codes)]
        self.stamps = [-1] * self.n
        self.root_table = _root_table(self.tables, self.levels[0])

    def pair_at(self, phi: int, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Root pair at index phi, (B, 2) (uniform where null), and the null
        mask, given the decided rows before phi of the (N, B) block v."""
        for lam in range(self.n - 1, -1, -1):
            stamp = phi & -(1 << lam)
            if self.stamps[lam] != stamp:
                low = (_partial_sums(self.tables, v[stamp - (1 << lam) : stamp], lam)[-1]
                       if phi >> lam & 1 else None)
                _level_step(self.tables, self.n - lam, self.levels[lam + 1], low, self.levels[lam])
                self.stamps[lam] = stamp
        root = self.levels[0][..., 0, :]
        if self.root_table is None:  # a float level 0 persists: finish a copy
            root = root.copy()
        pair, null = _root_finish(root, self.root_table, self.batch)
        return pair.T, null


def _pinned_root(ch: SymbolChannel, obs: np.ndarray, v: np.ndarray) -> tuple:
    """(root, tables): level 0 of the walk pinned to the (N, B) block v at
    the (N, B) observations obs, every index's root node as the level rule
    holds it, (2, N, W) words on supports, and the tree's tables
    (pinned_pairs)."""
    n_len, batch = v.shape
    n = n_len.bit_length() - 1
    table, codes = _leaf_pairs(ch, obs)
    tables = _union_tables(table, n)
    level = _leaf_level(tables, codes)
    sums = _partial_sums(tables, v, n - 1)
    for lam in range(n - 1, -1, -1):
        blocks = n_len >> (lam + 1)
        low = sums[lam].reshape(blocks, 2, 1 << lam, -1)[:, 0]
        child = level.reshape(level.shape[:-2] + (blocks, 2 << lam, level.shape[-1]))
        out = _new_level(tables, n - lam, (blocks, 2, 1 << lam, batch))
        child = _level_step(tables, n - lam, child, None, out[..., 0, :, :])
        _level_step(tables, n - lam, child, low, out[..., 1, :, :])
        level = out.reshape(out.shape[:-4] + (n_len, out.shape[-1]))
    return level, tables


def pinned_pairs(ch: SymbolChannel, obs: np.ndarray, v: np.ndarray) -> tuple:
    """Root pair at every index of the walk pinned to the (N, B) block v,
    given the (N, B) observations obs.

    Equals PairStack's pair_at(phi, v) at every phi, without a per-index
    loop: v is known up front, so no index waits for another's decision
    (genie-aided SC). Monte Carlo profiles and chain_probability read their
    pairs here. Level lam is evaluated for all its 2^(n-lam) blocks of
    2^lam nodes at once, by the level rule (_new_level, _level_step) with
    blocks on the third-to-last axis; block h is f of block h >> 1 of level
    lam + 1 when h is even and g of it when h is odd, on the partial sums of
    v[(h-1) 2^lam, h 2^lam), which _partial_sums builds for every level in
    one pass, as it builds them for a PairStack's g step (packed words on
    supports). Returns the (2, N, B) float pairs, uniform where null, and
    the (N, B) null mask. A block length that is not a positive power of
    two raises ValueError.
    """
    check_block_length(v.shape[0])
    root, tables = _pinned_root(ch, obs, v)
    return _root_finish(root, _root_table(tables, root), v.shape[1])


_COMPARE_BYTES = 16  # most rare symbols x symbol itemsize for which comparing beats a gather


def _symbol_mask(table: np.ndarray, symbols: np.ndarray) -> np.ndarray:
    """table[symbols] of a bool table over the alphabet.

    The symbols equal to one of the rarer of table's two values are found
    by one in-place comparison per such symbol, which keeps narrow symbols
    narrow, where a gather would widen them; each position matches at most
    one symbol, so xor-ing the matches into the other value's mask sets
    them. A comparison costs about its symbols' bytes and the gather does
    not: at (1024, 2000) symbols the gather takes 5.9 ms on uint8, 5.5 ms on
    uint16 and 2.5 ms on intp, a comparison 0.34, 0.43 and 0.9 ms, so it
    compares while the rare symbols times the itemsize are at most
    _COMPARE_BYTES and gathers above that.
    """
    common = 2 * np.count_nonzero(table) > table.size
    rare = np.flatnonzero(table != common).tolist()
    if len(rare) * symbols.itemsize > _COMPARE_BYTES:
        return table[symbols]
    out = np.full(symbols.shape, common)
    match = np.empty(symbols.shape, bool)
    for symbol in rare:
        np.equal(symbols, symbol, out=match)
        out ^= match
    return out


class FunctionalStack:
    """PairStack's root pairs for a functional channel, without the tree.

    The bit is u*(o), the row of symbol o's one positive entry, and
    v* = G_N(u*(obs)) is the only v-block of positive mass. A row is alive
    while every symbol it observes has positive mass and every decided bit
    equals v*'s; alive_at(phi, v) folds v's rows since its last call into
    `alive` and returns it. The root pair at phi is the indicator of
    v*[phi] on alive rows and the uniform pair, flagged null, on the rest,
    exactly PairStack's pair_at on the same channel (module docstring);
    the drawing walk reads v_star and alive_at and builds no pair, and
    chain_probability, whose block is known, reads pinned_pairs instead.
    obs is the (N, B) observations; phi may not move backwards, since a
    folded row cannot be unfolded. u*(obs) and the zero-mass symbols are
    found by _symbol_mask, and where every symbol has mass every row starts
    alive, unread.
    """

    def __init__(self, ch: SymbolChannel, obs: np.ndarray):
        if not ch.functional:
            raise ValueError("FunctionalStack needs a functional channel")
        n_len, batch = obs.shape
        positive = ch.table > 0
        if ch.obs_size == 1:  # one trial stands for every trial
            obs = np.zeros((n_len, 1), dtype=np.uint8)
        # the transform runs along the rows of the (B, N) view; its .T is C-order again
        self.v_star = np.broadcast_to(apply_transform(_symbol_mask(positive[1], obs).T).T,
                                      (n_len, batch))
        mass = positive.any(axis=0)
        self.alive = np.ones(batch, bool) if mass.all() else _symbol_mask(mass, obs).all(axis=0)
        self._folded = 0  # rows of v folded into alive

    def alive_at(self, phi: int, v: np.ndarray) -> np.ndarray:
        """The (B,) alive mask at index phi, given the decided rows before
        phi of the (N, B) block v."""
        if phi < self._folded:
            raise ValueError(f"index {phi} after index {self._folded}: phi moved backwards")
        rows = slice(self._folded, phi)
        self.alive &= np.all(v[rows] == self.v_star[rows], axis=0)
        self._folded = phi
        return self.alive


def _stack_for(ch: SymbolChannel, obs: np.ndarray):
    """The SC stack of ch at (N, B) observations: FunctionalStack where the
    channel is functional, else PairStack, on supports where it is hard."""
    if ch.functional:
        return FunctionalStack(ch, obs)
    return PairStack(_leaf_pairs(ch, obs))


def _leaf_pairs(ch: SymbolChannel, obs: np.ndarray) -> tuple:
    """(table, codes): the (2, K) leaf table, the joint pairs or, where the
    channel is hard, their supports (bool), which make the tree a packed
    support tree (_new_level); and the (N, B) leaf codes, the realized
    (N, B) observations themselves, as C-order uint16 where K allows.
    Observations held trial-last already are cast row by row, with no
    transpose; narrow (uint8) ones are widened only in this copy.

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


def _lift(ch: SymbolChannel, obs, policy: SamplingPolicy, *blocks) -> tuple:
    """Lift the (N,) or (B, N) inputs of a public entry point to trial-last
    (N, B) arrays, once: the one transpose between the public layout and
    the walk's, which gives the transposed view of a C-order (N, B) array
    back as that array.

    B is the leading size of every batched array among obs, the pinned bits
    and `blocks` (1 if none is batched). A missing observation is symbol 0 at
    every position, i.e. the prior of an observation-free channel; unsigned
    symbols keep their dtype, others become intp. Returns (batched, obs,
    pinned, *blocks): pinned is None where the policy has none, and
    `batched` tells the caller whether to keep the batch axis on the way
    out. Raises ValueError on a symbol outside [0, ch.obs_size).
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
    obs = np.asarray(obs)
    if not _in_alphabet(obs, ch.obs_size):
        raise ValueError("observation symbol out of range")
    if obs.dtype.kind != "u":
        obs = obs.astype(np.intp)
    lifted = [None if bits is None else _trial_last(bits, n_len, batch, "bit blocks")
              for bits in (policy.pinned, *blocks)]
    return (bool(sizes), _trial_last(obs, n_len, batch, "observations"), *lifted)


def _check_walk(n_len: int, fd_mode: str) -> None:
    """Reject an fd_mode other than "sample" and "argmax", or a block length
    that is not a positive power of two, with ValueError: each public walk
    checks its inputs before either stream moves."""
    if fd_mode not in ("sample", "argmax"):
        raise ValueError(f"fd_mode must be 'sample' or 'argmax', got {fd_mode!r}")
    check_block_length(n_len)


def _uniform_block(rng: np.random.Generator, batch: int, n_len: int) -> np.ndarray:
    """One stream's uniforms for a walk: rng.random((B, N)), read as an
    (N, B) block through its transposed view, with no copy."""
    return rng.random((batch, n_len)).T


class _DeferredBlock:
    """One stream's uniform block of a walk, _uniform_block(rng, B, N): the
    (N, B) transposed view of one rng.random((B, N)) draw, drawn only when a
    run first reads it.

    rng itself moves one (B, N) block on at once, so every later draw from
    it is as if the block had been drawn, whether or not it is read. A PCG64
    stream holding no buffered 32-bit half is advanced by B N outputs, since
    each double consumes exactly one 64-bit output, and the block is drawn,
    when read, from a copy of the stream as it was; any other stream cannot
    be advanced without drawing, so it draws the block at once and keeps it.
    """

    def __init__(self, rng: np.random.Generator, batch: int, n_len: int):
        self._shape = (batch, n_len)
        self._block = None
        bit_gen = rng.bit_generator
        if type(bit_gen) is np.random.PCG64 and not bit_gen.state["has_uint32"]:
            self._rng = copy.deepcopy(rng)
            bit_gen.advance(batch * n_len)
        else:
            self._block = _uniform_block(rng, batch, n_len)

    def __getitem__(self, key):
        if self._block is None:
            self._block = _uniform_block(self._rng, *self._shape)
        return self._block[key]


def _conditionals(ch: SymbolChannel) -> tuple:
    """(tag, channel) of the two conditional tags: ch itself on
    OBSERVATION_CONDITIONAL, its prior on PRIOR_CONDITIONAL."""
    return (OBSERVATION_CONDITIONAL, ch), (PRIOR_CONDITIONAL, ch.prior())


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
    copies the given bit. Each stream holds one uniform block, a single
    rng.random((B, N)) draw that the walk reads through its (N, B)
    transposed view, private then shared where both come from rng, so
    outputs are reproducible for a fixed seed regardless of the tag layout:
    each stream moves one block on at once, whatever the tags, and its block
    is drawn only when a run first reads it (_DeferredBlock). An fd_mode or
    a block length that the walk rejects raises ValueError before either
    stream moves. Returns (B, N) blocks, squeezed to (N,) for unbatched
    inputs: the transposed view of the walk's C-order (N, B) block.

    fd_mode="argmax" replaces the PRIOR_CONDITIONAL draw with the
    higher-probability bit (a documented deviation from the sampling rules).

    The walk runs trial-last on the (N, B) arrays _lift gives, row phi
    holding index phi of every trial, and steps over maximal runs of equal
    tags [a, b), each decided as one (b - a, B) slice, since no law in it
    depends on the bits decided inside it: a PINNED run copies its pins, a
    UNIFORM_HALF run draws shared_u[a:b] < 1/2, and a run served by a
    FunctionalStack copies v*[a:b] on its alive trials, so its alive mask is
    that at a throughout, and where no trial is null it reads no uniform. A
    null trial there draws private_u < 1/2, or takes 0 on a prior run under
    argmax, so a run builds no (b - a, B) float law: at 200000 trials such
    temporaries left freed heap behind that raised a later phase's peak RSS.
    A tag served by a PairStack is stepped one index at a time, drawing
    private_u < q1 from its root pair (q0, q1), or taking the more likely
    bit on a prior index under argmax. Every row counts its null trials as
    anomalies. A stack exists only if the tags consult it and reads the
    bits decided so far off the walk's block itself; a functional channel's
    stack is a FunctionalStack and a hard channel's a packed support tree
    (`_stack_for`).
    """
    batched, obs, pinned = _lift(ch, obs, policy)
    n_len, batch = obs.shape
    _check_walk(n_len, fd_mode)
    private_u = _DeferredBlock(rng, batch, n_len)
    shared_u = _DeferredBlock(shared_rng or rng, batch, n_len)
    tags = policy.tags
    stacks = {tag: _stack_for(served, obs) for tag, served in _conditionals(ch)
              if np.any(tags == tag)}
    paired = [tag for tag, stack in stacks.items() if isinstance(stack, PairStack)]
    cuts = np.flatnonzero((np.diff(tags) != 0) | np.isin(tags[1:], paired)) + 1
    bounds = [0, *cuts.tolist(), n_len]
    v_block = np.empty((n_len, batch), dtype=np.uint8)
    for a, b in zip(bounds, bounds[1:]):
        rows = slice(a, b)
        tag = int(tags[a])
        argmax = tag == PRIOR_CONDITIONAL and fd_mode == "argmax"
        nulls = 0
        if tag == PINNED:
            point = pinned[rows]
        elif tag == UNIFORM_HALF:
            point = shared_u[rows] < 0.5
        elif tag in paired:
            pair, null = stacks[tag].pair_at(a, v_block)
            nulls = np.count_nonzero(null)
            point = pair[:, 1] > pair[:, 0] if argmax else private_u[rows] < pair[:, 1]
        else:  # a FunctionalStack's run: every row has the nulls of row a
            point = stacks[tag].v_star[rows]
            null = ~stacks[tag].alive_at(a, v_block)
            nulls = np.count_nonzero(null) * (b - a)
            if nulls:  # the uniform pair, whose more likely bit is 0
                point = np.where(null, np.uint8(0) if argmax else private_u[rows] < 0.5, point)
        if anomalies is not None:
            anomalies.add(nulls)
        v_block[rows] = point
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
    """Probability that sample_sequential outputs exactly `v_block`.

    prod_i q_i(v^i | v^{1:i-1}, obs), each index's factor taken from the law
    its tag gives it: 1/2 on UNIFORM_HALF, 1 on a PINNED match and 0
    otherwise, and on OBSERVATION_CONDITIONAL and PRIOR_CONDITIONAL q[bit]
    of the walk's root pair, or under fd_mode="argmax" on a prior index the
    indicator of its more likely bit. The block is known, so those pairs
    are the genie-aided ones, which pinned_pairs evaluates at every index
    at once; a null trial's pair is the uniform one, and the null counts at
    the indices of the two conditional tags are the anomalies. The factors
    go into the chain one row at a time, in index order, so every rounding
    is the walk's. Accepts (N,) or (B, N) binary blocks and returns a scalar
    or (B,) vector accordingly.
    """
    v_block = np.asarray(v_block)
    if np.any((v_block != 0) & (v_block != 1)):
        raise ValueError("v_block must hold bits 0 and 1 only")
    batched, obs, pinned, v_block = _lift(ch, obs, policy, v_block.astype(np.uint8))
    _check_walk(obs.shape[0], fd_mode)
    tags = policy.tags
    factors = np.full(v_block.shape, 0.5)
    if pinned is not None:
        at = tags == PINNED
        factors[at] = v_block[at] == pinned[at]
    for tag, served in _conditionals(ch):
        at = tags == tag
        if not np.any(at):
            continue
        pair, null = pinned_pairs(served, obs, v_block)
        if anomalies is not None:
            anomalies.add(np.count_nonzero(null[at]))
        q0, q1, bits = pair[0, at], pair[1, at], v_block[at]
        if tag == PRIOR_CONDITIONAL and fd_mode == "argmax":
            factors[at] = bits == (q1 > q0)
        else:
            factors[at] = np.where(bits == 1, q1, q0)
    chain = np.ones(v_block.shape[1])
    for row in factors:
        chain *= row
    return chain if batched else float(chain[0])

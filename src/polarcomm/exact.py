"""Exact small-blocklength enumeration utilities.

Builds blocklength-N joints P(v^{1:N}, o^{1:N}) = prod_j P(u_j, o_j) with
u = v G_N by direct product and a transform permutation, plus the exact
per-index chain factors the verification oracle needs. Everything here is
deliberately independent of the successive-cancellation engine: these are the
brute-force reference paths.

The block joint is built batch-last, like the SC engine's stacks: within a
chunk of C observation blocks the u-block axis comes first and the
observation axis is the contiguous one, so each product step runs over C
elements at a time. `block_joint_chunks` yields the transpose of that
buffer on purpose; the sums of its callers follow memory order, and the
exact profiles and TV stay byte-identical only while that order does.

Block integers encode position 0 as the most significant digit, matching the
prefix order of the SC index walk.
"""
from __future__ import annotations

from itertools import pairwise

import numpy as np

from .sc import OBSERVATION_CONDITIONAL, PINNED, PRIOR_CONDITIONAL, UNIFORM_HALF, SymbolChannel
from .transform import apply_transform

# the tag of an index that contributes no factor to `sampled_chain_table`;
# the receiver's copied indices carry it as PINNED, and the name stays for
# callers that mark such indices by hand
EXCLUDED = PINNED

MAX_ENUM = 1 << 24


def ints_to_digits(ints: np.ndarray, n_len: int, base: int) -> np.ndarray:
    """Mixed-radix digits, position 0 most significant; shape (..., N).

    A value outside [0, base^N) raises ValueError.
    """
    ints = np.asarray(ints, dtype=np.int64)
    return np.stack(np.unravel_index(ints, (base,) * n_len), axis=-1)


def digits_to_ints(digits: np.ndarray, base: int) -> np.ndarray:
    """Inverse of `ints_to_digits` over the last axis; a digit outside
    [0, base) raises ValueError."""
    digits = np.asarray(digits, dtype=np.int64)
    return np.ravel_multi_index(tuple(np.moveaxis(digits, -1, 0)), (base,) * digits.shape[-1])


def transform_permutation(n_len: int) -> np.ndarray:
    """p[w] = integer of transform(bits(w)); involutive since G_N is."""
    bits = ints_to_digits(np.arange(1 << n_len), n_len, 2)
    return digits_to_ints(apply_transform(bits.astype(np.uint8)), 2)


def enumerable(ch: SymbolChannel, n_len: int) -> bool:
    """Whether the exact paths can enumerate every (v-block, obs block) at N."""
    return ch.obs_size**n_len * (1 << n_len) <= MAX_ENUM


def block_joint_chunks(ch: SymbolChannel, n_len: int, chunk: int = 4096):
    """Yield (obs_ints, Jv) chunks with Jv[c, w] = P(v-block w, obs block c).

    Enumerates all M^N observation blocks, `chunk` at a time. The v-axis is
    indexed with v^1 as the most significant bit.

    Each chunk is built batch-last: the u-block joint is held as (2^k, C),
    so every product and the u -> v row permutation run over the
    contiguous observation axis. Jv is the transpose of that (2^N, C)
    array, a view with strides (8, 8C), and is yielded as such on purpose:
    the callers' sums run in memory order, so their float results depend
    on this layout, and a C-contiguous copy would change them in the last
    bits.
    """
    if chunk < 1:
        raise ValueError("chunk must be >= 1")
    m = ch.obs_size
    total = m**n_len
    if not enumerable(ch, n_len):
        raise ValueError(f"enumeration too large: {total} obs blocks at N={n_len}")
    perm = transform_permutation(n_len)
    for start in range(0, total, chunk):
        obs_ints = np.arange(start, min(start + chunk, total), dtype=np.int64)
        digits = ints_to_digits(obs_ints, n_len, m)
        joint_u = np.ones((1, obs_ints.size))
        for k in range(n_len):
            factor = np.take(ch.table, digits[:, k], axis=1)  # (2, C)
            grown = np.empty((joint_u.shape[0], 2, obs_ints.size))
            for b in (0, 1):  # u_k = b is the new least significant bit
                np.multiply(joint_u, factor[b], out=grown[:, b])
            joint_u = grown.reshape(-1, obs_ints.size)
        # reindex from u-blocks to v-blocks; the permutation is an involution
        yield obs_ints, np.take(joint_u, perm, axis=0).T


def block_joint_full(ch: SymbolChannel, n_len: int) -> np.ndarray:
    """Dense (M^N, 2^N) table P(v-block, obs block)."""
    m = ch.obs_size
    out = np.empty((m**n_len, 1 << n_len))
    for obs_ints, joint_v in block_joint_chunks(ch, n_len):
        out[obs_ints] = joint_v
    return out


def _ratio_or_uniform(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num/den with the sampler's uniform fallback on null conditioning."""
    out = np.full(np.broadcast_shapes(num.shape, den.shape), 0.5)
    good = den > 0
    np.divide(num, den, out=out, where=good)
    return out


def _prefix_levels(joint: np.ndarray, n_len: int):
    """Yield the block joint marginalized to v^{1:i}, shape (..., 2^i), for
    i = N, ..., 0; its last axis is the v-prefix integer.

    Each level sums adjacent pairs of the previous one's last axis, so the
    sums follow the memory order of `joint` (see the module docstring). A
    level is summed only when the caller asks for the next item, so the
    caller's temporaries for one level are freed before the next is built.
    """
    yield joint
    for i in range(n_len, 0, -1):
        joint = joint.reshape(joint.shape[:-1] + (1 << (i - 1), 2)).sum(-1)
        yield joint


def sampled_chain_table(ch: SymbolChannel, tags: np.ndarray, n_len: int,
                        chunk: int = 2048) -> np.ndarray:
    """Exact per-block product of the sampling-rule factors.

    Returns C[o, w] = prod_i q_i(w^i | w^{1:i-1}, o) over indices whose tag is
    UNIFORM_HALF (1/2), PRIOR_CONDITIONAL (prior-chain conditional) or
    OBSERVATION_CONDITIONAL (observation conditional); PINNED indices
    contribute no factor, and the caller couples them, as the oracle couples
    a receiver's copied bits (`IndexPartition.tags_for_receiver`) to the
    transmitter's block. Conditionals marginalize the exact block joint, so
    on sampled-only tag sets each row of C sums to 1 exactly up to float
    rounding, and on full observation tag sets C equals P(w | o) identically.
    """
    tags = np.asarray(tags)
    if tags.size != n_len:
        raise ValueError("tags must cover [N]")
    m = ch.obs_size
    uniform_factor = 0.5 ** int(np.count_nonzero(tags == UNIFORM_HALF))

    def times_conditionals(acc, joint, kind):
        """acc (rows, 2^N) times the conditionals of the indices tagged kind."""
        levels = pairwise(_prefix_levels(joint, n_len))
        for i, (level, marginal) in zip(range(n_len, 0, -1), levels):
            if tags[i - 1] == kind:
                ratio = _ratio_or_uniform(level.reshape(marginal.shape + (2,)), marginal[..., None])
                acc *= np.repeat(ratio.reshape(len(acc), -1), 1 << (n_len - i), axis=1)

    prior_ratio = np.ones((1, 1 << n_len))
    if np.any(tags == PRIOR_CONDITIONAL):
        times_conditionals(prior_ratio, block_joint_full(ch.prior(), n_len), PRIOR_CONDITIONAL)

    out = np.empty((m**n_len, 1 << n_len))
    for obs_ints, joint_v in block_joint_chunks(ch, n_len, chunk):
        acc = np.full(joint_v.shape, uniform_factor)
        acc *= prior_ratio
        times_conditionals(acc, joint_v, OBSERVATION_CONDITIONAL)
        out[obs_ints] = acc
    return out


def split_block_joint(table: np.ndarray, sizes: tuple, n_len: int) -> np.ndarray:
    """Blocklength product measure split into one block-int axis per variable.

    table is the per-symbol joint over the listed variables (axes in order),
    sizes their alphabet sizes. Returns an array of shape
    (sizes[0]^N, sizes[1]^N, ...) with symbol 0 the most significant digit of
    every axis: the N-fold tensor power of the table, its axes regrouped by
    variable.
    """
    sizes = tuple(int(s) for s in sizes)
    total = int(np.prod(sizes)) ** n_len
    if total > MAX_ENUM:
        raise ValueError(f"enumeration too large: {total} blocks")
    per_sym = np.asarray(table, dtype=np.float64).reshape(sizes)
    return block_product([per_sym] * n_len)


def block_product(tables: list) -> np.ndarray:
    """Product measure of consecutive symbol spans, one block-int axis per
    variable.

    Each table is a joint over the same variables (axes in order) of one
    symbol or, split as `split_block_joint` returns it, of several; the
    first table's digits are the most significant of every axis. Each step
    multiplies the product so far, every axis followed by a unit axis, by
    the next table, every axis preceded by one, so the grown digits land
    below the old ones in C order and no transpose is needed; the products
    run left to right, as the cells' values depend on that order.
    """
    out = tables[0]
    k = out.ndim
    for table in tables[1:]:
        grown = out[(slice(None), None) * k] * table[(None, slice(None)) * k]
        out = grown.reshape([a * b for a, b in zip(out.shape, table.shape)])
    return out

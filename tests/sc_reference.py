"""Test references for the SC engine.

ReferenceTree is an uncoded SC tree: PairStack's definition without its
codes or packed words. It holds (2, 2^lam, B) float pairs at every level and
recomputes every level at every consulted index, with no stamps: the
partial sums a g node reads are rebuilt each time from the decided bits,
by its own recursion. It shares only the pair ops (_fop, _gop, _normalize)
and the float root rule _root_pairs with the library, which fix the
arithmetic that PairStack's results must equal bit for bit. _root_pairs
works in place, so the tree hands it a copy of its root level; it decides
every root by the float rule, where the library gathers a packed or coded
root from a root table, so the tests compare the two routes.

reference_walk is the SC walk as a loop over single indices on
ReferenceTrees, the law each index's tag gives it, drawn or followed: the
drawn walk is sample_sequential's, one run at a time there, and the
followed one is chain_probability's, whose genie-aided pairs (pinned_pairs)
are the ones a per-index walk along the known block reads.

conditional_pair reads one index's exact conditional pair off the public
chain_probability, for tests that compare the engine with an oracle.
random_hard_table draws the tables on which the SC tree runs on supports.
"""
import numpy as np

from polarcomm.sc import (
    OBSERVATION_CONDITIONAL,
    PINNED,
    PRIOR_CONDITIONAL,
    UNIFORM_HALF,
    AnomalyLog,
    SamplingPolicy,
    _fop,
    _gop,
    _normalize,
    _root_pairs,
    chain_probability,
)


def conditional_pair(ch, obs, prefix, anomalies=None) -> np.ndarray:
    """The pair (P(V^i = 0 | prefix, obs), P(V^i = 1 | prefix, obs)) at the
    length-N observation block obs, i = len(prefix) < N; uniform where the
    prefix has probability zero, and then `anomalies`, when given, is bumped.

    It is the chain probability of the blocks prefix, b, 0, ... under the
    policy that pins the prefix, samples index i from the observation
    conditional and every later index uniformly, times 2^(N - i - 1): the
    pins contribute factors 1 and the uniform indices exact halves, so the
    pair comes out bit for bit as the walk forms it at index i.
    """
    obs = np.asarray(obs)
    n_len = obs.shape[-1]
    prefix = np.asarray(prefix, dtype=np.uint8).reshape(-1)
    i = prefix.size
    tags = np.full(n_len, UNIFORM_HALF, dtype=np.uint8)
    tags[:i] = PINNED
    tags[i] = OBSERVATION_CONDITIONAL
    blocks = np.zeros((2, n_len), dtype=np.uint8)
    blocks[:, :i] = prefix
    blocks[:, i] = (0, 1)
    log = AnomalyLog()
    chain = chain_probability(ch, obs, SamplingPolicy(tags, blocks[0]), blocks, anomalies=log)
    if anomalies is not None:
        anomalies.add(log.count // 2)  # both rows walk the same prefix, so each null counts twice
    return chain * 2.0 ** (n_len - i - 1)


def partial_sums(bits: np.ndarray) -> np.ndarray:
    """The partial sums of a (2^k, B) block of decided bits that a g node
    over them reads: (a, b) -> interleave(P(a) ^ P(b), P(b)) on its halves."""
    if bits.shape[0] == 1:
        return bits
    half = bits.shape[0] // 2
    first, second = partial_sums(bits[:half]), partial_sums(bits[half:])
    out = np.empty_like(bits)
    out[0::2] = first ^ second
    out[1::2] = second
    return out


class ReferenceTree:
    """Consult as PairStack, pair_at(phi, v), from (2, N, B) leaf pairs."""

    def __init__(self, leaves: np.ndarray):
        self.leaves = np.asarray(leaves)
        _, n_len, self.batch = self.leaves.shape
        self.n = n_len.bit_length() - 1

    def pair_at(self, phi: int, v: np.ndarray):
        level = self.leaves
        for lam in range(self.n - 1, -1, -1):
            out = np.empty((2, 1 << lam, self.batch), level.dtype)
            left, right = level[:, 0::2], level[:, 1::2]
            if phi >> lam & 1:
                start = phi & -(1 << lam)
                bits = np.asarray(v[start - (1 << lam) : start], dtype=np.uint8)
                _gop(left, right, partial_sums(bits), out)
            else:
                _fop(left, right, out)
            level = out
        root = level[:, 0, :].copy()
        if self.n == 0:
            _normalize(root)
        pair, null = _root_pairs(root)
        return pair.T, null


def reference_walk(ch, obs, tags, pinned, fd_mode, *, uniforms=None, v_block=None):
    """(v_block, chain, anomalies) of the walk over trial-last (N, B)
    inputs, obs, pinned bits, uniform blocks and v_block as
    sample_sequential and chain_probability lift theirs, one index at a
    time: the float tree's pair on OBSERVATION_CONDITIONAL and
    PRIOR_CONDITIONAL (under
    argmax the indicator of its more likely bit), 1/2 on UNIFORM_HALF and
    the pin on PINNED. Given the (private, shared) `uniforms` it draws
    u < q1 (the shared u on UNIFORM_HALF) and copies the bit of an
    indicator law; given `v_block` it follows it, multiplying the chain by
    q[bit], and returns chain None when drawing."""
    n_len, batch = obs.shape
    trees = {OBSERVATION_CONDITIONAL: ReferenceTree(np.take(ch.table, obs, axis=1)),
             PRIOR_CONDITIONAL: ReferenceTree(np.broadcast_to(
                 ch.table.sum(axis=1)[:, None, None], (2, n_len, batch)))}
    drawing = v_block is None
    v = np.zeros((n_len, batch), np.uint8) if drawing else v_block
    chain, count = np.ones(batch), 0
    for phi, tag in enumerate(tags.tolist()):
        point = None
        if tag in trees:
            pair, null = trees[tag].pair_at(phi, v)
            count += int(np.count_nonzero(null))
            q0, q1 = pair[:, 0], pair[:, 1]
            if tag == PRIOR_CONDITIONAL and fd_mode == "argmax":
                point = (q1 > q0).astype(np.uint8)
        elif tag == UNIFORM_HALF:
            q0 = q1 = 0.5
        else:
            point = pinned[phi]
        if drawing:
            u = uniforms[1] if tag == UNIFORM_HALF else uniforms[0]
            v[phi] = point if point is not None else u[phi] < q1
        else:
            chain *= np.where(v[phi] == 1, q1, q0) if point is None else v[phi] == point
    return v, None if drawing else chain, count


def random_hard_table(rng, size, tiny=0):
    """A (2, size) table whose columns hold one positive entry, two equal
    ones or none, with entries down to about 10^-tiny."""
    table = np.zeros((2, size))
    kind = rng.integers(0, 4, size)  # 0, 1: that row only; 2: both rows; 3: none
    value = rng.random(size) * 10.0 ** -rng.integers(0, tiny + 1, size)
    table[0] = np.where((kind == 0) | (kind == 2), value, 0.0)
    table[1] = np.where((kind == 1) | (kind == 2), value, 0.0)
    table[:, 0] = 1.0  # keep some mass, in an erasure column
    return table / table.sum()

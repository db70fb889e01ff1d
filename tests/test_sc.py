"""SC engine tests against a test-local brute-force oracle.

The oracle here is written independently of the library's enumeration
helpers: it builds the block joint with an explicit Kronecker-product
transform matrix and plain loops over integer-encoded blocks.
"""
import functools
import importlib.util
import itertools
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polarcomm
from polarcomm import sc
from polarcomm.models import AndModelParams, build_and_chain
from polarcomm.sc import (
    OBSERVATION_CONDITIONAL,
    PINNED,
    PRIOR_CONDITIONAL,
    UNIFORM_HALF,
    AnomalyLog,
    FunctionalStack,
    PairStack,
    SamplingPolicy,
    CODE_LIMIT,
    SymbolChannel,
    _DeferredBlock,
    _fop,
    _gop,
    _leaf_pairs,
    _lift,
    _cell_index,
    _partial_sums,
    _uniform_block,
    _union_tables,
    chain_probability,
    mixed_radix,
    pinned_pairs,
    sample_sequential,
)
from polarcomm.transform import apply_transform, bit_reversal_perm

from sc_reference import ReferenceTree, conditional_pair, random_hard_table, reference_walk

DATA = Path(__file__).parent / "data"
TOOLS = Path(__file__).resolve().parents[1] / "tools"


def naive_matrix(n):
    big_f = np.array([[1]], dtype=np.uint8)
    for _ in range(n):
        big_f = np.kron(np.array([[1, 0], [1, 1]], dtype=np.uint8), big_f)
    rev = np.zeros((1 << n, 1 << n), dtype=np.uint8)
    for i, j in enumerate(bit_reversal_perm(n)):
        rev[i, j] = 1
    return (rev @ big_f) % 2


def oracle_joint_v(table, obs):
    """P(v-block, obs) for one observation block, by explicit enumeration."""
    n_len = len(obs)
    matrix = naive_matrix(n_len.bit_length() - 1)
    out = np.zeros(1 << n_len)
    for u_int in range(1 << n_len):
        u_bits = np.array([(u_int >> (n_len - 1 - k)) & 1 for k in range(n_len)])
        v_bits = (u_bits @ matrix) % 2
        v_int = int("".join(map(str, v_bits)), 2)
        out[v_int] += np.prod([table[u_bits[k], obs[k]] for k in range(n_len)])
    return out


def and_round1_channel(p=0.5, q=0.5):
    m = build_and_chain(AndModelParams(p, q, 2))
    return SymbolChannel.from_joint(m.joint, "u1", ("x",))


def and_round2_channel(p=0.5, q=0.5):
    m = build_and_chain(AndModelParams(p, q, 2))
    return SymbolChannel.from_joint(m.joint, "u2", ("y", "u1"))


def test_base_case_n1():
    ch = and_round1_channel(0.3, 0.6)
    for x in (0, 1):
        pair = conditional_pair(ch, np.array([x]), [])
        cond = ch.table[:, x] / ch.table[:, x].sum()
        assert np.abs(pair - cond).max() < 1e-15


def test_sc_conditional_matches_oracle_all_prefixes_n4():
    """Every prefix and observation of the round-2 AND slice at N=4."""
    ch = and_round2_channel(0.4, 0.7)
    n_len = 4
    worst = 0.0
    for obs in itertools.product(range(ch.obs_size), repeat=n_len):
        obs = np.array(obs)
        joint = oracle_joint_v(ch.table, obs)
        for i in range(n_len):
            level = joint.reshape(1 << (i + 1), -1).sum(axis=1).reshape(-1, 2)
            for prefix_int in range(1 << i):
                total = level[prefix_int].sum()
                if total <= 0:
                    continue
                prefix = [(prefix_int >> (i - 1 - k)) & 1 for k in range(i)]
                got = conditional_pair(ch, obs, prefix)
                worst = max(worst, np.abs(got - level[prefix_int] / total).max())
    assert worst < 1e-10


def test_trivial_observation_equals_prior_chain():
    """A constant observation alphabet reproduces the prior-only chain, N=8."""
    rng = np.random.default_rng(0)
    table = rng.random((2, 3))
    table /= table.sum()
    ch = SymbolChannel(table)
    prior = ch.prior()
    n_len = 8
    v = rng.integers(0, 2, n_len).astype(np.uint8)
    for i in range(n_len):
        via_prior = conditional_pair(prior, np.zeros(n_len, dtype=int), v[:i])
        # channel whose observation carries no information about u
        flat = SymbolChannel(np.outer(table.sum(axis=1), [0.2, 0.3, 0.5]))
        via_flat = conditional_pair(flat, rng.integers(0, 3, n_len), v[:i])
        assert np.abs(via_prior - via_flat).max() < 1e-12


def test_sample_all_pinned_returns_pins():
    ch = and_round1_channel()
    rng = np.random.default_rng(1)
    bits = rng.integers(0, 2, 8).astype(np.uint8)
    policy = SamplingPolicy(np.full(bits.size, PINNED), bits)
    out = sample_sequential(ch, rng.integers(0, 2, 8), policy, rng)
    assert np.array_equal(out, bits)


def test_sample_reproducible_given_seed():
    ch = and_round2_channel()
    policy = SamplingPolicy(
        np.array([UNIFORM_HALF, PRIOR_CONDITIONAL] + [OBSERVATION_CONDITIONAL] * 6,
                 dtype=np.uint8)
    )
    obs = np.random.default_rng(2).integers(0, ch.obs_size, 8)
    one = sample_sequential(ch, obs, policy, np.random.default_rng(33),
                            shared_rng=np.random.default_rng(44))
    two = sample_sequential(ch, obs, policy, np.random.default_rng(33),
                            shared_rng=np.random.default_rng(44))
    assert np.array_equal(one, two)


def test_sample_law_matches_conditional_n2():
    """Empirical law of all-observation sampling vs the exact block law."""
    ch = and_round1_channel(0.3, 0.6)
    n_len, trials = 2, 100_000
    obs = np.array([1, 0])
    joint = oracle_joint_v(ch.table, obs)
    law = joint / joint.sum()
    policy = SamplingPolicy(np.full(n_len, OBSERVATION_CONDITIONAL))
    out = sample_sequential(ch, np.broadcast_to(obs, (trials, n_len)), policy,
                            np.random.default_rng(5))
    counts = np.bincount(out[:, 0] * 2 + out[:, 1], minlength=4)
    for v_int in range(4):
        sigma = np.sqrt(max(law[v_int] * (1 - law[v_int]), 1e-12) * trials)
        assert abs(counts[v_int] - trials * law[v_int]) <= 3 * sigma + 3


def test_chain_probability_examples():
    ch = and_round1_channel()
    n_len = 4
    bits = np.array([1, 0, 1, 1], dtype=np.uint8)
    obs = np.array([0, 1, 1, 0])
    all_pinned = SamplingPolicy(np.full(n_len, PINNED), bits)
    assert chain_probability(ch, obs, all_pinned, bits) == 1.0
    mismatch = bits.copy()
    mismatch[2] ^= 1
    assert chain_probability(ch, obs, all_pinned, mismatch) == 0.0
    uniform = SamplingPolicy(np.full(n_len, UNIFORM_HALF, dtype=np.uint8))
    assert chain_probability(ch, obs, uniform, bits) == 0.5**n_len


def test_chain_probability_sums_to_one():
    """Sum over all v-blocks equals 1 for every policy mix and observation."""
    ch = and_round2_channel(0.35, 0.55)
    n_len = 4
    policies = [
        SamplingPolicy(np.full(n_len, OBSERVATION_CONDITIONAL)),
        SamplingPolicy(np.array([UNIFORM_HALF, PRIOR_CONDITIONAL,
                                 OBSERVATION_CONDITIONAL, PRIOR_CONDITIONAL],
                                dtype=np.uint8)),
        SamplingPolicy(np.full(n_len, PRIOR_CONDITIONAL, dtype=np.uint8)),
    ]
    blocks = np.array(list(itertools.product((0, 1), repeat=n_len)), dtype=np.uint8)
    for policy in policies:
        for obs in itertools.product(range(ch.obs_size), repeat=n_len):
            total = chain_probability(
                ch, np.broadcast_to(np.array(obs), (len(blocks), n_len)), policy, blocks
            ).sum()
            assert abs(total - 1.0) < 1e-10


def test_chain_rule_against_oracle():
    """prod_i conditional_pair equals the exact block conditional, N=8."""
    rng = np.random.default_rng(7)
    table = rng.random((2, 2))
    table /= table.sum()
    ch = SymbolChannel(table)
    n_len = 8
    for _ in range(5):
        obs = rng.integers(0, 2, n_len)
        joint = oracle_joint_v(ch.table, obs)
        v = rng.integers(0, 2, n_len).astype(np.uint8)
        v_int = int("".join(map(str, v)), 2)
        want = joint[v_int] / joint.sum()
        got = 1.0
        for i in range(n_len):
            got *= conditional_pair(ch, obs, v[:i])[v[i]]
        assert abs(got - want) < 1e-9


def test_pairs_are_valid_pmfs():
    rng = np.random.default_rng(8)
    table = rng.random((2, 4))
    table /= table.sum()
    ch = SymbolChannel(table)
    for _ in range(20):
        obs = rng.integers(0, 4, 8)
        prefix = rng.integers(0, 2, rng.integers(0, 8)).astype(np.uint8)
        pair = conditional_pair(ch, obs, prefix)
        assert pair.min() >= -1e-15
        assert abs(pair.sum() - 1.0) < 1e-10


def test_null_conditioning_returns_uniform_and_flags():
    """Pinned bits inconsistent with a deterministic slice trip the fallback."""
    ch = and_round1_channel()  # u1 = x exactly
    n_len = 4
    obs = np.zeros(n_len, dtype=int)  # x-block all zero forces v-block all zero
    log = AnomalyLog()
    pair = conditional_pair(ch, obs, [1], anomalies=log)
    assert log.count == 1
    assert np.array_equal(pair, [0.5, 0.5])


def test_degradation_monotonicity_exact():
    """Adding an observation never increases any index's exact Z (N <= 4)."""
    from polarcomm.reliability import profile_exact

    rng = np.random.default_rng(9)
    for _ in range(5):
        table = rng.random((2, 3))
        table /= table.sum()
        ch = SymbolChannel(table)
        with_obs = profile_exact(ch, 4).z
        without = profile_exact(ch.prior(), 4).z
        assert np.all(with_obs <= without + 1e-12)


def test_fd_argmax_mode():
    ch = and_round2_channel()
    policy = SamplingPolicy(np.full(4, PRIOR_CONDITIONAL, dtype=np.uint8))
    rng = np.random.default_rng(10)
    one = sample_sequential(ch, None, policy, rng, fd_mode="argmax")
    two = sample_sequential(ch, None, policy, np.random.default_rng(99), fd_mode="argmax")
    assert np.array_equal(one, two)  # argmax ignores the stream


def test_policy_validation():
    with pytest.raises(ValueError):
        SamplingPolicy(np.array([7], dtype=np.uint8))
    with pytest.raises(ValueError):
        SamplingPolicy(np.array([PINNED], dtype=np.uint8))  # pins missing
    with pytest.raises(ValueError):
        SamplingPolicy(np.array([[UNIFORM_HALF, PINNED]]), np.array([0, 1]))  # tags not 1-D


def test_policy_checks_tags_and_pins_before_the_cast():
    """A tag or a pinned bit out of range is rejected, not wrapped or
    truncated into range by the uint8 cast: tag 256 would read as
    UNIFORM_HALF, pin 2 would reach the v-block and pin 3.7 would become 3.
    Positions that are not PINNED may hold anything; uint8 pins are kept
    as given."""
    tags = np.array([UNIFORM_HALF, PINNED, OBSERVATION_CONDITIONAL, PINNED])
    for bad in (256, -1, 4, 2.5):
        with pytest.raises(ValueError, match="unknown sampling tag"):
            SamplingPolicy(np.array([OBSERVATION_CONDITIONAL, bad]))
    for bad in (2, 3.7, -1, 255, np.nan):
        for pins in (np.array([0.0, bad, 0.0, 1.0]), np.array([[0, 1, 0, 1], [0, 1, 0, bad]])):
            with pytest.raises(ValueError, match="pinned bits must be 0 or 1"):
                SamplingPolicy(tags, pins)
    pins = np.array([[7, 1, 9, 0], [300, 0, -3, 1]])
    policy = SamplingPolicy(tags, pins)
    assert policy.tags.dtype == np.uint8 and policy.pinned.dtype == np.uint8
    assert np.array_equal(policy.pinned[:, [1, 3]], [[1, 0], [0, 1]])
    pins = np.array([[0, 1, 5, 0]], dtype=np.uint8)
    assert SamplingPolicy(tags, pins).pinned is pins
    ch = and_round1_channel()
    v = sample_sequential(ch, np.array([[0, 1, 1, 0]]), SamplingPolicy(tags, pins),
                          np.random.default_rng(3))
    assert np.array_equal(v[:, [1, 3]], [[1, 0]]) and set(v.ravel().tolist()) <= {0, 1}


def _check_walk_golden(name):
    golden = json.loads((DATA / name).read_text())
    ch = and_round2_channel(0.4, 0.7)
    tags = np.array(golden["tags"], dtype=np.uint8)
    assert set(tags.tolist()) == {UNIFORM_HALF, PRIOR_CONDITIONAL, OBSERVATION_CONDITIONAL, PINNED}
    obs = np.array(golden["obs"])
    pinned = np.array(golden["pinned"], dtype=np.uint8)
    blocks = np.array(golden["blocks"], dtype=np.uint8)
    private_seed, shared_seed = golden["seeds"]
    for fd in ("sample", "argmax"):
        for shape, sl in (("batched", slice(None)), ("single", 0)):
            want = golden[f"{fd}/{shape}"]
            policy = SamplingPolicy(tags, pinned[sl])
            log = AnomalyLog()
            v = sample_sequential(ch, obs[sl], policy, np.random.default_rng(private_seed),
                                  shared_rng=np.random.default_rng(shared_seed),
                                  fd_mode=fd, anomalies=log)
            assert v.tolist() == want["v"]
            assert log.count == want["anomalies_sample"]
            chain = chain_probability(ch, obs[sl], policy, v, fd_mode=fd, anomalies=log)
            assert log.count == want["anomalies_sample"] + want["anomalies_chain"]
            other = chain_probability(ch, obs[sl], policy, blocks[sl], fd_mode=fd)
            np.testing.assert_allclose(chain, want["chain"], rtol=1e-12, atol=0)
            np.testing.assert_allclose(other, want["chain_of_blocks"], rtol=1e-12, atol=0)


def test_walk_golden_values():
    """sample_sequential and chain_probability on a policy with all four tags
    and pins that contradict the slice, under both F_d modes, batched and
    (N,): blocks, chain probabilities and anomaly counts as recorded."""
    _check_walk_golden("golden_sc_walk.json")


def test_walk_golden_values_n64():
    """The same at N = 64 with a receiver-like policy: 40 PINNED, 18
    OBSERVATION_CONDITIONAL, 4 PRIOR_CONDITIONAL and 2 UNIFORM_HALF indices,
    so most indices consult neither stack. The pins are v = u G_N of blocks
    drawn with the observations; rows 3..5 each have one pin flipped."""
    _check_walk_golden("golden_sc_walk_n64.json")


def test_stack_pairs_independent_of_consulted_set():
    """A stack consulted only at a sparse set of indices returns the same
    pairs and null masks there as one consulted at every index."""
    rng = np.random.default_rng(12)
    n_len, batch = 64, 5
    # symbols 0 and 1 fix the bit, so random decided bits reach null conditionings
    ch = SymbolChannel(np.array([[0.3, 0.0, 0.2], [0.0, 0.4, 0.1]]))
    leaves = _leaf_pairs(ch, rng.integers(0, ch.obs_size, (n_len, batch)))
    bits = rng.integers(0, 2, (n_len, batch)).astype(np.uint8)
    sparse = {0, 37, n_len - 1} | set(np.flatnonzero(rng.random(n_len) < 0.1).tolist())
    dense_stack, sparse_stack = PairStack(leaves), PairStack(leaves)
    nulls = 0
    for phi in range(n_len):
        pair, null = dense_stack.pair_at(phi, bits)
        if phi in sparse:
            got, got_null = sparse_stack.pair_at(phi, bits)
            assert np.array_equal(got, pair) and np.array_equal(got_null, null)
            nulls += int(null.sum())
    assert nulls > 0


def test_chain_probability_rejects_non_binary_blocks():
    ch = and_round1_channel()
    policy = SamplingPolicy(np.full(4, OBSERVATION_CONDITIONAL))
    obs = np.array([0, 1, 1, 0])
    with pytest.raises(ValueError):
        chain_probability(ch, obs, policy, np.array([0, 2, 1, 0]))
    with pytest.raises(ValueError):
        chain_probability(ch, np.broadcast_to(obs, (2, 4)), policy,
                          np.array([[0, 1, 1, 0], [1, 0, 0, 2]]))


def float_leaves(ch, obs):
    """(2, N, B) float joint pairs at (B, N) observations: the uncoded float
    tree's leaves whether or not the channel is hard."""
    return np.take(ch.table, obs.T, axis=1)


def random_functional_table(rng, size, tiny=0):
    """A (2, size) table with at most one positive entry per column, some
    columns all zero, and entries down to about 10^-tiny."""
    table = np.zeros((2, size))
    rows = rng.integers(0, 2, size)
    table[rows, np.arange(size)] = rng.random(size) * 10.0 ** -rng.integers(0, tiny + 1, size)
    table[:, rng.random(size) < 0.25] = 0.0
    table[rows[0], 0] = 1.0  # keep some mass
    return table / table.sum()


def test_functional_classification():
    assert SymbolChannel(np.array([[0.5, 0.0], [0.0, 0.5]])).functional
    assert SymbolChannel(np.array([[0.5, 0.0, 0.0], [0.0, 0.0, 0.5]])).functional  # zero column
    assert SymbolChannel(np.array([[1.0], [0.0]])).functional  # degenerate prior
    assert not SymbolChannel(np.array([[0.5], [0.5]])).functional
    assert not SymbolChannel(np.array([[0.5, 0.0], [0.25, 0.25]])).functional
    assert and_round1_channel().functional and not and_round1_channel().prior().functional
    # 1e-170 squared underflows to 0, so a product of two leaves could too
    assert not SymbolChannel(np.array([[1.0, 0.0], [0.0, 1e-170]])).functional
    assert SymbolChannel(np.array([[1.0, 0.0], [0.0, 1e-150]])).functional


def test_hard_classification():
    """Hard: at most one positive entry per column, or two exactly equal ones,
    with no square underflowing. Every functional channel is hard."""
    assert SymbolChannel(np.array([[0.5], [0.5]])).hard  # uniform prior
    assert SymbolChannel(np.array([[0.5, 0.0, 0.0, 0.25], [0.0, 0.0, 0.0, 0.25]])).hard
    assert SymbolChannel(np.array([[0.5, 0.0], [0.0, 0.5]])).hard
    assert and_round1_channel().hard and not and_round2_channel().prior().hard
    assert not SymbolChannel(np.array([[0.75], [0.25]])).hard
    assert not SymbolChannel(np.array([[0.3, 0.0, 0.2], [0.0, 0.4, 0.1]])).hard
    # entries one ulp apart are not equal
    a, b = 0.25, np.nextafter(0.25, 1.0)
    assert not SymbolChannel(np.array([[1.0 - a - b, a], [0.0, b]])).hard
    assert SymbolChannel(np.array([[1.0 - a - a, a], [0.0, a]])).hard
    # 1e-160 squared is subnormal but positive; 1e-170 squared is 0
    assert SymbolChannel(np.array([[0.5, 0.0, 1e-160], [0.0, 0.5, 1e-160]])).hard
    assert not SymbolChannel(np.array([[0.5, 0.0, 1e-170], [0.0, 0.5, 1e-170]])).hard
    for table in ([[0.5, 0.0], [0.0, 0.5]], [[1.0], [0.0]], [[0.5, 0.0, 0.0], [0.0, 0.0, 0.5]]):
        ch = SymbolChannel(np.array(table))
        assert ch.functional and ch.hard


def draw_supported_bits(rng, ch, obs):
    """u bits, one from the support of each observed column (0 where empty)."""
    support = ch.table > 0
    one = support[1][obs] & (~support[0][obs] | (rng.random(obs.shape) < 0.5))
    return one.astype(np.uint8)


# batch sizes on both sides of a 64-trial word, up to three words
BATCHES = st.sampled_from([1, 2, 3, 4, 5, 63, 64, 65, 130])


def assert_packed_levels(stack, batch):
    """The packed rule: every level of a support tree, the leaves included,
    is (2, 2^lam, ceil(B/64)) uint64 words, and so are the partial sums
    (2^lam, ceil(B/64)) that a level-lam g step reads; there are no codes
    and no union tables."""
    words = -(-batch // 64)
    assert len(stack.tables) == 1 and stack.tables[0].dtype == bool
    for lam, level in enumerate(stack.levels):
        assert level.dtype == np.uint64 and level.shape == (2, 1 << lam, words)
    for lam in range(stack.n):
        low = _partial_sums(stack.tables, np.zeros((1 << lam, batch), np.uint8), lam)[-1]
        assert low.dtype == np.uint64 and low.shape == (1 << lam, words)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 6), batch=BATCHES,
       size=st.integers(1, 5), flip=st.sampled_from([0.0, 0.02, 0.2]),
       tiny=st.sampled_from([0, 150]))
def test_support_tree_equals_float_tree(seed, n, batch, size, flip, tiny):
    """On a hard channel the packed support tree gives the uncoded float
    tree's pairs, pair for pair and null for null, at random consulted
    indices, given drawn blocks with random flips as the decided bits."""
    rng = np.random.default_rng(seed)
    n_len = 1 << n
    ch = SymbolChannel(random_hard_table(rng, size, tiny))
    assert ch.hard
    obs = rng.integers(0, size, (batch, n_len))
    fast, ref = PairStack(_leaf_pairs(ch, obs.T)), ReferenceTree(float_leaves(ch, obs))
    assert_packed_levels(fast, batch)
    v = apply_transform(draw_supported_bits(rng, ch, obs)).T
    decided = v ^ (rng.random((n_len, batch)) < flip)
    for phi in range(n_len):
        if rng.random() < 0.7:
            got, got_null = fast.pair_at(phi, decided)
            want, want_null = ref.pair_at(phi, decided)
            assert np.array_equal(got, want) and np.array_equal(got_null, want_null)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 6), batch=st.integers(1, 5),
       size=st.integers(1, 5), flip=st.sampled_from([0.0, 0.02, 0.2]),
       tiny=st.sampled_from([0, 150]))
def test_functional_stack_equals_pair_stack(seed, n, batch, size, flip, tiny):
    """Pair for pair and null for null, on random functional tables with
    zero-mass columns, at random consulted indices, given decided bits that
    leave v* now and then."""
    rng = np.random.default_rng(seed)
    n_len = 1 << n
    ch = SymbolChannel(random_functional_table(rng, size, tiny))
    assert ch.functional
    obs = rng.integers(0, size, (batch, n_len))
    fast, ref = FunctionalStack(ch, obs.T), ReferenceTree(float_leaves(ch, obs))
    v_star = fast.v_star.copy()
    decided = v_star ^ (rng.random((n_len, batch)) < flip)
    for phi in range(n_len):
        if rng.random() < 0.7:
            got, got_null = functional_pair(fast, phi, decided)
            want, want_null = ref.pair_at(phi, decided)
            assert np.array_equal(got, want) and np.array_equal(got_null, want_null)


def functional_pair(stack, phi, v):
    """The (B, 2) root pair and null mask a FunctionalStack stands for at
    phi: the indicator of v*[phi] on alive rows, uniform on the rest."""
    null = ~stack.alive_at(phi, v)
    one = stack.v_star[phi].astype(float)
    pair = np.stack((1.0 - one, one), axis=1)
    pair[null] = 0.5
    return pair, null


def _walk(ch, obs, policy, fd, seeds=(7, 8)):
    log = AnomalyLog()
    v = sample_sequential(ch, obs, policy, np.random.default_rng(seeds[0]),
                          shared_rng=np.random.default_rng(seeds[1]), fd_mode=fd, anomalies=log)
    chain = chain_probability(ch, obs, policy, v, fd_mode=fd, anomalies=log)
    return v, chain, log.count


def _check_walks_equal_float_tree(ch, obs, pinned, monkeypatch):
    """sample_sequential, chain_probability (of the drawn blocks and of
    `pinned`) and anomaly counts equal those of the float-tree walk, run with
    SymbolChannel.hard (and so .functional) switched off, under all four
    tags, batched and (N,). Returns the walks' total anomaly count."""
    rng = np.random.default_rng(15)
    batch, n_len = obs.shape
    pins = pinned ^ (rng.random((batch, n_len)) < 0.03).astype(np.uint8)
    tags = rng.integers(0, 4, n_len).astype(np.uint8)
    policies = [SamplingPolicy(tags, pins), SamplingPolicy(tags, pins[5]),
                SamplingPolicy(np.full(n_len, OBSERVATION_CONDITIONAL))]

    def walks():
        return [(_walk(ch, ob, policy, fd), chain_probability(ch, ob, policy, star, fd_mode=fd))
                for policy in policies for ob, star in ((obs, pinned), (obs[5], pinned[5]))
                for fd in ("sample", "argmax")]

    fast = walks()
    monkeypatch.setattr(SymbolChannel, "hard", property(lambda self: False))
    assert not ch.functional
    ref = walks()
    for ((v, chain, count), chain_star), ((v_r, chain_r, count_r), chain_star_r) in zip(fast, ref):
        assert np.array_equal(v, v_r) and count == count_r
        assert np.array_equal(chain, chain_r) and np.array_equal(chain_star, chain_star_r)
    return sum(count for (_, _, count), _ in fast)


def _observations(rng, ch, batch, n_len):
    """Observations of symbols with mass; rows 0..2 observe a zero-mass one."""
    mass = ch.table.sum(axis=0)
    obs = rng.choice(np.flatnonzero(mass > 0), (batch, n_len))
    if np.any(mass == 0):
        obs[:3, rng.integers(0, n_len, 3)] = np.flatnonzero(mass == 0)[0]
    return obs


@pytest.mark.parametrize("table", [
    [[0.5, 0.0, 0.2, 0.0], [0.0, 0.3, 0.0, 0.0]],  # a zero-mass symbol
    [[0.6, 0.4], [0.0, 0.0]],  # degenerate prior
    [[0.0], [1.0]],  # observation-free
    [[0.3, 0.0], [0.0, 0.7]],
])
def test_functional_walk_equals_pair_stack_walk(table, monkeypatch):
    """The FunctionalStack walk equals the float-tree walk under pins and
    F_d draws that leave v* mid-block."""
    rng = np.random.default_rng(14)
    ch = SymbolChannel(np.array(table))
    obs = _observations(rng, ch, 12, 32)
    assert _check_walks_equal_float_tree(ch, obs, FunctionalStack(ch, obs.T).v_star.T,
                                         monkeypatch) > 0


@pytest.mark.parametrize("table", [
    [[0.5], [0.5]],  # uniform prior
    [[0.5, 0.0, 0.0, 0.25], [0.0, 0.0, 0.0, 0.25]],  # erasure and zero-mass symbols
    [[0.5, 0.0, 1e-160], [0.0, 0.5, 1e-160]],  # subnormal squares
    [[0.2, 0.3, 0.0], [0.2, 0.0, 0.3]],
])
def test_erasure_walk_equals_float_tree_walk(table, monkeypatch):
    """The support-tree walk on an erasure source equals the float-tree walk
    under pins and draws that contradict the drawn block."""
    rng = np.random.default_rng(16)
    ch = SymbolChannel(np.array(table))
    assert ch.hard and not ch.functional
    obs = _observations(rng, ch, 12, 32)
    if ch.obs_size > 2:  # row 3 observes the last symbol at every other index
        obs[3, ::2] = ch.obs_size - 1
    drawn = apply_transform(draw_supported_bits(rng, ch, obs))
    anomalies = _check_walks_equal_float_tree(ch, obs, drawn, monkeypatch)
    assert anomalies > 0 or ch.obs_size == 1  # every block of the uniform prior has mass


def _stream(kind: str, seed: int) -> np.random.Generator:
    """A PCG64 or MT19937 generator, or ("buffered") a PCG64 one holding a
    buffered 32-bit half."""
    gen = np.random.Generator((np.random.MT19937 if kind == "MT19937" else np.random.PCG64)(seed))
    if kind == "buffered":
        gen.integers(0, 10, dtype=np.int32)
    return gen


@pytest.mark.parametrize("stream", ["PCG64", "MT19937", "buffered"])
@pytest.mark.parametrize("batch, n_len", [(1, 8), (64, 8), (130, 8), (200000, 4)])
def test_deferred_block_is_one_transposed_draw(stream, batch, n_len):
    """A read _DeferredBlock holds rng.random((B, N)).T of a fresh stream
    and leaves its stream where that draw leaves it: for PCG64, MT19937 and
    a PCG64 stream holding a buffered 32-bit half, at B on both sides of a
    64-trial word and at oracle-n8's 200000 trials of N = 4."""
    rng, ref = _stream(stream, 3), _stream(stream, 3)
    block = _DeferredBlock(rng, batch, n_len)[:]
    want = ref.random((batch, n_len)).T
    assert block.shape == (n_len, batch) and np.array_equal(block, want)
    assert rng.integers(0, 1 << 30, dtype=np.int32) == ref.integers(0, 1 << 30, dtype=np.int32)
    assert rng.random() == ref.random()


@pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.MT19937])
def test_unread_private_block_is_skipped(bit_generator):
    """A policy that reads no private uniform (PINNED, UNIFORM_HALF and, under
    argmax, PRIOR_CONDITIONAL) draws its UNIFORM_HALF bits from the second
    (B, N) block of rng when no shared stream is given, whatever rng's
    first block holds, and leaves rng where two blocks leave it."""
    n_len, batch = 16, 5
    ch = SymbolChannel(np.array([[0.5, 0.1], [0.15, 0.25]]))
    tags = np.tile(np.array([PINNED, UNIFORM_HALF, PRIOR_CONDITIONAL, PINNED], np.uint8), 4)
    pins = np.random.default_rng(1).integers(0, 2, (batch, n_len)).astype(np.uint8)
    policy = SamplingPolicy(tags, pins)
    rng = np.random.Generator(bit_generator(5))
    v = sample_sequential(ch, None, policy, rng, fd_mode="argmax")
    ref = np.random.Generator(bit_generator(5))
    ref.random((batch, n_len))
    shared = ref.random((batch, n_len))
    assert rng.random() == ref.random()
    uniform = tags == UNIFORM_HALF
    assert np.array_equal(v[:, uniform], (shared[:, uniform] < 0.5).astype(np.uint8))
    assert np.array_equal(v[:, tags == PINNED], pins[:, tags == PINNED])
    second = np.random.Generator(bit_generator(5))
    second.random((batch, n_len))
    other = sample_sequential(ch, None, policy, np.random.default_rng(99), shared_rng=second,
                              fd_mode="argmax")
    assert np.array_equal(v, other)


def _spy(monkeypatch, name) -> list:
    """Record the arguments of every call of sc.<name> into the list."""
    calls, real = [], getattr(sc, name)

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(sc, name, spy)
    return calls


@pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.MT19937])
def test_deferred_block_is_the_block_it_skips(bit_generator, monkeypatch):
    """_DeferredBlock moves rng one (B, N) block on at once, and when read
    holds the doubles _uniform_block would have drawn there, also from a
    stream holding a buffered 32-bit half, whose next 32-bit draw stays the
    same. Only a PCG64 stream holding no buffered half moves without a draw:
    its block is drawn when first read, and once."""
    calls = _spy(monkeypatch, "_uniform_block")
    for buffered in (False, True):
        rng, ref = np.random.Generator(bit_generator(4)), np.random.Generator(bit_generator(4))
        if buffered:
            for gen in (rng, ref):
                gen.integers(0, 10, dtype=np.int32)
        calls.clear()
        deferred = _DeferredBlock(rng, 130, 8)
        lazy = bit_generator is np.random.PCG64 and not buffered
        assert len(calls) == (0 if lazy else 1)
        want = sc._uniform_block(ref, 130, 8)
        assert rng.integers(0, 1 << 30, dtype=np.int32) == ref.integers(0, 1 << 30, dtype=np.int32)
        assert rng.random() == ref.random()
        calls.clear()
        assert np.array_equal(deferred[3], want[3]) and np.array_equal(deferred[:], want)
        assert len(calls) == (1 if lazy else 0)


@pytest.mark.parametrize("stream", ["PCG64", "MT19937", "buffered"])
def test_each_stream_moves_one_block_whatever_the_tags(stream, monkeypatch):
    """sample_sequential builds one _DeferredBlock per stream, and each
    stream ends one (B, N) block further on whether its block is read or
    not: under a policy of PINNED indices only, of UNIFORM_HALF only, of
    observation draws only and of all four tags, with a shared stream and
    without one (then both blocks come from rng, private first). A PCG64
    stream holding no buffered 32-bit half draws only the blocks a run
    reads."""
    n_len, batch = 16, 70
    ch = SymbolChannel(np.array([[0.3, 0.1, 0.05, 0.05], [0.1, 0.2, 0.1, 0.1]]))
    obs = np.random.default_rng(2).integers(0, ch.obs_size, (batch, n_len))
    pins = np.random.default_rng(3).integers(0, 2, (batch, n_len))
    mixed = np.tile(np.arange(4, dtype=np.uint8), n_len // 4)
    layouts = {"pinned": np.full(n_len, PINNED), "uniform": np.full(n_len, UNIFORM_HALF),
               "observed": np.full(n_len, OBSERVATION_CONDITIONAL), "mixed": mixed}
    reads = {"pinned": 0, "uniform": 1, "observed": 1, "mixed": 2}

    def after(gen):
        return gen.integers(0, 1 << 30, dtype=np.int32), gen.random()

    calls = _spy(monkeypatch, "_uniform_block")
    deferred = _spy(monkeypatch, "_DeferredBlock")
    for name, tags in layouts.items():
        for shared in (True, False):
            calls.clear()
            deferred.clear()
            rng, other = _stream(stream, 5), _stream(stream, 6) if shared else None
            sample_sequential(ch, obs, SamplingPolicy(tags, pins), rng, shared_rng=other)
            assert len(deferred) == 2
            ref, ref_other = _stream(stream, 5), _stream(stream, 6)
            ref.random((batch, n_len))
            (ref_other if shared else ref).random((batch, n_len))
            assert after(rng) == after(ref)
            if shared:
                assert after(other) == after(ref_other)
            assert len(calls) == (reads[name] if stream == "PCG64" else 2)


def test_functional_draws_read_no_private_block(monkeypatch):
    """Draws that all copy a FunctionalStack's v* on live trials draw no
    uniform block, and still leave the stream where a (B, N) draw leaves
    it; once trials die, on a zero-mass symbol or off v* after a shared
    draw, the private block is drawn when first read. Either way the bits
    and anomaly counts equal the float-tree walk's."""
    ch = SymbolChannel(np.array([[0.5, 0.0, 0.2, 0.0], [0.0, 0.3, 0.0, 0.0]]))
    n_len, batch = 32, 70
    rng = np.random.default_rng(17)
    obs = rng.choice([0, 1, 2], (batch, n_len))
    v_star = FunctionalStack(ch, obs.T).v_star.T
    dead = obs.copy()
    dead[4, 9] = 3  # a zero-mass symbol
    mixed = np.full(n_len, OBSERVATION_CONDITIONAL, np.uint8)
    mixed[::5] = UNIFORM_HALF
    calls = _spy(monkeypatch, "_uniform_block")

    def walks():
        out = []
        for ob, tags in ((obs, np.full(n_len, OBSERVATION_CONDITIONAL)), (dead, mixed)):
            calls.clear()
            log, stream = AnomalyLog(), np.random.default_rng(5)
            v = sample_sequential(ch, ob, SamplingPolicy(tags), stream,
                                  shared_rng=np.random.default_rng(6), anomalies=log)
            out.append((v, log.count, stream.random(), len(calls)))
        return out

    fast = walks()
    ref_stream = np.random.default_rng(5)
    ref_stream.random((batch, n_len))
    (v, count, after, draws), (_, dead_count, _, dead_draws) = fast
    assert np.array_equal(v, v_star) and count == 0 and after == ref_stream.random()
    assert draws == 0  # no null trial reads the private block, no UNIFORM_HALF the shared one
    assert dead_count > 0 and dead_draws == 2  # shared, then the private read
    monkeypatch.setattr(SymbolChannel, "hard", property(lambda self: False))
    for (v, count, after, _), (v_r, count_r, after_r, _) in zip(fast, walks()):
        assert np.array_equal(v, v_r) and count == count_r and after == after_r


def test_union_table_sizes():
    """|U_lam| = 3 |U_(lam+1)|^2 while it is at most 2^16, up to the root;
    entry l K + r is f and K^2 + 2 (l K + r) + s is g on partial sum s."""
    for k0, sizes in ((1, [1, 3, 27, 2187]), (2, [2, 12, 432]), (4, [4, 48, 6912]),
                      (7, [7, 147, 64827]), (8, [8, 192]), (147, [147, 64827]), (148, [148])):
        tables = _union_tables(np.full((2, k0), 0.5 / k0), 10)
        assert [t.shape[1] for t in tables] == sizes
    assert 3 * 147**2 <= CODE_LIMIT < 3 * 148**2
    assert [t.shape[1] for t in _union_tables(np.ones((2, 1)), 2)] == [1, 3, 27]
    rng = np.random.default_rng(2)
    table = rng.random((2, 3))
    union = _union_tables(table, 1)[1]
    for l, r, s in itertools.product(range(3), range(3), range(2)):
        f, g = np.empty((2, 1)), np.empty((2, 1))
        _fop(table[:, [l]], table[:, [r]], f)
        _gop(table[:, [l]], table[:, [r]], np.array([s], np.uint8), g)
        assert np.array_equal(union[:, 3 * l + r], f[:, 0])
        assert np.array_equal(union[:, 9 + 2 * (3 * l + r) + s], g[:, 0])


def random_float_table(rng, size, zeros):
    """A (2, size) table that is not hard: column 0 holds two different
    positive entries, and a share `zeros` of the other entries is 0."""
    table = rng.random((2, size)) + 0.01
    table[rng.random((2, size)) < zeros] = 0.0
    table[:, 0] = (0.3, 0.6)
    return table / table.sum()


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([0, 1, 2, 3, 6]),
       batch=BATCHES, size=st.sampled_from([1, 2, 3, 148]), hard=st.booleans(),
       flip=st.sampled_from([0.0, 0.05, 0.3]))
def test_coded_stack_equals_uncoded_tree(seed, n, batch, size, hard, flip):
    """PairStack, coded near the leaves on float tables and packed on
    supports, gives the uncoded float tree's pairs, pair for pair and null
    for null, at random consulted indices, given drawn blocks with random
    flips as the decided bits."""
    rng = np.random.default_rng(seed)
    n_len = 1 << n
    table = random_hard_table(rng, size) if hard else random_float_table(rng, size, 0.2)
    ch = SymbolChannel(table)
    assert ch.hard == hard
    obs = rng.integers(0, size, (batch, n_len))
    leaf_table, codes = _leaf_pairs(ch, obs.T)
    assert leaf_table.dtype == (bool if hard else np.float64)
    coded = PairStack((leaf_table, codes))
    if hard:
        assert_packed_levels(coded, batch)
    else:
        depth = {1: 3, 2: 2, 3: 2, 148: 0}[size]
        # min(depth, n) uint16 levels sit right below the leaves, pairs above
        assert ([lvl.dtype == np.uint16 for lvl in coded.levels[:n]]
                == [lam >= n - depth for lam in range(n)])
    ref = ReferenceTree(float_leaves(ch, obs))
    v = apply_transform(draw_supported_bits(rng, ch, obs)).T
    decided = v ^ (rng.random((n_len, batch)) < flip)
    for phi in range(n_len):
        if rng.random() < 0.7:
            got, got_null = coded.pair_at(phi, decided)
            want, want_null = ref.pair_at(phi, decided)
            assert np.array_equal(got, want) and np.array_equal(got_null, want_null)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([0, 1, 3, 6]),
       batch=BATCHES, size=st.sampled_from([1, 2, 3, 148]), hard=st.booleans(),
       flip=st.sampled_from([0.0, 0.05, 0.3]))
def test_pinned_pairs_equal_stack_pairs(seed, n, batch, size, hard, flip):
    """pinned_pairs gives PairStack's pair_at(phi, v) of the same block v,
    consulted in order, pair for pair and null for null at every index,
    on float tables and on supports, coded up to the root or not at all."""
    rng = np.random.default_rng(seed)
    n_len = 1 << n
    table = random_hard_table(rng, size) if hard else random_float_table(rng, size, 0.2)
    ch = SymbolChannel(table)
    obs = rng.integers(0, size, (batch, n_len))
    v = apply_transform(draw_supported_bits(rng, ch, obs)).T ^ (rng.random((n_len, batch)) < flip)
    pairs, null = pinned_pairs(ch, obs.T, v)
    assert pairs.shape == (2, n_len, batch) and null.shape == (n_len, batch)
    stack = PairStack(_leaf_pairs(ch, obs.T))
    for phi in range(n_len):
        want, want_null = stack.pair_at(phi, v)
        assert np.array_equal(pairs[:, phi].T, want) and np.array_equal(null[phi], want_null)


@pytest.mark.parametrize("n_len", [1, 2, 64])
@pytest.mark.parametrize("hard", [False, True])
def test_stack_consulted_in_any_order_equals_pinned_pairs(n_len, hard):
    """Over a fully decided block a PairStack needs no call order: consulted
    twice over in shuffled index order, on a coded float tree and on a
    packed support tree, it gives pinned_pairs' pair and null mask at every
    index."""
    rng = np.random.default_rng(n_len)
    batch, size = 70, 3
    table = random_hard_table(rng, size) if hard else random_float_table(rng, size, 0.2)
    ch = SymbolChannel(table)
    obs = rng.integers(0, size, (batch, n_len))
    v = apply_transform(draw_supported_bits(rng, ch, obs)).T ^ (rng.random((n_len, batch)) < 0.05)
    pairs, null = pinned_pairs(ch, obs.T, v)
    stack = PairStack(_leaf_pairs(ch, obs.T))
    if hard:
        assert_packed_levels(stack, batch)
    else:
        assert all(level.dtype == np.uint16 for level in stack.levels[-3:])
    for phi in np.concatenate([rng.permutation(n_len), rng.permutation(n_len)]):
        got, got_null = stack.pair_at(phi, v)
        assert np.array_equal(got, pairs[:, phi].T) and np.array_equal(got_null, null[phi])


def test_functional_stack_rejects_phi_moving_backwards():
    """The rows a FunctionalStack has folded into `alive` cannot be unfolded,
    so phi may repeat but not move backwards."""
    ch = SymbolChannel(np.array([[0.5, 0.0], [0.0, 0.5]]))
    stack = FunctionalStack(ch, np.array([[0, 1], [1, 1], [0, 0], [1, 0]]))
    v = stack.v_star.copy()
    stack.alive_at(2, v)
    stack.alive_at(2, v)
    with pytest.raises(ValueError, match="backwards"):
        stack.alive_at(1, v)


@functools.cache
def protocol_layouts():
    """The protocol-shaped tag layouts at N = 64 of the walk/runs digest
    cases (tools/output_digest.py's run_layouts): a transmitter's
    observation runs broken by isolated prior indices, a receiver's long
    pinned block, single-index runs, and runs of every tag from index 0 to
    N - 1."""
    spec = importlib.util.spec_from_file_location("output_digest", TOOLS / "output_digest.py")
    digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digest)
    return digest.run_layouts(polarcomm)


@pytest.mark.parametrize("table", [
    [[0.5, 0.0, 0.2, 0.0], [0.0, 0.3, 0.0, 0.0]],  # a zero-mass symbol
    [[0.6, 0.4], [0.0, 0.0]],  # degenerate prior: prior runs are functional too
    [[0.0], [1.0]],  # observation-free
    [[0.5, 0.0, 0.0, 0.25], [0.0, 0.0, 0.0, 0.25]],  # erasure: a packed support tree
    [[0.3, 0.1, 0.05, 0.05], [0.1, 0.2, 0.1, 0.1]],  # a float tree
])
@pytest.mark.parametrize("layout", ["tx", "rx", "singles", "mixed"])
def test_run_segmented_walk_equals_per_index_walks(table, layout, monkeypatch):
    """The run-segmented walk equals, block for block, chain for chain and
    anomaly count for anomaly count, the per-index loop over float trees
    (reference_walk) and the float-tree walk (SymbolChannel.hard off), on
    protocol-shaped layouts at B = 130 under both F_d modes, drawn and
    followed. Trials die mid-block on a zero-mass symbol, on pins that
    contradict v*, on shared draws that leave v* and, where followed, at a
    flipped bit inside a run. A drawing walk consults a PairStack once at
    each index its tag serves and a FunctionalStack once per run, and a
    chain probability consults neither."""
    rng = np.random.default_rng(40)
    n_len, batch = 64, 130
    ch = SymbolChannel(np.array(table))
    tags = protocol_layouts()[layout]
    obs = _observations(rng, ch, batch, n_len).astype(np.uint8)
    positive = ch.table > 0
    star = apply_transform(positive[1][obs]) if ch.functional else np.zeros_like(obs)
    pins = star ^ (rng.random((batch, n_len)) < 0.01)
    flips = rng.random((batch, n_len)) < 0.02
    policy = SamplingPolicy(tags, pins)

    def walks():
        out = []
        for fd in ("sample", "argmax"):
            log = AnomalyLog()
            v = sample_sequential(ch, obs, policy, np.random.default_rng(7),
                                  shared_rng=np.random.default_rng(8), fd_mode=fd, anomalies=log)
            out.append((v, log.count))
            for block in (v, v ^ flips, star):
                log = AnomalyLog()
                out.append((chain_probability(ch, obs, policy, block, fd_mode=fd, anomalies=log),
                            log.count))
        return out

    consulted = []
    for cls, method in ((PairStack, "pair_at"), (FunctionalStack, "alive_at")):
        def spy(self, phi, v, real=getattr(cls, method), name=cls.__name__):
            consulted.append((phi, name))
            return real(self, phi, v)
        monkeypatch.setattr(cls, method, spy)
    fast = walks()
    served = {OBSERVATION_CONDITIONAL: ch, PRIOR_CONDITIONAL: ch.prior()}
    want = [(phi, "PairStack") for phi in range(n_len)
            if tags[phi] in served and not served[tags[phi]].functional]
    want += [(phi, "FunctionalStack") for phi in range(n_len)
             if tags[phi] in served and served[tags[phi]].functional
             and (phi == 0 or tags[phi - 1] != tags[phi])]
    assert sorted(consulted) == sorted(want * 2)  # 2 F_d modes x 1 draw; follows read pinned_pairs

    lifted = (obs.T.copy(), tags, pins.T.copy())
    uniforms = tuple(_uniform_block(np.random.default_rng(seed), batch, n_len) for seed in (7, 8))
    ref = []
    for fd in ("sample", "argmax"):
        v, _, count = reference_walk(ch, *lifted, fd, uniforms=uniforms)
        ref.append((v.T, count))
        for block in (v.T, v.T ^ flips, star):
            _, chain, count = reference_walk(ch, *lifted, fd, v_block=block.T.copy())
            ref.append((chain, count))
    monkeypatch.setattr(SymbolChannel, "hard", property(lambda self: False))
    assert not ch.functional
    for (got, count), (ref_got, ref_count), (float_got, float_count) in zip(fast, ref, walks()):
        assert np.array_equal(got, ref_got) and count == ref_count
        assert np.array_equal(got, float_got) and count == float_count
    # trials die wherever some block has zero mass
    assert any(count for _, count in fast) == bool(np.any(ch.table == 0))


def cutover_table(rare):
    """A functional (2, 40) table whose bit is 1 on `rare` symbols and
    whose last `rare` symbols have no mass."""
    table = np.zeros((2, 40))
    table[1, :rare] = 1.0
    table[0, rare:] = 1.0
    table[:, 40 - rare:] = 0.0
    return table / table.sum()


def test_functional_stack_equals_the_gather_formulas():
    """v* = G_N(u*(obs)) and the alive mask, found by _symbol_mask, equal
    the fancy-index formulas over uint8 and intp symbols: on a zero-mass
    symbol, an observation-free channel, a 200-symbol table, and tables
    whose rare symbols sit on either side of the compare/gather cutover
    (16 and 17 rare uint8 symbols, 2 and 3 rare intp ones)."""
    rng = np.random.default_rng(41)
    n_len, batch = 32, 70
    assert sc._COMPARE_BYTES == 16
    for table in ([[0.5, 0.0, 0.2, 0.0], [0.0, 0.3, 0.0, 0.0]], [[0.0], [1.0]],
                  random_functional_table(rng, 200),
                  *(cutover_table(rare) for rare in (2, 3, 16, 17))):
        ch = SymbolChannel(np.array(table))
        assert ch.functional
        obs = _observations(rng, ch, batch, n_len).T
        positive = ch.table > 0
        want_star = apply_transform(positive[1][obs].T).T
        want_alive = positive.any(axis=0)[obs].all(axis=0)
        for dtype in (np.uint8, np.intp):
            stack = FunctionalStack(ch, obs.astype(dtype))
            assert stack.v_star.shape == (n_len, batch) and stack.v_star.dtype == np.uint8
            assert np.array_equal(stack.v_star, want_star)
            assert np.array_equal(stack.alive, want_alive)
        assert want_alive.all() != (0.0 in ch.table.sum(axis=0))


@pytest.mark.parametrize("n_len, fd", [(8, "bogus"), (6, "sample")])
def test_rejected_walk_leaves_the_streams_unread(n_len, fd):
    """A walk rejected for its F_d mode or a block length that is not a power
    of two raises before it defers, draws or skips a uniform block: the
    next double of each stream is the first it would give."""
    ch = and_round1_channel()
    tags = np.full(n_len, OBSERVATION_CONDITIONAL, np.uint8)
    tags[::2] = UNIFORM_HALF
    rng, shared = np.random.default_rng(1), np.random.default_rng(2)
    with pytest.raises(ValueError):
        sample_sequential(ch, np.zeros((3, n_len), np.uint8), SamplingPolicy(tags), rng,
                          shared_rng=shared, fd_mode=fd)
    assert rng.random() == np.random.default_rng(1).random()
    assert shared.random() == np.random.default_rng(2).random()
    with pytest.raises(ValueError):
        chain_probability(ch, np.zeros(n_len, np.uint8), SamplingPolicy(tags),
                          np.zeros(n_len, np.uint8), fd_mode=fd)


def test_walks_reject_fractional_symbols():
    """sample_sequential and chain_probability reject an observation of 1.7
    or 0.5 instead of truncating it to symbol 1 or 0; integral floats and
    bools walk as the integer symbols do."""
    ch = SymbolChannel(np.array([[0.4, 0.15], [0.05, 0.4]]))
    policy = SamplingPolicy(np.full(4, OBSERVATION_CONDITIONAL))
    v = np.array([0, 1, 1, 0], dtype=np.uint8)
    for obs in ([1.7, 0, 1, 0], [0.5, 0, 1, 0], [np.nan, 0, 1, 0]):
        with pytest.raises(ValueError, match="observation symbol out of range"):
            sample_sequential(ch, np.array(obs), policy, np.random.default_rng(0))
        with pytest.raises(ValueError, match="observation symbol out of range"):
            chain_probability(ch, np.array(obs), policy, v)
    want = chain_probability(ch, np.array([1, 0, 1, 0]), policy, v)
    for obs in (np.array([1.0, 0.0, 1.0, 0.0]), np.array([True, False, True, False])):
        assert chain_probability(ch, obs, policy, v) == want
        assert np.array_equal(sample_sequential(ch, obs, policy, np.random.default_rng(3)),
                              sample_sequential(ch, np.array([1, 0, 1, 0]), policy,
                                                np.random.default_rng(3)))


def test_flatten_obs_rejects_fractional_symbols():
    """A symbol of 0.5 is not truncated to 0; integral floats flatten."""
    ch = SymbolChannel(np.full((2, 4), 1 / 8), (2, 2))
    with pytest.raises(ValueError, match="outside"):
        ch.flatten_obs([np.array([0.5]), np.array([0])])
    with pytest.raises(ValueError, match="outside"):
        ch.flatten_obs([np.array([1]), np.array([1.25])])
    assert ch.flatten_obs([np.array([1.0]), np.array([True])]).tolist() == [3]


def test_sc_conditional_rejects_out_of_range_symbols():
    """Observation symbols outside the channel's alphabet are rejected, as
    sample_sequential and chain_probability reject them."""
    ch = SymbolChannel(np.array([[0.4, 0.15], [0.05, 0.4]]))
    for obs in ([2, 0, 0, 0], [-1, 0, 0, 0], [7, 7, 7, 7]):
        with pytest.raises(ValueError, match="observation symbol out of range"):
            conditional_pair(ch, obs, [0])


@pytest.mark.parametrize("size", [1, 2, 4, 64, 65, 256])
def test_cell_index_equals_searchsorted(size):
    """The cell draw gives np.searchsorted(cum, x) on both sides of its size
    rule, with ties from zero-mass cells, x at every edge and x == cum[-1],
    in np.min_scalar_type(cum.size)."""
    rng = np.random.default_rng(size)
    mass = rng.random(size) + 0.1
    mass[1 : size // 2 + 1] = 0.0  # ties cum[k - 1] == cum[k] when size > 1
    cum = np.cumsum(mass / mass.sum())
    x = np.concatenate([rng.random(4000) * cum[-1], cum, [0.0, cum[-1]]])[None]
    cells = _cell_index(cum, x)
    assert cells.dtype == np.min_scalar_type(cum.size)
    assert np.array_equal(cells, np.searchsorted(cum, x))


def test_flatten_obs_rejects_symbols_outside_a_variable():
    """(x2 = 2, u1 = 0) would alias (x2 = 0, u1 = 1); in-range symbols flatten
    in the smallest unsigned dtype of the alphabet. The encoder behind it,
    `mixed_radix`, read with its digits reversed is np.ravel_multi_index,
    the C-order index of a table (the decode and truth lookups), also where
    the flat range passes 255."""
    ch = SymbolChannel(np.full((2, 4), 1 / 8), (2, 2))
    with pytest.raises(ValueError, match="outside"):
        ch.flatten_obs([np.array([2]), np.array([0])])
    with pytest.raises(ValueError, match="outside"):
        ch.flatten_obs([np.array([0]), np.array([-1])])
    flat = ch.flatten_obs([np.array([[0, 1, 0, 1]]), np.array([0, 0, 1, 1], dtype=np.uint8)])
    assert flat.dtype == np.uint8 and np.array_equal(flat, [[0, 1, 2, 3]])
    wide = SymbolChannel(np.full((2, 300), 1 / 600), (3, 1, 100))
    flat = wide.flatten_obs([np.array([2]), np.array([0]), np.array([99])])
    assert flat.dtype == np.uint16 and flat.tolist() == [299]
    for shape, dtype in (((3, 1, 5, 2), np.uint8), ((3, 1, 100, 2), np.uint16)):
        digits = np.indices(shape).reshape(len(shape), -1).astype(np.uint8)
        flat = mixed_radix(digits[::-1], shape[::-1])
        assert flat.dtype == dtype
        assert np.array_equal(flat, np.ravel_multi_index(tuple(digits), shape))
        bad = digits.copy()
        bad[2, -1] = shape[2]
        with pytest.raises(ValueError, match="outside"):
            mixed_radix(bad[::-1], shape[::-1])


@pytest.mark.parametrize("table", [
    and_round2_channel(0.3, 0.6).table,
    np.array([[0.25, 0.0, 0.2, 0.05], [0.0, 0.3, 0.1, 0.1]]),
    np.array([[0.4, 0.0, 0.1], [0.0, 0.5, 0.0]]),
])
def test_walks_independent_of_the_symbol_dtype(table):
    """uint8, uint16 and int64 observations give the same blocks, chain
    probabilities and anomaly counts, batched and (N,); a negative int64
    symbol is rejected at every SC entry point."""
    ch = SymbolChannel(table)
    rng = np.random.default_rng(21)
    n_len, batch = 16, 9
    obs = _observations(rng, ch, batch, n_len)
    tags = rng.integers(0, 4, n_len).astype(np.uint8)
    pins = rng.integers(0, 2, (batch, n_len))
    policy = SamplingPolicy(tags, pins)
    walks = [[_walk(ch, ob.astype(dtype), policy, fd) for ob in (obs, obs[3]) for fd in
              ("sample", "argmax")] for dtype in (np.uint8, np.uint16, np.int64)]
    for other in walks[1:]:
        for (v, chain, count), (v_o, chain_o, count_o) in zip(walks[0], other):
            assert np.array_equal(v, v_o) and count == count_o
            assert chain.tobytes() == chain_o.tobytes()
    bad = obs.astype(np.int64)
    bad[4, 7] = -1
    v = walks[0][0][0]
    with pytest.raises(ValueError, match="out of range"):
        sample_sequential(ch, bad, policy, np.random.default_rng(0))
    with pytest.raises(ValueError, match="out of range"):
        chain_probability(ch, bad, policy, v)
    with pytest.raises(ValueError, match="out of range"):
        conditional_pair(ch, bad[4], [0])


@pytest.mark.parametrize("table, functional, hard", [
    ([[0.5, 0.0, 0.2, 0.0], [0.0, 0.3, 0.0, 0.0]], True, True),  # a zero-mass symbol
    ([[0.5, 0.0, 0.0, 0.25], [0.0, 0.0, 0.0, 0.25]], False, True),  # erasure, zero mass
    ([[0.3, 0.1, 0.05, 0.05], [0.1, 0.2, 0.1, 0.1]], False, False),
])
@pytest.mark.parametrize("fd", ["sample", "argmax"])
def test_public_walks_equal_the_trial_last_walk(table, functional, hard, fd):
    """sample_sequential and chain_probability on (B, N) inputs equal the
    per-index walk reference_walk on the trial-last (N, B) ones: one
    transpose of the inputs in, the (B, N) view of a C-order (N, B) block
    out, with the uniforms of one (B, N) draw per stream. At B = 130 the
    trials fill three 64-trial words, the last one partial; every tag occurs,
    and (N,) observations are broadcast over the trials."""
    rng = np.random.default_rng(30)
    ch = SymbolChannel(np.array(table))
    assert (ch.functional, ch.hard) == (functional, hard)
    n_len, batch = 32, 130
    obs = _observations(rng, ch, batch, n_len).astype(np.uint8)
    tags = rng.integers(0, 4, n_len).astype(np.uint8)
    tags[:4] = (UNIFORM_HALF, PRIOR_CONDITIONAL, OBSERVATION_CONDITIONAL, PINNED)
    pins = rng.integers(0, 2, (batch, n_len)).astype(np.uint8)
    policy = SamplingPolicy(tags, pins)
    uniforms = tuple(_uniform_block(np.random.default_rng(seed), batch, n_len) for seed in (7, 8))
    for public_obs, walk_obs in ((obs, obs.T.copy()), (obs[5], np.repeat(obs[5][:, None], batch, 1))):
        log = AnomalyLog()
        v = sample_sequential(ch, public_obs, policy, np.random.default_rng(7),
                              shared_rng=np.random.default_rng(8), fd_mode=fd, anomalies=log)
        walk_v, _, count = reference_walk(ch, walk_obs, tags, pins.T.copy(), fd, uniforms=uniforms)
        assert v.shape == (batch, n_len) and v.dtype == np.uint8 and v.T.flags.c_contiguous
        assert np.array_equal(v, walk_v.T) and log.count == count
        # a pin flipped on some trials drives their chain probability to 0
        v_flipped = v ^ (rng.random((batch, n_len)) < 0.01)
        for block in (v, v_flipped):
            log = AnomalyLog()
            chain = chain_probability(ch, public_obs, policy, block, fd_mode=fd, anomalies=log)
            _, walk_chain, count = reference_walk(ch, walk_obs, tags, pins.T.copy(), fd,
                                                  v_block=block.T.copy())
            assert chain.shape == (batch,) and np.array_equal(chain, walk_chain)
            assert log.count == count


@pytest.mark.parametrize("case", ["no-pins", "all-pinned", "n1", "observation-free"])
@pytest.mark.parametrize("fd", ["sample", "argmax"])
def test_chain_probability_equals_the_per_index_walk(case, fd):
    """chain_probability, the genie-aided product over pinned_pairs, equals
    reference_walk's per-index chain bit for bit, with its anomaly count,
    on drawn blocks and on blocks with flipped bits: for a policy with no
    PINNED index (its pinned bits None), an all-PINNED one, every tag at
    N = 1 and, on an observation-free channel, a policy of all four tags
    with no observations given."""
    rng = np.random.default_rng(43)
    batch = 9
    ch = SymbolChannel(np.array([[0.3, 0.1, 0.05, 0.05], [0.1, 0.2, 0.1, 0.1]]))
    if case == "observation-free":
        ch = SymbolChannel(np.array([[0.35], [0.65]]))
    if case == "n1":
        layouts = [np.array([tag], np.uint8) for tag in range(PINNED + 1)]
    elif case == "all-pinned":
        layouts = [np.full(16, PINNED, np.uint8)]
    else:
        layouts = [np.tile(np.arange(PINNED if case == "no-pins" else PINNED + 1,
                                     dtype=np.uint8), 8)[:16]]
    for tags in layouts:
        n_len = tags.size
        obs = rng.integers(0, ch.obs_size, (batch, n_len))
        pins = rng.integers(0, 2, (batch, n_len)).astype(np.uint8)
        policy = SamplingPolicy(tags, pins if PINNED in tags else None)
        assert (policy.pinned is None) == (PINNED not in tags)
        public_obs = None if case == "observation-free" else obs
        drawn = sample_sequential(ch, public_obs, policy, np.random.default_rng(1),
                                  shared_rng=np.random.default_rng(2), fd_mode=fd)
        for block in (drawn, drawn ^ (rng.random((batch, n_len)) < 0.2)):
            log = AnomalyLog()
            chain = chain_probability(ch, public_obs, policy, block, fd_mode=fd, anomalies=log)
            _, want, count = reference_walk(ch, np.zeros_like(obs.T) if public_obs is None
                                            else obs.T.copy(), tags, pins.T.copy(), fd,
                                            v_block=block.T.copy())
            assert np.array_equal(chain, want) and log.count == count


def test_lift_of_trial_last_views_makes_no_copy():
    """The (B, N) transposed views of C-order (N, B) observations, pins and
    blocks lift to those arrays themselves, and the .T of sample_sequential's
    (B, N) result is C-order: a caller that holds its data trial-last, as
    the round loop does, pays no transpose copy. The walk drawn that way
    equals the one drawn from C-order (B, N) copies."""
    rng = np.random.default_rng(33)
    ch = SymbolChannel(np.array([[0.3, 0.1, 0.05], [0.1, 0.2, 0.25]]))
    n_len, batch = 16, 7
    obs = np.ascontiguousarray(rng.integers(0, ch.obs_size, (n_len, batch)), dtype=np.uint8)
    pins = np.ascontiguousarray(rng.integers(0, 2, (n_len, batch)), dtype=np.uint8)
    tags = rng.integers(0, 4, n_len).astype(np.uint8)
    tags[:4] = (UNIFORM_HALF, PRIOR_CONDITIONAL, OBSERVATION_CONDITIONAL, PINNED)
    policy = SamplingPolicy(tags, pins.T)
    assert np.shares_memory(policy.pinned, pins)
    batched, lifted_obs, lifted_pins, lifted_v = _lift(ch, obs.T, policy, pins.T)
    assert batched
    for lifted, held in ((lifted_obs, obs), (lifted_pins, pins), (lifted_v, pins)):
        assert lifted.shape == (n_len, batch) and np.shares_memory(lifted, held)
    unobserved = np.where(tags == OBSERVATION_CONDITIONAL, PRIOR_CONDITIONAL, tags)
    _, lifted_obs, lifted_pins = _lift(ch, None, SamplingPolicy(unobserved, pins.T))
    assert lifted_obs.shape == (n_len, batch) and np.shares_memory(lifted_pins, pins)
    v = sample_sequential(ch, obs.T, policy, np.random.default_rng(1),
                          shared_rng=np.random.default_rng(2))
    assert v.shape == (batch, n_len) and v.T.flags.c_contiguous
    copied = SamplingPolicy(tags, pins.T.copy())
    want = sample_sequential(ch, obs.T.copy(), copied, np.random.default_rng(1),
                             shared_rng=np.random.default_rng(2))
    assert np.array_equal(v, want)


def test_symbol_channel_rejects_nan_entries():
    """A NaN entry fails the nonnegativity check and a NaN total the
    normalization check, instead of passing both as false comparisons."""
    for table in ([[0.5, np.nan], [0.25, 0.25]], [[np.nan], [0.5]]):
        with pytest.raises(ValueError, match="nonnegative numbers"):
            SymbolChannel(np.array(table))
    with pytest.raises(ValueError, match="sum to 1"):
        SymbolChannel(np.array([[np.inf, 0.0], [0.0, 0.0]]))

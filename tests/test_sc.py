"""SC engine tests against a test-local brute-force oracle.

The oracle here is written independently of the library's enumeration
helpers: it builds the block joint with an explicit Kronecker-product
transform matrix and plain loops over integer-encoded blocks.
"""
import itertools
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    _fop,
    _gop,
    _leaf_pairs,
    _cell_index,
    _policy_pass,
    _sample_trial_last,
    _uniform_block,
    _union_tables,
    chain_probability,
    pinned_pairs,
    sample_sequential,
    sc_conditional,
)
from polarcomm.transform import apply_transform, bit_reversal_perm

from sc_reference import ReferenceTree

DATA = Path(__file__).parent / "data"


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
        pair = sc_conditional(ch, np.array([x]), [])
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
                got = sc_conditional(ch, obs, prefix)
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
        via_prior = sc_conditional(prior, np.zeros(n_len, dtype=int), v[:i])
        # channel whose observation carries no information about u
        flat = SymbolChannel(np.outer(table.sum(axis=1), [0.2, 0.3, 0.5]))
        via_flat = sc_conditional(flat, rng.integers(0, 3, n_len), v[:i])
        assert np.abs(via_prior - via_flat).max() < 1e-12


def test_sample_all_pinned_returns_pins():
    ch = and_round1_channel()
    rng = np.random.default_rng(1)
    bits = rng.integers(0, 2, 8).astype(np.uint8)
    policy = SamplingPolicy.all_pinned(bits)
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
    policy = SamplingPolicy.observation_only(n_len)
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
    assert chain_probability(ch, obs, SamplingPolicy.all_pinned(bits), bits) == 1.0
    mismatch = bits.copy()
    mismatch[2] ^= 1
    assert chain_probability(ch, obs, SamplingPolicy.all_pinned(bits), mismatch) == 0.0
    uniform = SamplingPolicy(np.full(n_len, UNIFORM_HALF, dtype=np.uint8))
    assert chain_probability(ch, obs, uniform, bits) == 0.5**n_len


def test_chain_probability_sums_to_one():
    """Sum over all v-blocks equals 1 for every policy mix and observation."""
    ch = and_round2_channel(0.35, 0.55)
    n_len = 4
    policies = [
        SamplingPolicy.observation_only(n_len),
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
    """prod_i sc_conditional equals the exact block conditional, N=8."""
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
            got *= sc_conditional(ch, obs, v[:i])[v[i]]
        assert abs(got - want) < 1e-9


def test_pairs_are_valid_pmfs():
    rng = np.random.default_rng(8)
    table = rng.random((2, 4))
    table /= table.sum()
    ch = SymbolChannel(table)
    for _ in range(20):
        obs = rng.integers(0, 4, 8)
        prefix = rng.integers(0, 2, rng.integers(0, 8)).astype(np.uint8)
        pair = sc_conditional(ch, obs, prefix)
        assert pair.min() >= -1e-15
        assert abs(pair.sum() - 1.0) < 1e-10


def test_null_conditioning_returns_uniform_and_flags():
    """Pinned bits inconsistent with a deterministic slice trip the fallback."""
    ch = and_round1_channel()  # u1 = x exactly
    n_len = 4
    obs = np.zeros(n_len, dtype=int)  # x-block all zero forces v-block all zero
    log = AnomalyLog()
    pair = sc_conditional(ch, obs, [1], anomalies=log)
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
        SamplingPolicy.from_sets(2, uniform=[0], prior=[0], observation=[1])


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
    # symbols 0 and 1 fix the bit, so random pushes reach null conditionings
    ch = SymbolChannel(np.array([[0.3, 0.0, 0.2], [0.0, 0.4, 0.1]]))
    leaves = _leaf_pairs(ch, rng.integers(0, ch.obs_size, (n_len, batch)))
    bits = rng.integers(0, 2, (n_len, batch)).astype(np.uint8)
    sparse = {0, 37, n_len - 1} | set(np.flatnonzero(rng.random(n_len) < 0.1).tolist())
    dense_stack, sparse_stack = PairStack(leaves), PairStack(leaves)
    nulls = 0
    for phi in range(n_len):
        pair, null = dense_stack.pair_at(phi)
        if phi in sparse:
            got, got_null = sparse_stack.pair_at(phi)
            assert np.array_equal(got, pair) and np.array_equal(got_null, null)
            nulls += int(null.sum())
        dense_stack.push(phi, bits[phi])
        sparse_stack.push(phi, bits[phi])
    assert nulls > 0


def test_chain_probability_rejects_non_binary_blocks():
    ch = and_round1_channel()
    policy = SamplingPolicy.observation_only(4)
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


def draw_supported_bits(rng, ch, obs):
    """u bits, one from the support of each observed column (0 where empty)."""
    support = ch.table > 0
    one = support[1][obs] & (~support[0][obs] | (rng.random(obs.shape) < 0.5))
    return one.astype(np.uint8)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 6), batch=st.integers(1, 5),
       size=st.integers(1, 5), flip=st.sampled_from([0.0, 0.02, 0.2]),
       tiny=st.sampled_from([0, 150]))
def test_support_tree_equals_float_tree(seed, n, batch, size, flip, tiny):
    """On a hard channel the bool support tree gives the uncoded float tree's
    pairs, pair for pair and null for null, at random consulted indices
    under pushes of drawn blocks with random flips."""
    rng = np.random.default_rng(seed)
    n_len = 1 << n
    ch = SymbolChannel(random_hard_table(rng, size, tiny))
    assert ch.hard
    obs = rng.integers(0, size, (batch, n_len))
    support = _leaf_pairs(ch, obs.T)
    assert support[0].dtype == bool
    fast, ref = PairStack(support), ReferenceTree(float_leaves(ch, obs))
    v = apply_transform(draw_supported_bits(rng, ch, obs)).T
    pushes = v ^ (rng.random((n_len, batch)) < flip)
    for phi in range(n_len):
        if rng.random() < 0.7:
            got, got_null = fast.pair_at(phi)
            want, want_null = ref.pair_at(phi)
            assert np.array_equal(got, want) and np.array_equal(got_null, want_null)
        fast.push(phi, pushes[phi])
        ref.push(phi, pushes[phi])


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 6), batch=st.integers(1, 5),
       size=st.integers(1, 5), flip=st.sampled_from([0.0, 0.02, 0.2]),
       tiny=st.sampled_from([0, 150]))
def test_functional_stack_equals_pair_stack(seed, n, batch, size, flip, tiny):
    """Pair for pair and null for null, on random functional tables with
    zero-mass columns, at random consulted indices under pushes that leave
    v* now and then."""
    rng = np.random.default_rng(seed)
    n_len = 1 << n
    ch = SymbolChannel(random_functional_table(rng, size, tiny))
    assert ch.functional
    obs = rng.integers(0, size, (batch, n_len))
    fast, ref = FunctionalStack(ch, obs.T), ReferenceTree(float_leaves(ch, obs))
    v_star = fast.v_star.copy()
    pushes = v_star ^ (rng.random((n_len, batch)) < flip)
    for phi in range(n_len):
        if rng.random() < 0.7:
            got, got_null = fast.pair_at(phi)
            want, want_null = ref.pair_at(phi)
            assert np.array_equal(got, want) and np.array_equal(got_null, want_null)
        fast.push(phi, pushes[phi])
        ref.push(phi, pushes[phi])


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
                SamplingPolicy.observation_only(n_len)]

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


def test_uniform_block_matches_one_draw():
    """Slab draws give the doubles of one (B, N) draw, and a dropped block
    advances the stream as far: by PCG64's advance, or by drawing the
    slabs for MT19937 and for a PCG64 stream holding a buffered 32-bit half,
    whose next 32-bit draw stays the same."""
    for bit_generator in (np.random.PCG64, np.random.MT19937):
        for batch in (1, 64, 130):
            want = np.random.Generator(bit_generator(3)).random((batch, 8))
            rng = np.random.Generator(bit_generator(3))
            assert np.array_equal(_uniform_block(rng, batch, 8), want.T)
            skip = np.random.Generator(bit_generator(3))
            assert _uniform_block(skip, batch, 8, keep=False) is None
            assert skip.random() == rng.random()
    rng, skip = np.random.default_rng(3), np.random.default_rng(3)
    for gen in (rng, skip):
        gen.integers(0, 10, dtype=np.int32)  # leaves half of a 64-bit output
    _uniform_block(rng, 5, 8)
    _uniform_block(skip, 5, 8, keep=False)
    assert skip.integers(0, 1 << 30, dtype=np.int32) == rng.integers(0, 1 << 30, dtype=np.int32)
    assert skip.random() == rng.random()


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
       batch=st.integers(1, 4), size=st.sampled_from([1, 2, 3, 148]), hard=st.booleans(),
       flip=st.sampled_from([0.0, 0.05, 0.3]))
def test_coded_stack_equals_uncoded_tree(seed, n, batch, size, hard, flip):
    """PairStack, coded near the leaves, gives the uncoded tree's pairs, pair
    for pair and null for null, at random consulted indices under pushes of
    drawn blocks with random flips, on float tables and on supports."""
    rng = np.random.default_rng(seed)
    n_len = 1 << n
    table = random_hard_table(rng, size) if hard else random_float_table(rng, size, 0.2)
    ch = SymbolChannel(table)
    assert ch.hard == hard
    obs = rng.integers(0, size, (batch, n_len))
    leaf_table, codes = _leaf_pairs(ch, obs.T)
    assert leaf_table.dtype == (bool if hard else np.float64)
    coded = PairStack((leaf_table, codes))
    depth = {1: 3, 2: 2, 3: 2, 148: 0}[size]
    # min(depth, n) uint16 levels sit right below the leaves, pairs above
    assert [lvl.dtype == np.uint16 for lvl in coded.levels[:n]] == [lam >= n - depth for lam in range(n)]
    ref = ReferenceTree(np.take(leaf_table, obs.T, axis=1))
    v = apply_transform(draw_supported_bits(rng, ch, obs)).T
    pushes = v ^ (rng.random((n_len, batch)) < flip)
    for phi in range(n_len):
        if rng.random() < 0.7:
            got, got_null = coded.pair_at(phi)
            want, want_null = ref.pair_at(phi)
            assert np.array_equal(got, want) and np.array_equal(got_null, want_null)
        coded.push(phi, pushes[phi])
        ref.push(phi, pushes[phi])


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([0, 1, 3, 6]),
       batch=st.integers(1, 4), size=st.sampled_from([1, 2, 3, 148]), hard=st.booleans(),
       flip=st.sampled_from([0.0, 0.05, 0.3]))
def test_pinned_pairs_equal_stack_pairs(seed, n, batch, size, hard, flip):
    """pinned_pairs gives PairStack's pair_at(phi) after push of the same
    block's rows 0 .. phi-1, pair for pair and null for null at every index,
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
        want, want_null = stack.pair_at(phi)
        assert np.array_equal(pairs[:, phi].T, want) and np.array_equal(null[phi], want_null)
        stack.push(phi, v[phi])


def test_sc_conditional_rejects_out_of_range_symbols():
    """Observation symbols outside the channel's alphabet are rejected, as
    sample_sequential and chain_probability reject them."""
    ch = SymbolChannel(np.array([[0.4, 0.15], [0.05, 0.4]]))
    for obs in ([2, 0, 0, 0], [-1, 0, 0, 0], [7, 7, 7, 7]):
        with pytest.raises(ValueError, match="observation symbol out of range"):
            sc_conditional(ch, obs, [0])


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
    in the smallest unsigned dtype of the alphabet."""
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
        sc_conditional(ch, bad[4], [0])


@pytest.mark.parametrize("table, functional, hard", [
    ([[0.5, 0.0, 0.2, 0.0], [0.0, 0.3, 0.0, 0.0]], True, True),  # a zero-mass symbol
    ([[0.5, 0.0, 0.0, 0.25], [0.0, 0.0, 0.0, 0.25]], False, True),  # erasure, zero mass
    ([[0.3, 0.1, 0.05, 0.05], [0.1, 0.2, 0.1, 0.1]], False, False),
])
@pytest.mark.parametrize("fd", ["sample", "argmax"])
def test_public_walks_equal_the_trial_last_walk(table, functional, hard, fd):
    """sample_sequential and chain_probability are adapters of the trial-last
    walk: one transpose of the (B, N) inputs in, the (B, N) view of its
    (N, B) block out. At B = 130 the uniforms come in three slabs, the last
    one partial; every tag occurs, and (N,) observations are broadcast over
    the trials."""
    rng = np.random.default_rng(30)
    ch = SymbolChannel(np.array(table))
    assert (ch.functional, ch.hard) == (functional, hard)
    n_len, batch = 32, 130
    obs = _observations(rng, ch, batch, n_len).astype(np.uint8)
    tags = rng.integers(0, 4, n_len).astype(np.uint8)
    tags[:4] = (UNIFORM_HALF, PRIOR_CONDITIONAL, OBSERVATION_CONDITIONAL, PINNED)
    pins = rng.integers(0, 2, (batch, n_len)).astype(np.uint8)
    policy = SamplingPolicy(tags, pins)
    for public_obs, walk_obs in ((obs, obs.T.copy()), (obs[5], np.repeat(obs[5][:, None], batch, 1))):
        log, walk_log = AnomalyLog(), AnomalyLog()
        v = sample_sequential(ch, public_obs, policy, np.random.default_rng(7),
                              shared_rng=np.random.default_rng(8), fd_mode=fd, anomalies=log)
        walk_v = _sample_trial_last(ch, walk_obs, tags, pins.T.copy(), np.random.default_rng(7),
                                    np.random.default_rng(8), fd, walk_log)
        assert v.shape == (batch, n_len) and v.dtype == np.uint8
        assert walk_v.shape == (n_len, batch) and walk_v.flags.c_contiguous
        assert np.array_equal(v, walk_v.T) and log.count == walk_log.count
        # a pin flipped on some trials drives their chain probability to 0
        v_flipped = v ^ (rng.random((batch, n_len)) < 0.01)
        for block in (v, v_flipped):
            chain = chain_probability(ch, public_obs, policy, block, fd_mode=fd, anomalies=log)
            _, walk_chain = _policy_pass(ch, walk_obs, tags, pins.T.copy(), fd, walk_log,
                                         v_block=block.T.copy())
            assert chain.shape == (batch,) and np.array_equal(chain, walk_chain)
            assert log.count == walk_log.count

"""Verification oracle tests: exact TV, agreement, error rates, rates."""
import numpy as np
import pytest

from polarcomm.exact import (
    block_joint_full,
    sampled_chain_table,
    transform_permutation,
)
from polarcomm.models import (
    AndModelParams,
    build_and_chain,
    build_bsc_chain,
    build_collocated_chain,
)
from polarcomm.probability import AuxChainModel, JointPmf
from polarcomm.protocol import plan_protocol, sample_sources
from polarcomm.reliability import PartitionPolicy
from polarcomm.sc import SamplingPolicy, SymbolChannel, chain_probability
from polarcomm.verification import (
    _exact_tv_chain,
    agreement_probability,
    exact_metrics,
    exact_q_tv,
    function_error_rate,
    measured_rates,
)

ALL_TRANSMIT = PartitionPolicy(mode="target_rate", fractions=(0.0, 0.0, 1.0))


def uniform_independent_model(p_u=0.7):
    """X, Y uniform independent; U1 ~ Ber(p_u) independent of both."""
    mass = np.zeros((2, 2, 2))
    for x in (0, 1):
        for y in (0, 1):
            mass[x, y, 0] = 0.25 * (1 - p_u)
            mass[x, y, 1] = 0.25 * p_u
    return AuxChainModel(
        joint=JointPmf((("x", 2), ("y", 2), ("u1", 2)), mass),
        rounds=1, round_sources=("x",),
        markov_specs=((("u1",), ("x",), ("y",)),),
        functions={"f_A": np.zeros((2, 2), dtype=int),
                   "f_B": np.zeros((2, 2), dtype=int)},
    )


def ternary_model():
    """X uniform on {0, 1, 2}, Y = X w.p. 0.9 (else each other symbol 0.05),
    U1 = [X = 2] sent by A in one round; both functions are 0."""
    mass = np.zeros((3, 3, 2))
    for x in range(3):
        for y in range(3):
            mass[x, y, int(x == 2)] = (0.9 if x == y else 0.05) / 3
    return AuxChainModel(
        joint=JointPmf((("x", 3), ("y", 3), ("u1", 2)), mass),
        rounds=1, round_sources=("x",),
        markov_specs=((("u1",), ("x",), ("y",)),),
        functions={"f_A": np.zeros((3, 3), dtype=int),
                   "f_B": np.zeros((3, 3), dtype=int)},
    )


def test_all_transmit_tv_is_exactly_zero():
    m = build_and_chain(AndModelParams(0.3, 0.6, 2))
    plans = plan_protocol(m, 4, ALL_TRANSMIT)
    for side in ("tx", "rx"):
        assert exact_q_tv(m, plans, 4, side, rounds=1) == 0.0


def test_single_fr_index_hand_computation():
    """N=1, the only index in F_r, U1 ~ Ber(0.7) independent: tv = 0.4."""
    model = uniform_independent_model(0.7)
    plans = plan_protocol(model, 1, PartitionPolicy(mode="target_rate",
                                                    fractions=(0.0, 1.0, 0.0),
                                                    fr_z_cap=None))
    assert plans[0].partition.f_r.size == 1
    for side in ("tx", "rx"):
        tv = exact_q_tv(model, plans, 1, side, rounds=1)
        assert abs(tv - 0.4) < 1e-12


def test_tv_transform_invariance():
    """The L1 distance is identical over u-blocks and v-blocks (bijection)."""
    m = build_and_chain(AndModelParams(0.11, 0.4, 2))
    plan = plan_protocol(m, 4, PartitionPolicy(mode="threshold", delta=0.2))[0]
    c_tx = sampled_chain_table(plan.tx_channel, plan.partition.tags_for_transmitter(), 4)
    p_table = block_joint_full(plan.tx_channel, 4)
    p_obs = p_table.sum(axis=1)
    q_table = p_obs[:, None] * c_tx
    perm = transform_permutation(4)
    tv_v = np.abs(q_table - p_table).sum()
    tv_u = np.abs(q_table[:, perm] - p_table[:, perm]).sum()
    assert abs(tv_v - tv_u) < 1e-12


def test_tv_full_chain_caps_and_values():
    m = build_and_chain(AndModelParams(0.3, 0.6, 2))
    plans = plan_protocol(m, 4, PartitionPolicy(mode="threshold", delta=0.2))
    tv_a = exact_q_tv(m, plans, 4, "tx")
    tv_b = exact_q_tv(m, plans, 4, "rx")
    assert 0.0 <= tv_a <= 2.0 and 0.0 <= tv_b <= 2.0
    # terminal B transmits round 2 from its exact conditional; round 1 is
    # all-transmit at this delta, so B's history law stays ideal
    assert tv_b < 1e-12
    assert tv_a > 0.01
    with pytest.raises(ValueError):
        exact_q_tv(m, plans, 4, "nope")
    with pytest.raises(ValueError):
        plans16 = plan_protocol(m, 16, ALL_TRANSMIT, profile_method="monte_carlo",
                                profile_samples=64, profile_seed=0)
        exact_q_tv(m, plans16, 16, "tx", rounds=1)


def test_round1_tv_equals_full_chain_for_t1():
    """At t = 1 the full-chain enumeration and the round-1 route agree."""
    for model, n_len in ((uniform_independent_model(0.6), 2), (build_bsc_chain(0.11, 0.2), 4)):
        plans = plan_protocol(model, n_len, PartitionPolicy(mode="threshold", delta=0.2))
        for side in ("tx", "rx"):
            full = _exact_tv_chain(model, plans, n_len, side)
            assert full > 0.1
            assert abs(full - exact_q_tv(model, plans, n_len, side, rounds=1)) <= 1e-15


def test_exact_tv_rejects_rounds_out_of_range():
    m = build_and_chain(AndModelParams(0.3, 0.6, 2))
    plans = plan_protocol(m, 4, PartitionPolicy(mode="threshold", delta=0.2))
    for rounds in (0, 3, -1):
        with pytest.raises(ValueError):
            exact_q_tv(m, plans, 4, "tx", rounds=rounds)


def test_exact_routes_refuse_collocated_models():
    """The exact routes cover two-terminal models only: every one of them
    raises ValueError on a collocated model."""
    c = build_collocated_chain(2, [0.3, 0.6])
    plans = plan_protocol(c, 4, PartitionPolicy(mode="threshold", delta=0.2))
    for side in ("tx", "rx"):
        with pytest.raises(ValueError, match="two-terminal"):
            exact_q_tv(c, plans, 4, side, rounds=1)
    with pytest.raises(ValueError, match="two-terminal"):
        agreement_probability(c, plans, 4, "exact")


def test_agreement_all_transmit_is_one():
    m = build_and_chain(AndModelParams(0.3, 0.6, 2))
    plans = plan_protocol(m, 4, ALL_TRANSMIT)
    assert agreement_probability(m, plans, 4, "exact") == 1.0


def test_exact_agreement_under_argmax_needs_empty_fd():
    """argmax follows the sampling law where F_d is empty; elsewhere the
    exact route refuses it."""
    m = build_and_chain(AndModelParams(0.3, 0.6, 2))
    plans = plan_protocol(m, 4, PartitionPolicy(mode="threshold", delta=0.2))
    assert all(p.partition.f_d.size == 0 for p in plans)
    sample = agreement_probability(m, plans, 4, "exact")
    assert agreement_probability(m, plans, 4, "exact", fd_policy="argmax") == sample
    plans = plan_protocol(m, 4, PartitionPolicy(mode="threshold", delta=0.4))
    assert any(p.partition.f_d.size for p in plans)
    with pytest.raises(ValueError, match="argmax"):
        agreement_probability(m, plans, 4, "exact", fd_policy="argmax")


def test_exact_agreement_grid_within_max_enum():
    """Exact agreement holds a grid of |X|^N |Y|^N 2^(N t) cells. AND t = 6
    at N = 4 needs 2^32 of them (34 GB) and is refused before any is
    allocated, while round-1 TV stays available."""
    m = build_and_chain(AndModelParams(0.4, 0.5, 6))
    plans = plan_protocol(m, 4, PartitionPolicy(mode="threshold", delta=0.3))
    with pytest.raises(ValueError, match="cells"):
        agreement_probability(m, plans, 4, "exact")
    tv, agree = exact_metrics(m, plans, 4, rounds=1)
    assert tv is not None and agree is None


def test_exact_domain_follows_the_source_alphabets():
    """The routes count their cells from the source alphabets: on a ternary
    model, round-1 TV and agreement cover N = 4 (3^4 3^4 2^4 cells) and
    give None at N = 8 (3^8 3^8 2^8 cells exceed exact.MAX_ENUM)."""
    m = ternary_model()
    policy = PartitionPolicy(mode="target_rate")
    tv, agree = exact_metrics(m, plan_protocol(m, 4, policy), 4, rounds=1)
    assert set(tv) == {"tx", "rx"} and all(0.0 <= v <= 2.0 for v in tv.values())
    assert tv["rx"] > 0.01 and 0.0 < agree < 1.0
    assert exact_metrics(m, plan_protocol(m, 8, policy), 8, rounds=1) == (None, None)


def test_exact_agreement_contracts_without_the_grid():
    """Exact agreement on AND t = 4 at N = 4 sums its 2^24 common-path cells
    by contraction, never holding them: its allocations peak far below the
    128 MiB that grid alone would take."""
    import tracemalloc

    m = build_and_chain(AndModelParams(0.4, 0.5, 4))
    plans = plan_protocol(m, 4, PartitionPolicy(mode="threshold", delta=0.3))
    tracemalloc.start()
    try:
        agree = agreement_probability(m, plans, 4, "exact")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert abs(agree - 0.628870836636197) < 1e-12
    assert peak < 96 * 2**20


def test_agreement_single_fd_index_two_draw_formula():
    """One F_d index with prior Ber(p): both terminals agree w.p. 1 - 2p(1-p)."""
    p_u = 1e-3
    model = uniform_independent_model(p_u)
    plans = plan_protocol(model, 1, PartitionPolicy(mode="target_rate",
                                                    fractions=(1.0, 0.0, 0.0),
                                                    fd_z_cap=None))
    assert plans[0].partition.f_d.size == 1
    got = agreement_probability(model, plans, 1, "exact")
    assert abs(got - (1 - 2 * p_u * (1 - p_u))) < 1e-12


def test_agreement_exact_vs_monte_carlo_four_rounds():
    """Past u-blocks index their own axes of the exact agreement grid: at
    t = 4 the exact value sits within 4.5 sigma of a Monte Carlo estimate."""
    m = build_and_chain(AndModelParams(0.4, 0.5, 4))
    plans = plan_protocol(m, 2, PartitionPolicy(mode="threshold", delta=0.3),
                          profile_method="exact")
    exact = agreement_probability(m, plans, 2, "exact")
    trials = 100_000
    mc = agreement_probability(m, plans, 2, "monte_carlo", trials=trials, seed=17)
    assert abs(exact - mc) <= 4.5 * np.sqrt(exact * (1 - exact) / trials)


def test_agreement_exact_vs_monte_carlo():
    m = build_and_chain(AndModelParams(0.3, 0.6, 2))
    plans = plan_protocol(m, 4, PartitionPolicy(mode="threshold", delta=0.2))
    exact = agreement_probability(m, plans, 4, "exact")
    trials = 200_000
    mc = agreement_probability(m, plans, 4, "monte_carlo", trials=trials, seed=17)
    sigma = np.sqrt(max(exact * (1 - exact), 1e-12) / trials)
    assert abs(mc - exact) <= 3 * sigma + 1e-9


def test_function_error_all_transmit_is_zero():
    m = build_and_chain(AndModelParams(0.5, 0.5, 2))
    plans = plan_protocol(m, 8, ALL_TRANSMIT)
    report = function_error_rate(m, plans, 8, trials=500, seed=23)
    for side in ("f_A", "f_B"):
        assert report[side]["block_error"] == 0.0
        assert report[side]["symbol_error"] == 0.0
        assert report[side]["erasure"] == 0.0


def test_function_error_with_silent_round_two():
    """Forcing I' empty on round 2 creates real block errors, consistent with
    the agreement probability on the same plans."""
    m = build_and_chain(AndModelParams(0.5, 0.5, 2))
    plans = plan_protocol(m, 4, ALL_TRANSMIT)
    silent = plan_protocol(m, 4, PartitionPolicy(mode="target_rate",
                                                 fractions=(0.0, 0.0, 1.0)))
    # rebuild round 2 with an empty transmitted set
    from dataclasses import replace
    from polarcomm.reliability import IndexPartition

    part2 = silent[1].partition
    empty_iprime = IndexPartition(4, part2.f_r, part2.f_d, part2.info,
                                  np.array([], dtype=int))
    silent[1] = replace(silent[1], partition=empty_iprime)
    agree = agreement_probability(m, silent, 4, "exact")
    report = function_error_rate(m, silent, 4, trials=4000, seed=29)
    assert report["f_A"]["block_error"] > 0.0
    # disagreeing u2 blocks are the only error source for terminal A
    assert report["f_A"]["block_error"] <= (1 - agree) + 0.05


@pytest.mark.parametrize("network", ["two-terminal", "collocated"])
def test_function_error_rates_are_the_bool_means(network):
    """Every rate is a Python float equal to the bool mean recomputed from
    the run's outputs and erasures and the true values of the sources that
    sample_sources draws for the same seed, on plans loose enough to err."""
    m = (build_and_chain(AndModelParams(0.3, 0.6, 2)) if network == "two-terminal"
         else build_collocated_chain(2, [0.5, 0.5]))
    n_len, trials, seed = 8, 3000, 41
    plans = plan_protocol(m, n_len, PartitionPolicy(mode="threshold", delta=0.3))
    report = function_error_rate(m, plans, n_len, trials, seed)
    sources = sample_sources(m, n_len, trials, seed)
    result = report["result"]
    for which, out in result.outputs.items():
        truth = m.functions[which][tuple(sources[s] for s in m.source_vars)]
        erased = result.erasures[which]
        bad = (out != truth) | erased
        want = {"block_error": float(bad.any(axis=1).mean()),
                "symbol_error": float(bad.mean()), "erasure": float(erased.mean())}
        assert want["block_error"] > 0.0
        for key, rate in want.items():
            assert type(report[which][key]) is float and report[which][key] == rate


def test_collocated_function_error_all_transmit():
    c = build_collocated_chain(2, [0.5, 0.5])
    plans = plan_protocol(c, 8, ALL_TRANSMIT)
    report = function_error_rate(c, plans, 8, trials=300, seed=31)
    assert report["f"]["block_error"] == 0.0


def test_measured_rates_match_targets_when_sized_at_theory():
    m = build_and_chain(AndModelParams(0.5, 0.5, 2))
    plans = plan_protocol(m, 64, PartitionPolicy(mode="target_rate"),
                          profile_method="monte_carlo", profile_samples=256,
                          profile_seed=1)
    for row in measured_rates(plans):
        assert abs(row["measured"] - round(64 * row["target"]) / 64) < 1e-12


def test_collocated_round1_rate_target():
    c = build_collocated_chain(2, [0.3, 0.5])
    plans = plan_protocol(c, 8, ALL_TRANSMIT)
    rows = measured_rates(plans)
    h2_03 = -(0.3 * np.log2(0.3) + 0.7 * np.log2(0.7))
    assert abs(rows[0]["target"] - h2_03) < 1e-12


def test_oracle_chain_factors_match_engine_chain_probability():
    """Dual route: the verification tables equal sc.chain_probability, on
    the transmitter's tags and on the receiver's, whose copied indices
    (F_r and I') the engine pins to the block itself. The second plan has
    one index in each of F_r, F_d, I' and I \\ I'."""
    m = build_and_chain(AndModelParams(0.3, 0.6, 2))
    policies = (PartitionPolicy(mode="threshold", delta=0.2),
                PartitionPolicy(mode="target_rate", fractions=(0.25, 0.25, 0.25),
                                fd_z_cap=None, fr_z_cap=None))
    rng = np.random.default_rng(37)
    for policy in policies:
        for plan in plan_protocol(m, 4, policy):
            part = plan.partition
            sides = ((plan.tx_channel, part.tags_for_transmitter()),
                     (plan.rx_channel, part.tags_for_receiver()))
            for ch, tags in sides:
                table = sampled_chain_table(ch, tags, 4)
                for _ in range(25):
                    obs = rng.integers(0, ch.obs_size, 4)
                    v_block = rng.integers(0, 2, 4).astype(np.uint8)
                    obs_int = int(sum(int(o) * ch.obs_size ** (3 - k)
                                      for k, o in enumerate(obs)))
                    v_int = int(sum(int(b) << (3 - k) for k, b in enumerate(v_block)))
                    engine = chain_probability(ch, obs, SamplingPolicy(tags, v_block), v_block)
                    assert abs(engine - table[obs_int, v_int]) < 1e-9
    assert part.f_r.size and part.f_d.size and 0 < part.i_prime.size < part.info.size


def test_sampled_chain_table_rows_are_laws():
    m = build_and_chain(AndModelParams(0.3, 0.6, 2))
    ch = SymbolChannel.from_joint(m.joint, "u2", ("y", "u1"))
    tags = np.array([0, 1, 2, 2], dtype=np.uint8)
    table = sampled_chain_table(ch, tags, 4)
    assert np.abs(table.sum(axis=1) - 1.0).max() < 1e-10


def _engine_route_full_chain_laws(model, plans, n_len):
    """Enumerate every protocol path with sc.chain_probability (engine route).

    For a two-terminal binary model run through the t rounds of `plans`,
    returns (q_a, q_b, p_ideal, agree): terminal A's and terminal B's
    history laws and the ideal over (x-int, y-int, u1-int, ..., ut-int),
    axes as in split_block_joint, and the probability that both terminals
    hold the same u-block after every round. Each transmitter block is one
    engine call, and the receiver's 2^N candidate blocks one batched call.
    """
    import itertools
    from polarcomm.transform import apply_transform

    def to_int(digits):
        out = 0
        for d in digits:
            out = out * 2 + int(d)
        return out

    t, n_v = len(plans), 1 << n_len
    q_a = np.zeros((n_v,) * (2 + t))
    q_b = np.zeros_like(q_a)
    p_ideal = np.zeros_like(q_a)
    per_sym = model.joint.marginal(("x", "y") + model.u_vars[:t]).mass
    p_xy = model.joint.marginal(("x", "y")).mass
    us = np.array(list(itertools.product((0, 1), repeat=n_len)), dtype=np.uint8)
    vs = apply_transform(us)  # row w: the v-block of u-block w
    agree = 0.0

    def walk(k, weight, known):
        """Extend the path of weight `weight` by rounds k, ..., t."""
        nonlocal agree
        if k == t:
            a_hist = [known["A"][f"u{j}"] for j in range(1, t + 1)]
            b_hist = [known["B"][f"u{j}"] for j in range(1, t + 1)]
            cell = (to_int(known["A"]["x"]), to_int(known["B"]["y"]))
            q_a[cell + tuple(map(to_int, a_hist))] += weight
            q_b[cell + tuple(map(to_int, b_hist))] += weight
            if all(np.array_equal(a, b) for a, b in zip(a_hist, b_hist)):
                agree += weight
            return
        plan = plans[k]
        tx, rx = plan.transmitter, "B" if plan.transmitter == "A" else "A"
        obs_tx = plan.tx_channel.flatten_obs([known[tx][var] for var in plan.tx_obs_vars])
        obs_rx = plan.rx_channel.flatten_obs([known[rx][var] for var in plan.rx_obs_vars])
        tx_policy = SamplingPolicy(plan.partition.tags_for_transmitter())
        copied = plan.partition.copied
        for w_tx in range(n_v):
            c_tx = chain_probability(plan.tx_channel, obs_tx, tx_policy, vs[w_tx])
            if weight * c_tx == 0.0:
                continue
            pinned = np.zeros((n_v, n_len), dtype=np.uint8)
            pinned[:, copied] = vs[w_tx, copied]
            rx_policy = SamplingPolicy(plan.partition.tags_for_receiver(), pinned)
            c_rx = chain_probability(plan.rx_channel, np.tile(obs_rx, (n_v, 1)), rx_policy, vs)
            for w_rx in np.flatnonzero(c_rx):
                walk(k + 1, weight * c_tx * c_rx[w_rx],
                     {tx: {**known[tx], plan.bit_var: us[w_tx]},
                      rx: {**known[rx], plan.bit_var: us[w_rx]}})

    for xb in us:
        for yb in us:
            p_src = np.prod([p_xy[xb[i], yb[i]] for i in range(n_len)])
            walk(0, p_src, {"A": {"x": xb}, "B": {"y": yb}})
            for hist in itertools.product(us, repeat=t):
                prob = np.prod([per_sym[(xb[i], yb[i]) + tuple(u[i] for u in hist)]
                                for i in range(n_len)])
                p_ideal[(to_int(xb), to_int(yb)) + tuple(map(to_int, hist))] = prob
    return q_a, q_b, p_ideal, agree


def test_full_chain_tv_matches_engine_route_enumeration():
    """Dual route: exact TV of r >= 2 rounds on both sides and exact
    agreement equal a path-by-path enumeration driven entirely through the
    SC engine. On AND t = 2 at N = 2 (both rounds), the threshold policy
    exercises F_d and an empty I', and the sparse one the shared-F_r
    coupling with an untransmitted information index. On AND t = 4, three
    and all four rounds at N = 1, whose policies put each round's one index
    in I' or I \\ I', in F_d and in F_r, and three rounds at N = 2."""
    threshold = PartitionPolicy(mode="threshold", delta=0.3)

    def sparse(fractions):
        return PartitionPolicy(mode="target_rate", fractions=fractions,
                               fd_z_cap=None, fr_z_cap=None)

    and_t2 = build_and_chain(AndModelParams(0.11, 0.4, 2))
    and_t4 = build_and_chain(AndModelParams(0.4, 0.5, 4))
    cases = [(and_t2, 2, policy, (None,)) for policy in (threshold, sparse((0.0, 0.5, 0.0)))]
    cases += [(and_t4, 1, policy, (3, None))
              for policy in (threshold, sparse((1.0, 0.0, 0.0)), sparse((0.0, 1.0, 0.0)))]
    cases += [(and_t4, 2, policy, (3,)) for policy in (threshold, sparse((0.0, 0.5, 0.0)))]
    for m, n_len, policy, rounds_list in cases:
        plans = plan_protocol(m, n_len, policy)
        for rounds in rounds_list:
            chain = plans if rounds is None else plans[:rounds]
            q_a, q_b, p_ideal, agree = _engine_route_full_chain_laws(m, chain, n_len)
            for side, q in (("tx", q_a), ("rx", q_b)):
                tv = exact_q_tv(m, plans, n_len, side, rounds=rounds)
                assert abs(np.abs(q - p_ideal).sum() - tv) < 1e-9
            assert abs(agree - agreement_probability(m, chain, n_len, "exact")) < 1e-9

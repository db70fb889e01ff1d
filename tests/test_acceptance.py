"""Acceptance suite: one test per criterion, run with -v for per-line status.

Criterion 9 encodes the stated end-to-end target (0.05 bits/symbol margin at
N = 1024) and fails honestly on it. On the shipped seeds every f_A and sink
failure begins in round 2 at a receiver-sampled index (I minus I'), not in
F_d. At this I'/F_d partition even ML decoding of round 2 misses the target:
an exact ML bound, with F_d given to the receiver, puts block error at 0.107
or more for f_A and 0.086 or more for the collocated sink, so no receiver
decoder can make criterion 9 pass without a different partition. The companion test right after it pins the same
pipeline at a 0.15 margin. See the companion's docstring for the measured
margin curve.
"""
import json
import time

import numpy as np

from polarcomm.cli import main as cli_main
from polarcomm.models import (
    AndModelParams,
    binary_entropy,
    build_and_chain,
    build_bsc_chain,
    build_collocated_chain,
    bsc_round_rate,
    sum_rates,
)
from polarcomm.probability import JointPmf, bhattacharyya
from polarcomm.protocol import plan_protocol
from polarcomm.reliability import (
    PartitionPolicy,
    ReliabilityProfile,
    build_partition,
    profile_exact,
    profile_monte_carlo,
    with_fractions,
)
from polarcomm.sc import PairStack, SymbolChannel, _leaf_pairs
from polarcomm.transform import apply_transform, bit_reversal_perm
from polarcomm.verification import (
    agreement_probability,
    exact_q_tv,
    function_error_rate,
    measured_rates,
)

ALL_TRANSMIT = PartitionPolicy(mode="target_rate", fractions=(0.0, 0.0, 1.0))


def test_criterion_01_transform_involution_and_linearity():
    """1000 random vectors per N in {2,...,1024}: exact involution/linearity."""
    start = time.time()
    rng = np.random.default_rng(101)
    for n in range(1, 11):
        n_len = 1 << n
        a = rng.integers(0, 2, size=(1000, n_len)).astype(np.uint8)
        b = rng.integers(0, 2, size=(1000, n_len)).astype(np.uint8)
        assert np.array_equal(apply_transform(apply_transform(a)), a)
        assert np.array_equal(
            apply_transform(a ^ b), apply_transform(a) ^ apply_transform(b)
        )
    elapsed = time.time() - start
    assert elapsed < 5.0, f"transform checks took {elapsed:.1f}s"


def _oracle_block_tables(table, n_len):
    """Test-local exact oracle: P[obs-int, v-int] via the Kronecker matrix."""
    m = table.shape[1]
    big_f = np.array([[1]], dtype=np.uint8)
    for _ in range(n_len.bit_length() - 1):
        big_f = np.kron(np.array([[1, 0], [1, 1]], dtype=np.uint8), big_f)
    rev = np.zeros((n_len, n_len), dtype=np.uint8)
    for i, j in enumerate(bit_reversal_perm(n_len.bit_length() - 1)):
        rev[i, j] = 1
    matrix = (rev @ big_f) % 2
    u_bits = ((np.arange(1 << n_len)[:, None] >> np.arange(n_len - 1, -1, -1)) & 1)
    v_ints = ((u_bits @ matrix) % 2) @ (1 << np.arange(n_len - 1, -1, -1))
    obs_digits = (np.arange(m**n_len)[:, None] // (m ** np.arange(n_len - 1, -1, -1))) % m
    joint_u = np.ones((m**n_len, 1 << n_len))
    for k in range(n_len):
        joint_u *= table[u_bits[None, :, k], obs_digits[:, None, k]]
    joint_v = np.empty_like(joint_u)
    joint_v[:, v_ints] = joint_u
    return obs_digits, joint_v


def _compare_channel_to_oracle(ch, n_len, chunk_obs=512):
    """Max |engine pair - oracle conditional| over every prefix/observation."""
    obs_digits, joint_v = _oracle_block_tables(ch.table, n_len)
    n_obs = joint_v.shape[0]
    v_all = ((np.arange(1 << n_len)[:, None] >> np.arange(n_len - 1, -1, -1)) & 1
             ).astype(np.uint8)
    worst = 0.0
    for start in range(0, n_obs, chunk_obs):
        sl = slice(start, min(start + chunk_obs, n_obs))
        c = sl.stop - sl.start
        obs_rows = np.repeat(obs_digits[sl], 1 << n_len, axis=0)
        v_rows = np.tile(v_all, (c, 1))
        stack = PairStack(_leaf_pairs(ch, obs_rows.T))
        level = joint_v[sl]  # P(v^{1:N}, obs) cascade, truncated top-down
        cascades = [level]
        for i in range(n_len, 1, -1):
            level = level.reshape(c, 1 << (i - 1), 2).sum(axis=2)
            cascades.append(level)
        cascades.reverse()  # cascades[i] = P(v^{1:i}, obs), i = 1..N
        rows = np.repeat(np.arange(c), 1 << n_len)
        prefix = np.zeros(v_rows.shape[0], dtype=np.int64)
        for phi in range(n_len):
            pair, _ = stack.pair_at(phi, v_rows.T)
            tab = cascades[phi].reshape(c, -1, 2)  # (obs, prefix, bit)
            if phi:  # v^{1:phi} as an integer, most significant bit first
                prefix = 2 * prefix + v_rows[:, phi - 1]
            num = tab[rows, prefix]          # (rows, 2) joint pair
            den = num[:, 0] + num[:, 1]  # the sum over the bit, without a slow axis-1 reduce
            ok = den > 0
            want = num[ok] / den[ok, None]
            worst = max(worst, np.abs(pair[ok] - want).max(initial=0.0))
    return worst


def test_criterion_02_sc_oracle_equivalence():
    """All prefixes and observations at N in {2,4,8} match brute force."""
    start = time.time()
    and_model = build_and_chain(AndModelParams(0.3, 0.6, 2))
    bsc = build_bsc_chain(0.11, 0.2)
    channels = [
        SymbolChannel.from_joint(and_model.joint, "u1", ("x",)),
        SymbolChannel.from_joint(and_model.joint, "u1", ("y",)),
        SymbolChannel.from_joint(and_model.joint, "u2", ("y", "u1")),
        SymbolChannel.from_joint(and_model.joint, "u2", ("x", "u1")),
        SymbolChannel.from_joint(bsc.joint, "u1", ("x",)),
        SymbolChannel.from_joint(bsc.joint, "u1", ("y",)),
        SymbolChannel.from_joint(bsc.joint, "u1", ()).prior(),
    ]
    worst = 0.0
    for ch in channels:
        for n_len in (2, 4, 8):
            worst = max(worst, _compare_channel_to_oracle(ch, n_len))
    elapsed = time.time() - start
    assert worst <= 1e-10, f"max |engine - oracle| = {worst:.3e}"
    assert elapsed < 120.0, f"oracle comparison took {elapsed:.1f}s"


def test_criterion_03_bhattacharyya_extremes_and_formula():
    uniform = JointPmf((("t", 2), ("v", 2)), np.outer([0.5, 0.5], [0.5, 0.5]))
    assert bhattacharyya(uniform, "t", ("v",)) == 1.0
    det = np.zeros((2, 2))
    det[0, 0] = det[1, 1] = 0.5
    deterministic = JointPmf((("t", 2), ("v", 2)), det)
    assert bhattacharyya(deterministic, "t", ("v",)) == 0.0
    for p in (0.1, 0.25, 0.4, 0.49):
        j = JointPmf((("t", 2), ("v", 3)),
                     np.outer([1 - p, p], [0.3, 0.3, 0.4]))
        assert abs(bhattacharyya(j, "t", ("v",)) - 2 * np.sqrt(p * (1 - p))) < 1e-12


def _round_profiles(model, round_index, tx_vars, rx_vars, n_len):
    bit = f"u{round_index}"
    prior = SymbolChannel.from_joint(model.joint, bit, ()).prior()
    tx = SymbolChannel.from_joint(model.joint, bit, tx_vars)
    rx = SymbolChannel.from_joint(model.joint, bit, rx_vars)
    return (
        profile_exact(prior, n_len, "none"),
        profile_exact(tx, n_len, "tx"),
        profile_exact(rx, n_len, "rx"),
    )


def test_criterion_04_partition_algebra_and_inclusions():
    and_model = build_and_chain(AndModelParams(0.3, 0.6, 2))
    bsc = build_bsc_chain(0.11, 0.2)
    # exhaustive small-N: disjoint cover and I' within I for every policy
    for n_len in (2, 4, 8):
        for model, tx_vars, rx_vars in (
            (and_model, ("x",), ("y",)),
            (bsc, ("x",), ("y",)),
        ):
            zu, zt, zr = _round_profiles(model, 1, tx_vars, rx_vars, n_len)
            policies = [
                PartitionPolicy(mode="threshold", beta=0.3),
                PartitionPolicy(mode="threshold", delta=0.2),
                with_fractions(PartitionPolicy(mode="target_rate"), (0.2, 0.3, 0.4)),
            ]
            for policy in policies:
                part = build_partition(zu, zt, zr, policy)
                cover = np.sort(np.concatenate([part.f_r, part.f_d, part.info]))
                assert np.array_equal(cover, np.arange(n_len))
                assert np.isin(part.i_prime, part.info).all()
            # conditioning inclusions, zero violations on exact profiles:
            # H_{U|obs} within H_U and L_U within L_{U|obs}
            assert np.all(zt.z <= zu.z + 1e-12)
            assert np.all(zr.z <= zu.z + 1e-12)
            # Markov inclusion under U -> X -> Y: L_{U|Y} within L_{U|X}
            assert np.all(zr.z >= zt.z - 1e-12)
    # randomized profiles at N = 1024
    rng = np.random.default_rng(104)
    n_len = 1024
    prof = lambda z, c: ReliabilityProfile(n_len, c, z, "exact")
    for _ in range(5):
        zu = rng.random(n_len)
        zt = zu * rng.random(n_len)
        zr = np.clip(zt + rng.random(n_len) * (zu - zt), 0, 1)
        for policy in (
            PartitionPolicy(mode="threshold", beta=0.3),
            with_fractions(PartitionPolicy(mode="target_rate"), (0.3, 0.2, 0.25)),
        ):
            part = build_partition(prof(zu, "none"), prof(zt, "tx"), prof(zr, "rx"), policy)
            cover = np.sort(np.concatenate([part.f_r, part.f_d, part.info]))
            assert np.array_equal(cover, np.arange(n_len))
            assert np.isin(part.i_prime, part.info).all()


def test_criterion_05_monte_carlo_profiler():
    and_model = build_and_chain(AndModelParams(0.3, 0.6, 2))
    bsc = build_bsc_chain(0.11, 0.2)
    for joint, bit, obs_vars in (
        (and_model.joint, "u2", ("y", "u1")),
        (bsc.joint, "u1", ("x",)),
    ):
        ch = SymbolChannel.from_joint(joint, bit, obs_vars)
        exact = profile_exact(ch, 4)
        mc = profile_monte_carlo(ch, 4, 100_000, seed=105)
        again = profile_monte_carlo(ch, 4, 100_000, seed=105)
        assert np.array_equal(mc.z, again.z), "profiler is not deterministic"
        for i in range(4):
            assert abs(mc.z[i] - exact.z[i]) <= 3 * mc.stderr[i] + 1e-12, (
                f"index {i}: mc={mc.z[i]} exact={exact.z[i]} se={mc.stderr[i]}"
            )


def test_criterion_06_tv_trend_and_agreement():
    start = time.time()
    m = build_and_chain(AndModelParams(0.11, 0.4, 2))
    policy = PartitionPolicy(mode="threshold", beta=0.4)
    tv = {"tx": [], "rx": []}
    for n_len in (2, 4, 8):
        plans = plan_protocol(m, n_len, policy)
        for side in ("tx", "rx"):
            tv[side].append(exact_q_tv(m, plans, n_len, side, rounds=1))
    for side in ("tx", "rx"):
        ladder = tv[side]
        assert all(a >= b - 1e-15 for a, b in zip(ladder, ladder[1:])), (
            f"{side} TV ladder not non-increasing: {ladder}"
        )
    # all-transmit configuration: exactly zero on both sides
    plans_full = plan_protocol(m, 4, ALL_TRANSMIT)
    assert exact_q_tv(m, plans_full, 4, "tx", rounds=1) == 0.0
    assert exact_q_tv(m, plans_full, 4, "rx", rounds=1) == 0.0
    # agreement with F_d limited to exactly-reliable indices (z <= 1e-3)
    for n_len in (2, 4):
        plans = plan_protocol(m, n_len, PartitionPolicy(mode="threshold", delta=1e-3))
        for plan in plans:
            assert np.all(plan.profiles["uncond"].z[plan.partition.f_d] <= 1e-3)
        agree = agreement_probability(m, plans, n_len, "exact")
        assert agree >= 0.99, f"N={n_len}: agreement {agree}"
    elapsed = time.time() - start
    assert elapsed < 300.0, f"criterion 6 took {elapsed:.1f}s"


def test_criterion_07_bsc_rate_convergence():
    start = time.time()
    m = build_bsc_chain(0.11, 0.2)
    theory = bsc_round_rate(0.11, 0.2)
    policy = PartitionPolicy(mode="threshold", beta=0.3)
    gaps = []
    for n_len in (256, 1024, 4096):
        plans = plan_protocol(m, n_len, policy, profile_method="monte_carlo",
                              profile_samples=2000, profile_seed=17)
        measured = measured_rates(plans)[0]["measured"]
        gaps.append(abs(measured - theory))
    assert all(a > b for a, b in zip(gaps, gaps[1:])), (
        f"|measured - theory| not strictly decreasing: {gaps}"
    )
    elapsed = time.time() - start
    assert elapsed < 900.0, f"criterion 7 took {elapsed:.1f}s"


def test_criterion_08_sum_rate_reproduction():
    sr = sum_rates(0.5, 0.5)
    assert sr["r_sum_two_round_A"] == 1.5
    assert abs(sr["r_sum_infinity"] - 1.360674) <= 1e-6
    # strict inequality on a 9 x 11 = 99-point grid
    for p in np.linspace(0.1, 0.9, 9):
        for q in np.linspace(0.05, 0.95, 11):
            grid = sum_rates(float(p), float(q))
            assert grid["r_sum_infinity"] < grid["r_sum_two_round_A"], (p, q)


def _end_to_end(margin, trials=200, seed=142):
    n_len = 1024
    m = build_and_chain(AndModelParams(0.5, 0.5, 2))
    plans = plan_protocol(m, n_len, PartitionPolicy(mode="target_rate"),
                          rate_margin=margin, profile_method="monte_carlo",
                          profile_samples=4096, profile_seed=123)
    report = function_error_rate(m, plans, n_len, trials=trials, seed=seed)
    result = report.pop("result")
    c = build_collocated_chain(2, [0.5, 0.5])
    cplans = plan_protocol(c, n_len, PartitionPolicy(mode="target_rate"),
                           rate_margin=margin, profile_method="monte_carlo",
                           profile_samples=4096, profile_seed=123)
    creport = function_error_rate(c, cplans, n_len, trials=trials, seed=seed + 1)
    creport.pop("result")
    return report, result, creport


def test_criterion_09_end_to_end_function_computation():
    # Known red: at margin 0.05 and N=1024 the f_A and sink block errors are
    # 0.83 and 0.845. Every failure begins in round 2 at a receiver-sampled
    # index (I minus I'), and with this I'/F_d even ML decoding of round 2
    # has block error at least 0.107 (f_A) / 0.086 (sink). Kept faithful to
    # the stated target; the companion test below exercises the same
    # pipeline at a 0.15 margin.
    start = time.time()
    report, result, creport = _end_to_end(margin=0.05)
    elapsed = time.time() - start
    assert elapsed < 600.0, f"criterion 9 took {elapsed:.1f}s"
    for side in ("f_A", "f_B"):
        assert report[side]["block_error"] <= 0.05, (
            f"{side} block error {report[side]['block_error']} above the 5% target"
        )
    assert creport["f"]["block_error"] <= 0.05, (
        f"sink block error {creport['f']['block_error']} above the 5% target"
    )
    # A trial in which f_A and f_B disagree on a non-erased symbol is a block
    # error on at least one side, so it gets the same 5% budget.
    za, zb = result.outputs["f_A"], result.outputs["f_B"]
    keep = ~result.erasures["f_A"] & ~result.erasures["f_B"]
    disagree = ((za != zb) & keep).any(axis=1).mean()
    assert disagree <= 0.05, f"non-erased outputs disagree in {disagree} of trials"


def test_end_to_end_companion_wider_margin():
    """Companion diagnostic for the end-to-end run: same pipeline, 0.15-bit
    margin. Measured block error vs margin at N=1024 (seeds as shipped):
    0.05 -> ~0.87, 0.10 -> ~0.26, 0.15 -> ~0.01, 0.20 -> 0.00. At 0.05 the
    failures begin at receiver-sampled indices (I minus I') of round 2, and
    the exact ML floor at that partition is 0.107 (f_A) / 0.086 (sink), so
    no receiver decoder reaches 5% there without a different partition."""
    report, result, creport = _end_to_end(margin=0.15)
    za, zb = result.outputs["f_A"], result.outputs["f_B"]
    keep = ~result.erasures["f_A"] & ~result.erasures["f_B"]
    assert (za[keep] == zb[keep]).mean() >= 0.99
    for side in ("f_A", "f_B"):
        assert report[side]["block_error"] <= 0.05
    assert creport["f"]["block_error"] <= 0.05


def test_criterion_10_cli_determinism(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "model": "and", "p": 0.3, "q": 0.6, "n": 4,
        "partition_mode": "threshold", "delta": 0.2,
        "trials": 25, "shared_seed": 11,
    }))
    outputs = []
    for name in ("one", "two"):
        out = tmp_path / name
        assert cli_main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
        assert cli_main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        outputs.append((
            (out / "verify.json").read_bytes(),
            (out / "simulate.json").read_bytes(),
        ))
    assert outputs[0] == outputs[1]

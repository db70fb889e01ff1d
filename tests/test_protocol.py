"""Protocol tests: planning, round execution, function computation."""
import json
from pathlib import Path

import numpy as np
import pytest

from polarcomm.models import (
    AndModelParams,
    build_and_chain,
    build_bsc_chain,
    build_collocated_chain,
)
from polarcomm.probability import AuxChainModel, JointPmf
from polarcomm.protocol import (
    ModelError,
    compute_function,
    plan_protocol,
    run_collocated,
    run_two_terminal,
    sample_sources,
)
from polarcomm.reliability import PartitionPolicy
from polarcomm.verification import function_error_rate

DATA = Path(__file__).parent / "data"

ALL_TRANSMIT = PartitionPolicy(mode="target_rate", fractions=(0.0, 0.0, 1.0))


def test_plan_alternation_and_channels():
    m = build_and_chain(AndModelParams(0.5, 0.5, 2))
    plans = plan_protocol(m, 4, ALL_TRANSMIT)
    assert [p.transmitter for p in plans] == ["A", "B"]
    assert plans[0].tx_obs_vars == ("x",)
    assert plans[1].tx_obs_vars == ("y", "u1")
    assert plans[1].rx_obs_vars == ("x", "u1")
    assert abs(plans[0].target_rate - 1.0) < 1e-12
    assert abs(plans[1].target_rate - 0.5) < 1e-12


def test_plan_uniform_independent_aux_gives_empty_info_set():
    """U1 uniform and independent of the sources: round 1 sends nothing."""
    mass = np.full((2, 2, 2), 1 / 8)  # x, y, u1 all independent uniform
    model = AuxChainModel(
        joint=JointPmf((("x", 2), ("y", 2), ("u1", 2)), mass),
        rounds=1,
        round_sources=("x",),
        markov_specs=((("u1",), ("x",), ("y",)),),
        functions={"f_A": np.zeros((2, 2), dtype=int),
                   "f_B": np.zeros((2, 2), dtype=int)},
    )
    plans = plan_protocol(model, 4, PartitionPolicy(mode="threshold", delta=0.1))
    part = plans[0].partition
    assert part.f_d.size == 0          # z_uncond = 1 everywhere
    assert part.f_r.size == 4          # z_tx = 1: the F_r condition holds
    assert part.info.size == 0
    assert part.i_prime.size == 0      # zero message bits


def test_plan_rejects_markov_violation():
    mass = np.zeros((2, 2, 2))
    for x in (0, 1):
        for y in (0, 1):
            for u in (0, 1):
                mass[x, y, u] = 0.25 * (0.9 if u == y else 0.1)
    model = AuxChainModel(
        joint=JointPmf((("x", 2), ("y", 2), ("u1", 2)), mass),
        rounds=1, round_sources=("x",),
        markov_specs=((("u1",), ("x",), ("y",)),),
        functions={"f_A": np.zeros((2, 2), dtype=int),
                   "f_B": np.zeros((2, 2), dtype=int)},
    )
    with pytest.raises(ModelError):
        plan_protocol(model, 4, ALL_TRANSMIT)


def test_collocated_plan_broadcast_order():
    c = build_collocated_chain(2, [0.5, 0.5])
    plans = plan_protocol(c, 4, ALL_TRANSMIT)
    assert [p.transmitter for p in plans] == ["x1", "x2"]
    assert plans[1].rx_obs_vars == ("u1",)
    assert abs(plans[0].target_rate - 1.0) < 1e-12
    assert abs(plans[1].target_rate - 0.5) < 1e-12


def test_all_transmit_runs_lossless():
    """I' = [N] pins everything: both terminals agree and compute x AND y."""
    m = build_and_chain(AndModelParams(0.5, 0.5, 2))
    plans = plan_protocol(m, 8, ALL_TRANSMIT)
    src = sample_sources(m, 8, 32, seed=5)
    res = run_two_terminal(m, src["x"], src["y"], plans, shared_seed=1, private_seed=2)
    assert res.agreement.all()
    truth = src["x"] & src["y"]
    assert np.array_equal(res.outputs["f_A"], truth)
    assert np.array_equal(res.outputs["f_B"], truth)
    assert not res.erasures["f_A"].any()
    assert res.anomalies == 0
    assert res.rates == (1.0, 1.0)


def test_fr_only_plan_agrees_through_shared_stream():
    """A uniform-independent auxiliary handled entirely by common randomness."""
    mass = np.full((2, 2, 2), 1 / 8)
    model = AuxChainModel(
        joint=JointPmf((("x", 2), ("y", 2), ("u1", 2)), mass),
        rounds=1, round_sources=("x",),
        markov_specs=((("u1",), ("x",), ("y",)),),
        functions={"f_A": np.zeros((2, 2), dtype=int),
                   "f_B": np.zeros((2, 2), dtype=int)},
    )
    plans = plan_protocol(model, 8, PartitionPolicy(mode="threshold", delta=0.1))
    assert plans[0].partition.f_r.size == 8
    src = sample_sources(model, 8, 16, seed=3)
    res = run_two_terminal(model, src["x"], src["y"], plans, shared_seed=9, private_seed=10)
    assert res.agreement.all()
    assert res.transcript.total_bits == 0


def test_golden_transcript_reproduced():
    m = build_and_chain(AndModelParams(0.3, 0.6, 2))
    plans = plan_protocol(m, 4, PartitionPolicy(mode="threshold", delta=0.2))
    x = np.array([1, 0, 1, 1], dtype=np.uint8)
    y = np.array([0, 1, 1, 0], dtype=np.uint8)
    res = run_two_terminal(m, x, y, plans, shared_seed=2024, private_seed=7)
    golden = (DATA / "golden_transcript.json").read_text().strip()
    assert res.transcript.to_json() == golden


def test_collocated_golden_transcript_reproduced():
    """m = 2, N = 4, exact profiles, half of I sent: receivers sample the rest."""
    c = build_collocated_chain(2, [0.3, 0.6])
    plans = plan_protocol(c, 4, PartitionPolicy(mode="target_rate", fractions=(0.0, 0.0, 0.5)),
                          profile_method="exact")
    x1 = np.array([[1, 0, 1, 1], [0, 0, 1, 0], [1, 1, 0, 1]], dtype=np.uint8)
    x2 = np.array([[0, 1, 1, 0], [1, 1, 1, 0], [0, 0, 1, 1]], dtype=np.uint8)
    res = run_collocated(c, {"x1": x1, "x2": x2}, plans, shared_seed=2024, private_seed=7)
    golden = (DATA / "golden_collocated_transcript.json").read_text().strip()
    assert res.transcript.to_json() == golden
    assert res.outputs["f"].tolist() == [[0, 0, 0, 0], [0, 0, 1, 0], [0, 0, 1, 0]]
    assert res.agreement.tolist() == [[False, True, False], [True, False, True]]


def test_profile_and_protocol_streams_never_collide():
    """t = 12 at profile seeds 0 and 1: every Monte Carlo profile, and every
    protocol stream of the same seeds, draws from its own stream."""
    from polarcomm.protocol import derive_rng

    def stream(seed):
        key = seed if isinstance(seed, tuple) else (seed,)
        return derive_rng(*key).random(4).tobytes()

    m = build_and_chain(AndModelParams(0.5, 0.5, 12))
    streams = []
    for seed in (0, 1):
        plans = plan_protocol(m, 4, ALL_TRANSMIT, profile_method="monte_carlo",
                              profile_samples=8, profile_seed=seed)
        streams += [stream(prof.seed) for plan in plans for prof in plan.profiles.values()]
        streams += [stream((seed, 0, r)) for r in range(1, 13)]  # shared, per round
        streams += [stream((seed, 1, k)) for k in range(3)]  # private, per party
        streams.append(stream((seed, 2)))  # sources
    assert len(streams) == 2 * (36 + 16)
    assert len(set(streams)) == len(streams)


def test_message_bits_count_and_framing():
    m = build_and_chain(AndModelParams(0.3, 0.6, 2))
    plans = plan_protocol(m, 8, PartitionPolicy(mode="threshold", delta=0.2))
    src = sample_sources(m, 8, 4, seed=8)
    res = run_two_terminal(m, src["x"], src["y"], plans, shared_seed=0, private_seed=1)
    for plan, tr_round in zip(plans, res.transcript.rounds):
        assert tr_round.bit_count == plan.partition.i_prime.size
        assert tr_round.messages.shape == (4, plan.partition.i_prime.size)
    assert res.transcript.total_bits == sum(
        p.partition.i_prime.size for p in plans
    )


def test_zero_round_model():
    """t = 0: f_A depends only on X; empty transcript, direct evaluation."""
    mass = np.outer([0.4, 0.6], [0.7, 0.3])
    model = AuxChainModel(
        joint=JointPmf((("x", 2), ("y", 2)), mass),
        rounds=0, round_sources=(), markov_specs=(),
        functions={"f_A": np.array([[0, 0], [1, 1]]),
                   "f_B": np.array([[0, 1], [0, 1]])},
    )
    x = np.array([1, 0, 1, 0], dtype=np.uint8)
    y = np.array([0, 0, 1, 1], dtype=np.uint8)
    res = run_two_terminal(model, x, y, [], shared_seed=0, private_seed=0)
    assert np.array_equal(res.outputs["f_A"], x)
    assert np.array_equal(res.outputs["f_B"], y)
    assert res.transcript.total_bits == 0


def test_exchanging_pinned_roles_leaves_tx_block_unchanged():
    """Within a round, shrinking I' only affects the receiver's block."""
    from polarcomm.protocol import TerminalState, derive_rng, run_round

    m = build_and_chain(AndModelParams(0.3, 0.6, 2))
    full = plan_protocol(m, 8, ALL_TRANSMIT)
    partial = plan_protocol(
        m, 8, PartitionPolicy(mode="target_rate", fractions=(0.0, 0.0, 0.5))
    )
    src = sample_sources(m, 8, 8, seed=11)
    u_tx_blocks = []
    for plans in (full, partial):
        # run_round holds blocks trial-last, (N, B)
        tx = TerminalState({"x": src["x"].T}, derive_rng(4, 1, 0))
        rx = TerminalState({"y": src["y"].T}, derive_rng(4, 1, 1))
        _, u_tx, _ = run_round(plans[0], tx, [rx], derive_rng(3, 0, 1))
        u_tx_blocks.append(u_tx)
    assert np.array_equal(u_tx_blocks[0], u_tx_blocks[1])


def _receivers_draw_fr(model, parties, plans, shared_seed, private_seed, fd_policy):
    """Reference of the rule where receivers draw F_r themselves: each
    receiver pins I' only and walks with its own fresh copy of the round's
    shared stream. Returns ({role: [(B, N) u-blocks]}, anomaly count)."""
    from polarcomm.protocol import TerminalState, derive_rng
    from polarcomm.sc import PINNED, AnomalyLog, SamplingPolicy, sample_sequential
    from polarcomm.transform import apply_transform

    states = {role: TerminalState({v: np.atleast_2d(b) for v, b in obs.items()},
                                  derive_rng(private_seed, 1, k))
              for k, (role, obs) in enumerate(parties)}
    log = AnomalyLog()
    for plan in plans:
        part, tx = plan.partition, states[plan.transmitter]
        v_tx = sample_sequential(
            plan.tx_channel, tx.flat_obs(plan.tx_obs_vars, plan.tx_channel),
            SamplingPolicy(part.tags_for_transmitter()), tx.private_rng,
            shared_rng=derive_rng(shared_seed, 0, plan.round_index),
            fd_mode=fd_policy, anomalies=log)
        tx.u_history.append(apply_transform(v_tx))
        tags = part.tags_for_transmitter()
        tags[part.i_prime] = PINNED
        pinned = np.zeros_like(v_tx)
        pinned[:, part.i_prime] = v_tx[:, part.i_prime]
        for role, rx in states.items():
            if role == plan.transmitter:
                continue
            v_rx = sample_sequential(
                plan.rx_channel, rx.flat_obs(plan.rx_obs_vars, plan.rx_channel),
                SamplingPolicy(tags, pinned), rx.private_rng,
                shared_rng=derive_rng(shared_seed, 0, plan.round_index),
                fd_mode=fd_policy, anomalies=log)
            rx.u_history.append(apply_transform(v_rx))
    return {role: st.u_history for role, st in states.items()}, log.count


@pytest.mark.parametrize("fd_policy", ["sample", "argmax"])
@pytest.mark.parametrize("batched", [True, False])
def test_copying_fr_equals_receivers_drawing_it(fd_policy, batched):
    """A receiver's own F_r draw was u < 1/2 on the transmitter's uniform, so
    copying F_r from the transmitter changes no u-block and no anomaly count."""
    forced = PartitionPolicy(fractions=(0.1, 0.3, 0.3), fr_z_cap=None)
    cases = ((build_bsc_chain(0.11, 0.2), PartitionPolicy()),
             (build_and_chain(AndModelParams(0.3, 0.6, 2)), forced),
             (build_collocated_chain(3, [0.5, 0.4, 0.7]), forced))
    for model, policy in cases:
        plans = plan_protocol(model, 32, policy, profile_method="monte_carlo",
                              profile_samples=64, profile_seed=5)
        assert all(p.partition.f_r.size for p in plans)
        src = sample_sources(model, 32, 6, seed=11)
        src = {k: v if batched else v[0] for k, v in src.items()}
        if model.network == "two-terminal":
            parties = [("A", {"x": src["x"]}), ("B", {"y": src["y"]})]
            res = run_two_terminal(model, src["x"], src["y"], plans, shared_seed=3,
                                   private_seed=4, fd_policy=fd_policy)
        else:
            parties = [(s, {s: src[s]}) for s in model.source_vars] + [("sink", {})]
            res = run_collocated(model, src, plans, shared_seed=3, private_seed=4,
                                 fd_policy=fd_policy)
        blocks, anomalies = _receivers_draw_fr(model, parties, plans, 3, 4, fd_policy)
        assert res.anomalies == anomalies
        for role, us in blocks.items():
            assert len(res.u_blocks[role]) == len(us)
            for got, want in zip(res.u_blocks[role], us):
                assert np.array_equal(np.atleast_2d(got), want)


def test_compute_function_examples_and_erasures():
    m = build_and_chain(AndModelParams(0.5, 0.5, 2))
    x = np.array([[1, 0, 0]], dtype=np.uint8)
    u1 = np.array([[1, 0, 1]], dtype=np.uint8)  # third symbol inconsistent (u1 != x)
    u2 = np.array([[1, 0, 0]], dtype=np.uint8)
    z, erased = compute_function(x, [u1, u2], m, "f_A")
    assert z[0, 0] == 1 and not erased[0, 0]
    assert z[0, 1] == 0 and not erased[0, 1]
    assert erased[0, 2]


def test_compute_function_rejects_symbols_outside_the_alphabet():
    """x = -1 would alias x = 1 in the decode lookup and return f_A = 1."""
    m = build_and_chain(AndModelParams(0.5, 0.5, 2))
    u = np.array([[1, 1]], dtype=np.uint8)
    with pytest.raises(ValueError, match="'x'"):
        compute_function(np.array([[-1, 1]]), [u, u], m, "f_A")
    with pytest.raises(ValueError, match="'u2'"):
        compute_function(np.array([[1, 1]]), [u, u + 1], m, "f_A")


def test_compute_function_rejects_fractional_symbols():
    """x = 0.6 would be truncated to x = 0 in the decode lookup."""
    m = build_and_chain(AndModelParams(0.5, 0.5, 2))
    u = np.array([[1, 1]], dtype=np.uint8)
    with pytest.raises(ValueError, match="'x'"):
        compute_function(np.array([[0.6, 1]]), [u, u], m, "f_A")
    with pytest.raises(ValueError, match="'u1'"):
        compute_function(np.array([[1, 1]]), [u - 0.5, u], m, "f_A")
    z, erased = compute_function(np.array([[1.0, 1.0]]), [u, u], m, "f_A")
    assert z.tolist() == [[1, 1]] and not erased.any()


def _x_model(f_x):
    """x uniform on len(f_x) symbols, y a fair bit of its own, u1 = x mod 2
    sent by A in one round; f_A(x, y) = f_x[x] and f_B = u1 AND y."""
    size = len(f_x)
    x, y = np.ogrid[:size, :2]
    mass = np.zeros((size, 2, 2))
    mass[x, y, x % 2] = 0.5 / size
    return AuxChainModel(
        joint=JointPmf((("x", size), ("y", 2), ("u1", 2)), mass),
        rounds=1, round_sources=("x",), markov_specs=((("u1",), ("x",), ("y",)),),
        functions={"f_A": np.asarray(f_x)[x] + 0 * y, "f_B": (x % 2) & y},
    )


def test_sources_wider_than_256_symbols_keep_their_symbols():
    """A uniform 300-symbol source is drawn in uint16 (a 2-symbol one stays
    uint8), symbols >= 256 take their share (44/300) within a binomial
    bound, and a run on it computes both functions, also where f_A is x
    itself, whose true values up to 299 must not wrap in the truth lookup;
    that run's f_A output is the x block itself, in int16, unwrapped."""
    size, n_len, trials = 300, 8, 2000
    model = _x_model(np.arange(size) % 2)
    src = sample_sources(model, n_len, trials, seed=5)
    assert src["x"].dtype == np.uint16 and src["y"].dtype == np.uint8
    share = 44 / size
    count, cells = int((src["x"] >= 256).sum()), n_len * trials
    assert abs(count - share * cells) <= 5 * np.sqrt(cells * share * (1 - share))
    plans = plan_protocol(model, n_len, ALL_TRANSMIT)
    report = function_error_rate(model, plans, n_len, trials, seed=5)
    assert report["trials"] == trials
    assert report["f_A"]["block_error"] == report["f_B"]["block_error"] == 0.0
    report = function_error_rate(_x_model(np.arange(size)), plans, n_len, trials, seed=5)
    assert report["f_A"]["block_error"] == report["f_B"]["block_error"] == 0.0
    out = report["result"].outputs["f_A"]
    assert out.dtype == np.int16 and np.array_equal(out, src["x"]) and out.max() == size - 1


def test_compute_function_is_per_symbol():
    """Permuting symbol positions permutes outputs (no cross-symbol coupling)."""
    m = build_and_chain(AndModelParams(0.5, 0.5, 2))
    rng = np.random.default_rng(12)
    x = rng.integers(0, 2, (1, 8)).astype(np.uint8)
    u1, u2 = x.copy(), (x & rng.integers(0, 2, (1, 8))).astype(np.uint8)
    z, er = compute_function(x, [u1, u2], m, "f_A")
    perm = rng.permutation(8)
    z_p, er_p = compute_function(x[:, perm], [u1[:, perm], u2[:, perm]], m, "f_A")
    assert np.array_equal(z[:, perm], z_p)
    assert np.array_equal(er[:, perm], er_p)


@pytest.mark.parametrize("case, want", [
    ("and-t2", np.int8), ("col-m3", np.int8), ("hi-127", np.int8), ("hi-128", np.int16),
])
def test_compute_function_outputs_take_the_narrowest_signed_dtype(case, want):
    """The outputs and the decode table take the narrowest signed dtype
    holding [-1, hi], hi the function's largest value and -1 the erasure
    sentinel: int8 on the shipped models and at hi = 127, int16 at
    hi = 128. Values and erasure flags are those of the same gather and
    clamp on the table widened to int64."""
    if case == "and-t2":
        model, which = build_and_chain(AndModelParams(0.3, 0.6, 2)), "f_A"
    elif case == "col-m3":
        model, which = build_collocated_chain(3, [0.5, 0.4, 0.7]), "f"
    else:
        f_x = {"hi-127": np.arange(128), "hi-128": np.arange(129)}[case]
        model, which = _x_model(f_x), "f_A"
    rng = np.random.default_rng(3)
    args = model.function_args(which)
    blocks = {}
    for a in args:
        size = model.joint.size_of(a)
        blocks[a] = rng.integers(0, size, (50, 16)).astype(np.min_scalar_type(size - 1))
    obs = next((blocks[a] for a in args if not a.startswith("u")), None)
    z, erased = compute_function(obs, [blocks[u] for u in model.u_vars], model, which)
    table = model.decode_table(which)
    assert z.dtype == table.dtype == want
    wide = table.astype(np.int64)[tuple(blocks[a] for a in args)]
    assert np.array_equal(erased, wide < 0) and np.array_equal(z, np.maximum(wide, 0))
    assert erased.any() and z.any() and not erased.all()


def test_negative_function_values_are_rejected():
    """A negative function value could not be told from the erasure
    sentinel, so the model constructor raises ValueError naming the
    function."""
    with pytest.raises(ValueError, match="f_A"):
        _x_model(np.arange(3) - 2)


def test_collocated_all_transmit_sink_computes_and():
    c = build_collocated_chain(2, [0.5, 0.5])
    plans = plan_protocol(c, 8, ALL_TRANSMIT)
    src = sample_sources(c, 8, 16, seed=13)
    res = run_collocated(c, src, plans, shared_seed=5, private_seed=6)
    truth = src["x1"] & src["x2"]
    assert np.array_equal(res.outputs["f"], truth)
    assert res.agreement.all()


def test_collocated_all_terminals_reconstruct_identically():
    """Full I' and shared F_r: every terminal's u-blocks coincide, all sources."""
    c = build_collocated_chain(2, [0.3, 0.7])
    plans = plan_protocol(c, 4, ALL_TRANSMIT)
    # exhaustive over all 2^(2N) source blocks as one batch
    grids = np.array(np.meshgrid(np.arange(16), np.arange(16))).reshape(2, -1).T
    x1 = ((grids[:, 0][:, None] >> np.arange(3, -1, -1)) & 1).astype(np.uint8)
    x2 = ((grids[:, 1][:, None] >> np.arange(3, -1, -1)) & 1).astype(np.uint8)
    res = run_collocated(c, {"x1": x1, "x2": x2}, plans, shared_seed=7, private_seed=8)
    for role in ("x2", "sink"):
        for a, b in zip(res.u_blocks["x1"], res.u_blocks[role]):
            assert np.array_equal(a, b)


def test_collocated_single_source_degenerates_to_source_coding():
    """Hand-built m=1 network: sink copies the broadcaster whenever I = I'."""
    mass = np.zeros((2, 2))
    mass[0, 0], mass[1, 1] = 0.6, 0.4  # u1 = x1
    model = AuxChainModel(
        joint=JointPmf((("x1", 2), ("u1", 2)), mass),
        rounds=1, round_sources=("x1",),
        markov_specs=(),
        functions={"f": np.array([0, 1])},
        network="collocated",
    )
    plans = plan_protocol(model, 4, ALL_TRANSMIT)
    vals = ((np.arange(16)[:, None] >> np.arange(3, -1, -1)) & 1).astype(np.uint8)
    res = run_collocated(model, {"x1": vals}, plans, shared_seed=1, private_seed=2)
    assert res.agreement.all()
    assert np.array_equal(res.u_blocks["sink"][0], res.u_blocks["x1"][0])
    assert np.array_equal(res.outputs["f"], vals)


def test_batched_and_unbatched_agree():
    m = build_and_chain(AndModelParams(0.5, 0.5, 2))
    plans = plan_protocol(m, 4, ALL_TRANSMIT)
    x = np.array([1, 0, 1, 1], dtype=np.uint8)
    y = np.array([1, 1, 0, 1], dtype=np.uint8)
    single = run_two_terminal(m, x, y, plans, shared_seed=4, private_seed=5)
    assert single.outputs["f_A"].shape == (4,)
    assert np.array_equal(single.outputs["f_A"], x & y)


def test_auto_profiles_are_exact_only_where_enumerable():
    """At N = 8 rounds 1-2 observe at most 4 symbols and get exact profiles;
    round 3 observes 8 symbols, too many to enumerate, and gets Monte Carlo."""
    for model in (build_and_chain(AndModelParams(0.5, 0.5, 4)),
                  build_collocated_chain(3, [0.5, 0.5, 0.5])):
        plans = plan_protocol(model, 8, PartitionPolicy(mode="threshold", delta=0.2),
                              profile_samples=64)
        methods = [{p.method for p in plan.profiles.values()} for plan in plans]
        assert methods[:2] == [{"exact"}, {"exact"}]
        assert all(m == {"monte_carlo"} for m in methods[2:])


def _recorded_profiles(monkeypatch):
    """Record the (seed, conditioning) of every Monte Carlo profile made
    through `protocol.profile_monte_carlo`, the name plans look it up by."""
    from polarcomm import protocol

    made = []
    original = protocol.profile_monte_carlo

    def recording(ch, n_len, samples, seed, conditioning="none", **kwargs):
        made.append((seed, conditioning))
        return original(ch, n_len, samples, seed, conditioning, **kwargs)

    monkeypatch.setattr(protocol, "profile_monte_carlo", recording)
    return made


def test_target_rate_plans_make_only_the_profiles_their_partitions_read(monkeypatch):
    """The benchmark's two networks under target_rate at N = 64: round 1's
    F_d and F_r are empty and I' takes all of I, and round 2's F_r is
    empty, so planning makes round 2's prior and receiver profiles only,
    and `in`, iteration and len, which answer from the keys, make none.
    Every other profile is made on its first read, once, with the bytes and
    seed of a direct call at its spawn key (seed, 3, i, k)."""
    from polarcomm.reliability import profile_monte_carlo

    made = _recorded_profiles(monkeypatch)
    for model in (build_and_chain(AndModelParams(0.5, 0.5, 2)),
                  build_collocated_chain(2, [0.5, 0.5])):
        made.clear()
        plans = plan_protocol(model, 64, PartitionPolicy(mode="target_rate"), rate_margin=0.15,
                              profile_method="monte_carlo", profile_samples=64,
                              profile_seed=9)
        for plan in plans:
            assert "tx" in plan.profiles and "none" not in plan.profiles
            assert list(plan.profiles) == ["uncond", "tx", "rx"] and len(plan.profiles) == 3
        assert made == [((9, 3, 2, 0), "none"), ((9, 3, 2, 2), "rx")]
        for plan in plans:
            channels = (plan.tx_channel.prior(), plan.tx_channel, plan.rx_channel)
            for k, (key, cond, ch) in enumerate(zip(plan.profiles, ("none", "tx", "rx"),
                                                    channels)):
                want = profile_monte_carlo(ch, 64, 64, (9, 3, plan.round_index, k), cond)
                got = plan.profiles[key]
                assert got.z.tobytes() == want.z.tobytes()
                assert got.stderr.tobytes() == want.stderr.tobytes()
                assert got.seed == want.seed and got.conditioning == cond
        # every profile made once: the four unread ones on the reads above
        assert sorted(made) == sorted({(prof.seed, prof.conditioning)
                                       for plan in plans for prof in plan.profiles.values()})


@pytest.mark.parametrize("policy", [ALL_TRANSMIT, PartitionPolicy(mode="threshold")])
def test_plan_config_errors_raise_whatever_the_partition_reads(policy, monkeypatch):
    """Fewer than one sample on a Monte Carlo round, or exact profiles on
    channels that cannot be enumerated at N, raise at plan time, also where
    the partition reads no profile (ALL_TRANSMIT ranks by none)."""
    made = _recorded_profiles(monkeypatch)
    m = build_and_chain(AndModelParams(0.5, 0.5, 2))
    for method in ("monte_carlo", "auto"):
        with pytest.raises(ValueError, match="profile_samples must be >= 1"):
            plan_protocol(m, 32, policy, profile_method=method, profile_samples=0)
    with pytest.raises(ValueError, match="cannot enumerate round 1"):
        plan_protocol(m, 32, policy, profile_method="exact")
    assert made == []
    # exact rounds draw no samples, so none are asked for
    plan_protocol(m, 4, policy, profile_samples=0)
    plan_protocol(m, 32, policy, profile_method="monte_carlo", profile_samples=1)
    assert len(made) == (6 if policy.mode == "threshold" else 0)


def test_runs_reject_symbols_outside_the_alphabet():
    """x2 = 2 would alias the receivers' flat symbol of (x2 = 0, u1 = 1); a
    run checks every block against its variable's alphabet, also with no
    plans, where the decode lookup would otherwise index out of range."""
    c = build_collocated_chain(2, [0.5, 0.5])
    plans = plan_protocol(c, 8, PartitionPolicy(mode="threshold", delta=0.3))
    obs = {"x1": np.zeros(8, dtype=np.uint8), "x2": np.full(8, 2, dtype=np.uint8)}
    for p in (plans, []):
        with pytest.raises(ValueError, match="'x2'"):
            run_collocated(c, obs, p)
    m = build_and_chain(AndModelParams(0.5, 0.5, 2))
    with pytest.raises(ValueError, match="'x'"):
        run_two_terminal(m, np.full((2, 8), -1), np.zeros((2, 8), dtype=np.uint8), [])


def test_runs_reject_fractional_symbols():
    """An x block of 0.6 does not run the protocol as x = 0, with or without
    plans, in either network."""
    m = build_and_chain(AndModelParams(0.5, 0.5, 2))
    plans = plan_protocol(m, 8, PartitionPolicy(mode="threshold", delta=0.3))
    for p in (plans, []):
        with pytest.raises(ValueError, match="'x'"):
            run_two_terminal(m, np.full((2, 8), 0.6), np.zeros((2, 8), dtype=np.uint8), p)
    c = build_collocated_chain(2, [0.5, 0.5])
    obs = {"x1": np.zeros(8, dtype=np.uint8), "x2": np.full(8, 0.6)}
    with pytest.raises(ValueError, match="'x2'"):
        run_collocated(c, obs, [])


def _result_bytes(res):
    return (res.transcript.to_json(), res.agreement.tobytes(), res.anomalies,
            [(k, v.dtype.str, v.tobytes()) for k, v in sorted(res.outputs.items())],
            [(k, v.tobytes()) for k, v in sorted(res.erasures.items())],
            [(k, [u.tobytes() for u in us]) for k, us in sorted(res.u_blocks.items())])


def test_run_two_terminal_independent_of_the_symbol_dtype():
    """uint8, uint16 and int64 source blocks give byte-identical results."""
    m = build_and_chain(AndModelParams(0.3, 0.6, 2))
    plans = plan_protocol(m, 16, PartitionPolicy(mode="threshold", delta=0.2))
    src = sample_sources(m, 16, 12, seed=4)
    assert src["x"].dtype == np.uint8 and src["y"].dtype == np.uint8
    results = [_result_bytes(run_two_terminal(m, src["x"].astype(dtype), src["y"].astype(dtype),
                                              plans, shared_seed=2, private_seed=3))
               for dtype in (np.uint8, np.uint16, np.int64)]
    assert results[0] == results[1] == results[2]


@pytest.mark.parametrize("network", ["two-terminal", "collocated"])
def test_every_walk_goes_through_sample_sequential(network, monkeypatch):
    """Every SC walk of a run is a call of the public sample_sequential that
    the protocol module looks up, so wrapping it there, as an outside-in
    tracer does, sees one transmitter and one walk per receiver each round,
    and the wrapper changes no result byte."""
    import polarcomm.protocol as protocol

    if network == "two-terminal":
        m = build_and_chain(AndModelParams(0.3, 0.6, 4))
    else:
        m = build_collocated_chain(3, [0.5, 0.4, 0.7])
    plans = plan_protocol(m, 16, PartitionPolicy(mode="threshold", delta=0.2),
                          profile_method="monte_carlo", profile_samples=64, profile_seed=2)
    src = sample_sources(m, 16, 5, seed=8)

    def run():
        if network == "two-terminal":
            return run_two_terminal(m, src["x"], src["y"], plans, shared_seed=1, private_seed=2)
        return run_collocated(m, src, plans, shared_seed=1, private_seed=2)

    want = _result_bytes(run())
    calls = []
    walk = protocol.sample_sequential

    def counted(*args, **kwargs):
        calls.append(args[2].tags)
        return walk(*args, **kwargs)

    monkeypatch.setattr(protocol, "sample_sequential", counted)
    assert _result_bytes(run()) == want
    parties = 2 if network == "two-terminal" else len(m.source_vars) + 1  # the sink
    assert len(plans) >= 2 and len(calls) == len(plans) * parties  # 1 + (parties - 1)
    for k, plan in enumerate(plans):
        assert np.array_equal(calls[k * parties], plan.partition.tags_for_transmitter())
        for tags in calls[k * parties + 1 : (k + 1) * parties]:
            assert np.array_equal(tags, plan.partition.tags_for_receiver())


@pytest.mark.parametrize("network", ["two-terminal", "collocated"])
def test_results_keep_their_documented_shapes(network):
    """The round loop runs trial-last, but a result keeps the trial-first
    shapes it documents: (B, N) u-blocks, outputs and erasures, (B, |I'|)
    messages and (t, B) agreement, squeezed to (N,) for (N,) sources (the
    messages stay (1, |I'|)). The outputs equal compute_function on the
    trial-first blocks, dtype included."""
    if network == "two-terminal":
        m = build_and_chain(AndModelParams(0.4, 0.5, 2))
        evaluators = {"f_A": ("A", "x"), "f_B": ("B", "y")}
    else:
        m = build_collocated_chain(2, [0.5, 0.4])
        evaluators = {"f": ("sink", None)}
    n_len, batch = 16, 130
    plans = plan_protocol(m, n_len, PartitionPolicy(mode="target_rate"), rate_margin=0.1,
                          profile_method="monte_carlo", profile_samples=64, profile_seed=2)
    src = sample_sources(m, n_len, batch, seed=6)
    for shape, lead in (((batch, n_len), (batch,)), ((n_len,), (1,))):
        blocks = {k: (v if len(shape) == 2 else v[0]) for k, v in src.items()}
        if network == "two-terminal":
            res = run_two_terminal(m, blocks["x"], blocks["y"], plans, shared_seed=1,
                                   private_seed=2)
        else:
            res = run_collocated(m, blocks, plans, shared_seed=1, private_seed=2)
        assert res.agreement.shape == (len(plans),) + lead[:1] and res.agreement.dtype == bool
        for plan, tr_round in zip(plans, res.transcript.rounds):
            assert tr_round.messages.shape == lead + (plan.partition.i_prime.size,)
            assert tr_round.messages.dtype == np.uint8
        for us in res.u_blocks.values():
            assert len(us) == len(plans)
            assert all(u.shape == shape and u.dtype == np.uint8 for u in us)
        for which, (role, var) in evaluators.items():
            want, want_erased = compute_function(
                None if var is None else blocks[var], res.u_blocks[role], m, which)
            assert res.outputs[which].shape == shape and res.erasures[which].shape == shape
            assert res.outputs[which].dtype == want.dtype and res.erasures[which].dtype == bool
            assert np.array_equal(res.outputs[which], want)
            assert np.array_equal(res.erasures[which], want_erased)


def test_transcript_json_packs_every_row():
    """to_json packs all of a round's messages at once, with the bytes of
    packing row by row: on strided views, on a zero-bit round, on (|I'|,)
    single-trial messages and on zero trials."""
    from polarcomm.protocol import Transcript, TranscriptRound

    rng = np.random.default_rng(3)
    trial_last = rng.integers(0, 2, (13, 7)).astype(np.uint8)
    rounds = (
        TranscriptRound("A->B", 13, trial_last.T),
        TranscriptRound("B->A", 0, np.zeros((7, 0), np.uint8)),
        TranscriptRound("A->B", 9, rng.integers(0, 2, (40, 9)).astype(np.uint8)[::4]),
        TranscriptRound("B->A", 5, rng.integers(0, 2, 5).astype(np.uint8)),
        TranscriptRound("A->B", 3, np.zeros((0, 3), np.uint8)),
    )
    payload = json.loads(Transcript(16, rounds).to_json())
    for r, got in zip(rounds, payload["rounds"]):
        want = [np.packbits(row).tobytes().hex() for row in np.atleast_2d(r.messages)]
        assert got["message_hex"] == want
    assert payload["rounds"][1]["message_hex"] == [""] * 7

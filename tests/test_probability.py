"""Probability-core tests: information measures, TV metric, Markov checks."""
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polarcomm.models import AndModelParams, build_and_chain
from polarcomm.probability import (
    AuxChainModel,
    JointPmf,
    Pmf,
    _chain_violation,
    bhattacharyya,
    entropy_bits,
    mutual_information,
    tv_distance,
    validate_markov,
)

H2_QUARTER = 0.8112781244591328  # -0.25 log2 0.25 - 0.75 log2 0.75


def random_joint(rng, shape, names=None):
    mass = rng.random(shape)
    mass /= mass.sum()
    names = names or [f"v{i}" for i in range(len(shape))]
    return JointPmf(tuple(zip(names, shape)), mass)


def test_pmf_validation():
    Pmf([0.5, 0.5])
    with pytest.raises(ValueError):
        Pmf([0.5, 0.6])
    with pytest.raises(ValueError):
        Pmf([1.1, -0.1])


def test_entropy_examples():
    assert entropy_bits(Pmf([0.5, 0.5])) == 1.0
    assert entropy_bits(Pmf([1.0, 0.0])) == 0.0
    assert abs(entropy_bits(Pmf([0.25, 0.75])) - H2_QUARTER) < 1e-12


def test_entropy_empty_subset_is_usage_error():
    j = random_joint(np.random.default_rng(0), (2, 2))
    with pytest.raises(ValueError):
        entropy_bits(j, ())


def test_mutual_information_examples():
    # independent
    j = JointPmf((("x", 2), ("y", 2)), np.outer([0.3, 0.7], [0.6, 0.4]))
    assert mutual_information(j, ("x",), ("y",)) == 0.0
    # X = Y uniform
    j2 = JointPmf((("x", 2), ("y", 2)), np.diag([0.5, 0.5]))
    assert abs(mutual_information(j2, ("x",), ("y",)) - 1.0) < 1e-12
    # AND chain with p = q = 1/2: I(Y; U2 | X, U1) = P(X=1) h2(q) = 0.5
    m = build_and_chain(AndModelParams(0.5, 0.5, 2))
    got = mutual_information(m.joint, ("y",), ("u2",), ("x", "u1"))
    assert abs(got - 0.5) < 1e-12


def test_mutual_information_rejects_overlap():
    j = random_joint(np.random.default_rng(1), (2, 2, 2))
    with pytest.raises(ValueError):
        mutual_information(j, ("v0",), ("v0",))


def test_bhattacharyya_examples():
    # uniform independent of V
    j = JointPmf((("t", 2), ("v", 3)), np.outer([0.5, 0.5], [0.2, 0.3, 0.5]))
    assert abs(bhattacharyya(j, "t", ("v",)) - 1.0) < 1e-12
    # deterministic function of V
    det = np.zeros((2, 2))
    det[0, 0] = det[1, 1] = 0.5
    j2 = JointPmf((("t", 2), ("v", 2)), det)
    assert bhattacharyya(j2, "t", ("v",)) == 0.0
    # Ber(0.25) independent: 2 sqrt(0.25 * 0.75)
    j3 = JointPmf((("t", 2), ("v", 2)), np.outer([0.75, 0.25], [0.5, 0.5]))
    want = 2 * np.sqrt(0.25 * 0.75)
    assert abs(bhattacharyya(j3, "t", ("v",)) - want) < 1e-12
    assert abs(want - 0.8660254037844386) < 1e-12


def test_bhattacharyya_requires_binary_target():
    j = random_joint(np.random.default_rng(2), (3, 2), names=["t", "v"])
    with pytest.raises(ValueError):
        bhattacharyya(j, "t", ("v",))


def test_bhattacharyya_range_and_extremes_randomized():
    rng = np.random.default_rng(3)
    for _ in range(50):
        j = random_joint(rng, (2, 4), names=["t", "v"])
        z = bhattacharyya(j, "t", ("v",))
        assert -1e-12 <= z <= 1 + 1e-12


def test_tv_examples():
    rng = np.random.default_rng(4)
    p = random_joint(rng, (2, 2))
    assert tv_distance(p, p) == 0.0
    a = JointPmf((("v0", 2),), [1.0, 0.0])
    b = JointPmf((("v0", 2),), [0.0, 1.0])
    assert tv_distance(a, b) == 2.0
    c = JointPmf((("v0", 2),), [0.5, 0.5])
    d = JointPmf((("v0", 2),), [0.4, 0.6])
    assert abs(tv_distance(c, d) - 0.2) < 1e-15


def test_tv_shape_mismatch():
    with pytest.raises(ValueError):
        tv_distance(
            JointPmf((("a", 2),), [0.5, 0.5]), JointPmf((("b", 2),), [0.5, 0.5])
        )


def test_tv_is_a_metric_on_random_triples():
    rng = np.random.default_rng(5)
    for _ in range(25):
        p, q, r = (random_joint(rng, (2, 3)) for _ in range(3))
        assert abs(tv_distance(p, q) - tv_distance(q, p)) < 1e-12
        assert tv_distance(p, r) <= tv_distance(p, q) + tv_distance(q, r) + 1e-12


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_chain_rule_consistency(seed):
    """H(a,b) == H(a) + sum_a P(a) H(b | A=a), within 1e-10."""
    rng = np.random.default_rng(seed)
    j = random_joint(rng, (2, 3, 2), names=["a", "b", "c"])
    table = j.marginal(("a", "b")).mass
    p_a = table.sum(axis=1)
    h_b_given_a = 0.0
    for ai in range(table.shape[0]):
        if p_a[ai] > 0:
            cond = table[ai] / p_a[ai]
            cond = cond[cond > 0]
            h_b_given_a += p_a[ai] * float(-(cond * np.log2(cond)).sum())
    lhs = entropy_bits(j, ("a", "b"))
    rhs = entropy_bits(j, ("a",)) + h_b_given_a
    assert abs(lhs - rhs) < 1e-10
    # conditional MI nonnegative after clamping
    assert mutual_information(j, ("a",), ("b",), ("c",)) >= 0.0


def test_joint_pmf_json_roundtrip_exact():
    rng = np.random.default_rng(6)
    j = random_joint(rng, (2, 3))
    back = JointPmf.from_json(j.to_json())
    assert back.variables == j.variables
    assert np.array_equal(back.mass, j.mass)  # bit-exact round trip


def test_marginal_reorders_axes():
    j = random_joint(np.random.default_rng(7), (2, 3), names=["a", "b"])
    swapped = j.marginal(("b", "a"))
    assert swapped.names == ("b", "a")
    assert np.allclose(swapped.mass, j.mass.T)


def test_validate_markov_passes_on_and_chain():
    m = build_and_chain(AndModelParams(0.5, 0.5, 2))
    report = validate_markov(m)
    assert report.passed
    assert report.max_violation == 0.0


def test_validate_markov_degenerate_chain():
    """X -> Y -> X with X = Y forced holds trivially."""
    mass = np.zeros((2, 2))
    mass[0, 0] = mass[1, 1] = 0.5
    j = JointPmf((("x", 2), ("y", 2)), mass)
    model = AuxChainModel(
        joint=j, rounds=0, round_sources=(), markov_specs=((("x",), ("y",), ("x",)),),
        functions={}, network="two-terminal",
    )
    report = validate_markov(model)
    assert report.passed


def test_validate_markov_detects_violation():
    """U1 depending on Y given X must fail the U1 -> X -> Y check."""
    mass = np.zeros((2, 2, 2))
    for x in (0, 1):
        for y in (0, 1):
            for u in (0, 1):
                p_u = 0.9 if u == y else 0.1  # u tracks y, not x
                mass[x, y, u] = 0.25 * p_u
    j = JointPmf((("x", 2), ("y", 2), ("u1", 2)), mass)
    model = AuxChainModel(
        joint=j, rounds=1, round_sources=("x",),
        markov_specs=((("u1",), ("x",), ("y",)),),
        functions={"f_A": np.zeros((2, 2), dtype=int),
                   "f_B": np.zeros((2, 2), dtype=int)},
    )
    report = validate_markov(model)
    assert not report.passed
    assert report.max_violation > 0.01


def test_model_json_roundtrip():
    m = build_and_chain(AndModelParams(0.3, 0.6, 2))
    back = AuxChainModel.from_json(m.to_json())
    assert back.rounds == m.rounds
    assert back.round_sources == m.round_sources
    assert np.array_equal(back.joint.mass, m.joint.mass)
    assert np.array_equal(back.functions["f_A"], m.functions["f_A"])
    assert json.loads(m.to_json()) == json.loads(back.to_json())


def test_decode_table_determinism_violation_raises():
    j = random_joint(np.random.default_rng(8), (2, 2, 2), names=["x", "y", "u1"])
    model = AuxChainModel(
        joint=j, rounds=1, round_sources=("x",), markov_specs=(),
        functions={"f_A": np.array([[0, 1], [1, 0]])},  # xor: not determined by (x, u1)
    )
    with pytest.raises(ValueError):
        model.decode_table("f_A")


def reference_chain_violation(j, a, b, c):
    """`_chain_violation` with its table built cell by cell."""
    names = tuple(a) + tuple(b) + tuple(c)
    unique = list(dict.fromkeys(names))
    table = j.marginal(tuple(unique)).mass
    sizes = tuple(j.size_of(n) for n in names)
    full = np.zeros(sizes)
    for idx in np.ndindex(*sizes):
        assign = {}
        for name, value in zip(names, idx):
            if assign.setdefault(name, value) != value:
                break
        else:
            full[idx] = table[tuple(assign[n] for n in unique)]
    abc = full.reshape(
        int(np.prod([j.size_of(n) for n in a])),
        int(np.prod([j.size_of(n) for n in b])),
        int(np.prod([j.size_of(n) for n in c])),
    )
    pb = abc.sum(axis=(0, 2))
    pab = abc.sum(axis=2)
    pcb = abc.sum(axis=0)
    viol = np.zeros_like(abc)
    pos = pb > 0
    viol[:, pos, :] = np.abs(
        abc[:, pos, :] - pab[:, pos, None] * pcb[None, pos, :] / pb[pos, None]
    )
    return float(viol.max(initial=0.0))


def reference_decode_table(model, which):
    """`AuxChainModel.decode_table` cell by cell, in C order, in the first
    of int8, ..., int64 holding the function's values and -1."""
    args = model.function_args(which)
    names = model.source_vars + model.u_vars
    full = model.joint.marginal(names).mass
    out = np.full(tuple(model.joint.size_of(a) for a in args), -1, dtype=np.int64)
    for idx in np.ndindex(*full.shape):
        if full[idx] <= 1e-14:
            continue
        z = int(model.functions[which][idx[: len(model.source_vars)]])
        key = tuple(idx[names.index(a)] for a in args)
        if out[key] == -1:
            out[key] = z
        elif out[key] != z:
            raise ValueError(
                f"function {which} is not determined by {args} at {key}: "
                f"values {out[key]} and {z} both have positive probability"
            )
    f = model.functions[which]
    lo, hi = min(int(f.min()), -1), int(f.max())
    return out.astype(next(t for t in (np.int8, np.int16, np.int32, np.int64)
                           if np.iinfo(t).min <= lo and hi <= np.iinfo(t).max))


def sparse_mass(rng, shape):
    """Random masses with zero cells and cells below the 1e-14 decode cutoff."""
    mass = rng.random(shape) * rng.choice([0.0, 1e-15, 1.0], size=shape, p=[0.3, 0.1, 0.6])
    mass.flat[rng.integers(mass.size)] = 1.0
    return mass / mass.sum()


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), sizes=st.lists(st.integers(2, 3), min_size=2, max_size=4),
       data=st.data())
def test_chain_violation_matches_cell_loop(seed, sizes, data):
    """The gathered table, zeroed off the diagonal of a variable repeated
    across or within the groups, gives the per-cell loop's float exactly."""
    names = [f"v{k}" for k in range(len(sizes))]
    j = JointPmf(tuple(zip(names, sizes)), sparse_mass(np.random.default_rng(seed), sizes))
    group = st.lists(st.sampled_from(names), min_size=1, max_size=2)
    a, b, c = data.draw(group), data.draw(group), data.draw(group)
    assert _chain_violation(j, a, b, c) == reference_chain_violation(j, a, b, c)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), src_sizes=st.tuples(st.integers(2, 3), st.integers(2, 3)),
       rounds=st.integers(0, 2), network=st.sampled_from(["two-terminal", "collocated"]),
       f_kind=st.sampled_from(["first-source", "any"]))
def test_decode_table_matches_cell_loop(seed, src_sizes, rounds, network, f_kind):
    """Equal tables, or the same ValueError, as the per-cell loop. A function
    of the first source alone is determined by (x, u) but often clashes on
    a positive cell as f_B, as does one of both sources; rounds = 0 of the
    collocated network decodes from no arguments at all."""
    rng = np.random.default_rng(seed)
    src = ("x", "y") if network == "two-terminal" else ("x1", "x2")
    variables = tuple(zip(src, src_sizes)) + tuple((f"u{i}", 2) for i in range(1, rounds + 1))
    joint = JointPmf(variables, sparse_mass(rng, tuple(s for _, s in variables)))
    f = rng.integers(0, 3, src_sizes)
    if f_kind == "first-source":
        f = np.repeat(f[:, :1], src_sizes[1], axis=1)
    functions = {"f": f} if network == "collocated" else {"f_A": f, "f_B": f}
    model = AuxChainModel(joint=joint, rounds=rounds, round_sources=(src[0],) * rounds,
                          markov_specs=(), functions=functions, network=network)
    for which in functions:
        try:
            want = reference_decode_table(model, which)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                model.decode_table(which)
            assert str(got.value) == str(exc)
        else:
            got = model.decode_table(which)
            assert got.dtype == want.dtype and np.array_equal(got, want)


def test_nan_masses_are_rejected():
    """A NaN mass, or one that makes the total NaN, is rejected, as a
    negative one is: every check is written as what a valid mass meets."""
    for mass in ([np.nan, 1.0], [0.5, 0.5, np.nan], [np.nan, 0.0]):
        with pytest.raises(ValueError, match="nonnegative numbers"):
            Pmf(np.array(mass))
    with pytest.raises(ValueError, match="nonnegative numbers"):
        JointPmf((("x", 2), ("y", 2)), np.array([[0.25, np.nan], [0.25, 0.5]]))
    with pytest.raises(ValueError, match="sum to 1"):
        Pmf(np.array([np.inf, 0.0]))
    Pmf(np.array([0.25, 0.75]))

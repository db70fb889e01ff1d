"""Model builder tests: exact joints, closed-form rates, sum-rate formulas."""
from fractions import Fraction

import numpy as np
import pytest

from polarcomm.models import (
    AndModelParams,
    CurveSpec,
    binary_entropy,
    bsc_round_rate,
    build_and_chain,
    build_bsc_chain,
    build_collocated_chain,
    convolve_noise,
    sum_rates,
)
from polarcomm.probability import entropy_bits, mutual_information, validate_markov


def test_and_t2_trivial_partition_identities():
    """alpha(s1) = 1-p and beta(s0) = 0 force U1 = X and U2 = X AND Y."""
    m = build_and_chain(AndModelParams(0.5, 0.5, 2))
    mass = m.joint.mass
    for idx in np.ndindex(*mass.shape):
        x, y, u1, u2 = idx
        if mass[idx] > 0:
            assert u1 == x
            assert u2 == (x & y)


def test_and_u2_marginal_is_pq():
    for p, q in ((0.5, 0.5), (0.3, 0.6), (0.11, 0.4)):
        m = build_and_chain(AndModelParams(p, q, 2))
        assert abs(m.joint.marginal(("u2",)).mass[1] - p * q) < 1e-15


def test_and_t4_markov_and_function_conditions():
    m = build_and_chain(AndModelParams(Fraction(3, 10), Fraction(3, 5), 4))
    report = validate_markov(m, tol=1e-12)
    assert report.passed
    m.validate_functions()  # H(f | X, U^{1:4}) = 0 and H(f | Y, U^{1:4}) = 0
    # final auxiliary variable is the function itself
    mass = m.joint.mass
    for idx in np.ndindex(*mass.shape):
        if mass[idx] > 0:
            assert idx[-1] == (idx[0] & idx[1])


def test_and_cell_measures_exact():
    """Masses reach float conversion summing to 1 exactly (rational arithmetic)."""
    m = build_and_chain(AndModelParams(Fraction(1, 3), Fraction(2, 7), 4))
    assert m.joint.mass.sum() == pytest.approx(1.0, abs=1e-15)
    report = validate_markov(m, tol=1e-12)
    assert report.passed


def test_and_round_rate_closed_forms():
    p, q = 0.3, 0.6
    m = build_and_chain(AndModelParams(p, q, 2))
    r1 = mutual_information(m.joint, ("x",), ("u1",), ("y",))
    r2 = mutual_information(m.joint, ("y",), ("u2",), ("x", "u1"))
    assert abs(r1 - binary_entropy(p)) < 1e-12
    assert abs(r2 - p * binary_entropy(q)) < 1e-12


def test_curve_validation():
    with pytest.raises(ValueError):
        CurveSpec(((0, 0), (1, 0.5)), ((0, 0.1), (1, 0.5)), (0, 1))  # beta(0) != 0 caught at build
    bad = CurveSpec(((0, 0), (1, 0.4)), ((0, 0), (1, 0.4)), (0, 1))
    with pytest.raises(ValueError):
        build_and_chain(AndModelParams(0.5, 0.5, 2, curve=bad))  # alpha(1) != 1-p
    with pytest.raises(ValueError):
        CurveSpec(((0, 0.2), (1, 0.1)), ((0, 0), (1, 0.5)), (0, 1))  # decreasing
    with pytest.raises(ValueError):
        AndModelParams(0.5, 0.5, 3)  # odd t


def test_bsc_chain_formula_two_paths():
    b = build_bsc_chain(0.11, 0.2)
    direct = mutual_information(b.joint, ("x",), ("u1",), ("y",))
    formula = bsc_round_rate(0.11, 0.2)
    assert abs(direct - formula) < 1e-12
    assert abs(formula - (binary_entropy(convolve_noise(0.11, 0.2))
                          - binary_entropy(0.11))) < 1e-15


def test_bsc_chain_boundaries():
    # alpha = 0.5: U1 independent of everything
    b = build_bsc_chain(0.5, 0.2)
    assert mutual_information(b.joint, ("x",), ("u1",), ("y",)) < 1e-12
    # eps = 0.5: Y useless, I = 1 - h2(alpha)
    b2 = build_bsc_chain(0.11, 0.5)
    want = 1.0 - binary_entropy(0.11)
    assert abs(mutual_information(b2.joint, ("x",), ("u1",), ("y",)) - want) < 1e-12
    for bad in (0.0, -0.1, 0.6):
        with pytest.raises(ValueError):
            build_bsc_chain(bad, 0.2)
        with pytest.raises(ValueError):
            build_bsc_chain(0.2, bad)


@pytest.mark.parametrize("alpha_noise, eps", [(0.11, 0.2), (0.5, 0.5), (0.3, 0.07)])
def test_bsc_chain_cells_exact(alpha_noise, eps):
    """Every mass is the per-cell formula's double, 0.5 * pn1 * pn2."""
    mass = build_bsc_chain(alpha_noise, eps).joint.mass
    for x, y, u in np.ndindex(2, 2, 2):
        pn1 = alpha_noise if u != x else 1.0 - alpha_noise
        pn2 = eps if y != x else 1.0 - eps
        assert mass[x, y, u] == 0.5 * pn1 * pn2


def test_bsc_chain_markov():
    assert validate_markov(build_bsc_chain(0.3, 0.4), tol=1e-12).passed


def test_collocated_closed_forms():
    c = build_collocated_chain(2, [0.5, 0.5])
    r2 = mutual_information(c.joint, ("x2",), ("u2",), ("u1",))
    assert abs(r2 - 0.5 * binary_entropy(0.5)) < 1e-12
    assert validate_markov(c, tol=1e-12).passed
    # H(f | U^{1:m}) = 0: f = U^m
    assert entropy_bits(c.joint, ("u2",)) > 0
    c.validate_functions()
    mass = c.joint.mass
    for idx in np.ndindex(*mass.shape):
        if mass[idx] > 0:
            assert idx[-1] == (idx[0] & idx[1])


def test_collocated_degenerate_first_source():
    c = build_collocated_chain(2, [1.0, 0.5])
    r2 = mutual_information(c.joint, ("x2",), ("u2",), ("u1",))
    assert abs(r2 - binary_entropy(0.5)) < 1e-12


def test_collocated_any_m_function_condition():
    for m_terms in (2, 3, 4):
        c = build_collocated_chain(m_terms, [0.5] * m_terms)
        c.validate_functions()
        table = c.decode_table("f")
        # wherever defined, f equals the last auxiliary bit
        for idx in np.ndindex(*table.shape):
            if table[idx] >= 0:
                assert table[idx] == idx[-1]


@pytest.mark.parametrize("probs", [[0.3, 0.6], [0.5, 0.4, 0.7], [0.9, 1.0, 0.2, 0.35],
                                   [0.11, 0.5, 0.77, 0.05, 0.6]])
def test_collocated_chain_cells_exact(probs):
    """Each source tuple carries the left-to-right product of its sources'
    probabilities, exactly, at its cumulative-AND u-tuple; p_j = 1 leaves
    the x_j = 0 tuples at zero mass."""
    m = len(probs)
    want = np.zeros((2,) * (2 * m))
    for xs in np.ndindex(*(2,) * m):
        px = 1.0
        for xj, pj in zip(xs, probs):
            px *= pj if xj else 1.0 - pj
        us = tuple(int(all(xs[: j + 1])) for j in range(m))
        want[xs + us] = px
    assert np.array_equal(build_collocated_chain(m, probs).joint.mass, want)


def test_collocated_requires_two_terminals():
    with pytest.raises(ValueError):
        build_collocated_chain(1, [0.5])


def test_sum_rates_values():
    sr = sum_rates(0.5, 0.5)
    assert sr["r_sum_two_round_A"] == 1.5
    assert abs(sr["r_sum_infinity"] - 1.360674) < 1e-6
    with pytest.raises(ValueError):
        sum_rates(0.0, 0.5)
    with pytest.raises(ValueError):
        sum_rates(0.5, 1.0)


def test_sum_rate_infinity_increasing_in_p_on_low_range():
    # d/dp = log2((1-p)/p) + h2(q) + log2(q) + (1-q) log2 e flips sign past
    # p ~ 0.53-0.64 for these q; the sanity trend holds on the lower range
    for q in (0.3, 0.5, 0.7):
        vals = [sum_rates(p, q)["r_sum_infinity"] for p in np.linspace(0.05, 0.5, 10)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

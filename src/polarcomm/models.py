"""Model builders: AND-function auxiliary chains, a BSC rate benchmark,
collocated-network chains, and closed-form sum-rate formulas.

The AND chain realizes the auxiliary variables through a rectangle
arrangement on the unit square: with (Vx, Vy) ~ Uniform([0,1]^2),
X = 1{Vx >= 1-p}, Y = 1{Vy >= 1-q}, a nondecreasing curve (alpha, beta) with
alpha(0)=beta(0)=0, alpha(1)=1-p, beta(1)=1-q, and a partition
0 = s_0 < ... < s_{t/2} = 1,

    U^{2i-1} = 1{Vx >= alpha(s_i)} 1{Vy >= beta(s_{i-1})},
    U^{2i}   = 1{Vx >= alpha(s_i)} 1{Vy >= beta(s_i)}.

Cell measures are computed in exact rational arithmetic (the thresholds cut
the square into rectangles on which every indicator is constant), so the
joint PMF is exact and the declared Markov chains validate to zero.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .probability import AuxChainModel, JointPmf

LOG2_E = math.log2(math.e)


def binary_entropy(p: float) -> float:
    """h2(p) in bits; 0 log 0 = 0."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability out of range: {p}")
    if p in (0.0, 1.0):
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def convolve_noise(a: float, b: float) -> float:
    """Binary convolution a*b = a(1-b) + b(1-a)."""
    return a * (1.0 - b) + b * (1.0 - a)


def _as_fraction(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


@dataclass(frozen=True)
class CurveSpec:
    """Piecewise-linear nondecreasing curve pair on [0, 1] plus a partition.

    alpha_breaks / beta_breaks are (s, value) breakpoint lists with strictly
    increasing s covering [0, 1]; partition is 0 = s_0 < ... < s_{t/2} = 1.
    Breakpoints are held as exact rationals.
    """

    alpha_breaks: tuple
    beta_breaks: tuple
    partition: tuple

    def __post_init__(self):
        for attr in ("alpha_breaks", "beta_breaks"):
            pts = tuple((_as_fraction(s), _as_fraction(v)) for s, v in getattr(self, attr))
            if len(pts) < 2 or pts[0][0] != 0 or pts[-1][0] != 1:
                raise ValueError(f"{attr} must span s in [0, 1]")
            if pts[0][1] != 0:
                raise ValueError(f"{attr} must start at 0 (curve boundary condition)")
            if any(b[0] <= a[0] for a, b in zip(pts, pts[1:])):
                raise ValueError(f"{attr} breakpoints must be strictly increasing in s")
            if any(b[1] < a[1] for a, b in zip(pts, pts[1:])):
                raise ValueError(f"{attr} must be nondecreasing")
            object.__setattr__(self, attr, pts)
        part = tuple(_as_fraction(s) for s in self.partition)
        if len(part) < 2 or part[0] != 0 or part[-1] != 1:
            raise ValueError("partition must run from 0 to 1")
        if any(b <= a for a, b in zip(part, part[1:])):
            raise ValueError("partition points must be strictly increasing")
        object.__setattr__(self, "partition", part)

    def _eval(self, pts: tuple, s: Fraction) -> Fraction:
        for (s0, v0), (s1, v1) in zip(pts, pts[1:]):
            if s0 <= s <= s1:
                return v0 + (v1 - v0) * (s - s0) / (s1 - s0)
        raise ValueError(f"curve parameter {s} outside [0, 1]")

    def alpha(self, s) -> Fraction:
        return self._eval(self.alpha_breaks, _as_fraction(s))

    def beta(self, s) -> Fraction:
        return self._eval(self.beta_breaks, _as_fraction(s))

    @classmethod
    def linear(cls, p, q, t: int) -> "CurveSpec":
        """Straight curve alpha(s)=(1-p)s, beta(s)=(1-q)s, uniform partition."""
        p, q = _as_fraction(p), _as_fraction(q)
        half = t // 2
        part = tuple(Fraction(i, half) for i in range(half + 1))
        return cls(
            alpha_breaks=((Fraction(0), Fraction(0)), (Fraction(1), 1 - p)),
            beta_breaks=((Fraction(0), Fraction(0)), (Fraction(1), 1 - q)),
            partition=part,
        )


@dataclass(frozen=True)
class AndModelParams:
    """Parameters of the AND-function chain: X~Ber(p), Y~Ber(q) independent."""

    p: float
    q: float
    t: int
    curve: CurveSpec | None = None

    def __post_init__(self):
        if not (0.0 < float(self.p) < 1.0 and 0.0 < float(self.q) < 1.0):
            raise ValueError("p and q must lie strictly inside (0, 1)")
        if self.t < 2 or self.t % 2:
            raise ValueError("t must be even and at least 2")
        if self.curve is None:
            object.__setattr__(self, "curve", CurveSpec.linear(self.p, self.q, self.t))


def _two_terminal_chains(t: int) -> tuple:
    """Declared Markov chains: odd rounds condition on X, even rounds on Y."""
    chains = []
    for i in range(1, t + 1):
        past = tuple(f"u{j}" for j in range(1, i))
        if i % 2:
            chains.append(((f"u{i}",), ("x",) + past, ("y",)))
        else:
            chains.append(((f"u{i}",), ("y",) + past, ("x",)))
    return tuple(chains)


def build_and_chain(params: AndModelParams) -> AuxChainModel:
    """Exact AND-function auxiliary chain from the rectangle arrangement.

    The joint is assembled by summing exact rational cell measures of the
    arrangement cut by every threshold the indicators use; masses sum to 1
    exactly before conversion to floats.
    """
    p, q = _as_fraction(params.p), _as_fraction(params.q)
    curve, t = params.curve, params.t
    half = t // 2
    if len(curve.partition) != half + 1:
        raise ValueError(
            f"partition must have t/2 + 1 = {half + 1} points, got {len(curve.partition)}"
        )
    a_vals = [curve.alpha(s) for s in curve.partition]
    b_vals = [curve.beta(s) for s in curve.partition]
    if a_vals[0] != 0 or b_vals[0] != 0:
        raise ValueError("curve must satisfy alpha(0) = beta(0) = 0")
    if a_vals[-1] != 1 - p or b_vals[-1] != 1 - q:
        raise ValueError("curve must satisfy alpha(1) = 1-p and beta(1) = 1-q")

    x_cuts = sorted({Fraction(0), Fraction(1), 1 - p, *a_vals})
    y_cuts = sorted({Fraction(0), Fraction(1), 1 - q, *b_vals})
    shape = (2, 2) + (2,) * t
    mass = {}
    total = Fraction(0)
    for xk in range(len(x_cuts) - 1):
        wx = x_cuts[xk + 1] - x_cuts[xk]
        cx = x_cuts[xk]  # indicators are constant on [cut, next); evaluate at the left edge
        for yk in range(len(y_cuts) - 1):
            wy = y_cuts[yk + 1] - y_cuts[yk]
            cy = y_cuts[yk]
            cell = wx * wy
            total += cell
            idx = [int(cx >= 1 - p), int(cy >= 1 - q)]
            for i in range(1, half + 1):
                idx.append(int(cx >= a_vals[i] and cy >= b_vals[i - 1]))
                idx.append(int(cx >= a_vals[i] and cy >= b_vals[i]))
            key = tuple(idx)
            mass[key] = mass.get(key, Fraction(0)) + cell
    if total != 1:
        raise ValueError(f"cell measures sum to {total}, not 1")

    table = np.zeros(shape)
    for key, value in mass.items():
        table[key] = float(value)
    variables = (("x", 2), ("y", 2)) + tuple((f"u{i}", 2) for i in range(1, t + 1))
    f_and = np.array([[0, 0], [0, 1]], dtype=np.int64)
    model = AuxChainModel(
        joint=JointPmf(variables, table),
        rounds=t,
        round_sources=tuple("x" if i % 2 else "y" for i in range(1, t + 1)),
        markov_specs=_two_terminal_chains(t),
        functions={"f_A": f_and, "f_B": f_and},
        network="two-terminal",
    )
    model.validate_functions()
    return model


def build_bsc_chain(alpha_noise: float, eps: float) -> AuxChainModel:
    """One-round test chain X ~ Ber(1/2), U1 = X + Ber(alpha), Y = X + Ber(eps).

    Satisfies U1 -> X -> Y exactly and gives the closed-form round-1 rate
    I(X; U1 | Y) = h2(alpha * eps) - h2(alpha) (binary convolution *). A rate
    benchmark, not a function-computation example: f_A = X and f_B = Y so the
    zero-conditional-entropy constraints hold trivially.
    """
    for name, val in (("alpha_noise", alpha_noise), ("eps", eps)):
        if not 0.0 < val <= 0.5:
            raise ValueError(f"{name} must lie in (0, 0.5], got {val}")
    x, y, u = np.indices((2, 2, 2), sparse=True)
    pn1 = np.where(u != x, alpha_noise, 1.0 - alpha_noise)
    pn2 = np.where(y != x, eps, 1.0 - eps)
    table = 0.5 * pn1 * pn2
    model = AuxChainModel(
        joint=JointPmf((("x", 2), ("y", 2), ("u1", 2)), table),
        rounds=1,
        round_sources=("x",),
        markov_specs=((("u1",), ("x",), ("y",)),),
        functions={
            "f_A": np.array([[0, 0], [1, 1]], dtype=np.int64),  # f_A(x, y) = x
            "f_B": np.array([[0, 1], [0, 1]], dtype=np.int64),  # f_B(x, y) = y
        },
        network="two-terminal",
    )
    model.validate_functions()
    return model


def bsc_round_rate(alpha_noise: float, eps: float) -> float:
    """Closed-form I(X; U1 | Y) for the BSC test chain."""
    return binary_entropy(convolve_noise(alpha_noise, eps)) - binary_entropy(alpha_noise)


def build_collocated_chain(m: int, source_probs: Sequence[float]) -> AuxChainModel:
    """Collocated AND chain: independent X^j ~ Ber(p_j), U1 = X^1,
    U^i = X^i AND U^{i-1}, computing f = AND of all sources with t = m."""
    if m < 2:
        raise ValueError("collocated chain needs m >= 2 source terminals")
    probs = [float(pj) for pj in source_probs]
    if len(probs) != m:
        raise ValueError(f"need {m} source probabilities, got {len(probs)}")
    if any(not 0.0 < pj <= 1.0 for pj in probs):
        raise ValueError("source probabilities must lie in (0, 1]")
    xs = np.indices((2,) * m).reshape(m, -1)  # every source tuple, one per column
    p_col = np.array(probs)[:, None]
    # the product runs over j = 1..m in order, as a left-to-right float product
    px = np.prod(np.where(xs == 1, p_col, 1.0 - p_col), axis=0)
    table = np.zeros((2,) * (2 * m))
    table[tuple(xs) + tuple(np.logical_and.accumulate(xs, axis=0).astype(np.intp))] = px
    variables = tuple((f"x{j}", 2) for j in range(1, m + 1)) + tuple(
        (f"u{i}", 2) for i in range(1, m + 1)
    )
    chains = []
    for i in range(1, m + 1):
        past = tuple(f"u{j}" for j in range(1, i))
        others = tuple(f"x{j}" for j in range(1, m + 1) if j != i)
        chains.append(((f"u{i}",), past + (f"x{i}",), others))
    f_all = np.zeros((2,) * m, dtype=np.int64)
    f_all[(1,) * m] = 1
    model = AuxChainModel(
        joint=JointPmf(variables, table),
        rounds=m,
        round_sources=tuple(f"x{i}" for i in range(1, m + 1)),
        markov_specs=tuple(chains),
        functions={"f": f_all},
        network="collocated",
    )
    model.validate_functions()
    return model


def sum_rates(p: float, q: float) -> dict:
    """Closed-form AND-function sum rates.

    r_sum_infinity = h2(p) + p h2(q) + p log2(q) + p(1-q) log2(e) is the
    minimum sum-rate in the many-round limit; r_sum_two_round_A =
    h2(p) + p h2(q) is the two-message minimum when A speaks first. The
    strict inequality r_sum_infinity < r_sum_two_round_A is the displayed
    comparison this pair reproduces.
    """
    if not (0.0 < p < 1.0 and 0.0 < q < 1.0):
        raise ValueError("p and q must lie strictly inside (0, 1)")
    two_round = binary_entropy(p) + p * binary_entropy(q)
    infinity = two_round + p * math.log2(q) + p * (1.0 - q) * LOG2_E
    return {"r_sum_infinity": infinity, "r_sum_two_round_A": two_round}

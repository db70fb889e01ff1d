"""Finite-alphabet probability machinery.

Dense joint PMFs over named variables, Shannon information measures in bits,
the Bhattacharyya parameter

    Z(T|V) = 2 sum_v P(v) sqrt(P(T=0|v) P(T=1|v)),

unnormalized L1 (total-variation) distance sum|p - q| with range [0, 2], and
Markov-chain validation for auxiliary-variable models.

All tables are double precision; normalization is enforced to NORM_TOL.
Every type here is immutable after construction and safe to share across
workers.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

NORM_TOL = 1e-12


def function_dtype(table: np.ndarray) -> np.dtype:
    """The narrowest signed integer dtype holding every value of a function
    table, all in [0, hi], and the erasure sentinel -1; a signed dtype holds
    hi >= 0 exactly where it holds -hi - 1."""
    return np.min_scalar_type(-int(table.max()) - 1)


def _validate_mass(mass: np.ndarray) -> None:
    """Reject a negative or NaN mass, or a total off 1 (NaN fails both
    checks, which are written as what a valid mass satisfies)."""
    if not np.all(mass >= 0):
        raise ValueError("probability masses must be nonnegative numbers")
    total = float(mass.sum())
    if not abs(total - 1.0) <= NORM_TOL:
        raise ValueError(f"masses must sum to 1 within {NORM_TOL}, got {total!r}")


@dataclass(frozen=True)
class Pmf:
    """Probability mass function on a single finite alphabet."""

    mass: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mass", np.asarray(self.mass, dtype=np.float64))
        if self.mass.ndim != 1 or self.mass.size == 0:
            raise ValueError("Pmf mass must be a nonempty 1-D vector")
        _validate_mass(self.mass)


@dataclass(frozen=True)
class JointPmf:
    """Dense joint PMF over an ordered list of named finite variables.

    Parameters
    ----------
    variables : sequence of (name, size)
        Ordered variable roles; axis k of `mass` ranges over variable k.
    mass : ndarray
        Dense table with shape equal to the alphabet sizes.
    """

    variables: tuple
    mass: np.ndarray

    def __post_init__(self):
        variables = tuple((str(n), int(s)) for n, s in self.variables)
        names = [n for n, _ in variables]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate variable names: {names}")
        mass = np.asarray(self.mass, dtype=np.float64)
        if mass.shape != tuple(s for _, s in variables):
            raise ValueError(
                f"mass shape {mass.shape} does not match alphabet sizes "
                f"{tuple(s for _, s in variables)}"
            )
        _validate_mass(mass)
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "mass", mass)

    @property
    def names(self) -> tuple:
        return tuple(n for n, _ in self.variables)

    def size_of(self, name: str) -> int:
        return dict(self.variables)[name]

    def axes_of(self, names: Sequence[str]) -> tuple:
        order = {n: k for k, (n, _) in enumerate(self.variables)}
        missing = [n for n in names if n not in order]
        if missing:
            raise ValueError(f"unknown variables: {missing}")
        return tuple(order[n] for n in names)

    def marginal(self, names: Sequence[str]) -> "JointPmf":
        """Marginal joint over `names`, axes reordered to match `names`."""
        names = tuple(names)
        if not names:
            raise ValueError("marginal over an empty variable subset")
        keep = self.axes_of(names)
        drop = tuple(k for k in range(self.mass.ndim) if k not in keep)
        table = self.mass.sum(axis=drop) if drop else self.mass
        # reorder remaining axes into the requested order
        remaining = [k for k in range(self.mass.ndim) if k in keep]
        table = np.transpose(table, [remaining.index(k) for k in keep])
        return JointPmf(tuple((n, self.size_of(n)) for n in names), table)

    def to_json(self) -> str:
        payload = {
            "variables": [{"name": n, "size": s} for n, s in self.variables],
            "mass": self.mass.ravel().tolist(),
        }
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "JointPmf":
        payload = json.loads(text)
        variables = tuple((v["name"], v["size"]) for v in payload["variables"])
        shape = tuple(s for _, s in variables)
        return cls(variables, np.asarray(payload["mass"]).reshape(shape))


def entropy_bits(p: Pmf | JointPmf, over: Sequence[str] | None = None) -> float:
    """Shannon entropy in bits of `p`, or of the marginal on `over`.

    0 log 0 is treated as 0. For a JointPmf, `over` defaults to all
    variables; an explicitly empty subset is a usage error.
    """
    if isinstance(p, Pmf):
        mass = p.mass
    else:
        if over is None:
            over = p.names
        if len(tuple(over)) == 0:
            raise ValueError("entropy over an empty variable subset")
        mass = p.marginal(tuple(over)).mass
    mass = mass[mass > 0]
    return float(-(mass * np.log2(mass)).sum())


def mutual_information(
    j: JointPmf,
    a: Sequence[str],
    b: Sequence[str],
    given: Sequence[str] = (),
) -> float:
    """Conditional mutual information I(a; b | given) in bits, clamped to >= 0.

    a, b, given must be pairwise disjoint subsets of j's variables.
    """
    a, b, given = tuple(a), tuple(b), tuple(given)
    if not a or not b:
        raise ValueError("a and b must be nonempty")
    pooled = a + b + given
    if len(set(pooled)) != len(pooled):
        raise ValueError(f"variable subsets overlap: a={a} b={b} given={given}")
    j.axes_of(pooled)
    value = (
        entropy_bits(j, a + given)
        + entropy_bits(j, b + given)
        - entropy_bits(j, a + b + given)
        - (entropy_bits(j, given) if given else 0.0)
    )
    if value < -NORM_TOL:
        raise ValueError(f"conditional mutual information below -{NORM_TOL}: {value}")
    return max(value, 0.0)


def bhattacharyya(j: JointPmf, t_var: str, v_vars: Sequence[str] = ()) -> float:
    """Bhattacharyya parameter Z(T | V) for a binary T.

    Z = 2 sum_v sqrt(P(T=0, v) P(T=1, v)); conditional factors are taken as 0
    on null conditioning events, which the joint form handles for free.
    """
    if j.size_of(t_var) != 2:
        raise ValueError(f"{t_var!r} must be binary, has size {j.size_of(t_var)}")
    v_vars = tuple(v_vars)
    table = j.marginal((t_var,) + v_vars).mass.reshape(2, -1)
    return float(2.0 * np.sqrt(table[0] * table[1]).sum())


def tv_distance(p: JointPmf, q: JointPmf) -> float:
    """Unnormalized L1 distance sum|p - q|, range [0, 2]."""
    if p.variables != q.variables:
        raise ValueError(
            f"variable roles differ: {p.variables} vs {q.variables}"
        )
    return float(np.abs(p.mass - q.mass).sum())


@dataclass(frozen=True)
class MarkovChainReport:
    """Validation result for one chain A -> B -> C."""

    chain: tuple
    max_violation: float
    passed: bool


@dataclass(frozen=True)
class MarkovReport:
    chains: tuple
    tol: float

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.chains)

    @property
    def max_violation(self) -> float:
        return max((c.max_violation for c in self.chains), default=0.0)


def _chain_violation(j: JointPmf, a: Sequence[str], b: Sequence[str], c: Sequence[str]) -> float:
    """max over (a,b,c) of P(b) |P(a,c|b) - P(a|b) P(c|b)|.

    Weighting by P(b) keeps null conditioning events harmless: cells with
    P(b) = 0 contribute 0 by definition. Degenerate chains may repeat a
    variable across the groups; repeats are tied on the diagonal.
    """
    a, b, c = tuple(a), tuple(b), tuple(c)
    names = a + b + c
    unique = list(dict.fromkeys(names))
    table = j.marginal(tuple(unique)).mass
    grid = np.indices(tuple(j.size_of(n) for n in names), sparse=True)
    tied = True
    for k, name in enumerate(names):
        tied = tied & (grid[k] == grid[names.index(name)])
    full = np.where(tied, table[tuple(grid[names.index(n)] for n in unique)], 0.0)
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


def validate_markov(model, tol: float = 1e-9) -> MarkovReport:
    """Check every Markov chain declared by an AuxChainModel.

    Report-only: never raises on a failing chain. A chain (A, B, C) passes
    iff max_{a,b,c} P(b)|P(a,c|b) - P(a|b)P(c|b)| <= tol.
    """
    reports = []
    for a, b, c in model.markov_specs:
        v = _chain_violation(model.joint, a, b, c)
        reports.append(MarkovChainReport((tuple(a), tuple(b), tuple(c)), v, v <= tol))
    return MarkovReport(tuple(reports), tol)


@dataclass(frozen=True)
class AuxChainModel:
    """Per-symbol model of the auxiliary-variable chain.

    Holds the joint P_{X,Y,U^{1:t}} (two-terminal) or P_{X^{1:m},U^{1:t}}
    (collocated), the round schedule, the Markov chains the model claims,
    and the per-symbol function tables.

    Parameters
    ----------
    joint : JointPmf
        Variables named "x","y","u1",...,"ut" or "x1",...,"xm","u1",...,"ut".
    rounds : int
        Number of communication rounds t (the number of u-variables).
    round_sources : tuple of str
        Per round, the source variable observed by the transmitter
        ("x"/"y" alternating for two-terminal, "x<j>" for collocated).
    markov_specs : tuple of (A, B, C) chains
        Each entry is a triple of variable-name tuples.
    functions : mapping
        Function tables keyed "f_A"/"f_B" (two-terminal) or "f" (collocated);
        each value is an array of nonnegative integers over the source
        variables in joint order, e.g. f_A[x, y]; a negative value raises,
        as the outputs mark erasures by -1.
    """

    joint: JointPmf
    rounds: int
    round_sources: tuple
    markov_specs: tuple
    functions: Mapping[str, np.ndarray]
    network: str = "two-terminal"
    _decode_tables: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        u_names = tuple(f"u{i}" for i in range(1, self.rounds + 1))
        for name in u_names:
            if self.joint.size_of(name) != 2:
                raise ValueError(f"auxiliary variable {name} must be binary")
        if len(self.round_sources) != self.rounds:
            raise ValueError("round_sources must list one source per round")
        for src in self.round_sources:
            self.joint.axes_of((src,))
        if self.network not in ("two-terminal", "collocated"):
            raise ValueError(f"unknown network kind {self.network!r}")
        object.__setattr__(self, "round_sources", tuple(self.round_sources))
        object.__setattr__(
            self,
            "markov_specs",
            tuple((tuple(a), tuple(b), tuple(c)) for a, b, c in self.markov_specs),
        )
        functions = {k: np.asarray(v, dtype=np.int64) for k, v in dict(self.functions).items()}
        for key, table in functions.items():
            if table.shape != tuple(self.joint.size_of(n) for n in self.source_vars):
                raise ValueError(f"function table {key} has shape {table.shape}")
            if table.min() < 0:
                raise ValueError(f"function table {key} takes a negative value; "
                                 "-1 marks an erasure")
        object.__setattr__(self, "functions", functions)

    @property
    def u_vars(self) -> tuple:
        return tuple(f"u{i}" for i in range(1, self.rounds + 1))

    @property
    def source_vars(self) -> tuple:
        return tuple(n for n in self.joint.names if not n.startswith("u"))

    def function_args(self, which: str) -> tuple:
        """Argument variables of the per-symbol decode table for `which`."""
        if self.network == "collocated":
            if which != "f":
                raise ValueError("collocated models expose a single function 'f'")
            return self.u_vars
        if which == "f_A":
            return ("x",) + self.u_vars
        if which == "f_B":
            return ("y",) + self.u_vars
        raise ValueError(f"unknown function {which!r}")

    def decode_table(self, which: str) -> np.ndarray:
        """Per-symbol lookup (args) -> unique function value, -1 on erasure.

        -1 marks argument tuples with zero probability (mass <= 1e-14) under
        the per-symbol joint. A positive-probability tuple mapping to more
        than one function value violates the zero-conditional-entropy
        invariant and raises. The table is built once per function and held
        in `function_dtype` of the function table: int8 for 0/1 functions.
        """
        if which in self._decode_tables:
            return self._decode_tables[which]
        if which not in self.functions:
            raise ValueError(f"model carries no function {which!r}")
        args = self.function_args(which)
        names = self.source_vars + self.u_vars
        cells = np.nonzero(self.joint.marginal(names).mass > 1e-14)
        values = self.functions[which][cells[: len(self.source_vars)]]
        shape = tuple(self.joint.size_of(a) for a in args)
        # the trailing unit axis keeps keys one per cell when args is empty
        keys = np.ravel_multi_index(
            tuple(cells[names.index(a)] for a in args) + (np.zeros_like(values),), shape + (1,))
        out = np.full(shape, -1, dtype=function_dtype(self.functions[which]))
        _, first = np.unique(keys, return_index=True)  # each key takes its first cell's value
        out.flat[keys[first]] = values[first]
        clash = np.flatnonzero(out.flat[keys] != values)
        if clash.size:
            k = clash[0]
            key = tuple(int(d) for d in np.unravel_index(keys[k], shape))
            raise ValueError(
                f"function {which} is not determined by {args} at {key}: "
                f"values {out[key]} and {values[k]} both have positive probability"
            )
        self._decode_tables[which] = out
        return out

    def validate_functions(self) -> None:
        """Materialize every decode table, raising on any determinism breach."""
        for which in self.functions:
            self.decode_table(which)

    def to_json(self) -> str:
        payload = {
            "joint": json.loads(self.joint.to_json()),
            "rounds": self.rounds,
            "round_sources": list(self.round_sources),
            "markov_specs": [[list(a), list(b), list(c)] for a, b, c in self.markov_specs],
            "functions": {k: v.ravel().tolist() for k, v in self.functions.items()},
            "network": self.network,
        }
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "AuxChainModel":
        payload = json.loads(text)
        joint = JointPmf.from_json(json.dumps(payload["joint"]))
        src_shape = tuple(
            s for n, s in joint.variables if not n.startswith("u")
        )
        functions = {
            k: np.asarray(v, dtype=np.int64).reshape(src_shape)
            for k, v in payload["functions"].items()
        }
        return cls(
            joint=joint,
            rounds=payload["rounds"],
            round_sources=tuple(payload["round_sources"]),
            markov_specs=tuple(
                (tuple(a), tuple(b), tuple(c)) for a, b, c in payload["markov_specs"]
            ),
            functions=functions,
            network=payload["network"],
        )

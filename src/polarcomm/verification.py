"""Exact small-N oracle and Monte Carlo protocol metrics.

The exact paths sum over every block combination and build the protocol's
induced law Q from the sampling-rule factors computed by direct
marginalization of the block joints (never through the SC engine, so the
oracle stays an independent route; the engine is checked against it
elsewhere). A receiver's factors are those of its tags,
`IndexPartition.tags_for_receiver()`: the copied indices F_r and I' are
PINNED and contribute no factor, and the receiver's block matches the
transmitter's there. Reported quantities:

  * exact_q_tv      -- || Q_{induced} - P_{ideal} ||_1 (unnormalized L1) of
                       terminal A's or terminal B's history law;
  * agreement_probability -- Pr{every round's u-blocks coincide at both
                       terminals};
  * exact_metrics   -- both exact quantities, each None where no route
                       covers the input;
  * function_error_rate -- end-to-end block/symbol/erasure rates by trials;
  * measured_rates  -- per-round |I'|/N next to the closed-form targets.

Both exact routes contract `_chain_factors`, the per-round sampling factors
of both terminals, with the source law (variable elimination: numpy's
greedy einsum eliminates block axes one at a time). They cover two-terminal
models only, and `_no_exact_route` alone applies their one domain: the
sources' blocks times the compared u-blocks, |X|^N |Y|^N 2^(N k) cells, at
most exact.MAX_ENUM = 2^24, with k the rounds compared for TV and t for
agreement (N <= 8 on binary sources at k = 1, N <= 4 at k = 2 to 4).

  * TV of r rounds contracts to one terminal's history law one chunk of
    x-blocks at a time and sums |Q - P| chunk by chunk, so neither Q nor
    the ideal P is ever held whole: a chunk is the largest power of |X|
    x-blocks within CELLS = 2^19 cells (at least one x-block), and the
    ideal's and the source law's chunks are products of the chunk's fixed
    leading x-symbols with one power of the trailing symbols, computed once;
  * agreement contracts on the common path, where both terminals' blocks
    coincide, to a scalar.

Greedy einsum caps every intermediate at its largest operand or output, so
TV holds the round factors and a few chunks: four rounds of AND at N = 4
peak at 74 MiB of allocations, where Q alone would take 128 MiB, and round
1 at N = 8 at 22 MiB.
The routes model the sampling F_d rule, which fd_policy="argmax" follows
only where no round has an F_d index.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .exact import (
    MAX_ENUM,
    block_product,
    digits_to_ints,
    ints_to_digits,
    sampled_chain_table,
    split_block_joint,
    transform_permutation,
)
from .probability import AuxChainModel, function_dtype
from .protocol import RoundPlan, run_collocated, run_two_terminal, sample_sources
from .sc import mixed_radix


@dataclass(frozen=True)
class VerificationReport:
    """One verification run's metrics; confidence radii in Monte Carlo mode."""

    n_len: int
    mode: str  # "exact" | "monte_carlo"
    tv_value: float | None = None
    agreement_probability: float | None = None
    rates: tuple | None = None
    block_error: float | None = None
    symbol_error: float | None = None
    erasure_rate: float | None = None
    trials: int | None = None
    seed: int | None = None
    confidence_radius: float | None = None

    def __post_init__(self):
        if self.mode not in ("exact", "monte_carlo"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.tv_value is not None and not -1e-9 <= self.tv_value <= 2 + 1e-9:
            raise ValueError("tv_value must lie in [0, 2]")
        for name in ("agreement_probability", "block_error", "symbol_error", "erasure_rate"):
            val = getattr(self, name)
            if val is not None and not -1e-9 <= val <= 1 + 1e-9:
                raise ValueError(f"{name} must lie in [0, 1]")


def _pin_patterns(n_len: int, pins: np.ndarray) -> np.ndarray:
    """pat[v] = the bits of block v at the pinned indices, as an integer."""
    if pins.size == 0:
        return np.zeros(1 << n_len, dtype=np.int64)
    bits = ints_to_digits(np.arange(1 << n_len), n_len, 2)
    return digits_to_ints(bits[:, pins], 2)


def _round_factor(plan: RoundPlan, side: str) -> tuple:
    """(C, variables): one side's sampling factor of a round and its axes.

    C has one axis per observed variable, over its block ints (u-blocks for
    the past rounds), and a last axis over the round's u-block, reindexed
    from the table's v-blocks; `variables` names the axes in order.
    """
    n_len = plan.n_len
    if side == "tx":
        tags = plan.partition.tags_for_transmitter()
        obs_vars, channel = plan.tx_obs_vars, plan.tx_channel
    else:
        tags = plan.partition.tags_for_receiver()
        obs_vars, channel = plan.rx_obs_vars, plan.rx_channel
    table = sampled_chain_table(channel, tags, n_len)
    k = len(obs_vars)
    digits = channel.flatten_obs([
        ints_to_digits(np.arange(size**n_len).reshape((-1,) + (1,) * (k - 1 - i)), n_len, size)
        for i, size in enumerate(channel.obs_sizes)
    ])
    factor = table[digits_to_ints(digits, channel.obs_size)][..., transform_permutation(n_len)]
    return factor, obs_vars + (plan.bit_var,)


def _chain_factors(model: AuxChainModel, plans: Sequence[RoundPlan], n_len: int,
                   common: bool) -> list:
    """(factor, labels) einsum operands of the protocol's sampling factors
    through `plans`; with the source law over labels [0, 1] they give the
    joint law of the sources and both terminals' u-block histories.

    Label 0 is x, 1 is y, and 2j (terminal A) or 2j + 1 (terminal B) a
    terminal's u_j-block; a factor that observes a source has it first.
    Each round contributes its transmitter's and its receiver's factor and
    the match of the receiver's copied bits to the transmitter's block.
    common=True gives both terminals the labels 2j: the common path, on
    which every match is 1 and is left out.
    """
    def letter(var, end):
        if var.startswith("u"):
            return 2 * int(var[1:]) + (end == "B" and not common)
        return model.source_vars.index(var)

    ops = []
    perm = transform_permutation(n_len)
    for plan in plans:
        tx, rx = plan.transmitter, "B" if plan.transmitter == "A" else "A"
        for side, end in (("tx", tx), ("rx", rx)):
            factor, variables = _round_factor(plan, side)
            ops.append((factor, [letter(var, end) for var in variables]))
        if not common:
            pat = _pin_patterns(n_len, plan.partition.copied)[perm]
            ops.append(((pat[:, None] == pat[None, :]).astype(np.float64),
                        [letter(plan.bit_var, tx), letter(plan.bit_var, rx)]))
    return ops


# cells of one chunk of Q, and of the ideal, that the TV route holds
CELLS = 1 << 19


def _x_chunks(table: np.ndarray, n_len: int, tail_len: int):
    """The blocklength product measure of the per-symbol joint `table`
    (axes x first), split as `split_block_joint` returns it, one chunk of
    |X|^tail_len x-blocks at a time: the chunk that fixes x's leading
    N - tail_len symbols is their product times the power of the trailing
    tail_len symbols, which is computed once."""
    tail = [split_block_joint(table, table.shape, tail_len)] if tail_len else []
    for lead in np.ndindex((table.shape[0],) * (n_len - tail_len)):
        yield block_product([table[d:d + 1] for d in lead] + tail)


def _exact_tv_chain(model: AuxChainModel, plans: Sequence[RoundPlan], n_len: int,
                    side: str) -> float:
    """TV of the chain of `plans`, contracted one chunk of x-blocks at a
    time (module docstring): terminal A's history law
    Q_{X, Y, U_A^{1:r}} against the ideal for side="tx", terminal B's for
    side="rx"."""
    r = len(plans)
    src = model.source_vars
    p_src = model.joint.marginal(src).mass
    p_ideal = model.joint.marginal(src + model.u_vars[:r]).mass
    x_size, y_size = p_src.shape
    per_block = y_size**n_len << (n_len * r)
    tail_len = 0
    while tail_len < n_len and x_size ** (tail_len + 1) * per_block <= CELLS:
        tail_len += 1
    step = x_size**tail_len
    factors = _chain_factors(model, plans, n_len, False)
    own = [2 * j + (side == "rx") for j in range(1, r + 1)]
    # the source law takes the ideal's chunks and product order, so where the
    # rounds reproduce the ideal exactly (all-transmit rounds of a u that the
    # source fixes) Q equals it bit for bit and TV is 0.0
    chunks = zip(_x_chunks(p_src, n_len, tail_len), _x_chunks(p_ideal, n_len, tail_len))
    tv = 0.0
    for start, (src_chunk, ideal) in zip(range(0, x_size**n_len, step), chunks):
        ops = [src_chunk, [0, 1]]
        for factor, labels in factors:
            ops += [factor[start:start + step] if labels[0] == 0 else factor, labels]
        # C order, the ideal's: the subtraction then runs in memory order
        q = np.einsum(*ops, [0, 1, *own], optimize="greedy", order="C")
        q -= ideal
        tv += np.abs(q, out=q).sum()
    return float(tv)


def _no_exact_route(model: AuxChainModel, plans: Sequence[RoundPlan], n_len: int, route,
                    fd_policy: str = "sample") -> str | None:
    """Why the exact route (TV of `route` rounds, or "agreement") cannot take
    the input, or None when it can; the domain is the module docstring's.
    Raises ValueError on inputs that are invalid for any route."""
    if fd_policy not in ("sample", "argmax"):
        raise ValueError(f"fd_policy must be 'sample' or 'argmax', got {fd_policy!r}")
    if route != "agreement" and not 1 <= route <= len(plans):
        raise ValueError(f"rounds must lie in 1..{len(plans)}, got {route}")
    if plans[0].n_len != n_len:
        raise ValueError("plans were built for a different blocklength")
    if model.network != "two-terminal":
        return "the exact routes cover two-terminal models only"
    if fd_policy == "argmax" and any(p.partition.f_d.size for p in plans):
        return "the exact routes model the sampling F_d rule; under argmax F_d must be empty"
    sources = math.prod(model.joint.size_of(s) ** n_len for s in model.source_vars)
    if route == "agreement":
        what, rounds = f"exact agreement over {len(plans)} rounds", len(plans)
    else:
        what, rounds = f"exact TV of {route} round(s)", route
    if (sources << (n_len * rounds)) > MAX_ENUM:
        return f"{what} exceeds {MAX_ENUM} cells at N={n_len}"
    return None


def exact_q_tv(
    model: AuxChainModel,
    plans: Sequence[RoundPlan],
    n_len: int,
    side: str = "tx",
    rounds: int | None = None,
) -> float:
    """Exact || Q - P ||_1 between the protocol-induced law and the ideal.

    rounds=r in 1..t compares the chain of the first r rounds and
    rounds=None all t of them; other values raise. side="tx" takes
    terminal A's blocks (A transmits round 1), side="rx" terminal B's: the
    law of the sources and that terminal's u-blocks of rounds 1..r. The
    route covers two-terminal models within |X|^N |Y|^N 2^(N r) <=
    exact.MAX_ENUM cells, for every r; elsewhere ValueError.
    """
    if side not in ("tx", "rx"):
        raise ValueError("side must be 'tx' or 'rx'")
    r = len(plans) if rounds is None else rounds
    reason = _no_exact_route(model, plans, n_len, r)
    if reason is not None:
        raise ValueError(reason)
    return _exact_tv_chain(model, plans[:r], n_len, side)


def agreement_probability(
    model: AuxChainModel,
    plans: Sequence[RoundPlan],
    n_len: int,
    mode: str = "exact",
    fd_policy: str = "sample",
) -> float:
    """Pr{both terminals hold identical u-blocks after every round}, exact.

    Contracts the common-path law over all source blocks and all shared
    block histories to a scalar, without building their grid; the route
    covers two-terminal models with |X|^N |Y|^N 2^(N t) <= exact.MAX_ENUM
    and, as it models the sampling F_d rule, fd_policy="argmax" only where
    every round's F_d is empty; elsewhere ValueError. mode must be "exact"
    (bench/workloads.py passes it positionally); a Monte Carlo estimate is
    `function_error_rate`'s result.agreement.all(axis=0).mean().
    """
    if mode != "exact":
        raise ValueError(f"mode must be 'exact', got {mode!r}")
    reason = _no_exact_route(model, plans, n_len, "agreement", fd_policy)
    if reason is not None:
        raise ValueError(reason)
    if all(p.partition.copied.size == n_len for p in plans):
        # the receiver copies every bit: certainty
        return 1.0
    p_src = model.joint.marginal(model.source_vars).mass
    ops = [split_block_joint(p_src, p_src.shape, n_len), [0, 1]]
    for factor, labels in _chain_factors(model, plans, n_len, True):
        ops += [factor, labels]
    total = np.einsum(*ops, [], optimize="greedy")
    return float(min(max(total, 0.0), 1.0))


def exact_metrics(model: AuxChainModel, plans: Sequence[RoundPlan], n_len: int,
                  rounds: int | None = None, fd_policy: str = "sample") -> tuple:
    """(TV by side over `rounds` as in exact_q_tv, agreement probability) of
    the protocol run under `fd_policy`; each None where no exact route
    covers it, as on a collocated model or beyond the cells the module
    docstring counts from the source alphabets."""
    tv = agree = None
    r = len(plans) if rounds is None else rounds
    if _no_exact_route(model, plans, n_len, r, fd_policy) is None:
        tv = {side: exact_q_tv(model, plans, n_len, side, rounds=r) for side in ("tx", "rx")}
    if _no_exact_route(model, plans, n_len, "agreement", fd_policy) is None:
        agree = agreement_probability(model, plans, n_len, fd_policy=fd_policy)
    return tv, agree


def _run_protocol_trials(model, plans, n_len, trials, seed, fd_policy):
    """Sample sources and execute the protocol; all streams derive from `seed`.

    Returns the sources as trial-last (N, B) arrays and the ProtocolResult.
    The sources are lifted here, once, and handed to the protocol as their
    (B, N) transposed views, which its own lift takes without a copy.
    """
    sources = {s: np.ascontiguousarray(b.T)
               for s, b in sample_sources(model, n_len, trials, seed).items()}
    blocks = {s: b.T for s, b in sources.items()}
    if model.network == "two-terminal":
        result = run_two_terminal(
            model, blocks["x"], blocks["y"], plans,
            shared_seed=seed, private_seed=seed, fd_policy=fd_policy,
        )
    else:
        result = run_collocated(
            model, blocks, plans, shared_seed=seed, private_seed=seed, fd_policy=fd_policy
        )
    return sources, result


def _share(mask: np.ndarray) -> float:
    """The share of True entries of a bool array: the Python float of its
    mean, since both divide the exact count by the size once."""
    return int(np.count_nonzero(mask)) / mask.size


def function_error_rate(
    model: AuxChainModel,
    plans: Sequence[RoundPlan],
    n_len: int,
    trials: int,
    seed: int,
    fd_policy: str = "sample",
) -> dict:
    """Monte Carlo end-to-end error rates, per output side.

    block_error counts a trial as failed if any symbol differs from the true
    function value or is erased (erasures are block errors by policy);
    symbol_error and erasure are per-symbol rates, each a Python float
    (_share). The true values are looked up by the sources' mixed-radix
    index in the function table narrowed to `probability.function_dtype`,
    the outputs' dtype, so no value wraps. Returns
    {side: {"block_error", "symbol_error", "erasure", "radius_95"}, ...}
    plus the executed trials under "trials" and the ProtocolResult under
    "result".
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    sources, result = _run_protocol_trials(model, plans, n_len, trials, seed, fd_policy)
    src = model.source_vars[::-1]  # reversed digits: C order over a function table
    digits = [sources[s] for s in src]
    report: dict = {"trials": trials, "result": result}
    for which, out in result.outputs.items():
        # trial-last throughout: the (N, B) sources, and the arrays behind the
        # (B, N) output views
        table = model.functions[which]
        narrow = table.astype(function_dtype(table))  # the outputs' dtype
        truth = narrow.reshape(-1)[mixed_radix(digits, table.shape[::-1], src)]
        erased = result.erasures[which].T
        bad = (out.T != truth) | erased
        block = _share(bad.any(axis=0))
        report[which] = {
            "block_error": block,
            "symbol_error": _share(bad),
            "erasure": _share(erased),
            "radius_95": 1.96 * float(np.sqrt(max(block * (1 - block), 1e-12) / trials)),
        }
    return report


def measured_rates(plans: Sequence[RoundPlan]) -> list:
    """Per-round measured |I'|/N next to the closed-form targets."""
    return [
        {
            "round": p.round_index,
            "direction": p.direction,
            "measured": p.measured_rate,
            "target": p.target_rate,
        }
        for p in plans
    ]

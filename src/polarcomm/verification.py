"""Exact small-N oracle and Monte Carlo protocol metrics.

The exact paths sum over every block combination and build the protocol's
induced law Q from the sampling-rule factors computed by direct
marginalization of the block joints (never through the SC engine, so the
oracle stays an independent route; the engine is checked against it
elsewhere). A receiver's factors are those of its tags,
`IndexPartition.tags_for_receiver()`: the copied indices F_r and I' are
PINNED and contribute no factor, and the receiver's block matches the
transmitter's there. Reported quantities:

  * exact_q_tv      -- || Q_{induced} - P_{ideal} ||_1 (unnormalized L1) for
                       the transmitter-side or receiver-side law;
  * agreement_probability -- Pr{every round's u-blocks coincide at both
                       terminals}, exact or Monte Carlo;
  * exact_metrics   -- both exact quantities, each None where no route
                       covers the input;
  * function_error_rate -- end-to-end block/symbol/erasure rates by trials;
  * measured_rates  -- per-round |I'|/N next to the closed-form targets.

The exact routes and their domains (applied by `_no_exact_route` alone)
cover two-terminal models only and bound the cells they count by the source
alphabets, each route within exact.MAX_ENUM = 2^24 cells:

  * TV of round 1 streams the block joint of (x, y, u1), |X|^N |Y|^N 2^N
    cells (N <= 8 on binary sources);
  * TV of r >= 2 rounds contracts `_chain_operands`, the per-round factors
    of both terminals' histories, to one side's history law, within
    |X|^N |Y|^N 2^(2 N r) cells (N <= 4 at r = 2, N <= 2 at r = 3 or 4);
  * agreement contracts the same factors on the common path, where both
    terminals' blocks coincide, to a scalar, within |X|^N |Y|^N 2^(N t)
    cells (N <= 8 at t = 1, N <= 4 at t = 2 to 4).

Every intermediate of a contraction spans a subset of the axes its bound
counts, so none exceeds that bound, and numpy's greedy einsum eliminates
block axes one at a time (variable elimination), which keeps them far
smaller: agreement on AND t = 4 at N = 4 peaks at 34 MiB of allocations,
where the grid alone would take 128 MiB.
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
    block_joint_chunks,
    digits_to_ints,
    ints_to_digits,
    sampled_chain_table,
    split_block_joint,
    transform_permutation,
)
from .probability import AuxChainModel, function_dtype
from .protocol import RoundPlan, run_collocated, run_two_terminal, sample_sources
from .sc import SymbolChannel, mixed_radix


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


def _source_axes(model: AuxChainModel, n_len: int):
    """Ideal product measure over the source blocks, one axis per source."""
    src = model.source_vars
    sizes = tuple(model.joint.size_of(s) for s in src)
    marg = model.joint.marginal(src).mass
    return src, sizes, split_block_joint(marg, sizes, n_len)


def _exact_tv_round1(model: AuxChainModel, plan: RoundPlan, n_len: int, side: str) -> float:
    """|| Q_{U^1-side, sources} - P ||_1, streamed over the block joint."""
    src = model.source_vars
    joint_ch = SymbolChannel.from_joint(model.joint, plan.bit_var, src)

    c_tx = sampled_chain_table(plan.tx_channel, plan.partition.tags_for_transmitter(), n_len)
    if side == "rx":
        c_rx = sampled_chain_table(plan.rx_channel, plan.partition.tags_for_receiver(), n_len)
        pins = plan.partition.copied
        pat = _pin_patterns(n_len, pins)
        n_pat = 1 << pins.size
        a_pat = np.zeros((c_tx.shape[0], n_pat))
        for p in range(n_pat):
            a_pat[:, p] = c_tx[:, pat == p].sum(axis=1)
        a_pat_v = a_pat[:, pat]  # (tx-obs blocks, v-blocks)

    (tx_var,), (rx_var,) = plan.tx_obs_vars, plan.rx_obs_vars
    # no u/v relabeling: it is a bijection and the L1 sum is coordinate-free
    # C-contiguous buffers of the first, largest chunk's shape hold the L1
    # terms in the layout `np.abs(p_obs[:, None] * q_cond - p_joint)` gives
    # them, so the sum runs in the same order
    tv, bufs = 0.0, None
    for obs_ints, p_joint in block_joint_chunks(joint_ch, n_len):
        digits = joint_ch.split_obs(ints_to_digits(obs_ints, n_len, joint_ch.obs_size))
        per_var = {var: digits_to_ints(d, size)
                   for var, d, size in zip(src, digits, joint_ch.obs_sizes)}
        p_obs = p_joint.sum(axis=1)
        if bufs is None:
            bufs = np.empty((2,) + p_joint.shape)
        buf, pat = bufs[:, : obs_ints.size]
        if side == "tx":
            np.take(c_tx, per_var[tx_var], axis=0, out=buf, mode="clip")
        else:
            np.take(c_rx, per_var[rx_var], axis=0, out=buf, mode="clip")
            np.take(a_pat_v, per_var[tx_var], axis=0, out=pat, mode="clip")
            buf *= pat
        np.multiply(p_obs[:, None], buf, out=buf)
        np.subtract(buf, p_joint, out=buf)
        np.abs(buf, out=buf)
        tv += buf.sum()
    return float(tv)


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


def _chain_operands(model: AuxChainModel, plans: Sequence[RoundPlan], n_len: int,
                    common: bool) -> list:
    """einsum operands of the protocol's joint law over the sources and both
    terminals' u-block histories through `plans`.

    Label 0 is x, 1 is y, and 2j (terminal A) or 2j + 1 (terminal B) a
    terminal's u_j-block. Each round contributes its transmitter's and its
    receiver's factor and the match of the receiver's copied bits to the
    transmitter's block. common=True gives both terminals the labels 2j:
    the common path, on which every match is 1 and is left out.
    """
    def letter(var, end):
        if var.startswith("u"):
            return 2 * int(var[1:]) + (end == "B" and not common)
        return model.source_vars.index(var)

    _, _, p_src = _source_axes(model, n_len)
    ops = [p_src, [0, 1]]
    perm = transform_permutation(n_len)
    for plan in plans:
        tx, rx = plan.transmitter, "B" if plan.transmitter == "A" else "A"
        for side, end in (("tx", tx), ("rx", rx)):
            factor, variables = _round_factor(plan, side)
            ops += [factor, [letter(var, end) for var in variables]]
        if not common:
            pat = _pin_patterns(n_len, plan.partition.copied)[perm]
            ops += [(pat[:, None] == pat[None, :]).astype(np.float64),
                    [letter(plan.bit_var, tx), letter(plan.bit_var, rx)]]
    return ops


def _exact_tv_chain(model: AuxChainModel, plans: Sequence[RoundPlan], n_len: int,
                    side: str) -> float:
    """TV of the chain of `plans` by one contraction of `_chain_operands`:
    terminal A's history law Q_{X, Y, U_A^{1:t}} against the ideal for
    side="tx", terminal B's for side="rx"."""
    t = len(plans)
    src, sizes, _ = _source_axes(model, n_len)
    per_sym = model.joint.marginal(tuple(src) + model.u_vars[:t]).mass
    p_ideal = split_block_joint(per_sym, sizes + (2,) * t, n_len)
    own = [2 * j + (side == "rx") for j in range(1, t + 1)]
    q = np.einsum(*_chain_operands(model, plans, n_len, False), [0, 1, *own], optimize="greedy")
    return float(np.abs(q - p_ideal).sum())


def _no_exact_route(model: AuxChainModel, plans: Sequence[RoundPlan], n_len: int, route,
                    fd_policy: str = "sample") -> str | None:
    """Why the exact route (TV of `route` rounds, or "agreement") cannot take
    the input, or None when it can; the domains are the module docstring's.
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
        what, bits = f"exact agreement over {len(plans)} rounds", n_len * len(plans)
    else:
        what, bits = f"exact TV of {route} round(s)", n_len if route == 1 else 2 * n_len * route
    if (sources << bits) > MAX_ENUM:
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
    rounds=None all t of them; other values raise. side="tx" takes the
    transmitting terminal's blocks, side="rx" the receiving terminal's (for
    a chain of two or more rounds: terminal A's vs terminal B's histories).
    Routes exist for two-terminal models only: r = 1 within |X|^N |Y|^N 2^N
    cells, r >= 2 within |X|^N |Y|^N 2^(2 N r), each at most
    exact.MAX_ENUM; elsewhere ValueError.
    """
    if side not in ("tx", "rx"):
        raise ValueError("side must be 'tx' or 'rx'")
    r = len(plans) if rounds is None else rounds
    reason = _no_exact_route(model, plans, n_len, r)
    if reason is not None:
        raise ValueError(reason)
    if r == 1:
        return _exact_tv_round1(model, plans[0], n_len, side)
    return _exact_tv_chain(model, plans[:r], n_len, side)


def agreement_probability(
    model: AuxChainModel,
    plans: Sequence[RoundPlan],
    n_len: int,
    mode: str = "exact",
    trials: int = 10000,
    seed: int = 0,
    fd_policy: str = "sample",
) -> float:
    """Pr{both terminals hold identical u-blocks after every round}.

    Exact mode contracts the common-path law over all source blocks and all
    shared block histories to a scalar, without building their grid; its
    route covers two-terminal models with |X|^N |Y|^N 2^(N t) <=
    exact.MAX_ENUM and, as it models the sampling F_d rule,
    fd_policy="argmax" only where every round's F_d is empty; elsewhere
    ValueError. Monte Carlo runs the protocol.
    """
    if mode == "exact":
        reason = _no_exact_route(model, plans, n_len, "agreement", fd_policy)
        if reason is not None:
            raise ValueError(reason)
        if all(p.partition.copied.size == n_len for p in plans):
            # the receiver copies every bit: certainty
            return 1.0
        total = np.einsum(*_chain_operands(model, plans, n_len, True), [], optimize="greedy")
        return float(min(max(total, 0.0), 1.0))
    if mode != "monte_carlo":
        raise ValueError("mode must be 'exact' or 'monte_carlo'")
    _, result = _run_protocol_trials(model, plans, n_len, trials, seed, fd_policy)
    return float(result.agreement.all(axis=0).mean())


def exact_metrics(model: AuxChainModel, plans: Sequence[RoundPlan], n_len: int,
                  rounds: int | None = None, fd_policy: str = "sample") -> tuple:
    """(TV by side over `rounds` as in exact_q_tv, agreement probability) of
    the protocol run under `fd_policy`; each None where no exact route
    covers it, as on a collocated model or beyond a route's cells, which
    the module docstring counts from the source alphabets."""
    tv = agree = None
    r = len(plans) if rounds is None else rounds
    if _no_exact_route(model, plans, n_len, r, fd_policy) is None:
        tv = {side: exact_q_tv(model, plans, n_len, side, rounds=r) for side in ("tx", "rx")}
    if _no_exact_route(model, plans, n_len, "agreement", fd_policy) is None:
        agree = agreement_probability(model, plans, n_len, "exact", fd_policy=fd_policy)
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

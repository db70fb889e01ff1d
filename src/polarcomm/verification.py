"""Exact small-N oracle and Monte Carlo protocol metrics.

The exact paths enumerate every block combination and build the protocol's
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

The exact routes and their domains (EXACT_MAX_N, applied by
`_no_exact_route` alone): two-terminal models only; TV of round 1 at N <= 8,
TV of the first two rounds at N <= 4, no route for three or more rounds;
agreement at N <= 4 where its grid of source blocks and u-block histories,
|X|^N |Y|^N 2^(N t) cells, fits exact.MAX_ENUM. The routes model the
sampling F_d rule, which fd_policy="argmax" follows only where no round has
an F_d index. The bounds keep runtime and memory at desk scale.
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
from .probability import AuxChainModel
from .protocol import RoundPlan, run_collocated, run_two_terminal, sample_sources
from .sc import SymbolChannel, mixed_radix

EXACT_MAX_N = {1: 8, 2: 4, "agreement": 4}  # TV keyed by the rounds it compares


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
    """|| Q_{U^1-side, sources} - P ||_1 by full enumeration (N <= 8)."""
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


def _round_gather(plan: RoundPlan, side: str, source_ints, hist_ints):
    """C[obs(source, history), v] of one side, over grid axes of block ints.

    source_ints holds the side's own source block and hist_ints the u-blocks
    of the past rounds, each as block integers broadcast over the grid.
    """
    n_len = plan.n_len
    if side == "tx":
        tags = plan.partition.tags_for_transmitter()
        obs_vars, channel = plan.tx_obs_vars, plan.tx_channel
    else:
        tags = plan.partition.tags_for_receiver()
        obs_vars, channel = plan.rx_obs_vars, plan.rx_channel
    table = sampled_chain_table(channel, tags, n_len)
    digits = channel.flatten_obs([
        ints_to_digits(hist_ints[int(var[1:]) - 1] if var.startswith("u") else source_ints,
                       n_len, size)
        for var, size in zip(obs_vars, channel.obs_sizes)
    ])
    return table[digits_to_ints(digits, channel.obs_size)]


def _exact_tv_full(model: AuxChainModel, plans: Sequence[RoundPlan], n_len: int,
                   side: str) -> float:
    """TV of the chain of one or two rounds (`_no_exact_route` admits it).

    side="tx" compares terminal A's history law Q_{U_A^{1:t}, X, Y} to the
    ideal, side="rx" terminal B's. Enumerates both terminals' randomness:
    the round-1 state W[x, y, a1, b1] is the joint law of A's and B's
    u1-blocks given the sources, and round 2 (transmitter B) extends it.
    """
    t = len(plans)
    src, sizes, p_src = _source_axes(model, n_len)
    n_v = 1 << n_len
    perm = transform_permutation(n_len)
    grid_x = np.arange(sizes[0] ** n_len)
    grid_y = np.arange(sizes[1] ** n_len)

    per_sym = model.joint.marginal(tuple(src) + tuple(model.u_vars[:t])).mass
    p_ideal = split_block_joint(per_sym, sizes + (2,) * t, n_len)

    def round_pieces(plan, tx_src_ints, rx_src_ints, tx_hist, rx_hist):
        g_tx = _round_gather(plan, "tx", tx_src_ints, tx_hist)
        g_rx = _round_gather(plan, "rx", rx_src_ints, rx_hist)
        pat = _pin_patterns(n_len, plan.partition.copied)
        match = (pat[:, None] == pat[None, :]).astype(np.float64)
        # reindex the block axes from v-ints to u-ints
        return g_tx[..., perm], g_rx[..., perm], match[perm][:, perm]

    plan1 = plans[0]
    if plan1.transmitter != "A":
        raise ValueError("round 1 must be transmitted by terminal A")
    g_tx1, g_rx1, match1 = round_pieces(
        plan1, grid_x[:, None], grid_y[None, :], [], []
    )  # g_tx1: (Sx, 1, V); g_rx1: (1, Sy, V); match1[w_tx, v_rx]
    w1 = (g_tx1[:, :, :, None] * g_rx1[:, :, None, :] * match1[None, None])
    # w1[x, y, a1, b1]: joint law of (A block, B block) given the sources

    if t == 1:
        q = w1.sum(axis=3) if side == "tx" else w1.sum(axis=2)
        return float(np.abs(p_src[:, :, None] * q - p_ideal).sum())

    plan2 = plans[1]
    if plan2.transmitter != "B":
        raise ValueError("round 2 must be transmitted by terminal B")
    hist_a = [np.arange(n_v).reshape(n_v, 1)]  # axes (a1, b1)
    hist_b = [np.arange(n_v).reshape(1, n_v)]
    g_tx2, g_rx2, match2 = round_pieces(
        plan2,
        grid_y.reshape(1, -1, 1, 1),  # B transmits from (y, u1_B)
        grid_x.reshape(-1, 1, 1, 1),  # A receives with (x, u1_A)
        [h.reshape((1, 1) + h.shape) for h in hist_b],
        [h.reshape((1, 1) + h.shape) for h in hist_a],
    )  # g_tx2: (1, Sy, 1, V, V2); g_rx2: (Sx, 1, V, 1, V2); match2[b2, a2]
    full = (len(grid_x), len(grid_y), n_v, n_v)
    g_tx2 = np.broadcast_to(g_tx2[:, :, 0, :, :], full)  # axes (x, y, b1, b2)
    g_rx2 = np.broadcast_to(g_rx2[:, :, :, 0, :], full)  # axes (x, y, a1, a2)
    if side == "tx":
        # Q_A[x, y, a1, a2] = sum_{b1, b2} w1 g_tx2 g_rx2 match2[b2, a2]
        k = np.einsum("xybw,wv->xybv", g_tx2, match2)
        q = np.einsum("xyab,xybv,xyav->xyav", w1, k, g_rx2, optimize=True)
    else:
        # Q_B[x, y, b1, b2] = sum_{a1, a2} w1 g_tx2 g_rx2 match2[b2, a2]
        k = np.einsum("xyav,wv->xyaw", g_rx2, match2)
        q = np.einsum("xyab,xyaw,xybw->xybw", w1, k, g_tx2, optimize=True)
    return float(np.abs(p_src[:, :, None, None] * q - p_ideal).sum())


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
    if route not in EXACT_MAX_N:
        return f"no exact TV route compares {route} rounds (1 or 2 only)"
    if n_len > EXACT_MAX_N[route]:
        what = route if route == "agreement" else f"TV of {route} round(s)"
        return f"exact {what} needs N <= {EXACT_MAX_N[route]}, got N={n_len}"
    sources = math.prod(model.joint.size_of(s) ** n_len for s in model.source_vars)
    if route == "agreement" and (sources << n_len * len(plans)) > MAX_ENUM:
        return f"exact agreement over {len(plans)} rounds exceeds {MAX_ENUM} cells at N={n_len}"
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
    a chain of two rounds: terminal A vs terminal B histories). Routes exist
    for two-terminal models only: r = 1 at N <= 8, r = 2 at N <= 4, none for
    r >= 3; elsewhere ValueError.
    """
    if side not in ("tx", "rx"):
        raise ValueError("side must be 'tx' or 'rx'")
    r = len(plans) if rounds is None else rounds
    reason = _no_exact_route(model, plans, n_len, r)
    if reason is not None:
        raise ValueError(reason)
    if r == 1:
        return _exact_tv_round1(model, plans[0], n_len, side)
    return _exact_tv_full(model, plans[:r], n_len, side)


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

    Exact mode sums the common-path law over all source blocks and all shared
    block histories; its route covers two-terminal models at N <= 4 with
    |X|^N |Y|^N 2^(N t) <= exact.MAX_ENUM and, as it models the sampling F_d
    rule, fd_policy="argmax" only where every round's F_d is empty; elsewhere
    ValueError. Monte Carlo runs the protocol.
    """
    if mode == "exact":
        reason = _no_exact_route(model, plans, n_len, "agreement", fd_policy)
        if reason is not None:
            raise ValueError(reason)
        if all(p.partition.copied.size == n_len for p in plans):
            # the receiver copies every bit: certainty
            return 1.0
        src, sizes, p_src = _source_axes(model, n_len)
        perm = transform_permutation(n_len)
        grid_x = np.arange(sizes[0] ** n_len)
        grid_y = np.arange(sizes[1] ** n_len)
        w = p_src.copy()  # axes (x, y, u1, ..., u_{r-1}) growing per round
        hist: list = []
        for plan in plans:
            tx_is_a = plan.transmitter == "A"
            lead = w.ndim
            x_ints = grid_x.reshape((-1,) + (1,) * (lead - 1))
            y_ints = grid_y.reshape((1, -1) + (1,) * (lead - 2))
            tx_src_ints = x_ints if tx_is_a else y_ints
            rx_src_ints = y_ints if tx_is_a else x_ints
            g_tx = _round_gather(plan, "tx", tx_src_ints, hist)
            g_rx = _round_gather(plan, "rx", rx_src_ints, hist)
            both = (g_tx * g_rx)[..., perm]  # common block, u-indexed
            w = w[..., None] * np.broadcast_to(both, w.shape + (both.shape[-1],))
            # past u-blocks keep their axes as the grid grows a trailing one
            hist = [h[..., None] for h in hist]
            hist.append(np.arange(1 << n_len).reshape((1,) * lead + (-1,)))
        return float(min(max(w.sum(), 0.0), 1.0))
    if mode != "monte_carlo":
        raise ValueError("mode must be 'exact' or 'monte_carlo'")
    _, result = _run_protocol_trials(model, plans, n_len, trials, seed, fd_policy)
    return float(result.agreement.all(axis=0).mean())


def exact_metrics(model: AuxChainModel, plans: Sequence[RoundPlan], n_len: int,
                  rounds: int | None = None, fd_policy: str = "sample") -> tuple:
    """(TV by side over `rounds` as in exact_q_tv, agreement probability) of
    the protocol run under `fd_policy`; each None where no exact route
    covers it."""
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
    symbol_error and erasure are per-symbol rates. Returns
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
        truth = table.reshape(-1)[mixed_radix(digits, table.shape[::-1], src)]
        erased = result.erasures[which].T
        bad = (out.T != truth) | erased
        block = float(bad.any(axis=0).mean())
        report[which] = {
            "block_error": block,
            "symbol_error": float(bad.mean()),
            "erasure": float(erased.mean()),
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

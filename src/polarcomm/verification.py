"""Exact small-N oracle and Monte Carlo protocol metrics.

The exact paths enumerate every block combination and build the protocol's
induced law Q from the sampling-rule factors computed by direct
marginalization of the block joints (never through the SC engine, so the
oracle stays an independent route; the engine is checked against it
elsewhere). Reported quantities:

  * exact_q_tv      -- || Q_{induced} - P_{ideal} ||_1 (unnormalized L1) for
                       the transmitter-side or receiver-side law, after one
                       round (N <= 8) or the full chain (N <= 4, t <= 2);
  * agreement_probability -- Pr{every round's u-blocks coincide at both
                       terminals}, exact at N <= 4 or Monte Carlo;
  * function_error_rate -- end-to-end block/symbol/erasure rates by trials;
  * measured_rates  -- per-round |I'|/N next to the closed-form targets.

Exact caps keep runtimes at desk scale: the transmitter-side TV enumerates
(u-block, x-block, y-block); the receiver side additionally sums over the
transmitter's randomness through the pinned-pattern contraction.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .exact import (
    EXCLUDED,
    block_joint_chunks,
    digits_to_ints,
    ints_to_digits,
    sampled_chain_table,
    split_block_joint,
    transform_permutation,
)
from .probability import AuxChainModel
from .protocol import RoundPlan, run_collocated, run_two_terminal, sample_sources
from .sc import SymbolChannel

TV_EXACT_CAP = 8
AGREEMENT_EXACT_CAP = 4


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

    def to_json(self) -> str:
        payload = {
            "N": self.n_len,
            "mode": self.mode,
            "tv_value": self.tv_value,
            "agreement_probability": self.agreement_probability,
            "rates": None if self.rates is None else list(self.rates),
            "block_error": self.block_error,
            "symbol_error": self.symbol_error,
            "erasure_rate": self.erasure_rate,
            "trials": self.trials,
            "seed": self.seed,
            "confidence_radius": self.confidence_radius,
        }
        return json.dumps(payload, sort_keys=True)


def _pin_patterns(n_len: int, pins: np.ndarray) -> np.ndarray:
    """pat[v] = the bits of block v at the pinned indices, as an integer."""
    if pins.size == 0:
        return np.zeros(1 << n_len, dtype=np.int64)
    bits = ints_to_digits(np.arange(1 << n_len), n_len, 2)
    return digits_to_ints(bits[:, pins], 2)


def _tx_tags(plan: RoundPlan) -> np.ndarray:
    return plan.partition.tags_for_transmitter()


def _rx_sampled_tags(plan: RoundPlan) -> np.ndarray:
    """Receiver tags with the copied indices (F_r and I') excluded."""
    tags = plan.partition.tags_for_transmitter()
    tags[plan.partition.f_r] = EXCLUDED
    tags[plan.partition.i_prime] = EXCLUDED
    return tags


def _rx_pins(plan: RoundPlan) -> np.ndarray:
    return np.sort(np.concatenate([plan.partition.f_r, plan.partition.i_prime]))


def _source_axes(model: AuxChainModel, n_len: int):
    """Ideal product measure over the source blocks, one axis per source."""
    src = model.source_vars
    sizes = tuple(model.joint.size_of(s) for s in src)
    marg = model.joint.marginal(src).mass
    return src, sizes, split_block_joint(marg, sizes, n_len)


def _exact_tv_round1(model: AuxChainModel, plan: RoundPlan, n_len: int, side: str,
                     method: str) -> float:
    """|| Q_{U^1-side, sources} - P ||_1 by full enumeration (N <= 8)."""
    src = model.source_vars
    joint_ch = SymbolChannel.from_joint(model.joint, plan.bit_var, src)

    c_tx = sampled_chain_table(plan.tx_channel, _tx_tags(plan), n_len)
    if side == "rx":
        c_rx = sampled_chain_table(plan.rx_channel, _rx_sampled_tags(plan), n_len)
        pins = _rx_pins(plan)
        pat = _pin_patterns(n_len, pins)
        n_pat = 1 << pins.size
        a_pat = np.zeros((c_tx.shape[0], n_pat))
        for p in range(n_pat):
            a_pat[:, p] = c_tx[:, pat == p].sum(axis=1)
        a_pat_v = a_pat[:, pat]  # (tx-obs blocks, v-blocks)

    tx_var = plan.tx_obs_vars[0]
    rx_var = plan.rx_obs_vars[0] if side == "rx" else None
    # no u/v relabeling: it is a bijection and the L1 sum is coordinate-free
    tv = 0.0
    for obs_ints, p_joint in block_joint_chunks(joint_ch, n_len):
        digits = joint_ch.split_obs(ints_to_digits(obs_ints, n_len, joint_ch.obs_size))
        per_var = {var: digits_to_ints(d, size)
                   for var, d, size in zip(src, digits, joint_ch.obs_sizes)}
        p_obs = p_joint.sum(axis=1)
        if side == "tx":
            q_cond = c_tx[per_var[tx_var]]
        else:
            q_cond = c_rx[per_var[rx_var]] * a_pat_v[per_var[tx_var]]
        if method == "direct":
            tv += np.abs(p_obs[:, None] * q_cond - p_joint).sum()
        else:
            p_cond = np.zeros_like(p_joint)
            good = p_obs > 0
            p_cond[good] = p_joint[good] / p_obs[good, None]
            tv += (p_obs * np.abs(q_cond - p_cond).sum(axis=1)).sum()
    return float(tv)


def _round_gather(plan: RoundPlan, side: str, source_ints, hist_ints):
    """C[obs(source, history), v] of one side, over grid axes of block ints.

    source_ints holds the side's own source block and hist_ints the u-blocks
    of the past rounds, each as block integers broadcast over the grid.
    """
    n_len = plan.n_len
    if side == "tx":
        tags, obs_vars, channel = _tx_tags(plan), plan.tx_obs_vars, plan.tx_channel
    else:
        tags, obs_vars, channel = _rx_sampled_tags(plan), plan.rx_obs_vars, plan.rx_channel
    table = sampled_chain_table(channel, tags, n_len)
    if not obs_vars:
        return np.broadcast_to(table[0], source_ints.shape + (table.shape[1],))
    digits = channel.flatten_obs([
        ints_to_digits(hist_ints[int(var[1:]) - 1] if var.startswith("u") else source_ints,
                       n_len, size)
        for var, size in zip(obs_vars, channel.obs_sizes)
    ])
    return table[digits_to_ints(digits, channel.obs_size)]


def _exact_tv_full(model: AuxChainModel, plans: Sequence[RoundPlan], n_len: int,
                   side: str) -> float:
    """Full-chain TV at N <= 4, t <= 2, two-terminal models.

    side="tx" compares terminal A's history law Q_{U_A^{1:t}, X, Y} to the
    ideal, side="rx" terminal B's. Enumerates both terminals' randomness:
    the round-1 state W[x, y, a1, b1] is the joint law of A's and B's
    u1-blocks given the sources, and round 2 (transmitter B) extends it.
    """
    if model.network != "two-terminal":
        raise ValueError("full-chain exact TV is implemented for two-terminal models")
    t = len(plans)
    if t > 2:
        raise ValueError("full-chain exact TV enumerates both terminals; t <= 2 only")
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
        pat = _pin_patterns(n_len, _rx_pins(plan))
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


def exact_q_tv(
    model: AuxChainModel,
    plans: Sequence[RoundPlan],
    n_len: int,
    side: str = "tx",
    rounds: int | None = None,
    method: str = "direct",
) -> float:
    """Exact || Q - P ||_1 between the protocol-induced law and the ideal.

    rounds=1 compares the round-1 law (cap N <= 8); rounds=r in 2..t compares
    the chain of the first r rounds and rounds=None all t of them (cap
    N <= 4, r <= 2); other values raise. side="tx" takes the transmitting
    terminal's blocks, side="rx" the receiving terminal's (for the full chain:
    terminal A vs terminal B histories). `method` picks between the direct
    enumeration and the observation-conditioned form; both must agree.
    """
    if side not in ("tx", "rx"):
        raise ValueError("side must be 'tx' or 'rx'")
    if method not in ("direct", "conditional"):
        raise ValueError("method must be 'direct' or 'conditional'")
    r = len(plans) if rounds is None else rounds
    if not 1 <= r <= len(plans):
        raise ValueError(f"rounds must lie in 1..{len(plans)}, got {rounds}")
    if plans[0].n_len != n_len:
        raise ValueError("plans were built for a different blocklength")
    if r == 1:
        if n_len > TV_EXACT_CAP:
            raise ValueError(f"exact TV caps at N <= {TV_EXACT_CAP}")
        return _exact_tv_round1(model, plans[0], n_len, side, method)
    if n_len > AGREEMENT_EXACT_CAP:
        raise ValueError(f"full-chain exact TV caps at N <= {AGREEMENT_EXACT_CAP}")
    if method == "conditional":
        raise ValueError("the conditional form is provided for rounds=1 only")
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

    Exact mode (N <= 4) sums the common-path law over all source blocks and
    all shared block histories; Monte Carlo runs the protocol.
    """
    if mode == "exact":
        if n_len > AGREEMENT_EXACT_CAP:
            raise ValueError(f"exact agreement caps at N <= {AGREEMENT_EXACT_CAP}")
        if model.network != "two-terminal":
            raise ValueError("exact agreement is implemented for two-terminal models")
        if fd_policy != "sample":
            raise ValueError("the exact path models the sampling F_d rule only")
        if all(
            p.partition.f_d.size == 0
            and p.partition.i_prime.size == p.partition.info.size
            for p in plans
        ):
            # receiver copies every non-F_r bit and F_r is shared: certainty
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


def _run_protocol_trials(model, plans, n_len, trials, seed, fd_policy):
    """Sample sources and execute the protocol; all streams derive from `seed`."""
    sources = sample_sources(model, n_len, trials, seed)
    if model.network == "two-terminal":
        result = run_two_terminal(
            model, sources["x"], sources["y"], plans,
            shared_seed=seed, private_seed=seed, fd_policy=fd_policy,
        )
    else:
        result = run_collocated(
            model, sources, plans, shared_seed=seed, private_seed=seed, fd_policy=fd_policy
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
    src = model.source_vars
    report: dict = {"trials": trials, "result": result}
    for which, out in result.outputs.items():
        table = model.functions[which]
        truth = table[tuple(np.asarray(sources[s], dtype=np.intp) for s in src)]
        erased = result.erasures[which]
        bad = (out != truth) | erased
        block = float(bad.any(axis=1).mean())
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

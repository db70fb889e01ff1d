"""The t-round two-terminal protocol and the collocated-network protocol.

Each round, the transmitter samples its v-block index by index (common
randomness on F_r, the prior chain on F_d, its observation conditional on I),
sends the I' subvector in increasing index order, and both sides map v to
u = v G_N and append. The receiver pins the copied bits, F_r and I'
(`IndexPartition.copied`), to the transmitter's: I' is the message and F_r
the common randomness both sides hold. It draws F_d from the prior chain and
I \\ I' from its own observation conditional; only the transmitter draws
from the round's shared stream. In the collocated network every
non-broadcasting terminal (including the sink) reconstructs with
conditioning on the past rounds only.

Randomness is organized as one shared stream per round and one private
stream per party, derived from two user seeds via SeedSequence spawn keys:

    shared stream, round r:     spawn key (0, r) from shared_seed
    private stream of party k:  spawn key (1, k) from private_seed

sample_sources draws from spawn key (2,), and Monte Carlo planning draws the
profile of round r under conditioning k (0 unconditioned, 1 transmitter,
2 receiver) from spawn key (3, r, k) of profile_seed. The leading domain
digit keeps the streams apart when callers pass one seed for all of them.

PCG64 streams are platform-stable, and samplers consume whole (trials, N)
uniform blocks, so runs are reproducible bit for bit.

Function computation is per symbol: look up the unique value the model's
function table forces given (own observation, u^{1:t}); argument tuples of
zero probability are flagged as erasures, never raised.

Every (trials, N) symbol array, from the source cells through the flat
observations to the decode-table index, is held in the smallest unsigned
dtype that holds its alphabet and is never widened to int64 or intp; the SC
walk copies it only into its uint16 leaf codes. The function outputs take
their decode table's dtype, the narrowest signed one holding the function's
values and the erasure sentinel -1.

The round loop holds every block trial-last, as a C-order (N, B) array whose
row i is index i of every trial: the source blocks are lifted to that layout
once, on entry to the loop, and the observations, v- and u-blocks, messages
and function outputs stay in it up to the decode lookup. Each SC walk is a
call of the public `sample_sequential` on the (B, N) transposed views: its
lift hands the walk the (N, B) arrays themselves, and the .T of its (B, N)
result is the walk's C-order block, so no copy is made either way. The walk
reads and writes whole rows, the message and the receivers' pins are row
gathers, and G_N runs along the rows of the (B, N) transposed view. Results
go out as (B, N) transposed views of those arrays: shapes and bytes
(`tobytes` is C order) are the ones a trial-first loop would give.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .exact import enumerable
from .probability import AuxChainModel, entropy_bits, mutual_information, validate_markov
from .reliability import (
    IndexPartition,
    PartitionPolicy,
    ReliabilityProfile,
    build_partition,
    profile_exact,
    profile_monte_carlo,
    with_fractions,
)
from .sc import (
    AnomalyLog,
    SamplingPolicy,
    SymbolChannel,
    _cell_index,
    _in_alphabet,
    _split_cells,
    derive_rng,
    mixed_radix,
    sample_sequential,
)
from .transform import apply_transform, check_block_length


class ModelError(ValueError):
    """The model fails a precondition of the protocol (e.g. Markov check)."""


@dataclass(frozen=True)
class RoundRoles:
    """Who broadcasts round i, what each side observes, and the rate target."""

    round_index: int  # 1-based
    transmitter: str  # "A" / "B", or the broadcasting source "x<j>"
    tx_source: str
    bit_var: str
    tx_obs_vars: tuple
    rx_obs_vars: tuple
    target_rate: float  # I(tx source; U^i | rx observations), no margin


def round_roles(model: AuxChainModel, i: int) -> RoundRoles:
    """Roles of round i (1-based); raises ModelError if turns do not alternate.

    Two-terminal rounds alternate x, y, x, ... and the receiver observes the
    other source plus the past u-blocks. Collocated rounds go round-robin over
    x1..xm and receivers observe the past u-blocks only.
    """
    bit_var = f"u{i}"
    past = tuple(f"u{j}" for j in range(1, i))
    tx_src = model.round_sources[i - 1]
    if model.network == "two-terminal":
        expected = "x" if i % 2 else "y"
        if tx_src != expected:
            raise ModelError(f"round {i} must be sourced by {expected!r} (alternating turns)")
        transmitter = "A" if tx_src == "x" else "B"
        rx_obs_vars = ("y" if tx_src == "x" else "x",) + past
    else:
        j = (i - 1) % len(model.source_vars) + 1
        if tx_src != f"x{j}":
            raise ModelError(f"round {i} must be sourced by terminal {j}")
        transmitter = tx_src
        rx_obs_vars = past
    target = mutual_information(model.joint, (tx_src,), (bit_var,), rx_obs_vars)
    return RoundRoles(i, transmitter, tx_src, bit_var, (tx_src,) + past, rx_obs_vars, target)


class _RoundProfiles(Mapping):
    """Round i's profiles by conditioning, "uncond", "tx" and "rx" in that
    order, each made on first read and kept: exact when `samples` is None,
    else Monte Carlo from spawn key seed + (k,) = (profile_seed, 3, i, k) for
    the k-th key. The profile functions are looked up in this module when a
    profile is made, as `bench/tracer.py` expects; `in`, iteration and len
    make none."""

    def __init__(self, channels: dict, n_len: int, samples: int | None, seed: tuple):
        self._channels, self._n_len, self._samples, self._seed = channels, n_len, samples, seed
        self._made = {}

    def __getitem__(self, key: str) -> ReliabilityProfile:
        if key not in self._made:
            ch, cond = self._channels[key]
            if self._samples is None:
                self._made[key] = profile_exact(ch, self._n_len, cond)
            else:
                seed = self._seed + (list(self._channels).index(key),)
                self._made[key] = profile_monte_carlo(ch, self._n_len, self._samples, seed, cond)
        return self._made[key]

    def __contains__(self, key) -> bool:
        return key in self._channels

    def __iter__(self):
        return iter(self._channels)

    def __len__(self) -> int:
        return len(self._channels)


@dataclass(frozen=True)
class RoundPlan(RoundRoles):
    """A round's roles plus its channels, partition and profiles.

    `profiles` maps "uncond", "tx" and "rx" to the round's profiles, read
    only; each is made on its first read (`plan_protocol`), and `in`,
    iteration and len make none."""

    tx_channel: SymbolChannel
    rx_channel: SymbolChannel
    partition: IndexPartition
    profiles: Mapping[str, ReliabilityProfile]

    @property
    def n_len(self) -> int:
        return self.partition.n_len

    @property
    def direction(self) -> str:
        if self.transmitter in ("A", "B"):
            return "A->B" if self.transmitter == "A" else "B->A"
        return f"{self.transmitter}->all"

    @property
    def measured_rate(self) -> float:
        return self.partition.i_prime.size / self.n_len


@dataclass
class TerminalState:
    """One terminal's view: observations, accumulated u-blocks, streams.

    Observations and u-blocks are trial-last (N, B) arrays.
    """

    observations: dict
    private_rng: np.random.Generator
    u_history: list = field(default_factory=list)

    def flat_obs(self, obs_vars: Sequence[str], channel: SymbolChannel) -> np.ndarray | None:
        """This terminal's (N, B) observation of `obs_vars` in the channel's
        alphabet, None when it observes nothing."""
        if not obs_vars:
            return None
        return channel.flatten_obs([
            self.u_history[int(var[1:]) - 1] if var.startswith("u") else self.observations[var]
            for var in obs_vars
        ])


@dataclass(frozen=True)
class TranscriptRound:
    direction: str
    bit_count: int
    messages: np.ndarray  # (B, |I'|) transmitted bits, increasing index order


@dataclass(frozen=True)
class Transcript:
    n_len: int
    rounds: tuple

    @property
    def rates(self) -> tuple:
        return tuple(r.bit_count / self.n_len for r in self.rounds)

    @property
    def total_bits(self) -> int:
        return sum(r.bit_count for r in self.rounds)

    def to_json(self) -> str:
        payload = {
            "rounds": [
                {
                    "direction": r.direction,
                    "bits": r.bit_count,
                    "message_hex": [
                        row.tobytes().hex()
                        for row in np.packbits(np.atleast_2d(r.messages), axis=1)
                    ],
                }
                for r in self.rounds
            ],
            "rates": list(self.rates),
        }
        return json.dumps(payload, sort_keys=True)


@dataclass(frozen=True)
class ProtocolResult:
    """Reconstructions, agreement, transcript, function outputs, anomalies.

    Every (B, N) array (u-blocks, outputs, erasures) and every (B, |I'|)
    message array is the transposed view of the round loop's trial-last
    array (module docstring), so it is not C-contiguous; its shape, values
    and `tobytes()` are the trial-first ones. The outputs are in their
    decode table's dtype (`compute_function`), int8 for every shipped model.
    """

    network: str
    u_blocks: Mapping[str, tuple]  # role -> per-round (B, N) u-blocks
    agreement: np.ndarray  # (t, B) transmitter-vs-reference equality per round
    transcript: Transcript
    outputs: Mapping[str, np.ndarray]
    erasures: Mapping[str, np.ndarray]
    anomalies: int

    @property
    def rates(self) -> tuple:
        return self.transcript.rates


def plan_protocol(
    model: AuxChainModel,
    n_len: int,
    policy: PartitionPolicy,
    *,
    rate_margin: float = 0.0,
    profile_method: str = "auto",
    profile_samples: int = 4096,
    profile_seed: int = 0,
) -> list:
    """Build one RoundPlan per round from the model's per-symbol joints.

    Under "auto" a round's profiles are exact when both of its channels can
    be enumerated at N (`exact.enumerable`), Monte Carlo otherwise; "exact"
    and "monte_carlo" force one method for every round. In target_rate mode
    the per-round fractions come from the model's closed-form entropies:
    |F_d| ~ 1 - H(U^i), |F_r| ~ H(U^i | tx obs), |I'| ~ the round's rate
    target plus `rate_margin` bits per symbol. Other policies derive no
    target, so a positive `rate_margin` raises ValueError there.

    A round's profiles (`RoundPlan.profiles`) are made on first read:
    `build_partition` takes N and the mapping and reads only the profiles it
    ranks by, and the rest are made when a caller reads them, from the same
    stream, so they have the same bytes. An "exact" method the channels
    cannot enumerate at N, or fewer than one sample on a Monte Carlo round,
    raises ValueError here all the same.
    """
    check_block_length(n_len)
    if not rate_margin >= 0.0:
        raise ValueError(f"rate_margin must be nonnegative, got {rate_margin}")
    if rate_margin > 0.0 and (policy.mode != "target_rate" or policy.fractions is not None):
        raise ValueError("rate_margin applies only to target_rate plans whose fractions "
                         "come from the model; this policy derives no rate target")
    report = validate_markov(model)
    if not report.passed:
        raise ModelError(
            f"model Markov chains violate tolerance {report.tol}: "
            f"max violation {report.max_violation:.3e}"
        )
    if profile_method not in ("auto", "exact", "monte_carlo"):
        raise ValueError(f"unknown profile_method {profile_method!r}")

    plans = []
    for i in range(1, model.rounds + 1):
        roles = round_roles(model, i)
        tx_channel = SymbolChannel.from_joint(model.joint, roles.bit_var, roles.tx_obs_vars)
        rx_channel = SymbolChannel.from_joint(model.joint, roles.bit_var, roles.rx_obs_vars)
        channels = {"uncond": (tx_channel.prior(), "none"), "tx": (tx_channel, "tx"),
                    "rx": (rx_channel, "rx")}
        # config errors raise here, whichever profiles the partition reads
        exact_ok = all(enumerable(ch, n_len) for ch, _ in channels.values())
        if profile_method == "exact" and not exact_ok:
            raise ValueError(f"profile_method 'exact' cannot enumerate round {i}'s "
                             f"channels at N={n_len}")
        use_exact = exact_ok and profile_method != "monte_carlo"
        if not use_exact and profile_samples < 1:
            raise ValueError(f"profile_samples must be >= 1, got {profile_samples}")
        prof = _RoundProfiles(channels, n_len, None if use_exact else profile_samples,
                              (profile_seed, 3, i))
        round_policy = policy
        if policy.mode == "target_rate" and policy.fractions is None:
            f_d = 1.0 - entropy_bits(model.joint, (roles.bit_var,))
            f_r = entropy_bits(model.joint, (roles.bit_var,) + roles.tx_obs_vars) - entropy_bits(
                model.joint, roles.tx_obs_vars
            )
            round_policy = with_fractions(policy, (f_d, f_r, roles.target_rate + rate_margin))
        partition = build_partition(n_len, prof, round_policy)
        plans.append(RoundPlan(**vars(roles), tx_channel=tx_channel, rx_channel=rx_channel,
                               partition=partition, profiles=prof))
    return plans


def run_round(
    plan: RoundPlan,
    tx_state: TerminalState,
    rx_states: Sequence[TerminalState],
    shared_rng: np.random.Generator,
    *,
    fd_policy: str = "sample",
    anomalies: AnomalyLog | None = None,
) -> tuple:
    """Execute one round; returns (message bits, tx u-block, receivers' u-blocks).

    The round runs trial-last: every state's observations and u-blocks are
    (N, B), every returned u-block is (N, B) and the message is the
    (|I'|, B) row gather of the transmitter's v-block at I'. Every walk is a
    `sample_sequential` call on (B, N) transposed views, whose lift and
    result transpose back without a copy. The transmitter draws F_r from
    `shared_rng`, the round's common randomness; each receiver pins the
    copied bits, F_r and I', to the transmitter's, read from the rows of
    its v-block. Appends the new u-block to every state's history.
    """
    part = plan.partition
    obs = tx_state.flat_obs(plan.tx_obs_vars, plan.tx_channel)
    v_tx = sample_sequential(plan.tx_channel, obs.T, SamplingPolicy(part.tags_for_transmitter()),
                             tx_state.private_rng, shared_rng=shared_rng, fd_mode=fd_policy,
                             anomalies=anomalies).T
    message = v_tx[part.i_prime]
    # G_N runs along the rows of the (B, N) view; its .T is (N, B) C-order
    u_tx = apply_transform(v_tx.T).T
    tx_state.u_history.append(u_tx)

    # The walk reads pins at the PINNED indices only, the copied ones, so
    # v_tx itself serves as every receiver's pins. A receiver reads nothing
    # from the shared stream, yet is given it so that the walk skips its
    # block there; with none it would skip a block of the receiver's private
    # stream instead and move every later round.
    rx_policy = SamplingPolicy(part.tags_for_receiver(), v_tx.T)
    u_rx_all = []
    for rx_state in rx_states:
        # no side observation (collocated round 1): obs None, the prior
        obs = rx_state.flat_obs(plan.rx_obs_vars, plan.rx_channel)
        v_rx = sample_sequential(plan.rx_channel, None if obs is None else obs.T, rx_policy,
                                 rx_state.private_rng, shared_rng=shared_rng,
                                 fd_mode=fd_policy, anomalies=anomalies).T
        u_rx = apply_transform(v_rx.T).T
        rx_state.u_history.append(u_rx)
        u_rx_all.append(u_rx)
    return message, u_tx, u_rx_all


def compute_function(
    obs_block: np.ndarray | None,
    u_blocks: Sequence[np.ndarray],
    model: AuxChainModel,
    which: str,
) -> tuple:
    """Per-symbol deterministic evaluation of f_A / f_B / f.

    Looks up the unique value with conditional probability one given the
    argument tuple; zero-probability tuples yield an erasure flag (output 0).
    The decode table is gathered once, by the arguments' mixed-radix index,
    and both outputs come from that array, in the table's dtype
    (`probability.function_dtype`: int8 for every shipped model): the
    erasure flags (bool) where it holds -1, then the values with -1 clamped
    to 0 in place. The lookup is elementwise, so the blocks may take any
    layout that broadcasts, (B, N) or the round loop's trial-last (N, B),
    and the outputs take it too. A symbol outside its argument's alphabet
    raises ValueError.
    """
    args = model.function_args(which)
    blocks = []
    for var in args:
        if var.startswith("u"):
            blocks.append(u_blocks[int(var[1:]) - 1])
        else:
            if obs_block is None:
                raise ValueError(f"function {which} needs the {var!r} observation block")
            blocks.append(obs_block)
    table = model.decode_table(which)
    # reversed digits give the table's C-order flat index; fancy indexing
    # casts the narrow index in buffered chunks, where `take` would first
    # copy all of it to intp
    flat = mixed_radix(blocks[::-1], table.shape[::-1], args[::-1])
    values = np.asarray(table.reshape(-1)[flat])  # as an array where a 0-d index gives a scalar
    erased = values < 0  # -1 marks an erasure, whose output is 0
    np.maximum(values, 0, out=values)
    return values, erased


def sample_sources(
    model: AuxChainModel, n_len: int, trials: int, seed: int
) -> dict:
    """Draw i.i.d. per-symbol source blocks, one (trials, N) array per
    source in the smallest unsigned dtype that holds its alphabet (uint8 up
    to 256 symbols).

    Each symbol draws one double u and takes the cell of the flattened
    source marginal that u * total falls in (`sc._cell_index`); the cells
    are split into per-source symbols in the cells' dtype, then narrowed.
    """
    src = model.source_vars
    marg = model.joint.marginal(src).mass
    rng = derive_rng(seed, 2)
    cum = np.cumsum(marg.reshape(-1))
    x = rng.random((trials, n_len))
    x *= cum[-1]
    cells = _cell_index(cum, x)
    out = {}
    for k in range(len(src) - 1, -1, -1):
        size = model.joint.size_of(src[k])
        cells, symbols = _split_cells(cells, size)
        out[src[k]] = symbols.astype(np.min_scalar_type(size - 1), copy=False)
    return out


def _check_blocks(model: AuxChainModel, n_len: int, parties: Sequence[tuple]) -> None:
    batch = None
    for _, obs in parties:
        for var, b in obs.items():
            b2 = np.atleast_2d(b)
            if b2.shape[1] != n_len:
                raise ValueError(f"observation blocks must have length {n_len}")
            batch = b2.shape[0] if batch is None else batch
            if b2.shape[0] != batch:
                raise ValueError("observation blocks disagree on the trial count")
            size = model.joint.size_of(var)
            if not _in_alphabet(b2, size):
                raise ValueError(f"observation block of {var!r} has symbols outside [0, {size})")


def _run_rounds(
    model: AuxChainModel,
    parties: Sequence[tuple],
    evaluators: Mapping[str, tuple],
    plans: Sequence[RoundPlan],
    *,
    shared_seed: int,
    private_seed: int,
    fd_policy: str,
) -> ProtocolResult:
    """The round loop of both networks.

    `parties` lists (role, {variable: block}) in private-stream order, with
    (N,) or (B, N) blocks: they are lifted here, once, to the trial-last
    (N, B) layout the loop runs in (module docstring), and the results go
    out as (B, N) transposed views, squeezed to (N,) for (N,) blocks. Each
    round the plan's transmitter broadcasts and every other party
    reconstructs, in party order; agreement
    compares the transmitter with the last receiver. `evaluators` maps each
    function to (role, observed variable or None) of the party computing it.
    """
    blocks = [np.asarray(b) for _, obs in parties for b in obs.values()]
    n_len = plans[0].n_len if plans else blocks[0].shape[-1]
    _check_blocks(model, n_len, parties)
    batched = blocks[0].ndim == 2
    states = {
        role: TerminalState({v: np.ascontiguousarray(np.atleast_2d(b).T)
                             for v, b in obs.items()}, derive_rng(private_seed, 1, k))
        for k, (role, obs) in enumerate(parties)
    }
    anomalies = AnomalyLog()
    rounds = []
    agreement = []
    for plan in plans:
        receivers = [st for role, st in states.items() if role != plan.transmitter]
        message, u_tx, u_rx = run_round(
            plan, states[plan.transmitter], receivers,
            derive_rng(shared_seed, 0, plan.round_index),
            fd_policy=fd_policy, anomalies=anomalies,
        )
        rounds.append(TranscriptRound(plan.direction, plan.partition.i_prime.size, message.T))
        agreement.append((u_tx == u_rx[-1]).all(axis=0))

    def out(arr):
        return arr.T if batched else arr[:, 0]

    outputs, erasures = {}, {}
    for which, (role, var) in evaluators.items():
        st = states[role]
        obs = None if var is None else st.observations[var]
        z, er = compute_function(obs, st.u_history, model, which)
        outputs[which], erasures[which] = out(z), out(er)
    return ProtocolResult(
        network=model.network,
        u_blocks={role: tuple(out(u) for u in st.u_history) for role, st in states.items()},
        agreement=np.array(agreement),
        transcript=Transcript(n_len, tuple(rounds)),
        outputs=outputs,
        erasures=erasures,
        anomalies=anomalies.count,
    )


def run_two_terminal(
    model: AuxChainModel,
    x_block: np.ndarray,
    y_block: np.ndarray,
    plans: Sequence[RoundPlan],
    *,
    shared_seed: int = 0,
    private_seed: int = 1,
    fd_policy: str = "sample",
) -> ProtocolResult:
    """Run all rounds on the given source blocks ((N,) or (trials, N)).

    Terminal A computes f_A from (x, u-history of A), terminal B computes
    f_B from (y, u-history of B); per-round rates are |I'| / N.
    """
    if model.network != "two-terminal":
        raise ValueError("model is not a two-terminal model")
    return _run_rounds(
        model, [("A", {"x": x_block}), ("B", {"y": y_block})],
        {"f_A": ("A", "x"), "f_B": ("B", "y")}, plans,
        shared_seed=shared_seed, private_seed=private_seed, fd_policy=fd_policy,
    )


def run_collocated(
    model: AuxChainModel,
    observations: Mapping[str, np.ndarray],
    plans: Sequence[RoundPlan],
    *,
    shared_seed: int = 0,
    private_seed: int = 1,
    fd_policy: str = "sample",
) -> ProtocolResult:
    """Round-robin broadcasts; every other terminal and the sink reconstruct.

    Receivers condition on the past u-blocks only; after the final round the
    sink computes f from its own reconstructions alone.
    """
    if model.network != "collocated":
        raise ValueError("model is not a collocated model")
    parties = [(s, {s: observations[s]}) for s in model.source_vars] + [("sink", {})]
    return _run_rounds(
        model, parties, {"f": ("sink", None)}, plans,
        shared_seed=shared_seed, private_seed=private_seed, fd_policy=fd_policy,
    )

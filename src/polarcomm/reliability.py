"""Per-index Bhattacharyya profiling and round partition construction.

A profile holds Z(V^i | V^{1:i-1}, conditioning) for every index, computed
either exactly (brute-force block enumeration, small N) or by Monte Carlo
(unbiased: sample (v-block, obs) from the model, average
2 sqrt(P(0|.) P(1|.)) per index).

Partitions split [N] into

    F_d = low-entropy indices of the prior chain,
    F_r = indices the transmitter's observation leaves nearly uniform,
    I   = the rest (the information-bearing set),
    I'  = I minus the indices the receiver can recover on its own,

either by thresholding at delta_N = 2^(-N^beta) or, for desk-scale runs, by
rank with target fractions sized from the model's closed-form entropies.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from .exact import _prefix_levels, block_joint_chunks
from .sc import (
    OBSERVATION_CONDITIONAL,
    PINNED,
    PRIOR_CONDITIONAL,
    UNIFORM_HALF,
    SymbolChannel,
    _cell_index,
    _pinned_root,
    _split_cells,
    derive_rng,
    pinned_pairs,
)
from .transform import apply_transform, check_block_length


@dataclass(frozen=True)
class ReliabilityProfile:
    """Per-index Bhattacharyya estimates plus estimation metadata."""

    n_len: int
    conditioning: str
    z: np.ndarray
    method: str  # "exact" | "monte_carlo"
    samples: int | None = None
    seed: int | tuple | None = None  # Monte Carlo: seed or (seed, *spawn key)
    stderr: np.ndarray | None = None

    def __post_init__(self):
        z = np.asarray(self.z, dtype=np.float64)
        if z.shape != (self.n_len,):
            raise ValueError(f"z must have shape ({self.n_len},)")
        if not np.all((z >= -1e-12) & (z <= 1 + 1e-9)):  # NaN fails this
            raise ValueError("Bhattacharyya values must lie in [0, 1]")
        object.__setattr__(self, "z", np.clip(z, 0.0, 1.0))
        if self.method not in ("exact", "monte_carlo"):
            raise ValueError(f"unknown method {self.method!r}")
        if self.stderr is not None:
            object.__setattr__(self, "stderr", np.asarray(self.stderr, dtype=np.float64))

    def to_json(self) -> str:
        payload = {
            "N": self.n_len,
            "conditioning": self.conditioning,
            "method": self.method,
            "z": self.z.tolist(),
            "stderr": None if self.stderr is None else self.stderr.tolist(),
            "samples": self.samples,
            "seed": self.seed,
        }
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ReliabilityProfile":
        p = json.loads(text)
        seed = tuple(p["seed"]) if isinstance(p["seed"], list) else p["seed"]
        return cls(p["N"], p["conditioning"], np.asarray(p["z"]), p["method"],
                   p["samples"], seed,
                   None if p["stderr"] is None else np.asarray(p["stderr"]))


@dataclass(frozen=True)
class PartitionPolicy:
    """How to turn reliability profiles into a round partition.

    mode "threshold" uses delta (explicitly given, else 2^(-N^beta)); mode
    "target_rate" selects by rank with `fractions` = (f_d, f_r, i_prime)
    target densities, which must sum to at most 1.

    The rank selection additionally honors reliability caps: F_d only admits
    indices with z_uncond <= fd_z_cap and F_r only indices with
    z_tx >= 1 - fr_z_cap. Any shortfall against the target fraction lands in
    I but is not transmitted: I' still takes round(N i_prime) indices, and
    `with_fractions` clamps i_prime to 1 - f_d - f_r of the *target*
    fractions, so the receiver samples the extra indices of I from its own
    observation. At desk scale the raw closed-form fractions reach well past
    the polarized sets, and prior-chain samples at such indices contradict
    deterministic observation conditionals, so uncapped selection poisons
    whole blocks. Set a cap to None to disable it.
    """

    mode: str = "target_rate"
    beta: float = 0.3
    delta: float | None = None
    fractions: tuple | None = None
    fd_z_cap: float | None = 1e-3
    fr_z_cap: float | None = 1e-3

    def __post_init__(self):
        if self.mode not in ("threshold", "target_rate"):
            raise ValueError(f"unknown partition mode {self.mode!r}")
        if not 0.0 < self.beta < 0.5:
            raise ValueError("beta must lie in (0, 1/2)")
        if self.delta is not None and not 0.0 < self.delta < 0.5:
            raise ValueError("delta must lie in (0, 1/2)")
        for name in ("fd_z_cap", "fr_z_cap"):
            cap = getattr(self, name)
            if cap is not None and not 0.0 < cap <= 1.0:
                raise ValueError(f"{name} must lie in (0, 1]")
        if self.fractions is not None:
            fr = tuple(float(f) for f in self.fractions)
            if len(fr) != 3 or not all(f >= 0 for f in fr):  # NaN fails both checks
                raise ValueError("fractions must be three nonnegative numbers")
            if not fr[0] + fr[1] + fr[2] <= 1.0 + 1e-9:
                raise ValueError("target fractions must sum to at most 1")
            object.__setattr__(self, "fractions", fr)

    def delta_for(self, n_len: int) -> float:
        if self.delta is not None:
            return self.delta
        return float(2.0 ** (-(n_len**self.beta)))


@dataclass(frozen=True)
class IndexPartition:
    """Disjoint cover F_r, F_d, I of [N] with the transmitted subset I'."""

    n_len: int
    f_r: np.ndarray
    f_d: np.ndarray
    info: np.ndarray
    i_prime: np.ndarray

    def __post_init__(self):
        sets = {}
        for name in ("f_r", "f_d", "info", "i_prime"):
            arr = np.sort(np.asarray(getattr(self, name), dtype=np.intp))
            if arr.size and (arr[0] < 0 or arr[-1] >= self.n_len):
                raise ValueError(f"{name} has indices outside [N]")
            if np.unique(arr).size != arr.size:
                raise ValueError(f"{name} has repeated indices")
            object.__setattr__(self, name, arr)
            sets[name] = arr
        cover = np.concatenate([sets["f_r"], sets["f_d"], sets["info"]])
        if np.unique(cover).size != cover.size or cover.size != self.n_len:
            raise ValueError("F_r, F_d, I must partition [N]")
        if not np.isin(sets["i_prime"], sets["info"]).all():
            raise ValueError("I' must be a subset of I")

    def tags_for_transmitter(self) -> np.ndarray:
        tags = np.empty(self.n_len, dtype=np.uint8)
        tags[self.f_r] = UNIFORM_HALF
        tags[self.f_d] = PRIOR_CONDITIONAL
        tags[self.info] = OBSERVATION_CONDITIONAL
        return tags

    @property
    def copied(self) -> np.ndarray:
        """The sorted indices whose bits a receiver copies from the
        transmitter's v-block: F_r (common randomness) and I' (the message)."""
        return np.union1d(self.f_r, self.i_prime)

    def tags_for_receiver(self) -> np.ndarray:
        """The transmitter's tags with every copied index PINNED; the
        receiver draws only F_d and I \\ I'."""
        tags = self.tags_for_transmitter()
        tags[self.copied] = PINNED
        return tags

    def to_json(self) -> str:
        payload = {
            "N": self.n_len,
            "F_r": self.f_r.tolist(),
            "F_d": self.f_d.tolist(),
            "I": self.info.tolist(),
            "I_prime": self.i_prime.tolist(),
        }
        return json.dumps(payload, sort_keys=True)


def profile_exact(
    ch: SymbolChannel,
    n_len: int,
    conditioning: str = "none",
) -> ReliabilityProfile:
    """Exact Z(V^i | V^{1:i-1}, obs) by brute-force block enumeration.

    Walks the exact joint P(v-block, obs block) and accumulates
    2 sum sqrt(P(prefix 0, obs) P(prefix 1, obs)) per index. Raises
    ValueError where `exact.enumerable(ch, N)` is false; use
    profile_monte_carlo there.
    """
    check_block_length(n_len)
    z = np.zeros(n_len)
    for _, joint_v in block_joint_chunks(ch, n_len):
        for i, level in zip(range(n_len, 0, -1), _prefix_levels(joint_v, n_len)):
            pairs = level.reshape(level.shape[:-1] + (-1, 2))
            z[i - 1] += 2.0 * np.sqrt(pairs[..., 0] * pairs[..., 1]).sum()
    return ReliabilityProfile(n_len, conditioning, np.clip(z, 0.0, 1.0), "exact")


def profile_monte_carlo(
    ch: SymbolChannel,
    n_len: int,
    samples: int,
    seed: int | tuple,
    conditioning: str = "none",
    chunk: int = 512,
) -> ReliabilityProfile:
    """Unbiased Monte Carlo profile with per-index standard errors.

    Draws (u-block, obs block) i.i.d. from the model, pins the SC walk to the
    realized v = u G_N, and averages 2 sqrt(p0 p1) of the exact conditional
    pair at every index. Each chunk draws its own rows of sample cells from
    one stream (`derive_rng(*seed)` for a tuple seed (seed, *spawn key));
    the stream fills rows in order, so the cells depend only on
    (seed, samples), never on the chunking. On a float channel the result
    does, in its last bits, since each chunk's float sums are added to the
    totals in turn: z moves by a few ulps, and stderr, a difference of
    nearly equal sums where the variance is near 0, by up to about 1e-9. A
    hard channel's integer sums (below) are free of the chunking. The cells
    (`sc._cell_index`) and their split into bits and observation symbols
    stay in the smallest unsigned dtype that holds the table's size, and are
    held trial-last, (N, chunk), as the SC walk reads them.

    Since v is known up front, each chunk of `chunk` samples evaluates every
    index's root pair level by level (`sc.pinned_pairs`); there is no
    per-index loop. On a hard channel the tree runs on packed supports, 64
    samples per uint64 word, and every sample's statistic is exactly 0.0 (a
    singleton support) or 1.0 (both bits, or the empty support of a null
    conditioning, whose uniform fallback gives 1.0 too). So each index adds
    the number of roots that are not singletons, the chunk size less the
    popcount of s0 ^ s1 (whose padding bits are 0), to both sums: an exact
    integer, as every partial sum of the float route's 0.0s and 1.0s is, so
    z and stderr are bit for bit that route's.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if chunk < 1:
        raise ValueError("chunk must be >= 1")
    check_block_length(n_len)
    rng = derive_rng(*seed) if isinstance(seed, tuple) else derive_rng(seed)
    cum = np.cumsum(ch.table.reshape(-1))
    acc = np.zeros(n_len)
    acc_sq = np.zeros(n_len)
    for start in range(0, samples, chunk):
        x = rng.random((min(chunk, samples - start), n_len))
        x *= cum[-1]
        # one copy of the narrow cells puts the chunk trial-last, (N, chunk)
        cells = np.ascontiguousarray(_cell_index(cum, x).T)
        u_cells, obs = _split_cells(cells, ch.obs_size)
        v_rows = apply_transform(u_cells.T).T
        if ch.hard:
            (s0, s1), _ = _pinned_root(ch, obs, v_rows)
            # the padding bits of s0 ^ s1 are 0: only singletons are counted
            singletons = np.bitwise_count(np.bitwise_xor(s0, s1)).sum(axis=1)
            total = total_sq = x.shape[0] - singletons
        else:
            pair, _ = pinned_pairs(ch, obs, v_rows)
            stat = 2.0 * np.sqrt(pair[0] * pair[1])
            total, total_sq = stat.sum(axis=1), (stat * stat).sum(axis=1)
        acc += total
        acc_sq += total_sq
    z = acc / samples
    if samples > 1:
        var = np.maximum(acc_sq - samples * z * z, 0.0) / (samples - 1)
        stderr = np.sqrt(var / samples)
    else:
        stderr = np.zeros(n_len)
    return ReliabilityProfile(
        n_len, conditioning, np.clip(z, 0.0, 1.0), "monte_carlo",
        samples=samples, seed=seed, stderr=stderr,
    )


def build_partition(
    z_uncond: ReliabilityProfile,
    z_tx: ReliabilityProfile,
    z_rx: ReliabilityProfile,
    policy: PartitionPolicy,
) -> IndexPartition:
    """Construct F_r / F_d / I / I' from the three reliability profiles.

    THRESHOLD mode applies the set definitions directly:
        F_d = {z_uncond <= delta},   F_r = {not F_d, z_tx >= 1 - delta},
        I = the rest,                I' = I \\ {not F_d, z_rx <= delta}.
    TARGET_RATE mode uses the same algebra with membership by rank: the
    |N f_d| smallest z_uncond form F_d, the |N f_r| largest z_tx among the
    rest form F_r, and I' keeps the |N i_prime| least receiver-recoverable
    indices of I. There a profile's z is read only where its set ranks by
    it: z_uncond when F_d's target is positive, z_tx when F_r's is, z_rx
    when I' takes some but not all of I. A profile whose `z` is computed on
    read (`RoundPlan.profiles`) is not computed otherwise.
    """
    n_len = z_uncond.n_len
    if z_tx.n_len != n_len or z_rx.n_len != n_len:
        raise ValueError("profiles must share one blocklength")
    if policy.mode == "threshold":
        zu, zt, zr = z_uncond.z, z_tx.z, z_rx.z
        delta = policy.delta_for(n_len)
        fd_mask = zu <= delta
        fr_mask = ~fd_mask & (zt >= 1.0 - delta)
        info_mask = ~fd_mask & ~fr_mask
        recoverable = ~fd_mask & (zr <= delta)
        iprime_mask = info_mask & ~recoverable
        idx = np.arange(n_len)
        return IndexPartition(
            n_len, idx[fr_mask], idx[fd_mask], idx[info_mask], idx[iprime_mask]
        )

    if policy.fractions is None:
        raise ValueError("target_rate mode requires policy.fractions")
    f_d_frac, f_r_frac, iprime_frac = policy.fractions
    k_d = min(int(round(n_len * f_d_frac)), n_len)
    f_d = np.arange(0)
    if k_d:
        zu = z_uncond.z
        if policy.fd_z_cap is not None:
            k_d = min(k_d, int((zu <= policy.fd_z_cap).sum()))
        f_d = np.argsort(zu, kind="stable")[:k_d]
    rest = np.setdiff1d(np.arange(n_len), f_d)
    k_r = min(int(round(n_len * f_r_frac)), rest.size)
    f_r = rest[:0]
    if k_r:
        zt = z_tx.z[rest]
        if policy.fr_z_cap is not None:
            k_r = min(k_r, int((zt >= 1.0 - policy.fr_z_cap).sum()))
        f_r = rest[np.argsort(zt, kind="stable")][rest.size - k_r:]
    info = np.setdiff1d(rest, f_r)
    k_ip = min(int(round(n_len * iprime_frac)), info.size)
    # I' taking none or all of I needs no ranking
    i_prime = info if k_ip == info.size else info[:0]
    if 0 < k_ip < info.size:
        i_prime = info[np.argsort(z_rx.z[info], kind="stable")][info.size - k_ip:]
    return IndexPartition(n_len, f_r, f_d, info, i_prime)


def with_fractions(policy: PartitionPolicy, fractions: tuple) -> PartitionPolicy:
    """Policy copy with per-round target fractions filled in (clamped to sum 1)."""
    f_d, f_r, ip = (max(0.0, float(f)) for f in fractions)
    ip = min(ip, max(0.0, 1.0 - f_d - f_r))
    return replace(policy, fractions=(f_d, f_r, ip))

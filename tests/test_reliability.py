"""Reliability profiling and partition construction tests."""
import hashlib
import json

import numpy as np
import pytest

from polarcomm import reliability
from polarcomm.models import AndModelParams, build_and_chain, build_bsc_chain
from polarcomm.reliability import (
    IndexPartition,
    PartitionPolicy,
    ReliabilityProfile,
    build_partition,
    profile_exact,
    profile_monte_carlo,
    with_fractions,
)
from polarcomm.sc import PINNED, SymbolChannel, derive_rng
from polarcomm.transform import apply_transform

from sc_reference import ReferenceTree, random_hard_table


def channels(model, round_index, tx_vars, rx_vars):
    bit = f"u{round_index}"
    prior = SymbolChannel.from_joint(model.joint, bit, ()).prior()
    tx = SymbolChannel.from_joint(model.joint, bit, tx_vars)
    rx = SymbolChannel.from_joint(model.joint, bit, rx_vars)
    return prior, tx, rx


def test_profile_exact_trivial_cases():
    uniform = SymbolChannel(np.array([[0.5], [0.5]]))
    prof = profile_exact(uniform, 1)
    assert prof.z[0] == 1.0
    # U1 = X observed: deterministic given the observation
    m = build_and_chain(AndModelParams(0.5, 0.5, 2))
    tx = SymbolChannel.from_joint(m.joint, "u1", ("x",))
    assert profile_exact(tx, 1).z[0] == 0.0
    # uniform source stays uniform under the transform
    prof2 = profile_exact(uniform, 2)
    assert np.array_equal(prof2.z, [1.0, 1.0])


def test_profile_exact_cap():
    """profile_exact enumerates whatever exact.enumerable admits: a
    prior-only channel at N = 16 (2^16 entries), not a 2-symbol one (2^32)."""
    prof = profile_exact(SymbolChannel(np.array([[0.5], [0.5]])), 16)
    assert np.array_equal(prof.z, np.ones(16))
    with pytest.raises(ValueError):
        profile_exact(SymbolChannel(np.array([[0.25, 0.25], [0.25, 0.25]])), 16)


def test_profile_exact_golden_bytes_n8():
    """The z bytes of the AND(0.11, 0.4, t = 2) round-2 exact profiles at
    N = 8: 16 chunks of 4096 x 256 each. A change to the block joint's
    layout that reorders a float sum moves these hashes."""
    m = build_and_chain(AndModelParams(0.11, 0.4, 2))
    _, tx, rx = channels(m, 2, ("y", "u1"), ("x", "u1"))
    golden = {
        "tx": "f5a5fd42d16a20302798ef6ed309979b43003d2320d9f0e8ea9831a92759fb4b",
        "rx": "abf8249bd9ec7934aa60f3e750b5e03b94ddbb8721f66938d1be7d9a42d0f617",
    }
    for side, ch in (("tx", tx), ("rx", rx)):
        z = profile_exact(ch, 8).z
        assert hashlib.sha256(z.tobytes()).hexdigest() == golden[side], side


def test_profile_monte_carlo_within_3_sigma_of_exact():
    m = build_and_chain(AndModelParams(0.5, 0.5, 2))
    ch = SymbolChannel.from_joint(m.joint, "u2", ("y", "u1"))
    exact = profile_exact(ch, 4)
    mc = profile_monte_carlo(ch, 4, 100_000, seed=3)
    for i in range(4):
        se = max(mc.stderr[i], 1e-9)
        assert abs(mc.z[i] - exact.z[i]) <= 3 * se + 1e-6


def test_profile_monte_carlo_deterministic():
    ch = SymbolChannel(np.array([[0.4, 0.15], [0.05, 0.4]]))
    a = profile_monte_carlo(ch, 8, 500, seed=9)
    b = profile_monte_carlo(ch, 8, 500, seed=9)
    assert np.array_equal(a.z, b.z)
    assert np.array_equal(a.stderr, b.stderr)


class _ZeroingRng:
    """A generator whose random() rows have 0.0 at the given (row, column)
    cells, rows counted across calls, as each chunk draws its own rows."""

    def __init__(self, rng, cells):
        self.rng, self.cells, self.row = rng, cells, 0

    def random(self, shape):
        out = self.rng.random(shape)
        rows, cols = self.cells
        hit = (rows >= self.row) & (rows < self.row + shape[0])
        out[rows[hit] - self.row, cols[hit]] = 0.0
        self.row += shape[0]
        return out


@pytest.mark.parametrize("table", [
    [[0.0, 0.3, 0.2], [0.5, 0.0, 0.0]],  # cell 0 is a zero-mass cell of a positive column
    [[0.0, 0.3, 0.0], [0.0, 0.0, 0.7]],  # cell 0 lies in a zero-mass column
    [[0.4, 0.0], [0.0, 0.6]],
    [[1.0], [0.0]],
])
def test_functional_profile_equals_tree(table, monkeypatch):
    """A functional channel's Monte Carlo profile equals the tree's, bit for
    bit, also where rng.random() == 0.0 picks the zero-mass cell 0: that
    sample is null after it leaves v*, or everywhere on a zero-mass column."""
    ch = SymbolChannel(np.array(table))
    assert ch.functional
    n_len, samples = 16, 300
    zeros = (np.array([4, 9, 9, 250]), np.array([0, 3, 11, 15]))
    monkeypatch.setattr(reliability, "derive_rng",
                        lambda *key: _ZeroingRng(np.random.default_rng(key), zeros))
    fast = profile_monte_carlo(ch, n_len, samples, (5, 2), chunk=64)
    monkeypatch.setattr(SymbolChannel, "hard", property(lambda self: False))
    tree = profile_monte_carlo(ch, n_len, samples, (5, 2), chunk=64)
    assert np.array_equal(fast.z, tree.z) and np.array_equal(fast.stderr, tree.stderr)
    assert np.any(fast.z > 0) == (ch.table[0, 0] == 0)


def reference_profile(ch, n_len, samples, seed, chunk):
    """(z, stderr) by the per-index walk: an uncoded float tree per chunk,
    consulted index by index given v = u G_N, summing each index's statistic
    over the chunk."""
    rng = derive_rng(*seed)
    cum = np.cumsum(ch.table.reshape(-1))
    cells = np.searchsorted(cum, rng.random((samples, n_len)) * cum[-1])
    obs = cells % ch.obs_size
    v_rows = np.ascontiguousarray(apply_transform((cells // ch.obs_size).astype(np.uint8)).T)
    acc, acc_sq = np.zeros(n_len), np.zeros(n_len)
    for start in range(0, samples, chunk):
        sl = slice(start, min(start + chunk, samples))
        stack = ReferenceTree(np.take(ch.table, obs[sl].T, axis=1))
        for phi in range(n_len):
            pair, _ = stack.pair_at(phi, v_rows[:, sl])
            stat = 2.0 * np.sqrt(pair[:, 0] * pair[:, 1])
            acc[phi] += stat.sum()
            acc_sq[phi] += (stat * stat).sum()
    z = acc / samples
    var = np.maximum(acc_sq - samples * z * z, 0.0) / (samples - 1)
    return np.clip(z, 0.0, 1.0), np.sqrt(var / samples)


@pytest.mark.parametrize("table", [
    [[0.4, 0.15], [0.05, 0.4]],  # float tree
    [[0.3, 0.0], [0.0, 0.7]],  # functional
    [[0.5, 0.0, 0.0, 0.25], [0.0, 0.0, 0.0, 0.25]],  # erasure, zero-mass symbols
    [[0.5], [0.5]],  # uniform prior
    [[0.7], [0.3]],  # prior chain
    [[0.3, 0.1, 0.15], [0.05, 0.25, 0.15]],  # three symbols, two coded levels
    (np.arange(1.0, 297.0) / np.arange(1.0, 297.0).sum()).reshape(2, 148),  # no coded level
])
@pytest.mark.parametrize("n_len", [1, 2, 64])
def test_level_profile_equals_index_walk(table, n_len):
    """The level-by-level profile, coded near the leaves, equals the
    per-index walk on the uncoded tree bit for bit, with an uneven last
    chunk (150 = 2 * 64 + 22 samples)."""
    ch = SymbolChannel(np.array(table))
    prof = profile_monte_carlo(ch, n_len, 150, (4, n_len), chunk=64)
    z, stderr = reference_profile(ch, n_len, 150, (4, n_len), 64)
    assert np.array_equal(prof.z, z) and np.array_equal(prof.stderr, stderr)


def test_profile_monte_carlo_rejects_bad_chunk():
    ch = SymbolChannel(np.array([[0.4, 0.15], [0.05, 0.4]]))
    for chunk in (0, -1):
        with pytest.raises(ValueError, match="chunk"):
            profile_monte_carlo(ch, 8, 100, seed=1, chunk=chunk)


def test_polarization_trend_with_blocklength():
    """Low/high z mass grows from N=256 to N=1024 on the BSC test chain."""
    b = build_bsc_chain(0.11, 0.2)
    ch = SymbolChannel.from_joint(b.joint, "u1", ("x",))
    fractions = {}
    for n_len in (256, 1024):
        prof = profile_monte_carlo(ch, n_len, 1500, seed=21)
        fractions[n_len] = ((prof.z < 0.01).mean() + (prof.z > 0.99).mean())
    assert fractions[1024] > fractions[256]


def test_threshold_partition_matches_set_definitions():
    """Exact N=4 partitions equal the raw set algebra on the exact z vectors."""
    m = build_and_chain(AndModelParams(0.3, 0.6, 2))
    prior, tx, rx = channels(m, 2, ("y", "u1"), ("x", "u1"))
    n_len, delta = 4, 0.1
    zu = profile_exact(prior, n_len, "none")
    zt = profile_exact(tx, n_len, "tx")
    zr = profile_exact(rx, n_len, "rx")
    part = build_partition(zu, zt, zr, PartitionPolicy(mode="threshold", delta=delta))
    f_d = {i for i in range(n_len) if zu.z[i] <= delta}
    f_r = {i for i in range(n_len) if i not in f_d and zt.z[i] >= 1 - delta}
    info = set(range(n_len)) - f_d - f_r
    recover = {i for i in range(n_len) if i not in f_d and zr.z[i] <= delta}
    assert set(part.f_d) == f_d
    assert set(part.f_r) == f_r
    assert set(part.info) == info
    assert set(part.i_prime) == info - recover


def test_threshold_trivial_memberships():
    pol = PartitionPolicy(mode="threshold", delta=0.01)
    prof = lambda z: ReliabilityProfile(4, "x", np.asarray(z), "exact")
    part = build_partition(
        prof([1e-9, 0.5, 0.99, 0.6]),
        prof([0.0, 0.5, 0.999, 0.6]),
        prof([0.0, 0.5, 0.999, 0.6]),
        pol,
    )
    assert 0 in part.f_d  # z_uncond below any sensible threshold
    assert 2 in part.f_r  # z_uncond = 0.99 with z_tx = 0.999 >= 1 - delta


def test_partition_disjoint_cover_randomized():
    rng = np.random.default_rng(5)
    for n_len in (8, 1024):
        for mode in ("threshold", "target_rate"):
            zu = np.sort(rng.random(n_len))
            zt = np.clip(zu * rng.random(n_len), 0, 1)
            zr = np.clip(zu * rng.random(n_len), 0, 1)
            prof = lambda z, c: ReliabilityProfile(n_len, c, z, "exact")
            if mode == "threshold":
                pol = PartitionPolicy(mode=mode, beta=0.3)
            else:
                pol = with_fractions(PartitionPolicy(mode=mode, fd_z_cap=None,
                                                     fr_z_cap=None),
                                     (0.25, 0.25, 0.3))
            part = build_partition(prof(zu, "none"), prof(zt, "tx"), prof(zr, "rx"), pol)
            cover = np.concatenate([part.f_r, part.f_d, part.info])
            assert np.array_equal(np.sort(cover), np.arange(n_len))
            assert np.isin(part.i_prime, part.info).all()


def test_target_rate_fraction_counts():
    n_len = 64
    rng = np.random.default_rng(6)
    zu = rng.random(n_len)
    prof = lambda z, c: ReliabilityProfile(n_len, c, z, "exact")
    pol = with_fractions(
        PartitionPolicy(mode="target_rate", fd_z_cap=None, fr_z_cap=None),
        (0.25, 0.125, 0.5),
    )
    part = build_partition(prof(zu, "none"), prof(zu * 0.9, "tx"), prof(zu * 0.8, "rx"), pol)
    assert part.f_d.size == 16
    assert part.f_r.size == 8
    assert part.i_prime.size == 32


@pytest.mark.parametrize("fractions, read", [
    ((0.0, 0.0, 1.0), set()),  # I' takes all of I
    ((0.0, 0.0, 0.0), set()),  # I' takes none of it
    ((0.25, 0.0, 1.0), {"none"}),
    ((0.0, 0.25, 0.3), {"tx", "rx"}),
    ((0.25, 0.25, 0.3), {"none", "tx", "rx"}),
])
def test_target_rate_reads_a_profile_only_where_it_ranks_by_it(fractions, read):
    """Under target_rate, z_uncond is read only for a nonempty F_d target,
    z_tx for a nonempty F_r target and z_rx where I' takes some but not all
    of I; threshold mode reads all three. Skipping a read moves no set."""
    n_len = 32
    z = np.random.default_rng(3).random((3, n_len))
    seen = set()

    class Watched(ReliabilityProfile):
        def __getattribute__(self, name):
            if name == "z":
                seen.add(object.__getattribute__(self, "conditioning"))
            return object.__getattribute__(self, name)

    def profiles(kind):
        return [kind(n_len, c, zc, "exact") for c, zc in zip(("none", "tx", "rx"), z)]

    for pol in (with_fractions(PartitionPolicy(fd_z_cap=None, fr_z_cap=None), fractions),
                PartitionPolicy(mode="threshold", delta=0.3)):
        watched = profiles(Watched)
        seen.clear()  # the checks of __post_init__ read z
        part = build_partition(*watched, pol)
        assert seen == (read if pol.mode == "target_rate" else {"none", "tx", "rx"})
        assert part.to_json() == build_partition(*profiles(ReliabilityProfile), pol).to_json()


def test_reliability_caps_limit_membership():
    n_len = 16
    zu = np.linspace(0.0, 1.0, n_len)
    prof = lambda z, c: ReliabilityProfile(n_len, c, np.clip(z, 0, 1), "exact")
    pol = with_fractions(PartitionPolicy(mode="target_rate", fd_z_cap=0.2,
                                         fr_z_cap=0.1), (0.5, 0.25, 0.2))
    part = build_partition(prof(zu, "none"), prof(zu, "tx"), prof(zu, "rx"), pol)
    assert np.all(zu[part.f_d] <= 0.2)
    assert np.all(zu[part.f_r] >= 0.9)


def test_conditioning_inclusions_exact_n8():
    """Exact profiles: conditioning can only shrink Z, and the Markov chain
    U -> X -> Y orders the two conditionings, index by index."""
    for model, tx_vars, rx_vars in (
        (build_bsc_chain(0.11, 0.2), ("x",), ("y",)),
        (build_and_chain(AndModelParams(0.3, 0.6, 2)), ("x",), ("y",)),
    ):
        prior, tx, rx = channels(model, 1, tx_vars, rx_vars)
        zu = profile_exact(prior, 8).z
        zt = profile_exact(tx, 8).z
        zr = profile_exact(rx, 8).z
        assert np.all(zt <= zu + 1e-12)
        assert np.all(zr <= zu + 1e-12)
        # receiver side is degraded: L_{U|Y} within L_{U|X} at every threshold
        assert np.all(zr >= zt - 1e-12)


def test_partition_rejects_inconsistent_input():
    prof = lambda n: ReliabilityProfile(n, "none", np.full(n, 0.5), "exact")
    with pytest.raises(ValueError):
        build_partition(prof(4), prof(8), prof(4), PartitionPolicy(mode="threshold"))
    with pytest.raises(ValueError):
        IndexPartition(4, [0], [0], [1, 2, 3], [1])
    with pytest.raises(ValueError):
        IndexPartition(4, [], [0], [1, 2, 3], [0])


def test_receiver_tags_pin_exactly_the_copied_indices():
    """A receiver copies F_r and I' from the transmitter: its tags are PINNED
    on exactly `copied`, the sorted union, and the transmitter's elsewhere."""
    rng = np.random.default_rng(17)
    for n_len in (8, 64):
        zu, zt, zr = np.sort(rng.random(n_len)), rng.random(n_len), rng.random(n_len)
        prof = lambda z, c: ReliabilityProfile(n_len, c, z, "exact")
        pol = with_fractions(PartitionPolicy(fd_z_cap=None, fr_z_cap=None), (0.25, 0.25, 0.25))
        part = build_partition(prof(zu, "none"), prof(zt, "tx"), prof(zr, "rx"), pol)
        assert part.f_r.size and part.i_prime.size < part.info.size
        copied = np.sort(np.concatenate([part.f_r, part.i_prime]))
        assert np.array_equal(part.copied, copied)
        tx, rx = part.tags_for_transmitter(), part.tags_for_receiver()
        assert np.array_equal(np.flatnonzero(rx == PINNED), copied)
        others = np.setdiff1d(np.arange(n_len), copied)
        assert np.array_equal(rx[others], tx[others])
        assert PINNED not in tx


def test_policy_validation():
    with pytest.raises(ValueError):
        PartitionPolicy(mode="nope")
    with pytest.raises(ValueError):
        PartitionPolicy(beta=0.7)
    with pytest.raises(ValueError):
        PartitionPolicy(delta=0.5)
    with pytest.raises(ValueError):
        PartitionPolicy(fractions=(0.5, 0.5, 0.5))
    assert PartitionPolicy(beta=0.3).delta_for(1024) == 2.0 ** (-(1024**0.3))


def test_serialization_roundtrip():
    prof = profile_monte_carlo(SymbolChannel(np.array([[0.4, 0.1], [0.1, 0.4]])),
                               4, 200, seed=1)
    back = ReliabilityProfile.from_json(prof.to_json())
    assert np.array_equal(back.z, prof.z)
    assert np.array_equal(back.stderr, prof.stderr)
    assert back.method == "monte_carlo"
    part = build_partition(
        ReliabilityProfile(4, "none", [0.9, 0.001, 0.9, 0.5], "exact"),
        ReliabilityProfile(4, "tx", [0.99, 0.0, 0.5, 0.2], "exact"),
        ReliabilityProfile(4, "rx", [0.995, 0.0, 0.6, 0.3], "exact"),
        PartitionPolicy(mode="threshold", delta=0.01),
    )
    payload = json.loads(part.to_json())
    assert sorted(payload) == ["F_d", "F_r", "I", "I_prime", "N"]
    assert payload["N"] == 4


@pytest.mark.parametrize("seed", range(4))
def test_hard_profiles_count_what_the_float_route_sums(seed, monkeypatch):
    """On random hard tables (erasure columns, zero-mass symbols, entries
    down to 1e-150, and the uniform prior of a 1-column table), the packed
    popcount route gives the float route's z and stderr bytes, the latter
    run with SymbolChannel.hard switched off: at 1, 63, 65 and 100 samples
    in chunks of 64, so chunks end inside a word, on one, and past it."""
    rng = np.random.default_rng(seed)
    channels = [SymbolChannel(random_hard_table(rng, size, tiny))
                for size, tiny in ((1, 0), (2, 0), (3, 150), (5, 0))]
    assert all(ch.hard for ch in channels)
    runs = [(ch, n_len, samples) for ch in channels for n_len in (1, 2, 16)
            for samples in (1, 63, 65, 100)]

    def profiles():
        return [profile_monte_carlo(ch, n_len, samples, (seed, n_len, samples), chunk=64)
                for ch, n_len, samples in runs]

    def float_route(*args):
        raise AssertionError("a hard channel's profile took the float route")

    with monkeypatch.context() as patch:
        patch.setattr(reliability, "pinned_pairs", float_route)
        fast = profiles()
    monkeypatch.setattr(SymbolChannel, "hard", property(lambda self: False))
    ref = profiles()
    for got, want in zip(fast, ref):
        assert got.z.tobytes() == want.z.tobytes()
        assert got.stderr.tobytes() == want.stderr.tobytes()
    assert any(0.0 < z < 1.0 for prof in fast for z in prof.z)  # not all 0 or 1


def test_monte_carlo_chunking_moves_only_float_sums():
    """The cells never depend on the chunking. A hard channel's integer
    sums give equal bytes at chunks 64 and 512; a float channel's sums
    agree to within 1e-15 in z (and 1e-8 in stderr, a difference of nearly
    equal sums), not necessarily in their last bits."""
    model = build_and_chain(AndModelParams(0.5, 0.5, 2))
    _, _, hard = channels(model, 2, ("y", "u1"), ("x", "u1"))  # BEC(1/2)
    soft = SymbolChannel(np.array([[0.75], [0.25]]))
    assert hard.hard and not soft.hard
    for ch in (hard, soft):
        small, whole = (profile_monte_carlo(ch, 1024, 512, (7, 3, 2, 0), chunk=c)
                        for c in (64, 512))
        if ch.hard:
            assert small.z.tobytes() == whole.z.tobytes()
            assert small.stderr.tobytes() == whole.stderr.tobytes()
        else:
            np.testing.assert_allclose(small.z, whole.z, rtol=0, atol=1e-15)
            np.testing.assert_allclose(small.stderr, whole.stderr, rtol=0, atol=1e-8)
        assert 0.0 < whole.z.mean() < 1.0


def test_nan_fractions_and_z_are_rejected():
    """NaN target fractions and NaN Bhattacharyya values are rejected when
    the policy or profile is built, not after profiling."""
    for fractions in ((np.nan, 0.1, 0.1), (0.1, float("nan"), 0.1)):
        with pytest.raises(ValueError, match="nonnegative"):
            PartitionPolicy(fractions=fractions)
    with pytest.raises(ValueError, match="sum to at most 1"):
        PartitionPolicy(fractions=(0.5, 0.5, np.inf))
    with pytest.raises(ValueError, match=r"lie in \[0, 1\]"):
        ReliabilityProfile(4, "none", np.array([0.1, np.nan, 0.2, 0.3]), "exact")
    assert PartitionPolicy(fractions=(0.1, 0.1, 0.1)).fractions == (0.1, 0.1, 0.1)

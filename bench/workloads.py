"""The benchmark's workloads: one plan / simulate / verify iteration each.

An iteration makes the library calls behind the CLI's `plan`, `simulate` and
`verify` commands, times each phase, and checks the outputs. Timing covers
the library calls only; the checks run outside the timed regions. All inputs
derive from the workload seed, so an iteration repeated with the same seed
must produce the same digest.
"""
from __future__ import annotations

import hashlib
import time
import traceback
from dataclasses import dataclass, replace

import numpy as np

PHASES = ("plan", "simulate", "verify")
MARGIN = 0.15  # rate margin of every Monte Carlo plan
CHECK_TOL = 1e-10  # SC engine against the exact oracle
AGREEMENT_SIGMAS = 4.5  # Monte Carlo agreement against the exact value
QUALITY_SIGMAS = 5.0  # a quality figure this far worse than its reference fails
TV_RTOL = 1e-9  # the exact tv_max may exceed its reference by rounding only


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "protocol" (MC planning + simulation) or "oracle" (exact)
    networks: tuple  # ("and", (p, q, t)) or ("collocated", (m, probs))
    n_len: int  # blocklength; for the oracle, the round-1 TV blocklength
    profile_samples: int
    trials: int
    # recorded quality (means over seeds 1-10) that no later change may worsen
    reference: dict | None
    beta: float = 0.4  # oracle only: threshold exponent
    agree_n_len: int = 4  # oracle only: full-chain TV / agreement blocklength

    def tiny(self) -> "Workload":
        """The same workload with N and trials scaled down, for the self-test;
        the recorded quality does not apply to it."""
        if self.kind == "oracle":
            return replace(self, n_len=4, agree_n_len=2, trials=200, reference=None)
        return replace(self, n_len=16, profile_samples=64, trials=16, reference=None)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("simulate-n1024", "protocol",
                 (("and", (0.5, 0.5, 2)), ("collocated", (2, (0.5, 0.5)))),
                 n_len=1024, profile_samples=512, trials=2000,
                 reference={"block_error": 0.03175, "agreement": 0.96795}),
        Workload("oracle-n8", "oracle", (("and", (0.11, 0.4, 2)),),
                 n_len=8, profile_samples=0, trials=200000,
                 reference={"block_error": 0.1243, "agreement": 0.87469,
                            "tv_max": 0.009097967911712464}),
    )
}


def build_models(pc, workload: Workload) -> list:
    """Set-up: build (and validate) every network model of the workload."""
    models = []
    for label, params in workload.networks:
        if label == "and":
            model = pc.models.build_and_chain(pc.models.AndModelParams(*params))
        else:
            model = pc.models.build_collocated_chain(params[0], list(params[1]))
        models.append((label, model))
    return models


def derive_seeds(seed: int, count: int) -> list:
    """`count` independent 32-bit seeds from the workload seed."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


class Iteration:
    """Phase times, checks, quality figures and output digest of one run."""

    def __init__(self):
        self.started = time.perf_counter()
        self.times = dict.fromkeys(PHASES, 0.0)
        self.marks: list = []  # (phase, start, end) of every timed call
        self.attempted = 0
        self.failed = 0
        self.failures: list = []
        self.quality: dict = {}
        self.diagnostics: dict = {}
        self._digest = hashlib.sha256()

    def timed(self, phase: str, func, *args, **kwargs):
        start = time.perf_counter()
        result = func(*args, **kwargs)
        end = time.perf_counter()
        self.times[phase] += end - start
        self.marks.append((phase, start, end))
        return result

    def operation(self, label: str, body) -> bool:
        """Run one checked operation; count it, and a failure if it raises or
        any of the checks it returns is false."""
        self.attempted += 1
        try:
            failed = [name for name, ok in body() if not ok]
        except Exception:  # the benchmark reports failures instead of dying
            failed = ["raised: " + traceback.format_exc(limit=3).strip().splitlines()[-1]]
        self.failed += bool(failed)
        self.failures += [f"{label}: {name}" for name in failed]
        return not failed

    def skip(self, label: str, reason: str) -> None:
        """Count an operation that could not run as attempted and failed."""
        self.attempted += 1
        self.failed += 1
        self.failures.append(f"{label}: skipped, {reason}")

    def feed(self, *parts) -> None:
        for part in parts:
            self._digest.update(part if isinstance(part, bytes) else str(part).encode())

    @property
    def digest(self) -> str:
        return self._digest.hexdigest()

    @property
    def wall(self) -> float:
        return sum(self.times.values())


def partition_checks(plan, n_len: int, rate_floor: bool) -> list:
    part = plan.partition
    cover = np.sort(np.concatenate([part.f_r, part.f_d, part.info]))
    checks = [
        (f"round {plan.round_index}: F_r, F_d, I partition [N]",
         np.array_equal(cover, np.arange(n_len))),
        (f"round {plan.round_index}: I' within I", bool(np.isin(part.i_prime, part.info).all())),
    ]
    if rate_floor:
        # rank selection rounds |F_d| and |F_r| to the nearest index, which can
        # take at most one index from I: |I'| >= N * target - 1
        checks.append((f"round {plan.round_index}: |I'| >= N target - 1",
                       part.i_prime.size >= n_len * plan.target_rate - 1 - 1e-9))
    return checks


def rate_gap(plans) -> float:
    return float(sum(p.measured_rate for p in plans) - sum(p.target_rate for p in plans))


def output_sides(report: dict) -> dict:
    """The per-output rows of a function_error_rate report."""
    return {side: row for side, row in report.items() if side not in ("trials", "result")}


def simulate_checks(model, plans, report, trials: int) -> list:
    result = report["result"]
    checks = [("trial count", report["trials"] == trials)]
    for plan, tr in zip(plans, result.transcript.rounds):
        checks.append((f"round {plan.round_index}: message bits = |I'|",
                       np.atleast_2d(tr.messages).shape == (trials, plan.partition.i_prime.size)))
    for side, row in output_sides(report).items():
        checks.append((f"{side}: block error in [0, 1]", 0.0 <= row["block_error"] <= 1.0))
    if model.network == "two-terminal":
        # both terminals computing from identical u-blocks must agree wherever
        # neither output is erased; disagreeing trials are block errors
        same_u = result.agreement.all(axis=0)
        keep = ~result.erasures["f_A"] & ~result.erasures["f_B"]
        differ = (result.outputs["f_A"] != result.outputs["f_B"]) & keep
        checks.append(("non-erased f_A = f_B where u-blocks agree",
                       not differ[same_u].any()))
    return checks


def quality_checks(workload: Workload, quality: dict) -> list:
    """A quality figure worse than the workload's reference fails: block error
    and agreement by more than QUALITY_SIGMAS binomial standard deviations at
    the workload's trial count, the exact tv_max by more than rounding."""
    ref = workload.reference

    def radius(p: float) -> float:
        return QUALITY_SIGMAS * np.sqrt(p * (1 - p) / workload.trials) + 1e-9

    checks = [
        (f"block_error {quality['block_error']} within {QUALITY_SIGMAS} sigma above "
         f"reference {ref['block_error']}",
         quality["block_error"] <= ref["block_error"] + radius(ref["block_error"])),
        (f"agreement {quality['agreement']} within {QUALITY_SIGMAS} sigma below "
         f"reference {ref['agreement']}",
         quality["agreement"] >= ref["agreement"] - radius(ref["agreement"])),
    ]
    if "tv_max" in ref:
        checks.append((f"tv_max {quality['tv_max']} <= reference {ref['tv_max']}",
                       quality["tv_max"] <= ref["tv_max"] * (1 + TV_RTOL)))
    return checks


def check_quality(it, workload: Workload) -> None:
    if workload.reference is not None:
        it.operation("quality", lambda: quality_checks(workload, it.quality))


def run_protocol(pc, workload: Workload, models, seed: int) -> Iteration:
    """Monte Carlo planning plus protocol simulation, one pass per network."""
    it = Iteration()
    seeds = derive_seeds(seed, 2 * len(models))
    n_len = workload.n_len
    worst_block, worst_agree, worst_gap, short = 0.0, 1.0, -np.inf, 0
    for k, (label, model) in enumerate(models):
        plans, report = [], {}

        def plan_op():
            plans.extend(it.timed(
                "plan", pc.protocol.plan_protocol, model, n_len,
                pc.reliability.PartitionPolicy(mode="target_rate"),
                rate_margin=MARGIN, profile_method="monte_carlo",
                profile_samples=workload.profile_samples, profile_seed=seeds[2 * k]))
            checks = [("one plan per round", len(plans) == model.rounds)]
            for plan in plans:
                checks += partition_checks(plan, n_len, rate_floor=True)
            return checks

        def simulate_op():
            report.update(it.timed(
                "simulate", pc.verification.function_error_rate, model, plans, n_len,
                workload.trials, seeds[2 * k + 1]))
            return simulate_checks(model, plans, report, workload.trials)

        if not it.operation(f"{label} plan", plan_op):
            it.skip(f"{label} simulate", "the plan failed")
            continue
        if not it.operation(f"{label} simulate", simulate_op):
            continue
        result = report["result"]
        worst_block = max([worst_block] + [row["block_error"]
                                           for row in output_sides(report).values()])
        worst_agree = min(worst_agree, float(result.agreement.all(axis=0).mean()))
        worst_gap = max(worst_gap, rate_gap(plans))
        short += sum(p.measured_rate < p.target_rate for p in plans)
        it.feed(label, *(p.partition.to_json() for p in plans), result.transcript.to_json(),
                *(np.ascontiguousarray(result.outputs[key]).tobytes() for key in sorted(result.outputs)))
    if not it.failed:
        it.quality = {"block_error": worst_block, "agreement": worst_agree,
                      "rate_gap_bits": float(worst_gap)}
        it.diagnostics = {"rounds_below_target": int(short)}
        check_quality(it, workload)
    return it


def engine_oracle_cases(pc, plans) -> list:
    """(channel, tags) for every round's transmitter and receiver pass: the
    SC engine's chain probability must equal the oracle's table."""
    exact = pc.exact
    cases = []
    for plan in plans:
        tags = plan.partition.tags_for_transmitter()
        cases.append((plan.tx_channel, tags))
        rx = tags.copy()
        rx[plan.partition.f_r] = exact.EXCLUDED
        rx[plan.partition.i_prime] = exact.EXCLUDED
        cases.append((plan.rx_channel, rx))
    return cases


def engine_rows(pc, channel, n_len: int):
    """Every (observation block, v-block) pair as batched engine inputs."""
    exact = pc.exact
    n_obs, n_v = channel.obs_size ** n_len, 1 << n_len
    obs = exact.ints_to_digits(np.repeat(np.arange(n_obs), n_v), n_len, channel.obs_size)
    v = exact.ints_to_digits(np.tile(np.arange(n_v), n_obs), n_len, 2).astype(np.uint8)
    return obs, v


def run_oracle(pc, workload: Workload, models, seed: int) -> Iteration:
    """Exact profiles, exact TV and agreement, engine-vs-oracle tables, and a
    Monte Carlo agreement estimate checked against the exact value."""
    it = Iteration()
    (_, model), = models
    n_tv, n_ag = workload.n_len, workload.agree_n_len
    policy = pc.reliability.PartitionPolicy(mode="threshold", beta=workload.beta)
    plans = {}
    exact_vals: dict = {}

    def plan_op():
        checks = []
        for n_len in (n_tv, n_ag):
            plans[n_len] = it.timed("plan", pc.protocol.plan_protocol, model, n_len, policy)
            for plan in plans[n_len]:
                checks += partition_checks(plan, n_len, rate_floor=False)
        return checks

    def verify_op():
        v = pc.verification
        for side in ("tx", "rx"):
            exact_vals[f"tv_round1_{side}"] = it.timed(
                "verify", v.exact_q_tv, model, plans[n_tv], n_tv, side, rounds=1)
            exact_vals[f"tv_full_{side}"] = it.timed(
                "verify", v.exact_q_tv, model, plans[n_ag], n_ag, side, rounds=None)
        exact_vals["agreement_exact"] = it.timed(
            "verify", v.agreement_probability, model, plans[n_ag], n_ag, "exact")
        checks = [(f"{k} in range", 0.0 <= val <= (1.0 if k.startswith("agree") else 2.0))
                  for k, val in exact_vals.items()]
        worst = 0.0
        for channel, tags in engine_oracle_cases(pc, plans[n_ag]):
            table = it.timed("verify", pc.exact.sampled_chain_table, channel, tags, n_ag)
            obs, v_rows = engine_rows(pc, channel, n_ag)
            policy_b = pc.sc.SamplingPolicy(tags, v_rows)
            engine = it.timed("verify", pc.sc.chain_probability, channel, obs, policy_b, v_rows)
            worst = max(worst, float(np.abs(engine - table.reshape(-1)).max()))
        exact_vals["engine_oracle_max_abs"] = worst
        checks.append(("SC engine = exact oracle within 1e-10", worst <= CHECK_TOL))
        return checks

    report = {}

    def simulate_op():
        report.update(it.timed("simulate", pc.verification.function_error_rate, model,
                               plans[n_ag], n_ag, workload.trials, derive_seeds(seed, 1)[0]))
        checks = simulate_checks(model, plans[n_ag], report, workload.trials)
        p = exact_vals["agreement_exact"]
        mc = float(report["result"].agreement.all(axis=0).mean())
        radius = AGREEMENT_SIGMAS * np.sqrt(max(p * (1 - p), 0.0) / workload.trials) + 1e-9
        checks.append((f"MC agreement {mc} within {AGREEMENT_SIGMAS} sigma of exact {p}",
                       abs(mc - p) <= radius))
        return checks

    if not it.operation("plan", plan_op):
        it.skip("verify", "the plan failed")
        it.skip("simulate", "the plan failed")
        return it
    it.operation("verify", verify_op)
    it.operation("simulate", simulate_op)
    if it.failed:
        return it
    result = report["result"]
    it.quality = {
        "block_error": max(row["block_error"] for row in output_sides(report).values()),
        "agreement": float(result.agreement.all(axis=0).mean()),
        "rate_gap_bits": rate_gap(plans[n_tv]),
        "tv_max": max(exact_vals["tv_round1_tx"], exact_vals["tv_round1_rx"]),
    }
    it.diagnostics = {k: float(val) for k, val in exact_vals.items()}
    it.feed(*(p.partition.to_json() for n in (n_tv, n_ag) for p in plans[n]),
            *(repr(float(exact_vals[k])) for k in sorted(exact_vals)),
            result.transcript.to_json())
    check_quality(it, workload)
    return it


def run_iteration(pc, workload: Workload, models, seed: int) -> Iteration:
    runner = run_oracle if workload.kind == "oracle" else run_protocol
    return runner(pc, workload, models, seed)

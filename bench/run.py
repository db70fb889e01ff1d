"""polarcomm benchmark: plan / simulate / verify end to end, per-layer trace.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Runs from a source checkout (the library is imported from ./src, nothing is
installed). Each run is one workload in one process with one thread. With
--trace 0 it measures the end-to-end metrics: set-up time is the median over
fresh child processes that import the library and build the models; the
phases are timed over repeated iterations of the workload (at least two, and
until --seconds have passed) and reported as medians. With --trace 1 every
iteration runs traced and the run reports per-layer metrics, plus the
tracing overhead.

Every iteration checks its outputs; a repeated iteration must reproduce the
first one's output digest. The next-to-last line of standard output is a JSON
report with every figure, the environment and the digests; the last line is
the result: {"correct", "attempted", "failed", "metrics"}.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".bench_out"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_PROBES = 15
MIN_ITERATIONS = 2  # the second one doubles as the same-seed repeat check
RUN_BUDGET_S = 150.0  # start no iteration that would end after this

# name, unit, better: every end-to-end figure the report carries
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("plan_s", "s", "lower"),
    ("simulate_s", "s", "lower"),
    ("verify_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
    ("block_error", "fraction", "lower"),
    ("agreement", "fraction", "higher"),
    ("rate_gap_bits", "bits/symbol", "lower"),
    ("tv_max", "L1", "lower"),
    ("failed_share", "fraction", "lower"),
)
ORACLE_ONLY = ("verify_s", "tv_max")
# the end-to-end metrics of the result line, which carry regression bounds.
# Each must be non-zero on every workload: verify_s and tv_max exist on
# oracle-n8 only and failed_share is 0. block_error moves with the seed by a
# quarter of its median at 2000 trials; it and tv_max are gated by the
# workloads' quality checks instead
RESULT_END_TO_END = ("setup_s", "plan_s", "simulate_s", "wall_s", "peak_rss_mb",
                     "agreement", "rate_gap_bits")

# the per-layer metrics of the traced result line: layer totals, and the
# functions that run on every workload; per-function figures of the rest
# (exact oracle, MC profiles) are in the report
PER_LAYER = tuple(
    [(f"{layer}.{kind}", unit)
     for layer in ("probability", "models", "transform", "sc", "reliability", "protocol",
                   "verification")
     for kind, unit in (("s", "s"), ("self_s", "s"), ("calls", "count"))]
    + [("exact.calls", "count")]
    + [(f"{name}.s", "s") for name in (
        "probability.validate_markov", "probability.decode_table", "models.build",
        "transform.apply_transform", "sc.sample_sequential", "reliability.build_partition",
        "protocol.run_round", "protocol.sample_sources", "protocol.compute_function")]
    + [("protocol.run_round.self_s", "s"), ("verification.function_error_rate.self_s", "s")]
    + [(f"{name}.calls", "count") for name in (
        "probability.validate_markov", "transform.apply_transform", "sc.sample_sequential",
        "sc.chain_probability", "reliability.profile_monte_carlo", "reliability.profile_exact",
        "exact.sampled_chain_table", "protocol.run_round", "verification.exact_q_tv")]
    + [("sc.decisions", "count"), ("sc.pair_ops", "count"), ("sc.null_ratio", "fraction"),
       ("sc.stack_bytes", "bytes"), ("reliability.profile_cells", "count"),
       ("reliability.pair_ops", "count"), ("reliability.stack_bytes", "bytes"),
       ("transform.bits", "count"), ("trace.overhead_s", "s"), ("trace.spans", "count")]
)


def fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def pin_threads() -> dict:
    """Default every thread variable to 1; return the values in effect."""
    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")
    return {var: os.environ[var] for var in THREAD_VARS}


def import_polarcomm():
    """Import the library from this checkout's source tree."""
    sys.path.insert(0, str(SRC))
    import polarcomm
    import polarcomm.exact
    import polarcomm.models
    import polarcomm.protocol
    import polarcomm.reliability
    import polarcomm.sc
    import polarcomm.verification

    if SRC.resolve() not in Path(polarcomm.__file__).resolve().parents:
        raise ImportError(f"polarcomm was imported from {polarcomm.__file__}, not {SRC}")
    return polarcomm


def environment(seed: int, threads: dict) -> dict:
    import numpy as np

    cpu_model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), cpu_model)
    except OSError:
        pass
    caches = {}
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache_dir.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = (
                (index / "size").read_text().strip())
        except OSError:
            continue
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": cpu_model,
        "caches": caches,
        "threads": threads,
        "threads_not_1": sorted(v for v, val in threads.items() if val != "1"),
        "seed": seed,
    }


def setup_probe(workload, process_start: float) -> int:
    """Child process: import the library, build the models, report, exit."""
    from workloads import build_models

    pc = import_polarcomm()
    imported = time.perf_counter()
    build_models(pc, workload)
    print(json.dumps({"import_s": imported - process_start,
                      "build_s": time.perf_counter() - imported}))
    return 0


def measure_setup(args) -> tuple:
    """Median wall time of fresh processes that import and build, and the
    probes' own split of it."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"] + (["--tiny"] if args.tiny else [])
    walls, splits = [], []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=False)
        walls.append(time.perf_counter() - start)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()[-500:]}")
        splits.append(json.loads(done.stdout.strip().splitlines()[-1]))
    split = {k: statistics.median(s[k] for s in splits) for k in splits[0]}
    return statistics.median(walls), walls, split


def keep_going(iterations: list, start: float, seconds: float, process_start: float) -> bool:
    """Run at least MIN_ITERATIONS; then go on while the next iteration would
    end less than half an iteration past --seconds."""
    if len(iterations) < MIN_ITERATIONS:
        return True
    now = time.perf_counter()
    last = now - iterations[-1].started
    return (now - start + last / 2 < seconds
            and now - process_start + 1.5 * last < RUN_BUDGET_S)


def iterate(pc, workload, models, seed: int):
    """One iteration, after collecting the garbage of the earlier ones."""
    from workloads import run_iteration

    gc.collect()
    return run_iteration(pc, workload, models, seed)


def check_coverage(it, tracer) -> dict:
    """Top-level spans must cover every timed phase to within the tracer's
    own overhead, since every timed library call is wrapped. Returns the
    seconds of each phase that they leave uncovered."""
    overhead = tracer.overhead_s()
    uncovered = {phase: it.times[phase] - sum(tracer.top_level_s(s, e)
                                              for p, s, e in it.marks if p == phase)
                 for phase in it.times}
    it.operation("trace coverage", lambda: [
        (f"{phase}: {gap:.3g} s outside top-level spans, over the {overhead:.3g} s overhead",
         gap <= overhead)
        for phase, gap in uncovered.items()])
    return uncovered


def repeat_check(iterations: list) -> tuple:
    """Every repeated iteration must reproduce the first one's digest."""
    repeats = iterations[1:]
    bad = sum(it.digest != iterations[0].digest for it in repeats)
    return len(repeats), bad


def result_line(correct: bool, attempted: int, failed: int, metrics: dict, names) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]} for name in names},
    })


def median_of(iterations, key) -> float:
    return statistics.median(key(it) for it in iterations)


def run(args, process_start: float) -> int:
    from tracer import Tracer
    from workloads import WORKLOADS, build_models, derive_seeds

    workload = WORKLOADS[args.workload]
    workload = workload.tiny() if args.tiny else workload
    threads = pin_threads()
    report = {"workload": workload.name, "tiny": args.tiny, "trace": args.trace,
              "env": environment(args.seed, threads), "config": workload.__dict__,
              "derived_seeds": derive_seeds(args.seed, 2 * len(workload.networks))}

    if not args.trace:
        setup_s, probe_walls, probe_split = measure_setup(args)
        report["setup"] = {"probes_s": probe_walls, "probe_split_s": probe_split}

    tracer = Tracer() if args.trace else None
    pc = import_polarcomm()
    if tracer:
        tracer.calibrate()
        with tracer:
            models = build_models(pc, workload)
        setup_layers = tracer.summary()
        tracer.reset()
    else:
        models = build_models(pc, workload)

    runs, layer_runs, uncovered = [], [], []
    start = time.perf_counter()
    while keep_going(runs, start, args.seconds, process_start):
        if tracer:
            with tracer:
                it = iterate(pc, workload, models, args.seed)
            uncovered.append(check_coverage(it, tracer))
            layer_runs.append(tracer.summary())
            spans = tracer.records()
            tracer.reset()
        else:
            it = iterate(pc, workload, models, args.seed)
        runs.append(it)

    attempted = sum(it.attempted for it in runs)
    failed = sum(it.failed for it in runs)
    repeats, bad = repeat_check(runs)
    attempted += repeats
    failed += bad
    failures = sorted({f for it in runs for f in it.failures})
    if bad:
        failures.append(f"{bad} of {repeats} same-seed repeats changed the output digest")

    first = runs[0]
    metrics = {
        "plan_s": (median_of(runs, lambda it: it.times["plan"]), "s"),
        "simulate_s": (median_of(runs, lambda it: it.times["simulate"]), "s"),
        "verify_s": (median_of(runs, lambda it: it.times["verify"]), "s"),
        "wall_s": (median_of(runs, lambda it: it.wall), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        "failed_share": (failed / attempted, "fraction"),
    }
    if not args.trace:
        metrics["setup_s"] = (setup_s, "s")
    units = {name: (unit, better) for name, unit, better in END_TO_END}
    for name, value in first.quality.items():
        metrics[name] = (value, units[name][0])
    for name in ("agreement", "rate_gap_bits"):
        if name not in metrics:  # a failed operation left no quality figures
            metrics[name] = (float("nan"), units[name][0])
    report["metrics"] = {
        name: {"value": metrics[name][0], "unit": unit, "better": better}
        for name, unit, better in END_TO_END
        if name in metrics and (workload.kind == "oracle" or name not in ORACLE_ONLY)
    }
    report["iterations"] = [{"times_s": it.times, "wall_s": it.wall} for it in runs]
    if metrics["wall_s"][0] > 0:
        report["phase_share"] = {p: metrics[f"{p}_s"][0] / metrics["wall_s"][0]
                                 for p in ("plan", "simulate", "verify")}
    report["diagnostics"] = first.diagnostics
    report["digest"] = first.digest
    report["attempted"], report["failed"], report["failures"] = attempted, failed, failures

    if tracer:
        layers = {key: setup_layers.get(key, 0) + statistics.median(r[key] for r in layer_runs)
                  for key in layer_runs[0]}
        report["per_layer"] = layers
        report["trace"] = {"per_call_s": tracer.per_call_s, "uncovered_s": uncovered}
        TRACE_DIR.mkdir(exist_ok=True)
        trace_file = TRACE_DIR / f"trace-{workload.name}-seed{args.seed}.json"
        trace_file.write_text(json.dumps({"spans": spans, "per_layer": layers}))
        result_metrics = {name: (layers[name], unit) for name, unit in PER_LAYER}
        names = [name for name, _ in PER_LAYER]
    else:
        result_metrics = metrics
        names = RESULT_END_TO_END

    print(json.dumps({"report": report}, default=float))
    print(result_line(failed == 0, attempted, failed, result_metrics, names))
    return 0


def main(argv=None) -> int:
    process_start = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="scale N and trials down (self-test)")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    pin_threads()  # before anything imports numpy

    if not (SRC / "polarcomm" / "__init__.py").is_file():
        return fail(f"no polarcomm source tree under {SRC}")
    sys.path.insert(0, str(BENCH_DIR))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if args.seed < 0:
        return fail("--seed must be nonnegative")
    if args.setup_probe:
        workload = WORKLOADS[args.workload]
        return setup_probe(workload.tiny() if args.tiny else workload, process_start)
    return run(args, process_start)


if __name__ == "__main__":
    sys.exit(main())

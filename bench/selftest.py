"""Self-test of the benchmark at tiny sizes.

    python3 bench/selftest.py

Runs every workload with N and trials scaled down, untraced and traced, and
checks that the result line carries exactly the metrics BENCHMARK.json
declares, with their units; that the report carries every end-to-end figure
with its unit and direction, and every per-layer figure; and that the
benchmark refuses to run, without printing a result, in a directory that
holds only BENCHMARK.json and the benchmark.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
from tracer import COUNTS, LAYERS, TRACED  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCHMARK_KEYS = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}


def check(ok: bool, message: str) -> None:
    if not ok:
        raise AssertionError(message)


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False)


def check_declaration(spec: dict) -> tuple:
    check(set(spec) == BENCHMARK_KEYS, f"BENCHMARK.json keys {sorted(spec)}")
    check([w["name"] for w in spec["workloads"]] == list(WORKLOADS), "workload names")
    units = {name: (unit, better) for name, unit, better in run.END_TO_END}
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    check(list(e2e) == list(run.RESULT_END_TO_END), "end_to_end names")
    for name, m in e2e.items():
        check((m["unit"], m["better"]) == units[name], f"{name}: unit or direction")
        check(0 < m["bound"] <= 0.25, f"{name}: bound")
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    check(layer == dict(run.PER_LAYER), "per_layer names or units")
    return e2e, layer


def check_result(proc, declared: dict, label: str) -> dict:
    check(proc.returncode == 0, f"{label}: exit {proc.returncode}: {proc.stderr[-800:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: result keys")
    check(result["correct"] is True and result["failed"] == 0, f"{label}: {lines[-2][-800:]}")
    check(isinstance(result["attempted"], int) and result["attempted"] >= 1, f"{label}: attempted")
    check(set(result["metrics"]) == set(declared), f"{label}: metric names")
    for name, metric in result["metrics"].items():
        unit = declared[name]["unit"] if isinstance(declared[name], dict) else declared[name]
        check(metric["unit"] == unit, f"{label}: {name} unit")
        check(isinstance(metric["value"], (int, float)), f"{label}: {name} value")
    return json.loads(lines[-2])["report"]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    e2e, layer = check_declaration(spec)
    function_names = {name for name, _, _ in TRACED}
    for name, workload in WORKLOADS.items():
        report = check_result(run_bench(ROOT, name, 0), e2e, f"{name} untraced")
        for metric, unit, better in run.END_TO_END:
            if workload.kind != "oracle" and metric in run.ORACLE_ONLY:
                continue
            got = report["metrics"].get(metric)
            check(got is not None and (got["unit"], got["better"]) == (unit, better),
                  f"{name}: report lacks {metric} ({unit}, {better})")
        check(report["metrics"]["failed_share"]["value"] == 0.0, f"{name}: failed_share")
        check(len(report["digest"]) == 64, f"{name}: digest")
        report = check_result(run_bench(ROOT, name, 1), layer, f"{name} traced")
        per_layer = report["per_layer"]
        for key in list(function_names) + list(LAYERS):
            for kind in ("calls", "s", "self_s"):
                check(f"{key}.{kind}" in per_layer, f"{name}: per-layer {key}.{kind}")
        for key in COUNTS + ("sc.null_ratio", "trace.overhead_s"):
            check(key in per_layer, f"{name}: per-layer {key}")
        print(f"ok {name}")

    with tempfile.TemporaryDirectory() as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH_DIR, Path(bare) / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench(Path(bare), next(iter(WORKLOADS)), 0)
        check(proc.returncode != 0 and not proc.stdout.strip(),
              "the benchmark must fail without printing a result when src/ is missing")
    print("ok without the source tree: refused")
    return 0


if __name__ == "__main__":
    sys.exit(main())

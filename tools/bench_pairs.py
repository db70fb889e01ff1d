"""Run the benchmark in interleaved parent/change pairs and record every run.

    python tools/bench_pairs.py PARENT_REV --workload W [--workload W2 ...]
        [--seeds 1 2 ...] [--pairs K (default 10)] [--seconds S] --out BENCH_<n>.json
    python tools/bench_pairs.py --summarize BENCH_<n>.json [MORE.json ...]

The parent revision and HEAD are exported with `git archive` into fresh temporary
directories, so each side runs its committed files only, as a new checkout
would. For every workload, seed and pair the tool runs
`python3 bench/run.py --workload W --seed s --seconds S` once on each side,
back to back, and alternates which side goes first (the parent in even
pairs). Each run line of the output file holds the run's result line (its
last stdout line) and its report's output digest; `env` is the first
report's environment. The output file is rewritten after every run, so a
run that exits non-zero stops the tool but leaves every earlier run on
disk. A summary
(`summary`) is printed at the end: each side's failed operations, whether
the digests differ, and per end-to-end metric of BENCHMARK.json the
medians, the parent's IQR, the median change as a share of the metric's
bound and the pairs the change wins in the metric's better direction, then
the paired change with its bootstrap interval (see `summary`).
`--summarize` prints the summary of files already written, and runs nothing;
given several files it pools their whole pairs into one summary per
workload and seed, pair k of one file never meeting pair k of another.
"""
from __future__ import annotations

import argparse
import io
import json
import math
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
CONTROL = "setup_s"  # fresh processes that import and build models: no planning or SC walk runs
RESAMPLES = 10000  # bootstrap resamples of the pairs
BOOTSTRAP_SEED = 2013  # fixed, so one file always summarizes the same


def export(rev: str, dest: Path) -> str:
    """Write the committed tree of `rev` into dest; return its short hash."""
    short = subprocess.run(["git", "rev-parse", "--short", rev], cwd=ROOT, check=True,
                           capture_output=True, text=True).stdout.strip()
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return short


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> tuple:
    """(result line, report) of one bench/run.py run in `tree`."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"bench/run.py in {tree} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-1]), json.loads(lines[-2])["report"]


def end_to_end() -> dict:
    """name -> entry (better, bound, ...) of BENCHMARK.json's end-to-end metrics."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in spec["end_to_end"]}


def paired_change(parent: list, change: list) -> tuple | None:
    """(median, low, high) change of pairs whose values are parent[k] and
    change[k]: the median over pairs of log(change / parent) and its 95%
    percentile-bootstrap interval over pairs (resampled with a fixed seed),
    each given as the fractional change exp(x) - 1. None unless every value
    is positive."""
    if min(parent + change) <= 0:
        return None
    logs = np.log(np.asarray(change) / np.asarray(parent))
    picks = np.random.default_rng(BOOTSTRAP_SEED).integers(0, len(logs), (RESAMPLES, len(logs)))
    low, high = np.percentile(np.median(logs[picks], axis=1), [2.5, 97.5])
    return tuple(np.expm1([np.median(logs), low, high]).tolist())


def pooled(paths: list) -> list:
    """The runs of the files at `paths`, each run's pair renamed (file
    index, pair) so that pairs of different files stay apart."""
    return [dict(run, pair=(k, run["pair"]))
            for k, path in enumerate(paths) for run in json.loads(path.read_text())["runs"]]


def summary(runs: list) -> str:
    """Per workload and seed: failed operations, a DIGESTS DIFFER line when
    the two sides' output digests disagree, and for each end-to-end metric,
    over the pairs run on both sides, the parent's median and IQR (linear quartiles), the change's median, the
    change of the medians relative to the parent's as a share of the
    metric's bound (positive is worse) and the pairs in which the change
    reads better in the metric's direction (ties count for neither). A
    metric whose parent IQR, as a share of the parent's median, exceeds its
    bound is marked UNRESOLVED, since its runs cannot tell a move within
    the bound from none, unless every change run reads better than every
    parent run.

    Under each metric whose values are positive, a `paired` line gives
    paired_change: the median paired change and its 95% interval, in
    percent. CONTROL's line is labelled the control: that phase plans and
    walks nothing, so a change to either is an A/A test there (Kalibera and
    Jones, "Rigorous benchmarking in reasonable time", ISMM 2013). Any other
    metric is resolved when its interval excludes 0 and the control's
    interval contains 0: a control that moves means the host drifted
    between the sides."""
    metrics = end_to_end()
    out = []
    groups = sorted({(r["workload"], r["seed"]) for r in runs})
    for workload, seed in groups:
        mine = [r for r in runs if (r["workload"], r["seed"]) == (workload, seed)]
        by = {(r["pair"], r["side"]): r["result"]["metrics"] for r in mine}
        # a file cut short by a failed run may end in half a pair
        pairs = sorted({p for p, _ in by if all((p, side) in by for side in SIDES)})
        digests = {side: sorted({r["digest"][:8] for r in mine if r["side"] == side})
                   for side in SIDES}
        out.append(f"{workload} seed {seed}, {len(pairs)} pairs, digests {digests['parent']}")
        if digests["parent"] != digests["change"]:
            out.append(f"  DIGESTS DIFFER: parent {digests['parent']}, "
                       f"change {digests['change']}")
        for side in SIDES:
            done = [r["result"] for r in mine if r["side"] == side]
            failed = sum(r["failed"] for r in done)
            out.append(f"  {side}: {failed} of {sum(r['attempted'] for r in done)} "
                       f"operations failed" + ("  <-- FAILURES" if failed else ""))
        vals_of = {name: {side: [by[p, side][name]["value"] for p in pairs] for side in SIDES}
                   for name in metrics if pairs and name in by[pairs[0], "parent"]}
        control = (paired_change(vals_of[CONTROL]["parent"], vals_of[CONTROL]["change"])
                   if CONTROL in vals_of else None)
        for name, vals in vals_of.items():
            spec = metrics[name]
            # sign * (change - parent) is positive where the change is worse
            sign = 1.0 if spec["better"] == "lower" else -1.0
            better = sum(sign * (c - p) < 0 for p, c in zip(vals["parent"], vals["change"]))
            med = {side: statistics.median(vals[side]) for side in SIDES}
            q1, q3 = np.percentile(vals["parent"], [25, 75])
            delta = med["change"] - med["parent"]
            worse = sign * delta / abs(med["parent"] or math.nan) if delta else 0.0
            spread = (q3 - q1) / abs(med["parent"] or math.nan)
            # a spread wider than the bound hides a move within it, unless
            # every change run reads better than every parent run
            apart = max(sign * c for c in vals["change"]) < min(sign * p for p in vals["parent"])
            unresolved = spread > spec["bound"] and not apart
            out.append(f"  {name:14s} {med['parent']:10.4g} (IQR {q3 - q1:.3g}) -> "
                       f"{med['change']:10.4g}   {worse / spec['bound']:+.2f} of bound "
                       f"{spec['bound']:g}   change better in {better}/{len(pairs)}"
                       + (f"  <-- UNRESOLVED: parent IQR {spread:.3g} of its median"
                          if unresolved else ""))
            paired = paired_change(vals["parent"], vals["change"])
            if paired is None:
                continue
            mid, low, high = (100 * x for x in paired)
            if name == CONTROL:
                verdict = "the control"
            elif low <= 0 <= high:
                verdict = "not resolved: interval contains 0"
            elif control is None or not control[1] <= 0 <= control[2]:
                verdict = "not resolved: the control's interval excludes 0"
            else:
                verdict = "resolved"
            out.append(f"    paired {mid:+.1f}% [95% {low:+.1f}, {high:+.1f}]  {verdict}")
    return "\n".join(out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("parent", nargs="?", help="the parent revision")
    parser.add_argument("--workload", action="append")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--summarize", type=Path, nargs="+", metavar="FILE",
                        help="print the summary of files this tool wrote, their pairs "
                             "pooled, and run nothing")
    args = parser.parse_args(argv)
    if args.summarize:
        print(summary(pooled(args.summarize)))
        return 0
    if not (args.parent and args.workload and args.out):
        parser.error("a run needs the parent revision, --workload and --out")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    runs, env = [], None
    with tempfile.TemporaryDirectory() as tmp:
        trees, names = {}, {}
        for side, rev in zip(SIDES, (args.parent, "HEAD")):
            trees[side] = Path(tmp) / side
            names[side] = export(rev, trees[side])
        what = (f"Interleaved parent/change pairs of `python3 bench/run.py --workload <w> "
                f"--seed <s> --seconds {args.seconds:g}`, run back to back, alternating "
                f"which side runs first. parent is {names['parent']}; change is "
                f"{names['change']}. Each run line holds the run's result line (its last "
                f"stdout line) and its report's output digest.")
        for workload in args.workload:
            for seed in args.seeds:
                for pair in range(args.pairs):
                    order = SIDES if pair % 2 == 0 else SIDES[::-1]
                    for side in order:
                        result, report = run_once(trees[side], workload, seed, args.seconds)
                        if env is None:
                            env = {k: v for k, v in report["env"].items() if k != "seed"}
                        runs.append({"workload": workload, "seed": seed, "pair": pair,
                                     "side": side, "digest": report["digest"],
                                     "result": result})
                        args.out.write_text(json.dumps({"what": what, "env": env, "runs": runs},
                                                       indent=1) + "\n")
                        print(f"{workload} seed {seed} pair {pair} {side}: "
                              f"{json.dumps(result['metrics'])}", flush=True)
    print(summary(runs))
    return 0


if __name__ == "__main__":
    sys.exit(main())

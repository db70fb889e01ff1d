"""Tests of the scripts under tools/, imported by path."""
import importlib.util
import json
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def bench_pairs():
    return _load("bench_pairs")


def _runs(parent, change, digests=("aaaa1111", "aaaa1111"), failed=(0, 0)):
    """Synthetic run lines of one workload and seed: parent[k] and change[k]
    map metric names to the values of pair k."""
    runs = []
    for pair, (p_vals, c_vals) in enumerate(zip(parent, change)):
        for side, vals, digest, fail in zip(("parent", "change"), (p_vals, c_vals),
                                            digests, failed):
            runs.append({"workload": "w", "seed": 1, "pair": pair, "side": side,
                         "digest": digest * 8,
                         "result": {"attempted": 10, "failed": fail,
                                    "metrics": {k: {"value": v} for k, v in vals.items()}}})
    return runs


def _line(text, name):
    return next(line for line in text.splitlines() if line.split()[:1] == [name])


def test_summary_counts_wins_in_each_metrics_better_direction(bench_pairs):
    spec = bench_pairs.end_to_end()
    assert spec["wall_s"]["better"] == "lower" and spec["agreement"]["better"] == "higher"
    parent = [{"wall_s": 2.0 + 0.1 * k, "agreement": 0.9} for k in range(5)]
    change = [{"wall_s": 1.9 + 0.1 * k if k < 4 else 9.0, "agreement": 0.9 + 0.01 * (k % 2)}
              for k in range(5)]
    text = bench_pairs.summary(_runs(parent, change))
    wall, agree = _line(text, "wall_s"), _line(text, "agreement")
    assert wall.endswith("change better in 4/5")  # lower wins, the 9.0 loses
    assert agree.endswith("change better in 2/5")  # higher wins, ties count for neither
    # parent wall_s 2.0 .. 2.4: median 2.2, linear quartiles 2.1 and 2.3
    assert "2.2 (IQR 0.2) ->" in wall
    # medians 2.2 -> 2.1: 4.5% better, -0.18 of the 0.25 bound
    assert f"{-0.1 / 2.2 / spec['wall_s']['bound']:+.2f} of bound 0.25" in wall
    # agreement 0.9 -> 0.9 (median of 0.9, 0.91, 0.9, 0.91, 0.9)
    assert "+0.00 of bound" in agree
    assert "DIGESTS DIFFER" not in text and "FAILURES" not in text


def test_summary_share_of_bound_is_positive_where_worse(bench_pairs):
    bound = bench_pairs.end_to_end()["agreement"]["bound"]
    text = bench_pairs.summary(_runs([{"agreement": 0.8}] * 3, [{"agreement": 0.76}] * 3))
    # 5% lower agreement is worse by one whole bound of 0.05
    assert f"{0.04 / 0.8 / bound:+.2f} of bound" in _line(text, "agreement")
    assert _line(text, "agreement").endswith("change better in 0/3")


def test_summary_flags_differing_digests_and_failures(bench_pairs):
    runs = _runs([{"wall_s": 1.0}] * 2, [{"wall_s": 1.0}] * 2,
                 digests=("aaaa1111", "bbbb2222"), failed=(0, 1))
    text = bench_pairs.summary(runs)
    assert "  DIGESTS DIFFER: parent ['aaaa1111'], change ['bbbb2222']" in text.splitlines()
    assert "  change: 2 of 20 operations failed  <-- FAILURES" in text.splitlines()
    assert "  parent: 0 of 20 operations failed" in text.splitlines()


def test_summary_reads_only_pairs_run_on_both_sides(bench_pairs):
    """A file cut short after one side of a pair, as the tool leaves it when
    a run fails, is summarized over its whole pairs."""
    runs = _runs([{"wall_s": 2.0}] * 3, [{"wall_s": 1.0}] * 3)
    text = bench_pairs.summary(runs[:-1])
    assert text.splitlines()[0] == "w seed 1, 2 pairs, digests ['aaaa1111']"
    assert _line(text, "wall_s").endswith("change better in 2/2")
    assert bench_pairs.summary(runs[:1]).splitlines()[0] == "w seed 1, 0 pairs, digests ['aaaa1111']"


def test_summary_marks_a_metric_unresolved_when_the_parent_spreads_past_its_bound(bench_pairs):
    """A parent IQR wider than the bound, as a share of the parent's median,
    leaves a metric unresolved, unless every change run reads better than
    every parent run; a spread within the bound leaves it resolved."""
    assert bench_pairs.end_to_end()["setup_s"]["bound"] == 0.25
    # parent setup_s 0.8 .. 1.2: median 1.0, IQR 0.2, within the bound
    # parent wall_s 0.6 .. 1.4: median 1.0, IQR 0.4, 0.4 of it
    parent = [{"setup_s": 0.8 + 0.1 * k, "wall_s": 0.6 + 0.2 * k, "plan_s": 0.6 + 0.2 * k}
              for k in range(5)]
    # plan_s: every change run (0.3 .. 0.5) reads better than every parent run
    change = [{"setup_s": 1.0, "wall_s": 1.0, "plan_s": 0.3 + 0.05 * k} for k in range(5)]
    text = bench_pairs.summary(_runs(parent, change))
    assert "UNRESOLVED" not in _line(text, "setup_s")
    assert _line(text, "wall_s").endswith("<-- UNRESOLVED: parent IQR 0.4 of its median")
    assert "UNRESOLVED" not in _line(text, "plan_s")
    # higher is better: agreement 0.5 .. 0.9 spreads 0.2 / 0.7 of its median
    text = bench_pairs.summary(_runs([{"agreement": 0.5 + 0.1 * k} for k in range(5)],
                                     [{"agreement": 0.95}] * 5))
    assert "UNRESOLVED" not in _line(text, "agreement")
    text = bench_pairs.summary(_runs([{"agreement": 0.5 + 0.1 * k} for k in range(5)],
                                     [{"agreement": 0.85}] * 5))
    assert "UNRESOLVED" in _line(text, "agreement")


def test_summary_gives_the_paired_change_and_its_interval(bench_pairs, tmp_path, capsys):
    """A uniform -10% change reads -10% with an interval that excludes 0, and
    resolves while the control (setup_s) reads equal sides: 0% with an
    interval that contains 0. --summarize prints the summary of a written
    file and runs nothing."""
    parent = [{"setup_s": 0.2 + 0.01 * k, "wall_s": 1.0 + 0.1 * k} for k in range(10)]
    change = [{"setup_s": 0.2 + 0.01 * k, "wall_s": 0.9 * (1.0 + 0.1 * k)} for k in range(10)]
    mid, low, high = bench_pairs.paired_change([p["wall_s"] for p in parent],
                                               [c["wall_s"] for c in change])
    assert mid == pytest.approx(-0.1) and high < 0
    assert bench_pairs.paired_change([0.2, 0.3], [0.2, 0.3]) == (0.0, 0.0, 0.0)
    assert bench_pairs.paired_change([0.0, 0.3], [0.2, 0.3]) is None
    text = bench_pairs.summary(_runs(parent, change))
    lines = text.splitlines()
    assert lines[lines.index(_line(text, "wall_s")) + 1] == \
        "    paired -10.0% [95% -10.0, -10.0]  resolved"
    assert lines[lines.index(_line(text, "setup_s")) + 1] == \
        "    paired +0.0% [95% +0.0, +0.0]  the control"
    # a control that moves leaves every other metric not resolved
    moved = [{"setup_s": 1.2 * p["setup_s"], "wall_s": c["wall_s"]}
             for p, c in zip(parent, change)]
    text = bench_pairs.summary(_runs(parent, moved))
    assert _line(text, "paired").endswith("the control")
    assert "not resolved: the control's interval excludes 0" in text
    # equal sides contain 0 in their interval
    text = bench_pairs.summary(_runs(parent, parent))
    assert "    paired +0.0% [95% +0.0, +0.0]  not resolved: interval contains 0" in text
    out = tmp_path / "bench.json"
    out.write_text(json.dumps({"runs": _runs(parent, change)}))
    assert bench_pairs.main(["--summarize", str(out)]) == 0
    assert capsys.readouterr().out == bench_pairs.summary(_runs(parent, change)) + "\n"


def test_summarize_pools_the_pairs_of_several_files(bench_pairs, tmp_path, capsys):
    """--summarize with two files gives one summary over the pairs of both:
    five pairs 10% faster in one file and five 10% slower in the other
    read 10 pairs, 5 won, and a paired interval across both. Pair k of one
    file is not merged with pair k of the other."""
    files = []
    for name, ratio, base in (("a.json", 0.9, 1.0), ("b.json", 1.1, 2.0)):
        parent = [{"wall_s": base + 0.01 * k} for k in range(5)]
        change = [{"wall_s": ratio * (base + 0.01 * k)} for k in range(5)]
        files.append(tmp_path / name)
        files[-1].write_text(json.dumps({"runs": _runs(parent, change)}))
    assert bench_pairs.main(["--summarize", *map(str, files)]) == 0
    text = capsys.readouterr().out
    assert text == bench_pairs.summary(bench_pairs.pooled(files)) + "\n"
    assert text.splitlines()[0] == "w seed 1, 10 pairs, digests ['aaaa1111']"
    wall = _line(text, "wall_s")
    assert "change better in 5/10" in wall
    # the median of five log(0.9) and five log(1.1) is their mean
    mid, low, high = bench_pairs.paired_change(
        *([r["result"]["metrics"]["wall_s"]["value"] for r in bench_pairs.pooled(files)
           if r["side"] == side] for side in ("parent", "change")))
    assert mid == pytest.approx((0.9 * 1.1) ** 0.5 - 1) and low < 0 < high
    lines = text.splitlines()
    assert lines[lines.index(wall) + 1].startswith(f"    paired {100 * mid:+.1f}% [95% ")
    # one file alone reads its own five pairs
    assert bench_pairs.main(["--summarize", str(files[0])]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "w seed 1, 5 pairs, digests ['aaaa1111']"


def _fake_bench(bench_pairs, monkeypatch, fail_after=None):
    """Replace the tool's export and benchmark run with stand-ins that run
    nothing: every run reports wall_s 1.0, and run number fail_after (from
    0) raises as a run that exits non-zero does."""
    calls = []

    def run_once(tree, workload, seed, seconds):
        if len(calls) == fail_after:
            raise RuntimeError("bench/run.py exited 1")
        calls.append(tree.name)
        result = {"attempted": 1, "failed": 0, "metrics": {"wall_s": {"value": 1.0}}}
        return result, {"env": {"seed": seed}, "digest": "ab" * 32}

    monkeypatch.setattr(bench_pairs, "export", lambda rev, dest: rev)
    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    return calls


def test_bench_pairs_runs_ten_pairs_by_default(bench_pairs, monkeypatch, tmp_path):
    calls = _fake_bench(bench_pairs, monkeypatch)
    out = tmp_path / "bench.json"
    assert bench_pairs.main(["PARENT", "--workload", "w", "--out", str(out)]) == 0
    runs = json.loads(out.read_text())["runs"]
    assert sorted({r["pair"] for r in runs}) == list(range(10)) and len(runs) == 20
    # the parent goes first in even pairs, the change in odd ones
    assert calls[:4] == ["parent", "change", "change", "parent"]


def test_bench_pairs_keeps_earlier_runs_when_a_run_fails(bench_pairs, monkeypatch, tmp_path):
    _fake_bench(bench_pairs, monkeypatch, fail_after=3)
    out = tmp_path / "bench.json"
    with pytest.raises(RuntimeError):
        bench_pairs.main(["PARENT", "--workload", "w", "--pairs", "4", "--out", str(out)])
    runs = json.loads(out.read_text())["runs"]
    assert [(r["pair"], r["side"]) for r in runs] == [(0, "parent"), (0, "change"), (1, "change")]


def test_tracer_sees_one_profile_span_per_profile_a_plan_reads(monkeypatch):
    """Under `bench/tracer.py`, whose aliases require `protocol` to look its
    profile and partition functions up by the `reliability` names, a small
    target_rate plan records one `reliability.profile_monte_carlo` span per
    profile its partitions read (round 2's prior and receiver), each inside
    that round's `build_partition` span. A profile read after the tracer
    exits is made by the untraced function."""
    import polarcomm

    spec = importlib.util.spec_from_file_location("tracer", TOOLS.parent / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "tracer", tracer)  # its dataclass looks itself up there
    spec.loader.exec_module(tracer)
    model = polarcomm.models.build_and_chain(polarcomm.models.AndModelParams(0.5, 0.5, 2))
    with tracer.Tracer() as trace:
        plans = polarcomm.plan_protocol(
            model, 32, polarcomm.reliability.PartitionPolicy(mode="target_rate"),
            rate_margin=0.15, profile_method="monte_carlo", profile_samples=16)
    profile_spans = [span for span in trace.spans
                     if span.name == "reliability.profile_monte_carlo"]
    assert len(profile_spans) == 2
    assert all(trace.spans[span.parent].name == "reliability.build_partition"
               for span in profile_spans)
    assert trace.summary()["reliability.build_partition.calls"] == len(plans) == 2
    spans = len(trace.spans)
    assert all(prof.z.size == 32 for plan in plans for prof in plan.profiles.values())
    assert len(trace.spans) == spans


def test_output_digest_walk_cases_run_on_the_library():
    """The digest tool's functional, erasure and run walk cases run against
    the library's public SC API and yield one sha256 hex digest per case,
    under distinct names."""
    import polarcomm

    digest = _load("output_digest")
    cases = [*digest.functional_walk_cases(polarcomm), *digest.erasure_walk_cases(polarcomm),
             *digest.run_walk_cases(polarcomm)]
    assert len(cases) == 244 and len({name for name, _ in cases}) == 244
    for name, value in cases:
        assert name.startswith(("walk/functional/", "walk/erasure/", "walk/runs/"))
        assert len(value) == 64 and set(value) <= set("0123456789abcdef")


def test_output_digest_word_cases_cross_word_boundaries():
    """The digest tool's word cases run hard-channel walks at 65 trials and
    profiles of 1 and 65 samples in chunks of 64, one digest each."""
    import polarcomm

    digest = _load("output_digest")
    cases = list(digest.word_cases(polarcomm))
    walks = [name for name, _ in cases if name.startswith("walk/words/")]
    profiles = [name for name, _ in cases if name.startswith("profile/words/")]
    assert len(walks) == 60 and len(profiles) == 30 and len(cases) == 90
    assert len({name for name, _ in cases}) == 90
    assert {name.rsplit("-", 2)[-2] for name in profiles} == {"s1", "s65"}
    for _, value in cases:
        assert len(value) == 64 and set(value) <= set("0123456789abcdef")


def test_output_digest_chain_oracle_cases_all_have_routes():
    """The digest tool's oracle cases past two rounds and on ternary sources
    each find an exact route: none digests as a ValueError."""
    import polarcomm

    digest = _load("output_digest")
    cases = list(digest.chain_oracle_cases(polarcomm))
    assert len(cases) == 12 and len({name for name, _ in cases}) == 12
    assert all(value != digest._digest("ValueError") for _, value in cases)


SYNTHETIC_MODULE = '''"""Module docstring,
over two lines."""
import os  # a trailing comment keeps its line

# a comment line


class Box:
    """Class docstring."""

    size = 3

    def area(self):
        """Function
        docstring."""
        text = """a multi-line string
        that is not a docstring
        """
        return self.size, text


def loose():
    x = 1
    """a string statement after the first is no docstring"""
    return x
'''


def test_code_lines_counts_tokens_outside_comments_and_docstrings(tmp_path):
    """Code lines of a synthetic module: docstrings, comments and blank lines
    do not count, every line of a multi-line string that is no docstring
    does; two trees print their per-module difference."""
    code_lines = _load("code_lines")
    # import, class, size, def area, text = (3 lines), return, def loose,
    # x = 1, the late string statement, return x
    assert code_lines.code_lines(SYNTHETIC_MODULE) == 12
    assert code_lines.code_lines('"""Only a docstring."""\n\n# and a comment\n') == 0
    # without x = 1 the string statement is loose's docstring
    assert code_lines.code_lines(SYNTHETIC_MODULE.replace("    x = 1\n", "")) == 10
    old, new = tmp_path / "old", tmp_path / "new"
    for root in (old, new):
        (root / "pkg").mkdir(parents=True)
        (root / "pkg" / "a.py").write_text(SYNTHETIC_MODULE)
    (new / "pkg" / "a.py").write_text(SYNTHETIC_MODULE.replace("    size = 3\n", ""))
    (new / "pkg" / "b.py").write_text("y = 2\n")
    assert code_lines.count_tree(old) == {"pkg/a.py": 12}
    lines = code_lines.report(code_lines.count_tree(old), code_lines.count_tree(new)).splitlines()
    assert [line.split() for line in lines] == [["pkg/a.py", "12", "11", "-1"],
                                                ["pkg/b.py", "0", "1", "+1"],
                                                ["TOTAL", "12", "12", "+0"]]
    assert code_lines.report({"a.py": 5}).splitlines()[-1].split() == ["TOTAL", "5"]

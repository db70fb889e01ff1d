"""CLI harness tests: schema, outputs, determinism, exit codes."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import polarcomm
import polarcomm.cli
from polarcomm.cli import COMMANDS, CONFIG_SCHEMA, main

# Directory holding the imported package, so the child process runs the same
# code as the in-process tests, whatever its cwd and whether or not it is
# installed.
PACKAGE_ROOT = str(Path(polarcomm.__file__).resolve().parents[1])


def run_cli(args, cwd):
    path = os.pathsep.join(filter(None, (PACKAGE_ROOT, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", "polarcomm.cli", *args],
        capture_output=True, text=True, cwd=cwd,
        env={**os.environ, "PYTHONPATH": path},
    )


def write_config(path: Path, **overrides):
    path.write_text(json.dumps(overrides))
    return str(path)


def test_print_schema_lists_every_key(tmp_path):
    proc = run_cli(["--print-schema"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    schema = json.loads(proc.stdout)
    assert set(schema) == set(CONFIG_SCHEMA)
    for entry in schema.values():
        assert "default" in entry and "help" in entry


def test_rates_command_values(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", model="and", p=0.5, q=0.5)
    assert main(["rates", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    payload = json.loads((tmp_path / "out" / "rates.json").read_text())
    assert abs(payload["sum_rates"]["r_sum_two_round_A"] - 1.5) < 1e-12
    assert abs(payload["sum_rates"]["r_sum_infinity"] - 1.360674) < 1e-6
    rates = {row["round"]: row["rate"] for row in payload["per_round"]}
    assert abs(rates[1] - 1.0) < 1e-12 and abs(rates[2] - 0.5) < 1e-12


def test_verify_and_simulate_byte_identical(tmp_path):
    cfg = write_config(
        tmp_path / "cfg.json",
        model="and", p=0.3, q=0.6, n=4,
        partition_mode="threshold", delta=0.2,
        trials=20, shared_seed=5,
    )
    blobs = {}
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        blobs[name] = [
            (out / "verify.json").read_bytes(),
            (out / "simulate.json").read_bytes(),
        ]
    assert blobs["a"] == blobs["b"]


def test_verify_reports_exact_metrics(tmp_path):
    cfg = write_config(
        tmp_path / "cfg.json",
        model="and", p=0.3, q=0.6, n=4,
        partition_mode="threshold", delta=0.2,
    )
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    payload = json.loads((tmp_path / "out" / "verify.json").read_text())
    assert payload["mode"] == "exact"
    assert payload["tv_by_side"]["tx"] >= 0.0
    assert 0.0 <= payload["agreement_probability"] <= 1.0
    assert payload["rate_table"][0]["round"] == 1


def test_verify_without_tv_route_writes_null(tmp_path):
    """AND t = 4 comparing all rounds has no exact TV route at N = 4 or 8:
    verify exits 0 with tv_value null, and still reports agreement where
    its 2^(2N) 2^(4N) cells fit exact.MAX_ENUM (N = 4)."""
    for n_len in (4, 8):
        cfg = write_config(tmp_path / f"cfg{n_len}.json", model="and", t=4, n=n_len,
                           verify_rounds=None)
        out = tmp_path / f"out{n_len}"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
        payload = json.loads((out / "verify.json").read_text())
        assert payload["tv_value"] is None and payload["tv_by_side"] is None
        agree = payload["agreement_probability"]
        if n_len == 4:
            assert 0.0 <= agree <= 1.0
        else:
            assert agree is None


def test_verify_beyond_the_exact_domain_writes_null(tmp_path):
    """A ternary-source model file at N = 8 has 3^8 3^8 2^8 cells, beyond
    exact.MAX_ENUM: verify exits 0 and writes null for TV and agreement."""
    from test_verification import ternary_model

    model_path = tmp_path / "model.json"
    model_path.write_text(ternary_model().to_json())
    cfg = write_config(tmp_path / "cfg.json", model=str(model_path), n=8)
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads((out / "verify.json").read_text())
    assert payload["tv_value"] is None and payload["tv_by_side"] is None
    assert payload["agreement_probability"] is None


def test_exact_verify_under_argmax_fd_is_null(tmp_path):
    """The exact routes model the sampling F_d rule. Under argmax with
    F_d = [3] / [2, 3] they do not apply, and verify writes null for TV and
    agreement rather than the sampling rule's values (0.0768 / 0.8748; a
    Monte Carlo verify of this config measures agreement 0.974)."""
    cfg = write_config(tmp_path / "cfg.json", model="and", p=0.11, q=0.4, n=4,
                       partition_mode="threshold", delta=0.3, fd_policy="argmax")
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads((out / "verify.json").read_text())
    assert payload["tv_value"] is None and payload["tv_by_side"] is None
    assert payload["agreement_probability"] is None


def test_profile_and_plan_outputs(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", model="bsc", n=8,
                       partition_mode="threshold")
    out = tmp_path / "out"
    assert main(["profile", "--config", cfg, "--out", str(out)]) == 0
    prof = json.loads((out / "profile_round1_tx.json").read_text())
    assert prof["N"] == 8 and len(prof["z"]) == 8
    assert main(["plan", "--config", cfg, "--out", str(out)]) == 0
    part = json.loads((out / "partition_round1.json").read_text())
    assert sorted(part) == ["F_d", "F_r", "I", "I_prime", "N"]
    covered = sorted(part["F_d"] + part["F_r"] + part["I"])
    assert covered == list(range(8))


def test_sweep_csv_schema(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", model="bsc", n_list=[8, 16],
                       partition_mode="threshold", profile_method="monte_carlo",
                       profile_samples=128)
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "model,N,round,metric,value,stderr"
    assert any(",rate_gap," in line for line in lines[1:])
    assert len(lines) == 1 + 2 * 3  # two N values, three metrics per round


def test_config_errors_exit_2(tmp_path):
    missing = tmp_path / "nope.json"
    proc = run_cli(["verify", "--config", str(missing), "--out", str(tmp_path / "o")], tmp_path)
    assert proc.returncode == 2, proc.stderr
    record = json.loads(proc.stderr.strip().splitlines()[-1])
    assert record["error"] == "config"

    bad = write_config(tmp_path / "bad.json", nonsense_key=1)
    proc = run_cli(["verify", "--config", bad, "--out", str(tmp_path / "o2")], tmp_path)
    assert proc.returncode == 2, proc.stderr

    badval = write_config(tmp_path / "badval.json", model="and", n=3)
    proc = run_cli(["plan", "--config", badval, "--out", str(tmp_path / "o3")], tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert not (tmp_path / "o3").exists() or not list((tmp_path / "o3").iterdir())

    negative = write_config(tmp_path / "negative.json", model="and", n=8, rate_margin=-5)
    proc = run_cli(["plan", "--config", negative, "--out", str(tmp_path / "o4")], tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert json.loads(proc.stderr.strip().splitlines()[-1])["error"] == "config"

    for k, bad_verify in enumerate(({"verify_mode": "exactt"}, {"verify_rounds": 0},
                                    {"verify_rounds": 5})):
        cfg = write_config(tmp_path / f"verify{k}.json", model="and", t=2, n=4, **bad_verify)
        proc = run_cli(["verify", "--config", cfg, "--out", str(tmp_path / f"v{k}")], tmp_path)
        assert proc.returncode == 2, proc.stderr
        assert json.loads(proc.stderr.strip().splitlines()[-1])["error"] == "config"


def _last_error(capsys):
    return json.loads(capsys.readouterr().err.strip().splitlines()[-1])


def test_config_value_types_checked(tmp_path, capsys):
    """A value whose JSON type differs from its key's default exits 2 (int
    and float are both numbers; null only where the key documents it), as
    does a fractional value of an integer key or a negative anomaly_limit;
    an integral float is read as the int."""
    for k, bad in enumerate(({"n": "8"}, {"n": None}, {"p": True}, {"n_list": 8},
                             {"source_probs": "0.5"}, {"fractions": 0.2}, {"n_list": [None]},
                             {"source_probs": [[0.5], [0.5]]}, {"n": 8.5}, {"trials": 20.9},
                             {"t": 2.5}, {"n_list": [8, 8.5]}, {"verify_rounds": 1.5},
                             {"shared_seed": 0.5}, {"anomaly_limit": -0.5},
                             {"anomaly_limit": -3}, {"anomaly_limit": 2.5})):
        cfg = write_config(tmp_path / f"bad{k}.json", model="and", **bad)
        code = main(["plan", "--config", cfg, "--out", str(tmp_path / f"o{k}")])
        assert code == 2, bad
        record = _last_error(capsys)
        assert record["error"] == "config" and next(iter(bad)) in record["detail"]
    cfg = write_config(tmp_path / "ok.json", model="and", n=4.0, rate_margin=0, delta=None,
                       anomaly_limit=None, verify_rounds=None)
    assert main(["plan", "--config", cfg, "--out", str(tmp_path / "ok")]) == 0
    cfg = write_config(tmp_path / "ok8.json", model="and", n=8.0, trials=4.0, n_list=[8.0],
                       verify_rounds=1.0, anomaly_limit=1000.0)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "ok8")]) == 0
    summary = json.loads((tmp_path / "ok8" / "simulate.json").read_text())
    assert [(type(summary[key]), summary[key]) for key in ("N", "trials")] == [(int, 8), (int, 4)]


def test_rate_margin_without_a_rate_target_exits_2(tmp_path, capsys):
    """Threshold plans and explicit fractions derive no rate target, so a
    positive rate_margin there, which would change nothing, is rejected."""
    for k, policy in enumerate(({"partition_mode": "threshold"},
                                {"fractions": [0.1, 0.1, 0.3]})):
        cfg = write_config(tmp_path / f"m{k}.json", model="and", n=8, rate_margin=0.4, **policy)
        assert main(["plan", "--config", cfg, "--out", str(tmp_path / f"o{k}")]) == 2
        record = _last_error(capsys)
        assert record["error"] == "config" and "rate_margin" in record["detail"]


def test_no_profile_samples_exits_2_where_no_profile_is_read(tmp_path, capsys):
    """profile_samples 0 on Monte Carlo rounds is a config error at plan
    time, also under fractions whose partition reads no profile (I' takes
    all of I); no output is left behind."""
    cfg = write_config(tmp_path / "s.json", model="and", n=16, fractions=[0, 0, 1],
                       profile_method="monte_carlo", profile_samples=0)
    assert main(["plan", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    record = _last_error(capsys)
    assert record["error"] == "config" and "profile_samples" in record["detail"]
    assert not (tmp_path / "o").exists() or not list((tmp_path / "o").iterdir())


def test_malformed_model_file_exits_2(tmp_path, capsys):
    model = tmp_path / "model.json"
    model.write_text(json.dumps({"joint": {"variables": []}}))
    cfg = write_config(tmp_path / "cfg.json", model=str(model))
    assert main(["rates", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert _last_error(capsys)["error"] == "config"


def test_internal_fault_exits_1(tmp_path, capsys, monkeypatch):
    """An exception that is not a ValueError is an internal fault: exit 1,
    kind internal, outputs rolled back."""
    def broken(model, cfg, out):
        out.write_json("rates.json", {})
        raise KeyError("missing")

    monkeypatch.setattr(polarcomm.cli, "cmd_rates", broken)
    cfg = write_config(tmp_path / "cfg.json", model="and")
    assert main(["rates", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    record = _last_error(capsys)
    assert record["error"] == "internal" and "missing" in record["detail"]
    assert not (tmp_path / "out" / "rates.json").exists()


def test_failed_write_leaves_no_temporary_file(tmp_path):
    out = polarcomm.cli.OutputSet(tmp_path / "out")
    with pytest.raises(UnicodeEncodeError):
        out.write_text("a.json", "\ud800")
    out.rollback()
    assert list((tmp_path / "out").iterdir()) == []


def test_anomaly_limit_exit_3(tmp_path):
    # margin 0 at N=64 leaves receiver-sampled indices that hit null prefixes
    cfg = write_config(
        tmp_path / "cfg.json",
        model="and", p=0.5, q=0.5, n=64, trials=40,
        partition_mode="target_rate", rate_margin=0.0,
        profile_method="monte_carlo", profile_samples=512,
        anomaly_limit=0,
    )
    proc = run_cli(["simulate", "--config", cfg, "--out", str(tmp_path / "out")], tmp_path)
    assert proc.returncode == 3, proc.stderr
    record = json.loads(proc.stderr.strip().splitlines()[-1])
    assert record["error"] == "anomaly_limit"
    assert not (tmp_path / "out" / "simulate.json").exists()


def test_model_file_roundtrip(tmp_path):
    from polarcomm.models import AndModelParams, build_and_chain

    model = build_and_chain(AndModelParams(0.3, 0.6, 2))
    model_path = tmp_path / "model.json"
    model_path.write_text(model.to_json())
    cfg = write_config(tmp_path / "cfg.json", model=str(model_path), n=4)
    assert main(["rates", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    payload = json.loads((tmp_path / "out" / "rates.json").read_text())
    assert len(payload["per_round"]) == 2


def test_seed_override(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", model="and", n=8, trials=10)
    out_a, out_b, out_c = (tmp_path / s for s in ("a", "b", "c"))
    assert main(["simulate", "--config", cfg, "--out", str(out_a), "--seed", "99"]) == 0
    assert main(["simulate", "--config", cfg, "--out", str(out_b), "--seed", "99"]) == 0
    assert main(["simulate", "--config", cfg, "--out", str(out_c), "--seed", "100"]) == 0
    assert (out_a / "simulate.json").read_bytes() == (out_b / "simulate.json").read_bytes()
    assert (out_a / "simulate.json").read_bytes() != (out_c / "simulate.json").read_bytes()


def test_every_config_key_is_read(tmp_path, monkeypatch):
    read = set()

    class RecordingConfig(dict):
        def __getitem__(self, key):
            read.add(key)
            return super().__getitem__(key)

    load = polarcomm.cli.load_config
    monkeypatch.setattr(polarcomm.cli, "load_config",
                        lambda *args: RecordingConfig(load(*args)))
    for model in ("and", "bsc", "collocated"):
        cfg = write_config(tmp_path / f"{model}.json", model=model, n=4, n_list=[4], trials=4)
        for command in COMMANDS:
            out = tmp_path / model / command
            assert main([command, "--config", cfg, "--out", str(out)]) == 0
    assert set(CONFIG_SCHEMA) - read == set()


def test_nan_model_masses_and_fractions_exit_2(tmp_path, capsys):
    """A model file with a NaN mass, and a NaN target fraction, are config
    errors (exit 2), not a run that reports rates from a NaN model or fails
    after profiling."""
    from polarcomm.models import AndModelParams, build_and_chain

    payload = json.loads(build_and_chain(AndModelParams(0.5, 0.5, 2)).to_json())
    payload["joint"]["mass"][0] = float("nan")
    model = tmp_path / "model.json"
    model.write_text(json.dumps(payload))
    cfg = write_config(tmp_path / "cfg.json", model=str(model), n=8, trials=50)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    record = _last_error(capsys)
    assert record["error"] == "config" and "nonnegative" in record["detail"]
    cfg = write_config(tmp_path / "fr.json", model="and", n=8, trials=4,
                       fractions=[float("nan"), 0.1, 0.1])
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "fr")]) == 2
    record = _last_error(capsys)
    assert record["error"] == "config" and "fractions" in record["detail"]

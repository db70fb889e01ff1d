"""Command-line front end.

    polarcomm <command> --config <path> [--out <dir>] [--seed <u64>] [--print-schema]

Commands: profile | plan | simulate | verify | rates | sweep. The config is a
flat JSON object; --print-schema lists every key with its default. Outputs
are written atomically into the --out directory and are byte-identical for
identical configs and seeds (no timestamps, sorted keys, fixed float
formatting via repr). On any failure a machine-readable error record goes to
stderr as its last line, partial outputs are removed, and the exit status is
2 for config errors (kind "config": a bad or mistyped value, or inputs the
library rejects with ValueError), 3 when the anomaly limit is exceeded (kind
"anomaly_limit"), and 1 for any other fault (kind "internal", after its
traceback).

simulate and verify draw the sources, the common randomness and the
terminals' private streams from shared_seed; Monte Carlo profiles from
profile_seed.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import tempfile
import traceback
from dataclasses import asdict, replace
from pathlib import Path

from .models import (
    AndModelParams,
    build_and_chain,
    build_bsc_chain,
    build_collocated_chain,
    sum_rates,
)
from .probability import AuxChainModel
from .reliability import PartitionPolicy
from .protocol import Transcript, plan_protocol, round_roles
from .verification import (
    VerificationReport,
    exact_metrics,
    function_error_rate,
    measured_rates,
)


class ConfigError(ValueError):
    pass


class AnomalyLimitExceeded(RuntimeError):
    pass


# key -> (default, help)
CONFIG_SCHEMA = {
    "model": ("and", "builtin model name ('and', 'bsc', 'collocated') or a path to a model JSON file"),
    "p": (0.5, "AND chain: P(X=1)"),
    "q": (0.5, "AND chain: P(Y=1)"),
    "t": (2, "AND chain: number of rounds (even, >= 2)"),
    "alpha_noise": (0.11, "BSC chain: auxiliary noise rate in (0, 0.5]"),
    "eps": (0.2, "BSC chain: side-information noise rate in (0, 0.5]"),
    "m": (2, "collocated chain: number of source terminals"),
    "source_probs": ([0.5, 0.5], "collocated chain: per-terminal P(X^j = 1)"),
    "n": (8, "blocklength (power of two) for single-N commands"),
    "n_list": ([256, 1024, 4096], "blocklength ladder for the sweep command"),
    "partition_mode": ("target_rate", "'target_rate' (rank-based, default) or 'threshold'"),
    "beta": (0.3, "threshold exponent: delta_N = 2^(-N^beta), beta in (0, 1/2)"),
    "delta": (None, "explicit threshold override in (0, 1/2); null uses 2^(-N^beta)"),
    "fractions": (None, "explicit target fractions [f_d, f_r, i_prime]; null derives them from the model"),
    "rate_margin": (0.0, "extra transmitted bits/symbol added to each round's I' target; "
                         "a positive margin needs partition_mode 'target_rate' with null "
                         "fractions, the only plans that derive a target"),
    "profile_method": ("auto", "'auto' (exact profiles for each round whose channels can be "
                               "enumerated at N, Monte Carlo for the others), 'exact', or "
                               "'monte_carlo'"),
    "profile_samples": (2000, "Monte Carlo profile samples per conditioning"),
    "profile_seed": (0, "Monte Carlo profile seed"),
    "shared_seed": (1, "seed of the sources, the common randomness (F_r bits) and the private streams"),
    "trials": (200, "protocol trials for simulate / Monte Carlo verify"),
    "fd_policy": ("sample", "'sample' (paper-faithful) or 'argmax' F_d decisions"),
    "verify_mode": ("exact", "'exact' (small N) or 'monte_carlo' verification"),
    "verify_rounds": (1, "rounds compared by exact TV, null (all t) or in 1..t. Exact routes "
                         "cover two-terminal models only, within |X|^N |Y|^N 2^(N k) <= 2^24 "
                         "cells, k the rounds TV compares and t for agreement (N <= 8 on "
                         "binary sources at k = 1, N <= 4 at k <= 4); under argmax fd_policy "
                         "only where every F_d is empty. verify.json holds null for a "
                         "quantity no route covers"),
    "anomaly_limit": (None, "exit 3 if a run records more decode anomalies than this "
                            "nonnegative integer; null for no limit"),
}

# keys whose help documents null, with the JSON type of their other values
NULLABLE = {"delta": "number", "fractions": "array", "verify_rounds": "number",
            "anomaly_limit": "number"}


def _json_type(value) -> str:
    """JSON type name of a decoded value; int and float are both numbers."""
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, (int, float)):
        return "number"
    return {str: "string", list: "array", dict: "object"}[type(value)]


def _integral(key: str, value):
    """A number of an integer-valued key, with an integral float made int;
    a fractional one is a config error (None passes through)."""
    if isinstance(value, float):
        if not value.is_integer():
            raise ConfigError(f"config key {key!r} must be an integer, got {value!r}")
        return int(value)
    return value


COMMANDS = ("profile", "plan", "simulate", "verify", "rates", "sweep")


def load_config(path: str | None, seed_override: int | None) -> dict:
    cfg = {k: v for k, (v, _) in CONFIG_SCHEMA.items()}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                user = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(user, dict):
            raise ConfigError("config must be a flat JSON object")
        unknown = sorted(set(user) - set(CONFIG_SCHEMA))
        if unknown:
            raise ConfigError(f"unknown config keys: {unknown}")
        for key, value in user.items():
            default = CONFIG_SCHEMA[key][0]
            allowed = {_json_type(default)}
            if key in NULLABLE:
                allowed |= {"null", NULLABLE[key]}
            if _json_type(value) not in allowed:
                raise ConfigError(f"config key {key!r} must be {' or '.join(sorted(allowed))}, "
                                  f"got {_json_type(value)}")
            # every array-valued key holds numbers
            if isinstance(value, list) and any(_json_type(v) != "number" for v in value):
                raise ConfigError(f"config key {key!r} must be an array of numbers")
            if type(default) is int or key == "anomaly_limit":
                value = _integral(key, value)
            elif key == "n_list":
                value = [_integral(key, v) for v in value]
            if key == "anomaly_limit" and value is not None and value < 0:
                raise ConfigError(f"config key 'anomaly_limit' must be nonnegative, got {value!r}")
            cfg[key] = value
    if seed_override is not None:
        cfg["shared_seed"] = seed_override
        cfg["profile_seed"] = seed_override
    return cfg


def build_model(cfg: dict) -> AuxChainModel:
    name = cfg["model"]
    if name == "and":
        return build_and_chain(AndModelParams(cfg["p"], cfg["q"], cfg["t"]))
    if name == "bsc":
        return build_bsc_chain(cfg["alpha_noise"], cfg["eps"])
    if name == "collocated":
        return build_collocated_chain(cfg["m"], cfg["source_probs"])
    path = Path(name)
    if not path.exists():
        raise ConfigError(f"model {name!r} is not builtin and no such file exists")
    try:
        return AuxChainModel.from_json(path.read_text(encoding="utf-8"))
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"model file {name!r} is malformed: {exc!r}") from exc


def build_policy(cfg: dict) -> PartitionPolicy:
    fractions = cfg["fractions"]
    return PartitionPolicy(
        mode=cfg["partition_mode"],
        beta=float(cfg["beta"]),
        delta=None if cfg["delta"] is None else float(cfg["delta"]),
        fractions=None if fractions is None else tuple(fractions),
    )


def make_plans(model, cfg, n_len):
    return plan_protocol(
        model,
        n_len,
        build_policy(cfg),
        rate_margin=float(cfg["rate_margin"]),
        profile_method=cfg["profile_method"],
        profile_samples=cfg["profile_samples"],
        profile_seed=cfg["profile_seed"],
    )


class OutputSet:
    """Atomic output files: all-or-nothing on failure."""

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.written: list[Path] = []

    def write_text(self, name: str, text: str) -> Path:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        target = self.out_dir / name
        fd, tmp = tempfile.mkstemp(dir=self.out_dir, prefix=".tmp-")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(text)
            os.replace(tmp, target)
        except BaseException:
            Path(tmp).unlink(missing_ok=True)
            raise
        self.written.append(target)
        return target

    def write_json(self, name: str, payload) -> Path:
        return self.write_text(name, json.dumps(payload, sort_keys=True, indent=2) + "\n")

    def rollback(self) -> None:
        for path in self.written:
            try:
                path.unlink()
            except OSError:
                pass


def _check_anomalies(cfg: dict, count: int) -> None:
    limit = cfg["anomaly_limit"]
    if limit is not None and count > limit:
        raise AnomalyLimitExceeded(f"{count} decode anomalies exceed the limit {limit}")


def cmd_profile(model, cfg, out: OutputSet) -> None:
    plans = make_plans(model, cfg, cfg["n"])
    for plan in plans:
        for cond, prof in plan.profiles.items():
            out.write_text(f"profile_round{plan.round_index}_{cond}.json", prof.to_json() + "\n")


def cmd_plan(model, cfg, out: OutputSet) -> None:
    plans = make_plans(model, cfg, cfg["n"])
    for plan in plans:
        out.write_text(f"partition_round{plan.round_index}.json", plan.partition.to_json() + "\n")
    out.write_json("plans_summary.json", {"rates": measured_rates(plans)})


def _run_trials(model, cfg, plans, n_len) -> tuple:
    """Run the protocol trials: (ProtocolResult, {output: error rates})."""
    errors = function_error_rate(
        model, plans, n_len, cfg["trials"], cfg["shared_seed"],
        fd_policy=cfg["fd_policy"],
    )
    result = errors.pop("result")
    del errors["trials"]
    _check_anomalies(cfg, result.anomalies)
    return result, errors


def cmd_simulate(model, cfg, out: OutputSet) -> None:
    n_len = cfg["n"]
    plans = make_plans(model, cfg, n_len)
    result, errors = _run_trials(model, cfg, plans, n_len)
    summary = {
        "model": cfg["model"],
        "N": n_len,
        "trials": cfg["trials"],
        "rates": list(result.rates),
        "agreement_frequency": float(result.agreement.all(axis=0).mean()),
        "anomalies": result.anomalies,
        "errors": errors,
        "first_trial_transcript": json.loads(_first_trial(result.transcript).to_json()),
    }
    out.write_json("simulate.json", summary)


def _first_trial(transcript: Transcript) -> Transcript:
    rounds = tuple(replace(r, messages=r.messages[:1]) for r in transcript.rounds)
    return Transcript(transcript.n_len, rounds)


def cmd_verify(model, cfg, out: OutputSet) -> None:
    mode, rounds = cfg["verify_mode"], cfg["verify_rounds"]
    if mode not in ("exact", "monte_carlo"):
        raise ConfigError(f"verify_mode must be 'exact' or 'monte_carlo', got {mode!r}")
    if rounds is not None and not 1 <= rounds <= model.rounds:
        raise ConfigError(f"verify_rounds must be null or lie in 1..{model.rounds}, got {rounds}")
    n_len = cfg["n"]
    plans = make_plans(model, cfg, n_len)
    rates = measured_rates(plans)
    if mode == "exact":
        tv, agree = exact_metrics(model, plans, n_len, rounds, cfg["fd_policy"])
        report = VerificationReport(
            n_len=n_len,
            mode="exact",
            tv_value=None if tv is None else max(tv.values()),
            agreement_probability=agree,
            rates=tuple(r["measured"] for r in rates),
        )
        extra = {"tv_by_side": tv}
    else:
        result, errors = _run_trials(model, cfg, plans, n_len)
        report = VerificationReport(
            n_len=n_len,
            mode="monte_carlo",
            agreement_probability=float(result.agreement.all(axis=0).mean()),
            rates=tuple(r["measured"] for r in rates),
            block_error=max(v["block_error"] for v in errors.values()),
            symbol_error=max(v["symbol_error"] for v in errors.values()),
            erasure_rate=max(v["erasure"] for v in errors.values()),
            trials=cfg["trials"],
            seed=cfg["shared_seed"],
            confidence_radius=max(v["radius_95"] for v in errors.values()),
        )
        extra = {"errors": errors}
    payload = asdict(report)
    payload["N"] = payload.pop("n_len")
    payload.update(extra, rate_table=rates)
    out.write_json("verify.json", payload)


def _theory_rates(model: AuxChainModel) -> list:
    rows = []
    for i in range(1, model.rounds + 1):
        roles = round_roles(model, i)
        rows.append({"round": i, "source": roles.tx_source, "rate": roles.target_rate})
    return rows


def cmd_rates(model, cfg, out: OutputSet) -> None:
    payload = {"model": cfg["model"], "per_round": _theory_rates(model)}
    if cfg["model"] == "and":
        payload["sum_rates"] = sum_rates(float(cfg["p"]), float(cfg["q"]))
    out.write_json("rates.json", payload)


def cmd_sweep(model, cfg, out: OutputSet) -> None:
    rows = []
    for n_len in cfg["n_list"]:
        plans = make_plans(model, cfg, n_len)
        for entry in measured_rates(plans):
            values = {"rate_measured": entry["measured"], "rate_target": entry["target"],
                      "rate_gap": abs(entry["measured"] - entry["target"])}
            for metric, value in values.items():
                rows.append({"model": cfg["model"], "N": n_len, "round": entry["round"],
                             "metric": metric, "value": repr(value), "stderr": ""})
    fields = ["model", "N", "round", "metric", "value", "stderr"]
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fields, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    out.write_text("sweep.csv", buf.getvalue())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="polarcomm",
        description="Interactive function computation with polar-coded exchanges",
    )
    parser.add_argument("command", choices=COMMANDS, nargs="?")
    parser.add_argument("--config", help="flat JSON config file")
    parser.add_argument("--out", default="out", help="output directory (default ./out)")
    parser.add_argument("--seed", type=int, default=None, help="override every seed in the config")
    parser.add_argument("--print-schema", action="store_true",
                        help="print the config schema with defaults and exit")
    args = parser.parse_args(argv)

    if args.print_schema:
        schema = {
            key: {"default": default, "help": text}
            for key, (default, text) in CONFIG_SCHEMA.items()
        }
        print(json.dumps(schema, sort_keys=True, indent=2))
        return 0
    if args.command is None:
        parser.error("a command is required (or --print-schema)")

    out = OutputSet(Path(args.out))
    try:
        cfg = load_config(args.config, args.seed)
        model = build_model(cfg)
        handler = {
            "profile": cmd_profile,
            "plan": cmd_plan,
            "simulate": cmd_simulate,
            "verify": cmd_verify,
            "rates": cmd_rates,
            "sweep": cmd_sweep,
        }[args.command]
        handler(model, cfg, out)
    except AnomalyLimitExceeded as exc:
        out.rollback()
        print(json.dumps({"error": "anomaly_limit", "detail": str(exc)}), file=sys.stderr)
        return 3
    except ValueError as exc:  # ConfigError, ModelError and library input checks
        out.rollback()
        print(json.dumps({"error": "config", "detail": str(exc)}), file=sys.stderr)
        return 2
    except Exception as exc:
        out.rollback()
        traceback.print_exc()
        print(json.dumps({"error": "internal", "detail": repr(exc)}), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

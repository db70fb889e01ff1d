"""Print one sha256 per output case of polarcomm, and their total.

    python tools/output_digest.py [SRC]

SRC is the directory holding the `polarcomm` package to import (default: the
`src` directory next to this script). Run it on two trees: equal totals mean
byte-identical outputs on every case, and the per-case lines show which case
moved. The cases are

  * protocol/...  ProtocolResults (transcript, outputs, erasures, u-blocks,
                  agreement, anomaly count) of both networks: t = 1 (BSC),
                  t = 2, 4 (AND), m = 2, 3 (collocated); exact and Monte
                  Carlo plans under both partition modes; `sample` and
                  `argmax` F_d decisions; batched and (N,) source blocks;
                  and, last of all (protocol/.../b130), the Monte Carlo
                  N = 32 runs of AND t = 2 and collocated m = 2 at 130
                  trials, whose uniforms span three slabs, the last partial;
  * walk/...      the SC walk on every round's transmitter policy and on a
                  receiver-side policy that pins I' only and draws F_r from
                  the shared stream (fixed tags, so the walk inputs stay
                  comparable across trees whatever the receiver copies):
                  `sample_sequential` blocks, their `chain_probability`, and
                  the anomaly counts, under both F_d modes, batched and (N,);
  * walk/functional/...  the same on channels whose bit is a function of the
                  observation (a zero-mass symbol, a degenerate prior, an
                  observation-free channel): rows that observe the
                  zero-mass symbol, pins and F_d draws that leave
                  v* = G_N(u*(obs)) mid-block, and the chain probability of
                  v* itself;
  * walk/erasure/...  the same on channels whose observation either fixes
                  the bit or leaves it exactly uniform (the uniform prior, a
                  table with an erasure symbol and zero-mass symbols, equal
                  entries of 1e-160, whose squares are subnormal but
                  positive) and on one whose equal entries of 1e-170 square
                  to 0, with one row observing the tiny entries: the
                  observation, prior and a mixed policy with pins that
                  contradict the drawn block, at N = 1, 2 and 16;
  * profile/...   the z and stderr bytes of every Monte Carlo profile (all
                  three conditionings) of the N = 32 plans, and direct
                  `profile_monte_carlo` calls with an uneven last chunk
                  (100 samples, chunk 64) on an observation-free and an
                  observed channel;
  * profile/erasure/...  `profile_monte_carlo` on the walk/erasure channels
                  at N = 1, 2 and 16, in one chunk and in uneven chunks;
  * walk/coded/..., profile/coded/...  the same walks and profiles on float
                  channels whose SC levels near the leaves are held as codes:
                  an observation-free prior at N = 16 and 64, 2- and
                  3-symbol tables at N = 2, 4, 8 and 16 (coded up to the
                  root at N <= 4) and a 148-symbol table, which has no coded
                  level, at N = 4;
  * oracle/...    the exact oracle on the BSC t = 1 and AND t = 2, 4 exact
                  plans: every profile's z bytes, `exact_q_tv` on both sides
                  at rounds = 1 (N = 4, 8), rounds = 2 and the full chain
                  (N = 4), and exact agreement (N = 4); a call outside the
                  oracle's domain digests as its exception type;
  * oracle/direct/...  `profile_exact`, `block_joint_full` and
                  `sampled_chain_table` (chunks of 2048 and 37) on a
                  3-column table at N = 8, whose 6561 observation blocks
                  end in an uneven chunk;
  * cli/...       every file and the exit code of all six commands on six
                  configs;
  * model/...     the mass bytes, every decode table and each declared
                  chain's Markov violation of the AND chains at t = 6, 8
                  and the collocated chains at m = 4 (one p_j = 1) and 5.

Every case runs at N <= 64 and the whole script takes well under a minute.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            part = np.ascontiguousarray(part)
            part = repr((part.dtype.str, part.shape)).encode() + part.tobytes()
        elif not isinstance(part, bytes):
            part = repr(part).encode()
        h.update(len(part).to_bytes(8, "little") + part)
    return h.hexdigest()


def _models(pc):
    return {
        "bsc-t1": pc.build_bsc_chain(0.11, 0.2),
        "and-t2": pc.build_and_chain(pc.AndModelParams(0.3, 0.6, 2)),
        "and-t4": pc.build_and_chain(pc.AndModelParams(0.4, 0.5, 4)),
        "col-m2": pc.build_collocated_chain(2, [0.3, 0.6]),
        "col-m3": pc.build_collocated_chain(3, [0.5, 0.4, 0.7]),
    }


def _plan_sets(pc, model):
    """(label, n_len, plans): exact plans at N = 4 (and 8 up to two rounds),
    Monte Carlo plans at N = 32, under both partition modes."""
    threshold = pc.PartitionPolicy(mode="threshold", delta=0.2)
    target = pc.PartitionPolicy(mode="target_rate")
    out = [("exact-n4-threshold", 4, pc.plan_protocol(model, 4, threshold, profile_method="exact")),
           ("exact-n4-target", 4, pc.plan_protocol(model, 4, target, rate_margin=0.1,
                                                   profile_method="exact"))]
    if model.rounds <= 2:
        out.append(("exact-n8-threshold", 8,
                    pc.plan_protocol(model, 8, threshold, profile_method="exact")))
    out.append(("mc-n32-target", 32, pc.plan_protocol(
        model, 32, target, rate_margin=0.1, profile_method="monte_carlo",
        profile_samples=64, profile_seed=5)))
    return out


def protocol_cases(pc, model_name, model, label, n_len, plans, trials=6,
                   shapes=("batched", "single")):
    sources = pc.sample_sources(model, n_len, trials, 11)
    for fd in ("sample", "argmax"):
        for shape in shapes:
            blocks = {k: (v[0] if shape == "single" else v) for k, v in sources.items()}
            if model.network == "two-terminal":
                res = pc.run_two_terminal(model, blocks["x"], blocks["y"], plans,
                                          shared_seed=3, private_seed=4, fd_policy=fd)
            else:
                res = pc.run_collocated(model, blocks, plans, shared_seed=3, private_seed=4,
                                        fd_policy=fd)
            parts = [res.network, res.transcript.to_json(), res.agreement, res.anomalies]
            for key in sorted(res.outputs):
                parts += [key, res.outputs[key], res.erasures[key]]
            for role in sorted(res.u_blocks):
                parts += [role, *res.u_blocks[role]]
            yield f"protocol/{model_name}/{label}/{fd}/{shape}", _digest(*parts)


def wide_protocol_cases(pc):
    """protocol/.../b130: the Monte Carlo N = 32 runs of both networks at 130
    trials, whose uniform blocks span three 64-row slabs, the last partial."""
    models = _models(pc)
    target = pc.PartitionPolicy(mode="target_rate")
    for name in ("and-t2", "col-m2"):
        plans = pc.plan_protocol(models[name], 32, target, rate_margin=0.1,
                                 profile_method="monte_carlo", profile_samples=64, profile_seed=5)
        yield from protocol_cases(pc, name, models[name], "mc-n32-target", 32, plans,
                                  trials=130, shapes=("b130",))


def walk_cases(pc, model_name, label, n_len, plans):
    rng = np.random.default_rng(21)
    for plan in plans:
        part = plan.partition
        pinned = rng.integers(0, 2, (5, n_len)).astype(np.uint8)
        rx_tags = part.tags_for_transmitter()
        rx_tags[part.i_prime] = pc.sc.PINNED  # I' only, as a fixed walk input
        sides = (("tx", plan.tx_channel, pc.SamplingPolicy(part.tags_for_transmitter())),
                 ("rx", plan.rx_channel, pc.SamplingPolicy(rx_tags, pinned)))
        for side, ch, policy in sides:
            obs = rng.integers(0, ch.obs_size, (5, n_len))
            for fd in ("sample", "argmax"):
                for shape in ("batched", "single"):
                    pol, ob = policy, obs
                    if shape == "single":
                        ob = obs[0]
                        if policy.pinned is not None:
                            pol = pc.SamplingPolicy(policy.tags, policy.pinned[0])
                    log = pc.AnomalyLog()
                    v = pc.sample_sequential(ch, ob, pol, np.random.default_rng(7),
                                             shared_rng=np.random.default_rng(8),
                                             fd_mode=fd, anomalies=log)
                    chain = pc.chain_probability(ch, ob, pol, v, fd_mode=fd, anomalies=log)
                    name = f"walk/{model_name}/{label}/round{plan.round_index}/{side}/{fd}/{shape}"
                    yield name, _digest(v, np.asarray(chain), log.count)


FUNCTIONAL_CHANNELS = {
    "zero-symbol": [[0.5, 0.0, 0.2, 0.0], [0.0, 0.3, 0.0, 0.0]],
    "degenerate-prior": [[0.6, 0.4], [0.0, 0.0]],
    "observation-free": [[0.0], [1.0]],
}


def functional_walk_cases(pc):
    n_len, batch = 16, 6
    rng = np.random.default_rng(31)
    tags = np.tile(np.arange(4, dtype=np.uint8), n_len // 4)
    for ch_name, table in FUNCTIONAL_CHANNELS.items():
        ch = pc.SymbolChannel(np.array(table))
        mass = ch.table.sum(axis=0)
        obs = rng.choice(np.flatnonzero(mass > 0), (batch, n_len))
        if np.any(mass == 0):  # rows 0 and 1 observe the zero-mass symbol once
            obs[[0, 1], rng.integers(0, n_len, 2)] = np.flatnonzero(mass == 0)[0]
        v_star = pc.apply_transform((ch.table[1] > 0)[obs].astype(np.uint8))
        mixed = rng.permutation(tags)
        at = np.flatnonzero(mixed == pc.sc.PINNED)
        pinned = v_star.copy()  # rows 2 and 3 pin against v* mid-block
        pinned[2, at[at.size // 2]] ^= 1
        pinned[3, at[-1]] ^= 1
        policies = (("observation", pc.SamplingPolicy.observation_only(n_len)),
                    ("mixed", pc.SamplingPolicy(mixed, pinned)))
        for pol_name, policy in policies:
            for fd in ("sample", "argmax"):
                for shape in ("batched", "single"):
                    pol, ob, star = policy, obs, v_star
                    if shape == "single":
                        ob, star = obs[2], v_star[2]
                        if policy.pinned is not None:
                            pol = pc.SamplingPolicy(policy.tags, policy.pinned[2])
                    log = pc.AnomalyLog()
                    v = pc.sample_sequential(ch, ob, pol, np.random.default_rng(7),
                                             shared_rng=np.random.default_rng(8),
                                             fd_mode=fd, anomalies=log)
                    chain = pc.chain_probability(ch, ob, pol, v, fd_mode=fd, anomalies=log)
                    chain_star = pc.chain_probability(ch, ob, pol, star, fd_mode=fd,
                                                      anomalies=log)
                    yield (f"walk/functional/{ch_name}/{pol_name}/{fd}/{shape}",
                           _digest(v, np.asarray(chain), np.asarray(chain_star), log.count))


ERASURE_CHANNELS = {
    "uniform-prior": [[0.5], [0.5]],
    "erasure-symbol": [[0.5, 0.0, 0.0, 0.25], [0.0, 0.0, 0.0, 0.25]],
    "tiny-equal": [[0.5, 0.0, 1e-160], [0.0, 0.5, 1e-160]],
    "underflow-equal": [[0.5, 0.0, 1e-170], [0.0, 0.5, 1e-170]],
    "tiny-only": [[0.5, 1e-160, 0.0], [0.0, 1e-160, 0.5]],
}
ERASURE_LENGTHS = (1, 2, 16)


def _draw_cells(ch, rng, shape):
    """(u bits, observations) drawn from the channel's table."""
    cum = np.cumsum(ch.table.reshape(-1))
    cells = np.searchsorted(cum, rng.random(shape) * cum[-1], side="right")
    cells = np.minimum(cells, cum.size - 1)
    return (cells // ch.obs_size).astype(np.uint8), cells % ch.obs_size


def erasure_walk_cases(pc, channels=None, prefix="walk/erasure", seed=41):
    """The walk cases of `channels` (name -> (table, lengths); default: the
    erasure channels at ERASURE_LENGTHS)."""
    if channels is None:
        channels = {name: (table, ERASURE_LENGTHS) for name, table in ERASURE_CHANNELS.items()}
    batch = 6
    rng = np.random.default_rng(seed)
    order = np.array([pc.sc.PINNED, pc.sc.OBSERVATION_CONDITIONAL,
                      pc.sc.PRIOR_CONDITIONAL, pc.sc.UNIFORM_HALF], dtype=np.uint8)
    for ch_name, (table, lengths) in channels.items():
        ch = pc.SymbolChannel(np.array(table))
        for n_len in lengths:
            u_bits, obs = _draw_cells(ch, rng, (batch, n_len))
            mass = ch.table.sum(axis=0)
            # row 0 observes the least likely symbol of mass at every other
            # position (the tiny entries, which a draw never picks)
            obs[0, ::2] = np.flatnonzero(mass == mass[mass > 0].min())[0]
            if np.any(mass == 0):  # row 1 observes a zero-mass symbol once
                obs[1, rng.integers(0, n_len)] = np.flatnonzero(mass == 0)[0]
            v_drawn = pc.apply_transform(u_bits)
            mixed = rng.permutation(np.resize(order, n_len))
            at = np.flatnonzero(mixed == pc.sc.PINNED)
            pinned = v_drawn.copy()  # rows 2 and 3 pin against the drawn block
            pinned[2, at[0]] ^= 1
            pinned[3, at[-1]] ^= 1
            policies = (("observation", pc.SamplingPolicy.observation_only(n_len)),
                        ("prior", pc.SamplingPolicy(np.full(n_len, pc.sc.PRIOR_CONDITIONAL))),
                        ("mixed", pc.SamplingPolicy(mixed, pinned)))
            for pol_name, policy in policies:
                for fd in ("sample", "argmax"):
                    for shape in ("batched", "single"):
                        pol, ob, drawn = policy, obs, v_drawn
                        if shape == "single":
                            ob, drawn = obs[2], v_drawn[2]
                            if policy.pinned is not None:
                                pol = pc.SamplingPolicy(policy.tags, policy.pinned[2])
                        log = pc.AnomalyLog()
                        v = pc.sample_sequential(ch, ob, pol, np.random.default_rng(7),
                                                 shared_rng=np.random.default_rng(8),
                                                 fd_mode=fd, anomalies=log)
                        chain = pc.chain_probability(ch, ob, pol, v, fd_mode=fd, anomalies=log)
                        chain_drawn = pc.chain_probability(ch, ob, pol, drawn, fd_mode=fd,
                                                           anomalies=log)
                        yield (f"{prefix}/{ch_name}/n{n_len}/{pol_name}/{fd}/{shape}",
                               _digest(v, np.asarray(chain), np.asarray(chain_drawn),
                                       log.count))


def erasure_profile_cases(pc, channels=None, prefix="profile/erasure"):
    if channels is None:
        channels = {name: (table, ERASURE_LENGTHS) for name, table in ERASURE_CHANNELS.items()}
    for ch_name, (table, lengths) in channels.items():
        ch = pc.SymbolChannel(np.array(table))
        for n_len in lengths:
            for chunk in (512, 37):
                prof = pc.profile_monte_carlo(ch, n_len, 100, (13, n_len), chunk=chunk)
                yield (f"{prefix}/{ch_name}/n{n_len}-s100-c{chunk}",
                       _digest(prof.z, prof.stderr))


# float channels whose SC levels near the leaves are held as codes: the
# observation-free prior (3 coded levels), 2- and 3-symbol tables (2, which
# reach the root at N <= 4) and a 148-symbol table (none)
CODED_CHANNELS = {
    "prior": ([[0.75], [0.25]], (16, 64)),
    "two-symbol": ([[0.4, 0.15], [0.05, 0.4]], (2, 4, 8, 16)),
    "three-symbol": ([[0.3, 0.0, 0.15], [0.05, 0.35, 0.15]], (2, 4, 8, 16)),
    "wide": ((np.arange(1.0, 297.0) / 43956.0).reshape(2, 148).tolist(), (4,)),
}


def coded_cases(pc):
    """walk/coded/... and profile/coded/...: the erasure cases' walks and
    profiles on CODED_CHANNELS."""
    yield from erasure_walk_cases(pc, CODED_CHANNELS, "walk/coded", seed=51)
    yield from erasure_profile_cases(pc, CODED_CHANNELS, "profile/coded")


def profile_cases(model_name, label, plans):
    for plan in plans:
        for cond in sorted(plan.profiles):
            prof = plan.profiles[cond]
            yield (f"profile/{model_name}/{label}/round{plan.round_index}/{cond}",
                   _digest(prof.z, prof.stderr))


def direct_profile_cases(pc):
    joint = pc.build_and_chain(pc.AndModelParams(0.3, 0.6, 2)).joint
    observed = pc.SymbolChannel.from_joint(joint, "u2", ("y", "u1"))
    for name, ch in (("prior", observed.prior()), ("observed", observed)):
        prof = pc.profile_monte_carlo(ch, 32, 100, (9, 1), chunk=64)
        yield f"profile/direct/{name}-s100-c64", _digest(prof.z, prof.stderr)


def direct_oracle_cases(pc):
    """The exact oracle on a 3-column table at N = 8: 3^8 = 6561 observation
    blocks, one full 4096-block chunk of `block_joint_chunks` and a
    2465-block tail, and `sampled_chain_table` in chunks of 2048 and 37."""
    ch = pc.SymbolChannel(np.array([[0.3, 0.1, 0.15], [0.05, 0.25, 0.15]]))
    n_len = 8
    yield "oracle/direct/profile_exact-m3-n8", _digest(pc.profile_exact(ch, n_len).z)
    yield "oracle/direct/block_joint_full-m3-n8", _digest(pc.exact.block_joint_full(ch, n_len))
    sc = pc.sc
    tags = np.array([sc.PINNED, sc.PRIOR_CONDITIONAL, sc.OBSERVATION_CONDITIONAL,
                     sc.UNIFORM_HALF, sc.PRIOR_CONDITIONAL, sc.PINNED,
                     sc.OBSERVATION_CONDITIONAL, sc.PRIOR_CONDITIONAL], dtype=np.uint8)
    for chunk in (2048, 37):
        table = pc.exact.sampled_chain_table(ch, tags, n_len, chunk=chunk)
        yield f"oracle/direct/sampled_chain_table-m3-n8-c{chunk}", _digest(table)


ORACLE_MODELS = ("bsc-t1", "and-t2", "and-t4")


def _oracle_value(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        return type(exc).__name__


def oracle_cases(pc, model_name, model, label, n_len, plans):
    v = pc.verification
    name = f"oracle/{model_name}/{label}"
    for plan in plans:
        for cond in sorted(plan.profiles):
            yield f"{name}/round{plan.round_index}/profile-{cond}", _digest(
                plan.profiles[cond].z)
    for rounds in (1, 2, None) if n_len <= 4 else (1,):
        for side in ("tx", "rx"):
            tv = _oracle_value(v.exact_q_tv, model, plans, n_len, side, rounds=rounds)
            yield f"{name}/tv-rounds{rounds}/{side}", _digest(tv)
    if n_len <= 4:
        agree = _oracle_value(v.agreement_probability, model, plans, n_len, "exact")
        yield f"{name}/agreement", _digest(agree)


CLI_CONFIGS = {
    "and-t2-n8": {"model": "and", "p": 0.3, "q": 0.6, "n": 8, "partition_mode": "threshold",
                  "delta": 0.2, "trials": 20, "n_list": [4, 8]},
    "and-t4-n4": {"model": "and", "p": 0.4, "q": 0.5, "t": 4, "n": 4, "trials": 20,
                  "rate_margin": 0.1, "verify_rounds": 2, "n_list": [4]},
    "bsc-n8": {"model": "bsc", "n": 8, "partition_mode": "threshold", "trials": 20,
               "fd_policy": "argmax", "n_list": [4, 8]},
    "col-m2-n8": {"model": "collocated", "m": 2, "source_probs": [0.3, 0.6], "n": 8,
                  "trials": 20, "rate_margin": 0.1, "n_list": [8]},
    "col-m3-n4": {"model": "collocated", "m": 3, "source_probs": [0.5, 0.4, 0.7], "n": 4,
                  "trials": 20, "n_list": [4]},
    "and-mc-n16": {"model": "and", "n": 16, "profile_method": "monte_carlo",
                   "profile_samples": 64, "verify_mode": "monte_carlo", "trials": 20,
                   "rate_margin": 0.1, "n_list": [16, 32]},
}


def model_cases(pc):
    models = {
        "and-t6": pc.build_and_chain(pc.AndModelParams(0.3, 0.6, 6)),
        "and-t8": pc.build_and_chain(pc.AndModelParams(0.4, 0.5, 8)),
        "col-m4": pc.build_collocated_chain(4, [0.5, 0.4, 1.0, 0.7]),
        "col-m5": pc.build_collocated_chain(5, [0.3, 0.6, 0.5, 0.8, 0.45]),
    }
    for name, model in models.items():
        parts = [model.joint.mass]
        for which in sorted(model.functions):
            parts += [which, model.decode_table(which)]
        parts.append([c.max_violation for c in pc.validate_markov(model).chains])
        yield f"model/{name}", _digest(*parts)


def cli_cases(pc_cli):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name, cfg in CLI_CONFIGS.items():
            cfg_path = tmp / f"{name}.json"
            cfg_path.write_text(json.dumps(cfg))
            for command in pc_cli.COMMANDS:
                out = tmp / name / command
                err = io.StringIO()
                with contextlib.redirect_stderr(err):
                    code = pc_cli.main([command, "--config", str(cfg_path), "--out", str(out)])
                files = sorted(out.iterdir()) if out.exists() else []
                parts = [code, err.getvalue()]
                for path in files:
                    parts += [path.name, path.read_bytes()]
                yield f"cli/{name}/{command}", _digest(*parts)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    src = Path(argv[0]) if argv else Path(__file__).resolve().parents[1] / "src"
    sys.path.insert(0, str(src.resolve()))
    import polarcomm as pc
    import polarcomm.cli as pc_cli

    total = hashlib.sha256()
    count = 0

    def emit(name, digest):
        nonlocal count
        print(f"{digest}  {name}")
        total.update(f"{name} {digest}\n".encode())
        count += 1

    for model_name, model in _models(pc).items():
        for label, n_len, plans in _plan_sets(pc, model):
            for case in protocol_cases(pc, model_name, model, label, n_len, plans):
                emit(*case)
            for case in walk_cases(pc, model_name, label, n_len, plans):
                emit(*case)
            if label.startswith("mc"):
                for case in profile_cases(model_name, label, plans):
                    emit(*case)
            if model_name in ORACLE_MODELS and label.startswith("exact"):
                for case in oracle_cases(pc, model_name, model, label, n_len, plans):
                    emit(*case)
    for case in functional_walk_cases(pc):
        emit(*case)
    for case in erasure_walk_cases(pc):
        emit(*case)
    for case in direct_profile_cases(pc):
        emit(*case)
    for case in direct_oracle_cases(pc):
        emit(*case)
    for case in erasure_profile_cases(pc):
        emit(*case)
    for case in cli_cases(pc_cli):
        emit(*case)
    for case in coded_cases(pc):
        emit(*case)
    for case in model_cases(pc):
        emit(*case)
    for case in wide_protocol_cases(pc):
        emit(*case)
    print(f"{total.hexdigest()}  TOTAL ({count} cases)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

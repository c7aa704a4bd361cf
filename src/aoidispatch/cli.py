"""Command-line harness: simulate, train, evaluate, sweep, selftest.

Configuration comes from an optional config file (``key = value`` lines or
JSON) plus repeatable ``--set key=value`` overrides; ``--seed``, ``--out-dir``
and ``--format csv|jsonl`` work on every verb. All reported rewards are team
rewards per slot.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import replace
from pathlib import Path
from typing import Any, Optional

import numpy as np

from .baselines import BaselineKind, BaselinePolicy, parse_policy_spec
from .config import (
    EnvConfig,
    TrainConfig,
    apply_overrides,
    config_as_dict,
    env_config_from_dict,
    load_config_dict,
    split_config_dict,
)
from .env import DispatchEnv
from .errors import ConfigError
from .mappo import Trainer, atomic_write, evaluate, load_policy
from .selftest import run_all
from .sweep import SweepSpec, run_sweep


def _load_merged_dict(config_path: Optional[str], overrides: list[str]) -> dict[str, Any]:
    base = load_config_dict(config_path) if config_path else {}
    return apply_overrides(base, overrides)


def _resolve_policy(spec: str, env_config: EnvConfig):
    parsed = parse_policy_spec(spec)
    if isinstance(parsed, BaselineKind):
        return BaselinePolicy(parsed)
    if parsed == "train":
        raise ConfigError("mappo:train is only valid inside a sweep; pass a checkpoint path")
    policy, trained_on = load_policy(parsed)
    if (
        trained_on.n_dispatchers != env_config.n_dispatchers
        or trained_on.n_servers != env_config.n_servers
    ):
        raise ConfigError(
            f"checkpoint {parsed} was trained for {trained_on.n_dispatchers} dispatchers / "
            f"{trained_on.n_servers} servers, not {env_config.n_dispatchers}/{env_config.n_servers}"
        )
    return policy


def _trajectory_records(env: DispatchEnv, policy, slots: int):
    policy.begin_episode(np.random.default_rng(env.config.seed + 1))
    for _ in range(slots):
        if env.done:
            env.reset()
        slot = env.slot
        available = env.world.available.tolist()
        queue_lengths = env.world.length.tolist()
        arrivals = env.arrivals.tolist()
        action = policy.act(env)
        outcome = env.step(action)
        yield {
            "slot": slot,
            "available": available,
            "queue_lengths": queue_lengths,
            "arrivals": arrivals,
            "queries": [[int(b) for b in row] for row in action.queries],
            "dispatch": [d if d is not None else None for d in action.dispatch],
            "rewards": list(outcome.rewards),
            "team_reward": outcome.team_reward,
            "feedback": [
                {
                    "dispatcher": e.dispatcher,
                    "server": e.server,
                    "job_id": e.job.id,
                    "accepted": e.accepted,
                    "reported_available": e.reported_available,
                    "reported_queue": e.reported_queue,
                }
                for e in outcome.feedback
            ],
        }


def _join(values) -> str:
    return ";".join("" if v is None else str(int(v) if isinstance(v, bool) else v) for v in values)


def _write_trajectory(records, path: Path, fmt: str) -> int:
    count = 0
    with atomic_write(path, "w", newline="") as fh:
        if fmt == "jsonl":
            for record in records:
                fh.write(json.dumps(record, sort_keys=True) + "\n")
                count += 1
        else:
            writer = csv.writer(fh)
            writer.writerow(
                ["slot", "available", "queue_lengths", "arrivals", "queries",
                 "dispatch", "rewards", "team_reward", "feedback"]
            )
            for record in records:
                writer.writerow([
                    record["slot"],
                    _join(record["available"]),
                    _join(record["queue_lengths"]),
                    _join(record["arrivals"]),
                    ";".join("".join(str(b) for b in row) for row in record["queries"]),
                    _join(record["dispatch"]),
                    ";".join(repr(r) for r in record["rewards"]),
                    repr(record["team_reward"]),
                    ";".join(
                        f"{e['dispatcher']}:{e['server']}:{e['job_id']}:{'ACK' if e['accepted'] else 'NAK'}"
                        for e in record["feedback"]
                    ),
                ])
                count += 1
    return count


def cmd_simulate(args: argparse.Namespace) -> int:
    data = _load_merged_dict(args.config, args.set)
    env_config = env_config_from_dict(data)
    if args.seed is not None:
        env_config = replace(env_config, seed=args.seed)
    env = DispatchEnv(env_config)
    policy = _resolve_policy(args.policy, env_config)
    slots = args.slots if args.slots is not None else env_config.horizon
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"trajectory.{args.format}"
    count = _write_trajectory(_trajectory_records(env, policy, slots), path, args.format)
    print(f"wrote {count} slots to {path}")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    out_dir = Path(args.out_dir)
    if args.resume:
        if args.config or args.set:
            raise ConfigError("--resume takes its configuration from the checkpoint; drop --config/--set")
        trainer = Trainer.from_checkpoint(args.resume, out_dir=out_dir)
    else:
        data = _load_merged_dict(args.config, args.set)
        env_kwargs, train_kwargs = split_config_dict(data)
        if args.updates is not None:
            train_kwargs["total_updates"] = args.updates
        trainer = Trainer(
            EnvConfig(**env_kwargs),
            TrainConfig(**train_kwargs),
            seed=args.seed if args.seed is not None else 0,
            out_dir=out_dir,
        )
    out_dir.mkdir(parents=True, exist_ok=True)
    columns = [
        "update", "surrogate", "value_loss", "entropy", "mean_ratio",
        "clip_fraction", "first_minibatch_mean_ratio", "aborted_minibatches",
        "adv_mean", "adv_std", "seconds", "eval_reward_per_slot", "eval_queries_per_slot",
    ]
    # a fresh run starts its progress file, a resumed run appends to it
    with open(out_dir / f"progress.{args.format}", "a" if args.resume else "w", newline="") as fh:
        writer = csv.writer(fh) if args.format == "csv" else None
        if writer is not None and fh.tell() == 0:
            writer.writerow(columns)

        def on_record(rec: dict) -> None:
            if writer is None:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")
            else:
                writer.writerow([rec.get(c, "") for c in columns])
            fh.flush()

        trainer.train(
            n_updates=args.updates if args.resume else None,
            log=lambda msg: print(msg, flush=True),
            on_record=on_record,
        )
    final = out_dir / "checkpoint_final.npz"
    print(f"training done: {trainer.update_index} updates, checkpoint at {final}")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    policy, trained_on = load_policy(args.checkpoint, greedy=(args.mode == "greedy"))
    data = _load_merged_dict(args.config, args.set)
    if data:
        # user keys overlay the env config stored in the checkpoint
        env_config = env_config_from_dict({**config_as_dict(trained_on), **data})
        if (
            env_config.n_dispatchers != trained_on.n_dispatchers
            or env_config.n_servers != trained_on.n_servers
        ):
            raise ConfigError("evaluation config dimensions do not match the checkpoint")
    else:
        env_config = trained_on
    seed = args.seed if args.seed is not None else 0
    stats = evaluate(policy, env_config, args.episodes, seed)
    record = {
        "checkpoint": str(args.checkpoint),
        "mode": args.mode,
        "episodes": stats.episodes,
        "reward_per_slot": stats.reward_per_slot,
        "reward_se": stats.reward_se,
        "throughput_per_slot": stats.throughput_per_slot,
        "queries_per_slot": stats.queries_per_slot,
        "drops_per_slot": stats.drops_per_slot,
    }
    print(json.dumps(record, sort_keys=True))
    if args.out_dir is not None:
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / f"metrics.{args.format}"
        with atomic_write(path, "w", newline="") as fh:
            if args.format == "jsonl":
                fh.write(json.dumps(record, sort_keys=True) + "\n")
            else:
                writer = csv.writer(fh)
                writer.writerow(list(record))
                writer.writerow([record[k] for k in record])
        print(f"wrote {path}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    spec = SweepSpec.from_file(args.spec)
    if args.seed is not None:
        spec.seeds = [args.seed]
    rows = run_sweep(spec, args.out_dir, fmt=args.format, log=lambda msg: print(msg, flush=True))
    print(f"{len(rows)} rows -> {Path(args.out_dir) / f'rows.{args.format}'}")
    return 0


def cmd_selftest(args: argparse.Namespace) -> int:
    results = run_all(log=print)
    return 0 if all(r.passed for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aoidispatch",
        description="Multi-dispatcher job dispatching with costly server queries and stale knowledge.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, out_default: Optional[str]) -> None:
        p.add_argument("--seed", type=int, default=None, help="override the base seed")
        p.add_argument("--out-dir", default=out_default, help="output directory")
        p.add_argument("--format", choices=("csv", "jsonl"), default="csv", help="output file format")

    p = sub.add_parser("simulate", help="run one policy and dump the slot-by-slot trajectory")
    p.add_argument("--config", "-c", help="env config file (key = value or JSON)")
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE", help="config override")
    p.add_argument("--policy", default="never", help="never | random:<p> | always | mappo:<checkpoint>")
    p.add_argument("--slots", type=int, default=None, help="slots to simulate (default: one horizon)")
    common(p, "sim_out")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("train", help="train MAPPO actors with the centralized critic")
    p.add_argument("--config", "-c", help="env+train config file")
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE", help="config override")
    p.add_argument("--updates", type=int, default=None, help="override total_updates")
    p.add_argument("--resume", default=None, help="checkpoint to resume from")
    common(p, "train_out")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="evaluate a trained checkpoint with decentralized execution")
    p.add_argument("--checkpoint", required=True, help="checkpoint .npz path")
    p.add_argument("--episodes", type=int, default=8)
    p.add_argument("--mode", choices=("greedy", "sample"), default="sample",
                   help="sample the stochastic policy (default) or take each head's mode")
    p.add_argument("--config", "-c", help="optional env config override file")
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE", help="config override")
    common(p, None)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sweep", help="run a policy/parameter/seed sweep from a spec file")
    p.add_argument("--spec", required=True, help="sweep spec (JSON)")
    common(p, "sweep_out")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("selftest", help="run the built-in invariant and oracle checks")
    common(p, None)
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

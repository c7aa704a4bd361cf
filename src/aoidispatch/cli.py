"""Command-line harness: simulate, train, evaluate, sweep, selftest.

Configuration comes from an optional config file (``key = value`` lines or
JSON) plus repeatable ``--set key=value`` overrides; ``--seed``, ``--out-dir``
and ``--format csv|jsonl`` work on every verb but ``selftest``. Every record
file goes through :mod:`aoidispatch.records`. All reported rewards are team
rewards per slot.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path
from typing import Any, Optional

import numpy as np

from .config import (
    EnvConfig,
    TrainConfig,
    apply_overrides,
    config_as_dict,
    env_config_from_dict,
    load_config_dict,
    reject_seed,
    split_config_dict,
)
from .env import DispatchEnv
from .errors import ConfigError
from .mappo import Trainer, check_dimensions, evaluate, load_policy
from .records import FORMATS, write_records
from .selftest import run_all
from .sweep import SweepSpec, resolve_policy, run_sweep


def _load_merged_dict(config_path: Optional[str], overrides: list[str]) -> dict[str, Any]:
    base = load_config_dict(config_path) if config_path else {}
    return apply_overrides(base, overrides)


def _trajectory_records(env: DispatchEnv, policy, slots: int):
    policy.begin_episode(np.random.default_rng(env.config.seed + 1))
    for _ in range(slots):
        if env.done:
            env.reset()
        action = policy.act(env)
        outcome = env.step(action)
        yield {
            "slot": outcome.slot,
            "available": outcome.reported_available,
            "queue_lengths": outcome.start_queue,
            "arrivals": [target is not None for target in action.dispatch],
            "queries": [[int(b) for b in row] for row in action.queries],
            "dispatch": list(action.dispatch),
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


TRAJECTORY_FIELDS = [
    "slot", "available", "queue_lengths", "arrivals", "queries",
    "dispatch", "rewards", "team_reward", "feedback",
]


def _join(values) -> str:
    return ";".join("" if v is None else str(int(v) if isinstance(v, bool) else v) for v in values)


def _csv_trajectory_record(record: dict) -> dict:
    """A trajectory record with each list flattened into one csv cell."""
    flat = dict(record)
    for key in ("available", "queue_lengths", "arrivals", "dispatch", "rewards"):
        flat[key] = _join(record[key])
    flat["queries"] = ";".join("".join(str(b) for b in row) for row in record["queries"])
    flat["feedback"] = ";".join(
        f"{e['dispatcher']}:{e['server']}:{e['job_id']}:{'ACK' if e['accepted'] else 'NAK'}"
        for e in record["feedback"]
    )
    return flat


def cmd_simulate(args: argparse.Namespace) -> int:
    data = _load_merged_dict(args.config, args.set)
    env_config = env_config_from_dict(data)
    if args.seed is not None:
        env_config = replace(env_config, seed=args.seed)
    env = DispatchEnv(env_config)
    policy = resolve_policy(args.policy, env_config)
    slots = args.slots if args.slots is not None else env_config.horizon
    path = Path(args.out_dir) / f"trajectory.{args.format}"
    records = _trajectory_records(env, policy, slots)
    if args.format == "csv":
        records = map(_csv_trajectory_record, records)
    write_records(path, args.format, TRAJECTORY_FIELDS, records)
    print(f"wrote {slots} slots to {path}")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    out_dir = Path(args.out_dir)
    if args.resume:
        if args.config or args.set:
            raise ConfigError("--resume takes its configuration from the checkpoint; drop --config/--set")
        trainer = Trainer.from_checkpoint(args.resume, out_dir=out_dir)
    else:
        data = _load_merged_dict(args.config, args.set)
        reject_seed(data, "--seed")
        env_kwargs, train_kwargs = split_config_dict(data)
        if args.updates is not None:
            train_kwargs["total_updates"] = args.updates
        trainer = Trainer(
            EnvConfig(**env_kwargs),
            TrainConfig(**train_kwargs),
            seed=args.seed if args.seed is not None else 0,
            out_dir=out_dir,
        )
    trainer.train(
        n_updates=args.updates if args.resume else None,
        progress_path=out_dir / f"progress.{args.format}",
        log=lambda msg: print(msg, flush=True),
    )
    final = out_dir / "checkpoint_final.npz"
    print(f"training done: {trainer.update_index} updates, checkpoint at {final}")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    policy, trained_on = load_policy(args.checkpoint, greedy=(args.mode == "greedy"))
    data = _load_merged_dict(args.config, args.set)
    reject_seed(data, "--seed")
    if data:
        # user keys overlay the env config stored in the checkpoint
        env_config = env_config_from_dict({**config_as_dict(trained_on), **data})
        check_dimensions(f"checkpoint {args.checkpoint}", trained_on, env_config)
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
        path = Path(args.out_dir) / f"metrics.{args.format}"
        write_records(path, args.format, list(record), [record])
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
        p.add_argument("--format", choices=FORMATS, default="csv", help="output file format")

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

"""Experiment sweeps: policy x parameter x seed grids with CSV/JSONL reports.

A sweep evaluates each policy at every value of one swept environment
parameter (query cost, arrival probability, or number of dispatchers) across
several seeds. MAPPO cells either load a checkpoint or train fresh per cell
("mappo:train"), since a policy trained at one dispatcher count has the
wrong input arity at another. Rows are flushed as they are produced and the
final report adds per-(policy, value) means with standard errors.

Reported rewards are per-slot team rewards.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Any, Optional, Sequence

from .baselines import BaselineKind, BaselinePolicy, parse_policy_spec
from .config import (
    ENV_FIELDS,
    TRAIN_FIELDS,
    EnvConfig,
    TrainConfig,
    _as_int,
    config_as_dict,
    load_config_dict,
)
from .env import DispatchEnv
from .errors import AccountingError, ConfigError
from .mappo import Trainer, _derived_seed, atomic_write, evaluate, load_policy

SWEEPABLE = ("query_cost", "arrival_prob", "n_dispatchers")


def default_config() -> EnvConfig:
    """Reference benchmark setup: five dispatchers, five servers with
    alternating reliable/unreliable dynamics, heavy arrivals, cheap queries."""
    return EnvConfig(
        n_dispatchers=5,
        n_servers=5,
        arrival_prob=0.8,
        stay_available=(0.95, 0.50, 0.95, 0.50, 0.95),
        stay_unavailable=(0.50, 0.95, 0.50, 0.95, 0.50),
        queue_capacity=3,
        query_cost=0.005,
        horizon=512,
        seed=0,
        aoi_cap=64,
    )


def apply_swept_value(base: EnvConfig, parameter: str, value: Any) -> EnvConfig:
    """Config for one sweep cell. Raises ConfigError for invalid values."""
    if parameter not in SWEEPABLE:
        raise ConfigError(f"cannot sweep {parameter!r}; choose one of {SWEEPABLE}")
    if parameter == "n_dispatchers":
        kwargs = config_as_dict(base)
        kwargs["n_dispatchers"] = value
        # per-dispatcher fields must re-broadcast when the count changes
        probs = set(kwargs["arrival_prob"])
        if len(probs) > 1:
            raise ConfigError(
                "cannot sweep n_dispatchers with heterogeneous arrival_prob"
            )
        kwargs["arrival_prob"] = probs.pop()
        return EnvConfig(**kwargs)
    return replace(base, **{parameter: value})


@dataclass(frozen=True)
class ResultRow:
    """One evaluated sweep cell. All metrics are per-slot team averages and
    satisfy reward = throughput - query_cost * queries."""

    policy: str
    parameter: str
    value: float
    seed: int
    reward_per_slot: float
    throughput_per_slot: float
    queries_per_slot: float
    drops_per_slot: float
    query_cost: float

    def check_accounting(self, tolerance: float = 1e-9) -> None:
        expected = self.throughput_per_slot - self.query_cost * self.queries_per_slot
        if abs(self.reward_per_slot - expected) > tolerance:
            raise AccountingError(
                f"row ({self.policy}, {self.parameter}={self.value}, seed {self.seed}): "
                f"reward {self.reward_per_slot!r} != throughput - cost * queries = {expected!r}"
            )


ROW_FIELDS = [f.name for f in fields(ResultRow)]


@dataclass
class SweepSpec:
    """Declarative sweep description, typically loaded from a JSON file."""

    swept_parameter: str
    values: Sequence[float]
    policies: Sequence[str]
    seeds: Sequence[int]
    base_env: EnvConfig
    train: TrainConfig
    eval_episodes: int = 4

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "SweepSpec":
        known = {"swept_parameter", "values", "policies", "seeds", "env", "train", "eval_episodes"}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown sweep keys: {sorted(unknown)}")
        try:
            swept = data["swept_parameter"]
            values = list(data["values"])
            policies = list(data["policies"])
        except KeyError as exc:
            raise ConfigError(f"sweep spec is missing {exc.args[0]!r}") from exc
        seeds = [_as_int(s, "seeds") for s in data.get("seeds", [0, 1, 2, 3, 4])]
        env_kwargs, train_kwargs = data.get("env", {}), data.get("train", {})
        for section, kwargs, allowed in (
            ("env", env_kwargs, ENV_FIELDS), ("train", train_kwargs, TRAIN_FIELDS)
        ):
            if not isinstance(kwargs, dict):
                raise ConfigError(f"sweep {section!r} section must be an object")
            unknown = set(kwargs) - allowed
            if unknown:
                raise ConfigError(f"unknown {section} keys in sweep spec: {sorted(unknown)}")
        base_env = EnvConfig(**env_kwargs)
        train = TrainConfig(**train_kwargs)
        return cls(
            swept_parameter=swept,
            values=values,
            policies=policies,
            seeds=seeds,
            base_env=base_env,
            train=train,
            eval_episodes=_as_int(data.get("eval_episodes", 4), "eval_episodes"),
        )

    @classmethod
    def from_file(cls, path: str | Path) -> "SweepSpec":
        return cls.from_dict(load_config_dict(path))

    def validate(self) -> list[EnvConfig]:
        """Build every cell's config and resolve every policy up front so an
        invalid sweep is rejected before any run starts."""
        if not self.values:
            raise ConfigError("sweep needs at least one value")
        if not self.seeds:
            raise ConfigError("sweep needs at least one seed")
        if not self.policies:
            raise ConfigError("sweep needs at least one policy")
        if self.eval_episodes < 1:
            raise ConfigError("eval_episodes must be >= 1")
        cells = [apply_swept_value(self.base_env, self.swept_parameter, v) for v in self.values]
        for spec in self.policies:
            parsed = parse_policy_spec(spec)
            if isinstance(parsed, str) and parsed != "train":
                _, trained_on = load_policy(parsed)
                for cfg in cells:
                    if (
                        cfg.n_dispatchers != trained_on.n_dispatchers
                        or cfg.n_servers != trained_on.n_servers
                    ):
                        raise ConfigError(
                            f"checkpoint {parsed} was trained for "
                            f"{trained_on.n_dispatchers}x{trained_on.n_servers} but the sweep "
                            f"needs {cfg.n_dispatchers}x{cfg.n_servers}"
                        )
        return cells


def _format_cell(value: Any) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


class RowWriter:
    """Streams rows to disk as they are produced (csv or jsonl)."""

    def __init__(self, path: Path, fmt: str):
        if fmt not in ("csv", "jsonl"):
            raise ConfigError(f"unknown output format {fmt!r}")
        self.path = path
        self.fmt = fmt
        path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = open(path, "w", newline="")
        if fmt == "csv":
            self._writer = csv.writer(self._fh)
            self._writer.writerow(ROW_FIELDS)

    def write(self, row: ResultRow) -> None:
        if self.fmt == "csv":
            self._writer.writerow(_format_cell(getattr(row, name)) for name in ROW_FIELDS)
        else:
            record = {name: getattr(row, name) for name in ROW_FIELDS}
            self._fh.write(json.dumps(record, sort_keys=True) + "\n")
        self._fh.flush()

    def close(self) -> None:
        self._fh.close()


def _evaluate_cell(
    policy_spec: str,
    env_config: EnvConfig,
    spec: SweepSpec,
    seed: int,
    policy_index: int,
    value_index: int,
) -> ResultRow:
    parsed = parse_policy_spec(policy_spec)
    if isinstance(parsed, BaselineKind):
        policy = BaselinePolicy(parsed)
    elif parsed == "train":
        train_cfg = spec.train
        trainer = Trainer(env_config, train_cfg, seed=seed)
        trainer.train()
        policy = trainer.policy()
    else:
        policy, _ = load_policy(parsed)
    stats = evaluate(
        policy,
        env_config,
        spec.eval_episodes,
        seed=_derived_seed(seed, policy_index, value_index),
    )
    return ResultRow(
        policy=policy_spec,
        parameter=spec.swept_parameter,
        value=float(spec.values[value_index]),
        seed=seed,
        reward_per_slot=stats.reward_per_slot,
        throughput_per_slot=stats.throughput_per_slot,
        queries_per_slot=stats.queries_per_slot,
        drops_per_slot=stats.drops_per_slot,
        query_cost=env_config.query_cost,
    )


def run_sweep(
    spec: SweepSpec,
    out_dir: str | Path,
    fmt: str = "csv",
    log=None,
) -> list[ResultRow]:
    """Evaluate the full policy x value x seed cross product.

    Rows stream to ``rows.<fmt>`` in deterministic order (policy, value,
    seed); :func:`emit_report` then rewrites the row file and writes the
    aggregate file.
    """
    out_dir = Path(out_dir)
    cells = spec.validate()
    writer = RowWriter(out_dir / f"rows.{fmt}", fmt)
    rows: list[ResultRow] = []
    try:
        for p_idx, policy_spec in enumerate(spec.policies):
            for v_idx, env_config in enumerate(cells):
                for seed in spec.seeds:
                    row = _evaluate_cell(policy_spec, env_config, spec, seed, p_idx, v_idx)
                    row.check_accounting()
                    rows.append(row)
                    writer.write(row)
                    if log is not None:
                        log(
                            f"{row.policy} {row.parameter}={row.value} seed={row.seed}: "
                            f"reward={row.reward_per_slot:.4f} "
                            f"throughput={row.throughput_per_slot:.4f} "
                            f"queries={row.queries_per_slot:.3f}"
                        )
    finally:
        writer.close()
    emit_report(rows, out_dir, fmt)
    return rows


def _mean_se(values: list[float]) -> tuple[float, float]:
    n = len(values)
    mean = sum(values) / n
    if n < 2:
        return mean, 0.0
    var = sum((v - mean) ** 2 for v in values) / (n - 1)
    return mean, (var / n) ** 0.5


AGGREGATE_FIELDS = [
    "policy", "parameter", "value", "n_seeds",
    "reward_per_slot_mean", "reward_per_slot_se",
    "throughput_per_slot_mean", "throughput_per_slot_se",
    "queries_per_slot_mean", "queries_per_slot_se",
    "drops_per_slot_mean", "drops_per_slot_se",
]


def aggregate_rows(rows: Sequence[ResultRow]) -> list[dict[str, Any]]:
    """Per-(policy, value) mean and standard error over seeds, in first-seen
    order."""
    groups: dict[tuple[str, float], list[ResultRow]] = {}
    for row in rows:
        groups.setdefault((row.policy, row.value), []).append(row)
    out = []
    for (policy, value), members in groups.items():
        record: dict[str, Any] = {
            "policy": policy,
            "parameter": members[0].parameter,
            "value": value,
            "n_seeds": len(members),
        }
        for metric in ("reward_per_slot", "throughput_per_slot",
                       "queries_per_slot", "drops_per_slot"):
            mean, se = _mean_se([getattr(m, metric) for m in members])
            record[f"{metric}_mean"] = mean
            record[f"{metric}_se"] = se
        out.append(record)
    return out


def emit_report(
    rows: Sequence[ResultRow], out_dir: str | Path, fmt: str = "csv"
) -> tuple[Path, Path]:
    """Write the row file and the per-(policy, value) aggregate file.

    Every row is checked against reward = throughput - query_cost * queries
    (tolerance 1e-9); a violation raises :class:`AccountingError`. Output is
    byte-identical across reruns with identical inputs.
    """
    if not rows:
        raise ConfigError("no rows to report")
    for row in rows:
        row.check_accounting()
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows_path = out_dir / f"rows.{fmt}"
    agg_path = out_dir / f"aggregate.{fmt}"
    if fmt == "csv":
        with atomic_write(rows_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(ROW_FIELDS)
            for row in rows:
                writer.writerow(_format_cell(getattr(row, name)) for name in ROW_FIELDS)
        with atomic_write(agg_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(AGGREGATE_FIELDS)
            for record in aggregate_rows(rows):
                writer.writerow(_format_cell(record[name]) for name in AGGREGATE_FIELDS)
    elif fmt == "jsonl":
        with atomic_write(rows_path) as fh:
            for row in rows:
                fh.write(json.dumps({n: getattr(row, n) for n in ROW_FIELDS}, sort_keys=True) + "\n")
        with atomic_write(agg_path) as fh:
            for record in aggregate_rows(rows):
                fh.write(json.dumps(record, sort_keys=True) + "\n")
    else:
        raise ConfigError(f"unknown output format {fmt!r}")
    return rows_path, agg_path

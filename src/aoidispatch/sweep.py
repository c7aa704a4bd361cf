"""Experiment sweeps: policy x parameter x seed grids with CSV/JSONL reports.

A sweep evaluates each policy at every value of one swept environment
parameter (query cost, arrival probability, or number of dispatchers) across
several seeds. MAPPO cells either run a checkpoint, loaded once per sweep,
or train fresh per cell ("mappo:train"), since a policy trained at one
dispatcher count has the wrong input arity at another. Cells are independent and seeded from their
(seed, policy, value) indices, so they run in a pool of worker processes;
rows are still checked, flushed and logged in cell order, and the final
report adds per-(policy, value) means with standard errors.

Reported rewards are per-slot team rewards.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Any, Optional, Sequence

from .baselines import BaselineKind, BaselinePolicy, parse_policy_spec
from .config import (
    EnvConfig,
    TrainConfig,
    _as_int,
    config_as_dict,
    config_from_section,
    load_config_dict,
    reject_seed,
)
from .env import DispatchEnv
from .errors import AccountingError, ConfigError
from .mappo import MappoPolicy, Trainer, _derived_seed, check_dimensions, evaluate, load_policy
from .nn import pin_one_blas_thread
from .records import RecordWriter, check_format, write_records

SWEEPABLE = ("query_cost", "arrival_prob", "n_dispatchers")
# the per-slot metrics a row copies from EvalStats and the aggregate averages
METRICS = ("reward_per_slot", "throughput_per_slot", "queries_per_slot", "drops_per_slot")


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


ACCOUNTING_TOLERANCE = 1e-9  # largest |reward - (throughput - cost * queries)| a row may show


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

    def check_accounting(self, tolerance: float = ACCOUNTING_TOLERANCE) -> None:
        expected = self.throughput_per_slot - self.query_cost * self.queries_per_slot
        if not abs(self.reward_per_slot - expected) <= tolerance:  # NaN fails too
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
        for key in ("values", "policies", "seeds"):  # a string would be read per character
            if key in data and not isinstance(data[key], (list, tuple)):
                raise ConfigError(f"sweep {key!r} must be an array, got {data[key]!r}")
        _check_policy_specs(data.get("policies", ()))
        try:
            swept = data["swept_parameter"]
            values = list(data["values"])
            policies = list(data["policies"])
        except KeyError as exc:
            raise ConfigError(f"sweep spec is missing {exc.args[0]!r}") from exc
        seeds = [_as_int(s, "seeds") for s in data.get("seeds", [0, 1, 2, 3, 4])]
        env_kwargs = data.get("env", {})
        base_env = config_from_section(EnvConfig, env_kwargs, "sweep 'env'")
        reject_seed(env_kwargs, "the spec's 'seeds'")
        train = config_from_section(TrainConfig, data.get("train", {}), "sweep 'train'")
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
        return self._resolve()[0]

    def _resolve(self) -> tuple[list[EnvConfig], dict[str, MappoPolicy]]:
        """:meth:`validate`'s cell configs, and the policy of each
        ``mappo:<checkpoint>`` spec, its file loaded once and checked against
        every cell."""
        if not self.values:
            raise ConfigError("sweep needs at least one value")
        if not self.seeds:
            raise ConfigError("sweep needs at least one seed")
        if not self.policies:
            raise ConfigError("sweep needs at least one policy")
        _check_policy_specs(self.policies)
        if self.eval_episodes < 1:
            raise ConfigError("eval_episodes must be >= 1")
        cells = [apply_swept_value(self.base_env, self.swept_parameter, v) for v in self.values]
        # a repeated entry would count one cell twice in its aggregate, which
        # groups rows by policy spec and float(value)
        floats = [float(v) for v in self.values]
        for key, entries in (("values", floats), ("policies", self.policies), ("seeds", self.seeds)):
            repeated = [e for i, e in enumerate(entries) if e in entries[:i]]
            if repeated:
                raise ConfigError(f"sweep {key!r} repeats {repeated[0]!r}")
        checkpoints: dict[str, MappoPolicy] = {}
        for spec in self.policies:
            parsed = parse_policy_spec(spec)
            if isinstance(parsed, str) and parsed != "train":
                checkpoints[spec], trained_on = load_policy(parsed)
                for cfg in cells:
                    check_dimensions(f"checkpoint {parsed}", trained_on, cfg)
        return cells, checkpoints


def _check_policy_specs(policies) -> None:
    for spec in policies:
        if not isinstance(spec, str):
            raise ConfigError(f"sweep 'policies' entries must be strings, got {spec!r}")


def _usable_cpus() -> int:
    """CPUs this process may run on; all of the host's where the OS cannot
    say (no ``sched_getaffinity`` outside Linux)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def resolve_policy(
    spec: str, env_config: EnvConfig, train: Optional[TrainConfig] = None, seed: int = 0
):
    """The policy ``spec`` names, to run on ``env_config``: a baseline, the
    actors of a checkpoint trained for ``env_config``'s dispatcher and server
    counts, or for ``mappo:train`` actors trained with ``train`` and ``seed``
    (a sweep cell; without ``train`` it is a :class:`ConfigError`)."""
    parsed = parse_policy_spec(spec)
    if isinstance(parsed, BaselineKind):
        return BaselinePolicy(parsed)
    if parsed != "train":
        policy, trained_on = load_policy(parsed)
        check_dimensions(f"checkpoint {parsed}", trained_on, env_config)
        return policy
    if train is None:
        raise ConfigError("mappo:train is only valid inside a sweep; pass a checkpoint path")
    trainer = Trainer(env_config, train, seed=seed)
    # Trainer.train's updates, not its periodic evaluations: a cell has no use for them
    for _ in range(train.total_updates):
        trainer.run_update()
    return trainer.policy()


def _evaluate_cell(
    policy_spec: str,
    env_config: EnvConfig,
    spec: SweepSpec,
    seed: int,
    policy_index: int,
    value_index: int,
    policy: Optional[MappoPolicy] = None,
) -> ResultRow:
    """One row: ``policy_spec`` evaluated on ``env_config``. ``policy`` is its
    checkpoint policy if the caller has loaded it; otherwise the cell resolves it."""
    if policy is None:
        policy = resolve_policy(policy_spec, env_config, spec.train, seed)
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
        **{metric: getattr(stats, metric) for metric in METRICS},
        query_cost=env_config.query_cost,
    )


def run_sweep(
    spec: SweepSpec,
    out_dir: str | Path,
    fmt: str = "csv",
    log=None,
) -> list[ResultRow]:
    """Evaluate the full policy x value x seed cross product.

    Cells run in a process pool, one worker per available CPU, each worker on
    one BLAS thread. Rows stream to ``rows.<fmt>`` in deterministic order
    (policy, value, seed) as each cell and every cell before it are done, so
    the output is byte-identical to a serial run; :func:`emit_report` then
    rewrites the row file and writes the aggregate file. The first failing
    cell's exception is raised once the rows before it are written; cells
    still running are stopped, pending cells are cancelled, and every worker
    has exited when this returns.
    """
    # imported here: the pool machinery adds about 20 ms to importing the
    # package, and only sweeps use it
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # numpy loads numpy.random on first use; load it before the workers fork
    # so they inherit it instead of each importing it (40-100 ms) per sweep
    import numpy.random  # noqa: F401

    out_dir = Path(out_dir)
    cells, checkpoints = spec._resolve()
    check_format(fmt)
    jobs = [
        (policy_spec, env_config, spec, seed, p_idx, v_idx, checkpoints.get(policy_spec))
        for p_idx, policy_spec in enumerate(spec.policies)
        for v_idx, env_config in enumerate(cells)
        for seed in spec.seeds
    ]
    out_dir.mkdir(parents=True, exist_ok=True)
    rows: list[ResultRow] = []
    # fork: a worker inherits the imported modules, so starting one costs a
    # fork rather than a fresh interpreter importing numpy on every call;
    # one BLAS thread per worker: workers already fill the CPUs, and a BLAS
    # thread pool in each would oversubscribe them (on two cores, two workers
    # with two BLAS threads each ran a training sweep slower than one serial
    # process)
    pool = ProcessPoolExecutor(
        min(_usable_cpus(), len(jobs)),
        mp_context=multiprocessing.get_context("fork"),
        initializer=pin_one_blas_thread,
    )
    try:
        futures = [pool.submit(_evaluate_cell, *job) for job in jobs]
        with open(out_dir / f"rows.{fmt}", "w", newline="") as fh:
            writer = RecordWriter(fh, fmt, ROW_FIELDS)
            for future in futures:
                row = future.result()
                row.check_accounting()
                rows.append(row)
                writer.write(vars(row))
                fh.flush()
                if log is not None:
                    log(
                        f"{row.policy} {row.parameter}={row.value} seed={row.seed}: "
                        f"reward={row.reward_per_slot:.4f} "
                        f"throughput={row.throughput_per_slot:.4f} "
                        f"queries={row.queries_per_slot:.3f}"
                    )
    except BaseException:
        # shutdown() joins the cells already running in workers, which can
        # take as long as the longest of them; the executor has no public
        # way to stop them, so terminate its workers through its private
        # process table (``_processes`` on Python 3.11)
        for process in pool._processes.values():
            process.terminate()
        raise
    finally:
        pool.shutdown(cancel_futures=True)
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
    *(f"{metric}_{stat}" for metric in METRICS for stat in ("mean", "se")),
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
        for metric in METRICS:
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
    to within :data:`ACCOUNTING_TOLERANCE`; a violation raises
    :class:`AccountingError`. Output is byte-identical across reruns with
    identical inputs.
    """
    if not rows:
        raise ConfigError("no rows to report")
    for row in rows:
        row.check_accounting()
    out_dir = Path(out_dir)
    rows_path = out_dir / f"rows.{fmt}"
    agg_path = out_dir / f"aggregate.{fmt}"
    write_records(rows_path, fmt, ROW_FIELDS, map(vars, rows))
    write_records(agg_path, fmt, AGGREGATE_FIELDS, aggregate_rows(rows))
    return rows_path, agg_path

"""The three benchmark workloads: set-up, the timed closed loop, and the
checks on the program's outputs.

Each workload drives the public API of ``aoidispatch`` from one process and
one caller that waits for every call to return (a closed loop). A workload
counts its unit of work as an "op": one training update (train-ref), one
evaluation episode (eval-ref) or one sweep cell (sweep-dispatchers).

``run.py`` puts the checkout's ``src/`` on ``sys.path`` before importing this
module.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import aoidispatch as ad

HERE = Path(__file__).resolve().parent
SWEEP_SPEC = HERE / "sweep_dispatchers.json"

# eval-ref: the five policies, in the order one round evaluates them
EVAL_POLICIES = ("never", "random", "always", "mappo", "mappo_two_phase")
BASELINE_SPECS = {"never": "never", "random": "random:0.5", "always": "always"}


@dataclass(frozen=True)
class Sizes:
    """Input sizes. ``REFERENCE`` is what the benchmark measures; ``TINY``
    only exercises every code path, for the smoke test."""

    horizon: int = 512  # slots per episode, as in default_config()
    train: dict = field(default_factory=dict)  # TrainConfig overrides
    min_updates: int = 100  # train-ref: enough for the trained policy to beat never-query
    margin_episodes: int = 4  # train-ref: episodes per policy in that comparison
    min_rounds: int = 20  # eval-ref: rounds of one episode per policy
    min_cells: int = 100  # sweep-dispatchers
    sweep_episodes: Optional[int] = None  # None keeps the spec's eval_episodes
    setup_samples: int = 5


REFERENCE = Sizes()
TINY = Sizes(
    horizon=24,
    train=dict(rollout_length=16, eval_interval=2, eval_episodes=1,
               epochs_per_update=1, minibatch_count=2),
    min_updates=2,
    margin_episodes=1,
    min_rounds=1,
    min_cells=1,
    sweep_episodes=1,
    setup_samples=1,
)


class Checks:
    """Named pass/fail counts of every output check made in a run."""

    def __init__(self) -> None:
        self.counts: dict[str, list[int]] = {}

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.counts.setdefault(name, [0, 0])[0 if ok else 1] += 1
        if not ok:
            print(f"check failed: {name} {detail}".rstrip(), flush=True)

    @property
    def made(self) -> int:
        return sum(p + f for p, f in self.counts.values())

    @property
    def failed(self) -> int:
        return sum(f for _, f in self.counts.values())


@dataclass
class Outcome:
    """What one timed loop did. ``wall_s`` and ``cpu_s`` cover only the calls
    into the program, not the benchmark's own checks."""

    op_seconds: list[float] = field(default_factory=list)
    wall_s: float = 0.0
    cpu_s: float = 0.0
    ops_attempted: int = 0
    ops_failed: int = 0
    checks: Checks = field(default_factory=Checks)
    # workload facts for the report and the per-layer metrics
    facts: dict = field(default_factory=dict)


@contextmanager
def _clock(outcome: Outcome):
    """Adds the wall and process CPU time (all threads) of a program call."""
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        yield
    finally:
        outcome.wall_s += time.perf_counter() - t0
        outcome.cpu_s += time.process_time() - c0


def _report_failure(what: str) -> None:
    print(f"operation failed: {what}", flush=True)
    traceback.print_exc()


def _eval_config(sizes: Sizes) -> ad.EnvConfig:
    return dataclasses.replace(ad.default_config(), horizon=sizes.horizon)


def check_eval_stats(checks: Checks, stats: ad.EvalStats, episodes: int,
                     cfg: ad.EnvConfig, policy: str) -> None:
    """Invariants every ``EvalStats`` must satisfy, whatever the RNG order."""
    checks.check("eval_slots", stats.slots == episodes * cfg.horizon,
                 f"{policy}: {stats.slots} slots for {episodes} x {cfg.horizon}")
    expected = stats.throughput_per_slot - cfg.query_cost * stats.queries_per_slot
    checks.check("eval_accounting", abs(stats.reward_per_slot - expected) <= 1e-9,
                 f"{policy}: reward {stats.reward_per_slot!r} != {expected!r}")
    if policy == "never":
        checks.check("never_queries", stats.queries_per_slot == 0.0,
                     f"{stats.queries_per_slot!r} queries/slot")
    elif policy == "always":
        full = float(cfg.n_dispatchers * cfg.n_servers)
        checks.check("always_queries", stats.queries_per_slot == full,
                     f"{stats.queries_per_slot!r} queries/slot, expected {full}")


# ---------------------------------------------------------------------------
# train-ref: Trainer.train on default_config() with the default TrainConfig


def setup_train(seed: int, sizes: Sizes, workdir: Path) -> ad.Trainer:
    return ad.Trainer(_eval_config(sizes), ad.TrainConfig(**sizes.train),
                      seed=seed, out_dir=workdir / "train")


def run_train(trainer: ad.Trainer, seed: int, seconds: float, sizes: Sizes,
              workdir: Path, set_op: Callable[[int], None]) -> Outcome:
    """Train in calls of ``eval_interval`` updates, so evaluation and
    checkpoint updates keep the cadence of one long ``train()`` call, until
    ``seconds`` have passed and at least ``min_updates`` updates are done."""
    out = Outcome()
    records: list[dict] = []
    stamps: list[float] = []
    progress = workdir / "progress.jsonl"

    def on_record(record: dict) -> None:
        stamps.append(time.perf_counter())
        records.append(record)
        set_op(len(records))

    chunk = trainer.train_config.eval_interval
    set_op(0)
    while out.wall_s < seconds or len(records) < sizes.min_updates:
        start, done_before = time.perf_counter(), len(stamps)
        try:
            with _clock(out):
                trainer.train(n_updates=chunk, progress_path=progress, on_record=on_record)
        except Exception:
            _report_failure(f"train() after update {trainer.update_index}")
            out.ops_failed += 1
            break
        finally:
            out.op_seconds.extend(np.diff([start, *stamps[done_before:]]).tolist())
    out.ops_attempted = len(records) + out.ops_failed

    aborted = [int(r["aborted_minibatches"]) for r in records]
    out.ops_failed += sum(1 for a in aborted if a)
    checks = out.checks
    n = len(records)
    checks.check("one_record_per_update",
                 [r["update"] for r in records] == list(range(1, n + 1))
                 and trainer.update_index == n,
                 f"{n} records for {trainer.update_index} updates")
    with open(progress) as fh:
        lines = [json.loads(line)["update"] for line in fh]
    checks.check("progress_file", lines == list(range(1, n + 1)),
                 f"{len(lines)} progress lines for {n} updates")

    bundle = ad.load_checkpoint(workdir / "train" / "checkpoint_final.npz")
    saved = [a for net in (*bundle.actors.nets, bundle.critic) for a in net.params]
    live = [a for net in (*trainer.actors.nets, trainer.critic) for a in net.params]
    checks.check("checkpoint_roundtrip",
                 bundle.update_index == n and len(saved) == len(live)
                 and all(np.array_equal(a, b) for a, b in zip(saved, live)),
                 "final checkpoint differs from the live weights")

    cfg = trainer.env_config
    eval_seed = seed * 1000 + 999
    trained = ad.evaluate(trainer.policy(), cfg, sizes.margin_episodes, eval_seed)
    never = ad.evaluate(ad.BaselinePolicy(ad.parse_policy_spec("never")), cfg,
                        sizes.margin_episodes, eval_seed)
    check_eval_stats(checks, trained, sizes.margin_episodes, cfg, "mappo")
    check_eval_stats(checks, never, sizes.margin_episodes, cfg, "never")
    margin = trained.reward_per_slot - never.reward_per_slot
    checks.check("trained_beats_never", margin > 0.0,
                 f"after {n} updates: {trained.reward_per_slot!r} vs {never.reward_per_slot!r}")
    out.facts.update(
        updates=n,
        aborted_minibatches=sum(aborted),
        reward_per_slot=trained.reward_per_slot,
        reward_margin_vs_never=margin,
    )
    return out


# ---------------------------------------------------------------------------
# eval-ref: evaluate() of five policies at default_config(), sampled mode


def setup_eval(seed: int, sizes: Sizes, workdir: Path) -> dict:
    """Baselines from their specs; MAPPO one- and two-phase from fresh-weight
    checkpoints written here and loaded back through ``load_policy``."""
    cfg = _eval_config(sizes)
    policies = {name: ad.BaselinePolicy(ad.parse_policy_spec(spec))
                for name, spec in BASELINE_SPECS.items()}
    for name, two_phase in (("mappo", False), ("mappo_two_phase", True)):
        trainer = ad.Trainer(cfg, ad.TrainConfig(two_phase_policy=two_phase), seed=seed)
        path = trainer.save(workdir / f"{name}.npz")
        policies[name], _ = ad.load_policy(path, greedy=False)
    return policies


def run_eval(policies: dict, seed: int, seconds: float, sizes: Sizes,
             workdir: Path, set_op: Callable[[int], None]) -> Outcome:
    """Rounds of one episode per policy, every policy on the same episode
    seed within a round, until ``seconds`` have passed."""
    out = Outcome()
    cfg = _eval_config(sizes)
    per_policy: dict[str, list[float]] = {name: [] for name in EVAL_POLICIES}
    rewards: dict[str, list[float]] = {name: [] for name in EVAL_POLICIES}
    rounds = 0
    while out.wall_s < seconds or rounds < sizes.min_rounds:
        episode_seed = seed * 100_000 + rounds
        for name in EVAL_POLICIES:
            set_op(out.ops_attempted)
            out.ops_attempted += 1
            start = time.perf_counter()
            try:
                with _clock(out):
                    stats = ad.evaluate(policies[name], cfg, 1, episode_seed)
            except Exception:
                _report_failure(f"{name} episode, seed {episode_seed}")
                out.ops_failed += 1
                continue
            per_policy[name].append(time.perf_counter() - start)
            out.op_seconds.append(per_policy[name][-1])
            rewards[name].append(stats.reward_per_slot)
            check_eval_stats(out.checks, stats, 1, cfg, name)
        rounds += 1

    out.facts.update(
        rounds=rounds,
        slots_per_s={name: cfg.horizon / float(np.median(times))
                     for name, times in per_policy.items() if times},
        reward_per_slot=float(np.mean(rewards["mappo"])),
        reward_margin_vs_never=float(np.mean(rewards["mappo"]) - np.mean(rewards["never"])),
    )
    return out


# ---------------------------------------------------------------------------
# sweep-dispatchers: run_sweep of the baseline-only n_dispatchers spec


def setup_sweep(seed: int, sizes: Sizes, workdir: Path) -> ad.SweepSpec:
    spec = ad.SweepSpec.from_file(SWEEP_SPEC)
    spec.base_env = dataclasses.replace(spec.base_env, horizon=sizes.horizon)
    if sizes.sweep_episodes is not None:
        spec.eval_episodes = sizes.sweep_episodes
    spec.validate()
    return spec


def _read_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _row_matches(written: dict, row: ad.ResultRow) -> bool:
    return all(
        (written[f.name] == getattr(row, f.name)) if f.type in (str, "str")
        else (float(written[f.name]) == float(getattr(row, f.name)))
        for f in dataclasses.fields(row)
    )


def run_sweep(spec: ad.SweepSpec, seed: int, seconds: float, sizes: Sizes,
              workdir: Path, set_op: Callable[[int], None]) -> Outcome:
    """Whole sweeps, each over fresh seeds derived from the workload seed,
    until ``seconds`` have passed and ``min_cells`` cells are done."""
    out = Outcome()
    checks = out.checks
    per_n: dict[int, list[float]] = {}
    n_seeds = len(spec.seeds)
    k = 0
    cells_done = 0
    while out.wall_s < seconds or cells_done < sizes.min_cells:
        call_spec = dataclasses.replace(
            spec, seeds=[seed * 100_000 + k * n_seeds + j for j in range(n_seeds)])
        expected = len(spec.policies) * len(spec.values) * n_seeds
        out_dir = workdir / f"sweep_{k:04d}"
        stamps: list[float] = []

        def on_row(_line: str) -> None:
            stamps.append(time.perf_counter())
            set_op(cells_done + len(stamps))

        set_op(cells_done)
        start = time.perf_counter()
        try:
            with _clock(out):
                rows = ad.run_sweep(call_spec, out_dir, fmt="csv", log=on_row)
        except Exception:
            _report_failure(f"sweep {k}")
            out.ops_failed += 1
            break
        finally:
            times = np.diff([start, *stamps]).tolist()
            out.op_seconds.extend(times)
            cells_done += len(stamps)
        k += 1

        checks.check("sweep_row_count", len(rows) == expected == len(stamps),
                     f"{len(rows)} rows, {len(stamps)} cells, expected {expected}")
        written = _read_rows(out_dir / "rows.csv")
        checks.check("sweep_rows_readback",
                     len(written) == len(rows)
                     and all(_row_matches(w, r) for w, r in zip(written, rows)),
                     f"{out_dir / 'rows.csv'} does not match the returned rows")
        for row, seconds_taken in zip(rows, times):
            n = int(row.value)
            per_n.setdefault(n, []).append(seconds_taken)
            expected_reward = row.throughput_per_slot - row.query_cost * row.queries_per_slot
            checks.check("row_accounting", abs(row.reward_per_slot - expected_reward) <= 1e-9,
                         f"{row}")
            if row.policy == "never":
                checks.check("never_queries", row.queries_per_slot == 0.0, f"{row}")
            elif row.policy == "always":
                full = float(n * spec.base_env.n_servers)
                checks.check("always_queries", row.queries_per_slot == full, f"{row}")

    out.ops_attempted = cells_done + out.ops_failed
    out.facts.update(
        sweeps=k,
        cell_ms_p50={n: 1e3 * float(np.median(t)) for n, t in sorted(per_n.items())},
    )
    return out


SETUP = {"train-ref": setup_train, "eval-ref": setup_eval, "sweep-dispatchers": setup_sweep}
RUN = {"train-ref": run_train, "eval-ref": run_eval, "sweep-dispatchers": run_sweep}

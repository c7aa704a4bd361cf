"""CLI verbs and the sweep harness end to end (tiny workloads)."""

import csv
import ctypes
import io
import json
import multiprocessing
import time
from pathlib import Path

import pytest

from aoidispatch import AccountingError, ConfigError, ContractViolation, EnvConfig, TrainConfig, Trainer
from aoidispatch import cli, sweep
from aoidispatch.cli import main
from aoidispatch.mappo import EvalStats
from aoidispatch.sweep import (
    AGGREGATE_FIELDS,
    ROW_FIELDS,
    ResultRow,
    SweepSpec,
    _evaluate_cell,
    aggregate_rows,
    apply_swept_value,
    default_config,
    emit_report,
    run_sweep,
)

ROOT = Path(__file__).resolve().parents[1]


class TestDefaultConfig:
    def test_reference_dimensions(self):
        cfg = default_config()
        assert cfg.n_servers == 5
        assert cfg.n_dispatchers == 5

    def test_alternating_server_dynamics(self):
        cfg = default_config()
        assert cfg.stay_available[0] == 0.95 and cfg.stay_unavailable[0] == 0.50
        assert cfg.stay_available[1] == 0.50 and cfg.stay_unavailable[1] == 0.95
        assert cfg.stay_available == (0.95, 0.50, 0.95, 0.50, 0.95)

    def test_arrivals_cost_capacity(self):
        cfg = default_config()
        assert cfg.arrival_prob == (0.8,) * 5
        assert cfg.query_cost == 0.005
        assert cfg.queue_capacity == (3,) * 5


class TestApplySweptValue:
    def test_query_cost(self):
        cfg = apply_swept_value(default_config(), "query_cost", 0.1)
        assert cfg.query_cost == 0.1

    def test_arrival_prob_broadcasts(self):
        cfg = apply_swept_value(default_config(), "arrival_prob", 0.3)
        assert cfg.arrival_prob == (0.3,) * 5

    def test_n_dispatchers_rebroadcasts(self):
        cfg = apply_swept_value(default_config(), "n_dispatchers", 9)
        assert cfg.n_dispatchers == 9
        assert cfg.arrival_prob == (0.8,) * 9

    def test_invalid_parameter(self):
        with pytest.raises(ConfigError):
            apply_swept_value(default_config(), "horizon", 10)

    def test_invalid_value_rejected(self):
        with pytest.raises(ConfigError):
            apply_swept_value(default_config(), "arrival_prob", 1.5)


def tiny_env_kwargs(**extra):
    kwargs = dict(
        n_dispatchers=2, n_servers=2, horizon=32,
        stay_available=[0.9, 0.5], stay_unavailable=[0.5, 0.9],
        queue_capacity=2,
    )
    kwargs.update(extra)
    return kwargs


def tiny_spec_dict(policies, values=(0.0, 0.1), seeds=(0, 1, 2)):
    return {
        "swept_parameter": "query_cost",
        "values": list(values),
        "policies": list(policies),
        "seeds": list(seeds),
        "eval_episodes": 2,
        "env": tiny_env_kwargs(),
        "train": {
            "rollout_length": 16, "total_updates": 2, "eval_interval": 50,
            "hidden_sizes": [8], "eval_episodes": 2,
        },
    }


class TestRunSweep:
    def test_row_counts_and_baseline_identities(self, tmp_path):
        spec = SweepSpec.from_dict(tiny_spec_dict(["never", "always", "random:0.5"]))
        rows = run_sweep(spec, tmp_path, fmt="csv")
        assert len(rows) == 3 * 2 * 3  # policies x values x seeds
        for row in rows:
            if row.policy == "never":
                assert row.queries_per_slot == 0.0
            if row.policy == "always":
                assert row.queries_per_slot == 4.0  # n_dispatchers * n_servers
        assert (tmp_path / "rows.csv").exists()
        assert (tmp_path / "aggregate.csv").exists()

    def test_rerun_byte_identical(self, tmp_path):
        spec = SweepSpec.from_dict(tiny_spec_dict(["never", "random:0.5"], seeds=(0, 1)))
        run_sweep(spec, tmp_path / "a", fmt="csv")
        run_sweep(spec, tmp_path / "b", fmt="csv")
        for name in ("rows.csv", "aggregate.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_mappo_train_cell(self, tmp_path):
        spec = SweepSpec.from_dict(tiny_spec_dict(["mappo:train"], values=(0.0,), seeds=(0,)))
        rows = run_sweep(spec, tmp_path, fmt="jsonl")
        assert len(rows) == 1
        assert (tmp_path / "rows.jsonl").exists()

    def test_checkpoint_dimension_mismatch_rejected_up_front(self, tmp_path):
        from aoidispatch import Trainer

        trainer = Trainer(
            EnvConfig(**tiny_env_kwargs(n_dispatchers=3, n_servers=2, stay_available=0.9, stay_unavailable=0.5)),
            TrainConfig(rollout_length=8, total_updates=1, hidden_sizes=(8,)),
            seed=0,
        )
        ckpt = trainer.save(tmp_path / "ckpt.npz")
        spec = SweepSpec.from_dict(tiny_spec_dict([f"mappo:{ckpt}"]))
        with pytest.raises(ConfigError):
            spec.validate()

    def test_jsonl_output(self, tmp_path):
        spec = SweepSpec.from_dict(tiny_spec_dict(["never"], values=(0.05,), seeds=(0,)))
        run_sweep(spec, tmp_path, fmt="jsonl")
        lines = (tmp_path / "rows.jsonl").read_text().splitlines()
        record = json.loads(lines[0])
        assert record["policy"] == "never"
        assert record["query_cost"] == 0.05


def reference_bytes(fmt, names, records):
    """Reference bytes of a sweep file: csv with repr() floats, or jsonl
    with sorted keys."""
    buf = io.StringIO(newline="")
    if fmt == "csv":
        writer = csv.writer(buf)
        writer.writerow(names)
        for record in records:
            writer.writerow(repr(v) if isinstance(v, float) else str(v)
                            for v in (record[n] for n in names))
    else:
        for record in records:
            buf.write(json.dumps({n: record[n] for n in names}, sort_keys=True) + "\n")
    return buf.getvalue().encode()


def log_line(row):
    return (f"{row.policy} {row.parameter}={row.value} seed={row.seed}: "
            f"reward={row.reward_per_slot:.4f} throughput={row.throughput_per_slot:.4f} "
            f"queries={row.queries_per_slot:.3f}")


def openblas_thread_getter():
    """This process's scipy-openblas thread-count getter, or None."""
    with open("/proc/self/maps") as fh:
        paths = sorted({line.split(maxsplit=5)[5].strip() for line in fh if "openblas" in line})
    for path in paths:
        lib = ctypes.CDLL(path)
        if hasattr(lib, "scipy_openblas_get_num_threads64_"):
            getter = lib.scipy_openblas_get_num_threads64_
            getter.argtypes, getter.restype = [], ctypes.c_int
            return getter
    return None


class TestParallelCells:
    @pytest.fixture(scope="class")
    def mixed_spec(self, tmp_path_factory):
        trainer = Trainer(EnvConfig(**tiny_env_kwargs()),
                          TrainConfig(rollout_length=16, total_updates=1, hidden_sizes=(8,)), seed=3)
        trainer.train()
        ckpt = trainer.save(tmp_path_factory.mktemp("ckpt") / "ckpt.npz")
        return SweepSpec.from_dict(tiny_spec_dict(
            ["never", "random:0.5", "always", f"mappo:{ckpt}", "mappo:train"], seeds=(0, 1)))

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_pool_matches_in_process_cells(self, tmp_path, mixed_spec, fmt):
        spec = mixed_spec
        cells = spec.validate()
        expected = [
            _evaluate_cell(policy, env_config, spec, seed, p_idx, v_idx)
            for p_idx, policy in enumerate(spec.policies)
            for v_idx, env_config in enumerate(cells)
            for seed in spec.seeds
        ]
        lines = []
        rows = run_sweep(spec, tmp_path, fmt=fmt, log=lines.append)
        assert rows == expected
        assert lines == [log_line(row) for row in expected]
        assert (tmp_path / f"rows.{fmt}").read_bytes() == reference_bytes(
            fmt, ROW_FIELDS, [vars(row) for row in expected])
        assert (tmp_path / f"aggregate.{fmt}").read_bytes() == reference_bytes(
            fmt, AGGREGATE_FIELDS, aggregate_rows(expected))

    def test_workers_run_one_blas_thread(self, tmp_path, monkeypatch):
        get_threads = openblas_thread_getter()
        if get_threads is None:
            pytest.skip("no scipy_openblas_get_num_threads64_ in this numpy")
        before = get_threads()

        def threads_as_stats(policy, env_config, episodes, seed):
            threads = float(get_threads())
            return EvalStats(episodes, 1, threads, threads, 0.0, 0.0, (threads,))

        monkeypatch.setattr(sweep, "evaluate", threads_as_stats)
        rows = run_sweep(SweepSpec.from_dict(tiny_spec_dict(["never"])), tmp_path)
        assert [row.throughput_per_slot for row in rows] == [1.0] * len(rows)
        assert get_threads() == before  # the caller keeps its own BLAS threads

    def test_first_failing_cell_raises_after_earlier_rows(self, tmp_path, monkeypatch):
        real_evaluate = sweep.evaluate

        def failing_evaluate(policy, env_config, episodes, seed):
            if env_config.query_cost == 0.1:
                time.sleep(0.3)  # a later cell fails first in time
                raise ContractViolation("cell at 0.1 failed")
            if env_config.query_cost == 0.2:
                raise ConfigError("cell at 0.2 failed")
            return real_evaluate(policy, env_config, episodes, seed)

        monkeypatch.setattr(sweep, "evaluate", failing_evaluate)
        spec = SweepSpec.from_dict(tiny_spec_dict(["never"], values=(0.0, 0.05, 0.1, 0.2), seeds=(0,)))
        with pytest.raises(ContractViolation, match="cell at 0.1 failed"):
            run_sweep(spec, tmp_path)
        written = (tmp_path / "rows.csv").read_text().splitlines()
        assert [line.split(",")[2] for line in written[1:]] == ["0.0", "0.05"]
        assert not (tmp_path / "aggregate.csv").exists()
        assert multiprocessing.active_children() == []

    def test_failure_stops_running_cells(self, tmp_path, monkeypatch):
        def fail_first_sleep_others(policy, env_config, episodes, seed):
            if env_config.query_cost == 0.0:
                raise ContractViolation("first cell failed")
            time.sleep(60.0)

        monkeypatch.setattr(sweep, "evaluate", fail_first_sleep_others)
        spec = SweepSpec.from_dict(tiny_spec_dict(["never"], values=(0.0, 0.05, 0.1, 0.2), seeds=(0,)))
        start = time.perf_counter()
        with pytest.raises(ContractViolation, match="first cell failed"):
            run_sweep(spec, tmp_path)
        assert time.perf_counter() - start < 10.0
        assert multiprocessing.active_children() == []


BAD_SPEC_SECTIONS = [
    {"env": {"bogus": 1}},
    {"train": {"learning_rat": 1}},
    {"train": {"clip_epsilon": "x"}},
    {"env": [1, 2]},
    {"eval_episodes": "x"},
    {"seeds": [0, "one"]},
]


class TestSweepSpec:
    @pytest.mark.parametrize("bad", BAD_SPEC_SECTIONS)
    def test_bad_section_rejected(self, bad):
        with pytest.raises(ConfigError):
            SweepSpec.from_dict({**tiny_spec_dict(["never"]), **bad})

    @pytest.mark.parametrize("path", sorted((ROOT / "configs").glob("*.json")), ids=lambda p: p.name)
    def test_shipped_specs_validate(self, path):
        spec = SweepSpec.from_file(path)
        cells = spec.validate()
        assert len(cells) == len(spec.values)

    def test_shipped_specs_cover_the_readme(self):
        names = {p.name for p in (ROOT / "configs").glob("*.json")}
        assert {"sweep_query_cost.json", "sweep_arrival_prob.json",
                "sweep_n_dispatchers.json"} <= names


class TestEmitReport:
    def make_rows(self):
        return [
            ResultRow("never", "query_cost", 0.1, s, 1.0 - 0.1 * q, 1.0, q, 0.0, 0.1)
            for s, q in ((0, 0.0), (1, 0.0))
        ]

    def test_aggregate_means(self, tmp_path):
        rows = [
            ResultRow("never", "query_cost", 0.0, 0, 1.0, 1.0, 0.0, 0.0, 0.0),
            ResultRow("never", "query_cost", 0.0, 1, 3.0, 3.0, 0.0, 0.0, 0.0),
        ]
        aggs = aggregate_rows(rows)
        assert len(aggs) == 1
        assert aggs[0]["reward_per_slot_mean"] == pytest.approx(2.0)
        # standard error of [1, 3]: std(ddof=1)/sqrt(2) = sqrt(2)/sqrt(2) = 1
        assert aggs[0]["reward_per_slot_se"] == pytest.approx(1.0)
        assert aggs[0]["n_seeds"] == 2

    def test_accounting_violation_raises(self, tmp_path):
        bad = ResultRow("never", "query_cost", 0.1, 0, 0.9, 1.0, 2.0, 0.0, 0.1)
        with pytest.raises(AccountingError):
            emit_report([bad], tmp_path)

    def test_nan_reward_fails_accounting(self):
        row = ResultRow("never", "query_cost", 0.1, 0, float("nan"), 1.0, 0.0, 0.0, 0.1)
        with pytest.raises(AccountingError):
            row.check_accounting()

    def test_accounting_identity_accepts_exact_rows(self, tmp_path):
        emit_report(self.make_rows(), tmp_path)
        assert (tmp_path / "rows.csv").exists()

    def test_failed_report_keeps_previous_files(self, tmp_path, monkeypatch):
        rows = self.make_rows()
        emit_report(rows, tmp_path)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        cells = []

        def format_then_fail(value):
            cells.append(value)
            if len(cells) > 3:  # inside the first data row
                raise OSError("disk full")
            return str(value)

        monkeypatch.setattr(sweep, "_format_cell", format_then_fail)
        with pytest.raises(OSError):
            emit_report(rows, tmp_path)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_empty_rows_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            emit_report([], tmp_path)


def progress_updates(path: Path) -> list[int]:
    """Update indices of a progress file; a csv header after the first line
    fails the int conversion."""
    if path.suffix == ".jsonl":
        return [json.loads(line)["update"] for line in path.read_text().splitlines()]
    with open(path, newline="") as fh:
        return [int(row["update"]) for row in csv.DictReader(fh)]


def write_train_config(path: Path) -> Path:
    path.write_text(json.dumps({
        **tiny_env_kwargs(),
        "rollout_length": 8, "total_updates": 2, "eval_interval": 50,
        "hidden_sizes": [8],
    }))
    return path


def write_tiny_config(path: Path, **extra) -> Path:
    lines = [f"{k} = {', '.join(map(str, v)) if isinstance(v, (list, tuple)) else v}"
             for k, v in tiny_env_kwargs(**extra).items()]
    path.write_text("\n".join(lines) + "\n")
    return path


class TestCliVerbs:
    def test_simulate_writes_trajectory(self, tmp_path, capsys):
        cfg = write_tiny_config(tmp_path / "env.cfg")
        rc = main([
            "simulate", "--config", str(cfg), "--policy", "random:0.5",
            "--slots", "20", "--seed", "3", "--out-dir", str(tmp_path / "sim"),
            "--format", "jsonl",
        ])
        assert rc == 0
        lines = (tmp_path / "sim" / "trajectory.jsonl").read_text().splitlines()
        assert len(lines) == 20
        record = json.loads(lines[0])
        assert {"slot", "available", "queue_lengths", "arrivals", "queries",
                "dispatch", "rewards", "team_reward", "feedback"} <= set(record)
        assert record["slot"] == 0

    def test_simulate_csv_format(self, tmp_path):
        cfg = write_tiny_config(tmp_path / "env.cfg")
        rc = main([
            "simulate", "--config", str(cfg), "--slots", "5",
            "--out-dir", str(tmp_path / "sim"), "--format", "csv",
        ])
        assert rc == 0
        lines = (tmp_path / "sim" / "trajectory.csv").read_text().splitlines()
        assert len(lines) == 6  # header + 5 slots
        assert lines[0].startswith("slot,available,queue_lengths")

    def test_train_evaluate_roundtrip(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            **tiny_env_kwargs(),
            "rollout_length": 8, "total_updates": 2, "eval_interval": 1,
            "hidden_sizes": [8], "eval_episodes": 1,
        }))
        rc = main([
            "train", "--config", str(cfg), "--seed", "1",
            "--out-dir", str(tmp_path / "run"), "--format", "jsonl",
        ])
        assert rc == 0
        out_dir = tmp_path / "run"
        assert (out_dir / "checkpoint_final.npz").exists()
        progress = (out_dir / "progress.jsonl").read_text().splitlines()
        assert len(progress) == 2
        assert "eval_reward_per_slot" in json.loads(progress[0])

        capsys.readouterr()
        rc = main([
            "evaluate", "--checkpoint", str(out_dir / "checkpoint_final.npz"),
            "--episodes", "2", "--seed", "5",
        ])
        assert rc == 0
        record = json.loads(capsys.readouterr().out.splitlines()[0])
        assert "reward_per_slot" in record
        assert record["episodes"] == 2

    def test_train_csv_progress(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            **tiny_env_kwargs(),
            "rollout_length": 8, "total_updates": 2, "eval_interval": 50,
            "hidden_sizes": [8],
        }))
        rc = main([
            "train", "--config", str(cfg), "--out-dir", str(tmp_path / "run"),
            "--format", "csv",
        ])
        assert rc == 0
        lines = (tmp_path / "run" / "progress.csv").read_text().splitlines()
        assert len(lines) == 3  # header + 2 updates
        assert lines[0].startswith("update,surrogate,value_loss")

    def test_train_resume(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            **tiny_env_kwargs(),
            "rollout_length": 8, "total_updates": 2, "eval_interval": 50,
            "hidden_sizes": [8],
        }))
        rc = main(["train", "--config", str(cfg), "--out-dir", str(tmp_path / "run")])
        assert rc == 0
        rc = main([
            "train", "--resume", str(tmp_path / "run" / "checkpoint_final.npz"),
            "--updates", "1", "--out-dir", str(tmp_path / "run2"),
        ])
        assert rc == 0
        assert (tmp_path / "run2" / "checkpoint_final.npz").exists()

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_fresh_train_starts_progress_file(self, tmp_path, fmt):
        cfg = write_train_config(tmp_path / "cfg.json")
        args = ["train", "--config", str(cfg), "--out-dir", str(tmp_path / "run"), "--format", fmt]
        assert main(args) == 0
        assert main(args) == 0
        assert progress_updates(tmp_path / "run" / f"progress.{fmt}") == [1, 2]

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_resume_appends_to_progress_file(self, tmp_path, fmt):
        cfg = write_train_config(tmp_path / "cfg.json")
        run = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out-dir", str(run), "--format", fmt]) == 0
        assert main(["train", "--resume", str(run / "checkpoint_final.npz"), "--updates", "1",
                     "--out-dir", str(run), "--format", fmt]) == 0
        assert progress_updates(run / f"progress.{fmt}") == [1, 2, 3]

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_failed_simulate_write_keeps_previous_trajectory(self, tmp_path, monkeypatch, fmt):
        args = ["simulate", "--policy", "random:0.5", "--slots", "10",
                "--out-dir", str(tmp_path), "--format", fmt]
        assert main(args) == 0
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        real_records = cli._trajectory_records

        def fail_after_one_record(env, policy, slots):
            records = real_records(env, policy, slots)
            yield next(records)
            raise OSError("disk full")

        monkeypatch.setattr(cli, "_trajectory_records", fail_after_one_record)
        with pytest.raises(OSError):
            main(args)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_failed_evaluate_write_keeps_previous_metrics(self, tmp_path, monkeypatch):
        trainer = Trainer(EnvConfig(**tiny_env_kwargs()), TrainConfig(hidden_sizes=(8,)), seed=0)
        ckpt = trainer.save(tmp_path / "ckpt.npz")
        out = tmp_path / "eval"
        args = ["evaluate", "--checkpoint", str(ckpt), "--episodes", "1", "--out-dir", str(out)]
        assert main(args) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}

        class PartialWriter:
            def __init__(self, fh):
                self.fh = fh

            def writerow(self, row):
                self.fh.write("partial")
                raise OSError("disk full")

        monkeypatch.setattr(cli.csv, "writer", PartialWriter)
        with pytest.raises(OSError):
            main(args)
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_evaluate_with_env_override(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            **tiny_env_kwargs(),
            "rollout_length": 8, "total_updates": 1, "eval_interval": 50,
            "hidden_sizes": [8],
        }))
        main(["train", "--config", str(cfg), "--out-dir", str(tmp_path / "run")])
        capsys.readouterr()
        rc = main([
            "evaluate", "--checkpoint", str(tmp_path / "run" / "checkpoint_final.npz"),
            "--episodes", "1", "--set", "query_cost=0.2",
        ])
        assert rc == 0
        # dimension change must be rejected
        rc = main([
            "evaluate", "--checkpoint", str(tmp_path / "run" / "checkpoint_final.npz"),
            "--episodes", "1", "--set", "n_servers=4",
        ])
        assert rc == 2

    def test_sweep_verb(self, tmp_path):
        spec_path = tmp_path / "sweep.json"
        spec_path.write_text(json.dumps(tiny_spec_dict(["never", "always"], values=(0.0, 0.05), seeds=(0, 1))))
        rc = main(["sweep", "--spec", str(spec_path), "--out-dir", str(tmp_path / "out")])
        assert rc == 0
        rows = (tmp_path / "out" / "rows.csv").read_text().splitlines()
        assert len(rows) == 1 + 2 * 2 * 2
        header = rows[0].split(",")
        assert "reward_per_slot" in header and "query_cost" in header

    def test_sweep_seed_override_narrows_seeds(self, tmp_path):
        spec_path = tmp_path / "sweep.json"
        spec_path.write_text(json.dumps(tiny_spec_dict(["never"], values=(0.0,), seeds=(0, 1, 2))))
        rc = main(["sweep", "--spec", str(spec_path), "--seed", "7", "--out-dir", str(tmp_path / "out")])
        assert rc == 0
        rows = (tmp_path / "out" / "rows.csv").read_text().splitlines()
        assert len(rows) == 2  # header + one row

    def test_evaluate_defaults_to_sampling(self, tmp_path, capsys):
        trainer = Trainer(EnvConfig(**tiny_env_kwargs()), TrainConfig(hidden_sizes=(8,)), seed=0)
        ckpt = trainer.save(tmp_path / "ckpt.npz")
        capsys.readouterr()
        rc = main(["evaluate", "--checkpoint", str(ckpt), "--episodes", "1"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out.splitlines()[0])["mode"] == "sample"

    @pytest.mark.parametrize("flag", ["--set", "--config"])
    def test_resume_rejects_config_changes(self, tmp_path, capsys, flag):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"query_cost": 0.5}))
        trainer = Trainer(EnvConfig(**tiny_env_kwargs()), TrainConfig(hidden_sizes=(8,)), seed=0)
        ckpt = trainer.save(tmp_path / "ckpt.npz")
        value = "query_cost=0.5" if flag == "--set" else str(cfg)
        rc = main(["train", "--resume", str(ckpt), "--updates", "1",
                   "--out-dir", str(tmp_path / "run"), flag, value])
        assert rc == 2
        assert "--resume" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_non_numeric_train_value_fails_cleanly(self, tmp_path, capsys):
        rc = main(["train", "--set", "clip_epsilon=abc", "--out-dir", str(tmp_path / "run")])
        assert rc == 2
        assert "clip_epsilon must be a number" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", BAD_SPEC_SECTIONS[:3])
    def test_bad_sweep_spec_fails_cleanly(self, tmp_path, capsys, bad):
        spec_path = tmp_path / "sweep.json"
        spec_path.write_text(json.dumps({**tiny_spec_dict(["never"]), **bad}))
        rc = main(["sweep", "--spec", str(spec_path), "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_non_finite_value_fails_cleanly(self, tmp_path, capsys):
        rc = main(["simulate", "--policy", "never", "--set", "query_cost=NaN",
                   "--slots", "4", "--out-dir", str(tmp_path)])
        assert rc == 2
        assert "query_cost must be finite" in capsys.readouterr().err

    def test_unknown_config_key_fails_cleanly(self, tmp_path, capsys):
        cfg = tmp_path / "env.cfg"
        cfg.write_text("n_serverz = 3\n")
        rc = main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path)])
        assert rc == 2
        assert "unknown config key" in capsys.readouterr().err

    def test_non_boolean_flag_fails_cleanly(self, tmp_path, capsys):
        rc = main(["simulate", "--policy", "never", "--set", "drop_newest=maybe",
                   "--slots", "4", "--out-dir", str(tmp_path)])
        assert rc == 2
        assert "drop_newest must be true or false" in capsys.readouterr().err

    def test_simulate_rejects_training_keys(self, tmp_path, capsys):
        rc = main(["simulate", "--policy", "never", "--set", "learning_rate=5",
                   "--slots", "4", "--out-dir", str(tmp_path)])
        assert rc == 2
        assert "learning_rate" in capsys.readouterr().err

    def test_evaluate_rejects_training_keys(self, tmp_path, capsys):
        trainer = Trainer(EnvConfig(**tiny_env_kwargs()), TrainConfig(hidden_sizes=(8,)), seed=0)
        ckpt = trainer.save(tmp_path / "ckpt.npz")
        rc = main(["evaluate", "--checkpoint", str(ckpt), "--episodes", "1",
                   "--set", "learning_rate=5"])
        assert rc == 2
        assert "learning_rate" in capsys.readouterr().err

    def test_selftest_verb(self):
        assert main(["selftest"]) == 0

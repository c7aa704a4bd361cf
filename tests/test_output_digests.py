"""Output digests: SHA-256 prefixes of every record file the CLI writes.

Each digest covers the bytes of one file, in csv and in jsonl:

- ``simulate`` trajectories of never, random:0.3, always and a MAPPO
  checkpoint, with ``report_post_service=true``;
- ``train`` progress after a fresh run plus a ``--resume`` into the same
  directory, with the wall-time ``seconds`` column (csv) or key (jsonl)
  removed;
- ``evaluate`` metrics;
- sweep rows and aggregate with a ``mappo:<checkpoint>`` policy.

The checkpoint path appears in the metrics and sweep files, so every verb
runs in one working directory and names the checkpoint relative to it. Any
change to a file's layout, header rule, float formatting or key order
changes a digest; a refactor of the writers that keeps the bytes keeps all
of them.

Regenerate (only for an intended format change) with
``PYTHONPATH=src python tests/test_output_digests.py``.
"""

import hashlib
import json
import os
import re
import tempfile
from pathlib import Path

import pytest

from aoidispatch import EnvConfig, TrainConfig, Trainer
from aoidispatch.cli import main

FORMATS = ("csv", "jsonl")
SIM_POLICIES = ("never", "random:0.3", "always", "mappo")
ENV = dict(
    n_dispatchers=2, n_servers=2, horizon=32,
    stay_available=[0.9, 0.5], stay_unavailable=[0.5, 0.9], queue_capacity=2,
)
TRAIN = dict(rollout_length=8, total_updates=3, eval_interval=2, eval_episodes=1, hidden_sizes=[8])
CHECKPOINT = "ckpt/checkpoint_final.npz"  # relative to the working directory


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def prepare(workdir: Path) -> None:
    """Config files, a sweep spec and a trained checkpoint in ``workdir``."""
    (workdir / "env.json").write_text(json.dumps(ENV))
    (workdir / "train.json").write_text(json.dumps({**ENV, **TRAIN}))
    (workdir / "spec.json").write_text(json.dumps({
        "swept_parameter": "query_cost",
        "values": [0.0, 0.1],
        "policies": ["never", f"mappo:{CHECKPOINT}"],
        "seeds": [0, 1],
        "eval_episodes": 1,
        "env": ENV,
    }))
    Trainer(EnvConfig(**ENV), TrainConfig(**TRAIN), seed=0, out_dir=workdir / "ckpt").train()


def _run(args: list[str]) -> None:
    assert main(args) == 0, args


def simulate_digest(policy: str, fmt: str) -> str:
    out = f"sim-{fmt}-{policy.replace(':', '-')}"
    spec = f"mappo:{CHECKPOINT}" if policy == "mappo" else policy
    _run(["simulate", "--config", "env.json", "--set", "report_post_service=true",
          "--policy", spec, "--slots", "40", "--seed", "3", "--out-dir", out, "--format", fmt])
    return _sha(Path(out, f"trajectory.{fmt}").read_bytes())


def _without_seconds(text: str, fmt: str) -> str:
    if fmt == "jsonl":
        return re.sub(r'"seconds": [^,}]*(, )?', "", text)
    lines = text.split("\r\n")
    column = lines[0].split(",").index("seconds")
    return "\r\n".join(
        ",".join(cell for i, cell in enumerate(line.split(",")) if i != column) if line else line
        for line in lines
    )


def progress_digest(fmt: str) -> str:
    out = f"run-{fmt}"
    _run(["train", "--config", "train.json", "--out-dir", out, "--format", fmt])
    _run(["train", "--resume", f"{out}/checkpoint_final.npz", "--updates", "2",
          "--out-dir", out, "--format", fmt])
    text = Path(out, f"progress.{fmt}").read_bytes().decode()
    return _sha(_without_seconds(text, fmt).encode())


def metrics_digest(fmt: str) -> str:
    out = f"eval-{fmt}"
    _run(["evaluate", "--checkpoint", CHECKPOINT, "--episodes", "2", "--seed", "4",
          "--out-dir", out, "--format", fmt])
    return _sha(Path(out, f"metrics.{fmt}").read_bytes())


def sweep_digests(fmt: str) -> tuple[str, str]:
    out = f"sweep-{fmt}"
    _run(["sweep", "--spec", "spec.json", "--out-dir", out, "--format", fmt])
    return (
        _sha(Path(out, f"rows.{fmt}").read_bytes()),
        _sha(Path(out, f"aggregate.{fmt}").read_bytes()),
    )


GOLDEN = {
    ('simulate', 'never', 'csv'): 'a2e3da67a87bdadb',
    ('simulate', 'random:0.3', 'csv'): '43cac34dcecca9d9',
    ('simulate', 'always', 'csv'): 'f27b3a8a1b50e7be',
    ('simulate', 'mappo', 'csv'): '91e70c385294f95e',
    ('progress', 'csv'): 'd09e497d5a73b9a0',
    ('metrics', 'csv'): '5d02a570f2b58b09',
    ('rows', 'csv'): 'a4c58da0905cde59',
    ('aggregate', 'csv'): '2b2b9958d8a1d10a',
    ('simulate', 'never', 'jsonl'): 'ed48bc3ff520ed05',
    ('simulate', 'random:0.3', 'jsonl'): '05b3c6768264e7ba',
    ('simulate', 'always', 'jsonl'): 'b6a07aef9cb9922e',
    ('simulate', 'mappo', 'jsonl'): 'f17dd0142bda0e27',
    ('progress', 'jsonl'): '0ffcc3479d16dae9',
    ('metrics', 'jsonl'): 'bdb2b56d57741367',
    ('rows', 'jsonl'): 'b4ab6a5e2b6fe701',
    ('aggregate', 'jsonl'): '572747eb0606f5e2',
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("outputs")
    prepare(path)
    return path


@pytest.fixture
def in_workdir(workdir, monkeypatch):
    monkeypatch.chdir(workdir)


@pytest.mark.usefixtures("in_workdir")
@pytest.mark.parametrize("fmt", FORMATS)
class TestOutputDigests:
    @pytest.mark.parametrize("policy", SIM_POLICIES)
    def test_simulate(self, fmt, policy):
        assert simulate_digest(policy, fmt) == GOLDEN[("simulate", policy, fmt)]

    def test_progress_after_resume(self, fmt):
        assert progress_digest(fmt) == GOLDEN[("progress", fmt)]

    def test_metrics(self, fmt):
        assert metrics_digest(fmt) == GOLDEN[("metrics", fmt)]

    def test_sweep_rows_and_aggregate(self, fmt):
        rows, aggregate = sweep_digests(fmt)
        assert (rows, aggregate) == (GOLDEN[("rows", fmt)], GOLDEN[("aggregate", fmt)])


if __name__ == "__main__":
    start = os.getcwd()
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        prepare(Path(tmp))
        os.chdir(tmp)
        try:
            for fmt in FORMATS:
                for policy in SIM_POLICIES:
                    digests[("simulate", policy, fmt)] = simulate_digest(policy, fmt)
                digests[("progress", fmt)] = progress_digest(fmt)
                digests[("metrics", fmt)] = metrics_digest(fmt)
                digests[("rows", fmt)], digests[("aggregate", fmt)] = sweep_digests(fmt)
        finally:
            os.chdir(start)
    for key, value in digests.items():
        print(f"    {key!r}: {value!r},")

"""Training digests: SHA-256 prefixes of short fixed training runs.

For one-phase/two-phase x shared/per-dispatcher actors, a 6-update run on a
3 x 3 environment is pinned by four digests:

- the progress records without ``seconds``;
- the sampled and greedy ``evaluate(..., 2, 9)`` results of the trained
  policy;
- every array of ``checkpoint_final.npz`` (name, dtype, shape, bytes);
- every array of a checkpoint saved after one more update run from
  ``Trainer.from_checkpoint``.

Any change to the rollout, the update arithmetic, the optimizer, the RNG
draw order or the checkpoint contents changes a digest; a refactor that
keeps training behaviour keeps all of them.

Regenerate (only for an intended behaviour change) with
``PYTHONPATH=src python tests/test_training_digests.py``.
"""

import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

from aoidispatch import EnvConfig, TrainConfig, Trainer, evaluate

VARIANTS = {
    "one-phase/shared": dict(two_phase_policy=False, parameter_sharing=True),
    "one-phase/per-dispatcher": dict(two_phase_policy=False, parameter_sharing=False),
    "two-phase/shared": dict(two_phase_policy=True, parameter_sharing=True),
    "two-phase/per-dispatcher": dict(two_phase_policy=True, parameter_sharing=False),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _npz_digest(path: Path) -> str:
    digest = hashlib.sha256()
    with np.load(path) as data:
        for key in sorted(data.files):
            a = data[key]
            digest.update(repr((key, a.dtype.str, a.shape)).encode())
            digest.update(np.ascontiguousarray(a).tobytes())
    return digest.hexdigest()[:16]


def training_digests(variant: str) -> tuple[str, str, str, str]:
    env_cfg = EnvConfig(n_dispatchers=3, n_servers=3, horizon=40)
    train_cfg = TrainConfig(
        rollout_length=64, eval_interval=3, eval_episodes=1, total_updates=6, **VARIANTS[variant]
    )
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        trainer = Trainer(env_cfg, train_cfg, seed=5, out_dir=out)
        records = [{k: v for k, v in r.items() if k != "seconds"} for r in trainer.train()]
        sampled = evaluate(trainer.policy(), env_cfg, 2, 9)
        greedy = evaluate(trainer.policy(greedy=True), env_cfg, 2, 9)
        resumed = Trainer.from_checkpoint(out / "checkpoint_final.npz")
        resumed.run_update()
        resumed.save(out / "resumed.npz")
        return (
            _sha(json.dumps(records, sort_keys=True).encode()),
            _sha((repr(sampled) + repr(greedy)).encode()),
            _npz_digest(out / "checkpoint_final.npz"),
            _npz_digest(out / "resumed.npz"),
        )


# (progress, evaluate, final checkpoint, checkpoint after one resumed update)
GOLDEN = {
    "one-phase/shared": ("5fbd65babf54376a", "b5691d4c5e7ff8a1", "3a073339c81880d4", "572b3f23b8808a0c"),
    "one-phase/per-dispatcher": ("fb01819c0f5b857c", "58cc4f5c08c582d5", "d01ff636b33d222c", "237ddc663257cbf3"),
    "two-phase/shared": ("c6a2409557ab3410", "ad12e50cc8593e76", "69a540ba77bc021c", "cb058266f1bb4e34"),
    "two-phase/per-dispatcher": ("28dff64ba37d1c1c", "7b677593f696a7be", "b64d2956168ddbad", "15abf3b766731210"),
}


@pytest.mark.parametrize("variant", list(VARIANTS))
def test_training_digests(variant):
    assert training_digests(variant) == GOLDEN[variant]


if __name__ == "__main__":
    for variant in VARIANTS:
        print(f"    {variant!r}: {training_digests(variant)!r},")

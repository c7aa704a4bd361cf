"""BLAS thread scope of training: each update runs on one OpenBLAS thread,
the caller's thread count comes back afterwards, and hosts without
``/proc/self/maps`` or ``os.sched_getaffinity`` train and sweep unchanged."""

import ctypes
import os
import threading

import numpy as np
import pytest

from aoidispatch import EnvConfig, SweepSpec, Trainer, TrainConfig, mappo, nn, run_sweep
from aoidispatch.nn import one_blas_thread


def openblas_thread_calls():
    """(get, set) thread-count calls of this process's scipy-openblas, found
    independently of the package's lookup, or None."""
    with open("/proc/self/maps") as fh:
        paths = sorted({line.split(maxsplit=5)[5].strip() for line in fh if "openblas" in line})
    for path in paths:
        lib = ctypes.CDLL(path)
        if hasattr(lib, "scipy_openblas_get_num_threads64_"):
            get = lib.scipy_openblas_get_num_threads64_
            set_ = lib.scipy_openblas_set_num_threads64_
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None


@pytest.fixture
def caller_threads():
    """Thread-count getter, with the caller set to 2 threads for the test and
    its own count restored afterwards."""
    calls = openblas_thread_calls()
    if calls is None:
        pytest.skip("no scipy_openblas_get_num_threads64_ in this numpy")
    get, set_ = calls
    before = get()
    set_(2)
    yield get
    set_(before)


def tiny_trainer(seed=0):
    env_cfg = EnvConfig(n_dispatchers=2, n_servers=2, horizon=32)
    train_cfg = TrainConfig(rollout_length=16, total_updates=2, eval_interval=1,
                            eval_episodes=1, hidden_sizes=(8,))
    return Trainer(env_cfg, train_cfg, seed=seed)


class TestUpdateScope:
    def test_update_runs_on_one_thread_and_restores(self, caller_threads, monkeypatch):
        get = caller_threads
        seen = []
        real_update = mappo.mappo_update

        def recording_update(*args, **kwargs):
            seen.append(get())
            return real_update(*args, **kwargs)

        monkeypatch.setattr(mappo, "mappo_update", recording_update)
        trainer = tiny_trainer()
        trainer.run_update()
        assert seen == [1]
        assert get() == 2
        trainer.train()
        assert seen == [1, 1]
        assert get() == 2

    def test_update_that_raises_restores(self, caller_threads, monkeypatch):
        get = caller_threads

        def failing_update(*args, **kwargs):
            assert get() == 1
            raise RuntimeError("update failed")

        monkeypatch.setattr(mappo, "mappo_update", failing_update)
        trainer = tiny_trainer()
        with pytest.raises(RuntimeError, match="update failed"):
            trainer.run_update()
        assert get() == 2
        with pytest.raises(RuntimeError, match="update failed"):
            trainer.train()
        assert get() == 2

    def test_overlapping_blocks_restore_after_the_last(self, caller_threads):
        get = caller_threads
        inside, release = threading.Event(), threading.Event()

        def first_block():
            with one_blas_thread():
                inside.set()
                release.wait(10)

        thread = threading.Thread(target=first_block)
        thread.start()
        assert inside.wait(10)
        with one_blas_thread():
            release.set()
            thread.join(10)
            assert not thread.is_alive()
            assert get() == 1  # the first block's exit left this one on one thread
        assert get() == 2


@pytest.fixture
def without_linux_calls(monkeypatch):
    """The package as on a host with neither ``/proc/self/maps`` nor
    ``os.sched_getaffinity``."""
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(nn, "_PROC_MAPS", "/nonexistent/maps")
    nn._openblas_thread_calls.cache_clear()
    yield
    nn._openblas_thread_calls.cache_clear()  # rescan the real map on next use


def train_outcome(seed):
    trainer = tiny_trainer(seed)
    history = [{k: v for k, v in r.items() if k != "seconds"} for r in trainer.train()]
    return history, [p.copy() for p in trainer.actors.net.params + trainer.critic.params]


def tiny_sweep(out_dir):
    spec = SweepSpec.from_dict({
        "swept_parameter": "query_cost", "values": [0.0, 0.1], "policies": ["random:0.5", "mappo:train"],
        "seeds": [0, 1], "eval_episodes": 1,
        "env": {"n_dispatchers": 2, "n_servers": 2, "horizon": 32},
        "train": {"rollout_length": 16, "total_updates": 2, "eval_interval": 50, "hidden_sizes": [8]},
    })
    rows = run_sweep(spec, out_dir)
    return rows, (out_dir / "rows.csv").read_bytes(), (out_dir / "aggregate.csv").read_bytes()


class TestWithoutLinuxCalls:
    def test_training_unchanged(self, request):
        expected_history, expected_params = train_outcome(seed=4)
        request.getfixturevalue("without_linux_calls")
        assert nn._openblas_thread_calls() == ()
        history, params = train_outcome(seed=4)
        assert history == expected_history
        assert all(np.array_equal(a, b) for a, b in zip(params, expected_params))

    def test_sweep_unchanged(self, tmp_path, request):
        expected = tiny_sweep(tmp_path / "linux")
        request.getfixturevalue("without_linux_calls")
        assert tiny_sweep(tmp_path / "other") == expected

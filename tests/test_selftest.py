"""The built-in check suite behind the selftest CLI verb."""

import numpy as np
import pytest

from aoidispatch import env
from aoidispatch.env import DispatchEnv
from aoidispatch.selftest import (
    ALL_CHECKS,
    check_categorical_normalization,
    check_environment_invariants,
    check_first_update_ratio,
    check_gradients,
    check_replay_determinism,
    check_stationary_distribution,
    run_all,
)


def test_every_check_passes():
    results = run_all(log=None)
    failures = [r for r in results if not r.passed]
    assert not failures, failures


def test_checks_cover_all_registered():
    results = run_all(log=None)
    assert len(results) == len(ALL_CHECKS)
    assert len({r.name for r in results}) == len(results)


def test_individual_checks_are_deterministic():
    for check in (
        check_environment_invariants,
        check_replay_determinism,
        check_stationary_distribution,
        check_gradients,
        check_categorical_normalization,
        check_first_update_ratio,
    ):
        a, b = check(), check()
        assert a == b


def test_log_callback_receives_lines():
    lines = []
    run_all(log=lines.append)
    assert len(lines) == len(ALL_CHECKS)
    assert all(line.startswith(("PASS", "FAIL")) for line in lines)


def _after_each_step(monkeypatch, fault):
    """Run ``fault(world, config, outcome)`` after every :meth:`DispatchEnv.step`."""
    step = DispatchEnv.step

    def faulty_step(self, action):
        outcome = step(self, action)
        fault(self.world, self.config, outcome)
        return outcome

    monkeypatch.setattr(DispatchEnv, "step", faulty_step)


def _overfill_first_queue(world, config, outcome):
    world.length[0] = config.queue_capacity[0] + 1


def _lose_a_queued_job(world, config, outcome):
    queued = np.flatnonzero(world.length)
    if queued.size:
        world.length[queued[0]] -= 1


def _keep_slot_start_knowledge(world, config, outcome):
    world.planes = outcome.start_planes


def test_invariant_check_catches_wrong_ageing(monkeypatch):
    monkeypatch.setattr(env, "_AGE_STEP", np.array([0, 0, 2]).reshape(3, 1, 1))
    result = check_environment_invariants()
    assert not result.passed
    assert result.detail.startswith("age update wrong")


@pytest.mark.parametrize("fault,problem", [
    (_overfill_first_queue, "queue bound violated at server 0"),
    (_lose_a_queued_job, "conservation violated"),
    (_keep_slot_start_knowledge, "age update wrong"),
])
def test_invariant_check_catches_broken_steps(monkeypatch, fault, problem):
    _after_each_step(monkeypatch, fault)
    result = check_environment_invariants()
    assert not result.passed
    assert result.detail.startswith(problem)

"""Randomized invariant suite for the simulation plus the small-system
throughput oracle."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aoidispatch import BaselineKind, BaselinePolicy, EnvConfig
from aoidispatch.env import DispatchEnv
from aoidispatch.selftest import invariant_violation, random_env_config, random_joint_action


def test_randomized_invariants_across_configs():
    rng = np.random.default_rng(2024)
    for _ in range(20):
        cfg = random_env_config(rng)
        assert invariant_violation(cfg, 300, rng) is None


def test_invariants_with_drop_newest():
    rng = np.random.default_rng(99)
    cfg = EnvConfig(
        n_dispatchers=3, n_servers=2, arrival_prob=0.9, queue_capacity=2,
        stay_available=0.6, stay_unavailable=0.6, drop_newest=True,
    )
    # conservation holds for the rejected-incoming variant too: the NAKed
    # incoming job counts as dispatched and dropped
    assert invariant_violation(cfg, 500, rng) is None


@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_invariants_hypothesis(seed):
    rng = np.random.default_rng(seed)
    cfg = random_env_config(rng)
    assert invariant_violation(cfg, 120, rng) is None


def test_full_replay_determinism_bitwise():
    rng = np.random.default_rng(31)
    cfg = random_env_config(rng)
    traces = []
    for _ in range(2):
        env = DispatchEnv(cfg)
        action_rng = np.random.default_rng(17)
        trace = []
        for _ in range(300):
            out = env.step(random_joint_action(env, action_rng))
            trace.append(
                (
                    out.rewards,
                    out.completions,
                    out.drops,
                    out.queries_issued,
                    out.arrivals,
                    tuple((e.dispatcher, e.server, e.job.id, e.accepted) for e in out.feedback),
                    tuple(tuple(s.aoi) for s in out.observations),
                )
            )
        traces.append(trace)
    assert traces[0] == traces[1]


def joint_chain_throughput(lam: float, phi: float, psi: float) -> float:
    """Brute-force oracle: stationary completions/slot of the exact joint
    (availability, queue) chain for one dispatcher, one server, capacity 1,
    never querying, always dispatching to the single server.

    Enumerates the 4 slot-start states, builds the one-slot transition matrix
    over arrival and availability randomness, solves for the stationary law,
    and accumulates expected completions.
    """
    states = [(avail, q) for avail in (True, False) for q in (0, 1)]
    index = {s: i for i, s in enumerate(states)}
    p = np.zeros((4, 4))
    expected_completions = np.zeros(4)
    for (avail, q), i in index.items():
        for arrival, prob_a in ((True, lam), (False, 1.0 - lam)):
            if prob_a == 0.0:
                continue
            q_mid = min(q + 1, 1) if arrival else q  # overflow evicts the head
            served = 1 if (avail and q_mid >= 1) else 0
            q_next = q_mid - served
            expected_completions[i] += prob_a * served
            for avail_next, prob_x in (
                (True, phi if avail else 1.0 - psi),
                (False, (1.0 - phi) if avail else psi),
            ):
                if prob_x == 0.0:
                    continue
                p[i, index[(avail_next, q_next)]] += prob_a * prob_x
    a = np.vstack([p.T - np.eye(4), np.ones(4)])
    b = np.array([0.0, 0.0, 0.0, 0.0, 1.0])
    pi, *_ = np.linalg.lstsq(a, b, rcond=None)
    return float(pi @ expected_completions)


def empirical_throughput(lam: float, phi: float, psi: float, slots: int, seed: int):
    """Per-slot completion indicators from a long never-query run."""
    cfg = EnvConfig(
        n_dispatchers=1, n_servers=1, arrival_prob=lam,
        stay_available=phi, stay_unavailable=psi,
        queue_capacity=1, horizon=slots + 1, seed=seed, query_cost=0.0,
    )
    env = DispatchEnv(cfg)
    policy = BaselinePolicy(BaselineKind("never"))
    policy.begin_episode(np.random.default_rng(seed + 1))
    completions = np.empty(slots, dtype=np.int8)
    for t in range(slots):
        outcome = env.step(policy.act(env))
        completions[t] = outcome.completions[0]
    return completions


def batch_means_se(samples: np.ndarray, n_batches: int = 1000) -> float:
    """Standard error of the mean of a correlated binary series via batch
    means."""
    batches = np.array_split(samples.astype(float), n_batches)
    means = np.array([b.mean() for b in batches])
    return float(means.std(ddof=1) / np.sqrt(len(means)))


@pytest.mark.parametrize("lam,phi,psi", [(0.8, 0.95, 0.50), (0.5, 0.7, 0.6)])
def test_throughput_matches_joint_chain_oracle_smoke(lam, phi, psi):
    slots = 100_000
    completions = empirical_throughput(lam, phi, psi, slots, seed=77)
    se = batch_means_se(completions, n_batches=200)
    oracle = joint_chain_throughput(lam, phi, psi)
    assert abs(completions.mean() - oracle) < 3 * se


def test_oracle_sanity_limits():
    # always-arriving, always-available, capacity-1: one completion per slot
    assert joint_chain_throughput(1.0, 0.999999, 0.000001) == pytest.approx(1.0, abs=1e-4)
    # no arrivals: nothing to serve
    assert joint_chain_throughput(0.0, 0.9, 0.5) == pytest.approx(0.0, abs=1e-12)


@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    report_post_service=st.booleans(),
    drop_newest=st.booleans(),
    warmup=st.integers(min_value=0, max_value=20),
    query_prob=st.sampled_from([0.0, 0.3, 1.0]),
)
@settings(max_examples=60, deadline=None)
def test_query_overlay_is_knowledge(seed, report_post_service, drop_newest, warmup, query_prob):
    rng = np.random.default_rng(seed)
    cfg = replace(
        random_env_config(rng), report_post_service=report_post_service, drop_newest=drop_newest
    )
    env, twin = DispatchEnv(cfg), DispatchEnv(cfg)
    for _ in range(warmup):
        action = random_joint_action(env, rng)
        env.step(action)
        twin.step(action)
    action = random_joint_action(env, rng, query_prob)
    bits = action.queries
    stale = tuple(plane.copy() for plane in env.knowledge)
    world_available, world_length = env.world.available.copy(), env.world.length.copy()

    overlay = env.process_queries(bits)
    assert np.array_equal(np.stack(env.knowledge), np.stack(stale))
    for plane, before in zip(overlay, stale):
        assert not plane.flags.writeable
        assert np.array_equal(plane[~bits], before[~bits])
    n_asked = int(bits.sum())
    servers = np.nonzero(bits)[1]
    assert np.array_equal(overlay.seen_available[bits], world_available[servers])
    assert np.array_equal(overlay.seen_queue[bits], world_length[servers])
    assert np.array_equal(overlay.aoi[bits], np.zeros(n_asked))

    # a query wins over feedback: the queried entries hold the overlay's
    # values one slot older
    outcome = env.step(action)
    after = env.knowledge
    assert np.array_equal(after.seen_available[bits], overlay.seen_available[bits])
    assert np.array_equal(after.seen_queue[bits], overlay.seen_queue[bits])
    assert np.array_equal(after.aoi[bits], np.ones(n_asked))

    # process_queries is a pure read: the twin never called it
    twin_outcome = twin.step(action)
    assert np.array_equal(env.world.planes, twin.world.planes)
    for name in ("available", "owner", "job", "head", "length", "arrivals"):
        assert np.array_equal(getattr(env.world, name), getattr(twin.world, name))
    assert env.world.next_job_id == twin.world.next_job_id
    assert (outcome.rewards, outcome.naks, outcome.acks, outcome.reported_queue) == (
        twin_outcome.rewards, twin_outcome.naks, twin_outcome.acks, twin_outcome.reported_queue
    )

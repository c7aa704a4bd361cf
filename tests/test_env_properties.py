"""Randomized invariant suite for the simulation plus the small-system
throughput oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aoidispatch import BaselineKind, BaselinePolicy, EnvConfig
from aoidispatch.env import DispatchEnv
from aoidispatch.selftest import random_env_config, random_joint_action


def run_invariant_episode(cfg: EnvConfig, steps: int, rng: np.random.Generator):
    """Drive one env with random actions, asserting the per-slot invariants."""
    env = DispatchEnv(cfg)
    prev_aoi = [list(env.observe(n).aoi) for n in range(cfg.n_dispatchers)]
    dispatched = completed = dropped = 0
    for _ in range(steps):
        action = random_joint_action(env, rng)
        touched = {
            (n, k)
            for n in range(cfg.n_dispatchers)
            for k in range(cfg.n_servers)
            if action.queries[n][k]
        }
        outcome = env.step(action)
        touched |= {(e.dispatcher, e.server) for e in outcome.feedback}

        for k, length in enumerate(env.world.length.tolist()):
            assert 0 <= length <= cfg.queue_capacity[k]

        acks_per_server = [0] * cfg.n_servers
        for event in outcome.feedback:
            if event.accepted:
                acks_per_server[event.server] += 1
        assert all(c <= 1 for c in acks_per_server)

        assert outcome.team_reward == pytest.approx(sum(outcome.rewards), abs=1e-12)

        for n in range(cfg.n_dispatchers):
            snap = env.observe(n)
            for k in range(cfg.n_servers):
                assert snap.aoi[k] >= 1
                if (n, k) in touched:
                    assert snap.aoi[k] == 1
                else:
                    assert snap.aoi[k] == prev_aoi[n][k] + 1
            prev_aoi[n] = list(snap.aoi)

        dispatched += sum(1 for d in action.dispatch if d is not None)
        completed += sum(outcome.completions)
        dropped += sum(outcome.drops)

    residual = int(env.world.length.sum())
    assert dispatched == completed + dropped + residual


def test_randomized_invariants_across_configs():
    rng = np.random.default_rng(2024)
    for _ in range(20):
        cfg = random_env_config(rng)
        run_invariant_episode(cfg, steps=300, rng=rng)


def test_invariants_with_drop_newest():
    rng = np.random.default_rng(99)
    cfg = EnvConfig(
        n_dispatchers=3, n_servers=2, arrival_prob=0.9, queue_capacity=2,
        stay_available=0.6, stay_unavailable=0.6, drop_newest=True,
    )
    # conservation holds for the rejected-incoming variant too: the NAKed
    # incoming job counts as dispatched and dropped
    run_invariant_episode(cfg, steps=500, rng=rng)


@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_invariants_hypothesis(seed):
    rng = np.random.default_rng(seed)
    cfg = random_env_config(rng)
    run_invariant_episode(cfg, steps=120, rng=rng)


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

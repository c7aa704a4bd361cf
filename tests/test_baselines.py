"""Baseline query policies and the least-loaded dispatch rule."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aoidispatch import (
    BaselineKind,
    BaselinePolicy,
    ConfigError,
    EnvConfig,
    evaluate,
    least_loaded_dispatch,
    parse_policy_spec,
)
from aoidispatch.baselines import baseline_dispatch, baseline_queries
from aoidispatch.env import DispatchEnv, Knowledge


class TestBaselineQueries:
    def test_never(self):
        rng = np.random.default_rng(0)
        assert baseline_queries(BaselineKind("never"), 1, 5, rng).tolist() == [[False] * 5]

    def test_always(self):
        rng = np.random.default_rng(0)
        assert baseline_queries(BaselineKind("always"), 1, 5, rng).tolist() == [[True] * 5]

    def test_random_frequency(self):
        rng = np.random.default_rng(1)
        kind = BaselineKind("random", 0.5)
        n, k = 100_000, 3
        counts = baseline_queries(kind, n, k, rng).sum(axis=0)
        assert np.abs(counts / n - 0.5).max() < 0.01

    def test_random_extreme_probabilities(self):
        rng = np.random.default_rng(2)
        assert baseline_queries(BaselineKind("random", 0.0), 1, 4, rng).tolist() == [[False] * 4]
        assert baseline_queries(BaselineKind("random", 1.0), 1, 4, rng).tolist() == [[True] * 4]

    def test_invalid_probability(self):
        with pytest.raises(ConfigError):
            BaselineKind("random", 1.5)
        with pytest.raises(ConfigError):
            BaselineKind("sometimes")


def snapshot(queues, available=None, aoi=None) -> Knowledge:
    """Knowledge of a single dispatcher."""
    k = len(queues)
    return Knowledge(
        seen_available=np.array([available if available is not None else [True] * k]),
        seen_queue=np.array([queues]),
        aoi=np.array([aoi if aoi is not None else [1] * k]),
    )


def least_loaded(snap: Knowledge) -> int:
    return int(least_loaded_dispatch(snap.seen_queue[0], snap.seen_available[0]))


def answered(stale: Knowledge, bits, available, queue_length) -> Knowledge:
    """``stale`` overlaid with one dispatcher's answers to ``bits`` from
    servers in this true state (see ``DispatchEnv.process_queries``)."""
    env = DispatchEnv(EnvConfig(n_dispatchers=1, n_servers=len(queue_length)))
    env.world.planes = np.stack(stale)
    env.world.available = np.array(available)
    env.world.length = np.array(queue_length)
    return env.process_queries([bits])


class TestLeastLoaded:
    def test_unique_argmin(self):
        assert least_loaded(snapshot([2, 0, 3, 1, 1])) == 1

    def test_tie_prefers_believed_available(self):
        snap = snapshot([1, 1], available=[False, True])
        assert least_loaded(snap) == 1

    def test_all_equal_takes_lowest_index(self):
        assert least_loaded(snapshot([2, 2, 2])) == 0

    def test_pure_function(self):
        snap = snapshot([3, 1, 2], available=[True, False, True])
        first = least_loaded(snap)
        assert all(least_loaded(snap) == first for _ in range(5))

    @given(
        queues=st.lists(st.integers(min_value=0, max_value=10), min_size=1, max_size=8),
        shift=st.integers(min_value=0, max_value=50),
    )
    @settings(max_examples=100, deadline=None)
    def test_constant_shift_invariance(self, queues, shift):
        base = snapshot(queues)
        shifted = snapshot([q + shift for q in queues])
        assert least_loaded(base) == least_loaded(shifted)


class TestBaselineStep:
    def test_fresh_overlay_beats_stale_snapshot(self):
        # stale view says server 0 is shortest; fresh answers say otherwise
        stale = snapshot([0, 5], aoi=[40, 40])
        rng = np.random.default_rng(0)
        bits = baseline_queries(BaselineKind("always"), 1, 2, rng)
        fresh = answered(stale, bits[0], [True, True], [3, 0])
        assert bits[0].tolist() == [True, True]
        assert baseline_dispatch(stale, np.array([True])) == (0,)
        assert baseline_dispatch(fresh, np.array([True])) == (1,)

    def test_no_arrival_no_dispatch(self):
        rng = np.random.default_rng(0)
        bits = baseline_queries(BaselineKind("never"), 1, 2, rng)
        (target,) = baseline_dispatch(snapshot([1, 2]), np.array([False]))
        assert bits[0].tolist() == [False, False]
        assert target is None

    def test_seeded_reproducibility(self):
        kind = BaselineKind("random", 0.5)
        snap = snapshot([1, 2, 3])
        seqs = []
        for _ in range(2):
            rng = np.random.default_rng(12)
            seqs.append([
                (baseline_queries(kind, 1, 3, rng).tolist(),
                 baseline_dispatch(snap, np.array([True])))
                for _ in range(20)
            ])
        assert seqs[0] == seqs[1]

    def test_predrawn_bits_are_respected(self):
        # the policy issues exactly the bits it drew up front for the queries
        kind = BaselineKind("random", 0.5)
        policy = BaselinePolicy(kind)
        policy.begin_episode(np.random.default_rng(0))
        action = policy.act(DispatchEnv(EnvConfig(n_dispatchers=1, n_servers=2)))
        drawn = baseline_queries(kind, 1, 2, np.random.default_rng(0))
        assert action.queries.tolist() == drawn.tolist()

    def test_partial_overlay_keeps_other_entries(self):
        stale = snapshot([2, 0], available=[True, True])
        fresh = answered(stale, [True, False], [False, False], [1, 4])  # only server 0 refreshed
        assert fresh.seen_queue.tolist() == [[1, 0]]
        assert fresh.aoi.tolist() == [[0, 1]]
        (target,) = baseline_dispatch(fresh, np.array([True]))
        assert target == 1  # server 1 still believed empty


class TestPolicySpecParsing:
    def test_baselines(self):
        assert parse_policy_spec("never") == BaselineKind("never")
        assert parse_policy_spec("always") == BaselineKind("always")
        assert parse_policy_spec("random:0.25") == BaselineKind("random", 0.25)
        assert parse_policy_spec("random") == BaselineKind("random", 0.5)

    def test_mappo_spec_returns_argument(self):
        assert parse_policy_spec("mappo:/tmp/x.npz") == "/tmp/x.npz"
        assert parse_policy_spec("mappo:train") == "train"

    def test_rejects_garbage(self):
        for bad in ("sometimes", "random:x", "mappo:", "never:0.5"):
            with pytest.raises(ConfigError):
                parse_policy_spec(bad)


class TestBaselineEconomics:
    def test_never_query_reward_invariant_to_query_cost(self):
        base = EnvConfig(n_dispatchers=3, n_servers=3, horizon=128, seed=4)
        policy = BaselinePolicy(BaselineKind("never"))
        rewards = []
        for beta in (0.0, 0.1, 0.5):
            stats = evaluate(policy, replace(base, query_cost=beta), episodes=3, seed=21)
            assert stats.queries_per_slot == 0.0
            rewards.append(stats.reward_per_slot)
        assert rewards[0] == rewards[1] == rewards[2]

    def test_always_query_reward_affine_in_query_cost(self):
        # identical seeds give identical trajectories: the reward drops by
        # exactly n_dispatchers * n_servers per unit of query cost
        base = EnvConfig(n_dispatchers=3, n_servers=4, horizon=128, seed=4)
        policy = BaselinePolicy(BaselineKind("always"))
        s0 = evaluate(policy, replace(base, query_cost=0.0), episodes=3, seed=22)
        s1 = evaluate(policy, replace(base, query_cost=0.1), episodes=3, seed=22)
        assert s0.queries_per_slot == s1.queries_per_slot == 12.0
        assert s0.throughput_per_slot == s1.throughput_per_slot
        assert s0.reward_per_slot - s1.reward_per_slot == pytest.approx(0.1 * 12.0, abs=1e-9)

    def test_policy_runs_full_episode(self):
        cfg = EnvConfig(n_dispatchers=2, n_servers=2, horizon=64, seed=0)
        stats = evaluate(BaselinePolicy(BaselineKind("random", 0.5)), cfg, episodes=2, seed=5)
        assert stats.slots == 128
        assert stats.throughput_per_slot >= 0.0

"""Unit tests for the world simulation: chains, queues, feedback, knowledge."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aoidispatch import ConfigError, ContractViolation, EnvConfig
from aoidispatch.env import (
    DispatchEnv,
    JointAction,
    KnowledgeSnapshot,
    init_world,
    stationary_distribution,
)


def solve_stationary(phi: float, psi: float) -> tuple[float, float]:
    """Independent oracle: solve pi P = pi, sum(pi) = 1 as a linear system."""
    p = np.array([[phi, 1.0 - phi], [1.0 - psi, psi]])
    a = np.vstack([p.T - np.eye(2), np.ones(2)])
    b = np.array([0.0, 0.0, 1.0])
    pi, *_ = np.linalg.lstsq(a, b, rcond=None)
    return float(pi[0]), float(pi[1])


class TestStationaryDistribution:
    def test_symmetric_chain(self):
        assert stationary_distribution(0.5, 0.5) == (0.5, 0.5)

    def test_reliable_server(self):
        # oracle: linear solve gives (10/11, 1/11)
        oracle = solve_stationary(0.95, 0.50)
        got = stationary_distribution(0.95, 0.50)
        assert got == pytest.approx(oracle, abs=1e-12)
        assert got == pytest.approx((10 / 11, 1 / 11), abs=1e-12)

    def test_unreliable_server(self):
        oracle = solve_stationary(0.50, 0.95)
        got = stationary_distribution(0.50, 0.95)
        assert got == pytest.approx(oracle, abs=1e-12)
        assert got == pytest.approx((1 / 11, 10 / 11), abs=1e-12)

    @pytest.mark.parametrize("phi,psi", [(0.0, 0.5), (1.0, 0.5), (0.5, 0.0), (0.5, 1.0), (-0.1, 0.5), (0.5, 1.1)])
    def test_rejects_boundary_and_outside(self, phi, psi):
        with pytest.raises(ConfigError):
            stationary_distribution(phi, psi)

    @given(
        phi=st.floats(min_value=0.01, max_value=0.99),
        psi=st.floats(min_value=0.01, max_value=0.99),
    )
    @settings(max_examples=100, deadline=None)
    def test_is_fixed_point(self, phi, psi):
        pi = np.array(stationary_distribution(phi, psi))
        p = np.array([[phi, 1.0 - phi], [1.0 - psi, psi]])
        assert np.allclose(pi @ p, pi, atol=1e-12)
        assert pi.sum() == pytest.approx(1.0, abs=1e-12)
        assert (pi >= 0).all()


class TestInitWorld:
    def test_symmetric_initial_availability(self):
        cfg = EnvConfig(n_dispatchers=1, n_servers=1, stay_available=0.5, stay_unavailable=0.5)
        rng = np.random.default_rng(42)
        hits = sum(init_world(cfg, rng).available[0] for _ in range(20000))
        assert hits / 20000 == pytest.approx(0.5, abs=0.01)

    def test_cold_start_knowledge(self):
        cfg = EnvConfig(n_dispatchers=3, n_servers=4)
        world = init_world(cfg, np.random.default_rng(0))
        for snap in (KnowledgeSnapshot.of(world.knowledge, n) for n in range(3)):
            assert snap.aoi == [1, 1, 1, 1]
            assert snap.seen_queue == [0, 0, 0, 0]
            assert snap.seen_available == [True, True, True, True]
        assert all(length == 0 for length in world.length.tolist())
        assert world.slot == 0

    def test_seeded_determinism(self):
        cfg = EnvConfig(n_dispatchers=2, n_servers=3, seed=7)
        w1 = init_world(cfg, np.random.default_rng(7))
        w2 = init_world(cfg, np.random.default_rng(7))
        assert w1.available.tolist() == w2.available.tolist()
        assert w1.arrivals.tolist() == w2.arrivals.tolist()

    def test_stationary_start_matches_chain_law(self):
        cfg = EnvConfig(n_dispatchers=1, n_servers=1, stay_available=0.95, stay_unavailable=0.50)
        rng = np.random.default_rng(3)
        hits = sum(init_world(cfg, rng).available[0] for _ in range(50000))
        assert hits / 50000 == pytest.approx(10 / 11, abs=0.01)


class TestTransitionAvailability:
    @staticmethod
    def chain(phi: float, psi: float, seed: int) -> DispatchEnv:
        """One server with these stay probabilities and no arrivals."""
        return DispatchEnv(EnvConfig(n_dispatchers=1, n_servers=1, arrival_prob=0.0,
                                     stay_available=phi, stay_unavailable=psi, seed=seed))

    @staticmethod
    def step_one(available: bool, env: DispatchEnv) -> bool:
        """The server's availability one slot after starting from ``available``."""
        env.world.available[0] = available
        env.step(JointAction(((False,),), (None,)))
        return bool(env.world.available[0])

    def test_absorbing_limit(self):
        env = self.chain(1.0, 0.5, seed=0)
        assert all(
            self.step_one(True, env) for _ in range(100)
        )

    def test_stay_available_frequency(self):
        env = self.chain(0.95, 0.5, seed=11)
        n = 100_000
        stays = sum(self.step_one(True, env) for _ in range(n))
        assert stays / n == pytest.approx(0.95, abs=0.01)

    def test_long_run_availability_fraction(self):
        # oracle: stationary availability of (0.95, 0.50) is 10/11
        env = self.chain(0.95, 0.50, seed=5)
        state, hits, n = True, 0, 100_000
        for _ in range(n):
            state = self.step_one(state, env)
            hits += state
        assert hits / n == pytest.approx(10 / 11, abs=0.01)


def make_env(cfg: EnvConfig, arrivals, available) -> DispatchEnv:
    """An env whose current slot has these arrivals and server availabilities."""
    env = DispatchEnv(cfg)
    env.world.arrivals = np.array(arrivals)
    env.world.available = np.array(available)
    return env


def idle(cfg: EnvConfig) -> JointAction:
    """No queries and no dispatches."""
    return JointAction([[False] * cfg.n_servers] * cfg.n_dispatchers, [None] * cfg.n_dispatchers)


def fill_queue(world, server: int, owners, start_id: int = 100):
    """Put jobs start_id, start_id + 1, ... of ``owners`` into an empty queue."""
    world.owner[server, : len(owners)] = owners
    world.job[server, : len(owners)] = range(start_id, start_id + len(owners))
    world.length[server] = len(owners)


def queue_ids(world, cfg: EnvConfig, server: int) -> list[int]:
    """Job ids of one queue, oldest first."""
    head, length = int(world.head[server]), int(world.length[server])
    cap = cfg.queue_capacity[server]
    return [int(world.job[server, (head + i) % cap]) for i in range(length)]


class TestApplyDispatches:
    def test_overflow_evicts_oldest_and_naks_its_owner(self):
        cfg = EnvConfig(n_dispatchers=2, n_servers=1, queue_capacity=3, arrival_prob=1.0)
        env = DispatchEnv(cfg)
        world = env.world
        fill_queue(world, 0, owners=[1, 0, 1])  # j100 (owner 1) is the head
        world.arrivals = np.array([True, False])
        world.available[0] = False  # nothing is served: only the dispatch moves the queue
        events = env.step(JointAction(((False,), (False,)), (0, None))).feedback
        assert queue_ids(world, cfg, 0) == [101, 102, 0]
        assert len(events) == 1
        assert events[0].accepted is False
        assert events[0].dispatcher == 1  # owner of the evicted head
        assert events[0].job.id == 100
        assert events[0].reported_queue == 3

    # servers are unavailable below so that only the dispatch moves the queues

    def test_append_to_empty_queue(self):
        cfg = EnvConfig(n_dispatchers=1, n_servers=2, queue_capacity=3, arrival_prob=1.0)
        env = make_env(cfg, arrivals=[True], available=[False, False])
        world = env.world
        events = env.step(JointAction(((False, False),), [1])).naks
        assert events == []
        assert world.length[1] == 1
        assert world.length[0] == 0

    def test_two_dispatchers_same_server_in_index_order(self):
        cfg = EnvConfig(n_dispatchers=2, n_servers=1, queue_capacity=3, arrival_prob=1.0)
        env = make_env(cfg, arrivals=[True, True], available=[False])
        world = env.world
        fill_queue(world, 0, owners=[0, 1])  # length 2 of capacity 3
        events = env.step(JointAction(((False,), (False,)), [0, 0])).naks
        # dispatcher 0 appends cleanly; dispatcher 1 overflows, evicting j100
        assert world.length[0] == 3
        assert len(events) == 1
        dispatcher, _, job_id = events[0]
        assert dispatcher == 0 and job_id == 100
        ids = queue_ids(world, cfg, 0)
        assert ids == [101, 0, 1]  # dispatcher 0's job landed before dispatcher 1's

    def test_drop_newest_rejects_incoming(self):
        cfg = EnvConfig(
            n_dispatchers=1, n_servers=1, queue_capacity=2, arrival_prob=1.0, drop_newest=True
        )
        env = make_env(cfg, arrivals=[True], available=[False])
        world = env.world
        fill_queue(world, 0, owners=[0, 0])
        events = env.step(JointAction(((False,),), [0])).naks
        assert queue_ids(world, cfg, 0) == [100, 101]
        assert len(events) == 1
        dispatcher, _, job_id = events[0]
        assert dispatcher == 0
        assert job_id == 0  # the rejected incoming job

    def test_dispatch_without_arrival_is_a_contract_violation(self):
        cfg = EnvConfig(n_dispatchers=1, n_servers=1, arrival_prob=0.5)
        env = make_env(cfg, arrivals=[False], available=[False])
        with pytest.raises(ContractViolation):
            env.step(JointAction(((False,),), [0]))

    def test_arrival_without_dispatch_is_a_contract_violation(self):
        cfg = EnvConfig(n_dispatchers=1, n_servers=1, arrival_prob=1.0)
        env = make_env(cfg, arrivals=[True], available=[False])
        with pytest.raises(ContractViolation):
            env.step(JointAction(((False,),), [None]))

    def test_bad_target_rejected(self):
        cfg = EnvConfig(n_dispatchers=1, n_servers=2, arrival_prob=1.0)
        env = make_env(cfg, arrivals=[True], available=[False, False])
        with pytest.raises(ContractViolation):
            env.step(JointAction(((False, False),), [5]))


class TestServe:
    # no arrivals below, so only service moves the queues

    def test_available_server_completes_head(self):
        cfg = EnvConfig(n_dispatchers=2, n_servers=1)
        env = make_env(cfg, arrivals=[False, False], available=[True])
        world = env.world
        fill_queue(world, 0, owners=[1, 0])
        events = env.step(idle(cfg)).acks
        assert len(events) == 1
        dispatcher, _, job_id = events[0]
        assert dispatcher == 1 and job_id == 100
        assert queue_ids(world, cfg, 0) == [101]

    def test_unavailable_server_does_nothing(self):
        cfg = EnvConfig(n_dispatchers=1, n_servers=1)
        env = make_env(cfg, arrivals=[False], available=[False])
        world = env.world
        fill_queue(world, 0, owners=[0])
        assert env.step(idle(cfg)).acks == []
        assert world.length[0] == 1

    def test_same_slot_dispatch_then_serve(self):
        # arithmetic: empty queue, one dispatch, available server -> served
        # in the same slot and the queue ends the slot empty again
        cfg = EnvConfig(n_dispatchers=1, n_servers=1, arrival_prob=1.0, stay_available=1.0, stay_unavailable=0.5)
        env = DispatchEnv(cfg)
        env.world.available[0] = True
        outcome = env.step(JointAction(queries=((False,),), dispatch=(0,)))
        assert outcome.completions == (1,)
        assert env.world.length[0] == 0


class TestProcessQueries:
    def test_no_queries_no_responses(self):
        cfg = EnvConfig(n_dispatchers=2, n_servers=3)
        env = DispatchEnv(cfg)
        overlay = env.process_queries([[False] * 3] * 2)
        for answered, stale in zip(overlay, env.knowledge):
            assert np.array_equal(answered, stale)

    def test_response_passes_through_state(self):
        cfg = EnvConfig(n_dispatchers=2, n_servers=4)
        env = DispatchEnv(cfg)
        world = env.world
        world.available[3] = False
        fill_queue(world, 3, owners=[0, 1])
        queries = [[False] * 4, [False, False, False, True]]
        overlay = env.process_queries(queries)
        (answered,) = np.argwhere(overlay.aoi == 0).tolist()
        assert tuple(answered) == (1, 3)
        assert not overlay.seen_available[1, 3]
        assert overlay.seen_queue[1, 3] == 2
        unasked = np.logical_not(queries)
        for plane, before in zip(overlay, env.knowledge):
            assert np.array_equal(plane[unasked], before[unasked])

    def test_all_ones_cardinality(self):
        cfg = EnvConfig(n_dispatchers=3, n_servers=4)
        env = DispatchEnv(cfg)
        overlay = env.process_queries([[True] * 4] * 3)
        assert (overlay.aoi == 0).sum() == 12


class TestUpdateKnowledge:
    def test_query_resets_age(self):
        cfg = EnvConfig(n_dispatchers=1, n_servers=2, arrival_prob=0.0)
        env = DispatchEnv(cfg)
        env.step(JointAction(queries=((True, False),), dispatch=(None,)))
        snap = env.observe(0)
        assert snap.aoi == [1, 2]

    def test_age_grows_without_feedback(self):
        cfg = EnvConfig(n_dispatchers=1, n_servers=1, arrival_prob=0.0)
        env = DispatchEnv(cfg)
        for expected in (2, 3, 4, 5):
            env.step(JointAction(queries=((False,),), dispatch=(None,)))
            assert env.observe(0).aoi == [expected]

    def test_query_wins_over_same_slot_feedback(self):
        # post-service reporting makes the two sources differ: the ACK reports
        # the end-of-slot queue (0), the query the slot-start queue (1)
        cfg = EnvConfig(
            n_dispatchers=1, n_servers=1, arrival_prob=0.0,
            stay_available=1.0, stay_unavailable=0.5, report_post_service=True,
        )
        env = DispatchEnv(cfg)
        env.world.available[0] = True
        fill_queue(env.world, 0, owners=[0])
        outcome = env.step(JointAction(queries=((True,),), dispatch=(None,)))
        assert outcome.completions == (1,)
        snap = env.observe(0)
        assert snap.aoi == [1]
        assert snap.seen_queue == [1]  # query's slot-start value, not the ACK's 0

    def test_feedback_payload_used_when_not_querying(self):
        cfg = EnvConfig(
            n_dispatchers=1, n_servers=1, arrival_prob=0.0,
            stay_available=1.0, stay_unavailable=0.5, report_post_service=True,
        )
        env = DispatchEnv(cfg)
        env.world.available[0] = True
        fill_queue(env.world, 0, owners=[0])
        env.step(JointAction(queries=((False,),), dispatch=(None,)))
        snap = env.observe(0)
        assert snap.aoi == [1]
        assert snap.seen_queue == [0]  # the ACK's post-service value


class TestComputeRewards:
    def test_ack_minus_query_cost(self):
        # dispatcher 0's job 100 completes on server 0
        cfg = EnvConfig(n_dispatchers=1, n_servers=3, query_cost=0.005)
        env = make_env(cfg, arrivals=[False], available=[True, False, False])
        fill_queue(env.world, 0, owners=[0])
        out = env.step(JointAction([[True, True, False]], [None]))
        rewards, completions, drops, queries = (
            out.rewards, out.completions, out.drops, out.queries_issued)
        assert rewards[0] == pytest.approx(0.99, abs=1e-12)
        assert completions == (1,) and drops == (0,) and queries == (2,)

    def test_nothing_happened(self):
        cfg = EnvConfig(n_dispatchers=1, n_servers=2, query_cost=0.1)
        env = make_env(cfg, arrivals=[False], available=[True, True])
        rewards = env.step(idle(cfg)).rewards
        assert rewards == (0.0,)

    def test_nak_contributes_nothing(self):
        # dispatcher 0's job 100 is evicted from the full server 0
        cfg = EnvConfig(n_dispatchers=1, n_servers=1, queue_capacity=1, query_cost=0.1)
        env = make_env(cfg, arrivals=[True], available=[False])
        fill_queue(env.world, 0, owners=[0])
        out = env.step(JointAction([[True]], [0]))
        rewards, completions, drops = out.rewards, out.completions, out.drops
        assert rewards[0] == pytest.approx(-0.1, abs=1e-12)
        assert completions == (0,) and drops == (1,)


class TestStep:
    def test_pending_service_completes(self):
        cfg = EnvConfig(n_dispatchers=2, n_servers=1, arrival_prob=0.0, stay_available=1.0, stay_unavailable=0.5)
        env = DispatchEnv(cfg)
        env.world.available[0] = True
        fill_queue(env.world, 0, owners=[1])
        outcome = env.step(JointAction(queries=((False,), (False,)), dispatch=(None, None)))
        assert outcome.rewards == (0.0, 1.0)
        assert outcome.completions == (0, 1)

    def test_replay_determinism(self):
        cfg = EnvConfig(n_dispatchers=2, n_servers=2, seed=5)
        runs = []
        for _ in range(2):
            env = DispatchEnv(cfg)
            rng = np.random.default_rng(9)
            trace = []
            for _ in range(10):
                queries = tuple(tuple(bool(rng.random() < 0.5) for _ in range(2)) for _ in range(2))
                dispatch = tuple(int(rng.integers(2)) if a else None for a in env.arrivals)
                out = env.step(JointAction(queries=queries, dispatch=dispatch))
                trace.append((out.rewards, out.completions, out.drops, out.arrivals, out.team_reward))
            runs.append(trace)
        assert runs[0] == runs[1]

    def test_saturated_deterministic_pipeline(self):
        # always-available server, arrivals every slot, capacity 1:
        # exactly one completion per slot in steady state
        cfg = EnvConfig(
            n_dispatchers=1, n_servers=1, arrival_prob=1.0,
            stay_available=1.0, stay_unavailable=0.5, queue_capacity=1, horizon=200,
        )
        env = DispatchEnv(cfg)
        total = 0
        for _ in range(100):
            out = env.step(JointAction(queries=((False,),), dispatch=(0,)))
            total += out.completions[0]
            assert env.world.length[0] == 0
        assert total == 100

    def test_slot_start_reporting_by_default(self):
        # by default the ACK payload is the slot-start queue length
        cfg = EnvConfig(n_dispatchers=1, n_servers=1, arrival_prob=0.0, stay_available=1.0, stay_unavailable=0.5)
        env = DispatchEnv(cfg)
        env.world.available[0] = True
        fill_queue(env.world, 0, owners=[0, 0])
        out = env.step(JointAction(queries=((False,),), dispatch=(None,)))
        assert out.feedback[0].reported_queue == 2
        assert env.observe(0).seen_queue == [2]

    def test_team_reward_is_sum(self):
        cfg = EnvConfig(n_dispatchers=3, n_servers=2, seed=1)
        env = DispatchEnv(cfg)
        rng = np.random.default_rng(2)
        for _ in range(50):
            queries = tuple(tuple(bool(rng.random() < 0.4) for _ in range(2)) for _ in range(3))
            dispatch = tuple(int(rng.integers(2)) if a else None for a in env.arrivals)
            out = env.step(JointAction(queries=queries, dispatch=dispatch))
            assert out.team_reward == pytest.approx(sum(out.rewards), abs=1e-12)


class TestActionContract:
    def test_ragged_queries_rejected(self):
        with pytest.raises(ContractViolation):
            JointAction(queries=((True, False), (True,)), dispatch=(None, None))

    @pytest.mark.parametrize("queries,dispatch", [
        (((False,),), (None, None)),  # one query row for two dispatchers
        (((False, False), (False, False)), (None, None)),  # two bits for one server
        (((False,), (False,)), (None,)),  # one dispatch entry for two dispatchers
    ])
    def test_wrong_shapes_rejected(self, queries, dispatch):
        env = DispatchEnv(EnvConfig(n_dispatchers=2, n_servers=1, arrival_prob=0.0))
        with pytest.raises(ContractViolation):
            env.step(JointAction(queries, dispatch))

    @pytest.mark.parametrize("queries", [((False,),), ((False, False), (False, False))])
    def test_wrong_query_shape_rejected_by_process_queries(self, queries):
        env = DispatchEnv(EnvConfig(n_dispatchers=2, n_servers=1))
        with pytest.raises(ContractViolation):
            env.process_queries(queries)

    def test_outcome_keeps_end_of_step_state(self):
        cfg = EnvConfig(n_dispatchers=1, n_servers=1, arrival_prob=1.0, stay_available=1.0,
                        stay_unavailable=0.5, report_post_service=True)
        env = DispatchEnv(cfg)
        first = env.step(JointAction(((True,),), (0,)))
        expected = ([(e.dispatcher, e.job.id, e.reported_queue) for e in first.feedback],
                    first.observations)
        for _ in range(5):
            env.step(JointAction(((False,),), (0,)))
        assert ([(e.dispatcher, e.job.id, e.reported_queue) for e in first.feedback],
                first.observations) == expected
        assert first.observations[0].aoi == [1]

    @pytest.mark.parametrize("target", [np.int64(1), np.int32(1), np.uint8(1)],
                             ids=["int64", "int32", "uint8"])
    def test_numpy_integer_target_accepted(self, target):
        cfg = EnvConfig(n_dispatchers=1, n_servers=2, arrival_prob=1.0, seed=3)
        plain, numpy_int = DispatchEnv(cfg), DispatchEnv(cfg)
        expected = plain.step(JointAction(((False, False),), (1,)))
        got = numpy_int.step(JointAction(((False, False),), (target,)))
        assert (got.completions, got.feedback, got.observations) == (
            expected.completions, expected.feedback, expected.observations)
        assert numpy_int.world.length.tolist() == plain.world.length.tolist()

    @pytest.mark.parametrize("target", [1.0, True, np.float64(1.0), np.bool_(True), "1"],
                             ids=["float", "bool", "float64", "numpy-bool", "str"])
    def test_non_integer_target_rejected_before_anything_moves(self, target):
        cfg = EnvConfig(n_dispatchers=1, n_servers=2, arrival_prob=1.0)
        env = DispatchEnv(cfg)
        with pytest.raises(ContractViolation, match="not an integer"):
            env.step(JointAction(((False, False),), (target,)))
        assert env.world.length.tolist() == [0, 0]
        assert env.world.next_job_id == 0 and env.world.slot == 0


class TestObserve:
    def test_initial_snapshot(self):
        cfg = EnvConfig(n_dispatchers=2, n_servers=3)
        env = DispatchEnv(cfg)
        snap = env.observe(1)
        assert snap.seen_available == [True, True, True]
        assert snap.seen_queue == [0, 0, 0]
        assert snap.aoi == [1, 1, 1]

    def test_snapshot_is_a_copy(self):
        cfg = EnvConfig(n_dispatchers=1, n_servers=1)
        env = DispatchEnv(cfg)
        snap = env.observe(0)
        snap.seen_queue[0] = 99
        assert env.observe(0).seen_queue == [0]

    def test_query_locality(self):
        cfg = EnvConfig(n_dispatchers=2, n_servers=3, arrival_prob=0.0)
        env = DispatchEnv(cfg)
        env.step(JointAction(queries=((False, True, False), (False, False, False)), dispatch=(None, None)))
        snap0, snap1 = env.observe(0), env.observe(1)
        assert snap0.aoi == [2, 1, 2]
        assert snap1.aoi == [2, 2, 2]
        # entries other than the queried one agree
        for k in (0, 2):
            assert snap0.seen_available[k] == snap1.seen_available[k]
            assert snap0.seen_queue[k] == snap1.seen_queue[k]

    def test_bad_index(self):
        cfg = EnvConfig(n_dispatchers=1, n_servers=1)
        env = DispatchEnv(cfg)
        with pytest.raises(ContractViolation):
            env.observe(3)

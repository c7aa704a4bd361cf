"""Ground-truth world simulation for multi-dispatcher job dispatching.

Servers flip between available and unavailable as independent two-state
Markov chains and each keeps a finite FIFO queue. Dispatchers see the world
only through per-server knowledge snapshots: the availability and queue
length from the last time they heard from that server, plus the age (in
slots) of that information. Knowledge refreshes through paid status queries
and through free ACK/NAK job feedback.

Every slot advances through a fixed phase order:

1. queries are answered with slot-start values,
2. dispatched jobs are appended (overflow evicts and NAKs the queue head),
3. each available server with a nonempty queue completes its head job (ACK),
4. rewards are computed (completions minus query costs),
5. knowledge snapshots and ages update from this slot's queries/feedback,
6. server availabilities transition,
7. next-slot arrivals are sampled,
8. the slot counter advances.

The module is a functional core (plain dataclasses mutated by free
functions) wrapped by the stepwise :class:`DispatchEnv`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .config import EnvConfig
from .errors import ConfigError, ContractViolation


@dataclass(frozen=True)
class Job:
    id: int
    owner: int
    dispatch_slot: int


@dataclass
class ServerState:
    available: bool
    queue: deque[Job] = field(default_factory=deque)


@dataclass
class KnowledgeSnapshot:
    """One dispatcher's stale view of every server.

    ``aoi[k]`` is the number of slots since the dispatcher last heard from
    server ``k`` (always >= 1); ``seen_available[k]`` / ``seen_queue[k]`` are
    the values reported back then.
    """

    seen_available: list[bool]
    seen_queue: list[int]
    aoi: list[int]

    def copy(self) -> "KnowledgeSnapshot":
        return KnowledgeSnapshot(
            list(self.seen_available), list(self.seen_queue), list(self.aoi)
        )


@dataclass
class FeedbackEvent:
    """ACK (accepted) or NAK (dropped) for one job, with a status payload."""

    dispatcher: int
    server: int
    job: Job
    accepted: bool
    reported_available: bool
    reported_queue: int


@dataclass(frozen=True)
class QueryResponse:
    dispatcher: int
    server: int
    available: bool
    queue_length: int


@dataclass(frozen=True)
class JointAction:
    """Per-dispatcher query bit-vectors plus an optional dispatch target.

    ``dispatch[n]`` must be a server index exactly when a job arrived at
    dispatcher ``n`` this slot (dispatch on arrival is mandatory) and None
    otherwise.
    """

    queries: tuple[tuple[bool, ...], ...]
    dispatch: tuple[Optional[int], ...]


@dataclass
class WorldState:
    slot: int
    servers: list[ServerState]
    knowledge: list[KnowledgeSnapshot]
    arrivals: list[bool]
    next_job_id: int = 0


@dataclass(frozen=True)
class StepOutcome:
    rewards: tuple[float, ...]
    team_reward: float
    completions: tuple[int, ...]
    drops: tuple[int, ...]
    queries_issued: tuple[int, ...]
    observations: tuple[KnowledgeSnapshot, ...]
    arrivals: tuple[bool, ...]
    feedback: tuple[FeedbackEvent, ...]


def stationary_distribution(stay_available: float, stay_unavailable: float) -> tuple[float, float]:
    """Stationary (available, unavailable) probabilities of one server chain.

    Closed form of pi P = pi for the 2x2 chain with self-transition
    probabilities (stay_available, stay_unavailable); both must lie strictly
    inside (0, 1) so the chain is ergodic.
    """
    if not 0.0 < stay_available < 1.0 or not 0.0 < stay_unavailable < 1.0:
        raise ConfigError("stay probabilities must lie strictly in (0, 1)")
    p_available = (1.0 - stay_unavailable) / (2.0 - stay_available - stay_unavailable)
    return p_available, 1.0 - p_available

def _initial_available_prob(stay_available: float, stay_unavailable: float) -> float:
    # Same closed form, extended continuously to the [0, 1] boundary so
    # degenerate test chains (e.g. always-available) start deterministically.
    denom = 2.0 - stay_available - stay_unavailable
    if denom == 0.0:
        raise ConfigError("chain with stay_available = stay_unavailable = 1 has no unique stationary law")
    return (1.0 - stay_unavailable) / denom


def init_world(config: EnvConfig, rng: np.random.Generator) -> WorldState:
    """Fresh world: availabilities drawn from their stationary laws, queues
    empty, and every dispatcher optimistically believing all servers are
    available and empty with age 1."""
    servers = [
        ServerState(available=rng.random() < _initial_available_prob(phi, psi))
        for phi, psi in zip(config.stay_available, config.stay_unavailable)
    ]
    k = config.n_servers
    knowledge = [
        KnowledgeSnapshot([True] * k, [0] * k, [1] * k)
        for _ in range(config.n_dispatchers)
    ]
    arrivals = [rng.random() < lam for lam in config.arrival_prob]
    return WorldState(slot=0, servers=servers, knowledge=knowledge, arrivals=arrivals)


def transition_availability(
    available: bool, stay_available: float, stay_unavailable: float, rng: np.random.Generator
) -> bool:
    if available:
        return rng.random() < stay_available
    return not (rng.random() < stay_unavailable)


def process_queries(
    world: WorldState, queries: Sequence[Sequence[bool]]
) -> list[QueryResponse]:
    """Answer every set query bit with the server's current availability and
    queue length. Pure read; call before any same-slot mutation so responses
    carry slot-start values."""
    responses = []
    for n, row in enumerate(queries):
        for k, bit in enumerate(row):
            if bit:
                server = world.servers[k]
                responses.append(
                    QueryResponse(n, k, server.available, len(server.queue))
                )
    return responses


def apply_dispatches(
    world: WorldState,
    config: EnvConfig,
    dispatch: Sequence[Optional[int]],
    slot_start: Sequence[tuple[bool, int]],
) -> list[FeedbackEvent]:
    """Append dispatched jobs in ascending dispatcher order.

    An append that would exceed the capacity evicts the queue head and emits
    a NAK to the evicted job's owner (or, with ``drop_newest``, rejects the
    incoming job and NAKs the dispatcher). NAK payloads carry the slot-start
    availability/queue values in ``slot_start``.
    """
    events: list[FeedbackEvent] = []
    for n, target in enumerate(dispatch):
        if target is None:
            if world.arrivals[n]:
                raise ContractViolation(
                    f"dispatcher {n} has an arrival this slot and must dispatch"
                )
            continue
        if not world.arrivals[n]:
            raise ContractViolation(f"dispatcher {n} dispatched without an arrival")
        if not 0 <= target < config.n_servers:
            raise ContractViolation(f"dispatch target {target} out of range")
        job = Job(world.next_job_id, n, world.slot)
        world.next_job_id += 1
        queue = world.servers[target].queue
        reported_available, reported_queue = slot_start[target]
        if len(queue) >= config.queue_capacity[target]:
            if config.drop_newest:
                events.append(
                    FeedbackEvent(n, target, job, False, reported_available, reported_queue)
                )
                continue
            evicted = queue.popleft()
            events.append(
                FeedbackEvent(
                    evicted.owner, target, evicted, False, reported_available, reported_queue
                )
            )
        queue.append(job)
    return events


def serve(
    world: WorldState, slot_start: Sequence[tuple[bool, int]]
) -> list[FeedbackEvent]:
    """Complete the head job of every available server with a nonempty queue,
    emitting an ACK with the slot-start status payload."""
    events: list[FeedbackEvent] = []
    for k, server in enumerate(world.servers):
        if server.available and server.queue:
            job = server.queue.popleft()
            reported_available, reported_queue = slot_start[k]
            events.append(
                FeedbackEvent(job.owner, k, job, True, reported_available, reported_queue)
            )
    return events


def compute_rewards(
    feedback: Sequence[FeedbackEvent],
    queries: Sequence[Sequence[bool]],
    query_cost: float,
    n_dispatchers: int,
) -> tuple[list[float], list[int], list[int], list[int]]:
    """Per-dispatcher reward: completions minus query_cost per issued query.

    Returns (rewards, completions, drops, query counts).
    """
    completions = [0] * n_dispatchers
    drops = [0] * n_dispatchers
    for event in feedback:
        if event.accepted:
            completions[event.dispatcher] += 1
        else:
            drops[event.dispatcher] += 1
    query_counts = [sum(1 for bit in row if bit) for row in queries]
    rewards = [
        completions[n] - query_cost * query_counts[n] for n in range(n_dispatchers)
    ]
    return rewards, completions, drops, query_counts


def update_knowledge(
    world: WorldState,
    feedback: Sequence[FeedbackEvent],
    responses: Sequence[QueryResponse],
    queries: Sequence[Sequence[bool]],
) -> None:
    """End-of-slot knowledge update.

    Any query or feedback from server k resets dispatcher n's age for k to 1
    and overwrites the seen values; otherwise the age grows by one. A query
    response wins over feedback arriving in the same slot (it is an explicit,
    paid update).
    """
    touched: set[tuple[int, int]] = set()
    for event in feedback:
        snap = world.knowledge[event.dispatcher]
        snap.seen_available[event.server] = event.reported_available
        snap.seen_queue[event.server] = event.reported_queue
        touched.add((event.dispatcher, event.server))
    for resp in responses:
        snap = world.knowledge[resp.dispatcher]
        snap.seen_available[resp.server] = resp.available
        snap.seen_queue[resp.server] = resp.queue_length
        touched.add((resp.dispatcher, resp.server))
    for n, snap in enumerate(world.knowledge):
        aoi = snap.aoi
        row = queries[n]
        for k in range(len(aoi)):
            if row[k] or (n, k) in touched:
                aoi[k] = 1
            else:
                aoi[k] += 1


def observe(world: WorldState, dispatcher: int) -> KnowledgeSnapshot:
    """Copy of dispatcher's current knowledge snapshot. Pure read."""
    if not 0 <= dispatcher < len(world.knowledge):
        raise ContractViolation(f"dispatcher index {dispatcher} out of range")
    return world.knowledge[dispatcher].copy()


def _validate_action(world: WorldState, config: EnvConfig, action: JointAction) -> None:
    n, k = config.n_dispatchers, config.n_servers
    if len(action.queries) != n or len(action.dispatch) != n:
        raise ContractViolation(
            f"joint action must cover {n} dispatchers, got "
            f"{len(action.queries)} query rows / {len(action.dispatch)} dispatch entries"
        )
    for row in action.queries:
        if len(row) != k:
            raise ContractViolation(f"query rows must have {k} entries, got {len(row)}")


def step(
    world: WorldState, config: EnvConfig, action: JointAction, rng: np.random.Generator
) -> StepOutcome:
    """Advance the world one slot through the fixed phase order."""
    _validate_action(world, config, action)
    slot_start = [(s.available, len(s.queue)) for s in world.servers]

    responses = process_queries(world, action.queries)
    events = apply_dispatches(world, config, action.dispatch, slot_start)
    events.extend(serve(world, slot_start))
    if config.report_post_service:
        for event in events:
            event.reported_queue = len(world.servers[event.server].queue)

    rewards, completions, drops, query_counts = compute_rewards(
        events, action.queries, config.query_cost, config.n_dispatchers
    )
    update_knowledge(world, events, responses, action.queries)

    for k, server in enumerate(world.servers):
        server.available = transition_availability(
            server.available, config.stay_available[k], config.stay_unavailable[k], rng
        )
    world.arrivals = [rng.random() < lam for lam in config.arrival_prob]
    world.slot += 1

    return StepOutcome(
        rewards=tuple(rewards),
        team_reward=sum(rewards),
        completions=tuple(completions),
        drops=tuple(drops),
        queries_issued=tuple(query_counts),
        observations=tuple(observe(world, n) for n in range(config.n_dispatchers)),
        arrivals=tuple(world.arrivals),
        feedback=tuple(events),
    )


class DispatchEnv:
    """Seeded, stepwise wrapper around the functional world core.

    One instance is single-threaded; run independent instances (distinct
    seeds) for parallelism. The env owns its RNG: identical seed and action
    sequence replay to an identical trajectory.
    """

    def __init__(self, config: EnvConfig):
        self.config = config
        self._rng = np.random.default_rng(config.seed)
        self.world = init_world(config, self._rng)

    def reset(self, seed: Optional[int] = None) -> tuple[KnowledgeSnapshot, ...]:
        """Start a new episode. Without a seed the existing RNG stream
        continues, so consecutive episodes differ but reproducibly."""
        if seed is not None:
            self._rng = np.random.default_rng(seed)
        self.world = init_world(self.config, self._rng)
        return tuple(observe(self.world, n) for n in range(self.config.n_dispatchers))

    def step(self, action: JointAction) -> StepOutcome:
        return step(self.world, self.config, action, self._rng)

    def observe(self, dispatcher: int) -> KnowledgeSnapshot:
        return observe(self.world, dispatcher)

    def process_queries(self, queries: Sequence[Sequence[bool]]) -> list[QueryResponse]:
        return process_queries(self.world, queries)

    @property
    def slot(self) -> int:
        return self.world.slot

    @property
    def arrivals(self) -> list[bool]:
        return self.world.arrivals

    @property
    def done(self) -> bool:
        """Episode truncation: the configured horizon has been reached."""
        return self.world.slot >= self.config.horizon

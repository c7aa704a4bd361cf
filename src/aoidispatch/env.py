"""Ground-truth world simulation for multi-dispatcher job dispatching.

Servers flip between available and unavailable as independent two-state
Markov chains and each keeps a finite FIFO queue. Dispatchers see the world
only through their knowledge: the availability and queue length from the
last time they heard from each server, plus the age (in slots) of that
information. Knowledge refreshes through paid status queries and through
free ACK/NAK job feedback.

Every slot advances through a fixed phase order:

1. queries are answered with slot-start values,
2. dispatched jobs are appended (overflow evicts and NAKs the queue head),
3. each available server with a nonempty queue completes its head job (ACK),
4. rewards are computed (completions minus query costs),
5. knowledge and ages update from this slot's queries/feedback,
6. server availabilities transition,
7. next-slot arrivals are sampled,
8. the slot counter advances.

The world of one environment is a struct of numpy arrays (see
:class:`WorldState`), advanced by one free function per phase; the seeded
:class:`DispatchEnv` runs them in order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .config import EnvConfig
from .errors import ConfigError, ContractViolation

# one ACK or NAK: (dispatcher the job belongs to, server, job id)
Event = tuple[int, int, int]


@dataclass(frozen=True)
class Job:
    id: int
    owner: int


class Knowledge(NamedTuple):
    """Every dispatcher's stale view of every server, as read-only
    ``(n_dispatchers, n_servers)`` arrays.

    ``aoi[n, k]`` is the number of slots since dispatcher ``n`` last heard
    from server ``k`` (always >= 1); ``seen_available`` / ``seen_queue`` are
    the values reported back then.
    """

    seen_available: np.ndarray
    seen_queue: np.ndarray
    aoi: np.ndarray


@dataclass
class KnowledgeSnapshot:
    """One dispatcher's row of :class:`Knowledge`, copied into lists."""

    seen_available: list[bool]
    seen_queue: list[int]
    aoi: list[int]

    @classmethod
    def of(cls, knowledge: Knowledge, dispatcher: int) -> "KnowledgeSnapshot":
        return cls(*(field[dispatcher].tolist() for field in knowledge))


@dataclass
class FeedbackEvent:
    """ACK (accepted) or NAK (dropped) for one job, with a status payload."""

    dispatcher: int
    server: int
    job: Job
    accepted: bool
    reported_available: bool
    reported_queue: int


class QueryResponses(NamedTuple):
    """Answers to one slot's queries, ``(n_dispatchers, n_servers)`` each.

    Where dispatcher ``n`` queried server ``k``, the server's slot-start
    availability and queue length; elsewhere False and -1.
    """

    available: np.ndarray
    queue_length: np.ndarray


@dataclass(frozen=True)
class JointAction:
    """Per-dispatcher query bits plus an optional dispatch target.

    ``queries`` is given as ``(n_dispatchers, n_servers)`` array-like bits
    and kept as a bool array. ``dispatch[n]`` must be a server index exactly
    when a job arrived at dispatcher ``n`` this slot (dispatch on arrival is
    mandatory) and None otherwise.
    """

    queries: np.ndarray
    dispatch: tuple[Optional[int], ...]

    def __post_init__(self) -> None:
        try:
            object.__setattr__(self, "queries", np.asarray(self.queries, dtype=bool))
        except (TypeError, ValueError) as exc:
            raise ContractViolation("query rows must all have the same number of entries") from exc


def dispatch_targets(dispatch: np.ndarray) -> tuple[Optional[int], ...]:
    """:attr:`JointAction.dispatch` from an int array with -1 for "no job"."""
    return tuple(None if d < 0 else d for d in dispatch.tolist())


@dataclass
class WorldState:
    """True state of one environment.

    Queue ``k`` is a ring buffer: its jobs sit at positions ``head[k]``,
    ``head[k] + 1``, ... (mod ``queue_capacity[k]``) of row ``k`` of
    ``owner`` (dispatcher the job belongs to) and ``job`` (job id), oldest
    first, ``length[k]`` of them. ``knowledge`` arrays are replaced, never
    written, by each step.
    """

    slot: int
    available: np.ndarray  # (K,) bool
    owner: np.ndarray  # (K, C) int64, C = max queue capacity
    job: np.ndarray  # (K, C) int64
    head: np.ndarray  # (K,) int64
    length: np.ndarray  # (K,) int64
    knowledge: Knowledge  # (N, K) each
    arrivals: np.ndarray  # (N,) bool
    next_job_id: int = 0


@dataclass
class StepOutcome:
    """What one slot did. ``feedback`` and ``observations`` are built from
    the step's end state when read."""

    rewards: tuple[float, ...]
    team_reward: float
    completions: tuple[int, ...]
    drops: tuple[int, ...]
    queries_issued: tuple[int, ...]
    arrivals: tuple[bool, ...]
    knowledge: Knowledge  # end-of-step knowledge
    naks: list[Event]
    acks: list[Event]
    reported_available: np.ndarray  # (K,) status payload of this slot's feedback
    reported_queue: np.ndarray  # (K,)

    @property
    def observations(self) -> tuple[KnowledgeSnapshot, ...]:
        return tuple(
            KnowledgeSnapshot.of(self.knowledge, n) for n in range(len(self.knowledge.aoi))
        )

    @property
    def feedback(self) -> tuple[FeedbackEvent, ...]:
        """NAKs in dispatch order, then ACKs in server order."""
        available, queue = self.reported_available.tolist(), self.reported_queue.tolist()
        return tuple(
            FeedbackEvent(owner, server, Job(job, owner), accepted, available[server], queue[server])
            for events, accepted in ((self.naks, False), (self.acks, True))
            for owner, server, job in events
        )


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


def _read_only(knowledge: Knowledge) -> Knowledge:
    for a in knowledge:
        a.setflags(write=False)
    return knowledge


def init_world(config: EnvConfig, rng: np.random.Generator) -> WorldState:
    """Fresh world: availabilities drawn from their stationary laws, queues
    empty, and every dispatcher optimistically believing all servers are
    available and empty with age 1."""
    n, k = config.n_dispatchers, config.n_servers
    # stationary law, extended continuously to the [0, 1] boundary (EnvConfig rejects
    # both stay probabilities 1) so degenerate test chains start deterministically
    p_available = [
        (1.0 - psi) / (2.0 - phi - psi)
        for phi, psi in zip(config.stay_available, config.stay_unavailable)
    ]
    available = rng.random(k) < p_available
    knowledge = _read_only(Knowledge(
        np.ones((n, k), dtype=bool), np.zeros((n, k), dtype=np.int64), np.ones((n, k), dtype=np.int64)
    ))
    slots = max(config.queue_capacity)
    return WorldState(
        slot=0,
        available=available,
        owner=np.zeros((k, slots), dtype=np.int64),
        job=np.zeros((k, slots), dtype=np.int64),
        head=np.zeros(k, dtype=np.int64),
        length=np.zeros(k, dtype=np.int64),
        knowledge=knowledge,
        arrivals=rng.random(n) < config.arrival_prob,
    )


def transition_availability(
    available: np.ndarray, stay_available: Sequence[float], stay_unavailable: Sequence[float],
    uniforms: Sequence[float],
) -> np.ndarray:
    """Next availability of each server from one uniform draw per server."""
    # a comprehension beats three numpy calls on a handful of servers
    return np.array([
        u < phi if up else u >= psi
        for u, up, phi, psi in zip(uniforms, available.tolist(), stay_available, stay_unavailable)
    ])


def process_queries(world: WorldState, queries) -> QueryResponses:
    """Answer every set query bit with the server's current availability and
    queue length. Pure read; call before any same-slot mutation so responses
    carry slot-start values."""
    queries = np.asarray(queries, dtype=bool)
    if queries.shape != world.knowledge.aoi.shape:
        raise ContractViolation(f"query bits must have shape {world.knowledge.aoi.shape}, got {queries.shape}")
    return QueryResponses(queries & world.available, np.where(queries, world.length, -1))


def apply_dispatches(
    world: WorldState, config: EnvConfig, dispatch: Sequence[Optional[int]]
) -> list[Event]:
    """Append dispatched jobs in ascending dispatcher order.

    An append that would exceed the capacity evicts the queue head and NAKs
    the evicted job's owner (or, with ``drop_newest``, rejects the incoming
    job and NAKs the dispatcher). Returns the NAKs in emission order. The
    dispatch is checked against the arrivals before anything moves.
    """
    arrived = world.arrivals.tolist()
    if [target is not None for target in dispatch] != arrived:
        n = next(n for n, target in enumerate(dispatch) if (target is not None) != arrived[n])
        raise ContractViolation(f"dispatcher {n} " + (
            "has an arrival this slot and must dispatch" if arrived[n] else "dispatched without an arrival"
        ))
    for target in dispatch:
        if target is not None and not 0 <= target < config.n_servers:
            raise ContractViolation(f"dispatch target {target} out of range")
    capacity, head, length = config.queue_capacity, world.head, world.length
    owner, job = world.owner, world.job
    naks: list[Event] = []
    for n, target in enumerate(dispatch):
        if target is None:
            continue
        job_id = world.next_job_id
        world.next_job_id += 1
        cap, h, size = capacity[target], int(head[target]), int(length[target])
        if size >= cap:
            if config.drop_newest:
                naks.append((n, target, job_id))
                continue
            naks.append((int(owner[target, h]), target, int(job[target, h])))
            h = head[target] = (h + 1) % cap
            size -= 1
        tail = (h + size) % cap
        owner[target, tail] = n
        job[target, tail] = job_id
        length[target] = size + 1
    return naks


def serve(world: WorldState, config: EnvConfig) -> list[Event]:
    """Complete the head job of every available server with a nonempty
    queue; returns the ACKs in server order."""
    acks: list[Event] = []
    for k, (available, size) in enumerate(zip(world.available.tolist(), world.length.tolist())):
        if available and size:
            h = int(world.head[k])
            acks.append((int(world.owner[k, h]), k, int(world.job[k, h])))
            world.head[k] = (h + 1) % config.queue_capacity[k]
            world.length[k] = size - 1
    return acks


def compute_rewards(
    naks: Sequence[Event], acks: Sequence[Event], queries, query_cost: float, n_dispatchers: int
) -> tuple[list[float], list[int], list[int], list[int]]:
    """Per-dispatcher reward: completions minus query_cost per issued query.

    Returns (rewards, completions, drops, query counts).
    """
    completions = [0] * n_dispatchers
    drops = [0] * n_dispatchers
    for owner, _, _ in acks:
        completions[owner] += 1
    for owner, _, _ in naks:
        drops[owner] += 1
    query_counts = [row.count(True) for row in np.asarray(queries).tolist()]
    rewards = [c - query_cost * q for c, q in zip(completions, query_counts)]
    return rewards, completions, drops, query_counts


def update_knowledge(
    world: WorldState, queries: np.ndarray, events: Sequence[Event],
    available: np.ndarray, queue: np.ndarray, reported_queue: np.ndarray,
) -> None:
    """End-of-slot knowledge update.

    Any query or feedback from server k resets dispatcher n's age for k to 1
    and overwrites the seen values with the slot-start ``available`` and,
    for a query, the slot-start ``queue``, for feedback ``reported_queue``;
    otherwise the age grows by one. A query response wins over feedback
    arriving in the same slot (it is an explicit, paid update).
    """
    heard = queries.copy()
    for owner, server, _ in events:
        heard[owner, server] = True
    old = world.knowledge
    seen_queue = np.where(heard, reported_queue, old.seen_queue)
    if reported_queue is not queue:
        seen_queue = np.where(queries, queue, seen_queue)
    aoi = old.aoi + 1
    aoi[heard] = 1
    world.knowledge = _read_only(
        Knowledge(np.where(heard, available, old.seen_available), seen_queue, aoi)
    )


class DispatchEnv:
    """Seeded, stepwise runner of the slot phases on one world.

    One instance is single-threaded; run independent instances (distinct
    seeds) for parallelism. The env owns its RNG: identical seed and action
    sequence replay to an identical trajectory.
    """

    def __init__(self, config: EnvConfig):
        self.config = config
        self._arrival_prob = np.array(config.arrival_prob)
        self._rng = np.random.default_rng(config.seed)
        self.world = init_world(config, self._rng)

    def reset(self, seed: Optional[int] = None) -> Knowledge:
        """Start a new episode and return its knowledge. Without a seed the
        existing RNG stream continues, so consecutive episodes differ but
        reproducibly."""
        if seed is not None:
            self._rng = np.random.default_rng(seed)
        self.world = init_world(self.config, self._rng)
        return self.world.knowledge

    def step(self, action: JointAction) -> StepOutcome:
        """Advance the world one slot through the fixed phase order."""
        world, cfg = self.world, self.config
        queries = action.queries
        if queries.shape != (cfg.n_dispatchers, cfg.n_servers) or len(action.dispatch) != cfg.n_dispatchers:
            raise ContractViolation(
                f"joint action must cover {cfg.n_dispatchers} dispatchers x {cfg.n_servers} servers, "
                f"got query bits of shape {queries.shape} and {len(action.dispatch)} dispatch entries"
            )
        available, queue = world.available, world.length.copy()

        naks = apply_dispatches(world, cfg, action.dispatch)
        acks = serve(world, cfg)
        reported = world.length.copy() if cfg.report_post_service else queue

        rewards, completions, drops, query_counts = compute_rewards(
            naks, acks, queries, cfg.query_cost, cfg.n_dispatchers
        )
        update_knowledge(world, queries, naks + acks, available, queue, reported)

        # one draw per server, then one per dispatcher, in that order
        u = self._rng.random(cfg.n_servers + cfg.n_dispatchers)
        world.available = transition_availability(
            available, cfg.stay_available, cfg.stay_unavailable, u[: cfg.n_servers].tolist()
        )
        world.arrivals = u[cfg.n_servers :] < self._arrival_prob
        world.slot += 1

        return StepOutcome(
            rewards=tuple(rewards), team_reward=sum(rewards), completions=tuple(completions),
            drops=tuple(drops), queries_issued=tuple(query_counts),
            arrivals=tuple(world.arrivals.tolist()), knowledge=world.knowledge,
            naks=naks, acks=acks, reported_available=available, reported_queue=reported,
        )

    @property
    def knowledge(self) -> Knowledge:
        """Every dispatcher's knowledge (read-only arrays): all a policy may
        read of the world besides its own query responses."""
        return self.world.knowledge

    def observe(self, dispatcher: int) -> KnowledgeSnapshot:
        """Copy of one dispatcher's current knowledge. Pure read."""
        if not 0 <= dispatcher < self.config.n_dispatchers:
            raise ContractViolation(f"dispatcher index {dispatcher} out of range")
        return KnowledgeSnapshot.of(self.world.knowledge, dispatcher)

    def process_queries(self, queries) -> QueryResponses:
        return process_queries(self.world, queries)

    @property
    def slot(self) -> int:
        return self.world.slot

    @property
    def arrivals(self) -> np.ndarray:
        return self.world.arrivals

    @property
    def done(self) -> bool:
        """Episode truncation: the configured horizon has been reached."""
        return self.world.slot >= self.config.horizon

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
:class:`WorldState`). :meth:`DispatchEnv.step` runs all phases in one pass:
it checks the whole action first, reads the queue arrays once into Python
ints and writes back only the entries that move. Per slot it allocates one
new knowledge array, one mask of the entries heard from, and one array for
the next availabilities and arrivals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .config import EnvConfig
from .errors import ConfigError, ContractViolation

# one ACK or NAK: (dispatcher the job belongs to, server, job id)
Event = tuple[int, int, int]

# added to the knowledge planes each slot: every age grows by one
_AGE_STEP = np.array([0, 0, 1]).reshape(3, 1, 1)


@dataclass(frozen=True)
class Job:
    id: int
    owner: int


class Knowledge(NamedTuple):
    """Every dispatcher's view of every server, as read-only
    ``(n_dispatchers, n_servers)`` arrays.

    ``aoi[n, k]`` is the number of slots since dispatcher ``n`` last heard
    from server ``k``; ``seen_available`` (0/1) / ``seen_queue`` are the
    values reported back then. In :attr:`DispatchEnv.knowledge` every age is
    >= 1. In the overlay :meth:`DispatchEnv.process_queries` returns, an
    entry queried this slot holds the slot-start values at age 0.
    """

    seen_available: np.ndarray
    seen_queue: np.ndarray
    aoi: np.ndarray


def _knowledge(planes: np.ndarray) -> Knowledge:
    """Views of one (3, N, K) knowledge array (see :attr:`WorldState.planes`)."""
    return Knowledge(planes[0], planes[1], planes[2])


@dataclass
class KnowledgeSnapshot:
    """One dispatcher's row of :class:`Knowledge`, copied into lists."""

    seen_available: list[bool]
    seen_queue: list[int]
    aoi: list[int]

    @classmethod
    def of(cls, knowledge: Knowledge, dispatcher: int) -> "KnowledgeSnapshot":
        available, queue, aoi = (field[dispatcher] for field in knowledge)
        return cls(available.astype(bool).tolist(), queue.tolist(), aoi.tolist())


@dataclass
class FeedbackEvent:
    """ACK (accepted) or NAK (dropped) for one job, with a status payload."""

    dispatcher: int
    server: int
    job: Job
    accepted: bool
    reported_available: bool
    reported_queue: int


class JointAction:
    """Per-dispatcher query bits plus an optional dispatch target.

    ``queries`` is given as ``(n_dispatchers, n_servers)`` array-like bits
    and kept as a bool array. ``dispatch[n]`` must be an integer server
    index exactly when a job arrived at dispatcher ``n`` this slot (dispatch
    on arrival is mandatory) and None otherwise.
    """

    __slots__ = ("queries", "dispatch")

    def __init__(self, queries, dispatch: Sequence[Optional[int]]):
        try:
            self.queries = np.asarray(queries, dtype=bool)
        except (TypeError, ValueError) as exc:
            raise ContractViolation("query rows must all have the same number of entries") from exc
        self.dispatch = dispatch


def dispatch_targets(dispatch: np.ndarray) -> tuple[Optional[int], ...]:
    """:attr:`JointAction.dispatch` from an int array with -1 for "no job"."""
    return tuple([None if d < 0 else d for d in dispatch.tolist()])


@dataclass
class WorldState:
    """True state of one environment.

    Queue ``k`` is a ring buffer: its jobs sit at positions ``head[k]``,
    ``head[k] + 1``, ... (mod ``queue_capacity[k]``) of row ``k`` of
    ``owner`` (dispatcher the job belongs to) and ``job`` (job id), oldest
    first, ``length[k]`` of them. ``planes`` holds the three
    :class:`Knowledge` arrays in one read-only array, which each step
    replaces, never writes.
    """

    slot: int
    available: np.ndarray  # (K,) bool
    owner: np.ndarray  # (K, C) int64, C = max queue capacity
    job: np.ndarray  # (K, C) int64
    head: np.ndarray  # (K,) int64
    length: np.ndarray  # (K,) int64
    planes: np.ndarray  # (3, N, K) int64: seen_available, seen_queue, aoi
    arrivals: np.ndarray  # (N,) bool
    next_job_id: int = 0

    @property
    def knowledge(self) -> Knowledge:
        return _knowledge(self.planes)


@dataclass(slots=True)
class StepOutcome:
    """What one slot did, and its slot-start ``start_planes``, ``start_queue``
    and availability (``reported_available``). ``knowledge``, ``feedback``
    and ``observations`` are built from the step's end state when read."""

    slot: int
    rewards: tuple[float, ...]
    team_reward: float
    completions: tuple[int, ...]
    drops: tuple[int, ...]
    queries_issued: tuple[int, ...]
    arrivals: tuple[bool, ...]  # (N,) the next slot's
    start_planes: np.ndarray  # (3, N, K), see WorldState.planes
    planes: np.ndarray  # end-of-step knowledge
    naks: list[Event]
    acks: list[Event]
    start_queue: list[int]  # (K,) queue lengths
    reported_available: list[bool]  # (K,) status payload of this slot's feedback
    reported_queue: list[int]  # (K,)

    @property
    def knowledge(self) -> Knowledge:
        return _knowledge(self.planes)

    @property
    def observations(self) -> tuple[KnowledgeSnapshot, ...]:
        knowledge = self.knowledge
        return tuple(KnowledgeSnapshot.of(knowledge, n) for n in range(len(knowledge.aoi)))

    @property
    def feedback(self) -> tuple[FeedbackEvent, ...]:
        """NAKs in dispatch order, then ACKs in server order."""
        available, queue = self.reported_available, self.reported_queue
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
    planes = np.zeros((3, n, k), dtype=np.int64)
    planes[0] = planes[2] = 1
    planes.setflags(write=False)
    slots = max(config.queue_capacity)
    return WorldState(
        slot=0,
        available=available,
        owner=np.zeros((k, slots), dtype=np.int64),
        job=np.zeros((k, slots), dtype=np.int64),
        head=np.zeros(k, dtype=np.int64),
        length=np.zeros(k, dtype=np.int64),
        planes=planes,
        arrivals=rng.random(n) < config.arrival_prob,
    )


class DispatchEnv:
    """Seeded, stepwise runner of the slot phases on one world.

    One instance is single-threaded; run independent instances (distinct
    seeds) for parallelism. The env owns its RNG: identical seed and action
    sequence replay to an identical trajectory.
    """

    def __init__(self, config: EnvConfig):
        self.config = config
        self._shape = (config.n_dispatchers, config.n_servers)
        # the per-server values knowledge takes where a dispatcher heard from
        # a server this slot: slot-start availability, reported queue, age 1
        self._fresh = np.ones((3, 1, config.n_servers), dtype=np.int64)
        # the same at age 0: what a query answers before the slot moves
        self._answers = np.zeros((3, 1, config.n_servers), dtype=np.int64)
        # draw thresholds, servers then dispatchers: a server that is up stays
        # up below stay_available, one that is down comes up at or above
        # stay_unavailable; a dispatcher, counted as up, gets a job below
        # arrival_prob
        self._thresholds = (
            config.stay_available + config.arrival_prob,
            config.stay_unavailable + (0.0,) * config.n_dispatchers,
        )
        self._dispatchers_up = [True] * config.n_dispatchers
        self._rng = np.random.default_rng(config.seed)
        self.world = init_world(config, self._rng)

    def reset(self) -> Knowledge:
        """Start a new episode and return its knowledge. The env's RNG stream
        continues, so consecutive episodes differ but reproducibly."""
        self.world = init_world(self.config, self._rng)
        return self.world.knowledge

    def step(self, action: JointAction) -> StepOutcome:
        """Advance the world one slot through the fixed phase order.

        The whole action is checked before anything moves. Dispatches are
        appended in ascending dispatcher order: an append that would exceed
        the capacity evicts the queue head and NAKs the evicted job's owner
        (or, with ``drop_newest``, rejects the incoming job and NAKs the
        dispatcher). Then every available server with a nonempty queue
        completes its head job (ACK). Any query or feedback from server k
        resets dispatcher n's age for k to 1 and overwrites the seen values
        with the slot-start availability and, for a query, the slot-start
        queue, for feedback the reported one; a query wins over feedback in
        the same slot. Otherwise the age grows by one.
        """
        world, cfg = self.world, self.config
        queries, dispatch = action.queries, action.dispatch
        n_dispatchers, n_servers = self._shape
        if queries.shape != self._shape or len(dispatch) != n_dispatchers:
            raise ContractViolation(
                f"joint action must cover {n_dispatchers} dispatchers x {n_servers} servers, "
                f"got query bits of shape {queries.shape} and {len(dispatch)} dispatch entries"
            )
        arrived = world.arrivals.tolist()
        moves: list[tuple[int, int]] = []  # (dispatcher, server), ascending dispatcher
        for n, target in enumerate(dispatch):
            if (target is not None) != arrived[n]:
                raise ContractViolation(f"dispatcher {n} " + (
                    "has an arrival this slot and must dispatch" if arrived[n]
                    else "dispatched without an arrival"
                ))
            if target is None:
                continue
            if type(target) is not int:
                if isinstance(target, (bool, np.bool_)) or not isinstance(target, (int, np.integer)):
                    raise ContractViolation(f"dispatch target {target!r} is not an integer")
                target = int(target)
            if not 0 <= target < n_servers:
                raise ContractViolation(f"dispatch target {target} out of range")
            moves.append((n, target))

        # phase 1: slot-start values, for queries and feedback payloads
        available, length_arr, head_arr = world.available, world.length, world.head
        start_planes = world.planes
        fresh = self._fresh
        fresh[0, 0] = available
        fresh[1, 0] = length_arr
        up = available.tolist()
        queue = length_arr.tolist()
        length, head = queue.copy(), head_arr.tolist()
        capacity, owner, job = cfg.queue_capacity, world.owner, world.job
        completions = [0] * n_dispatchers
        drops = [0] * n_dispatchers

        # phase 2: dispatch
        naks: list[Event] = []
        job_id = world.next_job_id
        for n, target in moves:
            cap, h, size = capacity[target], head[target], length[target]
            if size >= cap:
                if cfg.drop_newest:
                    naks.append((n, target, job_id))
                    drops[n] += 1
                    job_id += 1
                    continue
                evicted = owner.item(target, h)
                naks.append((evicted, target, job.item(target, h)))
                drops[evicted] += 1
                h = head[target] = head_arr[target] = (h + 1) % cap
                size -= 1
            tail = (h + size) % cap
            owner[target, tail] = n
            job[target, tail] = job_id
            job_id += 1
            length[target] = length_arr[target] = size + 1
        world.next_job_id = job_id

        # phase 3: service
        acks: list[Event] = []
        for k, size in enumerate(length):
            if size and up[k]:
                h = head[k]
                done = owner.item(k, h)
                acks.append((done, k, job.item(k, h)))
                completions[done] += 1
                head_arr[k] = (h + 1) % capacity[k]
                length_arr[k] = size - 1
        if cfg.report_post_service:
            reported = length_arr.tolist()
            fresh[1, 0] = length_arr
        else:
            reported = queue

        # phase 4: rewards
        query_counts = [row.count(True) for row in queries.tolist()]
        rewards = [c - cfg.query_cost * q for c, q in zip(completions, query_counts)]

        # phase 5: knowledge; where a query and a post-service report meet,
        # the query's slot-start queue wins
        planes = start_planes + _AGE_STEP
        heard = queries.copy()
        for owner_n, server, _ in naks + acks:
            heard[owner_n, server] = True
        np.copyto(planes, fresh, where=heard)
        if reported is not queue:
            np.copyto(planes[1], queue, where=queries)
        planes.setflags(write=False)
        world.planes = planes

        # phases 6 and 7: one draw per server, then one per dispatcher
        u = self._rng.random(n_servers + n_dispatchers).tolist()
        below, at_or_above = self._thresholds
        drawn = [
            x < b if a else x >= c
            for x, a, b, c in zip(u, up + self._dispatchers_up, below, at_or_above)
        ]
        arrivals = drawn[n_servers:]
        drawn = np.array(drawn)
        world.available, world.arrivals = drawn[:n_servers], drawn[n_servers:]
        world.slot += 1

        return StepOutcome(
            world.slot - 1, tuple(rewards), sum(rewards), tuple(completions), tuple(drops),
            tuple(query_counts), tuple(arrivals), start_planes, planes, naks, acks, queue, up, reported,
        )

    @property
    def knowledge(self) -> Knowledge:
        """Every dispatcher's knowledge (read-only arrays): all a policy may
        read of the world besides the answers to its own queries (see
        :meth:`process_queries`)."""
        return self.world.knowledge

    def observe(self, dispatcher: int) -> KnowledgeSnapshot:
        """Copy of one dispatcher's current knowledge. Pure read."""
        if not 0 <= dispatcher < self.config.n_dispatchers:
            raise ContractViolation(f"dispatcher index {dispatcher} out of range")
        return KnowledgeSnapshot.of(self.world.knowledge, dispatcher)

    def process_queries(self, queries) -> Knowledge:
        """:attr:`knowledge` with every entry whose query bit is set replaced
        by the server's current availability and queue length at age 0.
        Pure read; call before :meth:`step` so the answers carry slot-start
        values."""
        queries = np.asarray(queries, dtype=bool)
        if queries.shape != self._shape:
            raise ContractViolation(f"query bits must have shape {self._shape}, got {queries.shape}")
        world, answers = self.world, self._answers
        answers[0, 0] = world.available
        answers[1, 0] = world.length
        planes = np.where(queries, answers, world.planes)
        planes.setflags(write=False)
        return _knowledge(planes)

    @property
    def arrivals(self) -> np.ndarray:
        return self.world.arrivals

    @property
    def done(self) -> bool:
        """Episode truncation: the configured horizon has been reached."""
        return self.world.slot >= self.config.horizon

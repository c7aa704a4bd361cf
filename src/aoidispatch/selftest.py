"""Built-in invariant and oracle checks behind the ``selftest`` CLI verb.

A fast, self-contained slice of the verification suite: simulation
invariants on randomized runs, the closed-form stationary distribution
against a linear solve, analytic gradients against finite differences, and
the first-update ratio identity. The pytest suite runs deeper versions of
the same checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import EnvConfig, TrainConfig
from .env import DispatchEnv, JointAction, stationary_distribution
from .mappo import Trainer
from .nn import DenseNet, PolicyHeads, finite_difference_gradients


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def random_joint_action(
    env: DispatchEnv, rng: np.random.Generator, query_prob: float = 0.3
) -> JointAction:
    """Contract-respecting random action: random query bits, a uniform
    dispatch target exactly where a job arrived."""
    cfg = env.config
    queries = rng.random((cfg.n_dispatchers, cfg.n_servers)) < query_prob
    dispatch = tuple(
        int(rng.integers(cfg.n_servers)) if arrived else None
        for arrived in env.arrivals
    )
    return JointAction(queries=queries, dispatch=dispatch)


def random_env_config(rng: np.random.Generator) -> EnvConfig:
    n = int(rng.integers(1, 5))
    k = int(rng.integers(1, 6))
    return EnvConfig(
        n_dispatchers=n,
        n_servers=k,
        arrival_prob=[float(rng.uniform(0.0, 1.0)) for _ in range(n)],
        stay_available=[float(rng.uniform(0.05, 0.95)) for _ in range(k)],
        stay_unavailable=[float(rng.uniform(0.05, 0.95)) for _ in range(k)],
        queue_capacity=[int(rng.integers(1, 5)) for _ in range(k)],
        query_cost=float(rng.uniform(0.0, 0.2)),
        horizon=int(rng.integers(50, 200)),
        seed=int(rng.integers(2**31)),
    )


def check_environment_invariants(
    seed: int = 0, n_configs: int = 10, steps_per_config: int = 400
) -> CheckResult:
    """Queue bounds, age dynamics, reward decomposition, single completion
    per server per slot, and per-episode job conservation under random
    actions."""
    rng = np.random.default_rng(seed)
    problems: list[str] = []
    total_steps = 0
    for _ in range(n_configs):
        cfg = random_env_config(rng)
        env = DispatchEnv(cfg)
        dispatched = completed = dropped = 0
        prev_aoi = [list(env.observe(n).aoi) for n in range(cfg.n_dispatchers)]
        for _ in range(steps_per_config):
            action = random_joint_action(env, rng)
            fed_from = {
                (n, k)
                for n in range(cfg.n_dispatchers)
                for k in range(cfg.n_servers)
                if action.queries[n][k]
            }
            outcome = env.step(action)
            total_steps += 1
            for event in outcome.feedback:
                fed_from.add((event.dispatcher, event.server))
            for k, length in enumerate(env.world.length.tolist()):
                if not 0 <= length <= cfg.queue_capacity[k]:
                    problems.append(f"queue bound violated at server {k}")
            for n in range(cfg.n_dispatchers):
                snap = env.observe(n)
                for k in range(cfg.n_servers):
                    expect = 1 if (n, k) in fed_from else prev_aoi[n][k] + 1
                    if snap.aoi[k] != expect:
                        problems.append(f"age update wrong for ({n},{k})")
                prev_aoi[n] = list(snap.aoi)
            if abs(outcome.team_reward - sum(outcome.rewards)) > 1e-12:
                problems.append("team reward is not the sum of dispatcher rewards")
            per_server_acks = [0] * cfg.n_servers
            for event in outcome.feedback:
                if event.accepted:
                    per_server_acks[event.server] += 1
            if any(c > 1 for c in per_server_acks):
                problems.append("more than one completion on one server in one slot")
            dispatched += sum(1 for d in action.dispatch if d is not None)
            completed += sum(outcome.completions)
            dropped += sum(outcome.drops)
            if problems:
                break
        residual = int(env.world.length.sum())
        if dispatched != completed + dropped + residual:
            problems.append(
                f"conservation violated: {dispatched} != {completed}+{dropped}+{residual}"
            )
        if problems:
            break
    if problems:
        return CheckResult("environment invariants", False, problems[0])
    return CheckResult(
        "environment invariants", True, f"{total_steps} randomized steps across {n_configs} configs"
    )


def check_replay_determinism(seed: int = 7, slots: int = 200) -> CheckResult:
    cfg = random_env_config(np.random.default_rng(seed))
    traces = []
    for _ in range(2):
        env = DispatchEnv(cfg)
        action_rng = np.random.default_rng(seed + 1)
        trace = []
        for _ in range(slots):
            outcome = env.step(random_joint_action(env, action_rng))
            trace.append(
                (outcome.rewards, outcome.completions, outcome.drops, outcome.arrivals)
            )
        traces.append(trace)
    ok = traces[0] == traces[1]
    return CheckResult(
        "replay determinism", ok, f"{slots} slots replayed {'identically' if ok else 'differently'}"
    )


def check_stationary_distribution() -> CheckResult:
    """Closed form against an independent linear solve of pi P = pi."""
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(50):
        phi, psi = rng.uniform(0.01, 0.99, size=2)
        p = np.array([[phi, 1 - phi], [1 - psi, psi]])
        a = np.vstack([p.T - np.eye(2), np.ones(2)])
        b = np.array([0.0, 0.0, 1.0])
        pi, *_ = np.linalg.lstsq(a, b, rcond=None)
        got = stationary_distribution(phi, psi)
        worst = max(worst, abs(got[0] - pi[0]), abs(got[1] - pi[1]))
    ok = worst < 1e-10
    return CheckResult("stationary distribution", ok, f"max deviation {worst:.2e} vs linear solve")


def check_gradients(seed: int = 11) -> CheckResult:
    """Analytic PPO-style gradients vs central finite differences on a small
    random net feeding both policy heads."""
    rng = np.random.default_rng(seed)
    k = 3
    net = DenseNet((5, 8, 2 * k), rng, out_gain=0.5)
    obs = rng.standard_normal((4, 5))
    bits = (rng.random((4, k)) < 0.5).astype(np.int8)
    disp = np.array([0, -1, 2, 1], dtype=np.int64)
    weights = rng.standard_normal(4)

    def loss() -> float:
        heads = PolicyHeads(net.forward(obs), k)
        lp = heads.log_prob(bits, disp)
        ent = heads.entropy(disp >= 0)
        return float((weights * lp).sum() + 0.1 * ent.sum())

    loss()
    heads = PolicyHeads(net.forward(obs), k)
    dlogits = weights[:, None] * heads.grad_log_prob(bits, disp) + 0.1 * heads.grad_entropy(disp >= 0)
    analytic = net.backward(dlogits)
    numeric = finite_difference_gradients(loss, net.params)
    worst = 0.0
    for a, n in zip(analytic, numeric):
        scale = np.maximum(np.abs(a) + np.abs(n), 1e-8)
        worst = max(worst, float((np.abs(a - n) / scale).max()))
    ok = worst < 1e-4
    return CheckResult("gradient check", ok, f"max relative error {worst:.2e} vs finite differences")


def check_categorical_normalization(seed: int = 13) -> CheckResult:
    rng = np.random.default_rng(seed)
    k = 6
    logits = rng.uniform(-30, 30, size=(200, 2 * k))
    heads = PolicyHeads(logits, k)
    worst = float(np.abs(heads.dispatch_probs.sum(axis=1) - 1.0).max())
    ok = worst < 1e-6
    return CheckResult("categorical normalization", ok, f"max |sum - 1| = {worst:.2e}")


def check_first_update_ratio(seed: int = 17) -> CheckResult:
    env_cfg = EnvConfig(n_dispatchers=2, n_servers=2, horizon=64)
    train_cfg = TrainConfig(rollout_length=32, total_updates=1, eval_interval=50)
    trainer = Trainer(env_cfg, train_cfg, seed=seed)
    stats = trainer.run_update()
    dev = abs(stats.first_minibatch_mean_ratio - 1.0)
    ok = dev < 1e-6
    return CheckResult("first-update ratio identity", ok, f"|mean ratio - 1| = {dev:.2e}")


ALL_CHECKS = (
    check_environment_invariants,
    check_replay_determinism,
    check_stationary_distribution,
    check_gradients,
    check_categorical_normalization,
    check_first_update_ratio,
)


def run_all(log=print) -> list[CheckResult]:
    results = []
    for check in ALL_CHECKS:
        result = check()
        results.append(result)
        if log is not None:
            status = "PASS" if result.passed else "FAIL"
            log(f"{status} {result.name}: {result.detail}")
    return results

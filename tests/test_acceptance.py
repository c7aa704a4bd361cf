"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one ``ACCEPTANCE n (<name>): PASS|FAIL`` line. The learning
criteria train real models, so this module dominates the suite's runtime
(roughly 15 minutes end to end); everything is seeded and deterministic.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from aoidispatch import (
    BaselineKind,
    BaselinePolicy,
    EnvConfig,
    TrainConfig,
    Trainer,
    evaluate,
)
from aoidispatch.env import DispatchEnv, JointAction
from aoidispatch.mappo import clipped_surrogate
from aoidispatch.nn import DenseNet, PolicyHeads, finite_difference_gradients
from aoidispatch.selftest import random_env_config, random_joint_action
from aoidispatch.sweep import SweepSpec, default_config, run_sweep

# protocol shared by the learning criteria: train a few seeds, compare the
# best against each baseline on paired evaluation episodes
TRAIN_SEEDS = (0, 1, 2)
EVAL_SEED = 2024
EVAL_EPISODES = 64


def train_protocol(**overrides) -> TrainConfig:
    params = dict(total_updates=800, eval_interval=1000)
    params.update(overrides)
    return TrainConfig(**params)


def best_of_seeds(env_cfg: EnvConfig, train_cfg: TrainConfig):
    """Train one model per seed and return the best by evaluation reward."""
    results = []
    for seed in TRAIN_SEEDS:
        trainer = Trainer(env_cfg, train_cfg, seed=seed)
        trainer.train(log=None)
        stats = evaluate(trainer.policy(), env_cfg, episodes=EVAL_EPISODES, seed=EVAL_SEED)
        results.append((stats.reward_per_slot, seed, stats, trainer))
    results.sort(key=lambda r: r[0])
    return results[-1]


def report(number: int, name: str, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number} ({name}): {status} - {detail}", flush=True)
    assert passed, f"acceptance {number} ({name}): {detail}"


def test_acceptance_1_environment_invariants():
    """Queue bounds, age dynamics, conservation, reward decomposition, and
    replay determinism over 1e5 randomized steps across 50 random configs."""
    start = time.perf_counter()
    rng = np.random.default_rng(20240)
    steps_per_config, n_configs = 2000, 50
    checked = 0
    for _ in range(n_configs):
        cfg = random_env_config(rng)
        env = DispatchEnv(cfg)
        prev_aoi = [list(env.observe(n).aoi) for n in range(cfg.n_dispatchers)]
        dispatched = completed = dropped = 0
        for _ in range(steps_per_config):
            action = random_joint_action(env, rng)
            touched = {
                (n, k)
                for n in range(cfg.n_dispatchers)
                for k in range(cfg.n_servers)
                if action.queries[n][k]
            }
            outcome = env.step(action)
            checked += 1
            touched |= {(e.dispatcher, e.server) for e in outcome.feedback}
            for k, length in enumerate(env.world.length.tolist()):
                assert 0 <= length <= cfg.queue_capacity[k]
            assert outcome.team_reward == pytest.approx(sum(outcome.rewards), abs=1e-12)
            acks = [0] * cfg.n_servers
            for event in outcome.feedback:
                if event.accepted:
                    acks[event.server] += 1
            assert max(acks, default=0) <= 1
            for n, snap in enumerate(outcome.observations):
                for k in range(cfg.n_servers):
                    expected = 1 if (n, k) in touched else prev_aoi[n][k] + 1
                    assert snap.aoi[k] == expected
                prev_aoi[n] = list(snap.aoi)
            dispatched += sum(1 for d in action.dispatch if d is not None)
            completed += sum(outcome.completions)
            dropped += sum(outcome.drops)
        residual = int(env.world.length.sum())
        assert dispatched == completed + dropped + residual

    # replay determinism on a fresh config
    cfg = random_env_config(rng)
    traces = []
    for _ in range(2):
        env = DispatchEnv(cfg)
        arng = np.random.default_rng(555)
        traces.append(
            [env.step(random_joint_action(env, arng)).rewards for _ in range(500)]
        )
    assert traces[0] == traces[1]
    elapsed = time.perf_counter() - start
    report(
        1,
        "environment invariants",
        checked == steps_per_config * n_configs and elapsed < 60.0,
        f"{checked} randomized steps across {n_configs} configs in {elapsed:.1f}s (limit 60s)",
    )


def test_acceptance_2_markov_chain_throughput_oracle():
    """Empirical completion rate of the 1x1 capacity-1 system under the
    never-query policy vs the exact joint-chain stationary throughput."""
    from test_env_properties import batch_means_se, joint_chain_throughput

    start = time.perf_counter()
    lam, phi, psi = 0.8, 0.95, 0.50
    slots = 1_000_000
    cfg = EnvConfig(
        n_dispatchers=1, n_servers=1, arrival_prob=lam,
        stay_available=phi, stay_unavailable=psi,
        queue_capacity=1, horizon=slots + 1, seed=7, query_cost=0.0,
    )
    env = DispatchEnv(cfg)
    # the never-query policy for one server: no queries, dispatch on arrival
    act_dispatch = JointAction(queries=((False,),), dispatch=(0,))
    act_idle = JointAction(queries=((False,),), dispatch=(None,))
    completions = np.empty(slots, dtype=np.int8)
    for t in range(slots):
        action = act_dispatch if env.world.arrivals[0] else act_idle
        completions[t] = env.step(action).completions[0]
    empirical = float(completions.mean())
    se = batch_means_se(completions, n_batches=1000)
    oracle = joint_chain_throughput(lam, phi, psi)
    elapsed = time.perf_counter() - start
    report(
        2,
        "Markov-chain throughput oracle",
        abs(empirical - oracle) < 3 * se and elapsed < 30.0,
        f"empirical {empirical:.5f} vs oracle {oracle:.5f} "
        f"(|diff| {abs(empirical - oracle):.5f} < 3se {3 * se:.5f}) in {elapsed:.1f}s (limit 30s)",
    )


def test_acceptance_3_gradient_oracle():
    """Finite-difference check on random networks plus the first-epoch PPO
    ratio identity."""
    start = time.perf_counter()
    worst = 0.0
    for seed in range(5):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(2, 5))
        hidden = int(rng.integers(4, 9))
        d_in = int(rng.integers(3, 7))
        net = DenseNet((d_in, hidden, 2 * k), rng, out_gain=0.7)
        assert net.n_params <= 200
        x = rng.standard_normal((4, d_in))
        bits = (rng.random((4, k)) < 0.5).astype(np.int8)
        disp = np.where(rng.random(4) < 0.7, rng.integers(0, k, size=4), -1).astype(np.int64)
        w = rng.standard_normal(4)

        def loss() -> float:
            heads = PolicyHeads(net.forward(x), k)
            return float(
                (w * heads.log_prob(bits, disp)).sum() + 0.25 * heads.entropy(disp >= 0).sum()
            )

        loss()
        heads = PolicyHeads(net.forward(x), k)
        dlogits = w[:, None] * heads.grad_log_prob(bits, disp) + 0.25 * heads.grad_entropy(disp >= 0)
        analytic = net.backward(dlogits)
        numeric = finite_difference_gradients(loss, net.params, h=1e-5)
        for a, n in zip(analytic, numeric):
            scale = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-6)
            worst = max(worst, float((np.abs(a - n) / scale).max()))

    # first-epoch ratio identity on a real update
    trainer = Trainer(
        EnvConfig(n_dispatchers=2, n_servers=2, horizon=64),
        TrainConfig(rollout_length=32, total_updates=1, eval_interval=10),
        seed=3,
    )
    ratio_dev = abs(trainer.run_update().first_minibatch_mean_ratio - 1.0)
    # and directly on the loss function
    lp = np.array([-1.3, -0.2, -2.0])
    direct_dev = abs(clipped_surrogate(lp, lp.copy(), np.ones(3), 0.2).mean_ratio - 1.0)
    elapsed = time.perf_counter() - start
    report(
        3,
        "gradient oracle",
        worst < 1e-4 and ratio_dev < 1e-6 and direct_dev < 1e-6 and elapsed < 30.0,
        f"max relative gradient error {worst:.2e} (limit 1e-4), "
        f"first-epoch |ratio-1| {max(ratio_dev, direct_dev):.2e} (limit 1e-6) "
        f"in {elapsed:.1f}s (limit 30s)",
    )


def test_acceptance_4_learning_sanity_degenerate_routing():
    """On a two-server instance with one always-available and one
    never-available server, trained actors route >95% of jobs to the good
    server within 200 updates."""
    start = time.perf_counter()
    env_cfg = EnvConfig(
        n_dispatchers=2, n_servers=2, arrival_prob=0.8,
        stay_available=(1.0, 0.5), stay_unavailable=(0.5, 1.0),
        queue_capacity=3, horizon=256, query_cost=0.01, seed=0,
    )
    trainer = Trainer(env_cfg, train_protocol(total_updates=200, rollout_length=256), seed=0)
    trainer.train(log=None)
    policy = trainer.policy(greedy=True)
    good = total = 0
    for episode in range(4):
        env = DispatchEnv(replace(env_cfg, seed=900 + episode))
        policy.begin_episode(np.random.default_rng(episode))
        for _ in range(env_cfg.horizon):
            action = policy.act(env)
            for d in action.dispatch:
                if d is not None:
                    total += 1
                    good += d == 0
            env.step(action)
    fraction = good / total
    elapsed = time.perf_counter() - start
    report(
        4,
        "learning sanity",
        fraction > 0.95 and elapsed < 300.0,
        f"{fraction:.1%} of {total} jobs routed to the always-available server "
        f"after 200 updates in {elapsed:.1f}s (limit 300s)",
    )


def _aggregate(rows, policy, value):
    member = [r for r in rows if r.policy == policy and r.value == value]
    return sum(r.reward_per_slot for r in member) / len(member)


def test_acceptance_5_and_8_query_cost_ordering_and_accounting(tmp_path):
    """High query costs invert the always-query policy's advantage: it falls
    below never-query at cost 0.1 and below zero once the per-slot query bill
    exceeds any achievable throughput (cost 0.3). Every emitted row satisfies
    reward = throughput - cost * queries to 1e-9 (enforced by emit_report)."""
    start = time.perf_counter()
    base = default_config()
    spec = SweepSpec(
        swept_parameter="query_cost",
        values=[0.1, 0.3],
        policies=["never", "always"],
        seeds=[0, 1, 2, 3, 4],
        base_env=base,
        train=TrainConfig(),
        eval_episodes=2,
    )
    rows = run_sweep(spec, tmp_path, fmt="csv")
    assert len(rows) == 2 * 2 * 5
    for row in rows:
        row.check_accounting(tolerance=1e-9)
    always_01 = _aggregate(rows, "always", 0.1)
    never_01 = _aggregate(rows, "never", 0.1)
    always_03 = _aggregate(rows, "always", 0.3)
    elapsed = time.perf_counter() - start
    ordering = always_01 < never_01 and always_03 < 0.0
    report(
        5,
        "query-cost ordering",
        ordering and elapsed < 120.0,
        f"always-query {always_01:.3f} < never-query {never_01:.3f} at cost 0.1; "
        f"always-query {always_03:.3f} < 0 at cost 0.3 in {elapsed:.1f}s (limit 120s)",
    )
    report(
        8,
        "accounting identity",
        True,
        f"reward = throughput - cost * queries within 1e-9 on all {len(rows)} sweep rows",
    )


def test_acceptance_6_trained_policy_dominates_baselines():
    """At the reference configuration the best of three trained models beats
    the never-query and random-query baselines by more than two pooled
    standard errors of the paired evaluation."""
    start = time.perf_counter()
    env_cfg = default_config()
    best_reward, best_seed, best_stats, _ = best_of_seeds(env_cfg, train_protocol())
    never = evaluate(BaselinePolicy(BaselineKind("never")), env_cfg, EVAL_EPISODES, EVAL_SEED)
    rand = evaluate(BaselinePolicy(BaselineKind("random", 0.5)), env_cfg, EVAL_EPISODES, EVAL_SEED)
    margins = {}
    for name, stats in (("never-query", never), ("random-query", rand)):
        diff = best_reward - stats.reward_per_slot
        pooled = float(np.hypot(best_stats.reward_se, stats.reward_se))
        margins[name] = (diff, 2 * pooled)
    elapsed = time.perf_counter() - start
    passed = all(diff > bound for diff, bound in margins.values()) and elapsed < 1800.0
    detail = "; ".join(
        f"margin vs {name} {diff:.4f} > {bound:.4f}" for name, (diff, bound) in margins.items()
    )
    report(
        6,
        "trained policy dominance",
        passed,
        f"best seed {best_seed} reward {best_reward:.4f} "
        f"(never {never.reward_per_slot:.4f}, random {rand.reward_per_slot:.4f}); "
        f"{detail}; {elapsed:.0f}s (limit 1800s)",
    )


def test_acceptance_7_low_load_never_query_is_enough():
    """At very low arrival rates stale knowledge is sufficient: the trained
    policy does not beat never-query by more than 5%."""
    start = time.perf_counter()
    env_cfg = replace(default_config(), arrival_prob=0.1)
    best_reward, best_seed, _, _ = best_of_seeds(env_cfg, train_protocol(total_updates=500))
    never = evaluate(BaselinePolicy(BaselineKind("never")), env_cfg, EVAL_EPISODES, EVAL_SEED)
    elapsed = time.perf_counter() - start
    passed = best_reward <= 1.05 * never.reward_per_slot and elapsed < 900.0
    report(
        7,
        "low-load regime",
        passed,
        f"trained {best_reward:.4f} (best seed {best_seed}) vs never-query "
        f"{never.reward_per_slot:.4f}: ratio {best_reward / never.reward_per_slot:.3f} "
        f"(limit 1.05) in {elapsed:.0f}s (limit 900s)",
    )

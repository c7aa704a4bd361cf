"""Golden trajectories: SHA-256 digests of fixed 300-slot runs.

Each digest covers, slot by slot, the rewards, completions, drops, queries
(counts and bits), dispatch targets, arrivals, every feedback event
(dispatcher, server, job id, accepted, reported payload) and every
dispatcher's knowledge after the step. Any change to the slot pipeline's
arithmetic, RNG draw order or event order changes a digest; a refactor that
keeps behaviour keeps all of them.

Regenerate (only for an intended behaviour change) with
``PYTHONPATH=src python tests/test_golden_trajectories.py``.
"""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from aoidispatch import (
    ActorGroup,
    BaselinePolicy,
    EnvConfig,
    MappoPolicy,
    TrainConfig,
    parse_policy_spec,
)
from aoidispatch.env import DispatchEnv
from aoidispatch.sweep import apply_swept_value, default_config

SLOTS = 300


def _configs():
    base = default_config()
    return {
        "default": base,
        "n15": apply_swept_value(base, "n_dispatchers", 15),
        "drop_newest": replace(base, drop_newest=True),
        "post_service": replace(base, report_post_service=True),
        "capacities": replace(base, queue_capacity=(1, 2, 3, 4, 5)),
        # acceptance 2's system: one dispatcher, one capacity-1 server
        "1x1": EnvConfig(
            n_dispatchers=1, n_servers=1, arrival_prob=0.8, stay_available=0.95,
            stay_unavailable=0.50, queue_capacity=1, query_cost=0.0, seed=7,
        ),
        "wide": EnvConfig(n_dispatchers=2, n_servers=7, queue_capacity=(1, 2, 3, 4, 5, 6, 7)),
    }


POLICIES = (
    "never", "random:0.5", "always",
    "mappo-sample", "mappo-greedy", "mappo2-sample", "mappo2-greedy",
)


def _policy(name, cfg):
    if name.startswith("mappo"):
        two_phase = name.startswith("mappo2")
        actors = ActorGroup(cfg, TrainConfig(two_phase_policy=two_phase), np.random.default_rng(11))
        return MappoPolicy(actors, greedy=name.endswith("greedy"))
    return BaselinePolicy(parse_policy_spec(name))


def trajectory_digest(cfg, policy_name: str) -> str:
    env = DispatchEnv(cfg)
    policy = _policy(policy_name, cfg)
    policy.begin_episode(np.random.default_rng(2025))
    digest = hashlib.sha256()
    for _ in range(SLOTS):
        action = policy.act(env)
        out = env.step(action)
        record = (
            [float(r).hex() for r in out.rewards],
            float(out.team_reward).hex(),
            [int(c) for c in out.completions],
            [int(d) for d in out.drops],
            [int(q) for q in out.queries_issued],
            [[bool(b) for b in row] for row in action.queries],
            [None if d is None else int(d) for d in action.dispatch],
            [bool(a) for a in out.arrivals],
            [
                (int(e.dispatcher), int(e.server), int(e.job.id), bool(e.accepted),
                 bool(e.reported_available), int(e.reported_queue))
                for e in out.feedback
            ],
            [
                ([bool(a) for a in s.seen_available], [int(q) for q in s.seen_queue],
                 [int(a) for a in s.aoi])
                for s in (env.observe(n) for n in range(cfg.n_dispatchers))
            ],
        )
        digest.update(repr(record).encode())
    return digest.hexdigest()


GOLDEN = {
    ('default', 'never'): '2b2e5b0c94348403af5245c32b66cdcb27389d032ec1c8c9708cfe16e0b6aa30',
    ('default', 'random:0.5'): '42837cce3bf5a4244bdb78b77ad2ad06b1e70b32508c50154b482d0b87338d1b',
    ('default', 'always'): 'b55a3cceec1f1f1fbc52498a627c807852d2c945ada1a8954c3fe42f82e6b6a0',
    ('default', 'mappo-sample'): 'f1c64bbb906d63c13cfc569a4c81af1f8ff2ac1470545b36c5df1658887b64ee',
    ('default', 'mappo-greedy'): '07dc11bf590403d126719145fcd600e28aa8ddf85a864989e8ce899023b168ec',
    ('default', 'mappo2-sample'): '99f54c54d8c963cdb7b02f1fc2dbb284b1db5a78b2bb7692808bd992c3bd319f',
    ('default', 'mappo2-greedy'): '833322fca417f5df063991868ff7b3f615f621deec51402f368b903be2bd9825',
    ('n15', 'never'): '35bd418f62b2d6b1e9e40ef47ad98410f1bebb70c614c16bad60150f10e78e84',
    ('n15', 'random:0.5'): 'd1bcb985e4240f527e0836bfe96277d3143b613c2eb475d459b574a103e0f545',
    ('n15', 'always'): '096fdda08897f52a781989153f94420097779d9c3c5a55a3ff7a44dab146d196',
    ('n15', 'mappo-sample'): 'f0b78922b0819bb00b1622336074250f354a6bf00ed5e45edfbb221cefb60ec8',
    ('n15', 'mappo-greedy'): '871a29c80ebfb688a69735c13e510c6842d6ffe39965c76ce45cca23fe0a48c5',
    ('n15', 'mappo2-sample'): 'cfa45948f6dccc3c730a8b7d9154687a4bd7f851c6ceb9fdd399b200d5feec5c',
    ('n15', 'mappo2-greedy'): 'a2fb9acec7e5999ea2d8ce610a1d514feac2fad4da4fbe87a38840a2ab0a6e0f',
    ('drop_newest', 'never'): '1e2dce1be695be1184f4799d509ab725e02916204f0cd6d8731d8d65761b07e1',
    ('drop_newest', 'random:0.5'): 'cc98aa010fbfe4794997ffdb7b61d1141f00dd6404ddd5f73fe0b8e305d941c9',
    ('drop_newest', 'always'): 'd8518d14b46faec2532e7b0b93028f9ec42008c562e052417424bfee11ffdf04',
    ('drop_newest', 'mappo-sample'): 'ba1388782850911699e8ac2afcd76acb6dd73bb15501bb712924f57dd31c8298',
    ('drop_newest', 'mappo-greedy'): '58b14a5c8ce204d227fc4ac55d831219e9bd4c6cd667b96f8b81dd6216735a40',
    ('drop_newest', 'mappo2-sample'): 'e82297ebf67d97956635b962d57b7242a0ce4e522ffcc63d237fb6d0c8322759',
    ('drop_newest', 'mappo2-greedy'): 'ffe828e3e0468a858fa1588d94bca5aed28ffc77359f62d21188eff90f17f11f',
    ('post_service', 'never'): '2a38157e0e3988913312b31e9a7318b651183f37a1a1afe064feffe5af0926e7',
    ('post_service', 'random:0.5'): 'a884cf980da14892d1799451526fafc21d46d22186dd5e1b70a76a1f9fd54412',
    ('post_service', 'always'): '7632a3a04ef5cbe52b116e985e45fcbd3b0c1d1dc8e1b6f76a35d8a0cd817997',
    ('post_service', 'mappo-sample'): 'cf3685c08026a1826bb2c3776893012e60e2362f7846225e630e787416ae3e7b',
    ('post_service', 'mappo-greedy'): '5b16321338d3528cfaea4c455cf9b4d4655ef5d153b0ec73b436b6dcef0f9e1b',
    ('post_service', 'mappo2-sample'): '1c0308839bbca874160469d834f3c589e02ba6e7a0144277ef88c2791c343cce',
    ('post_service', 'mappo2-greedy'): 'c5c0f1b8d96ca401cf42f90f6e1b092735e62972283a7a2f65cd689a47ed1cc9',
    ('capacities', 'never'): '34ffaa826d09cba9729983591fdbd147040f879f867fff63d03fce6a7d0556d9',
    ('capacities', 'random:0.5'): '939b4a8094836d4395071e7aa6964fde9f07095dcf8d77b5710cf91bd5b61999',
    ('capacities', 'always'): '0dead3fe901c744a05187ad6e0088b6ff3776f19c13b05636d89a68560ed3827',
    ('capacities', 'mappo-sample'): '38aae2d7cf38cab194078563df7f85a460430d967eca92c5abafa4872ebe2ba0',
    ('capacities', 'mappo-greedy'): 'f97663c290dedeb20013eba466d7688a1e388fd5ebc2e665e9c9f4dfc4fe4ae7',
    ('capacities', 'mappo2-sample'): '551b9f42119919b67f7e1076087c680b3ac287c506968c3c681a01f7309950a8',
    ('capacities', 'mappo2-greedy'): '0b1c61d83fa8cd4b9d3afd074af875d4be5d6a8ed888ac7b8d6d5ccd4f4143e8',
    ('1x1', 'never'): '61afb6dd68cc8340586eba8a42c57cedfea2fd004911720ee1af32ef8e934d39',
    ('1x1', 'random:0.5'): '86e35214f9ecd24949b86a2578da54fb6d41b3b15073887571ebae60182cd50c',
    ('1x1', 'always'): '9d450ba6ca0354a4d0eb5994095c4100a250e0c2c443f34256965c17cd58b149',
    ('1x1', 'mappo-sample'): '4c4e2eb8b84e20ce17a080e593ae3211c0d159b2e629045072a1f1309e5e5a99',
    ('1x1', 'mappo-greedy'): '0222a0a24f556cefc593ce8804a77ea8a96217dd63e67ae19a62966ba5a063de',
    ('1x1', 'mappo2-sample'): '4c4e2eb8b84e20ce17a080e593ae3211c0d159b2e629045072a1f1309e5e5a99',
    ('1x1', 'mappo2-greedy'): '0222a0a24f556cefc593ce8804a77ea8a96217dd63e67ae19a62966ba5a063de',
    ('wide', 'never'): 'c6de1878d2cab05ae9f0e8ba912a6f737b73fe29965937e8f07da887bb46c244',
    ('wide', 'random:0.5'): 'f4ce47b4272410fa3eaf63faafab5b03539a1759c5f53748aa62f6ec51592f2f',
    ('wide', 'always'): 'c8cf32b5744211e1ff5a6d53bbc4a9ef451baf8aff5bd7374a4c711be261bef4',
    ('wide', 'mappo-sample'): 'ba4870d8a7927f3d34fea508f8ca56f86e2cb9e501afedb8f64d573c3d8fba1d',
    ('wide', 'mappo-greedy'): 'f504ebb1038725027eb6e44b77c32cbcedf0bb8370c494b6dfbb71bb3b9f02b3',
    ('wide', 'mappo2-sample'): 'ba4870d8a7927f3d34fea508f8ca56f86e2cb9e501afedb8f64d573c3d8fba1d',
    ('wide', 'mappo2-greedy'): 'd120339c7c61af3152b86581cb8e8f9007fea431a7111c3b5c38d50e2148edaa',
}


@pytest.mark.parametrize("config_name", list(_configs()))
@pytest.mark.parametrize("policy_name", POLICIES)
def test_golden_trajectory(config_name, policy_name):
    cfg = _configs()[config_name]
    assert trajectory_digest(cfg, policy_name) == GOLDEN[(config_name, policy_name)]


if __name__ == "__main__":
    for config_name, cfg in _configs().items():
        for policy_name in POLICIES:
            print(f"    ({config_name!r}, {policy_name!r}): "
                  f"{trajectory_digest(cfg, policy_name)!r},")

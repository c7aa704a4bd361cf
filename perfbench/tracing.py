"""Traced mode: in-memory spans around the program's public calls, and the
per-layer metrics computed from them.

The program is not changed. ``Tracer.install`` replaces the public functions
and methods listed in ``SPANS`` with wrappers, at run time, in every
``aoidispatch`` module that binds them; ``Tracer.uninstall`` puts the
originals back. Each span records its name, start, end, parent span and the
op (update, episode or sweep cell) it belongs to, in flat arrays, so a run of
a million spans stays in tens of megabytes.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

LAYERS = ("env", "baselines", "nn", "mappo", "sweep")
BASELINE_VARIANTS = ("never", "random", "always")


def _tap_step(tracer, idx, args, kwargs, outcome):
    action = args[1] if len(args) > 1 else kwargs["action"]
    c = tracer.counters
    c["queries"] += sum(outcome.queries_issued)
    c["acks"] += sum(outcome.completions)
    c["dispatched"] += sum(1 for d in action.dispatch if d is not None)


def _tap_net(tracer, idx, args, kwargs, result):
    """Batch rows and layer sizes of a DenseNet.forward/backward call."""
    net, batch = args[0], args[1] if len(args) > 1 else next(iter(kwargs.values()))
    tracer.tag_a[idx] = 1 if np.ndim(batch) == 1 else len(batch)
    tracer.tag_b[idx] = tracer.shape_id(net.layer_sizes)


def _tap_baseline(tracer, idx, args, kwargs, result):
    tracer.tag_a[idx] = BASELINE_VARIANTS.index(args[0].kind.variant)


def _tap_evaluate(tracer, idx, args, kwargs, stats):
    env_config = args[1] if len(args) > 1 else kwargs["env_config"]
    tracer.tag_a[idx] = env_config.n_dispatchers


def _tap_file_size(tracer, idx, args, kwargs, path):
    tracer.tag_a[idx] = os.path.getsize(path)


def _tap_report_size(tracer, idx, args, kwargs, paths):
    tracer.tag_a[idx] = os.path.getsize(paths[0])


# (layer, module, class or None, attribute, tap): the calls that get a span
SPANS = [
    ("env", "env", "DispatchEnv", "__init__", None),
    ("env", "env", "DispatchEnv", "reset", None),
    ("env", "env", "DispatchEnv", "step", _tap_step),
    ("env", "env", "DispatchEnv", "observe", None),
    ("env", "env", "DispatchEnv", "process_queries", None),
    ("baselines", "baselines", "BaselinePolicy", "act", _tap_baseline),
    ("nn", "nn", "DenseNet", "__init__", None),
    ("nn", "nn", "DenseNet", "forward", _tap_net),
    ("nn", "nn", "DenseNet", "backward", _tap_net),
    ("nn", "nn", "Adam", "step", None),
    ("nn", "nn", "PolicyHeads", "__init__", None),
    *[("nn", "nn", "PolicyHeads", name, None) for name in (
        "sample", "sample_queries", "sample_dispatch",
        "log_prob", "log_prob_queries", "log_prob_dispatch",
        "grad_log_prob", "grad_log_prob_queries", "grad_log_prob_dispatch",
        "grad_entropy", "grad_entropy_queries", "grad_entropy_dispatch")],
    ("mappo", "mappo", None, "encode_actor_batch", None),
    ("mappo", "mappo", None, "encode_critic_state", None),
    ("mappo", "mappo", None, "collect_rollout", None),
    ("mappo", "mappo", None, "compute_gae", None),
    ("mappo", "mappo", None, "mappo_update", None),
    ("mappo", "mappo", None, "evaluate", _tap_evaluate),
    ("mappo", "mappo", None, "save_checkpoint", _tap_file_size),
    ("mappo", "mappo", None, "load_checkpoint", None),
    ("mappo", "mappo", "Trainer", "run_update", None),
    ("sweep", "sweep", None, "run_sweep", None),
    ("sweep", "sweep", None, "emit_report", _tap_report_size),
]
# spans that also record process CPU time
CPU_SPANS = {"run_sweep"}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.name = array("i")
        self.op_id = array("i")
        self.tag_a = array("i")
        self.tag_b = array("i")
        self.stack: list[int] = []
        self.op = -1
        self.counters: Counter = Counter()
        self.cpu: dict[str, list[float]] = {}  # name -> [cpu_s, wall_s]
        self.shapes: list[tuple] = []
        self._patches: list[tuple[object, str, object]] = []

    def shape_id(self, layer_sizes: tuple) -> int:
        if layer_sizes not in self.shapes:
            self.shapes.append(layer_sizes)
        return self.shapes.index(layer_sizes)

    def set_op(self, op: int) -> None:
        self.op = op

    def wrap(self, fn, span_name: str, layer: str, tap=None):
        """``fn`` with a span around every call."""
        name_id = len(self.names)
        self.names.append(span_name)
        self.layer_of.append(layer)
        start, end, parent, names = self.start, self.end, self.parent, self.name
        op_id, tag_a, tag_b, stack = self.op_id, self.tag_a, self.tag_b, self.stack
        perf, cpu_clock = time.perf_counter, time.process_time
        cpu_totals = self.cpu.setdefault(span_name, [0.0, 0.0]) if span_name in CPU_SPANS else None
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            parent.append(stack[-1] if stack else -1)
            names.append(name_id)
            op_id.append(tracer.op)
            tag_a.append(0)
            tag_b.append(0)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            c0 = cpu_clock() if cpu_totals is not None else 0.0
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
                if cpu_totals is not None:
                    cpu_totals[0] += cpu_clock() - c0
                    cpu_totals[1] += t1 - t0
            if tap is not None:
                tap(tracer, idx, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "aoidispatch" or n.startswith("aoidispatch."))]
        for layer, module, cls, attr, tap in SPANS:
            owner = sys.modules[f"aoidispatch.{module}"]
            if cls is not None:
                owner = getattr(owner, cls)
                original = vars(owner)[attr]
                self._patch(owner, attr, self.wrap(original, f"{cls}.{attr}", layer, tap))
                continue
            original = getattr(owner, attr)
            wrapped = self.wrap(original, attr, layer, tap)
            # callers bind functions with ``from .x import f``: patch every binding
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, key, wrapped)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def calibrate(self, calls: int = 20000) -> float:
        """Seconds one span adds to a call, measured on a no-op."""
        def noop():
            return None

        traced = self.wrap(noop, "calibration", "trace")
        best = float("inf")
        for _ in range(3):
            mark = len(self.start)
            t0 = time.perf_counter()
            for _ in range(calls):
                noop()
            t1 = time.perf_counter()
            for _ in range(calls):
                traced()
            t2 = time.perf_counter()
            for arr in (self.start, self.end, self.parent, self.name, self.op_id,
                        self.tag_a, self.tag_b):
                del arr[mark:]
            best = min(best, ((t2 - t1) - (t1 - t0)) / calls)
        return max(best, 0.0)

    def save(self, path: Path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            layers=np.array(self.layer_of),
            **{key: np.frombuffer(getattr(self, key), dtype=getattr(self, key).typecode)
               for key in ("start", "end", "parent", "name", "op_id", "tag_a", "tag_b")},
        )


# ---------------------------------------------------------------------------
# per-layer metrics


def _matmul_flops(rows: np.ndarray, shapes: np.ndarray, tables: list[tuple], backward: bool) -> float:
    """Multiply-add flops of the dense layers: 2*B*d_in*d_out per matmul; the
    backward pass does the weight gradient of every layer and the input
    gradient of every layer but the first."""
    per_row = []
    for sizes in tables:
        pairs = [2.0 * a * b for a, b in zip(sizes[:-1], sizes[1:])]
        per_row.append(sum(pairs) + (sum(pairs[1:]) if backward else 0.0))
    return float(np.sum(rows * np.asarray(per_row)[shapes])) if len(rows) else 0.0


def layer_metrics(tracer: Tracer, loop: tuple[float, float], facts: dict,
                  overhead_s_per_span: float) -> dict[str, float]:
    """Every per-layer metric of a traced run. A layer that the workload does
    not call reports 0 for its timings and counts."""
    n = len(tracer.start)
    start = np.frombuffer(tracer.start, dtype=np.float64)
    dur = np.frombuffer(tracer.end, dtype=np.float64) - start
    parent, name, tag_a, tag_b = (np.frombuffer(a, dtype=np.int32) for a in (
        tracer.parent, tracer.name, tracer.tag_a, tracer.tag_b))
    has_parent = parent >= 0

    child = np.zeros(n)
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_time = dur - child

    ids = {s: i for i, s in enumerate(tracer.names)}

    def is_(*span_names: str) -> np.ndarray:
        return np.isin(name, [ids[s] for s in span_names if s in ids])

    def top(*span_names: str) -> np.ndarray:
        """Spans of these names not nested inside another of them."""
        mask = is_(*span_names)
        inner = np.zeros(n, dtype=bool)
        inner[has_parent] = mask[parent[has_parent]]
        return mask & ~inner

    def within(*span_names: str) -> np.ndarray:
        """Spans of these names and every span nested inside one of them."""
        flag = is_(*span_names)
        while True:
            grown = flag.copy()
            grown[has_parent] |= flag[parent[has_parent]]
            if (grown == flag).all():
                return flag
            flag = grown

    in_update = within("mappo_update")
    in_run_update = within("Trainer.run_update")

    def p50(mask: np.ndarray, scale: float, values: np.ndarray = dur) -> float:
        return float(np.median(values[mask])) * scale if mask.any() else 0.0

    us, ms = 1e6, 1e3
    steps = int(is_("DispatchEnv.step").sum())
    c = tracer.counters
    m: dict[str, float] = {
        "env.step_us_p50": p50(is_("DispatchEnv.step"), us),
        "env.step_calls": steps,
        "env.process_queries_us_p50": p50(is_("DispatchEnv.process_queries"), us),
        "env.observe_us_p50": p50(is_("DispatchEnv.observe"), us),
        "env.observe_calls_per_slot": int(is_("DispatchEnv.observe").sum()) / steps if steps else 0.0,
        "env.queries_per_slot": c["queries"] / steps if steps else 0.0,
        "env.ack_share": c["acks"] / c["dispatched"] if c["dispatched"] else 0.0,
    }
    act = is_("BaselinePolicy.act")
    for i, variant in enumerate(BASELINE_VARIANTS):
        m[f"baselines.act_us_p50.{variant}"] = p50(act & (tag_a == i), us)
    m["baselines.act_self_us_p50"] = p50(act, us, self_time)

    forward, backward = is_("DenseNet.forward"), is_("DenseNet.backward")
    actor_out = np.array([sizes[-1] > 1 for sizes in tracer.shapes] or [False])
    actor_forward = forward & actor_out[np.where(forward, tag_b, 0)]
    m.update({
        "nn.init_ms": p50(is_("DenseNet.__init__"), ms),
        "nn.forward_us_p50.act": p50(actor_forward & ~in_update, us),
        "nn.forward_us_p50.minibatch": p50(actor_forward & in_update, us),
        "nn.backward_us_p50": p50(backward, us),
        "nn.adam_step_us_p50": p50(is_("Adam.step"), us),
        "nn.heads_us_p50": p50(is_("PolicyHeads.__init__"), us),
        "nn.sample_us_p50": p50(top("PolicyHeads.sample", "PolicyHeads.sample_queries",
                                    "PolicyHeads.sample_dispatch"), us),
        "nn.log_prob_us_p50": p50(top("PolicyHeads.log_prob", "PolicyHeads.log_prob_queries",
                                      "PolicyHeads.log_prob_dispatch"), us),
        "nn.head_grad_us_p50": p50(top(*(f"PolicyHeads.grad_{g}{part}"
                                         for g in ("log_prob", "entropy")
                                         for part in ("", "_queries", "_dispatch"))), us),
    })
    updates = int(is_("Trainer.run_update").sum())
    flops_fwd = _matmul_flops(tag_a[forward], tag_b[forward], tracer.shapes, False)
    flops_bwd = _matmul_flops(tag_a[backward], tag_b[backward], tracer.shapes, True)
    upd_f, upd_b = forward & in_run_update, backward & in_run_update
    flops_update = (_matmul_flops(tag_a[upd_f], tag_b[upd_f], tracer.shapes, False)
                    + _matmul_flops(tag_a[upd_b], tag_b[upd_b], tracer.shapes, True))
    matmul_time = float(dur[forward | backward].sum())
    m["nn.matmul_flops_per_update"] = flops_update / updates if updates else 0.0
    m["nn.matmul_gflops"] = (flops_fwd + flops_bwd) / matmul_time / 1e9 if matmul_time else 0.0

    saves = is_("save_checkpoint")
    m.update({
        "mappo.rollout_ms_p50": p50(is_("collect_rollout"), ms),
        "mappo.rollout_self_ms_p50": p50(is_("collect_rollout"), ms, self_time),
        "mappo.encode_actor_us_p50": p50(is_("encode_actor_batch"), us),
        "mappo.encode_critic_us_p50": p50(is_("encode_critic_state"), us),
        "mappo.gae_ms_p50": p50(is_("compute_gae"), ms),
        "mappo.update_ms_p50": p50(is_("mappo_update"), ms),
        "mappo.eval_ms": p50(is_("evaluate"), ms),
        "mappo.checkpoint_save_ms": p50(saves, ms),
        "mappo.checkpoint_load_ms": p50(is_("load_checkpoint"), ms),
        "mappo.checkpoint_bytes": float(np.median(tag_a[saves])) if saves.any() else 0.0,
        "mappo.minibatch_steps": (int((is_("Adam.step") & in_run_update).sum()) / updates
                                  if updates else 0.0),
        "mappo.aborted_minibatches": facts.get("aborted_minibatches", 0),
        "mappo.reward_per_slot": facts.get("reward_per_slot", 0.0),
        "mappo.reward_margin_vs_never": facts.get("reward_margin_vs_never", 0.0),
    })

    cells = is_("evaluate") & has_parent
    cells[has_parent] &= name[parent[has_parent]] == ids["run_sweep"]
    for n_disp in (5, 10, 15):
        m[f"sweep.cell_ms_p50.n{n_disp}"] = p50(cells & (tag_a == n_disp), ms)
    reports = is_("emit_report")
    sweep_cpu, sweep_wall = tracer.cpu.get("run_sweep", (0.0, 0.0))
    m.update({
        "sweep.emit_report_ms": p50(reports, ms),
        "sweep.rows_bytes": float(np.median(tag_a[reports])) if reports.any() else 0.0,
        "sweep.cpu_per_wall": sweep_cpu / sweep_wall if sweep_wall else 0.0,
        "proc.cpu_per_wall": facts["cpu_s"] / facts["wall_s"],
    })

    # self time per layer inside the timed loop, as a share of its wall time
    t0, t1 = loop
    wall = t1 - t0
    in_loop = (start >= t0) & (start + dur <= t1)
    layer_ids = np.array([LAYERS.index(layer) if layer in LAYERS else -1
                          for layer in tracer.layer_of])
    span_layer = layer_ids[name]
    for i, layer in enumerate(LAYERS):
        m[f"{layer}.self_share"] = float(self_time[in_loop & (span_layer == i)].sum()) / wall
    loop_spans = int(in_loop.sum())
    m["trace.spans"] = loop_spans
    m["trace.overhead_share"] = overhead_s_per_span * loop_spans / wall
    return m

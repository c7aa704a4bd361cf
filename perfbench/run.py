"""Benchmark of the aoidispatch simulator and MAPPO stack.

Run from the root of a checkout:

    python3 perfbench/run.py --workload train-ref --seed 0 --seconds 30 --trace 0

Workloads are ``train-ref``, ``eval-ref`` and ``sweep-dispatchers`` (see
README.md beside this file). ``--trace 0`` measures the end-to-end metrics
with nothing wrapped; ``--trace 1`` wraps the program's public calls in spans
and reports the per-layer metrics instead. Both modes check the program's
outputs. The report goes to standard output and its last line is one JSON
object; the full run record goes to ``perfbench-out/`` at the checkout root.

The benchmark imports the program from the checkout's ``src/`` and never sets
the BLAS/OpenMP thread variables: it records them.
"""

import time

T0 = time.perf_counter()  # set-up probes time their imports from here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / "perfbench-out"
WORKLOADS = ("train-ref", "eval-ref", "sweep-dispatchers")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class ProgramNotFound(Exception):
    pass


def import_program() -> None:
    """Import ``aoidispatch`` from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import aoidispatch
    except ImportError as exc:
        raise ProgramNotFound(f"cannot import aoidispatch from {src}: {exc}") from exc
    if not Path(aoidispatch.__file__).resolve().is_relative_to(src.resolve()):
        raise ProgramNotFound(f"aoidispatch was imported from {aoidispatch.__file__}, not {src}")


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def environment(seed: int) -> dict:
    """What the numbers depend on besides the code."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "thread_env": {var: os.environ.get(var, "unset") for var in THREAD_VARS},
        "seed": seed,
    }


def measure_setup(workload: str, seed: int, samples: int) -> list[float]:
    """Set-up seconds of ``samples`` fresh processes, each importing the
    program and preparing the workload as a user's process would."""
    times = []
    for _ in range(samples):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-probe"],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        times.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return times


def setup_probe(workload: str, seed: int) -> float:
    import workloads

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="setup-", dir=OUT))
    try:
        workloads.SETUP[workload](seed, workloads.REFERENCE, workdir)
        return time.perf_counter() - T0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def end_to_end(outcome, setup_times: list[float]) -> dict[str, float]:
    ops = len(outcome.op_seconds)
    return {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": ops / outcome.wall_s,
        "op_ms_p50": 1e3 * statistics.median(outcome.op_seconds),
        "op_ms_p90": 1e3 * float(np.percentile(outcome.op_seconds, 90)),
        "cpu_ms_per_op": 1e3 * outcome.cpu_s / ops,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 sizes=None, out_dir: Path = OUT) -> dict:
    """One run: set-up, the timed loop, the checks. Returns the run record."""
    import tracing
    import workloads

    sizes = sizes or workloads.REFERENCE
    spec = benchmark_spec()
    wanted = spec["per_layer" if trace else "end_to_end"]
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
              "environment": environment(seed)}
    setup_times = [] if trace else measure_setup(workload, seed, sizes.setup_samples)

    out_dir.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=out_dir))
    tracer = tracing.Tracer() if trace else None
    overhead = tracer.calibrate() if trace else 0.0
    try:
        if trace:
            tracer.install()
        set_op = tracer.set_op if trace else (lambda op: None)
        state = workloads.SETUP[workload](seed, sizes, workdir)
        loop_start = time.perf_counter()
        outcome = workloads.RUN[workload](state, seed, seconds, sizes, workdir, set_op)
        loop = (loop_start, time.perf_counter())
    finally:
        if trace:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    if trace:
        facts = {**outcome.facts, "cpu_s": outcome.cpu_s, "wall_s": outcome.wall_s}
        values = tracing.layer_metrics(tracer, loop, facts, overhead)
        record["traced_ops_per_s"] = len(outcome.op_seconds) / outcome.wall_s
        tracer.save(out_dir / f"spans-{workload}-seed{seed}.npz")
    else:
        values = end_to_end(outcome, setup_times)
        record["setup_samples_s"] = setup_times
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise RuntimeError(f"benchmark computes no value for {missing}")

    checks = outcome.checks
    attempted = outcome.ops_attempted + checks.made
    failed = outcome.ops_failed + checks.failed
    record.update(
        ops=len(outcome.op_seconds),
        op_seconds=outcome.op_seconds,
        program_wall_s=outcome.wall_s,
        program_cpu_s=outcome.cpu_s,
        failed_share=failed / attempted,
        checks={name: {"passed": p, "failed": f} for name, (p, f) in checks.counts.items()},
        facts=outcome.facts,
        correct=failed == 0,
        attempted=attempted,
        failed=failed,
        metrics={m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    )
    (out_dir / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1, default=str) + "\n")
    return record


def print_report(record: dict) -> None:
    env = record["environment"]
    threads = " ".join(f"{k}={v}" for k, v in env["thread_env"].items())
    print(f"perfbench {record['workload']} seed={record['seed']} trace={record['trace']} "
          f"ops={record['ops']} program_wall_s={record['program_wall_s']:.2f} "
          f"cpu_per_wall={record['program_cpu_s'] / record['program_wall_s']:.3f}")
    print(f"  nproc={env['nproc']} cpus_allowed={env['cpus_allowed']} python={env['python']} "
          f"numpy={env['numpy']} blas={env['blas']}")
    print(f"  {threads}")
    for name, m in record["metrics"].items():
        print(f"  {name:34s} {m['value']:>14.6g} {m['unit']}")
    print(f"  {'failed_share':34s} {record['failed_share']:>14.6g} ratio "
          f"({record['failed']}/{record['attempted']})")
    for key, value in record["facts"].items():
        print(f"  {key}: {value}")
    if "traced_ops_per_s" in record:
        print(f"  traced ops_per_s: {record['traced_ops_per_s']:.6g} (compare the untraced run)")
    checks = ", ".join(f"{n} {c['passed']}/{c['passed'] + c['failed']}"
                       for n, c in record["checks"].items())
    print(f"  checks passed: {checks}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import_program()
    except ProgramNotFound as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_probe(args.workload, args.seed)}))
        return 0
    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print_report(record)
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

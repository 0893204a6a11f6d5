"""Layered benchmark for epictrl.

    python3 benchmarks/bench.py --workload optimize --seed 1 --seconds 50 --trace 0

Runs one workload (see ``workloads.py``) in this process, one operation at a
time, for ``--seconds`` seconds, checks every operation's outputs against
pinned references, and prints the metrics.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.

* ``--trace 0`` gives the end-to-end metrics: median seconds per operation
  (``wall_s``), peak resident memory, and set-up time (``setup_s``: importing
  the package and loading the workload's config in a fresh interpreter).
  One set-up sample is taken after every operation, and at least
  ``SETUP_MIN_SAMPLES`` per run; ``setup_s`` is their median.  Spreading the
  samples over the run makes them see the same drift in the machine's speed
  as the operations, instead of the few seconds a burst of samples covers.
* ``--trace 1`` gives the per-layer metrics: every second operation runs
  with spans around the calls into each module (``tracing.py``), and the
  public vector field and costate right-hand side are timed per call.  The
  spans are written to ``.bench_out/<workload>/spans.jsonl``.

Both modes measure with one BLAS thread, pinned to one CPU, while
``busy.BusyLoop`` holds a second CPU with a fixed loop (``busy.py`` says
why); the benchmark needs two CPUs.

The package is imported from ``src/`` of the checkout that holds this file;
without it the benchmark exits with status 1 and prints no result.  Every
run also writes a record with the machine description to
``.bench_out/<workload>/result-seed<N>-trace<T>.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

import busy
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_ROOT = os.path.join(ROOT, ".bench_out")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_MIN_SAMPLES = 7
C04_BUDGET_S = 120.0
C01_BUDGET_S = 60.0
C01_DRAWS = 200

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import epictrl
epictrl.load_config(sys.argv[2])
print(time.perf_counter() - t0)
"""


def configure_environment() -> None:
    """One BLAS thread (<= nproc), set before numpy is first imported."""
    for var in BLAS_VARS:
        os.environ[var] = "1"


def import_package():
    """Import epictrl from this checkout's src/, never from an installed copy."""
    if not os.path.isfile(os.path.join(SRC, "epictrl", "__init__.py")):
        raise FileNotFoundError(f"no epictrl package under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import epictrl
    import epictrl.cli  # noqa: F401  (submodules the workloads reach as attributes)
    import epictrl.oracle  # noqa: F401

    if os.path.dirname(os.path.dirname(os.path.abspath(epictrl.__file__))) != SRC:
        raise ImportError(f"epictrl imported from {epictrl.__file__}, not {SRC}")
    return epictrl


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def machine_info() -> dict:
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "git_commit": _git_commit(),
        "loadavg_start": list(os.getloadavg()),
    }


def measure_setup(config_path: str) -> float:
    """Import + config load in a fresh interpreter; the child times itself."""
    out = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, SRC, config_path],
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
        cwd=ROOT,
    )
    return float(out.stdout.strip().splitlines()[-1])


def run_ops(ec, workload, seconds: float, tracer=None, after_op=None):
    """Operations back to back until ``seconds`` have passed (at least one).

    ``after_op``, if given, is called after every operation, outside its
    timed region.

    With a tracer, every second operation runs traced, so drift in the
    machine's speed hits traced and untraced operations alike; the tracer is
    installed before and restored after each traced operation, outside the
    timed region.  Returns untraced durations, traced durations, outcomes.
    """
    from workloads import Outcome

    durations: tuple[list[float], list[float]] = ([], [])
    outcomes = []
    start = time.perf_counter()
    while True:
        inp = workload.next_input(ec)
        traced = tracer is not None and len(outcomes) % 2 == 1
        if traced:
            tracer.install()
        error = None
        t0 = time.perf_counter()
        try:
            result = tracer.run_op(workload.op, ec, inp) if traced else workload.op(ec, inp)
        except Exception as exc:  # a failing operation is counted, not fatal
            error = exc
        finally:
            durations[traced].append(time.perf_counter() - t0)
            if traced:
                tracer.restore()
        if error is None:
            outcomes.append(workload.check(result))
        else:
            traceback.print_exception(error, file=sys.stderr)
            outcomes.append(Outcome(False, math.nan, f"{type(error).__name__}: {error}"))
        if after_op is not None:
            after_op()
        done = tracer is None or durations[True]
        if done and time.perf_counter() - start >= seconds:
            return durations[False], durations[True], outcomes


def tail(samples: list[float]) -> str:
    """Highest percentile with at least ten samples above it."""
    n = len(samples)
    if n <= 10:
        return f"n={n}, too few samples for a tail percentile"
    rank = n - 10
    return f"n={n}, p{100.0 * rank / n:.1f}={sorted(samples)[rank - 1]:.6g}"


def per_call_us(fn, args, calls: int = 2000, repeats: int = 5) -> float:
    rates = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn(*args)
        rates.append((time.perf_counter() - t0) / calls)
    return statistics.median(rates) * 1e6


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def layer_metrics(ec, workload, ops: dict, untraced: list[float], traced: list[float]) -> dict:
    """Per-layer metrics from the traced operations (op ids >= 1)."""
    runs = [ops[k] for k in sorted(ops) if k >= 1]

    def key(k):
        return [op["keys"].get(k, {"calls": 0, "total": 0.0, "self": 0.0, "counts": {}}) for op in runs]

    def calls(k):
        return _median(a["calls"] for a in key(k))

    def total_s(k):
        return _median(a["total"] for a in key(k))

    def per_call_ms(k):
        return 1e3 * _median(d for op in ops.values() for d in op["keys"].get(k, {}).get("durations", ()))

    def count(k, name):
        return _median(a["counts"].get(name, 0) for a in key(k))

    def layer_self(layer):
        return _median(
            sum(a["self"] for k, a in op["keys"].items() if k.startswith(layer + ".")) for op in runs
        )

    brute = key("oracle.brute_force")
    wall_untraced = _median(untraced)
    params, initial, weights = workload.sample(ec)
    v, u = 0.5 * params.v_max, 0.5
    adjoint = ec.integrator.AdjointVector((1.0,) * 6, (1.0,) * params.n)
    return {
        "model.vector_field.us": per_call_us(ec.model.vector_field, (initial, v, u, params)),
        "control.adjoint_rhs.us": per_call_us(
            ec.control.adjoint_rhs, (adjoint, initial, u, v, params, weights)
        ),
        "integrator.forward.calls": calls("integrator.forward"),
        "integrator.forward.ms": per_call_ms("integrator.forward"),
        "integrator.forward.s": total_s("integrator.forward"),
        "integrator.backward.calls": calls("integrator.backward"),
        "integrator.backward.ms": per_call_ms("integrator.backward"),
        "integrator.backward.s": total_s("integrator.backward"),
        "integrator.row_views.ms": 1e3 * total_s("integrator.row_views"),
        "integrator.self_s": layer_self("integrator"),
        "control.sweep_iterations": count("control.fbsm_solve", "iterations"),
        "control.fbsm_solve.calls": calls("control.fbsm_solve"),
        "control.fbsm_solve.self_s": _median(a["self"] for a in key("control.fbsm_solve")),
        "control.optimize_terminal_time.s": total_s("control.optimize_terminal_time"),
        "control.total_cost.calls": calls("control.total_cost"),
        "control.total_cost.ms": per_call_ms("control.total_cost"),
        "control.self_s": layer_self("control"),
        "oracle.candidates": count("oracle.brute_force", "candidates"),
        "oracle.candidates_per_s": _median(
            a["counts"]["candidates"] / a["total"] for a in brute if a["calls"]
        ),
        "oracle.brute_force.s": total_s("oracle.brute_force"),
        "oracle.self_s": layer_self("oracle"),
        "oracle.c04_budget_frac": wall_untraced / C04_BUDGET_S if workload.name == "oracle" else 0.0,
        "integrator.c01_budget_frac": wall_untraced / workload.batch * C01_DRAWS / C01_BUDGET_S
        if workload.name == "ensemble"
        else 0.0,
        "cli.write.ms": 1e3 * _median(a["self"] for a in key("cli.write")),
        "cli.summarize.ms": 1e3 * total_s("cli.summarize"),
        "cli.bytes_written": count("cli.write", "bytes"),
        "cli.self_s": layer_self("cli"),
        "scenarios.load_config.ms": per_call_ms("scenarios.load_config"),
        "scenarios.self_s": layer_self("scenarios"),
        "trace.overhead_frac": _median(traced) / wall_untraced - 1.0,
        "trace.coverage_frac": _median(
            1.0 - op["keys"][tracing.ROOT_KEY]["self"] / op["wall"] for op in runs
        ),
    }


LAYER_UNITS = {
    "us": "us",
    "ms": "ms",
    "s": "s",
    "calls": "count",
    "sweep_iterations": "count",
    "candidates": "count",
    "candidates_per_s": "1/s",
    "bytes_written": "B",
    "c04_budget_frac": "frac",
    "c01_budget_frac": "frac",
    "self_s": "s",
    "overhead_frac": "frac",
    "coverage_frac": "frac",
}


def layer_unit(name: str) -> str:
    last = name.rsplit(".", 1)[1]
    return LAYER_UNITS[last]


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the record whose summary is printed."""
    ec = import_package()
    import workloads

    info = machine_info()
    workload = workloads.prepare(name, ROOT, OUT_ROOT, seed)
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace), "machine": info}
    restored = True
    with busy.BusyLoop() as loop:
        if not trace:
            setup: list[float] = []

            def sample_setup():
                setup.append(measure_setup(workload.config_path))

            durations, _, outcomes = run_ops(ec, workload, seconds, after_op=sample_setup)
            while len(setup) < SETUP_MIN_SAMPLES:
                sample_setup()
            metrics = {
                "wall_s": statistics.median(durations),
                "setup_s": statistics.median(setup),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            units = END_TO_END
            record["samples"] = {"wall_s": durations, "setup_s": setup}
        else:
            tracer = tracing.Tracer()
            before = tracing.snapshot()
            tracer.install()
            try:
                for _ in range(3):
                    ec.scenarios.load_config(workload.config_path)
            finally:
                tracer.restore()
            untraced, traced, outcomes = run_ops(ec, workload, seconds, tracer)
            restored = tracing.snapshot() == before
            tracer.write(os.path.join(OUT_ROOT, name, "spans.jsonl"))
            metrics = layer_metrics(ec, workload, tracing.per_op(tracer.spans), untraced, traced)
            units = {k: layer_unit(k) for k in metrics}
            record["samples"] = {"wall_s_untraced": untraced, "wall_s_traced": traced}
    info["busy_loop_rep_ms"] = loop.rep_ms
    final = workload.final_check(ec)
    failed = sum(not o.ok for o in outcomes)
    info["loadavg_end"] = list(os.getloadavg())
    record.update(
        correct=failed == 0 and final.ok and restored,
        attempted=len(outcomes),
        failed=failed,
        cost_rel_err=max([o.cost_rel_err for o in outcomes] + [final.cost_rel_err]),
        checks=[o.detail for o in outcomes] + [final.detail],
        restored=restored,
        metrics={k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        sample_summary={
            k: {"n": len(v), "median": statistics.median(v), "tail": tail(v)}
            for k, v in record["samples"].items()
        },
    )
    return record


def report(record: dict) -> None:
    """Human-readable lines, then the one-line JSON result."""
    print("machine " + json.dumps(record["machine"], sort_keys=True))
    for detail in record["checks"][:2] + record["checks"][-1:]:
        if detail:
            print(f"check {detail}")
    failed_frac = record["failed"] / record["attempted"]
    print(
        f"correct={record['correct']} attempted={record['attempted']} failed={record['failed']} "
        f"failed_frac={failed_frac:g} cost_rel_err={record['cost_rel_err']:.3g}"
    )
    for key, summary in record["sample_summary"].items():
        print(f"{key} median={summary['median']:.6g} s ({summary['tail']})")
    for name, m in record["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(
        json.dumps(
            {
                "correct": record["correct"],
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": record["metrics"],
            }
        )
    )


def main(argv: list[str] | None = None) -> int:
    from workloads import NAMES

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (FileNotFoundError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    path = os.path.join(OUT_ROOT, args.workload, f"result-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
    report(record)
    return 0


if __name__ == "__main__":
    configure_environment()
    sys.exit(main())

"""Self-check of the benchmark itself.

    python3 benchmarks/selfcheck.py

Runs every workload's traced measurement twice (one untraced and one
traced operation each) and fails unless

* the counts a later change may quote (sweep iterations, sweep calls,
  forward/backward/cost calls, oracle candidates, bytes written) repeat
  exactly between the two runs;
* every wrapper the tracer installed is gone again, so the next untraced
  operation runs the package's own functions;
* ``BENCHMARK.json`` names only workloads the benchmark defines, and
  exactly the metrics it prints.

Takes a few minutes on a 2-core machine.  Exit status 0 means all
checks passed.
"""

from __future__ import annotations

import json
import os
import sys

import bench

COUNTS = (
    "control.sweep_iterations",
    "control.fbsm_solve.calls",
    "control.total_cost.calls",
    "integrator.forward.calls",
    "integrator.backward.calls",
    "oracle.candidates",
    "cli.bytes_written",
)


def main() -> int:
    bench.configure_environment()
    bench.import_package()
    import tracing
    import workloads

    problems = []
    with open(os.path.join(bench.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if not {w["name"] for w in spec["workloads"]} <= set(workloads.NAMES):
        problems.append("BENCHMARK.json names a workload workloads.py does not define")
    if {m["name"] for m in spec["end_to_end"]} != set(bench.END_TO_END):
        problems.append("BENCHMARK.json end_to_end metrics differ from bench.END_TO_END")
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}

    pristine = tracing.snapshot()
    for name in workloads.NAMES:
        records = [bench.run(name, 0, 0.001, trace=True) for _ in range(2)]
        first, second = ({k: m["value"] for k, m in r["metrics"].items()} for r in records)
        for key in COUNTS:
            status = "ok" if first[key] == second[key] else "DIFFERS"
            print(f"{name:9s} {key:28s} {first[key]:>12g} {second[key]:>12g} {status}")
            if first[key] != second[key]:
                problems.append(f"{name}: {key} {first[key]} != {second[key]}")
        for r in records:
            if not r["correct"]:
                problems.append(f"{name}: run not correct: {r['checks']}")
        if tracing.snapshot() != pristine:
            problems.append(f"{name}: a traced wrapper survived the run")
        units = {k: m["unit"] for k, m in records[0]["metrics"].items()}
        if units != per_layer:
            problems.append(f"{name}: per-layer metrics differ from BENCHMARK.json")
    for p in problems:
        print("FAIL " + p)
    print("selfcheck " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

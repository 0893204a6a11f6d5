"""Fold the run records in .bench_out/ into one entry of the BENCH trajectory.

    python3 benchmarks/collect.py LABEL

Reads every ``.bench_out/<workload>/result-seed<N>-trace<T>.json`` written
by ``bench.py`` and writes ``benchmarks/BENCH_<LABEL>.json``: per workload
and metric the median, the quartiles (``statistics.quantiles(n=4)``), the
quartile spread as a share of the median, and every per-seed value; plus
the machine the runs were made on.  Compare two entries made on the same
machine with the same ``--seconds``.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_ROOT = os.path.join(os.path.dirname(HERE), ".bench_out")


def summarize(values: list[float]) -> dict:
    out = {"n": len(values), "median": statistics.median(values), "values": values}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3, spread=(q3 - q1) / out["median"] if out["median"] else None)
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    records = []
    for path in sorted(glob.glob(os.path.join(OUT_ROOT, "*", "result-seed*-trace*.json"))):
        with open(path, encoding="utf-8") as fh:
            records.append(json.load(fh))
    if not records:
        print(f"no records under {OUT_ROOT}", file=sys.stderr)
        return 1
    workloads: dict = {}
    for r in sorted(records, key=lambda r: (r["workload"], r["trace"], r["seed"])):
        entry = workloads.setdefault(r["workload"], {"runs": {}, "metrics": {}})
        mode = "per_layer" if r["trace"] else "end_to_end"
        entry["runs"].setdefault(mode, []).append(
            {"seed": r["seed"], "correct": r["correct"], "attempted": r["attempted"], "failed": r["failed"]}
        )
        for name, m in r["metrics"].items():
            entry["metrics"].setdefault(name, {"unit": m["unit"], "values": []})["values"].append(m["value"])
    for entry in workloads.values():
        for m in entry["metrics"].values():
            m.update(summarize(m.pop("values")))
    first = records[0]["machine"]
    loads = [x for r in records for x in (r["machine"]["loadavg_start"][0], r["machine"]["loadavg_end"][0])]
    reps = [r["machine"]["busy_loop_rep_ms"] for r in records]
    per_run = ("loadavg_start", "loadavg_end", "busy_loop_rep_ms")
    machine = {k: v for k, v in first.items() if k not in per_run}
    machine["commits"] = sorted({str(r["machine"]["git_commit"]) for r in records})
    machine["loadavg_1min_range"] = [min(loads), max(loads)]
    machine["busy_loop_rep_ms_range"] = [min(reps), max(reps)]
    bench = {
        "label": argv[0],
        "seconds": sorted({r["seconds"] for r in records}),
        "machine": machine,
        "workloads": workloads,
    }
    path = os.path.join(HERE, f"BENCH_{argv[0]}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(bench, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Alternating benchmark pairs of two commits.

    python3 tools/bench_pairs.py PARENT CHANGE --workload oracle --pairs 10 --seed 6001

Clones this repository twice into a temporary directory (``TMPDIR`` chooses
where), checks out PARENT in one clone and CHANGE in the other, and runs

    python3 benchmarks/bench.py --workload W --seed N --seconds 50 --trace 0

in each, one pair per seed (N, N + 1, ...), alternating which side runs first.
Seeds are taken in order across the workloads given, so no two runs share one.
Writes ``BENCH_<change>.json`` at the root of this checkout: every run, and for
each workload and end-to-end metric of ``BENCHMARK.json`` each side's median
and quartiles, the pairs each side won (ties count for neither), the parent's
interquartile range, whether the change's gain would count as a claim (it
wins at least 9 pairs in 10 and the medians differ by more than that range),
and the no-regression verdict against the metric's relative ``bound``:

- ``unresolved`` when the parent's interquartile range exceeds ``bound`` times
  its median, unless every change run beats every parent run;
- else ``ok`` when the change's median is worse than the parent's by at most
  ``bound`` times the parent's median;
- else ``regressed``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")
COMMAND = "python3 benchmarks/bench.py --workload W --seed N --seconds 50 --trace 0"


def git(*args: str, cwd: str = ROOT) -> str:
    proc = subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True, text=True)
    return proc.stdout.strip()


def run_side(checkout: str, workload: str, seed: int) -> dict:
    """One benchmark run: its exit status, result line and machine description."""
    command = ["benchmarks/bench.py", "--workload", workload, "--seed", str(seed)]
    command += ["--seconds", "50", "--trace", "0"]  # as COMMAND
    proc = subprocess.run([sys.executable, *command], cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    machine = [json.loads(line[len("machine ") :]) for line in lines if line.startswith("machine ")]
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    return {
        "rc": proc.returncode,
        "result": result,
        "machine": machine[0] if machine else None,
        "stderr": proc.stderr[-2000:] if proc.returncode else "",
    }


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(pairs: list[dict], metrics: list[dict]) -> dict:
    """Per end-to-end metric: each side's quartiles, wins, the claim rule and the verdict."""
    out = {}
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        before, after = ([p[s]["result"]["metrics"][name]["value"] for p in pairs] for s in SIDES)
        parent, change = quartiles(before), quartiles(after)
        wins = [(c < p) if lower else (c > p) for p, c in zip(before, after)]
        losses = [(c > p) if lower else (c < p) for p, c in zip(before, after)]
        sign = 1 if lower else -1
        gain = (parent["median"] - change["median"]) * sign
        iqr, bound = parent["q3"] - parent["q1"], metric["bound"] * parent["median"]
        beats_all = max(sign * c for c in after) < min(sign * p for p in before)
        verdict = "ok" if -gain <= bound else "regressed"
        out[name] = {
            "parent": parent,
            "change": change,
            "pairs": len(pairs),
            "change_wins": sum(wins),
            "parent_wins": sum(losses),
            "median_gain": gain,
            "median_change_frac": (change["median"] - parent["median"]) / parent["median"],
            "parent_iqr": iqr,
            "gain_claim_holds": sum(wins) >= 0.9 * len(pairs) and gain > iqr,
            "bound": metric["bound"],
            "verdict": "unresolved" if iqr > bound and not beats_all else verdict,
        }
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="commit the change is measured against")
    parser.add_argument("change", help="commit under test")
    parser.add_argument("--workload", action="append", required=True, help="repeat for several")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, required=True, help="first seed; one per pair")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        metrics = json.load(fh)["end_to_end"]
    refs = {"parent": args.parent, "change": args.change}
    commits = {side: git("rev-parse", f"{ref}^{{commit}}") for side, ref in refs.items()}
    report = {
        "label": commits["change"][:7],
        "commits": commits,
        "command": COMMAND,
        "method": (
            f"{args.pairs} pairs per workload; each side runs from its own git clone; pairs "
            "alternate which side runs first, the parent first in pair 0; one fresh seed per pair"
        ),
        "machine": None,
        "pairs": {},
        "summary": {},
    }
    seed = args.seed
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        checkouts = {}
        for side, sha in commits.items():
            checkouts[side] = os.path.join(tmp, side)
            git("clone", "-q", ROOT, checkouts[side], cwd=tmp)
            git("checkout", "-q", sha, cwd=checkouts[side])
        for workload in args.workload:
            pairs = report["pairs"][workload] = []
            for i in range(args.pairs):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = run_side(checkouts[side], workload, seed)
                    report["machine"] = report["machine"] or pair[side]["machine"]
                    metrics_got = (pair[side]["result"] or {}).get("metrics", {})
                    wall = metrics_got.get("wall_s", {}).get("value")
                    line = f"{workload} seed {seed} {side}: rc={pair[side]['rc']} wall_s={wall}"
                    print(line, flush=True)
                pairs.append(pair)
                seed += 1
            if all(p[s]["result"] for p in pairs for s in SIDES):
                summary = report["summary"][workload] = summarize(pairs, metrics)
                runs = {s: [p[s]["result"] for p in pairs] for s in SIDES}
                summary["operations"] = {
                    s: {
                        "attempted": sum(r["attempted"] for r in runs[s]),
                        "failed": sum(r["failed"] for r in runs[s]),
                        "all_correct": all(r["correct"] for r in runs[s]),
                    }
                    for s in SIDES
                }
    per_run = ("git_commit", "loadavg_start", "loadavg_end", "busy_loop_rep_ms")
    machine = {k: v for k, v in (report["machine"] or {}).items() if k not in per_run}
    report["machine"] = {**machine, "platform": platform.platform()}
    path = os.path.join(ROOT, f"BENCH_{report['label']}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")
    for workload, summary in report["summary"].items():
        for name in (m["name"] for m in metrics):
            s = summary[name]
            print(
                f"{workload} {name}: parent {s['parent']['median']:.6g} "
                f"change {s['change']['median']:.6g} change wins {s['change_wins']}/{s['pairs']} "
                f"parent IQR {s['parent_iqr']:.3g} gain claim holds: {s['gain_claim_holds']} "
                f"verdict at bound {s['bound']:g}: {s['verdict']}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Alternating cold one-shot CLI runs of two commits.

    python3 tools/cold_pairs.py PARENT CHANGE --pairs 10

Clones this repository twice into a temporary directory (``TMPDIR`` chooses
where), checks out PARENT in one clone and CHANGE in the other, and times
each of

    python3 -m epictrl.cli simulate --config configs/covid19.json --out DIR
    python3 -m epictrl.cli optimize --config configs/covid19.json --out DIR
    python3 -m epictrl.cli compare --out DIR

as a whole new process with one BLAS thread, from start to exit, in each
clone: one pair per command and round, alternating which side runs first.
A first round is run and not kept, so that both sides start from warm file
caches.  This is what one command at a shell costs, import and any one-time
work included, which the per-operation medians of ``benchmarks/bench.py``
leave out.  Prints, per command, the fields ``tools/bench_pairs.py`` gives an
end-to-end metric (each side's quartiles, the pairs each side won, the
parent's interquartile range and the verdict at a bound of ``BOUND``), and
the quartiles of each round's ratio change/parent, whose two sides ran back
to back.  It also hashes every file each command writes, on both sides, and
prints per command whether they were byte-identical in every round, naming
the files that differed; this is a report, not a check, as a change may move
outputs on purpose.  ``--json PATH`` also writes all of it and every time.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import time

from bench_pairs import ROOT, SIDES, describe, git, quartiles, summarize

COMMANDS = {
    "simulate": ["simulate", "--config", "configs/covid19.json"],
    "optimize": ["optimize", "--config", "configs/covid19.json"],
    "compare": ["compare"],
}
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BOUND = 0.25  # that of wall_s in BENCHMARK.json


def run_once(checkout: str, argv: list[str], tmp: str) -> tuple[float, dict]:
    """Seconds from start to exit of one CLI command in ``checkout``, and the sha256 of each file
    it wrote by its path under ``--out``."""
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"), **dict.fromkeys(BLAS_VARS, "1"))
    with tempfile.TemporaryDirectory(dir=tmp) as out:
        started = time.perf_counter()
        subprocess.run(
            [sys.executable, "-m", "epictrl.cli", *argv, "--out", out],
            cwd=checkout, env=env, check=True, capture_output=True, timeout=600,
        )
        took, digests = time.perf_counter() - started, {}
        for folder, _, names in os.walk(out):
            for name in names:
                with open(os.path.join(folder, name), "rb") as fh:
                    digests[os.path.relpath(fh.name, out)] = hashlib.sha256(fh.read()).hexdigest()
        return took, digests


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="commit the change is measured against")
    parser.add_argument("change", help="commit under test")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--json", default=None, help="also write the summary and every time here")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 for quartiles")
    commits = {side: git("rev-parse", f"{ref}^{{commit}}") for side, ref in zip(SIDES, (args.parent, args.change))}
    rounds = []  # per kept round, each side's seconds per command, shaped as bench_pairs' pairs
    differ = {name: set() for name in COMMANDS}  # files whose bytes differ between the sides
    with tempfile.TemporaryDirectory(prefix="cold-pairs-") as tmp:
        checkouts = {side: os.path.join(tmp, side) for side in SIDES}
        for side, sha in commits.items():
            git("clone", "-q", ROOT, checkouts[side], cwd=tmp)
            git("checkout", "-q", sha, cwd=checkouts[side])
        for i in range(args.pairs + 1):
            took = {side: {} for side in SIDES}
            for name, command in COMMANDS.items():
                digests = {}
                for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                    seconds, digests[side] = run_once(checkouts[side], command, tmp)
                    took[side][name] = {"value": seconds}
                parent, change = (digests[side] for side in SIDES)
                differ[name].update(f for f in parent.keys() | change.keys() if parent.get(f) != change.get(f))
            if i:
                rounds.append({side: {"result": {"metrics": took[side]}} for side in SIDES})
    summary = summarize(rounds, [{"name": name, "better": "lower", "bound": BOUND} for name in COMMANDS])
    seconds = {name: {s: [r[s]["result"]["metrics"][name]["value"] for r in rounds] for s in SIDES}
               for name in COMMANDS}
    for name, s in summary.items():
        ratio = s["ratio"] = quartiles([c / p for p, c in zip(*(seconds[name][side] for side in SIDES))])
        print(describe(name, s))
        print(f"{name}: change/parent per round {ratio['median']:.4g} ({ratio['q1']:.4g}/{ratio['q3']:.4g}) "
              f"IQR {ratio['q3'] - ratio['q1']:.3g}")
        s["outputs_differ"] = sorted(differ[name])
        print(f"{name}: outputs", f"differ in {', '.join(s['outputs_differ'])}" if differ[name]
              else f"byte-identical in all {args.pairs + 1} rounds")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump({"commits": commits, "commands": COMMANDS, "summary": summary, "seconds": seconds}, fh, indent=2)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

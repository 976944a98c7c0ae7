"""A/B perf gate: perfbench on a base commit and on HEAD, in alternating pairs.

Usage (from anywhere in the checkout)::

    python benchmarks/ab.py BASE [--pairs 10] [--seconds S]
    make perf-ab BASE=<ref>

BASE and HEAD are extracted with ``git archive`` into two temporary
trees, so neither side carries ``__pycache__`` or an uncommitted edit.
Each tree's own ``perfbench/run.py --trace 0`` (the command in
``BENCHMARK.json``) runs every workload ``BENCHMARK.json`` declares, in
pairs: both runs of a pair take one seed, derived from the two commits,
and the side that runs first alternates from pair to pair.  ``--seconds``
defaults to the benchmark's ``run_seconds``.

For every end-to-end metric the report gives both medians, the base's
interquartile range, the pairs the change won, and the change against
the metric's ``bound`` and ``better`` in ``BENCHMARK.json``.  A metric
is a ``gain`` when the change won at least nine tenths of ten or more
pairs and the medians differ by more than the base's IQR.  The gate
fails (exit 1) when

* a run exits non-zero or reports ``correct: false``;
* the change fails more operations on a workload than the base;
* a metric is worse than its bound and the change lost most pairs.

A workload flagged by the last rule on fewer than ten pairs is topped
up to ten and judged again before the gate fails on it: a few short
pairs alone flag noise.  Standard output ends with one JSON object, the
whole report with every run.  Stdlib only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
from typing import Callable

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Pairs a flagged workload is topped up to, and the fewest a gain needs.
CONFIRM_PAIRS = 10

#: ``run(side, workload, seed)`` -> one run record (see :func:`perfbench_runner`).
Runner = Callable[[str, str, int], dict]


def pair_seeds(base_sha: str, head_sha: str, count: int) -> list[int]:
    """The seed of each of *count* pairs, fixed by the two commits."""
    return [
        int.from_bytes(hashlib.sha256(f"{base_sha} {head_sha} {i}".encode()).digest()[:4], "big")
        >> 1
        for i in range(count)
    ]


def judge_metric(base: list[float], head: list[float], better: str, bound: float) -> dict:
    """One end-to-end metric over pairs: ``base[i]`` and ``head[i]`` share a seed."""
    sign = 1.0 if better == "lower" else -1.0
    base_median, head_median = statistics.median(base), statistics.median(head)
    wins = sum(sign * (h - b) < 0 for b, h in zip(base, head))
    losses = sum(sign * (h - b) > 0 for b, h in zip(base, head))
    # a median of 0 has no relative bound (perfbench/README.md)
    change = (head_median - base_median) / abs(base_median) if base_median else 0.0
    iqr = 0.0
    if len(base) > 1:
        q1, _, q3 = statistics.quantiles(base, n=4, method="inclusive")
        iqr = q3 - q1
    pairs = len(base)
    if sign * change > bound and 2 * losses > pairs:
        verdict = "regression"
    elif (pairs >= CONFIRM_PAIRS and 10 * wins >= 9 * pairs
          and sign * (base_median - head_median) > iqr):
        verdict = "gain"
    else:
        verdict = "ok"
    return {"base_median": base_median, "head_median": head_median, "base_iqr": iqr,
            "wins": wins, "losses": losses, "pairs": pairs, "change": change,
            "better": better, "bound": bound, "verdict": verdict}


def judge_workload(runs: list[tuple[dict, dict]], end_to_end: list[dict]) -> dict:
    """The verdict on one workload's ``(base, head)`` run records."""
    errors = []
    for pair in runs:
        for side, run in zip(("base", "head"), pair):
            if run["exit"] != 0:
                errors.append(f"{side} run (seed {run['seed']}) exited {run['exit']}")
            elif not run["correct"]:
                errors.append(f"{side} run (seed {run['seed']}) reported correct: false "
                              f"({run['failed']} of {run['attempted']} operations failed)")
    base_failed = sum(b["failed"] for b, _ in runs)
    head_failed = sum(h["failed"] for _, h in runs)
    if head_failed > base_failed:
        errors.append(f"the change failed {head_failed} operations, the base {base_failed}")
    complete = [pair for pair in runs if pair[0]["metrics"] and pair[1]["metrics"]]
    metrics = {}
    for spec in end_to_end if complete else ():
        name = spec["name"]
        metrics[name] = judge_metric([b["metrics"][name] for b, _ in complete],
                                     [h["metrics"][name] for _, h in complete],
                                     spec["better"], spec["bound"])
    regressions = [name for name, m in metrics.items() if m["verdict"] == "regression"]
    return {"pairs": len(runs), "pass": not errors and not regressions,
            "errors": errors, "regressions": regressions, "metrics": metrics}


def run_workload(workload: str, pairs: int, seeds: list[int], run: Runner,
                 end_to_end: list[dict]) -> dict:
    """*pairs* pairs of *workload*, topped up to :data:`CONFIRM_PAIRS` on a regression."""
    runs: list[tuple[dict, dict]] = []

    def run_up_to(count: int) -> dict:
        for i in range(len(runs), count):
            order = ("base", "head") if i % 2 == 0 else ("head", "base")
            pair = {side: run(side, workload, seeds[i]) for side in order}
            runs.append((pair["base"], pair["head"]))
        return judge_workload(runs, end_to_end)

    verdict = run_up_to(pairs)
    if verdict["regressions"] and not verdict["errors"] and pairs < CONFIRM_PAIRS:
        verdict = run_up_to(CONFIRM_PAIRS)
    return {**verdict, "runs": [{"base": b, "head": h} for b, h in runs]}


def perfbench_runner(trees: dict[str, str], command: list[str], seconds: float) -> Runner:
    """Run ``perfbench/run.py`` in the tree of each side; one record per run."""
    # neither side may read bytecode the other's runs left behind
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")

    def run(side: str, workload: str, seed: int) -> dict:
        cmd = [*command, "--workload", workload, "--seed", str(seed),
               "--seconds", f"{seconds:g}", "--trace", "0"]
        done = subprocess.run(cmd, cwd=trees[side], env=env, capture_output=True, text=True)
        record = {"seed": seed, "exit": done.returncode, "correct": False,
                  "attempted": 0, "failed": 0, "metrics": {}}
        try:
            summary = json.loads(done.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            record["exit"] = done.returncode or 1  # no summary line: not a run
        else:
            record.update(correct=summary["correct"], attempted=summary["attempted"],
                          failed=summary["failed"],
                          metrics={k: v["value"] for k, v in summary["metrics"].items()})
        if record["exit"] or not record["correct"]:
            record["stderr"] = done.stderr[-2000:]
        print(f"  {workload} seed {seed} {side}: exit {record['exit']}, "
              f"wall_s {record['metrics'].get('wall_s', float('nan')):.4g}",
              file=sys.stderr, flush=True)
        return record

    return run


def _git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def _print_workload(name: str, verdict: dict) -> None:
    print(f"{name}: {verdict['pairs']} pairs, {'pass' if verdict['pass'] else 'FAIL'}")
    print(f"  {'metric':16s} {'base':>10s} {'head':>10s} {'base IQR':>10s} "
          f"{'wins':>6s} {'change':>8s} {'bound':>6s}")
    for metric, m in verdict["metrics"].items():
        print(f"  {metric:16s} {m['base_median']:10.4g} {m['head_median']:10.4g} "
              f"{m['base_iqr']:10.3g} {m['wins']:>3d}/{m['pairs']:<2d} "
              f"{m['change']:+8.1%} {m['bound']:6.0%}  {m['better']}"
              + ("" if m["verdict"] == "ok" else f"  {m['verdict']}"))
    for error in verdict["errors"]:
        print(f"  error: {error}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="the commit to compare HEAD against (any git ref)")
    parser.add_argument("--pairs", type=int, default=CONFIRM_PAIRS,
                        help=f"pairs per workload (default {CONFIRM_PAIRS})")
    parser.add_argument("--seconds", type=float, default=None,
                        help="seconds per run (default: run_seconds in BENCHMARK.json)")
    args = parser.parse_args(argv)
    if args.pairs < 1 or (args.seconds is not None and args.seconds <= 0):
        parser.error("--pairs and --seconds must be positive")
    try:
        shas = {side: _git("rev-parse", "--verify", f"{ref}^{{commit}}").decode().strip()
                for side, ref in (("base", args.base), ("head", "HEAD"))}
    except subprocess.CalledProcessError as exc:
        print(f"perf-ab: {exc.stderr.decode().strip()}", file=sys.stderr)
        return 2

    with tempfile.TemporaryDirectory(prefix="perf-ab-") as tmp:
        trees = {side: os.path.join(tmp, side) for side in shas}
        for side, sha in shas.items():
            os.mkdir(trees[side])
            subprocess.run(["tar", "-x", "-C", trees[side]], input=_git("archive", sha),
                           check=True)
        with open(os.path.join(trees["head"], "BENCHMARK.json"), encoding="utf-8") as fh:
            bench = json.load(fh)
        seconds = args.seconds or bench["run_seconds"]
        print(f"perf-ab: base {shas['base'][:12]}, head {shas['head'][:12]}, "
              f"{args.pairs} pairs of {seconds:g} s per workload", flush=True)
        run = perfbench_runner(trees, bench["command"], seconds)
        seeds = pair_seeds(shas["base"], shas["head"], max(args.pairs, CONFIRM_PAIRS))
        workloads = {}
        for spec in bench["workloads"]:
            verdict = run_workload(spec["name"], args.pairs, seeds, run, bench["end_to_end"])
            _print_workload(spec["name"], verdict)
            sys.stdout.flush()
            workloads[spec["name"]] = verdict

    passed = all(v["pass"] for v in workloads.values())
    print(f"perf-ab: {'pass' if passed else 'FAIL'}")
    print(json.dumps({"base": shas["base"], "head": shas["head"], "pairs": args.pairs,
                      "seconds": seconds, "pass": passed, "workloads": workloads}))
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())

"""The repo's benchmark: run one named workload and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload paper-figs --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the
workload once untraced and once with layer spans recorded, and reports
the per-layer metrics.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the lines
before it are the same numbers for people, with units, sample counts,
and what each layer metric should move.  See perfbench/README.md.

This script is stdlib only and imports nothing from the program:
every workload runs in fresh subprocesses (perfbench/worker.py) with
``PYTHONPATH`` at the checkout's ``src`` and a cache directory of their
own (``REPRO_CACHE_DIR``) under ``.perfbench/`` in the checkout.  Every
time measured inside a workload process is scaled to a nominal host
speed (perfbench/speed.py); set-up times are process start-ups, which
the calibration kernel does not track, and are reported as measured.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from procs import python_cmd, reap, spawn_until_ready, start_server, stop_server  # noqa: E402
from speed import SpeedTrack  # noqa: E402
from tracing import LAYER_METRICS, PER_PROCESS, layer_metrics, parse_importtime  # noqa: E402
from workloads import WORKLOADS, ServeClosed  # noqa: E402

#: End-to-end metrics: name -> unit.  BENCHMARK.json lists the same.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "warm_wall_s": "s",
    "rss_delta_mb": "MB",
    "qps": "req/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
}

#: Set-up samples per run: import-only processes, half before the workload
#: process and half after it; on serve-closed, server starts, the
#: workload's own servers among them.
SETUP_SAMPLES = 6
P99_WINDOW = 1000  # latencies per p99 window: ten lie beyond each window's p99
WORKER_GRACE_S = 120.0  # past --seconds, before a workload process is killed


class Run:
    """One benchmark invocation: its directory, environment and children."""

    def __init__(self, workload: str, seed: int, trace: int, tiny: bool) -> None:
        self.workload, self.seed, self.tiny = workload, seed, tiny
        self.run_id = f"{workload}-s{seed}-t{trace}-{os.getpid()}"
        self.dir = os.path.join(ROOT, ".perfbench", self.run_id)
        os.makedirs(self.dir)
        path = [os.path.join(ROOT, "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
        self.env.pop("REPRO_NO_DISK_CACHE", None)
        self._children = 0

    def child_env(self) -> dict[str, str]:
        """The environment of one child, with a cache directory of its own."""
        self._children += 1
        cache = os.path.join(self.dir, f"cache-{self._children}")
        return dict(self.env, REPRO_CACHE_DIR=cache)

    def worker_cmd(self, *args: str) -> list[str]:
        cmd = python_cmd(os.path.join(HERE, "worker.py"), "--workload", self.workload, *args)
        return cmd + (["--tiny"] if self.tiny else [])

    def import_only(self) -> tuple[float, int]:
        """One import-only process: (seconds to ready, peak RSS KiB)."""
        proc, ready = spawn_until_ready(
            self.worker_cmd("--import-only"), self.child_env(), self.dir, timeout=60.0
        )
        code, rss = reap(proc, 60.0)
        if ready is None or code != 0:
            raise RuntimeError(f"import-only process failed (exit {code})")
        return ready, rss

    def server_setup(self) -> float:
        """Start and stop one server on an empty cache; seconds to /healthz."""
        cmd = python_cmd("-m", "repro", "serve", "--port", "0")
        proc, _port, seconds = start_server(cmd, self.child_env(), self.dir, timeout=60.0)
        stop_server(proc)
        return seconds

    def workload_process(self, seconds: float, trace_out: str | None = None) -> dict:
        """Run the workload once; its result plus its peak RSS."""
        out = os.path.join(self.dir, f"result-{'traced' if trace_out else 'plain'}.json")
        args = ["--seed", str(self.seed), "--seconds", repr(seconds), "--out", out]
        if trace_out:
            args += ["--trace-out", trace_out]
        proc, ready = spawn_until_ready(
            self.worker_cmd(*args), self.child_env(), self.dir, timeout=60.0
        )
        code, rss = reap(proc, seconds + WORKER_GRACE_S)
        if ready is None or code != 0 or not os.path.exists(out):
            raise RuntimeError(f"workload process failed (exit {code})")
        with open(out, encoding="utf-8") as fh:
            result = json.load(fh)
        result["peak_rss_kb"] = rss
        return result

    def importtime(self) -> dict[str, float]:
        """``import.*`` metrics from one ``-X importtime`` import-only process."""
        cmd = python_cmd("-X", "importtime", *self.worker_cmd("--import-only")[1:])
        done = subprocess.run(
            cmd, env=self.child_env(), cwd=self.dir, capture_output=True, text=True, timeout=60
        )
        if done.returncode != 0:
            raise RuntimeError(f"importtime process failed (exit {done.returncode})")
        return parse_importtime(done.stderr)

    def cleanup(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


def _quantile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated between order statistics."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _p99(latencies: list[float]) -> float:
    """p99; with enough samples, the median p99 of consecutive windows of P99_WINDOW.

    Each window has ten samples beyond its p99, and one stall of the
    host moves one window's p99, not the reported one.
    """
    count = len(latencies) // P99_WINDOW
    if count < 2:
        return _quantile(latencies, 99)
    return statistics.median(
        _quantile(latencies[i * P99_WINDOW : (i + 1) * P99_WINDOW], 99) for i in range(count)
    )


def _counts(*results: dict) -> tuple[int, int]:
    records = [r for result in results for r in result["records"]]
    return len(records), sum(1 for r in records if not r[2])


def normalized(result: dict) -> tuple[list[float], dict[str, list[float]]]:
    """Operation latencies and phase walls of *result*, scaled to nominal host speed."""
    track = SpeedTrack.load(result["speed"])
    latencies = [s * track.scale(t, t + s) for _kind, s, _ok, t in result["records"]]
    walls: dict[str, list[float]] = {"cold": [], "warm": []}
    for phase, s, begin, end in result["walls"]:
        walls[phase].append(s * track.scale(begin, end))
    return latencies, walls


def end_to_end(run: Run, seconds: float) -> tuple[dict[str, float], dict, dict]:
    """The untraced run: end-to-end metrics, the raw result, extra facts."""
    serve = run.workload == "serve-closed"
    setup: list[float] = []
    baseline = []

    def set_up(count: int) -> None:
        for _ in range(count):
            if serve:
                setup.append(run.server_setup())
            else:
                ready, rss = run.import_only()
                setup.append(ready)
                baseline.append(rss)

    alone = SETUP_SAMPLES - (ServeClosed.SERVERS if serve else 0)
    set_up(alone // 2)
    result = run.workload_process(seconds)
    set_up(alone - alone // 2)
    if serve:
        servers = result["servers"]
        setup += [server["setup_s"] for server in servers]
        # each server's peak over its own peak when /healthz first
        # answered (its imports and preload, in the same process and
        # allocator state); the median server
        delta_kb = statistics.median(s["peak_rss_kb"] - s["ready_rss_kb"] for s in servers)
        base_kb = statistics.median(s["ready_rss_kb"] for s in servers)
    else:
        base_kb = statistics.median(baseline)
        delta_kb = result["peak_rss_kb"] - base_kb
    latencies, walls = normalized(result)
    # only model-maps has a cache tier that a rerun finds warm; on the
    # others every round is cold, and warm_wall_s, which every run must
    # report, is their cold median
    warm = walls["warm"] or walls["cold"]
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(walls["cold"]),
        "warm_wall_s": statistics.median(warm),
        "rss_delta_mb": delta_kb / 1024.0,
        "qps": len(latencies) / (sum(walls["cold"]) + sum(walls["warm"])),
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_p99_ms": _p99(latencies) * 1e3,
    }
    raw = [r[1] for r in result["records"]]
    facts = {
        "host speed scale (median)": SpeedTrack.load(result["speed"]).overall(),
        "setup samples": len(setup),
        "wall_s raw (median)": statistics.median(w[1] for w in result["walls"] if w[0] == "cold"),
        "cold rounds": len(walls["cold"]),
        "warm rounds": len(walls["warm"]),
        "latency samples": len(latencies),
        "p99 windows": len(latencies) // P99_WINDOW,
        "latency_p50_ms raw": statistics.median(raw) * 1e3,
        "RSS delta (KiB)": delta_kb,
        ("servers' peak RSS at /healthz (KiB, median)" if serve
         else "import-only peak RSS (KiB, median)"): base_kb,
    }
    return metrics, result, facts


def per_layer(run: Run, seconds: float) -> tuple[dict[str, float], list[dict], dict]:
    """Untraced then traced halves of *seconds*: per-layer metrics."""
    metrics = run.importtime()  # process start-up: as measured, like setup_s
    plain = run.workload_process(seconds / 2)
    spans = os.path.join(run.dir, "spans.json")
    traced = run.workload_process(seconds / 2, trace_out=spans)
    with open(spans, encoding="utf-8") as fh:
        metrics.update(layer_metrics(json.load(fh)))
    scale = SpeedTrack.load(traced["speed"]).overall()
    for name, unit, *_ in LAYER_METRICS:
        if unit in ("s", "ms") and name in metrics and not name.startswith("import."):
            metrics[name] *= scale
    stats = traced["servers"][0]["stats"] if "servers" in traced else {}
    batcher = stats.get("batcher", {})
    flushes = batcher.get("timer_flushes", 0) + batcher.get("full_flushes", 0)
    lru = stats.get("serve_cache", {}).get("lru", {})
    metrics.update(
        {
            "serve.batcher.batches": float(batcher.get("batches", 0)),
            "serve.batcher.mean_batch": float(batcher.get("mean_batch", 0.0)),
            "serve.batcher.timer_flush_frac": (
                batcher.get("timer_flushes", 0) / flushes if flushes else 0.0
            ),
            "serve.tier.hits": float(lru.get("hits", 0)),
            "serve.tier.misses": float(lru.get("misses", 0)),
            "trace.overhead_frac": statistics.median(normalized(traced)[1]["cold"])
            / statistics.median(normalized(plain)[1]["cold"])
            - 1.0,
        }
    )
    rounds = sum(1 for w in traced["walls"] if w[0] == "cold")
    for name, unit, *_ in LAYER_METRICS:
        if unit in ("count", "s") and name not in PER_PROCESS:
            metrics[name] /= rounds
    facts = {"untraced rounds": sum(1 for w in plain["walls"] if w[0] == "cold"),
             "traced rounds": rounds,
             "host speed scale (traced run)": scale}
    return metrics, [plain, traced], facts


def _git_sha() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        loose = os.path.join(ROOT, ".git", ref)
        if os.path.exists(loose):
            with open(loose, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small sizes (the benchmark's tests)")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no program at {os.path.join(ROOT, 'src', 'repro')}", file=sys.stderr)
        return 2

    started = time.perf_counter()
    run = Run(args.workload, args.seed, args.trace, args.tiny)
    try:
        if args.trace:
            values, results, facts = per_layer(run, args.seconds)
            units = {name: unit for name, unit, *_ in LAYER_METRICS}
        else:
            values, result, facts = end_to_end(run, args.seconds)
            results, units = [result], END_TO_END
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        run.cleanup()
    attempted, failed = _counts(*results)
    errors = [e for r in results for e in r["errors"]]
    environment = {
        "seed": args.seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": results[0]["numpy"],
        "git_sha": _git_sha(),
    }
    summary = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    record = {"workload": args.workload, "trace": args.trace, "environment": environment,
              "facts": facts, "errors": errors, **summary}
    with open(os.path.join(ROOT, ".perfbench", run.run_id + ".json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(f"workload {args.workload}  ({'traced' if args.trace else 'untraced'}, "
          f"{time.perf_counter() - started:.1f} s)")
    for key, value in {**environment, **facts}.items():
        print(f"  {key}: {value}")
    print(f"  error_rate: {failed / attempted if attempted else 1.0:.6g} fraction "
          f"({failed} of {attempted} operations)")
    for message in errors[:10]:
        print(f"  error: {message}")
    moves = {name: (should, on) for name, _u, _b, should, on in LAYER_METRICS}
    for name, unit in units.items():
        line = f"  {name:34s} {values[name]:>14.6g} {unit}"
        if name in moves:
            line += f"   moves {moves[name][0]} on {moves[name][1]}"
        print(line)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())

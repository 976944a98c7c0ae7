"""Top-level command-line interface: ``python -m repro <command>``.

Commands
--------

``run``
    Multiply random matrices with a chosen algorithm on the simulator
    and report time/speedup/efficiency (plus the model's prediction).
``select``
    Ask the Section-10 selector which algorithm to use for an ``(n, p)``
    instance on a given machine, with the full predicted ranking.
``machines``
    List the built-in machine presets.
``regions``
    Render a region-of-superiority map for a machine (Figures 1-3 style).
``iso``
    Print the isoefficiency function ``W(p)`` of one algorithm.
``memory``
    Print the Section 4 memory requirements at an ``(n, p)`` point.
``sweep``
    Simulate a grid of (algorithm, n, p) combinations and print (or
    export) uniform result rows.
``gantt``
    Simulate one run with tracing and render an ASCII Gantt chart of
    every rank's timeline.
``campaign``
    Scenario batteries: run an explicit battery, resume a killed one,
    re-render its anomaly report, or let the autopilot hunt anomalies
    with a seeded random battery (see :mod:`repro.campaign`).
``serve``
    Run the always-on prediction service: an asyncio HTTP server with
    micro-batched point predictions, a bounded, warm-preloaded memory
    cache, and an async job queue (see :mod:`repro.serve`).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from repro.algorithms import registry
from repro.core.cache import cache_stats, configure_disk_cache
from repro.core.isoefficiency import isoefficiency
from repro.core.machine import PRESETS, MachineParams
from repro.core.memory import memory_table
from repro.simulator.engine import SCHEDULERS
from repro.core.models import MODELS
from repro.core.regions import region_map
from repro.core.selector import select
from repro.experiments.report import format_kv, format_table, positive_int

__all__ = ["main", "build_parser"]


def _machine_from_args(args) -> MachineParams:
    if args.machine in PRESETS:
        base = PRESETS[args.machine]
    else:
        raise SystemExit(
            f"unknown machine {args.machine!r}; presets: {', '.join(sorted(PRESETS))}"
        )
    if args.ts is not None or args.tw is not None:
        base = base.with_(
            ts=args.ts if args.ts is not None else base.ts,
            tw=args.tw if args.tw is not None else base.tw,
            name="custom",
        )
    return base


def _add_scheduler_arg(sub) -> None:
    sub.add_argument(
        "--scheduler", choices=SCHEDULERS, default=None,
        help="engine scheduler (results are bit-identical; the default "
        "'compiled' replays rank-symmetric programs as vectorized batch "
        "schedules and falls back to 'heap' for the rest; see "
        "docs/performance.md)",
    )


def _add_machine_args(sub) -> None:
    sub.add_argument("--machine", default="ncube2-like", help="machine preset name")
    sub.add_argument("--ts", type=float, default=None, help="override startup time")
    sub.add_argument("--tw", type=float, default=None, help="override per-word time")


def _add_cache_args(sub) -> None:
    sub.add_argument("--cache-dir", type=str, default=None,
                     help="directory for the persistent result cache "
                          "(default: $REPRO_CACHE_DIR or ~/.cache/repro)")
    sub.add_argument("--no-disk-cache", action="store_true",
                     help="disable the persistent on-disk result cache")
    sub.add_argument("--cache-stats", action="store_true",
                     help="print cache hit/miss counters after the command")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Parallel matrix-multiplication scalability toolkit "
        "(Gupta & Kumar, ICPP 1993 reproduction).",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_run = subs.add_parser("run", help="simulate one algorithm on random matrices")
    p_run.add_argument("algorithm", choices=sorted(registry.REGISTRY))
    p_run.add_argument("-n", type=int, default=64, help="matrix order")
    p_run.add_argument("-p", type=int, default=16, help="processor count")
    p_run.add_argument("--seed", type=int, default=0)
    _add_scheduler_arg(p_run)
    _add_machine_args(p_run)

    p_sel = subs.add_parser("select", help="pick the best algorithm for (n, p)")
    p_sel.add_argument("-n", type=int, required=True)
    p_sel.add_argument("-p", type=int, required=True)
    p_sel.add_argument("--feasible", action="store_true",
                       help="restrict to exactly runnable implementations")
    _add_machine_args(p_sel)

    subs.add_parser("machines", help="list machine presets")

    p_reg = subs.add_parser("regions", help="render a region map (Figures 1-3 style)")
    p_reg.add_argument("--log2-p-max", type=int, default=30)
    p_reg.add_argument("--log2-n-max", type=int, default=16)
    p_reg.add_argument("--refine", action="store_true",
                       help="adaptive refinement: evaluate only near region boundaries")
    p_reg.add_argument("--max-depth", type=int, default=None,
                       help="refinement recursion depth limit (default: to unit cells)")
    p_reg.add_argument("--tol", type=float, default=None,
                       help="refinement gap tolerance per octave of cell extent")
    _add_machine_args(p_reg)
    _add_cache_args(p_reg)

    p_iso = subs.add_parser("iso", help="isoefficiency function W(p)")
    p_iso.add_argument("algorithm", choices=sorted(MODELS))
    p_iso.add_argument("-e", "--efficiency", type=float, default=0.5)
    p_iso.add_argument("--log2-p-max", type=int, default=24)
    _add_machine_args(p_iso)

    p_mem = subs.add_parser("memory", help="Section 4 memory requirements")
    p_mem.add_argument("-n", type=int, default=64)
    p_mem.add_argument("-p", type=int, default=64)

    p_sw = subs.add_parser("sweep", help="simulate a grid of (algorithm, n, p)")
    p_sw.add_argument("algorithms", nargs="+", help="algorithm keys")
    p_sw.add_argument("--n-values", type=int, nargs="+", default=[16, 32, 64])
    p_sw.add_argument("--p-values", type=int, nargs="+", default=[4, 16, 64])
    p_sw.add_argument("--format", choices=("table", "csv", "json"), default="table")
    p_sw.add_argument("--out", type=str, default=None, help="write to a file")
    p_sw.add_argument("--jobs", type=positive_int, default=1,
                      help="worker processes for the sweep (1 = serial)")
    p_sw.add_argument("--checkpoint", type=str, default=None,
                      help="JSONL file recording completed rows as they land")
    p_sw.add_argument("--resume", action="store_true",
                      help="reload rows from --checkpoint instead of recomputing")
    p_sw.add_argument("--worker-timeout", type=float, default=None,
                      help="watchdog: seconds without a finished block before the "
                           "worker pool is declared hung and retried inline")
    _add_machine_args(p_sw)
    _add_cache_args(p_sw)

    p_g = subs.add_parser("gantt", help="trace one run and render a Gantt chart")
    p_g.add_argument("algorithm", choices=sorted(registry.REGISTRY))
    p_g.add_argument("-n", type=int, default=32)
    p_g.add_argument("-p", type=int, default=16)
    p_g.add_argument("--width", type=int, default=100)
    _add_scheduler_arg(p_g)
    _add_machine_args(p_g)

    p_srv = subs.add_parser(
        "serve", help="run the always-on prediction service (repro.serve)"
    )
    p_srv.add_argument("--host", default="127.0.0.1")
    p_srv.add_argument("--port", type=int, default=8723,
                       help="listening port (0 picks an ephemeral one)")
    p_srv.add_argument("--max-batch", type=int, default=256,
                       help="flush a pending batch at this many points")
    p_srv.add_argument("--no-preload", action="store_true",
                       help="skip warming the memory cache at startup")
    p_srv.add_argument("--workers", type=int, default=2,
                       help="worker threads for simulator-backed jobs")
    p_srv.add_argument("--cache-entries", type=int, default=512,
                       help="bound on the process memory cache (region maps, "
                       "crossover curves, job results)")
    p_srv.add_argument("--max-seconds", type=float, default=None,
                       help="stop after this many seconds (smoke tests)")
    _add_cache_args(p_srv)

    from repro.campaign import cli as campaign_cli

    campaign_cli.add_parser(subs)
    return parser


def _cmd_serve(args) -> str:
    from repro.serve import ServeConfig, run_server

    config = ServeConfig(
        host=args.host,
        port=args.port,
        max_batch=args.max_batch,
        cache_entries=args.cache_entries,
        workers=args.workers,
        preload=not args.no_preload,
    )
    return run_server(config, max_seconds=args.max_seconds)


def _cmd_run(args) -> str:
    machine = _machine_from_args(args)
    rng = np.random.default_rng(args.seed)
    A = rng.standard_normal((args.n, args.n))
    B = rng.standard_normal((args.n, args.n))
    entry = registry.get(args.algorithm)
    if not entry.feasible(args.n, args.p):
        raise SystemExit(
            f"{args.algorithm} cannot run n={args.n}, p={args.p} "
            f"(feasible here: {registry.feasible_algorithms(args.n, args.p)})"
        )
    result = entry.run(A, B, args.p, machine=machine, scheduler=args.scheduler)
    ok = np.allclose(result.C, A @ B)
    sim = result.sim
    if sim.compiled:
        path = "compiled"
    elif sim.compile_fallback:
        path = f"heap (fallback: {sim.compile_fallback})"
    else:
        path = args.scheduler
    model = MODELS[entry.model_key]
    return format_kv(
        f"{entry.title} - n={args.n}, p={args.p} on {machine.name} "
        f"(ts={machine.ts:g}, tw={machine.tw:g})",
        {
            "numerically correct": ok,
            "scheduler": path,
            "T_p (simulated, basic ops)": result.parallel_time,
            "T_p (model)": model.time(args.n, args.p, machine),
            "speedup": result.speedup,
            "efficiency": result.efficiency,
            "efficiency (model)": model.efficiency(args.n, args.p, machine),
            "total overhead T_o": result.total_overhead,
            "messages sent": result.sim.total_messages,
            "words moved": result.sim.total_words,
        },
    )


def _cmd_select(args) -> str:
    machine = _machine_from_args(args)
    s = select(args.n, args.p, machine, require_feasible=args.feasible)
    lines = [
        f"best algorithm for n={args.n}, p={args.p} on {machine.name}: {s.key}",
        f"  predicted T_p = {s.predicted_time:.1f}, efficiency = {s.predicted_efficiency:.3f}",
        f"  exactly runnable as-is: {s.feasible_exact}",
        "  ranking:",
    ]
    for key, t in s.ranking:
        lines.append(f"    {key:<10} T_p = {t:.1f}")
    return "\n".join(lines)


def _cmd_machines() -> str:
    rows = [
        {
            "name": m.name,
            "ts": m.ts,
            "tw": m.tw,
            "unit_time_s": m.unit_time,
            "note": {
                "ncube2-like": "Figure 1",
                "future-mimd": "Figure 2",
                "simd-cm2-like": "Figure 3",
                "cm5": "Section 9 (measured)",
                "ideal": "free communication",
            }.get(m.name, ""),
        }
        for m in PRESETS.values()
    ]
    return format_table(rows)


def _cmd_iso(args) -> str:
    machine = _machine_from_args(args)
    model = MODELS[args.algorithm]
    cap = model.max_efficiency(machine)
    if args.efficiency >= cap:
        return (
            f"{args.algorithm}: efficiency {args.efficiency} unreachable on this "
            f"machine - capped at {cap:.4f} (= 1/(1 + 2(ts+tw)), Section 5.3)"
        )
    rows = []
    for k in range(2, args.log2_p_max + 1, 2):
        p = float(2**k)
        w = isoefficiency(model, p, machine, args.efficiency)
        rows.append({"p": f"2^{k}", "W": w, "n": w ** (1 / 3)})
    head = (
        f"isoefficiency of {args.algorithm} at E = {args.efficiency} "
        f"({model.asymptotic_isoefficiency}) on {machine.name}"
    )
    return head + "\n" + format_table(rows)


def _cmd_sweep(args) -> str:
    from repro.experiments.sweep import rows_to_csv, rows_to_json, sweep

    machine = _machine_from_args(args)
    rows = sweep(
        args.algorithms, args.n_values, args.p_values, machine,
        jobs=args.jobs, checkpoint_path=args.checkpoint, resume=args.resume,
        worker_timeout=args.worker_timeout,
    )
    if args.format == "csv":
        text = rows_to_csv(rows)
    elif args.format == "json":
        text = rows_to_json(rows)
    else:
        text = format_table(rows)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        return f"wrote {len(rows)} rows to {args.out}"
    return text


def _cmd_gantt(args) -> str:
    from repro.simulator.gantt import gantt_chart

    machine = _machine_from_args(args)
    entry = registry.get(args.algorithm)
    if not entry.feasible(args.n, args.p):
        raise SystemExit(f"{args.algorithm} cannot run n={args.n}, p={args.p}")
    rng = np.random.default_rng(0)
    A = rng.standard_normal((args.n, args.n))
    B = rng.standard_normal((args.n, args.n))
    result = entry.run(A, B, args.p, machine=machine, trace=True, scheduler=args.scheduler)
    return gantt_chart(result.sim.trace, width=args.width)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if hasattr(args, "no_disk_cache"):
        configure_disk_cache(args.cache_dir, enabled=not args.no_disk_cache)
    if args.command == "run":
        out = _cmd_run(args)
    elif args.command == "select":
        out = _cmd_select(args)
    elif args.command == "machines":
        out = _cmd_machines()
    elif args.command == "regions":
        machine = _machine_from_args(args)
        out = region_map(
            machine,
            log2_p_max=args.log2_p_max,
            log2_n_max=args.log2_n_max,
            refine=args.refine,
            max_depth=args.max_depth,
            tol=args.tol,
        ).render()
    elif args.command == "iso":
        out = _cmd_iso(args)
    elif args.command == "memory":
        out = format_table(memory_table(args.n, args.p))
    elif args.command == "sweep":
        out = _cmd_sweep(args)
    elif args.command == "gantt":
        out = _cmd_gantt(args)
    elif args.command == "serve":
        out = _cmd_serve(args)
    elif args.command == "campaign":
        from repro.campaign import cli as campaign_cli

        out = campaign_cli.cmd(args)
    else:  # pragma: no cover - argparse enforces choices
        raise SystemExit(f"unknown command {args.command!r}")
    print(out)
    if getattr(args, "cache_stats", False):
        print(f"cache stats: {json.dumps(cache_stats())}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

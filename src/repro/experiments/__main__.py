"""Command-line entry point: ``python -m repro.experiments <experiment>``.

Experiments: table1, fig1, fig2, fig3, fig4, fig5, sec6, sec7, sec8,
validation, scaling, scaling-large, broadcast, arch, resilience, all.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from repro.core.cache import cache_stats, configure_disk_cache
from repro.simulator.engine import SCHEDULERS
from repro.experiments import (
    allport,
    architectures,
    broadcast_study,
    figures45,
    figures123,
    resilience,
    scaling,
    section6,
    table1,
    technology,
    validation,
)

_EXPERIMENTS = ("table1", "fig1", "fig2", "fig3", "fig4", "fig5", "sec6", "sec7", "sec8", "validation", "scaling", "scaling-large", "broadcast", "arch", "resilience")


def run_one(
    name: str,
    fast: bool = False,
    jobs: int = 1,
    json_out: str | None = None,
    refine: bool = False,
    max_depth: int | None = None,
    tol: float | None = None,
    p_values: tuple[int, ...] | None = None,
    n0: int | None = None,
    verify: bool = True,
    scheduler: str | None = None,
) -> str:
    """Run one experiment and return its text report.

    *json_out* (only honored by experiments with a JSON form: ``fig4``,
    ``fig5``, ``scaling``, ``scaling-large`` and ``resilience``)
    additionally writes machine-readable results to a file.
    *refine*/*max_depth*/*tol* select the adaptive region-map path for
    the figure experiments (see :mod:`repro.core.refine`).
    *p_values*/*n0*/*verify*/*scheduler* tune ``scaling-large`` (the
    16k- and 64k-rank smoke runs in CI use them; ``scheduler`` defaults
    to the trace compiler, see docs/performance.md).
    """
    if name == "table1":
        return table1.format_text(table1.run())
    if name in ("fig1", "fig2", "fig3"):
        step = 2 if fast else 1
        return figures123.format_text(
            figures123.run(
                name, p_step=step, n_step=step, refine=refine, max_depth=max_depth, tol=tol
            )
        )
    if name in ("fig4", "fig5"):
        if name == "fig4":
            sizes = (16, 48, 96, 144) if fast else figures45._FIG4_SIZES
            curves = figures45.run_fig4(sizes=sizes, jobs=jobs)
        else:
            sizes = (66, 132, 264, 352) if fast else figures45._FIG5_SIZES
            curves = figures45.run_fig5(sizes=sizes, jobs=jobs)
        if json_out:
            with open(json_out, "w") as fh:
                json.dump(figures45.to_json(curves), fh, indent=2)
        return figures45.format_text(curves)
    if name == "sec6":
        return section6.format_text(section6.run())
    if name == "sec7":
        return allport.format_text(allport.run())
    if name == "sec8":
        return technology.format_text(technology.run())
    if name == "validation":
        return validation.format_text(validation.run())
    if name == "scaling":
        parts = scaling.run()
        if json_out:
            with open(json_out, "w") as fh:
                json.dump(parts, fh, indent=2)
        return scaling.format_text(parts)
    if name == "scaling-large":
        if p_values is None:
            p_values = (64, 256, 1024) if fast else (64, 256, 1024, 4096)
        kwargs: dict = {"p_values": p_values, "verify": verify}
        if n0 is not None:
            kwargs["n0"] = n0
        if scheduler is not None:
            kwargs["scheduler"] = scheduler
        results = scaling.run_large_p(**kwargs)
        if json_out:
            with open(json_out, "w") as fh:
                json.dump(results, fh, indent=2)
        return scaling.format_large_p_text(results)
    if name == "arch":
        return architectures.format_text(architectures.run())
    if name == "broadcast":
        m_values = (32, 512, 8192) if fast else (8, 32, 128, 512, 2048, 8192, 32768)
        return broadcast_study.format_text(broadcast_study.run(m_values=m_values))
    if name == "resilience":
        if fast:
            report = resilience.run(
                n=32,
                drop_rates=(0.0, 0.02, 0.1),
                interval_factors=(0.5, 1.0, 2.0),
                scheduler=scheduler,
            )
        else:
            report = resilience.run(scheduler=scheduler)
        if json_out:
            with open(json_out, "w") as fh:
                json.dump(resilience.to_json(report), fh, indent=2)
        return resilience.format_text(report)
    raise ValueError(f"unknown experiment {name!r}; known: {', '.join(_EXPERIMENTS)}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument("experiment", choices=(*_EXPERIMENTS, "all"))
    parser.add_argument("--fast", action="store_true", help="coarser grids / fewer sizes")
    parser.add_argument("--out", type=str, default=None, help="write the report to a file")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for simulation-heavy experiments (1 = serial)")
    parser.add_argument("--json-out", type=str, default=None,
                        help="write machine-readable results to a JSON file "
                             "(fig4, fig5, scaling, scaling-large and resilience)")
    parser.add_argument("--refine", action="store_true",
                        help="adaptive region-map refinement for fig1-3 "
                             "(evaluate only near region boundaries)")
    parser.add_argument("--max-depth", type=int, default=None,
                        help="refinement recursion depth limit (default: to unit cells)")
    parser.add_argument("--tol", type=float, default=None,
                        help="refinement gap tolerance per octave of cell extent")
    parser.add_argument("--p-values", type=int, nargs="+", default=None,
                        help="processor counts for scaling-large (each must be a "
                             "power of four: a square grid with a power-of-two side; "
                             "the compiled scheduler carries 65536+)")
    parser.add_argument("--n0", type=int, default=None,
                        help="per-rank base problem size for scaling-large")
    parser.add_argument("--no-verify", action="store_true",
                        help="skip the host-side product check in scaling-large "
                             "(a compiled run then never computes the product)")
    parser.add_argument("--scheduler", type=str, default=None,
                        choices=SCHEDULERS,
                        help="engine scheduler for scaling-large (default: "
                             "compiled, falling back to heap) and resilience "
                             "(fault timelines are bit-identical across "
                             "rescan/heap; see docs/performance.md)")
    parser.add_argument("--cache-dir", type=str, default=None,
                        help="directory for the persistent result cache "
                             "(default: $REPRO_CACHE_DIR or ~/.cache/repro)")
    parser.add_argument("--no-disk-cache", action="store_true",
                        help="disable the persistent on-disk result cache")
    parser.add_argument("--cache-stats", action="store_true",
                        help="print cache hit/miss counters after the run")
    args = parser.parse_args(argv)
    for p in args.p_values or ():
        side = math.isqrt(p) if p > 0 else 0
        if p < 1 or side * side != p:
            parser.error(f"argument --p-values: {p} is not a positive perfect square")
        if side & (side - 1):
            parser.error(
                f"argument --p-values: {p} is a {side} x {side} grid; Cannon on a "
                f"hypercube needs a power-of-two side (p a power of four)"
            )
    if args.n0 is not None and args.n0 < 1:
        parser.error(f"argument --n0: must be at least 1, got {args.n0}")

    configure_disk_cache(args.cache_dir, enabled=not args.no_disk_cache)
    names = _EXPERIMENTS if args.experiment == "all" else (args.experiment,)
    chunks = []
    for name in names:
        chunks.append(
            f"==== {name} ====\n"
            f"{run_one(name, fast=args.fast, jobs=args.jobs, json_out=args.json_out, refine=args.refine, max_depth=args.max_depth, tol=args.tol, p_values=tuple(args.p_values) if args.p_values else None, n0=args.n0, verify=not args.no_verify, scheduler=args.scheduler)}\n"
        )
    report = "\n".join(chunks)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(report)
    print(report)
    if args.cache_stats:
        print(f"cache stats: {json.dumps(cache_stats())}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

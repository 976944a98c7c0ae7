"""Experiment ``scaling`` — the isoefficiency premise, verified in simulation.

Section 3 of the paper rests on two behaviours:

1. **Fixed problem size**: as *p* grows, speedup saturates (overheads
   grow and/or concurrency runs out) — so efficiency decays.
2. **Isoefficiency scaling**: if the problem grows along the
   isoefficiency function ``W(p)``, efficiency stays put — "one can test
   the performance of a parallel program on a few processors, and then
   predict its performance on a larger number of processors".

Neither is a table or figure in the paper, but both are its working
assumptions; this experiment demonstrates each with full discrete-event
runs of Cannon's algorithm and the GK algorithm.
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np

from repro.algorithms import registry
from repro.core.isoefficiency import isoefficiency
from repro.core.machine import MachineParams
from repro.core.models import MODELS
from repro.experiments.report import format_table

__all__ = [
    "speedup_curve",
    "isoefficiency_in_simulation",
    "scaled_speedup",
    "run",
    "run_large_p",
    "format_text",
    "format_large_p_text",
]

#: round-number machine for the scaling demonstrations
_MACHINE = MachineParams(ts=20.0, tw=1.0, name="scaling")


#: Row fields saying which scheduler ran a row; tables leave them out
_PATH_FIELDS = ("compiled", "compile_fallback")


def _path(res: Any) -> dict[str, Any]:
    """Which scheduler ran a row: a compiled request that fell back to heap says why."""
    return {"compiled": res.sim.compiled, "compile_fallback": res.sim.compile_fallback}


def _round_feasible_n(key: str, n_target: float, p: int) -> int:
    """Smallest feasible matrix size >= the isoefficiency target for (key, p)."""
    n = max(int(math.ceil(n_target)), 1)
    for cand in range(n, 4 * n + 2):
        if registry.get(key).feasible(cand, p):
            return cand
    raise ValueError(f"no feasible n near {n_target} for {key} at p={p}")


def speedup_curve(
    key: str = "cannon",
    n: int = 48,
    p_values: tuple[int, ...] = (1, 4, 16, 64, 256),
    machine: MachineParams = _MACHINE,
    seed: int = 0,
) -> list[dict]:
    """Simulated speedup of a *fixed* problem over growing machines."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    B = rng.standard_normal((n, n))
    expected = A @ B
    rows = []
    for p in p_values:
        if not registry.get(key).feasible(n, p):
            continue
        res = registry.run(key, A, B, p, machine)
        if not np.allclose(res.C, expected):
            raise AssertionError(f"numerical mismatch: {key} at n={n}, p={p}")
        rows.append(
            {
                "algorithm": key,
                "n": n,
                "p": p,
                "speedup_sim": res.speedup,
                "efficiency_sim": res.efficiency,
                "efficiency_model": MODELS[key].efficiency(n, p, machine),
                **_path(res),
            }
        )
    return rows


def isoefficiency_in_simulation(
    key: str = "cannon",
    efficiency: float = 0.5,
    p_values: tuple[int, ...] = (4, 16, 64),
    machine: MachineParams = _MACHINE,
    seed: int = 0,
) -> list[dict]:
    """Grow the problem along ``W(p)`` and check the simulated efficiency holds.

    The matrix size is the isoefficiency solution rounded up to the next
    size the implementation accepts, so simulated efficiency should come
    in at or slightly above the target (the models being upper bounds
    pushes it higher still).
    """
    rng = np.random.default_rng(seed)
    rows = []
    for p in p_values:
        w = isoefficiency(MODELS[key], p, machine, efficiency)
        n = _round_feasible_n(key, w ** (1 / 3), p)
        A = rng.standard_normal((n, n))
        B = rng.standard_normal((n, n))
        res = registry.run(key, A, B, p, machine)
        if not np.allclose(res.C, A @ B):
            raise AssertionError(f"numerical mismatch: {key} at n={n}, p={p}")
        rows.append(
            {
                "algorithm": key,
                "p": p,
                "target_E": efficiency,
                "n_iso": n,
                "W": n**3,
                "efficiency_sim": res.efficiency,
                "efficiency_model": MODELS[key].efficiency(n, p, machine),
                **_path(res),
            }
        )
    return rows


def scaled_speedup(
    key: str = "cannon",
    n0: int = 8,
    p_values: tuple[int, ...] = (64, 256, 1024, 4096),
    machine: MachineParams = _MACHINE,
    seed: int = 0,
    verify: bool = True,
    scheduler: str | None = None,
) -> list[dict]:
    """Memory-constrained scaled speedup at large machine sizes.

    Gustafson-style scaling: every processor keeps a fixed ``n0 x n0``
    block, so the matrix grows as ``n = n0 * sqrt(p)`` and the total
    work ``W = n0**3 * p**1.5`` outpaces the machine.  For Cannon both
    overhead terms (startups and words) also grow as ``p**1.5`` under
    this regime, so the model predicts a *flat* efficiency — scaled
    speedup that tracks ``E * p`` linearly in ``p`` — which the
    simulation confirms with full discrete-event runs.

    These are the largest complete simulations in the repo, 65,536
    ranks in CI: the trace compiler (the process default) replays them
    from a few probe ranks and computes the product on stacked blocks.
    *scheduler* is forwarded to the engine (``None`` keeps the process
    default).  With *verify* every product is checked against
    ``A @ B``; without it the product is never read, so a compiled run
    never evaluates it.  Every *p* is checked before the first one runs.
    """
    sizes = []
    for p in p_values:
        side = math.isqrt(p) if p > 0 else 0
        if p < 1 or side * side != p:
            raise ValueError(f"scaled speedup needs square p >= 1, got {p}")
        n = n0 * side
        if not registry.get(key).feasible(n, p):
            raise ValueError(f"{key} infeasible at n={n}, p={p}")
        sizes.append((p, n))
    rng = np.random.default_rng(seed)
    rows = []
    for p, n in sizes:
        A = rng.standard_normal((n, n))
        B = rng.standard_normal((n, n))
        res = registry.run(key, A, B, p, machine, scheduler=scheduler)
        if verify and not np.allclose(res.C, A @ B):
            raise AssertionError(f"numerical mismatch: {key} at n={n}, p={p}")
        rows.append(
            {
                "algorithm": key,
                "p": p,
                "n": n,
                "W": n**3,
                "scaled_speedup_sim": res.speedup,
                "efficiency_sim": res.efficiency,
                "efficiency_model": MODELS[key].efficiency(n, p, machine),
                **_path(res),
            }
        )
    return rows


def run(machine: MachineParams = _MACHINE) -> dict[str, list[dict]]:
    return {
        "fixed_size_cannon": speedup_curve("cannon", 48, machine=machine),
        "fixed_size_gk": speedup_curve("gk", 48, p_values=(1, 8, 64, 512), machine=machine),
        "iso_cannon": isoefficiency_in_simulation("cannon", 0.5, machine=machine),
        "iso_gk": isoefficiency_in_simulation("gk", 0.5, p_values=(8, 64, 512), machine=machine),
    }


def run_large_p(
    machine: MachineParams = _MACHINE,
    p_values: tuple[int, ...] = (64, 256, 1024, 4096),
    n0: int = 8,
    verify: bool = True,
    scheduler: str | None = None,
) -> dict[str, list[dict]]:
    """The ``scaling-large`` experiment: scaled speedup on big machines.

    Every *p* in *p_values* must be a perfect square.  The trace
    compiler (the default *scheduler*) carries the sweep to 65536+ ranks
    and computes each product on stacked blocks, so verified runs scale
    too (``make scale-16k-smoke`` and ``make scale-64k-smoke`` verify
    the 16k and 64k points in CI).
    """
    return {
        "scaled_cannon": scaled_speedup(
            "cannon", n0=n0, p_values=p_values, machine=machine,
            verify=verify, scheduler=scheduler,
        ),
    }


def format_text(results: dict[str, list[dict]]) -> str:
    fixed = results["fixed_size_cannon"] + results["fixed_size_gk"]
    iso = results["iso_cannon"] + results["iso_gk"]
    out = [
        "Scaling behaviour (full simulations; Section 3's premises)",
        "",
        "1) fixed problem size: efficiency decays with p",
        format_table(fixed, _columns(fixed)),
        "",
        "2) problem grown along the isoefficiency function: efficiency holds",
        format_table(iso, _columns(iso)),
    ]
    out += _fallbacks(fixed + iso)
    return "\n".join(out)


def _columns(rows: list[dict]) -> list[str] | None:
    """A table's columns: every field but which scheduler ran the row."""
    return [c for c in rows[0] if c not in _PATH_FIELDS] if rows else None


def _fallbacks(rows: list[dict]) -> list[str]:
    return [
        f"{r['algorithm']} p={r['p']}: trace compilation fell back to heap: "
        f"{r['compile_fallback']}"
        for r in rows
        if r["compile_fallback"]
    ]


def format_large_p_text(results: dict[str, list[dict]]) -> str:
    rows = results["scaled_cannon"]
    columns = [c for c in rows[0] if c != "compile_fallback"] if rows else None
    out = [
        "Memory-constrained scaled speedup (n = n0*sqrt(p); full simulations)",
        "",
        "Each processor holds a fixed block, so work and overhead both grow",
        "as p**1.5 for Cannon and efficiency stays flat while the scaled",
        "speedup E*p climbs linearly with the machine.",
        format_table(rows, columns),
    ]
    out += _fallbacks(rows)
    return "\n".join(out)

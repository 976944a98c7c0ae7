"""The autopilot: seeded random scenario generation for anomaly hunting.

Every scenario is a pure function of ``(campaign_seed, index,
profile)``: the generator draws from ``default_rng((campaign_seed,
index, attempt))``, so re-running the same seed regenerates the same
battery, record for record — the property the reproducibility and
resume tests pin.

The generator explores the cross product the oracles can actually
judge, while staying inside the *survivable* envelope so a clean
codebase yields a clean battery (any anomaly on the seeded smoke
battery is a real finding, not generator noise):

* crash scenarios always carry a ``checkpoint_interval`` — with
  periodic checkpointing armed, every crash is recoverable (the
  compiled state starts with an implicit checkpoint at ``t=0``), so a
  ``rank-crash`` signature would be a genuine recovery bug;
* drop rates stay ≤ 0.2 with ``max_retries=12``, putting the chance of
  a legitimate :class:`~repro.simulator.errors.UnrecoverableFaultError`
  (13 consecutive drops) below ``0.2**13 ≈ 8e-10`` per message;
* crash ranks are drawn below the smallest ``p`` in the scenario, so a
  planned crash always lands on a live rank.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from repro.campaign.schema import Scenario
from repro.core.machine import MachineParams
from repro.simulator.faults import FaultPlan

__all__ = ["AutopilotProfile", "PROFILES", "generate_scenario", "generate_battery"]

#: How many re-draws a single battery slot gets before we declare the
#: profile unable to produce a valid scenario (a profile bug, not bad luck:
#: each attempt is an independent draw and most draws are valid).
_MAX_ATTEMPTS = 64

#: (algorithm pool, p pool) per process-grid family.
_SQUARE_ALGOS = ("simple", "cannon", "fox")
_CUBE_ALGOS = ("gk", "berntsen")


@dataclass(frozen=True)
class AutopilotProfile:
    """The envelope one campaign's generator draws from (frozen: part of
    the battery's identity via the run-database ``source`` header)."""

    name: str
    n_pool: tuple[int, ...] = (8, 16, 32)
    square_p_pool: tuple[int, ...] = (4, 16, 64)
    cube_p_pool: tuple[int, ...] = (8, 64)
    ts_pool: tuple[float, ...] = (10.0, 50.0, 150.0)
    tw_pool: tuple[float, ...] = (0.5, 1.0, 4.0)
    schedulers: tuple[str, ...] = ("ready", "rescan", "heap")
    topologies: tuple[str, ...] = ("hypercube", "hypercube", "fully-connected")
    fault_kinds: tuple[str, ...] = (
        "none", "drops", "stragglers", "degrade", "crash", "drops",
    )
    drop_rates: tuple[float, ...] = (0.02, 0.05, 0.1, 0.2)
    timeouts: tuple[float, ...] = (500.0, 2000.0)


PROFILES: dict[str, AutopilotProfile] = {
    "default": AutopilotProfile(name="default"),
    # The CI smoke battery: smaller operands, drops the slowest axis
    # values, keeps every fault kind so all oracles stay exercised.
    "smoke": AutopilotProfile(
        name="smoke",
        n_pool=(8, 16),
        square_p_pool=(4, 16),
        cube_p_pool=(8,),
        ts_pool=(10.0, 150.0),
        tw_pool=(1.0, 4.0),
        schedulers=("ready", "heap"),
    ),
}


def _pick(rng: np.random.Generator, pool: Sequence[Any]) -> Any:
    """One uniform draw, returned as a plain Python value (numpy scalars
    would leak into the frozen scenario and change its fingerprint)."""
    item = pool[int(rng.integers(len(pool)))]
    return item


def _sample(rng: np.random.Generator, pool: Sequence[Any], k: int) -> tuple[Any, ...]:
    idx = sorted(int(i) for i in rng.choice(len(pool), size=k, replace=False))
    return tuple(pool[i] for i in idx)


def _fault_plan(
    rng: np.random.Generator, kind: str, profile: AutopilotProfile, min_p: int
) -> FaultPlan:
    seed = int(rng.integers(1 << 31))
    if kind == "none":
        return FaultPlan()
    if kind == "drops":
        return FaultPlan(
            seed=seed,
            drop_rate=float(_pick(rng, profile.drop_rates)),
            timeout=float(_pick(rng, profile.timeouts)),
        )
    if kind == "stragglers":
        return FaultPlan(
            seed=seed,
            straggler_rate=float(_pick(rng, (0.1, 0.25))),
            straggler_factor=float(_pick(rng, (2.0, 4.0))),
        )
    if kind == "degrade":
        return FaultPlan(
            seed=seed,
            degrade_rate=float(_pick(rng, (0.1, 0.25))),
            degrade_factor=float(_pick(rng, (2.0, 8.0))),
        )
    if kind == "crash":
        # One planned crash on a live rank plus periodic checkpoints
        # frequent enough that recovery replays a bounded window.
        t = float(_pick(rng, (500.0, 2000.0, 10_000.0)))
        return FaultPlan(
            seed=seed,
            horizon=10.0 * t,
            crash_times=((int(rng.integers(min_p)), t),),
            checkpoint_interval=float(_pick(rng, (0.5, 1.0))) * t,
            checkpoint_cost=float(_pick(rng, (0.0, 50.0))),
            recovery_cost=float(_pick(rng, (0.0, 200.0))),
        )
    raise ValueError(f"unknown fault kind {kind!r} in profile {profile.name!r}")


def generate_scenario(
    campaign_seed: int, index: int, profile: AutopilotProfile
) -> Scenario:
    """Generate battery slot *index* of the campaign seeded *campaign_seed*.

    Deterministic: the draw is keyed on ``(campaign_seed, index,
    attempt)``.  Draws that fail scenario validation (e.g. a grid with
    no feasible point) are discarded and redrawn with the next attempt
    key, so one bad draw never shifts the RNG stream of later slots.
    """
    last_error: Exception | None = None
    for attempt in range(_MAX_ATTEMPTS):
        rng = np.random.default_rng((campaign_seed, index, attempt))
        family = _pick(rng, ("square", "cube", "mixed"))
        if family == "square":
            algos = _sample(rng, _SQUARE_ALGOS, int(rng.integers(1, 3)))
            p_pool: tuple[int, ...] = profile.square_p_pool
        elif family == "cube":
            algos = _sample(rng, _CUBE_ALGOS, 1 + int(rng.integers(len(_CUBE_ALGOS))))
            p_pool = profile.cube_p_pool
        else:
            algos = (_pick(rng, _SQUARE_ALGOS), _pick(rng, _CUBE_ALGOS))
            p_pool = tuple(sorted({*profile.square_p_pool, *profile.cube_p_pool}))
        n_values = _sample(rng, profile.n_pool, int(rng.integers(1, min(3, len(profile.n_pool)) + 1)))
        p_values = _sample(rng, p_pool, int(rng.integers(1, min(3, len(p_pool)) + 1)))
        machine = MachineParams(
            ts=float(_pick(rng, profile.ts_pool)),
            tw=float(_pick(rng, profile.tw_pool)),
            th=0.0,
            routing="ct",
            name="autopilot",
        )
        scheduler = str(_pick(rng, profile.schedulers))
        plan = _fault_plan(rng, str(_pick(rng, profile.fault_kinds)), profile, min(p_values))
        try:
            return Scenario(
                machine=machine,
                algorithms=tuple(sorted(algos)),
                n_values=n_values,
                p_values=p_values,
                topology=str(_pick(rng, profile.topologies)),
                fault_plan=plan,
                scheduler=scheduler,
                seed=int(rng.integers(1 << 31)),
                verify=True,
                name=f"auto-{campaign_seed}-{index}",
            )
        except ValueError as exc:
            last_error = exc
    raise ValueError(
        f"autopilot profile {profile.name!r} produced no valid scenario for "
        f"slot {index} after {_MAX_ATTEMPTS} attempts; last error: {last_error}"
    )


def generate_battery(
    campaign_seed: int, count: int, profile: AutopilotProfile
) -> list[Scenario]:
    """Generate *count* scenarios; duplicates are redrawn via the next
    slot index so the battery is duplicate-free (the run database keys
    records by scenario ID)."""
    if count <= 0:
        raise ValueError(f"count must be >= 1, got {count}; e.g. count=50")
    battery: list[Scenario] = []
    seen: set[str] = set()
    index = 0
    while len(battery) < count:
        scenario = generate_scenario(campaign_seed, index, profile)
        index += 1
        if scenario.scenario_id in seen:
            continue
        seen.add(scenario.scenario_id)
        battery.append(scenario)
    return battery

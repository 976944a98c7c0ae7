"""The frozen scenario schema behind campaign batteries.

A :class:`Scenario` is the declarative unit of experimentation: one
machine, one topology, a set of algorithms, sweep axes over matrix
sizes and processor counts, a :class:`~repro.simulator.faults.FaultPlan`,
an engine scheduler, and the operand seed.  Everything the simulator
needs to reproduce a run, nothing it does not — a scenario is data, so
batteries of them can be generated, stored, diffed, and replayed.

Scenarios are **content-addressed**: :attr:`Scenario.scenario_id` is the
SHA-256 of the canonical JSON form of every field (the PR 5 disk-cache
key machinery, :func:`repro.core.cache.canonical_fingerprint`).  Two
scenarios share an ID exactly when they describe the same experiment,
which is what lets the campaign run database key progress on scenario
IDs and resume a killed battery without re-running finished work.

Like :class:`~repro.core.machine.MachineParams` and ``FaultPlan``,
every field is validated at construction with a message naming the
field, the legal values, and an example fix — a malformed scenario
must fail when it is *built* (or loaded from JSON), never hours into a
battery.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Iterator

from repro.algorithms import registry
from repro.core.cache import canonical_fingerprint
from repro.core.machine import MachineParams
from repro.simulator.engine import SCHEDULERS
from repro.simulator.faults import FaultPlan

__all__ = [
    "SCHEMA_VERSION",
    "TOPOLOGIES",
    "Scenario",
    "scenario_from_dict",
    "scenarios_from_json",
]

#: Version salt of the scenario canonical form.  Bump whenever the
#: schema's *meaning* changes (a new field, a changed default) so old
#: scenario IDs go stale instead of aliasing different experiments.
SCHEMA_VERSION = 1

#: Interconnects a scenario may request.  ``"hypercube"`` is the paper's
#: machine (each driver embeds its logical grid into it);
#: ``"fully-connected"`` is the distance-1 network of the Section 9
#: CM-5 model.
TOPOLOGIES = ("hypercube", "fully-connected")


def _fail(field: str, problem: str, fix: str) -> None:
    raise ValueError(f"scenario.{field} {problem}; {fix}")


def _axis(field: str, values: Any) -> tuple[int, ...]:
    """Validate and normalize a sweep axis to a strictly increasing tuple.

    Strict monotonicity is part of the canonical form: the same set of
    values in any other order would otherwise produce a different
    scenario ID for the same experiment.
    """
    try:
        out = tuple(values)
    except TypeError:
        out = ()
    if not out:
        _fail(field, f"must be a non-empty sequence of ints, got {values!r}",
              f"e.g. {field}=(8, 16)")
    for v in out:
        if not isinstance(v, int) or isinstance(v, bool) or v < 1:
            _fail(field, f"values must be ints >= 1, got {v!r}",
                  f"e.g. {field}=(8, 16)")
    if any(b <= a for a, b in zip(out, out[1:])):
        _fail(field, f"must be strictly increasing (canonical form), got {out!r}",
              "sort and deduplicate the values")
    return out


@dataclass(frozen=True)
class Scenario:
    """One declarative experiment: sweep axes under one machine and fault plan.

    Frozen and hashable-by-value; :attr:`scenario_id` content-addresses
    the whole description.  ``Scenario(...)`` validates eagerly — an
    instance that constructs is runnable.
    """

    machine: MachineParams
    """Cost parameters of the simulated machine."""

    algorithms: tuple[str, ...]
    """Registry keys of the algorithms to run (sorted; canonical form)."""

    n_values: tuple[int, ...]
    """Matrix orders swept (strictly increasing)."""

    p_values: tuple[int, ...]
    """Processor counts swept (strictly increasing).  Infeasible
    ``(algorithm, n, p)`` combinations are skipped point-wise; the
    scenario as a whole must keep at least one feasible point."""

    topology: str = "hypercube"
    """Interconnect: one of :data:`TOPOLOGIES`."""

    fault_plan: FaultPlan = FaultPlan()
    """What may go wrong (``FaultPlan()`` = the failure-free machine)."""

    scheduler: str = "ready"
    """Engine scheduler (one of :data:`~repro.simulator.engine.SCHEDULERS`)."""

    seed: int = 0
    """Operand seed: matrices come from ``default_rng((seed, n))``,
    matching the sweep harness convention."""

    verify: bool = True
    """Check every product against ``A @ B`` on the host (a mismatch is
    reported as a ``numerical-mismatch`` anomaly, not an exception)."""

    name: str = ""
    """Optional human-readable label (part of the identity: two
    scenarios differing only in name are different records)."""

    def __post_init__(self) -> None:
        if not isinstance(self.machine, MachineParams):
            _fail("machine", f"must be a MachineParams, got {type(self.machine).__name__}",
                  "build one with MachineParams(ts=..., tw=...) or load via scenario_from_dict")
        if not isinstance(self.fault_plan, FaultPlan):
            _fail("fault_plan", f"must be a FaultPlan, got {type(self.fault_plan).__name__}",
                  "use FaultPlan() for the failure-free machine")
        object.__setattr__(self, "algorithms", tuple(self.algorithms))
        if not self.algorithms:
            _fail("algorithms", "must name at least one algorithm",
                  f"known keys: {sorted(registry.REGISTRY)}")
        for key in self.algorithms:
            if key not in registry.REGISTRY:
                _fail("algorithms", f"unknown key {key!r}",
                      f"known keys: {sorted(registry.REGISTRY)}")
        if list(self.algorithms) != sorted(set(self.algorithms)):
            _fail("algorithms", f"must be sorted and duplicate-free (canonical form), "
                  f"got {self.algorithms!r}",
                  f"use algorithms={tuple(sorted(set(self.algorithms)))!r}")
        object.__setattr__(self, "n_values", _axis("n_values", self.n_values))
        object.__setattr__(self, "p_values", _axis("p_values", self.p_values))
        if self.topology not in TOPOLOGIES:
            _fail("topology", f"unknown topology {self.topology!r}",
                  f"use one of {TOPOLOGIES}")
        if self.scheduler not in SCHEDULERS:
            _fail("scheduler", f"unknown scheduler {self.scheduler!r}",
                  f"use one of {SCHEDULERS}")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool) or self.seed < 0:
            _fail("seed", f"must be an int >= 0, got {self.seed!r}", "e.g. seed=0")
        if not isinstance(self.name, str):
            _fail("name", f"must be a string, got {self.name!r}", 'e.g. name="smoke-1"')
        for rank, t in self.fault_plan.crash_times:
            if rank >= min(self.p_values):
                _fail("fault_plan", f"schedules a crash for rank {rank} (t={t!r}) but the "
                      f"smallest swept processor count is p={min(self.p_values)}",
                      "drop the crash entry or raise the p_values floor")
        if not any(True for _ in self.points()):
            _fail("algorithms/n_values/p_values",
                  f"no feasible (algorithm, n, p) combination in "
                  f"{self.algorithms} x {self.n_values} x {self.p_values}",
                  "grid algorithms (simple/cannon/fox) need p a perfect square "
                  "with a power-of-two side and sqrt(p) <= n, gk/berntsen need "
                  "p a power of 8 — e.g. p_values=(4, 16) with n_values=(8,)")

    # -- identity -------------------------------------------------------------------

    @property
    def scenario_id(self) -> str:
        """Content address: SHA-256 of the canonical form of every field."""
        return canonical_fingerprint(
            {"kind": "scenario", "schema": SCHEMA_VERSION, "spec": self},
            salt="repro-campaign",
        )

    @property
    def short_id(self) -> str:
        """First 12 hex chars — what reports and logs print."""
        return self.scenario_id[:12]

    # -- iteration ------------------------------------------------------------------

    def points(self) -> Iterator[tuple[str, int, int]]:
        """Every feasible ``(algorithm, n, p)`` point, in canonical order."""
        for key in self.algorithms:
            entry = registry.get(key)
            for n in self.n_values:
                for p in self.p_values:
                    if entry.feasible(n, p):
                        yield key, n, p

    # -- JSON round trip ------------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """Plain-JSON form; :func:`scenario_from_dict` inverts it exactly
        (same field values, same scenario ID)."""
        return {
            "schema": SCHEMA_VERSION,
            "name": self.name,
            "machine": dataclasses.asdict(self.machine),
            "topology": self.topology,
            "algorithms": list(self.algorithms),
            "n_values": list(self.n_values),
            "p_values": list(self.p_values),
            "fault_plan": dataclasses.asdict(self.fault_plan),
            "scheduler": self.scheduler,
            "seed": self.seed,
            "verify": self.verify,
        }


_SCENARIO_KEYS = frozenset(
    ("schema", "name", "machine", "topology", "algorithms", "n_values",
     "p_values", "fault_plan", "scheduler", "seed", "verify")
)


def scenario_from_dict(doc: Any) -> Scenario:
    """Rebuild a :class:`Scenario` from its :meth:`Scenario.to_dict` form.

    Validation is as eager and actionable as the constructor's: unknown
    keys, a missing field, or a wrong schema version name the problem
    and the fix instead of surfacing as a ``TypeError`` downstream.
    """
    if not isinstance(doc, dict):
        raise ValueError(
            f"a scenario document must be a JSON object, got {type(doc).__name__}; "
            "write scenarios with Scenario.to_dict()"
        )
    schema = doc.get("schema", SCHEMA_VERSION)
    if schema != SCHEMA_VERSION:
        raise ValueError(
            f"scenario schema version {schema!r} is not supported "
            f"(this build reads version {SCHEMA_VERSION}); regenerate the "
            "scenario file with this version of repro"
        )
    unknown = sorted(set(doc) - _SCENARIO_KEYS)
    if unknown:
        raise ValueError(
            f"unknown scenario field(s) {unknown}; known fields: "
            f"{sorted(_SCENARIO_KEYS)} — a typo, or a file from a newer schema?"
        )
    missing = sorted(
        k for k in ("machine", "algorithms", "n_values", "p_values") if k not in doc
    )
    if missing:
        raise ValueError(
            f"scenario document is missing required field(s) {missing}; "
            "write scenarios with Scenario.to_dict()"
        )
    try:
        machine = MachineParams(**doc["machine"])
    except TypeError as exc:
        raise ValueError(
            f"scenario.machine does not match MachineParams ({exc}); expected "
            "the dataclasses.asdict() form, e.g. {'ts': 150.0, 'tw': 3.0, ...}"
        ) from exc
    plan_doc = dict(doc.get("fault_plan") or {})
    if "crash_times" in plan_doc:
        try:
            plan_doc["crash_times"] = tuple(
                (int(rank), float(t)) for rank, t in plan_doc["crash_times"]
            )
        except (TypeError, ValueError) as exc:
            raise ValueError(
                f"scenario.fault_plan.crash_times must be a list of [rank, time] "
                f"pairs ({exc}); e.g. \"crash_times\": [[3, 1200.0]]"
            ) from exc
    try:
        fault_plan = FaultPlan(**plan_doc)
    except TypeError as exc:
        raise ValueError(
            f"scenario.fault_plan does not match FaultPlan ({exc}); expected "
            "the dataclasses.asdict() form — see docs/robustness.md"
        ) from exc
    return Scenario(
        machine=machine,
        algorithms=tuple(doc["algorithms"]),
        n_values=tuple(int(v) for v in doc["n_values"]),
        p_values=tuple(int(v) for v in doc["p_values"]),
        topology=doc.get("topology", "hypercube"),
        fault_plan=fault_plan,
        scheduler=doc.get("scheduler", "ready"),
        seed=doc.get("seed", 0),
        verify=doc.get("verify", True),
        name=doc.get("name", ""),
    )


def scenarios_from_json(text: str, *, source: str = "<scenarios>") -> list[Scenario]:
    """Parse a scenario battery file: a JSON list of scenario documents.

    Errors carry the list index (and *source*) so a bad entry in a
    200-scenario battery is findable.
    """
    import json

    try:
        docs = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{source} is not valid JSON: {exc}") from exc
    if not isinstance(docs, list):
        raise ValueError(
            f"{source} must contain a JSON list of scenario objects, "
            f"got {type(docs).__name__}"
        )
    out = []
    for i, doc in enumerate(docs):
        try:
            out.append(scenario_from_dict(doc))
        except ValueError as exc:
            raise ValueError(f"{source}[{i}]: {exc}") from exc
    return out

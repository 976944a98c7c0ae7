"""Scenario execution: one :class:`~repro.campaign.schema.Scenario` in,
one structured result record out.

Module-level and argument-picklable, so the campaign runner can execute
scenarios inline, in worker processes behind the watchdog pool, or in a
retry loop — the record is the same either way.  Execution is
deterministic: the record (rows, anomalies, status) is a pure function
of ``(scenario, oracle_config)``, which is what makes the run database
reproducible byte-for-byte from a campaign seed.

Fault *signatures* — the deterministic model saying "this run cannot
finish" — are data, not crashes: :class:`~repro.simulator.errors.DeadlockError`,
:class:`~repro.simulator.errors.UnrecoverableFaultError`, and
:class:`~repro.simulator.errors.RankCrashError` are caught per point and
recorded as the row's ``outcome`` for the ``fault-signature`` oracle.
Any *other* exception is an infrastructure failure and propagates to
the runner's retry machinery.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.algorithms import registry
from repro.campaign.oracles import OracleConfig, check_scenario
from repro.campaign.schema import Scenario
from repro.core.models import MODELS
from repro.simulator.errors import (
    DeadlockError,
    RankCrashError,
    UnrecoverableFaultError,
)
from repro.simulator.topology import FullyConnected, Topology

__all__ = ["execute_scenario", "alt_scheduler_for", "simulate_rows"]

#: Signature exceptions recorded as row outcomes (everything else is an
#: infrastructure error and escapes to the runner).
_SIGNATURES = (
    (DeadlockError, "deadlock"),
    (UnrecoverableFaultError, "unrecoverable-fault"),
    (RankCrashError, "rank-crash"),
)


def alt_scheduler_for(scenario: Scenario) -> str:
    """The scheduler the divergence oracle cross-checks against.

    Always a pair with a bit-identity contract: ``heap`` scenarios are
    checked against the reference (``rescan``), ``rescan`` scenarios
    against ``heap``, and ``compiled`` replays against the ``heap``
    schedule they were compiled from.  A fault plan stops compilation,
    so a hand-written ``compiled`` scenario with one runs on heap and is
    checked against ``rescan``, keeping the pair across two cores (the
    autopilot draws ``compiled`` scenarios fault-free).
    """
    if scenario.scheduler == "heap" or (
        scenario.scheduler == "compiled" and not scenario.fault_plan.is_null
    ):
        return "rescan"
    return "heap"


def _topology_for(kind: str, p: int) -> Topology | None:
    if kind == "fully-connected":
        return FullyConnected(p)
    return None  # the drivers' default: the paper's hypercube embedding


def _simulate_point(
    scenario: Scenario,
    key: str,
    n: int,
    p: int,
    scheduler: str,
    A: np.ndarray,
    B: np.ndarray,
    C_ref: np.ndarray | None,
) -> dict[str, Any]:
    """One ``(algorithm, n, p)`` simulation as a flat JSON-stable row."""
    entry = registry.get(key)
    model = MODELS[entry.model_key]
    plan = scenario.fault_plan
    row: dict[str, Any] = {
        "algorithm": key,
        "n": n,
        "p": p,
        "scheduler": scheduler,
        "outcome": "ok",
        "error": None,
        "T_sim": None,
        "T_model": model.time(n, p, scenario.machine),
        "efficiency_sim": None,
        "efficiency_model": model.efficiency(n, p, scenario.machine),
        "overhead_sim": None,
        "messages": None,
        "words": None,
        "retransmits": 0,
        "faults_injected": 0,
        "checkpoint_time": 0.0,
        "recovery_time": 0.0,
        "compiled": False,
        "compile_fallback": None,
    }
    try:
        res = entry.run(
            A, B, p,
            machine=scenario.machine,
            topology=_topology_for(scenario.topology, p),
            scheduler=scheduler,
            fault_plan=None if plan.is_null else plan,
        )
    except tuple(exc for exc, _ in _SIGNATURES) as exc:
        for exc_type, outcome in _SIGNATURES:
            if isinstance(exc, exc_type):
                row["outcome"] = outcome
                break
        row["error"] = f"{type(exc).__name__}: {exc}"
        return row
    row["T_sim"] = res.parallel_time
    row["efficiency_sim"] = res.efficiency
    row["overhead_sim"] = res.total_overhead
    row["messages"] = res.sim.total_messages
    row["words"] = res.sim.total_words
    row["retransmits"] = res.sim.retransmits
    row["faults_injected"] = res.sim.faults_injected
    row["checkpoint_time"] = res.sim.checkpoint_time
    row["recovery_time"] = res.sim.recovery_time
    row["compiled"] = res.sim.compiled
    row["compile_fallback"] = res.sim.compile_fallback
    if C_ref is not None and not np.allclose(res.C, C_ref):
        row["outcome"] = "numerical-mismatch"
        row["error"] = f"max abs deviation {float(np.max(np.abs(res.C - C_ref))):.3e}"
    return row


def simulate_rows(scenario: Scenario, scheduler: str) -> list[dict[str, Any]]:
    """Simulate every feasible point of *scenario* under *scheduler*.

    Operands are drawn per matrix size from ``default_rng((seed, n))``
    — the sweep-harness convention — so a scenario's rows are directly
    comparable with ``sweep()`` rows at the same coordinates.
    """
    rows = []
    operands: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray | None]] = {}
    for key, n, p in scenario.points():
        if n not in operands:
            rng = np.random.default_rng((scenario.seed, n))
            A, B = rng.standard_normal((n, n)), rng.standard_normal((n, n))
            operands[n] = (A, B, A @ B if scenario.verify else None)
        A, B, C_ref = operands[n]
        rows.append(_simulate_point(scenario, key, n, p, scheduler, A, B, C_ref))
    return rows


def execute_scenario(scenario: Scenario, cfg: OracleConfig) -> dict[str, Any]:
    """Run one scenario through the simulator and the oracle battery.

    Returns the scenario's run-database record body:
    ``{"id", "name", "spec", "status", "rows", "anomalies"}`` with
    ``status`` one of ``"ok"`` / ``"anomalous"``; ``spec`` is the full
    scenario document, so a finding can be re-run in isolation from the
    database alone.  (The runner adds battery position and attempt
    count; infrastructure failures never produce a record here — they
    raise.)
    """
    rows = simulate_rows(scenario, scenario.scheduler)
    alt_rows = (
        simulate_rows(scenario, alt_scheduler_for(scenario)) if cfg.divergence else None
    )
    anomalies = check_scenario(scenario, rows, alt_rows, cfg)
    return {
        "id": scenario.scenario_id,
        "name": scenario.name,
        "spec": scenario.to_dict(),
        "status": "anomalous" if anomalies else "ok",
        "rows": rows,
        "anomalies": anomalies,
    }

"""The GK algorithm — the paper's contribution (Section 4.6, Section 9).

The authors' variant of the DNS algorithm: instead of requiring
``p >= n^2``, the matrices are divided into ``(n/p^{1/3})``-square
sub-blocks which play the role the single elements play in the original
DNS scheme, so **any** ``p = 2**(3q) <= n^3`` works.  The data flow is
identical to DNS (route, broadcast, multiply, tree-sum) but on blocks —
implemented by reusing :func:`repro.algorithms.dns.make_cube_program`.

Modeled times:

* hypercube with the naive (binomial) broadcast — Eq. (7)::

      T_p = n^3/p + (5/3)*ts*log p + (5/3)*tw*(n^2/p^{2/3})*log p

* CM-5 (fully connected, so the stage-1 routing is one hop) — Eq. (18)::

      T_p = n^3/p + ts*(log p + 2) + tw*(n^2/p^{2/3})*(log p + 2)

The driver picks the route mode from the topology: relay (``log p^{1/3}``
message steps) on a hypercube, direct (one message) on anything fully
connected — so running with ``topology=FullyConnected(p)`` and the
:data:`repro.core.machine.CM5` machine reproduces the Section 9 setup.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import MatmulResult, check_same_shape, default_topology
from repro.algorithms.dns import _run_cube
from repro.blockops.partition import int_cbrt
from repro.core.machine import CM5, MachineParams, NCUBE2_LIKE
from repro.simulator.faults import FaultPlan
from repro.simulator.topology import FullyConnected, Topology

__all__ = ["run_gk", "run_gk_cm5", "gk_cube_side"]


def gk_cube_side(p: int) -> int:
    """The logical cube side ``p^{1/3}``; raises unless ``p`` is a perfect cube."""
    return int_cbrt(p)


def run_gk(
    A: np.ndarray,
    B: np.ndarray,
    p: int,
    machine: MachineParams = NCUBE2_LIKE,
    topology: Topology | None = None,
    *,
    route_mode: str | None = None,
    broadcast: str = "binomial",
    trace: bool = False,
    scheduler: str | None = None,
    fault_plan: FaultPlan | None = None,
) -> MatmulResult:
    """Multiply *A* and *B* on *p* simulated processors with the GK algorithm.

    *p* must be a perfect cube with ``p <= n^3`` (``p = 2**(3q)`` on the
    default hypercube).  ``route_mode`` overrides the topology-derived
    stage-1 routing (``"relay"`` or ``"direct"``); ``broadcast`` selects
    the stage-1 one-to-all scheme — ``"binomial"`` is the naive scheme
    behind Eq. 7 (and the one the paper's own CM-5 implementation used),
    ``"scatter-allgather"`` / ``"pipelined"`` are the §5.4.1 "improved
    GK" large-message schemes (:mod:`repro.simulator.jho`).

    With the binomial broadcast the program compiles
    (``scheduler="compiled"``, the default): the routes' ends and the
    broadcast and reduction roots follow one position law per group, so
    the run is replayed from a few probe ranks and its products are
    computed on stacked blocks, one stack per block shape when ``n`` is
    not a multiple of ``p^{1/3}``.  The §5.4.1 schemes run on the heap
    scheduler, and ``sim.compile_fallback`` says why.
    """
    n = check_same_shape(A, B)
    r = gk_cube_side(p)
    if r > n:
        raise ValueError(f"need p <= n^3, got p={p} > {n**3}")
    topo = topology or default_topology(p)
    result = _run_cube(
        A, B, r, machine, topo, "gk", route_mode=route_mode,
        broadcast=broadcast, trace=trace, scheduler=scheduler,
        fault_plan=fault_plan,
    )
    return result


def run_gk_cm5(
    A: np.ndarray,
    B: np.ndarray,
    p: int,
    machine: MachineParams = CM5,
    *,
    trace: bool = False,
    scheduler: str | None = None,
    fault_plan: FaultPlan | None = None,
) -> MatmulResult:
    """The Section 9 configuration: GK on a fully connected CM-5 model.

    Uses the measured CM-5 constants by default and one-hop stage-1
    routing, matching Eq. (18).
    """
    return run_gk(
        A, B, p, machine=machine, topology=FullyConnected(p), route_mode="direct",
        trace=trace, scheduler=scheduler, fault_plan=fault_plan,
    )

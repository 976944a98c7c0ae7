"""Experiment ``arch`` — algorithms across "hypercube and related architectures".

The paper's analysis targets hypercubes but is framed for "related
architectures" (title, Section 1): Cannon and Fox were formulated for
wraparound meshes, and the CM-5 validation treats the fat-tree as fully
connected.  This experiment runs the grid algorithms on all three
simulated topologies and verifies:

* §4.4's claim that "Cannon's algorithm's performance is the same on
  both mesh and hypercube architectures" (nearest-neighbor
  communication only) — exactly equal simulated times under cut-through
  routing;
* the same invariance for the fully connected (CM-5-like) topology;
* where topology *does* matter: under store-and-forward routing with a
  per-hop cost, multi-hop patterns (the simple algorithm's recursive
  doubling on a mesh, GK's relays) slow down while Cannon is unaffected.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.cannon import run_cannon
from repro.algorithms.simple import run_simple
from repro.core.machine import MachineParams, NCUBE2_LIKE
from repro.experiments.report import format_table
from repro.simulator.topology import FullyConnected, Hypercube, Mesh2D

__all__ = ["run", "format_text"]


def _topologies(p: int):
    side = int(np.sqrt(p) + 0.5)
    return {
        "hypercube": Hypercube.of_size(p),
        "mesh": Mesh2D(side, side),
        "fully-connected": FullyConnected(p),
    }


def run(
    machine: MachineParams = NCUBE2_LIKE,
    n: int = 32,
    p: int = 16,
    seed: int = 0,
) -> list[dict]:
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    B = rng.standard_normal((n, n))
    expected = A @ B

    sf_machine = machine.with_(routing="sf", th=1.0)
    rows = []
    for name, topo in _topologies(p).items():
        res_c = run_cannon(A, B, p, machine, topology=topo)
        res_s = run_simple(A, B, p, machine, topology=topo)
        if not np.allclose(res_c.C, expected) or not np.allclose(res_s.C, expected):
            raise AssertionError(f"numerical mismatch on the {name} topology")
        row = {
            "topology": name,
            "T_cannon_ct": res_c.parallel_time,
            "T_simple_ct": res_s.parallel_time,
        }
        # store-and-forward ablation (same logical algorithms, hop-sensitive)
        res_c_sf = run_cannon(A, B, p, sf_machine, topology=_topologies(p)[name])
        res_s_sf = run_simple(A, B, p, sf_machine, topology=_topologies(p)[name])
        row["T_cannon_sf"] = res_c_sf.parallel_time
        row["T_simple_sf"] = res_s_sf.parallel_time
        rows.append(row)
    return rows


def format_text(rows: list[dict]) -> str:
    head = (
        "Architectures study: the same algorithms across hypercube / wraparound\n"
        "mesh / fully connected (simulated; ct = cut-through with th=0, the\n"
        "paper's assumption; sf = store-and-forward with th=1, the ablation).\n"
        "Cannon's nearest-neighbor structure makes it architecture-invariant;\n"
        "multi-hop patterns pay on the mesh under sf.\n"
    )
    return head + format_table(rows)

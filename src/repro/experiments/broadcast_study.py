"""Experiment ``broadcast`` — the §5.4.1 broadcast-scheme crossover, measured.

The paper's "improved GK" rests on the Johnsson-Ho large-message
broadcast being cheaper than the naive binomial scheme once messages
exceed the optimal-packet bound ``m >= (ts/tw) log p``.  This study
measures all three simulated schemes over a message-size sweep on a
hypercube group:

* naive binomial — ``(ts + tw m) log p``,
* scatter-allgather — ``~2 ts log p + 2 tw m`` (one-port),
* packet-pipelined — approaches ``ts log p + tw m + 2 sqrt(ts tw m log p)``
  on an all-port machine,

and reports the measured crossover against the paper's bound.
"""

from __future__ import annotations

import numpy as np

from repro.core.machine import MachineParams, NCUBE2_LIKE
from repro.experiments.report import format_table
from repro.simulator.collectives import bcast_binomial
from repro.simulator.engine import run_spmd
from repro.simulator.jho import (
    bcast_pipelined_binomial,
    bcast_scatter_allgather,
    jho_broadcast_time,
)
from repro.simulator.topology import Hypercube

__all__ = ["measure_broadcasts", "run", "format_text"]


def _run_scheme(scheme, p: int, m: int, machine: MachineParams) -> float:
    group = list(range(p))
    payload = np.zeros(m)

    def factory(info):
        def body():
            out = yield from scheme(
                info, group, 0, payload if info.rank == 0 else None
            )
            return out.size

        return body()

    res = run_spmd(Hypercube.of_size(p), machine, factory)
    if not all(v == m for v in res.returns):
        raise AssertionError(f"{scheme.__name__} did not deliver {m} words to every rank")
    return res.parallel_time


def measure_broadcasts(
    p: int,
    m_values,
    machine: MachineParams = NCUBE2_LIKE,
) -> list[dict]:
    """Measured broadcast times per scheme over a message-size sweep."""
    allport = machine.with_(all_port=True)
    rows = []
    for m in m_values:
        naive = _run_scheme(bcast_binomial, p, m, machine)
        sag = _run_scheme(bcast_scatter_allgather, p, m, machine)
        pipe = _run_scheme(bcast_pipelined_binomial, p, m, allport)
        rows.append(
            {
                "p": p,
                "m_words": m,
                "T_binomial": naive,
                "T_scatter_allgather": sag,
                "T_pipelined_allport": pipe,
                "jho_bound": jho_broadcast_time(m, p, machine.ts, machine.tw),
                "above_packet_bound": m >= machine.ts_over_tw * np.log2(p),
            }
        )
    return rows


def run(
    machine: MachineParams = NCUBE2_LIKE,
    p: int = 64,
    m_values=(8, 32, 128, 512, 2048, 8192, 32768),
) -> list[dict]:
    return measure_broadcasts(p, m_values, machine)


def format_text(rows: list[dict]) -> str:
    head = (
        "Broadcast-scheme study (§5.4.1): measured one-to-all broadcast times\n"
        "on a hypercube group (basic-op units).  The large-message schemes\n"
        "overtake the naive binomial broadcast past the packet bound\n"
        "m >= (ts/tw) log p, which is what makes 'improved GK' improved.\n"
    )
    return head + format_table(rows)

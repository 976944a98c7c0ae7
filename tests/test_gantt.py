"""Tests for the ASCII Gantt renderer."""

import pytest

from conftest import rand_pair
from repro.algorithms.cannon import run_cannon
from repro.core.machine import MachineParams
from repro.simulator.gantt import GLYPHS, gantt_chart
from repro.simulator.trace import Trace, TraceEvent

M = MachineParams(ts=10.0, tw=2.0)


class TestGantt:
    def test_empty_trace(self):
        assert "empty trace" in gantt_chart(Trace())

    def test_basic_rendering(self):
        tr = Trace(enabled=True)
        tr.record(TraceEvent(0, 0.0, 50.0, "compute"))
        tr.record(TraceEvent(0, 50.0, 60.0, "send"))
        tr.record(TraceEvent(1, 0.0, 60.0, "recv"))
        text = gantt_chart(tr, width=60)
        lines = text.splitlines()
        assert lines[1].startswith("rank    0 |")
        assert "#" in lines[1] and ">" in lines[1]
        assert "." in lines[2]

    def test_rank_filter(self):
        tr = Trace(enabled=True)
        tr.record(TraceEvent(0, 0.0, 10.0, "compute"))
        tr.record(TraceEvent(5, 0.0, 10.0, "compute"))
        text = gantt_chart(tr, ranks=[5])
        assert "rank    5" in text and "rank    0" not in text

    def test_glyph_legend_present(self):
        tr = Trace(enabled=True)
        tr.record(TraceEvent(0, 0.0, 10.0, "compute"))
        text = gantt_chart(tr)
        for glyph in GLYPHS.values():
            assert glyph in text

    def test_real_run_has_phase_structure(self):
        A, B = rand_pair(16, seed=1)
        res = run_cannon(A, B, 16, M, trace=True)
        text = gantt_chart(res.sim.trace, width=80)
        lines = text.splitlines()
        assert len(lines) == 17  # header + 16 ranks
        # every rank computes and communicates
        for line in lines[1:]:
            assert "#" in line
            assert ">" in line or "." in line

    def test_width_respected(self):
        tr = Trace(enabled=True)
        tr.record(TraceEvent(0, 0.0, 10.0, "compute"))
        text = gantt_chart(tr, width=33)
        row = text.splitlines()[1].split("|", 1)[1]
        assert len(row) == 33

    def test_events_paint_only_their_own_cells(self):
        """An event starting in the last column stays in the row, and a
        short event paints no cell past its end."""
        tr = Trace(enabled=True)
        tr.record(TraceEvent(0, 0.0, 99.5, "send"))
        tr.record(TraceEvent(0, 99.5, 100.0, "compute"))
        tr.record(TraceEvent(1, 10.2, 10.6, "compute"))
        lines = gantt_chart(tr, width=100).splitlines()
        assert lines[1].split("|", 1)[1] == ">" * 99 + "#"
        assert lines[2].split("|", 1)[1] == " " * 10 + "#" + " " * 89

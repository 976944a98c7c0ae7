"""ASCII Gantt charts from simulation traces.

A debugging/teaching aid: render each rank's timeline of compute/send/
recv/barrier activity as a character row, so the phase structure of an
algorithm (and the overlap the closed-form models ignore) is visible in
a terminal.

Legend: ``#`` compute, ``>`` send, ``.`` waiting to receive,
``|`` barrier wait, space idle/done.
"""

from __future__ import annotations

from repro.simulator.trace import Trace

__all__ = ["gantt_chart", "GLYPHS"]

GLYPHS = {"compute": "#", "send": ">", "recv": ".", "barrier": "|"}


def gantt_chart(
    trace: Trace,
    *,
    width: int = 100,
    ranks: list[int] | None = None,
    t_max: float | None = None,
) -> str:
    """Render a traced run as one timeline row per rank.

    *width* columns span ``[0, t_max]`` (default: the last event's end).
    When several events map to one cell, the most recently started wins.
    Requires a trace recorded with ``Engine(..., trace=True)``.
    """
    if not trace.events:
        return "(empty trace - run with trace=True)"
    end = t_max if t_max is not None else max(e.end for e in trace.events)
    if end <= 0:
        return "(trace has zero duration)"
    all_ranks = sorted({e.rank for e in trace.events})
    show = ranks if ranks is not None else all_ranks

    rows: dict[int, list[str]] = {r: [" "] * width for r in show}
    for ev in sorted(trace.events, key=lambda e: e.start):
        if ev.rank not in rows:
            continue
        glyph = GLYPHS.get(ev.kind, "?")
        c0 = min(int(ev.start / end * width), width - 1)
        c1 = min(int(ev.end / end * width), width - 1)
        for c in range(c0, c1 + 1):
            rows[ev.rank][c] = glyph

    legend = "  ".join(f"{g} {k}" for k, g in GLYPHS.items())
    lines = [f"time 0 .. {end:.1f} basic-op units    [{legend}]"]
    for r in show:
        lines.append(f"rank {r:>4} |" + "".join(rows[r]))
    return "\n".join(lines)

"""Small text-report helpers shared by the experiment drivers."""

from __future__ import annotations

import argparse
from typing import Any, Sequence

__all__ = ["format_table", "format_kv", "positive_int"]


def _fmt(v: Any) -> str:
    if isinstance(v, float):
        if v != v:  # NaN
            return "nan"
        if v in (float("inf"), float("-inf")):
            return "inf" if v > 0 else "-inf"
        if v == 0:
            return "0"
        if abs(v) >= 1e6 or abs(v) < 1e-3:
            return f"{v:.4g}"
        return f"{v:.4f}".rstrip("0").rstrip(".")
    return str(v)


def format_table(rows: Sequence[dict], columns: Sequence[str] | None = None) -> str:
    """Render a list of dict rows as a fixed-width text table."""
    if not rows:
        return "(no rows)"
    cols = list(columns) if columns else list(rows[0].keys())
    cells = [[_fmt(r.get(c, "")) for c in cols] for r in rows]
    widths = [max(len(c), *(len(row[i]) for row in cells)) for i, c in enumerate(cols)]
    out = ["  ".join(c.ljust(w) for c, w in zip(cols, widths))]
    out.append("  ".join("-" * w for w in widths))
    for row in cells:
        out.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(out)


def format_kv(title: str, items: dict) -> str:
    """Render a titled key/value block."""
    width = max((len(k) for k in items), default=0)
    lines = [title, "=" * len(title)]
    for k, v in items.items():
        lines.append(f"{k.ljust(width)} : {_fmt(v)}")
    return "\n".join(lines)


def positive_int(text: str) -> int:
    """An ``argparse`` type for a count of workers: a whole number of at least 1.

    Anything else is a usage error (exit status 2) that names the value.
    """
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not a whole number of at least 1")
    return value

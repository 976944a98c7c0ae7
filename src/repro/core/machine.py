"""Machine cost parameters.

The paper normalizes every cost to the time of one *basic arithmetic
operation* (one floating-point multiply plus one add), so a machine is
fully characterized by

* ``ts`` — message startup time (in basic-op units),
* ``tw`` — per-word transfer time (in basic-op units),
* ``th`` — optional per-hop time for cut-through routing (the paper takes
  this as negligible),
* the routing discipline (cut-through vs store-and-forward), and
* whether all ports of a node can be driven simultaneously (Section 7).

Presets match the parameter sets the paper analyses:

* :data:`NCUBE2_LIKE` — ``tw=3, ts=150`` (Figure 1, "very close to ...
  nCUBE2"),
* :data:`FUTURE_MIMD` — ``tw=3, ts=10`` (Figure 2),
* :data:`SIMD_CM2_LIKE` — ``tw=3, ts=0.5`` (Figure 3, "typical SIMD machine
  like the CM-2"),
* :data:`CM5` — the measured CM-5 constants of Section 9
  (1 flop-pair = 1.53 µs, ``ts`` = 380 µs, ``tw`` = 1.8 µs per 4-byte word),
  normalized to basic-op units,
* :data:`IDEAL` — zero-cost communication, for isolating computation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any

__all__ = [
    "MachineParams",
    "NCUBE2_LIKE",
    "FUTURE_MIMD",
    "SIMD_CM2_LIKE",
    "CM5",
    "IDEAL",
    "PRESETS",
]


@dataclass(frozen=True)
class MachineParams:
    """Normalized communication/computation cost parameters of a multicomputer.

    All times are expressed in units of one basic arithmetic operation
    (a multiply-add pair), following Section 2 of the paper.
    """

    ts: float
    """Message startup time per send."""

    tw: float
    """Per-word transfer time."""

    th: float = 0.0
    """Per-hop node delay (cut-through routing); the paper assumes ~0."""

    routing: str = "ct"
    """``"ct"`` (cut-through) or ``"sf"`` (store-and-forward)."""

    all_port: bool = False
    """Whether simultaneous communication on all ports is supported (Section 7)."""

    unit_time: float = 1.0
    """Wall-clock seconds per basic operation (only used for denormalizing reports)."""

    name: str = ""
    """Optional human-readable label."""

    def __post_init__(self) -> None:
        for field_name, label in (("ts", "startup time"), ("tw", "per-word time"),
                                  ("th", "per-hop time")):
            v = getattr(self, field_name)
            if not math.isfinite(v):
                raise ValueError(
                    f"{field_name} (message {label}) must be finite, got {v!r}; "
                    "costs are times in basic-op units, and a NaN or infinite one "
                    "makes every prediction meaningless — pass a finite number"
                )
            if v < 0:
                raise ValueError(
                    f"{field_name} (message {label}) must be non-negative, got {v!r}; "
                    "costs are times in basic-op units — a negative value would "
                    "make messages finish before they start"
                )
        if self.routing not in ("ct", "sf"):
            raise ValueError(
                f"unknown routing discipline {self.routing!r}; "
                "use 'ct' (cut-through) or 'sf' (store-and-forward)"
            )
        if not (math.isfinite(self.unit_time) and self.unit_time > 0):
            raise ValueError(
                "unit_time must be positive, finite seconds per basic op, "
                f"got {self.unit_time!r}"
            )

    # -- point-to-point costs -----------------------------------------------------

    def transfer_time(self, nwords: int, hops: int = 1) -> float:
        """End-to-end time to move *nwords* over *hops* links (Section 2 model).

        Cut-through: ``ts + tw*m + th*hops``.
        Store-and-forward: ``ts + (tw*m)*hops + th*hops``.
        """
        if nwords < 0:
            raise ValueError("nwords must be non-negative")
        hops = max(hops, 1)
        if self.routing == "ct":
            return self.ts + self.tw * nwords + self.th * hops
        return self.ts + (self.tw * nwords + self.th) * hops

    def sender_busy_time(self, nwords: int) -> float:
        """Time the sending processor is occupied injecting the message."""
        return self.ts + self.tw * nwords

    # -- convenience ----------------------------------------------------------------

    def with_(self, **kwargs: Any) -> "MachineParams":
        """A copy of these parameters with some fields replaced."""
        return replace(self, **kwargs)

    def to_seconds(self, t_units: float) -> float:
        """Convert a time in basic-op units to wall-clock seconds."""
        return t_units * self.unit_time

    @property
    def ts_over_tw(self) -> float:
        """The ratio ``ts / tw`` (drives the crossover analysis of Section 6)."""
        if self.tw == 0:
            return float("inf") if self.ts > 0 else 0.0
        return self.ts / self.tw


#: Figure 1 parameters — "very close to ... nCUBE2".
NCUBE2_LIKE = MachineParams(ts=150.0, tw=3.0, name="ncube2-like")

#: Figure 2 parameters — a near-future MIMD machine.
FUTURE_MIMD = MachineParams(ts=10.0, tw=3.0, name="future-mimd")

#: Figure 3 parameters — "a typical SIMD machine like the CM-2".
SIMD_CM2_LIKE = MachineParams(ts=0.5, tw=3.0, name="simd-cm2-like")

#: Section 9's measured CM-5 constants, normalized to 1.53 µs basic-op units.
CM5 = MachineParams(
    ts=380.0 / 1.53,
    tw=1.8 / 1.53,
    unit_time=1.53e-6,
    name="cm5",
)

#: Free communication — for isolating computation terms.
IDEAL = MachineParams(ts=0.0, tw=0.0, name="ideal")

PRESETS: dict[str, MachineParams] = {
    m.name: m for m in (NCUBE2_LIKE, FUTURE_MIMD, SIMD_CM2_LIKE, CM5, IDEAL)
}

"""Wire protocol for :mod:`repro.serve` — parsing, validation, shaping.

Everything the HTTP transport exchanges with clients is defined here,
independent of any socket: request payloads are plain JSON objects,
machines arrive as preset names or parameter objects, and responses
are JSON-safe dicts (no ``inf``/``nan`` — the prediction layer
already maps them to ``null``).  Keeping this pure makes an
in-process ``dispatch()`` call exercise the identical code path as a
real socket, minus the kernel.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
from typing import Any

from repro.core.cache import canonical_fingerprint
from repro.core.machine import PRESETS, MachineParams
from repro.core.models import COMPARISON_MODELS
from repro.core.regions import LETTER_OF, RegionMap

__all__ = [
    "MAX_BODY_BYTES",
    "MAX_POINTS_PER_REQUEST",
    "ProtocolError",
    "finite_float",
    "machine_from_payload",
    "machine_fingerprint",
    "machine_payload",
    "model_keys_from_payload",
    "parse_points",
    "region_payload",
    "json_bytes",
]

#: Request bodies larger than this are rejected with 413 before parsing.
MAX_BODY_BYTES = 1 << 20

#: Upper bound on ``(n, p)`` points in one /predict request; a client
#: wanting more should page — the batcher coalesces across requests
#: anyway, so splitting loses nothing.
MAX_POINTS_PER_REQUEST = 4096

#: Salt namespacing machine fingerprints (the batcher's grouping key).
MACHINE_SALT = "repro-serve-machine"


class ProtocolError(ValueError):
    """A malformed or out-of-range request; maps to an HTTP 4xx."""

    def __init__(self, message: str, status: int = 400):
        super().__init__(message)
        self.status = status


def finite_float(value: Any, label: str) -> float:
    """*value* as a finite float, or a :class:`ProtocolError` naming *label*.

    A type check alone lets through numbers no float can hold: JSON
    integers are unbounded (``float(10**400)`` raises ``OverflowError``)
    and the literal ``1e999`` decodes to ``inf``.
    """
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ProtocolError(f"{label} must be a number")
    try:
        x = float(value)
    except OverflowError:
        x = math.inf
    if not math.isfinite(x):
        raise ProtocolError(f"{label} must be a finite number")
    return x


def machine_from_payload(payload: Any) -> MachineParams:
    """Decode a request's machine: a preset name or a parameter object.

    An object may carry ``preset`` plus field overrides (``{"preset":
    "cm5", "tw": 9.0}``), or raw :class:`MachineParams` fields with at
    least ``ts`` and ``tw``.  Unknown fields are rejected, not ignored:
    a typo silently falling back to a default would return confidently
    wrong predictions.
    """
    if isinstance(payload, str):
        if payload not in PRESETS:
            raise ProtocolError(
                f"unknown machine preset {payload!r}; presets: {', '.join(sorted(PRESETS))}"
            )
        return PRESETS[payload]
    if not isinstance(payload, dict):
        raise ProtocolError("machine must be a preset name or a parameter object")
    fields = dict(payload)
    preset = fields.pop("preset", None)
    allowed = {f.name for f in dataclasses.fields(MachineParams)}
    unknown = sorted(set(fields) - allowed)
    if unknown:
        raise ProtocolError(
            f"unknown machine fields {unknown}; allowed: {sorted(allowed)}"
        )
    for name, value in fields.items():
        if name in ("routing", "name"):
            if not isinstance(value, str):
                raise ProtocolError(f"machine field {name!r} must be a string")
        elif name == "all_port":
            if not isinstance(value, bool):
                raise ProtocolError("machine field 'all_port' must be a boolean")
        else:
            # validated, not converted: an int field stays an int in the echo
            finite_float(value, f"machine field {name!r}")
    try:
        if preset is not None:
            base = machine_from_payload(preset)
            return base.with_(**fields) if fields else base
        return MachineParams(**fields)
    except ProtocolError:
        raise
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"invalid machine parameters: {exc}") from exc


@functools.lru_cache(maxsize=4096)
def machine_fingerprint(machine: MachineParams) -> str:
    """Content-addressed identity of a machine — the batch grouping key.

    Uses the repo-wide :func:`~repro.core.cache.canonical_fingerprint`
    primitive, so two requests coalesce exactly when every
    ``MachineParams`` field matches.  Memoized — ``MachineParams`` is
    frozen, and the fingerprint sits on the per-request hot path (the
    canonical JSON walk costs ~80us, most of a batched request's budget).
    """
    return canonical_fingerprint(machine, salt=MACHINE_SALT)


def _check_point(n: Any, p: Any) -> tuple[float, float]:
    nf = finite_float(n, "point field 'n'")
    pf = finite_float(p, "point field 'p'")
    if not 0 < nf < 1e18:
        raise ProtocolError(f"n must be in (0, 1e18), got {n!r}")
    if not 1 <= pf < 1e18:
        raise ProtocolError(f"p must be in [1, 1e18), got {p!r}")
    return nf, pf


def parse_points(body: dict[str, Any]) -> list[tuple[float, float]]:
    """The ``(n, p)`` list of a /predict body: one point or a batch."""
    if "points" in body:
        raw = body["points"]
        if not isinstance(raw, list):
            raise ProtocolError("'points' must be a list of {n, p} objects")
        if len(raw) > MAX_POINTS_PER_REQUEST:
            raise ProtocolError(
                f"too many points ({len(raw)} > {MAX_POINTS_PER_REQUEST}); "
                "split into several requests — the batcher coalesces them anyway",
                status=413,
            )
        points = []
        for item in raw:
            if not isinstance(item, dict):
                raise ProtocolError("'points' entries must be {n, p} objects")
            points.append(_check_point(item.get("n"), item.get("p")))
        if not points:
            raise ProtocolError("'points' must not be empty")
        return points
    return [_check_point(body.get("n"), body.get("p"))]


def model_keys_from_payload(body: dict[str, Any]) -> tuple[str, ...]:
    """Optional ``model_keys`` override (defaults to the paper's set)."""
    raw = body.get("model_keys")
    if raw is None:
        return COMPARISON_MODELS
    from repro.core.models import MODELS

    if not isinstance(raw, list) or not raw or not all(isinstance(k, str) for k in raw):
        raise ProtocolError("'model_keys' must be a non-empty list of model names")
    unknown = sorted(set(raw) - set(MODELS))
    if unknown:
        raise ProtocolError(f"unknown model keys {unknown}; known: {sorted(MODELS)}")
    return tuple(raw)


def region_payload(rmap: RegionMap) -> dict[str, Any]:
    """A :class:`RegionMap` as a compact JSON body (rows of letters)."""
    return {
        "machine": machine_payload(rmap.machine),
        "log2_p": [int(v).bit_length() - 1 for v in rmap.p_values],
        "log2_n": [int(v).bit_length() - 1 for v in rmap.n_values],
        "rows": ["".join(LETTER_OF.get(c, "x") for c in row) for row in rmap.cells],
        "fractions": {
            key: rmap.fraction(key) for key in sorted(rmap.winners())
        },
    }


@functools.lru_cache(maxsize=4096)
def _machine_items(machine: MachineParams) -> tuple[tuple[str, Any], ...]:
    return tuple(
        (f.name, getattr(machine, f.name)) for f in dataclasses.fields(machine)
    )


def machine_payload(machine: MachineParams) -> dict[str, Any]:
    """A machine echoed back to the client, field by field.

    Every prediction response carries one of these; ``asdict`` deep-
    copies through every field (~50us), so the flat item tuple is
    memoized and only the outer dict is built per response.
    """
    return dict(_machine_items(machine))


def json_bytes(payload: Any) -> bytes:
    """Compact JSON encoding; refuses non-finite floats by construction."""
    return json.dumps(payload, separators=(",", ":"), allow_nan=False).encode()

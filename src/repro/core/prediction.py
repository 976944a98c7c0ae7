"""Calibration and performance prediction — the Section 3 workflow.

"By performing isoefficiency analysis, one can test the performance of a
parallel program on a few processors, and then predict its performance
on a larger number of processors."  This module operationalizes that:

1. run (or measure) the algorithm on a few small configurations,
2. :func:`fit_machine_params` recovers the effective ``(ts, tw)`` by
   linear least squares — a model whose overhead terms all scale with
   ``ts``, ``tw`` or ``ts + tw`` has a communication time linear in the
   two, so the design matrix is exact, not approximate (models with
   packetized ``sqrt(ts*tw)`` terms are refused, not mis-fitted),
3. :func:`predict` extrapolates ``T_p``/efficiency to any larger
   machine, and :func:`calibrate` wraps the whole loop around the
   simulator.

This is also how Section 9 relates the CM-5 experiments to the model:
the constants plugged into Eq. 18 are *measured* per-program values
("these values do not necessarily reflect the communication speed of the
hardware but the overheads observed for our implementation").
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Sequence

import numpy as np

from repro.core.machine import MachineParams
from repro.core.models import COMPARISON_MODELS, MODELS, AlgorithmModel

__all__ = [
    "TimingSample",
    "BatchPrediction",
    "fit_machine_params",
    "predict",
    "predict_points",
    "prediction_counts",
    "simulated_prediction",
    "calibrate",
]


@dataclass(frozen=True)
class TimingSample:
    """One measured configuration: ``T_p`` for an ``n x n`` product on *p* PEs."""

    n: int
    p: int
    parallel_time: float


def _comm_basis(model: AlgorithmModel, n: float, p: float) -> tuple[float, float]:
    """Coefficients ``(alpha, beta)`` with ``comm = alpha*ts + beta*tw``.

    Exact when the model's communication time is linear in the machine
    constants (no ``sqrt``-tagged overhead term): evaluating at the unit
    vectors then recovers the coefficients.
    """
    alpha = model.comm_time(n, p, MachineParams(ts=1.0, tw=0.0))
    beta = model.comm_time(n, p, MachineParams(ts=0.0, tw=1.0))
    return alpha, beta


def fit_machine_params(
    model: AlgorithmModel | str,
    samples: Sequence[TimingSample],
) -> MachineParams:
    """Least-squares ``(ts, tw)`` explaining the measured parallel times.

    Subtracts the known compute component ``n^3/p`` and regresses the
    remainder on the model's ``ts``/``tw`` coefficients.  Needs at least
    two samples whose coefficient vectors are independent (e.g. two
    different ``(n, p)`` shapes).  Estimates are clipped at zero.

    Only models whose communication time is linear in ``(ts, tw)`` can
    be fitted this way.  A model with a ``sqrt``-tagged overhead term
    (the packetized ``sqrt(ts*tw)`` broadcasts of ``gk-improved`` and
    ``gk-allport``) raises ``ValueError`` instead of returning a
    mis-fit.
    """
    m = MODELS[model] if isinstance(model, str) else model
    nonlinear = [
        k
        for k in m.overhead_terms(2.0, 2.0, MachineParams(ts=1.0, tw=1.0))
        if k == "sqrt" or k.startswith("sqrt_")
    ]
    if nonlinear:
        raise ValueError(
            f"cannot fit {m.key!r}: its overhead term(s) {nonlinear} scale with "
            "sqrt(ts*tw), so its time is not linear in (ts, tw); fit a model "
            "without packetized broadcasts (e.g. 'gk' for 'gk-improved')"
        )
    if len(samples) < 2:
        raise ValueError("need at least two timing samples")
    rows = []
    rhs = []
    for s in samples:
        alpha, beta = _comm_basis(m, s.n, s.p)
        rows.append((alpha, beta))
        rhs.append(s.parallel_time - m.compute_time(s.n, s.p))
    design = np.asarray(rows, dtype=float)
    target = np.asarray(rhs, dtype=float)
    if np.linalg.matrix_rank(design) < 2:
        raise ValueError(
            "samples do not separate ts from tw; vary (n, p) so the "
            "startup/bandwidth mix changes"
        )
    coef, *_ = np.linalg.lstsq(design, target, rcond=None)
    ts, tw = (max(float(c), 0.0) for c in coef)
    return MachineParams(ts=ts, tw=tw, name="fitted")


def predict(
    model: AlgorithmModel | str,
    n: float,
    p: float,
    machine: MachineParams,
) -> dict[str, float]:
    """Model prediction at ``(n, p)``: time, speedup, efficiency, overhead."""
    m = MODELS[model] if isinstance(model, str) else model
    t = m.time(n, p, machine)
    return {
        "parallel_time": t,
        "speedup": n**3 / t,
        "efficiency": n**3 / (p * t),
        "overhead": m.overhead(n, p, machine),
    }


def _finite_or_none(value: float) -> float | None:
    """JSON-safe scalar: finite floats pass through, ``inf``/``nan`` → None."""
    v = float(value)
    return v if math.isfinite(v) else None


def _json_column(arr: np.ndarray) -> list[float | None]:
    """A flat array as JSON-safe scalars, converted in one vectorized pass."""
    flat = np.asarray(arr, dtype=float).ravel()
    finite = np.isfinite(flat).tolist()
    return [v if ok else None for v, ok in zip(flat.tolist(), finite)]


@dataclass(frozen=True)
class BatchPrediction:
    """One vectorized winner scan over a batch of ``(n, p)`` points.

    This is the serving layer's unit of work: the micro-batcher
    coalesces concurrent requests for one machine into a single
    :func:`predict_points` call and scatters :meth:`point` records back
    to the waiters.  Every per-point value comes from the same
    elementwise expressions as a single-point call, so batched answers
    are bit-identical to per-request evaluation (fuzz-pinned by
    ``tests/test_predict_points.py``).
    """

    machine: MachineParams
    model_keys: tuple[str, ...]
    n: np.ndarray
    p: np.ndarray
    winner: np.ndarray
    """Index into *model_keys*; ``len(model_keys)`` = nothing applicable."""
    runner_up: np.ndarray
    gap: np.ndarray
    overhead: np.ndarray
    """Winning model's ``T_o`` (``inf`` at sentinel points)."""
    time: np.ndarray
    efficiency: np.ndarray
    overhead_split: tuple[dict[str, float], ...] = field(repr=False)
    """Per-point named ``T_o`` terms of the winning model (empty at sentinels)."""

    def __len__(self) -> int:
        return int(self.winner.size)

    def key_at(self, i: int) -> str | None:
        """Winning model key at flat index *i*, or ``None`` if none applies."""
        w = int(self.winner.ravel()[i])
        return self.model_keys[w] if w < len(self.model_keys) else None

    @cached_property
    def _columns(self) -> dict[str, list[Any]]:
        """Per-point JSON-safe values, converted once per batch.

        ``point`` sits on the serving hot path (one call per coalesced
        request); per-point numpy scalar indexing costs more than the
        whole vectorized scan at serving batch sizes, so every column is
        lowered to plain Python lists in one pass and the per-point call
        only assembles a dict.
        """
        keys = self.model_keys + (None,)  # sentinel -> None
        return {
            "n": self.n.ravel().tolist(),
            "p": self.p.ravel().tolist(),
            "algorithm": [keys[w] for w in self.winner.ravel().tolist()],
            "runner_up": [keys[r] for r in self.runner_up.ravel().tolist()],
            "gap": _json_column(self.gap),
            "time": _json_column(self.time),
            "efficiency": _json_column(self.efficiency),
            "overhead": _json_column(self.overhead),
            "split": [
                {name: _finite_or_none(v) for name, v in entry.items()}
                for entry in self.overhead_split
            ],
        }

    def point(self, i: int) -> dict[str, Any]:
        """JSON-safe record for flat point *i* (the serve response body)."""
        cols = self._columns
        return {
            "n": cols["n"][i],
            "p": cols["p"][i],
            "algorithm": cols["algorithm"][i],
            "runner_up": cols["runner_up"][i],
            "overhead_gap": cols["gap"][i],
            "predicted_time": cols["time"][i],
            "predicted_efficiency": cols["efficiency"][i],
            "overhead": cols["overhead"][i],
            "overhead_split": dict(cols["split"][i]),
        }


#: Running totals over every :func:`predict_points` call in this process —
#: the serving layer's "model evaluations" odometer.  ``calls`` counts
#: vectorized scans, ``points`` the (n, p) pairs they covered; the
#: server's ``/stats`` reports them under ``predictions``.
_PREDICT_COUNTS = {"calls": 0, "points": 0}


def prediction_counts() -> dict[str, int]:
    """Snapshot of the :func:`predict_points` call/point counters."""
    return dict(_PREDICT_COUNTS)


def predict_points(
    machine: MachineParams,
    n_points: Sequence[float] | np.ndarray,
    p_points: Sequence[float] | np.ndarray,
    model_keys: tuple[str, ...] = COMPARISON_MODELS,
) -> BatchPrediction:
    """Batched best-algorithm prediction at scattered ``(n, p)`` points.

    One vectorized :func:`~repro.core.refine.winner_details_at_points`
    scan decides winner/runner-up/overhead for the whole batch; ``T_p``
    and ``E`` then follow from the overhead identity ``T_p = (W + T_o)/p``,
    ``E = W/(W + T_o)`` with ``W = n^3`` — no model is re-evaluated per
    point.  The winning model's named overhead terms are evaluated once
    per distinct winner over that winner's sub-batch.  An empty batch is
    legal and returns an empty prediction.
    """
    from repro.core.refine import winner_details_at_points

    n_arr = np.asarray(n_points, dtype=float)
    p_arr = np.asarray(p_points, dtype=float)
    shape = np.broadcast_shapes(n_arr.shape, p_arr.shape)
    nb = np.broadcast_to(n_arr, shape)
    pb = np.broadcast_to(p_arr, shape)
    winner, gap, runner_up, best_to = winner_details_at_points(
        machine, n_arr, p_arr, model_keys
    )
    with np.errstate(over="ignore", invalid="ignore"):
        work = nb.astype(float) ** 3
        time = (work + best_to) / pb
        efficiency = work / (work + best_to)
    split: list[dict[str, float]] = [{} for _ in range(int(winner.size))]
    flat_w = winner.ravel()
    flat_n = np.asarray(nb, dtype=float).ravel()
    flat_p = np.asarray(pb, dtype=float).ravel()
    for i, key in enumerate(model_keys):
        idxs = np.flatnonzero(flat_w == i)
        if not idxs.size:
            continue
        with np.errstate(over="ignore", invalid="ignore"):
            terms = MODELS[key].overhead_terms(flat_n[idxs], flat_p[idxs], machine)
        for name, vals in terms.items():
            flat_vals = np.broadcast_to(np.asarray(vals, dtype=float), idxs.shape)
            for j, idx in enumerate(idxs):
                split[int(idx)][name] = float(flat_vals[j])
    _PREDICT_COUNTS["calls"] += 1
    _PREDICT_COUNTS["points"] += int(winner.size)
    return BatchPrediction(
        machine=machine,
        model_keys=tuple(model_keys),
        n=np.asarray(nb, dtype=float),
        p=np.asarray(pb, dtype=float),
        winner=winner,
        runner_up=runner_up,
        gap=gap,
        overhead=best_to,
        time=time,
        efficiency=efficiency,
        overhead_split=tuple(split),
    )


def simulated_prediction(
    algorithm: str,
    n: int,
    p: int,
    machine: MachineParams,
    *,
    seed: int = 0,
    scheduler: str | None = None,
) -> dict[str, Any]:
    """Run the simulator once and report simulated vs model numbers.

    This is the expensive, job-queue-backed sibling of :func:`predict`:
    the serve layer submits it to a worker pool and caches the result
    under a content-addressed key.  Deterministic for a given
    ``(algorithm, n, p, machine, seed, scheduler)`` tuple.
    """
    from repro.algorithms import registry

    entry = registry.get(algorithm)
    if not entry.feasible(n, p):
        raise ValueError(
            f"{algorithm} cannot run n={n}, p={p}; feasible here: "
            f"{registry.feasible_algorithms(n, p) or ['none']}"
        )
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    B = rng.standard_normal((n, n))
    kw: dict[str, Any] = {} if scheduler is None else {"scheduler": scheduler}
    res = entry.run(A, B, p, machine=machine, **kw)
    model = MODELS[entry.model_key]
    applicable = bool(model.applicable(n, p))
    return {
        "algorithm": algorithm,
        "n": int(n),
        "p": int(p),
        "seed": int(seed),
        "scheduler": scheduler,
        "simulated_time": float(res.parallel_time),
        "simulated_efficiency": float(res.efficiency),
        "simulated_overhead": float(res.total_overhead),
        "model_time": float(model.time(n, p, machine)) if applicable else None,
        "model_efficiency": float(model.efficiency(n, p, machine)) if applicable else None,
        "verified": bool(np.allclose(res.C, A @ B)),
    }


def calibrate(
    key: str,
    machine: MachineParams,
    train: Sequence[tuple[int, int]],
    *,
    seed: int = 0,
) -> MachineParams:
    """Run the simulator on the *train* ``(n, p)`` list and fit ``(ts, tw)``.

    The returned parameters are the *effective* constants of the
    implementation on this machine — they absorb systematic differences
    between the phase-summed model and the overlapped simulation, which
    is exactly what makes the extrapolation accurate (and exactly what
    the paper's own measured CM-5 constants did).
    """
    from repro.algorithms import registry

    rng = np.random.default_rng(seed)
    samples = []
    for n, p in train:
        A = rng.standard_normal((n, n))
        B = rng.standard_normal((n, n))
        res = registry.run(key, A, B, p, machine)
        samples.append(TimingSample(n=n, p=p, parallel_time=res.parallel_time))
    entry = registry.get(key)
    return fit_machine_params(entry.model_key, samples)

"""Equal-overhead crossover analysis — paper Section 6.

For moderate ``(n, p)`` a less scalable formulation can beat a more
scalable one, so the paper compares algorithm pairs through their total
overhead functions: ``n_EqualTo(p)`` is the matrix size at which the two
overheads are identical on *p* processors.  Below the curve the
lower-overhead-for-small-n algorithm wins, above it the other.

Provides the closed form of Eq. 15 (Cannon vs GK), a generic numeric
root-finder for any model pair, and the two headline constants of
Section 6:

* :func:`gk_cannon_tw_cutoff` — the processor count (~1.3e8) beyond
  which the GK algorithm's ``tw`` term is smaller than Cannon's for
  *every* matrix size,
* :func:`dns_beats_gk_max_procs` — up to how many processors the DNS
  algorithm loses to GK for any problem size ("almost 10,000 processors
  even if ``ts`` is 10 times ``tw``").
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.core.cache import disk_cache, result_cache
from repro.core.machine import MachineParams
from repro.core.models import MODELS, AlgorithmModel, log2
from repro.core.roots import brentq

__all__ = [
    "equal_overhead_n",
    "cannon_gk_closed_form",
    "gk_cannon_tw_cutoff",
    "dns_beats_gk_max_procs",
    "crossover_curve",
    "crossover_compute_count",
]

#: Fresh (cache-missing) curve computations this process — the serving
#: warm-start gate's counterpart to ``regions.region_compute_count``.
_CURVE_COMPUTES = 0


def crossover_compute_count() -> int:
    """Number of fresh (cache-missing) crossover-curve computations so far."""
    return _CURVE_COMPUTES


def _as_model(m: AlgorithmModel | str) -> AlgorithmModel:
    return MODELS[m] if isinstance(m, str) else m


def _refine_crossing(
    ma: AlgorithmModel,
    mb: AlgorithmModel,
    p: float,
    machine: MachineParams,
    xs: np.ndarray,
    vals: np.ndarray,
) -> float | None:
    """Brent-refine the first sign change of a sampled overhead difference."""

    def diff(log_n: float) -> float:
        n = math.exp(log_n)
        return ma.overhead(n, p, machine) - mb.overhead(n, p, machine)

    zero = np.nonzero(vals[:-1] == 0.0)[0]
    cross = np.nonzero(vals[:-1] * vals[1:] < 0)[0]
    first_zero = zero[0] if zero.size else len(xs)
    first_cross = cross[0] if cross.size else len(xs)
    if first_zero <= first_cross:
        if first_zero == len(xs):
            return None
        return math.exp(xs[first_zero])
    x0, x1 = xs[first_cross], xs[first_cross + 1]
    return math.exp(brentq(diff, x0, x1, rtol=1e-12))


def equal_overhead_n(
    a: AlgorithmModel | str,
    b: AlgorithmModel | str,
    p: float,
    machine: MachineParams,
    *,
    n_lo: float = 1.0,
    n_hi: float = 1e15,
) -> float | None:
    """The matrix size at which ``T_o^a(n, p) == T_o^b(n, p)``, or ``None``.

    Evaluates the overhead difference over a logarithmic grid in one
    vectorized pass (the models' ``overhead`` on arrays), then refines
    the first sign change with Brent's method.  Returns ``None`` when one
    algorithm dominates the whole range (no crossover).
    """
    ma, mb = _as_model(a), _as_model(b)
    xs = np.linspace(math.log(n_lo), math.log(n_hi), 400)
    ns = np.exp(xs)
    # a 0-d array p takes np.log2, as the grid scans do; a float p would
    # take math.log2, which differs from it in the last bit for some p
    p_arr = np.asarray(p, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        vals = np.asarray(ma.overhead(ns, p_arr, machine) - mb.overhead(ns, p_arr, machine))
    return _refine_crossing(ma, mb, p, machine, xs, vals)


def cannon_gk_closed_form(p: float, machine: MachineParams) -> float | None:
    """Eq. 15: the Cannon-vs-GK equal-overhead matrix size, in closed form::

        n_EqualTo(p) = sqrt( (5/3 p log p - 2 p^{3/2}) ts
                             / ((2 sqrt(p) - 5/3 p^{1/3} log p) tw) )

    Returns ``None`` where the expression has no positive solution (one
    algorithm's overhead dominates for every *n* at this *p*).
    """
    lg = log2(p)
    num = ((5 / 3) * p * lg - 2 * p**1.5) * machine.ts
    den = (2 * math.sqrt(p) - (5 / 3) * p ** (1 / 3) * lg) * machine.tw
    if den == 0:
        return None
    val = num / den
    if val <= 0:
        return None
    return math.sqrt(val)


def gk_cannon_tw_cutoff() -> float:
    """The *p* beyond which GK's ``tw`` overhead term beats Cannon's for all *n*.

    Solves ``2 sqrt(p) = (5/3) p^{1/3} log2 p`` — the paper quotes
    ``p = 130 million`` ("even if ts = 0 ... for p > 130 million").
    """

    def f(log_p: float) -> float:
        p = math.exp(log_p)
        return 2 * math.sqrt(p) - (5 / 3) * p ** (1 / 3) * log2(p)

    # the nontrivial root sits well above p = 2; bracket it widely
    return math.exp(brentq(f, math.log(1e3), math.log(1e15)))


def _dns_wins_somewhere(
    p: float, machine: MachineParams, r_min: float = 2.0, samples: int = 200
) -> bool:
    """Is there any *n* in DNS's applicability strip where it beats GK at *p*?

    The strip is ``p^{1/3} <= n <= sqrt(p / r_min)``: ``n^2 <= p <= n^3``
    with the §4.5.2 blocking factor ``r = p/n^2`` at least *r_min*
    (``r > 1`` in the paper).  The overhead difference is not monotone in
    *n* — DNS wins, if at all, in a middle band of the strip — so scan
    the whole strip in one vectorized evaluation.
    """
    dns, gk = MODELS["dns"], MODELS["gk"]
    n_lo, n_hi = p ** (1 / 3), math.sqrt(p / r_min)
    if n_hi < n_lo or n_hi < 1.0:
        return False
    ns = np.geomspace(max(n_lo, 1.0), n_hi, samples)
    p_arr = np.asarray(p, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        diff = dns.overhead(ns, p_arr, machine) - gk.overhead(ns, p_arr, machine)
    return bool(np.any(diff < 0))


def dns_beats_gk_max_procs(
    machine: MachineParams, p_hi: float = 1e24, r_min: float = 2.0
) -> float:
    """Smallest *p* at which the DNS algorithm beats GK for *some* matrix size.

    Below the returned value DNS loses to GK throughout its
    applicability strip ``n^2 * r_min <= p <= n^3``.  Returns ``inf`` if
    DNS never wins below *p_hi*.

    Reproduction note: Section 6 quotes "even if ``ts`` is 10 times ...
    ``tw``, the DNS algorithm will perform worse than the GK algorithm
    for up to almost 10,000 processors for any problem size", and
    footnote 3 places the DNS-vs-GK crossover's entry into the feasible
    region at ``p = 2.6e18`` for the Figure 1 machine.  Those numbers
    follow from the paper treating ``n_EqualTo(p)`` as single-valued;
    the exact overhead difference of Eqs. (6)/(7) has *two* roots in
    *n*, opening a thin DNS-favorable band near the ``p = n^3`` edge
    much earlier.  This function reports the exact scan; the experiment
    harness records both values side by side (see EXPERIMENTS.md).
    """
    lo, hi = 8.0, p_hi
    if _dns_wins_somewhere(lo, machine, r_min):
        return lo
    if not _dns_wins_somewhere(hi, machine, r_min):
        return float("inf")
    # bisect on log p for the first win (wins are monotone-ish in p; a
    # fine bisection tolerance keeps any non-monotone sliver negligible)
    for _ in range(80):
        mid = math.exp((math.log(lo) + math.log(hi)) / 2)
        if _dns_wins_somewhere(mid, machine, r_min):
            hi = mid
        else:
            lo = mid
    return hi


def _is_registered(model: AlgorithmModel) -> bool:
    """Only registry instances are safe to cache by key (custom instances
    with a colliding ``key`` must not alias each other's entries)."""
    return MODELS.get(model.key) is model


def crossover_curve(
    a: AlgorithmModel | str,
    b: AlgorithmModel | str,
    machine: MachineParams,
    p_values: Sequence[float],
    *,
    n_lo: float = 1.0,
    n_hi: float = 1e15,
    cache: bool = True,
) -> list[tuple[float, float | None]]:
    """``n_EqualTo(p)`` sampled over *p_values* (the plain lines of Figs 1-3).

    The scan for sign changes is evaluated for *all* processor counts at
    once on a ``(len(p_values), 400)`` overhead-difference grid; only
    the per-*p* Brent refinement of a found bracket stays scalar.

    With ``cache=True`` (the default) finished curves are memoized in
    the shared result cache and persisted to the on-disk tier, keyed on
    the model pair, machine, and sample spec, so re-deriving a figure's
    curves — within the process or in a later one — skips the Brent
    scans entirely.  Only models registered in
    :data:`~repro.core.models.MODELS` participate; anonymous model
    instances always compute fresh.
    """
    ma, mb = _as_model(a), _as_model(b)
    ps = [float(p) for p in p_values]
    if not ps:
        return []
    use_cache = cache and _is_registered(ma) and _is_registered(mb)
    mem_key = ("crossover_curve", ma.key, mb.key, machine, tuple(ps), n_lo, n_hi)
    if use_cache:
        hit = result_cache().get(mem_key)
        if hit is not None:
            return list(hit)

    disk = disk_cache() if use_cache else None
    disk_key = None
    if disk is not None:
        disk_key = disk.key_for(
            {
                "kind": "crossover_curve",
                "a": ma.key,
                "b": mb.key,
                "machine": machine,
                "p_values": ps,
                "n_lo": n_lo,
                "n_hi": n_hi,
            }
        )
        # the payload is a handful of floats: a JSON shard reloads much
        # faster than an NPZ (no zip machinery) and round-trips floats
        # exactly via shortest-repr
        shard = disk.get_json(disk_key)
        if (
            isinstance(shard, list)
            and len(shard) == len(ps)
            and all(n is None or isinstance(n, float) for n in shard)
        ):
            curve = [(p, shard[i]) for i, p in enumerate(ps)]
            result_cache().put(mem_key, tuple(curve))
            return curve

    global _CURVE_COMPUTES
    _CURVE_COMPUTES += 1
    xs = np.linspace(math.log(n_lo), math.log(n_hi), 400)
    ns = np.exp(xs)[None, :]
    p_col = np.asarray(ps)[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        diffs = np.asarray(ma.overhead(ns, p_col, machine) - mb.overhead(ns, p_col, machine))
    diffs = np.broadcast_to(diffs, (len(ps), xs.size))
    curve = [
        (p, _refine_crossing(ma, mb, p, machine, xs, diffs[i]))
        for i, p in enumerate(ps)
    ]
    if use_cache:
        result_cache().put(mem_key, tuple(curve))
        if disk is not None and disk_key is not None:
            disk.put_json(disk_key, [n for _, n in curve])
    return curve

"""Bracketed scalar root finding: Brent's method in pure Python.

Every root the model layer solves for is a scalar ``f(x) = 0`` on an
interval where *f* changes sign: Section 6's equal-overhead matrix size
``n_EqualTo(p)``, the GK-vs-Cannon ``tw`` cutoff, and the Eq. 1 balance
``W = K * T_o`` behind every isoefficiency.  :func:`brentq` solves that
one problem.  It is a port of the Brent-Dekker iteration of SciPy's
``optimize.brentq`` (its C kernel, plus the argument checks of its
Python wrapper), with the same steps, tolerances, defaults and
floating-point operations in the same order, so it returns the same
double for the same inputs.
"""

from __future__ import annotations

import math
import sys
from typing import Callable

__all__ = ["MAXITER", "RTOL_MIN", "XTOL", "brentq"]

#: The smallest accepted relative tolerance, four machine epsilons: with
#: less, the minimum step ``delta`` can round away to nothing next to
#: ``|x|`` and the iteration stalls.
RTOL_MIN = 4 * sys.float_info.epsilon

#: Absolute tolerance of every root.  Every caller solves in ``log n`` or
#: ``log p``, so this bounds the relative error of the n or p it returns.
XTOL = 1e-12

#: Iterations before :func:`brentq` gives up (SciPy's default).
MAXITER = 100


def _value(f: Callable[[float], float], x: float) -> float:
    fx = float(f(x))
    if math.isnan(fx):
        raise ValueError(f"the function value at x={x!r} is NaN; the solver cannot continue")
    return fx


def brentq(
    f: Callable[[float], float],
    a: float,
    b: float,
    *,
    rtol: float = RTOL_MIN,
) -> float:
    """A root of *f* between *a* and *b*, where ``f(a)`` and ``f(b)`` differ in sign.

    Each iteration keeps a bracket ``[xcur, xblk]`` with ``|f(xcur)| <=
    |f(xblk)|`` and tries an interpolation step from ``xcur``: secant
    when the previous point is the far bracket end, inverse quadratic
    through the previous point and both bracket ends otherwise.  The
    step is taken only when ``2|s| < min(|s_prev|, 3|s_bisect| - delta)``,
    where ``s_prev`` is the step before last and ``s_bisect`` half the
    bracket; otherwise the iteration bisects.  No step is shorter than
    ``delta = (XTOL + rtol*|xcur|) / 2``, and the root is ``xcur`` as
    soon as half the bracket is under ``delta`` or ``f(xcur) == 0``.
    An endpoint where *f* is exactly zero is returned unchanged.

    Raises :class:`ValueError` when ``rtol <`` :data:`RTOL_MIN`, ``f(a)``
    and ``f(b)`` have the same sign, or *f* returns NaN, and
    :class:`RuntimeError` when :data:`MAXITER` iterations do not converge.
    """
    if rtol < RTOL_MIN:
        raise ValueError(f"rtol too small ({rtol:g} < {RTOL_MIN:g})")
    xpre, xcur = float(a), float(b)
    fpre, fcur = _value(f, xpre), _value(f, xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError(
            f"f(a) and f(b) must have different signs, got f({xpre!r}) = {fpre!r} "
            f"and f({xcur!r}) = {fcur!r}; widen or move the bracket"
        )
    xblk = fblk = spre = scur = 0.0
    for _ in range(MAXITER):
        # a sign change between the last two points restarts the bracket
        # there; SciPy also requires both values nonzero, which fpre always
        # is, and a zero fcur returns below before the new bracket is used
        if (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (XTOL + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # secant through the last two points
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # inverse quadratic through all three
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                # IEEE division gives inf or NaN here, and both fail the test below
                stry = math.inf
            # min(y, x) picks what C's MIN(x, y) picks, NaN included
            if 2 * abs(stry) < min(3 * abs(sbis) - delta, abs(spre)):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = _value(f, xcur)
    raise RuntimeError(f"failed to converge after {MAXITER} iterations, value is {xcur!r}")

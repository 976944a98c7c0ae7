"""Tests for repro.core.roots, the model layer's one root finder.

The pinned values below were computed with SciPy's ``optimize.brentq``
before the in-tree solver replaced it, and are compared with ``==``:
the port must reproduce every root bit for bit.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.crossover import crossover_curve, equal_overhead_n, gk_cannon_tw_cutoff
from repro.core.isoefficiency import isoefficiency_terms
from repro.core.machine import CM5, PRESETS
from repro.core.models import MODELS
from repro.core.roots import MAXITER, RTOL_MIN, XTOL, brentq
from repro.experiments import table1

SRC = str(Path(__file__).resolve().parent.parent / "src")


class TestBrentq:
    def test_finds_a_root_within_tolerance(self):
        root = brentq(lambda x: x**3 - 2.0, 0.0, 2.0)
        assert root == pytest.approx(2.0 ** (1 / 3), abs=XTOL)

    def test_bracket_order_does_not_matter(self):
        root = brentq(lambda x: math.exp(x) - 5.0, 3.0, 0.0)
        assert root == pytest.approx(math.log(5.0), abs=1e-11)

    def test_sign_step_converges_by_bisection(self):
        root = brentq(lambda x: -1.0 if x < 0.3 else 1.0, 0.0, 1.0)
        assert abs(root - 0.3) < XTOL

    def test_underflowing_interpolation_bisects_like_scipy(self):
        # at this scale the inverse-quadratic denominator underflows to
        # zero; SciPy's C division gives inf there and bisects (value
        # captured with SciPy's brentq at xtol=1e-12)
        root = brentq(lambda x: (math.exp(x - 0.3) - 1.0) * 1e-200, -2.0, 2.0)
        assert root == 0.29999999999994825

    @pytest.mark.parametrize("a, b, want", [(1.0, 3.0, 1.0), (-2.0, 1.0, 1.0)])
    def test_endpoint_root_returns_that_endpoint(self, a, b, want):
        calls = []

        def f(x):
            calls.append(x)
            return x - 1.0

        assert brentq(f, a, b) == want
        assert len(calls) == 2

    def test_same_sign_bracket_raises(self):
        with pytest.raises(ValueError, match="different signs"):
            brentq(lambda x: x * x + 1.0, -1.0, 1.0)

    def test_nan_at_an_endpoint_raises(self):
        with pytest.raises(ValueError, match="NaN"):
            brentq(lambda x: math.nan if x > 2 else x - 1.0, 0.0, 3.0)

    def test_nan_inside_the_bracket_raises(self):
        with pytest.raises(ValueError, match="NaN"):
            brentq(lambda x: math.nan if 0.5 < x < 2.5 else x - 1.5, 0.0, 3.0)

    def test_rtol_below_four_eps_raises(self):
        assert RTOL_MIN == 4 * sys.float_info.epsilon
        brentq(lambda x: x - 0.5, 0.0, 1.0, rtol=RTOL_MIN)
        with pytest.raises(ValueError, match="rtol"):
            brentq(lambda x: x - 0.5, 0.0, 1.0, rtol=RTOL_MIN / 2)

    def test_running_out_of_iterations_raises(self):
        # a step gives interpolation nothing to use, and bisecting a
        # bracket of width 2e300 down to XTOL takes ~1000 halvings
        with pytest.raises(RuntimeError, match=f"after {MAXITER} iterations"):
            brentq(lambda x: -1.0 if x < 0.3 else 1.0, -1e300, 1e300)


#: ``crossover_curve(a, b, machine, [2**8, 2**20])`` on the Figs 1-3 machines.
CURVE_PINS = {
    ("ncube2-like", "gk", "cannon"): [67.35847004632994, 8883.50964853632],
    ("ncube2-like", "gk", "berntsen"): [19.91274696736157, 1732.9632470977822],
    ("ncube2-like", "cannon", "berntsen"): [None, None],
    ("ncube2-like", "dns", "gk"): [None, None],
    ("future-mimd", "gk", "cannon"): [17.391882181033598, 2293.7123283102014],
    ("future-mimd", "gk", "berntsen"): [5.141449158791263, 447.44918637326504],
    ("future-mimd", "dns", "gk"): [7.32007069744451, 110.29276680178641],
    ("simd-cm2-like", "gk", "cannon"): [3.8889430813454213, 512.8896686931082],
    ("simd-cm2-like", "gk", "berntsen"): [1.1496629821913147, 100.05267972076291],
    ("simd-cm2-like", "dns", "gk"): [6.756887861891603, 104.67051905378176],
}

#: ``isoefficiency_terms(model, 2**20, <Table 1 fit machine>, 0.3)``.
ISO_TERM_PINS = {
    "berntsen": {"ts_cannon": 4565514.913285312, "ts_reduce": 149796.57142856927,
                 "tw": 278.5757667638478, "concurrency": 1099511627776.0},
    "cannon": {"ts": 46017506.74285685, "tw": 84521.9511603496, "concurrency": 1073741824.0},
    "gk": {"ts": 748982.857142851, "tw": 382134.11078717106, "concurrency": 1048576.0},
    "gk-improved": {"ts": 748982.857142851, "tw": 1289.702623906709,
                    "sqrt": 431540.238792384, "concurrency": 93787488.62299278},
    "dns": {"ts_tw_log": 1430798.5585476493, "ts_tw_n3": 0.0, "concurrency": 1048576.0},
}


class TestPinnedRoots:
    def test_gk_cannon_tw_cutoff(self):
        assert gk_cannon_tw_cutoff() == 127684380.90282883

    @pytest.mark.parametrize("p, n", [(64, 82.19218670625303), (512, 294.3119904139276)])
    def test_fig45_model_crossovers(self, p, n):
        assert equal_overhead_n("gk-cm5", "cannon", p, CM5) == n

    @pytest.mark.parametrize("key", sorted(CURVE_PINS))
    def test_crossover_curve_points(self, key):
        machine, a, b = key
        curve = crossover_curve(a, b, PRESETS[machine], [2.0**8, 2.0**20], cache=False)
        assert [n for _, n in curve] == CURVE_PINS[key]

    @pytest.mark.parametrize("key", sorted(ISO_TERM_PINS))
    def test_isoefficiency_balances(self, key):
        got = isoefficiency_terms(MODELS[key], 2.0**20, table1._FIT_MACHINE, 0.3)
        assert got == ISO_TERM_PINS[key]


def test_importing_the_package_loads_no_scipy():
    """Cold start: nothing a user imports pulls in SciPy."""
    code = (
        "import sys\n"
        "import repro, repro.cli, repro.serve, repro.experiments, repro.campaign, "
        "repro.analysis\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "assert 'scipy' not in sys.modules, loaded\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr

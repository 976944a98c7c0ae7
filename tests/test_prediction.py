"""Tests for calibration and performance prediction (Section 3 workflow)."""

import numpy as np
import pytest

from conftest import rand_pair
from repro.algorithms.cannon import run_cannon
from repro.algorithms.gk import run_gk
from repro.core.allport import ALLPORT_MODELS
from repro.core.machine import MachineParams
from repro.core.models import MODELS
from repro.core.prediction import (
    TimingSample,
    calibrate,
    fit_machine_params,
    predict,
)

TRUE = MachineParams(ts=42.0, tw=1.7)


def _model_samples(key, configs, machine=TRUE):
    model = MODELS[key]
    return [
        TimingSample(n=n, p=p, parallel_time=model.time(n, p, machine))
        for n, p in configs
    ]


class TestFit:
    def test_recovers_exact_params_from_model_times(self):
        samples = _model_samples("cannon", [(32, 16), (64, 16), (64, 64)])
        fitted = fit_machine_params("cannon", samples)
        assert fitted.ts == pytest.approx(TRUE.ts, rel=1e-9)
        assert fitted.tw == pytest.approx(TRUE.tw, rel=1e-9)

    def test_works_for_every_model(self):
        for key in ("simple", "cannon", "fox", "berntsen", "gk", "gk-cm5"):
            configs = [(32, 16), (64, 16), (128, 64)]
            if key == "berntsen":
                configs = [(32, 8), (64, 8), (128, 64)]
            samples = _model_samples(key, configs)
            fitted = fit_machine_params(key, samples)
            assert fitted.ts == pytest.approx(TRUE.ts, rel=1e-6)
            assert fitted.tw == pytest.approx(TRUE.tw, rel=1e-6)

    @pytest.mark.parametrize(
        "model", [MODELS["gk-improved"], ALLPORT_MODELS["gk-allport"]], ids=lambda m: m.key
    )
    def test_refuses_models_with_sqrt_terms(self, model):
        # a sqrt(ts*tw) term is not linear in (ts, tw): exact gk-improved
        # times on ts=50, tw=3 would least-squares fit to ts~155, tw~3.5
        truth = MachineParams(ts=50.0, tw=3.0)
        samples = [
            TimingSample(n=n, p=p, parallel_time=model.time(n, p, truth))
            for n, p in [(64, 8), (256, 64), (512, 512), (128, 4096)]
        ]
        with pytest.raises(ValueError, match=r"sqrt\(ts\*tw\)"):
            fit_machine_params(model, samples)

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            fit_machine_params("cannon", _model_samples("cannon", [(32, 16)]))

    def test_degenerate_samples_rejected(self):
        # identical (n, p) twice: rank-deficient design
        with pytest.raises(ValueError):
            fit_machine_params("cannon", _model_samples("cannon", [(32, 16), (32, 16)]))

    def test_estimates_clipped_nonnegative(self):
        # nonsense timings (faster than compute alone) clip to ts=tw=0
        samples = [
            TimingSample(32, 16, 32**3 / 16 * 0.5),
            TimingSample(64, 16, 64**3 / 16 * 0.5),
            TimingSample(64, 64, 64**3 / 64 * 0.5),
        ]
        fitted = fit_machine_params("cannon", samples)
        assert fitted.ts >= 0 and fitted.tw >= 0


class TestPredict:
    def test_consistent_with_model(self):
        out = predict("cannon", 64, 16, TRUE)
        assert out["parallel_time"] == pytest.approx(MODELS["cannon"].time(64, 16, TRUE))
        assert out["efficiency"] == pytest.approx(
            MODELS["cannon"].efficiency(64, 16, TRUE)
        )
        assert out["speedup"] == pytest.approx(out["efficiency"] * 16)


class TestCalibrateOnSimulator:
    def test_small_p_calibration_predicts_large_p_cannon(self):
        # the Section 3 claim: measure at p in {4, 16}, predict p = 64
        machine = MachineParams(ts=80.0, tw=2.5)
        fitted = calibrate("cannon", machine, [(16, 4), (32, 4), (32, 16), (48, 16)])
        A, B = rand_pair(64, seed=9)
        measured = run_cannon(A, B, 64, machine).parallel_time
        predicted = predict("cannon", 64, 64, fitted)["parallel_time"]
        assert predicted == pytest.approx(measured, rel=0.10)

    def test_small_p_calibration_predicts_large_p_gk(self):
        machine = MachineParams(ts=80.0, tw=2.5)
        fitted = calibrate("gk", machine, [(16, 8), (32, 8), (32, 64), (48, 64)])
        A, B = rand_pair(64, seed=9)
        measured = run_gk(A, B, 512, machine).parallel_time
        predicted = predict("gk", 64, 512, fitted)["parallel_time"]
        assert predicted == pytest.approx(measured, rel=0.25)

    def test_fitted_constants_absorb_overlap(self):
        # the simulator overlaps phases, so the fitted effective constants
        # come in at or below the machine's nominal ones
        machine = MachineParams(ts=100.0, tw=3.0)
        fitted = calibrate("gk", machine, [(16, 8), (32, 8), (32, 64), (48, 64)])
        assert fitted.ts <= machine.ts * 1.05
        assert fitted.tw <= machine.tw * 1.2

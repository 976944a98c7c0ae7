"""Oracle battery: each invariant fires on planted violations and stays
quiet on clean rows."""

from __future__ import annotations

import pytest

from repro.campaign.oracles import ORACLES, OracleConfig, check_scenario
from repro.campaign.schema import Scenario
from repro.core.machine import PRESETS
from repro.simulator.faults import FaultPlan

M = PRESETS["cm5"]


def scenario(**overrides) -> Scenario:
    kwargs = dict(machine=M, algorithms=("cannon",), n_values=(16,), p_values=(4, 16))
    kwargs.update(overrides)
    return Scenario(**kwargs)


def row(**overrides) -> dict:
    base = {
        "algorithm": "cannon", "n": 16, "p": 4, "scheduler": "heap",
        "outcome": "ok", "error": None,
        "T_sim": 1000.0, "T_model": 990.0,
        "efficiency_sim": 0.8, "efficiency_model": 0.81, "overhead_sim": 100.0,
        "messages": 200, "words": 4000, "retransmits": 0,
        "faults_injected": 0, "checkpoint_time": 0.0, "recovery_time": 0.0,
    }
    base.update(overrides)
    return base


class TestConfig:
    def test_defaults_valid(self):
        cfg = OracleConfig()
        assert cfg.divergence

    @pytest.mark.parametrize(
        "kwargs, fragment",
        [
            ({"model_rel_tol": 0.0}, "model_rel_tol"),
            ({"model_rel_tol": -1.0}, "model_rel_tol"),
            ({"monotone_tol": -1e-9}, "monotone_tol"),
            ({"storm_factor": 0.5}, "storm_factor"),
        ],
    )
    def test_bad_tolerances_rejected(self, kwargs, fragment):
        with pytest.raises(ValueError, match=fragment):
            OracleConfig(**kwargs)


class TestOracles:
    def test_clean_rows_no_anomalies(self):
        out = check_scenario(scenario(), [row(), row(p=16, efficiency_sim=0.7)],
                             None, OracleConfig())
        assert out == []

    def test_fault_signature(self):
        bad = row(outcome="deadlock", error="DeadlockError: stuck")
        out = check_scenario(scenario(), [bad], None, OracleConfig())
        assert [a["oracle"] for a in out] == ["fault-signature"]
        assert out[0]["severity"] == "error"
        assert out[0]["signature"] == "deadlock"
        assert out[0]["p"] == 4

    def test_numerical_mismatch(self):
        bad = row(outcome="numerical-mismatch", error="max abs deviation 1e+00")
        out = check_scenario(scenario(), [bad], None, OracleConfig())
        assert [a["oracle"] for a in out] == ["numerical-mismatch"]

    def test_model_disagreement_fires_on_tight_tolerance(self):
        rows = [row()]
        assert check_scenario(scenario(), rows, None, OracleConfig()) == []
        out = check_scenario(scenario(), rows, None, OracleConfig(model_rel_tol=1e-12))
        assert [a["oracle"] for a in out] == ["model-disagreement"]
        assert out[0]["severity"] == "warn"
        assert out[0]["relative_error"] == pytest.approx(10.0 / 990.0)

    def test_model_disagreement_skipped_under_faults(self):
        s = scenario(fault_plan=FaultPlan(drop_rate=0.1, timeout=500.0))
        out = check_scenario(s, [row(T_sim=5000.0, retransmits=10)], None,
                             OracleConfig(model_rel_tol=1e-12))
        assert out == []

    def test_retransmits_without_drops_is_an_error(self):
        out = check_scenario(scenario(), [row(retransmits=3)], None, OracleConfig())
        assert [a["oracle"] for a in out] == ["retransmit-storm"]
        assert out[0]["severity"] == "error"

    def test_retransmit_storm_beyond_limit(self):
        s = scenario(fault_plan=FaultPlan(drop_rate=0.1, timeout=500.0))
        expected = 200 * 0.1 / 0.9
        calm = row(retransmits=int(expected) + 1)
        out = check_scenario(s, [calm], None, OracleConfig())
        assert out == []
        stormy = row(retransmits=int(8.0 * expected + 16.0) + 10)
        out = check_scenario(s, [stormy], None, OracleConfig())
        assert [a["oracle"] for a in out] == ["retransmit-storm"]
        assert out[0]["severity"] == "warn"

    def test_non_monotone_efficiency(self):
        rows = [row(p=4, efficiency_sim=0.7), row(p=16, efficiency_sim=0.75)]
        out = check_scenario(scenario(), rows, None, OracleConfig())
        assert [a["oracle"] for a in out] == ["non-monotone-efficiency"]
        assert out[0]["p_prev"] == 4
        assert out[0]["p"] == 16
        # separate (algorithm, n) curves are not compared against each other
        rows = [row(n=16, efficiency_sim=0.5), row(n=32, p=16, efficiency_sim=0.9)]
        assert check_scenario(scenario(n_values=(16, 32)), rows, None,
                              OracleConfig()) == []

    def test_non_monotone_skipped_under_faults(self):
        s = scenario(fault_plan=FaultPlan(straggler_rate=0.5, straggler_factor=4.0))
        rows = [row(p=4, efficiency_sim=0.3), row(p=16, efficiency_sim=0.6)]
        assert check_scenario(s, rows, None, OracleConfig()) == []

    def test_scheduler_divergence(self):
        rows = [row()]
        same = [row(scheduler="heap")]
        assert check_scenario(scenario(), rows, same, OracleConfig()) == []
        diverged = [row(scheduler="heap", T_sim=1001.0)]
        out = check_scenario(scenario(), rows, diverged, OracleConfig())
        assert [a["oracle"] for a in out] == ["scheduler-divergence"]
        assert "T_sim" in out[0]["message"]
        assert out[0]["alt_scheduler"] == "heap"

    def test_scheduler_divergence_on_grid_mismatch(self):
        out = check_scenario(scenario(), [row()], [], OracleConfig())
        assert [a["oracle"] for a in out] == ["scheduler-divergence"]

    def test_every_reported_oracle_is_in_the_catalogue(self):
        assert set(ORACLES) == {
            "fault-signature", "numerical-mismatch", "scheduler-divergence",
            "model-disagreement", "non-monotone-efficiency", "retransmit-storm",
        }

"""Scenario executor: deterministic records, fault signatures as data,
scheduler cross-checks."""

from __future__ import annotations

import json

import pytest

from repro.campaign.executor import alt_scheduler_for, execute_scenario, simulate_rows
from repro.campaign.oracles import OracleConfig, _DIVERGENCE_FIELDS
from repro.campaign.schema import Scenario
from repro.core.machine import PRESETS
from repro.simulator.faults import FaultPlan

M = PRESETS["cm5"]


def scenario(**overrides) -> Scenario:
    kwargs = dict(machine=M, algorithms=("cannon",), n_values=(16,), p_values=(4, 16))
    kwargs.update(overrides)
    return Scenario(**kwargs)


class TestRows:
    def test_rows_cover_every_feasible_point_with_full_fields(self):
        s = scenario(algorithms=("cannon", "gk"), n_values=(8, 16), p_values=(4, 8, 16))
        rows = simulate_rows(s, "ready")
        assert [(r["algorithm"], r["n"], r["p"]) for r in rows] == list(s.points())
        for r in rows:
            assert r["outcome"] == "ok"
            for field in _DIVERGENCE_FIELDS:
                assert field in r
            assert r["T_sim"] > 0.0
            assert r["T_model"] > 0.0
            assert 0.0 < r["efficiency_sim"] <= 1.0

    def test_record_is_deterministic_and_json_stable(self):
        s = scenario(fault_plan=FaultPlan(seed=3, drop_rate=0.1, timeout=500.0))
        a = execute_scenario(s, OracleConfig())
        b = execute_scenario(s, OracleConfig())
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
        assert a["id"] == s.scenario_id
        assert a["spec"] == s.to_dict()
        assert a["status"] == "ok"

    def test_fully_connected_topology_moves_fewer_or_equal_hops(self):
        base = simulate_rows(scenario(), "ready")
        flat = simulate_rows(scenario(topology="fully-connected"), "ready")
        assert [r["outcome"] for r in flat] == ["ok", "ok"]
        # same traffic either way; only timing may differ
        assert [r["messages"] for r in flat] == [r["messages"] for r in base]


class TestSignatures:
    def test_unrecoverable_crash_is_recorded_not_raised(self):
        # a planned crash with no checkpointing is fatal by design
        plan = FaultPlan(horizon=1e9, crash_times=((0, 1.0),))
        s = scenario(p_values=(4,), fault_plan=plan)
        rec = execute_scenario(s, OracleConfig())
        assert rec["status"] == "anomalous"
        row = rec["rows"][0]
        assert row["outcome"] == "rank-crash"
        assert "RankCrashError" in row["error"]
        assert [a["oracle"] for a in rec["anomalies"]] == ["fault-signature"]

    def test_recovered_crash_is_clean(self):
        plan = FaultPlan(horizon=1e9, crash_times=((0, 1.0),),
                         checkpoint_interval=500.0, recovery_cost=50.0)
        rec = execute_scenario(scenario(p_values=(4,), fault_plan=plan), OracleConfig())
        assert rec["status"] == "ok"
        assert rec["rows"][0]["faults_injected"] >= 1
        assert rec["rows"][0]["recovery_time"] > 0.0

    def test_exhausted_retries_become_unrecoverable_fault_outcome(self):
        plan = FaultPlan(seed=1, drop_rate=0.9, timeout=10.0, max_retries=0)
        rec = execute_scenario(
            scenario(p_values=(4,), fault_plan=plan),
            OracleConfig(divergence=False),
        )
        assert rec["status"] == "anomalous"
        outcomes = {r["outcome"] for r in rec["rows"]}
        assert outcomes == {"unrecoverable-fault"}


class TestSchedulers:
    def test_alt_scheduler_pairs(self):
        assert alt_scheduler_for(scenario()) == "heap"
        assert alt_scheduler_for(scenario(scheduler="heap")) == "rescan"
        assert alt_scheduler_for(scenario(scheduler="rescan")) == "heap"
        assert alt_scheduler_for(
            scenario(scheduler="compiled", verify=False)) == "heap"

    @pytest.mark.parametrize("plan", [
        FaultPlan(),
        FaultPlan(seed=5, drop_rate=0.1, timeout=500.0),
        FaultPlan(seed=5, straggler_rate=0.3, straggler_factor=2.0),
    ])
    def test_divergence_cross_check_is_clean(self, plan):
        s = scenario(scheduler="heap", fault_plan=plan)
        rec = execute_scenario(s, OracleConfig())
        assert rec["anomalies"] == []

    def test_compiled_scenario_executes_verified(self):
        s = scenario(scheduler="compiled")
        rec = execute_scenario(s, OracleConfig())
        assert rec["status"] == "ok"
        assert all(r["T_sim"] > 0.0 for r in rec["rows"])
        assert all(r["outcome"] == "ok" for r in rec["rows"])

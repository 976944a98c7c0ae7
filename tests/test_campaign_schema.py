"""Scenario schema: validation, content addressing, JSON round trip."""

from __future__ import annotations

import json

import pytest

from repro.campaign.schema import SCHEMA_VERSION, Scenario, scenario_from_dict, scenarios_from_json
from repro.simulator.engine import DEFAULT_SCHEDULER
from repro.core.machine import PRESETS, MachineParams
from repro.simulator.faults import FaultPlan

M = PRESETS["cm5"]


def scenario(**overrides) -> Scenario:
    kwargs = dict(machine=M, algorithms=("cannon",), n_values=(16,), p_values=(4, 16))
    kwargs.update(overrides)
    return Scenario(**kwargs)


class TestValidation:
    def test_valid_scenario_constructs(self):
        s = scenario()
        assert s.topology == "hypercube"
        assert s.fault_plan.is_null

    @pytest.mark.parametrize(
        "overrides, fragment",
        [
            ({"machine": "cm5"}, "must be a MachineParams"),
            ({"fault_plan": {}}, "must be a FaultPlan"),
            ({"algorithms": ()}, "at least one algorithm"),
            ({"algorithms": ("nope",)}, "unknown key 'nope'"),
            ({"algorithms": ("fox", "cannon")}, "sorted and duplicate-free"),
            ({"algorithms": ("cannon", "cannon")}, "sorted and duplicate-free"),
            ({"n_values": ()}, "non-empty sequence"),
            ({"n_values": (16, 8)}, "strictly increasing"),
            ({"n_values": (16, 16)}, "strictly increasing"),
            ({"p_values": (0,)}, "ints >= 1"),
            ({"p_values": (True, 4)}, "ints >= 1"),
            ({"topology": "torus"}, "unknown topology"),
            ({"scheduler": "fifo"}, "unknown scheduler"),
            ({"scheduler": "ready"},
             r"unknown scheduler 'ready'; use one of \('rescan', 'heap', 'compiled'\)"),
            ({"seed": -1}, "must be an int >= 0"),
            ({"seed": 1.5}, "must be an int >= 0"),
            ({"name": 7}, "must be a string"),
            ({"p_values": (3, 5)}, "no feasible"),
            ({"algorithms": ("gk",), "p_values": (4, 16)}, "no feasible"),
        ],
    )
    def test_bad_scenarios_fail_with_actionable_messages(self, overrides, fragment):
        with pytest.raises(ValueError, match=fragment):
            scenario(**overrides)

    def test_crash_rank_must_be_below_smallest_p(self):
        plan = FaultPlan(horizon=1000.0, crash_times=((5, 100.0),),
                        checkpoint_interval=50.0)
        with pytest.raises(ValueError, match="crash for rank 5"):
            scenario(fault_plan=plan)
        # the same plan is fine once every swept p exceeds the rank
        scenario(fault_plan=plan, p_values=(16,))

    def test_compiled_scheduler_allowed_without_verify(self):
        s = scenario(scheduler="compiled", verify=False)
        assert s.scheduler == "compiled"

    def test_compiled_scheduler_verifies(self):
        # compiled runs move payloads, so their products are checked too
        s = scenario(scheduler="compiled")
        assert s.scheduler == "compiled" and s.verify


class TestIdentity:
    def test_id_is_stable_and_sensitive(self):
        a, b = scenario(), scenario()
        assert a.scenario_id == b.scenario_id
        assert a.short_id == a.scenario_id[:12]
        changed = [
            scenario(seed=1),
            scenario(name="x"),
            scenario(verify=False),
            scenario(scheduler="heap"),
            scenario(topology="fully-connected"),
            scenario(n_values=(16, 32)),
            scenario(fault_plan=FaultPlan(drop_rate=0.1, timeout=500.0)),
            scenario(machine=M.with_(ts=M.ts + 1.0)),
        ]
        ids = {s.scenario_id for s in changed}
        assert len(ids) == len(changed)
        assert a.scenario_id not in ids

    def test_points_order_is_canonical_and_feasible_only(self):
        s = scenario(algorithms=("cannon", "gk"), n_values=(8, 16), p_values=(4, 8, 16))
        pts = list(s.points())
        assert pts == sorted(pts, key=lambda t: (s.algorithms.index(t[0]), t[1], t[2]))
        assert ("cannon", 8, 8) not in pts  # 8 is not a perfect square
        assert ("gk", 8, 4) not in pts  # 4 is not a power of 8
        assert ("gk", 8, 8) in pts


class TestRoundTrip:
    def test_dict_round_trip_preserves_identity(self):
        s = scenario(
            fault_plan=FaultPlan(seed=3, drop_rate=0.05, timeout=400.0),
            scheduler="heap",
            name="round-trip",
        )
        doc = json.loads(json.dumps(s.to_dict()))
        back = scenario_from_dict(doc)
        assert back == s
        assert back.scenario_id == s.scenario_id

    def test_crash_times_survive_json_list_form(self):
        s = scenario(
            p_values=(16,),
            fault_plan=FaultPlan(horizon=1000.0, crash_times=((2, 100.0),),
                                 checkpoint_interval=50.0),
        )
        back = scenario_from_dict(json.loads(json.dumps(s.to_dict())))
        assert back.fault_plan.crash_times == ((2, 100.0),)
        assert back.scenario_id == s.scenario_id

    @pytest.mark.parametrize(
        "mutate, fragment",
        [
            (lambda d: d.update(schema=99), "schema version 99"),
            # version 1 defaulted to the deleted "ready" scheduler
            (lambda d: d.update(schema=1), "schema version 1 .* regenerate"),
            (lambda d: d.update(bogus=1), "unknown scenario field"),
            (lambda d: d.pop("machine"), "missing required field"),
            (lambda d: d["machine"].update(warp=9), "does not match MachineParams"),
            (lambda d: d.update(fault_plan={"drop_rate": 0.5}), "timeout"),
            (lambda d: d.update(fault_plan={"crash_times": [3]}), "crash_times"),
        ],
    )
    def test_bad_documents_fail_loudly(self, mutate, fragment):
        doc = scenario().to_dict()
        mutate(doc)
        with pytest.raises(ValueError, match=fragment):
            scenario_from_dict(doc)

    def test_non_dict_rejected(self):
        with pytest.raises(ValueError, match="JSON object"):
            scenario_from_dict([1, 2])


class TestBatteryFile:
    def test_list_parses(self):
        text = json.dumps([scenario().to_dict(), scenario(seed=1).to_dict()])
        out = scenarios_from_json(text, source="battery.json")
        assert [s.seed for s in out] == [0, 1]

    def test_errors_carry_index_and_source(self):
        docs = [scenario().to_dict(), scenario().to_dict()]
        docs[1]["algorithms"] = ["nope"]
        with pytest.raises(ValueError, match=r"battery\.json\[1\]"):
            scenarios_from_json(json.dumps(docs), source="battery.json")
        with pytest.raises(ValueError, match="not valid JSON"):
            scenarios_from_json("{", source="battery.json")
        with pytest.raises(ValueError, match="JSON list"):
            scenarios_from_json("{}", source="battery.json")

    def test_schema_version_exported(self):
        assert scenario().to_dict()["schema"] == SCHEMA_VERSION

    def test_scheduler_defaults_to_the_engine_default(self):
        assert scenario().scheduler == DEFAULT_SCHEDULER
        doc = scenario().to_dict()
        del doc["scheduler"]
        assert scenario_from_dict(doc).scheduler == DEFAULT_SCHEDULER

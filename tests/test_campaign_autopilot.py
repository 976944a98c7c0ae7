"""Autopilot generation and the end-to-end campaign acceptance
properties: seeded reproducibility and exact resume after SIGKILL."""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time

import pytest

from repro.campaign.autopilot import PROFILES, AutopilotProfile, generate_battery, generate_scenario
from repro.campaign.database import CampaignDB
from repro.campaign.oracles import OracleConfig
from repro.campaign.runner import run_campaign

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


class TestGeneration:
    def test_same_seed_same_battery(self):
        a = generate_battery(123, 200, PROFILES["smoke"])
        b = generate_battery(123, 200, PROFILES["smoke"])
        assert [s.scenario_id for s in a] == [s.scenario_id for s in b]
        assert len({s.scenario_id for s in a}) == 200

    def test_different_seeds_differ(self):
        a = generate_battery(0, 20, PROFILES["smoke"])
        b = generate_battery(1, 20, PROFILES["smoke"])
        assert {s.scenario_id for s in a} != {s.scenario_id for s in b}

    def test_scenarios_are_plain_python(self):
        # numpy scalars would poison the canonical JSON fingerprint
        for index in range(30):
            s = generate_scenario(7, index, PROFILES["default"])
            assert type(s.seed) is int
            assert all(type(v) is int for v in s.n_values + s.p_values)
            assert type(s.machine.ts) is float
            assert type(s.scheduler) is str
            s.scenario_id  # must fingerprint cleanly

    def test_generation_covers_fault_kinds_and_schedulers(self):
        battery = generate_battery(3, 120, PROFILES["default"])
        kinds = set()
        for s in battery:
            plan = s.fault_plan
            if plan.is_null:
                kinds.add("none")
            if plan.drop_rate:
                kinds.add("drops")
            if plan.straggler_rate:
                kinds.add("stragglers")
            if plan.degrade_rate:
                kinds.add("degrade")
            if plan.crash_times:
                kinds.add("crash")
        assert kinds == {"none", "drops", "stragglers", "degrade", "crash"}
        assert {s.scheduler for s in battery} == {"compiled", "rescan", "heap"}
        assert {s.topology for s in battery} == {"hypercube", "fully-connected"}

    def test_compiled_scenarios_carry_no_fault_plan(self):
        """An active plan stops compilation, so every compiled draw of the
        seed-2024 smoke battery runs fault-free and replays a compiled
        schedule; the heap draws keep the fault coverage."""
        battery = generate_battery(2024, 40, PROFILES["smoke"])
        compiled = [s for s in battery if s.scheduler == "compiled"]
        assert compiled
        assert all(s.fault_plan.is_null for s in compiled)
        assert any(not s.fault_plan.is_null for s in battery if s.scheduler == "heap")

    def test_crash_scenarios_are_survivable_by_construction(self):
        for s in generate_battery(11, 150, PROFILES["default"]):
            if s.fault_plan.crash_times:
                assert s.fault_plan.checkpoint_interval is not None
                for rank, _ in s.fault_plan.crash_times:
                    assert rank < min(s.p_values)
            if s.fault_plan.drop_rate:
                assert s.fault_plan.drop_rate <= 0.2
                assert s.fault_plan.timeout > 0.0

    def test_count_validation(self):
        with pytest.raises(ValueError, match="count"):
            generate_battery(0, 0, PROFILES["smoke"])

    def test_broken_profile_fails_with_context(self):
        bad = AutopilotProfile(name="bad", square_p_pool=(3,), cube_p_pool=(3,),
                               n_pool=(4,))
        with pytest.raises(ValueError, match="no valid scenario.*slot 0"):
            generate_scenario(0, 0, bad)


class TestReproducibility:
    def test_two_runs_of_a_200_scenario_battery_are_byte_identical(self, tmp_path):
        # acceptance criterion: same seed => identical run DB and report
        battery = generate_battery(2024, 200, PROFILES["smoke"])
        cfg = OracleConfig(divergence=False)  # halves cost; divergence is
        # covered per-scenario in test_campaign_executor
        s1 = run_campaign(battery, str(tmp_path / "a"), oracles=cfg)
        s2 = run_campaign(battery, str(tmp_path / "b"), oracles=cfg)
        assert s1.fingerprint == s2.fingerprint
        a = (tmp_path / "a.jsonl").read_bytes()
        b = (tmp_path / "b.jsonl").read_bytes()
        assert a == b
        assert s1.failed == 0
        # the seeded battery is clean: any anomaly here is a real bug
        assert s1.anomalous == 0 and s1.anomalies == 0


class TestKillResume:
    def test_sigkill_mid_battery_then_resume_is_bit_for_bit(self, tmp_path):
        # acceptance criterion: SIGKILL a live campaign subprocess, resume,
        # and the run database must equal the uninterrupted run exactly
        env = {**os.environ, "PYTHONPATH": SRC}
        args = [
            sys.executable, "-m", "repro", "campaign", "autopilot",
            "--seed", "99", "--count", "8", "--profile", "smoke",
        ]

        full = subprocess.run(
            [*args, "--db", str(tmp_path / "full")],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert full.returncode == 0, full.stderr

        proc = subprocess.Popen(
            [*args, "--db", str(tmp_path / "killed")],
            env={**env, "REPRO_CAMPAIGN_SCENARIO_DELAY": "0.4"},
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        jsonl = tmp_path / "killed.jsonl"
        deadline = time.monotonic() + 120
        # wait until it is provably mid-battery (>= 1 record past the header)
        while time.monotonic() < deadline:
            if jsonl.exists() and len(jsonl.read_bytes().splitlines()) >= 2:
                break
            time.sleep(0.02)
        else:  # pragma: no cover - diagnostic path
            proc.kill()
            pytest.fail("campaign subprocess never wrote a record")
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=60)

        killed_bytes = jsonl.read_bytes()
        full_bytes = (tmp_path / "full.jsonl").read_bytes()
        assert killed_bytes != full_bytes  # it really died early

        resume = subprocess.run(
            [sys.executable, "-m", "repro", "campaign", "resume",
             "--db", str(tmp_path / "killed")],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert resume.returncode == 0, resume.stderr
        assert jsonl.read_bytes() == full_bytes
        assert (tmp_path / "killed.report.json").read_bytes() == \
            (tmp_path / "full.report.json").read_bytes()

"""Tests for the resilience experiment (efficiency vs fault rate,
optimal checkpoint interval) and Young's interval formula."""

import json

import pytest

from repro.core.machine import CM5
from repro.core.metrics import young_checkpoint_interval
from repro.experiments import resilience


@pytest.fixture(scope="module")
def report():
    # tiny but structurally complete: includes the fault-free endpoint
    return resilience.run(
        p=64, n=16,
        drop_rates=(0.0, 0.05),
        interval_factors=(0.5, 1.0),
        crash_rate=1.0,
    )


class TestYoungInterval:
    def test_formula(self):
        assert young_checkpoint_interval(50.0, 10000.0) == 1000.0

    def test_scales_with_sqrt(self):
        t1 = young_checkpoint_interval(10.0, 1000.0)
        t4 = young_checkpoint_interval(40.0, 1000.0)
        assert t4 == pytest.approx(2.0 * t1)

    @pytest.mark.parametrize("bad", [(0.0, 1.0), (1.0, 0.0), (-1.0, 1.0)])
    def test_rejects_nonpositive(self, bad):
        with pytest.raises(ValueError):
            young_checkpoint_interval(*bad)


class TestResilienceRun:
    def test_baseline_is_fault_free(self, report):
        for name in ("cannon", "gk"):
            assert report.baseline[name]["T"] > 0
            assert 0 < report.baseline[name]["E"] <= 1

    def test_zero_drop_rate_row_matches_baseline(self, report):
        row = report.fault_rows[0]
        assert row["drop_rate"] == 0.0
        assert row["E_cannon"] == pytest.approx(report.baseline["cannon"]["E"])
        assert row["E_gk"] == pytest.approx(report.baseline["gk"]["E"])
        assert row["retrans_cannon"] == 0 and row["retrans_gk"] == 0

    def test_drops_cost_efficiency(self, report):
        clean, faulty = report.fault_rows
        assert faulty["E_cannon"] < clean["E_cannon"]
        assert faulty["E_gk"] < clean["E_gk"]
        assert faulty["retrans_cannon"] > 0 and faulty["retrans_gk"] > 0

    def test_checkpoint_rows_carry_the_tradeoff(self, report):
        assert len(report.checkpoint_rows) == 2
        for row in report.checkpoint_rows:
            for name in ("cannon", "gk"):
                assert row[f"T_{name}"] >= report.baseline[name]["T"]
                assert row[f"slowdown_{name}"] >= 1.0
                assert row[f"ckpt_time_{name}"] >= 0.0
                assert row[f"recovery_time_{name}"] >= 0.0

    def test_best_and_young_are_populated(self, report):
        factors = {row["factor"] for row in report.checkpoint_rows}
        for name in ("cannon", "gk"):
            assert report.best[name] in factors
            assert report.young[name] > 0

    def test_deterministic(self, report):
        again = resilience.run(
            p=64, n=16,
            drop_rates=(0.0, 0.05),
            interval_factors=(0.5, 1.0),
            crash_rate=1.0,
        )
        assert again == report


class TestRendering:
    def test_format_text_has_both_curves(self, report):
        text = resilience.format_text(report)
        assert "efficiency vs per-message drop rate" in text.lower()
        assert "checkpoint" in text.lower()
        assert "young" in text.lower()

    def test_to_json_is_serializable_and_complete(self, report):
        payload = resilience.to_json(report)
        text = json.dumps(payload)  # must not raise (numpy scalars coerced)
        parsed = json.loads(text)
        assert parsed["experiment"] == "resilience"
        assert parsed["p"] == 64 and parsed["n"] == 16
        assert len(parsed["fault_rows"]) == 2
        assert len(parsed["checkpoint_rows"]) == 2
        assert set(parsed["young"]) == {"cannon", "gk"}

    def test_cli_fast_path_smoke(self, tmp_path):
        from repro.experiments.__main__ import run_one

        out = tmp_path / "resilience.json"
        text = run_one("resilience", fast=True, json_out=str(out))
        assert "drop rate" in text.lower()
        payload = json.loads(out.read_text())
        assert payload["experiment"] == "resilience"

    def test_default_machine_is_cm5(self, report):
        assert report.machine.ts == CM5.ts and report.machine.tw == CM5.tw


class TestSchedulerThreading:
    def test_default_report_records_no_scheduler(self, report):
        assert report.scheduler is None
        assert json.loads(json.dumps(resilience.to_json(report)))["scheduler"] is None

    def test_u_curves_are_bit_identical_across_schedulers(self, report):
        # the fault regime's bit-identity contract, pinned end to end:
        # the default report (fault-active runs on the event-heap core)
        # must reproduce the reference (rescan) report number for number
        rescan = resilience.run(
            p=64, n=16,
            drop_rates=(0.0, 0.05),
            interval_factors=(0.5, 1.0),
            crash_rate=1.0,
            scheduler="rescan",
        )
        assert rescan.scheduler == "rescan"
        assert rescan.fault_rows == report.fault_rows
        assert rescan.checkpoint_rows == report.checkpoint_rows
        assert rescan.baseline == report.baseline
        assert rescan.best == report.best and rescan.young == report.young

    def test_cli_threads_scheduler(self, tmp_path):
        from repro.experiments.__main__ import run_one

        out = tmp_path / "resilience.json"
        run_one("resilience", fast=True, json_out=str(out), scheduler="heap")
        assert json.loads(out.read_text())["scheduler"] == "heap"

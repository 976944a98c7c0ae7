"""Tests for the top-level command-line interface."""

import re

import pytest

from repro.cli import build_parser, main


class TestRun:
    def test_run_cannon(self, capsys):
        assert main(["run", "cannon", "-n", "16", "-p", "16"]) == 0
        out = capsys.readouterr().out
        assert "numerically correct : True" in out.replace("  ", " ").replace(
            "numerically correct        :", "numerically correct :"
        ) or "True" in out
        assert "T_p" in out

    def test_run_gk(self, capsys):
        assert main(["run", "gk", "-n", "16", "-p", "8"]) == 0
        assert "GK" in capsys.readouterr().out

    def test_run_infeasible_instance(self):
        with pytest.raises(SystemExit):
            main(["run", "cannon", "-n", "4", "-p", "64"])

    def test_run_unknown_algorithm(self):
        with pytest.raises(SystemExit):
            main(["run", "strassen", "-n", "16", "-p", "16"])

    def test_machine_overrides(self, capsys):
        assert main(["run", "cannon", "-n", "16", "-p", "16", "--ts", "0", "--tw", "0"]) == 0
        out = capsys.readouterr().out
        assert "efficiency" in out


class TestSelect:
    def test_select(self, capsys):
        assert main(["select", "-n", "96", "-p", "64"]) == 0
        out = capsys.readouterr().out
        assert "best algorithm" in out and "ranking" in out

    def test_select_feasible(self, capsys):
        assert main(["select", "-n", "100", "-p", "64", "--feasible"]) == 0
        assert "best algorithm" in capsys.readouterr().out

    def test_unknown_machine(self):
        with pytest.raises(SystemExit):
            main(["select", "-n", "64", "-p", "16", "--machine", "cray"])


class TestInfoCommands:
    def test_machines(self, capsys):
        assert main(["machines"]) == 0
        out = capsys.readouterr().out
        assert "cm5" in out and "ncube2-like" in out

    def test_regions(self, capsys):
        assert main(["regions", "--log2-p-max", "10", "--log2-n-max", "6"]) == 0
        assert "n=2^" in capsys.readouterr().out

    def test_regions_refine_matches_dense(self, capsys):
        assert main(["regions", "--no-disk-cache"]) == 0
        dense = capsys.readouterr().out
        assert main(["regions", "--no-disk-cache", "--refine"]) == 0
        assert capsys.readouterr().out == dense

    def test_regions_refine_tol_and_depth_flags(self, capsys):
        assert main(
            ["regions", "--log2-p-max", "10", "--log2-n-max", "6",
             "--refine", "--max-depth", "2", "--tol", "0.5", "--no-disk-cache"]
        ) == 0
        assert "n=2^" in capsys.readouterr().out

    def test_cache_stats_reports_warm_hit(self, capsys, tmp_path):
        import json

        from repro.core.cache import result_cache

        cache_dir = str(tmp_path / "shards")
        argv = ["regions", "--log2-p-max", "10", "--log2-n-max", "6",
                "--cache-dir", cache_dir, "--cache-stats"]
        assert main(argv) == 0
        capsys.readouterr()
        result_cache().clear()  # simulate a fresh process: disk tier only
        assert main(argv) == 0
        out = capsys.readouterr().out
        stats = json.loads(out.rsplit("cache stats:", 1)[1])
        assert stats["disk"]["hits"] > 0
        assert stats["disk"]["dir"] == cache_dir

    def test_iso(self, capsys):
        assert main(["iso", "cannon", "--log2-p-max", "8"]) == 0
        out = capsys.readouterr().out
        assert "isoefficiency of cannon" in out and "O(p^1.5)" in out

    def test_iso_dns_cap(self, capsys):
        assert main(["iso", "dns", "-e", "0.5"]) == 0
        assert "unreachable" in capsys.readouterr().out

    def test_memory(self, capsys):
        assert main(["memory", "-n", "32", "-p", "64"]) == 0
        out = capsys.readouterr().out
        assert "cannon" in out and "blowup" in out

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestSweepCommand:
    def test_sweep_table(self, capsys):
        assert main(["sweep", "cannon", "--n-values", "16", "--p-values", "4", "16"]) == 0
        out = capsys.readouterr().out
        assert "T_sim" in out and "cannon" in out

    def test_sweep_csv_to_file(self, capsys, tmp_path):
        out_file = tmp_path / "rows.csv"
        assert main([
            "sweep", "gk", "--n-values", "8", "--p-values", "8",
            "--format", "csv", "--out", str(out_file),
        ]) == 0
        assert "wrote" in capsys.readouterr().out
        assert out_file.read_text().startswith("algorithm,")

    def test_sweep_json(self, capsys):
        assert main(["sweep", "cannon", "--n-values", "8", "--p-values", "4",
                     "--format", "json"]) == 0
        import json

        rows = json.loads(capsys.readouterr().out)
        assert rows[0]["algorithm"] == "cannon"


class TestGanttCommand:
    def test_gantt(self, capsys):
        assert main(["gantt", "cannon", "-n", "16", "-p", "4", "--width", "40"]) == 0
        out = capsys.readouterr().out
        assert "rank    0" in out and "#" in out

    def test_gantt_infeasible(self):
        with pytest.raises(SystemExit):
            main(["gantt", "cannon", "-n", "2", "-p", "64"])


class TestCampaignCommand:
    def test_autopilot_smoke_writes_db_and_report(self, capsys, tmp_path):
        db = str(tmp_path / "camp")
        assert main([
            "campaign", "autopilot", "--seed", "5", "--count", "3",
            "--profile", "smoke", "--db", db,
        ]) == 0
        out = capsys.readouterr().out
        assert "anomaly report" in out
        for suffix in (".jsonl", ".sqlite", ".report.json"):
            assert (tmp_path / f"camp{suffix}").exists()

    def test_report_rerender_matches_run_output(self, capsys, tmp_path):
        import json

        db = str(tmp_path / "camp")
        assert main(["campaign", "autopilot", "--seed", "5", "--count", "2",
                     "--profile", "smoke", "--db", db]) == 0
        capsys.readouterr()
        json_out = tmp_path / "again.json"
        assert main(["campaign", "report", "--db", db,
                     "--json-out", str(json_out)]) == 0
        assert "scenarios" in capsys.readouterr().out
        assert json.loads(json_out.read_text())["kind"] == "campaign-report"

    def test_fail_on_anomaly_gates_with_planted_violation(self, tmp_path):
        # tightening the model tolerance to 1e-12 makes every fault-free
        # scenario an oracle violation, so the CI gate must trip (seed 3's
        # six-scenario smoke battery includes fault-free scenarios)
        with pytest.raises(SystemExit, match="fail-on-anomaly"):
            main(["campaign", "autopilot", "--seed", "3", "--count", "6",
                  "--profile", "smoke", "--db", str(tmp_path / "camp"),
                  "--model-tol", "1e-12", "--fail-on-anomaly"])

    def test_run_subcommand_reads_scenario_file(self, capsys, tmp_path):
        import json

        from repro.campaign.autopilot import PROFILES, generate_battery

        battery = generate_battery(7, 2, PROFILES["smoke"])
        path = tmp_path / "battery.json"
        path.write_text(json.dumps([s.to_dict() for s in battery]))
        assert main(["campaign", "run", "--scenarios", str(path),
                     "--db", str(tmp_path / "filecamp")]) == 0
        assert "2 of 2 scenarios executed" in capsys.readouterr().out


class TestSchedulerChoices:
    """Both CLIs enumerate schedulers from engine.SCHEDULERS, not a
    hard-coded list — adding a scheduler must surface everywhere at once."""

    def test_run_parser_choices_match_engine(self):
        from repro.simulator.engine import SCHEDULERS

        parser = build_parser()
        run_sub = next(
            a for a in parser._subparsers._group_actions[0].choices["run"]._actions
            if getattr(a, "dest", "") == "scheduler"
        )
        assert tuple(run_sub.choices) == SCHEDULERS

    def test_experiments_parser_choices_match_engine(self):
        import subprocess
        import sys

        from repro.simulator.engine import SCHEDULERS

        proc = subprocess.run(
            [sys.executable, "-m", "repro.experiments", "--help"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        for name in SCHEDULERS:
            assert name in proc.stdout

    def test_run_compiled_scheduler_verifies(self, capsys):
        assert main(["run", "cannon", "-n", "16", "-p", "16",
                     "--scheduler", "compiled"]) == 0
        out = capsys.readouterr().out
        assert re.search(r"numerically correct\s*:?\s*True", out)
        assert re.search(r"scheduler\s*:?\s*compiled", out)

    def test_run_names_the_heap_fallback(self, capsys):
        assert main(["run", "fox", "-n", "16", "-p", "16"]) == 0
        out = capsys.readouterr().out
        assert re.search(r"numerically correct\s*:?\s*True", out)
        assert "heap (fallback: " in out

    @pytest.mark.parametrize("name", ["warp", "ready"])
    def test_run_rejects_unknown_scheduler(self, name, capsys):
        with pytest.raises(SystemExit):
            main(["run", "cannon", "-n", "16", "-p", "16",
                  "--scheduler", name])
        assert "'rescan', 'heap', 'compiled'" in capsys.readouterr().err

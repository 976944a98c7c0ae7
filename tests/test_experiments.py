"""Tests for the experiment harness (paper regeneration drivers)."""

import json

import numpy as np
import pytest

from repro.experiments import (
    allport,
    figures45,
    figures123,
    section6,
    table1,
    technology,
    validation,
)
from repro.experiments.report import format_kv, format_table


class TestReportHelpers:
    def test_format_table_basic(self):
        text = format_table([{"a": 1, "b": 2.5}, {"a": 10, "b": float("inf")}])
        assert "a" in text and "10" in text and "inf" in text

    def test_format_table_empty(self):
        assert format_table([]) == "(no rows)"

    def test_format_kv(self):
        text = format_kv("Title", {"key": 3.14159, "other": "x"})
        assert text.startswith("Title")
        assert "key" in text


class TestTable1:
    def test_all_rows_match_paper(self):
        rows = table1.run()
        assert len(rows) == 5
        assert all(r["matches"] for r in rows), rows

    def test_format(self):
        text = table1.format_text(table1.run())
        assert "berntsen" in text and "O(p^2)" in text


class TestFigures123:
    @pytest.mark.parametrize("fig", ["fig1", "fig2", "fig3"])
    def test_runs_and_formats(self, fig):
        res = figures123.run(fig, log2_p_max=20, log2_n_max=12, p_step=2, n_step=2)
        text = figures123.format_text(res)
        assert fig in text
        assert abs(sum(res.region_fractions().values()) - 1.0) < 1e-9

    def test_fig2_has_all_regions(self):
        res = figures123.run("fig2", log2_p_max=30, log2_n_max=16, p_step=2, n_step=2)
        assert {"gk", "berntsen", "cannon", "dns"} <= res.map.winners()

    def test_unknown_figure(self):
        with pytest.raises(ValueError):
            figures123.run("fig9")


class TestFigures45:
    def test_fig4_small(self):
        res = figures45.run_fig4(sizes=(16, 48, 96, 144))
        # GK wins at small n, Cannon at large n; crossover between 48 and 144
        assert res.rows[0]["E_gk_sim"] > res.rows[0]["E_cannon_sim"]
        assert res.rows[-1]["E_cannon_sim"] > res.rows[-1]["E_gk_sim"]
        assert res.crossover_sim is not None and 48 < res.crossover_sim < 144
        # model prediction reproduces the paper's n = 83
        assert res.crossover_model == pytest.approx(83, abs=3)

    def test_fig5_small(self):
        res = figures45.run_fig5(sizes=(88, 264, 352))
        assert res.crossover_sim is not None and 88 < res.crossover_sim < 352
        assert res.crossover_model == pytest.approx(295, abs=12)
        # even partitions on both sides: every run was trace-compiled
        assert all(r["gk_compiled"] and r["cannon_compiled"] for r in res.rows)

    def test_verification_catches_corruption(self):
        # the driver verifies every product; a sanity check that it runs
        res = figures45.run_fig4(sizes=(16,))
        assert len(res.rows) == 1

    def test_format(self):
        res = figures45.run_fig4(sizes=(16, 96))
        text = figures45.format_text(res)
        assert "crossover" in text and "paper predicted: 83" in text


class TestSection6:
    def test_all_claims_agree(self):
        rows = section6.run()
        assert all(r["agrees"] for r in rows), [r for r in rows if not r["agrees"]]

    def test_format(self):
        assert "Section 6" in section6.format_text(section6.run())


class TestAllportExperiment:
    def test_allport_no_asymptotic_gain(self):
        rows = allport.run()
        # GK: all-port effective isoefficiency has the same order as one-port
        # (the ratio stays bounded instead of shrinking to zero)
        gk = [r["ratio_allport_over_one_port"] for r in rows if r["algorithm"] == "gk"]
        assert gk and min(gk[-3:]) > 1e-3
        assert max(gk) / min(gk) < 100
        # simple: the message-size bound makes all-port strictly worse at scale
        simple = [r for r in rows if r["algorithm"] == "simple"]
        ratios = [r["ratio_allport_over_one_port"] for r in simple]
        assert ratios == sorted(ratios)  # grows with p
        assert ratios[-1] > 1.0

    def test_format(self):
        assert "Section 7" in allport.format_text(allport.run())


class TestTechnologyExperiment:
    def test_growth_claims(self):
        res = technology.run()
        growth = {r["claim"]: r for r in res["growth"]}
        c31 = growth["Cannon, 10x processors -> problem x31.6"]
        assert c31["measured"] == pytest.approx(31.6, rel=0.01)
        c1000 = growth["Cannon, 10x faster CPUs (small ts) -> problem x~1000"]
        assert 900 < c1000["measured"] < 1001

    def test_fleet_winner_flips(self):
        res = technology.run()
        winners = {r["winner"] for r in res["fleets"]}
        assert winners == {"many-slow", "few-fast"}

    def test_format(self):
        assert "Section 8" in technology.format_text(technology.run())


class TestValidationExperiment:
    def test_all_numerically_correct(self):
        rows = validation.run()
        assert all(r["numerically_correct"] for r in rows)

    def test_exact_rows_have_zero_error(self):
        rows = validation.run()
        for r in rows:
            if "(exact)" in r["algorithm"]:
                assert r["rel_err"] < 1e-12

    def test_model_rows_within_band(self):
        rows = validation.run()
        for r in rows:
            if "(exact)" not in r["algorithm"]:
                assert r["rel_err"] < 0.45


class TestCLI:
    def test_main_runs_table1(self, capsys, tmp_path):
        from repro.experiments.__main__ import main

        out = tmp_path / "t.txt"
        assert main(["table1", "--out", str(out)]) == 0
        assert "Table 1" in out.read_text()

    def test_main_fig4_fast(self, capsys, tmp_path):
        from repro.experiments.__main__ import main

        out = tmp_path / "fig4.json"
        assert main(["fig4", "--fast", "--json-out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "crossover" in text and "compiled" not in text
        data = json.loads(out.read_text())
        assert (data["figure"], data["p_gk"], data["p_cannon"]) == ("fig4", 64, 64)
        assert [r["n"] for r in data["rows"]] == [16, 48, 96, 144]
        assert all(r["gk_compiled"] and r["cannon_compiled"] for r in data["rows"])

    def test_unknown_experiment_rejected(self):
        from repro.experiments.__main__ import main

        with pytest.raises(SystemExit):
            main(["fig9"])

    @pytest.mark.parametrize(
        "argv,named",
        [
            (["--p-values", "16", "65535"], "--p-values: 65535 is not a positive perfect square"),
            (["--p-values", "0"], "--p-values: 0 is not a positive perfect square"),
            (["--p-values", "-4"], "--p-values: -4 is not a positive perfect square"),
            (["--p-values", "16", "9"], "--p-values: 9 is a 3 x 3 grid"),
            (["--n0", "0"], "--n0: must be at least 1, got 0"),
        ],
    )
    def test_scaling_large_rejects_bad_sizes_before_running(self, argv, named, capsys, monkeypatch):
        from repro.experiments import scaling
        from repro.experiments.__main__ import main

        monkeypatch.setattr(scaling, "run_large_p", lambda **kw: pytest.fail("ran"))
        with pytest.raises(SystemExit) as exc:
            main(["scaling-large", "--no-disk-cache", *argv])
        assert exc.value.code == 2
        assert named in capsys.readouterr().err

    def test_refine_matches_dense_figure(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["fig2", "--fast"]) == 0
        dense_out = capsys.readouterr().out
        assert main(["fig2", "--fast", "--refine", "--no-disk-cache"]) == 0
        refined_out = capsys.readouterr().out
        assert refined_out == dense_out

    def test_cache_stats_reports_warm_hit(self, capsys, tmp_path):
        import json

        from repro.experiments.__main__ import main

        cache_dir = str(tmp_path / "shards")
        assert main(["fig1", "--fast", "--cache-dir", cache_dir, "--cache-stats"]) == 0
        cold = capsys.readouterr().out
        assert "cache stats:" in cold
        # second process-equivalent run: clear the memory tier, keep the disk
        from repro.core.cache import result_cache

        result_cache().clear()
        assert main(["fig1", "--fast", "--cache-dir", cache_dir, "--cache-stats"]) == 0
        warm = capsys.readouterr().out
        stats = json.loads(warm.rsplit("cache stats:", 1)[1])
        assert stats["disk"]["hits"] > 0
        assert warm.rsplit("cache stats:", 1)[0] == cold.rsplit("cache stats:", 1)[0]

    def test_no_disk_cache_flag(self, capsys, tmp_path):
        import json

        from repro.experiments.__main__ import main

        assert main(["fig1", "--fast", "--no-disk-cache", "--cache-stats"]) == 0
        stats = json.loads(capsys.readouterr().out.rsplit("cache stats:", 1)[1])
        assert stats["disk"] is None

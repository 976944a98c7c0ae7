"""Tests for the scaling experiment (Section 3's premises in simulation)."""

import json

import pytest

from repro.experiments import scaling


class TestSpeedupCurve:
    def test_efficiency_decays_with_p(self):
        rows = scaling.speedup_curve("cannon", 48, p_values=(1, 4, 16, 64, 256))
        effs = [r["efficiency_sim"] for r in rows]
        assert effs == sorted(effs, reverse=True)
        assert effs[0] == pytest.approx(1.0)
        assert effs[-1] < 0.5

    def test_speedup_grows_but_sublinearly(self):
        rows = scaling.speedup_curve("cannon", 48, p_values=(4, 16, 64))
        sp = {r["p"]: r["speedup_sim"] for r in rows}
        assert sp[16] > sp[4] and sp[64] > sp[16]
        assert sp[64] / sp[16] < 4  # sublinear growth

    def test_infeasible_p_skipped(self):
        rows = scaling.speedup_curve("cannon", 48, p_values=(4, 5, 16))
        assert [r["p"] for r in rows] == [4, 16]

    def test_sim_tracks_model(self):
        rows = scaling.speedup_curve("gk", 48, p_values=(8, 64))
        for r in rows:
            assert r["efficiency_sim"] == pytest.approx(r["efficiency_model"], rel=0.25)


class TestIsoefficiencyInSimulation:
    @pytest.mark.parametrize("key,p_values", [("cannon", (4, 16, 64)), ("gk", (8, 64, 512))])
    def test_efficiency_holds_along_curve(self, key, p_values):
        rows = scaling.isoefficiency_in_simulation(key, 0.5, p_values=p_values)
        for r in rows:
            # held within a band of the target (rounding to feasible sizes and
            # uneven-block load imbalance move individual points slightly)
            assert abs(r["efficiency_sim"] - 0.5) < 0.15, r

    def test_problem_size_grows(self):
        rows = scaling.isoefficiency_in_simulation("cannon", 0.5, p_values=(4, 16, 64))
        ws = [r["W"] for r in rows]
        assert ws == sorted(ws)
        # superlinear growth in p (Cannon's isoefficiency is p^1.5)
        assert ws[-1] / ws[0] > (64 / 4)

    def test_run_and_format(self):
        res = scaling.run()
        text = scaling.format_text(res)
        assert "isoefficiency" in text
        assert "fixed problem size" in text


class TestScaledSpeedup:
    def test_efficiency_flat_under_memory_constrained_scaling(self):
        """n = n0*sqrt(p) keeps Cannon's overhead-to-work ratio constant."""
        rows = scaling.scaled_speedup("cannon", n0=8, p_values=(16, 64, 256))
        effs = [r["efficiency_sim"] for r in rows]
        assert max(effs) - min(effs) < 0.05
        for r in rows:
            assert r["efficiency_sim"] == pytest.approx(r["efficiency_model"], rel=0.1)

    def test_scaled_speedup_grows_linearly_with_p(self):
        rows = scaling.scaled_speedup("cannon", n0=8, p_values=(16, 64, 256))
        sp = {r["p"]: r["scaled_speedup_sim"] for r in rows}
        # E flat => S_scaled = E*p scales like p (within the E drift band)
        assert sp[64] / sp[16] == pytest.approx(4.0, rel=0.1)
        assert sp[256] / sp[64] == pytest.approx(4.0, rel=0.1)

    def test_non_square_p_rejected(self):
        with pytest.raises(ValueError):
            scaling.scaled_speedup("cannon", p_values=(8,))

    def test_run_large_p_and_format(self):
        res = scaling.run_large_p(p_values=(16, 64), n0=4)
        text = scaling.format_large_p_text(res)
        assert "scaled speedup" in text
        assert "cannon" in text

    def test_rows_say_whether_the_run_compiled(self):
        rows = scaling.scaled_speedup(
            "cannon", n0=2, p_values=(16,), verify=False, scheduler="compiled"
        )
        assert rows[0]["compiled"] is True
        assert rows[0]["compile_fallback"] is None
        # Fox's rooted broadcasts are position-dependent: heap fallback
        fox = scaling.scaled_speedup(
            "fox", n0=2, p_values=(16,), verify=False, scheduler="compiled"
        )
        assert fox[0]["compiled"] is False
        assert fox[0]["compile_fallback"]
        text = scaling.format_large_p_text({"scaled_cannon": rows + fox})
        assert "compiled" in text.splitlines()[5]
        assert text.count("trace compilation fell back to heap") == 1
        assert fox[0]["compile_fallback"] in text

    def test_scaling_large_json_out(self, tmp_path):
        from repro.experiments.__main__ import run_one

        out = tmp_path / "scale.json"
        run_one("scaling-large", p_values=(16,), n0=2, verify=False, json_out=str(out))
        (row,) = json.loads(out.read_text())["scaled_cannon"]
        assert row["p"] == 16
        assert row["compiled"] is True

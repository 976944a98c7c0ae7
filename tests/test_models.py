"""Tests for the analytic execution-time models (Equations 2-7, 18, Table 1)."""

import math

import pytest

from repro.core.allport import ALLPORT_MODELS
from repro.core.machine import CM5, MachineParams
from repro.core.models import COMPARISON_MODELS, MODELS, log2

M = MachineParams(ts=10.0, tw=2.0)
ALL_MODELS = {**MODELS, **ALLPORT_MODELS}


class TestLog2:
    def test_values(self):
        assert log2(8) == 3.0
        assert log2(1) == 0.0
        assert log2(0.5) == 0.0


class TestHandComputedPoints:
    """Each equation evaluated at a point small enough to check by hand."""

    def test_eq2_simple(self):
        # n=16, p=16: 4096/16 + 2*10*4 + 2*2*256/4 = 256 + 80 + 256
        assert MODELS["simple"].time(16, 16, M) == pytest.approx(256 + 80 + 256)

    def test_eq3_cannon(self):
        # n=16, p=16: 256 + 2*10*4 + 2*2*256/4 = 256 + 80 + 256
        assert MODELS["cannon"].time(16, 16, M) == pytest.approx(256 + 80 + 256)

    def test_eq4_fox(self):
        # n=16, p=16: 256 + 2*2*256/4 + 10*16
        assert MODELS["fox"].time(16, 16, M) == pytest.approx(256 + 256 + 160)

    def test_eq5_berntsen(self):
        # n=16, p=8: 512 + 2*10*2 + 10*3/3 + 3*2*256/4 = 512 + 40 + 10 + 384
        assert MODELS["berntsen"].time(16, 8, M) == pytest.approx(512 + 40 + 10 + 384)

    def test_eq6_dns(self):
        # n=4, p=32: r = 2: 2 + 12*(5*1 + 2*2) = 2 + 108
        assert MODELS["dns"].time(4, 32, M) == pytest.approx(2 + 12 * 9)

    def test_eq7_gk(self):
        # n=16, p=8: 512 + (5/3)*3*(10 + 2*256/4) = 512 + 5*(10 + 128)
        assert MODELS["gk"].time(16, 8, M) == pytest.approx(512 + 5 * 138)

    def test_541_gk_improved(self):
        # n=16, p=8 (n^2/p^(2/3) = 64, packet term (16/2)*sqrt(10*2*3/3)):
        # 512 + broadcast (4*2*64 + (4/3)*10*3 + 8*8*sqrt(20))
        #     + gather (2*64 + (1/3)*10*3 + 2*8*sqrt(20))
        expected = 512 + (512 + 40) + (128 + 10) + 80 * math.sqrt(20)
        assert MODELS["gk-improved"].time(16, 8, M) == pytest.approx(expected)

    def test_eq18_gk_cm5(self):
        # n=16, p=8: 512 + (3+2)*(ts + tw*64)
        assert MODELS["gk-cm5"].time(16, 8, M) == pytest.approx(512 + 5 * (10 + 128))

    def test_eq16_simple_allport(self):
        from repro.core.allport import ALLPORT_MODELS

        # n=16, p=16: 256 + 2*2*256/(4*4) + 0.5*10*4
        assert ALLPORT_MODELS["simple-allport"].time(16, 16, M) == pytest.approx(
            256 + 64 + 20
        )

    def test_eq17_gk_allport(self):
        from repro.core.allport import ALLPORT_MODELS

        # n=16, p=8: 512 + 10*3 + 9*2*256/(4*3) + 6*(16/2)*sqrt(20)
        expected = 512 + 30 + 384 + 48 * math.sqrt(20)
        assert ALLPORT_MODELS["gk-allport"].time(16, 8, M) == pytest.approx(expected)


class TestOverheadConsistency:
    @pytest.mark.parametrize("key", list(MODELS))
    def test_overhead_terms_sum(self, key):
        model = MODELS[key]
        n, p = 64.0, 64.0
        assert model.overhead(n, p, M) == pytest.approx(
            sum(model.overhead_terms(n, p, M).values())
        )

    @pytest.mark.parametrize("p", [1.0, 1.5, 64.0, 2.0**20])
    @pytest.mark.parametrize("key", sorted(ALL_MODELS))
    def test_overhead_is_p_time_minus_work(self, key, p):
        # To = p*Tp - n^3 at every p, including p = 1, where a model
        # that communicates nothing must report no overhead either
        model = ALL_MODELS[key]
        n = 64.0
        assert model.overhead(n, p, M) == pytest.approx(
            p * model.time(n, p, M) - n**3, rel=1e-12
        )

    def test_dns_overhead_identity(self):
        model = MODELS["dns"]
        n, p = 8.0, 128.0
        assert model.overhead(n, p, M) == pytest.approx(p * model.time(n, p, M) - n**3)


class TestDerivedMetrics:
    def test_speedup_efficiency_relation(self):
        model = MODELS["cannon"]
        n, p = 128, 64
        s = model.speedup(n, p, M)
        assert model.efficiency(n, p, M) == pytest.approx(s / p)
        assert 0 < model.efficiency(n, p, M) < 1

    def test_efficiency_monotone_in_n(self):
        model = MODELS["gk"]
        effs = [model.efficiency(n, 64, M) for n in (16, 32, 64, 128, 256)]
        assert effs == sorted(effs)

    def test_efficiency_decreases_with_p_fixed_n(self):
        model = MODELS["cannon"]
        effs = [model.efficiency(64, p, M) for p in (4, 16, 64, 256)]
        assert effs == sorted(effs, reverse=True)

    def test_validation(self):
        with pytest.raises(ValueError):
            MODELS["cannon"].time(0, 4, M)
        with pytest.raises(ValueError):
            MODELS["cannon"].time(4, -1, M)


class TestApplicability:
    def test_cannon_range(self):
        m = MODELS["cannon"]
        assert m.applicable(10, 100)
        assert not m.applicable(10, 101)
        assert m.applicable(10, 1)

    def test_berntsen_range(self):
        m = MODELS["berntsen"]
        assert m.applicable(4, 8)
        assert not m.applicable(4, 9)  # n^1.5 = 8

    def test_dns_range(self):
        m = MODELS["dns"]
        assert not m.applicable(10, 99)
        assert m.applicable(10, 100)
        assert m.applicable(10, 1000)
        assert not m.applicable(10, 1001)

    def test_gk_range(self):
        m = MODELS["gk"]
        assert m.applicable(10, 1)
        assert m.applicable(10, 1000)
        assert not m.applicable(10, 1001)


class TestDNSCeiling:
    def test_max_efficiency_formula(self):
        assert MODELS["dns"].max_efficiency(M) == pytest.approx(1 / (1 + 2 * 12))

    def test_efficiency_approaches_cap(self):
        # as n grows with p = n^2*2, efficiency tends to the cap from below
        m = MachineParams(ts=0.1, tw=0.1)
        cap = MODELS["dns"].max_efficiency(m)
        effs = [MODELS["dns"].efficiency(n, 2 * n * n, m) for n in (8, 32, 128, 512)]
        assert effs == sorted(effs)
        assert effs[-1] < cap
        assert effs[-1] > 0.9 * cap

    def test_others_cap_at_one(self):
        for key in ("simple", "cannon", "fox", "berntsen", "gk"):
            assert MODELS[key].max_efficiency(M) == 1.0


class TestImprovedGK:
    def test_improved_beats_naive_for_large_messages(self):
        m = MODELS["gk-improved"]
        naive = MODELS["gk"]
        n, p = 4096, 512
        assert m.packet_feasible(n, p, M)
        assert m.comm_time(n, p, M) < naive.comm_time(n, p, M)

    def test_packet_bound(self):
        m = MODELS["gk-improved"]
        assert not m.packet_feasible(8, 512, MachineParams(ts=1000.0, tw=1.0))
        assert m.packet_feasible(8, 512, MachineParams(ts=0.0, tw=1.0))

    def test_granularity_floor(self):
        m = MODELS["gk-improved"]
        floor = m.concurrency_isoefficiency(2**20, M)
        assert floor == pytest.approx((10 / 2) ** 1.5 * 2**20 * 20**1.5)


class TestComparisonSet:
    def test_keys(self):
        assert set(COMPARISON_MODELS) == {"berntsen", "cannon", "gk", "dns"}
        for k in COMPARISON_MODELS:
            assert k in MODELS

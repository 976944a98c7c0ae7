"""Unit tests for repro.core.machine."""

import math

import pytest

from repro.core.machine import (
    CM5,
    FUTURE_MIMD,
    IDEAL,
    NCUBE2_LIKE,
    PRESETS,
    SIMD_CM2_LIKE,
    MachineParams,
)


class TestValidation:
    def test_negative_costs_rejected(self):
        with pytest.raises(ValueError):
            MachineParams(ts=-1.0, tw=1.0)
        with pytest.raises(ValueError):
            MachineParams(ts=1.0, tw=-1.0)

    def test_bad_routing_rejected(self):
        with pytest.raises(ValueError):
            MachineParams(ts=1.0, tw=1.0, routing="wormhole")

    def test_bad_unit_time(self):
        with pytest.raises(ValueError):
            MachineParams(ts=1.0, tw=1.0, unit_time=0.0)

    @pytest.mark.parametrize("field", ["ts", "tw", "th"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_costs_rejected(self, field, bad):
        with pytest.raises(ValueError, match=rf"^{field} \(message .*\) must be finite"):
            MachineParams(**{"ts": 1.0, "tw": 1.0, field: bad})

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_unit_time_rejected(self, bad):
        with pytest.raises(ValueError, match="unit_time must be positive, finite"):
            MachineParams(ts=1.0, tw=1.0, unit_time=bad)

    def test_with_rejects_non_finite(self):
        with pytest.raises(ValueError, match="tw .* must be finite"):
            NCUBE2_LIKE.with_(tw=math.inf)


class TestTransferTime:
    def test_cut_through_default(self):
        m = MachineParams(ts=10.0, tw=2.0)
        assert m.transfer_time(5) == 10 + 2 * 5

    def test_cut_through_hops_free_when_th_zero(self):
        m = MachineParams(ts=10.0, tw=2.0)
        assert m.transfer_time(5, hops=7) == m.transfer_time(5, hops=1)

    def test_cut_through_with_per_hop(self):
        m = MachineParams(ts=10.0, tw=2.0, th=1.0)
        assert m.transfer_time(5, hops=3) == 10 + 10 + 3

    def test_store_and_forward_scales_with_hops(self):
        m = MachineParams(ts=10.0, tw=2.0, routing="sf")
        assert m.transfer_time(5, hops=3) == 10 + 2 * 5 * 3

    def test_zero_hops_clamped_to_one(self):
        m = MachineParams(ts=10.0, tw=2.0, th=1.0)
        assert m.transfer_time(5, hops=0) == 10 + 10 + 1

    def test_negative_words_rejected(self):
        with pytest.raises(ValueError):
            MachineParams(ts=1.0, tw=1.0).transfer_time(-1)

    def test_sender_busy_time(self):
        m = MachineParams(ts=10.0, tw=2.0)
        assert m.sender_busy_time(4) == 18


class TestPresets:
    def test_paper_figures_params(self):
        assert (NCUBE2_LIKE.ts, NCUBE2_LIKE.tw) == (150.0, 3.0)
        assert (FUTURE_MIMD.ts, FUTURE_MIMD.tw) == (10.0, 3.0)
        assert (SIMD_CM2_LIKE.ts, SIMD_CM2_LIKE.tw) == (0.5, 3.0)

    def test_cm5_normalization(self):
        # Section 9: 1.53 us per basic op, 380 us startup, 1.8 us/word
        assert CM5.ts == pytest.approx(380 / 1.53)
        assert CM5.tw == pytest.approx(1.8 / 1.53)
        assert CM5.unit_time == pytest.approx(1.53e-6)

    def test_ideal_is_free(self):
        assert IDEAL.transfer_time(1000, hops=10) == 0.0

    def test_presets_registry(self):
        assert set(PRESETS) == {"ncube2-like", "future-mimd", "simd-cm2-like", "cm5", "ideal"}


class TestHelpers:
    def test_with_(self):
        m = NCUBE2_LIKE.with_(ts=1.0)
        assert m.ts == 1.0 and m.tw == NCUBE2_LIKE.tw
        assert NCUBE2_LIKE.ts == 150.0  # original untouched

    def test_to_seconds(self):
        assert CM5.to_seconds(2.0) == pytest.approx(3.06e-6)

    def test_ts_over_tw(self):
        assert MachineParams(ts=30.0, tw=3.0).ts_over_tw == 10.0
        assert MachineParams(ts=1.0, tw=0.0).ts_over_tw == float("inf")
        assert MachineParams(ts=0.0, tw=0.0).ts_over_tw == 0.0

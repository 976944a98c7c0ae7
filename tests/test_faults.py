"""Tests for deterministic fault injection and recovery modeling.

The load-bearing property is at the top: a zero-rate :class:`FaultPlan`
is *exactly* free.  Every engine hook returns its input unchanged when
nothing fires, so ``fault_plan=FaultPlan()`` must be bit-identical —
clocks, per-rank stats, return values — to running with no plan at all,
on arbitrary fuzzed schedules, under both generator schedulers, and
against the compiled paper drivers (which a plan sends to the heap
scheduler).  The rest pins the fault semantics themselves:
crash/rollback accounting, drop/retransmit charging, checkpoint cadence,
and same-seed replay.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.machine import CM5, MachineParams
from repro.simulator import (
    Checkpoint,
    Compute,
    DeadlockError,
    FaultPlan,
    FullyConnected,
    RankCrashError,
    Recv,
    Send,
    UnrecoverableFaultError,
    retransmit_backoff_delay,
    run_spmd,
)
from repro.simulator.engine import Engine

from test_engine_fuzz import _build_schedule, _factory_for

M = MachineParams(ts=10.0, tw=2.0)


def _single(*requests):
    """Factories for a run where rank 0 issues *requests* and rank 1 idles."""

    def rank0(info):
        def body():
            for req in requests:
                yield req

        return body()

    def rank1(info):
        def body():
            return None
            yield

        return body()

    return [rank0, rank1]


# -- plan validation ----------------------------------------------------------------


@pytest.mark.parametrize(
    ("kwargs", "fragment"),
    [
        ({"drop_rate": 1.5}, "probability"),
        ({"straggler_rate": -0.1}, "probability"),
        ({"crash_rate": -1.0}, "crash_rate"),
        ({"crash_rate": 0.5}, "horizon"),
        ({"horizon": -1.0}, "horizon"),
        ({"crash_times": ((0, 5.0),), "horizon": 1.0}, "beyond horizon"),
        ({"crash_times": ((0, -2.0),), "horizon": 10.0}, "must be > 0"),
        ({"crash_times": (("x", 2.0),), "horizon": 10.0}, "non-negative ints"),
        ({"straggler_factor": 0.5}, "straggler_factor"),
        ({"degrade_factor": 0.0}, "degrade_factor"),
        ({"drop_rate": 0.1}, "timeout"),
        ({"drop_rate": 0.1, "timeout": -1.0}, "timeout"),
        ({"backoff": 0.5}, "backoff"),
        ({"max_retries": -1}, "max_retries"),
        ({"checkpoint_interval": 0.0}, "checkpoint_interval"),
        ({"checkpoint_cost": -1.0}, "checkpoint_cost"),
        ({"recovery_cost": -1.0}, "recovery_cost"),
        # non-finite values: every numeric field must reject nan/inf at
        # construction rather than poisoning a schedule downstream
        ({"drop_rate": float("nan")}, "probability"),
        ({"straggler_rate": float("inf")}, "probability"),
        ({"crash_rate": float("nan")}, "crash_rate"),
        ({"horizon": float("inf")}, "horizon"),
        ({"straggler_factor": float("nan")}, "straggler_factor"),
        ({"degrade_factor": float("inf")}, "degrade_factor"),
        ({"drop_rate": 0.1, "timeout": float("inf")}, "timeout"),
        ({"backoff": float("nan")}, "backoff"),
        ({"checkpoint_interval": float("inf")}, "checkpoint_interval"),
        ({"checkpoint_cost": float("nan")}, "checkpoint_cost"),
        ({"recovery_cost": float("inf")}, "recovery_cost"),
        ({"crash_times": ((0, float("nan")),), "horizon": 10.0}, "must be > 0"),
        # wrong types and shapes
        ({"seed": 1.0}, "seed"),
        ({"seed": True}, "seed"),
        ({"max_retries": True}, "max_retries"),
        ({"max_retries": 2.0}, "max_retries"),
        ({"crash_times": ((0,), ), "horizon": 10.0}, r"\(rank, time\) pairs"),
        ({"crash_times": ((0, 5.0, 1.0),), "horizon": 10.0}, r"\(rank, time\) pairs"),
        ({"crash_times": ([0, 5.0],), "horizon": 10.0}, r"\(rank, time\) pairs"),
        ({"crash_times": ((True, 5.0),), "horizon": 10.0}, "non-negative ints"),
    ],
)
def test_plan_validation(kwargs, fragment):
    with pytest.raises(ValueError, match=fragment):
        FaultPlan(**kwargs)


def test_compile_rejects_out_of_range_rank():
    plan = FaultPlan(horizon=10.0, crash_times=((4, 5.0),), checkpoint_interval=100.0)
    with pytest.raises(ValueError, match="only 2 ranks"):
        plan.compile(2)


def test_is_null():
    assert FaultPlan().is_null
    assert FaultPlan(seed=7, timeout=5.0).is_null  # knobs without rates stay null
    assert not FaultPlan(drop_rate=0.1, timeout=1.0).is_null
    assert not FaultPlan(checkpoint_interval=10.0).is_null


# -- zero-rate exactness (the bit-identity contract) --------------------------------


def _result_fingerprint(res):
    return (
        res.parallel_time,
        res.stats,
        res.returns,
        res.total_messages,
        res.total_words,
        res.retransmits,
        res.faults_injected,
        res.checkpoint_time,
        res.recovery_time,
    )


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    p=st.sampled_from([2, 4, 8]),
    nops=st.integers(min_value=1, max_value=50),
    ts=st.floats(min_value=0.0, max_value=100.0),
    barriers=st.booleans(),
    scheduler=st.sampled_from(["heap", "rescan"]),
)
def test_null_plan_is_bit_identical_fuzz(seed, p, nops, ts, barriers, scheduler):
    """fault_plan=FaultPlan() must not move a single bit of any clock.

    Heap and rescan charge every request through the same helpers, with
    or without a plan, so this pins that the fault-hook call sites in
    those helpers are inert under a plan whose rates are all zero.
    """
    rng = np.random.default_rng(seed)
    ops = _build_schedule(rng, p, nops, barriers=barriers)
    machine = MachineParams(ts=ts, tw=1.7, th=0.3)
    plain = Engine(FullyConnected(p), machine, scheduler=scheduler).run(_factory_for(ops))
    faulted = Engine(
        FullyConnected(p), machine, scheduler=scheduler, fault_plan=FaultPlan()
    ).run(_factory_for(ops))
    assert _result_fingerprint(plain) == _result_fingerprint(faulted)


def test_null_plan_matches_the_compiled_run_on_cm5_configs():
    """The Fig 4/5 CM-5 drivers compile; with a null plan they run on heap
    and must agree exactly."""
    from repro.algorithms.cannon import run_cannon
    from repro.algorithms.gk import run_gk_cm5

    rng = np.random.default_rng(0)
    n, p = 16, 64
    A, B = rng.standard_normal((n, n)), rng.standard_normal((n, n))
    for run in (run_cannon, run_gk_cm5):
        plain = run(A, B, p, CM5)
        faulted = run(A, B, p, CM5, fault_plan=FaultPlan())
        assert plain.sim.compiled and not faulted.sim.compiled
        assert plain.parallel_time == faulted.parallel_time
        assert plain.sim.stats == faulted.sim.stats
        np.testing.assert_array_equal(plain.C, faulted.C)
        assert faulted.sim.faults_injected == 0


def test_same_seed_same_faults():
    plan = FaultPlan(seed=3, drop_rate=0.4, timeout=5.0, straggler_rate=0.5,
                     straggler_factor=2.0)
    rng = np.random.default_rng(1)
    ops = _build_schedule(rng, 4, 30)
    r1 = run_spmd(FullyConnected(4), M, _factory_for(ops), fault_plan=plan)
    r2 = run_spmd(FullyConnected(4), M, _factory_for(ops), fault_plan=plan)
    assert _result_fingerprint(r1) == _result_fingerprint(r2)


# -- stragglers and degraded links --------------------------------------------------


def test_straggler_scales_compute():
    base = run_spmd(FullyConnected(2), M, _single(Compute(100.0)))
    slow = run_spmd(
        FullyConnected(2), M, _single(Compute(100.0)),
        fault_plan=FaultPlan(straggler_rate=1.0, straggler_factor=3.0),
    )
    assert slow.parallel_time == 3.0 * base.parallel_time


def test_degraded_link_scales_transfers():
    def rank1(info):
        def body():
            yield Recv(src=0)

        return body()

    factories = [_single(Send(dst=1, data=None, nwords=50))[0], rank1]
    base = run_spmd(FullyConnected(2), M, factories)
    degraded = run_spmd(
        FullyConnected(2), M, factories,
        fault_plan=FaultPlan(degrade_rate=1.0, degrade_factor=4.0),
    )
    assert degraded.parallel_time > base.parallel_time
    assert degraded.faults_injected == 0  # a slow link is a factor, not an event


# -- drops and retransmission -------------------------------------------------------


def _pair_message(nwords=20):
    def rank0(info):
        def body():
            yield Send(dst=1, data="payload", nwords=nwords)

        return body()

    def rank1(info):
        def body():
            got = yield Recv(src=0)
            return got

        return body()

    return [rank0, rank1]


def test_drops_charge_retransmits():
    # seed chosen so the single message suffers at least one drop
    plan = FaultPlan(seed=2, drop_rate=0.7, timeout=5.0)
    drops = plan.drops_for(0, 1, 0, 0)
    assert drops >= 1
    base = run_spmd(FullyConnected(2), M, _pair_message())
    res = run_spmd(FullyConnected(2), M, _pair_message(), fault_plan=plan)
    assert res.retransmits == drops
    assert res.faults_injected == drops
    busy = M.sender_busy_time(20)
    expected_delay = drops * busy + retransmit_backoff_delay(5.0, 2.0, drops)
    assert res.parallel_time == pytest.approx(base.parallel_time + expected_delay)
    assert res.returns[1] == "payload"  # the payload still arrives intact


def test_drops_for_is_pure():
    plan = FaultPlan(seed=9, drop_rate=0.5, timeout=1.0)
    draws = [plan.drops_for(3, 4, 7, s) for s in range(20)]
    assert draws == [plan.drops_for(3, 4, 7, s) for s in range(20)]
    assert any(draws)  # at rate 0.5, twenty messages include a drop


def test_unrecoverable_link_raises():
    plan = FaultPlan(drop_rate=1.0, timeout=1.0, max_retries=3)
    with pytest.raises(UnrecoverableFaultError, match="max_retries=3"):
        run_spmd(FullyConnected(2), M, _pair_message(), fault_plan=plan)


def test_retransmit_backoff_delay_accumulates():
    assert retransmit_backoff_delay(10.0, 2.0, 3) == 70.0  # 10 + 20 + 40
    assert retransmit_backoff_delay(10.0, 1.0, 4) == 40.0
    assert retransmit_backoff_delay(10.0, 2.0, 0) == 0.0


# -- crashes, checkpoints, recovery -------------------------------------------------


def test_crash_without_checkpoint_is_fatal():
    plan = FaultPlan(horizon=200.0, crash_times=((0, 150.0),))
    with pytest.raises(RankCrashError, match="rank 0"):
        run_spmd(FullyConnected(2), M, _single(Compute(200.0)), fault_plan=plan)


def test_crash_rolls_back_to_last_checkpoint():
    plan = FaultPlan(
        horizon=200.0, crash_times=((0, 150.0),),
        checkpoint_interval=1000.0, recovery_cost=20.0,
    )
    res = run_spmd(FullyConnected(2), M, _single(Compute(200.0)), fault_plan=plan)
    # crash at t=150 loses all work since the free t=0 checkpoint:
    # penalty = 20 recovery + 150 lost, so the rank finishes at 370
    assert res.parallel_time == 370.0
    assert res.recovery_time == 170.0
    assert res.faults_injected == 1


def test_explicit_checkpoint_rescues_crash():
    plan = FaultPlan(horizon=200.0, crash_times=((0, 150.0),), recovery_cost=20.0)
    res = run_spmd(
        FullyConnected(2), M,
        _single(Compute(100.0), Checkpoint(), Compute(100.0)),
        fault_plan=plan,
    )
    # checkpointed at t=100, so the t=150 crash loses only 50
    assert res.parallel_time == 270.0
    assert res.recovery_time == 70.0


def test_periodic_checkpoints_charged_on_local_clock():
    plan = FaultPlan(checkpoint_interval=50.0, checkpoint_cost=5.0)
    res = run_spmd(FullyConnected(2), M, _single(Compute(100.0)), fault_plan=plan)
    # boundaries at 50 and (after the first charge) 105 both land in range
    assert res.parallel_time == 110.0
    assert res.checkpoint_time == 10.0
    assert res.faults_injected == 0  # checkpoints are insurance, not faults


def test_checkpoint_request_is_free_without_plan():
    base = run_spmd(FullyConnected(2), M, _single(Compute(40.0)))
    with_req = run_spmd(
        FullyConnected(2), M, _single(Compute(40.0), Checkpoint(), Checkpoint())
    )
    assert with_req.parallel_time == base.parallel_time
    assert with_req.checkpoint_time == 0.0


def test_deadlock_report_includes_fault_history():
    def rank0(info):
        def body():
            yield Compute(100.0)
            yield Recv(src=1)  # never sent — deadlock after the crash

        return body()

    def rank1(info):
        def body():
            return None
            yield

        return body()

    plan = FaultPlan(
        horizon=100.0, crash_times=((0, 50.0),),
        checkpoint_interval=1000.0, recovery_cost=5.0,
    )
    with pytest.raises(DeadlockError, match="rank 0 crashed at t=50") as exc:
        run_spmd(FullyConnected(2), M, [rank0, rank1], fault_plan=plan)
    assert any("crashed" in line for line in exc.value.fault_history)


def test_default_result_fault_fields_are_zero():
    res = run_spmd(FullyConnected(2), M, _single(Compute(10.0)))
    assert (res.retransmits, res.faults_injected) == (0, 0)
    assert (res.checkpoint_time, res.recovery_time) == (0.0, 0.0)

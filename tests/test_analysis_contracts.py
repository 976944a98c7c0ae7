"""Architecture-contract rules: CACHE001, ENG007, SWEEP001, DRIVER001."""

from __future__ import annotations

import textwrap
from pathlib import Path

import pytest

from repro.analysis import analyze_paths, analyze_source

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"


def ids(src: str, path: str, **kw) -> list[str]:
    return sorted({f.rule_id for f in analyze_source(textwrap.dedent(src), path, **kw)})


# -- CACHE001: complete machine fingerprints ----------------------------------------


def test_partial_fingerprint_in_checkpoint_header_fires():
    findings = analyze_source(
        textwrap.dedent(
            """
            def _checkpoint_header(machine, seed):
                return {
                    "machine": {"ts": machine.ts, "tw": machine.tw},
                    "seed": seed,
                }
            """
        ),
        "src/repro/experiments/probe.py",
        select=["CACHE001"],
    )
    assert [f.rule_id for f in findings] == ["CACHE001"]
    # the finding names every dropped field
    for missing in ("th", "routing", "all_port", "unit_time"):
        assert missing in findings[0].message


def test_partial_fingerprint_passed_to_key_for_fires():
    assert ids(
        """
        def shard(machine, n):
            return key_for({"ts": machine.ts, "tw": machine.tw, "n": n})
        """,
        "src/repro/core/probe.py",
        select=["CACHE001"],
    ) == ["CACHE001"]


def test_complete_fingerprint_is_clean():
    assert ids(
        """
        def _checkpoint_header(machine, seed):
            return {
                "machine": {
                    "ts": machine.ts, "tw": machine.tw, "th": machine.th,
                    "routing": machine.routing, "all_port": machine.all_port,
                    "unit_time": machine.unit_time, "name": machine.name,
                },
                "seed": seed,
            }
        """,
        "src/repro/experiments/probe.py",
        select=["CACHE001"],
    ) == []


def test_display_dicts_outside_keyish_functions_are_clean():
    # a partial dict built for human-readable output must not fire
    assert ids(
        """
        def summarize(machine):
            return {"ts": machine.ts, "tw": machine.tw}
        """,
        "src/repro/experiments/probe.py",
        select=["CACHE001"],
    ) == []


# -- ENG007: heap-insertion discipline, repo-wide -----------------------------------


def test_heappush_outside_schedule_fires_anywhere():
    assert ids(
        """
        from heapq import heappush
        def enqueue(heap, event):
            heappush(heap, event)
        """,
        "src/repro/experiments/probe.py",
        select=["ENG007"],
    ) == ["ENG007"]


def test_heappush_inside_schedule_helper_is_sanctioned():
    assert ids(
        """
        from heapq import heappush
        class Engine:
            def _schedule(self, when, priority, rank):
                heappush(self._event_heap, (when, priority, 0, rank))
        """,
        "src/repro/experiments/probe.py",
        select=["ENG007"],
    ) == []


def test_heappush_outside_schedule_fires_in_the_engine():
    assert ids(
        """
        from heapq import heappush

        def _run_heap(self, when, rank):
            heappush(self._event_heap, (when, 0, 0, rank))
        """,
        "src/repro/simulator/engine.py",
        select=["ENG007"],
    ) == ["ENG007"]


def test_heappush_inside_the_engine_schedule_is_sanctioned():
    assert ids(
        """
        from heapq import heappush

        def _schedule(self, when, priority, rank):
            self._event_seq = seq = self._event_seq + 1
            heappush(self._event_heap, (when, priority, seq, rank))
        """,
        "src/repro/simulator/engine.py",
        select=["ENG007"],
    ) == []


@pytest.mark.parametrize("call", ["heapq.heapreplace(h, e)", "heapq.heappushpop(h, e)"])
def test_heap_replace_variants_fire(call):
    assert ids(
        f"""
        import heapq
        def enqueue(h, e):
            {call}
        """,
        "src/repro/core/probe.py",
        select=["ENG007"],
    ) == ["ENG007"]


# -- SWEEP001: worker global capture ------------------------------------------------


def test_worker_reading_runtime_mutated_global_fires():
    findings = analyze_source(
        textwrap.dedent(
            """
            _config = {}

            def tune(key, value):
                _config[key] = value

            def worker(n):
                return n * _config.get("scale", 1)

            def run(pool, sizes):
                return [pool.submit(worker, n) for n in sizes]
            """
        ),
        "src/repro/experiments/probe.py",
        select=["SWEEP001"],
    )
    assert [f.rule_id for f in findings] == ["SWEEP001"]
    assert "_config" in findings[0].message
    assert findings[0].severity == "warn"


def test_import_time_constant_registry_is_clean():
    # a registry built once at import time is fine to read in a worker
    assert ids(
        """
        TABLE = {"a": 1, "b": 2}

        def worker(n):
            return TABLE["a"] * n

        def run(pool, sizes):
            return [pool.submit(worker, n) for n in sizes]
        """,
        "src/repro/experiments/probe.py",
        select=["SWEEP001"],
    ) == []


def test_mutated_global_not_read_by_worker_is_clean():
    assert ids(
        """
        _log = []

        def note(msg):
            _log.append(msg)

        def worker(n):
            return n * n

        def run(pool, sizes):
            return [pool.submit(worker, n) for n in sizes]
        """,
        "src/repro/experiments/probe.py",
        select=["SWEEP001"],
    ) == []


# -- DRIVER001: scheduler/fault_plan threading --------------------------------------


def test_driver_missing_fault_plan_fires_twice():
    findings = analyze_source(
        textwrap.dedent(
            """
            def run_newalg(A, B, p, machine, *, trace=False, scheduler=None):
                return Engine(None, machine, trace=trace, scheduler=scheduler).run([])
            """
        ),
        "src/repro/algorithms/probe.py",
        select=["DRIVER001"],
    )
    # once for the signature, once for the Engine(...) call
    assert [f.rule_id for f in findings] == ["DRIVER001", "DRIVER001"]


def test_fully_threaded_driver_is_clean():
    assert ids(
        """
        def run_newalg(A, B, p, machine, *, trace=False, scheduler=None, fault_plan=None):
            return Engine(
                None, machine, trace=trace, scheduler=scheduler, fault_plan=fault_plan
            ).run([])
        """,
        "src/repro/algorithms/probe.py",
        select=["DRIVER001"],
    ) == []


def test_driver_rule_scoped_to_algorithms_package():
    assert ids(
        """
        def run_report(A):
            return Engine(None, None).run([])
        """,
        "src/repro/experiments/probe.py",
        select=["DRIVER001"],
    ) == []


# -- the real tree honours every contract -------------------------------------------


def test_contract_rules_clean_on_real_tree():
    report = analyze_paths(
        [SRC], select=["CACHE001", "ENG007", "SWEEP001", "DRIVER001"]
    )
    assert report.findings == [], "\n".join(f.format() for f in report.findings)


def test_every_registered_driver_threads_both_keywords():
    """Runtime cross-check of what DRIVER001 asserts statically."""
    import inspect

    from repro.algorithms import registry

    for key, entry in registry.REGISTRY.items():
        params = inspect.signature(entry.run).parameters
        has_var_kw = any(
            p.kind is inspect.Parameter.VAR_KEYWORD for p in params.values()
        )
        for required in ("scheduler", "fault_plan"):
            assert required in params or has_var_kw, f"{key} driver lacks {required}="

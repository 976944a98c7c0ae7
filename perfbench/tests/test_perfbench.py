"""The benchmark's own tests (tiny sizes).

Run from the root of the repository::

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import run as bench_run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _bench(workload: str, trace: int, env: dict[str, str] | None = None) -> tuple[dict, str]:
    done = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=170, env=env, cwd=ROOT,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1]), done.stdout


def test_declared_names_agree() -> None:
    names = [w["name"] for w in SPEC["workloads"]]
    assert names == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == bench_run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == [
        (name, unit, better) for name, unit, better, _moves, _on in tracing.LAYER_METRICS
    ]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_tiny_run_emits_declared_metrics(workload: str, trace: int) -> None:
    result, text = _bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert "error_rate: 0 fraction" in text
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def _env_with_sitecustomize(tmp_path, body: str) -> dict[str, str]:
    (tmp_path / "sitecustomize.py").write_text(textwrap.dedent(body))
    return dict(os.environ, PYTHONPATH=str(tmp_path))


def test_wrong_served_answer_raises_error_rate(tmp_path) -> None:
    # the server (and only the server) answers with perturbed times
    env = _env_with_sitecustomize(
        tmp_path,
        """
        import repro.serve.app as app

        _predict = app.ReproServer._predict

        async def wrong(self, body):
            status, payload = await _predict(self, body)
            for record in payload["predictions"]:
                if record["predicted_time"]:
                    record["predicted_time"] *= 1.0 + 1e-9
            return status, payload

        app.ReproServer._predict = wrong
        """,
    )
    result, text = _bench("serve-closed", 0, env)
    assert not result["correct"] and result["failed"] > 0
    assert "point differs from predict_points" in text


def test_wrong_model_answer_raises_error_rate(tmp_path) -> None:
    env = _env_with_sitecustomize(
        tmp_path,
        """
        import repro.core.regions as regions

        _winner_grid = regions.winner_grid

        def wrong(*args, **kwargs):
            winners = _winner_grid(*args, **kwargs).copy()
            winners[0, 0] = (winners[0, 0] + 1) % 4
            return winners

        regions.winner_grid = wrong
        """,
    )
    result, text = _bench("model-maps", 0, env)
    assert not result["correct"] and result["failed"] > 0
    assert "winners differ" in text


def test_heap_fallback_before_probing_fails_the_run(tmp_path) -> None:
    # the engine gives a reason to skip the compiled scheduler: the
    # 64k run must not fall back to heap silently
    env = _env_with_sitecustomize(
        tmp_path,
        """
        from repro.simulator.engine import Engine

        Engine._compiled_blocker = lambda self: "injected blocker"
        """,
    )
    result, text = _bench("scale-64k", 0, env)
    assert not result["correct"] and result["failed"] > 0
    assert "injected blocker" in text


def test_tracing_leaves_outputs_unchanged() -> None:
    script = textwrap.dedent(
        """
        import json, sys
        from repro.core.cache import configure_disk_cache
        import tracing, workloads

        configure_disk_cache(enabled=False)
        kinds = (workloads.PaperFigs, workloads.Scale64k, workloads.ModelMaps)
        plain = [kind.capture(True) for kind in kinds]
        recorder = tracing.Recorder()
        tracing.install(recorder)
        traced = [kind.capture(True) for kind in kinds]
        assert recorder.spans, "nothing was traced"
        print(json.dumps(plain == traced))
        """
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([BENCH, os.path.join(ROOT, "src")]))
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=170, env=env
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "true"


def test_layer_metrics_self_time() -> None:
    # driver 0..10 with a nested engine span 2..7: 5 of self time
    dump = {
        "spans": [
            ["algorithms.driver", 1, 0, 10_000_000_000, -1, None],
            ["simulator.engine", 1, 2_000_000_000, 7_000_000_000, 0,
             {"messages": 3, "words": 12, "compiled": True}],
        ],
        "counts": {"simulator.collectives": 4},
    }
    values = tracing.layer_metrics(dump)
    assert values["algorithms.driver_self_s"] == pytest.approx(5.0)
    assert values["simulator.engine.s"] == pytest.approx(5.0)
    assert values["simulator.engine.messages"] == 3
    assert values["simulator.compile.engaged_frac"] == 1.0
    assert values["simulator.collectives.calls"] == 4


def test_speed_scale_uses_the_samples_around_an_interval() -> None:
    nominal = speed.NOMINAL_S
    track = speed.SpeedTrack.load([[0.0, 0.004], [1.0, 0.016], [2.0, 0.001], [3.0, 0.020]])
    # geometric means of the samples just before, inside and just after
    assert track.scale(0.5, 0.8) == pytest.approx(nominal / 0.008)
    assert track.scale(0.5, 1.5) == pytest.approx(nominal / 0.004)
    assert track.scale(-1.0, -0.5) == pytest.approx(nominal / 0.004)
    assert track.overall() == pytest.approx(nominal / 0.010)


def test_p99_takes_the_median_window() -> None:
    latencies = [1.0] * 3000
    latencies[:50] = [100.0] * 50  # a stall in the first window only
    assert bench_run._quantile(latencies, 99) == 100.0
    assert bench_run._p99(latencies) == 1.0
    assert bench_run._p99([1.0, 2.0]) == pytest.approx(1.99)


def test_importtime_parse() -> None:
    stderr = "\n".join(
        [
            "import time: self [us] | cumulative | imported package",
            "import time:      1000 |       1000 |   numpy.core",
            "import time:      2000 |       3000 | numpy",
            "import time:       500 |        500 |     scipy.optimize",
            "import time:       250 |        250 | repro.core",
            "import time:       100 |        100 | json",
        ]
    )
    assert tracing.parse_importtime(stderr) == {
        "import.total_s": 0.00385,
        "import.scipy_s": 0.0005,
        "import.numpy_s": 0.003,
        "import.repro_self_s": 0.00025,
    }

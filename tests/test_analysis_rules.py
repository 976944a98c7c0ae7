"""Per-rule tests for the domain static analysis.

Each rule gets at least one minimal known-bad snippet (must be flagged)
and one known-good snippet (must pass), exercised through the public
:func:`repro.analysis.analyze_source` entry point so path scoping and
suppression behave exactly as in the CLI.
"""

from __future__ import annotations

import textwrap

import pytest

from repro.analysis import RULES, analyze_source

#: paths that put a snippet inside each rule's scope
SIM_PATH = "src/repro/simulator/engine.py"
CORE_PATH = "src/repro/core/models.py"
REQ_PATH = "src/repro/simulator/request.py"
ANY_PATH = "src/repro/experiments/sweep.py"


def findings(code: str, path: str = ANY_PATH, **kw) -> list:
    return analyze_source(textwrap.dedent(code), path, **kw)


def rule_ids(code: str, path: str = ANY_PATH, **kw) -> set[str]:
    return {f.rule_id for f in findings(code, path, **kw)}


def test_rule_catalogue_is_complete():
    assert set(RULES) == {
        "DET001", "DET002", "DET003", "DET004",
        "DET010", "DET011", "DET012",
        "MOD002", "MOD003",
        "DIM001", "DIM002",
        "ENG001", "ENG002", "ENG003", "ENG004", "ENG005", "ENG006", "ENG007",
        "ENG008",
        "CACHE001", "SWEEP001", "DRIVER001",
        "SRV001",
    }
    for rule in RULES.values():
        assert rule.name and rule.description
        assert rule.severity in ("error", "warn", "info")


# -- DET001: unseeded / global RNG -------------------------------------------------


@pytest.mark.parametrize(
    "snippet",
    [
        "import random\nx = random.random()",
        "import random\nrandom.seed(42)",
        "import random\nrng = random.Random()",
        "import random\nrng = random.SystemRandom()",
        "import numpy as np\nrng = np.random.default_rng()",
        "import numpy as np\nnp.random.seed(0)",
        "import numpy as np\nx = np.random.standard_normal(4)",
        "from numpy.random import default_rng\nrng = default_rng()",
    ],
)
def test_det001_flags(snippet):
    assert "DET001" in rule_ids(snippet)


@pytest.mark.parametrize(
    "snippet",
    [
        "import random\nrng = random.Random(7)",
        "import numpy as np\nrng = np.random.default_rng(0)",
        "import numpy as np\nrng = np.random.default_rng((seed, n))",
        "from numpy.random import default_rng\nrng = default_rng(123)",
        # no import of random: attribute access on unrelated objects is fine
        "x = obj.random.random()",
    ],
)
def test_det001_passes(snippet):
    assert "DET001" not in rule_ids(snippet)


# -- DET002: wall clock in simulator/core ------------------------------------------


@pytest.mark.parametrize(
    "snippet",
    [
        "import time\nt = time.time()",
        "import time\nt = time.perf_counter()",
        "from time import monotonic\nt = monotonic()",
        "from datetime import datetime\nt = datetime.now()",
    ],
)
def test_det002_flags_in_simulator(snippet):
    assert "DET002" in rule_ids(snippet, path=SIM_PATH)
    assert "DET002" in rule_ids(snippet, path=CORE_PATH)


def test_det002_scoped_to_simulator_and_core():
    code = "import time\nt = time.time()"
    # benchmarks and experiments may read the host clock
    assert "DET002" not in rule_ids(code, path="benchmarks/perf_guard.py")
    assert "DET002" not in rule_ids(code, path="src/repro/experiments/report.py")


def test_det002_passes_on_logical_clocks():
    code = "def step(st, cost):\n    st.clock += cost\n"
    assert "DET002" not in rule_ids(code, path=SIM_PATH)


# -- DET003: set iteration ----------------------------------------------------------


@pytest.mark.parametrize(
    "snippet",
    [
        "def f(xs):\n    s = set(xs)\n    for x in s:\n        print(x)",
        "def f(xs):\n    for x in {1, 2, 3}:\n        print(x)",
        "def f(xs):\n    return [x for x in set(xs)]",
        "def f(xs):\n    s = frozenset(xs)\n    return {x: 1 for x in s}",
        "def f(xs):\n    s = set(xs)\n    return s.pop()",
        "pending = set()\nfor r in pending:\n    pass",
    ],
)
def test_det003_flags(snippet):
    assert "DET003" in rule_ids(snippet)


@pytest.mark.parametrize(
    "snippet",
    [
        "def f(xs):\n    s = set(xs)\n    for x in sorted(s):\n        print(x)",
        "def f(xs):\n    for x in list(xs):\n        print(x)",
        "def f(xs):\n    s = set(xs)\n    return len(s)",
        # list.pop() is positional, not arbitrary
        "def f(xs):\n    s = list(xs)\n    return s.pop()",
        # a set local in one function must not taint another scope's name
        "def f(xs):\n    s = set(xs)\n    return s\n\ndef g(s):\n    for x in s:\n        print(x)",
    ],
)
def test_det003_passes(snippet):
    assert "DET003" not in rule_ids(snippet)


def test_det003_does_not_double_report_nested_functions():
    code = textwrap.dedent(
        """
        def outer(xs):
            def inner():
                for x in set(xs):
                    pass
            return inner
        """
    )
    flagged = [f for f in analyze_source(code, ANY_PATH) if f.rule_id == "DET003"]
    assert len(flagged) == 1


# -- DET004: shared mutable dataclass defaults --------------------------------------


@pytest.mark.parametrize(
    "snippet",
    [
        """
        from dataclasses import dataclass, field
        @dataclass
        class R:
            xs: list = field(default=list())
        """,
        """
        from dataclasses import dataclass
        SHARED = []
        @dataclass
        class R:
            xs: list = SHARED
        """,
        """
        from collections import deque
        from dataclasses import dataclass
        @dataclass
        class R:
            q: deque = deque()
        """,
    ],
)
def test_det004_flags(snippet):
    assert "DET004" in rule_ids(snippet)


@pytest.mark.parametrize(
    "snippet",
    [
        """
        from dataclasses import dataclass, field
        @dataclass
        class R:
            xs: list = field(default_factory=list)
            n: int = 0
            name: str = ""
        """,
        """
        from dataclasses import dataclass
        @dataclass
        class R:
            tag: tuple = ()
        """,
    ],
)
def test_det004_passes(snippet):
    assert "DET004" not in rule_ids(snippet)


# -- MOD002: overhead term unit vocabulary ------------------------------------------


def test_mod002_flags_unknown_key():
    code = """
    class M(AlgorithmModel):
        def overhead_terms(self, n, p, machine):
            return {"latency": machine.ts * p}
    """
    assert "MOD002" in rule_ids(code, path=CORE_PATH)


def test_mod002_flags_undecomposed_total():
    # no base-class fallback remains: every model splits T_o by unit
    code = """
    class M(AlgorithmModel):
        def overhead_terms(self, n, p, machine):
            return {"total": machine.ts * p}
    """
    assert "MOD002" in rule_ids(code, path=CORE_PATH)


def test_mod002_flags_dimension_mismatch():
    # a ts-typed term that actually scales with tw
    code = """
    class M(AlgorithmModel):
        def overhead_terms(self, n, p, machine):
            return {"ts": machine.tw * n**2 * p}
    """
    msgs = [f.message for f in findings(code, path=CORE_PATH) if f.rule_id == "MOD002"]
    assert msgs and any("tw" in m for m in msgs)


def test_mod002_flags_missing_dimension_through_alias():
    code = """
    class M(AlgorithmModel):
        def overhead_terms(self, n, p, machine):
            c = machine.ts
            return {"ts_tw_total": 2 * c * p}
    """
    assert "MOD002" in rule_ids(code, path=CORE_PATH)


def test_mod002_flags_computed_keys_and_nonliteral_returns():
    code = """
    class M(AlgorithmModel):
        def overhead_terms(self, n, p, machine):
            return dict(ts=machine.ts * p)
    """
    assert "MOD002" in rule_ids(code, path=CORE_PATH)


def test_mod002_passes_vocabulary_and_aliases():
    code = """
    class M(AlgorithmModel):
        def overhead_terms(self, n, p, machine):
            c = machine.ts + machine.tw
            lg = log2(p)
            return {
                "ts": 2 * machine.ts * p * lg,
                "tw_roll": 2 * machine.tw * n**2 * p**0.5,
                "ts_tw_relay": 5 * c * p,
                "sqrt": n * (machine.ts * machine.tw * lg) ** 0.5,
            }
    """
    assert "MOD002" not in rule_ids(code, path=CORE_PATH)


# -- MOD003: applicability stays derived --------------------------------------------


def test_mod003_flags_applicable_override():
    code = """
    class M(AlgorithmModel):
        def applicable(self, n, p):
            return True
    """
    ids = [f for f in findings(code, path=CORE_PATH) if f.rule_id == "MOD003"]
    assert len(ids) == 1


def test_mod003_passes_bounds_overrides():
    code = """
    class M(AlgorithmModel):
        def min_procs(self, n):
            return n**2
        def max_procs(self, n):
            return n**3
    """
    assert "MOD003" not in rule_ids(code, path=CORE_PATH)


# -- ENG001: request dataclasses are slotted ----------------------------------------


def test_eng001_flags_unslotted_request():
    code = """
    from dataclasses import dataclass
    @dataclass
    class Probe:
        cost: float
    """
    assert "ENG001" in rule_ids(code, path=REQ_PATH)


def test_eng001_passes_slots_true_and_scope():
    code = """
    from dataclasses import dataclass
    @dataclass(slots=True)
    class Probe:
        cost: float
    """
    assert "ENG001" not in rule_ids(code, path=REQ_PATH)
    # outside request.py the rule does not apply
    unslotted = """
    from dataclasses import dataclass
    @dataclass
    class Row:
        n: int
    """
    assert "ENG001" not in rule_ids(unslotted, path=ANY_PATH)


# -- ENG002: trace objects built only by the trace layer ----------------------------


def test_eng002_flags_fabricated_trace_events():
    code = """
    from repro.simulator.trace import TraceEvent
    def fake(rank):
        return TraceEvent(rank, 0.0, 1.0, "compute")
    """
    assert "ENG002" in rule_ids(code, path="src/repro/experiments/report.py")


def test_eng002_allows_engine_and_trace_py():
    code = """
    from repro.simulator.trace import TraceEvent
    e = TraceEvent(0, 0.0, 1.0, "compute")
    """
    assert "ENG002" not in rule_ids(code, path="src/repro/simulator/engine.py")
    assert "ENG002" not in rule_ids(code, path="src/repro/simulator/trace.py")


# -- ENG003: no float == on clocks --------------------------------------------------


@pytest.mark.parametrize(
    "snippet",
    [
        "def f(st, arrival):\n    return st.clock == arrival",
        "def f(a, b):\n    return a.finish_time != b.finish_time",
        "def f(res):\n    return res.parallel_time == 0.0",
    ],
)
def test_eng003_flags(snippet):
    assert "ENG003" in rule_ids(snippet, path=SIM_PATH)


@pytest.mark.parametrize(
    "snippet",
    [
        "def f(st, arrival):\n    return arrival > st.clock",
        "def f(n, total):\n    return n == total",  # counters are fine
        "def f(kind):\n    return kind == 'compute'",
    ],
)
def test_eng003_passes(snippet):
    assert "ENG003" not in rule_ids(snippet, path=SIM_PATH)


def test_eng003_scoped_to_simulator():
    code = "def f(a, b):\n    return a.clock == b.clock"
    assert "ENG003" not in rule_ids(code, path=CORE_PATH)


# -- ENG004: message sizes flow through words_of ------------------------------------

COLLECTIVES_PATH = "src/repro/simulator/collectives.py"
JHO_PATH = "src/repro/simulator/jho.py"


@pytest.mark.parametrize(
    "snippet",
    [
        "def f(dst, data):\n    yield Send(dst=dst, data=data, nwords=data.size)",
        "def f(dst, data):\n    yield Send(dst=dst, data=data, nwords=data.nbytes // 8)",
        "def f(dst, flat, k, s):\n"
        "    packet = flat[k * s : (k + 1) * s]\n"
        "    yield Send(dst=dst, data=packet, nwords=packet.size, tag=1)",
        "def f(group, data):\n"
        "    yield CollectiveOp(kind='bcast', group=group, data=data, nwords=data.size)",
    ],
)
def test_eng004_flags(snippet):
    assert "ENG004" in rule_ids(snippet, path=COLLECTIVES_PATH)
    assert "ENG004" in rule_ids(snippet, path=JHO_PATH)


@pytest.mark.parametrize(
    "snippet",
    [
        "def f(dst, data):\n    yield Send(dst=dst, data=data, nwords=words_of(data))",
        "def f(dst, data, nwords):\n    yield Send(dst=dst, data=data, nwords=nwords)",
        "def f(dst, data, m):\n    yield Send(dst=dst, data=data, nwords=2 * m)",
        # positional nwords is not a Send keyword; other calls may use .size
        "def f(data):\n    out = np.empty(data.size)",
        "def f(dst, data):\n    yield Recv(src=dst, tag=data.size)",
    ],
)
def test_eng004_passes(snippet):
    assert "ENG004" not in rule_ids(snippet, path=COLLECTIVES_PATH)


def test_eng004_scoped_to_collective_layers():
    code = "def f(dst, data):\n    yield Send(dst=dst, data=data, nwords=data.size)"
    # rank programs and algorithm drivers may size their own point-to-point sends
    assert "ENG004" not in rule_ids(code, path=SIM_PATH)
    assert "ENG004" not in rule_ids(code, path="src/repro/algorithms/cannon.py")


# -- ENG005: simulator randomness only via faults._stream ---------------------------

FAULTS_PATH = "src/repro/simulator/faults.py"


@pytest.mark.parametrize(
    "snippet",
    [
        "import numpy as np\nrng = np.random.default_rng(42)",
        "from numpy.random import default_rng\nrng = default_rng((1, 2))",
        "import numpy as np\nrng = np.random.RandomState(0)",
        "import random\nrng = random.Random(7)",
        "import random\nx = random.random()",
    ],
)
def test_eng005_flags_rng_in_simulator(snippet):
    # even *seeded* construction is flagged inside the simulator: fault
    # randomness must come from the FaultPlan's keyed stream family
    assert "ENG005" in rule_ids(snippet, path=SIM_PATH)
    assert "ENG005" in rule_ids(snippet, path=FAULTS_PATH)


def test_eng005_allows_stream_in_faults():
    code = """\
    import numpy as np

    def _stream(*key):
        return np.random.default_rng(key)
    """
    assert "ENG005" not in rule_ids(code, path=FAULTS_PATH)
    # the same helper anywhere else in the simulator is still a violation
    assert "ENG005" in rule_ids(code, path=SIM_PATH)


def test_eng005_scoped_to_simulator():
    code = "import numpy as np\nrng = np.random.default_rng((seed, n))"
    assert "ENG005" not in rule_ids(code, path=CORE_PATH)
    assert "ENG005" not in rule_ids(code, path="src/repro/experiments/figures45.py")


# -- ENG006: event-heap hot-loop disciplines ----------------------------------------


def test_eng006_flags_unguarded_trace_event():
    code = """\
    def _run(self, r, clock, end):
        self.trace.record(TraceEvent(r, clock, end, "compute"))
    """
    assert "ENG006" in rule_ids(code, path=SIM_PATH)


def test_eng006_flags_trace_event_under_unrelated_guard():
    code = """\
    def _run(self, r, clock, end, verbose):
        if verbose:
            self.trace.record(TraceEvent(r, clock, end, "compute"))
    """
    assert "ENG006" in rule_ids(code, path=SIM_PATH)


@pytest.mark.parametrize(
    "guard",
    ["self.trace.enabled", "tracing", "tracing and cost > 0.0"],
)
def test_eng006_allows_guarded_trace_event(guard):
    code = f"""\
    def _run(self, r, clock, end, tracing, cost):
        if {guard}:
            self.trace.record(TraceEvent(r, clock, end, "compute", f"x{{cost}}"))
    """
    assert "ENG006" not in rule_ids(code, path=SIM_PATH)


def test_eng006_flags_heappush_outside_schedule():
    code = """\
    from heapq import heappush

    def _run_heap(self, when, rank):
        heappush(self._event_heap, (when, 0, 0, rank))
    """
    assert "ENG006" in rule_ids(code, path=SIM_PATH)


def test_eng006_allows_heappush_inside_schedule():
    code = """\
    from heapq import heappush

    def _schedule(self, when, priority, rank):
        self._event_seq = seq = self._event_seq + 1
        heappush(self._event_heap, (when, priority, seq, rank))
    """
    assert "ENG006" not in rule_ids(code, path=SIM_PATH)


def test_eng006_scoped_to_engine():
    # the trace layer itself and non-engine modules are out of scope
    code = "event = TraceEvent(0, 0.0, 1.0, 'compute')"
    assert "ENG006" not in rule_ids(code, path="src/repro/simulator/trace.py")
    assert "ENG006" not in rule_ids(code, path=ANY_PATH)


def test_eng006_engine_source_is_clean():
    with open("src/repro/simulator/engine.py") as fh:
        source = fh.read()
    assert "ENG006" not in {
        f.rule_id for f in analyze_source(source, SIM_PATH)
    }


# -- ENG008: compiled-path charging goes through the shared helpers -----------------

COMPILE_PATH = "src/repro/simulator/compile.py"
MACRO_PATH = "src/repro/simulator/macro.py"


@pytest.mark.parametrize("path", [COMPILE_PATH, MACRO_PATH])
@pytest.mark.parametrize(
    "snippet",
    [
        "cost = machine.ts + machine.tw * nwords",
        "start = clock + machine.th * hops",
        "t = machine.transfer_time(nwords, hops)",
        "busy = machine.sender_busy_time(nwords, hops)",
    ],
)
def test_eng008_flags_raw_charging_in_replay_modules(snippet, path):
    assert "ENG008" in rule_ids(snippet, path=path)


def test_eng008_allows_shared_helpers():
    code = """\
    from repro.simulator.charging import message_times, recv_wait_times

    def charge(machine, nwords, hops):
        return message_times(machine, nwords, hops)
    """
    assert "ENG008" not in rule_ids(code, path=COMPILE_PATH)


def test_eng008_scoped_to_replay_modules():
    # the generator schedulers and the charging module itself legitimately
    # read the raw machine constants
    code = "cost = machine.ts + machine.tw * nwords"
    assert "ENG008" not in rule_ids(code, path=SIM_PATH)
    assert "ENG008" not in rule_ids(code, path="src/repro/simulator/charging.py")
    assert "ENG008" not in rule_ids(code, path=ANY_PATH)


@pytest.mark.parametrize("path", [COMPILE_PATH, MACRO_PATH])
def test_eng008_replay_sources_are_clean(path):
    with open(path) as fh:
        source = fh.read()
    assert "ENG008" not in {f.rule_id for f in analyze_source(source, path)}


# -- suppressions and selection -----------------------------------------------------


def test_suppression_by_rule_id():
    code = "import time\nt = time.time()  # repro: ignore[DET002] -- host timing helper"
    assert findings(code, path=SIM_PATH) == []


def test_suppression_bare_ignores_all_rules():
    code = "import time\nt = time.time()  # repro: ignore"
    assert findings(code, path=SIM_PATH) == []


def test_suppression_of_wrong_rule_keeps_finding():
    code = "import time\nt = time.time()  # repro: ignore[DET001]"
    assert "DET002" in {f.rule_id for f in findings(code, path=SIM_PATH)}


def test_suppression_inside_string_literal_does_not_silence():
    code = 'import time\nt = time.time(); s = "# repro: ignore[DET002]"'
    assert "DET002" in {f.rule_id for f in findings(code, path=SIM_PATH)}


def test_select_and_ignore():
    code = "import random\nx = random.random()\npending = set()\nfor r in pending:\n    pass"
    assert rule_ids(code, select=["DET001"]) == {"DET001"}
    assert "DET001" not in rule_ids(code, ignore=["DET001"])
    with pytest.raises(ValueError):
        analyze_source(code, ANY_PATH, select=["NOPE99"])


def test_findings_carry_location_and_format():
    code = "import random\nx = random.random()"
    (f,) = findings(code, select=["DET001"])
    assert (f.line, f.rule_id) == (2, "DET001")
    assert "DET001" in f.format() and ANY_PATH in f.format()

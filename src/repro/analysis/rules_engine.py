"""Engine-hygiene rules (ENG0xx).

The simulator's hot loop is the one place in the repo where micro-level
conventions are load-bearing: request objects are constructed per
simulated message (ENG001 keeps them ``slots``), the trace layer is the
single source of timing truth (ENG002 confines its construction), and
logical clocks are accumulated floats (ENG003 bans exact equality on
them — two schedulers that agree to within rounding must not branch
differently on a ``==``), message sizes flow through one accounting
function (ENG004 bans hand-rolled ``.size`` arithmetic at ``Send`` call
sites in the collective layers), and all fault randomness comes from the
``FaultPlan`` stream family (ENG005 bans any other RNG construction in
the simulator — an ad-hoc generator would make fault schedules depend
on call order instead of the plan), and the engine's hot loops build
no ``TraceEvent`` — and therefore no label f-string — when tracing is
off (ENG006; ENG007 routes every heap insertion through
``Engine._schedule``, in every module), and the batch
replay paths charge messages only through the shared
:mod:`repro.simulator.charging` helpers (ENG008: no raw ``ts``/``tw``/
``th`` arithmetic or ``transfer_time``/``sender_busy_time`` calls in
``compile.py``/``macro.py`` — a re-derived cost expression there can
re-associate floating point and silently break the bit-identity
contract between the compiled, heap, and rescan schedulers).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.astutil import ImportMap, decorator_name, dotted_name
from repro.analysis.core import Finding, ModuleSource, Rule, register

__all__ = [
    "RequestSlotsRule",
    "TraceConstructionRule",
    "FloatClockEqualityRule",
    "WordsOfAccountingRule",
    "FaultRngStreamRule",
    "HeapDisciplineRule",
    "CompiledChargingHelpersRule",
]


@register
class RequestSlotsRule(Rule):
    """ENG001: request dataclasses must declare ``__slots__``.

    Requests are constructed on the simulator's hottest path (one per
    message); ``@dataclass(slots=True)`` keeps them dict-free and makes
    accidental attribute creation (a typo'd field in a program) an
    ``AttributeError`` instead of silent state.
    """

    rule_id = "ENG001"
    name = "request-slots"
    description = "dataclasses in simulator/request.py must pass slots=True"
    path_filter = ("request.py",)

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            for dec in node.decorator_list:
                if decorator_name(dec) != "dataclass":
                    continue
                slotted = isinstance(dec, ast.Call) and any(
                    kw.arg == "slots"
                    and isinstance(kw.value, ast.Constant)
                    and kw.value.value is True
                    for kw in dec.keywords
                )
                has_slots_attr = any(
                    isinstance(stmt, ast.Assign)
                    and any(
                        isinstance(t, ast.Name) and t.id == "__slots__"
                        for t in stmt.targets
                    )
                    for stmt in node.body
                )
                if not slotted and not has_slots_attr:
                    yield self.finding(
                        module, node,
                        f"request dataclass {node.name} must declare __slots__ "
                        "(use @dataclass(slots=True))",
                    )


@register
class TraceConstructionRule(Rule):
    """ENG002: trace-layer objects are constructed only by the trace layer.

    ``TraceEvent``/``RankStats``/``Trace`` instances found anywhere else
    are synthetic timing data — a report or experiment fabricating
    events that never went through the engine's clock accounting.
    ``engine.py`` is allowed: it owns the trace lifecycle and is the
    sole producer of real events.
    """

    rule_id = "ENG002"
    name = "trace-construction"
    description = "TraceEvent/RankStats/Trace built only in simulator/trace.py and engine.py"

    _CLASSES = ("TraceEvent", "RankStats", "Trace")
    _ALLOWED_FILES = ("trace.py", "engine.py")

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        if module.filename in self._ALLOWED_FILES:
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name is None:
                continue
            if name.split(".")[-1] in self._CLASSES:
                yield self.finding(
                    module, node,
                    f"{name}(...) constructed outside the trace layer; only "
                    "simulator/trace.py and engine.py may fabricate timing objects",
                )


@register
class FloatClockEqualityRule(Rule):
    """ENG003: no ``==``/``!=`` on simulated clocks.

    Clocks are sums of float costs; exact equality between two
    accumulations is representation-dependent.  Branching on it is how
    two semantically identical schedulers end up diverging.  Compare
    with ``<``/``>`` (event ordering) or an explicit tolerance.
    """

    rule_id = "ENG003"
    name = "float-clock-eq"
    description = "no == / != between clock-valued expressions in the simulator"
    path_filter = ("repro/simulator/",)

    _CLOCK_NAMES = ("clock", "arrival", "start", "end", "t_p", "deadline")
    _CLOCK_SUFFIXES = ("_time", "_clock", "_at")

    def _is_clock_expr(self, node: ast.expr) -> bool:
        ident: str | None = None
        if isinstance(node, ast.Name):
            ident = node.id
        elif isinstance(node, ast.Attribute):
            ident = node.attr
        if ident is None:
            return False
        ident = ident.lower()
        return ident in self._CLOCK_NAMES or ident.endswith(self._CLOCK_SUFFIXES)

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                if self._is_clock_expr(left) or self._is_clock_expr(right):
                    yield self.finding(
                        module, node,
                        "exact ==/!= on a simulated clock value; use ordering "
                        "comparisons or an explicit tolerance",
                    )


@register
class WordsOfAccountingRule(Rule):
    """ENG004: collective message sizes are derived via ``words_of``.

    The trace compiler sizes a posted collective's rounds from the same
    accounting the message-level helpers use, so both must agree on what
    counts as a "word".  ``repro.simulator.request.words_of`` is that single
    definition (arrays count elements, containers recurse, scalars are
    one word).  A ``Send(..., nwords=arr.size)`` in the collective layers
    hand-rolls the conversion at the call site — correct today for a
    plain ndarray, silently wrong the day the payload grows structure —
    so message sizes there must flow through ``words_of``.
    """

    rule_id = "ENG004"
    name = "words-of-accounting"
    description = (
        "collective layers derive Send nwords via words_of, not ad-hoc .size"
    )
    path_filter = ("repro/simulator/collectives.py", "repro/simulator/jho.py")

    _SIZE_ATTRS = ("size", "nbytes")

    def _is_adhoc_size(self, node: ast.expr) -> bool:
        """True for expressions that read ``<payload>.size`` anywhere inside."""
        for sub in ast.walk(node):
            if isinstance(sub, ast.Attribute) and sub.attr in self._SIZE_ATTRS:
                return True
        return False

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name is None or name.split(".")[-1] not in ("Send", "CollectiveOp"):
                continue
            for kw in node.keywords:
                if kw.arg != "nwords":
                    continue
                if self._is_adhoc_size(kw.value):
                    yield self.finding(
                        module, node,
                        "Send/CollectiveOp nwords computed from a raw .size "
                        "attribute; derive message sizes with words_of(data) "
                        "so both simulation paths share one accounting",
                    )


@register
class FaultRngStreamRule(Rule):
    """ENG005: all simulator randomness flows through the fault stream family.

    Fault schedules must be a pure function of the :class:`FaultPlan` —
    keyed streams built by ``faults._stream`` — never of scheduler order
    or of some other module's generator.  Any RNG constructed elsewhere
    under ``repro/simulator/`` (a ``default_rng`` in the engine, a
    ``random.Random`` in a collective) is a second source of randomness
    that would break same-seed replay, so it is flagged regardless of
    whether it is seeded.
    """

    rule_id = "ENG005"
    name = "fault-rng-stream"
    description = (
        "RNGs in repro/simulator/ are constructed only by faults._stream"
    )
    path_filter = ("repro/simulator/",)

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        imports = ImportMap(module.tree)
        sanctioned: set[int] = set()
        if module.filename == "faults.py":
            for node in ast.walk(module.tree):
                if isinstance(node, ast.FunctionDef) and node.name == "_stream":
                    sanctioned = {id(sub) for sub in ast.walk(node)}
                    break
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call) or id(node) in sanctioned:
                continue
            origin = imports.resolve(node.func)
            if origin is None:
                continue
            if origin.startswith("numpy.random.") or origin.startswith("random."):
                yield self.finding(
                    module, node,
                    f"{origin}() constructs randomness in the simulator outside "
                    "faults._stream; all fault randomness must come from the "
                    "FaultPlan's keyed stream family",
                )


@register
class HeapDisciplineRule(Rule):
    """ENG006: the engine's inner loops build no trace objects when tracing is off.

    A ``TraceEvent`` (and the f-string label built at its call site)
    costs more than the whole charge for a small message.  Heap and
    rescan charge every request through the same helpers, so one
    unguarded construction there taxes every untraced generator run,
    and it is easy to regress one call site at a time.
    Every ``TraceEvent(...)`` in ``engine.py`` must therefore sit inside
    an ``if`` guarded by the tracing flag (``self.trace.enabled`` or a
    hoisted ``tracing`` local).  The heap's other discipline, one
    insertion point, is ENG007's, in every module.
    """

    rule_id = "ENG006"
    name = "engine-heap-discipline"
    description = "engine.py builds TraceEvent only under a tracing guard"
    path_filter = ("repro/simulator/engine.py",)

    #: identifiers that mark an ``if`` test as a tracing guard
    _GUARD_IDENTS = ("enabled", "tracing")

    def _is_tracing_guard(self, test: ast.expr) -> bool:
        for sub in ast.walk(test):
            if isinstance(sub, ast.Attribute) and sub.attr in self._GUARD_IDENTS:
                return True
            if isinstance(sub, ast.Name) and sub.id in self._GUARD_IDENTS:
                return True
        return False

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        guarded: set[int] = set()
        for node in ast.walk(module.tree):
            if isinstance(node, ast.If) and self._is_tracing_guard(node.test):
                guarded.update(
                    id(sub) for stmt in node.body for sub in ast.walk(stmt)
                )
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name is None:
                continue
            if name.split(".")[-1] == "TraceEvent" and id(node) not in guarded:
                yield self.finding(
                    module, node,
                    "TraceEvent constructed without a tracing-enabled guard; "
                    "engine inner loops must not build events (or their label "
                    "strings) when tracing is disabled",
                )


@register
class CompiledChargingHelpersRule(Rule):
    """ENG008: batch replay charges messages only via the shared helpers.

    The compiled scheduler's bit-identity guarantee rests on every path
    evaluating the *same* IEEE expressions in the same order.  The cost
    formulas live in :func:`repro.simulator.charging.message_times` /
    ``recv_wait_times``; if ``compile.py`` or ``macro.py`` reads the raw
    machine constants (``.ts``/``.tw``/``.th``) or calls
    ``transfer_time``/``sender_busy_time`` directly, it has re-derived a
    cost expression that can re-associate floating point — agreeing with
    the generator schedulers to within rounding but not bitwise, which
    the divergence fuzz suite then reports as a scheduler bug.
    """

    rule_id = "ENG008"
    name = "compiled-charging-helpers"
    description = (
        "compile.py and macro.py charge time only through "
        "repro.simulator.charging (no raw ts/tw/th or transfer_time use)"
    )
    path_filter = ("repro/simulator/compile.py", "repro/simulator/macro.py")

    _PARAM_ATTRS = ("ts", "tw", "th")
    _COST_METHODS = ("transfer_time", "sender_busy_time")

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Attribute):
                continue
            if node.attr in self._PARAM_ATTRS:
                yield self.finding(
                    module, node,
                    f"raw machine parameter .{node.attr} read in a batch "
                    "replay module; charge through "
                    "repro.simulator.charging.message_times/recv_wait_times "
                    "so compiled and generator schedulers stay bit-identical",
                )
            elif node.attr in self._COST_METHODS:
                yield self.finding(
                    module, node,
                    f".{node.attr}() called in a batch replay module; the "
                    "scalar cost methods belong to the generator schedulers — "
                    "use repro.simulator.charging so the vectorized path "
                    "evaluates the identical expressions",
                )

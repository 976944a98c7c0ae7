"""Serving-layer contract rules (SRV).

The :mod:`repro.serve` package's whole reason to exist is the batched
hot path: concurrent requests coalesce into single vectorized
``predict_points`` / grid evaluations.  That property erodes one
innocent-looking line at a time — a handler that "just quickly" calls
``MODELS['gk'].time(n, p, machine)`` or ``select(n, p, machine)`` for
one request reintroduces per-request scalar model evaluation, and the
8x serving-throughput gate quietly decays.  SRV001 makes the contract
mechanical: inside ``repro/serve/`` every model evaluation must go
through the batched/cached entry points.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.astutil import ImportMap, dotted_name
from repro.analysis.core import Finding, ModuleSource, Rule, register

__all__ = ["ServeBatchedEvaluationRule"]

#: Scalar evaluation entry points banned in serve handlers, by dotted
#: import origin.  Each maps to the batched/cached replacement named in
#: the finding.
_BANNED_ORIGINS: dict[str, str] = {
    "repro.core.regions.best_algorithm": "predict_points / winner_at_points",
    "repro.core.selector.select": "predict_points (ranking comes from the scan)",
    "repro.core.selector.select_and_run": "the job queue (simulated_prediction)",
    "repro.core.prediction.predict": "predict_points",
    "repro.core.crossover.equal_overhead_n": "ServeTier.curve (cached crossover_curve)",
}

#: AlgorithmModel evaluation methods: calling any of these on a model
#: object inside a serve handler is per-request scalar evaluation.
_MODEL_METHODS = frozenset(
    {
        "time",
        "overhead",
        "comm_time",
        "compute_time",
        "speedup",
        "efficiency",
        "overhead_terms",
    }
)


def _model_receiver(node: ast.expr) -> str | None:
    """A readable label when *node* plausibly holds an AlgorithmModel.

    Matches ``MODELS[...]`` subscripts and names/attributes containing
    ``model`` (``model``, ``m.model``, ``the_model``) — the idioms the
    core layer itself uses.  ``model_keys`` variables are *lists of
    strings*, not models, and are excluded.
    """
    if isinstance(node, ast.Subscript):
        base = dotted_name(node.value)
        if base is not None and base.split(".")[-1] == "MODELS":
            return f"{base}[...]"
        return None
    label = dotted_name(node)
    if label is None:
        return None
    tail = label.split(".")[-1]
    if "model" in tail.lower() and "keys" not in tail.lower():
        return label
    return None


@register
class ServeBatchedEvaluationRule(Rule):
    """SRV001: serve-layer model evaluation goes through batched entry points.

    Inside ``repro/serve/`` the only legitimate routes to a model number
    are the batched scan (:func:`repro.core.prediction.predict_points`
    via the micro-batcher), the cached artifact builders
    (``region_map`` / ``crossover_curve`` via the serve tier), and the
    job queue (:func:`repro.core.prediction.simulated_prediction`).
    Calling a scalar entry point (``predict``, ``best_algorithm``,
    ``select``) or an ``AlgorithmModel`` evaluation method per request
    bypasses the coalescer: correctness survives (the tie rule lives in
    the shared scan), but throughput regresses from one vectorized
    evaluation per *batch* to one Python-level evaluation per *request*
    — the exact failure mode the serving perf gate exists to catch,
    caught here before a benchmark has to.
    """

    rule_id = "SRV001"
    name = "serve-batched-evaluation"
    description = (
        "serve-layer code must not evaluate models per request; use the "
        "batched/cached entry points"
    )
    severity = "error"
    path_filter = ("repro/serve/",)
    fix = (
        "Route point predictions through MicroBatcher.predict_one/_many "
        "(one vectorized predict_points per coalesced batch), region "
        "maps and crossover curves through ServeTier (cached region_map "
        "/ crossover_curve), and simulator runs through the JobQueue "
        "(simulated_prediction).  If a handler needs a quantity none of "
        "those expose, extend the batched entry point in repro.core "
        "rather than computing scalars in the handler."
    )
    example = (
        "async def handle_predict(self, body):\n"
        "    machine = machine_from_payload(body['machine'])\n"
        "    t = MODELS['gk'].time(body['n'], body['p'], machine)  # scalar, per request\n"
        "    return 200, {'predicted_time': t}\n"
    )

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        imports = ImportMap(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            origin = imports.resolve(node.func)
            if origin in _BANNED_ORIGINS:
                yield self.finding(
                    module,
                    node,
                    f"per-request scalar evaluation via {origin}(); "
                    f"use {_BANNED_ORIGINS[origin]} instead",
                )
                continue
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr in _MODEL_METHODS:
                receiver = _model_receiver(func.value)
                if receiver is not None:
                    yield self.finding(
                        module,
                        node,
                        f"model evaluation {receiver}.{func.attr}(...) in serve "
                        "code; per-request scalar calls bypass the micro-batcher "
                        "— go through predict_points / ServeTier / JobQueue",
                    )

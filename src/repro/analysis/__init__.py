"""Whole-program static analysis for the repro codebase itself.

An AST-based engine that machine-checks the invariants the reproduction
relies on: determinism of the simulator and sweep pipeline (DET0xx,
including the flow-sensitive DET010+ taint rules), scalar/grid and
symbolic-unit consistency of the analytic models (MOD0xx, DIM0xx),
hygiene of the engine hot path (ENG0xx), and the cross-layer
architecture contracts of the cache/sweep/driver stack (CACHE0xx,
SWEEP0xx, DRIVER0xx).  Run it as::

    python -m repro.analysis src/repro            # text report, exit 1 on errors
    python -m repro.analysis --format sarif src/repro
    python -m repro.analysis --baseline analysis_baseline.json src/repro
    python -m repro.analysis --explain DET010
    python -m repro.analysis --list-rules

or from Python via :func:`analyze_paths` / :func:`analyze_source`.
See ``docs/static_analysis.md`` for the program model, the rule
catalogue, the ``# repro: ignore[RULE]`` suppression syntax, and the
baseline workflow.
"""

from repro.analysis.core import (
    RULES,
    SEVERITIES,
    AnalysisReport,
    Finding,
    ModuleSource,
    Rule,
    analyze_paths,
    analyze_source,
    iter_python_files,
    load_baseline,
    register,
    write_baseline,
    _load_rule_modules,
)
from repro.analysis.program import Program
from repro.analysis.sarif import to_sarif

_load_rule_modules()  # registers the whole catalogue in RULES

__all__ = [
    "AnalysisReport",
    "Finding",
    "ModuleSource",
    "Program",
    "Rule",
    "RULES",
    "SEVERITIES",
    "analyze_paths",
    "analyze_source",
    "iter_python_files",
    "load_baseline",
    "register",
    "to_sarif",
    "write_baseline",
]

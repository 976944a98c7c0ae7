"""Symbolic dimension inference: the DIM rules and the unit algebra.

The acceptance fixtures plant deliberately *wrong* overhead terms — a
dropped ``tw`` factor, a ``ts * words`` product, a time-plus-count
addition — and assert the exact rule fires; every real model in the tree
must evaluate clean.
"""

from __future__ import annotations

import ast
import textwrap
from pathlib import Path

import pytest

from repro.analysis import analyze_source
from repro.analysis.dimensions import (
    TIME,
    ZERO,
    check_cost_function,
    format_dim,
)

CORE = "src/repro/core/probe.py"
REPO = Path(__file__).resolve().parent.parent


def model(body: str) -> str:
    indented = textwrap.indent(textwrap.dedent(body).strip(), "        ")
    return (
        "import math\n\n"
        "class M:\n"
        "    def overhead_terms(self, n, p, machine):\n"
        f"{indented}\n"
    )


def rules_fired(src: str) -> list[str]:
    return sorted(
        {f.rule_id for f in analyze_source(src, CORE, select=["DIM001", "DIM002"])}
    )


def term_issues(body: str):
    tree = ast.parse(model(body))
    fn = next(
        n for n in ast.walk(tree)
        if isinstance(n, ast.FunctionDef) and n.name == "overhead_terms"
    )
    return check_cost_function(fn)


# -- deliberately wrong models (the acceptance fixtures) ----------------------------


def test_dropped_tw_factor_fires_dim001():
    # 2*n**2/sqrt(p) is a word count pretending to be a time
    src = model("return {'tw': 2 * n**2 / p**0.5}")
    assert rules_fired(src) == ["DIM001"]
    issues = term_issues("return {'tw': 2 * n**2 / p**0.5}")
    assert len(issues) == 1 and issues[0].kind == "term"
    assert "no time unit" in issues[0].message


def test_ts_times_words_mixing_fires_dim001():
    # ts * nwords has an unconsumed word count: the words need a tw factor
    src = model("return {'ts': machine.ts * nwords * p}")
    assert rules_fired(src) == ["DIM001"]
    issues = term_issues("return {'ts': machine.ts * nwords * p}")
    assert len(issues) == 1
    assert "unconsumed word" in issues[0].message


def test_ts_tw_product_without_sqrt_fires_dim001():
    # ts*tw is time^2/words; only under a square root is it a time again
    src = model("return {'sqrt': machine.ts * machine.tw * n * p}")
    assert rules_fired(src) == ["DIM001"]
    issues = term_issues("return {'sqrt': machine.ts * machine.tw * n * p}")
    assert "squared/fractional time" in issues[0].message


def test_time_plus_count_addition_fires_dim002():
    src = model("return {'ts': (machine.ts + n) * p}")
    assert rules_fired(src) == ["DIM002"]


# -- correct idioms must stay clean -------------------------------------------------


@pytest.mark.parametrize(
    "body",
    [
        # the classic Cannon/Fox/GK shapes
        "return {'ts': machine.ts * p * math.log2(p), 'tw': machine.tw * n**2 * p**0.5}",
        # Eq. 6 idiom: ts + tw is a per-message time (implicit one-word message)
        "c = machine.ts + machine.tw\nreturn {'ts_tw': 5 * c * p * math.log2(p)}",
        # packetized transfer: sqrt(ts*tw) is a time
        "return {'sqrt': 10 * n * p**(2/3) * (machine.ts * machine.tw * math.log2(p) / 3) ** 0.5}",
        # guarded division and max()
        "lg = max(math.log2(p), 1e-12)\nreturn {'ts': machine.ts * p / lg * lg * lg}",
        # unknown time-suffixed helpers count as times
        "return {'ts_tw': p * machine.transfer_time(n**2 / p)}",
        # th per-hop term
        "return {'th': machine.th * p**0.5 * n}",
    ],
)
def test_real_model_idioms_are_clean(body):
    assert rules_fired(model(body)) == []


def test_every_real_model_in_tree_is_dimension_clean():
    from repro.analysis import analyze_paths

    src = REPO / "src" / "repro"
    report = analyze_paths([src], select=["DIM001", "DIM002"])
    assert report.findings == [], "\n".join(f.format() for f in report.findings)


# -- algebra unit tests -------------------------------------------------------------


def eval_expr(expr: str, env_body: str = "pass"):
    issues = term_issues(f"{env_body}\nreturn {{'x': {expr}}}")
    return issues


def test_tw_times_words_is_a_time():
    assert eval_expr("machine.tw * nwords") == []


def test_division_subtracts_degrees():
    # tw / tw is dimensionless -> not a time -> DIM001
    issues = eval_expr("machine.tw / machine.tw")
    assert issues and issues[0].kind == "term"


def test_sqrt_halves_degrees():
    assert eval_expr("(machine.ts * machine.tw) ** 0.5 * nwords ** 0.5 * p") == []


def test_named_word_variables_get_word_dimension():
    issues = eval_expr("machine.ts * block_words")
    assert issues and "unconsumed word" in issues[0].message


def test_assignment_environment_is_tracked():
    assert eval_expr("c * p", env_body="c = machine.ts + machine.tw") == []


def test_format_dim():
    assert format_dim(ZERO) == "dimensionless"
    assert format_dim(TIME) == "time^1"
    assert format_dim((1.0, -1.0, 0.0)) == "time^1·words^-1"

"""Model-consistency rules (MOD0xx).

The paper's Table 1 / Figures 1-3 claims only reproduce if every
:class:`~repro.core.models.AlgorithmModel` keeps two disciplines:

* ``overhead_terms`` is the model's one cost expression — the
  unit-bearing decomposition Section 5's term-wise isoefficiency
  balances against ``W``, from which the base class derives ``T_p``,
  speedup and efficiency — so its keys must come from the declared
  ``t_s``/``t_w``/``t_c`` vocabulary and each term must actually carry
  that dimension (MOD002);
* applicability is derived from ``min_procs``/``max_procs``; overriding
  the derived predicate directly lets the three drift apart (MOD003).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.astutil import attribute_roots, dotted_name
from repro.analysis.core import Finding, ModuleSource, Rule, register

__all__ = [
    "OverheadTermUnitsRule",
    "ProcsConsistencyRule",
    "TERM_VOCABULARY",
]

#: Unit vocabulary for ``overhead_terms`` keys.  A key is its leading
#: unit tag plus an optional ``_<qualifier>`` (e.g. ``ts_cannon``):
#:
#: ``ts``     startup-typed        — scales with machine.ts only
#: ``tw``     bandwidth-typed      — scales with machine.tw only
#: ``tc``     compute-typed        — carries neither machine constant
#: ``ts_tw``  mixed                — scales with ts and tw jointly
#: ``sqrt``   geometric-mean-typed — sqrt(ts*tw) packetization terms
TERM_VOCABULARY: dict[str, tuple[frozenset[str], frozenset[str]]] = {
    # tag -> (machine attrs the term MUST reference, attrs it MUST NOT)
    "ts": (frozenset({"ts"}), frozenset({"tw"})),
    "tw": (frozenset({"tw"}), frozenset({"ts"})),
    "tc": (frozenset(), frozenset({"ts", "tw"})),
    "ts_tw": (frozenset({"ts", "tw"}), frozenset()),
    "sqrt": (frozenset({"ts", "tw"}), frozenset()),
}


def _model_classes(tree: ast.AST) -> Iterator[ast.ClassDef]:
    """Classes that (statically) subclass an ``*Model`` base.

    Matched by base-name suffix so the rule sees subclasses in any
    module without import resolution; ``AlgorithmModel`` itself (which
    subclasses only ``ABC``) is intentionally not matched — it defines
    the derived quantities.
    """
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for base in node.bases:
                name = dotted_name(base)
                if name and name.split(".")[-1].endswith("Model"):
                    yield node
                    break


def _methods(cls: ast.ClassDef) -> dict[str, ast.FunctionDef]:
    return {n.name: n for n in cls.body if isinstance(n, ast.FunctionDef)}


@register
class OverheadTermUnitsRule(Rule):
    """MOD002: ``overhead_terms`` keys come from the unit vocabulary and
    each term carries its declared dimension.

    Every key must be ``<tag>`` or ``<tag>_<qualifier>`` with ``tag`` in
    the declared vocabulary, and the term's expression must reference
    exactly the machine constants its tag declares: a startup-typed
    (``ts``) term must scale with ``machine.ts`` and never ``machine.tw``,
    and symmetrically.  References through single-assignment local
    aliases (``c = machine.ts + machine.tw``) are followed.  Keys must
    be string literals — a computed key cannot be dimension-checked.
    """

    rule_id = "MOD002"
    name = "overhead-term-units"
    description = "overhead_terms keys must be ts/tw/tc/ts_tw/sqrt-typed and dimensionally consistent"

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        for cls in _model_classes(module.tree):
            fn = _methods(cls).get("overhead_terms")
            if fn is None:
                continue
            machine_arg = self._machine_param(fn)
            aliases = self._alias_attrs(fn, machine_arg)
            for ret in ast.walk(fn):
                if not isinstance(ret, ast.Return) or ret.value is None:
                    continue
                if not isinstance(ret.value, ast.Dict):
                    yield self.finding(
                        module, ret,
                        f"{cls.name}.overhead_terms must return a literal dict "
                        "so terms can be unit-checked",
                    )
                    continue
                for key, value in zip(ret.value.keys, ret.value.values):
                    if not (isinstance(key, ast.Constant) and isinstance(key.value, str)):
                        yield self.finding(
                            module, key if key is not None else ret,
                            f"{cls.name}.overhead_terms keys must be string literals",
                        )
                        continue
                    yield from self._check_term(module, cls, key, value, machine_arg, aliases)

    def _check_term(
        self,
        module: ModuleSource,
        cls: ast.ClassDef,
        key: ast.Constant,
        value: ast.expr,
        machine_arg: str,
        aliases: dict[str, set[str]],
    ) -> Iterator[Finding]:
        tag = self._unit_tag(key.value)
        if tag is None:
            yield self.finding(
                module, key,
                f"{cls.name}.overhead_terms key {key.value!r} is outside the unit "
                f"vocabulary ({', '.join(sorted(TERM_VOCABULARY))})",
            )
            return
        required, forbidden = TERM_VOCABULARY[tag]
        attrs = self._expr_attrs(value, machine_arg, aliases)
        missing = required - attrs
        if missing:
            yield self.finding(
                module, value,
                f"{cls.name}.overhead_terms[{key.value!r}] is {tag}-typed but never "
                f"references machine.{'/'.join(sorted(missing))}",
            )
        illegal = attrs & forbidden
        if illegal:
            yield self.finding(
                module, value,
                f"{cls.name}.overhead_terms[{key.value!r}] is {tag}-typed but "
                f"references machine.{'/'.join(sorted(illegal))}",
            )

    @staticmethod
    def _unit_tag(key: str) -> str | None:
        # longest tag first so "ts_tw_log" matches ts_tw, not ts
        for tag in sorted(TERM_VOCABULARY, key=len, reverse=True):
            if key == tag or key.startswith(tag + "_"):
                return tag
        return None

    @staticmethod
    def _machine_param(fn: ast.FunctionDef) -> str:
        args = [a.arg for a in fn.args.args]
        return "machine" if "machine" in args else (args[-1] if args else "machine")

    def _alias_attrs(self, fn: ast.FunctionDef, machine_arg: str) -> dict[str, set[str]]:
        """``local name -> machine attrs its value references`` (to fixpoint)."""
        aliases: dict[str, set[str]] = {}
        for _ in range(4):  # alias-of-alias chains are short
            changed = False
            for stmt in ast.walk(fn):
                if not (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1):
                    continue
                tgt = stmt.targets[0]
                if not isinstance(tgt, ast.Name):
                    continue
                attrs = self._expr_attrs(stmt.value, machine_arg, aliases)
                if attrs != aliases.get(tgt.id, set()):
                    aliases[tgt.id] = attrs
                    changed = True
            if not changed:
                break
        return aliases

    @staticmethod
    def _expr_attrs(expr: ast.expr, machine_arg: str, aliases: dict[str, set[str]]) -> set[str]:
        attrs = attribute_roots(expr, machine_arg) & {"ts", "tw", "th"}
        for node in ast.walk(expr):
            if isinstance(node, ast.Name) and node.id in aliases:
                attrs |= aliases[node.id]
        return attrs


@register
class ProcsConsistencyRule(Rule):
    """MOD003: applicability must stay derived from the concurrency bounds.

    ``applicable`` is implemented once on the base class as
    ``(min_procs(n) <= p) & (p <= max_procs(n))``; a subclass overriding
    it can silently disagree with its own declared bounds (and with the
    region analysis, which queries the bounds directly).  Subclasses
    adjust ``min_procs``/``max_procs`` instead.
    """

    rule_id = "MOD003"
    name = "procs-consistency"
    description = "override min_procs/max_procs, never applicable"

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        for cls in _model_classes(module.tree):
            fn = _methods(cls).get("applicable")
            if fn is not None:
                yield self.finding(
                    module, fn,
                    f"{cls.name} overrides applicable(); adjust min_procs/max_procs "
                    "so applicability, bounds, and region analysis stay consistent",
                )

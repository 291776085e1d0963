"""DTYPE01 - no float32 arrays anywhere in ``src/``.

The solver's numerical contracts are written against float64: replay
mode promises bit-identity with the scalar loop, the accelerated mode
promises ``ACCELERATED_RELATIVE_TOLERANCE = 1e-7`` - a bound float32
arithmetic (epsilon ``~1.19e-7``) cannot honour.

A float32 array is silent precision loss: numpy quietly downcasts on
mixed-dtype arithmetic, so one stray ``astype(np.float32)`` (or
``dtype="float32"``) in a kernel poisons every array it touches and
the tolerance contract fails only on the workloads where it matters.
This rule flags float32 creation - ``numpy.float32`` used as a dtype or
scalar constructor, ``.astype`` to float32, and string-dtype spellings
(``"float32"``, ``"f4"``).  No module is exempt.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from ..engine import FileContext, Finding, Rule
from .determinism import _ImportMap, _dotted

#: Canonical dotted names that denote the float32 dtype (or its scalar
#: constructor).  ``numpy.single`` is the same type under another name.
_F32_NAMES = {"numpy.float32", "numpy.single"}

#: String spellings numpy accepts for the float32 dtype.
_F32_STRINGS = {"float32", "single", "f4", "<f4", ">f4", "=f4"}


def _is_float32(node: ast.AST, imports: _ImportMap) -> bool:
    """Does this expression denote the float32 dtype?"""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value in _F32_STRINGS
    dotted = _dotted(node)
    if dotted is None:
        return False
    return imports.canonical(dotted) in _F32_NAMES


class DtypeDisciplineRule(Rule):
    id = "DTYPE01"
    description = "no float32 array creation"
    rationale = ("single precision cannot honour the solver's 1e-7 "
                 "accelerated tolerance (or replay bit-identity)")
    kind = "python"
    scopes = ("src/repro",)

    def check(self, ctx: FileContext, program) -> Iterator[Finding]:
        tree = ctx.tree
        if tree is None:
            return
        imports = _ImportMap()
        imports.visit(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            flagged = self._float32_use(node, imports)
            if flagged is not None:
                yield self.finding(
                    ctx, node,
                    f"float32 creation ({flagged}): single precision "
                    f"breaks the solver's float64 tolerance contracts "
                    f"(docs/SOLVER.md)")

    def _float32_use(self, node: ast.Call,
                     imports: _ImportMap) -> Optional[str]:
        """A description of the float32 use in this call, or None."""
        dotted = _dotted(node.func)
        if dotted is not None:
            name = imports.canonical(dotted)
            if name in _F32_NAMES:
                return f"`{name}(...)`"
            if dotted.endswith(".astype") and node.args and \
                    _is_float32(node.args[0], imports):
                return "`.astype` to float32"
        for keyword in node.keywords:
            if keyword.arg == "dtype" and \
                    _is_float32(keyword.value, imports):
                return "`dtype=` float32"
        for arg in node.args:
            if _is_float32(arg, imports) and not \
                    isinstance(arg, ast.Constant):
                return "float32 dtype argument"
        return None

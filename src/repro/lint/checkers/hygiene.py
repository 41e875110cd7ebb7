"""REP3xx — simulation hygiene.

Sim clocks are floats accumulated through ``env.timeout`` arithmetic;
``==``/``!=`` between two clock expressions is a latent heisenbug the
moment a delay stops being exactly representable.  Bare ``except:`` in
engine/runtime code swallows ``KeyboardInterrupt``/``SystemExit`` and the
engine's own control-flow exceptions, turning crashes into silent
corruption.
"""

from __future__ import annotations

import ast
from typing import Optional

from ..registry import Rule, register
from .base import Checker, dotted_parts

__all__ = [
    "ClockComparisonChecker",
    "BareExceptChecker",
    "LibraryPrintChecker",
    "SpeedupsImportChecker",
]

REP301 = Rule(
    "REP301",
    "no-float-clock-equality",
    "==/!= between float sim-clock expressions; compare with a tolerance "
    "or restructure around event ordering",
)
REP302 = Rule(
    "REP302",
    "no-bare-except",
    "bare except: in engine/runtime code swallows control-flow exceptions; "
    "catch Exception (or something narrower)",
)
REP303 = Rule(
    "REP303",
    "no-print-in-library",
    "bare print() in library code bypasses the observability layer; emit a "
    "trace record or metric (repro.obs), or return the text to the caller",
)
REP305 = Rule(
    "REP305",
    "no-direct-speedups-import",
    "importing repro.des._speedups directly bypasses the core-selection "
    "seam (availability probing, tracer fallback); construct "
    "environments through repro.des.engine.make_environment()",
)

#: Module basenames allowed to print: the CLI surface.
_PRINT_EXEMPT_MODULES = frozenset({"cli", "__main__"})

#: Name fragments identifying a sim-clock-valued expression.
_CLOCK_NAMES = {"now", "_now", "clock", "sim_time", "t_now"}
_CLOCK_SUFFIXES = ("_time", "_clock")


def _clock_like(node: ast.AST) -> Optional[str]:
    """The clock-ish dotted name in ``node``, or None."""
    if isinstance(node, ast.Call):
        # env.peek() returns the next event's timestamp.
        if isinstance(node.func, ast.Attribute) and node.func.attr == "peek":
            return "peek()"
        return None
    parts = dotted_parts(node)
    if not parts:
        return None
    leaf = parts[-1]
    if leaf in _CLOCK_NAMES or leaf.endswith(_CLOCK_SUFFIXES):
        return ".".join(parts)
    return None


def _inside_assert(node: ast.AST) -> bool:
    parent = getattr(node, "parent", None)
    while parent is not None:
        if isinstance(parent, ast.Assert):
            return True
        parent = getattr(parent, "parent", None)
    return False


@register(REP301)
class ClockComparisonChecker(Checker):
    """Equality comparison where either operand is sim-clock-valued.

    ``assert`` statements are exempt: tests pinning an *exact* expected
    clock (all engine timestamps are sums the test controls) are stating
    intent, not branching simulation behaviour on float identity.
    """

    def visit_Compare(self, node: ast.Compare) -> None:
        if not _inside_assert(node):
            operands = [node.left, *node.comparators]
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                name = _clock_like(left) or _clock_like(right)
                if name is not None:
                    self.report(
                        "REP301", node,
                        f"float sim-clock expression {name!r} compared with "
                        "==/!=; clock values are accumulated floats — "
                        "use a tolerance or event ordering",
                    )
                    break
        self.generic_visit(node)


@register(REP302)
class BareExceptChecker(Checker):
    """Bare ``except:`` is banned in engine/runtime packages."""

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.type is None and self.ctx.in_engine_package:
            self.report(
                "REP302", node,
                "bare except: swallows StopProcess/KeyboardInterrupt in "
                "engine code; catch Exception or narrower",
            )
        self.generic_visit(node)


@register(REP303)
class LibraryPrintChecker(Checker):
    """``print()`` is banned in ``repro`` library code.

    CLI modules (``cli.py``, ``__main__.py``), entry-point functions, and
    ``if __name__ == "__main__":`` blocks are exempt — those *are* the
    user-facing output surface.  Everything else should route output
    through the observability layer or return strings to its caller.
    """

    def _in_library(self) -> bool:
        haystack = "/" + self.ctx.path.strip("/") + "/"
        if "/repro/" not in haystack or "/tests/" in haystack:
            return False
        return self.ctx.module_name not in _PRINT_EXEMPT_MODULES

    def visit_Call(self, node: ast.Call) -> None:
        if (
            self._in_library()
            and self.call_name(node) == "print"
            and not self.in_entry_point(node)
        ):
            self.report(
                "REP303", node,
                "print() in library code; emit via repro.obs (trace/metric) "
                "or return the text to the caller",
            )
        self.generic_visit(node)


@register(REP305)
class SpeedupsImportChecker(Checker):
    """Direct imports of the compiled DES extension are banned.

    ``repro.des._speedups`` is an *optional* accelerator; the only place
    allowed to touch it is the selection seam in ``repro/des/`` (which
    probes availability and falls back to the pure kernel when tracing is
    on).  Library code importing it directly would crash on
    pure-only installs and skip the fallback rules.  Tests and tools are
    exempt — they exercise the extension on purpose.
    """

    _MESSAGE = (
        "direct import of the compiled DES core; environments must come "
        "from repro.des.engine.make_environment() so the availability and "
        "tracing fallbacks apply"
    )

    def _in_scope(self) -> bool:
        haystack = "/" + self.ctx.path.strip("/") + "/"
        if "/repro/" not in haystack or "/tests/" in haystack:
            return False
        return "/repro/des/" not in haystack

    def visit_Import(self, node: ast.Import) -> None:
        if self._in_scope():
            for alias in node.names:
                if alias.name.split(".")[-1] == "_speedups":
                    self.report("REP305", node, self._MESSAGE)
                    break
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if self._in_scope():
            module_leaf = (node.module or "").split(".")[-1]
            if module_leaf == "_speedups" or any(
                alias.name == "_speedups" for alias in node.names
            ):
                self.report("REP305", node, self._MESSAGE)
        self.generic_visit(node)

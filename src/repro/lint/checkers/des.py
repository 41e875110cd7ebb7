"""REP1xx — the discrete-event process protocol.

``Environment.process()`` consumes a *generator object*; handing it a plain
function, a lambda, or a generator *function* (uncalled) fails at runtime —
sometimes silently late in a long sweep.  Inside a process body the only
things that may be yielded are Event-typed expressions: ``yield 5`` parks
the process forever (the engine schedules nothing for it), and
``time.sleep`` blocks the whole simulation instead of advancing sim time.
"""

from __future__ import annotations

import ast
from typing import Dict, Optional, Set

from ..registry import Rule, register
from .base import Checker, dotted_parts

__all__ = ["ProcessArgumentChecker", "ProcessBodyChecker"]

REP101 = Rule(
    "REP101",
    "process-takes-generator",
    "env.process(...) must receive a generator object: call a generator "
    "function, never pass a lambda, a plain function, or an uncalled one",
)
REP102 = Rule(
    "REP102",
    "yield-events-only",
    "a DES process may only yield Event-typed expressions "
    "(env.timeout(...), env.event(), ...); a constant parks it forever",
)
REP103 = Rule(
    "REP103",
    "no-blocking-sleep",
    "time.sleep() blocks the host thread; advance simulation time with "
    "yield env.timeout(delay) instead",
)

#: Environment methods whose result is an Event (safe to yield).
_EVENT_FACTORIES = {"timeout", "event", "process"}


def _is_generator_def(func: ast.AST) -> bool:
    if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return False
    for node in ast.walk(func):
        if node is not func and isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            continue  # nested defs own their yields (coarse but safe)
        if isinstance(node, (ast.Yield, ast.YieldFrom)) and _owner(node) is func:
            return True
    return False


def _owner(node: ast.AST) -> Optional[ast.AST]:
    """The function whose frame a yield executes in."""
    parent = getattr(node, "parent", None)
    while parent is not None:
        if isinstance(parent, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            return parent
        parent = getattr(parent, "parent", None)
    return None


def _is_env_process_call(node: ast.Call) -> bool:
    """Matches ``env.process(...)`` / ``self.env.process(...)`` /
    ``Process(env, gen)`` — the spellings used by this engine."""
    func = node.func
    if isinstance(func, ast.Attribute) and func.attr == "process":
        parts = dotted_parts(func.value)
        return bool(parts) and parts[-1] == "env"
    if isinstance(func, ast.Name) and func.id == "Process":
        return True
    parts = dotted_parts(func)
    return bool(parts) and parts[-1] == "Process" and len(parts) > 1


class _ModuleFunctions(ast.NodeVisitor):
    """Symbol table: function/method name -> def node (last wins)."""

    def __init__(self) -> None:
        self.defs: Dict[str, ast.AST] = {}

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self.defs[node.name] = node
        self.generic_visit(node)

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]


@register(REP101)
class ProcessArgumentChecker(Checker):
    """The argument handed to ``env.process()`` must be a generator object."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        table = _ModuleFunctions()
        table.visit(self.ctx.tree)
        self._defs = table.defs

    def _lookup(self, node: ast.AST) -> Optional[ast.AST]:
        """Resolve a Name or self.method / cls.method to a same-module def."""
        if isinstance(node, ast.Name):
            return self._defs.get(node.id)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in ("self", "cls"):
                return self._defs.get(node.attr)
        return None

    def visit_Call(self, node: ast.Call) -> None:
        if _is_env_process_call(node) and node.args:
            # ``Process(env, gen)`` carries the generator second.
            arg = node.args[-1]
            if isinstance(arg, ast.Lambda):
                self.report(
                    "REP101", arg,
                    "lambda passed to env.process(); lambdas cannot be "
                    "generator functions — define a def with yield",
                )
            elif isinstance(arg, (ast.Name, ast.Attribute)):
                target = self._lookup(arg)
                if target is not None:
                    self.report(
                        "REP101", arg,
                        f"env.process() received the function "
                        f"{getattr(target, 'name', '?')!r} itself; call it "
                        "(env.process(fn(...))) to obtain a generator",
                    )
            elif isinstance(arg, ast.Call):
                target = self._lookup(arg.func)
                if target is not None and not _is_generator_def(target):
                    self.report(
                        "REP101", arg,
                        f"env.process() received a call to "
                        f"{getattr(target, 'name', '?')!r}, which contains no "
                        "yield and therefore returns no generator",
                    )
                elif target is None:
                    self._check_cross_module(arg)
        self.generic_visit(node)

    def _check_cross_module(self, arg: ast.Call) -> None:
        """Project facts extend the check across module boundaries.

        Without facts (single-file lint) imported callables stay trusted,
        as before; with them, a call to a function the project index proves
        is yield-free is flagged exactly like a same-module one.
        """
        facts = self.ctx.facts
        if facts is None:
            return
        dotted = self.resolve(arg.func)
        if dotted is None:
            return
        if facts.kind_of(dotted) == "function":
            self.report(
                "REP101", arg,
                f"env.process() received a call to {dotted!r}, which the "
                "project index shows contains no yield and therefore "
                "returns no generator",
            )


@register(REP102, REP103)
class ProcessBodyChecker(Checker):
    """Yield discipline (REP102) and no blocking sleeps (REP103).

    A function is treated as a DES process body when it is a generator that
    either (a) is passed to ``env.process()`` somewhere in the module, or
    (b) itself yields at least one recognizable Event factory call —
    data-producing generators (trace replay, arrival streams) are left
    alone.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._process_defs = self._find_process_defs()

    def _find_process_defs(self) -> Set[ast.AST]:
        process_like: Set[ast.AST] = set()
        table = _ModuleFunctions()
        table.visit(self.ctx.tree)

        for node in ast.walk(self.ctx.tree):
            if isinstance(node, ast.Call) and _is_env_process_call(node):
                for arg in node.args:
                    target = None
                    if isinstance(arg, ast.Call):
                        if isinstance(arg.func, ast.Name):
                            target = table.defs.get(arg.func.id)
                        elif (
                            isinstance(arg.func, ast.Attribute)
                            and isinstance(arg.func.value, ast.Name)
                            and arg.func.value.id in ("self", "cls")
                        ):
                            target = table.defs.get(arg.func.attr)
                    if target is not None and _is_generator_def(target):
                        process_like.add(target)

        for func in table.defs.values():
            if not _is_generator_def(func):
                continue
            for node in ast.walk(func):
                if (
                    isinstance(node, ast.Yield)
                    and isinstance(node.value, ast.Call)
                    and isinstance(node.value.func, ast.Attribute)
                    and node.value.func.attr in _EVENT_FACTORIES
                    and _owner(node) is func
                ):
                    process_like.add(func)
                    break
        return process_like

    def _in_process_def(self) -> bool:
        return any(f in self._process_defs for f in self._func_stack)

    def visit_Yield(self, node: ast.Yield) -> None:
        if self.ctx.in_sim_package and self.current_function in self._process_defs:
            value = node.value
            if value is None or isinstance(
                value, (ast.Constant, ast.JoinedStr, ast.List, ast.Dict, ast.Set)
            ):
                shown = ast.dump(value)[:40] if value is not None else "nothing"
                self.report(
                    "REP102", node,
                    "DES process yields a plain value "
                    f"({shown}); only Event-typed expressions such as "
                    "env.timeout(delay) resume a process",
                )
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        if self.ctx.in_sim_package:
            name = self.call_name(node)
            if name in ("time.sleep", "asyncio.sleep"):
                where = (
                    "inside a DES process body"
                    if self._in_process_def()
                    else "inside a simulation package"
                )
                self.report(
                    "REP103", node,
                    f"{name}() {where} blocks wall-clock time; use "
                    "yield env.timeout(delay)",
                )
        self.generic_visit(node)

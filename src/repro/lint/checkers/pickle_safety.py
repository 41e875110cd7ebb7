"""REP2xx — process-pool / pickle safety.

``ExperimentRunner.run_many`` ships its worker function and configs to a
``ProcessPoolExecutor`` by pickling.  Lambdas, nested functions, and
locally-defined classes are unpicklable; they fail only when ``--jobs > 1``,
which is exactly how a "works on my laptop, dies in CI" sweep is born.
Module-global rebinding from function bodies is the second trap: workers
mutate their *copy* of the module, the coordinator never sees it, and
serial and parallel runs silently diverge.
"""

from __future__ import annotations

import ast
from typing import Dict, Set

from ..registry import Rule, register
from .base import Checker

__all__ = ["PoolDispatchChecker", "GlobalMutationChecker"]

REP201 = Rule(
    "REP201",
    "picklable-pool-callables",
    "work dispatched through run_many()/submit() must be module-level and "
    "picklable: no lambdas, nested functions, or local classes",
)
REP202 = Rule(
    "REP202",
    "no-global-rebinding",
    "rebinding module-level state from a function body diverges between "
    "pool workers and the coordinator; thread state explicitly",
)

#: Callable attributes that dispatch work to a process pool.
_DISPATCH_NAMES = {"run_many", "submit", "map", "imap", "imap_unordered"}


@register(REP201)
class PoolDispatchChecker(Checker):
    """First argument of a pool-dispatch call must be picklable."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._module_defs: Set[str] = {
            n.name
            for n in self.ctx.tree.body
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        }
        self._local_defs: Dict[str, str] = self._collect_local_defs()

    def _collect_local_defs(self) -> Dict[str, str]:
        """name -> kind for defs nested inside functions (unpicklable)."""
        local: Dict[str, str] = {}
        for node in ast.walk(self.ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for child in ast.walk(node):
                if child is node:
                    continue
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    local[child.name] = "nested function"
                elif isinstance(child, ast.ClassDef):
                    local[child.name] = "locally-defined class"
        return local

    def _is_dispatch(self, node: ast.Call) -> bool:
        func = node.func
        if isinstance(func, ast.Attribute):
            return func.attr in ("run_many", "submit")
        if isinstance(func, ast.Name):
            return func.id == "run_many"
        return False

    def visit_Call(self, node: ast.Call) -> None:
        if self._is_dispatch(node) and node.args:
            fn = node.args[0]
            if isinstance(fn, ast.Lambda):
                self.report(
                    "REP201", fn,
                    "lambda dispatched to a process pool cannot be pickled; "
                    "hoist it to a module-level function",
                )
            elif isinstance(fn, ast.Name):
                kind = self._local_defs.get(fn.id)
                if kind is not None and fn.id not in self._module_defs:
                    self.report(
                        "REP201", fn,
                        f"{kind} {fn.id!r} dispatched to a process pool "
                        "cannot be pickled; hoist it to module level",
                    )
        self.generic_visit(node)


@register(REP202)
class GlobalMutationChecker(Checker):
    """``global X`` followed by assignment inside sim/runtime code."""

    def _applies(self) -> bool:
        return self.ctx.in_sim_package or self.ctx.in_engine_package

    def visit_Global(self, node: ast.Global) -> None:
        if self._applies():
            func = self.current_function
            assigned = _names_assigned(func) if func is not None else set()
            for name in node.names:
                if name in assigned:
                    self.report(
                        "REP202", node,
                        f"function rebinds module-level {name!r}; pool "
                        "workers mutate a private copy, so serial and "
                        "parallel runs diverge — pass state explicitly",
                    )
        self.generic_visit(node)


def _names_assigned(func: ast.AST) -> Set[str]:
    names: Set[str] = set()
    for node in ast.walk(func):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                for leaf in ast.walk(target):
                    if isinstance(leaf, ast.Name):
                        names.add(leaf.id)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            for leaf in ast.walk(node.target):
                if isinstance(leaf, ast.Name):
                    names.add(leaf.id)
    return names

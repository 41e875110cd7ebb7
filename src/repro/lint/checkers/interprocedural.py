"""REP4xx — whole-program rules over the call graph and taint lattice.

Each checker here runs once per lint invocation against the
:class:`~repro.lint.context.ProjectContext` rather than once per module.
They exist precisely for the violations the per-file families cannot see:
a seeded RNG returned through two helpers and parked in a module global, or
a set built in ``core/`` and iterated in ``sim/``.

Test modules are never analyzed: their fixtures deliberately violate the
rules, and grandfathering them would bloat the baseline.
"""

from __future__ import annotations

import ast
from typing import List, Optional, Tuple

from ..context import ProjectContext
from ..dataflow import FunctionAnalysis, Taint
from ..findings import Finding
from ..project import FunctionInfo, ModuleInfo, _expr_is_set
from ..registry import Rule, register_project

__all__ = [
    "RngEscapeChecker",
    "HashOrderTaintChecker",
    "PluginStateChecker",
]

REP401 = Rule(
    "REP401",
    "rng-escape",
    "a seeded RNG instance reaches module scope (global, default arg, or "
    "pool-submitted closure) through a call chain; replication state must "
    "stay owned by the replication",
)
REP402 = Rule(
    "REP402",
    "hash-order-taint",
    "a set value crosses a function boundary into unsorted iteration "
    "inside a simulation decision path; hash order diverges between "
    "interpreters",
)
REP404 = Rule(
    "REP404",
    "unserialized-plugin-state",
    "a registry-registered plugin mutates shared module state; plugins are "
    "re-imported per worker process, so the mutation diverges",
)

#: Pool-dispatch method names a closure may be submitted through (the
#: attribute-call counterpart of REP201's list).
_DISPATCH_NAMES = {"run_many", "submit", "map", "imap", "imap_unordered",
                   "apply_async"}

#: Methods that mutate their receiver in place.
_MUTATORS = {"append", "add", "update", "setdefault", "extend", "insert",
             "pop", "remove", "discard", "clear", "popitem"}


class ProjectChecker:
    """Base for whole-program checkers: findings buffer + report helper."""

    def __init__(self, project: ProjectContext, active_rules: Tuple[str, ...]):
        self.project = project
        self.active = frozenset(active_rules)
        self.findings: List[Finding] = []

    def report(self, rule: str, path: str, node: ast.AST,
               message: str) -> None:
        if rule not in self.active:
            return
        self.findings.append(Finding(
            rule=rule,
            path=path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            message=message,
        ))

    def run(self) -> List[Finding]:  # pragma: no cover - overridden
        raise NotImplementedError

    # -- shared iteration helpers -------------------------------------------

    def _modules(self) -> List[ModuleInfo]:
        index = self.project.index
        return [
            index.modules[path]
            for path in sorted(index.modules)
            if not index.modules[path].is_test
        ]

    def _functions(self, info: ModuleInfo) -> List[FunctionInfo]:
        return [info.functions[q] for q in sorted(info.functions)]

    def _in_packages(self, path: str, packages: Tuple[str, ...]) -> bool:
        haystack = "/" + path.strip("/") + "/"
        return any(f"/{pkg.strip('/')}/" in haystack for pkg in packages)


def _taint_origin(taints, kind: str) -> Optional[Taint]:
    """The lexically first taint atom of ``kind``, for stable messages."""
    matching = sorted(
        (t for t in taints if t.kind == kind), key=lambda t: t.sort_key
    )
    return matching[0] if matching else None


@register_project(REP401)
class RngEscapeChecker(ProjectChecker):
    """Seeded RNG instances must never reach module scope.

    A ``random.Random(seed)`` is *the* replication's private stream; once
    it lands in a module global, a default argument, or a closure shipped
    to a worker pool, two code paths share draws and per-seed
    reproducibility is gone — silently, because every individual draw still
    looks seeded.
    """

    def run(self) -> List[Finding]:
        df = self.project.dataflow
        for info in self._modules():
            module_analysis = df.module_analysis(info.module)
            if module_analysis is not None:
                self._check_module_scope(info, module_analysis)
            for fi in self._functions(info):
                analysis = df.analysis_for(fi.key)
                if analysis is not None:
                    self._check_function(info, fi, analysis)
        return self.findings

    def _check_module_scope(
        self, info: ModuleInfo, analysis: FunctionAnalysis
    ) -> None:
        for name, line, taints in analysis.module_writes:
            taint = _taint_origin(taints, "rng")
            if taint is not None:
                self.report(
                    "REP401", info.path, _at(line),
                    f"seeded RNG (created in {taint.origin}:{taint.line}) "
                    f"assigned to module global {name!r}; RNG state must be "
                    "threaded through the replication, not shared at import "
                    "scope",
                )
        self._check_defaults(info, analysis)

    def _check_defaults(
        self, info: ModuleInfo, analysis: FunctionAnalysis
    ) -> None:
        for funcname, argname, line, taints in analysis.default_taints:
            taint = _taint_origin(taints, "rng")
            if taint is not None:
                self.report(
                    "REP401", info.path, _at(line),
                    f"default value of {funcname}({argname}=...) is a seeded "
                    f"RNG (created in {taint.origin}:{taint.line}); defaults "
                    "evaluate once at import, so every caller shares the "
                    "stream",
                )

    def _check_function(
        self, info: ModuleInfo, fi: FunctionInfo, analysis: FunctionAnalysis
    ) -> None:
        for name, line, taints in analysis.global_writes:
            taint = _taint_origin(taints, "rng")
            if taint is not None:
                self.report(
                    "REP401", info.path, _at(line),
                    f"global {name!r} rebound to a seeded RNG (created in "
                    f"{taint.origin}:{taint.line}); module globals are "
                    "per-process, so workers and coordinator drift apart",
                )
        for node in ast.walk(fi.node):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _DISPATCH_NAMES
            ):
                self._check_dispatch(info, analysis, node)

    def _check_dispatch(
        self, info: ModuleInfo, analysis: FunctionAnalysis, call: ast.Call
    ) -> None:
        for arg in call.args:
            if isinstance(arg, ast.Lambda):
                for name in sorted(_free_names(arg)):
                    taint = _taint_origin(analysis.name_taints(name), "rng")
                    if taint is not None:
                        self.report(
                            "REP401", info.path, arg,
                            f"lambda submitted to .{call.func.attr}() "  # type: ignore[union-attr]
                            f"captures {name!r}, a seeded RNG (created in "
                            f"{taint.origin}:{taint.line}); pass the seed and "
                            "construct the RNG inside the worker",
                        )
                continue
            taint = _taint_origin(analysis.taint_of(arg), "rng")
            if taint is not None:
                self.report(
                    "REP401", info.path, arg,
                    f"seeded RNG (created in {taint.origin}:{taint.line}) "
                    f"passed to .{call.func.attr}(); RNG objects must not "  # type: ignore[union-attr]
                    "cross the pool boundary — ship the seed instead",
                )


@register_project(REP402)
class HashOrderTaintChecker(ProjectChecker):
    """Cross-boundary set values must be sorted before decision-path loops.

    The per-file REP004 sees sets born in the same function and the
    configured set-typed attributes.  This rule follows the taint through
    returns, parameters, and inferred set-typed attributes, and only
    reports sinks REP004 provably cannot (``crossed`` taint), so the two
    rules never double-fire on one line.
    """

    def run(self) -> List[Finding]:
        df = self.project.dataflow
        config = self.project.config
        decision_packages = tuple(
            sorted(set(config.sim_packages) | set(config.engine_packages))
        )
        for info in self._modules():
            if not self._in_packages(info.path, decision_packages):
                continue
            analyses = [
                a for a in (
                    df.module_analysis(info.module),
                    *(df.analysis_for(fi.key) for fi in self._functions(info)),
                )
                if a is not None
            ]
            for analysis in analyses:
                root = analysis.fi.node if analysis.fi else info.tree
                self._check_sinks(info, analysis, root)
        return self.findings

    def _check_sinks(
        self, info: ModuleInfo, analysis: FunctionAnalysis, root: ast.AST
    ) -> None:
        for node in ast.walk(root):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                self._check_iter(info, analysis, node.iter, node)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                for gen in node.generators:
                    self._check_iter(info, analysis, gen.iter, gen.iter)

    def _check_iter(
        self,
        info: ModuleInfo,
        analysis: FunctionAnalysis,
        iter_node: ast.expr,
        site: ast.AST,
    ) -> None:
        taints = [
            t for t in analysis.taint_of(iter_node)
            if t.kind == "set" and t.crossed
        ]
        if not taints or self._rep004_territory(iter_node):
            return
        taint = sorted(taints, key=lambda t: t.sort_key)[0]
        self.report(
            "REP402", info.path, site,
            f"iterating a set built in {taint.origin}:{taint.line} after it "
            "crossed a function boundary; hash order is per-interpreter — "
            "wrap the producer or this loop in sorted(..., key=repr)",
        )

    def _rep004_territory(self, iter_node: ast.expr) -> bool:
        """Sinks the per-file REP004 already flags (avoid double reports)."""
        if _expr_is_set(iter_node):
            return True
        configured = self.project.config.set_attributes
        if isinstance(iter_node, ast.Attribute):
            return iter_node.attr in configured
        if isinstance(iter_node, ast.Call) and isinstance(
            iter_node.func, ast.Attribute
        ):
            return iter_node.func.attr in configured
        return False


@register_project(REP404)
class PluginStateChecker(ProjectChecker):
    """Registry-registered plugins must not mutate shared module state.

    Plugins registered through a ``register*`` entry point run wherever the
    registry is consulted — including freshly spawned worker interpreters.
    Module-level mutable state written by a plugin is therefore
    per-process: the coordinator sees one value, every worker another, and
    nothing ever crashes to tell you.
    """

    def run(self) -> List[Finding]:
        for module, qualname in self.project.graph.registered_targets():
            info = self.project.index.module_for(module)
            if info is None or info.is_test:
                continue
            if qualname in info.classes:
                members = [
                    info.classes[qualname].methods[m]
                    for m in sorted(info.classes[qualname].methods)
                ]
            elif qualname in info.functions:
                members = [info.functions[qualname]]
            else:
                continue
            for fi in members:
                self._check_member(info, qualname, fi)
        return self.findings

    def _check_member(
        self, info: ModuleInfo, plugin: str, fi: FunctionInfo
    ) -> None:
        analysis = self.project.dataflow.analysis_for(fi.key)
        if analysis is not None:
            for name, line, _taints in analysis.global_writes:
                self.report(
                    "REP404", info.path, _at(line),
                    f"registered plugin {plugin!r} rebinds module global "
                    f"{name!r} in {fi.qualname}; plugin state must live on "
                    "the instance (or flow through return values)",
                )
        local_names = set(fi.param_names()) | _assigned_names(fi.node)
        for node in ast.walk(fi.node):
            name = self._module_mutation(info, node, local_names)
            if name is not None:
                self.report(
                    "REP404", info.path, node,
                    f"registered plugin {plugin!r} mutates module-level "
                    f"{name!r} in {fi.qualname}; workers re-import the "
                    "module, so each process sees a different value",
                )

    def _module_mutation(
        self, info: ModuleInfo, node: ast.AST, local_names: set
    ) -> Optional[str]:
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _MUTATORS
            and isinstance(node.func.value, ast.Name)
        ):
            name = node.func.value.id
            if name in info.module_assigns and name not in local_names:
                return name
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if (
                    isinstance(target, ast.Subscript)
                    and isinstance(target.value, ast.Name)
                ):
                    name = target.value.id
                    if name in info.module_assigns and name not in local_names:
                        return name
        return None


# -- small shared helpers ----------------------------------------------------


class _at:
    """A minimal node-like carrying just a location, for report()."""

    def __init__(self, lineno: int, col_offset: int = 0):
        self.lineno = lineno
        self.col_offset = col_offset


def _free_names(lam: ast.Lambda) -> set:
    """Names a lambda reads but does not bind (its captures)."""
    bound = {a.arg for a in (
        lam.args.posonlyargs + lam.args.args + lam.args.kwonlyargs
    )}
    if lam.args.vararg:
        bound.add(lam.args.vararg.arg)
    if lam.args.kwarg:
        bound.add(lam.args.kwarg.arg)
    return {
        node.id for node in ast.walk(lam.body)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        and node.id not in bound
    }


def _assigned_names(func: ast.AST) -> set:
    names = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)) and isinstance(
            node.target, ast.Name
        ):
            names.add(node.target.id)
        elif isinstance(node, (ast.For, ast.AsyncFor)) and isinstance(
            node.target, ast.Name
        ):
            names.add(node.target.id)
    return names

"""Call graph over the project index.

Resolution is deliberately conservative — an edge exists only when the
target is provable from local evidence, because REP4xx findings gate CI and
a speculative edge means a speculative finding.  Three resolution forms:

* **direct calls** — ``helper(...)``, ``module.helper(...)``,
  ``Cls.method(...)`` resolved through the module's import table;
* **method calls on locally-constructed objects** — ``x = Foo(...)`` then
  ``x.bar(...)`` inside one function, including objects obtained through a
  one-level factory (a project function whose ``return`` statement is
  directly ``return Foo(...)``), and ``self.method(...)`` inside a class;
* **registry entry points** — functions/classes passed to (or decorated
  with) a project symbol whose name starts with ``register``; these are
  roots with no syntactic caller, exactly the plugin shape REP404 vets.

Edges are stored sorted so golden tests can pin the graph.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from .project import FunctionInfo, ModuleInfo, ProjectIndex

__all__ = ["CallEdge", "CallGraph", "PluginRegistration"]


@dataclass(frozen=True)
class CallEdge:
    """One resolved call: caller function -> callee function/method."""

    caller: Tuple[str, str]    #: (module, qualname)
    callee: Tuple[str, str]    #: (module, qualname)
    line: int                  #: call site line in the caller's module

    @property
    def sort_key(self) -> Tuple[str, str, str, str, int]:
        return (*self.caller, *self.callee, self.line)


@dataclass(frozen=True)
class PluginRegistration:
    """A function/class handed to a ``register*`` entry point."""

    registry: str              #: dotted name of the register function
    target: Tuple[str, str]    #: (module, qualname) of the registered symbol
    path: str
    line: int


class CallGraph:
    """Edges + plugin roots, built in one deterministic pass."""

    def __init__(self, index: ProjectIndex):
        self.index = index
        self.edges: List[CallEdge] = []
        self.registrations: List[PluginRegistration] = []
        #: (module, qualname) -> sorted callee keys
        self._out: Dict[Tuple[str, str], List[Tuple[str, str]]] = {}
        self._in: Dict[Tuple[str, str], List[Tuple[str, str]]] = {}
        self._build()

    @classmethod
    def build(cls, index: ProjectIndex) -> "CallGraph":
        return cls(index)

    # -- construction -------------------------------------------------------

    def _build(self) -> None:
        edges: Set[CallEdge] = set()
        for path in sorted(self.index.modules):
            info = self.index.modules[path]
            for qualname in sorted(info.functions):
                fi = info.functions[qualname]
                edges.update(self._edges_for(info, fi))
            self._collect_registrations(info)
        self.edges = sorted(edges, key=lambda e: e.sort_key)
        for edge in self.edges:
            self._out.setdefault(edge.caller, []).append(edge.callee)
            self._in.setdefault(edge.callee, []).append(edge.caller)

    def _edges_for(self, info: ModuleInfo, fi: FunctionInfo) -> List[CallEdge]:
        local_types = self._local_constructions(info, fi)
        edges: List[CallEdge] = []
        for node in ast.walk(fi.node):
            if not isinstance(node, ast.Call):
                continue
            callee = self.resolve_callee(info, fi, node, local_types)
            if callee is not None:
                edges.append(CallEdge(
                    caller=fi.key, callee=callee, line=node.lineno,
                ))
        return edges

    def resolve_callee(
        self,
        info: ModuleInfo,
        fi: Optional[FunctionInfo],
        call: ast.Call,
        local_types: Optional[Dict[str, str]] = None,
    ) -> Optional[Tuple[str, str]]:
        """(module, qualname) of the function a call lands in, if provable."""
        func = call.func
        # self.method() inside a class
        if (
            fi is not None
            and fi.class_name is not None
            and isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == "self"
        ):
            target = self._method_on(info.module, fi.class_name, func.attr)
            if target is not None:
                return target
        # obj.method() on a locally-constructed object
        if (
            local_types
            and isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in local_types
        ):
            cls_dotted = local_types[func.value.id]
            module, _, cls_name = cls_dotted.rpartition(".")
            target = self._method_on(module, cls_name, func.attr)
            if target is not None:
                return target
        # direct / imported call
        symbol = self.index.resolve_call(info, call)
        if symbol is None:
            return None
        if symbol.kind in {"function", "method"}:
            return (symbol.module, symbol.qualname)
        if symbol.kind == "class":
            # Constructing a class "calls" its __init__ when it has one.
            init = self._method_on(symbol.module, symbol.qualname, "__init__")
            return init
        return None

    def _method_on(
        self, module: str, cls_name: str, method: str
    ) -> Optional[Tuple[str, str]]:
        minfo = self.index.module_for(module)
        if minfo is None:
            return None
        cls = minfo.classes.get(cls_name)
        seen: Set[str] = set()
        while cls is not None:
            if method in cls.methods:
                return (cls.module, cls.methods[method].qualname)
            # Single-hop inheritance walk over project-internal bases.
            next_cls = None
            for base in cls.bases:
                if base in seen or base == "?":
                    continue
                seen.add(base)
                symbol = self.index.resolve(base)
                if symbol is not None and symbol.kind == "class":
                    owner = self.index.module_for(symbol.module)
                    if owner is not None:
                        next_cls = owner.classes.get(symbol.qualname)
                        if next_cls is not None:
                            break
            cls = next_cls
        return None

    def _local_constructions(
        self, info: ModuleInfo, fi: FunctionInfo
    ) -> Dict[str, str]:
        """Local name -> dotted class name it is provably bound to.

        ``x = Foo()`` binds directly; ``x = make_foo()`` binds through a
        one-level factory whose return statement is directly
        ``return Foo(...)``.  Reassignment to anything unprovable clears
        the binding.
        """
        types: Dict[str, str] = {}
        body = getattr(fi.node, "body", [])
        for node in body if isinstance(body, list) else []:
            for sub in ast.walk(node):
                if not isinstance(sub, ast.Assign) or len(sub.targets) != 1:
                    continue
                target = sub.targets[0]
                if not isinstance(target, ast.Name):
                    continue
                dotted = self._constructed_class(info, sub.value)
                if dotted is not None:
                    types[target.id] = dotted
                else:
                    types.pop(target.id, None)
        return types

    def _constructed_class(
        self, info: ModuleInfo, value: ast.AST, depth: int = 0
    ) -> Optional[str]:
        if not isinstance(value, ast.Call) or depth > 1:
            return None
        symbol = self.index.resolve_call(info, value)  # type: ignore[arg-type]
        if symbol is None:
            return None
        if symbol.kind == "class":
            return symbol.dotted
        if symbol.kind == "function" and depth == 0:
            # One-level factory: return statement is directly a construction.
            owner = self.index.module_for(symbol.module)
            if owner is None:
                return None
            returns = [
                n for n in ast.walk(symbol.node)
                if isinstance(n, ast.Return) and n.value is not None
            ]
            classes = {
                self._constructed_class(owner, r.value, depth + 1)
                for r in returns
            }
            classes.discard(None)
            if len(classes) == 1:
                return classes.pop()
        return None

    def _collect_registrations(self, info: ModuleInfo) -> None:
        for node in ast.walk(info.tree):
            # @register(...) / @registry.register(...) decorators
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                for deco in node.decorator_list:
                    call = deco if isinstance(deco, ast.Call) else None
                    target = call.func if call is not None else deco
                    registry = self._registry_name(info, target)
                    if registry is None:
                        continue
                    qualname = node.name
                    self.registrations.append(PluginRegistration(
                        registry=registry,
                        target=(info.module, qualname),
                        path=info.path, line=node.lineno,
                    ))
            # register(plugin) call form
            elif isinstance(node, ast.Call):
                registry = self._registry_name(info, node.func)
                if registry is None:
                    continue
                for arg in node.args:
                    dotted = info.resolve_dotted(arg)
                    if dotted is None:
                        continue
                    symbol = self.index.resolve(dotted)
                    if symbol is not None and symbol.kind in {
                        "function", "class"
                    }:
                        self.registrations.append(PluginRegistration(
                            registry=registry,
                            target=(symbol.module, symbol.qualname),
                            path=info.path, line=node.lineno,
                        ))
        self.registrations.sort(
            key=lambda r: (r.path, r.line, r.registry, r.target)
        )

    def _registry_name(
        self, info: ModuleInfo, func: ast.AST
    ) -> Optional[str]:
        """Dotted name when ``func`` is a project ``register*`` symbol."""
        dotted = info.resolve_dotted(func)
        if dotted is None:
            return None
        tail = dotted.rsplit(".", 1)[-1]
        if not tail.startswith("register"):
            return None
        symbol = self.index.resolve(dotted)
        if symbol is None or symbol.kind not in {"function", "method"}:
            return None
        return dotted

    # -- queries ------------------------------------------------------------

    def callees(self, key: Tuple[str, str]) -> List[Tuple[str, str]]:
        return self._out.get(key, [])

    def callers(self, key: Tuple[str, str]) -> List[Tuple[str, str]]:
        return self._in.get(key, [])

    def registered_targets(self) -> List[Tuple[str, str]]:
        """Deduplicated, sorted (module, qualname) plugin roots."""
        return sorted({r.target for r in self.registrations})

    def to_dict(self) -> Dict[str, object]:
        """Deterministic JSON shape for golden tests."""
        return {
            "edges": [
                {
                    "caller": ".".join(e.caller),
                    "callee": ".".join(e.callee),
                    "line": e.line,
                }
                for e in self.edges
            ],
            "registrations": [
                {
                    "registry": r.registry,
                    "target": ".".join(r.target),
                    "path": r.path,
                    "line": r.line,
                }
                for r in self.registrations
            ],
        }

"""Forward dataflow over the call graph: reaching taints + summaries.

The framework is a small abstract interpreter: each function body is
walked in source order with an environment mapping local names to *taint
sets*, and the per-function results are condensed into
:class:`FunctionSummary` objects (what a call returns and which
parameters flow to the return value).  Summaries feed call sites, call
sites feed parameter taints, and the whole thing iterates to a fixpoint
(bounded, monotone — taint sets only grow) so a seeded RNG threaded
through three helpers in three modules still reaches the sink with its
provenance intact.

Taint kinds:

``rng``
    a seeded ``random.Random(seed)`` / ``numpy.random.default_rng(seed)``
    instance — private replication state that must never reach module
    scope (REP401);
``set``
    a hash-ordered ``set``/``frozenset`` value — iterating one in a
    decision path diverges under ``PYTHONHASHSEED`` (REP402).  Dict views
    are insertion-ordered in every supported interpreter and deliberately
    *not* tainted.

Parameter *markers* (kind ``#p<i>``) ride the same lattice so aliasing
falls out for free: ``h = param; return h`` still registers parameter ``i``
as flowing to the return value.  Markers never escape the public query API.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from .callgraph import CallGraph
from .project import (
    FunctionInfo,
    ModuleInfo,
    ProjectIndex,
    _expr_is_set,
)

__all__ = [
    "Taint",
    "FunctionSummary",
    "FunctionAnalysis",
    "ProjectDataflow",
]

TaintSet = FrozenSet["Taint"]
EMPTY: TaintSet = frozenset()

#: Constructors producing seeded RNG instances when called *with* a seed.
_RNG_CONSTRUCTORS = {
    "random.Random",
    "numpy.random.default_rng",
    "numpy.random.Generator",
    "numpy.random.RandomState",
}

#: Calls that return fresh, deterministically ordered data: taint dies.
_SANITIZERS = {"sorted", "len", "sum", "min", "max", "repr", "str", "id",
               "bool", "int", "float"}

#: Calls that preserve the (hash) order of their first argument.
_ORDER_PRESERVING = {"list", "tuple", "iter", "reversed", "enumerate"}

_MAX_ROUNDS = 8


@dataclass(frozen=True)
class Taint:
    """One provenance-carrying taint atom."""

    kind: str      #: "rng" | "set" | "#p<i>" (parameter marker)
    origin: str    #: dotted function (or class) where the value was born
    line: int      #: birth line in the origin module
    crossed: bool = False  #: has the value crossed a function boundary?

    def across(self) -> "Taint":
        if self.crossed:
            return self
        return Taint(self.kind, self.origin, self.line, True)

    @property
    def is_marker(self) -> bool:
        return self.kind.startswith("#p")

    @property
    def sort_key(self) -> Tuple[str, str, int, bool]:
        return (self.kind, self.origin, self.line, self.crossed)


def _cross(taints: TaintSet) -> TaintSet:
    return frozenset(t.across() for t in taints)


def _real(taints: TaintSet) -> TaintSet:
    return frozenset(t for t in taints if not t.is_marker)


@dataclass
class FunctionSummary:
    """Condensed effect of calling one function."""

    key: Tuple[str, str]
    returns: TaintSet = EMPTY               #: taints of the return value
    param_to_return: FrozenSet[int] = frozenset()

    def state(self) -> Tuple:
        return (self.returns, self.param_to_return)

    def to_dict(self) -> Dict[str, object]:
        """Deterministic JSON shape for golden tests (markers elided)."""
        return {
            "function": ".".join(self.key),
            "returns": sorted(
                {f"{t.kind}@{t.origin}:{t.line}" for t in _real(self.returns)}
            ),
            "param_to_return": sorted(self.param_to_return),
        }


class FunctionAnalysis:
    """One forward pass over a function (or module) body.

    Exposes the per-node taint map the inter-procedural checkers query:
    ``taint_of(node)`` for expressions, ``name_taints(name)`` for the join
    of everything ever bound to a local, plus the structured side tables
    (global writes, module writes, default-argument taints).
    """

    def __init__(
        self,
        df: "ProjectDataflow",
        info: ModuleInfo,
        fi: Optional[FunctionInfo],
        param_taints: Dict[int, TaintSet],
    ):
        self.df = df
        self.info = info
        self.fi = fi
        self.qualname = fi.qualname if fi is not None else "<module>"
        self.owner = (
            f"{info.module}.{self.qualname}" if fi is not None else info.module
        )
        self.env: Dict[str, TaintSet] = {}
        #: join of every taint a name was ever bound to (lambda captures)
        self.name_ever: Dict[str, TaintSet] = {}
        self._node_taints: Dict[int, TaintSet] = {}
        self.returns: Set[Taint] = set()
        self.param_to_return: Set[int] = set()
        #: (name, line, taints) for ``global X`` rebinds in this function
        self.global_writes: List[Tuple[str, int, TaintSet]] = []
        #: (name, line, taints) for module-level assignments (module pass)
        self.module_writes: List[Tuple[str, int, TaintSet]] = []
        #: (funcname, argname, line, taints) for default-arg expressions
        self.default_taints: List[Tuple[str, str, int, TaintSet]] = []
        #: call-site argument taints pushed to callees during fixpoint
        self.callee_args: List[Tuple[Tuple[str, str], Dict[int, TaintSet]]] = []

        self._param_index: Dict[str, int] = {}
        self._globals: Set[str] = set()
        if fi is not None:
            node = fi.node
            for i, name in enumerate(fi.param_names()):
                self._param_index[name] = i
                seed: Set[Taint] = {Taint(f"#p{i}", self.owner, node.lineno)}
                seed.update(param_taints.get(i, EMPTY))
                self.env[name] = frozenset(seed)
            self._local_types = df.graph._local_constructions(info, fi)
            body: Sequence[ast.stmt] = node.body  # type: ignore[attr-defined]
        else:
            self._local_types = {}
            body = info.tree.body
        self._exec_block(body)
        for name, taints in self.env.items():
            self._remember(name, taints)

    # -- public queries -----------------------------------------------------

    def taint_of(self, node: ast.AST) -> TaintSet:
        """Real (marker-free) taints of an analyzed expression node."""
        return _real(self._node_taints.get(id(node), EMPTY))

    def name_taints(self, name: str) -> TaintSet:
        """Join of every real taint ever bound to ``name``."""
        return _real(self.name_ever.get(name, EMPTY))

    def summary(self) -> FunctionSummary:
        key = self.fi.key if self.fi is not None else (self.info.module,
                                                       "<module>")
        return FunctionSummary(
            key=key,
            returns=frozenset(self.returns),
            param_to_return=frozenset(self.param_to_return),
        )

    # -- statement execution ------------------------------------------------

    def _exec_block(self, stmts: Sequence[ast.stmt]) -> None:
        for stmt in stmts:
            self._exec(stmt)

    def _exec(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            taints = self._eval(stmt.value)
            for target in stmt.targets:
                self._bind(target, taints, stmt)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._bind(stmt.target, self._eval(stmt.value), stmt)
        elif isinstance(stmt, ast.AugAssign):
            taints = self._eval(stmt.value)
            if isinstance(stmt.target, ast.Name):
                merged = self.env.get(stmt.target.id, EMPTY) | taints
                self._bind(stmt.target, merged, stmt)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                taints = self._eval(stmt.value)
                for t in taints:
                    if t.is_marker and t.origin == self.owner:
                        self.param_to_return.add(int(t.kind[2:]))
                    elif not t.is_marker:
                        self.returns.add(t)
        elif isinstance(stmt, ast.Expr):
            self._eval(stmt.value)
        elif isinstance(stmt, ast.Global):
            self._globals.update(stmt.names)
        elif isinstance(stmt, (ast.If,)):
            self._eval(stmt.test)
            before = dict(self.env)
            self._exec_block(stmt.body)
            after_body = dict(self.env)
            self.env = before
            self._exec_block(stmt.orelse)
            for name, taints in after_body.items():
                self.env[name] = self.env.get(name, EMPTY) | taints
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            iter_taints = self._eval(stmt.iter)
            self._bind(stmt.target, iter_taints, stmt)
            # Two passes so loop-carried taint reaches the first statement.
            self._exec_block(stmt.body)
            self._exec_block(stmt.body)
            self._exec_block(stmt.orelse)
        elif isinstance(stmt, ast.While):
            self._eval(stmt.test)
            self._exec_block(stmt.body)
            self._exec_block(stmt.body)
            self._exec_block(stmt.orelse)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                taints = self._eval(item.context_expr)
                if item.optional_vars is not None:
                    self._bind(item.optional_vars, taints, stmt)
            self._exec_block(stmt.body)
        elif isinstance(stmt, ast.Try):
            self._exec_block(stmt.body)
            for handler in stmt.handlers:
                self._exec_block(handler.body)
            self._exec_block(stmt.orelse)
            self._exec_block(stmt.finalbody)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # Nested defs are analyzed via their own FunctionInfo (module
            # level) — here we only evaluate default-arg expressions, which
            # run in *this* scope at definition time.
            for arg, default in self._defaults_of(stmt):
                taints = self._eval(default)
                if taints:
                    self.default_taints.append(
                        (stmt.name, arg, default.lineno, taints)
                    )
        elif isinstance(stmt, ast.ClassDef):
            for child in stmt.body:
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    for arg, default in self._defaults_of(child):
                        taints = self._eval(default)
                        if taints:
                            self.default_taints.append(
                                (f"{stmt.name}.{child.name}", arg,
                                 default.lineno, taints)
                            )
        # remaining statement kinds carry no bindings we model

    @staticmethod
    def _defaults_of(
        node: ast.AST,
    ) -> List[Tuple[str, ast.expr]]:
        args = node.args  # type: ignore[attr-defined]
        out: List[Tuple[str, ast.expr]] = []
        positional = args.posonlyargs + args.args
        for arg, default in zip(positional[len(positional) - len(args.defaults):],
                                args.defaults):
            out.append((arg.arg, default))
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                out.append((arg.arg, default))
        return out

    def _bind(self, target: ast.AST, taints: TaintSet, stmt: ast.stmt) -> None:
        if isinstance(target, ast.Name):
            name = target.id
            if name in self._globals:
                self.global_writes.append((name, stmt.lineno, _real(taints)))
            if self.fi is None:
                self.module_writes.append((name, stmt.lineno, _real(taints)))
            self.env[name] = taints
            self._remember(name, taints)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._bind(element, taints, stmt)
        if isinstance(target, ast.Starred):
            self._bind(target.value, taints, stmt)

    def _remember(self, name: str, taints: TaintSet) -> None:
        self.name_ever[name] = self.name_ever.get(name, EMPTY) | taints

    # -- expression evaluation ----------------------------------------------

    def _eval(self, node: ast.expr) -> TaintSet:
        taints = self._eval_inner(node)
        if taints:
            self._node_taints[id(node)] = taints
        return taints

    def _eval_inner(self, node: ast.expr) -> TaintSet:
        if isinstance(node, ast.Name):
            return self.env.get(node.id, EMPTY)
        if isinstance(node, ast.Call):
            return self._eval_call(node)
        if isinstance(node, ast.Attribute):
            return self._eval_attribute(node)
        if _expr_is_set(node):
            # The literal itself is a source; operands may carry more.
            taints: Set[Taint] = {Taint("set", self.owner, node.lineno)}
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.expr):
                    taints.update(self._eval(child))
            return frozenset(taints)
        if isinstance(node, ast.BinOp):
            return self._eval(node.left) | self._eval(node.right)
        if isinstance(node, ast.BoolOp):
            out: TaintSet = EMPTY
            for value in node.values:
                out |= self._eval(value)
            return out
        if isinstance(node, ast.IfExp):
            self._eval(node.test)
            return self._eval(node.body) | self._eval(node.orelse)
        if isinstance(node, (ast.Tuple, ast.List)):
            out = EMPTY
            for element in node.elts:
                out |= self._eval(element)
            return out
        if isinstance(node, ast.Starred):
            return self._eval(node.value)
        if isinstance(node, ast.NamedExpr):
            taints = self._eval(node.value)
            if isinstance(node.target, ast.Name):
                self.env[node.target.id] = taints
                self._remember(node.target.id, taints)
            return taints
        if isinstance(node, ast.Await):
            return self._eval(node.value)
        if isinstance(node, (ast.SetComp,)):
            self._eval_comp(node)
            return frozenset({Taint("set", self.owner, node.lineno)})
        if isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.DictComp)):
            return self._eval_comp(node)
        if isinstance(node, ast.Subscript):
            return self._eval(node.value)
        if isinstance(node, ast.Compare):
            self._eval(node.left)
            for comp in node.comparators:
                self._eval(comp)
            return EMPTY
        if isinstance(node, ast.UnaryOp):
            self._eval(node.operand)
            return EMPTY
        if isinstance(node, ast.Lambda):
            return EMPTY
        return EMPTY

    def _eval_comp(self, node: ast.expr) -> TaintSet:
        """Comprehensions: evaluate iterables so sinks inside are recorded."""
        out: TaintSet = EMPTY
        for gen in node.generators:  # type: ignore[attr-defined]
            out |= self._eval(gen.iter)
            self._bind(gen.target, EMPTY, ast.Pass(lineno=node.lineno))
            for cond in gen.ifs:
                self._eval(cond)
        if isinstance(node, (ast.ListComp, ast.GeneratorExp)):
            self._eval(node.elt)
        elif isinstance(node, ast.DictComp):
            self._eval(node.key)
            self._eval(node.value)
        return EMPTY

    def _eval_attribute(self, node: ast.Attribute) -> TaintSet:
        base = self._eval(node.value)
        if node.attr in self.df.set_attributes:
            # A set-typed attribute read is a *cross-function* source: the
            # set was built in __init__, this code iterates it elsewhere.
            return base | frozenset(
                {Taint("set", self.owner, node.lineno, crossed=True)}
            )
        return base

    def _eval_call(self, node: ast.Call) -> TaintSet:
        arg_taints = [self._eval(a) for a in node.args]
        kw_taints = {
            kw.arg: self._eval(kw.value)
            for kw in node.keywords if kw.arg is not None
        }
        for kw in node.keywords:
            if kw.arg is None:
                self._eval(kw.value)

        func = node.func
        simple = func.id if isinstance(func, ast.Name) else None
        if simple in _SANITIZERS:
            return EMPTY
        if simple in _ORDER_PRESERVING and node.args:
            return arg_taints[0]
        if simple in {"set", "frozenset"}:
            # The builtin constructors are sources just like set literals
            # (ast.Call dispatches here before _expr_is_set gets a look).
            source: Set[Taint] = {Taint("set", self.owner, node.lineno)}
            for taints in arg_taints:
                source.update(taints)
            return frozenset(source)

        dotted = self.info.resolve_dotted(func)
        if dotted in _RNG_CONSTRUCTORS and (node.args or node.keywords):
            return frozenset({Taint("rng", self.owner, node.lineno)})

        # The receiver of an argument-free method call runs too, so calls
        # inside it reach the fixpoint.
        if isinstance(func, ast.Attribute) and not node.args:
            self._eval(func.value)

        callee = self.df.graph.resolve_callee(
            self.info, self.fi, node, self._local_types
        )
        if callee is None:
            return EMPTY

        param_map = self._map_args(callee, node, arg_taints, kw_taints)
        self.callee_args.append((callee, param_map))
        summary = self.df.summaries.get(callee)
        if summary is None:
            return EMPTY
        result: Set[Taint] = set(_cross(_real(summary.returns)))
        for idx in summary.param_to_return:
            result.update(_cross(_real(param_map.get(idx, EMPTY))))
        return frozenset(result)

    # -- call-site helpers --------------------------------------------------

    def _map_args(
        self,
        callee: Tuple[str, str],
        node: ast.Call,
        arg_taints: List[TaintSet],
        kw_taints: Dict[str, TaintSet],
    ) -> Dict[int, TaintSet]:
        """Call-site taints per callee parameter index (self included)."""
        offset = 0
        if "." in callee[1] and isinstance(node.func, ast.Attribute):
            # Bound method call: parameter 0 is the receiver.
            offset = 1
        param_map: Dict[int, TaintSet] = {}
        if offset == 1:
            param_map[0] = self._eval(node.func.value)  # type: ignore[union-attr]
        for i, taints in enumerate(arg_taints):
            if taints:
                param_map[i + offset] = taints
        callee_info = self.df.index.module_for(callee[0])
        if callee_info is not None and callee[1] in callee_info.functions:
            names = callee_info.functions[callee[1]].param_names()
            for name, taints in kw_taints.items():
                if taints and name in names:
                    param_map[names.index(name)] = (
                        param_map.get(names.index(name), EMPTY) | taints
                    )
        return param_map


class ProjectDataflow:
    """Fixpoint driver + per-function analysis cache."""

    def __init__(
        self,
        index: ProjectIndex,
        graph: CallGraph,
        set_attributes: Sequence[str] = (),
    ):
        self.index = index
        self.graph = graph
        self.set_attributes = frozenset(set_attributes)
        self.summaries: Dict[Tuple[str, str], FunctionSummary] = {}
        self.param_taints: Dict[Tuple[str, str], Dict[int, TaintSet]] = {}
        self.analyses: Dict[Tuple[str, str], FunctionAnalysis] = {}
        self.module_analyses: Dict[str, FunctionAnalysis] = {}
        self._solve()

    @classmethod
    def build(
        cls,
        index: ProjectIndex,
        graph: CallGraph,
        set_attributes: Sequence[str] = (),
    ) -> "ProjectDataflow":
        return cls(index, graph, set_attributes)

    def _functions(self) -> List[Tuple[ModuleInfo, FunctionInfo]]:
        out: List[Tuple[ModuleInfo, FunctionInfo]] = []
        for path in sorted(self.index.modules):
            info = self.index.modules[path]
            for qualname in sorted(info.functions):
                out.append((info, info.functions[qualname]))
        return out

    def _solve(self) -> None:
        functions = self._functions()
        for _ in range(_MAX_ROUNDS):
            changed = False
            analyses: Dict[Tuple[str, str], FunctionAnalysis] = {}
            for info, fi in functions:
                analysis = FunctionAnalysis(
                    self, info, fi, self.param_taints.get(fi.key, {})
                )
                analyses[fi.key] = analysis
                summary = analysis.summary()
                previous = self.summaries.get(fi.key)
                if previous is None or previous.state() != summary.state():
                    changed = True
                self.summaries[fi.key] = summary
            # Push call-site taints into callee parameter joins.
            for analysis in analyses.values():
                for callee, param_map in analysis.callee_args:
                    slot = self.param_taints.setdefault(callee, {})
                    for idx, taints in param_map.items():
                        crossed = _cross(_real(taints))
                        if not crossed:
                            continue
                        merged = slot.get(idx, EMPTY) | crossed
                        if merged != slot.get(idx, EMPTY):
                            slot[idx] = merged
                            changed = True
            self.analyses = analyses
            if not changed:
                break
        # Module bodies run last so default args / module writes see final
        # function summaries.
        for path in sorted(self.index.modules):
            info = self.index.modules[path]
            self.module_analyses[info.module] = FunctionAnalysis(
                self, info, None, {}
            )

    # -- queries ------------------------------------------------------------

    def analysis_for(
        self, key: Tuple[str, str]
    ) -> Optional[FunctionAnalysis]:
        return self.analyses.get(key)

    def module_analysis(self, module: str) -> Optional[FunctionAnalysis]:
        return self.module_analyses.get(module)

    def summaries_dict(self) -> List[Dict[str, object]]:
        """Sorted, marker-free summary dump for golden tests."""
        out = []
        for key in sorted(self.summaries):
            summary = self.summaries[key]
            entry = summary.to_dict()
            if entry["returns"] or entry["param_to_return"]:
                out.append(entry)
        return out


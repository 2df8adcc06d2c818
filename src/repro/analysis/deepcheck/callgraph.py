"""Module import graph + call graph over the project's Python sources.

The graph resolves considerably more than a name index:

* **methods** — ``self.method()`` walks the enclosing class and its
  project-local bases; ``obj.method()`` uses local type inference
  (``obj = ClassName(...)`` assignments, parameter annotations, and
  per-class attribute types recovered from ``__init__``);
* **decorators** — a decorated function keeps its identity (call edges
  into the name reach the def) and the decorator expression itself
  becomes a ``decorator`` edge;
* **``functools.partial``** — ``partial(f, ...)`` adds a ``partial``
  edge to ``f`` from the enclosing function;
* **callable references** — a function passed as an argument or
  keyword (``ExperimentSpec(runner=run_fig04)``,
  ``set_defaults(func=_cmd_check)``) adds a ``ref`` edge, so the lab
  registry's entry points stay connected to the graph;
* **string-named entry points** — ``ExperimentSpec(name="fig04",
  runner=run_fig04)`` records ``"fig04" -> <node id>`` in
  :attr:`CallGraph.entry_points`, and ``getattr(obj, "method")(...)``
  with a constant string resolves like an attribute access.

Node ids are ``"<rel-path>::<qualname>"`` (``repro/dpdk/pmd.py::
PollModeDriver.rx_burst``).  Construction sorts the input file list
and every internal index, so the graph is a pure function of the file
*set* — module ordering cannot change it (property-tested).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, Optional, Set, Tuple

__all__ = [
    "CallGraph",
    "CallSite",
    "FuncNode",
    "build_callgraph",
]

#: Method names shared with dict/list/str builtins: never resolved by
#: name alone (a unique-name fallback would invent edges to them).
_AMBIGUOUS_METHODS: Set[str] = {
    "get",
    "items",
    "values",
    "keys",
    "update",
    "copy",
    "pop",
    "append",
    "extend",
    "add",
    "remove",
    "sort",
    "split",
    "join",
    "read",
    "write",
    "run",
    "close",
    "open",
    "format",
    "count",
    "index",
    "insert",
    "clear",
}

#: ``Callable[..., X]`` in an annotation: calling the annotated name
#: yields an ``X``.
_CALLABLE_RETURN_RE = re.compile(
    r"Callable\[.*?,\s*(?:[\"'])?([A-Za-z_][A-Za-z0-9_\.]*)(?:[\"'])?\]\s*$"
)

#: ``List[X]`` / ``Sequence[X]`` / ... in an annotation: iterating the
#: annotated name yields ``X`` values.
_CONTAINER_ELEM_RE = re.compile(
    r"^(?:typing\.)?(?:List|Sequence|Tuple|Iterable|Iterator|Set|"
    r"FrozenSet|Deque|list|tuple|set|frozenset)"
    r"\[\s*(?:[\"'])?([A-Za-z_][A-Za-z0-9_\.]*)"
)


@dataclass(frozen=True)
class CallSite:
    """One resolved edge: *caller* invokes (or references) *callee*."""

    callee: str
    line: int
    col: int
    #: ``call`` | ``ref`` | ``decorator`` | ``partial`` | ``getattr``.
    kind: str


@dataclass
class FuncNode:
    """One function or method definition in the scanned tree."""

    node_id: str
    rel: str
    name: str
    qualname: str
    class_name: Optional[str]
    line: int
    params: List[str]
    defaults: Dict[str, bool]  # param name -> has a default value
    tree: ast.AST = field(repr=False)

    def seed_params(self) -> List[str]:
        """Parameters that carry determinism (``seed``/``rng``)."""
        return [p for p in self.params if p in ("seed", "rng")]


@dataclass
class ClassInfo:
    rel: str
    name: str
    line: int
    bases: List[str]
    methods: Dict[str, str]  # method name -> node id
    attr_types: Dict[str, str]  # self.<attr> -> class name
    attr_elem_types: Dict[str, str]  # self.<attr> -> element class name


class CallGraph:
    """The whole-program view: functions, edges, imports, entry points."""

    def __init__(self) -> None:
        self.functions: Dict[str, FuncNode] = {}
        self.edges: Dict[str, List[CallSite]] = {}
        #: module rel-path -> sorted rel-paths it imports (project-only).
        self.imports: Dict[str, List[str]] = {}
        #: registry string name -> node id (``ExperimentSpec(name=...,
        #: runner=...)`` and friends).
        self.entry_points: Dict[str, str] = {}
        #: rel path -> parsed module (the trees the graph was built
        #: from; the FLOW rules read module globals from them).
        self.trees: Dict[str, ast.Module] = {}
        self._classes: Dict[str, ClassInfo] = {}  # "<rel>::<Class>"

    # -- queries -------------------------------------------------------

    @property
    def files(self) -> int:
        """Number of parsed source files."""
        return len(self.trees)

    def callees_of(self, node_id: str) -> List[CallSite]:
        """Outgoing edges of one function, in source order."""
        return list(self.edges.get(node_id, []))

    def callers_of(self, node_id: str) -> List[str]:
        """Ids of every function with an edge into *node_id*, sorted."""
        return sorted(
            caller
            for caller, sites in self.edges.items()
            if any(site.callee == node_id for site in sites)
        )

    def n_edges(self) -> int:
        """Total resolved edges."""
        return sum(len(sites) for sites in self.edges.values())

    def find(self, pattern: str) -> List[str]:
        """Node ids whose qualname equals or ends with *pattern*.

        ``"PollModeDriver.rx_burst"`` and ``"run_fleet_cell"`` both
        work; matches are sorted for determinism.
        """
        out = []
        for node_id, fn in self.functions.items():
            if fn.qualname == pattern or fn.qualname.endswith("." + pattern):
                out.append(node_id)
        return sorted(out)

    def class_info(self, rel: str, name: str) -> Optional[ClassInfo]:
        """Class metadata by defining file + class name."""
        return self._classes.get(f"{rel}::{name}")


# ----------------------------------------------------------------------
# Per-file parsing
# ----------------------------------------------------------------------


class Aliases:
    """Local name -> dotted path, from the file's import statements."""

    def __init__(self, tree: ast.Module) -> None:
        self.map: Dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.map[alias.asname or alias.name.split(".")[0]] = alias.name
            elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
                for alias in node.names:
                    self.map[alias.asname or alias.name] = (
                        f"{node.module}.{alias.name}"
                    )

    def dotted(self, name: str) -> Optional[str]:
        return self.map.get(name)

    def resolve(self, expr: ast.expr) -> Optional[str]:
        """``a.b.c`` with ``a`` replaced by what it was imported as."""
        parts: List[str] = []
        node = expr
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        parts.append(self.map.get(node.id, node.id))
        return ".".join(reversed(parts))


@dataclass
class _Source:
    rel: str
    module: str
    tree: ast.Module
    aliases: Aliases


def _rel_to_module(rel: str) -> str:
    rel = rel.replace("\\", "/")
    if rel.endswith("/__init__.py"):
        rel = rel[: -len("/__init__.py")]
    elif rel.endswith(".py"):
        rel = rel[: -len(".py")]
    return rel.replace("/", ".")


def _iter_defs(
    tree: ast.Module,
) -> Iterator[Tuple[Optional[ast.ClassDef], ast.AST]]:
    """Yield ``(owning class or None, funcdef)`` for every def.

    Nested functions are yielded with their outermost owner so their
    bodies still contribute callsites (attributed to the enclosing
    def via ``_funcdef_for_walk``).
    """
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield None, node
        elif isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield node, sub


def _params_of(node: ast.AST) -> Tuple[List[str], Dict[str, bool]]:
    assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    args = node.args
    names = [a.arg for a in args.posonlyargs + args.args]
    if names and names[0] in ("self", "cls"):
        names = names[1:]
    n_positional = len(names)
    n_defaults = len(args.defaults)
    has_default = {
        name: i >= n_positional - n_defaults for i, name in enumerate(names)
    }
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        names.append(arg.arg)
        has_default[arg.arg] = default is not None
    return names, has_default


def _annotation_class(annotation: Optional[ast.expr]) -> Optional[str]:
    """The class name an annotation pins, if recoverable.

    Handles plain names (``Mbuf``), dotted names, ``Optional[X]`` and
    ``Callable[..., X]`` (the *return* type — calling the annotated
    name yields an ``X``).
    """
    if annotation is None:
        return None
    text = ast.unparse(annotation)
    match = _CALLABLE_RETURN_RE.search(text)
    if match is not None:
        return match.group(1).rsplit(".", 1)[-1]
    text = text.strip("'\"")
    for wrapper in ("Optional[", "typing.Optional["):
        if text.startswith(wrapper) and text.endswith("]"):
            text = text[len(wrapper) : -1]
    # PEP 604 optional: ``X | None`` / ``None | X``.
    parts = [p.strip() for p in text.split("|")]
    non_none = [p for p in parts if p != "None"]
    if len(non_none) == 1:
        text = non_none[0]
    name = text.rsplit(".", 1)[-1]
    if name and name[0].isupper() and name.isidentifier():
        return name
    return None


def _annotation_elem_class(annotation: Optional[ast.expr]) -> Optional[str]:
    """The element class of a container annotation, if recoverable.

    ``List[NetworkFunction]`` -> ``NetworkFunction``: iterating the
    annotated value yields instances of that class.
    """
    if annotation is None:
        return None
    text = ast.unparse(annotation).strip("'\"")
    for wrapper in ("Optional[", "typing.Optional["):
        if text.startswith(wrapper) and text.endswith("]"):
            text = text[len(wrapper) : -1]
    match = _CONTAINER_ELEM_RE.match(text)
    if match is None:
        return None
    name = match.group(1).rsplit(".", 1)[-1]
    if name and name[0].isupper() and name.isidentifier():
        return name
    return None


# ----------------------------------------------------------------------
# Graph construction
# ----------------------------------------------------------------------


class _Builder:
    def __init__(self, sources: List[_Source]) -> None:
        self.sources = sources
        self.graph = CallGraph()
        for src in sources:
            self.graph.trees[src.rel] = src.tree
        #: dotted module -> rel path.
        self.module_index: Dict[str, str] = {
            src.module: src.rel for src in sources
        }
        #: function name -> sorted node ids (module-level defs only).
        self.by_name: Dict[str, List[str]] = {}
        #: method name -> sorted node ids (across every class).
        self.by_method: Dict[str, List[str]] = {}
        #: class name -> sorted "<rel>::<Class>" keys.
        self.class_keys: Dict[str, List[str]] = {}
        #: "<rel>::<qualname>" ids of module-level functions per module.
        self.module_funcs: Dict[str, Dict[str, str]] = {}

    # -- pass 1: declarations ------------------------------------------

    def collect(self) -> None:
        for src in self.sources:
            self.module_funcs.setdefault(src.rel, {})
            for node in src.tree.body:
                if isinstance(node, ast.ClassDef):
                    self._collect_class(src, node)
                elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    self._collect_function(src, None, node)
        for index in (self.by_name, self.by_method, self.class_keys):
            for key in index:
                index[key].sort()

    def _collect_function(
        self,
        src: _Source,
        owner: Optional[ast.ClassDef],
        node: ast.AST,
    ) -> FuncNode:
        assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        qualname = f"{owner.name}.{node.name}" if owner else node.name
        node_id = f"{src.rel}::{qualname}"
        params, defaults = _params_of(node)
        fn = FuncNode(
            node_id=node_id,
            rel=src.rel,
            name=node.name,
            qualname=qualname,
            class_name=owner.name if owner else None,
            line=node.lineno,
            params=params,
            defaults=defaults,
            tree=node,
        )
        self.graph.functions[node_id] = fn
        if owner is None:
            self.by_name.setdefault(node.name, []).append(node_id)
            self.module_funcs[src.rel][node.name] = node_id
        else:
            self.by_method.setdefault(node.name, []).append(node_id)
        return fn

    def _collect_class(self, src: _Source, node: ast.ClassDef) -> None:
        methods: Dict[str, str] = {}
        for sub in node.body:
            if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                fn = self._collect_function(src, node, sub)
                methods[sub.name] = fn.node_id
        bases = []
        for base in node.bases:
            text = ast.unparse(base).rsplit(".", 1)[-1]
            if text.isidentifier():
                bases.append(text)
        info = ClassInfo(
            rel=src.rel,
            name=node.name,
            line=node.lineno,
            bases=bases,
            methods=methods,
            attr_types={},
            attr_elem_types={},
        )
        self.graph._classes[f"{src.rel}::{node.name}"] = info
        self.class_keys.setdefault(node.name, []).append(
            f"{src.rel}::{node.name}"
        )

    # -- pass 2: per-class attribute types -----------------------------

    def infer_attr_types(self) -> None:
        for key in sorted(self.graph._classes):
            info = self.graph._classes[key]
            for method_id in sorted(info.methods.values()):
                fn = self.graph.functions[method_id]
                assert isinstance(
                    fn.tree, (ast.FunctionDef, ast.AsyncFunctionDef)
                )
                src = self._source_for(fn.rel)
                param_types = self._param_types(src, fn.tree)
                for stmt in ast.walk(fn.tree):
                    target: Optional[ast.expr] = None
                    value: Optional[ast.expr] = None
                    annotation: Optional[ast.expr] = None
                    if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                        target, value = stmt.targets[0], stmt.value
                    elif isinstance(stmt, ast.AnnAssign):
                        target, value = stmt.target, stmt.value
                        annotation = stmt.annotation
                    if not (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        continue
                    cls = _annotation_class(annotation)
                    if cls is None and value is not None:
                        cls = self._value_class(src, value, param_types)
                    if cls is not None and target.attr not in info.attr_types:
                        info.attr_types[target.attr] = cls
                    elem = _annotation_elem_class(annotation)
                    if elem is None and value is not None:
                        elem = self._value_elem_class(fn.tree, value)
                    if (
                        elem is not None
                        and elem in self.class_keys
                        and target.attr not in info.attr_elem_types
                    ):
                        info.attr_elem_types[target.attr] = elem

    def _param_types(
        self,
        src: _Source,
        node: ast.AST,
    ) -> Dict[str, str]:
        assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        args = node.args
        types: Dict[str, str] = {}
        for arg in args.posonlyargs + args.args + args.kwonlyargs:
            cls = _annotation_class(arg.annotation)
            if cls is not None and cls in self.class_keys:
                types[arg.arg] = cls
        return types

    def _value_elem_class(
        self, func: ast.AST, value: ast.expr
    ) -> Optional[str]:
        """Element class of ``self.x = list(param)`` / ``= param``.

        Looks the name up in the enclosing function's *container*
        parameter annotations (``nfs: Sequence[NetworkFunction]``).
        """
        assert isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        name: Optional[str] = None
        if isinstance(value, ast.Name):
            name = value.id
        elif (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id in ("list", "tuple", "sorted")
            and len(value.args) == 1
            and isinstance(value.args[0], ast.Name)
        ):
            name = value.args[0].id
        if name is None:
            return None
        args = func.args
        for arg in args.posonlyargs + args.args + args.kwonlyargs:
            if arg.arg == name:
                return _annotation_elem_class(arg.annotation)
        return None

    def _value_class(
        self,
        src: _Source,
        value: ast.expr,
        local_types: Dict[str, str],
        attr_types: Optional[Dict[str, str]] = None,
    ) -> Optional[str]:
        """The project class an expression evaluates to, if inferable."""
        if (
            attr_types is not None
            and isinstance(value, ast.Attribute)
            and isinstance(value.value, ast.Name)
            and value.value.id == "self"
        ):
            # `hierarchy = self.hierarchy` keeps the attribute's class.
            return attr_types.get(value.attr)
        if isinstance(value, ast.Call):
            callee = value.func
            if isinstance(callee, ast.Name):
                name = callee.id
                dotted = src.aliases.dotted(name)
                if dotted is not None:
                    name = dotted.rsplit(".", 1)[-1]
                if name in self.class_keys:
                    return name
                # Calling a Callable[..., X]-annotated local.
                if callee.id in local_types:
                    return local_types[callee.id]
            elif isinstance(callee, ast.Attribute):
                if callee.attr in self.class_keys:
                    return callee.attr
        elif isinstance(value, ast.Name) and value.id in local_types:
            return local_types[value.id]
        return None

    # -- pass 3: imports + edges ---------------------------------------

    def link(self) -> None:
        for src in self.sources:
            self._link_imports(src)
            for owner, node in _iter_defs(src.tree):
                fn_id = (
                    f"{src.rel}::{owner.name}.{node.name}"  # type: ignore[union-attr]
                    if owner
                    else f"{src.rel}::{node.name}"  # type: ignore[union-attr]
                )
                self._link_function(src, owner, node, fn_id)
        for caller in self.graph.edges:
            self.graph.edges[caller].sort(key=lambda s: (s.line, s.col, s.callee))

    def _link_imports(self, src: _Source) -> None:
        targets: Set[str] = set()
        for node in ast.walk(src.tree):
            modules: List[str] = []
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
                modules = [node.module] + [
                    f"{node.module}.{alias.name}" for alias in node.names
                ]
            for dotted in modules:
                rel = self.module_index.get(dotted)
                if rel is not None and rel != src.rel:
                    targets.add(rel)
        self.graph.imports[src.rel] = sorted(targets)

    def _link_function(
        self,
        src: _Source,
        owner: Optional[ast.ClassDef],
        node: ast.AST,
        fn_id: str,
    ) -> None:
        assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        local_types = self._param_types(src, node)
        attr_types: Optional[Dict[str, str]] = None
        if owner is not None:
            info = self.graph.class_info(src.rel, owner.name)
            if info is not None:
                attr_types = info.attr_types
        # One linear pre-pass for `x = ClassName(...)` local inference.
        for stmt in ast.walk(node):
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target = stmt.targets[0]
                if isinstance(target, ast.Name):
                    cls = self._value_class(
                        src, stmt.value, local_types, attr_types
                    )
                    if cls is not None:
                        local_types.setdefault(target.id, cls)
        # `for nf in self.nfs:` / `for nf in nfs:` — loop targets take
        # the container's element class.
        elem_params: Dict[str, str] = {}
        for arg in node.args.posonlyargs + node.args.args + node.args.kwonlyargs:
            elem = _annotation_elem_class(arg.annotation)
            if elem is not None and elem in self.class_keys:
                elem_params[arg.arg] = elem
        for stmt in ast.walk(node):
            if not isinstance(stmt, (ast.For, ast.AsyncFor)):
                continue
            if not isinstance(stmt.target, ast.Name):
                continue
            elem = self._iter_elem_class(src, owner, stmt.iter, elem_params)
            if elem is not None and elem in self.class_keys:
                local_types.setdefault(stmt.target.id, elem)
        sites: List[CallSite] = self.graph.edges.setdefault(fn_id, [])
        for decorator in node.decorator_list:
            target = self._resolve_expr(src, owner, decorator, local_types)
            if target is not None:
                sites.append(
                    CallSite(
                        callee=target,
                        line=decorator.lineno,
                        col=decorator.col_offset,
                        kind="decorator",
                    )
                )
        self._walk_body(src, owner, node, local_types, sites)

    def _walk_body(
        self,
        src: _Source,
        owner: Optional[ast.ClassDef],
        func: ast.AST,
        local_types: Dict[str, str],
        sites: List[CallSite],
    ) -> None:
        assert isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))

        def visit(node: ast.AST) -> None:
            # Pre-order, so nested defs contribute their callsites to
            # the enclosing function in source order.
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.Call):
                    self._link_call(src, owner, child, local_types, sites)
                visit(child)

        visit(func)

    def _link_call(
        self,
        src: _Source,
        owner: Optional[ast.ClassDef],
        call: ast.Call,
        local_types: Dict[str, str],
        sites: List[CallSite],
    ) -> None:
        kind = "call"
        target: Optional[str] = None
        func = call.func
        # functools.partial(f, ...) -> partial edge to f.
        dotted = src.aliases.resolve(func)
        if dotted in ("functools.partial", "partial"):
            if call.args:
                target = self._resolve_expr(
                    src, owner, call.args[0], local_types
                )
                if target is not None:
                    sites.append(
                        CallSite(
                            callee=target,
                            line=call.lineno,
                            col=call.col_offset,
                            kind="partial",
                        )
                    )
            target = None
        # getattr(obj, "method")(...) -> getattr edge.
        elif (
            isinstance(func, ast.Call)
            and isinstance(func.func, ast.Name)
            and func.func.id == "getattr"
            and len(func.args) >= 2
            and isinstance(func.args[1], ast.Constant)
            and isinstance(func.args[1].value, str)
        ):
            target = self._resolve_attr(
                src, owner, func.args[0], func.args[1].value, local_types
            )
            kind = "getattr"
        else:
            target = self._resolve_expr(src, owner, func, local_types)
        if target is not None:
            sites.append(
                CallSite(
                    callee=target,
                    line=call.lineno,
                    col=call.col_offset,
                    kind=kind,
                )
            )
        # Callable references in arguments/keywords -> ref edges, and
        # ExperimentSpec(name="...", runner=...) -> entry point.
        entry_name: Optional[str] = None
        entry_target: Optional[str] = None
        for kw in call.keywords:
            if kw.arg == "name" and isinstance(kw.value, ast.Constant):
                if isinstance(kw.value.value, str):
                    entry_name = kw.value.value
            if isinstance(kw.value, (ast.Name, ast.Attribute)):
                ref = self._resolve_expr(src, owner, kw.value, local_types)
                if ref is not None:
                    sites.append(
                        CallSite(
                            callee=ref,
                            line=kw.value.lineno,
                            col=kw.value.col_offset,
                            kind="ref",
                        )
                    )
                    if kw.arg in ("runner", "task_runner", "func"):
                        entry_target = entry_target or ref
        for arg in call.args:
            if isinstance(arg, (ast.Name, ast.Attribute)):
                ref = self._resolve_expr(src, owner, arg, local_types)
                if ref is not None:
                    sites.append(
                        CallSite(
                            callee=ref,
                            line=arg.lineno,
                            col=arg.col_offset,
                            kind="ref",
                        )
                    )
        if entry_name is not None and entry_target is not None:
            self.graph.entry_points.setdefault(entry_name, entry_target)

    # -- resolution helpers --------------------------------------------

    def _iter_elem_class(
        self,
        src: _Source,
        owner: Optional[ast.ClassDef],
        iterable: ast.expr,
        elem_params: Dict[str, str],
    ) -> Optional[str]:
        """Element class of a ``for`` iterable, if recoverable."""
        if isinstance(iterable, ast.Name):
            return elem_params.get(iterable.id)
        if (
            isinstance(iterable, ast.Attribute)
            and isinstance(iterable.value, ast.Name)
            and iterable.value.id == "self"
            and owner is not None
        ):
            info = self.graph.class_info(src.rel, owner.name)
            if info is not None:
                return info.attr_elem_types.get(iterable.attr)
        return None

    def _source_for(self, rel: str) -> _Source:
        for src in self.sources:
            if src.rel == rel:
                return src
        raise KeyError(rel)

    def _resolve_expr(
        self,
        src: _Source,
        owner: Optional[ast.ClassDef],
        expr: ast.expr,
        local_types: Dict[str, str],
    ) -> Optional[str]:
        """Resolve a callable expression to a node id, or ``None``."""
        if isinstance(expr, ast.Name):
            return self._resolve_name(src, expr.id)
        if isinstance(expr, ast.Attribute):
            receiver = expr.value
            return self._resolve_attr(
                src, owner, receiver, expr.attr, local_types
            )
        return None

    def _resolve_name(self, src: _Source, name: str) -> Optional[str]:
        # 1. A def in the same module.
        local = self.module_funcs.get(src.rel, {}).get(name)
        if local is not None:
            return local
        # 2. An imported project function or class.
        dotted = src.aliases.dotted(name)
        if dotted is not None:
            resolved = self._resolve_dotted(dotted)
            if resolved is not None:
                return resolved
        # 3. A project class in the same module (allocation).
        ctor = self._constructor_for(src.rel, name)
        if ctor is not None:
            return ctor
        # 4. A unique project-wide function name.
        candidates = self.by_name.get(name, [])
        if len(candidates) == 1:
            return candidates[0]
        return None

    def _resolve_dotted(self, dotted: str) -> Optional[str]:
        """``repro.dpdk.pmd.PollModeDriver`` -> its constructor, etc."""
        module, _, attr = dotted.rpartition(".")
        rel = self.module_index.get(module)
        if rel is None or not attr:
            # A bare module import cannot be called.
            return None
        fn = self.module_funcs.get(rel, {}).get(attr)
        if fn is not None:
            return fn
        return self._constructor_for(rel, attr)

    def _constructor_for(self, rel: str, class_name: str) -> Optional[str]:
        info = self.graph.class_info(rel, class_name)
        if info is None:
            # The class may live in (or be re-exported from) another
            # module; a unique project-wide name still resolves.
            keys = self.class_keys.get(class_name, [])
            if len(keys) != 1:
                return None
            info = self.graph._classes[keys[0]]
        ctor = self._lookup_method(info, "__init__")
        if ctor is not None:
            return ctor
        # A class with no explicit __init__ anchors at its first method
        # (construction still makes the class hot), else nothing.
        if info.methods:
            return info.methods[sorted(info.methods)[0]]
        return None

    def _lookup_method(self, info: ClassInfo, method: str) -> Optional[str]:
        """MRO-ish lookup: the class, then its project-local bases."""
        seen: Set[str] = set()
        queue: List[ClassInfo] = [info]
        while queue:
            current = queue.pop(0)
            key = f"{current.rel}::{current.name}"
            if key in seen:
                continue
            seen.add(key)
            if method in current.methods:
                return current.methods[method]
            for base in current.bases:
                for base_key in self.class_keys.get(base, []):
                    queue.append(self.graph._classes[base_key])
        return None

    def _resolve_attr(
        self,
        src: _Source,
        owner: Optional[ast.ClassDef],
        receiver: ast.expr,
        method: str,
        local_types: Dict[str, str],
    ) -> Optional[str]:
        receiver_class: Optional[ClassInfo] = None
        if isinstance(receiver, ast.Name):
            if receiver.id == "self" and owner is not None:
                receiver_class = self.graph.class_info(src.rel, owner.name)
            elif receiver.id in local_types:
                receiver_class = self._unique_class(local_types[receiver.id])
            else:
                dotted = src.aliases.dotted(receiver.id)
                if dotted is not None:
                    # module.func / package.Class
                    resolved = self._resolve_dotted(f"{dotted}.{method}")
                    if resolved is not None:
                        return resolved
                    cls = dotted.rsplit(".", 1)[-1]
                    receiver_class = self._unique_class(cls)
        elif (
            isinstance(receiver, ast.Attribute)
            and isinstance(receiver.value, ast.Name)
            and receiver.value.id == "self"
            and owner is not None
        ):
            info = self.graph.class_info(src.rel, owner.name)
            if info is not None:
                attr_cls = info.attr_types.get(receiver.attr)
                if attr_cls is not None:
                    receiver_class = self._unique_class(attr_cls)
        if receiver_class is not None:
            resolved = self._lookup_method(receiver_class, method)
            if resolved is not None:
                return resolved
        # Fallback: a method name defined by exactly one project class.
        if method not in _AMBIGUOUS_METHODS:
            candidates = self.by_method.get(method, [])
            if len(candidates) == 1:
                return candidates[0]
        return None

    def _unique_class(self, name: str) -> Optional[ClassInfo]:
        keys = self.class_keys.get(name, [])
        if not keys:
            return None
        # Identically named classes are rare; the first (sorted) key
        # keeps resolution deterministic either way.
        return self.graph._classes[keys[0]]


def build_callgraph(trees: Mapping[str, ast.Module]) -> CallGraph:
    """Build the whole-program graph from already parsed modules.

    *trees* maps each file's path relative to the scan root (which
    also names its module: ``repro/dpdk/pmd.py`` is ``repro.dpdk.pmd``)
    to its parsed tree.  The result is a pure function of that mapping:
    every index iterates in sorted order, so the order the files were
    found in cannot change the graph.
    """
    sources = [
        _Source(
            rel=rel,
            module=_rel_to_module(rel),
            tree=trees[rel],
            aliases=Aliases(trees[rel]),
        )
        for rel in sorted(trees)
    ]
    builder = _Builder(sources)
    builder.collect()
    builder.infer_attr_types()
    builder.link()
    return builder.graph

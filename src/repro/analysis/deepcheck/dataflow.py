"""Interprocedural seed/RNG taint analysis (the ``FLOW0xx`` family).

``repro check`` runs these rules over the call graph it builds from
its one parse of the tree, so they can follow a seed across a call
boundary and prove it was dropped on the floor:

* **FLOW001** — a function that *has* a seed/rng in scope calls a
  function that *accepts* one (with a default) without binding it: no
  keyword, no positional argument in its slot, no ``**`` splat.  The
  callee silently falls back to its default stream — the exact shape
  of the fig04 dropped-seed bug.  Passing some other seed-derived
  value (a ``plan``, a config) does not count: the callee's own seed
  still takes its default.
* **FLOW002** — a seeded context (seed/rng parameter, or a method of a
  class whose ``__init__`` takes one) constructs a fresh RNG from
  constant arguments only.  Deriving from the ambient seed is fine —
  the fault layer's per-site streams
  (``default_rng([plan.seed, crc32(site)])``) and the purpose-keyed
  ``default_rng([seed, 101])`` idiom both pass, because the
  constructor arguments are seed-tainted.  A constructor given no
  argument at all is SIM002's finding, not this one.
* **FLOW003** — code reachable from a lab registry entry point mutates
  a module-level object in place (``append``/``update``/subscript
  store/...).  Lab experiments run in worker processes; module state
  mutated there diverges between workers and silently differs from a
  serial run.  Rebinding a module global (``global X; X = ...``) is
  exempt: the registry's idempotent build-once cache is that idiom.

Taint is syntactic but interprocedural where it matters: a name is
tainted if it is a ``seed``/``rng`` parameter or was assigned from a
tainted expression, and *any* ``<obj>.seed``-like attribute read is
tainted (``plan.seed``, ``self.base_seed``), which is what lets
derived streams through without a type system.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.deepcheck.callgraph import CallGraph, FuncNode

__all__ = [
    "RNG_CONSTRUCTORS",
    "SEED_ATTRS",
    "RawFinding",
    "analyze_seed_flow",
    "collect_module_globals",
    "tainted_names",
    "worker_reachable",
]

#: Attribute names whose *read* carries determinism taint.
SEED_ATTRS: Set[str] = {
    "seed",
    "rng",
    "_rng",
    "base_seed",
    "seed_seq",
    "streams",
}

#: Callable names that construct a fresh RNG stream.
RNG_CONSTRUCTORS: Set[str] = {
    "default_rng",
    "RandomState",
    "Random",
    "SeedSequence",
    "PCG64",
    "Philox",
}

#: ``(code, rel path, anchor node, message)``: a rule hit before
#: ``repro check`` turns it into a located, suppressible ``Finding``.
RawFinding = Tuple[str, str, ast.AST, str]

#: Method names that mutate a list/dict/set in place.
_MUTATORS: Set[str] = {
    "append",
    "extend",
    "add",
    "update",
    "insert",
    "setdefault",
    "remove",
    "discard",
    "clear",
    "popitem",
}


def _iter_calls(fn: FuncNode) -> Iterator[ast.Call]:
    """Yield every call in *fn*'s body, in source (pre-)order."""

    def visit(node: ast.AST) -> Iterator[ast.Call]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                yield child
            yield from visit(child)

    return visit(fn.tree)


def _expr_tainted(expr: ast.expr, tainted: Set[str]) -> bool:
    """Whether *expr* contains any seed-tainted name or attribute."""
    for node in ast.walk(expr):
        if isinstance(node, ast.Name) and node.id in tainted:
            return True
        if isinstance(node, ast.Attribute) and node.attr in SEED_ATTRS:
            return True
    return False


def tainted_names(fn: FuncNode) -> Set[str]:
    """Seed-tainted local names of *fn*: seed params + assignments.

    Two fixed propagation passes over the assignments in source order —
    enough for the straight-line ``rng = default_rng(seed)`` /
    ``streams = make_streams(rng)`` chains this codebase writes.
    """
    tainted: Set[str] = set(fn.seed_params())
    for _ in range(2):
        for node in ast.walk(fn.tree):
            targets: List[ast.expr] = []
            value: Optional[ast.expr] = None
            if isinstance(node, ast.Assign):
                targets, value = list(node.targets), node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            if value is None or not _expr_tainted(value, tainted):
                continue
            for target in targets:
                if isinstance(target, ast.Name):
                    tainted.add(target.id)
                elif isinstance(target, (ast.Tuple, ast.List)):
                    for elt in target.elts:
                        if isinstance(elt, ast.Name):
                            tainted.add(elt.id)
    return tainted


def _class_is_seeded(graph: CallGraph, fn: FuncNode) -> bool:
    """Whether *fn* is a method of a class whose ``__init__`` is seeded."""
    if fn.class_name is None:
        return False
    info = graph.class_info(fn.rel, fn.class_name)
    if info is None:
        return False
    ctor_id = info.methods.get("__init__")
    if ctor_id is None:
        return False
    return bool(graph.functions[ctor_id].seed_params())


def _call_target(
    graph: CallGraph, fn: FuncNode, call: ast.Call
) -> Optional[FuncNode]:
    """The resolved callee of one AST call, matched by position."""
    for site in graph.callees_of(fn.node_id):
        if (
            site.line == call.lineno
            and site.col == call.col_offset
            and site.kind in ("call", "getattr")
        ):
            return graph.functions.get(site.callee)
    return None


def _callable_name(call: ast.Call) -> str:
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return ""


def _seed_forwarded(call: ast.Call, callee: FuncNode) -> bool:
    """Whether *call* binds one of *callee*'s seed/rng parameters."""
    seed_params = callee.seed_params()
    # Explicit keyword, or a **kwargs splat that could carry one.
    for kw in call.keywords:
        if kw.arg is None or kw.arg in seed_params:
            return True
    # Enough positionals to cover the first seed parameter.
    positions = [callee.params.index(p) for p in seed_params]
    return bool(positions) and len(call.args) > min(positions)


def _flow001(graph: CallGraph, fn: FuncNode) -> List[RawFinding]:
    findings: List[RawFinding] = []
    seen_lines: Set[int] = set()
    for call in _iter_calls(fn):
        callee = _call_target(graph, fn, call)
        if callee is None or callee.node_id == fn.node_id:
            continue
        seed_params = callee.seed_params()
        # Only defaulted seed params can be dropped *silently*; a
        # mandatory one raises TypeError at the callsite.
        if not seed_params or not all(
            callee.defaults.get(p, False) for p in seed_params
        ):
            continue
        if _seed_forwarded(call, callee):
            continue
        if call.lineno in seen_lines:
            continue
        seen_lines.add(call.lineno)
        findings.append(
            (
                "FLOW001",
                fn.rel,
                call,
                f"seed/rng in scope but not forwarded to "
                f"'{callee.qualname}' (accepts "
                f"'{', '.join(seed_params)}'): the callee falls back "
                f"to its default stream (fig04 dropped-seed class)",
            )
        )
    return findings


def _flow002(
    graph: CallGraph, fn: FuncNode, tainted: Set[str]
) -> List[RawFinding]:
    seeded = bool(fn.seed_params()) or _class_is_seeded(graph, fn)
    if not seeded:
        return []
    findings: List[RawFinding] = []
    for call in _iter_calls(fn):
        if _callable_name(call) not in RNG_CONSTRUCTORS:
            continue
        args: List[ast.expr] = list(call.args) + [
            kw.value for kw in call.keywords
        ]
        if not args or any(_expr_tainted(arg, tainted) for arg in args):
            continue  # unseeded (SIM002) or derived ([seed, purpose], ...)
        findings.append(
            (
                "FLOW002",
                fn.rel,
                call,
                f"'{_callable_name(call)}' re-seeded from constants "
                f"inside seeded '{fn.qualname}': derive the stream "
                f"from the ambient seed instead",
            )
        )
    return findings


def collect_module_globals(tree: ast.Module) -> Set[str]:
    """Module-level names bound by assignment (mutation candidates)."""
    names: Set[str] = set()
    for node in tree.body:
        targets: List[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        for target in targets:
            if isinstance(target, ast.Name):
                names.add(target.id)
    return names


def worker_reachable(graph: CallGraph) -> Dict[str, str]:
    """Node id -> the registry entry point that reaches it.

    BFS from every string-named entry point (``ExperimentSpec(name=...,
    runner=...)`` and split ``task_runner`` targets) over all edge
    kinds — this is the code that executes inside lab worker processes.
    """
    origin: Dict[str, str] = {}
    pending: List[str] = []
    for name in sorted(graph.entry_points):
        target = graph.entry_points[name]
        if target in graph.functions and target not in origin:
            origin[target] = name
            pending.append(target)
    while pending:
        current = pending.pop(0)
        for site in graph.callees_of(current):
            callee = site.callee
            if callee in graph.functions and callee not in origin:
                origin[callee] = origin[current]
                pending.append(callee)
    return origin


def _local_names(fn: FuncNode) -> Set[str]:
    """Names bound inside *fn* (params, assignments, loop targets)."""
    bound: Set[str] = set(fn.params)
    for node in ast.walk(fn.tree):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name):
                        bound.add(sub.id)
        elif isinstance(node, (ast.AnnAssign, ast.For, ast.AsyncFor)):
            target = node.target
            for sub in ast.walk(target):
                if isinstance(sub, ast.Name):
                    bound.add(sub.id)
        elif isinstance(node, ast.withitem) and node.optional_vars is not None:
            for sub in ast.walk(node.optional_vars):
                if isinstance(sub, ast.Name):
                    bound.add(sub.id)
        elif isinstance(node, ast.comprehension):
            for sub in ast.walk(node.target):
                if isinstance(sub, ast.Name):
                    bound.add(sub.id)
    return bound


def _flow003(
    fn: FuncNode,
    module_globals: Set[str],
    entry: str,
) -> List[RawFinding]:
    declared_global: Set[str] = set()
    for node in ast.walk(fn.tree):
        if isinstance(node, ast.Global):
            declared_global.update(node.names)
    # A name rebound or bound locally shadows the module global —
    # unless declared `global`, in which case plain rebinding is the
    # exempt cache idiom and only in-place mutation is flagged.
    shadowed = _local_names(fn) - declared_global
    candidates = module_globals - shadowed
    findings: List[RawFinding] = []
    for node in ast.walk(fn.tree):
        name: Optional[str] = None
        where: Optional[ast.AST] = None
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _MUTATORS
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in candidates
        ):
            name, where = node.func.value.id, node
        elif isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = (
                list(node.targets)
                if isinstance(node, ast.Assign)
                else [node.target]
            )
            for target in targets:
                if (
                    isinstance(target, ast.Subscript)
                    and isinstance(target.value, ast.Name)
                    and target.value.id in candidates
                ):
                    name, where = target.value.id, node
                elif (
                    isinstance(node, ast.AugAssign)
                    and isinstance(target, ast.Name)
                    and target.id in declared_global
                    and target.id in module_globals
                ):
                    name, where = target.id, node
        if name is not None and where is not None:
            findings.append(
                (
                    "FLOW003",
                    fn.rel,
                    where,
                    f"module-level '{name}' mutated in place on a "
                    f"lab-worker path (reached from entry point "
                    f"'{entry}'): state diverges across worker processes",
                )
            )
    return findings


def analyze_seed_flow(graph: CallGraph) -> List[RawFinding]:
    """Run FLOW001/002/003 over the whole graph.

    FLOW003's module globals come from the graph's parsed modules.
    """
    findings: List[RawFinding] = []
    globals_by_rel: Dict[str, Set[str]] = {
        rel: collect_module_globals(tree) for rel, tree in graph.trees.items()
    }
    reachable = worker_reachable(graph)
    for node_id in sorted(graph.functions):
        fn = graph.functions[node_id]
        tainted = tainted_names(fn)
        has_context = bool(tainted) or _class_is_seeded(graph, fn)
        if has_context:
            findings.extend(_flow001(graph, fn))
            findings.extend(_flow002(graph, fn, tainted))
        entry = reachable.get(node_id)
        if entry is not None and globals_by_rel.get(fn.rel):
            findings.extend(_flow003(fn, globals_by_rel[fn.rel], entry))
    return findings

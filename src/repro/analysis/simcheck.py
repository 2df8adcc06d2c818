"""simcheck: the repo's static analyser for simulation invariants.

The reproduction's headline guarantee is bit-identical determinism:
parallel lab runs equal serial runs, goldens hold across machines, and
every experiment is a pure function of its ``seed``.  ``simcheck``
(stdlib :mod:`ast`, no dependencies) turns the coding conventions
protecting that guarantee into machine-checked rules.  It parses each
file once; the per-file ``SIM`` rules walk those trees, and the
whole-program ``FLOW`` rules run over the call graph built from the
same trees (:mod:`repro.analysis.deepcheck`):

======= ================================================================
code    rule
======= ================================================================
SIM001  nondeterminism source called (``time.time``, ``random.random``,
        ``np.random.rand``, ``datetime.now``, ``os.urandom``, …)
SIM002  unseeded RNG constructed (``np.random.default_rng()`` or
        ``random.Random()`` with no arguments)
SIM003  iteration over a set literal / ``set()`` call (hash-order
        dependent) without ``sorted()``
SIM102  typing lie: a ``seed``/``rng``/``Generator`` parameter defaults
        to ``None`` but is not annotated ``Optional``
SIM201  engine parity: the fast engine and the reference hierarchy
        expose different access-API surfaces (method or kwarg drift)
SIM301  experiment module not registered in ``lab/registry.py``
SIM302  experiment module without a ``run_*`` entry point (its result
        serializes through ``repro.lab.spec.to_payload``)
SIM401  fault-injection code constructs its own RNG instead of drawing
        from ``FaultClock.stream(site)`` (breaks per-site replay)
FLOW001 a seed/rng in scope is not bound to a resolved callee's
        defaulted ``seed``/``rng`` parameter (the fig04 dropped seed)
FLOW002 an RNG re-seeded from constant arguments in a seeded context
FLOW003 module-level state mutated on a lab-worker path
SIM501  public def in ``src/repro`` that nothing in ``src/repro``
        references (whole-package scans only)
======= ================================================================

Suppressions
------------

Append ``# simcheck: ignore[SIM001]`` (or ``ignore[FLOW001]``, a
comma-separated list, or a bare ``# simcheck: ignore``) to the
offending line, ideally with a justification after the bracket.  Any
code, and the file-scope SIM301/SIM302 findings (anchored at line 1)
in particular, is silenced file-wide with
``# simcheck: ignore-file[CODE]`` anywhere in the file.  A module that
is deliberately a support library rather than an experiment entry
point can opt out of SIM301/SIM302 with a
``# simcheck: support-module`` comment anywhere in the file.  A public
def kept on purpose against SIM501 says why after the bracket on its
``def`` line, starting with one of five reasons: ``oracle``,
``e2ebench``, ``paper claim``, ``example`` or ``probe``.

Run it as ``repro check`` (or ``python -m repro.analysis``); see
``docs/CHECKS.md`` for the full rule catalogue and CI wiring.
"""

from __future__ import annotations

import ast
import dataclasses
import json
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.deepcheck.callgraph import (
    Aliases,
    CallGraph,
    ClassInfo,
    build_callgraph,
)
from repro.analysis.deepcheck.dataflow import analyze_seed_flow

__all__ = [
    "CheckResult",
    "Finding",
    "RULES",
    "collect_files",
    "format_result",
    "run_simcheck",
]

#: Rule code → one-line description (the catalogue `--list-rules` prints).
RULES: Dict[str, str] = {
    "SIM001": "nondeterminism source called in simulation code",
    "SIM002": "RNG constructed without a seed",
    "SIM003": "iteration over an unordered set (hash-order dependent)",
    "SIM102": "seed/rng parameter defaults to None but is not Optional",
    "SIM201": "fast engine and reference hierarchy API surfaces differ",
    "SIM302": "experiment module has no run_* entry point",
    "SIM301": "experiment module not registered in the lab registry",
    "SIM401": "fault-injection code constructs an RNG outside FaultClock",
    "FLOW001": "seed/rng in scope but not forwarded across a call boundary",
    "FLOW002": "RNG re-seeded from constants inside a seeded context",
    "FLOW003": "module-level state mutated on a lab-worker path",
    "SIM501": "public def that nothing else in the package references",
}

#: Dotted call targets that introduce nondeterminism (after normalising
#: ``numpy`` → ``np``).  ``random.Random`` and seeded ``default_rng``
#: are the sanctioned constructors and stay off this list.
_NONDET_CALLS: Set[str] = {
    "time.time",
    "time.time_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.process_time",
    "time.process_time_ns",
    "time.strftime",
    "datetime.now",
    "datetime.utcnow",
    "datetime.today",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
    "os.urandom",
    "os.getrandom",
    "uuid.uuid1",
    "uuid.uuid4",
    "secrets.token_bytes",
    "secrets.token_hex",
    "secrets.randbelow",
    "random.SystemRandom",
}

#: ``np.random.<fn>`` members that are deterministic constructors and
#: therefore allowed; every other direct ``np.random`` call is flagged.
_NP_RANDOM_ALLOWED: Set[str] = {
    "default_rng",
    "Generator",
    "SeedSequence",
    "PCG64",
    "PCG64DXSM",
    "Philox",
    "MT19937",
    "BitGenerator",
}

#: Parameter names that carry determinism through call chains.
_SEED_PARAMS: Tuple[str, str] = ("seed", "rng")

#: Call targets that construct a fresh RNG.  Inside fault-injection
#: code (rule SIM401) every random decision must instead come from a
#: ``FaultClock.stream(site)`` draw so each site replays bit-identically
#: from the persisted :class:`~repro.faults.plan.FaultPlan`.
_RNG_CONSTRUCTORS: Set[str] = {
    "np.random.default_rng",
    "np.random.Generator",
    "np.random.PCG64",
    "np.random.PCG64DXSM",
    "np.random.Philox",
    "np.random.MT19937",
    "random.Random",
}

#: Function names that mark fault-injection code for SIM401.  The
#: lookbehind keeps "default"/"default_rng" from reading as "fault".
_FAULT_NAME_RE = re.compile(r"(?<!de)fault|inject", re.IGNORECASE)

#: Modules under the faults package are fault-injection code wholesale —
#: except the plan module itself, which hosts the sanctioned per-site
#: stream factory (``FaultClock.stream``).
_FAULT_MODULE_RE = re.compile(r"(^|/)faults/")
_FAULT_PLAN_SUFFIX = "faults/plan.py"

#: The access-API surface that must stay in lock-step between the
#: reference hierarchy and the fast engine (rule SIM201): same methods,
#: same parameter names on both sides.
_PARITY_METHODS: Tuple[str, ...] = ("read", "write", "access_batch")

_SUPPRESS_RE = re.compile(
    r"#\s*simcheck:\s*ignore(?!-file)(?:\[(?P<codes>[A-Z0-9,\s]+)\])?"
)
_SUPPRESS_FILE_RE = re.compile(
    r"#\s*simcheck:\s*ignore-file\[(?P<codes>[A-Z0-9,\s]+)\]"
)
_SUPPORT_RE = re.compile(r"#\s*simcheck:\s*support-module")


@dataclass(frozen=True)
class Finding:
    """One rule violation (or suppressed violation) at a location."""

    code: str
    path: str
    line: int
    col: int
    message: str
    suppressed: bool = False

    def text(self) -> str:
        """Render in the classic ``path:line:col: CODE message`` shape."""
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"

    def github(self) -> str:
        """Render as a GitHub Actions workflow error annotation."""
        return (
            f"::error file={self.path},line={self.line},col={self.col},"
            f"title={self.code}::{self.message}"
        )

    def as_dict(self) -> Dict[str, object]:
        """Plain-dict form for ``--json`` output."""
        return {
            "code": self.code,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "suppressed": self.suppressed,
        }


@dataclass
class CheckResult:
    """Outcome of one simcheck run."""

    findings: List[Finding]
    files: int
    #: The whole-program call graph the FLOW rules ran over.
    graph: CallGraph = field(repr=False)

    @property
    def active(self) -> List[Finding]:
        """Findings that are not suppressed (what gates the exit code)."""
        return [f for f in self.findings if not f.suppressed]

    @property
    def suppressed(self) -> List[Finding]:
        """Findings silenced by an ignore comment."""
        return [f for f in self.findings if f.suppressed]


@dataclass
class _SourceFile:
    """A parsed source file plus its suppression metadata."""

    path: Path
    rel: str
    tree: ast.Module
    suppressions: Dict[int, Optional[Set[str]]]
    file_ignores: Set[str]
    support_module: bool


def _parse_suppressions(
    text: str,
) -> Tuple[Dict[int, Optional[Set[str]]], Set[str], bool]:
    suppress: Dict[int, Optional[Set[str]]] = {}
    file_ignores: Set[str] = set()
    support = False
    for lineno, line in enumerate(text.splitlines(), start=1):
        if "simcheck" not in line:
            continue
        if _SUPPORT_RE.search(line):
            support = True
        file_match = _SUPPRESS_FILE_RE.search(line)
        if file_match is not None:
            file_ignores.update(
                c.strip() for c in file_match.group("codes").split(",") if c.strip()
            )
        match = _SUPPRESS_RE.search(line)
        if match is None:
            continue
        codes = match.group("codes")
        if codes is None:
            suppress[lineno] = None
        else:
            parsed = {c.strip() for c in codes.split(",") if c.strip()}
            existing = suppress.get(lineno)
            if existing is None and lineno in suppress:
                continue  # blanket ignore already wins
            if existing is not None:
                parsed |= existing
            suppress[lineno] = parsed
    return suppress, file_ignores, support


def collect_files(paths: Sequence[Path]) -> List[Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    out: Set[Path] = set()
    for path in paths:
        if path.is_dir():
            out.update(p for p in path.rglob("*.py"))
        elif path.suffix == ".py":
            out.add(path)
    return sorted(out)


def _annotation_is_optional(annotation: Optional[ast.expr]) -> bool:
    if annotation is None:
        return True  # unannotated: nothing to lie about
    text = ast.unparse(annotation)
    return (
        "Optional" in text
        or "None" in text
        or text in ("object", "Any", "'object'", '"Any"')
    )


def _finding(code: str, rel: str, node: ast.AST, message: str) -> Finding:
    """A finding anchored at *node*, 1-based in both line and column.

    A module node (no position) anchors at 1:1, where the file-scope
    rules report.
    """
    return Finding(
        code=code,
        path=rel,
        line=getattr(node, "lineno", 1),
        col=getattr(node, "col_offset", 0) + 1,
        message=message,
    )


class _FileVisitor(ast.NodeVisitor):
    """Per-file checks: SIM001, SIM002, SIM003, SIM102, SIM401."""

    def __init__(self, src: _SourceFile) -> None:
        self.src = src
        self.aliases = Aliases(src.tree)
        self.findings: List[Finding] = []
        # Stack of enclosing function names (for SIM401's name heuristic).
        self._func_stack: List[str] = []
        self._fault_module = bool(
            _FAULT_MODULE_RE.search(src.rel)
        ) and not src.rel.endswith(_FAULT_PLAN_SUFFIX)
        self._fault_plan_module = src.rel.endswith(_FAULT_PLAN_SUFFIX)

    def _emit(self, code: str, node: ast.AST, message: str) -> None:
        self.findings.append(_finding(code, self.src.rel, node, message))

    # -- SIM001 / SIM002 on calls ---------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        dotted = self.aliases.resolve(node.func)
        if dotted is not None:
            if dotted.startswith("numpy."):
                dotted = "np." + dotted[len("numpy."):]
            self._check_nondet(node, dotted)
            self._check_fault_rng(node, dotted)
        self.generic_visit(node)

    # -- SIM401 on RNG construction in fault-injection code -------------

    def _check_fault_rng(self, node: ast.Call, dotted: str) -> None:
        if dotted not in _RNG_CONSTRUCTORS:
            return
        if self._fault_plan_module:
            return  # FaultClock's own stream factory is the sanctioned site
        in_fault_func = any(_FAULT_NAME_RE.search(n) for n in self._func_stack)
        if not (self._fault_module or in_fault_func):
            return
        self._emit(
            "SIM401",
            node,
            f"`{dotted}()` constructed inside fault-injection code — "
            "draw fault decisions from `FaultClock.stream(site)` so "
            "every site replays bit-identically from the persisted "
            "FaultPlan",
        )

    def _check_nondet(self, node: ast.Call, dotted: str) -> None:
        if dotted in _NONDET_CALLS:
            self._emit(
                "SIM001",
                node,
                f"call to nondeterministic `{dotted}()` — simulation "
                "results must be a pure function of the seed",
            )
            return
        if dotted.startswith("random.") and dotted.count(".") == 1:
            member = dotted.split(".", 1)[1]
            if member == "Random":
                if not node.args and not node.keywords:
                    self._emit(
                        "SIM002",
                        node,
                        "`random.Random()` constructed without a seed",
                    )
            elif member[0].islower():
                self._emit(
                    "SIM001",
                    node,
                    f"call to module-level `{dotted}()` uses the global "
                    "(unseeded) RNG; use a seeded `random.Random` or "
                    "`np.random.default_rng(seed)`",
                )
            return
        if dotted.startswith("np.random."):
            member = dotted.split(".", 2)[2]
            if "." in member:
                return
            if member == "default_rng":
                if not node.args and not node.keywords:
                    self._emit(
                        "SIM002",
                        node,
                        "`np.random.default_rng()` constructed without "
                        "a seed",
                    )
            elif member not in _NP_RANDOM_ALLOWED:
                self._emit(
                    "SIM001",
                    node,
                    f"call to legacy global-state `{dotted}()`; use "
                    "`np.random.default_rng(seed)`",
                )

    # -- SIM102 on function definitions ---------------------------------

    def _visit_funcdef(self, node: ast.AST) -> None:
        assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        args = node.args
        all_args = args.posonlyargs + args.args + args.kwonlyargs
        defaults: List[Optional[ast.expr]] = [None] * (
            len(args.posonlyargs) + len(args.args) - len(args.defaults)
        )
        defaults.extend(args.defaults)
        defaults.extend(args.kw_defaults)
        for arg, default in zip(all_args, defaults):
            annotation_text = (
                ast.unparse(arg.annotation) if arg.annotation is not None else ""
            )
            seedish = arg.arg in _SEED_PARAMS or "Generator" in annotation_text
            if (
                seedish
                and default is not None
                and isinstance(default, ast.Constant)
                and default.value is None
                and not _annotation_is_optional(arg.annotation)
            ):
                self._emit(
                    "SIM102",
                    arg,
                    f"parameter `{arg.arg}: {annotation_text} = None` "
                    "defaults to None but the annotation is not "
                    "Optional — annotate "
                    f"`Optional[{annotation_text}]`",
                )
        self._func_stack.append(node.name)
        self.generic_visit(node)
        self._func_stack.pop()

    visit_FunctionDef = _visit_funcdef
    visit_AsyncFunctionDef = _visit_funcdef

    # -- SIM003 on iteration sites --------------------------------------

    def _is_unordered_iterable(self, node: ast.expr) -> bool:
        if isinstance(node, ast.Set):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            return node.func.id in ("set", "frozenset") and not any(
                isinstance(a, ast.Starred) for a in node.args
            )
        return False

    def visit_For(self, node: ast.For) -> None:
        if self._is_unordered_iterable(node.iter):
            self._emit(
                "SIM003",
                node.iter,
                "iterating an unordered set — wrap in sorted() so "
                "results cannot depend on hash order",
            )
        self.generic_visit(node)

    def _visit_comprehension(self, node: ast.AST) -> None:
        for gen in getattr(node, "generators", []):
            if self._is_unordered_iterable(gen.iter):
                self._emit(
                    "SIM003",
                    gen.iter,
                    "comprehension over an unordered set — wrap in "
                    "sorted() so results cannot depend on hash order",
                )
        self.generic_visit(node)

    visit_ListComp = _visit_comprehension
    visit_SetComp = _visit_comprehension
    visit_DictComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension


# ----------------------------------------------------------------------
# Cross-file rules
# ----------------------------------------------------------------------

def _find_class(
    graph: CallGraph, path_suffix: str, name: str
) -> Optional[ClassInfo]:
    """Class *name* as defined in a file whose path ends in *path_suffix*."""
    for rel in sorted(graph.trees):
        info = graph.class_info(rel, name) if rel.endswith(path_suffix) else None
        if info is not None:
            return info
    return None


def _check_engine_parity(graph: CallGraph) -> List[Finding]:
    hierarchy = _find_class(graph, "cachesim/hierarchy.py", "CacheHierarchy")
    engine = _find_class(graph, "cachesim/engine.py", "FastEngine")
    if hierarchy is None or engine is None:
        return []
    findings: List[Finding] = []
    for method in _PARITY_METHODS:
        h_id = hierarchy.methods.get(method)
        e_id = engine.methods.get(method)
        if h_id is None or e_id is None:
            lacking = hierarchy if h_id is None else engine
            findings.append(
                Finding(
                    code="SIM201",
                    path=lacking.rel,
                    line=lacking.line,
                    col=1,
                    message=(
                        f"access-API method `{method}` missing from "
                        f"{lacking.name} — the engines must expose the "
                        "same surface"
                    ),
                )
            )
            continue
        h_fn = graph.functions[h_id]
        h_params = set(h_fn.params)
        e_params = set(graph.functions[e_id].params)
        if h_params != e_params:
            only_h = sorted(h_params - e_params)
            only_e = sorted(e_params - h_params)
            drift = []
            if only_h:
                drift.append(f"CacheHierarchy-only kwargs {only_h}")
            if only_e:
                drift.append(f"FastEngine-only kwargs {only_e}")
            findings.append(
                _finding(
                    "SIM201",
                    h_fn.rel,
                    h_fn.tree,
                    f"access-API method `{method}` signature drift: "
                    + "; ".join(drift),
                )
            )
    return findings


def _registry_imports(registry: _SourceFile) -> Set[str]:
    modules: Set[str] = set()
    for node in ast.walk(registry.tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            if node.module == "repro.experiments":
                modules.update(alias.name for alias in node.names)
            elif node.module.startswith("repro.experiments."):
                modules.add(node.module.rsplit(".", 1)[1])
    return modules


def _check_experiment_hygiene(files: Sequence[_SourceFile]) -> List[Finding]:
    registry = next(
        (f for f in files if f.rel.endswith("lab/registry.py")), None
    )
    experiments = [
        f
        for f in files
        if f.path.parent.name == "experiments" and f.path.name != "__init__.py"
    ]
    if not experiments:
        return []
    findings: List[Finding] = []
    registered = _registry_imports(registry) if registry is not None else None
    for src in experiments:
        if src.support_module:
            continue
        module = src.path.stem
        has_runner = any(
            isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name.startswith("run_")
            for node in src.tree.body
        )
        if not has_runner:
            findings.append(
                _finding(
                    "SIM302",
                    src.rel,
                    src.tree,
                    f"experiment module `{module}` misses a `run_*` entry "
                    "point — every experiment must honour the --seed/--json "
                    "contract (mark deliberate libraries with "
                    "`# simcheck: support-module`)",
                )
            )
        if registered is not None and module not in registered:
            findings.append(
                _finding(
                    "SIM301",
                    src.rel,
                    src.tree,
                    f"experiment module `{module}` is not imported "
                    "by lab/registry.py — register it so `repro lab "
                    "run --all` and CI cover it (or mark it "
                    "`# simcheck: support-module`)",
                )
            )
    return findings


def _package_root(paths: Sequence[Path]) -> Optional[Path]:
    """The ``repro`` package directory when *paths* scan all of it.

    SIM501 asks whether anything in the package names a def, which a
    partial scan cannot answer.
    """
    for path in paths:
        if path.resolve().name == "repro" and (path / "__init__.py").is_file():
            return path
    return None


def _is_all_assign(node: ast.AST) -> bool:
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    else:
        return False
    return any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets)


def _name_uses(node: ast.AST, reexport: bool = False) -> Iterable[str]:
    """Every identifier *node* references: names, attributes and
    identifier strings (``getattr`` and registry lookups).

    ``__all__`` lists and plain imports are declarations, not uses; an
    import renamed with ``as`` is a use of the original name, except
    in a *reexport* module (an ``__init__.py``).
    """
    stack = [node]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                yield node.value
        elif isinstance(node, ast.alias):
            if node.asname is not None and not reexport:
                yield node.name
        elif _is_all_assign(node):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _public_defs(node: ast.AST, prefix: str = "") -> Iterable[Tuple[str, ast.AST]]:
    """(qualified name, node) of every public function, class and
    method outside a function body (``if``/``try`` blocks included).
    Dunders and ``visit_*`` dispatch targets are exempt."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not child.name.startswith(("_", "visit_")):
                yield prefix + child.name, child
            if isinstance(child, ast.ClassDef):
                yield from _public_defs(child, f"{prefix}{child.name}.")
        elif isinstance(child, (ast.stmt, ast.excepthandler)):
            yield from _public_defs(child, prefix)


def _check_dead_defs(files: Sequence[_SourceFile], package: Path) -> List[Finding]:
    """SIM501: a public def whose name nothing else in *package* uses."""
    pkg_files = [f for f in files if f.path.is_relative_to(package)]
    uses: Dict[str, int] = {}
    for src in pkg_files:
        for name in _name_uses(src.tree, reexport=src.path.name == "__init__.py"):
            uses[name] = uses.get(name, 0) + 1
    findings: List[Finding] = []
    for src in pkg_files:
        for qualname, node in _public_defs(src.tree):
            name = qualname.rsplit(".", 1)[-1]
            own = sum(1 for n in _name_uses(node) if n == name)
            if uses.get(name, 0) > own:
                continue
            kind = "class" if isinstance(node, ast.ClassDef) else "def"
            findings.append(
                _finding(
                    "SIM501",
                    src.rel,
                    node,
                    f"public {kind} `{qualname}` is referenced nowhere "
                    "else in the package — delete it, or keep it on "
                    "purpose with an ignore[SIM501] comment naming one "
                    "of the reasons in docs/CHECKS.md",
                )
            )
    return findings


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------

def _load(path: Path, root: Path) -> Optional[_SourceFile]:
    try:
        text = path.read_text(encoding="utf-8")
        tree = ast.parse(text, filename=str(path))
    except (OSError, SyntaxError) as exc:
        print(f"simcheck: cannot parse {path}: {exc}", file=sys.stderr)
        return None
    try:
        rel = path.relative_to(root).as_posix()
    except ValueError:
        rel = path.as_posix()
    suppressions, file_ignores, support = _parse_suppressions(text)
    return _SourceFile(
        path=path,
        rel=rel,
        tree=tree,
        suppressions=suppressions,
        file_ignores=file_ignores,
        support_module=support,
    )


def _apply_suppressions(
    findings: Iterable[Finding],
    files: Dict[str, _SourceFile],
) -> List[Finding]:
    out: List[Finding] = []
    for finding in findings:
        src = files.get(finding.path)
        suppressed = False
        if src is not None:
            if finding.code in src.file_ignores:
                suppressed = True
            codes = src.suppressions.get(finding.line, "absent")
            if codes is None:
                suppressed = True
            elif isinstance(codes, set) and finding.code in codes:
                suppressed = True
        if suppressed:
            finding = dataclasses.replace(finding, suppressed=True)
        out.append(finding)
    return out


def run_simcheck(
    paths: Sequence[Path],
    root: Optional[Path] = None,
    select: Optional[Set[str]] = None,
    exclude: Optional[Set[str]] = None,
) -> CheckResult:
    """Run every rule over *paths* (files or directories).

    Each file is parsed once: the per-file rules walk the trees and the
    call graph for the cross-file and FLOW rules is built from them.

    Args:
        paths: what to scan.
        root: base directory findings are reported relative to
            (default: the current working directory).
        select: restrict to a subset of rule codes.
        exclude: drop these rule codes (applied after *select*).

    Returns:
        A :class:`CheckResult`; ``result.active`` gates the exit code.
    """
    root = root if root is not None else Path.cwd()
    files = [
        src
        for src in (_load(p, root) for p in collect_files(paths))
        if src is not None
    ]
    graph = build_callgraph({src.rel: src.tree for src in files})
    findings: List[Finding] = []
    for src in files:
        visitor = _FileVisitor(src)
        visitor.visit(src.tree)
        findings.extend(visitor.findings)
    findings.extend(_check_engine_parity(graph))
    findings.extend(_check_experiment_hygiene(files))
    package = _package_root(paths)
    if package is not None:
        findings.extend(_check_dead_defs(files, package))
    findings.extend(
        _finding(code, rel, node, message)
        for code, rel, node, message in analyze_seed_flow(graph)
    )
    if select:
        findings = [f for f in findings if f.code in select]
    if exclude:
        findings = [f for f in findings if f.code not in exclude]
    findings = _apply_suppressions(findings, {src.rel: src for src in files})
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.code))
    return CheckResult(findings=findings, files=len(files), graph=graph)


def format_result(result: CheckResult, mode: str = "text") -> str:
    """Render a result as ``text``, ``json`` or ``github`` output."""
    if mode == "json":
        return json.dumps(
            {
                "files": result.files,
                "findings": [f.as_dict() for f in result.active],
                "suppressed": [f.as_dict() for f in result.suppressed],
            },
            indent=2,
            sort_keys=True,
        )
    lines: List[str] = []
    for finding in result.active:
        lines.append(finding.github() if mode == "github" else finding.text())
    lines.append(
        f"simcheck: {len(result.active)} finding(s), "
        f"{len(result.suppressed)} suppressed, {result.files} file(s) checked"
    )
    return "\n".join(lines)

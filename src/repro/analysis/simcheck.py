"""simcheck: repo-specific static analysis for simulation invariants.

The reproduction's headline guarantee is bit-identical determinism:
parallel lab runs equal serial runs, goldens hold across machines, and
every experiment is a pure function of its ``seed``.  ``simcheck`` is
an AST-based linter (stdlib :mod:`ast`, no dependencies) that turns the
coding conventions protecting that guarantee into machine-checked
rules:

====== =================================================================
code   rule
====== =================================================================
SIM001 nondeterminism source called (``time.time``, ``random.random``,
       ``np.random.rand``, ``datetime.now``, ``os.urandom``, …)
SIM002 unseeded RNG constructed (``np.random.default_rng()`` or
       ``random.Random()`` with no arguments)
SIM003 iteration over a set literal / ``set()`` call (hash-order
       dependent) without ``sorted()``
SIM101 seed not threaded: a function taking ``seed``/``rng`` calls a
       stochastic callee (one that accepts ``seed``/``rng``) without
       passing either through
SIM102 typing lie: a ``seed``/``rng``/``Generator`` parameter defaults
       to ``None`` but is not annotated ``Optional``
SIM201 engine parity: the fast engine and the reference hierarchy
       expose different access-API surfaces (method or kwarg drift)
SIM301 experiment module not registered in ``lab/registry.py``
SIM302 experiment module missing the serializer contract (no ``run_*``
       or no ``*_to_dict`` top-level function)
SIM401 fault-injection code constructs its own RNG instead of drawing
       from ``FaultClock.stream(site)`` (breaks per-site replay)
====== =================================================================

Suppressions
------------

Append ``# simcheck: ignore[SIM001]`` (or a comma-separated list, or a
bare ``# simcheck: ignore``) to the offending line, ideally with a
justification after the bracket.  File-scope findings (SIM301/SIM302
anchor at line 1) are silenced with ``# simcheck: ignore-file[SIMxxx]``
anywhere in the file.  A module that is deliberately a support library
rather than an experiment entry point can opt out of SIM301/SIM302
with a ``# simcheck: support-module`` comment anywhere in the file.

Run it as ``repro check`` (or ``python -m repro.analysis``); see
``docs/CHECKS.md`` for the full rule catalogue and CI wiring.
"""

from __future__ import annotations

import ast
import json
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

__all__ = [
    "CheckResult",
    "Finding",
    "RULES",
    "collect_files",
    "main",
    "run_simcheck",
]

#: Rule code → one-line description (the catalogue `--list-rules` prints).
RULES: Dict[str, str] = {
    "SIM001": "nondeterminism source called in simulation code",
    "SIM002": "RNG constructed without a seed",
    "SIM003": "iteration over an unordered set (hash-order dependent)",
    "SIM101": "seed/rng parameter not threaded to a stochastic callee",
    "SIM102": "seed/rng parameter defaults to None but is not Optional",
    "SIM201": "fast engine and reference hierarchy API surfaces differ",
    "SIM302": "experiment module misses the run_*/*_to_dict contract",
    "SIM301": "experiment module not registered in the lab registry",
    "SIM401": "fault-injection code constructs an RNG outside FaultClock",
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

#: Method names shared with dict/str builtins; attribute calls to these
#: are never matched against the project signature index by name alone.
_AMBIGUOUS_METHODS: Set[str] = {"get", "items", "values", "update", "copy", "pop"}

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

    findings: List[Finding] = field(default_factory=list)
    files: int = 0

    @property
    def active(self) -> List[Finding]:
        """Findings that are not suppressed (what gates the exit code)."""
        return [f for f in self.findings if not f.suppressed]

    @property
    def suppressed(self) -> List[Finding]:
        """Findings silenced by an ignore comment."""
        return [f for f in self.findings if f.suppressed]


@dataclass
class _FuncSig:
    """Signature facts simcheck needs about one function or method."""

    name: str
    qualname: str
    params: List[str]
    required: int
    is_method: bool
    line: int
    path: str

    def seed_positions(self) -> List[int]:
        """Indices of seed/rng parameters in positional order."""
        return [i for i, p in enumerate(self.params) if p in _SEED_PARAMS]


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


class _ImportTracker:
    """Map local names to the dotted module paths they came from."""

    def __init__(self, tree: ast.Module) -> None:
        self.aliases: Dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.aliases[alias.asname or alias.name.split(".")[0]] = (
                        alias.name
                    )
            elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
                for alias in node.names:
                    self.aliases[alias.asname or alias.name] = (
                        f"{node.module}.{alias.name}"
                    )

    def resolve_call(self, func: ast.expr) -> Optional[str]:
        """Resolve a call target to a dotted path, or ``None``."""
        parts: List[str] = []
        node = func
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        base = self.aliases.get(node.id, node.id)
        parts.append(base)
        dotted = ".".join(reversed(parts))
        return dotted.replace("numpy.", "np.", 1) if dotted.startswith("numpy.") else dotted


def _iter_functions(tree: ast.Module) -> Iterable[Tuple[Optional[str], ast.AST]]:
    """Yield ``(class_name, funcdef)`` for every def in a module."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield None, node
        elif isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield node.name, sub


def _signature(
    owner: Optional[str],
    node: ast.AST,
    rel: str,
) -> Optional[_FuncSig]:
    assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    args = node.args
    params = [a.arg for a in args.posonlyargs + args.args]
    is_method = owner is not None and bool(params) and params[0] in ("self", "cls")
    if is_method:
        params = params[1:]
    n_defaults = len(args.defaults)
    required = len(params) - n_defaults
    kwonly = [a.arg for a in args.kwonlyargs]
    return _FuncSig(
        name=node.name,
        qualname=f"{owner}.{node.name}" if owner else node.name,
        params=params + kwonly,
        required=max(required, 0),
        is_method=is_method,
        line=node.lineno,
        path=rel,
    )


class _Index:
    """Project-wide signature and class index for cross-call rules."""

    def __init__(self, files: Sequence[_SourceFile]) -> None:
        # name → signatures (functions, methods and class constructors).
        self.by_name: Dict[str, List[_FuncSig]] = {}
        # "<path-suffix>::<Class>" → {method name → sig}.
        self.classes: Dict[str, Dict[str, _FuncSig]] = {}
        for src in files:
            for owner, node in _iter_functions(src.tree):
                sig = _signature(owner, node, src.rel)
                if sig is None:
                    continue
                if owner is not None:
                    self.classes.setdefault(
                        f"{src.rel}::{owner}", {}
                    )[sig.name] = sig
                key = sig.name
                if owner is not None and sig.name == "__init__":
                    key = owner  # constructors are called by class name
                if sig.name.startswith("__") and sig.name != "__init__":
                    continue
                self.by_name.setdefault(key, []).append(sig)

    def seeded_sigs(self, name: str) -> List[_FuncSig]:
        """Signatures under *name* — only if **all** accept seed/rng."""
        sigs = self.by_name.get(name, [])
        if not sigs:
            return []
        if all(sig.seed_positions() for sig in sigs):
            return sigs
        return []

    def find_class(self, path_suffix: str, name: str) -> Optional[Dict[str, _FuncSig]]:
        """Locate a class's method map by path suffix + class name."""
        for key, methods in self.classes.items():
            rel, _, cls = key.partition("::")
            if cls == name and rel.replace("\\", "/").endswith(path_suffix):
                return methods
        return None


def _annotation_is_optional(annotation: Optional[ast.expr]) -> bool:
    if annotation is None:
        return True  # unannotated: nothing to lie about
    text = ast.unparse(annotation)
    return (
        "Optional" in text
        or "None" in text
        or text in ("object", "Any", "'object'", '"Any"')
    )


class _FileVisitor(ast.NodeVisitor):
    """Per-file checks: SIM001, SIM002, SIM003, SIM101, SIM102."""

    def __init__(self, src: _SourceFile, index: _Index) -> None:
        self.src = src
        self.index = index
        self.imports = _ImportTracker(src.tree)
        self.findings: List[Finding] = []
        # Stack of seed/rng parameter-name sets for enclosing functions.
        self._seed_scope: List[Set[str]] = []
        # Stack of enclosing function names (for SIM401's name heuristic).
        self._func_stack: List[str] = []
        rel = src.rel.replace("\\", "/")
        self._fault_module = bool(
            _FAULT_MODULE_RE.search(rel)
        ) and not rel.endswith(_FAULT_PLAN_SUFFIX)
        self._fault_plan_module = rel.endswith(_FAULT_PLAN_SUFFIX)

    def _emit(self, code: str, node: ast.AST, message: str) -> None:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0) + 1
        self.findings.append(
            Finding(code=code, path=self.src.rel, line=line, col=col, message=message)
        )

    # -- SIM001 / SIM002 / SIM101 on calls -----------------------------

    def visit_Call(self, node: ast.Call) -> None:
        dotted = self.imports.resolve_call(node.func)
        if dotted is not None:
            self._check_nondet(node, dotted)
            self._check_fault_rng(node, dotted)
        self._check_seed_threading(node)
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

    def _check_seed_threading(self, node: ast.Call) -> None:
        if not self._seed_scope or not self._seed_scope[-1]:
            return
        func = node.func
        if isinstance(func, ast.Name):
            name = func.id
            dotted = self.imports.resolve_call(func)
            if dotted is not None and "." in dotted:
                name = dotted.rsplit(".", 1)[1]
        elif isinstance(func, ast.Attribute):
            base = func.value
            if isinstance(base, ast.Name) and self.imports.resolve_call(func):
                resolved = self.imports.resolve_call(func)
                if resolved and resolved.split(".", 1)[0] in (
                    "np",
                    "time",
                    "random",
                    "os",
                    "datetime",
                ):
                    return  # stdlib/numpy surface — SIM001's domain
            name = func.attr
            if name in _AMBIGUOUS_METHODS:
                return
        else:
            return
        sigs = self.index.seeded_sigs(name)
        if not sigs:
            return
        if any(isinstance(a, ast.Starred) for a in node.args) or any(
            kw.arg is None for kw in node.keywords
        ):
            return  # *args / **kwargs: not statically analysable
        kw_names = {kw.arg for kw in node.keywords if kw.arg is not None}
        if kw_names & set(_SEED_PARAMS):
            return
        for arg in node.args:
            if isinstance(arg, ast.Name) and arg.id in _SEED_PARAMS:
                return
            if isinstance(arg, ast.Attribute) and arg.attr in _SEED_PARAMS:
                return
        n_pos = len(node.args)
        required = min(sig.required for sig in sigs)
        n_supplied = n_pos + len(kw_names)
        if n_supplied < required:
            return  # cannot be this callee (missing required params)
        # Positionally covered seed params count as threaded.
        if any(pos < n_pos for sig in sigs for pos in sig.seed_positions()):
            return
        seed_names = sorted(
            {p for sig in sigs for p in sig.params if p in _SEED_PARAMS}
        )
        self._emit(
            "SIM101",
            node,
            f"`{name}()` accepts {'/'.join(seed_names)} but this call "
            "threads neither, breaking the seed chain of the enclosing "
            f"function (which takes {'/'.join(sorted(self._seed_scope[-1]))})",
        )

    # -- SIM102 + seed scope on function definitions --------------------

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
        seed_params = {a.arg for a in all_args if a.arg in _SEED_PARAMS}
        self._seed_scope.append(seed_params)
        self._func_stack.append(node.name)
        self.generic_visit(node)
        self._func_stack.pop()
        self._seed_scope.pop()

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

def _check_engine_parity(files: Sequence[_SourceFile], index: _Index) -> List[Finding]:
    hierarchy = index.find_class("cachesim/hierarchy.py", "CacheHierarchy")
    engine = index.find_class("cachesim/engine.py", "FastEngine")
    if hierarchy is None or engine is None:
        return []
    findings: List[Finding] = []

    def emit(sig_map: Dict[str, _FuncSig], message: str) -> None:
        anchor = next(iter(sig_map.values()))
        findings.append(
            Finding(
                code="SIM201",
                path=anchor.path,
                line=anchor.line,
                col=1,
                message=message,
            )
        )

    for method in _PARITY_METHODS:
        h_sig = hierarchy.get(method)
        e_sig = engine.get(method)
        if h_sig is None or e_sig is None:
            missing = "CacheHierarchy" if h_sig is None else "FastEngine"
            emit(
                engine if h_sig is None else hierarchy,
                f"access-API method `{method}` missing from {missing} — "
                "the engines must expose the same surface",
            )
            continue
        h_params = set(h_sig.params)
        e_params = set(e_sig.params)
        if h_params != e_params:
            only_h = sorted(h_params - e_params)
            only_e = sorted(e_params - h_params)
            drift = []
            if only_h:
                drift.append(f"CacheHierarchy-only kwargs {only_h}")
            if only_e:
                drift.append(f"FastEngine-only kwargs {only_e}")
            emit(
                hierarchy,
                f"access-API method `{method}` signature drift: "
                + "; ".join(drift),
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
        (f for f in files if f.rel.replace("\\", "/").endswith("lab/registry.py")),
        None,
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
        has_runner = False
        has_serializer = False
        for node in src.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.name.startswith("run_"):
                    has_runner = True
                if node.name.endswith("_to_dict"):
                    has_serializer = True
        if not has_runner or not has_serializer:
            missing = []
            if not has_runner:
                missing.append("a `run_*` entry point")
            if not has_serializer:
                missing.append("a `*_to_dict` serializer")
            findings.append(
                Finding(
                    code="SIM302",
                    path=src.rel,
                    line=1,
                    col=1,
                    message=(
                        f"experiment module `{module}` misses "
                        + " and ".join(missing)
                        + " — every experiment must honour the "
                        "--seed/--json contract (mark deliberate "
                        "libraries with `# simcheck: support-module`)"
                    ),
                )
            )
        if registered is not None and module not in registered:
            findings.append(
                Finding(
                    code="SIM301",
                    path=src.rel,
                    line=1,
                    col=1,
                    message=(
                        f"experiment module `{module}` is not imported "
                        "by lab/registry.py — register it so `repro lab "
                        "run --all` and CI cover it (or mark it "
                        "`# simcheck: support-module`)"
                    ),
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
        rel = str(path.relative_to(root))
    except ValueError:
        rel = str(path)
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
            finding = Finding(
                code=finding.code,
                path=finding.path,
                line=finding.line,
                col=finding.col,
                message=finding.message,
                suppressed=True,
            )
        out.append(finding)
    return out


def run_simcheck(
    paths: Sequence[Path],
    root: Optional[Path] = None,
    select: Optional[Set[str]] = None,
    exclude: Optional[Set[str]] = None,
) -> CheckResult:
    """Run every rule over *paths* (files or directories).

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
    index = _Index(files)
    findings: List[Finding] = []
    for src in files:
        visitor = _FileVisitor(src, index)
        visitor.visit(src.tree)
        findings.extend(visitor.findings)
    findings.extend(_check_engine_parity(files, index))
    findings.extend(_check_experiment_hygiene(files))
    if select:
        findings = [f for f in findings if f.code in select]
    if exclude:
        findings = [f for f in findings if f.code not in exclude]
    findings = _apply_suppressions(findings, {src.rel: src for src in files})
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.code))
    return CheckResult(findings=findings, files=len(files))


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


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point (also reachable as ``repro check``)."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="simcheck",
        description="Static analysis of simulation-determinism invariants.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=None,
        help="files or directories (default: src/repro)",
    )
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    parser.add_argument(
        "--github", action="store_true", help="GitHub Actions annotations"
    )
    parser.add_argument(
        "--select",
        "--rules",
        dest="select",
        default=None,
        help="comma-separated rule codes to run",
    )
    parser.add_argument(
        "--exclude-rules",
        dest="exclude_rules",
        default=None,
        help="comma-separated rule codes to skip",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalogue"
    )
    args = parser.parse_args(argv)
    if args.list_rules:
        for code in sorted(RULES):
            print(f"{code}  {RULES[code]}")
        return 0
    roots = [Path(p) for p in (args.paths or [])]
    if not roots:
        default = Path("src/repro")
        if not default.is_dir():
            print(
                "simcheck: no paths given and ./src/repro not found",
                file=sys.stderr,
            )
            return 2
        roots = [default]
    select = (
        {c.strip() for c in args.select.split(",") if c.strip()}
        if args.select
        else None
    )
    exclude = (
        {c.strip() for c in args.exclude_rules.split(",") if c.strip()}
        if args.exclude_rules
        else None
    )
    result = run_simcheck(roots, select=select, exclude=exclude)
    mode = "json" if args.json else ("github" if args.github else "text")
    print(format_result(result, mode))
    return 1 if result.active else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

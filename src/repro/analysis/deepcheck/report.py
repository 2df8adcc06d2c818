"""Deepcheck orchestration: run the seed-flow rules, apply suppressions.

``analyze()`` builds the call graph (one parse per file), runs the
FLOW passes over it, and splits the findings into active and
suppressed ones.  A finding is suppressed by an inline ignore comment
on its line that names the rule (the syntax is in docs/CHECKS.md), for
a *justified* exception whose reason lives next to it.  The CI gate
fails on any active finding.
"""

from __future__ import annotations

import dataclasses
import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set

from repro.analysis.deepcheck.callgraph import CallGraph, build_callgraph
from repro.analysis.deepcheck.dataflow import analyze_seed_flow
from repro.analysis.simcheck import Finding

__all__ = [
    "DEEP_RULES",
    "DeepcheckResult",
    "analyze",
    "format_report",
]

#: Rule catalogue (code -> one-line description), mirrored in
#: docs/CHECKS.md.
DEEP_RULES: Dict[str, str] = {
    "FLOW001": "seed/rng in scope but not forwarded across a call boundary",
    "FLOW002": "RNG re-seeded from constants inside a seeded context",
    "FLOW003": "module-level state mutated on a lab-worker path",
}

_SUPPRESS_RE = re.compile(
    r"#\s*deepcheck:\s*ignore\[(?P<codes>[A-Z0-9,\s]+)\]"
)


@dataclass
class DeepcheckResult:
    """Everything one deepcheck run produced."""

    files: int
    n_functions: int
    n_edges: int
    n_entry_points: int
    active: List[Finding]
    suppressed: List[Finding]
    graph: CallGraph = dataclasses.field(repr=False)

    def summary(self) -> Dict[str, object]:
        return {
            "files": self.files,
            "functions": self.n_functions,
            "edges": self.n_edges,
            "entry_points": self.n_entry_points,
            "findings": len(self.active),
            "suppressed": len(self.suppressed),
        }


def _suppressed_codes(line: str) -> Set[str]:
    """Codes an inline ``deepcheck`` ignore comment on *line* names."""
    match = _SUPPRESS_RE.search(line)
    if match is None:
        return set()
    return {c.strip() for c in match.group("codes").split(",") if c.strip()}


def analyze(paths: Sequence[Path], root: Optional[Path] = None) -> DeepcheckResult:
    """Run the seed-flow rules over *paths* (files or directories).

    Findings are reported relative to *root* (default: the current
    working directory).
    """
    graph = build_callgraph(paths, root=root if root is not None else Path.cwd())
    active: List[Finding] = []
    suppressed: List[Finding] = []
    for finding in analyze_seed_flow(graph):
        lines = graph.lines.get(finding.path, [])
        line = lines[finding.line - 1] if 0 < finding.line <= len(lines) else ""
        if finding.code in _suppressed_codes(line):
            suppressed.append(dataclasses.replace(finding, suppressed=True))
        else:
            active.append(finding)
    return DeepcheckResult(
        files=graph.files,
        n_functions=len(graph.functions),
        n_edges=graph.n_edges(),
        n_entry_points=len(graph.entry_points),
        active=active,
        suppressed=suppressed,
        graph=graph,
    )


def format_report(result: DeepcheckResult, mode: str = "text") -> str:
    """Render findings + summary (text/json/github)."""
    if mode == "json":
        return json.dumps(
            {
                "summary": result.summary(),
                "findings": [f.as_dict() for f in result.active],
                "suppressed": [f.as_dict() for f in result.suppressed],
            },
            indent=2,
            sort_keys=True,
        )
    lines: List[str] = [
        finding.github() if mode == "github" else finding.text()
        for finding in result.active
    ]
    lines.append(
        f"deepcheck: {result.files} files, {result.n_functions} functions, "
        f"{result.n_edges} edges; {len(result.active)} findings "
        f"({len(result.suppressed)} suppressed)"
    )
    return "\n".join(lines)

"""AST-based determinism lint of the repo itself (CL003-CL004).

The simulator promises byte-identical output for a fixed seed, with
simulated time as the only clock.  This linter walks Python sources
(no imports, no execution) and flags the two ways library code breaks
that promise:

* **CL003** (warning): unseeded randomness (``default_rng()`` with no
  seed, legacy ``np.random.*``, stdlib ``random.*``) -- the simulator's
  determinism contract requires every stream to be seeded.
* **CL004** (info): wall-clock reads (``time.time``, ``perf_counter``,
  ``datetime.now``) -- fine in benchmarking harnesses, a determinism
  hazard anywhere simulated time is the authority.

The rule ids keep their original numbers so baseline fingerprints do
not move.
"""

from __future__ import annotations

import ast
import pathlib
from typing import Iterable, List, Optional, Tuple

from .diagnostics import Report

#: Legacy / stdlib random functions that bypass seeded generators.
_RANDOM_FNS = {"rand", "randn", "randint", "random", "choice",
               "shuffle", "permutation", "uniform", "gauss", "sample",
               "seed", "randrange", "betavariate", "expovariate"}

#: Wall-clock attribute reads, keyed by the qualifying module segment.
_CLOCK_FNS = {"time", "perf_counter", "monotonic", "process_time",
              "perf_counter_ns", "monotonic_ns", "time_ns"}
_DATETIME_FNS = {"now", "utcnow", "today"}


def _dotted(node: ast.AST) -> Optional[List[str]]:
    """``a.b.c`` as ``["a", "b", "c"]``; None for non-name chains."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return list(reversed(parts))
    return None


class _FileLint(ast.NodeVisitor):
    """One file's lint pass; findings accumulate on ``self.report``."""

    def __init__(self, relpath: str) -> None:
        self.relpath = relpath
        self.report = Report()

    def _locus(self, node: ast.AST) -> str:
        return f"{self.relpath}:{getattr(node, 'lineno', 0)}"

    def visit_Call(self, node: ast.Call) -> None:
        parts = _dotted(node.func)
        if parts is not None:
            self._check_random(node, parts)
            self._check_clock(node, parts)
        self.generic_visit(node)

    def _check_random(self, node: ast.Call, parts: List[str]) -> None:
        if parts[-1] == "default_rng":
            if not node.args and not any(kw.arg == "seed"
                                         for kw in node.keywords):
                self.report.warning(
                    "CL003", self._locus(node),
                    "default_rng() without a seed: nondeterministic "
                    "stream in a simulator that promises determinism")
            return
        if (len(parts) >= 2 and parts[-2] == "random"
                and parts[-1] in _RANDOM_FNS):
            self.report.warning(
                "CL003", self._locus(node),
                f"{'.'.join(parts)}() draws from a global, unseeded "
                "random stream; use a seeded default_rng generator")

    def _check_clock(self, node: ast.Call, parts: List[str]) -> None:
        flagged = False
        if len(parts) >= 2 and parts[-2] == "time":
            flagged = parts[-1] in _CLOCK_FNS
        elif len(parts) >= 2 and parts[-2] in ("datetime", "date"):
            flagged = parts[-1] in _DATETIME_FNS
        elif len(parts) == 1:
            flagged = parts[0] in _CLOCK_FNS - {"time"}
        if flagged:
            self.report.info(
                "CL004", self._locus(node),
                f"wall-clock read {'.'.join(parts)}(); simulated "
                "time, not the host clock, is the authority in "
                "library code")


class DeterminismLinter:
    """Lints Python sources for determinism hazards: unseeded
    randomness (CL003) and wall-clock reads (CL004).

    Args:
        rel_to: directory loci are reported relative to (default: the
            current working directory), so baselines are stable across
            checkouts.
    """

    def __init__(self,
                 rel_to: Optional[pathlib.Path] = None) -> None:
        self.rel_to = (pathlib.Path.cwd() if rel_to is None
                       else pathlib.Path(rel_to))

    def _relpath(self, path: pathlib.Path) -> str:
        try:
            return path.resolve().relative_to(
                self.rel_to.resolve()).as_posix()
        except ValueError:
            return path.as_posix()

    def lint_source(self, source: str, relpath: str) -> Report:
        """Lint one file's source text."""
        tree = ast.parse(source, filename=relpath)
        lint = _FileLint(relpath)
        lint.visit(tree)
        return lint.report

    def lint_file(self, path: "pathlib.Path | str") -> Report:
        """Lint one file on disk."""
        path = pathlib.Path(path)
        return self.lint_source(path.read_text(encoding="utf-8"),
                                self._relpath(path))

    def lint_paths(self,
                   paths: Iterable["pathlib.Path | str"]) -> Report:
        """Lint files and directory trees (``**/*.py``), merged.

        Files are visited in sorted order, so the merged report is
        deterministic.
        """
        files: List[Tuple[str, pathlib.Path]] = []
        for entry in paths:
            entry = pathlib.Path(entry)
            if entry.is_dir():
                found: Iterable[pathlib.Path] = sorted(
                    entry.rglob("*.py"))
            else:
                found = [entry]
            for path in found:
                files.append((self._relpath(path), path))
        report = Report()
        for _, path in sorted(files):
            report.extend(self.lint_file(path))
        return report

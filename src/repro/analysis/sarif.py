"""SARIF 2.1.0 emission and baseline suppression for analysis reports.

SARIF (Static Analysis Results Interchange Format) is what code-review
UIs and CI annotation actions ingest; emitting it lets the repo's own
analyzers -- the plan verifier, the memory/schedulability analyzers,
and the :mod:`~repro.analysis.srclint` determinism lint -- surface
inline on pull requests like any off-the-shelf linter.

The baseline file (``lint-baseline.json`` at the repo root) pins the
*accepted* findings, such as the intentional wall-clock reads of the
timing harness.  Suppressions are
keyed by a fingerprint of (rule, file, message) -- deliberately
excluding the line number, so reformatting that shifts a finding a few
lines does not resurrect it.  A finding not in the baseline fails CI;
deleting stale suppressions is cheap because each carries its reason.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
from typing import Dict, List, Optional, Tuple

from .diagnostics import RULES, Diagnostic, Report, Severity

#: SARIF reportingDescriptor level per diagnostic severity.
_SARIF_LEVEL = {
    Severity.ERROR: "error",
    Severity.WARNING: "warning",
    Severity.INFO: "note",
}

_SCHEMA = "https://json.schemastore.org/sarif-2.1.0.json"


def split_locus(locus: str) -> Tuple[str, Optional[int]]:
    """``"path:42"`` as ``("path", 42)``; plain loci keep line None."""
    head, sep, tail = locus.rpartition(":")
    if sep and tail.isdigit():
        return head, int(tail)
    return locus, None


def fingerprint(diagnostic: Diagnostic) -> str:
    """Stable identity of a finding, insensitive to line drift."""
    artifact, _ = split_locus(diagnostic.locus)
    payload = "|".join((diagnostic.rule, artifact, diagnostic.message))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def report_to_sarif(report: Report,
                    tool_name: str = "repro-analysis") -> Dict:
    """The report as a SARIF 2.1.0 log (one run, one tool)."""
    used = sorted({d.rule for d in report})
    rules = [{"id": rule,
              "shortDescription": {"text": RULES[rule]}}
             for rule in used]
    rule_index = {rule: i for i, rule in enumerate(used)}
    results: List[Dict] = []
    for diagnostic in report:
        artifact, line = split_locus(diagnostic.locus)
        region = {"startLine": line} if line is not None else {}
        location: Dict = {
            "physicalLocation": {
                "artifactLocation": {"uri": artifact}}}
        if region:
            location["physicalLocation"]["region"] = region
        results.append({
            "ruleId": diagnostic.rule,
            "ruleIndex": rule_index[diagnostic.rule],
            "level": _SARIF_LEVEL[diagnostic.severity],
            "message": {"text": diagnostic.message},
            "locations": [location],
            "partialFingerprints": {
                "reproAnalysis/v1": fingerprint(diagnostic)},
        })
    return {
        "$schema": _SCHEMA,
        "version": "2.1.0",
        "runs": [{
            "tool": {"driver": {"name": tool_name, "rules": rules}},
            "results": results,
        }],
    }


def load_baseline(path: "pathlib.Path | str") -> Dict[str, str]:
    """Suppressions of a baseline file, as fingerprint -> reason.

    Raises:
        ValueError: for a malformed baseline document.
    """
    payload = json.loads(
        pathlib.Path(path).read_text(encoding="utf-8"))
    if not isinstance(payload, dict) or "suppressions" not in payload:
        raise ValueError(
            f"{path}: expected an object with a 'suppressions' list")
    suppressions: Dict[str, str] = {}
    for entry in payload["suppressions"]:
        if not isinstance(entry, dict) or "fingerprint" not in entry:
            raise ValueError(
                f"{path}: each suppression needs a 'fingerprint'")
        suppressions[entry["fingerprint"]] = entry.get("reason", "")
    return suppressions


def apply_baseline(report: Report,
                   baseline: Dict[str, str]) -> Report:
    """The report minus baselined findings (order preserved)."""
    return Report(diagnostic for diagnostic in report
                  if fingerprint(diagnostic) not in baseline)


def baseline_document(report: Report,
                      reason: str = "accepted finding") -> Dict:
    """A baseline suppressing every finding of ``report``.

    The starting point when adopting the lint: write this out, then
    edit reasons (and delete what should be fixed instead).
    """
    seen: Dict[str, Dict] = {}
    for diagnostic in report:
        key = fingerprint(diagnostic)
        if key not in seen:
            artifact, _ = split_locus(diagnostic.locus)
            seen[key] = {"fingerprint": key, "rule": diagnostic.rule,
                         "file": artifact, "reason": reason}
    return {"version": 1,
            "suppressions": sorted(seen.values(),
                                   key=lambda s: (s["rule"],
                                                  s["file"],
                                                  s["fingerprint"]))}

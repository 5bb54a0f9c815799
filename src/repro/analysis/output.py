"""Rendering lint findings: text and JSON.

The JSON form is the stable machine interface (tests golden-diff it).
It is emitted with sorted keys and deterministic ordering — the
renderers are themselves subject to the determinism rules they help
enforce.
"""

from __future__ import annotations

import json

from .findings import Finding

TOOL_NAME = "repro-g5-lint"


def render_text(findings: list[Finding]) -> str:
    """Human-readable report, one line per finding plus a summary."""
    lines = [finding.render() for finding in findings]
    if findings:
        lines.append("")
    lines.append(f"{len(findings)} finding"
                 f"{'s' if len(findings) != 1 else ''}")
    return "\n".join(lines)


def findings_to_dict(findings: list[Finding]) -> list[dict]:
    return [{
        "rule": f.rule,
        "path": f.path,
        "line": f.line,
        "col": f.col,
        "severity": f.severity,
        "message": f.message,
        "snippet": f.snippet,
        "fingerprint": f.fingerprint,
    } for f in findings]


def render_json(findings: list[Finding]) -> str:
    payload = {
        "tool": TOOL_NAME,
        "findings": findings_to_dict(findings),
        "summary": {
            "total": len(findings),
            "by_rule": _counts_by_rule(findings),
        },
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _counts_by_rule(findings: list[Finding]) -> dict[str, int]:
    counts: dict[str, int] = {}
    for finding in findings:
        counts[finding.rule] = counts.get(finding.rule, 0) + 1
    return dict(sorted(counts.items()))

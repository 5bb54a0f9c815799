"""Static analysis of the simulator and its guest binaries.

Two halves, wired into the ``repro-g5 lint`` CLI subcommand:

- a host-side **lint framework** (:mod:`.engine`, :mod:`.passes`):
  visitor-based AST passes enforcing simulator invariants —
  determinism, event-scheduling safety, cross-domain races,
  ``__slots__`` coverage on the tick loop and stats conformance —
  with pragma suppression and text/JSON output;
- a **guest-binary analyzer** (:mod:`.guestcfg`): basic blocks and a
  CFG over SimRISC programs via the simulator's own decoder, producing
  static footprint/branch-density reports that cross-check the dynamic
  traces behind the paper's Figs. 3–6.
"""

from __future__ import annotations

from .engine import (
    Engine,
    LintPass,
    ProjectIndex,
    SourceFile,
    all_passes,
    default_lint_root,
    register_pass,
    run_lint,
)
from .findings import Finding, RuleInfo, finalize_findings
from .ownership import (
    BOUNDARY,
    LATTICE,
    LOCAL,
    RACY,
    UNKNOWN,
    OwnershipMap,
    build_ownership_map,
    export_ownership_map,
    join,
)
from .summaries import ClassSummaries, class_summaries
from .guestcfg import (
    BasicBlock,
    CrossCheckReport,
    DynamicTrace,
    GuestCFG,
    analyze_workload,
    build_cfg,
    cross_check,
    decoder_totality_failures,
    render_guest_report,
    run_dynamic_trace,
)
from .output import render_json, render_text

__all__ = [
    "BOUNDARY",
    "BasicBlock",
    "ClassSummaries",
    "CrossCheckReport",
    "DynamicTrace",
    "Engine",
    "Finding",
    "GuestCFG",
    "LATTICE",
    "LOCAL",
    "LintPass",
    "OwnershipMap",
    "ProjectIndex",
    "RACY",
    "RuleInfo",
    "SourceFile",
    "UNKNOWN",
    "all_passes",
    "analyze_workload",
    "build_cfg",
    "build_ownership_map",
    "class_summaries",
    "cross_check",
    "decoder_totality_failures",
    "default_lint_root",
    "export_ownership_map",
    "finalize_findings",
    "join",
    "register_pass",
    "render_guest_report",
    "render_json",
    "render_text",
    "run_lint",
]

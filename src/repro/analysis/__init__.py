"""Static analysis of the simulator and its guest binaries.

Two halves, wired into the ``repro-g5 lint`` CLI subcommand:

- a host-side **lint framework** (:mod:`.engine`, :mod:`.passes`):
  visitor-based AST passes enforcing simulator invariants —
  determinism, event-scheduling safety, ``__slots__`` coverage on the
  tick loop and stats conformance — with pragma suppression and
  text/JSON output;
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
    "BasicBlock",
    "CrossCheckReport",
    "DynamicTrace",
    "Engine",
    "Finding",
    "GuestCFG",
    "LintPass",
    "ProjectIndex",
    "RuleInfo",
    "SourceFile",
    "all_passes",
    "analyze_workload",
    "build_cfg",
    "cross_check",
    "decoder_totality_failures",
    "default_lint_root",
    "finalize_findings",
    "register_pass",
    "render_guest_report",
    "render_json",
    "render_text",
    "run_lint",
]

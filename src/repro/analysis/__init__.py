"""Static analysis of the simulator and its guest binaries.

Two halves, wired into the ``repro-g5 lint`` CLI subcommand:

- a host-side **lint framework** (:mod:`.engine`, :mod:`.passes`):
  visitor-based AST passes enforcing simulator invariants —
  determinism, event-scheduling safety, ``__slots__`` coverage on
  the tick loop, stats conformance, and the shared
  figure-requirement vocabulary — with pragma suppression, a
  fingerprint baseline, and text/JSON/SARIF output;
- a **guest-binary analyzer** (:mod:`.guestcfg`): basic blocks and a
  CFG over SimRISC programs via the simulator's own decoder, producing
  static footprint/branch-density reports that cross-check the dynamic
  traces behind the paper's Figs. 3–6.
"""

from __future__ import annotations

from .baseline import Baseline, BaselineError, find_default_baseline
from .cache import default_lint_cache, lint_file_key, passes_fingerprint
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
from .output import render_json, render_sarif, render_text

__all__ = [
    "BOUNDARY",
    "Baseline",
    "BaselineError",
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
    "default_lint_cache",
    "default_lint_root",
    "export_ownership_map",
    "finalize_findings",
    "find_default_baseline",
    "join",
    "lint_file_key",
    "passes_fingerprint",
    "register_pass",
    "render_guest_report",
    "render_json",
    "render_sarif",
    "render_text",
    "run_lint",
]

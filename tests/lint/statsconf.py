"""Stats-conformance pass: every declared Stat is registered and dumped.

``dump_stats`` only sees statistics that live in a SimObject's
:class:`~repro.g5.stats.StatGroup`; the group helpers (``stats.scalar``,
``stats.vector``, ...) are the single registration point.  Two defect
shapes slip past runtime tests because an unregistered stat simply
never appears in ``stats.txt``:

- **Orphan stats** — constructing ``Scalar``/``VectorStat``/
  ``Distribution``/``Formula`` directly instead of through a
  ``StatGroup`` helper.  The object counts happily but is invisible to
  ``dump_stats`` and the golden-stats suite.
- **Write-only stats** — calling ``stats.scalar(...)`` (or ``vector``/
  ``distribution``) and discarding the return value.  The stat *is*
  dumped, but nothing can ever increment it, so it is frozen at zero.
  (``stats.formula`` is exempt: formulas compute from other stats and
  need no handle.)
"""

from __future__ import annotations

import ast

from .engine import LintPass

_STAT_CLASSES = frozenset({"Scalar", "VectorStat", "Distribution",
                           "Formula"})
#: StatGroup helpers whose return value must be kept to be useful.
_MUST_BIND = frozenset({"scalar", "vector", "distribution"})


class StatsConformancePass(LintPass):
    rule = "stats-conformance"
    description = ("Stat objects must be created through StatGroup "
                   "helpers (so dump_stats sees them), and counter-like "
                   "helpers' return values must be bound (so something "
                   "can increment them).")

    @classmethod
    def applies_to(cls, relpath: str) -> bool:
        # The stats framework itself constructs the classes it defines.
        return relpath.startswith("g5/") and relpath != "g5/stats.py"

    # -- orphan stats ---------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        name = None
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            # e.g. stats_mod.Scalar(...)
            name = func.attr
        # Group helpers are lowercase methods and the stat classes are
        # CamelCase, so a CamelCase match is always direct construction.
        if name in _STAT_CLASSES:
            self.report(node, f"direct {name}(...) construction bypasses "
                        "StatGroup registration; dump_stats will never "
                        "see this stat — use the group helpers "
                        "(stats.scalar/vector/distribution/formula)",
                        suffix="orphan-stat")
        self.generic_visit(node)

    # -- write-only stats -----------------------------------------------
    def visit_Expr(self, node: ast.Expr) -> None:
        call = node.value
        if isinstance(call, ast.Call) and \
                isinstance(call.func, ast.Attribute) and \
                call.func.attr in _MUST_BIND and \
                self._receiver_is_stats(call.func.value):
            self.report(node, f"stats.{call.func.attr}(...) return value "
                        "is discarded; the stat is dumped but can never "
                        "be updated — bind it to an attribute",
                        suffix="write-only-stat")
        self.generic_visit(node)

    @staticmethod
    def _receiver_is_stats(node: ast.AST) -> bool:
        if isinstance(node, ast.Name):
            return node.id in ("stats", "group")
        if isinstance(node, ast.Attribute):
            return node.attr in ("stats", "_stats")
        return False

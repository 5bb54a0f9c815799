"""Event-safety pass: scheduling discipline for the event kernel.

The event queue's next-event slot and ``advance_if_idle`` rely on two
invariants that runtime checks only catch after the fact:

- **No possibly-negative delays.**  ``schedule_in``/``call_in`` with a
  negative delta raises at runtime; statically we flag negative
  constant deltas and the classic footgun of computing an *absolute*
  tick as ``<x>.now - something`` (which goes backwards the moment the
  subtrahend exceeds zero).
- **No event mutation after enqueue.**  An event's ``when``/
  ``priority`` feed its heap sort key; assigning them outside the
  event framework silently corrupts heap order (the slot invariant in
  particular).  Only ``events/`` itself may touch them.
"""

from __future__ import annotations

import ast

from .engine import LintPass

#: Methods taking a relative delay as their second argument.
_DELAY_METHODS = {"schedule_in": 1, "call_in": 0}
#: Methods taking an absolute tick as their second argument.
_ABSOLUTE_METHODS = {"schedule": 1, "call_at": 0, "reschedule": 1}

#: Event attributes owned by the queue/event framework.
_PROTECTED_ATTRS = ("when", "priority")


def _is_negative_constant(node: ast.AST) -> bool:
    return (isinstance(node, ast.UnaryOp)
            and isinstance(node.op, ast.USub)
            and isinstance(node.operand, ast.Constant)
            and isinstance(node.operand.value, (int, float)))


def _mentions_now_minus(node: ast.AST) -> bool:
    """True for expressions shaped ``<...>.now - <expr>`` (any depth)."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.BinOp) and isinstance(sub.op, ast.Sub):
            left = sub.left
            if isinstance(left, ast.Attribute) and left.attr == "now":
                return True
            if isinstance(left, ast.Name) and left.id == "now":
                return True
    return False


class EventSafetyPass(LintPass):
    rule = "event-safety"

    @classmethod
    def applies_to(cls, relpath: str) -> bool:
        return relpath.startswith(("g5/", "events/", "workloads/",
                                   "host/", "experiments/"))

    @property
    def _in_framework(self) -> bool:
        return self.source.relpath.startswith("events/")

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            name = func.attr
            if name in _DELAY_METHODS:
                self._check_delay(node, _DELAY_METHODS[name], name)
            elif name in _ABSOLUTE_METHODS:
                self._check_absolute(node, _ABSOLUTE_METHODS[name], name)
        self.generic_visit(node)

    def _argument(self, node: ast.Call, index: int):
        if index < len(node.args):
            return node.args[index]
        return None

    def _check_delay(self, node: ast.Call, index: int, name: str) -> None:
        arg = self._argument(node, index)
        if arg is None:
            return
        if _is_negative_constant(arg):
            self.report(node, f"{name}() with a negative constant delay; "
                        "delays must be >= 0", suffix="negative-delay")
        elif _mentions_now_minus(arg):
            self.report(node, f"{name}() delay computed as '...now - x' "
                        "can go negative; clamp with max(0, ...) or "
                        "schedule at an absolute tick",
                        suffix="possibly-negative-delay")

    def _check_absolute(self, node: ast.Call, index: int,
                        name: str) -> None:
        arg = self._argument(node, index)
        if arg is None:
            return
        if _mentions_now_minus(arg):
            self.report(node, f"{name}() target tick computed as "
                        "'...now - x' schedules into the past the moment "
                        "x > 0; derive the tick from now by addition",
                        suffix="past-tick")

    def visit_Assign(self, node: ast.Assign) -> None:
        if not self._in_framework:
            for target in node.targets:
                self._check_mutation(target)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        if not self._in_framework:
            self._check_mutation(node.target)
        self.generic_visit(node)

    def _check_mutation(self, target: ast.AST) -> None:
        if isinstance(target, ast.Attribute) and \
                target.attr in _PROTECTED_ATTRS:
            # `self.priority = ...` inside an Event subclass __init__ is
            # pre-enqueue setup and legitimate; everything else risks
            # reordering an already-enqueued event under the heap.
            if isinstance(target.value, ast.Name) and \
                    target.value.id == "self" and self._inside_init(target):
                return
            self.report(target, f"assignment to .{target.attr} outside "
                        "the event framework mutates an event's sort key "
                        "after enqueue; deschedule and re-schedule instead",
                        suffix="mutation-after-enqueue")

    def _inside_init(self, node: ast.AST) -> bool:
        """Whether ``node`` sits inside some ``__init__`` method."""
        for fn in ast.walk(self.source.tree):
            if isinstance(fn, ast.FunctionDef) and fn.name == "__init__":
                for sub in ast.walk(fn):
                    if sub is node:
                        return True
        return False

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
- **No cross-domain scheduling.**  Sharded simulation
  (:mod:`repro.g5.sharded`) gives each domain its own queue; model code
  that schedules directly into *another* object's ``eventq`` bypasses
  the boundary link, so the sender's window is never clamped and the
  merged event order silently diverges from the single-queue order.
  Cross-domain traffic must go through a port (and thus the installed
  ``BoundaryLink``); only ``self.eventq`` may be scheduled into
  directly.  The check sees through the two laundering idioms:
  binding the foreign queue to a local name first (``eq =
  other.eventq; eq.schedule(...)``) and fetching it reflectively
  (``getattr(other, "eventq").schedule(...)``).

Suppress a justified site with ``# lint: no-event-safety``.
"""

from __future__ import annotations

import ast

from ..engine import LintPass, register_pass

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


def _eventq_base(node: ast.AST):
    """The object whose ``eventq`` this expression fetches, or None.

    Matches both the attribute form (``<base>.eventq``) and the
    reflective form (``getattr(<base>, "eventq")``).
    """
    if isinstance(node, ast.Attribute) and node.attr == "eventq":
        return node.value
    if (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "getattr"
            and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
            and node.args[1].value == "eventq"):
        return node.args[0]
    return None


def _is_self(node: ast.AST) -> bool:
    return isinstance(node, ast.Name) and node.id == "self"


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


@register_pass
class EventSafetyPass(LintPass):
    rule = "event-safety"
    title = "Event scheduling discipline"
    description = ("No negative or now-relative-subtraction scheduling "
                   "deltas, no mutation of when/priority on events "
                   "outside the event framework, and no scheduling into "
                   "another object's event queue (bypasses the sharded "
                   "boundary link).")
    pragma = "no-event-safety"

    @classmethod
    def applies_to(cls, relpath: str) -> bool:
        return relpath.startswith(("g5/", "events/", "workloads/",
                                   "host/", "experiments/"))

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: Per-function frames of local names currently bound to a
        #: *foreign* event queue (``eq = other.eventq``).  Statement
        #: order is preserved by the visitor, so a rebinding clears the
        #: mark before later uses are checked.
        self._alias_frames: list[set] = []

    @property
    def _in_framework(self) -> bool:
        return self.source.relpath.startswith("events/")

    def _visit_function(self, node) -> None:
        self._alias_frames.append(set())
        try:
            self.generic_visit(node)
        finally:
            self._alias_frames.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    def _name_is_foreign_queue(self, name: str) -> bool:
        return any(name in frame for frame in reversed(self._alias_frames))

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            name = func.attr
            if name in _DELAY_METHODS:
                self._check_delay(node, _DELAY_METHODS[name], name)
                self._check_cross_domain(node, func, name)
            elif name in _ABSOLUTE_METHODS:
                self._check_absolute(node, _ABSOLUTE_METHODS[name], name)
                self._check_cross_domain(node, func, name)
        self.generic_visit(node)

    def _check_cross_domain(self, node: ast.Call, func: ast.Attribute,
                            name: str) -> None:
        """Flag ``<other>.eventq.schedule...()`` — bypasses the boundary.

        In a sharded run another object's ``eventq`` may be a different
        domain's queue; enqueueing there directly skips the boundary
        link's delivery event and window clamp, so the merged event
        order (and bit-identity with the single-queue path) is lost.
        ``self.eventq`` stays legitimate: that is the intra-domain hot
        path.
        """
        owner = func.value
        base = _eventq_base(owner)
        if base is not None:
            # Direct `<other>.eventq.schedule(...)` or reflective
            # `getattr(other, "eventq").schedule(...)`.
            if _is_self(base):
                return
        elif isinstance(owner, ast.Name):
            # Aliased: `eq = other.eventq; eq.schedule(...)`.
            if not self._name_is_foreign_queue(owner.id):
                return
        else:
            return
        self.report(node, f"{name}() on another object's .eventq "
                    "bypasses the sharded boundary link; send through "
                    "a port (or schedule on self.eventq) so cross-domain "
                    "delivery stays ordered",
                    suffix="cross-domain-schedule")

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
        self._track_aliases(node)
        self.generic_visit(node)

    def _track_aliases(self, node: ast.Assign) -> None:
        if not self._alias_frames:
            return
        frame = self._alias_frames[-1]
        base = _eventq_base(node.value)
        foreign = base is not None and not _is_self(base)
        for target in node.targets:
            if isinstance(target, ast.Name):
                if foreign:
                    frame.add(target.id)
                else:
                    frame.discard(target.id)
            elif isinstance(target, (ast.Tuple, ast.List)):
                for element in target.elts:
                    if isinstance(element, ast.Name):
                        frame.discard(element.id)

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

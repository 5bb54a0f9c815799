"""``__slots__`` coverage pass for tick-loop object churn.

The paper's profiling shows gem5's hot loop is dominated by small,
frequently-created objects; the zero-heap kernel got its speedup partly
by putting ``__slots__`` on everything the tick loop allocates (no
per-instance ``__dict__``, cheaper attribute loads).  This pass keeps
that property: any class *instantiated inside a hot function* (the
tick/fetch/execute/memory-access family below) must define
``__slots__`` — directly or via a slotted base class — or carry a
``# lint: no-slots`` pragma at the instantiation site.

The check is project-wide: instantiations are matched against every
class definition the engine indexed, so a hot ``Packet(...)`` call in
``g5/cpus`` is checked against the ``Packet`` class in ``g5/mem``.
Names that do not resolve to a project class (stdlib types, factory
functions) are ignored.
"""

from __future__ import annotations

import ast

from ..engine import LintPass, register_pass

#: Function/method names forming the simulator's per-instruction and
#: per-access hot paths.
HOT_FUNCTIONS = frozenset({
    "tick", "step", "process",
    "next_inst", "fetch_decode", "execute_inst", "decode",
    "recv_atomic_fast", "recv_atomic_wb_fast", "send_timing_req",
    "recv_timing_req", "recv_timing_resp", "make_ifetch", "make_data_req",
    "record", "host_record", "advance_if_idle", "schedule", "schedule_in",
})

#: Builtins and typing names that commonly appear as calls but are
#: never project classes worth resolving.
_IGNORED_NAMES = frozenset({
    "list", "dict", "set", "tuple", "frozenset", "int", "float", "str",
    "bytes", "bytearray", "bool", "type", "super", "object", "range",
    "enumerate", "zip", "map", "filter", "sorted", "reversed", "len",
    "min", "max", "sum", "abs", "iter", "next", "isinstance", "print",
})


@register_pass
class SlotsCoveragePass(LintPass):
    rule = "slots-coverage"
    title = "Hot-loop classes must define __slots__"
    description = ("Classes instantiated inside tick-loop functions must "
                   "define __slots__ (directly or via a slotted base) to "
                   "avoid per-instance dict churn on the hot path.")
    pragma = "no-slots"

    @classmethod
    def applies_to(cls, relpath: str) -> bool:
        return relpath.startswith(("g5/", "events/"))

    def _visit_function(self, node) -> None:
        if node.name in HOT_FUNCTIONS:
            # Exception constructions feeding a `raise` are error paths,
            # not steady-state allocation churn; only flag instantiations
            # whose objects live on the hot path proper.
            raised: set[ast.AST] = set()
            for sub in ast.walk(node):
                if isinstance(sub, ast.Raise):
                    if sub.exc is not None:
                        raised.add(sub.exc)
                    if sub.cause is not None:
                        raised.add(sub.cause)
            for sub in ast.walk(node):
                if isinstance(sub, ast.Call) and sub not in raised:
                    self._check_instantiation(sub)
        # Nested defs are walked through generic_visit either way.
        self.generic_visit(node)

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    def _check_instantiation(self, call: ast.Call) -> None:
        func = call.func
        if not isinstance(func, ast.Name):
            return
        name = func.id
        if name in _IGNORED_NAMES:
            return
        project = self.project
        definitions = project.lookup_class(name)
        if not definitions:
            return  # factory function, stdlib type, or imported alias
        if project.class_defines_slots(name):
            return
        where = ", ".join(sorted({f"{d.relpath}:{d.line}"
                                  for d in definitions}))
        self.report(call, f"{name} (defined at {where}) is instantiated "
                    "on the hot path but defines no __slots__; add "
                    "__slots__ or mark the call `# lint: no-slots`")

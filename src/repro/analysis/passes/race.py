"""race: cross-domain accesses must go through the boundary.

The sharded engine gives the CPU and the memory hierarchy their own
event queues; running those domains on real threads (ROADMAP layer (c))
requires that no model code reaches across the partition except through
the port/boundary-link channel.  This pass resolves every attribute
chain rooted at ``self`` inside domain-owned classes against the
runtime-extracted :class:`~repro.analysis.ownership.OwnershipMap` and
classifies the access on the ownership lattice:

- **local** — target lives in the accessor's own domain;
- **boundary-mediated** — the access flows through a ``Port.send*`` /
  ``atomic_fast_fn`` channel (or targets the shared data plane or the
  barrier-synchronized control plane);
- **racy** — a mutable touch of the other domain's state that bypasses
  the boundary.  Reported, in four flavours:

``race/cross-domain-write``
    Assigning (or aug-assigning) an attribute of an object the other
    domain owns.
``race/cross-domain-call``
    Calling a method that mutates its receiver (per the interprocedural
    summaries) on an object the other domain owns.
``race/peer-escape``
    Reaching through ``port.peer.owner`` / ``port._require_peer().owner``
    and then dereferencing the escaped owner — caching its bound
    methods, writing through it, or calling it.  Bare identity reads of
    ``peer`` / ``peer.owner`` (the crossbar's response routing) stay
    quiet: they never leave the expression.
``race/shared-mutable-class-attr``
    A mutable class-level literal on a domain-owned class: class attrs
    are process-global, so per-core domains would share them.

Every classified access is also accumulated in a per-process inventory
(the verified domain-local state listing ``repro-g5 lint
--ownership-map`` exports).
"""

from __future__ import annotations

import ast
from typing import FrozenSet, Optional, Tuple

from ..engine import LintPass, register_pass
from ..ownership import build_ownership_map
from ..summaries import class_summaries

#: Methods that never see model state changed mid-flight: construction
#: and wiring run before the engine starts, with every domain quiescent.
_CONSTRUCTION_METHODS = frozenset({"__init__", "reg_stats", "bind"})

#: The sanctioned crossing channel (see repro.g5.mem.port).
_PORT_SEND_METHODS = frozenset({
    "send_atomic_fast", "send_atomic_wb_fast",
    "send_timing_req", "send_functional", "send_timing_resp",
    "send_retry", "atomic_fast_fn",
    # Coherence probes: the CoherenceDomain mediator walks peer L1 tag
    # stores on the requester's behalf (see repro.g5.coherence).
    "snoop_read", "snoop_write",
})

_MUTABLE_LITERALS = (ast.List, ast.Dict, ast.Set, ast.ListComp,
                     ast.DictComp, ast.SetComp)
_MUTABLE_CTORS = frozenset({"list", "dict", "set", "defaultdict",
                            "OrderedDict", "deque", "bytearray"})

# Expression tags produced by _eval (see class docstring).
_TAG_SELF = "self"     # ("self", attr-chain tuple)
_TAG_PEER = "peer"     # ("peer",)
_TAG_OWNER = "owner"   # ("owner",) — an escaped peer owner


@register_pass
class RacePass(LintPass):
    rule = "race"
    title = "cross-domain access must go through the boundary"
    description = (
        "Model state is owned by exactly one event-queue domain; "
        "touching another domain's mutable state without going through "
        "the port/boundary-link channel breaks threaded domains.")
    pragma = "race"

    SCOPE_PREFIXES = ("g5/cpus/", "g5/mem/", "g5/fs/", "g5/se/", "race/")
    #: The channel itself and its payload are exempt: ports *are* the
    #: crossing, and packets are handed off with the access.
    EXEMPT = frozenset({"g5/mem/port.py", "g5/mem/packet.py"})

    #: Per-process access inventory: class -> category -> chains.
    _inventory: dict = {}

    def __init__(self, source, project) -> None:
        super().__init__(source, project)
        self._omap = build_ownership_map()
        self._summaries = class_summaries(project)
        self._class_stack: list = []      # (name, family, domain)
        self._frames: list = []           # alias dicts, per function

    @classmethod
    def applies_to(cls, relpath: str) -> bool:
        return (relpath.startswith(cls.SCOPE_PREFIXES)
                and relpath not in cls.EXEMPT)

    # -- inventory ------------------------------------------------------
    @classmethod
    def reset_inventory(cls) -> None:
        cls._inventory = {}

    @classmethod
    def snapshot_inventory(cls) -> dict:
        return {owner: {category: sorted(chains)
                        for category, chains in sorted(by_cat.items())}
                for owner, by_cat in sorted(cls._inventory.items())}

    def _record(self, category: str, chain: str) -> None:
        if not self._class_stack:
            return
        owner = self._class_stack[-1][0]
        by_cat = type(self)._inventory.setdefault(owner, {})
        by_cat.setdefault(category, set()).add(chain)

    # -- class / function structure -------------------------------------
    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        family = self._summaries.family(node.name)
        domain = self._omap.domain_of_classes(family)
        if domain in ("cpu", "mem"):
            self._check_class_attrs(node, domain)
        self._class_stack.append((node.name, family, domain))
        self.generic_visit(node)
        self._class_stack.pop()

    def _check_class_attrs(self, node: ast.ClassDef, domain: str) -> None:
        for stmt in node.body:
            if not isinstance(stmt, ast.Assign):
                continue
            value = stmt.value
            mutable = isinstance(value, _MUTABLE_LITERALS) or (
                isinstance(value, ast.Call)
                and isinstance(value.func, ast.Name)
                and value.func.id in _MUTABLE_CTORS)
            if not mutable:
                continue
            names = ", ".join(t.id for t in stmt.targets
                              if isinstance(t, ast.Name))
            self.report(
                stmt,
                f"mutable class attribute {names!r} on {domain}-domain "
                f"class {node.name}: class attrs are process-global, so "
                f"per-core domains would share this state — make it an "
                f"instance attribute",
                suffix="shared-mutable-class-attr")

    def _analyzable(self) -> bool:
        return (bool(self._frames) and bool(self._class_stack)
                and self._class_stack[-1][2] in ("cpu", "mem"))

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        if self._class_stack and node.name in _CONSTRUCTION_METHODS:
            return
        self._frames.append({})
        self.generic_visit(node)
        self._frames.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    # -- expression evaluation (alias-aware) -----------------------------
    def _eval(self, node) -> Optional[tuple]:
        if isinstance(node, ast.Name):
            if node.id == "self":
                return (_TAG_SELF, ())
            for frame in reversed(self._frames):
                if node.id in frame:
                    return frame[node.id]
            return None
        if isinstance(node, ast.Attribute):
            base = self._eval(node.value)
            if base is None:
                return None
            if base[0] == _TAG_SELF:
                if node.attr == "peer":
                    return (_TAG_PEER,)
                return (_TAG_SELF, base[1] + (node.attr,))
            if base[0] == _TAG_PEER:
                return (_TAG_OWNER,) if node.attr == "owner" else None
            return None
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) \
                    and func.attr == "_require_peer":
                return (_TAG_PEER,)
            return None
        return None

    # -- chain resolution against the ownership map ----------------------
    def _resolve(self, attrs: Tuple[str, ...]):
        """Classify ``self.<attrs...>``; returns (category, classes).

        Categories: ``local``, ``cross``, ``port``, ``shared``,
        ``control``, ``unknown``.  ``classes`` is the family of the
        final object edge (for method-mutation lookups).
        """
        _, family, owner_domain = self._class_stack[-1]
        classes: FrozenSet[str] = family
        domain = owner_domain
        for attr in attrs:
            info = self._omap.ref(classes, attr)
            if info is None:
                return "unknown", frozenset()
            kind = info["kind"]
            if kind == "port":
                return "port", frozenset()
            if kind == "shared":
                return "shared", frozenset()
            if kind == "control":
                return "control", frozenset()
            if kind == "data":
                # Plain data belongs to its holder; deeper attributes
                # stay in the holder's domain.
                domain = info["domain"]
                classes = frozenset()
                break
            classes = self._summaries.family_of(info["targets"])
            domain = self._omap.domain_of_classes(classes)
        if domain == owner_domain:
            return "local", classes
        if domain in ("cpu", "mem", "mixed"):
            return "cross", classes
        return "unknown", classes

    # -- statements ------------------------------------------------------
    def visit_Assign(self, node: ast.Assign) -> None:
        if self._analyzable():
            value_tag = self._eval(node.value)
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self._frames[-1][target.id] = value_tag
                elif isinstance(target, ast.Attribute):
                    self._check_write(target, node, value_tag)
                elif isinstance(target, (ast.Tuple, ast.List)):
                    for element in target.elts:
                        if isinstance(element, ast.Name):
                            self._frames[-1][element.id] = None
            self._check_expr_escape(node.value)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        if self._analyzable():
            if isinstance(node.target, ast.Name):
                self._frames[-1][node.target.id] = None
            elif isinstance(node.target, ast.Attribute):
                self._check_write(node.target, node, None)
            self._check_expr_escape(node.value)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if self._analyzable() and node.value is not None:
            if isinstance(node.target, ast.Name):
                self._frames[-1][node.target.id] = self._eval(node.value)
            elif isinstance(node.target, ast.Attribute):
                self._check_write(node.target, node,
                                  self._eval(node.value))
            self._check_expr_escape(node.value)
        self.generic_visit(node)

    def visit_For(self, node: ast.For) -> None:
        if self._analyzable() and isinstance(node.target, ast.Name):
            self._frames[-1][node.target.id] = None
        self.generic_visit(node)

    def _check_write(self, target: ast.Attribute, node,
                     value_tag: Optional[tuple]) -> None:
        base = self._eval(target.value)
        if base is None:
            return
        if base[0] == _TAG_OWNER:
            self.report(
                node,
                f"write to {target.attr!r} through an escaped peer "
                f"owner: port.peer.owner bypasses the boundary channel",
                suffix="peer-escape")
            return
        if base[0] != _TAG_SELF:
            return
        attrs = base[1]
        if value_tag is not None and value_tag[0] == _TAG_OWNER:
            self.report(
                node,
                f"storing an escaped peer owner on self.{target.attr}: "
                f"keep cross-object handles behind the port "
                f"(use the port's accessors instead)",
                suffix="peer-escape")
            return
        if not attrs:
            self._record("local", target.attr)
            return
        chain = ".".join(attrs + (target.attr,))
        category, _ = self._resolve(attrs)
        if category == "cross":
            self._record("racy", chain)
            self.report(
                node,
                f"cross-domain write: self.{chain} mutates state the "
                f"other event-queue domain owns; route it through the "
                f"boundary or move the state",
                suffix="cross-domain-write")
        elif category in ("local", "shared", "control"):
            self._record(category, chain)

    # -- calls -----------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        if self._analyzable() and isinstance(node.func, ast.Attribute):
            self._check_call(node)
            for arg in node.args:
                self._check_expr_escape(arg)
        self.generic_visit(node)

    def _check_call(self, node: ast.Call) -> None:
        func = node.func
        method = func.attr
        base = self._eval(func.value)
        if base is None:
            return
        if base[0] == _TAG_OWNER:
            self.report(
                node,
                f"call to {method!r} through an escaped peer owner: "
                f"port.peer.owner bypasses the boundary channel",
                suffix="peer-escape")
            return
        if base[0] != _TAG_SELF or not base[1]:
            return
        attrs = base[1]
        chain = ".".join(attrs + (method,))
        category, classes = self._resolve(attrs)
        if category == "port":
            if method in _PORT_SEND_METHODS:
                self._record("boundary", chain)
            return
        if category == "cross":
            if self._summaries.method_mutates(classes or ("object",),
                                              method):
                self._record("racy", chain)
                self.report(
                    node,
                    f"cross-domain call: self.{chain}() mutates an "
                    f"object the other event-queue domain owns; route "
                    f"it through the boundary channel",
                    suffix="cross-domain-call")
            else:
                self._record("cross-read", chain)
        elif category in ("local", "shared", "control"):
            self._record(category, chain)

    # -- escaped-owner uses inside expressions ---------------------------
    def _check_expr_escape(self, expr) -> None:
        """Report attribute reads *through* an escaped peer owner.

        Bare reads of ``x.peer`` / ``x.peer.owner`` (identity checks,
        the crossbar's routing) stay quiet; only dereferencing the
        escaped owner — e.g. caching ``owner.recv_atomic_fast`` — is a
        boundary bypass.  Call funcs are excluded here because
        :meth:`visit_Call` already reports them.
        """
        call_funcs = {id(sub.func) for sub in ast.walk(expr)
                      if isinstance(sub, ast.Call)}
        for sub in ast.walk(expr):
            if not isinstance(sub, ast.Attribute) or id(sub) in call_funcs:
                continue
            base = self._eval(sub.value)
            if base is not None and base[0] == _TAG_OWNER:
                self.report(
                    sub,
                    f"reading {sub.attr!r} from an escaped peer owner: "
                    f"binding the peer's entry points directly bypasses "
                    f"the boundary channel (use the port's accessors)",
                    suffix="peer-escape")

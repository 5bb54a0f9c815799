"""Determinism pass: the simulation core must be a pure function.

The content-addressed result cache (``repro.exec``) assumes two runs
with equal keys produce bit-identical results, and the golden-stats
suite diffs ``stats.txt`` byte-for-byte.  That breaks the moment
simulation code consults wall-clock time, an unseeded RNG, OS entropy,
or iterates an unordered ``set``/``frozenset`` where emission order can
leak into stats, schedules, or dumped files.

Flags, inside simulation-core modules:

- calls to wall-clock sources (``time.time``/``perf_counter``/
  ``monotonic``/``process_time``/``time_ns``, ``datetime.now`` etc.);
- OS entropy (``os.urandom``, ``uuid.uuid1``/``uuid4``,
  ``secrets.*``);
- the module-level ``random.*`` API and unseeded ``random.Random()``
  (seeded ``random.Random(seed)`` instances are deterministic and fine);
- iteration over set displays, comprehensions, or ``set()``/
  ``frozenset()`` calls (``for``-loops and comprehension iterables) —
  wrap them in ``sorted(...)`` to pin the order.

Wall-clock measurement is legitimate in the executor layers, so those
(``exec/``, ``cli.py``) are out of scope.  There is no suppression:
an in-scope finding fails ``tests/lint/test_rules.py``.

The serving daemon (``serve/``) is in scope too — a server that stamps
results with host time would break the coalescer's identical-result
guarantee — but its timing/metrics modules legitimately measure
request latency, so wall-clock reads (only) are exempt in the modules
listed in ``_SERVE_WALL_CLOCK_OK``; every other serve module must take
time through ``serve/clock.py``.

The fleet layer (``fleet/``) is in scope with **no** wall-clock
exemptions at all: heartbeat liveness, job timeouts, and retry pacing
must all go through ``serve/clock.py`` so a fleet can be driven
deterministically under test, and nothing a coordinator or worker
computes may depend on host time, entropy, or set order.
"""

from __future__ import annotations

import ast

from .engine import LintPass

#: Packages whose behaviour feeds stats, schedules, or cache keys.
#: ``sample/`` is fully in scope with no exemptions: sampled payloads
#: live in the content-addressed cache, so every clustering and
#: measurement decision must replay bit-identically from the seed.
#: That includes ``sample/parallel.py`` — window planning and merging
#: must be pure so the parallel fan-out stays byte-identical to the
#: sequential path; all wall-clock timing for windows lives in
#: ``exec/pool.py``, outside the simulation core.
_SCOPED_PREFIXES = ("g5/", "events/", "workloads/", "host/", "core/",
                    "experiments/", "serve/", "sample/", "fleet/")

#: Serve-side timing/metrics modules where wall-clock reads are the
#: point (request latency, job lifecycle stamps).  Entropy, unseeded
#: RNGs, and set iteration stay banned even here.
_SERVE_WALL_CLOCK_OK = ("serve/clock.py", "serve/metrics.py")

_WALL_CLOCK = {
    ("time", "time"), ("time", "time_ns"), ("time", "perf_counter"),
    ("time", "perf_counter_ns"), ("time", "monotonic"),
    ("time", "monotonic_ns"), ("time", "process_time"),
    ("datetime", "now"), ("datetime", "utcnow"), ("datetime", "today"),
    ("date", "today"),
}

_ENTROPY = {
    ("os", "urandom"), ("uuid", "uuid1"), ("uuid", "uuid4"),
    ("secrets", "token_bytes"), ("secrets", "token_hex"),
    ("secrets", "randbelow"), ("secrets", "choice"),
}

#: Module-level random API (shared, unseeded global Mersenne state).
_GLOBAL_RANDOM = {
    "random", "randint", "randrange", "uniform", "choice", "choices",
    "shuffle", "sample", "gauss", "normalvariate", "getrandbits",
}


def _dotted(node: ast.AST):
    """``("obj", "attr")`` for an ``obj.attr`` expression, else None."""
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        return (node.value.id, node.attr)
    return None


class DeterminismPass(LintPass):
    rule = "determinism"

    @classmethod
    def applies_to(cls, relpath: str) -> bool:
        return relpath.startswith(_SCOPED_PREFIXES)

    # -- banned calls ---------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        pair = _dotted(node.func)
        if pair in _WALL_CLOCK:
            if self.source.relpath not in _SERVE_WALL_CLOCK_OK:
                self.report(node, f"wall-clock read {pair[0]}."
                            f"{pair[1]}() in simulation-core code; "
                            "results must not depend on host time",
                            suffix="wall-clock")
        elif pair in _ENTROPY:
            self.report(node, f"OS entropy {pair[0]}.{pair[1]}() in "
                        "simulation-core code; use a seeded generator",
                        suffix="entropy")
        elif pair is not None and pair[0] == "random":
            if pair[1] in _GLOBAL_RANDOM:
                self.report(node, f"module-level random.{pair[1]}() uses "
                            "the shared unseeded RNG; construct "
                            "random.Random(seed) instead",
                            suffix="unseeded-random")
            elif pair[1] in ("Random", "SystemRandom") and not (
                    node.args or node.keywords):
                self.report(node, f"random.{pair[1]}() without a seed is "
                            "nondeterministic; pass an explicit seed",
                            suffix="unseeded-random")
        self.generic_visit(node)

    # -- unordered iteration --------------------------------------------
    def _check_iterable(self, iterable: ast.AST) -> None:
        if isinstance(iterable, (ast.Set, ast.SetComp)):
            self.report(iterable, "iterating a set literal/comprehension "
                        "has no defined order; wrap in sorted(...)",
                        suffix="set-iteration")
            return
        if isinstance(iterable, ast.Call) and \
                isinstance(iterable.func, ast.Name) and \
                iterable.func.id in ("set", "frozenset"):
            self.report(iterable, f"iterating {iterable.func.id}(...) has "
                        "no defined order; wrap in sorted(...)",
                        suffix="set-iteration")

    def visit_For(self, node: ast.For) -> None:
        self._check_iterable(node.iter)
        self.generic_visit(node)

    def _visit_comp(self, node) -> None:
        for generator in node.generators:
            self._check_iterable(generator.iter)
        self.generic_visit(node)

    visit_ListComp = _visit_comp
    visit_SetComp = _visit_comp
    visit_DictComp = _visit_comp
    visit_GeneratorExp = _visit_comp

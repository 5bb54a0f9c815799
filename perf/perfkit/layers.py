"""The layers spans are attributed to, and the flat self-time breakdown."""

from __future__ import annotations

from .spans import Tracer

#: Layer = the part of a span name before the first dot.  These are the
#: repo's packages as the benchmark sees them from outside: ``events``
#: has no entry because its time cannot be split from ``g5.simulate``
#: without editing ``src/`` (it is reported as host µs per event), and
#: ``client`` is the benchmark's own closed-loop client waiting between
#: polls.
LAYERS = ("workloads", "g5", "serialize", "keys", "cache", "pool", "host",
          "experiments", "core", "cli", "serve", "fleet", "client")


def layer_breakdown(tracer: Tracer, wall_s: float) -> dict[str, float]:
    """``self_s.<layer>`` per layer and the share of wall they explain.

    Spans outside :data:`LAYERS` (the ``campaign`` root, harness
    imports) belong to no layer of the program: their self time is the
    unattributed remainder ``1 - trace.attributed_frac``.
    """
    own = tracer.layer_self_times()
    breakdown = {f"self_s.{layer}": own.get(layer, 0.0) for layer in LAYERS}
    attributed = sum(breakdown.values())
    breakdown["trace.attributed_frac"] = attributed / wall_s if wall_s else 0.0
    return breakdown

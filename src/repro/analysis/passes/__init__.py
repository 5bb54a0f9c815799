"""Lint passes over the simulator sources.

Importing this package registers every pass with the engine's
``PASS_REGISTRY`` (via the ``@register_pass`` decorator); the import is
triggered lazily by :func:`repro.analysis.engine.all_passes`.
"""

from __future__ import annotations

from . import (  # noqa: F401
    determinism,
    eventsafety,
    slotscov,
    statsconf,
)

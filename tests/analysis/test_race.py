"""Race pass: fixture pins, ownership-lattice laws, map sanity.

The fires-fixture pins every defect shape the pass detects (direct,
aliased, and aug-assign cross-domain writes; peer-owner escapes;
mutating and interprocedurally-mutating cross-domain calls; shared
mutable class attributes); the quiet fixture pins the sanctioned
idioms (port sends, shared data plane, control plane, read-only cross
calls, identity peer reads).  The lattice laws are checked
property-based: ``join`` must be a commutative, associative,
idempotent least-upper-bound with UNKNOWN as identity and RACY
absorbing.
"""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis import (
    BOUNDARY,
    LATTICE,
    LOCAL,
    RACY,
    UNKNOWN,
    build_ownership_map,
    join,
)
from repro.analysis.passes.race import RacePass

from .conftest import FIXTURES, rule_findings


def _suffixes(findings):
    return sorted(f.rule.split("/", 1)[1] for f in findings)


# -- fixture pins -------------------------------------------------------
def test_race_fires(fixture_findings):
    hits = rule_findings(fixture_findings, "race",
                         path="race/race_fires.py")
    assert _suffixes(hits) == [
        "cross-domain-call",          # scribble() on the L2
        "cross-domain-call",          # touch() -> _bump() interproc.
        "cross-domain-write",         # direct icache._lru_clock
        "cross-domain-write",         # aliased l2._lru_clock
        "cross-domain-write",         # augassign memctrl._next_free_tick
        "peer-escape",                # cached owner.recv_atomic_fast
        "peer-escape",                # inline peer.owner.warm()
        "shared-mutable-class-attr",  # class-level list on a Cache
    ]


def test_race_quiet(fixture_findings):
    assert rule_findings(fixture_findings, "race",
                         path="race/race_quiet.py") == []


def test_race_real_tree_is_clean():
    """The simulator itself must lint clean."""
    from repro.analysis import run_lint

    assert rule_findings(run_lint(), "race") == []


# -- ownership lattice laws ---------------------------------------------
elements = st.sampled_from(LATTICE)


@given(elements, elements)
def test_join_commutative(a, b):
    assert join(a, b) == join(b, a)


@given(elements, elements, elements)
def test_join_associative(a, b, c):
    assert join(join(a, b), c) == join(a, join(b, c))


@given(elements)
def test_join_idempotent(a):
    assert join(a, a) == a


@given(elements)
def test_unknown_is_identity(a):
    assert join(UNKNOWN, a) == a


@given(elements)
def test_racy_absorbs(a):
    assert join(RACY, a) == RACY


def test_boundary_vs_local():
    # A boundary-mediated access merged with a local one stays
    # boundary-mediated: the mediation dominates.
    assert join(BOUNDARY, LOCAL) == BOUNDARY


def test_join_rejects_non_elements():
    with pytest.raises(ValueError):
        join("racy", "bogus")


# -- ownership map sanity ----------------------------------------------
def test_ownership_map_partition():
    omap = build_ownership_map()
    # The runtime partition: every CPU model on the CPU side, the
    # whole memory hierarchy on the memory side.
    for cls in ("AtomicSimpleCPU", "TimingSimpleCPU", "MinorCPU",
                "O3CPU"):
        assert omap.class_domains[cls] == "cpu"
    for cls in ("Cache", "CoherentXBar", "MemCtrl"):
        assert omap.class_domains[cls] == "mem"
    # The shared data plane and the control plane are not domain state.
    assert omap.class_domains["PhysicalMemory"] == "shared"
    assert omap.class_domains["PseudoOpHandler"] == "control"
    # The boundary ports were discovered from the wired graph.
    assert omap.boundary_ports


def test_ownership_map_exports(tmp_path):
    import json

    from repro.analysis import export_ownership_map

    out = tmp_path / "omap.json"
    document = export_ownership_map(str(out), inventory={"X": {}})
    on_disk = json.loads(out.read_text())
    assert on_disk == document
    assert on_disk["schema"] == "repro-ownership-map-v1"
    assert on_disk["access_inventory"] == {"X": {}}


def test_inventory_classifies_real_tree():
    """The access inventory proves the pass saw the hot paths."""
    from pathlib import Path

    from repro.analysis import Engine

    RacePass.reset_inventory()
    root = Path("src/repro")
    assert Engine(root, passes=[RacePass]).run() == []
    inventory = RacePass.snapshot_inventory()
    # The CPUs' port sends are classified boundary-mediated, and
    # their private state as domain-local.
    cpu_categories = {category
                      for owner, by_cat in inventory.items()
                      if owner.endswith("CPU")
                      for category in by_cat}
    assert "boundary" in cpu_categories
    assert "local" in cpu_categories
    # Nothing in the real tree is racy.
    assert all("racy" not in by_cat for by_cat in inventory.values())

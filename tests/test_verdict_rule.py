"""The one verdict rule of the claim table, on synthetic values.

A value outside a claim's acceptance band is ``miss``; inside it, the
claim's paper rule decides between ``match`` and ``shape``.
"""

import pytest

from repro.experiments import FIGURES
from repro.experiments.summary import (
    CLAIMS,
    SLACK,
    Claim,
    above,
    below,
    between,
    holds,
    in_band,
    ratio_within,
    verdict,
    within,
)


def claim(band, rule):
    return Claim("fig7", "synthetic", "-", lambda figure, runner: None,
                 band, rule)


@pytest.mark.parametrize("band, rule, values, expected", [
    # Outside the acceptance band: miss, whatever the paper rule says.
    (between(1.5, 3.2), ratio_within(2.22), [1.4], "miss"),
    (between(1.5, 3.2), ratio_within(2.22), [3.3], "miss"),
    (between(1.5, 3.2), holds, [1.5], "miss"),
    (between(1000, 2400), ratio_within(1602), [1000], "miss"),
    (below(0.15), in_band(0.009, 0.113), [0.05, 0.15], "miss"),
    ((above(0.30), below(0.35)), ratio_within(0.537, 0.132),
     [0.5, 0.35], "miss"),
    # Inside it: the paper rule decides.
    (between(1.5, 3.2), ratio_within(2.22), [2.22 * (1 - SLACK)], "match"),
    (between(1.5, 3.2), ratio_within(2.22), [2.22 * (1 + SLACK)], "match"),
    (between(1.5, 3.2), ratio_within(2.22), [1.6], "shape"),
    (between(1.5, 3.2), ratio_within(2.22, 2.24), [2.0, 2.9], "shape"),
    (within(0.25, 0.60), in_band(0.301, 0.415), [0.25, 0.5], "match"),
    (within(0.25, 0.60), in_band(0.301, 0.415), [0.3, 0.6], "shape"),
    (within(0.0, float("inf")), holds, [0.0], "match"),
    ((above(0.30), below(0.35)), ratio_within(0.537, 0.132),
     [0.5, 0.15], "match"),
    ((above(0.30), below(0.35)), ratio_within(0.537, 0.132),
     [0.5, 0.2], "shape"),
], ids=["below-band", "above-band", "open-band-edge", "integer-edge",
        "one-value-out", "per-value-band", "ratio-floor", "ratio-ceiling",
        "ratio-short", "one-target-each", "closed-band-edge",
        "band-above-paper", "direction", "per-value-match",
        "per-value-shape"])
def test_verdict(band, rule, values, expected):
    assert verdict(claim(band, rule), values) == expected


def test_one_band_or_target_per_value():
    with pytest.raises(ValueError):
        verdict(claim((above(0.1), above(0.2)), holds), [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        verdict(claim(above(0.0), ratio_within(1.0, 2.0)), [1.0, 2.0, 3.0])


def test_every_claim_reads_a_figure_and_explains_a_shape():
    for entry in CLAIMS:
        assert entry.figure in FIGURES, entry.claim
        # Only a paper rule that can fail can produce a shape row.
        assert entry.note or entry.rule is holds, entry.claim

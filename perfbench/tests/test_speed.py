"""Reference seconds follow the loop's speed; steal episodes are found."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from perfbench.report import PER_LAYER_UNITS
from perfbench.speed import INTERVAL_S, SpeedProbe

ROOT = Path(__file__).resolve().parents[2]


def _probe(factors: list[float], steal_from: int) -> SpeedProbe:
    """Samples every INTERVAL_S; two busy ticks per sample, one of them
    stolen from sample ``steal_from`` on."""
    probe = SpeedProbe()
    probe.starts = [index * INTERVAL_S for index in range(len(factors))]
    probe.factors = factors
    probe.durations = [0.0] * len(factors)
    probe.busy = [2 * index for index in range(len(factors))]
    probe.steal = [max(0, index - steal_from) for index in range(len(factors))]
    return probe


def test_reference_seconds_follow_the_loop():
    probe = _probe([0.5] * 100 + [0.25] * 100, steal_from=1000)
    assert probe.reference_seconds(0.2, 0.6) == pytest.approx(0.2)
    assert probe.reference_seconds(2.4, 3.4) == pytest.approx(0.25)
    # across the change, each half-second piece at its own speed
    assert probe.reference_seconds(1.5, 2.5) == pytest.approx(0.375)
    # a short interval takes the median of the nearest samples
    assert probe.factor(1.0001, 1.0002) == 0.5


def test_steal_episodes_are_found():
    probe = _probe([0.5] * 200, steal_from=100)
    assert not probe.stolen(0.5, 0.51)
    assert probe.stolen(3.0, 3.01)
    assert probe.stolen(1.0, 3.0)


def test_every_per_layer_metric_is_printed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS

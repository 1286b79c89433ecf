"""Traced runs: exact counts, and the layers account for the time."""

from __future__ import annotations

from perfbench import dda, federated

COUNTS = (
    "assertions.propagation_steps",
    "equivalence.ocs_cells_recomputed",
    "kernel.events",
)


def test_dda_counts_repeat_exactly():
    first = dda.run(seed=3, seconds=0, trace=True)
    second = dda.run(seed=3, seconds=0, trace=True)
    assert first.failures == [] and second.failures == []
    for name in COUNTS:
        assert first.layers[name] > 0
        assert first.layers[name] == second.layers[name], name


def test_named_layers_cover_the_timed_wall_time():
    for workload in (dda, federated):
        outcome = workload.run(seed=4, seconds=0.5, trace=True)
        assert outcome.layers["trace.coverage"] >= 0.9, workload.__name__

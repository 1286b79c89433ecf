"""Correctness checks of the three workloads' outputs.

Each check returns a list of failure messages, empty when the output is
correct, so a run can report every failure it saw; the benchmark's own
tests feed each check a wrong expectation and see it fail.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.assertions.assertion import Assertion
from repro.assertions.kinds import AssertionKind

Pair = tuple  # (ObjectRef, ObjectRef), oriented first -> second


def check_sitting(
    answered: Mapping[Pair, AssertionKind],
    settled: Mapping[Pair, Assertion | None],
    expected: Mapping[Pair, AssertionKind],
    conflicts: int,
) -> list[str]:
    """A DDA sitting: every answered or derived pair equals the truth.

    ``answered`` holds the pairs the DDA specified, ``settled`` every
    reviewed pair's assertion after the sitting (``None`` when the
    network left it open), ``expected`` the ground truth.  An answered
    pair must keep its exact kind; a derived pair must carry the true
    relation (its integrability half is the DDA's to decide).
    """
    failures = []
    if conflicts:
        failures.append(f"{conflicts} true answer(s) raised a conflict")
    for pair, assertion in settled.items():
        want = expected[pair]
        if assertion is None:
            failures.append(f"{pair[0]} / {pair[1]} left undetermined")
        elif pair in answered:
            if assertion.kind is not want:
                failures.append(
                    f"{pair[0]} / {pair[1]} answered {want.name}, "
                    f"holds {assertion.kind.name}"
                )
        elif assertion.relation is not want.relation:
            failures.append(
                f"{pair[0]} / {pair[1]} derived {assertion.relation.value}, "
                f"truth is {want.relation.value}"
            )
    return failures


def check_derivation_ran(derived: int, reviewed: int) -> list[str]:
    """The run is not vacuous: some reviewed pairs were settled for free."""
    if reviewed and derived > 0:
        return []
    return [f"no pair settled by derivation ({derived} of {reviewed})"]


def check_federated(
    rows: Sequence[tuple], oracle: Sequence[tuple], healthy: bool
) -> list[str]:
    """One federated answer equals the sequential oracle, all legs ok."""
    failures = []
    if list(rows) != list(oracle):
        failures.append(
            f"answer differs from the oracle: {len(rows)} row(s) vs "
            f"{len(oracle)}"
        )
    if not healthy:
        failures.append("federation health is not ok")
    return failures


def check_churn(failed: int, evictions: int, rehydrations: int) -> list[str]:
    """Service churn: no failed response, and the pool really churned."""
    failures = []
    if failed:
        failures.append(f"{failed} failed response(s)")
    if evictions < 1:
        failures.append("no eviction: the residency bound never bit")
    if rehydrations < 1:
        failures.append("no rehydration: no parked session was served")
    return failures

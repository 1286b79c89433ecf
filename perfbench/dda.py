"""dda-sitting: one DDA answers Screen 8's questions, pair after pair.

An in-process closed loop with one DDA.  Each sitting takes a fresh
generated schema pair (24 concepts, overlap 0.6) through the paper's
journey: build an ``AnalysisSession`` over both schemas, declare the
oracle's attribute equivalences, rank the candidates, consult the solver's
suggestions once, answer every still-undetermined pair in rank order with
the true assertion, and integrate.  An operation is one answer (one
``specify``); throughput is counted over the sittings, from set-up to
integration, so it carries their whole cost per answer.  A sitting's set-up is everything before its first answer except the
solver's suggestions: session, equivalences and ranking.  ``setup_s`` is
the median over the run's sittings, so it samples the host all through
the run rather than in one burst at its start.
"""

from __future__ import annotations

import random
import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Iterator

from repro import AnalysisSession
from repro.assertions.assertion import Assertion, ordered_pair
from repro.assertions.composition import ALL_RELATIONS, converse_set
from repro.assertions.kinds import AssertionKind, Relation
from repro.assertions.network import AssertionNetwork
from repro.ecr.schema import ObjectRef
from repro.errors import ConflictError
from repro.solver.engine import propagate
from repro.workloads import GeneratedPair, GeneratorConfig, generate_schema_pair

from perfbench.checks import check_derivation_ran, check_sitting
from perfbench.host import HostWindow, peak_rss_mb
from perfbench.layers import LayerTracer, covered_seconds, layer_times, totals
from perfbench.report import Interval, Outcome
from perfbench.speed import SpeedProbe

CONCEPTS = 24
OVERLAP = 0.6
#: exact counts come from the first sittings, which every run completes
COUNTED_SITTINGS = 3

Pair = tuple[ObjectRef, ObjectRef]


def pair_stream(seed: int) -> Iterator[GeneratedPair]:
    """The run's schema pairs, all derived from the workload seed."""
    rng = random.Random(seed)
    while True:
        yield generate_schema_pair(
            GeneratorConfig(
                seed=rng.randrange(2**31), concepts=CONCEPTS, overlap=OVERLAP
            )
        )


class Truth:
    """A pair's ground truth, closed under the schemas' own IS-A edges.

    The generator lists concept-level correspondences only; a category
    beneath a shared concept is truly contained in the other schema's
    projection of it, not disjoint.  The closure comes from the solver's
    batch engine, not from the incremental network under test.
    """

    def __init__(self, pair: GeneratedPair) -> None:
        scratch = AssertionNetwork()
        facts = scratch.seed_schema(pair.first) + scratch.seed_schema(
            pair.second
        )
        facts += [
            Assertion(first, second, kind)
            for (first, second), kind in sorted(
                pair.truth.object_assertions.items()
            )
        ]
        outcome = propagate(facts)
        if outcome.culprit is not None:
            raise ValueError(f"inconsistent ground truth at {outcome.culprit}")
        self._domains = outcome.domains
        self._stated = pair.truth

    def kind(self, first: ObjectRef, second: ObjectRef) -> AssertionKind:
        key = ordered_pair(first, second)
        feasible = self._domains.get(key, ALL_RELATIONS)
        if key != (first, second):
            feasible = converse_set(feasible)
        stated = self._stated.assertion_between(first, second)
        if stated.relation in feasible:
            return stated
        if len(feasible) != 1:
            raise ValueError(f"no true assertion for {first} / {second}")
        (relation,) = feasible
        if relation is Relation.DR:
            return AssertionKind.DISJOINT_NONINTEGRABLE
        return AssertionKind.from_relation(relation)


def open_sitting(pair: GeneratedPair):
    """A sitting's set-up: session, equivalences, ranked candidates."""
    session = AnalysisSession([pair.first, pair.second])
    for first, second in sorted(pair.truth.attribute_pairs):
        session.declare_equivalent(first, second)
    candidates = session.candidate_pairs(
        pair.first.name, pair.second.name, include_zero=True
    )
    return session, candidates


@dataclass
class Sitting:
    setup: Interval
    #: the sitting from its set-up to the end of integration
    window: Interval
    answers: list[Interval]
    answered: dict[Pair, AssertionKind]
    settled: dict[Pair, Assertion | None]
    conflicts: int
    counters: dict[str, int]
    events: int


def sit(pair: GeneratedPair, truth: Truth, probe: SpeedProbe) -> Sitting:
    """One timed sitting; the settled assertions are read afterwards."""
    clock = time.perf_counter
    start = clock()
    session, candidates = open_sitting(pair)
    setup = (start, clock())
    session.suggest_assertions(pair.first.name, pair.second.name)
    answers: list[Interval] = []
    answered: dict[Pair, AssertionKind] = {}
    conflicts = 0
    for candidate in candidates:
        first, second = candidate.first, candidate.second
        if len(session.feasible(first, second)) == 1:
            continue
        kind = truth.kind(first, second)
        began = clock()
        try:
            session.specify(first, second, kind)
        except ConflictError:
            conflicts += 1
        answers.append((began, clock()))
        answered[(first, second)] = kind
        probe.tick()
    session.integrate(pair.first.name, pair.second.name)
    window = (start, clock())
    settled = {
        (c.first, c.second): session.assertion_for(c.first, c.second)
        for c in candidates
    }
    return Sitting(
        setup=setup,
        window=window,
        answers=answers,
        answered=answered,
        settled=settled,
        conflicts=conflicts,
        counters=session.counters_snapshot(),
        events=session.kernel.bus.offset,
    )


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    tracer = LayerTracer() if trace else None
    probe = SpeedProbe()
    sittings: list[Sitting] = []
    failures: list[str] = []
    busy = 0.0
    with HostWindow() as host, tracer or nullcontext():
        probe.sample()
        for pair in pair_stream(seed):
            truth = Truth(pair)
            sitting = sit(pair, truth, probe)
            sittings.append(sitting)
            expected = {key: truth.kind(*key) for key in sitting.settled}
            failures += check_sitting(
                sitting.answered, sitting.settled, expected, sitting.conflicts
            )
            start, end = sitting.window
            busy += end - start - probe.paused(start, end)
            if busy >= seconds and len(sittings) >= COUNTED_SITTINGS:
                break

    reviewed = sum(len(sitting.settled) for sitting in sittings)
    derived = reviewed - sum(len(sitting.answered) for sitting in sittings)
    failures += check_derivation_ran(derived, reviewed)
    outcome = Outcome(
        operations=[x for sitting in sittings for x in sitting.answers],
        failed=sum(sitting.conflicts for sitting in sittings),
        windows=[sitting.window for sitting in sittings],
        setup=[sitting.setup for sitting in sittings],
        peak_rss_mb=peak_rss_mb(),
        host=host,
        probe=probe,
        failures=failures,
        details={"sittings": len(sittings), "pairs_reviewed": reviewed},
    )
    if tracer is not None:
        table = totals(tracer.spans)
        counted = sittings[:COUNTED_SITTINGS]
        outcome.layers = {
            **layer_times(table),
            "trace.coverage": covered_seconds(table) / busy,
            "equivalence.ocs_cells_recomputed": sum(
                s.counters["ocs_cells_recomputed"] for s in counted
            ),
            "assertions.propagation_steps": sum(
                s.counters["propagation_steps"] for s in counted
            ),
            "assertions.derived_free_ratio": derived / reviewed,
            "kernel.events": sum(s.events for s in counted)
            / sum(len(s.answers) for s in counted),
        }
    return outcome

"""Assertion-aware merging of component answers.

The merger combines the rows the executor collected from each component
leg into one global answer.  The **row pipeline is identical to the
sequential oracle** (:func:`repro.data.migrate.federated_answer`):

1. pad each leg's rows to the global projection (attributes the
   component lacks become ``None``, at the positions
   :func:`~repro.data.migrate._global_positions` computes);
2. set-union across legs (exact duplicates collapse);
3. drop subsumed rows (``('cs', None)`` carries nothing once
   ``('cs', 'west')`` is present); and
4. sort with the store's row ordering.

so a healthy federated run returns *exactly* the oracle's rows — that is
the property the Hypothesis suite checks.  Step 3 is where the two
differ in cost: the oracle compares every row with every other
(O(rows² · width)); :func:`eliminate_subsumed` here groups rows by which
positions are known and looks projections up in hash sets
(O(rows · masks²), with only a handful of distinct masks in practice).

What the merge **strategy** adds on top is interpretation, not different
rows:

* under :attr:`~repro.federation.plan.MergeStrategy.KEY_MERGE` and
  :attr:`~repro.federation.plan.MergeStrategy.OUTER_UNION`, rows that
  agree on the entity key but disagree on another attribute are surfaced
  as :class:`MergeConflict` records (the components genuinely contradict
  each other about one real-world entity — the situation Screen 15's
  attribute-merge dialogue resolves at schema level);
* with ``reconcile_entities=True`` (opt-in, key-merge only) key-equal
  rows are additionally *fused*: each ``None`` is filled from a row that
  knows the value, shrinking the answer to one row per entity.  This is
  deliberately **not** the default because it goes beyond the oracle's
  certain-answer semantics — it asserts that key equality implies entity
  identity, which only the ``equals`` assertion justifies.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.data.instances import _sort_key
from repro.data.migrate import _global_positions
from repro.federation.plan import FederatedPlan, MergeStrategy


@dataclass(frozen=True)
class MergeConflict:
    """Two components disagree about one entity's attribute value."""

    #: the key values identifying the entity (aligned with the plan's
    #: key positions)
    key: tuple
    #: the global projection attribute the components disagree on
    attribute: str
    #: the distinct non-None values seen for it, sorted for stability
    values: tuple

    def describe(self) -> str:
        rendered = " vs ".join(repr(value) for value in self.values)
        key = ", ".join(str(value) for value in self.key)
        return f"conflict on {self.attribute} for entity ({key}): {rendered}"


@dataclass
class MergeOutcome:
    """The merged rows plus everything the strategy learned on the way."""

    rows: list[tuple]
    strategy: MergeStrategy
    conflicts: list[MergeConflict] = field(default_factory=list)
    #: rows removed by subsumption or reconciliation (observability)
    eliminated: int = 0


def merge_legs(
    plan: FederatedPlan,
    leg_rows: list[list[tuple] | None],
    *,
    reconcile_entities: bool = False,
) -> MergeOutcome:
    """Merge per-leg answers into the global answer for ``plan``.

    ``leg_rows`` is aligned with ``plan.legs``; a ``None`` entry is a leg
    that produced no answer (failed component in partial-result mode) and
    contributes nothing.
    """
    answers: set[tuple] = set()
    padded_count = 0
    for leg, rows in zip(plan.legs, leg_rows):
        if rows is None:
            continue
        positions = _global_positions(plan.request, leg)
        width = len(plan.request.attributes)
        for row in rows:
            padded: list = [None] * width
            for local_index, global_index in enumerate(positions):
                padded[global_index] = row[local_index]
            answers.add(tuple(padded))
            padded_count += 1
    kept = eliminate_subsumed(answers)
    conflicts = _find_conflicts(plan, kept)
    if reconcile_entities and plan.strategy is MergeStrategy.KEY_MERGE:
        kept = _reconcile(plan, kept)
    rows = sorted(kept, key=_sort_key)
    return MergeOutcome(
        rows=rows,
        strategy=plan.strategy,
        conflicts=conflicts,
        eliminated=padded_count - len(rows),
    )


def eliminate_subsumed(rows: set[tuple]) -> set[tuple]:
    """Drop every row dominated by a fuller row; an indexed subsumption.

    Row ``r`` is dominated by ``o`` when ``o`` agrees (``==``) with ``r``
    wherever ``r`` is not ``None`` and ``o != r``.  Inside a set that
    means ``o`` knows strictly more positions (its *mask*, the positions
    that are not ``None``, is a strict superset of ``r``'s) and its
    projection onto ``r``'s mask equals ``r``'s.  So rows are grouped by
    mask, and each mask's rows are looked up among the projections of
    the rows under its strict supersets.  Hashing keeps Python ``==``
    semantics (``1 == 1.0 == True``), exactly like the pairwise scan of
    :func:`repro.data.migrate.federated_answer`, which stays the oracle.
    """
    by_mask: dict[frozenset[int], list[tuple]] = {}
    for row in rows:
        mask = frozenset(
            index for index, value in enumerate(row) if value is not None
        )
        by_mask.setdefault(mask, []).append(row)
    kept = set(rows)
    for mask, group in by_mask.items():
        fuller = [bigger for other, bigger in by_mask.items() if mask < other]
        if not fuller:
            continue
        positions = sorted(mask)
        known = {
            tuple(row[index] for index in positions)
            for bigger in fuller
            for row in bigger
        }
        for row in group:
            if tuple(row[index] for index in positions) in known:
                kept.discard(row)
    return kept


def _groups(plan: FederatedPlan, rows: set[tuple]) -> dict[tuple, list[tuple]]:
    """Rows grouped by their (fully known) entity-key values.

    Keys held by a single row are left out: conflicts and reconciliation
    only ever look at two or more rows.
    """
    if not plan.key_positions:
        return {}
    grouped: dict[tuple, list[tuple]] = {}
    for row in rows:
        key = tuple(row[index] for index in plan.key_positions)
        if any(value is None for value in key):
            continue  # unidentified rows cannot be grouped
        grouped.setdefault(key, []).append(row)
    return {key: group for key, group in grouped.items() if len(group) > 1}


def _find_conflicts(
    plan: FederatedPlan, rows: set[tuple]
) -> list[MergeConflict]:
    """Key-equal rows disagreeing on a non-key attribute, as conflicts.

    Only strategies that treat key equality as (possible) entity identity
    report conflicts; a subset union's extra rows are legitimate
    refinements, not contradictions.
    """
    if plan.strategy is MergeStrategy.SUBSET_UNION:
        return []
    conflicts: list[MergeConflict] = []
    key_positions = set(plan.key_positions)
    groups = sorted(
        _groups(plan, rows).items(), key=lambda item: _sort_key(item[0])
    )
    for key, group in groups:
        for index, attribute in enumerate(plan.request.attributes):
            if index in key_positions:
                continue
            values = sorted(
                {row[index] for row in group if row[index] is not None},
                key=str,
            )
            if len(values) > 1:
                conflicts.append(
                    MergeConflict(key, attribute, tuple(values))
                )
    return conflicts


def _reconcile(plan: FederatedPlan, rows: set[tuple]) -> set[tuple]:
    """Fuse key-equal rows, filling each ``None`` from rows that know.

    Where the group disagrees on a non-None value the *first* value in
    row-sort order wins (deterministic); the disagreement itself has
    already been reported as a :class:`MergeConflict`.
    """
    fused: set[tuple] = set()
    consumed: set[tuple] = set()
    for group in _groups(plan, rows).values():
        ordered = sorted(group, key=_sort_key)
        merged = list(ordered[0])
        for row in ordered[1:]:
            for index, value in enumerate(row):
                if merged[index] is None:
                    merged[index] = value
        fused.add(tuple(merged))
        consumed.update(group)
    return (rows - consumed) | fused

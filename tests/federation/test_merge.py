"""Assertion-aware merging: oracle pipeline, conflicts, reconciliation.

Uses a purpose-built two-component world where both components carry the
same attributes, so genuine value conflicts (two non-None disagreeing
values for one entity) can occur — the paper world's components never
disagree because each attribute lives in only one view.
"""

import importlib.util
from pathlib import Path

import pytest
from hypothesis import event, given, settings, strategies as st

from repro.assertions.kinds import AssertionKind
from repro.assertions.network import AssertionNetwork
from repro.data.instances import InstanceStore
from repro.data.migrate import _eliminate_subsumed, federated_answer
from repro.ecr.builder import SchemaBuilder
from repro.ecr.schema import ObjectRef
from repro.federation import FederationEngine
from repro.federation import merge
from repro.federation.merge import eliminate_subsumed, merge_legs
from repro.federation.plan import MergeStrategy
from repro.integration.mappings import SchemaMapping

REQUEST = "select D_Name, D_GPA, D_Support from Student"


def component_schema(name):
    return (
        SchemaBuilder(name, "merge-test component")
        .entity(
            "Student",
            attrs=[("Name", "char", True), ("GPA", "real"), ("Support", "char")],
        )
        .build()
    )


def global_schema():
    return (
        SchemaBuilder("global", "merge-test integrated view")
        .entity(
            "Student",
            attrs=[
                ("D_Name", "char", True),
                ("D_GPA", "real"),
                ("D_Support", "char"),
            ],
        )
        .build()
    )


def mapping(name):
    return SchemaMapping(
        component_schema=name,
        integrated_schema="global",
        objects={"Student": "Student"},
        attributes={
            ("Student", "Name"): ("Student", "D_Name"),
            ("Student", "GPA"): ("Student", "D_GPA"),
            ("Student", "Support"): ("Student", "D_Support"),
        },
    )


def build_world(kind, rows_a, rows_b, **engine_options):
    """Two components related by ``kind``, loaded with the given rows."""
    schema_a, schema_b = component_schema("compA"), component_schema("compB")
    store_a, store_b = InstanceStore(schema_a), InstanceStore(schema_b)
    for values in rows_a:
        store_a.insert("Student", values, partial=True)
    for values in rows_b:
        store_b.insert("Student", values, partial=True)
    network = AssertionNetwork()
    network.add_object(ObjectRef("compA", "Student"))
    network.add_object(ObjectRef("compB", "Student"))
    network.specify(
        ObjectRef("compA", "Student"), ObjectRef("compB", "Student"), kind
    )
    mappings = {"compA": mapping("compA"), "compB": mapping("compB")}
    stores = {"compA": store_a, "compB": store_b}
    engine = FederationEngine.for_stores(
        mappings,
        stores,
        global_schema(),
        object_network=network,
        **engine_options,
    )
    return engine, mappings, stores


class TestOraclePipeline:
    def test_rows_equal_sequential_oracle(self):
        engine, mappings, stores = build_world(
            AssertionKind.EQUALS,
            [{"Name": "ana", "GPA": 3.8}, {"Name": "bob", "GPA": 2.9}],
            [{"Name": "ana", "Support": "ta"}, {"Name": "cyd", "GPA": 3.1}],
        )
        result = engine.query(REQUEST)
        oracle = federated_answer(
            result.plan.request, mappings, stores, global_schema()
        )
        assert result.rows == oracle
        assert result.plan.strategy is MergeStrategy.KEY_MERGE

    def test_exact_duplicates_collapse_and_count(self):
        engine, _, _ = build_world(
            AssertionKind.EQUALS,
            [{"Name": "ana", "GPA": 3.8, "Support": "ta"}],
            [{"Name": "ana", "GPA": 3.8, "Support": "ta"}],
        )
        result = engine.query(REQUEST)
        assert result.rows == [("ana", 3.8, "ta")]
        assert result.eliminated == 1

    def test_subsumed_rows_dropped(self):
        engine, _, _ = build_world(
            AssertionKind.EQUALS,
            [{"Name": "ana", "GPA": 3.8, "Support": "ta"}],
            [{"Name": "ana", "GPA": 3.8}],  # projects to ("ana", 3.8, None)
        )
        result = engine.query(REQUEST)
        assert result.rows == [("ana", 3.8, "ta")]

    def test_none_leg_contributes_nothing(self):
        engine, _, _ = build_world(
            AssertionKind.EQUALS,
            [{"Name": "ana", "GPA": 3.8}],
            [{"Name": "zed", "GPA": 1.0}],
        )
        plan = engine.plan(REQUEST)
        rows_a = [("ana", 3.8)]  # compA leg answered, compB leg did not
        positions_rows = [
            [("ana", 3.8, None)] if leg.schema == "compA" else None
            for leg in plan.legs
        ]
        outcome = merge_legs(plan, positions_rows)
        assert outcome.rows == [("ana", 3.8, None)]
        assert len(rows_a) == 1


#: values whose ``==`` crosses types (``1 == 1.0 == True``) next to None
CELLS = st.sampled_from([None, 0, 1, 1.0, True, "a"])
ROW_SETS = st.integers(0, 5).flatmap(
    lambda width: st.sets(st.tuples(*[CELLS] * width), max_size=12)
)
#: examples seen / examples where a dominated row was dropped
_subsumption_runs = {"examples": 0, "dropped": 0}


@settings(max_examples=300, deadline=None)
@given(ROW_SETS)
def test_indexed_subsumption_equals_quadratic_scan(rows):
    fast = eliminate_subsumed(rows)
    assert fast == _eliminate_subsumed(rows)
    _subsumption_runs["examples"] += 1
    if len(fast) < len(rows):
        event("dropped a dominated row")
        _subsumption_runs["dropped"] += 1


def test_subsumption_property_is_not_vacuous():
    _subsumption_runs.update(examples=0, dropped=0)
    test_indexed_subsumption_equals_quadratic_scan()
    examples, dropped = _subsumption_runs.values()
    assert examples and dropped >= 0.25 * examples, _subsumption_runs


def _record_federation():
    """``benchmarks/record_federation.py``, loaded as a module."""
    path = Path(__file__).resolve().parents[2] / "benchmarks"
    spec = importlib.util.spec_from_file_location(
        "record_federation", path / "record_federation.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_rows_tier_gate_fails_for_a_quadratic_merge(monkeypatch):
    bench = _record_federation()
    monkeypatch.setattr(merge, "eliminate_subsumed", _eliminate_subsumed)
    base, tier = bench.measure_rows_tiers([200, 2_000], rounds=1)
    assert tier["rows_out"] == 2_000
    assert not bench.merge_near_linear(base, tier), tier


class TestConflicts:
    def test_disagreement_surfaces_under_key_merge(self):
        engine, _, _ = build_world(
            AssertionKind.EQUALS,
            [{"Name": "ana", "GPA": 3.8}],
            [{"Name": "ana", "GPA": 2.0}],
        )
        result = engine.query(REQUEST)
        assert len(result.conflicts) == 1
        conflict = result.conflicts[0]
        assert conflict.key == ("ana",)
        assert conflict.attribute == "D_GPA"
        assert conflict.values == (2.0, 3.8)
        assert "D_GPA" in conflict.describe()
        # conflicting rows are both kept: neither subsumes the other
        assert len(result.rows) == 2

    def test_subset_union_reports_no_conflicts(self):
        engine, _, _ = build_world(
            AssertionKind.CONTAINS,
            [{"Name": "ana", "GPA": 3.8}],
            [{"Name": "ana", "GPA": 2.0}],
        )
        result = engine.query(REQUEST)
        assert result.plan.strategy is MergeStrategy.SUBSET_UNION
        assert result.conflicts == []

    def test_outer_union_for_overlapping_populations(self):
        engine, _, _ = build_world(
            AssertionKind.MAY_BE,
            [{"Name": "ana", "GPA": 3.8}],
            [{"Name": "ana", "GPA": 2.0}],
        )
        result = engine.query(REQUEST)
        assert result.plan.strategy is MergeStrategy.OUTER_UNION
        assert len(result.conflicts) == 1


class TestReconciliation:
    def test_opt_in_fuses_key_equal_rows(self):
        engine, _, _ = build_world(
            AssertionKind.EQUALS,
            [{"Name": "ana", "GPA": 3.8}],
            [{"Name": "ana", "Support": "ta"}],
            reconcile_entities=True,
        )
        result = engine.query(REQUEST)
        assert result.rows == [("ana", 3.8, "ta")]

    def test_default_keeps_oracle_rows(self):
        engine, _, _ = build_world(
            AssertionKind.EQUALS,
            [{"Name": "ana", "GPA": 3.8}],
            [{"Name": "ana", "Support": "ta"}],
        )
        result = engine.query(REQUEST)
        assert result.rows == [("ana", 3.8, None), ("ana", None, "ta")]

    def test_reconcile_ignored_outside_key_merge(self):
        engine, _, _ = build_world(
            AssertionKind.MAY_BE,
            [{"Name": "ana", "GPA": 3.8}],
            [{"Name": "ana", "Support": "ta"}],
            reconcile_entities=True,
        )
        result = engine.query(REQUEST)
        assert len(result.rows) == 2


@pytest.mark.parametrize(
    "kind, strategy",
    [
        (AssertionKind.EQUALS, MergeStrategy.KEY_MERGE),
        (AssertionKind.CONTAINS, MergeStrategy.SUBSET_UNION),
        (AssertionKind.CONTAINED_IN, MergeStrategy.SUBSET_UNION),
        (AssertionKind.MAY_BE, MergeStrategy.OUTER_UNION),
    ],
)
def test_strategy_follows_assertion(kind, strategy):
    engine, _, _ = build_world(kind, [{"Name": "ana"}], [{"Name": "bob"}])
    assert engine.plan(REQUEST).strategy is strategy

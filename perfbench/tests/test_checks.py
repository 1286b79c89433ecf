"""Every correctness check passes on a true output and fails on a wrong one."""

from __future__ import annotations

import json

import pytest

from repro.assertions.kinds import AssertionKind
from repro.workloads import GeneratorConfig, generate_schema_pair

from perfbench import federated, measure
from perfbench.checks import (
    check_churn,
    check_derivation_ran,
    check_federated,
    check_sitting,
)
from perfbench.dda import Truth, sit
from perfbench.speed import SpeedProbe


@pytest.fixture(scope="module")
def sitting():
    pair = generate_schema_pair(
        GeneratorConfig(seed=5, concepts=8, overlap=0.6)
    )
    truth = Truth(pair)
    done = sit(pair, truth, SpeedProbe())
    expected = {key: truth.kind(*key) for key in done.settled}
    return done, expected


def _other_kind(kind: AssertionKind) -> AssertionKind:
    return next(
        other for other in AssertionKind if other.relation is not kind.relation
    )


def test_true_sitting_passes(sitting):
    done, expected = sitting
    assert done.answered and len(done.answered) < len(done.settled)
    assert check_sitting(
        done.answered, done.settled, expected, done.conflicts
    ) == []


def test_wrong_answer_expectation_fails(sitting):
    done, expected = sitting
    key = next(iter(done.answered))
    wrong = {**expected, key: _other_kind(expected[key])}
    failures = check_sitting(done.answered, done.settled, wrong, 0)
    assert len(failures) == 1 and "answered" in failures[0]


def test_wrong_derived_expectation_fails(sitting):
    done, expected = sitting
    key = next(k for k in done.settled if k not in done.answered)
    wrong = {**expected, key: _other_kind(expected[key])}
    failures = check_sitting(done.answered, done.settled, wrong, 0)
    assert len(failures) == 1 and "derived" in failures[0]


def test_conflict_and_open_pair_fail(sitting):
    done, expected = sitting
    key = next(iter(done.settled))
    assert check_sitting(done.answered, done.settled, expected, 1)
    opened = {**done.settled, key: None}
    assert check_sitting(done.answered, opened, expected, 0)


def test_vacuous_derivation_fails():
    assert check_derivation_ran(3, 10) == []
    assert check_derivation_ran(0, 10)
    assert check_derivation_ran(0, 0)


def test_federated_check():
    rows = [("a", 1.0), ("b", 2.0)]
    assert check_federated(rows, list(rows), True) == []
    assert check_federated(rows, rows[:1], True)
    assert check_federated(rows, rows, False)


def test_churn_check():
    assert check_churn(0, 1, 1) == []
    assert check_churn(1, 1, 1)
    assert check_churn(0, 0, 1)
    assert check_churn(0, 1, 0)


def test_wrong_oracle_fails_the_run(monkeypatch, capsys):
    """A run whose answers disagree with its oracle exits 1, correct false."""
    true_answer = federated.federated_answer

    def short_oracle(*args, **kwargs):
        return true_answer(*args, **kwargs)[1:]

    monkeypatch.setattr(federated, "federated_answer", short_oracle)
    code = measure.main(
        ["--workload", "federated-query", "--seed", "1", "--seconds", "0.1"]
    )
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1

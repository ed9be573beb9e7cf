"""Acceptance gate: every criterion at its pinned tolerance.

Criteria run once per session (shared polariton build) and each test prints
its pass/fail line, so ``pytest tests/test_acceptance.py -v -s`` shows the
full table.  The same checks back the ``sqbloch validate`` subcommand.
"""

import pytest

from sqbloch import acceptance


@pytest.fixture(scope="module")
def results():
    return {r.number: r for r in acceptance.run_all()}


@pytest.mark.parametrize(
    "criterion", acceptance.CRITERIA, ids=lambda c: f"{c.number}-{c.name}"
)
def test_criterion(results, criterion):
    r = results[criterion.number]
    print(r.summary_line())
    assert r.passed, r.summary_line() + "\n" + "\n".join(r.details)


def test_all_criteria_covered(results):
    assert list(results) == list(range(1, 12))

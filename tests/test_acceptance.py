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


@pytest.mark.parametrize("number,name", acceptance.CRITERIA)
def test_criterion(results, number, name):
    r = results[number]
    print(r.summary_line())
    assert r.passed, r.summary_line() + "\n" + "\n".join(r.details)


def test_all_criteria_covered(results):
    assert sorted(results) == [n for n, _ in acceptance.CRITERIA]
    # Each name is written in its criterion and in CRITERIA; they must agree.
    assert [(r.number, r.name) for r in results.values()] == acceptance.CRITERIA

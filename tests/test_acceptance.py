"""The acceptance gate: every criterion at its stated tolerance.

Runs the suite once and asserts each criterion; the
one-line-per-criterion report prints with ``pytest -s`` and is also what
``dressedatom accept`` shows.
"""

import pytest

from dressedatom.acceptance import run_all

_results = None


def results():
    global _results
    if _results is None:
        _results = run_all()
        for r in _results:
            print(r.line())
    return _results


@pytest.mark.parametrize("cid", range(1, 12))
def test_criterion(cid):
    r = next(r for r in results() if r.cid == cid)
    print(r.line())
    assert r.passed, r.detail


def test_all_criteria_present():
    assert sorted(r.cid for r in results()) == list(range(1, 12))

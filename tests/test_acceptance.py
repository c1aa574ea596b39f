"""The acceptance gate: every criterion at its stated tolerance.

Runs the suite once and asserts each criterion; the
one-line-per-criterion report prints with ``pytest -s`` and is also what
``dressedatom accept`` shows.
"""

import itertools
import math

import pytest
from scipy.integrate import quad

from dressedatom import acceptance
from dressedatom.acceptance import (_C7_J0S, _C7_OMEGA, _C7_OMEGA_TILDES, _C7_TIMES,
                                    _abs_rabi_integral, run_all)
from dressedatom.drives import CosineDrive
from test_drives import coupling_zeros

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


def test_criterion_8_reports_the_drift_of_every_oracle_run(monkeypatch):
    # criteria 4, 5, 9 and 11 make seven oracle runs and criterion 8 its
    # own two: the drift it gates is the largest of all nine
    propagate, drifts = acceptance.propagate, []

    def recording(*args, **kwargs):
        res = propagate(*args, **kwargs)
        drifts.append(res.step_report.norm_drift)
        return res

    monkeypatch.setattr(acceptance, "propagate", recording)
    c8 = next(r for r in run_all() if r.cid == 8)
    assert len(drifts) == 9
    assert c8.drift == max(drifts) > 0.0


def test_criterion_7_reference_matches_quad():
    # criterion 7's Gauss-Legendre reference against adaptive quadrature on
    # the criterion's whole grid, split at the same coupling zeros
    worst = 0.0
    for wt, j0, t in itertools.product(_C7_OMEGA_TILDES, _C7_J0S, _C7_TIMES):
        zeros = coupling_zeros(CosineDrive(j0, _C7_OMEGA), t)
        ref = quad(lambda s: math.hypot(wt, j0 * math.cos(_C7_OMEGA * s)), 0.0, t,
                   limit=400, epsabs=1e-13, epsrel=1e-13, points=zeros or None)[0]
        worst = max(worst, abs(_abs_rabi_integral(wt, j0, _C7_OMEGA, t) - ref))
    assert worst <= 1e-13

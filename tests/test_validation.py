import numpy as np

from qbmag import decoherence, validation


def test_every_check_reports_its_runtime(full_validation):
    checks = full_validation.report.checks
    assert len(checks) == 13
    for c in checks:
        assert c.measured["runtime_s"] >= 0.0, c.name


def test_run_checks_keeps_a_check_own_runtime(monkeypatch):
    own = lambda: validation._result("own", True, {"runtime_s": 123.0}, "", "")
    bare = lambda: validation._result("bare", True, {"value": 1.0}, "", "")
    monkeypatch.setattr(validation, "_FAST_CHECKS", (own, bare))
    report = validation.run_checks("fast")
    assert report.checks[0].measured["runtime_s"] == 123.0
    assert set(report.checks[1].measured) == {"value", "runtime_s"}
    assert 0.0 <= report.checks[1].measured["runtime_s"] < 1.0


def test_criterion_5_integrates_what_closed_curves_compute(monkeypatch):
    # the check's same-kernel lambda are the closed curve's lambda columns,
    # bit for bit, on the check's own grids
    calls = []
    moments = decoherence._moments

    def record(sys, sd, regime, grid, method):
        mom = moments(sys, sd, regime, grid, method)
        calls.append((sys, sd, regime, grid, method, mom))
        return mom

    monkeypatch.setattr(decoherence, "_moments", record)
    assert validation.check_criterion_5().status == "pass"
    monkeypatch.undo()
    assert len(calls) == 60 and {c[4] for c in calls} == {"closed"}
    for sys, sd, regime, grid, method, mom in calls:
        cs = decoherence.curve(sys, sd, regime, decoherence.Separation(1.0, 1.0), grid, method)
        assert cs.method == ("closed",) * len(grid)
        assert np.array_equal(cs.lambda1, mom.c0[:, 0] / sys.hbar)
        assert np.array_equal(cs.lambda2, mom.c0[:, 1] / sys.hbar)

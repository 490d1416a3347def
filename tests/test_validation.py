from qbmag import validation


def test_every_check_reports_its_runtime(full_validation):
    checks = full_validation.report.checks
    assert len(checks) == 14
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

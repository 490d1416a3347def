import json

import numpy as np
import pytest

from qbmag import bath, coefficients, decoherence, specfun, validation
from qbmag.bath import Cutoff, RegimeKind, SpectralDensity, ThermalRegime
from qbmag.dynamics import SystemParams


def test_every_check_reports_its_runtime(full_validation):
    checks = full_validation.report.checks
    assert len(checks) == 12
    for c in checks:
        assert c.measured["runtime_s"] >= 0.0, c.name


def test_run_checks_fails_a_check_past_its_budget(monkeypatch):
    # no check runs in 0 s, and every fast check runs within 1e9 s
    monkeypatch.setattr(validation, "_RUNTIME_BUDGET_S", {"criterion-1": 0.0, "criterion-8": 1e9})
    checks = {c.name: c for c in validation.run_checks("fast").checks}
    assert checks["criterion-1"].status == "fail"
    assert checks["criterion-1"].tolerance.endswith("; runtime < 0 s")
    assert checks["criterion-8"].status == "pass"
    assert checks["criterion-8"].tolerance.endswith("; runtime < 1e+09 s")
    assert "runtime" not in checks["specfun-si-ci"].tolerance


def test_every_budget_names_a_check(full_validation):
    names = {c.name for c in full_validation.report.checks}
    assert set(validation._RUNTIME_BUDGET_S) <= names
    for c in full_validation.report.checks:
        budget = validation._RUNTIME_BUDGET_S.get(c.name)
        assert c.tolerance.count("runtime <") == (budget is not None), c.name
        if budget is not None:
            assert c.tolerance.endswith("; runtime < %g s" % budget), c.name


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


def _scalar_reference_gap(sd, regime, xs):
    """_reference_gap with one reference call per tau."""
    scale = abs(bath.noise_kernel_reference(sd, regime, xs[0] / sd.lam))
    gaps = []
    for x in xs:
        cv = bath.noise_kernel_reference(sd, regime, x / sd.lam)
        qv = bath.noise_kernel_quadrature(sd, regime, x / sd.lam)
        gaps.append(abs(cv - qv) / max(abs(qv), 1e-9 * scale))
    return max(gaps)


def test_reference_gap_calls_the_reference_once(monkeypatch):
    # one array call on every tau; the array call may round a value a few
    # units apart from the scalar call, which moves a gap by no more
    reference = bath.noise_kernel_reference
    xs = np.logspace(-3, np.log10(15.0), 20)
    regime = ThermalRegime(RegimeKind.LOW_TEMPERATURE, 7.0)
    for cutoff in Cutoff:
        sd = SpectralDensity(0.5, cutoff, 50.0, 1.3)
        want = _scalar_reference_gap(sd, regime, xs)
        sizes = []
        counted = lambda sd, regime, tau: sizes.append(np.size(tau)) or reference(sd, regime, tau)
        monkeypatch.setattr(bath, "noise_kernel_reference", counted)
        got = validation._reference_gap(sd, regime, xs)
        monkeypatch.undo()
        assert sizes == [len(xs)]
        assert abs(got - want) <= 64 * np.finfo(float).eps, cutoff


def _without_runtimes(report):
    data = json.loads(report.to_json())
    for check in data["checks"]:
        del check["measured"]["runtime_s"]
    return json.dumps(data, sort_keys=True)


def test_report_does_not_depend_on_what_ran_before():
    # no memo outlives its check: a second full run, and one after the
    # fast level, give the first one's report
    first = _without_runtimes(validation.run_checks("full"))
    assert _without_runtimes(validation.run_checks("full")) == first
    validation.run_checks("fast")
    assert _without_runtimes(validation.run_checks("full")) == first


def _counted(monkeypatch, module, name):
    """A list that gets one entry per call of ``module.name`` from now on."""
    calls = []
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def _run_alone(monkeypatch, check):
    monkeypatch.setattr(validation, "_FAST_CHECKS", ())
    monkeypatch.setattr(validation, "_FULL_EXTRA_CHECKS", (check,))
    assert validation.run_checks("full").passed


def test_criterion_5_takes_scipy_once_per_argument_and_moments_once_per_time(monkeypatch):
    # Si and Ci share one scipy call per distinct reflected argument within
    # the check (2220 calls with one per Si or Ci), and both modes of an
    # exponential form share the moment table of their time (113 with one
    # per mode); one moment pass per draw
    sici = _counted(monkeypatch, specfun, "_sici_scipy")
    moments = _counted(monkeypatch, coefficients, "_exp_moments")
    passes = _counted(monkeypatch, decoherence, "time_moments")
    _run_alone(monkeypatch, validation.check_criterion_5)
    assert (len(sici), len(moments), len(passes)) == (560, 58, 60)


def test_criterion_7_shares_a_pass_per_panel_layout(monkeypatch):
    # the 18 ordering curves take one pass per regime and cutoff (6), the
    # 8 field curves one each: 14 passes, against 26 with one per curve;
    # each curve builds one plan
    passes = _counted(monkeypatch, decoherence, "time_moments")
    plans = _counted(monkeypatch, decoherence, "_kernel_for")
    _run_alone(monkeypatch, validation.check_criterion_7)
    assert (len(passes), len(plans)) == (14, 26)


@pytest.mark.parametrize("rkind, oth", [(RegimeKind.LOW_TEMPERATURE, 0.01), (RegimeKind.HIGH_TEMPERATURE, 1e3)])
def test_ordering_curves_are_their_own_curves(rkind, oth):
    got = validation._ordering_curves(rkind, oth)
    sys = SystemParams(omega0=10.0, omega_c=1.0)
    grid = np.logspace(np.log10(1e-3 / 1e3), np.log10(0.7), 240)
    assert len(got) == 9
    for (s, cutoff), magnitude in got.items():
        sd = SpectralDensity(s, cutoff, 1e3, 1.0)
        own = decoherence.curve(sys, sd, ThermalRegime(rkind, oth), decoherence.Separation(1.0, 1.0), grid)
        assert magnitude.tobytes() == own.magnitude.tobytes(), (s, cutoff)

"""Acceptance suite: runs the full validation registry once and asserts each
criterion, printing one PASS/FAIL line per criterion.

criterion-2 is expected to fail: the honestly fitted high-temperature decay
rate is pi times the catalogued analytic law (the quadrature path is
authoritative; see the companion test pinning the factor and the validation
report's measured values).  The xfail is strict, so the suite flags any
change in that state.
"""

import pytest

from qbmag.validation import ACCEPTANCE_NAMES


@pytest.fixture(scope="module")
def full_report(full_validation):
    # the report `qbmag validate --level full` wrote, shared with test_cli
    return full_validation.report


def _criterion(report, name):
    matches = [c for c in report.checks if c.name == name]
    assert len(matches) == 1, "criterion %s must appear exactly once" % name
    return matches[0]


def _announce(check, extra=""):
    print(
        "ACCEPTANCE %-12s %-4s tol[%s] %s"
        % (check.name, check.status.upper(), check.tolerance, extra)
    )


def test_report_contains_every_criterion_once(full_report):
    assert full_report.acceptance_complete()
    names = [c.name for c in full_report.checks if c.name in ACCEPTANCE_NAMES]
    assert sorted(names) == sorted(ACCEPTANCE_NAMES)


def test_criterion_1_cutoff_convergence(full_report):
    c = _criterion(full_report, "criterion-1")
    _announce(c, "spread=%.2e" % c.measured["max_pairwise_rel_spread"])
    assert c.status == "pass"


@pytest.mark.xfail(
    strict=True,
    reason="fitted rate is pi x gamma Omega_th (dx^2+dy^2)/(2 hbar): the catalogued "
    "long-time law drops the factor pi arising from Si(inf) = pi/2 per unit-sum mode "
    "weight; the quadrature path is authoritative and the deviation is reported, not patched",
)
def test_criterion_2_hightemp_rate(full_report):
    c = _criterion(full_report, "criterion-2")
    _announce(c, "fitted=%.1f law=%.1f" % (c.measured["fitted_rate"], c.measured["catalogued_law"]))
    assert c.status == "pass"


def test_criterion_2_measured_rate_is_pi_times_law(full_report):
    c = _criterion(full_report, "criterion-2")
    assert c.measured["ratio_over_pi"] == pytest.approx(1.0, rel=5e-3)
    assert c.measured["fit_points"] >= 10
    assert c.measured["runtime_s"] < 30.0


def test_criterion_3_cyclotron_independence(full_report):
    c = _criterion(full_report, "criterion-3")
    _announce(c, "rel_change=%.2e" % c.measured["rel_change"])
    assert c.status == "pass"


def test_criterion_4_lowtemp_power_law(full_report):
    c = _criterion(full_report, "criterion-4")
    _announce(
        c,
        "slope=%.4f intercept=%.3f formula=%.3f"
        % (c.measured["slope"], c.measured["neg_intercept"], c.measured["logc_formula"]),
    )
    assert c.status == "pass"
    assert c.measured["runtime_s"] < 60.0


def test_criterion_5_closed_vs_quadrature_matrix(full_report):
    c = _criterion(full_report, "criterion-5")
    worst = max(c.measured["validated_worst_rel"].values())
    _announce(c, "validated worst=%.2e findings=%d" % (worst, len(c.measured["printed_findings"])))
    assert c.status == "pass"
    assert not c.measured["undocumented_deviations"]
    # the typo-detection instrument must actually flag the catalogued findings
    assert "abrupt-high-lambda2" in c.measured["printed_findings"]
    assert "drude-low-lambda1" in c.measured["printed_findings"]


def test_criterion_6_table_kernels(full_report):
    c = _criterion(full_report, "criterion-6")
    worst = max(c.measured["worst_rel"].values())
    _announce(c, "12 kernels worst=%.2e" % worst)
    assert c.status == "pass"
    assert len(c.measured["worst_rel"]) == 12
    assert c.measured["runtime_s"] < 120.0


def test_criterion_7_ordering_properties(full_report):
    c = _criterion(full_report, "criterion-7")
    holds = {k: v for k, v in c.measured.items() if isinstance(v, dict) and "holds" in v}
    _announce(c, "%d comparisons" % len(holds))
    assert c.status == "pass"
    for key, entry in holds.items():
        assert entry["holds"], key
        assert entry["points"] >= 10, key


def test_criterion_8_structural_invariants(full_report):
    c = _criterion(full_report, "criterion-8")
    _announce(c, "eom=%.2e" % c.measured["eom_residual"])
    assert c.status == "pass"
    assert c.measured["runtime_s"] < 10.0


def test_module_checks_pass(full_report):
    for c in full_report.checks:
        if c.name not in ACCEPTANCE_NAMES and c.name != "criterion-2":
            assert c.status == "pass", c.name


def test_report_serialisation_roundtrip(full_validation):
    from qbmag.validation import ValidationReport

    # the file holds the freshly computed report's to_json() and a newline
    text = full_validation.text
    again = ValidationReport.from_json(text)
    assert again.to_json() + "\n" == text
    assert [c.name for c in again.checks] == [c.name for c in full_validation.report.checks]

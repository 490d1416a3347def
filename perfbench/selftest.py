"""Self-test of the benchmark's gates: the oracles reject planted errors and a
raising operation is counted as failed without stopping the run.

    python3 perfbench/selftest.py            # or: python3 -m pytest perfbench/selftest.py

Takes about ten seconds.  The file name keeps it out of the repository's
default test collection.
"""

import copy
import json
import os
import shutil
import sys
import tempfile

import run
import speed

run.import_qbmag()

import workloads  # noqa: E402
from qbmag.validation import CheckResult  # noqa: E402

PLANT = 1.0 + 1e-4


def _rewrite_csv(src, dst, column=None, factor=1.0, header=None):
    with open(src) as fh:
        lines = fh.read().splitlines()
    out = [header or lines[0]]
    for line in lines[1:]:
        cells = line.split(",")
        if column is not None:
            cells[column] = repr(float(cells[column]) * factor)
        out.append(",".join(cells))
    with open(dst, "w") as fh:
        fh.write("\n".join(out) + "\n")


def _item(wl, case_prefix):
    return next(it for it in wl.items if it["case"].startswith(case_prefix))


def _ok(verdicts):
    return [v[1] for v in verdicts]


def test_curve_oracle_rejects_planted_errors(tmp_path):
    wl = workloads.Curves(7)
    item = _item(wl, "quadrature/exp/s=1/high")
    result = wl.run(item, tmp_path, 0)
    assert _ok(wl.check(item, result, (0.0, 0.0))) == [True], wl.check(item, result, (0.0, 0.0))
    for column, what in ((1, "magnitude"), (3, "lambda1_re"), (5, "lambda2_re")):
        planted = os.path.join(tmp_path, "planted-%d.csv" % column)
        _rewrite_csv(result["path"], planted, column, PLANT)
        (verdict,) = wl.check(item, dict(result, path=planted), (0.0, 0.0))
        assert not verdict[1], "a %s scaled by 1+1e-4 passed the oracle" % what
    planted = os.path.join(tmp_path, "planted-header.csv")
    _rewrite_csv(result["path"], planted, header=workloads.CSV_HEADER.replace("phase", "arg"))
    assert not wl.check(item, dict(result, path=planted), (0.0, 0.0))[0][1]


def test_sweep_oracle_rejects_bad_status_and_planted_point(tmp_path):
    wl = workloads.Sweep(7, workers=1)
    item = wl.items[0]
    result = wl.run(item, tmp_path, 0)
    assert all(_ok(wl.check(item, result, (0.0, 0.0))))
    manifest_path = os.path.join(result["path"], "manifest.json")
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    first, second = manifest["points"][0], manifest["points"][1]
    first["status"] = "numerical-error"
    with open(manifest_path, "w") as fh:
        json.dump(manifest, fh)
    path = os.path.join(result["path"], second["file"])
    _rewrite_csv(path, path, 3, PLANT)
    verdicts = wl.check(item, result, (0.0, 0.0))
    assert len(verdicts) == wl.n_ops(item) and _ok(verdicts).count(False) == 2, verdicts


def test_exact_oracle_rejects_scaled_kernel_and_lambda(tmp_path):
    wl = workloads.Exact(7)
    item = _item(wl, "exact/abrupt/s=1")
    result = wl.run(item, tmp_path, 0)
    assert _ok(wl.check(item, result, (0.0, 0.0))) == [True], wl.check(item, result, (0.0, 0.0))
    planted = os.path.join(tmp_path, "planted.csv")
    _rewrite_csv(result["path"], planted, 3, PLANT)
    assert not wl.check(item, dict(result, path=planted), (0.0, 0.0))[0][1]
    quadrature = workloads.bath.noise_kernel_quadrature
    workloads.bath.noise_kernel_quadrature = lambda *a, **k: quadrature(*a, **k) * PLANT
    try:
        (verdict,) = wl.check(item, result, (0.0, 0.0))
    finally:
        workloads.bath.noise_kernel_quadrature = quadrature
    assert not verdict[1] and verdict[2].startswith("nu("), verdict


def test_validate_oracle():
    passing = CheckResult("criterion-5", "pass", {}, "", "")
    assert workloads.check_validation_result(passing) is None
    assert workloads.check_validation_result(CheckResult("criterion-5", "fail", {}, "", ""))
    by_design = CheckResult("criterion-2", "fail", {"ratio_over_pi": 1.0004}, "", "")
    assert workloads.check_validation_result(by_design) is None
    assert workloads.check_validation_result(CheckResult("criterion-2", "pass", {"ratio_over_pi": 1.0}, "", ""))
    assert workloads.check_validation_result(
        CheckResult("criterion-2", "fail", {"ratio_over_pi": 1.0 * PLANT**1000}, "", "")
    )


def test_raising_operation_is_a_failed_operation(tmp_path):
    wl = workloads.Curves(7)
    good = _item(wl, "quadrature/exp/s=1/high")
    bad = copy.deepcopy(good)
    bad["case"] = "negative-omega0"
    bad["cfg"]["omega0"] = -1.0
    records, walls = run.run_passes(wl, [bad, good], tmp_path, passes=1)
    verdicts, verified = run.judge(wl, records)
    assert verified and len(walls) == 1
    assert [(v[1], v[2]) for v in verdicts] == [("negative-omega0", False), (good["case"], True)], verdicts
    assert verdicts[0][3].startswith("ConfigError"), verdicts[0][3]


def test_clock_takes_probe_units_out_and_counts_reference_seconds():
    clock = speed.Clock()
    clock.burst(20)
    start = clock.mark()
    for _ in range(5):
        speed.reference_unit()
    clock.burst(20)
    end = clock.mark()
    clock.burst(20)
    net, ref = clock.cost(start, end)
    assert net < end[0] - start[0] - sum(clock.durations[20:40]) * 0.999, (net, end[0] - start[0])
    # five units of work are five thousandths of a reference second
    assert 0.0025 < ref < 0.01, ref
    assert speed.Clock().cost(start, end)[1] is None


def _tmp_dir():
    run.OUT.mkdir(exist_ok=True)
    return tempfile.mkdtemp(dir=run.OUT, prefix="selftest-")


def main():
    failures = 0
    for name, fn in sorted(globals().items()):
        if not name.startswith("test_"):
            continue
        tmp_path = _tmp_dir()
        try:
            fn(tmp_path) if fn.__code__.co_argcount else fn()
            print("PASS", name)
        except AssertionError as exc:
            failures += 1
            print("FAIL", name, exc)
        finally:
            shutil.rmtree(tmp_path, ignore_errors=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

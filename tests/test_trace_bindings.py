"""The benchmark tracer rebinds qbmag module attributes by name; these tests
fail when a rename leaves one of its bindings pointing nowhere or a curve
stops passing through the names it wraps."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from qbmag import bath, cli, decoherence, validation
from qbmag.cli import parse_config

TRACE_PY = Path(__file__).resolve().parents[1] / "perfbench" / "trace.py"

CURVE_CFG = """
s=1
cutoff=exp
lam=1e3
omega0=10
omega_c=1
omega_th=20
regime=%s
t_points=20
"""


def _load_trace():
    # loaded by path: the module name ``trace`` would shadow the standard
    # library's
    spec = importlib.util.spec_from_file_location("perfbench_trace", TRACE_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_binding_exists():
    trace = _load_trace()
    for mod_name, attr, *_ in trace.BINDINGS + (trace.FACTORY,):
        assert hasattr(importlib.import_module(mod_name), attr), "%s.%s" % (mod_name, attr)


@pytest.mark.parametrize("regime", ["high", "exact"])
def test_tracer_records_the_layers_of_a_curve(tmp_path, regime):
    trace = _load_trace()
    tracer = trace.Tracer()
    run_curve, factory = cli.run_curve, decoherence._reference_kernel_fn
    tracer.install()
    try:
        assert cli.run_curve(parse_config(CURVE_CFG % regime), str(tmp_path / "c.csv")) == 0
    finally:
        tracer.uninstall()
    assert (cli.run_curve, decoherence._reference_kernel_fn) == (run_curve, factory)
    spans = tracer.spans
    names = [span[0] for span in spans]
    assert names.count("cli.run_curve") == 1 and names.count("decoherence.curve") == 1
    # every kernel call nests inside the curve, which nests inside run_curve
    kernel = [span for span in spans if span[0] == "bath.reference_kernel"]
    assert kernel and all(span[4] > 0 for span in kernel)
    for span in kernel:
        parents = []
        parent = span[3]
        while parent >= 0:
            parents.append(spans[parent][0])
            parent = spans[parent][3]
        assert parents[-2:] == ["decoherence.curve", "cli.run_curve"]


def test_tracer_records_the_quadrature_oracle_of_a_check():
    # the bath.quadrature_* metrics count these spans; validation calls the
    # oracle through its module reference to bath
    trace = _load_trace()
    tracer = trace.Tracer()
    quadrature = bath.noise_kernel_quadrature
    tracer.install()
    try:
        check = next(f for f in validation._FULL_EXTRA_CHECKS if f.__name__ == "check_drude_exact_pole_sum")
        result = check()
    finally:
        tracer.uninstall()
    assert bath.noise_kernel_quadrature is quadrature
    assert result.status == "pass"
    spans = tracer.spans
    names = [span[0] for span in spans]
    assert names.count("validation.check_drude_exact_pole_sum") == 1
    # two (Lam, Omega_th) pairs at three tau each
    oracle = [span for span in spans if span[0] == "bath.noise_kernel_quadrature"]
    assert len(oracle) == 6
    assert all(spans[span[3]][0] == "validation.check_drude_exact_pole_sum" for span in oracle)
    assert all(span[2] > span[1] for span in oracle)
    metrics = tracer.layer_metrics(1.0, 1, {"check_drude_exact_pole_sum": "bath-drude-exact-pole-sum"})
    assert metrics["bath.quadrature_calls"] == 6 and metrics["bath.quadrature_ms_per_call"] > 0
    assert metrics["validation.bath-drude-exact-pole-sum_s"] > 0

"""Span tracer for the traced benchmark run, and the per-layer metrics.

The tracer wraps, inside the benchmark process only, the names each qbmag
module imports from the next one down, so that a call across a layer
boundary records a span: name, start, end, parent span and the number of
kernel nodes it was asked for.  No qbmag file changes.  Spans stay in memory
and are written out when the run ends.  A span's self time is its duration
minus the time its child spans cover.

Wrapping costs about a microsecond per call, which stretches the 157k scalar
calls of criterion-5 by roughly half, so per-layer numbers come only from the
traced run and end-to-end numbers only from untraced runs.
"""

import functools
import importlib
from time import perf_counter

import numpy as np


def _nodes_arg(i):
    return lambda args, kwargs: int(np.size(args[i])) if len(args) > i else 0


def _one(args, kwargs):
    return 1


#: (module, attribute, span name, node count).  One row per binding: a name
#: imported with ``from x import y`` is a separate binding from ``x.y``, which
#: is what ``validation`` calls through its module references.
BINDINGS = (
    ("qbmag.decoherence", "noise_kernel_quadrature", "bath.noise_kernel_quadrature", _one),
    ("qbmag.coefficients", "noise_kernel_quadrature", "bath.noise_kernel_quadrature", _one),
    ("qbmag.bath", "noise_kernel_quadrature", "bath.noise_kernel_quadrature", _one),
    ("qbmag.decoherence", "noise_kernel_closed_parts", "bath.noise_kernel_closed_parts", _nodes_arg(2)),
    ("qbmag.bath", "noise_kernel_closed_parts", "bath.noise_kernel_closed_parts", _nodes_arg(2)),
    ("qbmag.coefficients", "f_weight", "dynamics.f_weight", None),
    ("qbmag.dynamics", "f_weight", "dynamics.f_weight", None),
    ("qbmag.coefficients", "Si", "specfun.sici", None),
    ("qbmag.coefficients", "Ci", "specfun.sici", None),
    ("qbmag.specfun", "sin_integral", "specfun.sici", None),
    ("qbmag.specfun", "cos_integral", "specfun.sici", None),
    ("qbmag.coefficients", "lambda_from_kernel", "coefficients.lambda_from_kernel", None),
    ("qbmag.coefficients", "lambda_closed", "coefficients.lambda_closed", None),
    ("qbmag.cli", "curve", "decoherence.curve", None),
    ("qbmag.decoherence", "curve", "decoherence.curve", None),
    ("qbmag.cli", "run_curve", "cli.run_curve", None),
)

#: kernel factory whose returned closure is the reference transform a curve
#: integrates; each call of that closure is a ``bath.reference_kernel`` span
FACTORY = ("qbmag.decoherence", "_reference_kernel_fn", "bath.reference_kernel", _nodes_arg(0))

#: the validation suite runs the check functions listed in these tuples
CHECK_TUPLES = ("_FAST_CHECKS", "_FULL_EXTRA_CHECKS")

KERNEL_SPANS = ("bath.reference_kernel", "bath.noise_kernel_closed_parts", "bath.noise_kernel_quadrature")

VALIDATION_CHECKS = (
    "specfun-si-ci",
    "specfun-gamma-erf",
    "specfun-lerch-pfq",
    "dynamics-mode-identities",
    "bath-reference-kernels",
    "criterion-1",
    "criterion-8",
    "criterion-2",
    "criterion-3",
    "criterion-4",
    "criterion-5",
    "criterion-6",
    "criterion-7",
    "bath-drude-exact-pole-sum",
)

#: every per-layer metric, in the order BENCHMARK.json lists them
PER_LAYER = (
    ("bath.quadrature_calls", "count"),
    ("bath.quadrature_ms_per_call", "ms"),
    ("bath.quadrature_busy_frac", "ratio"),
    ("decoherence.kernel_nodes_per_curve", "count"),
    ("bath.reference_us_per_node", "us"),
    ("decoherence.curve_ms_p50", "ms"),
    ("decoherence.curve_ms_p90", "ms"),
    ("decoherence.self_frac", "ratio"),
    ("cli.overhead_ms_per_curve", "ms"),
    ("cli.sweep_speedup_2w", "ratio"),
    ("coefficients.lambda_from_kernel_calls", "count"),
    ("coefficients.lambda_from_kernel_ms_per_call", "ms"),
    ("bath.closed_parts_calls", "count"),
    ("dynamics.f_weight_calls", "count"),
    ("dynamics.f_weight_us_per_call", "us"),
    ("coefficients.lambda_closed_us_per_call", "us"),
    ("specfun.sici_calls", "count"),
    ("specfun.sici_us_per_call", "us"),
    ("validation.criterion-5_lambda_from_kernel_frac", "ratio"),
) + tuple(("validation.%s_s" % name, "s") for name in VALIDATION_CHECKS) + (
    ("bath.integration_warnings", "count"),
    ("decoherence.runtime_warnings", "count"),
    ("trace.overhead_frac", "ratio"),
)


class Tracer:
    """Collects spans ``[name, start, end, parent, nodes]`` in memory."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []

    def wrap(self, fn, name, count=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            nodes = count(args, kwargs) if count else 0
            idx = len(spans)
            spans.append([name, perf_counter(), 0.0, stack[-1] if stack else -1, nodes])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = perf_counter()

        return traced

    def install(self):
        for mod_name, attr, name, count in BINDINGS:
            mod = importlib.import_module(mod_name)
            orig = getattr(mod, attr)
            self._saved.append((mod, attr, orig))
            setattr(mod, attr, self.wrap(orig, name, count))
        mod_name, attr, name, count = FACTORY
        mod = importlib.import_module(mod_name)
        factory = getattr(mod, attr)
        self._saved.append((mod, attr, factory))

        def traced_factory(*args, **kwargs):
            kernel = factory(*args, **kwargs)
            return None if kernel is None else self.wrap(kernel, name, count)

        setattr(mod, attr, traced_factory)
        validation = importlib.import_module("qbmag.validation")
        for attr in CHECK_TUPLES:
            checks = getattr(validation, attr)
            self._saved.append((validation, attr, checks))
            setattr(validation, attr, tuple(self.wrap(f, "validation." + f.__name__) for f in checks))

    def uninstall(self):
        while self._saved:
            mod, attr, orig = self._saved.pop()
            setattr(mod, attr, orig)

    def write(self, path):
        with open(path, "w") as fh:
            fh.write("index,parent,name,start_s,end_s,nodes\n")
            for i, (name, start, end, parent, nodes) in enumerate(self.spans):
                fh.write("%d,%d,%s,%.9f,%.9f,%d\n" % (i, parent, name, start, end, nodes))

    def layer_metrics(self, wall_s, passes, check_names):
        """Per-layer metrics from the spans of ``passes`` traced passes that
        took ``wall_s`` in all.  Call counts are per pass.

        A span nested inside a span of the same name (Si calling itself for
        negative arguments) counts once, with its outer duration.
        """
        spans = self.spans
        n = len(spans)
        child = [0.0] * n
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start

        def ancestors(i):
            p = spans[i][3]
            while p >= 0:
                yield p
                p = spans[p][3]

        calls, total, self_time, nodes = {}, {}, {}, {}
        curve_ms, curve_nodes = [], 0
        for i, (name, start, end, parent, k) in enumerate(spans):
            up = [spans[a][0] for a in ancestors(i)]
            if name in up:
                continue
            dur = end - start
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + dur
            self_time[name] = self_time.get(name, 0.0) + dur - child[i]
            nodes[name] = nodes.get(name, 0) + k
            if name == "decoherence.curve":
                curve_ms.append(dur * 1e3)
            elif name in KERNEL_SPANS and "decoherence.curve" in up:
                curve_nodes += k

        def per(name, scale, by=None):
            count = (nodes if by == "nodes" else calls).get(name, 0)
            return total.get(name, 0.0) * scale / count if count else 0.0

        n_curves = calls.get("decoherence.curve", 0)
        n_runs = calls.get("cli.run_curve", 0)
        crit5 = {i for i, s in enumerate(spans) if s[0] == "validation.check_criterion_5"}
        lfk_in_c5 = sum(
            s[2] - s[1]
            for i, s in enumerate(spans)
            if s[0] == "coefficients.lambda_from_kernel" and any(a in crit5 for a in ancestors(i))
        )
        c5_total = sum(spans[i][2] - spans[i][1] for i in crit5)

        def per_pass(name):
            return calls.get(name, 0) / passes

        out = {
            "bath.quadrature_calls": per_pass("bath.noise_kernel_quadrature"),
            "bath.quadrature_ms_per_call": per("bath.noise_kernel_quadrature", 1e3),
            "bath.quadrature_busy_frac": total.get("bath.noise_kernel_quadrature", 0.0) / wall_s,
            "decoherence.kernel_nodes_per_curve": curve_nodes / n_curves if n_curves else 0.0,
            "bath.reference_us_per_node": per("bath.reference_kernel", 1e6, by="nodes"),
            "decoherence.curve_ms_p50": float(np.percentile(curve_ms, 50)) if curve_ms else 0.0,
            "decoherence.curve_ms_p90": float(np.percentile(curve_ms, 90)) if curve_ms else 0.0,
            "decoherence.self_frac": (
                self_time["decoherence.curve"] / total["decoherence.curve"] if n_curves else 0.0
            ),
            "cli.overhead_ms_per_curve": self_time.get("cli.run_curve", 0.0) * 1e3 / n_runs if n_runs else 0.0,
            "coefficients.lambda_from_kernel_calls": per_pass("coefficients.lambda_from_kernel"),
            "coefficients.lambda_from_kernel_ms_per_call": per("coefficients.lambda_from_kernel", 1e3),
            "bath.closed_parts_calls": per_pass("bath.noise_kernel_closed_parts"),
            "dynamics.f_weight_calls": per_pass("dynamics.f_weight"),
            "dynamics.f_weight_us_per_call": per("dynamics.f_weight", 1e6),
            "coefficients.lambda_closed_us_per_call": per("coefficients.lambda_closed", 1e6),
            "specfun.sici_calls": per_pass("specfun.sici"),
            "specfun.sici_us_per_call": per("specfun.sici", 1e6),
            "validation.criterion-5_lambda_from_kernel_frac": lfk_in_c5 / c5_total if c5_total else 0.0,
        }
        for fn_name, check in check_names.items():
            out["validation.%s_s" % check] = per("validation." + fn_name, 1.0)
        return out

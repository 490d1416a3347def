#!/usr/bin/env python3
"""qbmag benchmark: runs one workload in this process and prints its metrics.

    python3 perfbench/run.py --workload curves --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout: qbmag is imported from ``./src`` and
nothing else, and the run exits with status 1 when that source is missing.
Workloads: ``curves``, ``sweep``, ``exact``, ``validate`` (see README.md).

With ``--trace 0`` the benchmark warms up, runs as many whole passes over the
workload's items as take ``--seconds`` at the nominal pass time, with the
machine-speed probe of ``speed.py`` on, checks every output against its
oracle and prints the end-to-end metrics.  With ``--trace 1`` it runs the
same passes untraced, then again with the layer tracer installed, and prints
the per-layer metrics; their difference is ``trace.overhead_frac``.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A run record with the generated
inputs, every operation's verdict and the machine goes to
``.perfbench_out/``.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
import warnings
from pathlib import Path
from time import perf_counter

import speed

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"

#: set-up is measured in this many fresh processes; the median is reported
SETUP_REPEATS = 5

END_TO_END_UNITS = {"setup_s": "s", "good_ops_per_ref_s": "ops/ref_s", "peak_rss_mb": "MB"}

#: wall seconds of one pass, speed probe included, at the parent commit on a
#: 2-vCPU Xeon VM; they fix the pass count for a given ``--seconds``
NOMINAL_PASS_S = {"curves": 1.4, "sweep": 0.21, "exact": 21.0, "validate": 12.0}

#: seconds between probe units inside operations; a unit takes under 1 ms
PROBE_INTERVAL_S = 0.01

#: probe units after each item of a workload that probes between items
PROBE_BURST = 10


def import_qbmag():
    """Put ``./src`` first on the path and check that qbmag comes from there."""
    src = ROOT / "src"
    if not (src / "qbmag" / "__init__.py").is_file():
        raise SystemExit("perfbench: no qbmag source under %s" % src)
    sys.path.insert(0, str(src))
    # sweep workers started by spawn or forkserver import qbmag afresh
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    import qbmag

    if Path(qbmag.__file__).resolve().parent != (src / "qbmag").resolve():
        raise SystemExit("perfbench: qbmag was imported from %s, not %s" % (qbmag.__file__, src))


def machine():
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def passes_for(workload, seconds):
    """Whole passes in one timed section: as many as take ``seconds`` at the
    nominal pass time.  The count, and with it ``attempted`` and ``failed``,
    depends only on the workload and ``seconds``, never on the machine's speed
    during the run."""
    return max(1, round(seconds / NOMINAL_PASS_S[workload]))


def run_passes(wl, items, out_dir, passes, clock=None, burst=0, first_tag=0):
    """Run ``passes`` whole passes over ``items``.

    Returns (records, pass_marks): one record (pass, item, result, error,
    start mark, end mark) per item run, and the (start, end) marks of each
    pass.  ``burst`` probe units run after every item.  Operation outputs are
    numbered from ``first_tag`` so none is overwritten before it is checked.
    """
    clock = clock or speed.Clock()
    records = []
    pass_marks = []
    for pass_no in range(passes):
        start_pass = clock.mark()
        for item in items:
            start = clock.mark()
            try:
                result, error = wl.run(item, out_dir, first_tag + len(records)), None
            except Exception as exc:  # noqa: BLE001 - a raising operation is a failed operation
                tb = traceback.extract_tb(exc.__traceback__)[-1]
                result = None
                error = "%s: %s at %s:%d" % (type(exc).__name__, exc, os.path.basename(tb.filename), tb.lineno)
            records.append((pass_no, item, result, error, start, clock.mark()))
            clock.burst(burst)
        pass_marks.append((start_pass, clock.mark()))
    return records, pass_marks


def judge(wl, records, clock=None):
    """One verdict (pass, case, ok, reason, wall_s, ref_s) per operation.

    Returns (verdicts, verified); ``verified`` is False when an oracle itself
    could not be evaluated, so some output went unchecked.
    """
    clock = clock or speed.Clock()
    verdicts = []
    verified = True
    for pass_no, item, result, error, start, end in records:
        n = wl.n_ops(item)
        cost = clock.cost(start, end)
        if error is not None:
            verdicts += [(pass_no, item["case"], False, error) + speed.split(cost, n)] * n
            continue
        try:
            verdicts += [(pass_no,) + v for v in wl.check(item, result, cost)]
        except Exception as exc:  # noqa: BLE001 - recorded; the run goes on
            verified = False
            reason = "oracle error: %s" % "".join(traceback.format_exception_only(exc)).strip()
            verdicts += [(pass_no, item["case"], False, reason) + speed.split(cost, n)] * n
    return verdicts, verified


def setup_seconds(workload, seed):
    """Wall time of fresh processes that import qbmag and build the inputs.

    The wait has no timeout: with one, ``subprocess`` polls every 50 ms and
    the times come out in 50 ms steps.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", workload, "--seed", str(seed)],
            cwd=ROOT,
            check=True,
        )
        times.append(perf_counter() - start)
    return statistics.median(times), times


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def failure_summary(verdicts):
    counts = {}
    for _, case, ok, reason, *_ in verdicts:
        if not ok:
            counts[(case, reason)] = counts.get((case, reason), 0) + 1
    return [{"case": c, "reason": r, "count": n} for (c, r), n in sorted(counts.items())]


def good_ops_rate(verdicts, passes, field):
    """Passing operations per second of a typical pass.

    Every pass runs the same operations, so a typical pass takes the sum over
    operations of each one's median cost across passes; failed operations
    count in that time.  ``field`` picks the cost: 4 for net wall seconds, 5
    for reference seconds.
    """
    by_case = {}
    good = [0] * passes
    for v in verdicts:
        by_case.setdefault(v[1], []).append(v[field])
        good[v[0]] += v[2]
    typical_pass = sum(statistics.median(c) for c in by_case.values())
    return statistics.median(good) / typical_pass


def latency_notes(verdicts, passes):
    """Printed and recorded, not gated: the wall-clock rate, op_ms_p50 over
    passing operations, and op_ms_p90 where at least ten samples lie beyond
    it.  On ``validate`` the median check takes ~15 ms and moves by half from
    run to run."""
    lat = [v[4] * 1e3 for v in verdicts if v[2]]
    notes = {"good_ops_per_s": good_ops_rate(verdicts, passes, 4), "passing_ops": len(lat)}
    if lat:
        notes["op_ms_p50"] = statistics.median(lat)
    if len(lat) >= 100:
        notes["op_ms_p90"] = statistics.quantiles(lat, n=10)[-1]
    return notes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=("curves", "sweep", "exact", "validate"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    import_qbmag()
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed)
    if args.setup_probe:
        return 0

    OUT.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(dir=OUT, prefix="ops-")
    passes = passes_for(args.workload, args.seconds)
    try:
        with warnings.catch_warnings(record=True):
            run_passes(wl, wl.warmup_items(), scratch, passes=1)
            if args.trace:
                record = traced_run(wl, args, scratch, passes)
            else:
                record = untraced_run(wl, args, scratch, passes)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    record.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        machine=machine(),
        inputs=wl.items,
    )
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    with open(OUT / (stem + ".json"), "w") as fh:
        json.dump(record, fh, indent=1, default=str)
    print_summary(record)
    print(
        json.dumps(
            {
                "correct": record["verified"],
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in record["metrics"].items()},
            }
        )
    )
    return 0


def _record(verdicts, verified, walls, metrics, notes, **extra):
    return dict(
        passes=len(walls),
        wall_s=sum(walls),
        pass_walls_s=walls,
        verified=verified,
        attempted=len(verdicts),
        failed=sum(1 for v in verdicts if not v[2]),
        failures=failure_summary(verdicts),
        ops=verdicts,
        notes=notes,
        metrics=metrics,
        **extra,
    )


def untraced_run(wl, args, scratch, passes):
    """End-to-end metrics from ``passes`` passes with the speed probe on."""
    clock = speed.Clock()
    wl.clock = clock
    if wl.probe_inside:
        clock.start(PROBE_INTERVAL_S)
    try:
        records, pass_marks = run_passes(wl, wl.items, scratch, passes, clock, 0 if wl.probe_inside else PROBE_BURST)
    finally:
        clock.stop()
    rss = peak_rss_mb()
    verdicts, verified = judge(wl, records, clock)
    setup, setup_all = setup_seconds(args.workload, args.seed)
    values = dict(setup_s=setup, peak_rss_mb=rss, good_ops_per_ref_s=good_ops_rate(verdicts, passes, 5))
    notes = dict(
        latency_notes(verdicts, passes),
        probe_units=len(clock.durations),
        probe_unit_ms_p50=statistics.median(clock.durations) * 1e3,
        setup_s_samples=setup_all,
    )
    metrics = {k: (values[k], u) for k, u in END_TO_END_UNITS.items()}
    walls = [clock.cost(a, b)[0] for a, b in pass_marks]
    return _record(verdicts, verified, walls, metrics, notes)


def traced_run(wl, args, scratch, passes):
    """Per-layer metrics from ``passes`` passes.  Each item runs untraced and
    then traced, back to back, so both see the same machine speed.  For
    ``sweep`` the traced run and an extra untraced twin use one worker, so
    every span is in this process and the twin gives the two-worker
    speed-up."""
    import trace
    from scipy.integrate import IntegrationWarning

    tracer = trace.Tracer()
    clock = speed.Clock()
    wl.clock = clock
    plain, single, traced, caught = [], [], [], []

    def once(item):
        tag = len(plain) + len(single) + len(traced)
        return run_passes(wl, [item], scratch, 1, clock, first_tag=tag)[0]

    sweep = args.workload == "sweep"
    walls = []
    for _ in range(passes):
        before = len(plain)
        for item in wl.items:
            plain += once(item)
            if sweep:
                wl.workers = 1
                single += once(item)
            tracer.install()
            try:
                with warnings.catch_warnings(record=True) as log:
                    warnings.simplefilter("always")
                    traced += once(item)
            finally:
                tracer.uninstall()
                if sweep:
                    wl.workers = 2
            caught += log
        walls.append(wall(clock, plain[before:]))

    check_names = {}
    for _, _, result, _, _, _ in traced:
        for fn_name, res, *_ in (result or {}).get("timings", ()):
            check_names[fn_name] = res.name
    layer = {name: 0.0 for name, _ in trace.PER_LAYER}
    layer.update(tracer.layer_metrics(wall(clock, traced), passes, check_names))
    if sweep:
        layer["cli.sweep_speedup_2w"] = wall(clock, single) / wall(clock, plain)
    layer["bath.integration_warnings"] = sum(issubclass(w.category, IntegrationWarning) for w in caught)
    layer["decoherence.runtime_warnings"] = sum(issubclass(w.category, RuntimeWarning) for w in caught)
    base = wall(clock, single if sweep else plain)
    layer["trace.overhead_frac"] = (wall(clock, traced) - base) / base
    tracer.write(OUT / ("%s-seed%d-spans.csv" % (args.workload, args.seed)))

    verdicts, verified = judge(wl, plain + single + traced, clock)
    metrics = {k: (layer[k], u) for k, u in trace.PER_LAYER}
    return _record(verdicts, verified, walls, metrics, {}, traced_wall_s=wall(clock, traced), spans=len(tracer.spans))


def wall(clock, records):
    """Net wall seconds of the given run records."""
    return sum(clock.cost(r[4], r[5])[0] for r in records)


def print_summary(rec):
    print(
        "workload %s (closed loop, one client), seed %d, trace %d: %d passes, %d ops in %.3f s"
        % (rec["workload"], rec["seed"], rec["trace"], rec["passes"], rec["attempted"], rec["wall_s"])
    )
    print("  machine: " + ", ".join("%s %s" % kv for kv in rec["machine"].items()))
    for name, (value, unit) in rec["metrics"].items():
        print("  %-48s %14.6g %s" % (name, value, unit))
    for name, value in rec["notes"].items():
        if isinstance(value, (int, float)):
            print("  %-48s %14.6g" % (name, value))
    print(
        "  %-48s %14.6g ratio (%d/%d)"
        % ("failed_frac", rec["failed"] / max(rec["attempted"], 1), rec["failed"], rec["attempted"])
    )
    for f in rec["failures"]:
        print("  failed x%d %s: %s" % (f["count"], f["case"], f["reason"]))


if __name__ == "__main__":
    sys.exit(main())

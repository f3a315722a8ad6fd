"""Benchmark of bethe-gl2: seeded workloads, end-to-end and per-layer metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: blocks_exact and verify_all (gated in BENCHMARK.json),
roundtrip and decompose, and decompose_wide (the known 128-bit defect
reproducer).  NOTES.md says why each exists.  The
run draws ops from the workload's recorded pool in an order fixed by the
seed, runs them one after another for S seconds (a closed loop with one
caller) and checks every output against the reference in ``refs/``.

With ``--trace 0`` it reports the end-to-end metrics, its times scaled to a
reference host speed (NOTES.md, "Host-speed scaling"); with ``--trace 1`` it
runs the same ops untraced for S/2 seconds and then again with every layer
wrapped in spans, and reports the per-layer metrics and the tracing
overhead.  Human-readable lines come first; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

import argparse
import importlib.util
import json
import marshal
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_PROBES = 9
TAIL_BEYOND = 10

END_TO_END = [("setup_s", "s"), ("ok_ops_per_s", "ops/s"),
              ("op_p50_s", "s"), ("peak_rss_mb", "MB")]

# The host's speed drifts by up to 2x, over seconds to minutes, so the
# gated times are scaled to a reference host speed with fixed kernels of
# the same kind of work, from the standard library only.  Ops: Fraction row
# reduction, run between ops; an op's time is divided by the mean of the
# kernel times just before and after it, over CALIBRATION_REF_S.  Set-up:
# unmarshalling and executing module code, as imports do, run by each probe
# just after it is ready; its set-up time is divided by that kernel time
# over SETUP_CALIBRATION_REF_S.  The reference times are the kernels' times
# on a quiet host of the kind in NOTES.md.
CALIBRATION_REPS = 20
CALIBRATION_REF_S = 0.019
SETUP_CALIBRATION_MODULES = (
    "argparse", "ast", "dataclasses", "email.message", "fractions",
    "inspect", "json.decoder", "pathlib", "tokenize", "typing")
SETUP_CALIBRATION_REPS = 3
SETUP_CALIBRATION_REF_S = 0.022


def setup(workload, seed):
    """Everything before the first timed op: imports, inputs, references."""
    import workloads
    wl = workloads.WORKLOADS[workload]
    pool = wl.load_pool()
    return wl, pool, workloads.op_order(pool, seed)


def probe_setup_seconds(args, started):
    """Set-up time of a fresh interpreter, from its launch to 'ready'.

    Returns (seconds, the set-up kernel time that the same interpreter
    measured just after it was ready).  The probe is appended to
    ``started`` and left for the caller to reap (``reap_probes``): until
    then its memory does not count in RUSAGE_CHILDREN, which must hold
    only the program's own pool workers when peak RSS is read.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    started.append(proc)
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - start
    rest = proc.stdout.read().split()
    proc.stdout.close()
    if line.strip() != "ready" or len(rest) != 1:
        raise RuntimeError(f"set-up probe failed: {line!r}")
    return elapsed, float(rest[0])


def reap_probes(started):
    failed = [proc.args for proc in started if proc.wait() != 0]
    if failed:
        raise RuntimeError(f"set-up probe failed: {failed[0]}")


def calibration_seconds():
    """Time to eliminate a fixed 9x9 Fraction matrix CALIBRATION_REPS times."""
    rng = random.Random(0)
    size = 9
    base = [[Fraction(rng.randint(-9, 9), rng.randint(1, 9))
             for _ in range(size)] for _ in range(size)]
    start = time.perf_counter()
    for _ in range(CALIBRATION_REPS):
        m = [row[:] for row in base]
        for c in range(size):
            p = next(r for r in range(c, size) if m[r][c])
            m[c], m[p] = m[p], m[c]
            inv = 1 / m[c][c]
            for r in range(c + 1, size):
                f = m[r][c] * inv
                if f:
                    m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return time.perf_counter() - start


def setup_calibration_seconds():
    """Time to unmarshal and execute the calibration modules' code.

    A first untimed pass imports what those modules import, so the timed
    pass does the same work whatever the program imported before it.
    """
    codes = []
    for name in SETUP_CALIBRATION_MODULES:
        spec = importlib.util.find_spec(name)
        source = spec.loader.get_source(name)
        codes.append(marshal.dumps(compile(source, spec.origin, "exec")))

    def execute():
        for i, data in enumerate(codes):
            exec(marshal.loads(data), {"__name__": f"calibration{i}"})

    execute()
    start = time.perf_counter()
    for _ in range(SETUP_CALIBRATION_REPS):
        execute()
    return time.perf_counter() - start


class Op(NamedTuple):
    index: int        # pool index
    latency: float    # the op alone, seconds
    spent: float      # the op and its output check, seconds
    ok: bool
    error: object     # None, or why the op failed
    host: float       # kernel time around the op / CALIBRATION_REF_S, or 1


def run_ops(wl, pool, order, seconds=None, count=None, tracer=None,
            between=None, calibrate=False):
    """Run ops in seeded order until ``seconds`` pass or ``count`` ops ran.

    Returns (ops, wall); the wall time sums the ops and their checks only:
    the calibration kernels and ``between(wall)`` run between ops, outside
    it.  With ``calibrate`` the kernel runs before the first op and after
    each op, and an op's ``host`` is the mean of the two kernels around it.
    A failed op is an exception or an output that differs from the
    reference; any exception counts, so this loop is the boundary.
    """
    ops = []
    wall = 0.0
    kernel = calibration_seconds() if calibrate else CALIBRATION_REF_S
    while True:
        index = order[len(ops) % len(order)]
        entry = pool[index]
        error = None
        t0 = time.perf_counter()
        try:
            if tracer is None:
                raw = wl.op(entry)
            else:
                with tracer.op_span(len(ops)):
                    raw = wl.op(entry)
            latency = time.perf_counter() - t0
            ok = wl.check(entry, raw)
            if not ok:
                error = "output differs from the reference"
        except Exception as exc:  # noqa: BLE001 - a failing op is measured
            latency = time.perf_counter() - t0
            ok, error = False, f"{type(exc).__name__}: {exc}"
        spent = time.perf_counter() - t0
        wall += spent
        before, kernel = kernel, (calibration_seconds() if calibrate
                                  else CALIBRATION_REF_S)
        ops.append(Op(index, latency, spent, ok, error,
                      (before + kernel) / 2 / CALIBRATION_REF_S))
        if count is not None and len(ops) >= count:
            break
        if seconds is not None and wall >= seconds:
            break
        if between is not None:
            between(wall)
    return ops, wall


def ok_rate(ops, wall):
    return sum(op.ok for op in ops) / wall


def scaled_ok_rate(ops):
    """Ok ops per second of op and check time, each at the reference speed."""
    return sum(op.ok for op in ops) / sum(op.spent / op.host for op in ops)


def latency_summary(latencies):
    """(p50, tail value, tail percentile); None stands for a failed op.

    A failed op counts as infinitely slow.
    """
    lat = sorted(math.inf if x is None else x for x in latencies)
    p50 = statistics.median(lat)
    if len(lat) < 2 * TAIL_BEYOND:
        return p50, None, None
    # Highest percentile with TAIL_BEYOND ops strictly beyond it.
    cut = len(lat) - TAIL_BEYOND - 1
    return p50, lat[cut], 100.0 * (cut + 1) / len(lat)


def peak_rss_mb(workload):
    """Own peak RSS, plus the largest pool worker's for the pool workload.

    Read while the set-up probes are still unreaped, so that the children
    counted are the pool workers alone.
    """
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if workload == "verify_all":
        kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024


def machine(args):
    import mpmath
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "mpmath": mpmath.__version__,
            "mpmath_backend": mpmath.libmp.BACKEND, "cpu": cpu,
            "workload": args.workload, "seed": args.seed}


def report_failures(ops, pool):
    for op in ops:
        if not op.ok:
            entry = {k: v for k, v in pool[op.index].items()
                     if k not in ("expected", "error", "seconds")}
            print(f"  FAILED {json.dumps(entry)}: {op.error}")


def measure(args, wl, pool, order):
    # The host's speed drifts over tens of seconds, so the set-up probes are
    # spread over the run rather than taken together before it.
    started = []
    try:
        probes = [probe_setup_seconds(args, started)]

        def probe_on_schedule(wall):
            if wall >= len(probes) * args.seconds / SETUP_PROBES and \
                    len(probes) < SETUP_PROBES:
                probes.append(probe_setup_seconds(args, started))

        ops, wall = run_ops(wl, pool, order, seconds=args.seconds,
                            between=probe_on_schedule, calibrate=True)
        while len(probes) < SETUP_PROBES:
            probes.append(probe_setup_seconds(args, started))
        rss = peak_rss_mb(args.workload)
    finally:
        reap_probes(started)
    p50, tail, tail_pct = latency_summary(
        [op.latency if op.ok else None for op in ops])
    failed = sum(not op.ok for op in ops)
    raw = {"setup_s": statistics.median(t for t, _ in probes),
           "ok_ops_per_s": ok_rate(ops, wall), "op_p50_s": p50}
    values = {
        "setup_s": statistics.median(
            t * SETUP_CALIBRATION_REF_S / kernel for t, kernel in probes),
        "ok_ops_per_s": scaled_ok_rate(ops),
        "op_p50_s": latency_summary(
            [op.latency / op.host if op.ok else None for op in ops])[0],
        "peak_rss_mb": rss}
    hosts = [op.host for op in ops]
    print(f"workload {args.workload} seed {args.seed}: {len(ops)} ops "
          f"attempted, {failed} failed, wall {wall:.3f} s")
    print(f"  host         {statistics.median(hosts):.4f} x the reference "
          f"time, median over ops (range {min(hosts):.3f}-{max(hosts):.3f}); "
          f"setup_s, ok_ops_per_s and op_p50_s are at the reference speed, "
          f"the measured figure in brackets")
    print(f"  setup_s      {values['setup_s']:.4f} s  [{raw['setup_s']:.4f}]"
          f"  (median of {len(probes)} fresh set-ups spread over the run: "
          f"{', '.join(f'{t:.4f}' for t, _ in probes)})")
    print(f"  ok_ops_per_s {values['ok_ops_per_s']:.5f} ops/s  "
          f"[{raw['ok_ops_per_s']:.5f}]")
    print(f"  op_p50_s     {values['op_p50_s']:.4f} s  [{p50:.4f}]")
    if tail is None:
        print(f"  op_tail_s    n/a ({len(ops)} ops; needs {2 * TAIL_BEYOND})")
    else:
        print(f"  op_tail_s    {tail:.4f} s  (p{tail_pct:.1f}, "
              f"{TAIL_BEYOND} of {len(ops)} ops beyond; as measured)")
    print(f"  fail_ratio   {failed / len(ops):.4f} 1  ({failed}/{len(ops)})")
    print(f"  peak_rss_mb  {values['peak_rss_mb']:.1f} MB")
    report_failures(ops, pool)
    metrics = {name: {"value": _finite(values[name]), "unit": unit}
               for name, unit in END_TO_END}
    return ops, metrics


def measure_traced(args, wl, pool, order):
    import tracer as tracing
    plain, plain_wall = run_ops(wl, pool, order, seconds=args.seconds / 2)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced, traced_wall = run_ops(wl, pool, order, count=len(plain),
                                      tracer=tracer)
    finally:
        tracer.uninstall()
    values = tracer.metrics(len(traced))
    untraced = ok_rate(plain, plain_wall)
    values["trace.untraced_ok_ops_per_s"] = untraced
    values["trace.overhead_ok_ops_per_s"] = \
        untraced - ok_rate(traced, traced_wall)
    out = HERE / ".out" / f"trace-{args.workload}-{args.seed}.json"
    tracer.dump(out)
    records = plain + traced
    failed = sum(not op.ok for op in records)
    print(f"workload {args.workload} seed {args.seed} traced: "
          f"{len(plain)} ops untraced in {plain_wall:.3f} s, the same "
          f"{len(traced)} traced in {traced_wall:.3f} s, {failed} failed; "
          f"{len(tracer.spans)} spans in {out.relative_to(HERE.parent)}")
    metrics = {}
    for name, unit, _ in tracing.metric_specs():
        value = values[name]
        metrics[name] = {"value": value, "unit": unit}
        print(f"  {name:58s} {value:.6g} {unit}")
    report_failures(records, pool)
    return records, metrics


def _finite(value):
    return value if math.isfinite(value) else None


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true",
                        help="internal: do the set-up, print 'ready', exit")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "bethe_gl2" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import bethe_gl2
    if SRC not in Path(bethe_gl2.__file__).resolve().parents:
        print(f"perfbench: bethe_gl2 imported from {bethe_gl2.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    if args.probe:
        setup(args.workload, args.seed)
        print("ready", flush=True)
        print(setup_calibration_seconds())
        return 0
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl, pool, order = setup(args.workload, args.seed)
    print("machine: " + json.dumps(machine(args)))
    if args.trace:
        records, metrics = measure_traced(args, wl, pool, order)
    else:
        records, metrics = measure(args, wl, pool, order)
    failed = sum(not op.ok for op in records)
    print(json.dumps({"correct": failed == 0, "attempted": len(records),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

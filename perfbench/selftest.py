"""Self-test of the tracer and of BENCHMARK.json against the benchmark code.

Usage, from the repository root:

    python3 perfbench/selftest.py

1. Coverage: small ops of every workload (n = 3 blocks, decompose and
   roundtrip in both modes; a max_n = 2 verify with one (k, d) pair, in
   process) run with the tracer installed and cProfile on at the same time.
   Every wrapped function's span count must equal cProfile's call count for
   the original function.  A call that reaches a function through a name
   the tracer did not patch shows up as a difference.
2. Pool: the same verify with two workers returns one span tree per
   instance from the workers, and its certificate bytes equal the
   untraced in-process ones, so the spans never leak into the output.
3. BENCHMARK.json lists exactly the metrics run.py and tracer.py report.

Exits 0 when all hold, 1 otherwise.
"""

import cProfile
import json
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from bethe_gl2 import suites  # noqa: E402
from bethe_gl2.errors import GenericityError  # noqa: E402


def verify_small(jobs):
    return suites.run_suite(suites.RunConfig(
        suite="all", max_n=2, kd_list=((0, 1),), seed=3, jobs=jobs))


def numeric_pair(n=3, k=1):
    """First admitted numeric-mode draw of shape (n, k)."""
    for f0, g0 in workloads.roundtrip_draws(k, 7, n=n):
        entry = {"f0": f0, "g0": g0}
        try:
            if workloads.op_roundtrip(entry).mode == "numeric":
                return entry
        except GenericityError:
            continue


def small_ops(numeric_entry):
    exact_g0 = workloads.roundtrip_exact_pairs(1)[0][1]
    return [
        lambda: workloads.op_blocks_exact({"points": [-2, 1, 5]}),
        lambda: workloads.op_decompose({"points": [3, -4, 7]}),
        lambda: workloads.op_roundtrip(numeric_entry),
        lambda: workloads.op_roundtrip({"f0": [1], "g0": exact_g0}),
        lambda: verify_small(jobs=1),
    ]


def original_code(owner, attr):
    fn = vars(owner)[attr]
    return getattr(fn, "__func__", fn).__code__


def coverage():
    ops = small_ops(numeric_pair())
    tracer = tracing.Tracer()
    tracer.install()
    patched = tracer.patched_names()
    profile = cProfile.Profile()
    try:
        profile.enable()
        for op in ops:
            op()
        profile.disable()
    finally:
        tracer.uninstall()
    profiled = {e.code: e.callcount for e in profile.getstats()}
    spans = Counter(s[3] for s in tracer.spans)
    ok = True
    print("coverage: wrapper calls vs cProfile ncalls")
    for layer, owner, attr, _ in tracing.TARGETS:
        name = tracing.span_name(layer, owner, attr)
        expected = profiled.get(original_code(owner, attr), 0)
        status = "ok" if spans[name] == expected else "MISSED CALLS"
        if not expected:
            status += " (not reached)"
        ok = ok and spans[name] == expected
        print(f"  {name:50s} {spans[name]:7d} {expected:7d} {status}")
    print(f"  {len(patched)} bindings patched: " + ", ".join(patched))
    return ok


def pool():
    plain = suites.certificate_bytes(verify_small(jobs=1))
    instances = len(suites.build_instances(suites.RunConfig(
        suite="all", max_n=2, kd_list=((0, 1),), seed=3)))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.op_span(0):
            traced = suites.certificate_bytes(verify_small(jobs=2))
    finally:
        tracer.uninstall()
    roots = [s for s in tracer.spans if s[3] == "suites.execute_instance"]
    from_workers = {s[0] >> 32 for s in roots} - {tracer.pid}
    ok = traced == plain and len(roots) == instances and bool(from_workers)
    print(f"pool: {len(roots)} instance spans for {instances} instances from "
          f"{len(from_workers)} worker processes; certificate bytes "
          f"{'equal' if traced == plain else 'DIFFER'}")
    return ok


def benchmark_json():
    with open(HERE.parent / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    e2e = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    layers = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    names = [w["name"] for w in spec["workloads"]]
    ok = e2e == run.END_TO_END and layers == tracing.metric_specs() and \
        all(n in workloads.WORKLOADS for n in names)
    print(f"BENCHMARK.json: {len(e2e)} end-to-end and {len(layers)} "
          f"per-layer metrics, workloads {names}: "
          f"{'consistent' if ok else 'INCONSISTENT'}")
    return ok


if __name__ == "__main__":
    results = [coverage(), pool(), benchmark_json()]
    print("selftest " + ("passed" if all(results) else "FAILED"))
    sys.exit(0 if all(results) else 1)

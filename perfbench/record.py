"""Record the reference outputs that the benchmark checks every op against.

Usage, from the repository root:

    python3 perfbench/record.py [workload ...]

For each named workload (default: all) it builds the input pool, runs every
entry through the program and writes ``perfbench/refs/<workload>.json``.
An entry that raises records the error instead of an output.  Roundtrip
draws rejected with a plain GenericityError (not a subclass) are screened out of the pool,
as the acceptance suite does; every other error stays in as a failing op.
Record only on a commit whose outputs are trusted: later runs are judged
against these files.
"""

import json
import platform
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import mpmath  # noqa: E402

import workloads  # noqa: E402
from bethe_gl2.errors import BetheGl2Error, GenericityError  # noqa: E402

ROUNDTRIP_PER_SHAPE = 12
ROUNDTRIP_EXACT = 6
TIMED_RUNS = 2


def run_entry(wl, entry, screen=False):
    """The entry with its recorded output or error; None for a screened reject.

    ``seconds`` is the fastest of TIMED_RUNS runs; the benchmark uses it only
    to deal cheap and dear entries evenly into every run.
    """
    times = []
    for _ in range(TIMED_RUNS):
        start = time.perf_counter()
        try:
            raw = wl.op(entry)
        except BetheGl2Error as exc:
            # MatchCountError subclasses GenericityError but is a defect.
            if screen and type(exc) is GenericityError:
                return None
            out = dict(entry, error=f"{type(exc).__name__}: {exc}")
            times.append(time.perf_counter() - start)
            break
        times.append(time.perf_counter() - start)
        out = dict(entry, expected=json.loads(json.dumps(wl.summary(raw))))
    out["seconds"] = round(min(times), 3)
    print(f"  {json.dumps(entry)} {out['seconds']:.2f}s "
          f"{out.get('error', 'ok')}", flush=True)
    return out


def roundtrip_pool(wl):
    pool, rejected = [], {}
    for k in (0, 1, 2):
        draws = workloads.roundtrip_draws(k, 6000 + k)
        rejected[k] = 0
        while sum(e["k"] == k for e in pool) < ROUNDTRIP_PER_SHAPE:
            f0, g0 = next(draws)
            out = run_entry(wl, {"k": k, "f0": f0, "g0": g0}, screen=True)
            if out is None:
                rejected[k] += 1
            else:
                pool.append(out)
    for f0, g0 in workloads.roundtrip_exact_pairs(ROUNDTRIP_EXACT):
        pool.append(run_entry(wl, {"k": 0, "f0": f0, "g0": g0}))
    return pool, {"genericity_rejects_per_k": rejected}


def write_refs(path, doc):
    """JSON with one pool entry per line, so re-recording diffs stay legible."""
    head = {k: v for k, v in doc.items() if k != "pool"}
    entries = ",\n".join(json.dumps(e, sort_keys=True) for e in doc["pool"])
    with open(path, "w") as fh:
        fh.write(json.dumps(head, sort_keys=True)[:-1] +
                 f', "pool": [\n{entries}\n]}}\n')


def record(name):
    wl = workloads.WORKLOADS[name]
    print(f"recording {name}", flush=True)
    if name == "roundtrip":
        pool, extra = roundtrip_pool(wl)
    else:
        pool, extra = [run_entry(wl, e) for e in wl.pool_fn()], {}
    failed = [e for e in pool if "error" in e]
    doc = {
        "workload": name,
        "recorded_with": {"python": platform.python_version(),
                          "mpmath": mpmath.__version__},
        "failed_entries": len(failed),
        **extra,
        "pool": pool,
    }
    workloads.REFS.mkdir(exist_ok=True)
    write_refs(wl.ref_path, doc)
    print(f"{name}: {len(pool)} entries, {len(failed)} failed", flush=True)


def main(argv):
    for name in argv or list(workloads.WORKLOADS):
        record(name)


if __name__ == "__main__":
    main(sys.argv[1:])

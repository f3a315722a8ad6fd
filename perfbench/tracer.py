"""Spans around the program's public calls, installed from outside the program.

``Tracer.install()`` replaces each function in ``TARGETS`` by a wrapper in
every namespace that binds it: ``from .linalg import rref`` copies the name
into ``spectral``, so ``spectral.rref`` is patched as well as
``linalg.rref``.  Methods are patched on their class.  A span records its
id, parent, op id, name, start, end and an optional info dict taken from
the call.  Spans stay in memory; ``metrics()`` aggregates them into the
per-layer metrics and ``dump()`` writes them out.

Pool workers of ``suites.run_suite`` are forked after installation, so they
inherit the wrappers; each worker returns the spans of its instance inside
the instance result, and the patched executor strips them before the
certificate is assembled.
"""

import functools
import json
import os
import re
import sys
from collections import Counter, defaultdict
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from time import perf_counter

import mpmath

from bethe_gl2 import (betheop, correspondence, gl2rep, linalg, numeric,
                       olambda, spectral, suites)

WORKER_SPANS = "_bench_spans"


def _rref_info(args, result):
    rows = args[0]
    return {"cells": len(rows) * len(rows[0]) if rows else 0}


def _first_dim(args, result):
    mats = args[0]
    return {"dim": mats[0].rows if mats else 0}


def _matrix_dim(args, result):
    return {"dim": args[0].rows}


# (layer, owner, attribute, info hook).  The layer is the module name used
# in metric names; mpmath's solvers count under ``numeric``.  A hook maps
# the positional arguments and the result (None when the call raised) to
# the span's info dict.
TARGETS = [
    ("betheop", betheop, "universal_operator", None),
    ("betheop", betheop, "bethe_b2_series", None),
    ("linalg", linalg, "rref", _rref_info),
    ("linalg", linalg, "kernel_basis", None),
    ("linalg", linalg, "generalized_eigenspace", None),
    ("linalg", linalg.Matrix, "__mul__", None),
    ("linalg", linalg.SpanBasis, "add",
     lambda a, r: {"enlarged": r is True}),
    ("spectral", spectral, "deformed_isotypical_decomposition", None),
    ("spectral", spectral, "triangular_block_basis", None),
    ("spectral", spectral, "eigenleaf_decomposition", None),
    ("spectral", spectral, "leaf_operator", None),
    ("spectral", spectral, "leaf_from_polynomials",
     lambda a, r: {"mode": getattr(r, "mode", None)}),
    ("spectral", spectral, "numeric_leaf_scalars",
     lambda a, r: {"dim": 2 ** len(a[0])}),
    ("numeric", numeric, "joint_split_mp", _first_dim),
    ("numeric", numeric, "with_precision_escalation", None),
    ("numeric", numeric, "snap_to_rational",
     lambda a, r: {"accepted": r is not None}),
    ("numeric", mpmath, "eig", _matrix_dim),
    ("numeric", mpmath, "svd_r", _matrix_dim),
    ("numeric", mpmath, "svd_c", _matrix_dim),
    ("olambda", olambda, "eliminate", None),
    ("olambda", olambda, "universal_operator_data", None),
    ("olambda", olambda, "generator_span_check", None),
    ("olambda", olambda, "character_identities_check", None),
    ("correspondence", correspondence, "eta_matches_leaf", None),
    ("correspondence", correspondence, "regular_representation_check", None),
    ("correspondence", correspondence, "nu_consistency_check", None),
    ("correspondence", correspondence, "construct_solutions", None),
    ("suites", suites, "execute_instance",
     lambda a, r: {"kind": a[0]["kind"]}),
    ("gl2rep", gl2rep.EvalModule, "__init__", None),
    ("gl2rep", gl2rep, "singular_subspace", None),
    ("gl2rep", gl2rep, "brute_isotypical_character", None),
]

# Leaves outside the program: no self time, a mean input size instead.
FOREIGN = {("numeric", "eig"), ("numeric", "svd_r"), ("numeric", "svd_c")}

# Messages of PrecisionInsufficientError, up to their first number.
ESCALATION_REASONS = {
    "cluster separation": "cluster_separation",
    "kernel singular value": "kernel_singular_value",
    "singular value gap too small": "singular_value_gap",
    "subspace not numerically invariant": "not_invariant",
    "subspace dimensions sum to": "dimension_sum",
    "basis union nearly singular (sigma_min =": "union_singular",
    "nilpotency residual": "nilpotency_residual",
}

INSTANCE_KINDS = tuple(suites.TASKS)


def span_name(layer, owner, attr):
    if owner is mpmath:
        return f"{layer}.mpmath.{attr}"
    if isinstance(owner, type):
        if attr == "__init__":
            return f"{layer}.{owner.__name__}"
        return f"{layer}.{owner.__name__}.{attr}"
    return f"{layer}.{attr}"


def _reason(message):
    head = re.split(r"[-+]?\d", message, maxsplit=1)[0].strip()
    return ESCALATION_REASONS.get(head, "other")


def metric_specs():
    """(name, unit, better) of every per-layer metric, in report order."""
    specs = []
    for layer, owner, attr, _ in TARGETS:
        name = span_name(layer, owner, attr)
        specs.append((f"{name}.calls", "count", "lower"))
        specs.append((f"{name}.busy_s", "s", "lower"))
        if (layer, attr) in FOREIGN:
            specs.append((f"{name}.dim", "rows", "lower"))
        else:
            specs.append((f"{name}.self_s", "s", "lower"))
    specs += [
        ("betheop.universal_operator.calls_per_op", "count", "lower"),
        ("linalg.rref.cells", "count", "lower"),
        ("linalg.SpanBasis.add.enlarged_ratio", "1", "higher"),
        ("spectral.leaf_from_polynomials.mode_exact", "count", "higher"),
        ("spectral.leaf_from_polynomials.mode_numeric", "count", "lower"),
        ("spectral.numeric_leaf_scalars.dim", "rows", "lower"),
        ("numeric.joint_split_mp.dim", "rows", "lower"),
        ("numeric.with_precision_escalation.attempts", "count", "lower"),
        ("numeric.with_precision_escalation.escalations", "count", "lower"),
    ]
    specs += [(f"numeric.escalation.{slug}", "count", "lower")
              for slug in [*ESCALATION_REASONS.values(), "other"]]
    specs += [
        ("numeric.snap_to_rational.accepted", "count", "higher"),
        ("suites.execute_instance.wait_s", "s", "lower"),
        ("suites.pool_efficiency", "1", "higher"),
        ("suites.longest_instance_s", "s", "lower"),
    ]
    specs += [(f"suites.execute_instance.{kind}.busy_s", "s", "lower")
              for kind in INSTANCE_KINDS]
    specs += [
        ("op.self_s", "s", "lower"),
        ("trace.untraced_ok_ops_per_s", "ops/s", "higher"),
        ("trace.overhead_ok_ops_per_s", "ops/s", "lower"),
    ]
    return specs


class Tracer:
    def __init__(self):
        self.pid = os.getpid()
        self.spans = []     # (id, parent, op, name, start, end, nested, info)
        self.stack = []
        self.active = Counter()
        self.op = None
        self.pools = []     # (submitted, done, jobs) per pool map
        self.waits = []     # submission-to-start delay per pool instance
        self.counter = 0
        self._patches = []

    # -- spans -------------------------------------------------------------

    def _new_id(self):
        self.counter += 1
        return (os.getpid() << 32) | self.counter

    def call(self, name, fn, args, kwargs, info=None):
        sid = self._new_id()
        parent = self.stack[-1] if self.stack else None
        nested = self.active[name] > 0
        self.active[name] += 1
        self.stack.append(sid)
        result = None
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = perf_counter()
            self.stack.pop()
            self.active[name] -= 1
            extra = info(args, result) if info else None
            self.spans.append((sid, parent, self.op, name, start, end,
                               nested, extra))

    @contextmanager
    def op_span(self, op_id):
        self.op = op_id
        sid = self._new_id()
        self.stack.append(sid)
        start = perf_counter()
        try:
            yield
        finally:
            self.stack.pop()
            self.spans.append((sid, None, op_id, "op", start, perf_counter(),
                               False, None))
            self.op = None

    # -- installation ------------------------------------------------------

    def _wrap(self, name, orig, info):
        tracer = self
        if name == "numeric.with_precision_escalation":
            def wrapper(fn, *args, **kwargs):
                attempts, reasons = [], []

                def attempt(prec):
                    attempts.append(prec)
                    try:
                        return fn(prec)
                    except numeric.PrecisionInsufficientError as exc:
                        reasons.append(_reason(str(exc)))
                        raise
                return tracer.call(
                    name, orig, (attempt, *args), kwargs,
                    lambda a, r: {"attempts": len(attempts),
                                     "reasons": reasons})
        elif name == "suites.execute_instance":
            def wrapper(*args, **kwargs):
                if os.getpid() == tracer.pid:
                    return tracer.call(name, orig, args, kwargs, info)
                # In a pool worker: ship this instance's spans home.
                tracer.spans = []
                result = tracer.call(name, orig, args, kwargs, info)
                result[WORKER_SPANS] = tracer.spans
                tracer.spans = []
                return result
        else:
            def wrapper(*args, **kwargs):
                return tracer.call(name, orig, args, kwargs, info)
        # Same __module__ and __qualname__, so the wrapped execute_instance
        # still pickles by reference into the pool.
        return functools.wraps(orig)(wrapper)

    @staticmethod
    def _namespaces(owner):
        if isinstance(owner, type) or owner is mpmath:
            return [owner]
        return [m for n, m in list(sys.modules.items())
                if n == "bethe_gl2" or n.startswith("bethe_gl2.")]

    def install(self):
        for layer, owner, attr, info in TARGETS:
            orig = vars(owner)[attr]
            wrapper = self._wrap(span_name(layer, owner, attr), orig, info)
            for ns in self._namespaces(owner):
                if vars(ns).get(attr) is orig:
                    self._patches.append((ns, attr, orig))
                    setattr(ns, attr, wrapper)
        tracer = self

        class TracedPool(ProcessPoolExecutor):
            """Strips worker spans from results before the caller sees them."""

            def __init__(self, max_workers=None, *args, **kwargs):
                super().__init__(max_workers, *args, **kwargs)
                self.jobs = max_workers or os.cpu_count()

            def map(self, fn, *iterables, **kwargs):
                submitted = perf_counter()
                results = list(super().map(fn, *iterables, **kwargs))
                for res in results:
                    spans = res.pop(WORKER_SPANS, [])
                    tracer.spans.extend(spans)
                    tracer.waits += [s[4] - submitted for s in spans
                                     if s[3] == "suites.execute_instance"]
                tracer.pools.append((submitted, perf_counter(), self.jobs))
                return iter(results)

        self._patches.append((suites, "ProcessPoolExecutor",
                              suites.ProcessPoolExecutor))
        suites.ProcessPoolExecutor = TracedPool

    def uninstall(self):
        for ns, attr, orig in reversed(self._patches):
            setattr(ns, attr, orig)
        self._patches = []

    def patched_names(self):
        return sorted({f"{getattr(ns, '__name__', ns)}.{attr}"
                       for ns, attr, _ in self._patches})

    # -- aggregation -------------------------------------------------------

    def self_times(self):
        """Span id -> duration minus the union of its children's intervals."""
        children = defaultdict(list)
        for s in self.spans:
            if s[1] is not None:
                children[s[1]].append((s[4], s[5]))
        out = {}
        for sid, _, _, _, start, end, _, _ in self.spans:
            covered, reach = 0.0, start
            for a, b in sorted(children.get(sid, ())):
                a, b = max(a, reach), min(b, end)
                if b > a:
                    covered += b - a
                    reach = b
            out[sid] = end - start - covered
        return out

    def metrics(self, ops):
        """Per-layer metric values over the traced spans of ``ops`` ops."""
        selfs = self.self_times()
        calls, busy, own = Counter(), Counter(), Counter()
        infos = defaultdict(list)
        for sid, _, _, name, start, end, nested, info in self.spans:
            calls[name] += 1
            own[name] += selfs[sid]
            if not nested:
                busy[name] += end - start
            if info:
                infos[name].append(info)
        values = {}
        for layer, owner, attr, _ in TARGETS:
            name = span_name(layer, owner, attr)
            values[f"{name}.calls"] = calls[name]
            values[f"{name}.busy_s"] = busy[name]
            if (layer, attr) in FOREIGN:
                values[f"{name}.dim"] = _mean(i["dim"] for i in infos[name])
            else:
                values[f"{name}.self_s"] = own[name]

        def count(name, key, value=True):
            return sum(i.get(key) == value for i in infos[name])

        esc = infos["numeric.with_precision_escalation"]
        reasons = Counter(r for i in esc for r in i["reasons"])
        values.update({
            "betheop.universal_operator.calls_per_op":
                calls["betheop.universal_operator"] / max(ops, 1),
            "linalg.rref.cells": sum(i["cells"]
                                     for i in infos["linalg.rref"]),
            "linalg.SpanBasis.add.enlarged_ratio":
                count("linalg.SpanBasis.add", "enlarged") /
                max(calls["linalg.SpanBasis.add"], 1),
            "spectral.leaf_from_polynomials.mode_exact":
                count("spectral.leaf_from_polynomials", "mode", "exact"),
            "spectral.leaf_from_polynomials.mode_numeric":
                count("spectral.leaf_from_polynomials", "mode", "numeric"),
            "spectral.numeric_leaf_scalars.dim": _mean(
                i["dim"] for i in infos["spectral.numeric_leaf_scalars"]),
            "numeric.joint_split_mp.dim": _mean(
                i["dim"] for i in infos["numeric.joint_split_mp"]),
            "numeric.with_precision_escalation.attempts":
                sum(i["attempts"] for i in esc),
            "numeric.with_precision_escalation.escalations":
                sum(i["attempts"] for i in esc) - len(esc),
        })
        for slug in [*ESCALATION_REASONS.values(), "other"]:
            values[f"numeric.escalation.{slug}"] = reasons[slug]
        values["numeric.snap_to_rational.accepted"] = count(
            "numeric.snap_to_rational", "accepted")
        instance_busy = [s[5] - s[4] for s in self.spans
                         if s[3] == "suites.execute_instance"]
        capacity = sum((done - sub) * jobs for sub, done, jobs in self.pools)
        values["suites.execute_instance.wait_s"] = sum(self.waits)
        values["suites.pool_efficiency"] = \
            sum(instance_busy) / capacity if capacity else 0.0
        values["suites.longest_instance_s"] = max(instance_busy, default=0.0)
        kind_busy = Counter()
        for s in self.spans:
            if s[3] == "suites.execute_instance":
                kind_busy[s[7]["kind"]] += s[5] - s[4]
        for kind in INSTANCE_KINDS:
            values[f"suites.execute_instance.{kind}.busy_s"] = kind_busy[kind]
        values["op.self_s"] = own["op"]
        return values

    def dump(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "parent", "op", "name", "start",
                                  "end", "nested", "info"],
                       "spans": self.spans}, fh)


def _mean(values):
    values = list(values)
    return sum(values) / len(values) if values else 0.0

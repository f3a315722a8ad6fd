"""Benchmark workloads: input pools, op bodies and output summaries.

Every workload draws its ops from a fixed pool of inputs whose reference
outputs were recorded from the program by ``record.py`` into
``refs/<workload>.json``.  The run seed fixes which pool entries run and in
which order, so the same seed gives the same op list.  Ops call the program
through module attributes (``spectral.leaf_operator``), never through names
copied into this module, so the tracer's patches see every call.
"""

import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path

import mpmath

from bethe_gl2 import betheop, gl2rep, spectral, suites
from bethe_gl2.unipoly import UniPoly

REFS = Path(__file__).resolve().parent / "refs"
PRECISION = 128
PHI_TOLERANCE = mpmath.mpf(2) ** -40
ROUNDTRIP_N = 4
VERIFY_MAX_N = 3
VERIFY_JOBS = 2


# ---------------------------------------------------------------------------
# Pools (used by record.py; the run loads the recorded pool instead)
# ---------------------------------------------------------------------------

def _points(rng, n, low, high):
    return suites.random_points(rng, n, low, high)


def pool_blocks_exact():
    rng = random.Random(5001)
    return [{"points": _points(rng, 4, -9, 9)} for _ in range(48)]


def pool_decompose():
    rng = random.Random(5002)
    return [{"points": _points(rng, 4, -9, 9)} for _ in range(48)]


def pool_decompose_wide():
    # The first set is the documented command-line reproducer.
    rng = random.Random(5003)
    return [{"points": [20, 60, 77, 90]}] + \
        [{"points": _points(rng, 4, -99, 99)} for _ in range(12)]


def roundtrip_draws(k, seed, n=ROUNDTRIP_N):
    """Endless (f0, g0) coefficient draws of shape (n, k), as criterion 15."""
    rng = random.Random(seed)
    while True:
        yield ([rng.randint(-5, 5) for _ in range(k)] + [1],
               [rng.randint(-5, 5) for _ in range(n - k + 1)] + [1])


def roundtrip_exact_pairs(count):
    """k = 0 pairs whose Wronskian (n+1)·prod(u - b_s) has rational roots."""
    rng = random.Random(5004)
    n = ROUNDTRIP_N
    out = []
    for _ in range(count):
        roots = _points(rng, n, -9, 9)
        deriv = UniPoly.from_roots([Fraction(b) for b in roots]).scale(
            Fraction(n + 1))
        g0 = [Fraction(rng.randint(-5, 5))] + [
            c / (i + 1) for i, c in enumerate(deriv.coeffs)]
        out.append(([1], [str(c) for c in g0]))
    return out


def pool_verify_all():
    return [{"config_seed": s} for s in range(24)]


# ---------------------------------------------------------------------------
# Op bodies: take a pool entry, return the program's raw output
# ---------------------------------------------------------------------------

def _module(points):
    return gl2rep.EvalModule(len(points), [Fraction(p) for p in points])


def op_blocks_exact(entry):
    module = _module(entry["points"])
    kmat = betheop.KMatrix.nilpotent()
    betheop.universal_operator(module, kmat)
    out = []
    for block in spectral.deformed_isotypical_decomposition(module, kmat):
        tri, report = spectral.triangular_block_basis(block)
        out.append((block, tri, report))
    return out


def op_decompose(entry):
    module = _module(entry["points"])
    out = []
    for block in spectral.deformed_isotypical_decomposition(
            module, betheop.KMatrix.nilpotent()):
        leaves = spectral.eigenleaf_decomposition(block, PRECISION)
        out.append((block, [spectral.leaf_operator(leaf) for leaf in leaves]))
    return out


def op_roundtrip(entry):
    f0 = UniPoly([Fraction(c) for c in entry["f0"]])
    g0 = UniPoly([Fraction(c) for c in entry["g0"]])
    return spectral.leaf_from_polynomials(f0, g0, PRECISION)


def op_verify_all(entry):
    return suites.run_suite(suites.RunConfig(
        suite="all", max_n=VERIFY_MAX_N, seed=entry["config_seed"],
        jobs=VERIFY_JOBS))


# ---------------------------------------------------------------------------
# Output summaries (JSON-able) and their comparison with the reference
# ---------------------------------------------------------------------------

def _digest(mat):
    text = ";".join(",".join(str(x) for x in row) for row in mat.data)
    return hashlib.sha256(text.encode()).hexdigest()


def summary_blocks_exact(raw):
    return [[b.weight.lam1, b.weight.lam2, b.dim, report["pass"],
             _digest(b.basis), _digest(tri)] for b, tri, report in raw]


def _num(x):
    z = mpmath.mpc(x)
    return [mpmath.nstr(z.real, 30), mpmath.nstr(z.imag, 30)]


def summary_decompose(raw):
    blocks = []
    for block, ops in raw:
        leaves = []
        for op in ops:
            leaves.append({
                "dim": op.leaf.dim,
                "phi": [_num(op.leaf.phi[j]) for j in sorted(op.leaf.phi)],
                "coeffs": [[str(c) if isinstance(c, Fraction) else None
                            for c in row] for row in op.coeffs],
            })
        blocks.append({"weight": [block.weight.lam1, block.weight.lam2],
                       "eigenvalue": str(block.eigenvalue), "leaves": leaves})
    return blocks


def summary_roundtrip(raw):
    return {"mode": raw.mode, "index": raw.matched_index}


def summary_verify_all(raw):
    return hashlib.sha256(suites.certificate_bytes(raw)).hexdigest()


def _leaf_invariants_hold(block, leaf):
    """U_1 = N and c_20 = block eigenvalue, exactly."""
    coeffs = leaf["coeffs"]
    dim = leaf["dim"]
    expected_u1 = ["0"] if dim == 1 else ["0", "1"] + ["0"] * (dim - 2)
    if coeffs[0] != expected_u1:
        return False
    return len(coeffs) < 2 or coeffs[1][0] == block["eigenvalue"]


def _phi_close(a, b):
    for (are, aim), (bre, bim) in zip(a, b):
        diff = abs(mpmath.mpc(are, aim) - mpmath.mpc(bre, bim))
        if diff > PHI_TOLERANCE * max(1, abs(mpmath.mpc(bre, bim))):
            return False
    return len(a) == len(b)


def compare_decompose(got, ref):
    """Leaf counts, dims, U_1 = N, c_20, snapped coefficients, phi ± 2^-40.

    The phi tolerance is relative to max(1, |phi|).
    Leaves are paired by phi, so a change of leaf order is not a mismatch.
    ``ref`` is None for a recorded failure: then only the invariants count.
    """
    if not all(_leaf_invariants_hold(b, leaf)
               for b in got for leaf in b["leaves"]):
        return False
    if ref is None:
        return True
    if [b["weight"] for b in got] != [b["weight"] for b in ref]:
        return False
    for gb, rb in zip(got, ref):
        if gb["eigenvalue"] != rb["eigenvalue"] or \
                len(gb["leaves"]) != len(rb["leaves"]):
            return False
        unused = list(rb["leaves"])
        for leaf in gb["leaves"]:
            close = [r for r in unused if _phi_close(leaf["phi"], r["phi"])]
            if len(close) != 1:
                return False
            r = close[0]
            unused.remove(r)
            if leaf["dim"] != r["dim"] or leaf["coeffs"] != r["coeffs"]:
                return False
    return True


def _equal(got, ref):
    return ref is None or got == ref


class Workload:
    def __init__(self, name, pool_fn, op, summary, compare=_equal):
        self.name = name
        self.pool_fn = pool_fn
        self.op = op
        self.summary = summary
        self.compare = compare

    @property
    def ref_path(self):
        return REFS / f"{self.name}.json"

    def load_pool(self):
        """Recorded pool: entries with their reference output or error."""
        with open(self.ref_path) as fh:
            return json.load(fh)["pool"]

    def check(self, entry, raw):
        """True when the op output matches the recorded reference.

        An entry recorded as failing has no reference output; when such an
        op now succeeds, only the checks that need no reference apply.
        """
        got = json.loads(json.dumps(self.summary(raw)))
        return self.compare(got, entry.get("expected"))


WORKLOADS = {
    w.name: w for w in (
        Workload("blocks_exact", pool_blocks_exact, op_blocks_exact,
                 summary_blocks_exact),
        Workload("decompose", pool_decompose, op_decompose,
                 summary_decompose, compare_decompose),
        # record.py builds the roundtrip pool by screening draws through
        # the op itself, so there is no pool function.
        Workload("roundtrip", None, op_roundtrip, summary_roundtrip),
        Workload("verify_all", pool_verify_all, op_verify_all,
                 summary_verify_all),
        Workload("decompose_wide", pool_decompose_wide, op_decompose,
                 summary_decompose, compare_decompose),
    )
}


def op_order(pool, seed):
    """Seeded order of pool indices; the run cycles through it.

    The pool is split into cost quartiles by the recorded op time, each
    quartile is shuffled by the seed, and the quartiles are dealt in turn,
    cheapest and dearest first.  So every run, whatever its seed and length,
    gets about the same mix of cheap and dear inputs.
    """
    rng = random.Random(seed)
    by_cost = sorted(range(len(pool)), key=lambda i: pool[i]["seconds"])
    quartiles = [by_cost[j * len(pool) // 4:(j + 1) * len(pool) // 4]
                 for j in range(4)]
    decks = [rng.sample(q, len(q)) for q in
             (quartiles[0], quartiles[3], quartiles[1], quartiles[2])]
    order = []
    while any(decks):
        order += [deck.pop() for deck in decks if deck]
    return order

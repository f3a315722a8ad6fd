"""Named verification suites and the certificate runner.

Every check is a pure function of JSON-serializable parameters, registered
by name so the runner can fan instances out to worker processes and the
acceptance tests can call the same code with the published parameters.
Certificates are deterministic for a fixed (config, seed).
"""

import json
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

import mpmath

from . import __version__
from .betheop import (KMatrix, commutativity_check, irrep_bethe_image,
                      nilp_formula_check, u_reconstruction_check,
                      universal_operator)
from .correspondence import (dimension_identity_check, eta_matches_leaf,
                             regular_representation_check,
                             nu_consistency_check)
from .errors import BetheGl2Error, GenericityError, InternalConsistencyError
from .gl2rep import (EvalModule, WeightLabel, brute_isotypical_character,
                     char_isotypical_closed)
from .numeric import DEFAULT_PRECISION
from .olambda import (character_identities_check, eliminate,
                      generator_span_check, universal_operator_data)
from .spectral import (deformed_isotypical_decomposition,
                       eigenleaf_decomposition, leaf_from_polynomials,
                       leaf_operator, singular_restriction,
                       singular_spectrum_match, triangular_block_basis)
from .unipoly import UniPoly


def random_points(rng, n, low=-9, high=9):
    return rng.sample(range(low, high + 1), n)


def _status(ok):
    return "pass" if ok else "fail"


def _check(name, ok, residual=None, detail=None):
    entry = {"name": name, "status": _status(ok)}
    if residual is not None:
        entry["residual"] = residual if isinstance(residual, str) \
            else mpmath.nstr(mpmath.mpmathify(residual), 12)
    if detail:
        entry["detail"] = detail
    return entry


# ---------------------------------------------------------------------------
# Individual check tasks (JSON params -> list of check entries)
# ---------------------------------------------------------------------------

def task_core(params):
    n = params["n"]
    points = params["points"]
    jmax = params.get("jmax", 2 * n)
    module = EvalModule(n, [Fraction(p) for p in points])
    checks = []
    for kmat in (KMatrix.zero(), KMatrix.nilpotent()):
        rep = commutativity_check(module, kmat, jmax)
        checks.append(_check(rep["name"], rep["pass"],
                             detail=rep["failures"] or None))
    rep = nilp_formula_check(module, jmax)
    checks.append(_check(rep["name"], rep["pass"],
                         detail=rep["failures"] or None))
    op_twist = universal_operator(module, KMatrix.nilpotent())
    ok_u1 = op_twist.u[0] == module.generator_matrix(2, 1, 0)
    checks.append(_check("u1_is_lowering_current", ok_u1))
    op_plain = universal_operator(module, KMatrix.zero())
    checks.append(_check("u1_plain_vanishes", op_plain.u[0].is_zero()))
    for op in (op_twist, op_plain):
        rep = u_reconstruction_check(op)
        checks.append(_check(f"{rep['name']}_{op.kmat.label}", rep["pass"]))
    return checks


def task_irrep_minpoly(params):
    weight = WeightLabel(*params["weight"])
    try:
        irrep_bethe_image(weight)
        return [_check(f"minpoly_{weight.lam1}_{weight.lam2}", True)]
    except InternalConsistencyError as exc:
        return [_check(f"minpoly_{weight.lam1}_{weight.lam2}", False,
                       detail=str(exc))]


def task_blocks(params):
    n = params["n"]
    points = params["points"]
    module = EvalModule(n, [Fraction(p) for p in points])
    checks = []
    decompositions = []
    for kmat in (KMatrix.nilpotent(), KMatrix.zero()):
        try:
            blocks = deformed_isotypical_decomposition(module, kmat)
            checks.append(_check(f"block_dimensions_{kmat.label}", True,
                                 detail=[(b.weight.lam1, b.weight.lam2, b.dim)
                                         for b in blocks]))
        except BetheGl2Error as exc:
            checks.append(_check(f"block_dimensions_{kmat.label}", False,
                                 detail=str(exc)))
            return checks
        decompositions.append(blocks)
    for block in decompositions[0]:
        _, rep = triangular_block_basis(block)
        checks.append(_check(
            f"triangular_basis_{block.weight.lam1}_{block.weight.lam2}",
            rep["pass"], detail=rep["failures"] or None))
    return checks


def task_leaves(params):
    n = params["n"]
    points = params["points"]
    precision = params.get("precision", DEFAULT_PRECISION)
    module = EvalModule(n, [Fraction(p) for p in points])
    checks = []
    blocks = deformed_isotypical_decomposition(module, KMatrix.nilpotent())
    for block in blocks:
        label = f"{block.weight.lam1}_{block.weight.lam2}"
        try:
            leaves = eigenleaf_decomposition(block, precision)
        except BetheGl2Error as exc:
            checks.append(_check(f"leaves_{label}", False, detail=str(exc)))
            continue
        worst = max((leaf.nilpotency_residual for leaf in leaves),
                    default=mpmath.mpf(0))
        checks.append(_check(f"leaves_{label}", True, residual=worst,
                             detail={"count": len(leaves),
                                     "dims": [leaf.dim for leaf in leaves]}))
        for idx, leaf in enumerate(leaves):
            try:
                op = leaf_operator(leaf)
                checks.append(_check(f"leaf_operator_{label}_{idx}", True,
                                     residual=op.residual,
                                     detail={"exact": op.exact}))
            except BetheGl2Error as exc:
                checks.append(_check(f"leaf_operator_{label}_{idx}", False,
                                     detail=str(exc)))
    rep = singular_spectrum_match(blocks, seed=params.get("seed", 0))
    checks.append(_check(rep["name"], rep["pass"],
                         detail=rep["failures"] or None))
    return checks


def task_elimination(params):
    k, d = params["k"], params["d"]
    checks = []
    try:
        result = eliminate(k, d)
        checks.append(_check(f"eliminate_{k}_{d}", True,
                             detail={"sweeps": result.sweeps}))
    except BetheGl2Error as exc:
        return [_check(f"eliminate_{k}_{d}", False, detail=str(exc))]
    for i in range(1, d + 1):
        ok = result.phi[i].b_valuation() >= i and \
            result.psi[i].b_valuation() >= i
        checks.append(_check(f"b_valuation_stage_{i}", ok))
    try:
        universal_operator_data(k, d)
        checks.append(_check(f"operator_coefficients_{k}_{d}", True))
    except BetheGl2Error as exc:
        checks.append(_check(f"operator_coefficients_{k}_{d}", False,
                             detail=str(exc)))
    rep = character_identities_check(k, d, params.get("order", 20))
    checks.append(_check(rep["name"], rep["pass"],
                         detail=rep["failures"] or None))
    rep = generator_span_check(k, d, params.get("degree_bound", 3))
    checks.append(_check(rep["name"], rep["pass"],
                         detail=rep["failures"] or None))
    return checks


def task_characters(params):
    n = params["n"]
    order = params.get("order", 10)
    checks = []
    for k in range(n // 2 + 1):
        brute = brute_isotypical_character(n, k, order)
        closed = char_isotypical_closed(n, k, order)
        checks.append(_check(f"molien_vs_closed_n{n}_k{k}", brute == closed))
    return checks


def task_eta(params):
    n = params["n"]
    points = params["points"]
    precision = params.get("precision", DEFAULT_PRECISION)
    module = EvalModule(n, [Fraction(p) for p in points])
    checks = []
    blocks = deformed_isotypical_decomposition(module, KMatrix.nilpotent())
    for block in blocks:
        k, d = block.weight.k, block.weight.d
        data = universal_operator_data(k, d, order=n + 2)
        label = f"{block.weight.lam1}_{block.weight.lam2}"
        for idx, leaf in enumerate(eigenleaf_decomposition(block, precision)):
            try:
                op = leaf_operator(leaf)
                rep = eta_matches_leaf(op, data, precision=precision)
                checks.append(_check(
                    f"eta_{label}_{idx}", rep["pass"],
                    detail=rep["failures"] or None))
                checks.append(_check(
                    f"eta_literal_specialness_{label}_{idx}",
                    rep["literal_specialness"],
                    residual=rep["literal_residual"]))
            except BetheGl2Error as exc:
                checks.append(_check(f"eta_{label}_{idx}", False,
                                     detail=str(exc)))
    return checks


def task_correspondence(params):
    n = params["n"]
    points = params["points"]
    seed = params.get("seed", 0)
    precision = params.get("precision", DEFAULT_PRECISION)
    module = EvalModule(n, [Fraction(p) for p in points])
    blocks = deformed_isotypical_decomposition(module, KMatrix.nilpotent())
    sing_mats = [singular_restriction(module, b.weight)[1] for b in blocks]
    rep = dimension_identity_check(blocks)
    checks = [_check(rep["name"], rep["pass"], detail=rep["details"])]
    reg = regular_representation_check(blocks, sing_mats, seed)
    checks.append(_check(reg["name"], reg["pass"],
                         detail=reg["failures"] or None))
    for block, mats in zip(blocks, sing_mats):
        rep = nu_consistency_check(block, mats, precision, seed)
        failures = rep["failures"] + reg["failures"]
        checks.append(_check(rep["name"], not failures,
                             detail=failures or None))
    return checks


def task_roundtrip(params):
    from .errors import MatchCountError
    n = params["n"]
    k = params["k"]
    seed = params["seed"]
    count = params.get("count", 10)
    precision = params.get("precision", DEFAULT_PRECISION)
    rng = random.Random(seed)
    checks = []
    found = 0
    draws = 0
    mismatches = 0
    while found < count and draws < 20 * count:
        draws += 1
        f0 = UniPoly([Fraction(rng.randint(-5, 5)) for _ in range(k)]
                     + [Fraction(1)])
        g0 = UniPoly([Fraction(rng.randint(-5, 5))
                      for _ in range(n - k + 1)] + [Fraction(1)])
        try:
            result = leaf_from_polynomials(f0, g0, precision)
        except MatchCountError as exc:
            mismatches += 1
            checks.append(_check(f"roundtrip_n{n}_k{k}_mismatch", False,
                                 detail=str(exc)))
            continue
        except GenericityError:
            continue
        found += 1
        checks.append(_check(f"roundtrip_n{n}_k{k}_t{found}", True,
                             detail={"mode": result.mode, "seed": seed}))
    if found < count:
        checks.append(_check(f"roundtrip_n{n}_k{k}_budget", False,
                             detail=f"{found} generic pairs in {draws} draws"))
    return checks


TASKS = {
    "core": task_core,
    "irrep_minpoly": task_irrep_minpoly,
    "blocks": task_blocks,
    "leaves": task_leaves,
    "elimination": task_elimination,
    "characters": task_characters,
    "eta": task_eta,
    "correspondence": task_correspondence,
    "roundtrip": task_roundtrip,
}


def execute_instance(instance):
    """Run one (kind, params) instance; never raises."""
    kind = instance["kind"]
    params = instance["params"]
    try:
        checks = TASKS[kind](params)
    except InternalConsistencyError as exc:
        checks = [{"name": kind, "status": "internal-error",
                   "detail": str(exc)}]
    except BetheGl2Error as exc:
        checks = [{"name": kind, "status": "fail", "detail": str(exc)}]
    return {"kind": kind, "params": params, "checks": checks}


# ---------------------------------------------------------------------------
# Suite construction and the runner
# ---------------------------------------------------------------------------

@dataclass
class RunConfig:
    suite: str = "core"
    max_n: int = 3
    precision: int = DEFAULT_PRECISION
    seed: int = 0
    kd_list: tuple = ((0, 1), (1, 1), (0, 2))
    point_sets: int = 2
    jobs: int = 1
    timings: bool = False

    def __post_init__(self):
        if self.precision < 64:
            raise ValueError("precision must be at least 64 bits")
        if self.max_n > 8:
            raise ValueError("max n is 8 (exact matrices are 2^n-dimensional)")


SUITE_NAMES = ("core", "spectral", "elimination", "correspondence", "all")


def build_instances(cfg: RunConfig):
    rng = random.Random(cfg.seed)
    instances = []
    suites = [cfg.suite] if cfg.suite != "all" else \
        ["core", "spectral", "elimination", "correspondence"]
    for suite in suites:
        if suite == "core":
            for n in range(1, cfg.max_n + 1):
                for _ in range(cfg.point_sets):
                    instances.append({"kind": "core", "params": {
                        "n": n, "points": random_points(rng, n),
                        "jmax": 2 * n}})
            for n in range(1, min(cfg.max_n + 2, 9)):
                for k in range(n // 2 + 1):
                    instances.append({"kind": "irrep_minpoly", "params": {
                        "weight": [n - k, k]}})
        elif suite == "spectral":
            for n in range(1, cfg.max_n + 1):
                points = random_points(rng, n)
                instances.append({"kind": "blocks", "params": {
                    "n": n, "points": points}})
                instances.append({"kind": "leaves", "params": {
                    "n": n, "points": points, "precision": cfg.precision,
                    "seed": cfg.seed}})
                instances.append({"kind": "characters", "params": {
                    "n": n, "order": 10}})
        elif suite == "elimination":
            for (k, d) in cfg.kd_list:
                instances.append({"kind": "elimination", "params": {
                    "k": k, "d": d}})
        elif suite == "correspondence":
            for n in range(1, cfg.max_n + 1):
                points = random_points(rng, n)
                instances.append({"kind": "eta", "params": {
                    "n": n, "points": points, "precision": cfg.precision}})
                instances.append({"kind": "correspondence", "params": {
                    "n": n, "points": points, "precision": cfg.precision,
                    "seed": cfg.seed}})
                for k in range(n // 2 + 1):
                    instances.append({"kind": "roundtrip", "params": {
                        "n": n, "k": k, "seed": cfg.seed + 100 * n + k,
                        "count": 2, "precision": cfg.precision}})
    return instances


def run_suite(cfg: RunConfig) -> dict:
    """Execute the selected suite and assemble the certificate."""
    import time
    instances = build_instances(cfg)
    results = []
    if cfg.jobs > 1 and not cfg.timings:
        with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
            results = list(pool.map(execute_instance, instances))
    else:
        # timings need in-process measurement, so they force sequential runs
        for instance in instances:
            start = time.monotonic()
            result = execute_instance(instance)
            if cfg.timings:
                result["runtime_seconds"] = round(time.monotonic() - start, 3)
            results.append(result)
    results.sort(key=lambda r: json.dumps(
        {"kind": r["kind"], "params": r["params"]}, sort_keys=True))
    statuses = [c["status"] for r in results for c in r["checks"]]
    overall = "pass"
    if any(s == "internal-error" for s in statuses):
        overall = "internal-error"
    elif any(s == "fail" for s in statuses):
        overall = "fail"
    return {
        "tool": f"bethe-gl2 {__version__}",
        "suite": cfg.suite,
        "config": {
            "max_n": cfg.max_n, "precision": cfg.precision,
            "seed": cfg.seed, "kd_list": [list(kd) for kd in cfg.kd_list],
            "point_sets": cfg.point_sets,
        },
        "instances": results,
        "overall": overall,
    }


def certificate_bytes(cert: dict) -> bytes:
    return json.dumps(cert, sort_keys=True, indent=2).encode() + b"\n"

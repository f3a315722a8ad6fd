"""Command-line front end: operators, decompositions, elimination, suites.

Exit codes: 0 all checks pass, 1 a check failed or a golden file mismatched,
2 usage or configuration error, 3 an internal-consistency identity fired.
All output is JSON with sorted keys, so reruns with the same configuration
and seed are byte-identical; timing fields only appear with --timings.
"""

import argparse
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

import mpmath

from .betheop import KMatrix, universal_operator
from .errors import BetheGl2Error, InternalConsistencyError
from .gl2rep import EvalModule, brute_isotypical_character, char_isotypical_closed
from .numeric import DEFAULT_PRECISION
from .olambda import character_olambda, universal_operator_data
from .serialize import (fraction_to_str, matrix_to_json, nilpotent_to_json,
                        qseries_to_json, str_to_fraction, unipoly_to_json)
from .spectral import (deformed_isotypical_decomposition,
                       eigenleaf_decomposition, leaf_operator)
from .suites import RunConfig, SUITE_NAMES, certificate_bytes, run_suite

DEFAULT_GOLDEN_DIR = Path(__file__).resolve().parents[2] / "golden"


def _fail_usage(message):
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _load_points(args):
    if args.points is None:
        _fail_usage("--points is required (file path or comma-separated list)")
    raw = args.points
    path = Path(raw)
    if path.exists():
        data = json.loads(path.read_text())
        if isinstance(data, dict):
            values = data["points"]
        else:
            values = data
    else:
        values = [p for p in raw.split(",") if p.strip()]
    points = [str_to_fraction(str(v)) for v in values]
    if args.n is not None and args.n != len(points):
        _fail_usage(f"--n {args.n} disagrees with {len(points)} points")
    return points


def _emit(payload, args):
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if getattr(args, "output", None):
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)


def _precision(args):
    if getattr(args, "precision", None):
        return args.precision
    env = os.environ.get("BETHE_GL2_PRECISION")
    if env:
        try:
            return int(env)
        except ValueError:
            _fail_usage(f"BETHE_GL2_PRECISION={env!r} is not an integer")
    return DEFAULT_PRECISION


def cmd_operator(args):
    points = _load_points(args)
    module = EvalModule(len(points), points)
    kmat = KMatrix.zero() if args.k_matrix == "zero" else KMatrix.nilpotent()
    op = universal_operator(module, kmat)
    payload = {
        "module": module.descriptor(),
        "k_matrix": kmat.label,
        "W": [fraction_to_str(c) for c in op.w_poly.coeffs],
        "U": [matrix_to_json(u) for u in op.u],
    }
    _emit(payload, args)
    return 0


def cmd_decompose(args):
    from .gl2rep import syt_count
    points = _load_points(args)
    precision = _precision(args)
    module = EvalModule(len(points), points)
    blocks = deformed_isotypical_decomposition(module, KMatrix.nilpotent())
    payload = {"module": module.descriptor(), "precision": precision,
               "blocks": []}
    ok = True
    for block in blocks:
        tableaux = syt_count(block.weight)
        entry = {
            "weight": [block.weight.lam1, block.weight.lam2],
            "eigenvalue": fraction_to_str(block.eigenvalue),
            "dimension": block.dim,
            "dimension_ok": block.dim == (block.weight.d + 1) * tableaux,
            "basis": matrix_to_json(block.basis),
        }
        leaves = eigenleaf_decomposition(block, precision)
        entry["leaf_count_ok"] = len(leaves) == tableaux
        entry["leaves"] = []
        for leaf in leaves:
            op = leaf_operator(leaf)
            entry["leaves"].append({
                "dimension": leaf.dim,
                "phi": {str(j): mpmath.nstr(v, 30)
                        for j, v in leaf.phi.items()},
                "coefficients": [
                    [fraction_to_str(c) if isinstance(c, (int, Fraction))
                     else mpmath.nstr(c, 30) for c in row]
                    for row in op.coeffs],
                "exact": op.exact,
                "nilpotency_residual": mpmath.nstr(
                    leaf.nilpotency_residual, 12),
                "fit_residual": mpmath.nstr(op.residual, 12),
            })
        ok = ok and entry["dimension_ok"] and entry["leaf_count_ok"]
        payload["blocks"].append(entry)
    payload["status"] = "pass" if ok else "fail"
    _emit(payload, args)
    return 0 if ok else 1


def cmd_eliminate(args):
    data = universal_operator_data(args.k, args.d)
    payload = _elimination_payload(data)
    _emit(payload, args)
    return 0


def _elimination_payload(data):
    from .olambda import element_degree, free_variable_degrees
    result = data.elimination
    k, d = data.k, data.d
    degrees = free_variable_degrees(k, d)

    def degree_of(x):
        return None if x.is_zero() else element_degree(x, degrees)

    payload = {
        "k": k, "d": d, "sweeps": result.sweeps,
        "phi": {str(i): nilpotent_to_json(result.phi[i])
                for i in range(1, d + 1)},
        "psi": {str(i): nilpotent_to_json(result.psi[i])
                for i in range(1, d + 1)},
        "wronskian": unipoly_to_json(data.wronskian),
        "numerator": unipoly_to_json(data.wr_deriv),
        "F1": [nilpotent_to_json(v) for v in data.f1],
        "F2": [nilpotent_to_json(v) for v in data.f2],
        "sigma_images": [nilpotent_to_json(v) for v in data.sigma_images],
        # homogeneity certificates: the degree of every emitted element
        # (null for zero elements), against the expected j - s and s
        "gradings": {
            "tails": {str(i): [degree_of(result.phi[i]),
                               degree_of(result.psi[i])]
                      for i in range(1, d + 1)},
            "F1": [degree_of(v) for v in data.f1],
            "F2": [degree_of(v) for v in data.f2],
            "sigma_images": [degree_of(v) for v in data.sigma_images],
            "expected_F1": [j - 1 for j in range(1, len(data.f1) + 1)],
            "expected_F2": [j - 2 for j in range(1, len(data.f2) + 1)],
            "expected_sigma": list(range(1, len(data.sigma_images) + 1)),
        },
    }
    return payload


def cmd_character(args):
    order = args.order
    payload = {"order": order}
    if args.n is not None:
        n = args.n
        payload["n"] = n
        payload["isotypic"] = {}
        for k in range(n // 2 + 1):
            brute = brute_isotypical_character(n, k, order)
            closed = char_isotypical_closed(n, k, order)
            payload["isotypic"][str(k)] = {
                "brute": qseries_to_json(brute),
                "closed": qseries_to_json(closed),
                "match": brute == closed,
            }
    if args.k is not None and args.d is not None:
        full, b_free = character_olambda(args.k, args.d, order)
        payload["quotient_algebra"] = {
            "full": qseries_to_json(full),
            "b_free": qseries_to_json(b_free),
        }
    _emit(payload, args)
    return 0


def cmd_verify(args):
    kd_list = tuple(tuple(map(int, kd.split(","))) for kd in args.kd) \
        if args.kd else ((0, 1), (1, 1), (0, 2))
    if args.config:
        overrides = json.loads(Path(args.config).read_text())
    else:
        overrides = {}
    try:
        cfg = RunConfig(
            suite=overrides.get("suite", args.suite),
            max_n=overrides.get("max_n", args.n),
            precision=overrides.get("precision", _precision(args)),
            seed=overrides.get("seed", args.seed),
            kd_list=tuple(tuple(kd) for kd in overrides.get("kd_list", kd_list)),
            point_sets=overrides.get("point_sets", args.point_sets),
            jobs=overrides.get("jobs", args.jobs),
            timings=overrides.get("timings", args.timings),
        )
    except ValueError as exc:
        _fail_usage(str(exc))
    if cfg.suite not in SUITE_NAMES:
        _fail_usage(f"unknown suite {cfg.suite!r}; choose from {SUITE_NAMES}")
    cert = run_suite(cfg)
    blob = certificate_bytes(cert)
    if args.output:
        Path(args.output).write_bytes(blob)
    else:
        sys.stdout.write(blob.decode())
    if cert["overall"] == "internal-error":
        return 3
    return 0 if cert["overall"] == "pass" else 1


def cmd_golden(args):
    golden_dir = Path(args.dir) if args.dir else DEFAULT_GOLDEN_DIR
    if args.what != "elimination":
        _fail_usage("only elimination golden files exist")
    path = golden_dir / "elimination" / f"k{args.k}_d{args.d}.json"
    data = universal_operator_data(args.k, args.d)
    computed = json.dumps(_elimination_payload(data), sort_keys=True,
                          indent=2) + "\n"
    if args.bless:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(computed)
        print(f"blessed {path}")
        return 0
    if not path.exists():
        print(f"error: golden file {path} is missing (use --bless)",
              file=sys.stderr)
        return 1
    expected = path.read_text()
    if expected == computed:
        print(f"golden match: {path}")
        return 0
    _report_json_diff(json.loads(expected), json.loads(computed))
    return 1


def _report_json_diff(expected, computed, path="$"):
    if type(expected) is not type(computed):
        print(f"diff at {path}: type {type(expected).__name__} != "
              f"{type(computed).__name__}")
        return True
    if isinstance(expected, dict):
        for key in sorted(set(expected) | set(computed)):
            if key not in expected:
                print(f"diff at {path}.{key}: unexpected key")
                return True
            if key not in computed:
                print(f"diff at {path}.{key}: missing key")
                return True
            if _report_json_diff(expected[key], computed[key],
                                 f"{path}.{key}"):
                return True
        return False
    if isinstance(expected, list):
        if len(expected) != len(computed):
            print(f"diff at {path}: length {len(expected)} != {len(computed)}")
            return True
        for i, (e, c) in enumerate(zip(expected, computed)):
            if _report_json_diff(e, c, f"{path}[{i}]"):
                return True
        return False
    if expected != computed:
        print(f"diff at {path}: {expected!r} != {computed!r}")
        return True
    return False


def build_parser():
    parser = argparse.ArgumentParser(
        prog="bethe-gl2",
        description="Exact spectral algebra of the twisted gl2 Bethe family")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("operator", help="second-order operator data (W, U)")
    p.add_argument("--n", type=int)
    p.add_argument("--points", help="JSON file or comma-separated rationals")
    p.add_argument("--k-matrix", choices=("zero", "nilpotent"),
                   default="nilpotent")
    p.add_argument("--output")
    p.set_defaults(func=cmd_operator)

    p = sub.add_parser("decompose", help="blocks, leaves and coefficients")
    p.add_argument("--n", type=int)
    p.add_argument("--points")
    p.add_argument("--precision", type=int)
    p.add_argument("--output")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("eliminate", help="tail elimination at (k, d)")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--output")
    p.set_defaults(func=cmd_eliminate)

    p = sub.add_parser("character", help="graded characters")
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--d", type=int)
    p.add_argument("--order", type=int, default=10)
    p.add_argument("--output")
    p.set_defaults(func=cmd_character)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", default="core")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--precision", type=int)
    p.add_argument("--kd", action="append",
                   help="elimination pair as 'k,d' (repeatable)")
    p.add_argument("--point-sets", type=int, default=2)
    p.add_argument("--jobs", type=int, default=os.cpu_count() or 1,
                   help="worker processes (default: logical cores)")
    p.add_argument("--timings", action="store_true")
    p.add_argument("--config", help="JSON config file (same field names)")
    p.add_argument("--output")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("golden", help="compare or bless golden files")
    p.add_argument("--what", default="elimination")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--bless", action="store_true")
    p.add_argument("--dir")
    p.set_defaults(func=cmd_golden)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "func", None):
        parser.print_help()
        return 2
    try:
        return args.func(args)
    except InternalConsistencyError as exc:
        print(f"internal consistency error: {exc}", file=sys.stderr)
        return 3
    except BetheGl2Error as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

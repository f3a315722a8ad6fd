"""Spectral layer: blocks, triangular bases, leaves, leaf operators, the
singular-spectrum identity, and the polynomial-pair roundtrip."""

import importlib.util
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from mpmath import mp

from bethe_gl2 import spectral
from bethe_gl2.betheop import KMatrix, b2_residues, u_coefficients
from bethe_gl2.correspondence import nu_consistency_check
from bethe_gl2.errors import GenericityError, TheoremViolationError
from bethe_gl2.gl2rep import EvalModule, syt_count
from bethe_gl2.linalg import Matrix, rank
from bethe_gl2.numeric import (conj_transpose, joint_split_mp, sparse_to_mp,
                               with_precision_escalation)
from bethe_gl2.spectral import (block_eigenvalue,
                                deformed_isotypical_decomposition,
                                leaf_from_polynomials, numeric_leaf_scalars,
                                restrict_exact, singular_spectrum_match,
                                triangular_block_basis, weight_labels)
from bethe_gl2.unipoly import UniPoly

from conftest import blocks_for, leaves_for, module_for, sing_mats_for


def test_block_dimensions_n2():
    blocks = blocks_for([0, 1])
    assert [(b.weight.lam1, b.weight.lam2, b.dim, b.eigenvalue)
            for b in blocks] == [(2, 0, 3, 0), (1, 1, 1, 2)]


def test_block_dimensions_n3():
    blocks = blocks_for([0, 1, 2])
    assert [(b.weight.lam1, b.weight.lam2, b.dim, b.eigenvalue)
            for b in blocks] == [(3, 0, 4, 0), (2, 1, 4, 3)]


def test_block_single_site():
    blocks = blocks_for([0])
    assert [(b.weight.lam1, b.weight.lam2, b.dim) for b in blocks] == \
        [(1, 0, 2)]


def test_blocks_exhaust_space_up_to_n5():
    for n in range(1, 6):
        blocks = blocks_for(list(range(n)))
        assert sum(b.dim for b in blocks) == 2 ** n
        for b in blocks:
            assert b.dim == (b.weight.d + 1) * syt_count(b.weight)


def _benchmark_workloads():
    """perfbench/workloads.py, loaded read-only for its recorded pools."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_blocks_reproduce_recorded_digests():
    # Fixed point: the 48 recorded n = 4 modules keep their block and
    # triangular-basis digests (sha256 of the exact entries).
    workload = _benchmark_workloads().WORKLOADS["blocks_exact"]
    pool = workload.load_pool()
    assert len(pool) == 48
    mismatched = [i for i, entry in enumerate(pool)
                  if not workload.check(entry, workload.op(entry))]
    assert mismatched == []


@pytest.mark.parametrize("label", ["nilpotent", "zero"])
def test_overstated_tableau_count_is_a_theorem_violation(monkeypatch, label):
    # The block dimensions certify that each ker (B22 - lam)^e is the whole
    # generalized eigenspace; a wrong expectation must not pass silently.
    module = module_for([0, 1, 2])
    kmat = KMatrix.nilpotent() if label == "nilpotent" else KMatrix.zero()
    real_count = spectral.syt_count
    for target in weight_labels(module.n):
        monkeypatch.setattr(
            spectral, "syt_count",
            lambda w, target=target: real_count(w) + (w == target))
        with pytest.raises(TheoremViolationError):
            deformed_isotypical_decomposition(module, kmat)


def test_blocks_share_their_operator_and_restrict_u_linearly():
    # U restricted to a block equals the cofactor-weighted sum of the
    # restricted residues, exactly.
    for points in ([0, 1, 2], [Fraction(-3, 2), Fraction(1, 3), 2, 7]):
        module = module_for(points)
        for kmat in (KMatrix.nilpotent(), KMatrix.zero()):
            blocks = deformed_isotypical_decomposition(module, kmat)
            op = blocks[0].operator
            assert all(b.operator is op for b in blocks)
            for block in blocks:
                residues = [restrict_exact(res, block.basis, block.pivots)
                            for res in op.series.residues]
                for i, u in enumerate(block.u_restricted(), start=1):
                    total = Matrix.zeros(block.dim, block.dim)
                    for s, res in enumerate(residues):
                        cofactor = UniPoly.from_roots(
                            [p for t, p in enumerate(module.points)
                             if t != s])
                        weight = cofactor.coefficient(module.n - i)
                        total = total + weight * res
                    assert u == total


def test_plain_blocks_are_weight_compatible_eigenspaces():
    for b in blocks_for([0, 1, 2], "zero"):
        basis, report = triangular_block_basis(b)
        assert report["pass"]
        # every basis vector lives in a single weight space
        for j in range(basis.cols):
            weights = {module_for([0, 1, 2]).basis[i].bit_count()
                       for i, x in enumerate(basis.column(j)) if x != 0}
            assert len(weights) == 1


def test_triangular_basis_deformed():
    module = module_for([0, 1])
    for block in blocks_for([0, 1]):
        basis, report = triangular_block_basis(block)
        assert report["pass"]
        assert basis.cols == block.dim
        assert rank(basis) == block.dim
    # the singlet leaf picks up a strictly lower-weight correction
    singlet_block = blocks_for([0, 1])[1]
    basis, _ = triangular_block_basis(singlet_block)
    column = basis.column(0)
    weights = {module.basis[i].bit_count()
               for i, x in enumerate(column) if x != 0}
    assert 1 in weights and weights - {1} <= {2}


def test_triangular_basis_n3():
    for block in blocks_for([0, 1, 2]):
        basis, report = triangular_block_basis(block)
        assert report["pass"]
        assert basis.cols == block.dim


def test_leaf_counts_and_dims():
    for points in ([0], [0, 1], [0, 1, 2], [0, 1, 2, 3]):
        blocks = blocks_for(points)
        for index, block in enumerate(blocks):
            leaves = [leaf for leaf, _ in leaves_for(points, index)]
            assert len(leaves) == syt_count(block.weight)
            for leaf in leaves:
                assert leaf.dim == block.weight.d + 1


def test_leaf_count_totals():
    # total leaf count is the number of multiplicity vectors, and leaves
    # weighted by their string lengths exhaust the module
    for points in ([0, 1], [0, 1, 2], [0, 1, 2, 3]):
        blocks = blocks_for(points)
        total_leaves = 0
        total_dim = 0
        for index, block in enumerate(blocks):
            pairs = leaves_for(points, index)
            total_leaves += len(pairs)
            total_dim += sum(leaf.dim for leaf, _ in pairs)
        n = len(points)
        assert total_leaves == sum(
            syt_count(block.weight) for block in blocks)
        assert total_dim == 2 ** n


def test_leaf_operator_structure():
    # lam=(1,1), n=2: one-dimensional leaf, c20 = 1*(2-1+1) = 2
    (leaf, op), = leaves_for([0, 1], 1)
    assert op.coeffs == [[Fraction(0)], [Fraction(2)]]
    assert op.exact

    # lam=(2,0), n=2: c20 = 0, U1 -> N exactly
    (leaf, op), = leaves_for([0, 1], 0)
    assert op.coeffs[0] == [0, 1, 0]
    assert op.coeffs[1][0] == 0
    assert op.exact


def test_leaf_nilpotency_residuals():
    for points in ([0, 1], [0, 1, 2]):
        for index in range(len(blocks_for(points))):
            for leaf, op in leaves_for(points, index):
                tol = mpmath.mpf(2) ** (-leaf.precision // 2)
                assert leaf.nilpotency_residual < tol * 100


def test_leaf_scalar_part_equals_block_eigenvalue():
    for points in ([0, 1], [0, 1, 2]):
        blocks = blocks_for(points)
        for index, block in enumerate(blocks):
            if module_for(points).n < 2:
                continue
            for leaf, op in leaves_for(points, index):
                c20 = op.coeffs[1][0]
                expected = block_eigenvalue(block.weight)
                if isinstance(c20, Fraction):
                    assert c20 == expected
                else:
                    assert abs(c20 - mpmath.mpmathify(expected)) < 1e-30


def test_singular_spectrum_match():
    # At [-3, 3] block (2, 0) is not regular: the identity holds for the
    # characteristic polynomial only, not for the minimal one.
    for points in ([0], [0, 1], [0, 1, 2], [-3, 3], [-2, 0, 2]):
        report = singular_spectrum_match(blocks_for(points), seed=2)
        assert report["pass"], report["failures"]


def test_perturbed_block_coefficient_fails_spectrum_identity(monkeypatch):
    # A diagonal entry moves the trace of Y, so the identity must fail; an
    # entry above the diagonal can leave the spectrum unchanged.
    original = spectral.IsotypicBlock.bethe_restricted

    def perturbed(self, j):
        mat = original(self, j)
        if j != 2:
            return mat
        rows = [list(row) for row in mat.data]
        rows[0][0] += Fraction(1, 7)
        return Matrix(rows)

    monkeypatch.setattr(spectral.IsotypicBlock, "bethe_restricted",
                        perturbed)
    for points in ([-3, 3], [0, 1, 2]):
        report = singular_spectrum_match(blocks_for(points), seed=2)
        assert not report["pass"]
        assert all("charpoly" in f for f in report["failures"])
    report = nu_consistency_check(blocks_for([0, 1, 2])[1],
                                  sing_mats_for([0, 1, 2])[1])
    assert any("charpoly" in f for f in report["failures"])


def test_roundtrip_exact_rational_points():
    # spec example: F0 = u, G0 = u^2 + 1 gives Wr = u^2 - 1, points +-1
    result = leaf_from_polynomials(UniPoly([0, 1]), UniPoly([1, 0, 1]))
    assert result.mode == "exact"
    assert sorted(result.points) == [Fraction(-1), Fraction(1)]
    assert result.match_count == 1
    assert result.target_scalars == [Fraction(2)]


def test_roundtrip_exact_k0():
    # G0' = 3u(u - 2/3) has rational roots
    result = leaf_from_polynomials(UniPoly([1]), UniPoly([0, 0, -1, 1]))
    assert result.mode == "exact"
    assert sorted(result.points) == [Fraction(0), Fraction(2, 3)]
    assert result.match_count == 1


def test_roundtrip_numeric_mode():
    result = leaf_from_polynomials(UniPoly([1]), UniPoly([1, 2, -3, 1]))
    assert result.mode == "numeric"
    assert result.match_count == 1


def test_roundtrip_degenerate_pair():
    with pytest.raises(GenericityError):
        leaf_from_polynomials(UniPoly([0, 0, 1]), UniPoly([0, 0, 0, 1]))


def test_roundtrip_complex_roots_rejected():
    # Wr(1, u^3 + 3u) = 3(u^2 + 1) has roots +-i
    with pytest.raises(GenericityError):
        leaf_from_polynomials(UniPoly([1]), UniPoly([0, 3, 0, 1]))


def test_roundtrip_numeric_middle_block():
    # k = n/2: the target block (2,2) has d = 0, so U_2 is scalar on it and
    # must not drive the split; the index counts the 1 + 3 leaves of the
    # blocks (4,0) and (3,1) first.
    result = leaf_from_polynomials(UniPoly([3, 3, 1]),
                                   UniPoly([-2, -2, -3, 1]))
    assert (result.mode, result.match_count, result.matched_index) == \
        ("numeric", 1, 4)


def _sorted_scalars(pairs):
    # sorted on float keys, so that c_20 = lam (exact) and lam + eps
    # (numeric) tie and the later scalars decide
    rows = [(dim, [mpmath.re(mpmath.mpmathify(c)) for c in scalars])
            for dim, scalars in pairs]
    return sorted(rows, key=lambda row: (row[0], [float(c) for c in row[1]]))


def test_numeric_leaf_scalars_against_exact():
    # integer points through the numeric pipeline agree with the exact
    # leaves, block by block
    for points in ([0, 1], [0, 1, 3]):
        for index, block in enumerate(blocks_for(points)):
            entries = numeric_leaf_scalars(
                [mpmath.mpf(p) for p in points], 128, block.weight)
            got = _sorted_scalars((e["dim"], e["scalars"]) for e in entries)
            exact = _sorted_scalars((leaf.dim, op.scalar_parts())
                                    for leaf, op in leaves_for(points, index))
            assert [dim for dim, _ in got] == [dim for dim, _ in exact]
            for (_, vals_a), (_, vals_b) in zip(got, exact):
                assert max(abs(a - b) for a, b in zip(vals_a, vals_b)) < 1e-25


def _whole_space_scalars(points, precision):
    """Oracle: split all of 2^n by U_2..U_n, trace scalars per leaf."""
    n = len(points)
    structure = EvalModule(n, range(n))
    with mp.workprec(precision):
        residues = b2_residues(structure, points, KMatrix.nilpotent().k21)
        u_mats = [sparse_to_mp(structure.dim, u)
                  for u in u_coefficients(points, residues)]
        out = []
        for _, basis in joint_split_mp(u_mats[1:]):
            bh = conj_transpose(basis)
            out.append([sum((bh * (u * basis))[r, r]
                            for r in range(basis.cols)) / basis.cols
                        for u in u_mats[1:]])
        return out


@pytest.mark.parametrize("n", [3, 4])
def test_block_scalars_match_whole_space_split(n):
    # the per-block pipeline reproduces the whole-space split, leaf by
    # leaf and in the same order, which keeps roundtrip indices global
    with mp.workprec(128):
        points = [mpmath.sqrt(2), -mpmath.sqrt(3), mpmath.mpf(5) / 7,
                  mpmath.pi][:n]
    whole = with_precision_escalation(
        lambda prec: _whole_space_scalars(points, prec), 128)
    per_block = [entry["scalars"] for weight in weight_labels(n)
                 for entry in numeric_leaf_scalars(points, 128, weight)]
    assert len(per_block) == len(whole)
    for a, b in zip(per_block, whole):
        assert max(abs(x - y) for x, y in zip(a, b)) < 1e-30

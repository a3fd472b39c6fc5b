from fractions import Fraction

import pytest

from hhwb.contraction import (
    FiniteAlgebra,
    FiniteBimodule,
    algebra_square,
    diagonal_bimodule,
    enveloping_embeddings,
    free_env_module,
    quotient_bimodule,
    random_bimodule,
    restrict_left,
    tensor_over,
    twisted_module,
    validate_bimodule,
    warmup_factorization,
)
from hhwb.dgcore import TENSOR_SEP, Permutation, identity_functor
from hhwb.hochschild import build_complex, total_homology
from hhwb.qlinalg import SparseMatrix, StructuralError

from conftest import (
    dual_numbers,
    ground_field,
    odd_dual,
    permuted,
    square_zero_with_diff,
)


@pytest.fixture
def aK():
    return FiniteAlgebra(ground_field())


@pytest.fixture
def aD():
    return FiniteAlgebra(dual_numbers())


def zero_bimodule(b):
    mats = [SparseMatrix(0, 0) for _ in range(b.dim)]
    return FiniteBimodule(b, 0, list(mats), list(mats))


def direct_sum(m, r):
    """Block-diagonal r-fold sum of a bimodule."""
    dim = m.dim * r

    def blow(mat):
        ent = {}
        for (i, j), v in mat.items():
            for s in range(r):
                ent[(s * m.dim + i, s * m.dim + j)] = v
        return SparseMatrix(dim, dim, ent)

    return FiniteBimodule(m.algebra, dim,
                          [blow(x) for x in m.left],
                          [blow(x) for x in m.right])


def test_algebra_rejects_graded_or_dg_input():
    with pytest.raises(StructuralError):
        FiniteAlgebra(odd_dual())
    with pytest.raises(StructuralError):
        FiniteAlgebra(square_zero_with_diff())


def test_algebra_square_is_lexicographic(aD):
    sq = algebra_square(aD)
    assert sq.dim == 4
    assert sq.basis == tuple(
        f"{x}{TENSOR_SEP}{y}" for x in aD.basis for y in aD.basis)


def test_diagonal_bimodule_valid(aD):
    assert validate_bimodule(diagonal_bimodule(aD)) == []
    assert validate_bimodule(free_env_module(algebra_square(aD))) == []


def test_validate_catches_broken_action(aD):
    m = diagonal_bimodule(aD)
    bad = list(m.left)
    bad[1] = SparseMatrix.identity(m.dim)  # then L_x·L_x ≠ L_{x²} = 0
    diags = validate_bimodule(FiniteBimodule(aD, m.dim, bad, m.right))
    assert diags


def test_enveloping_embeddings_validate(aK, aD):
    for a in (aK, aD):
        emb = enveloping_embeddings(a)
        d = a.dim
        for mat in emb.all().values():
            assert mat.rows == d ** 4 and mat.cols == d * d
            assert mat.nnz() == d * d


def test_tensor_over_ground_field(aK):
    res = tensor_over(diagonal_bimodule(aK), diagonal_bimodule(aK))
    assert res.dim == 1


def test_tensor_over_diagonal_dual(aD):
    # D is commutative, so D ⊗_{D^e} D = D/[D,D] = D has dimension 2.
    res = tensor_over(diagonal_bimodule(aD), diagonal_bimodule(aD))
    assert res.dim == 2
    assert res.projection.mul(res.inclusion) == SparseMatrix.identity(2)


def test_twisted_tensor_free_rank_one(aD):
    sq = algebra_square(aD)
    res = tensor_over(twisted_module(aD), free_env_module(sq))
    assert res.dim == sq.dim == 4


def test_twisted_tensor_free_higher_rank(aD):
    sq = algebra_square(aD)
    for r in (2, 3):
        res = tensor_over(twisted_module(aD), direct_sum(free_env_module(sq), r))
        assert res.dim == r * sq.dim


def test_twisted_tensor_diagonal(aD):
    sq = algebra_square(aD)
    res = tensor_over(twisted_module(aD), diagonal_bimodule(sq))
    assert res.dim == 2


def test_tensor_over_zero_module(aD):
    sq = algebra_square(aD)
    assert tensor_over(twisted_module(aD), zero_bimodule(sq)).dim == 0


def test_tensor_over_mismatched_algebras(aK, aD):
    with pytest.raises(StructuralError):
        tensor_over(diagonal_bimodule(aK), diagonal_bimodule(aD))


def test_warmup_free_module(aK, aD):
    for a in (aK, aD):
        sq = algebra_square(a)
        rep = warmup_factorization(a, free_env_module(sq))
        assert rep.ok
        assert rep.lhs_dim == sq.dim


def test_warmup_diagonal(aD):
    sq = algebra_square(aD)
    rep = warmup_factorization(aD, diagonal_bimodule(sq))
    assert rep.ok
    assert rep.lhs_dim == 2


def test_warmup_zero_module(aD):
    sq = algebra_square(aD)
    rep = warmup_factorization(aD, zero_bimodule(sq))
    assert rep.ok
    assert rep.lhs_dim == 0


@pytest.mark.parametrize("seed", range(20))
def test_warmup_random_bimodules(aD, seed):
    m = random_bimodule(aD, seed=seed)
    rep = warmup_factorization(aD, m)
    assert rep.kernels_equal, (seed, rep)
    assert rep.lhs_dim == rep.rhs_dim


def test_random_bimodules_are_seeded(aD):
    m1 = random_bimodule(aD, seed=7)
    m2 = random_bimodule(aD, seed=7)
    assert m1.dim == m2.dim
    assert all(a == b for a, b in zip(m1.left, m2.left))
    assert all(a == b for a, b in zip(m1.right, m2.right))


def test_staged_contraction_matches_direct(aD):
    # Contract over e21 first, push the residual e12 structure to the
    # quotient, contract again; the result has the size of the one-shot
    # twisted contraction.
    sq = algebra_square(aD)
    d = aD.dim
    for m in (free_env_module(sq), diagonal_bimodule(sq),
              random_bimodule(aD, seed=3)):
        direct = warmup_factorization(aD, m)
        inner = tensor_over(diagonal_bimodule(aD), restrict_left(m, aD, "e21"))
        m12 = restrict_left(m, aD, "e12")

        def big(mat):
            ent = {}
            for (r, c), v in mat.items():
                for i in range(d):
                    ent[(i * m.dim + r, i * m.dim + c)] = v
            return SparseMatrix(d * m.dim, d * m.dim, ent)

        left = [inner.projection.mul(big(x).mul(inner.inclusion))
                for x in m12.left]
        right = [inner.projection.mul(big(x).mul(inner.inclusion))
                 for x in m12.right]
        residual = FiniteBimodule(aD, inner.dim, left, right)
        assert validate_bimodule(residual) == []
        outer = tensor_over(diagonal_bimodule(aD), residual)
        assert outer.dim == direct.rhs_dim == direct.lhs_dim


def test_quotient_bimodule_kills_generated_submodule(aD):
    sq = algebra_square(aD)
    free = free_env_module(sq)
    # kill the class of the identity: the quotient is zero
    unit_vec = {sq.unit * sq.dim + sq.unit: Fraction(1)}
    q = quotient_bimodule(free, [unit_vec])
    assert q.dim == 0


def test_twisted_contraction_matches_twisted_homology(aD):
    # The degree-0 twisted homology of the square with the factor swap is the
    # twisted contraction against the diagonal bimodule.
    swap = Permutation.from_cycles(2, [(1, 2)])
    sc = build_complex(*permuted(aD.category, 2, swap), 3)
    hh0 = total_homology(sc, [0]).degrees[0].dim
    sq = algebra_square(aD)
    assert hh0 == tensor_over(twisted_module(aD), diagonal_bimodule(sq)).dim
    # and it agrees with the untwisted degree-0 homology of one factor
    one = build_complex(aD.category, identity_functor(aD.category), 3)
    assert hh0 == total_homology(one, [0]).degrees[0].dim

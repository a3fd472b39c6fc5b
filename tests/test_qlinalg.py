import copy
import heapq
import math
from fractions import Fraction
from types import SimpleNamespace

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from hhwb import bases, qlinalg
from hhwb.bases import (
    column_space_basis,
    kernel_basis,
    projector_invariant_dim,
    rref,
    solve,
)
from hhwb.qlinalg import (
    EXACT,
    MODULAR,
    SparseMatrix,
    StructuralError,
    rank,
    rank_info,
)

from oracles import entries, homology_dimension, reference_mul



# -- the entry contract: ints where integral, else Fractions, never floats --


def test_integral_entries_are_stored_as_ints():
    m = SparseMatrix(2, 2, {(0, 0): Fraction(4, 2), (0, 1): Fraction(1, 2),
                            (1, 0): 3, (1, 1): Fraction(0)})
    assert entries(m) == {(0, 0): 2, (0, 1): Fraction(1, 2), (1, 0): 3}
    assert [type(entries(m)[k]) for k in ((0, 0), (0, 1), (1, 0))] == [
        int, Fraction, int]
    assert all(type(v) is int
               for _, v in SparseMatrix.from_dense([[Fraction(6, 3), 1]])
               .items())


def test_internal_products_keep_the_entry_contract():
    # mul and transpose build their results past the constructor's checks,
    # so they must normalise an integral Fraction themselves
    half = SparseMatrix.from_dense([[Fraction(1, 2), Fraction(1, 3)],
                                    [0, 3]])
    two = SparseMatrix.from_dense([[2, 0], [Fraction(3, 2), Fraction(1, 3)]])
    for m in (half.mul(two), two.mul(half), half.transpose(),
              half.mul(two).transpose()):
        checked = SparseMatrix(m.rows, m.cols, entries(m))
        assert m == checked
        assert [type(v) for v in entries(m).values()] == \
            [type(v) for v in entries(checked).values()]
    assert entries(half.mul(two)) == {(0, 0): Fraction(3, 2),
                                      (0, 1): Fraction(1, 9),
                                      (1, 0): Fraction(9, 2), (1, 1): 1}
    assert type(entries(half.mul(two))[(1, 1)]) is int


# entries whose products cancel, to integers or to zero, in a sum
PRODUCT_ENTRIES = [1, -1, 2, -2, 3, Fraction(1, 2), Fraction(-1, 2),
                   Fraction(2, 3), Fraction(3, 2)]


@st.composite
def matrix_pairs(draw):
    rows, inner, cols = (draw(st.integers(0, 5)) for _ in range(3))

    def cells(r, c):
        return draw(st.dictionaries(
            st.tuples(st.integers(0, max(r - 1, 0)),
                      st.integers(0, max(c - 1, 0))),
            st.sampled_from(PRODUCT_ENTRIES), max_size=r * c))

    a, b = cells(rows, inner), cells(inner, cols)
    if rows and inner >= 2 and draw(st.booleans()):
        # rows k and l of b equal and row i of a v·(e_k - e_l): row i of
        # the product cancels whole
        k, l = draw(st.permutations(range(inner)))[:2]
        i = draw(st.integers(0, rows - 1))
        v = draw(st.sampled_from(PRODUCT_ENTRIES))
        b = {key: w for key, w in b.items() if key[0] != l}
        b.update({(l, j): w for (r, j), w in b.items() if r == k})
        a = {key: w for key, w in a.items() if key[0] != i}
        a[i, k], a[i, l] = v, -v
    return SparseMatrix(rows, inner, a), SparseMatrix(inner, cols, b)


@given(matrix_pairs())
@settings(max_examples=200, deadline=None)
def test_mul_matches_the_reference_loop(pair):
    a, b = pair
    product = a.mul(b)
    assert product == reference_mul(a, b)
    assert all(product.by_row.values())  # no row left empty
    assert [type(v) for v in entries(product).values()] == [
        int if v.denominator == 1 else Fraction
        for v in map(Fraction, entries(product).values())]


@pytest.mark.parametrize("a, b, product", [
    # ints: row 0 cancels whole, row 1 keeps both sums
    ([[1, 1], [2, 0]], [[1, 1], [-1, -1]], {1: {0: 2, 1: 2}}),
    # 1/2 - 1/2 = 0 and 1/3 + 2/3 = 1, an int
    ([[Fraction(1, 2), Fraction(1, 2)], [Fraction(1, 3), Fraction(2, 3)]],
     [[1, 1], [-1, 1]], {0: {1: 1}, 1: {0: Fraction(-1, 3), 1: 1}}),
    # a row of Fractions that cancels whole
    ([[Fraction(1, 2), Fraction(-1, 2)]], [[1, 1], [1, 1]], {}),
])
def test_mul_stores_no_cancelled_sum(monkeypatch, a, b, product):
    # the rows handed to normalise_rows already hold no zero and no empty
    # row: a sum is deleted the moment it cancels
    built = []
    normalise = qlinalg.normalise_rows

    def spy(rows):
        built.append({i: dict(r) for i, r in rows.items()})
        return normalise(rows)

    monkeypatch.setattr(qlinalg, "normalise_rows", spy)
    out = SparseMatrix.from_dense(a).mul(SparseMatrix.from_dense(b))
    assert all(r and 0 not in r.values() for r in built[-1].values())
    assert out.by_row == product
    assert [type(v) for r in out.by_row.values() for v in r.values()] == [
        type(v) for r in product.values() for v in r.values()]


@pytest.mark.parametrize("bad", [0.1, 0.5, 0.0, "1", None])
def test_float_and_other_entries_are_rejected(bad):
    with pytest.raises(StructuralError):
        SparseMatrix(1, 1, {(0, 0): bad})
    with pytest.raises(StructuralError):
        SparseMatrix.from_dense([[1, bad]])


def as_fractions(m: SparseMatrix) -> SparseMatrix:
    """m with every entry held as a Fraction, integral ones included, set
    past the constructor, which would normalise them to ints."""
    out = SparseMatrix(m.rows, m.cols)
    out.by_row = {i: {j: Fraction(v) for j, v in row.items()}
                  for i, row in m.by_row.items()}
    return out


def assert_exact_values(*outputs):
    """Every value in the nested dicts/lists is an int or a Fraction."""
    for out in outputs:
        if isinstance(out, dict):
            assert_exact_values(*out.values())
        elif isinstance(out, (list, tuple)):
            assert_exact_values(*out)
        else:
            assert type(out) in (int, Fraction), out


# 49 * (1/49) is not 1 in floating point, so a float pivot inverse leaves
# a spurious entry behind; the others need non-unit pivots throughout.
INT_MATRICES = [
    [[49, 1], [49, 1]],
    [[2, 3, 5], [4, 6, 10], [3, 1, 4]],
    [[6, 4, 0, 2], [3, 0, 9, 3], [0, 8, -18, -2], [9, 4, 9, 5]],
    [[0, 7, 14], [3, 0, 5], [6, 7, 24], [0, 0, 0]],
]


@pytest.mark.parametrize("dense", INT_MATRICES)
def test_integer_matrices_stay_exact(dense):
    m = SparseMatrix.from_dense(dense)
    f = as_fractions(m)
    assert all(type(v) is int for v in entries(m).values())
    assert all(type(v) is Fraction for v in entries(f).values())
    expected = sympy.Matrix(dense).rank()
    assert rank_info(m).value == rank_info(f).value == expected

    kernel = kernel_basis(m)
    assert kernel == kernel_basis(f)
    assert len(kernel) == m.cols - expected
    for v in kernel:
        assert m.apply(v) == {}

    columns = column_space_basis(m)
    assert columns == column_space_basis(f)
    assert len(columns) == expected

    rows = [dict(enumerate(r)) for r in dense]
    rows = [{c: v for c, v in r.items() if v} for r in rows]
    pivots = rref(rows)
    assert pivots == rref([{c: Fraction(v) for c, v in r.items()}
                           for r in rows])
    assert len(pivots) == expected

    b = m.apply({j: j + 1 for j in range(m.cols)})
    x = solve(m, b)
    assert x == solve(f, {i: Fraction(v) for i, v in b.items()})
    assert m.apply(x) == b
    assert_exact_values(kernel, columns, pivots, x)


def test_rank_zero_matrix():
    assert rank(SparseMatrix(3, 3)) == 0


def test_rank_identity():
    assert rank(SparseMatrix.identity(3)) == 3


def test_rank_dependent_rows():
    m = SparseMatrix.from_dense([[1, 2], [2, 4]])
    assert rank(m) == 1


def test_rank_modular_agrees():
    m = SparseMatrix.from_dense([[1, 2], [2, 4]])
    assert rank_info(m, MODULAR).value == 1


def test_kernel_identity_empty():
    assert kernel_basis(SparseMatrix.identity(2)) == []


def test_kernel_zero_map():
    basis = kernel_basis(SparseMatrix(1, 2))
    assert len(basis) == 2


def test_kernel_one_relation():
    m = SparseMatrix.from_dense([[1, 1]])
    (v,) = kernel_basis(m)
    # proportional to (1, -1)
    assert v[0] * -1 == v[1]
    assert m.apply(v) == {}


def test_kernel_annihilated_and_count():
    m = SparseMatrix.from_dense([[1, 2, 3], [0, 1, 1], [1, 3, 4]])
    basis = kernel_basis(m)
    assert len(basis) == 3 - rank(m)
    for v in basis:
        assert m.apply(v) == {}


def test_homology_trivial_complex():
    d_in = SparseMatrix(2, 0)
    d_out = SparseMatrix(0, 2)
    assert homology_dimension(d_in, d_out) == 2


def test_homology_exact_complex():
    assert homology_dimension(SparseMatrix.identity(2), SparseMatrix(0, 2)) == 0


def test_homology_multiplication_by_two():
    d_in = SparseMatrix.from_dense([[2]])
    assert homology_dimension(d_in, SparseMatrix(0, 1)) == 0


def test_homology_rejects_non_complex():
    with pytest.raises(StructuralError):
        homology_dimension(SparseMatrix.identity(2), SparseMatrix.identity(2))


def test_projector_identity():
    assert projector_invariant_dim(SparseMatrix.identity(4)) == 4


def test_projector_averaged_swap():
    half = Fraction(1, 2)
    p = SparseMatrix.from_dense([[half, half], [half, half]])
    assert projector_invariant_dim(p) == 1


def test_projector_zero():
    assert projector_invariant_dim(SparseMatrix(3, 3)) == 0


def test_projector_rejects_non_idempotent():
    with pytest.raises(StructuralError):
        projector_invariant_dim(SparseMatrix.from_dense([[2]]))


def test_solve_simple():
    m = SparseMatrix.from_dense([[1, 1], [0, 1]])
    x = solve(m, {0: Fraction(3), 1: Fraction(1)})
    assert m.apply(x) == {0: Fraction(3), 1: Fraction(1)}


def test_solve_inconsistent():
    m = SparseMatrix.from_dense([[1], [1]])
    assert solve(m, {0: Fraction(1), 1: Fraction(2)}) is None


def test_column_space_basis():
    m = SparseMatrix.from_dense([[1, 2], [2, 4], [0, 0]])
    basis = column_space_basis(m)
    assert len(basis) == 1


def test_modular_provenance():
    m = SparseMatrix.identity(3)
    info = rank_info(m, MODULAR)
    assert info.value == 3
    assert info.agreed
    assert len(info.per_prime) == 2


P1, P2 = MODULAR.primes


def test_modular_rank_falls_back_when_primes_disagree():
    # the rank is over Q in every mode; P1 only cross-checks it, short
    info = rank_info(SparseMatrix.from_dense([[P1]]), MODULAR)
    assert info.per_prime == ((P1, 0), (P2, 1))
    assert info.failed_primes == ()
    assert not info.agreed
    assert info.value == 1


def test_modular_rank_falls_back_when_a_prime_divides_a_denominator():
    info = rank_info(SparseMatrix.from_dense([[Fraction(1, P1)]]), MODULAR)
    assert info.per_prime == ((P2, 1),)
    assert info.failed_primes == (P1,)
    assert info.agreed
    assert info.value == 1


def test_modular_rank_is_exact_when_the_surviving_prime_is_wrong():
    # P1 divides a denominator and the entry P2 vanishes mod P2
    m = SparseMatrix.from_dense([[Fraction(1, P1), 0], [0, P2]])
    info = rank_info(m, MODULAR)
    assert info.per_prime == ((P2, 1),)
    assert info.failed_primes == (P1,)
    assert not info.agreed
    assert info.value == 2


def test_a_component_that_vanishes_mod_p_adds_nothing():
    # components are found once on the support; the block [[P1, P1]]
    # empties mod P1 and must count 0 there, not 1
    m = SparseMatrix.from_dense([[P1, P1, 0], [0, 0, 1]])
    info = rank_info(m, MODULAR)
    assert info.per_prime == ((P1, 1), (P2, 2))
    assert not info.agreed
    assert info.value == 2


def test_modular_rank_is_exact_when_every_prime_fails():
    info = rank_info(SparseMatrix.from_dense([[Fraction(1, P1 * P2)]]),
                     MODULAR)
    assert info.per_prime == ()
    assert info.failed_primes == (P1, P2)
    assert info.value == 1


# -- the shared ±1 stage and the per-field residue ---------------------------


def test_a_unit_pivot_that_clears_a_denominator_still_fails_its_prime():
    # the pivot 1 eliminates the row holding 1/P1, so the residue is empty,
    # but P1 divides a denominator of the input
    info = rank_info(SparseMatrix.from_dense([[1, 0], [Fraction(1, P1), 0]]),
                     MODULAR)
    assert info.failed_primes == (P1,)
    assert info.per_prime == ((P2, 1),)
    assert info.value == 1


def test_a_matrix_without_a_unit_entry_is_all_residue():
    # det = 2 * P1: rank 2 over Q and mod P2, rank 1 mod P1
    m = SparseMatrix.from_dense([[2, 4], [3, 6 + P1]])
    info = rank_info(m, MODULAR)
    assert info.per_prime == ((P1, 1), (P2, 2))
    assert not info.agreed
    assert info.value == rank_info(m).value == 2


def test_a_residue_whose_primes_disagree_falls_back():
    # one unit pivot leaves the residue [[P1]]
    m = SparseMatrix.from_dense([[1, 1, 0], [1, 1 + P1, 0], [0, 0, -1]])
    info = rank_info(m, MODULAR)
    assert info.per_prime == ((P1, 2), (P2, 3))
    assert not info.agreed
    assert info.value == rank_info(m).value == 3


def test_primes_that_agree_with_each_other_do_not_set_the_rank():
    # P1·P2 vanishes mod both primes, so they agree on 0; the rank is 1
    info = rank_info(SparseMatrix.from_dense([[P1 * P2]]), MODULAR)
    assert info.per_prime == ((P1, 0), (P2, 0))
    assert not info.agreed
    assert info.value == 1


def dense_rank_mod(dense, p):
    """Rank mod p by textbook Gaussian elimination on a dense copy."""
    a = [[v.numerator * pow(v.denominator, -1, p) % p for v in row]
         for row in dense]
    r = 0
    for c in range(len(a[0]) if a else 0):
        piv = next((i for i in range(r, len(a)) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = pow(a[r][c], -1, p)
        for i in range(r + 1, len(a)):
            f = a[i][c] * inv % p
            a[i] = [(x - f * y) % p for x, y in zip(a[i], a[r])]
        r += 1
    return r


ENTRIES = [1, -1, 1, -1, 2, -2, 3, P1, -P1, P2, 2 * P2, P1 * P2,
           Fraction(1, P1), Fraction(-3, P2), Fraction(2, 3), Fraction(P1, 2),
           Fraction(1, P1 * P2)]


@st.composite
def residue_matrices(draw):
    rows = draw(st.integers(1, 6))
    cols = draw(st.integers(1, 6))
    cells = draw(st.dictionaries(
        st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1)),
        st.sampled_from(ENTRIES), max_size=rows * cols))
    return [[Fraction(cells.get((i, j), 0)) for j in range(cols)]
            for i in range(rows)]


@given(residue_matrices())
@settings(max_examples=200, deadline=None)
def test_every_field_ranks_the_shared_stage_and_its_residue(dense):
    m = SparseMatrix.from_dense(dense)
    before = copy.deepcopy(m.by_row)
    dens = [v.denominator for row in dense for v in row]
    failed = tuple(p for p in MODULAR.primes if any(d % p == 0 for d in dens))
    info = rank_info(m, MODULAR)
    assert m.by_row == before  # rank never writes to a row
    assert info.failed_primes == failed
    assert info.per_prime == tuple((p, dense_rank_mod(dense, p))
                                   for p in MODULAR.primes if p not in failed)
    expected = sympy.Matrix(dense).rank()
    assert rank_info(m).value == expected
    # P1 * P2 vanishes mod both primes: agreeing primes may both be short,
    # and the rank is over Q all the same
    assert info.value == expected
    assert info.agreed == all(r == expected for _, r in info.per_prime)


@st.composite
def small_matrices(draw):
    rows = draw(st.integers(1, 6))
    cols = draw(st.integers(1, 6))
    cells = draw(st.lists(
        st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1),
                  st.fractions(min_value=-5, max_value=5, max_denominator=7)),
        max_size=12))
    ent = {}
    for i, j, v in cells:
        ent[(i, j)] = v  # later duplicates win; no duplicate positions remain
    return SparseMatrix(rows, cols, ent)


@given(small_matrices())
@settings(max_examples=60, deadline=None)
def test_exact_and_modular_ranks_agree(m):
    assert rank(m) == rank_info(m, MODULAR).value


@given(small_matrices())
@settings(max_examples=60, deadline=None)
def test_kernel_dimension_and_annihilation(m):
    basis = kernel_basis(m)
    assert len(basis) == m.cols - rank(m)
    for v in basis:
        assert m.apply(v) == {}


@given(small_matrices(), st.permutations(list(range(6))))
@settings(max_examples=40, deadline=None)
def test_rank_invariant_under_permutation(m, perm):
    ent = {(perm[i] if i < 6 else i, j): v for (i, j), v in m.items()}
    permuted = SparseMatrix(max(m.rows, 6), m.cols, ent)
    base = SparseMatrix(max(m.rows, 6), m.cols, entries(m))
    assert rank(base) == rank(permuted)


@st.composite
def dense_blocks(draw):
    rows = draw(st.integers(1, 8))
    cols = draw(st.integers(1, 8))
    cells = draw(st.lists(
        st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1),
                  st.fractions(min_value=-5, max_value=5, max_denominator=7)),
        max_size=24))
    return rows, cols, {(i, j): v for i, j, v in cells if v}


@st.composite
def block_diagonal(draw):
    """A matrix of 2-4 blocks with its rows and columns shuffled, and the
    blocks as (rows, cols, entries)."""
    blocks = draw(st.lists(dense_blocks(), min_size=2, max_size=4))
    n_rows = sum(r for r, _, _ in blocks)
    n_cols = sum(c for _, c, _ in blocks)
    row_at = draw(st.permutations(range(n_rows)))
    col_at = draw(st.permutations(range(n_cols)))
    ent = {}
    r0 = c0 = 0
    for rows, cols, block in blocks:
        for (i, j), v in block.items():
            ent[(row_at[r0 + i], col_at[c0 + j])] = v
        r0 += rows
        c0 += cols
    return SparseMatrix(n_rows, n_cols, ent), blocks


def sympy_rank(rows, cols, entries):
    return sympy.Matrix(rows, cols, lambda i, j: sympy.Rational(
        entries.get((i, j), 0))).rank()


@given(block_diagonal())
@settings(max_examples=60, deadline=None)
def test_rank_is_the_sum_of_block_ranks(case):
    m, blocks = case
    expected = sum(sympy_rank(*b) for b in blocks)
    assert rank(m) == expected
    assert rank_info(m, MODULAR).value == expected


@given(block_diagonal(), st.lists(st.integers(-3, 3), min_size=32,
                                  max_size=32))
@settings(max_examples=60, deadline=None)
def test_kernel_and_solve_on_block_diagonal(case, coords):
    m, _ = case
    basis = kernel_basis(m)
    assert len(basis) == m.cols - rank(m)
    for v in basis:
        assert m.apply(v) == {}
    x0 = {j: Fraction(c) for j, c in enumerate(coords[:m.cols]) if c}
    b = m.apply(x0)
    x = solve(m, b)
    assert x is not None
    assert m.apply(x) == b


# -- rank reads its matrix in place -----------------------------------------


def test_the_split_hands_out_the_matrix_rows():
    m = SparseMatrix(5, 8, {(0, 0): 1, (1, 3): 2, (2, 1): 1,
                            (2, 0): Fraction(1, 3), (3, 4): 1, (4, 3): 1,
                            (4, 5): Fraction(1, 5)})
    rows = m.by_row
    comps, dens = qlinalg._component_rows(m)
    # components by least row, rows in index order; columns 2, 6 and 7
    # are untouched
    assert [[id(r) for r in c] for c in comps] == [
        [id(rows[0]), id(rows[2])], [id(rows[1]), id(rows[4])], [id(rows[3])]]
    assert dens == {3, 5}
    # a skipped row is left out, but its denominators still count
    comps, dens = qlinalg._component_rows(m, {2, 4})
    assert [[id(r) for r in c] for c in comps] == [
        [id(rows[0])], [id(rows[1])], [id(rows[3])]]
    assert dens == {3, 5}


def test_the_split_merges_components_met_late():
    # rows 0-2 each start a component; row 3 joins all three
    m = SparseMatrix(4, 3, {(0, 0): 1, (1, 1): 1, (2, 2): 1, (3, 2): 1,
                            (3, 0): 1, (3, 1): 1})
    comps, dens = qlinalg._component_rows(m)
    assert [[id(r) for r in c] for c in comps] == [
        [id(m.by_row[i]) for i in range(4)]]
    assert dens == set()


@pytest.mark.parametrize("shape", [(0, 4), (4, 0), (0, 0), (3, 5)])
def test_the_split_of_an_empty_matrix_is_empty(shape):
    assert qlinalg._component_rows(SparseMatrix(*shape)) == ([], set())
    assert rank_info(SparseMatrix(*shape), MODULAR).value == 0


# each needs the Markowitz stage, which rewrites rows: no entry is alone in
# its column, and some pivots are not ±1
IN_PLACE = [
    (SparseMatrix.from_dense([[1, 1, 0, 2], [1, 2, 3, 0], [0, 2, 4, 1],
                              [2, 0, 6, 1]]), ()),
    (SparseMatrix.from_dense([[2, 4, 1], [3, 6 + P1, 1], [1, 1, 1]]), ()),
    (SparseMatrix.from_dense([[Fraction(1, 2), 1, 1],
                              [Fraction(2, 3), 3, 1],
                              [5, Fraction(7, 3), 1]]), ()),
    # row 0 is row 1 plus row 2, so it may be cleared
    (SparseMatrix.from_dense([[3, 2, 5, 2], [1, 2, 3, 0], [2, 0, 2, 2],
                              [2, 2, 1, 3]]), {0}),
    # the ±1 stage rewrites row 1 and hands rows 2 and 3 on as they are; no
    # ±1 is left, so the Q stage pivots on 2, 4 or 6 and rewrites them
    (SparseMatrix.from_dense([[1, 1, 0, 0], [1, 3, 2, 0], [0, 2, 4, 6],
                              [0, 0, 6, 9]]), ()),
    # the same with denominators, scaled away before the Q stage
    (SparseMatrix.from_dense([[1, 1, 0, 0], [1, 3, Fraction(2, 5), 0],
                              [0, 2, 4, Fraction(6, 7)], [0, 0, 6, 9]]), ()),
]


@pytest.mark.parametrize("mode", [EXACT, MODULAR], ids=["exact", "modular"])
@pytest.mark.parametrize("case", range(len(IN_PLACE)))
def test_rank_leaves_its_matrix_unchanged(monkeypatch, mode, case):
    m, cleared = IN_PLACE[case]
    before = copy.deepcopy(m.by_row)
    own = {id(r) for i, r in m.by_row.items() if i not in cleared}
    copied = []
    q_entries = set()
    component_rank = qlinalg._component_rank

    def spy(rows, p, units=False):
        if units:  # the first stage gets the matrix's own rows
            assert {id(r) for r in rows} <= own
        elif not p:
            q_entries.update(v for r in rows for v in r.values())
        pivots, left = component_rank(rows, p, units)
        copied.extend(r for r in left if not any(r is g for g in rows))
        return pivots, left

    monkeypatch.setattr(qlinalg, "_component_rank", spy)
    info = rank_info(m, mode, cleared)
    assert m.by_row == before
    assert copied  # elimination did change rows: they were copies
    assert q_entries - {1, -1}  # and the Q stage had pivots other than ±1
    dense = [[Fraction(before.get(i, {}).get(j, 0)) for j in range(m.cols)]
             for i in range(m.rows)]
    assert info.value == sympy.Matrix(dense).rank()


# -- the Q stage: fraction-free over Z ---------------------------------------


def prime_chain(n):
    """n×n with entry (i, j) a multiple of the (min(i, j) + 1)-th prime and
    no entry ±1: every row goes to the Q stage, whose pivots are all
    multiples of 2, 3, 5, ..."""
    primes = [2, 3, 5, 7, 11, 13, 17, 19][:n]
    return [[primes[min(i, j)] * (1 + i * j % 3) for j in range(n)]
            for i in range(n)]


NON_UNIT = {
    "chain-4": prime_chain(4),
    "chain-8": prime_chain(8),
    # row 5 is 2·row 0 + 3·row 1
    "chain-dependent": prime_chain(5) + [[2 * a + 3 * b for a, b in
                                          zip(*prime_chain(5)[:2])]],
    "chain-over-7": [[Fraction(v, 7 if (i + j) % 2 else 3) for j, v in
                      enumerate(row)] for i, row in enumerate(prime_chain(6))],
    "mixed": [[Fraction(2, 3), 4, 6, 0], [3, Fraction(5, 2), 0, 10],
              [0, 6, Fraction(10, 9), 15], [4, 0, 20, Fraction(35, 4)]],
}


@pytest.mark.parametrize("name", sorted(NON_UNIT))
def test_non_unit_pivot_chains_match_sympy(name):
    dense = [[Fraction(v) for v in row] for row in NON_UNIT[name]]
    m = SparseMatrix.from_dense(dense)
    info = rank_info(m, MODULAR)
    assert info.value == rank_info(m).value == sympy.Matrix(dense).rank()
    assert info.per_prime == tuple((p, dense_rank_mod(dense, p))
                                   for p in MODULAR.primes)


NON_UNIT_ENTRIES = [2, -2, 3, 4, -5, 6, 9, -10, 15, 35, P1, 2 * P2]
NON_UNIT_FRACTIONS = [Fraction(2, 3), Fraction(-5, 7), Fraction(3, 2),
                      Fraction(10, 9), Fraction(4, P1), Fraction(6, 35)]


@st.composite
def non_unit_matrices(draw, values):
    rows = draw(st.integers(1, 7))
    cols = draw(st.integers(1, 7))
    cells = draw(st.dictionaries(
        st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1)),
        st.sampled_from(values), max_size=rows * cols))
    return [[Fraction(cells.get((i, j), 0)) for j in range(cols)]
            for i in range(rows)]


@given(st.one_of(non_unit_matrices(NON_UNIT_ENTRIES),
                 non_unit_matrices(NON_UNIT_ENTRIES + NON_UNIT_FRACTIONS)))
@settings(max_examples=200, deadline=None)
def test_ranks_without_a_unit_entry_match_sympy(dense):
    m = SparseMatrix.from_dense(dense)
    dens = [v.denominator for row in dense for v in row]
    failed = tuple(p for p in MODULAR.primes if any(d % p == 0 for d in dens))
    info = rank_info(m, MODULAR)
    assert info.value == rank_info(m).value == sympy.Matrix(dense).rank()
    assert info.failed_primes == failed
    assert info.per_prime == tuple((p, dense_rank_mod(dense, p))
                                   for p in MODULAR.primes if p not in failed)


def test_every_row_the_q_stage_writes_is_primitive(monkeypatch):
    # the Q stage copies a row before it first writes it; make the copies
    # ones we can watch, and look at all of them whenever a row is pushed
    # back on the heap, that is, once each row's update is done
    written, pushed, q_stage = [], [], []

    class Row(dict):
        def __init__(self, *args):
            super().__init__(*args)
            written.append(self)

    def heappush(heap, item):
        if q_stage:
            for r in written:
                if r and not any(isinstance(v, dict) for v in r.values()):
                    assert {type(v) for v in r.values()} == {int}, r
                    assert math.gcd(*r.values()) == 1, r
            pushed.append(item)
        heapq.heappush(heap, item)

    component_rank = qlinalg._component_rank

    def spy(rows, p, units=False):
        q_stage[:] = [True] if not (p or units) else []
        written.clear()
        try:
            return component_rank(rows, p, units)
        finally:
            q_stage.clear()

    monkeypatch.setattr(qlinalg, "dict", Row, raising=False)
    monkeypatch.setattr(qlinalg, "heapq", SimpleNamespace(
        heappush=heappush, heappop=heapq.heappop, heapify=heapq.heapify))
    monkeypatch.setattr(qlinalg, "_component_rank", spy)
    for name, dense in sorted(NON_UNIT.items()):
        pushed.clear()
        m = SparseMatrix.from_dense(dense)
        assert rank_info(m, MODULAR).value == sympy.Matrix(dense).rank()
        assert pushed, name  # the Q stage did rewrite rows


def test_the_field_stages_see_ints_and_a_prime_in_a_denominator_fails(
        monkeypatch):
    # no entry is ±1, so both rows are residue; their denominators 3·P1 and
    # 7 are scaled away before the Q and GF(p) stages
    m = SparseMatrix.from_dense([[Fraction(2, 3 * P1), 4, Fraction(6, 7)],
                                 [6, Fraction(10, 7), 4]])
    seen = []
    component_rank = qlinalg._component_rank

    def spy(rows, p, units=False):
        if not units:
            seen.append(p)
            assert {type(v) for r in rows for v in r.values()} == {int}
        return component_rank(rows, p, units)

    monkeypatch.setattr(qlinalg, "_component_rank", spy)
    info = rank_info(m, MODULAR)
    assert sorted(seen) == [0, P2]
    assert info.failed_primes == (P1,)
    assert info.per_prime == ((P2, 2),)
    assert info.value == 2


# -- the Kronecker product ------------------------------------------------


def kron_by_definition(a: SparseMatrix, b: SparseMatrix) -> SparseMatrix:
    """a ⊗ b entry by entry over the dense index ranges: (i·r + k, j·c + l)
    holds a[i, j]·b[k, l] for b r×c, through the checking constructor."""
    r, c = b.rows, b.cols
    at_a, at_b = entries(a), entries(b)
    ent = {}
    for i in range(a.rows):
        for j in range(a.cols):
            for k in range(r):
                for l in range(c):
                    ent[(i * r + k, j * c + l)] = (at_a.get((i, j), 0)
                                                   * at_b.get((k, l), 0))
    return SparseMatrix(a.rows * r, a.cols * c, ent)


def assert_kron_matches_definition(a, b):
    got = a.kron(b)
    want = kron_by_definition(a, b)
    assert (got.rows, got.cols) == (want.rows, want.cols)
    assert got == want
    assert {k: type(v) for k, v in got.items()} == \
        {k: type(v) for k, v in want.items()}


KRON_CASES = {
    "ints": ([[1, 2], [0, -3]], [[0, 5, 1], [4, 0, -1]]),
    "fractions-to-ints": ([[Fraction(2, 3), Fraction(1, 2)]],
                          [[Fraction(3, 2)], [Fraction(4, 1)]]),
    "mixed": ([[Fraction(1, 3), 2], [3, 0]], [[Fraction(3, 7), 6]]),
    "column-row": ([[1], [Fraction(1, 2)], [-2]], [[2, 0, Fraction(1, 5)]]),
    "row-column": ([[2, 0, Fraction(1, 5)]], [[1], [Fraction(1, 2)], [-2]]),
}


@pytest.mark.parametrize("name", sorted(KRON_CASES))
def test_kron_matches_the_dense_definition(name):
    a, b = (SparseMatrix.from_dense(m) for m in KRON_CASES[name])
    assert_kron_matches_definition(a, b)
    assert_kron_matches_definition(b, a)


def test_kron_stores_integral_fraction_products_as_ints():
    a = SparseMatrix.from_dense([[Fraction(2, 3), Fraction(1, 2)]])
    b = SparseMatrix.from_dense([[Fraction(3, 2)], [Fraction(4, 1)]])
    p = a.kron(b)
    assert entries(p) == {(0, 0): 1, (1, 0): Fraction(8, 3),
                          (0, 1): Fraction(3, 4), (1, 1): 2}
    assert type(entries(p)[(0, 0)]) is int and type(entries(p)[(1, 1)]) is int


@pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
def test_kron_with_an_empty_factor(shape):
    empty = SparseMatrix(*shape)
    m = SparseMatrix.from_dense([[1, Fraction(1, 2)], [0, 4]])
    rows, cols = 2 * shape[0], 2 * shape[1]
    assert empty.kron(m) == m.kron(empty) == SparseMatrix(rows, cols)
    assert_kron_matches_definition(empty, m)
    assert_kron_matches_definition(m, empty)


def test_kron_of_identities_is_the_identity():
    assert SparseMatrix.identity(3).kron(SparseMatrix.identity(4)) == \
        SparseMatrix.identity(12)
    assert SparseMatrix.identity(1).kron(SparseMatrix.identity(5)) == \
        SparseMatrix.identity(5)


@given(small_matrices(), small_matrices(), small_matrices())
@settings(max_examples=30, deadline=None)
def test_kron_is_associative(a, b, c):
    assert a.kron(b).kron(c) == a.kron(b.kron(c))
    assert_kron_matches_definition(a, b)


# The exact bases live in hhwb.bases; qlinalg reads out, under their old
# names, the four that the bench tracer wraps, and nothing else of it.
TRACED_BASES = ["solve", "kernel_basis", "column_space_basis",
                "projector_invariant_dim"]


@pytest.mark.parametrize("name", TRACED_BASES)
def test_qlinalg_reads_a_traced_basis_function_from_bases(name):
    assert getattr(qlinalg, name) is getattr(bases, name)
    assert name not in vars(qlinalg)  # one definition, not a copy


@pytest.mark.parametrize("name", ["rref", "solver", "tagged_reduction",
                                  "reduce_row", "add_pivot", "no_such_name"])
def test_qlinalg_has_no_other_basis_function(name):
    with pytest.raises(AttributeError, match=name):
        getattr(qlinalg, name)

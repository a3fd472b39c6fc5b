"""total_differential against a brute-force oracle, and the checks that
must still hold now that level matrices skip the validating constructor
and a whole-level block is its level's d2 itself."""

import random
from fractions import Fraction

import pytest

from hhwb.bases import rref, solve, solver
from hhwb.dgcore import (
    BasisInfo,
    DgCategory,
    Permutation,
    identity_functor,
    validate_category,
)
from hhwb.hochschild import build_complex, total_homology
from hhwb.qlinalg import SparseMatrix, StructuralError

from conftest import (
    dual_numbers,
    odd_dual,
    permuted,
    quiver_a2,
    square_zero_with_diff,
)
from oracles import degree_block, entries
from test_assembly import truncated_cube, two_cycle

SWAP = Permutation.from_cycles(2, [(1, 2)])


def oracle_block(sc, k) -> SparseMatrix:
    """The map from degree k to k+1 put together entry by entry from every
    d1[m] and d2[m], placed by oracles.degree_block."""
    col = {coord: j for j, coord in enumerate(degree_block(sc, k))}
    row = {coord: i for i, coord in enumerate(degree_block(sc, k + 1))}
    ent = {}
    for m in range(sc.max_level + 1):
        for d, below in ((sc.d1[m], m), (sc.d2[m], m - 1)):
            for (r, c), v in d.items():
                if (m, c) in col:
                    assert (below, r) in row  # d raises the degree by one
                    ent[row[below, r], col[m, c]] = v
    return SparseMatrix(len(row), len(col), ent)


def window(sc) -> range:
    """Every degree a block can hold, and one past each end."""
    spans = [sc.skeleton.window(m) for m in range(sc.max_level + 1)]
    return range(min(lo for lo, _ in spans) - 1, max(hi for _, hi in spans) + 2)


def square_zero(degree):
    """k ⊕ k·g with |g| = degree and g∘g = 0; for degree 2 some block holds
    as many chains as its first level without being that level."""
    return DgCategory(
        objects=["*"],
        basis={"1": BasisInfo("*", "*", 0), "g": BasisInfo("*", "*", degree)},
        units={"*": "1"}, compose={}, diff={}, name="g")


def graded_two_cycle():
    """a ⇄ b with |p| = 0, |q| = 1 and every product of non-units zero;
    normalized, level 4 is all of degree -2, but degree -1 holds levels 2
    and 3, so that block is not d2[4]'s row space."""
    return DgCategory(
        objects=["a", "b"],
        basis={"ea": BasisInfo("a", "a", 0), "eb": BasisInfo("b", "b", 0),
               "p": BasisInfo("a", "b", 0), "q": BasisInfo("b", "a", 1)},
        units={"a": "ea", "b": "eb"}, compose={}, diff={}, name="cycle")


CASES = {
    # |y| = 1: each level spans several degrees
    "E": (odd_dual, None, 4, True),
    "g in degree 2": (lambda: square_zero(2), None, 3, True),
    "graded two-cycle": (graded_two_cycle, None, 4, True),
    "E⊗E swap": (odd_dual, SWAP, 3, True),
    "T": (square_zero_with_diff, None, 4, True),
    "A2 full": (quiver_a2, None, 4, False),
    "two-cycle 1/2": (lambda: two_cycle(2), None, 4, True),
    "D": (dual_numbers, None, 5, True),
    "D⊗D swap": (dual_numbers, SWAP, 4, True),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_total_differential_matches_the_oracle(case):
    make, twist, max_level, normalized = CASES[case]
    c = make()
    assert validate_category(c) == []
    cat, functor = (permuted(c, twist.n, twist) if twist
                    else (c, identity_functor(c)))
    sc = build_complex(cat, functor, max_level, normalized)
    levels = [[(m, i) for i in range(len(sc.levels[m]))]
              for m in range(max_level + 1)]
    reused, whole = [], []
    for k in window(sc):
        d = sc.total_differential(k)
        assert d == oracle_block(sc, k), k
        m = sc.skeleton.whole(k)
        assert m == next((m for m, level in enumerate(levels)
                          if level and degree_block(sc, k) == level), None)
        if m is not None:
            whole.append(k)
        if m and sc.skeleton.whole(k + 1) == m - 1:
            assert d is sc.d2[m]
            reused.append(k)
    if case == "graded two-cycle":
        assert -2 in whole and -2 not in reused
    if case.startswith("D"):
        # level m is degree -m, so every block but degree 0's is reused
        assert reused == list(range(-max_level, 0))
        for k in reused:
            assert sc.total_differential(k) is sc.d2[-k]
    if case.startswith("E"):
        assert not reused


def scaled_T(scale):
    """T with d(u) = scale·v."""
    c = square_zero_with_diff()
    c.diff["u"] = {"v": Fraction(scale)}
    return c


@pytest.mark.parametrize("make,twist,fractional", [
    (lambda: truncated_cube(2), None, True),
    (lambda: truncated_cube(2), SWAP, True),
    (lambda: two_cycle(3), None, True),
    (lambda: scaled_T(Fraction(1, 2)), None, True),
    (lambda: scaled_T(Fraction(4, 2)), None, False),
], ids=["cube", "cube-swap", "two-cycle", "T-half", "T-two"])
def test_trusted_level_matrices_keep_the_entry_contract(make, twist,
                                                        fractional):
    c = make()
    assert validate_category(c) == []
    cat, functor = (permuted(c, twist.n, twist) if twist
                    else (c, identity_functor(c)))
    sc = build_complex(cat, functor, 3)
    fractions = 0
    for m in range(sc.max_level + 1):
        cols = len(sc.levels[m])
        for mtx, rows in ((sc.d1[m], cols),
                          (sc.d2[m], len(sc.levels[m - 1]) if m else 0)):
            assert (mtx.rows, mtx.cols) == (rows, cols)
            for (r, col), v in mtx.items():
                assert 0 <= r < rows and 0 <= col < cols
                assert v != 0
                assert type(v) is int or (type(v) is Fraction
                                          and v.denominator > 1)
                fractions += type(v) is Fraction
            assert mtx == SparseMatrix(mtx.rows, mtx.cols, entries(mtx))
    assert bool(fractions) == fractional


def test_level_sums_are_normalised_and_cancellations_dropped():
    """On k[x]/x^3 with x∘x = y/2, d2 sends x[x|x] to y[x] with 1/2 + 1/2
    (the face x∘x and the wrap face) and x[x] to y with 1/2 - 1/2."""
    c = truncated_cube(2)
    sc = build_complex(c, identity_functor(c), 3)

    def at(m):
        return {sc.chain_ids(m, i): i for i in range(len(sc.levels[m]))}

    v = entries(sc.d2[2])[at(1)[("y", "x")], at(2)[("x", "x", "x")]]
    assert type(v) is int and v == 1
    assert (at(0)[("y",)], at(1)[("x", "x")]) not in entries(sc.d2[1])
    assert sc.d2[1].is_zero()


def test_d_squared_check_still_runs_on_a_reused_level():
    c = dual_numbers()
    sc = build_complex(c, identity_functor(c), 4)
    d_out, d_in = sc.d2[2], sc.d2[3]
    assert d_out.mul(d_in).is_zero()
    # give level 3's d2 an entry on a chain that d2[2] moves
    r = next(iter(next(iter(d_out.by_row.values()))))
    assert 0 not in d_in.by_row.get(r, {})
    d_in.by_row.setdefault(r, {})[0] = 1
    assert not d_out.mul(d_in).is_zero()
    assert sc.total_differential(-2) is d_out
    assert sc.total_differential(-3) is d_in
    with pytest.raises(StructuralError, match="square to zero at degree -2"):
        total_homology(sc, [-2])


# -- solving against one reduction --------------------------------------------


def rref_solve(m: SparseMatrix, b: dict):
    """m x = b from the rref of the augmented rows [m | b]: None when b's
    column is a pivot, else the pivot rows' b entries, free variables 0."""
    rows = {}
    for (i, j), v in m.items():
        rows.setdefault(i, {})[j] = v
    for i, v in b.items():
        if v:
            rows.setdefault(i, {})[m.cols] = v
    pivots = rref(list(rows.values()))
    if m.cols in pivots:
        return None
    return {c: r[m.cols] for c, r in pivots.items() if r.get(m.cols)}


@pytest.mark.parametrize("seed", range(40))
def test_solver_matches_the_augmented_rref(seed):
    rng = random.Random(seed)
    n_rows, n_cols = rng.randint(1, 6), rng.randint(1, 6)
    values = [0, 0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 4)]
    cols = [[rng.choice(values) for _ in range(n_rows)]
            for _ in range(n_cols)]
    for j in range(1, n_cols):  # some columns repeat an earlier one, scaled
        if rng.random() < 0.3:
            s = rng.choice([1, -2, Fraction(1, 3)])
            cols[j] = [s * v for v in cols[rng.randrange(j)]]
    m = SparseMatrix.from_dense([[cols[j][i] for j in range(n_cols)]
                                 for i in range(n_rows)])
    solve_for = solver(m)
    for _ in range(5):
        x0 = {j: rng.choice(values) for j in range(n_cols)}
        consistent = m.apply({j: v for j, v in x0.items() if v})
        arbitrary = {i: rng.choice(values) for i in range(n_rows)}
        for b in (consistent, arbitrary):
            x = solve_for(b)
            assert x == rref_solve(m, b) == solve(m, b)
            if x is not None:
                assert m.apply(x) == {i: v for i, v in b.items() if v}

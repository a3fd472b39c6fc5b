"""Clearing: total_homology ranks d_j without the rows that the ±1 pivots
of d_(j+1) make redundant, when d_(j+1)·d_j = 0 was checked in the same
call.  Every dim and `agreed` must stay what ranking each differential on
its own gives."""

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from hhwb import qlinalg
from hhwb.cli import main
from hhwb.dgcore import Permutation
from hhwb.hochschild import build_complex, total_homology
from hhwb.qlinalg import EXACT, MODULAR, SparseMatrix, rank_info

from conftest import dual_numbers, permuted
from test_hochschild import periodic_resolution_dims

P1, P2 = MODULAR.primes
FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


class GivenComplex:
    """Given differentials {k: d_k} behind total_homology's complex
    interface; every degree is certified and a missing d_k is zero."""

    max_level = 0

    def __init__(self, dims: dict, diffs: dict):
        self.dims, self.diffs = dims, diffs

    def block_dim(self, k) -> int:
        return self.dims.get(k, 0)

    def total_differential(self, k) -> SparseMatrix:
        if k in self.diffs:
            return self.diffs[k]
        return SparseMatrix(self.block_dim(k + 1), self.block_dim(k))

    def certified(self, k) -> bool:
        return True


def rank_by_rank(cx, degrees, mode) -> dict:
    """(dim, agreed) per degree from one rank_info call on each whole
    differential, with no clearing."""
    info = {j: rank_info(cx.total_differential(j), mode)
            for k in degrees for j in (k, k - 1)}
    return {k: (cx.block_dim(k) - info[k].value - info[k - 1].value,
                info[k].agreed and info[k - 1].agreed)
            for k in degrees}


def reported(cx, degrees, mode) -> dict:
    return {k: (r.dim, r.agreed)
            for k, r in total_homology(cx, degrees, mode).degrees.items()}


# -- random integral complexes with known ranks -------------------------------

def elementary_ops(n: int):
    """Elementary integer n×n matrices, invertible over Z: add a multiple
    of one row to another, swap two rows, negate a row."""
    index = st.integers(0, n - 1)
    return st.one_of(
        st.tuples(st.just("add"), index, index,
                  st.sampled_from([-2, -1, 1, 2])),
        st.tuples(st.just("swap"), index, index),
        st.tuples(st.just("neg"), index))


def row_op(a: list, op) -> None:
    """a := E·a for the elementary matrix E of op, in place."""
    kind, i = op[0], op[1]
    if kind == "neg":
        a[i] = [-v for v in a[i]]
    elif kind == "swap":
        a[i], a[op[2]] = a[op[2]], a[i]
    elif i != op[2]:
        a[i] = [v + op[3] * w for v, w in zip(a[i], a[op[2]])]


def column_op_inverse(a: list, op) -> None:
    """a := a·E⁻¹ for the elementary matrix E of op, in place."""
    kind, i = op[0], op[1]
    for row in a:
        if kind == "neg":
            row[i] = -row[i]
        elif kind == "swap":
            row[i], row[op[2]] = row[op[2]], row[i]
        elif i != op[2]:
            row[op[2]] -= op[3] * row[i]


@st.composite
def split_complexes(draw):
    """(complex, free): a sum over degrees 0..top of free classes Z and of
    pieces Z -(c)-> Z from degree k to k+1, c in {±1, 2, 3}, with each
    degree's basis moved by a product U_k of random elementary integer
    matrices, so d_k = U_(k+1)·D_k·U_k⁻¹.  free[k] is the dimension of the
    homology in degree k, over Q and mod every prime above 3."""
    top = draw(st.integers(1, 4))
    free = {k: draw(st.integers(0, 2)) for k in range(top + 1)}
    pieces = {k: draw(st.lists(st.sampled_from([1, -1, 1, -1, 2, 3]),
                               max_size=3)) for k in range(top)}
    dims, sources, targets = {}, {}, {}
    for k in range(top + 1):
        out, into = len(pieces.get(k, ())), len(pieces.get(k - 1, ()))
        order = draw(st.permutations(range(out + into + free[k])))
        sources[k], targets[k] = order[:out], order[out:out + into]
        dims[k] = len(order)
    ops = {k: draw(st.lists(elementary_ops(n), max_size=12)) if n else []
           for k, n in dims.items()}
    diffs = {}
    for k in range(top):
        d = [[0] * dims[k] for _ in range(dims[k + 1])]
        for c, s, t in zip(pieces[k], sources[k], targets[k + 1]):
            d[t][s] = c
        for op in ops[k + 1]:
            row_op(d, op)
        for op in ops[k]:
            column_op_inverse(d, op)
        diffs[k] = SparseMatrix(dims[k + 1], dims[k],
                                {(i, j): v for i, row in enumerate(d)
                                 for j, v in enumerate(row) if v})
    return GivenComplex(dims, diffs), free


@given(split_complexes(), st.data())
@settings(max_examples=150, deadline=None)
def test_clearing_keeps_the_ranks_of_split_complexes(case, data):
    cx, free = case
    degrees = data.draw(st.lists(st.sampled_from(sorted(free)), min_size=1,
                                 unique=True))
    for mode in (EXACT, MODULAR):
        out = total_homology(cx, degrees, mode).degrees
        assert {k: r.dim for k, r in out.items()} == {k: free[k]
                                                      for k in degrees}
        assert all(r.agreed for r in out.values())


# -- what clearing must not do ----------------------------------------------


def test_an_unchecked_pair_is_not_cleared():
    # degrees 0 and 2 check d0·d(-1) and d2·d1, never d1·d0 = [1] ≠ 0, so
    # the ±1 pivot of d1 says nothing about the rows of d0
    one = SparseMatrix.from_dense([[1]])
    cx = GivenComplex({0: 1, 1: 1, 2: 1}, {0: one, 1: one})
    for mode in (EXACT, MODULAR):
        assert reported(cx, [0, 2], mode) == rank_by_rank(cx, [0, 2], mode)
        assert reported(cx, [0, 2], mode) == {0: (0, True), 2: (0, True)}


def test_pivots_that_are_not_units_clear_nothing():
    # d1·d0 = 0 with no ±1 entry in d1: each block (a b) of d1 meets the
    # column (b, -a) of d0.  A pivot of a residue stage at a or b would
    # leave d0 a row whose only entry is a modular prime, so the prime
    # would rank d0 short and `agreed` would read false; the ±1 stage has
    # no pivot, so no row goes
    pairs = [(-2, P2), (P2, -2), (-2, P1), (P1, -2)]
    d1, d0 = {}, {}
    for x, (a, b) in enumerate(pairs):
        d1[x, 2 * x], d1[x, 2 * x + 1] = a, b
        d0[2 * x, x], d0[2 * x + 1, x] = b, -a
    cx = GivenComplex({0: 4, 1: 8, 2: 4},
                      {0: SparseMatrix(8, 4, d0), 1: SparseMatrix(4, 8, d1)})
    assert reported(cx, [0, 1, 2], MODULAR) == \
        rank_by_rank(cx, [0, 1, 2], MODULAR)
    assert reported(cx, [0, 1, 2], MODULAR) == {0: (0, True), 1: (0, True),
                                            2: (0, True)}


def test_a_differential_with_a_denominator_clears_nothing():
    # d1 = (1  -1/P1) has the ±1 pivot 1, but its block's inverse holds
    # 1/P1: row 0 of d0 = (1, P1)ᵀ is (1/P1)·row 1, so without it d0
    # would vanish mod P1
    d1 = SparseMatrix.from_dense([[1, Fraction(-1, P1)]])
    d0 = SparseMatrix.from_dense([[1], [P1]])
    cx = GivenComplex({0: 1, 1: 2, 2: 1}, {0: d0, 1: d1})
    assert rank_info(d1, MODULAR).unit_pivots == ()
    assert reported(cx, [0, 1, 2], MODULAR) == \
        rank_by_rank(cx, [0, 1, 2], MODULAR)
    assert reported(cx, [0, 1, 2], MODULAR)[0] == (0, True)


def test_a_cleared_row_still_fails_its_prime():
    # only the cleared row holds the denominator P1.  In a complex a
    # cleared row is an integral combination of the kept ones, which would
    # hold P1 as well, so the case is put to rank_info directly: the
    # primes fail as on the whole matrix
    m = SparseMatrix.from_dense([[1, 1], [Fraction(1, P1), 0]])
    whole, cleared = rank_info(m, MODULAR), rank_info(m, MODULAR, {1})
    assert cleared.failed_primes == whole.failed_primes == (P1,)
    assert [p for p, _ in cleared.per_prime] == [p for p, _ in whole.per_prime] \
        == [P2]


# -- rank cost is a function of the matrix -----------------------------------


def refilled(m: SparseMatrix, seed: int) -> SparseMatrix:
    """m built again from its entries in a shuffled order, so that its rows,
    and the columns within each row, are filled in another order."""
    pairs = list(m.items())
    random.Random(seed).shuffle(pairs)
    return SparseMatrix(m.rows, m.cols, pairs)


@pytest.mark.parametrize("mode", [EXACT, MODULAR])
def test_rank_does_not_depend_on_the_fill_order(mode):
    # the differentials of D⊗D with the swap, as compute-modular has them
    swap = Permutation.from_cycles(2, [(1, 2)])
    sc = build_complex(*permuted(dual_numbers(), 2, swap), 4)
    for k in range(-4, 0):
        d = sc.total_differential(k)
        one, two = refilled(d, 2 * k), refilled(d, 2 * k + 1)
        assert list(one.by_row) != list(two.by_row)
        assert any(list(row) != list(two.by_row[i])
                   for i, row in one.by_row.items())
        info = rank_info(d, mode)
        assert info.unit_pivots
        assert rank_info(one, mode) == rank_info(two, mode) == info
        above = sc.total_differential(k + 1)
        cleared = set(rank_info(above, mode).unit_pivots)
        assert rank_info(one, mode, cleared) == rank_info(two, mode, cleared)


# -- clearing at work ---------------------------------------------------------


def test_the_top_differential_of_compute_modular_is_cleared(tmp_path,
                                                           monkeypatch):
    # D⊗D with the swap, N=6, -5..0: d(-6) has 972 rows; the 242 ±1 pivots
    # of d(-5) clear as many, and one more row is zero
    component_rows = qlinalg._component_rows
    built = {}

    def counting(m, skip=()):
        comps, dens = component_rows(m, skip)
        built[m.rows] = sum(len(c) for c in comps)
        return comps, dens

    monkeypatch.setattr(qlinalg, "_component_rows", counting)
    code = main(["compute", str(FIXTURES / "dual_numbers.json"),
                 "--max-level", "6", "--degrees=-5..0",
                 "--twist=perm:2:(1 2)", "--out", str(tmp_path / "r.json")])
    assert code == 0
    assert built[972] == 729


@pytest.mark.parametrize("mode", ["exact", "modular"])
@pytest.mark.parametrize("twist", ["identity", "perm:2:(1 2)"])
def test_cube_scaled_matches_the_periodic_resolution(capsys, monkeypatch,
                                                     twist, mode):
    # k[x]/x^3 with x·x = 2y: the residues left after clearing hold
    # entries other than ±1, so the field stages do real work
    component_rank = qlinalg._component_rank
    residue_entries = set()

    def recording(rows, p, units=False):
        if not units:  # mod p, as the residue of least absolute value
            residue_entries.update(v - p if p and v > p // 2 else v
                                   for r in rows for v in r.values())
        return component_rank(rows, p, units)

    monkeypatch.setattr(qlinalg, "_component_rank", recording)
    code = main(["compute", str(FIXTURES / "cube_scaled.json"),
                 "--max-level", "5", "--degrees=-4..0", "--mode", mode,
                 "--twist=" + twist])
    out = capsys.readouterr()
    assert code == 0, out.err
    results = json.loads(out.out)["results"]
    oracle = periodic_resolution_dims(3, 4)
    assert oracle == [3, 2, 2, 2, 2]
    assert [results[str(-n)]["dim"] for n in range(5)] == oracle
    assert all(r["agreed"] for r in results.values())
    assert residue_entries - {1, -1}

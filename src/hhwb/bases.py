"""Exact bases over Q: row echelon forms, kernels, column spaces, solving
and projector ranks.

Rows are sparse dicts {column: value} with no zero values, ints or
Fractions, as in qlinalg.  Kernels, column spaces and solving reduce rows
one at a time against a pivot dict over Q.  Ranks alone are taken by
qlinalg.rank_info.  The bases serve the homology representatives of
hochschild (read by the chain maps and Künneth) and the contraction
checks; neither compute nor decompose reads them, so no verb compiles
this module.
"""

from __future__ import annotations

from fractions import Fraction

from .qlinalg import SparseMatrix, StructuralError, _entry, rank


def _subtract(row: dict, f, piv: dict) -> None:
    """row -= f * piv in place, over Q; f = ±1 skips the multiplications."""
    if f == 1:
        items = piv.items()
    elif f == -1:
        items = [(c, -v) for c, v in piv.items()]
    else:
        items = [(c, f * v) for c, v in piv.items()]
    for c, v in items:
        s = row.get(c, 0) - v
        if s:
            row[c] = s
        else:
            del row[c]


def reduce_row(row: dict, pivots: dict) -> None:
    """Reduce `row` in place against an echelon pivot dict over Q.

    `pivots` maps a column to a row whose entry there is 1 and whose other
    entries lie in larger columns.  The leading entry is cancelled while its
    column has a pivot, so on return `row` is zero or leads with a column
    that has none.
    """
    while row:
        lead = min(row)
        piv = pivots.get(lead)
        if piv is None:
            return
        _subtract(row, row[lead], piv)


def add_pivot(row: dict, pivots: dict) -> int:
    """Make a reduced nonzero row, scaled to 1 at its leading column, that
    column's pivot and return the column.  `row` itself may be stored."""
    lead = min(row)
    x = row[lead]
    if x == -1:
        row = {c: -v for c, v in row.items()}
    elif x != 1:
        x = Fraction(x)
        row = {c: v / x for c, v in row.items()}
    pivots[lead] = row
    return lead


def rref(rows) -> dict:
    """Reduced row echelon form over Q of some sparse rows.

    Returns {pivot column: row}: each row is 1 at its pivot column, which is
    its least column, and every other row is zero there.  The row space
    determines the result, so the rows may be taken in any order; taking the
    sparsest first keeps fill-in down.
    """
    pivots = {}
    for row in sorted(rows, key=len):
        r = dict(row)
        reduce_row(r, pivots)
        if r:
            add_pivot(r, pivots)
    # back-substitute, last pivot first, so no row touches another's pivot
    for lead in sorted(pivots, reverse=True):
        row = pivots[lead]
        for other in [c for c in row if c != lead and c in pivots]:
            _subtract(row, row[other], pivots[other])
    return pivots


def kernel_basis(m: SparseMatrix) -> list[dict]:
    """Exact kernel basis as sparse column vectors {row index: value}."""
    pivots = rref(m.by_row.values())
    order = sorted(pivots)
    basis = []
    for free in range(m.cols):
        if free in pivots:
            continue
        vec = {free: 1}
        for pcol in order:
            if v := pivots[pcol].get(free):
                vec[pcol] = -v
        basis.append(vec)
    return basis


def column_space_basis(m: SparseMatrix) -> list[dict]:
    """An exact basis of the column space, as sparse column vectors."""
    pivots = rref(m.transpose().by_row.values())
    return [pivots[c] for c in sorted(pivots)]


def projector_invariant_dim(p: SparseMatrix) -> int:
    """Rank of an idempotent, checked to be one and to equal its trace."""
    if p.rows != p.cols:
        raise StructuralError("projector must be square")
    if p.mul(p) != p:
        raise StructuralError("matrix is not idempotent")
    r = rank(p)
    tr = p.trace()
    if tr != r:
        raise StructuralError(f"idempotent rank {r} != trace {tr}")
    return r


def tagged_reduction(vectors, tag: int):
    """(kept, coordinates) from one reduction of `vectors`, sparse dicts
    over coordinates below `tag`: vector j, tagged at tag + j with the
    combination of vectors it is, is reduced against those before it and
    kept, in `kept`, when it is independent of them.  coordinates(b) is
    {j: x_j} with b = Σ x_j·vectors[j] over kept j, or None when b is not
    in their span; one reduction serves every b."""
    pivots, kept = {}, []
    for j, v in enumerate(vectors):
        r = dict(v)
        r[tag + j] = 1
        reduce_row(r, pivots)
        if min(r) < tag:
            add_pivot(r, pivots)
            kept.append(j)

    def coordinates(b: dict):
        r = {i: v for i, v in b.items() if v}
        reduce_row(r, pivots)
        if r and min(r) < tag:
            return None  # b is not in the span
        return {c - tag: -v for c, v in r.items()}

    return kept, coordinates


def solver(m: SparseMatrix):
    """b -> solve(m, b) for many b at the cost of one reduction of the
    columns of m (tagged_reduction); a column in the span of earlier ones
    is dropped, so x is zero there, as rref puts it."""
    cols = m.transpose().by_row
    tag = m.rows
    _, coordinates = tagged_reduction(
        (cols.get(j, {}) for j in range(m.cols)), tag)
    return lambda b: coordinates(
        {i: _entry(v) for i, v in b.items() if v and 0 <= i < tag})


def solve(m: SparseMatrix, b: dict):
    """One exact solution x of m x = b, or None if inconsistent; b is a
    sparse column vector {row: int or Fraction} and free variables are 0."""
    return solver(m)(b)

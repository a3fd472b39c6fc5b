"""Exact rational and multi-modular sparse linear algebra.

A matrix is stored by row, {row: {col: value}}, so products, rank and
the callers' checks read its rows as they are.  An entry is an `int` where
it is integral and a `fractions.Fraction` where it is not; never a float,
and nothing divides.  Rank splits the rows into connected components and
eliminates each in two stages, first taking every entry alone in its
column, then Markowitz-style pivots.  The first stage, shared by every
field, pivots only on entries ±1, units over Z and mod every prime, so it
commutes with reduction mod a prime dividing no denominator.  Each row
left, the residue, is scaled once by the lcm of its denominators, and the
residue is then always ranked over Q, fraction-free on ints, which gives
the rank in every mode; MODULAR also ranks it mod each of the two fixed
PRIMES dividing no denominator as a cross-check (a rank mod p is at most
the rank r over Q, and less only when p divides every r×r minor, so a
short prime is reported, never used).  One elimination loop serves Q and
GF(p).  Rank reads the matrix's own rows and never writes to them:
elimination copies a row the first time it changes it.
The first stage's pivot columns are returned too: on an integral d_(k+1)
with d_(k+1)·d_k = 0 they name rows of d_k that an integral combination
of its other rows gives, which hochschild.total_homology leaves out of
the rank of d_k (clearing).
Kernels, column spaces, solving and the other exact bases are in
hhwb.bases, which no verb loads.
"""

from __future__ import annotations

import heapq
from collections import namedtuple
from math import gcd, lcm

# First two primes above 2^20: the modular cross-check.
PRIMES = (1048583, 1048589)


class StructuralError(ValueError):
    """Shape, composability or idempotency violations."""


# kind is "exact" or "modular"; primes are those that cross-check the ranks
RankMode = namedtuple("RankMode", "kind primes")
EXACT = RankMode("exact", ())
MODULAR = RankMode("modular", PRIMES)


def _entry(v):
    """v as a matrix entry: an int when it is integral, else a Fraction."""
    if isinstance(v, int) and not isinstance(v, bool):
        return int(v)
    from fractions import Fraction  # loaded already if v is one
    if isinstance(v, Fraction):
        return v.numerator if v.denominator == 1 else v
    raise StructuralError(f"matrix entry {v!r} is neither an int nor a Fraction")


def normalise_rows(rows: dict) -> dict:
    """rows {row: {col: value}} with integral Fractions made ints and
    zeros and empty rows dropped, in place."""
    empty = []
    for i, row in rows.items():
        for j, v in row.items():
            if type(v) is not int and v.denominator == 1:
                row[j] = v.numerator
        if 0 in row.values():
            row = rows[i] = {j: v for j, v in row.items() if v}
        if not row:
            empty.append(i)
    for i in empty:
        del rows[i]
    return rows


class SparseMatrix:
    """Immutable-by-convention sparse matrix over Q, stored by row.

    `by_row` is {row: {col: value}} with no zero value and no empty row; a
    value is an int where it is integral, else a Fraction; never a float.
    The constructor takes ((row, col), value) pairs, or a dict of them,
    normalises an integral Fraction to its numerator and rejects any other
    type; items() yields the pairs back.
    """

    __slots__ = ("rows", "cols", "by_row")

    def __init__(self, rows: int, cols: int, entries=None):
        if rows < 0 or cols < 0:
            raise StructuralError("negative dimensions")
        self.rows = rows
        self.cols = cols
        self.by_row = data = {}
        if entries:
            for (i, j), v in (entries.items() if isinstance(entries, dict) else entries):
                if not (0 <= i < rows and 0 <= j < cols):
                    raise StructuralError(f"entry ({i},{j}) out of range {rows}x{cols}")
                if type(v) is not int:
                    v = _entry(v)
                if v:
                    row = data.setdefault(i, {})
                    if j in row:
                        raise StructuralError(f"duplicate entry at ({i},{j})")
                    row[j] = v

    @classmethod
    def trusted(cls, rows: int, cols: int, by_row: dict) -> "SparseMatrix":
        """A matrix on `by_row` as given, kept, not copied, without the
        constructor's checks: for internal producers of rows that already
        keep the contract above, in range."""
        m = object.__new__(cls)
        m.rows = rows
        m.cols = cols
        m.by_row = by_row
        return m

    @classmethod
    def from_dense(cls, rows_list):
        rows = len(rows_list)
        cols = len(rows_list[0]) if rows else 0
        # zeros too, so that a zero of the wrong type is rejected as well
        return cls(rows, cols, [((i, j), v) for i, row in enumerate(rows_list)
                                for j, v in enumerate(row)])

    @classmethod
    def identity(cls, n):
        return cls.trusted(n, n, {i: {i: 1} for i in range(n)})

    def items(self):
        """((row, col), value) for each nonzero entry, row by row."""
        return (((i, j), v) for i, row in self.by_row.items()
                for j, v in row.items())

    def nnz(self) -> int:
        return sum(map(len, self.by_row.values()))

    def is_zero(self) -> bool:
        return not self.by_row

    def transpose(self) -> "SparseMatrix":
        out = {}
        for i, row in self.by_row.items():
            for j, v in row.items():
                col = out.get(j)
                if col is None:
                    out[j] = {i: v}
                else:
                    col[i] = v
        return SparseMatrix.trusted(self.cols, self.rows, out)

    def scale(self, c) -> "SparseMatrix":
        c = _entry(c)
        if not c:
            return SparseMatrix(self.rows, self.cols)
        return SparseMatrix.trusted(self.rows, self.cols, normalise_rows(
            {i: {j: c * v for j, v in row.items()}
             for i, row in self.by_row.items()}))

    def add(self, other: "SparseMatrix") -> "SparseMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise StructuralError("shape mismatch in add")
        out = {i: dict(row) for i, row in self.by_row.items()}
        for i, row in other.by_row.items():
            acc = out.setdefault(i, {})
            for j, v in row.items():
                acc[j] = acc.get(j, 0) + v
        return SparseMatrix.trusted(self.rows, self.cols, normalise_rows(out))

    def sub(self, other: "SparseMatrix") -> "SparseMatrix":
        return self.add(other.scale(-1))

    def mul(self, other: "SparseMatrix") -> "SparseMatrix":
        if self.cols != other.rows:
            raise StructuralError("shape mismatch in mul")
        right = other.by_row
        out = {}
        for i, row in self.by_row.items():
            acc = {}  # row i of the product, without the sums that cancel
            for k, v in row.items():
                for j, w in right.get(k, {}).items():
                    if s := acc.get(j, 0) + v * w:
                        acc[j] = s
                    else:
                        del acc[j]
            if acc:
                out[i] = acc
        return SparseMatrix.trusted(self.rows, other.cols, normalise_rows(out))

    def kron(self, other: "SparseMatrix") -> "SparseMatrix":
        """The Kronecker product self ⊗ other: for other r×c, entry
        (i·r + k, j·c + l) is self[i, j]·other[k, l], the index order of a
        tensor product whose second factor varies fastest."""
        r, c = other.rows, other.cols
        right = other.by_row.items()
        out = {}
        for i, row in self.by_row.items():
            for k, rk in right:
                out[i * r + k] = {j * c + l: v * w for j, v in row.items()
                                  for l, w in rk.items()}
        return SparseMatrix.trusted(self.rows * r, self.cols * c,
                                    normalise_rows(out))

    def apply(self, vec: dict) -> dict:
        """Matrix times a sparse column vector {index: int or Fraction}."""
        out = {}
        for i, row in self.by_row.items():
            if s := sum(v * vec[j] for j, v in row.items() if j in vec):
                out[i] = s
        return out

    def trace(self):
        if self.rows != self.cols:
            raise StructuralError("trace of non-square matrix")
        return sum(row.get(i, 0) for i, row in self.by_row.items())

    def __eq__(self, other):
        return (isinstance(other, SparseMatrix)
                and self.rows == other.rows and self.cols == other.cols
                and self.by_row == other.by_row)

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(sorted(self.items()))))

    def __repr__(self):
        return f"SparseMatrix({self.rows}x{self.cols}, nnz={self.nnz()})"


# -- the elimination kernel -------------------------------------------------
#
# Rows are sparse dicts {column: value} with no zero values: ints or
# Fractions in the ±1 stage, ints in the Q stage, and, for rank mod a
# prime p, plain ints in [0, p).


def _component_rows(m: SparseMatrix, skip=()) -> tuple[list, set]:
    """(components, denominators): m's own rows but those in `skip`, in
    index order, grouped by connected component of the graph joining each
    row to its columns, least row first (rank is the sum of the components'
    ranks); and the denominators of m's entries that are not ints, taken
    in the same pass, from skipped rows too."""
    by_row = m.by_row
    comp = [None] * m.rows  # row -> the list of rows of its component, shared
    owner = [-1] * m.cols   # column -> the first row seen with an entry there
    dens = set()
    order = []
    for i in sorted(by_row):
        row = by_row[i]
        if i in skip:
            dens.update(v.denominator for v in row.values()
                        if type(v) is not int)
            continue
        order.append(i)
        ci = comp[i] = [i]
        for j, v in row.items():
            if type(v) is not int:
                dens.add(v.denominator)
            o = owner[j]
            if o < 0:
                owner[j] = i
            elif (co := comp[o]) is not ci:
                # merge the smaller component into the larger
                if len(co) < len(ci):
                    co, ci = ci, co
                co += ci
                for x in ci:
                    comp[x] = co
                ci = co
    groups = []
    for i in order:
        c = comp[i]
        if c:  # i is the least row of a component not handed out yet
            c.sort()
            groups.append([by_row[x] for x in c])
            c.clear()  # every row of the component shares this list
    return groups, dens


def _component_rank(rows, p: int, units: bool = False) -> tuple[list, list]:
    """(pivot columns, rows left) of a sparse elimination over Q (p == 0)
    or GF(p) of a list of nonzero rows, which it reads and never writes:
    a row is copied the first time elimination changes it.

    First every entry alone in its column is a pivot, least column first,
    again and again as taking them empties columns.  Then each pivot is
    the sparsest row left, at its column shared with the fewest rows.  A
    column -> rows index, kept up to date, finds the rows to eliminate; a
    heap of (length, row) the sparsest row.  With `units` a pivot entry
    must be ±1 and the rows that never get one are left, reduced against
    every pivot; the rows may hold Fractions.  Without `units`, over Q,
    the rows must be ints: a pivot pv other than ±1 makes a row r into
    pv·r − r[pc]·piv, and every row changed is divided by the gcd of its
    entries, so nothing divides and no row carries a common factor from
    one pivot to the next.  Ties go to the least index, so the pivots do
    not depend on the order in which the rows were filled.
    """
    given = rows
    rows = dict(enumerate(given))
    col_rows = {}
    for i, r in rows.items():
        for c in r:
            hits = col_rows.get(c)
            if hits is None:
                col_rows[c] = {i}
            else:
                hits.add(i)
    pivots = []
    # lone columns, least first: those lone from the start read in order
    # from their sorted list, those that become lone from a heap
    lone = sorted([c for c, hits in col_rows.items() if len(hits) == 1])
    later = []
    at, end = 0, len(lone)
    while True:
        if later and (at == end or later[0] < lone[at]):
            pc = heapq.heappop(later)
        elif at < end:
            pc = lone[at]
            at += 1
        else:
            break
        if len(col_rows[pc]) != 1:
            continue  # its row was taken at another column
        (i,) = col_rows[pc]
        piv = rows[i]
        if units and piv[pc] != 1 and piv[pc] != -1:
            continue
        del rows[i]
        pivots.append(pc)
        for c in piv:
            hits = col_rows[c]
            hits.discard(i)
            if len(hits) == 1:
                heapq.heappush(later, c)
    heap = [(len(r), i) for i, r in rows.items()]
    heapq.heapify(heap)
    while heap:
        n, i = heapq.heappop(heap)
        piv = rows.get(i)
        if piv is None or len(piv) != n:
            continue  # stale entry: the row changed or was used
        pc = None  # fewest rows (counting row i), then the smaller column
        for c, v in piv.items():
            if units and v != 1 and v != -1:
                continue
            k = len(col_rows[c])
            if pc is None or k < least or k == least and c < pc:
                pc, least = c, k
        if pc is None:
            continue  # no unit yet
        del rows[i]
        for c in piv:
            col_rows[c].discard(i)
        pivots.append(pc)
        hits = col_rows.pop(pc)
        if not hits:
            continue
        pv = piv[pc]
        # over Q a unit pivot is its own inverse, and any other pivot
        # scales the rows it eliminates from instead of dividing them
        scale = not p and pv != 1 and pv != -1
        inv = pow(pv, -1, p) if p else 1 if scale else pv
        items = [(c, v) for c, v in piv.items() if c != pc]
        for j in hits:
            r = rows[j]
            if r is given[j]:  # its first change: copy it
                r = rows[j] = dict(r)
            f = -r.pop(pc) * inv
            if p:
                f %= p
            elif scale:
                for c in r:
                    r[c] *= pv
            for c, v in items:
                old = r.get(c)
                if old is None:  # f·v is nonzero, over Q and mod p
                    r[c] = f * v % p if p else f * v
                    col_rows[c].add(j)
                elif s := (old + f * v) % p if p else old + f * v:
                    r[c] = s
                else:
                    del r[c]
                    col_rows[c].discard(j)
            if not r:
                del rows[j]
                continue
            if not (p or units) and (g := gcd(*r.values())) != 1:
                for c in r:
                    r[c] //= g
            heapq.heappush(heap, (len(r), j))
    return pivots, list(rows.values())


def _integral(row: dict) -> dict:
    """row, times the lcm of its entries' denominators if it holds any: a
    row of ints, of the same rank over Q and mod every prime dividing no
    denominator."""
    dens = [v.denominator for v in row.values() if type(v) is not int]
    if not dens:
        return row
    m = lcm(*dens)
    return {j: v * m if type(v) is int else v.numerator * (m // v.denominator)
            for j, v in row.items()}


def _rows_mod_p(rows, p: int) -> list:
    """The rows of ints reduced mod p, dropping the entries and rows that
    vanish."""
    out = []
    for row in rows:
        red = {}
        for j, v in row.items():
            if r := v % p:
                red[j] = r
        if red:
            out.append(red)
    return out


class RankResult(namedtuple("RankResult",
                            "value mode per_prime failed_primes unit_pivots",
                            defaults=((), (), ()))):
    """A rank over Q, the RankMode it was taken in (EXACT or MODULAR), the
    (prime, rank) pairs of MODULAR's cross-check on PRIMES, the primes that
    divide a denominator and so check nothing, and, for a matrix of ints,
    the columns of the pivots of the ±1 stage shared by every field."""

    __slots__ = ()

    @property
    def agreed(self) -> bool:
        """Every cross-checking prime gave `value`."""
        return all(r == self.value for _, r in self.per_prime)


def rank_info(m: SparseMatrix, mode: RankMode = EXACT,
              cleared=()) -> RankResult:
    """Rank of m over Q in every mode.  MODULAR also ranks m mod each of
    its primes that divides no denominator of m; `per_prime`,
    `failed_primes` and `agreed` report what the primes gave, and never
    change `value`.  The rows in `cleared` are never eliminated: the
    caller vouches that each is an integral combination of the others,
    so no rank changes, over Q or mod any prime; the primes still fail on
    their denominators.  When m has int entries alone, `unit_pivots` are
    the columns of the ±1 stage's pivots: its multipliers are then ints
    too, so the block of m at those pivots has determinant ±1 over Z."""
    comps, dens = _component_rows(m, cleared)
    failed = tuple(p for p in mode.primes if any(d % p == 0 for d in dens))
    # per component, so that one column index is alive at a time
    shared, residues = [], []
    for comp in comps:
        pivots, left = _component_rank(comp, 0, units=True)
        shared += pivots
        if left:
            if dens:  # a prime dividing an lcm here is in `failed`
                left = [_integral(r) for r in left]
            residues.append(left)
    per_prime = tuple(
        (p, len(shared) + sum(len(_component_rank(_rows_mod_p(s, p), p)[0])
                              for s in residues))
        for p in mode.primes if p not in failed)
    value = len(shared) + sum(len(_component_rank(s, 0)[0]) for s in residues)
    return RankResult(value, mode, per_prime, failed, () if dens else shared)


def rank(m: SparseMatrix) -> int:
    return rank_info(m).value


# The exact bases live in .bases, which no verb imports; the four that
# the bench tracer wraps are read here under their old names, loading it
# on first use.
_BASES = ("solve", "kernel_basis", "column_space_basis",
          "projector_invariant_dim")


def __getattr__(name):
    if name in _BASES:
        from . import bases
        return getattr(bases, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

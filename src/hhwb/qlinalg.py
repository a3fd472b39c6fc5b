"""Exact rational and multi-modular sparse linear algebra.

A matrix entry is an `int` where it is integral and a `fractions.Fraction`
where it is not; never a float, and every division has a Fraction
operand.  Rank splits the rows into connected components and eliminates
each in two stages, first taking every entry alone in its column, which
needs no elimination, then Markowitz-style pivots.  The first stage,
shared by every field, pivots only on entries ±1, units over Z and mod
every prime, so it commutes with reduction mod a prime dividing no
denominator.  Each field then ranks the rows left, the residue: GF(p) on
plain ints in modular mode, Q in exact mode or when the primes disagree
or one divides a denominator (a rank mod p is at most the rank over Q,
and equal for all but finitely many p).  The first stage's pivot columns
are returned too: on an integral d_(k+1) with d_(k+1)·d_k = 0 they name
rows of d_k that an integral combination of its other rows gives, which
hochschild.total_homology then leaves out of the rank of d_k (clearing).
Kernels, column spaces and solving reduce rows one at a time against a
pivot dict over Q.
"""

from __future__ import annotations

import heapq
from collections import namedtuple
from fractions import Fraction

# First two primes above 2^20.
DEFAULT_PRIMES = (1048583, 1048589)


class StructuralError(ValueError):
    """Shape, composability or idempotency violations."""


class RankMode(namedtuple("RankMode", "kind primes")):
    """kind is "exact" or "modular"; primes are those of a modular mode."""

    __slots__ = ()

    def __new__(cls, kind="exact", primes=()):
        if kind not in ("exact", "modular"):
            raise StructuralError(f"unknown rank mode {kind!r}")
        if kind == "modular":
            if not primes:
                raise StructuralError("modular mode needs a non-empty prime list")
            if len(set(primes)) != len(primes):
                raise StructuralError("modular primes must be distinct")
            for p in primes:
                if p <= 1 << 20:
                    raise StructuralError(f"modular prime {p} must exceed 2^20")
        return super().__new__(cls, kind, primes)

    @staticmethod
    def exact() -> "RankMode":
        return RankMode("exact")

    @staticmethod
    def modular(primes=DEFAULT_PRIMES) -> "RankMode":
        return RankMode("modular", tuple(primes))


EXACT = RankMode.exact()


def _entry(v):
    """v as a matrix entry: an int when it is integral, else a Fraction."""
    if isinstance(v, Fraction):
        return v.numerator if v.denominator == 1 else v
    if isinstance(v, int):
        return int(v)
    raise StructuralError(f"matrix entry {v!r} is neither an int nor a Fraction")


def normalise_entries(ent: dict) -> dict:
    """ent with each integral Fraction replaced by its numerator and each
    zero dropped, in place."""
    zeros = []
    for key, v in ent.items():
        if type(v) is not int and v.denominator == 1:
            v = ent[key] = v.numerator
        if not v:
            zeros.append(key)
    for key in zeros:
        del ent[key]
    return ent


class SparseMatrix:
    """Immutable-by-convention sparse matrix over Q.

    Entries are a dict {(row, col): value} with no explicit zeros; a value
    is an int where it is integral, else a Fraction; never a float.  The
    constructor normalises an integral Fraction to its numerator and
    rejects any other type.
    """

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries=None):
        if rows < 0 or cols < 0:
            raise StructuralError("negative dimensions")
        self.rows = rows
        self.cols = cols
        ent = {}
        if entries:
            for (i, j), v in (entries.items() if isinstance(entries, dict) else entries):
                if not (0 <= i < rows and 0 <= j < cols):
                    raise StructuralError(f"entry ({i},{j}) out of range {rows}x{cols}")
                if type(v) is not int:
                    v = _entry(v)
                if v:
                    if (i, j) in ent:
                        raise StructuralError(f"duplicate entry at ({i},{j})")
                    ent[(i, j)] = v
        self.entries = ent

    @classmethod
    def trusted(cls, rows: int, cols: int, entries: dict) -> "SparseMatrix":
        """A matrix on `entries` as given, without the constructor's checks:
        for internal producers whose entries are already ints or
        non-integral Fractions, nonzero and in range.  The dict is kept,
        not copied."""
        m = object.__new__(cls)
        m.rows = rows
        m.cols = cols
        m.entries = entries
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
        return cls(n, n, {(i, i): 1 for i in range(n)})

    @classmethod
    def zeros(cls, rows, cols):
        return cls(rows, cols)

    def nnz(self) -> int:
        return len(self.entries)

    def is_zero(self) -> bool:
        return not self.entries

    def transpose(self) -> "SparseMatrix":
        return SparseMatrix.trusted(
            self.cols, self.rows,
            {(j, i): v for (i, j), v in self.entries.items()})

    def scale(self, c) -> "SparseMatrix":
        c = _entry(c)
        if not c:
            return SparseMatrix(self.rows, self.cols)
        return SparseMatrix(self.rows, self.cols,
                            {k: c * v for k, v in self.entries.items()})

    def add(self, other: "SparseMatrix") -> "SparseMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise StructuralError("shape mismatch in add")
        ent = dict(self.entries)
        for k, v in other.entries.items():
            s = ent.get(k, 0) + v
            if s:
                ent[k] = s
            else:
                ent.pop(k, None)
        return SparseMatrix(self.rows, self.cols, ent)

    def sub(self, other: "SparseMatrix") -> "SparseMatrix":
        return self.add(other.scale(-1))

    def mul(self, other: "SparseMatrix") -> "SparseMatrix":
        if self.cols != other.rows:
            raise StructuralError("shape mismatch in mul")
        by_row = {}
        for (k, j), w in other.entries.items():
            by_row.setdefault(k, []).append((j, w))
        left = {}
        for (i, k), v in self.entries.items():
            left.setdefault(i, []).append((k, v))
        ent = {}
        for i, terms in left.items():
            acc = {}  # row i of the product, keyed by column
            for k, v in terms:
                for j, w in by_row.get(k, ()):
                    acc[j] = acc.get(j, 0) + v * w
            for j, s in acc.items():
                if s:
                    ent[i, j] = s
        return SparseMatrix.trusted(self.rows, other.cols,
                                    normalise_entries(ent))

    def kron(self, other: "SparseMatrix") -> "SparseMatrix":
        """The Kronecker product self ⊗ other: for other r×c, entry
        (i·r + k, j·c + l) is self[i, j]·other[k, l], the index order of a
        tensor product whose second factor varies fastest."""
        r, c = other.rows, other.cols
        right = other.entries.items()
        ent = {}
        for (i, j), v in self.entries.items():
            row, col = i * r, j * c
            for (k, l), w in right:
                ent[row + k, col + l] = v * w
        return SparseMatrix.trusted(self.rows * r, self.cols * c,
                                    normalise_entries(ent))

    def apply(self, vec: dict) -> dict:
        """Matrix times a sparse column vector {index: int or Fraction}."""
        out = {}
        by_col = {}
        for (i, j), v in self.entries.items():
            by_col.setdefault(j, []).append((i, v))
        for j, c in vec.items():
            for i, v in by_col.get(j, ()):
                s = out.get(i, 0) + v * c
                if s:
                    out[i] = s
                else:
                    out.pop(i, None)
        return out

    def trace(self):
        if self.rows != self.cols:
            raise StructuralError("trace of non-square matrix")
        return sum(v for (i, j), v in self.entries.items() if i == j)

    def __eq__(self, other):
        return (isinstance(other, SparseMatrix)
                and self.rows == other.rows and self.cols == other.cols
                and self.entries == other.entries)

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(sorted(self.entries.items()))))

    def __repr__(self):
        return f"SparseMatrix({self.rows}x{self.cols}, nnz={self.nnz()})"


def _row_dicts(m: SparseMatrix) -> dict:
    """{row: {column: value}} of the nonzero rows of m."""
    rows = {}
    for (i, j), v in m.entries.items():
        rows.setdefault(i, {})[j] = v
    return rows


# -- the elimination kernel -------------------------------------------------
#
# Rows are sparse dicts {column: value} with no zero values.  Values are
# ints or Fractions, or (for rank only) plain ints in [0, p) when a prime p
# is given.


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


def _component_rows(m: SparseMatrix, skip=()) -> list:
    """The nonzero rows of m, but those in `skip`, as sparse dicts, grouped
    by connected component of the graph joining each row to its columns,
    in one pass over the entries.  Rank is the sum of the components'
    ranks."""
    rows = {}
    comp = {}   # row -> the list of rows of its component, shared
    owner = {}  # column -> the first row seen with an entry there
    for (i, j), v in m.entries.items():
        if i in skip:
            continue
        r = rows.get(i)
        if r is None:
            rows[i] = {j: v}
            ci = comp[i] = [i]
        else:
            r[j] = v
            ci = comp[i]
        o = owner.setdefault(j, i)
        if o != i:
            co = comp[o]
            if co is not ci:  # merge the smaller component into the larger
                if len(co) < len(ci):
                    co, ci = ci, co
                co += ci
                for x in ci:
                    comp[x] = co
    groups = {}
    for i, r in rows.items():
        groups.setdefault(comp[i][0], []).append(r)
    return list(groups.values())


def _component_rank(rows, p: int, units: bool = False) -> tuple[list, list]:
    """(pivot columns, rows left) of a sparse elimination over Q (p == 0)
    or GF(p) of nonzero rows, which it consumes.

    First every entry alone in its column is a pivot, needing no
    elimination, again and again as taking them empties columns.  Then
    each pivot is the sparsest remaining row, at its column shared with the
    fewest other rows.  A column -> rows index, updated on every fill-in
    and cancellation, finds the rows to eliminate and the column counts; a
    heap of (length, row) finds the sparsest row.  With `units` a pivot
    entry must be ±1 and the rows that never get one are left, reduced
    against every pivot.
    """
    rows = dict(enumerate(rows))
    col_rows = {}
    for i, r in rows.items():
        for c in r:
            col_rows.setdefault(c, set()).add(i)
    pivots = []
    lone = [c for c, hits in col_rows.items() if len(hits) == 1]
    while lone:
        pc = lone.pop()
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
                lone.append(c)
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
        pv = piv.pop(pc)
        if p:
            inv = pow(pv, -1, p)
        else:
            # a unit pivot keeps integral rows in ints
            inv = pv if pv in (1, -1) else 1 / Fraction(pv)
        items = list(piv.items())
        for j in hits:
            r = rows[j]
            if p:
                f = -r.pop(pc) * inv % p
                for c, v in items:
                    old = r.get(c)
                    if old is None:
                        r[c] = f * v % p
                        col_rows[c].add(j)
                    elif s := (old + f * v) % p:
                        r[c] = s
                    else:
                        del r[c]
                        col_rows[c].discard(j)
            else:
                f = -r.pop(pc) * inv
                for c, v in items:
                    old = r.get(c)
                    if old is None:
                        r[c] = f * v
                        col_rows[c].add(j)
                    elif s := old + f * v:
                        r[c] = s
                    else:
                        del r[c]
                        col_rows[c].discard(j)
            if r:
                heapq.heappush(heap, (len(r), j))
            else:
                del rows[j]
    return pivots, list(rows.values())


def _rows_mod_p(rows, p: int) -> list:
    """The rows reduced mod p, dropping the entries and rows that vanish."""
    out = []
    for row in rows:
        red = {}
        for j, v in row.items():
            r = v.numerator * pow(v.denominator, -1, p) % p
            if r:
                red[j] = r
        if red:
            out.append(red)
    return out


class RankResult(namedtuple("RankResult",
                            "value mode per_prime failed_primes unit_pivots",
                            defaults=((), (), ()))):
    """A rank, the RankMode it was taken in, the (prime, rank) pairs of a
    modular mode, the primes that failed and, for a matrix of ints, the
    columns of the pivots of the ±1 stage shared by every field."""

    __slots__ = ()

    @property
    def agreed(self) -> bool:
        return len({r for _, r in self.per_prime}) <= 1

    @property
    def exact_fallback(self) -> bool:
        """True when a modular rank was recomputed over Q."""
        return bool(self.failed_primes) or not self.agreed


def rank_info(m: SparseMatrix, mode: RankMode = EXACT,
              cleared=()) -> RankResult:
    """Rank of m, exactly or mod each prime of a modular mode, which fails
    if it divides a denominator of m; `per_prime`, `failed_primes` and
    `agreed` report what the primes gave.  The rows in `cleared` are
    never eliminated: the caller vouches that each is an integral
    combination of the others, so that leaving them out changes no rank,
    over Q or mod any prime.  The denominators are still read from every
    row, so the primes fail as they would on the whole of m.  When m has
    int entries alone, `unit_pivots` are the columns of the ±1 stage's
    pivots: its multipliers are then ints too, so the block of m at those
    pivots has determinant ±1 over Z."""
    primes = mode.primes if mode.kind == "modular" else ()
    dens = {v.denominator for v in m.entries.values() if type(v) is not int}
    failed = tuple(p for p in primes if any(d % p == 0 for d in dens))
    # per component, so that one column index is alive at a time
    shared, residues = [], []
    for comp in _component_rows(m, cleared):
        pivots, left = _component_rank(comp, 0, units=True)
        shared += pivots
        if left:
            residues.append(left)
    per_prime = tuple(
        (p, len(shared) + sum(len(_component_rank(_rows_mod_p(s, p), p)[0])
                              for s in residues))
        for p in primes if p not in failed)
    result = RankResult(max((r for _, r in per_prime), default=0), mode,
                        per_prime, failed, () if dens else shared)
    if mode.kind == "exact" or result.exact_fallback:
        result = result._replace(value=len(shared) + sum(
            len(_component_rank(s, 0)[0]) for s in residues))
    return result


def rank(m: SparseMatrix, mode: RankMode = EXACT) -> int:
    return rank_info(m, mode).value


def kernel_basis(m: SparseMatrix) -> list[dict]:
    """Exact kernel basis as sparse column vectors {row index: value}."""
    pivots = rref(_row_dicts(m).values())
    order = sorted(pivots)
    basis = []
    for free in range(m.cols):
        if free in pivots:
            continue
        vec = {free: 1}
        for pcol in order:
            v = pivots[pcol].get(free, 0)
            if v:
                vec[pcol] = -v
        basis.append(vec)
    return basis


def column_space_basis(m: SparseMatrix) -> list[dict]:
    """An exact basis of the column space, as sparse column vectors."""
    pivots = rref(_row_dicts(m.transpose()).values())
    return [pivots[c] for c in sorted(pivots)]


def projector_invariant_dim(p: SparseMatrix, mode: RankMode = EXACT) -> int:
    """Rank of an idempotent; equals its trace over Q."""
    if p.rows != p.cols:
        raise StructuralError("projector must be square")
    if mode.kind == "exact":
        if p.mul(p) != p:
            raise StructuralError("matrix is not idempotent")
    r = rank(p, mode)
    if mode.kind == "exact":
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
    cols = _row_dicts(m.transpose())
    tag = m.rows
    _, coordinates = tagged_reduction(
        (cols.get(j, {}) for j in range(m.cols)), tag)
    return lambda b: coordinates(
        {i: _entry(v) for i, v in b.items() if v and 0 <= i < tag})


def solve(m: SparseMatrix, b: dict):
    """One exact solution x of m x = b, or None if inconsistent; b is a
    sparse column vector {row: int or Fraction} and free variables are 0."""
    return solver(m)(b)

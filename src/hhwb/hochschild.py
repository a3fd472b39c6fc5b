"""Truncated twisted Hochschild standard complexes.

Chains at level m are a coefficient morphism a0 in hom(c1, F(c0)) followed
by bar slots a_i in hom(c_{i+1}, c_i), cyclically (the last slot starts at
c0).  The complex is graded by total cohomological degree
k = (internal degree) - (level), and both differentials raise k by one.

A chain is the tuple (a0, a1, ..., am) of its basis morphisms, each
interned as an int (its position in the sorted basis ids); the objects
follow from the ids: c_i = tgt(a_i) for i >= 1, and c0 = src(am), or
src(a0) at level 0.  No chain is stored.  A level is a list of grids, one
per object tuple (c0, ..., cm), each the product of its slots' hom
spaces, and a chain's row is its grid's offset plus the mixed-radix
number of its slots' positions.  A face of a differential is then the
same move for every choice of the other slots, so it is assembled along
arithmetic progressions of rows and columns, and a chain permutation slot
by slot.  The differentials are assembled from per-basis-int tables
(degree, differential, twist, and a lazily filled composition table)
whose coefficients are ints where the structure constants are integral
and Fractions where they are not; nothing divides.  Faces are added into
row dicts, the store of qlinalg.SparseMatrix, and keep its contract, so
an integral presentation gives matrices of plain ints, and the d^2 = 0
check, the equivariance check and rank mod p read rows of ints.  A
level's d1 and d2 are built once and never copied: a total-degree block
from one whole level to the whole level below is that level's d2, and
any other block copies the rows of each level's d1 and d2 it meets.

Only the wrap-around face F(am)∘a0 of d2 depends on the twist beyond its
object map.  Everything else (the basis tables, the chain catalog and its
degree blocks, d1 and the inner faces a_i∘a_{i+1}) lives in a skeleton
that build_complexes shares among the complexes it builds in one call
whose twists have one object map; nothing else holds it, so it goes away
with the last of them.

Levels are enumerated and assembled on first access: a level-m chain has
total degree in [(m+1)·dmin - m, (m+1)·dmax - m], so the homology in
degree k reads only the levels whose window meets [k-1, k+1], and
max_level caps the work instead of setting it.
"""

from __future__ import annotations

import bisect
import itertools
import operator
from collections import namedtuple

from .dgcore import DgCategory, DgFunctor
from .qlinalg import (
    EXACT,
    RankMode,
    SparseMatrix,
    StructuralError,
    normalise_rows,
    rank_info,
)


def _lin(index: dict, x: dict) -> tuple:
    """A linear combination {basis id: coefficient} as ((basis int, c),
    ...), where c is an int when it is integral and a Fraction otherwise:
    a product of Fractions that is integral becomes its numerator."""
    return tuple((index[b], c.numerator if c.denominator == 1 else c)
                 for b, c in x.items())


class _ComposeTable(dict):
    """(g, f) -> g∘f on basis ints (f applied first) as ((b, c), ...),
    filled on first use; empty unless f and g compose."""

    def __init__(self, category: DgCategory, basis_ids: tuple, index: dict):
        super().__init__()
        self.category = category
        self.basis_ids = basis_ids
        self.index = index

    def __missing__(self, key):
        g, f = self.basis_ids[key[0]], self.basis_ids[key[1]]
        cat = self.category
        out = (_lin(self.index, cat.compose_basis(g, f))
               if cat.basis[f].tgt == cat.basis[g].src else ())
        self[key] = out
        return out


class _Lazy:
    """A read-only view of a per-level list whose item m is built by
    `build(m)` on first access.  The owner keeps the list and hands out a
    new view on each attribute access, so no reference cycle forms."""

    __slots__ = ("_items", "_build")

    def __init__(self, items: list, build):
        self._items = items
        self._build = build

    def __len__(self):
        return len(self._items)

    def __getitem__(self, m):
        item = self._items[operator.index(m)]
        if item is None:
            m %= len(self._items)
            item = self._items[m] = self._build(m)
        return item

    def __iter__(self):
        return map(self.__getitem__, range(len(self._items)))

    def __add__(self, other):
        return list(self) + list(other)

    def built(self) -> list[int]:
        """The levels built so far."""
        return [m for m, item in enumerate(self._items) if item is not None]


def _spread(values, tables) -> list:
    """[v + t0 + t1 + ... for v in values, t0 in tables[0], ...] in the
    order of itertools.product: mixed-radix sums over a product of slots."""
    for table in tables:
        values = [v + t for v in values for t in table]
    return values


def _emit(acc: dict, row0: int, rows, col0: int, cols, v) -> None:
    """acc[row0 + r][col0 + c] += v for each pair (r, c) of rows, cols."""
    for r, c in zip(map(row0.__add__, rows), map(col0.__add__, cols)):
        row = acc.get(r)
        if row is None:
            acc[r] = {c: v}
        else:
            row[c] = row.get(c, 0) + v


# The basis ints a chain slot may hold, with {basis int: position} and
# their degrees.
_Range = namedtuple("_Range", "ints pos degs")
# The chains of one level over one object tuple objs = (c0, ..., cm), the
# product of the slots' ranges: the chain with a_j at position p_j of
# ranges[j] has row offset + Σ p_j·strides[j], the last slot fastest.
_Grid = namedtuple("_Grid", "offset size objs ranges strides")


class _Level:
    """The chains of one level as its grids in catalog order, each numbered
    on from the one before.  It reads as the sequence of chains, tuples
    (a0, a1, ..., am) of basis ints, and stores none of them."""

    __slots__ = ("grids", "at", "size", "_starts")

    def __init__(self, grids: list):
        self.grids = grids
        self.at = {g.objs: g for g in grids}  # object tuple -> grid
        self.size = sum(g.size for g in grids)
        self._starts = [g.offset for g in grids]

    def __len__(self):
        return self.size

    def __iter__(self):
        return itertools.chain.from_iterable(
            itertools.product(*(r.ints for r in g.ranges)) for g in self.grids)

    def __getitem__(self, i):
        i = range(self.size)[operator.index(i)]
        g = self.grids[bisect.bisect_right(self._starts, i) - 1]
        i -= g.offset
        return tuple(r.ints[i // s % len(r.ints)]
                     for r, s in zip(g.ranges, g.strides))


class _Skeleton:
    """The part of the standard complex that does not depend on the twist
    beyond its object map: the basis tables, the chain catalog and its
    degree blocks, d1 and the inner faces of d2.  `shared` says whether
    build_complexes builds more than one complex on it; each level is
    enumerated and assembled on first access."""

    def __init__(self, category: DgCategory, obj_map: dict, max_level: int,
                 normalized: bool, shared: bool):
        self.category = category
        self.obj_map = obj_map
        self.max_level = max_level
        self.normalized = normalized
        self.shared = shared
        self.basis_ids: tuple[str, ...] = tuple(sorted(category.basis))
        self.basis_index = {b: i for i, b in enumerate(self.basis_ids)}
        infos = [category.basis[b] for b in self.basis_ids]
        self.deg = [info.degree for info in infos]
        self.src = [info.src for info in infos]
        self.tgt = [info.tgt for info in infos]
        self.diff = [_lin(self.basis_index, category.diff_basis(b))
                     for b in self.basis_ids]
        self.compose = _ComposeTable(category, self.basis_ids, self.basis_index)
        self.dmin, self.dmax = category.hom_degree_bounds()
        top = max_level + 1
        self._levels: list = [None] * top
        self._row_of: list = [None] * top
        self._d1: list = [None] * top
        self._by_degree: list = [None] * top
        self._blocks: dict[int, list] = {}  # see _runs
        self._positions: dict[int, dict[int, dict[int, int]]] = {}
        self._inner: dict[int, dict] = {}  # kept when shared
        self._homs: dict = {}
        self._steps: dict = {}

    @property
    def levels(self) -> _Lazy:
        return _Lazy(self._levels, self._enumerate)

    @property
    def row_of(self) -> _Lazy:
        return _Lazy(self._row_of, self._index)

    @property
    def d1(self) -> _Lazy:
        return _Lazy(self._d1, self._build_d1)

    def objects(self, chain) -> tuple:
        """(c0, c1, ..., cm): c_i = tgt(a_i) for i >= 1, c0 = src(am)."""
        return ((self.src[chain[-1]],)
                + tuple(map(self.tgt.__getitem__, chain[1:])))

    def window(self, m) -> tuple[int, int]:
        """The total degrees a level-m chain can have."""
        return (m + 1) * self.dmin - m, (m + 1) * self.dmax - m

    # -- enumeration -----------------------------------------------------

    def _hom(self, src, tgt) -> tuple[_Range, _Range]:
        """(every basis int, the bar-slot choices) of hom(src, tgt)."""
        key = (src, tgt)
        if key not in self._homs:
            cat, index, deg = self.category, self.basis_index, self.deg
            ids = cat.hom(src, tgt)
            self._homs[key] = tuple(
                _Range(ints, {b: p for p, b in enumerate(ints)},
                       [deg[b] for b in ints])
                for ints in (tuple(index[b] for b in ids),
                             tuple(index[b] for b in ids
                                   if not (self.normalized and cat.is_unit(b)))))
        return self._homs[key]

    def _step(self, tgt, bar: int) -> list:
        """The objects c with hom(c, tgt)[bar] non-empty, in order."""
        key = (tgt, bar)
        if key not in self._steps:
            self._steps[key] = [c for c in self.category.objects
                                if self._hom(c, tgt)[bar].ints]
        return self._steps[key]

    def _enumerate(self, m) -> _Level:
        hom, F, step = self._hom, self.obj_map, self._step
        # the object tuples (c0, ..., cm) in the order of itertools.product,
        # extended slot by slot along non-empty hom spaces only: c1 needs
        # hom(c1, F(c0)), each later ci a bar choice in hom(ci, c(i-1))
        tuples = [(c0,) for c0 in self.category.objects]
        for i in range(1, m + 1):
            tuples = [t + (c,) for t in tuples
                      for c in (step(t[-1], 1) if i > 1 else step(F[t[0]], 0))]
        grids, offset = [], 0
        for objs in tuples:
            c0 = objs[0]
            ranges = [hom(objs[1] if m else c0, F[c0])[0]]
            strides = [1]
            for i in range(m, 0, -1):
                ranges.insert(1, hom(objs[i + 1] if i < m else c0, objs[i])[1])
                strides.insert(0, strides[0] * len(ranges[1].ints))
            size = strides[0] * len(ranges[0].ints)
            if size:  # nothing when the closing slot hom(c0, cm) is empty
                grids.append(_Grid(offset, size, objs, ranges, strides))
                offset += size
        return _Level(grids)

    def _index(self, m) -> dict[tuple[int, ...], int]:
        return {ch: i for i, ch in enumerate(self.levels[m])}

    # -- d1 and the inner faces of d2 ------------------------------------
    #
    # On a grid, a face that turns slot p (or slots i, i+1) into a basis
    # int b with coefficient c adds c, with a sign, at one row and column
    # per head (the slots before) and tail (the slots after): two
    # arithmetic progressions, read off the strides.

    def _build_d1(self, m) -> SparseMatrix:
        """Internal differential with the total-complex sign (-1)^m; the
        differential of a_p carries the Koszul sign of a0 ... a_{p-1}."""
        diff, level = self.diff, self.levels[m]
        acc = {}
        for g in level.grids if any(diff) else ():
            heads = [m]  # m plus the degree of each head
            for p, (r, s) in enumerate(zip(g.ranges, g.strides)):
                span = len(r.ints) * s
                rels = [_spread([h * span for h, e in enumerate(heads)
                                 if e % 2 == odd], [range(s)])
                        for odd in (0, 1)]
                for pa, a in enumerate(r.ints):
                    # d(a) in slot p, on the chains of the (normalized)
                    # catalog; normalise_rows drops the sums that cancel
                    for b, c in diff[a]:
                        q = r.pos.get(b)
                        if q is not None:
                            for rel, v in zip(rels, (c, -c)):
                                _emit(acc, g.offset + q * s, rel,
                                      g.offset + pa * s, rel, v)
                heads = _spread(heads, [r.degs])
        return SparseMatrix.trusted(len(level), len(level),
                                    normalise_rows(acc))

    def inner_faces(self, m) -> dict:
        """The faces a_i∘a_{i+1} of d2 on level m >= 1, with sign (-1)^i,
        as fresh row dicts the caller may extend; a face of a grid over
        (c0, ..., cm) lands in the grid without c(i+1).  A shared skeleton
        keeps a copy, so that its complexes build the faces once; a lone
        complex holds them once, inside its d2."""
        kept = self._inner.get(m)
        if kept is not None:
            return {i: dict(row) for i, row in kept.items()}
        compose, below = self.compose, self.levels[m - 1]
        acc = {}
        for i in range(m):
            for g in self.levels[m].grids:
                tg = below.at.get(g.objs[:i + 1] + g.objs[i + 2:])
                if tg is None:
                    continue
                left, right, target = g.ranges[i], g.ranges[i + 1], tg.ranges[i]
                s, span = g.strides[i + 1], g.strides[i] * len(left.ints)
                rows = None
                for pa, a in enumerate(left.ints):
                    for pb, a1 in enumerate(right.ints):
                        for b, c in compose[a, a1]:
                            q = target.pos.get(b)
                            if q is None:
                                continue
                            if rows is None:
                                n, rs = g.size // span, s * len(target.ints)
                                cols = _spread(range(0, g.size, span), [range(s)])
                                rows = _spread(range(0, n * rs, rs), [range(s)])
                            _emit(acc, tg.offset + q * s, rows,
                                  g.offset + pa * g.strides[i] + pb * s, cols,
                                  -c if i % 2 else c)
        if self.shared:
            self._inner[m] = acc
            return self.inner_faces(m)  # a copy
        return acc

    # -- total-degree bookkeeping ---------------------------------------

    def levels_near(self, degrees) -> list[int]:
        """The levels whose window meets [k-1, k+1] for some k in
        `degrees`: every level the homology in those degrees reads."""
        out = []
        for m in range(self.max_level + 1):
            lo, hi = self.window(m)
            if any(lo <= k + 1 and k - 1 <= hi for k in degrees):
                out.append(m)
        return out

    def _runs(self, k) -> list:
        """The block of total degree k as (level, local indices) runs in
        level order, one per level with chains of degree k, built once;
        the indices are the level's entry in _by_degree, a range when the
        level's window is one degree.  Only the levels whose window holds
        k are read."""
        runs = self._blocks.get(k)
        if runs is None:
            runs = self._blocks[k] = []
            for m in range(self.max_level + 1):
                lo, hi = self.window(m)
                if lo <= k <= hi:
                    by_degree = self._by_degree[m]
                    if by_degree is None:
                        by_degree = self._by_degree[m] = {}
                        if lo == hi:  # every chain has degree k + m
                            by_degree[k + m] = range(len(self.levels[m]))
                        else:
                            for g in self.levels[m].grids:
                                degs = _spread([0], [r.degs for r in g.ranges])
                                for i, d in enumerate(degs, g.offset):
                                    by_degree.setdefault(d, []).append(i)
                    local = by_degree.get(k + m)
                    if local:
                        runs.append((m, local))
        return runs

    def positions(self, k) -> dict[int, dict[int, int]]:
        """{level: {local index: position}} of block k, the chains of total
        degree k level by level, each level's in order; built once."""
        out = self._positions.get(k)
        if out is None:
            out = self._positions[k] = {}
            pos = 0
            for m, local in self._runs(k):
                out[m] = dict(zip(local, range(pos, pos + len(local))))
                pos += len(local)
        return out

    def whole(self, k):
        """The level that block k is, whole and in order, or None (a block
        lists each level's chains in order)."""
        runs = self._runs(k)
        if len(runs) == 1:
            m, local = runs[0]
            if len(local) == len(self.levels[m]):
                return m
        return None


class StandardComplex:
    """The truncated standard complex; `levels[m]` reads as the list of
    level-m chains, tuples of basis ints, without storing them, and
    `row_of[m]` is the {chain: row} dict built from it, for the chain
    maps.

    Everything but the wrap face of d2 lives in `skeleton`, shared with
    the complexes built in the same build_complexes call whose twists have
    the same object map.  `levels`, `row_of`, `d1` and `d2` build a level
    on first access, so a computation only pays for the levels its degrees
    read.  Other modules read a degree block through block_dim,
    total_differential and the block coordinates (block_permutation,
    block_levels, block_vector) alone."""

    def __init__(self, skeleton: _Skeleton, twist: DgFunctor):
        self.skeleton = sk = skeleton
        self.category = sk.category
        self.twist = twist
        self.max_level = sk.max_level
        self.normalized = sk.normalized
        self.basis_ids = sk.basis_ids
        self.basis_index = sk.basis_index
        self._deg = sk.deg
        self.compose = sk.compose
        self._twist = [_lin(self.basis_index, twist.apply_basis(b))
                       for b in self.basis_ids]
        self._d2: list = [None] * (sk.max_level + 1)
        self._homology_cache: dict[int, tuple] = {}

    @property
    def levels(self) -> _Lazy:
        return self.skeleton.levels

    @property
    def row_of(self) -> _Lazy:
        return self.skeleton.row_of

    @property
    def d1(self) -> _Lazy:
        return self.skeleton.d1

    @property
    def d2(self) -> _Lazy:
        return _Lazy(self._d2, self._build_d2)

    # -- basis ints and chains ----------------------------------------------

    def degree(self, chain) -> int:
        """Internal degree |a0| + |a1| + ... + |am| of a chain."""
        return sum(map(self._deg.__getitem__, chain))

    def objects(self, chain) -> tuple[str, ...]:
        """(c0, c1, ..., cm): c_i = tgt(a_i) for i >= 1, c0 = src(am)."""
        return self.skeleton.objects(chain)

    def chain_ids(self, m: int, i: int) -> tuple[str, ...]:
        """The basis ids (a0, a1, ..., am) of chain i at level m."""
        ids = self.basis_ids
        return tuple(ids[b] for b in self.levels[m][i])

    # -- differentials ---------------------------------------------------

    def _build_d2(self, m) -> SparseMatrix:
        """The skeleton's inner faces, then the wrap-around face where the
        last slot acts through the twist: F(am)∘a0 on a grid over
        (c0, ..., cm) lands in the grid over (cm, c1, ..., c(m-1)), at one
        row and column per middle a1 ... a(m-1)."""
        sk = self.skeleton
        level = sk.levels[m]
        if m == 0:
            return SparseMatrix(0, len(level))
        deg, twist, compose = self._deg, self._twist, self.compose
        below = sk.levels[m - 1]
        acc = sk.inner_faces(m)
        faces = {}  # (am, a0) -> F(am)∘a0 as {b: c}
        for g in level.grids:
            tg = below.at.get(g.objs[m:] + g.objs[1:m])
            if tg is None:
                continue
            n_last = len(g.ranges[m].ints)
            n_mid = g.strides[0] // n_last
            middles = None
            for p0, a0 in enumerate(g.ranges[0].ints):
                for pm, am in enumerate(g.ranges[m].ints):
                    lin = faces.get((am, a0))
                    if lin is None:
                        lin = faces[am, a0] = {}
                        for t, ct in twist[am]:
                            for b, c in compose[t, a0]:
                                lin[b] = lin.get(b, 0) + ct * c
                    for b, c in lin.items():
                        q = tg.ranges[0].pos.get(b)
                        if q is None:
                            continue
                        if middles is None:  # (rows, cols) by middle parity
                            degs = _spread([0], [r.degs for r in g.ranges[1:m]])
                            middles = []
                            for odd in (0, 1):
                                mids = [x for x, e in enumerate(degs)
                                        if e % 2 == odd]
                                middles.append((mids, [x * n_last for x in mids]))
                        for odd, (rows, cols) in enumerate(middles):
                            # |am|·(|a0| + |middle|) is even unless |am| is odd
                            flip = m + deg[am] * (deg[a0] + odd)
                            _emit(acc, tg.offset + q * n_mid, rows,
                                  g.offset + p0 * g.strides[0] + pm, cols,
                                  -c if flip % 2 else c)
        return SparseMatrix.trusted(len(below), len(level),
                                    normalise_rows(acc))

    # -- total-degree bookkeeping ---------------------------------------

    def block_dim(self, k) -> int:
        return sum(len(local) for _, local in self.skeleton._runs(k))

    def total_differential(self, k) -> SparseMatrix:
        """The map from total degree k to total degree k+1: d2[m] itself
        when blocks k and k+1 are the whole levels m and m-1 (level m has
        no chains of degree k+1, so d1[m] adds nothing), else read off the
        d1 and d2 of each level that block k meets."""
        sk = self.skeleton
        m = sk.whole(k)
        if m and sk.whole(k + 1) == m - 1:
            return self.d2[m]
        rows_at = sk.positions(k + 1)
        out = {}
        for m, cols in sk.positions(k).items():
            # d2 lands one level below d1: the two never share an entry
            for d, rows in ((self.d1, rows_at.get(m)),
                            (self.d2, rows_at.get(m - 1))):
                if rows is None:
                    continue
                for r, row in d[m].by_row.items():
                    i = rows.get(r)
                    if i is not None:
                        row = {j: v for c, v in row.items()
                               if (j := cols.get(c)) is not None}
                        if row:
                            out.setdefault(i, {}).update(row)
        return SparseMatrix.trusted(self.block_dim(k + 1), self.block_dim(k),
                                    out)

    # -- truncation certificates ----------------------------------------

    def certified(self, k) -> bool:
        """True when no truncated-away level (> max_level) can carry chains
        of total degree k-1, k or k+1."""
        sk = self.skeleton
        if sk.dmax >= 1:
            return False  # level windows keep reaching every degree
        m = self.max_level + 1
        while True:
            bot, top = sk.window(m)
            if top < k - 1:
                return True  # windows only descend from here on
            if bot <= k + 1:  # so the window meets [k-1, k+1]
                return False
            m += 1

    # -- homology basis (exact) -----------------------------------------

    def homology_basis(self, k):
        """(representatives, boundary_basis) at total degree k; vectors are
        sparse dicts over the positions of block k.  Exact arithmetic.
        The boundary basis is extended greedily by cycles, in one
        bases.tagged_reduction that also serves homology_coordinates."""
        # imported here: compute and decompose never read a basis
        from .bases import column_space_basis, kernel_basis, tagged_reduction

        if k not in self._homology_cache:
            cycles = kernel_basis(self.total_differential(k))
            boundaries = column_space_basis(self.total_differential(k - 1))
            kept, coordinates = tagged_reduction(boundaries + cycles,
                                                 self.block_dim(k))
            nb = len(boundaries)
            rep_of = {j: i for i, j in enumerate(j for j in kept if j >= nb)}
            reps = [cycles[j - nb] for j in rep_of]
            self._homology_cache[k] = (reps, boundaries, coordinates, rep_of)
        return self._homology_cache[k][:2]

    def homology_coordinates(self, k):
        """z -> {i: x_i} with z = Σ x_i·reps[i] + (a boundary) for the
        representatives of homology_basis(k), or None when the degree-k
        vector z is not a cycle; one reduction per degree serves every z."""
        self.homology_basis(k)
        _, _, coordinates, rep_of = self._homology_cache[k]

        def of_reps(z: dict):
            x = coordinates(z)
            return None if x is None else {rep_of[j]: v for j, v in x.items()
                                           if j in rep_of}

        return of_reps

    # -- block coordinates ------------------------------------------------
    #
    # A vector over block k (the chains of total degree k, level by level)
    # is read by level, and written back, only here: the layout of a block
    # over the levels is the skeleton's.

    def block_permutation(self, k, perm: list) -> tuple:
        """A chain permutation `perm`, one (rows, signs) pair per level that
        maps each degree to itself, as one (rows, signs) pair over the
        positions of block k: the level's own pair, uncopied, when
        the block is one whole level."""
        sk = self.skeleton
        m = sk.whole(k)
        if m is not None:
            return perm[m]
        size = self.block_dim(k)
        rows, signs = [0] * size, [1] * size
        for m, local in sk.positions(k).items():
            level_rows, level_signs = perm[m]
            for i, x in local.items():
                rows[x] = local[level_rows[i]]
                signs[x] = level_signs[i]
        return rows, signs

    def block_levels(self, k, vec: dict) -> dict:
        """A sparse vector over block k as {level: {local index: value}}."""
        runs = self.skeleton._runs(k)
        starts = list(itertools.accumulate(
            [len(local) for _, local in runs[:-1]], initial=0))
        out = {}
        for j, v in vec.items():
            x = bisect.bisect_right(starts, j) - 1
            m, local = runs[x]
            out.setdefault(m, {})[local[j - starts[x]]] = v
        return out

    def block_vector(self, k, parts: dict) -> dict:
        """The inverse of block_levels: {level: {local index: value}} on
        chains of total degree k as a sparse vector over block k, without
        its zeros."""
        positions = self.skeleton.positions(k)
        return {positions[m][i]: v for m, vec in parts.items()
                for i, v in vec.items() if v}


def build_complexes(c: DgCategory, twists: list, max_level: int,
                    normalized: bool) -> list[StandardComplex]:
    """One complex on c per endofunctor in `twists`, in order.  Those
    whose twists agree on objects share one skeleton: their chain
    catalog, d1 and the inner faces of d2 are built once."""
    if max_level < 0:
        raise StructuralError("max_level must be >= 0")
    images = []
    for twist in twists:
        if any(f is not c and f.basis.keys() != c.basis.keys()
               for f in (twist.source, twist.target)):
            raise StructuralError("twist is not an endofunctor of the category")
        images.append(tuple(twist.apply_obj(o) for o in c.objects))
    skeletons = {key: _Skeleton(c, dict(zip(c.objects, key)), max_level,
                                normalized, shared=images.count(key) > 1)
                 for key in images}
    return [StandardComplex(skeletons[key], twist)
            for key, twist in zip(images, twists)]


def build_complex(c: DgCategory, twist: DgFunctor, max_level: int,
                  normalized: bool = True) -> StandardComplex:
    """The complex of c twisted by the endofunctor `twist`, on a skeleton
    of its own."""
    return build_complexes(c, [twist], max_level, normalized)[0]


class DegreeResult(namedtuple(
        "DegreeResult",
        "dim certificate mode primes agreed reason",
        defaults=((), True, ""))):
    """The homology in one degree: certificate "exact" or "heuristic",
    mode "exact" or "modular"; the dim is exact in both.  `primes`
    checked both ranks it used, `agreed` if each gave the rank over Q."""

    __slots__ = ()


class HomologySummary:
    def __init__(self, degrees: dict):
        self.degrees = degrees  # total cohomological degree -> DegreeResult

    def dims(self):
        return {k: r.dim for k, r in self.degrees.items()}


def total_homology(sc: StandardComplex, degrees, mode: RankMode = EXACT
                   ) -> HomologySummary:
    """Per-degree homology dimensions with truncation certificates.

    `degrees` iterates total cohomological degrees.  `sc` is read through
    block_dim, total_differential, certified and max_level alone, so a
    StandardComplex and an invariant subcomplex (decomposition.OrbitComplex)
    go through the same checks.  Each total differential is read and
    ranked once in a call.

    The ranks are taken from the top degree down, by clearing: when
    d_(j+1)·d_j = 0 was checked here, the block of d_(j+1) at its
    `unit_pivots` (given for int entries alone) has determinant ±1, so the
    rows of d_j at those pivots' columns are an integral combination of
    its other rows, and rank_info leaves them out.
    """
    degrees = list(degrees)
    diffs, ranks, out = {}, {}, {}
    for k in degrees:
        for j in (k, k - 1):
            if j not in diffs:
                diffs[j] = sc.total_differential(j)
        if not diffs[k].mul(diffs[k - 1]).is_zero():
            raise StructuralError(f"differential does not square to zero at degree {k}")
    for j in sorted(diffs, reverse=True):
        cleared = set(ranks[j + 1].unit_pivots) if j + 1 in degrees else ()
        ranks[j] = rank_info(diffs[j], mode, cleared)
    for k in degrees:
        out_info, in_info = ranks[k], ranks[k - 1]
        dim = (diffs[k].cols - out_info.value) - in_info.value
        primes = tuple(p for p, _ in out_info.per_prime
                       if p not in in_info.failed_primes)
        agreed = out_info.agreed and in_info.agreed
        cert = "exact" if sc.certified(k) else "heuristic"
        reason = "" if cert == "exact" else (
            f"levels above {sc.max_level} may contribute near degree {k}; "
            f"compare max_level {sc.max_level} and {sc.max_level + 1}")
        out[k] = DegreeResult(dim, cert, mode.kind, primes, agreed, reason)
    return HomologySummary(out)


# The chain maps live in .chainmaps, which no verb imports; they are read
# here under their old names, loading it on first use.
_CHAIN_MAPS = ("ChainMapData", "induced_chain_map", "twist_endo_map",
               "homotopy_H", "homology_action")


def __getattr__(name):
    if name in _CHAIN_MAPS:
        from . import chainmaps
        return getattr(chainmaps, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

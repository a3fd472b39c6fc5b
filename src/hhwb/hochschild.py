"""Truncated twisted Hochschild standard complexes.

Chains at level m are a coefficient morphism a0 in hom(c1, F(c0)) followed
by bar slots a_i in hom(c_{i+1}, c_i), cyclically (the last slot starts at
c0).  The complex is graded by total cohomological degree
k = (internal degree) - (level), and both differentials raise k by one.

A chain is stored as the tuple (a0, a1, ..., am) of its basis morphisms,
each interned as an int (its position in the sorted basis ids).  The
objects follow from the ids: c_i = tgt(a_i) for i >= 1, and c0 = src(am),
or src(a0) at level 0.  The differentials are assembled from per-basis-int
tables (degree, differential, twist, and a lazily filled composition
table) whose coefficients are ints where the structure constants are
integral and Fractions where they are not; nothing divides.  The finished
matrices keep the same contract (see qlinalg.SparseMatrix), so an integral
presentation gives matrices of plain ints, and the d^2 = 0 check, the
equivariance check and rank mod p all run on ints.  A level's d1 and d2
are built once and never copied: a total-degree block from one whole level
to the whole level below is that level's d2, and any other block takes its
part of a level that spans several degrees from one split of the level.

Only the wrap-around face F(am)∘a0 of d2 depends on the twist beyond its
object map.  Everything else (the basis tables, the chain catalog and its
degree blocks, d1 and the inner faces a_i∘a_{i+1}) lives in a skeleton
that the live complexes on the same category, with the same object map,
max level and normalization, share; a weak registry finds it, so it goes
away with the last complex built on it.  Levels are enumerated and
assembled on first access: a level-m chain has total degree in
[(m+1)·dmin - m, (m+1)·dmax - m], so the homology in degree k reads only
the levels whose window meets [k-1, k+1], and max_level caps the work
instead of setting it.
"""

from __future__ import annotations

import itertools
import operator
import weakref
from collections import namedtuple
from math import prod

from .dgcore import (
    DgCategory,
    DgFunctor,
    NatTransform,
    Permutation,
    compose_functors,
    identity_functor,
    permutation_functor,
    tensor_power,
    validate_nat_transform,
)
from .qlinalg import (
    EXACT,
    RankMode,
    RankResult,
    SparseMatrix,
    StructuralError,
    add_pivot,
    column_space_basis,
    kernel_basis,
    normalise_entries,
    rank_info,
    reduce_row,
)


class TwistSpec(namedtuple("TwistSpec", "kind n permutation",
                           defaults=("identity", 0, ()))):
    """How the coefficient bimodule is twisted: kind "identity", or kind
    "permutation", a signed permutation of the n tensor factors."""

    __slots__ = ()

    @staticmethod
    def identity():
        return TwistSpec("identity")

    @staticmethod
    def perm(n: int, p: Permutation):
        return TwistSpec("permutation", n=n, permutation=p.images)


def resolve_twist(c: DgCategory, spec: TwistSpec) -> tuple[DgCategory, DgFunctor]:
    """Returns (category, endofunctor); for permutation twists the category
    is replaced by the n-th tensor power."""
    if spec.kind == "identity":
        return c, identity_functor(c)
    if spec.kind == "permutation":
        power = tensor_power(c, spec.n)
        return power, permutation_functor(c, spec.n, Permutation(spec.permutation),
                                          power=power)
    raise StructuralError(f"unknown twist kind {spec.kind!r}")


def _lin(index: dict, x: dict) -> tuple:
    """A linear combination {basis id: Fraction} as ((basis int, c), ...),
    where c is an int when it is integral and a Fraction otherwise."""
    return tuple((index[b], c.numerator if c.denominator == 1 else c)
                 for b, c in x.items())


def _emit_product(acc, col, row_of, lins, scalar):
    """acc[(row, col)] += scalar * (lins[0] ⊗ ... ⊗ lins[m]), expanded over
    the linear combinations ((b, c), ...) given per chain position."""
    for combo in itertools.product(*lins):
        row = row_of.get(tuple(b for b, _ in combo))
        if row is None:
            continue
        val = scalar
        for _, c in combo:
            val *= c
        key = (row, col)
        s = acc.get(key, 0) + val
        if s:
            acc[key] = s
        else:
            acc.pop(key, None)


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


class _Skeleton:
    """The part of the standard complex that does not depend on the twist
    beyond its object map: the basis tables, the chain catalog and its
    degree blocks, d1 and the inner faces of d2.  Live complexes on one
    category with one object map, max level and normalization share one
    skeleton (see _skeleton); each level is enumerated and assembled on
    first access."""

    def __init__(self, category: DgCategory, obj_map: dict, max_level: int,
                 normalized: bool):
        self.category = category
        self.obj_map = obj_map
        self.max_level = max_level
        self.normalized = normalized
        self.basis_ids: tuple[str, ...] = tuple(sorted(category.basis))
        self.basis_index = {b: i for i, b in enumerate(self.basis_ids)}
        self.deg = [category.deg(b) for b in self.basis_ids]
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
        self._inner: dict[int, dict] = {}  # kept once a second complex shares
        self._homs: dict = {}
        self.complexes = 0  # how many complexes were built on this skeleton

    @property
    def levels(self) -> _Lazy:
        return _Lazy(self._levels, self._enumerate)

    @property
    def row_of(self) -> _Lazy:
        return _Lazy(self._row_of, self._index)

    @property
    def d1(self) -> _Lazy:
        return _Lazy(self._d1, self._build_d1)

    def degree(self, chain) -> int:
        return sum(map(self.deg.__getitem__, chain))

    def window(self, m) -> tuple[int, int]:
        """The total degrees a level-m chain can have."""
        return (m + 1) * self.dmin - m, (m + 1) * self.dmax - m

    # -- enumeration -----------------------------------------------------

    def _hom(self, src, tgt):
        """(every basis int, the bar-slot choices) of hom(src, tgt)."""
        key = (src, tgt)
        if key not in self._homs:
            cat, index = self.category, self.basis_index
            ids = cat.hom(src, tgt)
            self._homs[key] = (tuple(index[b] for b in ids),
                               tuple(index[b] for b in ids
                                     if not (self.normalized and cat.is_unit(b))))
        return self._homs[key]

    def _enumerate(self, m) -> list[tuple[int, ...]]:
        hom, F, objects = self._hom, self.obj_map, self.category.objects
        # the object tuples (c0, ..., cm) in the order of itertools.product,
        # extended slot by slot along non-empty hom spaces only: c1 needs
        # hom(c1, F(c0)), each later ci a bar choice in hom(ci, c(i-1))
        tuples = [(c0,) for c0 in objects]
        for i in range(1, m + 1):
            tuples = [t + (c,) for t in tuples for c in objects
                      if (hom(c, t[-1])[1] if i > 1 else hom(c, F[t[0]])[0])]
        chains = []
        for objs in tuples:
            c0 = objs[0]
            ranges = [hom(objs[1] if m else c0, F[c0])[0]]
            for i in range(1, m + 1):
                ranges.append(hom(objs[i + 1] if i < m else c0, objs[i])[1])
            # nothing when the closing slot hom(c0, cm) is empty
            chains.extend(itertools.product(*ranges))
        return chains

    def _index(self, m) -> dict[tuple[int, ...], int]:
        return {ch: i for i, ch in enumerate(self.levels[m])}

    # -- d1 and the inner faces of d2 ------------------------------------

    def _build_d1(self, m) -> SparseMatrix:
        """Internal differential with the total-complex sign (-1)^m; the
        differential of a_p carries the Koszul sign of a0 ... a_{p-1}."""
        deg, diff = self.deg, self.diff
        chains, row_of = self.levels[m], self.row_of[m]
        acc = {}
        if any(diff):
            for col, ch in enumerate(chains):
                sign = -1 if m % 2 else 1
                for p, a in enumerate(ch):
                    # d(a) in slot p, on the chains of the (normalized)
                    # catalog; normalise_entries drops the sums that cancel
                    for b, c in diff[a]:
                        row = row_of.get(ch[:p] + (b,) + ch[p + 1:])
                        if row is not None:
                            key = (row, col)
                            acc[key] = acc.get(key, 0) + sign * c
                    if deg[a] % 2:
                        sign = -sign
        return SparseMatrix.trusted(len(chains), len(chains),
                                    normalise_entries(acc))

    def inner_faces(self, m) -> dict:
        """The faces a_i∘a_{i+1} of d2 on level m >= 1, with sign (-1)^i,
        as a fresh entries dict the caller may extend.  The skeleton keeps
        a copy only once more than one complex is built on it, so that a
        lone complex holds its faces once, inside its d2.  Faces built
        before the second complex are built again once, by the first
        complex that reads them after it: complexes meant to share should
        all be built before any reads its d2, as verify_decomposition
        does."""
        kept = self._inner.get(m)
        if kept is not None:
            return dict(kept)
        compose, row_of = self.compose, self.row_of[m - 1]
        acc = {}
        for col, ch in enumerate(self.levels[m]):
            for i in range(m):
                lin = compose[ch[i], ch[i + 1]]
                if lin:
                    head, tail, sign = ch[:i], ch[i + 2:], -1 if i % 2 else 1
                    for b, c in lin:  # as in _build_d1
                        row = row_of.get(head + (b,) + tail)
                        if row is not None:
                            key = (row, col)
                            acc[key] = acc.get(key, 0) + sign * c
        if self.complexes > 1:
            self._inner[m] = acc
            return dict(acc)
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
                            for i, ch in enumerate(self.levels[m]):
                                by_degree.setdefault(self.degree(ch),
                                                     []).append(i)
                    local = by_degree.get(k + m)
                    if local:
                        runs.append((m, local))
        return runs

    def degree_block(self, k) -> list[tuple[int, int]]:
        """Global coordinates of total degree k, (level, local index) in
        level order; a fresh list on each call."""
        return [(m, i) for m, local in self._runs(k) for i in local]

    def positions(self, k) -> dict[int, dict[int, int]]:
        """{level: {local index: position}} of degree_block(k), built once."""
        out = self._positions.get(k)
        if out is None:
            out = self._positions[k] = {}
            pos = 0
            for m, local in self._runs(k):
                out[m] = dict(zip(local, range(pos, pos + len(local))))
                pos += len(local)
        return out

    def whole(self, k):
        """The level that degree_block(k) is, whole and in order, or None
        (a block lists each level's chains in order)."""
        runs = self._runs(k)
        if len(runs) == 1:
            m, local = runs[0]
            if len(local) == len(self.levels[m]):
                return m
        return None

    def split(self, cache: dict, m, mtx: SparseMatrix) -> dict:
        """The entries of mtx, a map from level m, as {internal degree of
        the column: (keys, values)}, kept in cache[m] for a caller that pops
        each part as it uses it, so a level is read once, not per degree."""
        if m not in cache:
            degree_of = [0] * mtx.cols
            for d, cols in self._by_degree[m].items():
                for c in cols:
                    degree_of[c] = d
            cache[m] = parts = {d: ([], []) for d in self._by_degree[m]}
            for key, v in mtx.entries.items():
                keys, values = parts[degree_of[key[1]]]
                keys.append(key)
                values.append(v)
        return cache[m]


# (id(category), object images, max level, normalized) -> skeleton; a
# skeleton holds its category, so the id is not reused while the entry lives
_skeletons: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def _skeleton(category: DgCategory, twist: DgFunctor, max_level: int,
              normalized: bool) -> _Skeleton:
    """The skeleton of `category` for twists with `twist`'s object map.
    It is shared while some complex built on it is alive and freed with
    the last one (by reference counting; nothing refers back to it), so a
    caller that wants complexes to share keeps them alive together."""
    images = tuple(twist.apply_obj(o) for o in category.objects)
    key = (id(category), images, max_level, normalized)
    sk = _skeletons.get(key)
    if sk is None:
        sk = _skeletons[key] = _Skeleton(
            category, dict(zip(category.objects, images)), max_level, normalized)
    sk.complexes += 1
    return sk


class StandardComplex:
    """The truncated standard complex; `levels[m]` lists the level-m chains
    as tuples of basis ints and `row_of[m]` maps each chain to its row.

    Everything but the wrap face of d2 lives in a skeleton shared with the
    other live complexes on the same category and object map.  `levels`,
    `row_of`, `d1` and `d2` build a level on first access, so a computation
    only pays for the levels its degrees read."""

    def __init__(self, category: DgCategory, twist: DgFunctor, max_level: int,
                 normalized: bool):
        if max_level < 0:
            raise StructuralError("max_level must be >= 0")
        self.category = category
        self.twist = twist
        self.max_level = max_level
        self.normalized = normalized
        self.skeleton = sk = _skeleton(category, twist, max_level, normalized)
        self.basis_ids = sk.basis_ids
        self.basis_index = sk.basis_index
        self._deg = sk.deg
        self.compose = sk.compose
        self._twist = [_lin(self.basis_index, twist.apply_basis(b))
                       for b in self.basis_ids]
        self._d2: list = [None] * (max_level + 1)
        self._diff_cache: dict[int, SparseMatrix] = {}
        self._d1_parts: dict[int, dict] = {}  # see total_differential
        self._d2_parts: dict[int, dict] = {}
        self._rank_cache: dict[tuple[int, RankMode], RankResult] = {}
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
        basis, ids = self.category.basis, self.basis_ids
        return ((basis[ids[chain[-1]]].src,)
                + tuple(basis[ids[b]].tgt for b in chain[1:]))

    def chain_ids(self, m: int, i: int) -> tuple[str, ...]:
        """The basis ids (a0, a1, ..., am) of chain i at level m."""
        ids = self.basis_ids
        return tuple(ids[b] for b in self.levels[m][i])

    # -- differentials ---------------------------------------------------

    def _build_d2(self, m) -> SparseMatrix:
        """The skeleton's inner faces, then the wrap-around face where the
        last slot acts through the twist."""
        sk = self.skeleton
        chains = sk.levels[m]
        if m == 0:
            return SparseMatrix(0, len(chains))
        deg, twist, compose = self._deg, self._twist, self.compose
        row_of = sk.row_of[m - 1]
        acc = sk.inner_faces(m)
        faces = {}  # (am, a0) -> F(am)∘a0
        for col, ch in enumerate(chains):
            last, a0 = ch[m], ch[0]
            lin = faces.get((last, a0))
            if lin is None:
                lin = faces[last, a0] = [(b, ct * c) for t, ct in twist[last]
                                         for b, c in compose[t, a0]]
            if lin:
                d = deg[last]  # d·(|ch| - d) is even unless d is odd
                odd = m + d * (self.degree(ch) - d) if d % 2 else m
                sign, tail = -1 if odd % 2 else 1, ch[1:m]
                for b, c in lin:  # as in _Skeleton._build_d1
                    row = row_of.get((b,) + tail)
                    if row is not None:
                        key = (row, col)
                        acc[key] = acc.get(key, 0) + sign * c
        return SparseMatrix.trusted(len(sk.levels[m - 1]), len(chains),
                                    normalise_entries(acc))

    # -- total-degree bookkeeping ---------------------------------------

    def degree_block(self, k) -> list[tuple[int, int]]:
        """Global coordinates of total degree k: list of (level, local index)."""
        return self.skeleton.degree_block(k)

    def block_dim(self, k) -> int:
        return sum(len(local) for _, local in self.skeleton._runs(k))

    def total_differential(self, k) -> SparseMatrix:
        """The map from total degree k to total degree k+1: d2[m] itself
        when blocks k and k+1 are the whole levels m and m-1 (level m has
        no chains of degree k+1, so d1[m] adds nothing), else read off each
        level's d1 and d2 once, split by degree (see _Skeleton.split)."""
        mtx = self._diff_cache.get(k)
        if mtx is not None:
            return mtx
        sk = self.skeleton
        m = sk.whole(k)
        if m and sk.whole(k + 1) == m - 1:
            mtx = self.d2[m]
        else:
            rows_at = sk.positions(k + 1)
            ent = {}
            for m, cols in sk.positions(k).items():
                # d2 lands one level below d1, so the two never share an entry
                for cache, d, rows in (
                        (self._d1_parts, self.d1, rows_at.get(m)),
                        (self._d2_parts, self.d2, rows_at.get(m - 1))):
                    if rows is None:
                        continue
                    if len(cols) == len(sk.levels[m]):  # all in degree k
                        entries = d[m].entries.items()
                    else:
                        entries = zip(*sk.split(cache, m, d[m]).pop(k + m))
                    for (r, c), v in entries:
                        i = rows.get(r)
                        if i is not None:
                            ent[i, cols[c]] = v
            mtx = SparseMatrix.trusted(self.block_dim(k + 1), self.block_dim(k),
                                       ent)
        self._diff_cache[k] = mtx
        return mtx

    def differential_rank(self, k, mode: RankMode = EXACT) -> RankResult:
        """Rank of total_differential(k); each (k, mode) is ranked once."""
        key = (k, mode)
        if key not in self._rank_cache:
            self._rank_cache[key] = rank_info(self.total_differential(k), mode)
        return self._rank_cache[key]

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
        sparse dicts over degree_block(k) coordinates.  Exact arithmetic.
        The boundary basis is extended greedily by cycles; as in
        qlinalg.solver, each row is tagged past the last coordinate with the
        combination of these vectors it is, for homology_coordinates."""
        if k not in self._homology_cache:
            cycles = kernel_basis(self.total_differential(k))
            boundaries = column_space_basis(self.total_differential(k - 1))
            tag = self.block_dim(k)
            pivots, reps, rep_of = {}, [], {}  # rep_of: tag column -> rep
            for j, v in enumerate(boundaries + cycles):
                r = dict(v)
                r[tag + j] = 1
                reduce_row(r, pivots)
                if min(r) < tag:  # always for a boundary
                    add_pivot(r, pivots)
                    if j >= len(boundaries):
                        rep_of[tag + j] = len(reps)
                        reps.append(v)
            self._homology_cache[k] = (reps, boundaries, pivots, rep_of)
        return self._homology_cache[k][:2]

    def homology_coordinates(self, k):
        """z -> {i: x_i} with z = Σ x_i·reps[i] + (a boundary) for the
        representatives of homology_basis(k), or None when the degree-k
        vector z is not a cycle; one reduction per degree serves every z."""
        self.homology_basis(k)
        _, _, pivots, rep_of = self._homology_cache[k]
        tag = self.block_dim(k)

        def coordinates(z: dict):
            r = {i: v for i, v in z.items() if v}
            reduce_row(r, pivots)
            if r and min(r) < tag:
                return None  # z is not in the span of reps and boundaries
            return {rep_of[c]: -v for c, v in r.items() if c in rep_of}

        return coordinates


def build_complex(c: DgCategory, twist, max_level: int,
                  normalized: bool = True) -> StandardComplex:
    """twist: a DgFunctor endofunctor of c, or a TwistSpec."""
    if isinstance(twist, TwistSpec):
        c, twist = resolve_twist(c, twist)
    if twist.source is not c or twist.target is not c:
        if (twist.source.basis.keys() != c.basis.keys()
                or twist.target.basis.keys() != c.basis.keys()):
            raise StructuralError("twist is not an endofunctor of the category")
    return StandardComplex(c, twist, max_level, normalized)


class DegreeResult(namedtuple(
        "DegreeResult",
        "dim certificate mode primes agreed reason exact_fallback",
        defaults=((), True, "", False))):
    """The homology in one degree: certificate "exact" or "heuristic",
    mode "exact" or "modular", and exact_fallback when a rank it used was
    recomputed over Q."""

    __slots__ = ()


class HomologySummary:
    def __init__(self, degrees: dict):
        self.degrees = degrees  # total cohomological degree -> DegreeResult

    def dims(self):
        return {k: r.dim for k, r in self.degrees.items()}


def total_homology(sc: StandardComplex, degrees, mode: RankMode = EXACT
                   ) -> HomologySummary:
    """Per-degree homology dimensions with truncation certificates.

    `degrees` iterates total cohomological degrees.
    """
    out = {}
    for k in degrees:
        d_out = sc.total_differential(k)
        d_in = sc.total_differential(k - 1)
        if not d_out.mul(d_in).is_zero():
            raise StructuralError(f"differential does not square to zero at degree {k}")
        out_info = sc.differential_rank(k, mode)
        in_info = sc.differential_rank(k - 1, mode)
        dim = (d_out.cols - out_info.value) - in_info.value
        primes = tuple(p for p, _ in out_info.per_prime)
        agreed = out_info.agreed and in_info.agreed
        cert = "exact" if sc.certified(k) else "heuristic"
        reason = "" if cert == "exact" else (
            f"levels above {sc.max_level} may contribute near degree {k}; "
            f"compare max_level {sc.max_level} and {sc.max_level + 1}")
        out[k] = DegreeResult(dim, cert, mode.kind, primes, agreed, reason,
                              out_info.exact_fallback or in_info.exact_fallback)
    return HomologySummary(out)


class ChainMapData:
    def __init__(self, source: StandardComplex, target: StandardComplex,
                 blocks: list):
        self.source = source
        self.target = target
        self.blocks = blocks  # per level m: levels_src[m] -> levels_tgt[m]

    def check_commutes(self) -> list[str]:
        diags = []
        src, tgt = self.source, self.target
        top = min(src.max_level, tgt.max_level)
        for m in range(top + 1):
            if tgt.d1[m].mul(self.blocks[m]) != self.blocks[m].mul(src.d1[m]):
                diags.append(f"internal differential not respected at level {m}")
            if m >= 1:
                lhs = tgt.d2[m].mul(self.blocks[m])
                rhs = self.blocks[m - 1].mul(src.d2[m])
                if lhs != rhs:
                    diags.append(f"face differential not respected at level {m}")
        return diags

    def apply_block_vector(self, k, vec):
        """Push a sparse vector in source degree-k coordinates to target."""
        src = self.source.degree_block(k)
        tgt_pos = self.target.skeleton.positions(k)
        by_col = {}  # level -> {column: [(row, value), ...]}, indexed on use
        out = {}
        for j, coef in vec.items():
            m, i = src[j]
            if m not in by_col:
                index = by_col[m] = {}
                for (r, c), v in self.blocks[m].entries.items():
                    index.setdefault(c, []).append((r, v))
            for r, v in by_col[m].get(i, ()):
                key = tgt_pos.get(m, {}).get(r)
                if key is None:
                    continue
                s = out.get(key, 0) + v * coef
                if s:
                    out[key] = s
                else:
                    out.pop(key, None)
        return out


def induced_chain_map(phi: DgFunctor, alpha: NatTransform,
                      src: StandardComplex, tgt: StandardComplex,
                      check: bool = True) -> ChainMapData:
    """Chain map sending a0[a1|...|am] to (alpha_{c0} ∘ phi(a0))[phi(a1)|...]."""
    if check:
        diags = validate_nat_transform(alpha, require_closed=True)
        if diags or alpha.degree != 0:
            raise StructuralError(f"invalid coefficient transform: {diags}")
        # alpha must run from phi∘F to F'∘phi
        lhs = compose_functors(phi, src.twist)
        rhs = compose_functors(tgt.twist, phi)
        for obj in src.category.objects:
            comp = alpha.component(obj)
            for b in comp:
                bi = tgt.category.basis[b]
                if (bi.src, bi.tgt) != (lhs.apply_obj(obj), rhs.apply_obj(obj)):
                    raise StructuralError(
                        f"coefficient transform at {obj} does not run "
                        f"phi∘F -> F'∘phi")
    cat_t = tgt.category
    images = [_lin(tgt.basis_index, phi.apply_basis(b)) for b in src.basis_ids]
    coeffs = {}  # (c0, a0) -> alpha_{c0} ∘ phi(a0) on target basis ints
    blocks = []
    for m in range(src.max_level + 1):
        acc = {}
        row_of = tgt.row_of[m]
        for col, ch in enumerate(src.levels[m]):
            key = (src.objects(ch)[0], ch[0])
            if key not in coeffs:
                coeffs[key] = _lin(tgt.basis_index, cat_t.compose_lin(
                    alpha.component(key[0]),
                    phi.apply_basis(src.basis_ids[ch[0]])))
            _emit_product(acc, col, row_of,
                          [coeffs[key]] + [images[b] for b in ch[1:]], 1)
        blocks.append(SparseMatrix(len(tgt.levels[m]), len(src.levels[m]), acc))
    cm = ChainMapData(src, tgt, blocks)
    if check:
        diags = cm.check_commutes()
        if diags:
            raise StructuralError("; ".join(diags))
    return cm


def twist_endo_map(sc: StandardComplex) -> ChainMapData:
    """(F, id)_* for the complex's own twist F."""
    F = sc.twist
    alpha = NatTransform(compose_functors(F, F), compose_functors(F, F),
                         {obj: {sc.category.unit(F.apply_obj(F.apply_obj(obj))): 1}
                          for obj in sc.category.objects}, 0)
    return induced_chain_map(F, alpha, sc, sc)


def signed_chain_permutation(sc: StandardComplex, phi: DgFunctor,
                             levels=None) -> list:
    """The action a0[a1|...|am] -> phi(a0)[phi(a1)|...|phi(am)] of an
    automorphism phi that sends every basis morphism to ±1 times another.

    One pair (rows, signs) per level m, two flat lists as long as the
    level: chain i goes to signs[i] times chain rows[i], with signs[i] in
    {1, -1}.  Only the levels in `levels` (default: all) are built; the
    others are None.  This is the chain map of phi whose coefficient
    transform is the unit at F(phi(c0)); it is a chain map only when phi
    commutes with the twist F, which check_equivariant verifies.
    """
    target, sign = [], []  # basis int -> its image's basis int and sign
    for bid in sc.basis_ids:
        img = phi.apply_basis(bid)
        if len(img) != 1 or next(iter(img.values())) not in (1, -1):
            raise StructuralError(
                f"{phi.name or 'functor'} does not send {bid} to ±1 "
                f"times a basis morphism")
        ((t, v),) = img.items()
        target.append(sc.basis_index[t])
        sign.append(int(v))

    signed = -1 in sign
    wanted = range(sc.max_level + 1) if levels is None else set(levels)
    perm = []
    for m in range(sc.max_level + 1):
        if m not in wanted:
            perm.append(None)
            continue
        chains, row_of = sc.levels[m], sc.row_of[m]
        # position by position, so that the loops run inside map and zip
        slots = list(zip(*chains))
        rows = list(map(row_of.get, zip(*[map(target.__getitem__, slot)
                                          for slot in slots])))
        if None in rows:
            raise StructuralError(
                f"{phi.name or 'functor'} sends a level-{m} chain out of "
                f"the complex")
        if len(set(rows)) != len(rows):
            raise StructuralError(
                f"{phi.name or 'functor'} is not injective on level {m}")
        if signed:
            signs = list(map(prod, zip(*[map(sign.__getitem__, slot)
                                         for slot in slots])))
        else:
            signs = [1] * len(rows)
        perm.append((rows, signs))
    return perm


def check_equivariant(sc: StandardComplex, perm: list, levels=None) -> None:
    """Raise StructuralError unless the signed chain permutation `perm`
    commutes with d1 and d2: d[g r, g c] = s(r) s(c) d[r, c] for every
    nonzero entry of d1[m] and d2[m], for each m in `levels` (default:
    all).  `perm` is a bijection on each level (as signed_chain_permutation
    ensures), so this maps the nonzero entries of each block injectively
    into themselves, which makes g d = d g exact."""

    def respects(mtx, row_perm, col_perm) -> bool:
        ent = mtx.entries
        rows, row_signs = row_perm
        cols, col_signs = col_perm
        for (r, c), v in ent.items():
            if ent.get((rows[r], cols[c])) != (
                    v if row_signs[r] == col_signs[c] else -v):
                return False
        return True

    for m in range(sc.max_level + 1) if levels is None else levels:
        if not respects(sc.d1[m], perm[m], perm[m]):
            raise StructuralError(
                f"chain permutation does not commute with the internal "
                f"differential at level {m}")
        if m >= 1 and not respects(sc.d2[m], perm[m - 1], perm[m]):
            raise StructuralError(
                f"chain permutation does not commute with the face "
                f"differential at level {m}")


def homotopy_H(sc: StandardComplex) -> list[SparseMatrix]:
    """Cyclic-insertion homotopy H, one block per level k <= max_level - 1,
    mapping level k to level k + 1.

    Satisfies d1 H + H d1 = 0 and d2 H + H d2 = 1 - (F, id)_* on the levels
    where both sides are defined.
    """
    cat, F = sc.category, sc.twist
    deg, twist = sc._deg, sc._twist
    out = []
    for k in range(sc.max_level):
        acc = {}
        row_of = sc.row_of[k + 1]
        for col, ch in enumerate(sc.levels[k]):
            objs = sc.objects(ch)
            degs = [deg[b] for b in ch]  # a0, a1, ..., ak
            for j in range(k + 1):
                # move the last j bar slots (through F) in front of a0
                moved = ch[k - j + 1:]
                kept = ch[1:k - j + 1]
                moved_deg = sum(degs[k - j + 1:])
                kept_deg = sum(degs[:k - j + 1])
                sign = (-1) ** (j * k + moved_deg * kept_deg)
                # anchor object: source of the first moved slot, or c0
                anchor = objs[(k - j + 1) % (k + 1)] if j else objs[0]
                unit = sc.basis_index[cat.unit(F.apply_obj(anchor))]
                lins = ([((unit, 1),)] + [twist[s] for s in moved]
                        + [((ch[0], 1),)] + [((s, 1),) for s in kept])
                _emit_product(acc, col, row_of, lins, sign)
        out.append(SparseMatrix(len(sc.levels[k + 1]), len(sc.levels[k]), acc))
    return out


def homology_action(cm: ChainMapData, degrees, force: bool = False) -> dict:
    """Matrices of the induced map on homology, one per total degree.

    Uses exact cycle/boundary bases; refuses degrees without an exact
    truncation certificate unless force=True.
    """
    out = {}
    src, tgt = cm.source, cm.target
    for k in degrees:
        if not (src.certified(k) and tgt.certified(k)) and not force:
            raise StructuralError(
                f"degree {k} lacks an exact truncation certificate")
        reps_s, _ = src.homology_basis(k)
        coordinates = tgt.homology_coordinates(k)
        acc = {}
        for j, z in enumerate(reps_s):
            x = coordinates(cm.apply_block_vector(k, z))
            if x is None:
                raise StructuralError(
                    f"image of a cycle is not a cycle at degree {k}")
            acc.update(((i, j), v) for i, v in x.items())
        out[k] = SparseMatrix(len(tgt.homology_basis(k)[0]), len(reps_s), acc)
    return out

"""Truncated twisted Hochschild standard complexes.

Chains at level m are a coefficient morphism a0 in hom(c1, F(c0)) followed
by bar slots a_i in hom(c_{i+1}, c_i), cyclically (the last slot starts at
c0).  The complex is graded by total cohomological degree
k = (internal degree) - (level), and both differentials raise k by one.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

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
    rank_info,
    reduce_row,
    solve,
)


@dataclass(frozen=True)
class TwistSpec:
    """How the coefficient bimodule is twisted: identity, a named
    endofunctor, or a signed permutation of tensor factors."""

    kind: str = "identity"  # "identity" | "functor" | "permutation"
    n: int = 0
    permutation: tuple[int, ...] = ()
    functor_name: str = ""

    @staticmethod
    def identity():
        return TwistSpec("identity")

    @staticmethod
    def perm(n: int, p: Permutation):
        return TwistSpec("permutation", n=n, permutation=p.images)

    @staticmethod
    def functor(name: str):
        return TwistSpec("functor", functor_name=name)


def resolve_twist(c: DgCategory, spec: TwistSpec,
                  functors: dict | None = None) -> tuple[DgCategory, DgFunctor]:
    """Returns (category, endofunctor); for permutation twists the category
    is replaced by the n-th tensor power."""
    if spec.kind == "identity":
        return c, identity_functor(c)
    if spec.kind == "permutation":
        power = tensor_power(c, spec.n)
        return power, permutation_functor(c, spec.n, Permutation(spec.permutation),
                                          power=power)
    if functors is None or spec.functor_name not in functors:
        raise StructuralError(f"unknown twist functor {spec.functor_name!r}")
    return c, functors[spec.functor_name]


@dataclass(frozen=True)
class Chain:
    """Basis chain: objects (c0..cm), coefficient basis id, bar slot ids."""

    objects: tuple[str, ...]
    coeff: str
    slots: tuple[str, ...]
    degree: int  # internal degree: |coeff| + sum |slots|

    @property
    def level(self):
        return len(self.slots)


class StandardComplex:
    def __init__(self, category: DgCategory, twist: DgFunctor, max_level: int,
                 normalized: bool, twist_spec: TwistSpec | None = None):
        if max_level < 0:
            raise StructuralError("max_level must be >= 0")
        self.category = category
        self.twist = twist
        self.max_level = max_level
        self.normalized = normalized
        self.twist_spec = twist_spec
        self.levels: list[list[Chain]] = []
        self.index: list[dict[Chain, int]] = []
        self._enumerate_levels()
        self.d1: list[SparseMatrix] = [self._build_d1(m) for m in range(max_level + 1)]
        self.d2: list[SparseMatrix] = [self._build_d2(m) for m in range(max_level + 1)]
        self._block_cache: dict[int, list[tuple[int, int]]] = {}
        self._diff_cache: dict[int, SparseMatrix] = {}
        self._rank_cache: dict[tuple[int, RankMode], RankResult] = {}
        self._homology_cache: dict[int, tuple] = {}

    # -- enumeration -----------------------------------------------------

    def _slot_choices(self, src, tgt):
        ids = self.category.hom(src, tgt)
        if self.normalized:
            ids = tuple(b for b in ids if not self.category.is_unit(b))
        return ids

    def _enumerate_levels(self):
        cat, F = self.category, self.twist
        for m in range(self.max_level + 1):
            chains = []
            for objs in itertools.product(cat.objects, repeat=m + 1):
                c0 = objs[0]
                coeff_src = objs[1] if m >= 1 else objs[0]
                coeffs = cat.hom(coeff_src, F.apply_obj(c0))
                if not coeffs:
                    continue
                slot_ranges = []
                ok = True
                for i in range(1, m + 1):
                    src = objs[i + 1] if i < m else objs[0]
                    choices = self._slot_choices(src, objs[i])
                    if not choices:
                        ok = False
                        break
                    slot_ranges.append(choices)
                if not ok:
                    continue
                for coeff in coeffs:
                    base_deg = cat.deg(coeff)
                    for slots in itertools.product(*slot_ranges):
                        deg = base_deg + sum(cat.deg(s) for s in slots)
                        chains.append(Chain(objs, coeff, tuple(slots), deg))
            self.levels.append(chains)
            self.index.append({ch: i for i, ch in enumerate(chains)})

    def _emit(self, acc, col, m_target, objects, coeff_lin, slot_lins, scalar):
        """Accumulate scalar * (coeff ⊗ slots) expanded over linear
        combinations into level m_target chains; silently drops chains that
        fall outside the (normalized) catalog."""
        if not scalar:
            return
        cat = self.category
        for coeff, c0 in coeff_lin.items():
            for combo in itertools.product(*[list(l.items()) for l in slot_lins]):
                slots = tuple(b for b, _ in combo)
                if self.normalized and any(cat.is_unit(b) for b in slots):
                    continue
                val = scalar * c0
                for _, cv in combo:
                    val *= cv
                deg = cat.deg(coeff) + sum(cat.deg(s) for s in slots)
                ch = Chain(objects, coeff, slots, deg)
                row = self.index[m_target].get(ch)
                if row is None:
                    continue
                s = acc.get((row, col), 0) + val
                if s:
                    acc[(row, col)] = s
                else:
                    acc.pop((row, col), None)

    # -- differentials ---------------------------------------------------

    def _build_d1(self, m) -> SparseMatrix:
        """Internal differential with the total-complex sign (-1)^m."""
        cat = self.category
        dim = len(self.levels[m])
        acc = {}
        alt = (-1) ** m
        for col, ch in enumerate(self.levels[m]):
            one = {ch.coeff: Fraction(1)}
            slot_ids = [{s: Fraction(1)} for s in ch.slots]
            # differentiate the coefficient
            dcoeff = cat.diff_basis(ch.coeff)
            if dcoeff:
                self._emit(acc, col, m, ch.objects, dcoeff, slot_ids, Fraction(alt))
            # differentiate each slot with the Koszul prefix sign
            prefix = cat.deg(ch.coeff)
            for i, s in enumerate(ch.slots):
                ds = cat.diff_basis(s)
                if ds:
                    lins = list(slot_ids)
                    lins[i] = ds
                    self._emit(acc, col, m, ch.objects, one, lins,
                               Fraction(alt * (-1) ** prefix))
                prefix += cat.deg(s)
        return SparseMatrix(dim, dim, acc)

    def _build_d2(self, m) -> SparseMatrix:
        cat, F = self.category, self.twist
        rows = len(self.levels[m - 1]) if m >= 1 else 0
        cols = len(self.levels[m])
        if m == 0:
            return SparseMatrix(0, cols)
        acc = {}
        for col, ch in enumerate(self.levels[m]):
            objs = ch.objects
            slots = ch.slots
            # first face: compose the coefficient with the first slot
            comp = cat.compose_basis(ch.coeff, slots[0])
            if comp:
                new_objs = (objs[0],) + objs[2:]
                self._emit(acc, col, m - 1, new_objs, comp,
                           [{s: Fraction(1)} for s in slots[1:]], Fraction(1))
            # inner faces
            for i in range(1, m):
                comp = cat.compose_basis(slots[i - 1], slots[i])
                if comp:
                    new_objs = objs[:i + 1] + objs[i + 2:]
                    lins = ([{s: Fraction(1)} for s in slots[:i - 1]] + [comp]
                            + [{s: Fraction(1)} for s in slots[i + 1:]])
                    self._emit(acc, col, m - 1, new_objs,
                               {ch.coeff: Fraction(1)}, lins, Fraction((-1) ** i))
            # wrap-around face: last slot acts through the twist
            last = slots[m - 1]
            rest_deg = ch.degree - cat.deg(last)
            sign = (-1) ** (m + cat.deg(last) * rest_deg)
            new_coeff = cat.compose_lin(F.apply_basis(last),
                                        {ch.coeff: Fraction(1)})
            if new_coeff:
                new_objs = (objs[m],) + objs[1:m]
                self._emit(acc, col, m - 1, new_objs, new_coeff,
                           [{s: Fraction(1)} for s in slots[:m - 1]],
                           Fraction(sign))
        return SparseMatrix(rows, cols, acc)

    # -- total-degree bookkeeping ---------------------------------------

    def degree_block(self, k) -> list[tuple[int, int]]:
        """Global coordinates of total degree k: list of (level, local index)."""
        if k not in self._block_cache:
            coords = []
            for m, chains in enumerate(self.levels):
                for i, ch in enumerate(chains):
                    if ch.degree - m == k:
                        coords.append((m, i))
            self._block_cache[k] = coords
        return self._block_cache[k]

    def block_dim(self, k) -> int:
        return len(self.degree_block(k))

    def total_differential(self, k) -> SparseMatrix:
        """The map from total degree k to total degree k+1."""
        if k in self._diff_cache:
            return self._diff_cache[k]
        src = self.degree_block(k)
        tgt = self.degree_block(k + 1)
        tgt_pos = {coord: i for i, coord in enumerate(tgt)}
        ent = {}
        src_by_level = {}
        for j, (m, i) in enumerate(src):
            src_by_level.setdefault(m, []).append((j, i))
        for m, cols in src_by_level.items():
            local = {i: j for j, i in cols}
            for (r, c), v in self.d1[m].entries.items():
                if c in local and (m, r) in tgt_pos:
                    ent[(tgt_pos[(m, r)], local[c])] = v
            for (r, c), v in self.d2[m].entries.items():
                if c in local and (m - 1, r) in tgt_pos:
                    key = (tgt_pos[(m - 1, r)], local[c])
                    ent[key] = ent.get(key, 0) + v
        mtx = SparseMatrix(len(tgt), len(src),
                           {k_: v for k_, v in ent.items() if v})
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
        dmin, dmax = self.category.hom_degree_bounds()
        if dmax >= 1:
            return False  # level windows keep reaching every degree
        m = self.max_level + 1
        while True:
            top = (m + 1) * dmax - m
            bot = (m + 1) * dmin - m
            if top < k - 1:
                return True  # windows only descend from here on
            if bot <= k + 1 <= top or bot <= k - 1 <= top or bot <= k <= top:
                return False
            m += 1

    # -- homology basis (exact) -----------------------------------------

    def homology_basis(self, k):
        """(representatives, boundary_basis) at total degree k; vectors are
        sparse dicts over degree_block(k) coordinates.  Exact arithmetic."""
        if k in self._homology_cache:
            return self._homology_cache[k]
        d_out = self.total_differential(k)
        d_in = self.total_differential(k - 1)
        cycles = kernel_basis(d_out)
        boundaries = column_space_basis(d_in)
        # greedily extend the boundary basis by cycles to pick representatives
        pivots = {}
        for b in boundaries:
            r = dict(b)
            reduce_row(r, pivots)
            if r:
                add_pivot(r, pivots)
        reps = []
        for z in cycles:
            r = dict(z)
            reduce_row(r, pivots)
            if r:
                add_pivot(r, pivots)
                reps.append(z)
        result = (reps, boundaries)
        self._homology_cache[k] = result
        return result

def build_complex(c: DgCategory, twist, max_level: int,
                  normalized: bool = True) -> StandardComplex:
    """twist: a DgFunctor endofunctor of c, or a TwistSpec."""
    spec = None
    if isinstance(twist, TwistSpec):
        spec = twist
        cat, functor = resolve_twist(c, twist)
        c = cat
        twist = functor
    if twist.source is not c or twist.target is not c:
        if (twist.source.basis.keys() != c.basis.keys()
                or twist.target.basis.keys() != c.basis.keys()):
            raise StructuralError("twist is not an endofunctor of the category")
    return StandardComplex(c, twist, max_level, normalized, twist_spec=spec)


@dataclass(frozen=True)
class DegreeResult:
    dim: int
    certificate: str       # "exact" | "heuristic"
    mode: str              # "exact" | "modular"
    primes: tuple[int, ...] = ()
    agreed: bool = True
    reason: str = ""


@dataclass
class HomologySummary:
    degrees: dict  # total cohomological degree -> DegreeResult

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
        out[k] = DegreeResult(dim, cert, mode.kind, primes, agreed, reason)
    return HomologySummary(out)


@dataclass
class ChainMapData:
    source: StandardComplex
    target: StandardComplex
    blocks: list  # per level m: SparseMatrix levels_src[m] -> levels_tgt[m]

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
        tgt_pos = {coord: i for i, coord in enumerate(self.target.degree_block(k))}
        out = {}
        for j, coef in vec.items():
            m, i = src[j]
            for (r, c), v in self.blocks[m].entries.items():
                if c == i and (m, r) in tgt_pos:
                    key = tgt_pos[(m, r)]
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
    blocks = []
    cat_t = tgt.category
    for m in range(src.max_level + 1):
        acc = {}
        for col, ch in enumerate(src.levels[m]):
            new_objs = tuple(phi.apply_obj(o) for o in ch.objects)
            coeff_lin = cat_t.compose_lin(alpha.component(ch.objects[0]),
                                          phi.apply_basis(ch.coeff))
            slot_lins = [phi.apply_basis(s) for s in ch.slots]
            tgt._emit(acc, col, m, new_objs, coeff_lin, slot_lins, Fraction(1))
        blocks.append(SparseMatrix(len(tgt.levels[m]), len(src.levels[m]), acc))
    cm = ChainMapData(src, tgt, blocks)
    if check:
        diags = cm.check_commutes()
        if diags:
            raise StructuralError("; ".join(diags))
    return cm


def identity_chain_map(sc: StandardComplex) -> ChainMapData:
    return ChainMapData(sc, sc,
                        [SparseMatrix.identity(len(lv)) for lv in sc.levels])


def twist_endo_map(sc: StandardComplex) -> ChainMapData:
    """(F, id)_* for the complex's own twist F."""
    F = sc.twist
    alpha = NatTransform(compose_functors(F, F), compose_functors(F, F),
                         {obj: {sc.category.unit(F.apply_obj(F.apply_obj(obj))):
                                Fraction(1)}
                          for obj in sc.category.objects}, 0)
    return induced_chain_map(F, alpha, sc, sc)


def signed_chain_permutation(sc: StandardComplex, phi: DgFunctor) -> list:
    """The action a0[a1|...|am] -> phi(a0)[phi(a1)|...|phi(am)] of an
    automorphism phi that sends every basis morphism to ±1 times another.

    One list per level m: entry i is (j, s) when chain i goes to s times
    chain j.  This is the chain map of phi whose coefficient transform is
    the unit at F(phi(c0)); it is a chain map only when phi commutes with
    the twist F, which check_equivariant verifies.
    """
    images = {}

    def image(bid):
        if bid not in images:
            img = phi.apply_basis(bid)
            if len(img) != 1 or next(iter(img.values())) not in (1, -1):
                raise StructuralError(
                    f"{phi.name or 'functor'} does not send {bid} to ±1 "
                    f"times a basis morphism")
            ((t, v),) = img.items()
            images[bid] = (t, int(v))
        return images[bid]

    perm = []
    for m, chains in enumerate(sc.levels):
        index = sc.index[m]
        level = []
        for ch in chains:
            coeff, sign = image(ch.coeff)
            slots = []
            for s in ch.slots:
                t, v = image(s)
                slots.append(t)
                sign *= v
            objs = tuple(phi.apply_obj(o) for o in ch.objects)
            j = index.get(Chain(objs, coeff, tuple(slots), ch.degree))
            if j is None:
                raise StructuralError(
                    f"{phi.name or 'functor'} sends a level-{m} chain out of "
                    f"the complex")
            level.append((j, sign))
        if len({j for j, _ in level}) != len(level):
            raise StructuralError(
                f"{phi.name or 'functor'} is not injective on level {m}")
        perm.append(level)
    return perm


def check_equivariant(sc: StandardComplex, perm: list) -> None:
    """Raise StructuralError unless the signed chain permutation `perm`
    commutes with d1 and d2: d[g r, g c] = s(r) s(c) d[r, c] for every
    nonzero entry.  `perm` is a bijection on each level (as
    signed_chain_permutation ensures), so this maps the nonzero entries of
    each block injectively into themselves, which makes g d = d g exact."""

    def respects(mtx, row_perm, col_perm) -> bool:
        ent = mtx.entries
        for (r, c), v in ent.items():
            r2, sr = row_perm[r]
            c2, sc_ = col_perm[c]
            if ent.get((r2, c2)) != (v if sr == sc_ else -v):
                return False
        return True

    for m in range(sc.max_level + 1):
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
    out = []
    for k in range(sc.max_level):
        acc = {}
        for col, ch in enumerate(sc.levels[k]):
            objs = ch.objects
            all_slots = (ch.coeff,) + ch.slots  # a0, a1, ..., ak
            degs = [cat.deg(s) for s in all_slots]
            for j in range(k + 1):
                # move the last j bar slots (through F) in front of a0
                moved = ch.slots[k - j:]
                kept = ch.slots[:k - j]
                moved_deg = sum(degs[k - j + 1:])
                kept_deg = sum(degs[:k - j + 1])
                sign = (-1) ** (j * k + moved_deg * kept_deg)
                # anchor object: source of the first moved slot, or c0
                anchor = objs[(k - j + 1) % (k + 1)] if j else objs[0]
                new_objs = ((anchor, F.apply_obj(anchor))
                            + tuple(F.apply_obj(objs[(t + 1) % (k + 1)])
                                    for t in range(k - j + 1, k + 1))
                            + objs[1:k - j + 1])
                coeff_lin = {cat.unit(F.apply_obj(anchor)): Fraction(1)}
                slot_lins = ([F.apply_basis(s) for s in moved]
                             + [{ch.coeff: Fraction(1)}]
                             + [{s: Fraction(1)} for s in kept])
                sc._emit(acc, col, k + 1, new_objs, coeff_lin, slot_lins,
                         Fraction(sign))
        out.append(SparseMatrix(len(sc.levels[k + 1]), len(sc.levels[k]), acc))
    return out


def homology_action(cm: ChainMapData, degrees, mode: RankMode = EXACT,
                    force: bool = False) -> dict:
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
        reps_t, bnd_t = tgt.homology_basis(k)
        h_s, h_t = len(reps_s), len(reps_t)
        dim_t = tgt.block_dim(k)
        ncols = h_t + len(bnd_t)
        ent = {}
        for idx, v in enumerate(reps_t):
            for r, val in v.items():
                ent[(r, idx)] = val
        for idx, v in enumerate(bnd_t):
            for r, val in v.items():
                ent[(r, h_t + idx)] = val
        basis_matrix = SparseMatrix(dim_t, ncols, ent)
        acc = {}
        for j, z in enumerate(reps_s):
            img = cm.apply_block_vector(k, z)
            x = solve(basis_matrix, img)
            if x is None:
                raise StructuralError(
                    f"image of a cycle is not a cycle at degree {k}")
            for i in range(h_t):
                v = x.get(i, 0)
                if v:
                    acc[(i, j)] = v
        out[k] = SparseMatrix(h_t, h_s, acc)
    return out

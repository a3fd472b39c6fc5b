"""Module-level contraction machinery for associative algebras.

Everything here is about the two-factor case: the square A2 = A⊗A with the
factor swap, the four embeddings A^e -> A2^e, tensor-over-enveloping as an
explicit cokernel, and the kernel comparison that factors the twisted
diagonal through two one-factor contractions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .dgcore import TENSOR_SEP, DgCategory, opposite, tensor
from .qlinalg import SparseMatrix, StructuralError, add_pivot, reduce_row, rref


class FiniteAlgebra:
    """A finite-dimensional associative unital algebra, presented as a
    one-object dg category concentrated in degree 0 with zero differential."""

    def __init__(self, category: DgCategory):
        if len(category.objects) != 1:
            raise StructuralError("algebra must have exactly one object")
        if category.diff:
            raise StructuralError("algebra must have zero differential")
        for bid, info in category.basis.items():
            if info.degree != 0:
                raise StructuralError(f"basis {bid} not in degree 0")
        self.category = category
        self.basis = tuple(sorted(category.basis))
        self.index = {b: i for i, b in enumerate(self.basis)}
        self.dim = len(self.basis)
        self.unit = self.index[category.unit(category.objects[0])]

    def mult(self, i: int, j: int) -> dict:
        """Product b_i · b_j as {basis index: coefficient}."""
        out = self.category.compose_basis(self.basis[i], self.basis[j])
        return {self.index[b]: c for b, c in out.items()}

    def left_mult(self, i: int) -> SparseMatrix:
        ent = {}
        for j in range(self.dim):
            for r, v in self.mult(i, j).items():
                ent[(r, j)] = v
        return SparseMatrix(self.dim, self.dim, ent)

    def right_mult(self, i: int) -> SparseMatrix:
        ent = {}
        for j in range(self.dim):
            for r, v in self.mult(j, i).items():
                ent[(r, j)] = v
        return SparseMatrix(self.dim, self.dim, ent)


def algebra_square(a: FiniteAlgebra) -> FiniteAlgebra:
    return FiniteAlgebra(tensor(a.category, a.category))


def pair_index(a: FiniteAlgebra, sq: FiniteAlgebra, i: int, j: int) -> int:
    return sq.index[f"{a.basis[i]}{TENSOR_SEP}{a.basis[j]}"]


@dataclass
class FiniteBimodule:
    """A (B, B)-bimodule given by left/right action matrices per B basis
    element; equivalently a left (or right) B^e-module."""

    algebra: FiniteAlgebra  # B
    dim: int
    left: list  # SparseMatrix per B basis index
    right: list


def validate_bimodule(m: FiniteBimodule) -> list:
    diags = []
    b = m.algebra
    ident = SparseMatrix.identity(m.dim)
    if m.left[b.unit] != ident:
        diags.append("left unit action is not the identity")
    if m.right[b.unit] != ident:
        diags.append("right unit action is not the identity")
    for i in range(b.dim):
        for j in range(b.dim):
            prod_left = SparseMatrix.zeros(m.dim, m.dim)
            prod_right = SparseMatrix.zeros(m.dim, m.dim)
            for r, v in b.mult(i, j).items():
                prod_left = prod_left.add(m.left[r].scale(v))
                prod_right = prod_right.add(m.right[r].scale(v))
            if m.left[i].mul(m.left[j]) != prod_left:
                diags.append(f"left action not associative on ({i},{j})")
            # m·(b_i b_j) = (m·b_i)·b_j, i.e. R_j R_i = R_{ij}
            if m.right[j].mul(m.right[i]) != prod_right:
                diags.append(f"right action not associative on ({i},{j})")
            if m.left[i].mul(m.right[j]) != m.right[j].mul(m.left[i]):
                diags.append(f"left and right actions do not commute on ({i},{j})")
    return diags


def diagonal_bimodule(a: FiniteAlgebra) -> FiniteBimodule:
    return FiniteBimodule(a, a.dim,
                          [a.left_mult(i) for i in range(a.dim)],
                          [a.right_mult(i) for i in range(a.dim)])


def free_env_module(b: FiniteAlgebra) -> FiniteBimodule:
    """B^e as a bimodule over B: elements f ⊗ k', g·(f⊗k') = gf ⊗ k',
    (f⊗k')·h = f ⊗ (kh)'."""
    d = b.dim
    dim = d * d

    def build(mat_fn, on_first):
        out = []
        for g in range(d):
            base = mat_fn(g)
            ent = {}
            for (r, c), v in base.entries.items():
                for other in range(d):
                    if on_first:
                        ent[(r * d + other, c * d + other)] = v
                    else:
                        ent[(other * d + r, other * d + c)] = v
            out.append(SparseMatrix(dim, dim, ent))
        return out

    left = build(b.left_mult, True)
    right = build(b.right_mult, False)  # k -> kh on the primed factor
    return FiniteBimodule(b, dim, left, right)


def twisted_module(a: FiniteAlgebra) -> FiniteBimodule:
    """^σ(A⊗A): underlying space A2, with (g1,g2)·(a,b) = (g2 a, g1 b) and
    (a,b)·(f1,f2) = (a f1, b f2)."""
    sq = algebra_square(a)
    d = a.dim
    left = []
    right = []
    for g in range(sq.dim):
        g1, g2 = divmod(g, d)  # sq basis order matches lexicographic pairs
        l1, l2 = a.left_mult(g1), a.left_mult(g2)
        r1, r2 = a.right_mult(g1), a.right_mult(g2)
        ent_l = {}
        ent_r = {}
        for (r_, c_), v in l2.entries.items():
            for other in range(d):
                ent_l[(r_ * d + other, c_ * d + other)] = v
        # second component gets g1 on the left
        acc = SparseMatrix(sq.dim, sq.dim, ent_l)
        ent = {}
        for (r_, c_), v in l1.entries.items():
            for other in range(d):
                ent[(other * d + r_, other * d + c_)] = v
        left.append(acc.mul(SparseMatrix(sq.dim, sq.dim, ent)))
        ent = {}
        for (r_, c_), v in r1.entries.items():
            for other in range(d):
                ent[(r_ * d + other, c_ * d + other)] = v
        acc = SparseMatrix(sq.dim, sq.dim, ent)
        ent = {}
        for (r_, c_), v in r2.entries.items():
            for other in range(d):
                ent[(other * d + r_, other * d + c_)] = v
        right.append(acc.mul(SparseMatrix(sq.dim, sq.dim, ent)))
    m = FiniteBimodule(sq, sq.dim, left, right)
    diags = validate_bimodule(m)
    if diags:
        raise StructuralError(f"twisted module invalid: {diags}")
    return m


def _check_pair_order(a: FiniteAlgebra, sq: FiniteAlgebra):
    for i in range(a.dim):
        for j in range(a.dim):
            if pair_index(a, sq, i, j) != i * a.dim + j:
                raise StructuralError("tensor square basis is not lexicographic")


@dataclass
class EnvelopingEmbeddings:
    """The four maps A^e -> A2^e as 0/1 matrices on enveloping bases.

    The enveloping basis of A^e is indexed by pairs (f, g') = f*dim + g;
    that of A2^e by 4-tuples (f1, f2, f1', f2') in mixed-radix order.
    """

    algebra: FiniteAlgebra
    e11: SparseMatrix
    e12: SparseMatrix
    e21: SparseMatrix
    e22: SparseMatrix

    def all(self):
        return {"e11": self.e11, "e12": self.e12,
                "e21": self.e21, "e22": self.e22}


def _env_mult(a: FiniteAlgebra, x, y):
    """Product in A^e on sparse {pair index: coeff} vectors:
    (f⊗g')(h⊗k') = fh ⊗ (kg)'."""
    d = a.dim
    out = {}
    for p, cp in x.items():
        f, g = divmod(p, d)
        for q, cq in y.items():
            h, k = divmod(q, d)
            for r1, v1 in a.mult(f, h).items():
                for r2, v2 in a.mult(k, g).items():
                    key = r1 * d + r2
                    s = out.get(key, 0) + cp * cq * v1 * v2
                    if s:
                        out[key] = s
                    else:
                        out.pop(key, None)
    return out


def _env4_mult(a: FiniteAlgebra, x, y):
    """Product in A2^e on {4-tuple index: coeff} vectors."""
    d = a.dim
    out = {}
    for p, cp in x.items():
        p1, rest = divmod(p, d ** 3)
        p2, rest = divmod(rest, d * d)
        p3, p4 = divmod(rest, d)
        for q, cq in y.items():
            q1, rest = divmod(q, d ** 3)
            q2, rest = divmod(rest, d * d)
            q3, q4 = divmod(rest, d)
            for r1, v1 in a.mult(p1, q1).items():
                for r2, v2 in a.mult(p2, q2).items():
                    for r3, v3 in a.mult(q3, p3).items():
                        for r4, v4 in a.mult(q4, p4).items():
                            key = ((r1 * d + r2) * d + r3) * d + r4
                            s = out.get(key, 0) + cp * cq * v1 * v2 * v3 * v4
                            if s:
                                out[key] = s
                            else:
                                out.pop(key, None)
    return out


def enveloping_embeddings(a: FiniteAlgebra) -> EnvelopingEmbeddings:
    d = a.dim
    u = a.unit
    placements = {
        "e11": lambda f, g: (f, u, g, u),
        "e12": lambda f, g: (f, u, u, g),
        "e21": lambda f, g: (u, f, g, u),
        "e22": lambda f, g: (u, f, u, g),
    }
    mats = {}
    for name, place in placements.items():
        ent = {}
        for f in range(d):
            for g in range(d):
                t1, t2, t3, t4 = place(f, g)
                row = ((t1 * d + t2) * d + t3) * d + t4
                ent[(row, f * d + g)] = Fraction(1)
        mats[name] = SparseMatrix(d ** 4, d * d, ent)
    emb = EnvelopingEmbeddings(a, mats["e11"], mats["e12"],
                               mats["e21"], mats["e22"])
    # validate: unital multiplicative maps
    unit_pair = a.unit * d + a.unit
    for name, mat in emb.all().items():
        img_unit = {r: v for (r, c), v in mat.entries.items() if c == unit_pair}
        unit4 = ((u * d + u) * d + u) * d + u
        if img_unit != {unit4: Fraction(1)}:
            raise StructuralError(f"{name} does not preserve the unit")
        for x in range(d * d):
            for y in range(d * d):
                lhs = _apply_cols(mat, _env_mult(a, {x: Fraction(1)},
                                                 {y: Fraction(1)}))
                rhs = _env4_mult(a, _apply_cols(mat, {x: Fraction(1)}),
                                 _apply_cols(mat, {y: Fraction(1)}))
                if lhs != rhs:
                    raise StructuralError(
                        f"{name} is not multiplicative on ({x},{y})")
    # validate: images of e21 and e12 commute elementwise
    for x in range(d * d):
        for y in range(d * d):
            u21 = _apply_cols(emb.e21, {x: Fraction(1)})
            u12 = _apply_cols(emb.e12, {y: Fraction(1)})
            if _env4_mult(a, u21, u12) != _env4_mult(a, u12, u21):
                raise StructuralError(
                    f"images of e21 and e12 do not commute on ({x},{y})")
    return emb


def _apply_cols(mat: SparseMatrix, vec):
    return mat.apply(vec)


# -- tensor over the enveloping algebra ------------------------------------


@dataclass
class TensorOverResult:
    dim: int
    projection: SparseMatrix  # quotient coordinates of each ambient basis vector
    inclusion: SparseMatrix   # representative ambient vector per quotient basis
    relation_pivots: dict     # pivot column -> reduced relation row

    @property
    def ambient_dim(self):
        return self.projection.cols


def _quotient_from_relations(ambient_dim, rel_rows) -> TensorOverResult:
    pivots = rref(rel_rows)
    free = [c for c in range(ambient_dim) if c not in pivots]
    pos = {c: i for i, c in enumerate(free)}
    ent = {}
    for i, c in enumerate(free):
        ent[(i, c)] = Fraction(1)
    for p, row in pivots.items():
        for c, v in row.items():
            if c != p:
                ent[(pos[c], p)] = -v
    proj = SparseMatrix(len(free), ambient_dim, ent)
    inc = SparseMatrix(ambient_dim, len(free),
                       {(c, i): Fraction(1) for i, c in enumerate(free)})
    return TensorOverResult(len(free), proj, inc, pivots)


def tensor_over(n_mod: FiniteBimodule, m_mod: FiniteBimodule) -> TensorOverResult:
    """N ⊗_{B^e} M for two (B, B)-bimodules, N taken with its right B^e
    structure and M with its left one; the cokernel of the balancing map."""
    b = n_mod.algebra
    if m_mod.algebra is not b and m_mod.algebra.basis != b.basis:
        raise StructuralError("bimodules live over different algebras")
    dn, dm = n_mod.dim, m_mod.dim
    rel = []
    for f in range(b.dim):
        for g in range(b.dim):
            # n·(f⊗g') = g n f ; (f⊗g')·m = f m g
            act_n = n_mod.left[g].mul(n_mod.right[f])
            act_m = m_mod.left[f].mul(m_mod.right[g])
            cols_n = {}
            for (r, c), v in act_n.entries.items():
                cols_n.setdefault(c, {})[r] = v
            cols_m = {}
            for (r, c), v in act_m.entries.items():
                cols_m.setdefault(c, {})[r] = v
            for i in range(dn):
                for j in range(dm):
                    vec = {}
                    for r, v in cols_n.get(i, {}).items():
                        vec[r * dm + j] = vec.get(r * dm + j, 0) + v
                    for r, v in cols_m.get(j, {}).items():
                        s = vec.get(i * dm + r, 0) - v
                        if s:
                            vec[i * dm + r] = s
                        else:
                            vec.pop(i * dm + r, None)
                    if vec:
                        rel.append(vec)
    return _quotient_from_relations(dn * dm, rel)


def restrict_left(m: FiniteBimodule, a: FiniteAlgebra, which: str
                  ) -> FiniteBimodule:
    """Pull the left A2^e structure of m back along e21 or e12 to an
    (A, A)-bimodule structure."""
    d = a.dim
    if which == "e21":
        left = [m.left[a.unit * d + f] for f in range(d)]
        right = [m.right[g * d + a.unit] for g in range(d)]
    elif which == "e12":
        left = [m.left[f * d + a.unit] for f in range(d)]
        right = [m.right[a.unit * d + g] for g in range(d)]
    else:
        raise StructuralError(f"unknown restriction {which!r}")
    return FiniteBimodule(a, m.dim, left, right)


def quotient_bimodule(m: FiniteBimodule, vectors) -> FiniteBimodule:
    """Quotient of m by the sub-bimodule generated by the given sparse
    vectors (closed under both actions)."""
    gens = [dict(v) for v in vectors]
    pivots = rref(gens)
    mats = list(m.left) + list(m.right)
    changed = True
    while changed:
        changed = False
        basis_rows = [dict(r) for r in pivots.values()]
        for row in basis_rows:
            for mat in mats:
                img = mat.apply(row)
                if not img:
                    continue
                reduce_row(img, pivots)
                if img:
                    add_pivot(img, pivots)
                    changed = True
    res = _quotient_from_relations(m.dim, [dict(r) for r in pivots.values()])
    left = [res.projection.mul(l.mul(res.inclusion)) for l in m.left]
    right = [res.projection.mul(r.mul(res.inclusion)) for r in m.right]
    out = FiniteBimodule(m.algebra, res.dim, left, right)
    diags = validate_bimodule(out)
    if diags:
        raise StructuralError(f"quotient bimodule invalid: {diags}")
    return out


def random_bimodule(a: FiniteAlgebra, seed: int, generators: int = 2
                    ) -> FiniteBimodule:
    """Seeded random quotient of the free rank-1 A2^e module."""
    sq = algebra_square(a)
    free = free_env_module(sq)
    rng = random.Random(seed)
    vecs = []
    for _ in range(generators):
        vec = {i: Fraction(rng.randint(-2, 2)) for i in range(free.dim)}
        vec = {i: v for i, v in vec.items() if v}
        if vec:
            vecs.append(vec)
    return quotient_bimodule(free, vecs)


# -- the factorization check -----------------------------------------------


@dataclass
class WarmupReport:
    lhs_dim: int
    rhs_dim: int
    rank_pi: int
    rank_factored: int
    rank_union: int

    @property
    def kernels_equal(self) -> bool:
        return self.rank_pi == self.rank_factored == self.rank_union

    @property
    def ok(self):
        return self.kernels_equal and self.lhs_dim == self.rhs_dim


def warmup_factorization(a: FiniteAlgebra, m: FiniteBimodule) -> WarmupReport:
    """Compare, inside A⊗A⊗M, the kernel of the projection to
    ^σA2 ⊗_{A2^e} M with the kernel of the two-step contraction."""
    sq = algebra_square(a)
    if m.algebra.basis != sq.basis:
        raise StructuralError("bimodule must live over the square algebra")
    _check_pair_order(a, sq)
    d = a.dim
    dm = m.dim
    ambient = d * d * dm

    def add(vec, pos, val):
        s = vec.get(pos, 0) + val
        if s:
            vec[pos] = s
        else:
            vec.pop(pos, None)

    def cols(mat):
        out = {}
        for (r, c), v in mat.entries.items():
            out.setdefault(c, {})[r] = v
        return out

    rel_pi = []
    # delta((a,b) ⊗ (f1,f2,f1',f2') ⊗ m)
    for f1 in range(d):
        for f2 in range(d):
            act_m = cols(m.left[f1 * d + f2])
            for g1 in range(d):
                for g2 in range(d):
                    # (f2' a f1, f1' b f2)
                    first = a.left_mult(g2).mul(a.right_mult(f1))
                    second = a.left_mult(g1).mul(a.right_mult(f2))
                    cols_first = cols(first)
                    cols_second = cols(second)
                    act_mr = cols(m.right[g1 * d + g2])
                    for ai in range(d):
                        for bi in range(d):
                            for mi in range(dm):
                                vec = {}
                                for r1, v1 in cols_first.get(ai, {}).items():
                                    for r2, v2 in cols_second.get(bi, {}).items():
                                        add(vec, (r1 * d + r2) * dm + mi,
                                            v1 * v2)
                                for rm, vm in act_m.get(mi, {}).items():
                                    for rr, vr in act_mr.get(rm, {}).items():
                                        add(vec, (ai * d + bi) * dm + rr,
                                            -vm * vr)
                                if vec:
                                    rel_pi.append(vec)
    rel_fac = []
    m21 = restrict_left(m, a, "e21")
    m12 = restrict_left(m, a, "e12")
    for f in range(d):
        for g in range(d):
            # inner relations: a ⊗ (f' b f) ⊗ m - a ⊗ b ⊗ e21(f⊗f')m
            b_act = cols(a.left_mult(g).mul(a.right_mult(f)))
            m_act = cols(m21.left[f].mul(m21.right[g]))
            for ai in range(d):
                for bi in range(d):
                    for mi in range(dm):
                        vec = {}
                        for r, v in b_act.get(bi, {}).items():
                            add(vec, (ai * d + r) * dm + mi, v)
                        for r, v in m_act.get(mi, {}).items():
                            add(vec, (ai * d + bi) * dm + r, -v)
                        if vec:
                            rel_fac.append(vec)
            # outer relations: (f' a f) ⊗ b ⊗ m - a ⊗ b ⊗ e12(f⊗f')m
            a_act = cols(a.left_mult(g).mul(a.right_mult(f)))
            m_act2 = cols(m12.left[f].mul(m12.right[g]))
            for ai in range(d):
                for bi in range(d):
                    for mi in range(dm):
                        vec = {}
                        for r, v in a_act.get(ai, {}).items():
                            add(vec, (r * d + bi) * dm + mi, v)
                        for r, v in m_act2.get(mi, {}).items():
                            add(vec, (ai * d + bi) * dm + r, -v)
                        if vec:
                            rel_fac.append(vec)
    piv_pi = rref(rel_pi)
    piv_fac = rref(rel_fac)
    piv_union = rref([dict(r) for r in piv_pi.values()]
                     + [dict(r) for r in piv_fac.values()])
    return WarmupReport(
        lhs_dim=ambient - len(piv_pi),
        rhs_dim=ambient - len(piv_fac),
        rank_pi=len(piv_pi),
        rank_factored=len(piv_fac),
        rank_union=len(piv_union),
    )

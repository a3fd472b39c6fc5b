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
from functools import reduce

from .bases import add_pivot, reduce_row, rref
from .dgcore import DgCategory, _tensor_id, tensor
from .qlinalg import SparseMatrix, StructuralError


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
    return sq.index[_tensor_id(a.basis[i], a.basis[j])]


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
            prod_left = SparseMatrix(m.dim, m.dim)
            prod_right = SparseMatrix(m.dim, m.dim)
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
    ident = SparseMatrix.identity(b.dim)
    left = [b.left_mult(g).kron(ident) for g in range(b.dim)]
    # k -> kh on the primed factor
    right = [ident.kron(b.right_mult(h)) for h in range(b.dim)]
    return FiniteBimodule(b, b.dim * b.dim, left, right)


def twisted_module(a: FiniteAlgebra) -> FiniteBimodule:
    """^σ(A⊗A): underlying space A2, with (g1,g2)·(a,b) = (g2 a, g1 b) and
    (a,b)·(f1,f2) = (a f1, b f2)."""
    sq = algebra_square(a)
    d = a.dim
    # sq basis order matches lexicographic pairs, g = (g1, g2); the second
    # component gets g1 on the left
    pairs = [divmod(g, d) for g in range(sq.dim)]
    left = [a.left_mult(g2).kron(a.left_mult(g1)) for g1, g2 in pairs]
    right = [a.right_mult(g1).kron(a.right_mult(g2)) for g1, g2 in pairs]
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


def _env_mult(a: FiniteAlgebra, sides, x, y):
    """Product x·y in an enveloping algebra of A on sparse {index: coeff}
    vectors, an index running over the basis tuples of its factors in
    lexicographic order.  `sides` holds FiniteAlgebra.left_mult for each
    factor A and FiniteAlgebra.right_mult for each factor A^op, so that a
    basis element acts on y by the Kronecker product of its factors'
    multiplications: in A^e, (f⊗g')(h⊗k') = fh ⊗ (kg)'."""
    dim = a.dim ** len(sides)
    act = SparseMatrix(dim, dim)
    for p, c in x.items():
        factors = []
        for mult in reversed(sides):  # the last factor varies fastest
            p, i = divmod(p, a.dim)
            factors.insert(0, mult(a, i))
        act = act.add(reduce(SparseMatrix.kron, factors).scale(c))
    return act.apply(y)


# the factors of A^e = A⊗A^op and of A2^e = A⊗A⊗A^op⊗A^op, for _env_mult
_ENV = (FiniteAlgebra.left_mult, FiniteAlgebra.right_mult)
_ENV2 = (FiniteAlgebra.left_mult,) * 2 + (FiniteAlgebra.right_mult,) * 2


def enveloping_embeddings(a: FiniteAlgebra) -> EnvelopingEmbeddings:
    d = a.dim
    u = a.unit
    ident = SparseMatrix.identity(d)
    unit = SparseMatrix(d, 1, {(u, 0): 1})  # the unit as a column
    # f⊗g' goes to slots (1, 1'), (1, 2'), (2, 1') or (2, 2') of
    # (f1, f2, f1', f2'), with the unit in the other two
    emb = EnvelopingEmbeddings(
        a, *(reduce(SparseMatrix.kron, slots) for slots in (
            (ident, unit, ident, unit), (ident, unit, unit, ident),
            (unit, ident, ident, unit), (unit, ident, unit, ident))))
    # validate: unital multiplicative maps
    unit_pair = a.unit * d + a.unit
    for name, mat in emb.all().items():
        img_unit = mat.transpose().by_row.get(unit_pair, {})
        unit4 = ((u * d + u) * d + u) * d + u
        if img_unit != {unit4: Fraction(1)}:
            raise StructuralError(f"{name} does not preserve the unit")
        for x in range(d * d):
            for y in range(d * d):
                lhs = mat.apply(_env_mult(a, _ENV, {x: Fraction(1)},
                                          {y: Fraction(1)}))
                rhs = _env_mult(a, _ENV2, mat.apply({x: Fraction(1)}),
                                mat.apply({y: Fraction(1)}))
                if lhs != rhs:
                    raise StructuralError(
                        f"{name} is not multiplicative on ({x},{y})")
    # validate: images of e21 and e12 commute elementwise
    for x in range(d * d):
        for y in range(d * d):
            u21 = emb.e21.apply({x: Fraction(1)})
            u12 = emb.e12.apply({y: Fraction(1)})
            if _env_mult(a, _ENV2, u21, u12) != _env_mult(a, _ENV2, u12, u21):
                raise StructuralError(
                    f"images of e21 and e12 do not commute on ({x},{y})")
    return emb


# -- tensor over the enveloping algebra ------------------------------------


@dataclass
class TensorOverResult:
    dim: int
    projection: SparseMatrix  # quotient coordinates of each ambient basis vector
    inclusion: SparseMatrix   # representative ambient vector per quotient basis


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
    return TensorOverResult(len(free), proj, inc)


def _relations(rel: list, left: SparseMatrix, right: SparseMatrix) -> None:
    """Append to rel the relations left(x) = right(x), one per basis vector
    x of the common source: the nonzero columns of left - right."""
    rel.extend(left.sub(right).transpose().by_row.values())


def tensor_over(n_mod: FiniteBimodule, m_mod: FiniteBimodule) -> TensorOverResult:
    """N ⊗_{B^e} M for two (B, B)-bimodules, N taken with its right B^e
    structure and M with its left one; the cokernel of the balancing map."""
    b = n_mod.algebra
    if m_mod.algebra is not b and m_mod.algebra.basis != b.basis:
        raise StructuralError("bimodules live over different algebras")
    id_n = SparseMatrix.identity(n_mod.dim)
    id_m = SparseMatrix.identity(m_mod.dim)
    rel = []
    for f in range(b.dim):
        for g in range(b.dim):
            # n·(f⊗g') = g n f ; (f⊗g')·m = f m g
            act_n = n_mod.left[g].mul(n_mod.right[f])
            act_m = m_mod.left[f].mul(m_mod.right[g])
            _relations(rel, act_n.kron(id_m), id_n.kron(act_m))
    return _quotient_from_relations(n_mod.dim * m_mod.dim, rel)


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


def random_bimodule(a: FiniteAlgebra, seed: int) -> FiniteBimodule:
    """Seeded random quotient of the free rank-1 A2^e module by two random
    vectors."""
    sq = algebra_square(a)
    free = free_env_module(sq)
    rng = random.Random(seed)
    vecs = []
    for _ in range(2):
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
    ambient = d * d * m.dim
    id_a, id_m = SparseMatrix.identity(d), SparseMatrix.identity(m.dim)
    id_aa = SparseMatrix.identity(d * d)
    rel_pi = []
    # delta((a,b) ⊗ (f1,f2,f1',f2') ⊗ m)
    for f1 in range(d):
        for f2 in range(d):
            act_m = m.left[f1 * d + f2]
            for g1 in range(d):
                for g2 in range(d):
                    # (f2' a f1, f1' b f2)
                    first = a.left_mult(g2).mul(a.right_mult(f1))
                    second = a.left_mult(g1).mul(a.right_mult(f2))
                    _relations(rel_pi, first.kron(second).kron(id_m),
                               id_aa.kron(m.right[g1 * d + g2].mul(act_m)))
    rel_fac = []
    m21 = restrict_left(m, a, "e21")
    m12 = restrict_left(m, a, "e12")
    for f in range(d):
        for g in range(d):
            act = a.left_mult(g).mul(a.right_mult(f))
            # inner relations: a ⊗ (f' b f) ⊗ m - a ⊗ b ⊗ e21(f⊗f')m
            _relations(rel_fac, id_a.kron(act).kron(id_m),
                       id_aa.kron(m21.left[f].mul(m21.right[g])))
            # outer relations: (f' a f) ⊗ b ⊗ m - a ⊗ b ⊗ e12(f⊗f')m
            _relations(rel_fac, act.kron(id_a).kron(id_m),
                       id_aa.kron(m12.left[f].mul(m12.right[g])))
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

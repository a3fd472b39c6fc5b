"""Finite presentations of small dg categories, dg functors and natural
transformations.

A category is presented by graded hom bases, sparse composition structure
constants and a degree +1 differential.  Basis identifiers are strings;
tensor constructions join identifiers with the reserved separator "⊗" so
that iterated tensor powers flatten automatically.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from fractions import Fraction

TENSOR_SEP = "⊗"

LinComb = dict  # basis id -> Fraction


def lin_add(a: LinComb, b: LinComb) -> LinComb:
    out = dict(a)
    for k, v in b.items():
        s = out.get(k, 0) + v
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def lin_scale(a: LinComb, c) -> LinComb:
    c = Fraction(c)
    if not c:
        return {}
    return {k: c * v for k, v in a.items()}


class BasisInfo(namedtuple("BasisInfo", "src tgt degree")):
    __slots__ = ()


class DgCategory:
    """Small dg category given by bases, structure constants and diff.

    compose maps a pair (g, f) with f: a->b, g: b->c to the linear
    combination representing g∘f in hom(a, c).  Pairs involving units may
    be omitted (the unit law is then implied); any other omitted pair
    composes to zero.
    """

    def __init__(self, objects, basis, units, compose, diff, name=""):
        self.objects = tuple(objects)
        self.basis = dict(basis)  # id -> BasisInfo
        self.units = dict(units)  # object -> basis id
        self.compose = {k: {b: Fraction(c) for b, c in v.items() if c}
                        for k, v in compose.items()}
        self.compose = {k: v for k, v in self.compose.items() if v}
        self.diff = {k: {b: Fraction(c) for b, c in v.items() if c}
                     for k, v in diff.items()}
        self.diff = {k: v for k, v in self.diff.items() if v}
        self.name = name
        homs = {}
        for bid in sorted(self.basis):
            info = self.basis[bid]
            homs.setdefault((info.src, info.tgt), []).append(bid)
        self._homs = {k: tuple(v) for k, v in homs.items()}
        self._unit_set = frozenset(self.units.values())

    # -- lookups ---------------------------------------------------------

    def hom(self, src, tgt):
        return self._homs.get((src, tgt), ())

    def deg(self, bid) -> int:
        return self.basis[bid].degree

    def unit(self, obj) -> str:
        return self.units[obj]

    def is_unit(self, bid) -> bool:
        return bid in self._unit_set

    def hom_degree_bounds(self):
        degs = [i.degree for i in self.basis.values()]
        return (min(degs), max(degs)) if degs else (0, 0)

    # -- composition and differential -----------------------------------

    def compose_basis(self, g, f) -> LinComb:
        """g∘f on basis elements (f applied first)."""
        key = (g, f)
        if key in self.compose:
            return dict(self.compose[key])
        if self.is_unit(g) and self.basis[g].src == self.basis[f].tgt:
            return {f: Fraction(1)}
        if self.is_unit(f) and self.basis[f].tgt == self.basis[g].src:
            return {g: Fraction(1)}
        return {}

    def compose_lin(self, g: LinComb, f: LinComb) -> LinComb:
        out = {}
        for gb, gc in g.items():
            for fb, fc in f.items():
                if self.basis[fb].tgt != self.basis[gb].src:
                    continue
                for b, c in self.compose_basis(gb, fb).items():
                    s = out.get(b, 0) + gc * fc * c
                    if s:
                        out[b] = s
                    else:
                        out.pop(b, None)
        return out

    def diff_basis(self, bid) -> LinComb:
        return dict(self.diff.get(bid, {}))

    def diff_lin(self, x: LinComb) -> LinComb:
        out = {}
        for b, c in x.items():
            for db, dc in self.diff.get(b, {}).items():
                s = out.get(db, 0) + c * dc
                if s:
                    out[db] = s
                else:
                    out.pop(db, None)
        return out

    def composable_pairs(self):
        for g, gi in self.basis.items():
            for f, fi in self.basis.items():
                if fi.tgt == gi.src:
                    yield g, f

    def __repr__(self):
        return (f"DgCategory({self.name or 'anon'}: {len(self.objects)} objects, "
                f"{len(self.basis)} basis morphisms)")


def validate_category(c: DgCategory) -> list[str]:
    """Empty list iff all dg category axioms hold on the presentation."""
    diags = []
    if len(set(c.objects)) != len(c.objects):
        diags.append("duplicate object identifiers")
    for bid, info in c.basis.items():
        if info.src not in c.objects or info.tgt not in c.objects:
            diags.append(f"basis {bid}: endpoint not an object")
    for obj in c.objects:
        uid = c.units.get(obj)
        if uid is None:
            diags.append(f"object {obj}: missing unit")
            continue
        info = c.basis.get(uid)
        if info is None or (info.src, info.tgt) != (obj, obj):
            diags.append(f"unit {uid} of {obj}: not an endomorphism basis element")
            continue
        if info.degree != 0:
            diags.append(f"unit {uid} of {obj}: degree {info.degree} != 0")
        if c.diff_basis(uid):
            diags.append(f"unit {uid} of {obj}: differential is nonzero")
    # composition table shape and degrees
    for (g, f), result in c.compose.items():
        if g not in c.basis or f not in c.basis:
            diags.append(f"compose ({g},{f}): unknown basis element")
            continue
        gi, fi = c.basis[g], c.basis[f]
        if fi.tgt != gi.src:
            diags.append(f"compose ({g},{f}): pair is not composable")
            continue
        for b, coeff in result.items():
            bi = c.basis.get(b)
            if bi is None or (bi.src, bi.tgt) != (fi.src, gi.tgt):
                diags.append(f"compose ({g},{f}): term {b} in wrong hom space")
            elif bi.degree != fi.degree + gi.degree:
                diags.append(f"compose ({g},{f}): term {b} has degree "
                             f"{bi.degree} != {fi.degree + gi.degree}")
    # differential shape and degree
    for bid, result in c.diff.items():
        if bid not in c.basis:
            diags.append(f"diff {bid}: unknown basis element")
            continue
        info = c.basis[bid]
        for b, coeff in result.items():
            bi = c.basis.get(b)
            if bi is None or (bi.src, bi.tgt) != (info.src, info.tgt):
                diags.append(f"diff {bid}: term {b} in wrong hom space")
            elif bi.degree != info.degree + 1:
                diags.append(f"diff {bid}: term {b} not of degree +1")
    if diags:
        return diags  # structural problems make the law checks unreliable
    # d^2 = 0
    for bid in c.basis:
        if c.diff_lin(c.diff_basis(bid)):
            diags.append(f"d∘d != 0 on {bid}")
    # unit laws
    for bid, info in c.basis.items():
        if c.compose_basis(c.unit(info.tgt), bid) != {bid: Fraction(1)}:
            diags.append(f"left unit law fails on {bid}")
        if c.compose_basis(bid, c.unit(info.src)) != {bid: Fraction(1)}:
            diags.append(f"right unit law fails on {bid}")
    # Leibniz rule
    for g, f in c.composable_pairs():
        lhs = c.diff_lin(c.compose_basis(g, f))
        rhs = lin_add(c.compose_lin(c.diff_basis(g), {f: Fraction(1)}),
                      lin_scale(c.compose_lin({g: Fraction(1)}, c.diff_basis(f)),
                                (-1) ** c.deg(g)))
        if lhs != rhs:
            diags.append(f"Leibniz rule fails on ({g},{f})")
    # associativity
    for h, hi in c.basis.items():
        for g, gi in c.basis.items():
            if gi.tgt != hi.src:
                continue
            for f, fi in c.basis.items():
                if fi.tgt != gi.src:
                    continue
                lhs = c.compose_lin(c.compose_basis(h, g), {f: Fraction(1)})
                rhs = c.compose_lin({h: Fraction(1)}, c.compose_basis(g, f))
                if lhs != rhs:
                    diags.append(f"associativity fails on ({h},{g},{f})")
    return diags


def opposite(c: DgCategory) -> DgCategory:
    """Same bases with hom directions reversed; composition picks up the
    sign (-1)^{|f||g|}."""
    basis = {bid: BasisInfo(info.tgt, info.src, info.degree)
             for bid, info in c.basis.items()}
    compose = {}
    for (g, f), result in c.compose.items():
        sign = (-1) ** (c.deg(f) * c.deg(g))
        compose[(f, g)] = {b: sign * v for b, v in result.items()}
    return DgCategory(c.objects, basis, c.units, compose, c.diff,
                      name=f"{c.name}^op" if c.name else "")


def _tensor_id(a_id, b_id):
    return f"{a_id}{TENSOR_SEP}{b_id}"


def tensor(a: DgCategory, b: DgCategory) -> DgCategory:
    """Tensor product category with the Koszul interchange sign
    (f⊗g)∘(f'⊗g') = (-1)^{|g||f'|}(f∘f')⊗(g∘g')."""
    objects = [_tensor_id(oa, ob) for oa in a.objects for ob in b.objects]
    basis = {}
    for fa, ia in a.basis.items():
        for fb, ib in b.basis.items():
            basis[_tensor_id(fa, fb)] = BasisInfo(
                _tensor_id(ia.src, ib.src), _tensor_id(ia.tgt, ib.tgt),
                ia.degree + ib.degree)
    units = {_tensor_id(oa, ob): _tensor_id(a.unit(oa), b.unit(ob))
             for oa in a.objects for ob in b.objects}
    compose = {}
    for ga, fa in a.composable_pairs():
        res_a = a.compose_basis(ga, fa)
        if not res_a:
            continue
        for gb, fb in b.composable_pairs():
            res_b = b.compose_basis(gb, fb)
            if not res_b:
                continue
            sign = (-1) ** (b.deg(gb) * a.deg(fa))
            result = {}
            for ba, ca in res_a.items():
                for bb, cb in res_b.items():
                    result[_tensor_id(ba, bb)] = sign * ca * cb
            compose[(_tensor_id(ga, gb), _tensor_id(fa, fb))] = result
    diff = {}
    for fa, ia in a.basis.items():
        da = a.diff_basis(fa)
        for fb, ib in b.basis.items():
            db = b.diff_basis(fb)
            result = {}
            for t, cdt in da.items():
                result[_tensor_id(t, fb)] = cdt
            sgn = (-1) ** ia.degree
            for t, cdt in db.items():
                key = _tensor_id(fa, t)
                result[key] = result.get(key, 0) + sgn * cdt
            result = {k: v for k, v in result.items() if v}
            if result:
                diff[_tensor_id(fa, fb)] = result
    name = f"{a.name}{TENSOR_SEP}{b.name}" if a.name and b.name else ""
    return DgCategory(objects, basis, units, compose, diff, name=name)


def tensor_power(c: DgCategory, n: int) -> DgCategory:
    if n < 1:
        raise ValueError("tensor_power needs n >= 1")
    for bid in itertools.chain(c.basis, c.objects):
        if TENSOR_SEP in bid:
            raise ValueError(
                f"identifier {bid!r} contains the reserved separator {TENSOR_SEP!r}")
    out = c
    for _ in range(n - 1):
        out = tensor(out, c)
    return out


class Permutation(namedtuple("Permutation", "images")):
    """Permutation of {0..n-1}; images[i] = h(i).  compose(a, b) applies b
    first: (a*b)(i) = a(b(i))."""

    __slots__ = ()

    def __new__(cls, images):
        if sorted(images) != list(range(len(images))):
            raise ValueError(f"not a permutation: {images}")
        return super().__new__(cls, images)

    @property
    def n(self):
        return len(self.images)

    def __call__(self, i):
        return self.images[i]

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for i, j in enumerate(self.images):
            inv[j] = i
        return Permutation(tuple(inv))

    def after(self, other: "Permutation") -> "Permutation":
        """self ∘ other: apply other first."""
        return Permutation(tuple(self.images[other.images[i]] for i in range(self.n)))

    @staticmethod
    def identity(n) -> "Permutation":
        return Permutation(tuple(range(n)))

    @staticmethod
    def from_cycles(n, cycles) -> "Permutation":
        """Cycles in 1-based notation, e.g. [(1, 2), (3, 4, 5)]."""
        images = list(range(n))
        for cyc in cycles:
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                images[a - 1] = b - 1
        return Permutation(tuple(images))


class DgFunctor:
    def __init__(self, source: DgCategory, target: DgCategory, obj_map, hom_map,
                 name=""):
        self.source = source
        self.target = target
        self.obj_map = dict(obj_map)
        self.hom_map = {k: {b: Fraction(c) for b, c in v.items() if c}
                        for k, v in hom_map.items()}
        self.name = name

    def apply_obj(self, obj):
        return self.obj_map[obj]

    def apply_basis(self, bid) -> LinComb:
        return dict(self.hom_map.get(bid, {}))

    def apply_lin(self, x: LinComb) -> LinComb:
        out = {}
        for b, c in x.items():
            for t, ct in self.hom_map.get(b, {}).items():
                s = out.get(t, 0) + c * ct
                if s:
                    out[t] = s
                else:
                    out.pop(t, None)
        return out

    def __repr__(self):
        return f"DgFunctor({self.name or 'anon'})"


def identity_functor(c: DgCategory) -> DgFunctor:
    return DgFunctor(c, c, {o: o for o in c.objects},
                     {b: {b: Fraction(1)} for b in c.basis}, name="id")


def validate_functor(f: DgFunctor) -> list[str]:
    diags = []
    src, tgt = f.source, f.target
    for obj in src.objects:
        if f.obj_map.get(obj) not in tgt.objects:
            diags.append(f"object map misses {obj}")
    if diags:
        return diags
    for bid, info in src.basis.items():
        img = f.apply_basis(bid)
        for t, c in img.items():
            ti = tgt.basis.get(t)
            if ti is None:
                diags.append(f"F({bid}): unknown target basis {t}")
            elif (ti.src, ti.tgt) != (f.apply_obj(info.src), f.apply_obj(info.tgt)):
                diags.append(f"F({bid}): term {t} in wrong hom space")
            elif ti.degree != info.degree:
                diags.append(f"F({bid}): term {t} changes degree")
    if diags:
        return diags
    for obj in src.objects:
        if f.apply_basis(src.unit(obj)) != {tgt.unit(f.apply_obj(obj)): Fraction(1)}:
            diags.append(f"unit of {obj} not preserved")
    for g, h in src.composable_pairs():
        lhs = f.apply_lin(src.compose_basis(g, h))
        rhs = tgt.compose_lin(f.apply_basis(g), f.apply_basis(h))
        if lhs != rhs:
            diags.append(f"composition not preserved on ({g},{h})")
    for bid in src.basis:
        if f.apply_lin(src.diff_basis(bid)) != tgt.diff_lin(f.apply_basis(bid)):
            diags.append(f"differential not preserved on {bid}")
    return diags


def compose_functors(f: DgFunctor, g: DgFunctor) -> DgFunctor:
    """f ∘ g (g applied first)."""
    if g.target is not f.source and g.target.basis.keys() != f.source.basis.keys():
        raise ValueError("functors not composable")
    obj_map = {o: f.apply_obj(g.apply_obj(o)) for o in g.source.objects}
    hom_map = {b: f.apply_lin(g.apply_basis(b)) for b in g.source.basis}
    return DgFunctor(g.source, f.target, obj_map, hom_map,
                     name=f"{f.name}∘{g.name}" if f.name and g.name else "")


def functor_equal(f: DgFunctor, g: DgFunctor) -> bool:
    return (f.obj_map == g.obj_map
            and all(f.apply_basis(b) == g.apply_basis(b) for b in f.source.basis))


def permutation_functor(c: DgCategory, n: int, h, power: DgCategory
                        ) -> DgFunctor:
    """Signed permutation of tensor factors of `power`, the n-th tensor
    power of c.

    Factor i of the input goes to position h(i) of the output, with the
    Koszul sign of rearranging graded elements.
    """
    if not isinstance(h, Permutation):
        h = Permutation(tuple(h))
    if h.n != n:
        raise ValueError(f"permutation degree {h.n} != {n}")
    hinv = h.inverse()
    obj_map = {}
    for obj in power.objects:
        parts = obj.split(TENSOR_SEP)
        obj_map[obj] = TENSOR_SEP.join(parts[hinv(j)] for j in range(n))
    hom_map = {}
    for bid in power.basis:
        parts = bid.split(TENSOR_SEP)
        degs = [c.deg(p) for p in parts]
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if h(i) > h(j) and (degs[i] * degs[j]) % 2:
                    sign = -sign
        new_id = TENSOR_SEP.join(parts[hinv(j)] for j in range(n))
        hom_map[bid] = {new_id: Fraction(sign)}
    return DgFunctor(power, power, obj_map, hom_map,
                     name=f"perm{h.images}")


def tensor_functor(f: DgFunctor, g: DgFunctor,
                   source: DgCategory, target: DgCategory) -> DgFunctor:
    """F⊗G acting slotwise on a tensor category built from f.source, g.source."""
    obj_map = {}
    for obj in source.objects:
        # split at the boundary between f.source objects and g.source objects
        for oa in f.source.objects:
            pref = oa + TENSOR_SEP
            if obj.startswith(pref) and obj[len(pref):] in g.source.objects:
                obj_map[obj] = _tensor_id(f.apply_obj(oa), g.apply_obj(obj[len(pref):]))
                break
        else:
            raise ValueError(f"cannot factor object {obj}")
    hom_map = {}
    for bid in source.basis:
        for fa in f.source.basis:
            pref = fa + TENSOR_SEP
            if bid.startswith(pref) and bid[len(pref):] in g.source.basis:
                fb = bid[len(pref):]
                out = {}
                for ta, ca in f.apply_basis(fa).items():
                    for tb, cb in g.apply_basis(fb).items():
                        out[_tensor_id(ta, tb)] = ca * cb
                hom_map[bid] = out
                break
        else:
            raise ValueError(f"cannot factor basis element {bid}")
    return DgFunctor(source, target, obj_map, hom_map, name="tensor")


class NatTransform:
    """Pre-natural transformation between parallel dg functors."""

    def __init__(self, src: DgFunctor, dst: DgFunctor, components, degree=0):
        self.src = src
        self.dst = dst
        self.components = {k: {b: Fraction(c) for b, c in v.items() if c}
                           for k, v in components.items()}
        self.degree = degree

    def component(self, obj) -> LinComb:
        return dict(self.components.get(obj, {}))


def identity_nat(f: DgFunctor) -> NatTransform:
    comps = {obj: {f.target.unit(f.apply_obj(obj)): Fraction(1)}
             for obj in f.source.objects}
    return NatTransform(f, f, comps, 0)


def validate_nat_transform(a: NatTransform) -> list[str]:
    """Empty list iff every component is a closed morphism of the right
    hom space and degree, natural in the source's basis morphisms."""
    diags = []
    F, G = a.src, a.dst
    tgt = F.target
    for obj in F.source.objects:
        comp = a.component(obj)
        for b, c in comp.items():
            bi = tgt.basis.get(b)
            if bi is None or (bi.src, bi.tgt) != (F.apply_obj(obj), G.apply_obj(obj)):
                diags.append(f"component at {obj}: term {b} in wrong hom space")
            elif bi.degree != a.degree:
                diags.append(f"component at {obj}: term {b} has wrong degree")
        if tgt.diff_lin(comp):
            diags.append(f"component at {obj} is not closed")
    if diags:
        return diags
    for bid, info in F.source.basis.items():
        lhs = tgt.compose_lin(a.component(info.tgt), F.apply_basis(bid))
        rhs = lin_scale(tgt.compose_lin(G.apply_basis(bid), a.component(info.src)),
                        (-1) ** (a.degree * info.degree))
        if lhs != rhs:
            diags.append(f"naturality fails on {bid}")
    return diags


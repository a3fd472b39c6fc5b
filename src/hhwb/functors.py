"""Functor algebra: validation, composition, equality and tensor
products of dg functors, natural transformations, and opposite
categories.

Neither compute nor decompose runs any of it: validate reads
validate_functor, and the chain maps and Künneth read the rest, so no
verb's start-up compiles this module.
"""

from __future__ import annotations

from .dgcore import (
    TENSOR_SEP,
    BasisInfo,
    DgCategory,
    DgFunctor,
    LinComb,
    _tensor_id,
    koszul_sign,
    lin_coeffs,
    lin_scale,
)


def opposite(c: DgCategory) -> DgCategory:
    """Same bases with hom directions reversed; composition picks up the
    sign (-1)^{|f||g|}."""
    basis = {bid: BasisInfo(info.tgt, info.src, info.degree)
             for bid, info in c.basis.items()}
    compose = {}
    for (g, f), result in c.compose.items():
        sign = koszul_sign(c.deg(f) * c.deg(g))
        compose[(f, g)] = {b: sign * v for b, v in result.items()}
    return DgCategory(c.objects, basis, c.units, compose, c.diff,
                      name=f"{c.name}^op" if c.name else "")


def validate_functor(f: DgFunctor) -> list[str]:
    """Empty list iff f maps exactly the source's objects and basis
    morphisms, into hom spaces of the target, preserving degrees, units,
    composition and the differential."""
    src, tgt = f.source, f.target
    diags = [f"object map names unknown object {obj}"
             for obj in f.obj_map if obj not in src.objects]
    diags += [f"hom map names unknown basis {bid}"
              for bid in f.hom_map if bid not in src.basis]
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
        if f.apply_basis(src.unit(obj)) != {tgt.unit(f.apply_obj(obj)): 1}:
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
        self.components = {k: lin_coeffs(v) for k, v in components.items()}
        self.degree = degree

    def component(self, obj) -> LinComb:
        return dict(self.components.get(obj, {}))


def identity_nat(f: DgFunctor) -> NatTransform:
    comps = {obj: {f.target.unit(f.apply_obj(obj)): 1}
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
                        koszul_sign(a.degree * info.degree))
        if lhs != rhs:
            diags.append(f"naturality fails on {bid}")
    return diags

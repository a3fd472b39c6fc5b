"""Reference computations that only the tests use.

Each one recomputes, by a direct and slower route, something the library
computes another way, or builds a fixture the library never needs.  None
of them is on a command-line path, so they live here rather than in
``hhwb``.
"""

from __future__ import annotations

from hhwb import decomposition
from hhwb.decomposition import Partition, _lambda_complex, _reach, _window
from hhwb.dgcore import (
    DgCategory,
    DgFunctor,
    NatTransform,
    Permutation,
    compose_functors,
)
from hhwb.hochschild import (
    ChainMapData,
    HomologySummary,
    StandardComplex,
    total_homology,
)
from hhwb.qlinalg import EXACT, RankMode, SparseMatrix, StructuralError, rank

# -- dgcore ------------------------------------------------------------------


def star_transform(phi1: DgFunctor, alpha1: NatTransform,
                   phi2: DgFunctor, alpha2: NatTransform,
                   src: DgFunctor | None = None,
                   dst: DgFunctor | None = None) -> NatTransform:
    """Composite coefficient transform for stacked twisted-coefficient maps:
    (α1 ⋆ α2)_c = (α1)_{φ2(c)} ∘ φ1((α2)_c)."""
    comps = {}
    tgt = phi1.target
    for obj in phi2.source.objects:
        comps[obj] = tgt.compose_lin(alpha1.component(phi2.apply_obj(obj)),
                                     phi1.apply_lin(alpha2.component(obj)))
    phi = compose_functors(phi1, phi2)
    return NatTransform(src or phi, dst or phi, comps,
                        alpha1.degree + alpha2.degree)


# -- qlinalg -----------------------------------------------------------------


def homology_dimension(d_in: SparseMatrix, d_out: SparseMatrix,
                       mode: RankMode = EXACT) -> int:
    """dim ker(d_out) - rank(d_in) for a two-step complex d_in, then d_out."""
    if d_in.rows != d_out.cols:
        raise StructuralError(
            f"levels do not compose: d_in lands in dim {d_in.rows}, "
            f"d_out starts from dim {d_out.cols}")
    if not d_out.mul(d_in).is_zero():
        raise StructuralError("d_out . d_in != 0: not a complex at this level")
    dim_ker = d_out.cols - rank(d_out, mode)
    return dim_ker - rank(d_in, mode)


# -- hochschild --------------------------------------------------------------


def identity_chain_map(sc: StandardComplex) -> ChainMapData:
    return ChainMapData(sc, sc,
                        [SparseMatrix.identity(len(lv)) for lv in sc.levels])


# -- decomposition -----------------------------------------------------------


def group_closure(generators, n: int) -> list:
    """All products of the generators (plus the identity), by closure."""
    ident = Permutation.identity(n)
    seen = {ident.images: ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for g in frontier:
            for s in generators:
                h = s.after(g)
                if h.images not in seen:
                    seen[h.images] = h
                    nxt.append(h)
        frontier = nxt
    return sorted(seen.values(), key=lambda p: p.images)


def twisted_summand_dims(c: DgCategory, n: int, lam: Partition, degrees,
                         max_level: int, normalized: bool = True,
                         mode: RankMode = EXACT) -> HomologySummary:
    """Homology of the n-th tensor power twisted by σ_λ, before invariants."""
    if lam.n != n:
        raise StructuralError(f"{lam} is not a partition of {n}")
    sc = _lambda_complex(c, n, lam, max_level, normalized)
    return total_homology(sc, degrees, mode=mode)


def kunneth_factor_check(c: DgCategory, lam: Partition, degrees,
                         max_level: int, normalized: bool = True,
                         mode: RankMode = EXACT) -> list:
    """Check that the λ-summand dims equal the degreewise convolution of the
    single-cycle summands over the parts, on certified degrees."""
    diags = []
    window = _window(degrees)
    whole = twisted_summand_dims(c, lam.n, lam, window, max_level,
                                 normalized, mode)
    conv = {0: 1}
    factors = []
    for p in lam.parts:
        f = twisted_summand_dims(c, p, Partition((p,)), window, max_level,
                                 normalized, mode)
        factors.append(f)
        # looked up on the module, so that a test can replace it there
        conv = decomposition.dims_convolve(conv, f.dims())
    for k in degrees:
        pieces_ok = all(
            f.degrees[i].certificate == "exact"
            for f in factors for i in _reach(k))
        if whole.degrees[k].certificate != "exact" or not pieces_ok:
            continue
        if whole.degrees[k].dim != conv.get(k, 0):
            diags.append(
                f"degree {k}: summand dim {whole.degrees[k].dim} != "
                f"convolved {conv.get(k, 0)}")
    return diags

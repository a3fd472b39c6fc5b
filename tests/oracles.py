"""Reference computations that only the tests use.

Each one recomputes, by a direct and slower route, something the library
computes another way, or builds a fixture the library never needs.  None
of them is on a command-line path, so they live here rather than in
``hhwb``.
"""

from __future__ import annotations

import itertools

from hhwb import decomposition
from hhwb.chainmaps import ChainMapData
from hhwb.decomposition import Partition, _reach, _window, sigma_of
from hhwb.dgcore import (
    DgCategory,
    DgFunctor,
    Permutation,
    permutation_functor,
    tensor_power,
)
from hhwb.functors import NatTransform, compose_functors
from hhwb.hochschild import (
    HomologySummary,
    StandardComplex,
    build_complex,
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


def homology_dimension(d_in: SparseMatrix, d_out: SparseMatrix) -> int:
    """dim ker(d_out) - rank(d_in) for a two-step complex d_in, then d_out."""
    if d_in.rows != d_out.cols:
        raise StructuralError(
            f"levels do not compose: d_in lands in dim {d_in.rows}, "
            f"d_out starts from dim {d_out.cols}")
    if not d_out.mul(d_in).is_zero():
        raise StructuralError("d_out . d_in != 0: not a complex at this level")
    dim_ker = d_out.cols - rank(d_out)
    return dim_ker - rank(d_in)


def entries(m: SparseMatrix) -> dict:
    """The nonzero entries of m as a dict {(row, col): value}."""
    return dict(m.items())


def reference_mul(a: SparseMatrix, b: SparseMatrix) -> SparseMatrix:
    """a·b with one lookup by (row, column) pair per product term."""
    if a.cols != b.rows:
        raise StructuralError("shape mismatch in mul")
    by_row = {}
    for (i, j), v in b.items():
        by_row.setdefault(i, []).append((j, v))
    ent = {}
    for (i, k), v in a.items():
        for j, w in by_row.get(k, ()):
            s = ent.get((i, j), 0) + v * w
            if s:
                ent[(i, j)] = s
            else:
                ent.pop((i, j), None)
    return SparseMatrix(a.rows, b.cols, ent)


# -- hochschild --------------------------------------------------------------


def identity_chain_map(sc: StandardComplex) -> ChainMapData:
    return ChainMapData(sc, sc,
                        [SparseMatrix.identity(len(lv)) for lv in sc.levels])


def degree_block(sc: StandardComplex, k) -> list:
    """The chains of total degree k as (level, local index), in the order
    of the positions of block k."""
    return [(m, i) for m, local in sc.skeleton.positions(k).items()
            for i in local]


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


def lambda_complex(c: DgCategory, n: int, lam: Partition, max_level: int,
                   normalized: bool, power: DgCategory) -> StandardComplex:
    """The complex of c^{⊗n} twisted by σ_λ, on `power`, the n-th tensor
    power of c, on a skeleton of its own."""
    return build_complex(power, permutation_functor(c, n, sigma_of(lam),
                                                    power=power),
                         max_level, normalized=normalized)


def twisted_summand_dims(c: DgCategory, n: int, lam: Partition, degrees,
                         max_level: int, normalized: bool = True,
                         mode: RankMode = EXACT) -> HomologySummary:
    """Homology of the n-th tensor power twisted by σ_λ, before invariants."""
    if lam.n != n:
        raise StructuralError(f"{lam} is not a partition of {n}")
    sc = lambda_complex(c, n, lam, max_level, normalized, tensor_power(c, n))
    return total_homology(sc, degrees, mode=mode)


def lambda_invariant_dims(c: DgCategory, lam: Partition, degrees,
                          max_level: int, normalized: bool = True,
                          mode: RankMode = EXACT) -> dict:
    """decomposition.invariant_dims for one λ on its own: the λ complex on
    a fresh tensor power, its homology in `degrees`, its centralizer
    presentation and an empty chain-permutation cache.  centralizer_gens
    and invariant_dims are looked up on the module, so that a test can
    replace them there."""
    sc = lambda_complex(c, lam.n, lam, max_level, normalized,
                        tensor_power(c, lam.n))
    summary = total_homology(sc, degrees, mode=mode)
    dims, _ = decomposition.invariant_dims(
        c, sc, summary, decomposition.centralizer_gens(lam), degrees, mode,
        {})
    return dims


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


# -- hochschild: the tuple-based assembly ------------------------------------
#
# Each level's chains as a list of tuples (a0, a1, ..., am) of basis ints,
# from every object tuple, and a {chain: row} dict, and d1, d2 and the chain
# permutations built chain by chain from them, slicing and looking up a
# tuple per face.  The library numbers the same chains as positions in
# per-object-tuple grids; these recompute its catalog and matrices by that
# direct route.


def brute_force_levels(sk, top):
    """Levels 0..top of a skeleton from every object tuple (c0, ..., cm):
    a0 in hom(c1, F(c0)) and a_i in hom(c_{i+1}, c_i), reading c_{m+1} as
    c0, the bar slots a_i (i >= 1) without units when normalized."""
    cat, F, index = sk.category, sk.obj_map, sk.basis_index

    def hom(src, tgt, bar):
        return [index[b] for b in cat.hom(src, tgt)
                if not (bar and sk.normalized and cat.is_unit(b))]

    levels = []
    for m in range(top + 1):
        chains = []
        for objs in itertools.product(cat.objects, repeat=m + 1):
            nxt = objs[1:] + objs[:1]
            slots = [hom(nxt[0], F[objs[0]], False)]
            slots += [hom(nxt[i], objs[i], True) for i in range(1, m + 1)]
            chains.extend(itertools.product(*slots))
        levels.append(chains)
    return levels


def reference_levels(sc: StandardComplex, m: int) -> list:
    return brute_force_levels(sc.skeleton, m)[m]


def _row_of(chains: list) -> dict:
    return {ch: i for i, ch in enumerate(chains)}


def _add(acc: dict, key, v) -> None:
    acc[key] = acc.get(key, 0) + v


def reference_d1(sc: StandardComplex, m: int) -> SparseMatrix:
    """d1 on level m: d(a_p) in slot p, with sign (-1)^m times the Koszul
    sign of a0 ... a_{p-1}."""
    deg, diff = sc._deg, sc.skeleton.diff
    chains = reference_levels(sc, m)
    row_of = _row_of(chains)
    acc = {}
    for col, ch in enumerate(chains):
        sign = -1 if m % 2 else 1
        for p, a in enumerate(ch):
            for b, c in diff[a]:
                row = row_of.get(ch[:p] + (b,) + ch[p + 1:])
                if row is not None:
                    _add(acc, (row, col), sign * c)
            if deg[a] % 2:
                sign = -sign
    return SparseMatrix(len(chains), len(chains), acc)


def reference_d2(sc: StandardComplex, m: int) -> SparseMatrix:
    """d2 on level m: the inner faces a_i∘a_{i+1} with sign (-1)^i, then
    the wrap face F(am)∘a0 with sign (-1)^(m + |am|·(|a0| + ... + |a(m-1)|))."""
    chains = reference_levels(sc, m)
    if m == 0:
        return SparseMatrix(0, len(chains))
    deg, twist, compose = sc._deg, sc._twist, sc.compose
    below = reference_levels(sc, m - 1)
    row_of = _row_of(below)
    acc = {}
    for col, ch in enumerate(chains):
        for i in range(m):
            sign = -1 if i % 2 else 1
            for b, c in compose[ch[i], ch[i + 1]]:
                row = row_of.get(ch[:i] + (b,) + ch[i + 2:])
                if row is not None:
                    _add(acc, (row, col), sign * c)
        last = ch[m]
        rest = sum(deg[a] for a in ch[:m])
        sign = -1 if (m + deg[last] * rest) % 2 else 1
        for t, ct in twist[last]:
            for b, c in compose[t, ch[0]]:
                row = row_of.get((b,) + ch[1:m])
                if row is not None:
                    _add(acc, (row, col), sign * ct * c)
    return SparseMatrix(len(below), len(chains), acc)


def reference_chain_permutation(sc: StandardComplex, phi: DgFunctor,
                                m: int) -> tuple:
    """(rows, signs) of phi on level m: chain i goes to signs[i] times
    chain rows[i], each slot's basis int sent to its image's."""
    chains = reference_levels(sc, m)
    row_of = _row_of(chains)
    rows, signs = [], []
    for ch in chains:
        image, sign = [], 1
        for a in ch:
            ((t, v),) = phi.apply_basis(sc.basis_ids[a]).items()
            image.append(sc.basis_index[t])
            sign *= int(v)
        rows.append(row_of[tuple(image)])
        signs.append(sign)
    return rows, signs

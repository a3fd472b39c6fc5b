"""Shuffle map between standard complexes and Künneth verification.

The tensor product of two standard complexes is never materialized as one
complex; the shuffle map is stored blockwise, one sparse matrix per pair of
levels (k, l), with columns indexed by pairs of source chains.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .dgcore import _tensor_id
from .functors import functor_equal, tensor_functor
from .hochschild import StandardComplex
from .qlinalg import SparseMatrix, StructuralError, rank


@dataclass
class ShuffleMap:
    a: StandardComplex
    b: StandardComplex
    target: StandardComplex
    blocks: dict  # (k, l) -> SparseMatrix into target level k+l


def shuffle_map(a: StandardComplex, b: StandardComplex,
                target: StandardComplex) -> ShuffleMap:
    if target.normalized != a.normalized or target.normalized != b.normalized:
        raise StructuralError("normalization modes of factors and target differ")
    expected_twist = tensor_functor(a.twist, b.twist,
                                    target.category, target.category)
    if not functor_equal(target.twist, expected_twist):
        raise StructuralError("target twist is not the tensor of the factor twists")
    cat_a, cat_b = a.category, b.category
    tgt_index = target.basis_index
    blocks = {}
    for k in range(a.max_level + 1):
        for l in range(b.max_level + 1):
            if k + l > target.max_level:
                continue
            nb = len(b.levels[l])
            row_of = target.row_of[k + l]
            acc = {}
            for i, x in enumerate(a.levels[k]):
                x_ids, x_objs = a.chain_ids(k, i), a.objects(x)
                f_degs = [cat_a.deg(s) for s in x_ids[1:]]
                for j, y in enumerate(b.levels[l]):
                    col = i * nb + j
                    y_ids, y_objs = b.chain_ids(l, j), b.objects(y)
                    g_degs = [cat_b.deg(s) for s in y_ids[1:]]
                    base_eps = cat_b.deg(y_ids[0]) * sum(f_degs)
                    coeff_id = _tensor_id(x_ids[0], y_ids[0])
                    for f_pos in itertools.combinations(range(k + l), k):
                        fset = set(f_pos)
                        cur_c, cur_b = 1, 1
                        ids = [coeff_id]
                        exp = base_eps
                        gs_placed = 0
                        gs_deg = 0
                        for p in range(k + l):
                            oc = x_objs[cur_c % (k + 1)]
                            ob = y_objs[cur_b % (l + 1)]
                            if p in fset:
                                ids.append(_tensor_id(x_ids[cur_c], cat_b.unit(ob)))
                                exp += gs_placed + gs_deg * f_degs[cur_c - 1]
                                cur_c += 1
                            else:
                                ids.append(_tensor_id(cat_a.unit(oc), y_ids[cur_b]))
                                gs_placed += 1
                                gs_deg += g_degs[cur_b - 1]
                                cur_b += 1
                        row = row_of.get(tuple(tgt_index.get(s) for s in ids))
                        if row is None:
                            raise StructuralError(
                                f"shuffle image missing from target catalog: "
                                f"{ids}")
                        s = acc.get((row, col), 0) + (-1 if exp % 2 else 1)
                        if s:
                            acc[(row, col)] = s
                        else:
                            acc.pop((row, col), None)
            blocks[(k, l)] = SparseMatrix(len(target.levels[k + l]),
                                          len(a.levels[k]) * nb, acc)
    return ShuffleMap(a, b, target, blocks)


def verify_shuffle_chain_map(sh: ShuffleMap) -> list[str]:
    """Exact chain-map identity on every block with k + l <= N - 1."""
    diags = []
    a, b, tgt = sh.a, sh.b, sh.target
    for (k, l), blk in sh.blocks.items():
        if k + l > tgt.max_level - 1:
            continue
        na, nb = len(a.levels[k]), len(b.levels[l])
        id_a, id_b = SparseMatrix.identity(na), SparseMatrix.identity(nb)
        # the Koszul sign of each a-chain, as a diagonal matrix
        signs = SparseMatrix(na, na, {
            (i, i): -1 if (a.degree(ch) - k) % 2 else 1
            for i, ch in enumerate(a.levels[k])})
        # level-raising (internal) part; the (-1)^l compensates the level
        # alteration (-1)^m being taken at level k on the factor but k + l
        # on the target
        lhs1 = tgt.d1[k + l].mul(blk)
        rhs1 = blk.mul(a.d1[k].kron(id_b).scale(-1 if l % 2 else 1).add(
            signs.kron(b.d1[l])))
        if lhs1 != rhs1:
            diags.append(f"internal differential mismatch on block ({k},{l})")
        # face part
        lhs2 = tgt.d2[k + l].mul(blk)
        rhs2 = SparseMatrix(len(tgt.levels[k + l - 1]) if k + l >= 1 else 0,
                            na * nb)
        if k >= 1:
            rhs2 = rhs2.add(sh.blocks[(k - 1, l)].mul(a.d2[k].kron(id_b)))
        if l >= 1:
            # the face part of the second factor enters with the constant
            # sign (-1)^k, not a per-chain Koszul sign
            rhs2 = rhs2.add(sh.blocks[(k, l - 1)].mul(
                id_a.kron(b.d2[l]).scale(-1 if k % 2 else 1)))
        if lhs2 != rhs2:
            diags.append(f"face differential mismatch on block ({k},{l})")
    return diags


def shuffle_push(sh: ShuffleMap, i: int, j: int, za: dict, zb: dict) -> dict:
    """Push a pair of total-degree (i, j) cycles through Sh; the result is
    a vector over the target's block i + j."""
    a, b, tgt = sh.a, sh.b, sh.target
    parts_b = b.block_levels(j, zb)
    parts = {}  # target level -> {row: value}
    for k, xa in a.block_levels(i, za).items():
        for l, xb in parts_b.items():
            if (k, l) not in sh.blocks:
                raise StructuralError(
                    f"needed shuffle block ({k},{l}) outside truncation")
            index = sh.blocks[(k, l)].transpose().by_row  # col -> {row: v}
            nb = len(b.levels[l])
            acc = parts.setdefault(k + l, {})
            for ia, ca in xa.items():
                for ib, cb in xb.items():
                    for r, v in index.get(ia * nb + ib, {}).items():
                        acc[r] = acc.get(r, 0) + v * ca * cb
    return tgt.block_vector(i + j, parts)


@dataclass
class DegreeKunneth:
    convolved_dim: int
    target_dim: int
    induced_rank: int
    certified: bool

    @property
    def ok(self):
        return self.convolved_dim == self.target_dim == self.induced_rank


@dataclass
class KunnethReport:
    chain_map_diags: list
    degrees: dict  # total degree -> DegreeKunneth

    @property
    def ok(self):
        return not self.chain_map_diags and all(d.ok for d in self.degrees.values())


def kunneth_verify(a: StandardComplex, b: StandardComplex, degrees,
                   target: StandardComplex) -> KunnethReport:
    sh = shuffle_map(a, b, target)
    tgt = sh.target
    chain_diags = verify_shuffle_chain_map(sh)
    degrees = list(degrees)
    # factor homology over every degree that can contribute to a request;
    # certified homology is concentrated in nonpositive total degrees, so
    # degree k only receives products with k <= i, j <= 0
    window = range(min(degrees), 1)
    dims_a = {i: len(a.homology_basis(i)[0]) for i in window if a.certified(i)}
    dims_b = {j: len(b.homology_basis(j)[0]) for j in window if b.certified(j)}
    out = {}
    for kdeg in degrees:
        certified = (tgt.certified(kdeg)
                     and all(i in dims_a and kdeg - i in dims_b
                             for i in range(kdeg, 1)))
        conv = sum(dims_a.get(i, 0) * dims_b.get(kdeg - i, 0)
                   for i in range(kdeg, 1))
        h_t = len(tgt.homology_basis(kdeg)[0])
        # the homology class of each pushed pair of representatives
        coordinates = tgt.homology_coordinates(kdeg)
        cols = {}
        ncol = 0
        for i in range(kdeg, 1):
            j = kdeg - i
            for za in (a.homology_basis(i)[0] if dims_a.get(i) else []):
                for zb in (b.homology_basis(j)[0] if dims_b.get(j) else []):
                    img = shuffle_push(sh, i, j, za, zb)
                    x = coordinates(img)
                    if x is None:
                        raise StructuralError(
                            f"shuffle image of a cycle pair is not a cycle "
                            f"at degree {kdeg}")
                    cols.update(((r, ncol), v) for r, v in x.items())
                    ncol += 1
        induced = SparseMatrix(h_t, ncol, cols)
        out[kdeg] = DegreeKunneth(conv, h_t, rank(induced), certified)
    return KunnethReport(chain_diags, out)


def s2_check(a: StandardComplex, target: StandardComplex) -> list[str]:
    """Sh ∘ (Koszul swap of complex factors) = (swap functor, id)_* ∘ Sh,
    as exact matrix identities on all constructed blocks."""
    from .chainmaps import induced_chain_map
    from .dgcore import Permutation, permutation_functor
    from .functors import identity_nat

    sh = shuffle_map(a, a, target)
    tgt = sh.target
    swap = permutation_functor(a.category, 2, Permutation.from_cycles(2, [(1, 2)]),
                               power=tgt.category)
    cm = induced_chain_map(swap, identity_nat(swap), tgt, tgt)
    diags = []
    na_levels = [len(lv) for lv in a.levels]
    for (k, l), blk in sh.blocks.items():
        na, nb = na_levels[k], na_levels[l]
        # (x, y) -> ±(y, x) into the (l, k) pair space.  The sign that makes
        # the equivariance exact is the Koszul sign on internal (bar)
        # degrees times the simplicial transposition sign (-1)^{kl}; the
        # plain total-degree sign fails in odd examples.
        ent = {}
        for i, x in enumerate(a.levels[k]):
            for j, y in enumerate(a.levels[l]):
                odd = (a.degree(x) * a.degree(y) + k * l) % 2
                ent[(j * na + i, i * nb + j)] = -1 if odd else 1
        tau = SparseMatrix(nb * na, na * nb, ent)
        lhs = sh.blocks[(l, k)].mul(tau)
        rhs = cm.blocks[k + l].mul(blk)
        if lhs != rhs:
            diags.append(f"S2 equivariance fails on block ({k},{l})")
    return diags

"""Chain maps between standard complexes, the contracting homotopy and the
action on homology.

No verb reads these; the tests and hhwb.kunneth do.  hochschild hands
them out under their own names and imports this module on first use, so
that compute and decompose do not compile it.  Chains are read here as
tuples, through each complex's `levels[m]` and its {chain: row} dict
`row_of[m]`; a vector over a total-degree block is read by level and
written back through the complexes' block_levels and block_vector, so the
layout of a block stays hochschild's.
"""

from __future__ import annotations

import itertools

from .dgcore import DgFunctor
from .functors import NatTransform, compose_functors, validate_nat_transform
from .hochschild import StandardComplex, _lin
from .qlinalg import SparseMatrix, StructuralError


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


class ChainMapData:
    def __init__(self, source: StandardComplex, target: StandardComplex,
                 blocks: list):
        self.source = source
        self.target = target
        self.blocks = blocks  # per level m: levels_src[m] -> levels_tgt[m]
        self._by_col: dict[int, dict] = {}  # level -> {col: {row: v}}

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
        parts = {}
        for m, cols in self.source.block_levels(k, vec).items():
            index = self._by_col.get(m)
            if index is None:
                index = self._by_col[m] = self.blocks[m].transpose().by_row
            acc = parts[m] = {}
            for c, coef in cols.items():
                for r, v in index.get(c, {}).items():
                    acc[r] = acc.get(r, 0) + v * coef
        return self.target.block_vector(k, parts)


def induced_chain_map(phi: DgFunctor, alpha: NatTransform,
                      src: StandardComplex, tgt: StandardComplex
                      ) -> ChainMapData:
    """Chain map sending a0[a1|...|am] to (alpha_{c0} ∘ phi(a0))[phi(a1)|...],
    checked to commute with d1 and d2."""
    diags = validate_nat_transform(alpha)
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

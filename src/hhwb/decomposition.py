"""Partition combinatorics and the symmetric-power decomposition check.

The left side sums, over partitions λ of n, the Z-invariants of the twisted
homology of the n-th tensor power with the block-cyclic twist σ_λ, Z the
whole centralizer of σ_λ: the block rotations and the swaps of equal
blocks.  Z acts on chains by signed permutations (signed_chain_permutation,
each generator's checked to commute with d1 and d2 by check_equivariant),
so the invariants are the homology of the signed-orbit complex C^Z, which
has one basis vector per signed orbit and goes through total_homology like
any other complex.  This is exact by Maschke's theorem: over Q, averaging
over Z is a chain-level projector onto C^Z, so H(C)^Z = H(C^Z), and every
reported rank is over Q, whatever the mode.
The right side is the t-degree-n piece of the super-symmetric algebra on
one copy of the untwisted homology per t-power.  Both sides are compared
degreewise with truncation certificates tracked throughout; the right side
in degree k reads the factor's homology in every degree between 0 and k.

verify_decomposition builds the n-th tensor power once and every λ complex
on it in one hochschild.build_complexes call, so the complexes share one
skeleton: chains, d1 and the inner faces of d2 are built once per n, and
only on the levels the requested degrees read; it also builds each
generator's chain permutation once and drops it after the last λ that
uses it.  Each complex adds its own wrap face, and every check
(equivariance, d² = 0, prime agreement) still runs on each complex and
each C^Z.
"""

from __future__ import annotations

from array import array
from collections import namedtuple
from math import comb, factorial

from .dgcore import (
    DgCategory,
    DgFunctor,
    Permutation,
    identity_functor,
    permutation_functor,
    tensor_power,
)
from .hochschild import (
    HomologySummary,
    StandardComplex,
    _spread,
    build_complex,
    build_complexes,
    total_homology,
)
from .qlinalg import (
    EXACT,
    RankMode,
    SparseMatrix,
    StructuralError,
    normalise_rows,
)


def _reach(k) -> range:
    """The factor degrees the right side reads in degree k: a sum of
    factor degrees with one sign (rhs_dims refuses mixed signs) lies
    between 0 and k, and so does each term."""
    return range(min(k, 0), max(k, 0) + 1)


def _window(degrees) -> list:
    """Every degree some requested degree reaches, in increasing order."""
    return list(range(min(min(degrees), 0), max(max(degrees), 0) + 1))


class Partition(namedtuple("Partition", "parts")):
    """A partition of n, stored as a weakly increasing tuple of parts."""

    __slots__ = ()

    def __new__(cls, parts):
        if any(p < 1 for p in parts):
            raise StructuralError("parts must be positive")
        if list(parts) != sorted(parts):
            raise StructuralError("parts must be weakly increasing")
        return super().__new__(cls, parts)

    @property
    def n(self) -> int:
        return sum(self.parts)

    def multiplicities(self) -> dict:
        out = {}
        for p in self.parts:
            out[p] = out.get(p, 0) + 1
        return out

    def __str__(self):
        return "(" + ",".join(map(str, self.parts)) + ")"


def partitions(n: int) -> list:
    """All partitions of n, deterministically ordered (lexicographic on the
    weakly increasing part tuples)."""
    if n < 0:
        raise StructuralError("n must be non-negative")

    def gen(total, minimum):
        if total == 0:
            yield ()
            return
        for first in range(minimum, total + 1):
            for rest in gen(total - first, first):
                yield (first,) + rest

    return [Partition(p) for p in sorted(gen(n, 1))]


def _blocks(lam: Partition):
    start = 1
    for p in lam.parts:
        yield list(range(start, start + p))
        start += p


def sigma_of(lam: Partition) -> Permutation:
    """The block-cyclic permutation with cycle lengths equal to the parts,
    acting on consecutive blocks of {1..n}."""
    cycles = [tuple(b) for b in _blocks(lam) if len(b) > 1]
    return Permutation.from_cycles(lam.n, cycles)


class CentralizerPresentation:
    def __init__(self, n: int, partition: Partition, c_generators: list,
                 s_generators: list):
        self.n = n
        self.partition = partition
        self.c_generators = c_generators  # one rotation per part of size >= 2
        self.s_generators = s_generators  # adjacent swaps of equal-size blocks

    @property
    def order(self) -> int:
        """|Z(σ_λ)| = Π_s s^{m_s}·m_s!, m_s the multiplicity of the part s:
        Z is the product over s of the wreath products C_s ≀ S_{m_s}."""
        out = 1
        for size, mult in self.partition.multiplicities().items():
            out *= size ** mult * factorial(mult)
        return out


def centralizer_gens(lam: Partition) -> CentralizerPresentation:
    n = lam.n
    blocks = list(_blocks(lam))
    sigma = sigma_of(lam)
    c_gens = [Permutation.from_cycles(n, [tuple(b)])
              for b in blocks if len(b) > 1]
    s_gens = []
    for i in range(len(blocks) - 1):
        a, b = blocks[i], blocks[i + 1]
        if len(a) == len(b):
            s_gens.append(Permutation.from_cycles(
                n, [(x, y) for x, y in zip(a, b)]))
    for g in c_gens + s_gens:
        if g.after(sigma) != sigma.after(g):
            raise StructuralError(f"generator {g} does not commute with sigma")
    return CentralizerPresentation(n, lam, c_gens, s_gens)


# -- the two sides of the comparison ---------------------------------------


class OrbitComplex:
    """The invariant subcomplex C^G of a group G that acts on a standard
    complex C by signed chain permutations, given by generators alone; for
    a λ complex, G is the whole centralizer Z of σ_λ.

    A signed orbit O with representative x spans the invariant vector
    v_O = Σ_{y∈O} s(y)·y, where g·x = s(y)·y; an orbit whose stabilizer
    acts on x by -1 has v_O = 0 and drops out.  The v_O form a basis of
    C^G, and d(v_O) = Σ_{O'} D[O', O]·v_{O'} with
    D[O', O] = Σ_{y∈O} s(y)·d[rep(O'), y], a signed sum of entries of d,
    so D has int entries wherever d has (qlinalg.SparseMatrix).

    Over Q averaging over G is a chain-level projector onto C^G (Maschke),
    so H(C^G) = H(C)^G, and every reported rank is over Q.  It has the
    interface total_homology reads (block_dim, total_differential,
    certified, max_level), so C^G is d²-checked, ranked and certified like
    C, whose truncation it shares; it keeps only its orbits, and reads C's
    blocks through C's block_permutation.
    """

    def __init__(self, sc: StandardComplex, perms: list):
        self.sc = sc
        self.perms = perms
        self.max_level = sc.max_level
        self.certified = sc.certified
        self._orbit_cache: dict = {}

    def orbits(self, k):
        """(reps, orbit_of, sign) on block k: the surviving orbits'
        representatives, each position's orbit index (-1 when its orbit
        drops out) and s(y), the last two as flat arrays.  Each orbit is
        walked from its least position, its representative: by
        _unsigned_orbits when no generator has a sign -1 on the block, as
        on every input of even degrees, else by _signed_orbits."""
        if k not in self._orbit_cache:
            # (rows, signs) of each generator on the block; each maps a
            # level, and a degree, to itself.  A level's signs are a flat
            # array, scanned as bytes (-1 is 0xff).
            gens = [self.sc.block_permutation(k, perm) for perm in self.perms]
            signed = any(b"\xff" in s.tobytes() if isinstance(s, array)
                         else -1 in s for _, s in gens)
            walk = _signed_orbits if signed else _unsigned_orbits
            self._orbit_cache[k] = walk(self.sc.block_dim(k), gens)
        return self._orbit_cache[k]

    def block_dim(self, k) -> int:
        return len(self.orbits(k)[0])

    def total_differential(self, k) -> SparseMatrix:
        """The orbit differential D from degree k to k+1, read off the rows
        of C's total_differential(k) at the representatives."""
        _, orbit_of, sign = self.orbits(k)
        reps_out = self.orbits(k + 1)[0]
        by_row = self.sc.total_differential(k).by_row
        out = {}
        for o, r in enumerate(reps_out):
            acc = out[o] = {}
            for c, v in by_row.get(r, {}).items():
                col = orbit_of[c]
                if col >= 0:
                    acc[col] = acc.get(col, 0) + (v if sign[c] == 1 else -v)
        return SparseMatrix.trusted(len(reps_out), self.block_dim(k),
                                    normalise_rows(out))


def _unsigned_orbits(size: int, gens: list) -> tuple:
    """OrbitComplex.orbits for generators (rows, signs) whose signs are all
    1: no orbit drops, the orbits are the connected components, and s = 1."""
    orbit_of = array("i", [-1]) * size
    reps = []
    gens = [rows for rows, _ in gens]
    for start, o in enumerate(orbit_of):  # reads orbit_of as it is written
        if o >= 0:
            continue
        o = len(reps)
        reps.append(start)
        orbit_of[start] = o
        members = [start]
        for x in members:  # grows while it is walked
            for rows in gens:
                y = rows[x]
                if orbit_of[y] < 0:
                    orbit_of[y] = o
                    members.append(y)
    return reps, orbit_of, array("b", [1]) * size


def _signed_orbits(size: int, gens: list) -> tuple:
    """OrbitComplex.orbits for generators (rows, signs), walked breadth
    first: a position is signed by the first path that reaches it, and an
    orbit that two paths reach with opposite signs drops."""
    sign = array("b", bytes(size))
    orbit_of = array("i", [-1]) * size
    reps = []
    for start in range(size):
        if sign[start]:
            continue
        sign[start] = 1
        members = [start]
        alive = True
        for x in members:  # grows while it is walked
            sx = sign[x]
            for rows, signs in gens:
                y = rows[x]
                want = signs[x] * sx
                sy = sign[y]
                if not sy:
                    sign[y] = want
                    members.append(y)
                elif sy != want:
                    alive = False
        if alive:
            for x in members:
                orbit_of[x] = len(reps)
            reps.append(start)
    return reps, orbit_of, sign


def signed_chain_permutation(sc: StandardComplex, phi: DgFunctor,
                             levels) -> list:
    """The action a0[a1|...|am] -> phi(a0)[phi(a1)|...|phi(am)] of an
    automorphism phi that sends every basis morphism to ±1 times another.

    One pair (rows, signs) per level m, flat arrays (C int, signed char)
    as long as the level: chain i goes to signs[i] = ±1 times chain
    rows[i].  Only the levels in `levels` are built; the others are None.
    This is the chain map of phi whose coefficient transform is the unit
    at F(phi(c0)); it is a chain map only when phi commutes with the
    twist F, which check_equivariant verifies.
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
    wanted = set(levels)
    sk = sc.skeleton
    perm = []
    for m in range(sc.max_level + 1):
        if m not in wanted:
            perm.append(None)
            continue
        level = sk.levels[m]
        rows, odd = array("i"), []
        for g in level.grids:
            # phi maps a grid's chains into one grid, the image of its
            # first chain's; a chain's row there is the offset plus, slot
            # by slot, its image's position times the stride
            tg = level.at.get(sk.objects([target[r.ints[0]] for r in g.ranges]))
            pos = tg and [[tr.pos.get(target[b]) for b in r.ints]
                          for r, tr in zip(g.ranges, tg.ranges)]
            if not pos or any(None in p for p in pos):
                raise StructuralError(
                    f"{phi.name or 'functor'} sends a level-{m} chain out of "
                    f"the complex")
            rows.extend(_spread([tg.offset], [[x * s for x in p]
                                              for p, s in zip(pos, tg.strides)]))
            if signed:  # the number of slots sent to minus their image
                odd += _spread([0], [[sign[b] < 0 for b in r.ints]
                                     for r in g.ranges])
        if len(set(rows)) != len(rows):
            raise StructuralError(
                f"{phi.name or 'functor'} is not injective on level {m}")
        signs = (array("b", [-1 if x % 2 else 1 for x in odd]) if signed
                 else array("b", [1]) * len(rows))
        perm.append((rows, signs))
    return perm


def check_equivariant(sc: StandardComplex, perm: list, levels) -> None:
    """Raise StructuralError unless the signed chain permutation `perm`
    commutes with d1 and d2: d[g r, g c] = s(r) s(c) d[r, c] for every
    nonzero entry of d1[m] and d2[m], for each m in `levels`.  `perm` is
    a bijection on each level (as signed_chain_permutation ensures), so
    this maps the nonzero entries of each block injectively into
    themselves, making g d = d g exact."""

    def respects(mtx, row_perm, col_perm) -> bool:
        by_row = mtx.by_row
        rows, row_signs = row_perm
        cols, col_signs = col_perm
        for r, row in by_row.items():
            image, s = by_row.get(rows[r], {}), row_signs[r]
            for c, v in row.items():
                if image.get(cols[c]) != (v if s == col_signs[c] else -v):
                    return False
        return True

    for m in levels:
        if not respects(sc.d1[m], perm[m], perm[m]):
            raise StructuralError(
                f"chain permutation does not commute with the internal "
                f"differential at level {m}")
        if m >= 1 and not respects(sc.d2[m], perm[m - 1], perm[m]):
            raise StructuralError(
                f"chain permutation does not commute with the face "
                f"differential at level {m}")


def _checked_chain_permutation(c: DgCategory, sc: StandardComplex,
                               h: Permutation, levels: list,
                               cache: dict) -> list:
    """h's signed chain permutation on `levels` and the levels below them,
    checked to commute with sc's d1 and d2 on `levels`.  The permutation
    depends on the chain catalog alone, so `cache` keeps it per skeleton,
    generator and levels for complexes that share the skeleton; the check
    is made for every complex."""
    built = tuple(sorted(set(levels).union(m - 1 for m in levels if m)))
    key = (sc.skeleton, h.images, built)
    perm = cache.get(key)
    if perm is None:
        phi = permutation_functor(c, len(h.images), h, power=sc.category)
        perm = cache[key] = signed_chain_permutation(sc, phi, built)
    check_equivariant(sc, perm, levels)
    return perm


def invariant_dims(c: DgCategory, sc: StandardComplex,
                   summary: HomologySummary, pres: CentralizerPresentation,
                   degrees, mode: RankMode, perms: dict) -> tuple[dict, dict]:
    """Dimensions of the Z-invariants of the λ-summand per degree, Z the
    whole centralizer of σ_λ, and per degree the DegreeResults of the
    orbit complex they used.

    `sc` is the λ complex C on a tensor power of c, `summary` its homology
    in (at least) `degrees` and `pres` its centralizer presentation;
    `perms` caches the chain permutations (_checked_chain_permutation).
    Each dimension is the homology of the signed-orbit complex C^Z of
    every generator at once, block swaps and rotations (OrbitComplex), or
    of C itself when Z is trivial.  Every generator's chain permutation is
    checked to commute with the differential.
    """
    for k in degrees:
        if not sc.certified(k):
            raise StructuralError(
                f"degree {k} lacks an exact truncation certificate")
    gens = pres.s_generators + pres.c_generators
    if not gens:
        return ({k: summary.degrees[k].dim for k in degrees},
                {k: [] for k in degrees})
    levels = sc.skeleton.levels_near(degrees)
    group = [_checked_chain_permutation(c, sc, g, levels, perms)
             for g in gens]
    orbits = total_homology(OrbitComplex(sc, group), degrees, mode)
    return orbits.dims(), {k: [orbits.degrees[k]] for k in degrees}


def dims_convolve(h1: dict, h2: dict) -> dict:
    """Graded dimensions of the tensor product of graded spaces of
    dimensions h1 and h2."""
    out = {}
    for i, d1 in h1.items():
        for j, d2 in h2.items():
            if d1 and d2:
                out[i + j] = out.get(i + j, 0) + d1 * d2
    return out


def super_sym_power_dims(h: dict, a: int) -> dict:
    """Graded dimensions of the a-th super-symmetric power of a graded space
    with dimensions h: symmetric on even degrees, exterior on odd ones."""
    if a < 0:
        raise StructuralError("power must be non-negative")
    # coefficient of x^a in prod_{k even} (1-q^k x)^{-h_k}
    #                     * prod_{k odd} (1+q^k x)^{h_k}
    per_x = [dict() for _ in range(a + 1)]
    per_x[0][0] = 1
    for k, dim in sorted(h.items()):
        if dim == 0:
            continue
        if dim < 0:
            raise StructuralError("dimensions must be non-negative")
        if k % 2 == 0:
            terms = [(t, comb(dim + t - 1, t)) for t in range(a + 1)]
        else:
            terms = [(t, comb(dim, t)) for t in range(min(a, dim) + 1)]
        new = [dict() for _ in range(a + 1)]
        for t, count in terms:
            if count == 0:
                continue
            for xa in range(a + 1 - t):
                for q, d in per_x[xa].items():
                    tgt = new[xa + t]
                    tgt[q + k * t] = tgt.get(q + k * t, 0) + d * count
        per_x = new
    return {q: d for q, d in per_x[a].items() if d}


def rhs_dims(h: dict, n: int, allow_truncated: bool = False) -> dict:
    """The t-degree-n component of the super-symmetric algebra on one copy
    of h per t-power i ≥ 1."""
    support = [k for k, d in h.items() if d]
    if support and min(support) < 0 < max(support) and not allow_truncated:
        raise StructuralError(
            "mixed-sign degrees: the comparison window is not closed under "
            "convolution; pass allow_truncated=True to proceed anyway")
    total = {}
    for lam in partitions(n):
        term = {0: 1}
        for _size, mult in lam.multiplicities().items():
            term = dims_convolve(term, super_sym_power_dims(h, mult))
        for q, d in term.items():
            total[q] = total.get(q, 0) + d
    return {q: d for q, d in total.items() if d}


# -- report assembly --------------------------------------------------------


class PartitionSummary:
    def __init__(self, partition: Partition, twisted: dict, invariant: dict,
                 certified: dict, group_order: int):
        self.partition = partition
        self.twisted = twisted      # degree -> dim
        self.invariant = invariant  # degree -> dim
        self.certified = certified  # degree -> bool
        self.group_order = group_order


class DecompositionReport:
    def __init__(self, *, category: str, n: int, degrees: list,
                 per_partition: list, lhs_totals: dict, rhs_totals: dict,
                 verdicts: dict, max_level: int, normalized: bool, mode: str,
                 agreed: dict, primes: dict):
        self.category = category
        self.n = n
        self.degrees = degrees
        self.per_partition = per_partition
        self.lhs_totals = lhs_totals  # degree -> dim, None if not computed
        self.rhs_totals = rhs_totals
        self.verdicts = verdicts  # degree -> "Equal" | "Mismatch" | "Heuristic"
        self.max_level = max_level
        self.normalized = normalized
        self.mode = mode
        self.agreed = agreed  # degree -> every prime gave every rank it used
        self.primes = primes  # degree -> the primes that checked them, or None

    @property
    def all_equal(self) -> bool:
        return all(v == "Equal" for v in self.verdicts.values())

    def to_dict(self) -> dict:
        return {
            "category": self.category,
            "n": self.n,
            "degrees": list(self.degrees),
            "per_partition": [
                {
                    "partition": list(p.partition.parts),
                    "twisted": {str(k): v for k, v in sorted(p.twisted.items())},
                    "invariant": {str(k): v
                                  for k, v in sorted(p.invariant.items())},
                    "certified": {str(k): v
                                  for k, v in sorted(p.certified.items())},
                    "group_order": p.group_order,
                }
                for p in self.per_partition
            ],
            "lhs_totals": {str(k): v for k, v in sorted(self.lhs_totals.items())},
            "rhs_totals": {str(k): v for k, v in sorted(self.rhs_totals.items())},
            "verdicts": {str(k): v for k, v in sorted(self.verdicts.items())},
            "agreed": {str(k): v for k, v in sorted(self.agreed.items())},
            "primes": {str(k): v for k, v in sorted(self.primes.items())},
            "max_level": self.max_level,
            "normalized": self.normalized,
            "mode": self.mode,
        }


def verify_decomposition(c: DgCategory, n: int, degrees, max_level: int,
                         normalized: bool = True, mode: RankMode = EXACT
                         ) -> DecompositionReport:
    """Compare, degree by degree, the sum over partitions of invariant
    twisted dims with the super-symmetric-power prediction from the
    untwisted homology of a single factor.

    A degree that some λ complex does not certify gets the verdict
    Heuristic and the left total None: its invariants are not computed.
    Every rank is taken over Q, so dims and verdicts do not depend on the
    mode.  `agreed` is, per degree, whether every cross-checking prime
    gave every rank that degree used: the λ complexes, their orbit
    complexes and the factor complex (always True in exact mode); a prime
    that ranks short is reported there and changes no verdict.  `primes`
    lists, per degree, the primes that checked every one of those ranks
    (None when there are none, as in exact mode): a prime dividing a
    denominator is missing from it."""
    degrees = sorted(set(degrees), reverse=True)
    if not degrees:
        raise StructuralError("no degrees to compare")
    window = _window(degrees)
    per_partition = []
    lhs_totals = {k: 0 for k in degrees}
    lhs_cert = {k: True for k in degrees}
    used = {k: [] for k in degrees}  # the DegreeResults that degree k used
    lams = partitions(n)
    power = tensor_power(c, n)
    # built in one call, so that the λ complexes share a skeleton; each is
    # dropped once used
    todo = list(zip(lams, build_complexes(
        power, [permutation_functor(c, n, sigma_of(lam), power=power)
                for lam in lams], max_level, normalized)))[::-1]
    pres = {lam: centralizer_gens(lam) for lam in lams}
    # each generator's chain permutation is kept until the last λ using it
    last_user = {g.images: lam for lam, p in pres.items()
                 for g in p.s_generators + p.c_generators}
    chain_perms = {}
    while todo:
        lam, sc = todo.pop()
        summary = total_homology(sc, degrees, mode=mode)
        certified = {k: summary.degrees[k].certificate == "exact"
                     for k in degrees}
        for k in degrees:
            used[k].append(summary.degrees[k])
        action_degrees = [k for k in degrees if certified[k]]
        inv, orbit_results = invariant_dims(c, sc, summary, pres[lam],
                                            action_degrees, mode, chain_perms)
        for k, results in orbit_results.items():
            used[k] += results
        per_partition.append(PartitionSummary(
            partition=lam,
            twisted={k: summary.degrees[k].dim for k in degrees},
            invariant=inv,
            certified=certified,
            group_order=pres[lam].order,
        ))
        for k in degrees:
            if certified[k]:
                lhs_totals[k] += inv[k]
            else:
                lhs_cert[k] = False
        for key in [key for key in chain_perms if last_user[key[1]] == lam]:
            del chain_perms[key]
        del sc  # so that no λ complex is alive while the factor's is built
    factor = build_complex(c, identity_functor(c), max_level,
                           normalized=normalized)
    factor_summary = total_homology(factor, window, mode=mode)
    h = factor_summary.dims()
    rhs = rhs_dims({k: v for k, v in h.items() if v}, n)
    rhs_totals = {k: rhs.get(k, 0) for k in degrees}
    # the right side in degree k is exact when every factor degree it
    # reads is; _reach(k) always holds 0 and k, so this is never vacuous
    rhs_cert = {
        k: all(factor_summary.degrees[i].certificate == "exact"
               for i in _reach(k))
        for k in degrees
    }
    for k in degrees:
        used[k] += [factor_summary.degrees[i] for i in _reach(k)]
        if not lhs_cert[k]:  # some λ's invariants were not computed
            lhs_totals[k] = None
    verdicts = {}
    for k in degrees:
        if not (lhs_cert[k] and rhs_cert[k]):
            verdicts[k] = "Heuristic"
        elif lhs_totals[k] == rhs_totals[k]:
            verdicts[k] = "Equal"
        else:
            verdicts[k] = "Mismatch"
    return DecompositionReport(
        category=c.name,
        n=n,
        degrees=degrees,
        per_partition=per_partition,
        lhs_totals=lhs_totals,
        rhs_totals=rhs_totals,
        verdicts=verdicts,
        max_level=max_level,
        normalized=normalized,
        mode=mode.kind,
        agreed={k: all(u.agreed for u in used[k]) for k in degrees},
        primes={k: [p for p in mode.primes
                    if all(p in u.primes for u in used[k])] or None
                for k in degrees},
    )

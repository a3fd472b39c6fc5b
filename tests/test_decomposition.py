from fractions import Fraction

import pytest
import sympy

from hhwb import decomposition, hochschild
from hhwb.bases import projector_invariant_dim
from hhwb.chainmaps import homology_action, induced_chain_map
from hhwb.decomposition import (
    CentralizerPresentation,
    OrbitComplex,
    Partition,
    centralizer_gens,
    check_equivariant,
    partitions,
    rhs_dims,
    sigma_of,
    signed_chain_permutation,
    super_sym_power_dims,
    verify_decomposition,
)
from hhwb.dgcore import (
    BasisInfo,
    DgCategory,
    Permutation,
    permutation_functor,
)
from hhwb.functors import identity_nat
from hhwb.hochschild import (
    StandardComplex,
    build_complex,
)
from hhwb.qlinalg import (
    EXACT,
    MODULAR,
    SparseMatrix,
    StructuralError,
)

from conftest import dual_numbers, permuted
from oracles import (
    degree_block,
    entries,
    group_closure,
    kunneth_factor_check,
    lambda_invariant_dims,
    twisted_summand_dims,
)


def odd_negative_dual():
    """k[z]/z^2 with |z| = -1: swapping tensor factors of z⊗z costs a sign,
    so some signed orbits drop out, while every degree stays certified."""
    return DgCategory(
        objects=["*"],
        basis={"1": BasisInfo("*", "*", 0), "z": BasisInfo("*", "*", -1)},
        units={"*": "1"},
        compose={("z", "z"): {}},
        diff={},
        name="Z",
    )


def lambda_complex(c, lam, max_level):
    return build_complex(*permuted(c, lam.n, sigma_of(lam)), max_level)


def projector_invariants_oracle(c, lam, degrees, max_level):
    """S-invariant dims by the projector pipeline: every group element's
    induced chain map (checked to commute), its exact action on homology,
    the averaged projector and its rank."""
    sc = lambda_complex(c, lam, max_level)
    group = group_closure(centralizer_gens(lam).s_generators, lam.n)
    actions = []
    for h in group:
        phi = permutation_functor(c, lam.n, h, power=sc.category)
        cm = induced_chain_map(phi, identity_nat(phi), sc, sc)
        actions.append(homology_action(cm, degrees))
    out = {}
    for k in degrees:
        dim = actions[0][k].rows
        acc = SparseMatrix(dim, dim)
        for act in actions:
            acc = acc.add(act[k])
        out[k] = projector_invariant_dim(acc.scale(Fraction(1, len(group))))
    return out


# -- series oracle ----------------------------------------------------------


def series_rhs_oracle(h, n):
    """Coefficient of t^n in Π_{i≥1} Π_d (1 ∓ q^d t^i)^{∓h_d}, computed with
    sympy; h maps non-positive degrees to dims, output likewise.

    Each factor is expanded to order t^n on its own and the product is
    truncated at t^n after every multiplication, which gives the same
    coefficient as expanding the whole product."""
    t, q = sympy.symbols("t q")

    def truncated(expr):
        expr = sympy.expand(expr)
        return sympy.Add(*(expr.coeff(t, j) * t ** j for j in range(n + 1)))

    prod = sympy.Integer(1)
    for i in range(1, n + 1):
        for d, dim in h.items():
            if d % 2 == 0:
                factor = (1 - q ** (-d) * t ** i) ** (-dim)
            else:
                factor = (1 + q ** (-d) * t ** i) ** dim
            prod = truncated(prod * factor.series(t, 0, n + 1).removeO())
    poly = sympy.Poly(prod.coeff(t, n), q)
    return {-e: int(c) for (e,), c in poly.terms() if c}


# -- partitions and permutations -------------------------------------------


def test_partition_counts():
    expected = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
    for n, p in enumerate(expected):
        assert len(partitions(n)) == p


def test_partitions_are_sorted_and_valid():
    for lam in partitions(6):
        assert lam.n == 6
        assert list(lam.parts) == sorted(lam.parts)
    assert partitions(0) == [Partition(())]
    assert partitions(1) == [Partition((1,))]


def test_partition_rejects_bad_parts():
    with pytest.raises(StructuralError):
        Partition((2, 1))
    with pytest.raises(StructuralError):
        Partition((0, 1))


def test_sigma_of_examples():
    assert sigma_of(Partition((1, 1, 1))) == Permutation.identity(3)
    assert sigma_of(Partition((3,))) == Permutation.from_cycles(3, [(1, 2, 3)])
    # parts (1,2): blocks {1},{2,3}
    assert sigma_of(Partition((1, 2))) == Permutation.from_cycles(3, [(2, 3)])


def test_centralizer_generators_commute():
    # commutation is asserted inside centralizer_gens; exercise all λ ⊢ n ≤ 6
    for n in range(1, 7):
        for lam in partitions(n):
            pres = centralizer_gens(lam)
            assert isinstance(pres, CentralizerPresentation)
            sigma = sigma_of(lam)
            for g in pres.c_generators + pres.s_generators:
                assert g.after(sigma) == sigma.after(g)


def test_centralizer_single_cycle():
    pres = centralizer_gens(Partition((4,)))
    assert pres.s_generators == []
    assert pres.c_generators == [Permutation.from_cycles(4, [(1, 2, 3, 4)])]


def test_centralizer_two_two():
    pres = centralizer_gens(Partition((2, 2)))
    assert pres.s_generators == [Permutation.from_cycles(4, [(1, 3), (2, 4)])]
    assert pres.s_order == 2


def test_block_swap_group_orders():
    for n in range(1, 6):
        for lam in partitions(n):
            pres = centralizer_gens(lam)
            assert len(group_closure(pres.s_generators, n)) == pres.s_order


# -- super-symmetric powers -------------------------------------------------


def test_super_sym_power_trivial():
    assert super_sym_power_dims({0: 2, -1: 1}, 0) == {0: 1}
    assert super_sym_power_dims({0: 2}, 2) == {0: 3}
    # a single odd generator squares to zero
    assert super_sym_power_dims({-1: 1}, 2) == {}
    assert super_sym_power_dims({-1: 2}, 2) == {-2: 1}


def test_super_sym_square_of_hh_dual():
    h = {0: 2, -1: 1, -2: 1, -3: 1}
    assert super_sym_power_dims(h, 2) == \
        {0: 3, -1: 2, -2: 2, -3: 3, -4: 2, -5: 1}


def test_rhs_partition_counting():
    # one even generator in degree 0: the t-series is the partition function
    expected = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
    for n, p in enumerate(expected):
        assert rhs_dims({0: 1}, n) == ({0: p} if p else {})


@pytest.mark.parametrize("n", [1, 2, 3])
def test_rhs_matches_series_oracle(n):
    h = {0: 2, -1: 1, -2: 1, -3: 1}
    assert rhs_dims(h, n) == series_rhs_oracle(h, n)


def test_rhs_known_values_for_dual_numbers():
    h = {0: 2, -1: 1, -2: 1, -3: 1}
    two = rhs_dims(h, 2)
    assert {k: two.get(k, 0) for k in [0, -1, -2, -3]} == {
        0: 5, -1: 3, -2: 3, -3: 4}
    three = rhs_dims(h, 3)
    assert {k: three.get(k, 0) for k in [0, -1, -2]} == {0: 10, -1: 8, -2: 9}


def test_rhs_mixed_sign_refused():
    with pytest.raises(StructuralError):
        rhs_dims({-1: 1, 1: 1}, 2)
    # the escape hatch still computes something
    rhs_dims({-1: 1, 1: 1}, 2, allow_truncated=True)


def test_rhs_oracle_with_odd_top_class():
    h = {0: 1, -1: 2}
    for n in (2, 3):
        assert rhs_dims(h, n) == series_rhs_oracle(h, n)


# -- twisted summands and invariants ---------------------------------------


def test_twisted_summand_ground_field(K):
    for lam in partitions(3):
        s = twisted_summand_dims(K, 3, lam, [0, -1], max_level=3)
        assert s.dims() == {0: 1, -1: 0}


def test_twisted_summand_single_cycle_is_one_factor(D):
    s = twisted_summand_dims(D, 2, Partition((2,)), [0, -1, -2, -3],
                             max_level=4)
    assert s.dims() == {0: 2, -1: 1, -2: 1, -3: 1}


def test_twisted_summand_trivial_partition_is_kunneth_square(D):
    s = twisted_summand_dims(D, 2, Partition((1, 1)), [0, -1, -2, -3],
                             max_level=4)
    assert s.dims() == {0: 4, -1: 4, -2: 5, -3: 6}


def test_invariants_trivial_group_equal_twisted(D):
    inv = lambda_invariant_dims(D, Partition((2,)), [0, -1, -2, -3],
                                max_level=4)
    assert inv == {0: 2, -1: 1, -2: 1, -3: 1}


def test_invariants_symmetric_square(D):
    inv = lambda_invariant_dims(D, Partition((1, 1)), [0, -1, -2, -3],
                                max_level=4)
    assert inv == {0: 3, -1: 2, -2: 2, -3: 3}


@pytest.mark.parametrize("make", [dual_numbers, odd_negative_dual],
                         ids=["D", "Z"])
@pytest.mark.parametrize("lam", partitions(2) + partitions(3), ids=str)
def test_orbit_invariants_match_projector_oracle(make, lam):
    c = make()
    degrees = [0, -1, -2]
    assert lambda_invariant_dims(c, lam, degrees, max_level=3) == \
        projector_invariants_oracle(c, lam, degrees, max_level=3)


def test_orbits_with_sign_stabilizer_drop_out():
    # on Z^{⊗2}, the swap sends the level-0 chain z⊗z to -z⊗z (Koszul sign)
    Z = odd_negative_dual()
    lam = Partition((1, 1))
    sc = lambda_complex(Z, lam, 3)
    swap = permutation_functor(Z, 2, centralizer_gens(lam).s_generators[0],
                               power=sc.category)
    oc = OrbitComplex(sc, [signed_chain_permutation(sc, swap, range(4))])
    reps, orbit_of, sign = oc.orbits(-2)
    (zz,) = [j for j, (m, i) in enumerate(degree_block(sc, -2))
             if sc.chain_ids(m, i)[0] == "z⊗z"]
    assert orbit_of[zz] == -1
    assert all(s in (1, -1) for s in sign)
    assert len(reps) < sc.block_dim(-2)


@pytest.mark.parametrize("make,lam", [
    (odd_negative_dual, Partition((1, 1))),
    (odd_negative_dual, Partition((1, 1, 1))),
    (dual_numbers, Partition((1, 1, 1))),
], ids=["Z-(1,1)", "Z-(1,1,1)", "D-(1,1,1)"])
def test_orbit_vectors_span_an_invariant_subcomplex(make, lam):
    # v_O = Σ s(y)·y is fixed by every generator, and d(v_O) expands as
    # Σ D[O', O]·v_{O'} with the orbit differential D
    c = make()
    sc = lambda_complex(c, lam, 3)
    perms = []
    for g in centralizer_gens(lam).s_generators:
        phi = permutation_functor(c, lam.n, g, power=sc.category)
        perms.append(signed_chain_permutation(sc, phi, range(4)))
    oc = OrbitComplex(sc, perms)

    def vectors(k):
        _, orbit_of, sign = oc.orbits(k)
        vecs = [{} for _ in oc.orbits(k)[0]]
        for j, o in enumerate(orbit_of):
            if o >= 0:
                vecs[o][j] = Fraction(sign[j])
        return vecs

    negative = 0
    for k in range(-6, 1):  # on Z, signs -1 appear from degree -4 down
        block = degree_block(sc, k)
        pos = {coord: j for j, coord in enumerate(block)}
        src, tgt = vectors(k), vectors(k + 1)
        negative += sum(v < 0 for vec in src for v in vec.values())
        for perm in perms:
            for vec in src:
                moved = {}
                for j, v in vec.items():
                    m, i = block[j]
                    rows, signs = perm[m]
                    moved[pos[(m, rows[i])]] = signs[i] * v
                assert moved == vec
        dmat = oc.total_differential(k)
        for o, vec in enumerate(src):
            want = {}
            for (r, col), v in dmat.items():
                if col == o:
                    for j, w in tgt[r].items():
                        want[j] = want.get(j, 0) + v * w
            want = {j: v for j, v in want.items() if v}
            assert sc.total_differential(k).apply(vec) == want
    if c.name == "Z":
        assert negative


def test_decomposition_odd_negative_dual():
    Z = odd_negative_dual()
    two = verify_decomposition(Z, 2, [0, -1, -2, -3], max_level=4)
    assert two.all_equal
    three = verify_decomposition(Z, 3, [0, -1, -2], max_level=3,
                                 mode=MODULAR)
    assert three.all_equal
    assert three.lhs_totals == three.rhs_totals == {0: 3, -1: 4, -2: 5}


def test_flipped_sign_breaks_equivariance(D):
    lam = Partition((1, 1))
    sc = lambda_complex(D, lam, 3)
    swap = permutation_functor(D, 2, centralizer_gens(lam).s_generators[0],
                               power=sc.category)
    perm = signed_chain_permutation(sc, swap, range(sc.max_level + 1))
    check_equivariant(sc, perm, range(sc.max_level + 1))
    # d2 vanishes on level 1 of the commutative D^{⊗2}, not on level 2
    cols = sorted({c for _, c in entries(sc.d2[2])})
    assert cols
    for col in cols:
        flipped = [(list(rows), list(signs)) for rows, signs in perm]
        flipped[2][1][col] = -flipped[2][1][col]
        with pytest.raises(StructuralError, match="does not commute"):
            check_equivariant(sc, flipped, range(sc.max_level + 1))


def test_corrupted_target_row_breaks_equivariance(D):
    lam = Partition((1, 1))
    sc = lambda_complex(D, lam, 3)
    swap = permutation_functor(D, 2, centralizer_gens(lam).s_generators[0],
                               power=sc.category)
    perm = signed_chain_permutation(sc, swap, range(sc.max_level + 1))
    check_equivariant(sc, perm, range(sc.max_level + 1))
    # sending a level-2 chain whose d2 column is nonzero to one whose
    # column is zero must be caught, at every such chain
    nonzero = {c for _, c in entries(sc.d2[2])}
    zero = [c for c in range(sc.d2[2].cols) if c not in nonzero]
    assert nonzero and zero
    rows, signs = perm[2]
    for col in sorted(nonzero):
        corrupted = list(perm)
        corrupted[2] = (list(rows), signs)
        corrupted[2][0][col] = zero[0]
        with pytest.raises(StructuralError, match="does not commute"):
            check_equivariant(sc, corrupted, range(sc.max_level + 1))


def face_positions(sc, m) -> tuple[set, set]:
    """The positions of the nonzero entries of sc.d2[m] that only the inner
    faces a_i∘a_(i+1) give, and those that only the wrap face F(a_m)∘a_0
    gives."""
    d2 = sc.d2[m]
    inner = SparseMatrix(d2.rows, d2.cols, [
        ((r, c), v) for r, row in sc.skeleton.inner_faces(m).items()
        for c, v in row.items() if v])
    at_inner, at_wrap = set(entries(inner)), set(entries(d2.sub(inner)))
    return at_inner - at_wrap, at_wrap - at_inner


@pytest.mark.parametrize("corruption", ["inner face", "wrap face",
                                        "empty image row"])
def test_a_corrupted_d2_entry_breaks_equivariance(D, corruption):
    # λ = (2, 2): the twist swaps the factors inside each block, and S
    # swaps the blocks
    lam = Partition((2, 2))
    sc = lambda_complex(D, lam, 2)
    swap = permutation_functor(D, 4, centralizer_gens(lam).s_generators[0],
                               power=sc.category)
    perm = signed_chain_permutation(sc, swap, range(3))
    check_equivariant(sc, perm, range(3))
    rows, cols = perm[1][0], perm[2][0]
    by_row = sc.d2[2].by_row
    if corruption == "empty image row":
        # an entry on a row whose image row has none
        r = next(r for r in range(sc.d2[2].rows)
                 if rows[r] != r and rows[r] not in by_row)
        by_row.setdefault(r, {})[0] = 1
    else:
        inner, wrap = face_positions(sc, 2)
        assert inner and wrap
        # an entry that the swap moves, so that it meets its image
        r, c = min((r, c) for r, c in (inner if corruption == "inner face"
                                       else wrap)
                   if (rows[r], cols[c]) != (r, c))
        by_row[r][c] = -by_row[r][c]
    with pytest.raises(StructuralError,
                       match="face differential at level 2"):
        check_equivariant(sc, perm, range(3))


def test_non_commuting_generator_is_rejected(D, monkeypatch):
    # (1 2) does not commute with sigma = (2 3), so its chain permutation
    # does not commute with the face differential
    lam = Partition((1, 2))
    bad = CentralizerPresentation(3, lam, [],
                                  [Permutation.from_cycles(3, [(1, 2)])])
    monkeypatch.setattr(decomposition, "centralizer_gens", lambda _lam: bad)
    with pytest.raises(StructuralError, match="face differential"):
        lambda_invariant_dims(D, lam, [0, -1], max_level=2)


def test_nontrivial_rotation_is_rejected(D, monkeypatch):
    # pass the swap off as a rotation of (1,1): it acts non-trivially on
    # homology, which the rank identity dim H(C^<c>) = dim H(C) must catch
    lam = Partition((1, 1))
    swap = Permutation.from_cycles(2, [(1, 2)])
    fake = CentralizerPresentation(2, lam, [swap], [])
    monkeypatch.setattr(decomposition, "centralizer_gens", lambda _lam: fake)
    with pytest.raises(StructuralError, match="act non-trivially in degree 0"):
        lambda_invariant_dims(D, lam, [0, -1], max_level=3)


def test_orbit_complex_is_checked_to_square_to_zero(D, monkeypatch):
    # add 1 at (0, c) to the orbit differential out of degree -2, where row
    # c of the one into degree -2 is nonzero: d² gains that row, and
    # total_homology must catch it on C^S
    differential = OrbitComplex.total_differential

    def corrupted(self, k):
        mtx = differential(self, k)
        if k != -2:
            return mtx
        (c, _), _ = next(iter(differential(self, k - 1).items()))
        ent = entries(mtx)
        ent[0, c] = ent.get((0, c), 0) + 1
        return SparseMatrix(mtx.rows, mtx.cols, ent)

    monkeypatch.setattr(OrbitComplex, "total_differential", corrupted)
    with pytest.raises(StructuralError, match="does not square to zero"):
        lambda_invariant_dims(D, Partition((1, 1)), [-1, -2], max_level=3)


def test_decomposition_refuses_an_empty_degree_list(D):
    with pytest.raises(StructuralError, match="no degrees"):
        verify_decomposition(D, 2, [], max_level=2)


def test_invariants_refuse_uncertified_degree(D):
    with pytest.raises(StructuralError, match="certificate"):
        lambda_invariant_dims(D, Partition((1, 1)), [-2], max_level=2)


def test_kunneth_factor_check_examples(K, D):
    assert kunneth_factor_check(K, Partition((1, 2)), [0], max_level=2) == []
    assert kunneth_factor_check(D, Partition((1, 1)), [0, -1, -2],
                                max_level=3) == []
    assert kunneth_factor_check(D, Partition((1, 2)), [0, -1],
                                max_level=2) == []


def test_kunneth_factor_check_reports_a_wrong_convolution(D, monkeypatch):
    convolve = decomposition.dims_convolve

    def off_by_one(a, b):
        out = dict(convolve(a, b))
        out[0] = out.get(0, 0) + 1
        return out

    monkeypatch.setattr(decomposition, "dims_convolve", off_by_one)
    diags = kunneth_factor_check(D, Partition((1, 1)), [0, -1, -2],
                                 max_level=3)
    assert "degree 0" in [d.split(":")[0] for d in diags]


# -- the full comparison ----------------------------------------------------


def test_decomposition_ground_field(K):
    rep = verify_decomposition(K, 4, [0], max_level=2)
    assert rep.all_equal
    assert rep.lhs_totals == {0: 5}
    assert rep.rhs_totals == {0: 5}


def test_decomposition_dual_numbers_square(D):
    rep = verify_decomposition(D, 2, [0, -1, -2, -3], max_level=4)
    assert rep.verdicts == {0: "Equal", -1: "Equal", -2: "Equal", -3: "Equal"}
    assert rep.lhs_totals == {0: 5, -1: 3, -2: 3, -3: 4}
    assert rep.lhs_totals == rep.rhs_totals
    # per-partition bookkeeping matches the two oracles above
    by_parts = {p.partition.parts: p for p in rep.per_partition}
    assert by_parts[(1, 1)].invariant == {0: 3, -1: 2, -2: 2, -3: 3}
    assert by_parts[(2,)].invariant == {0: 2, -1: 1, -2: 1, -3: 1}


def test_decomposition_uncertified_degree_is_heuristic(D):
    rep = verify_decomposition(D, 2, [0, -4], max_level=4)
    assert rep.verdicts[0] == "Equal"
    assert rep.verdicts[-4] == "Heuristic"


def test_decomposition_report_roundtrip(K):
    rep = verify_decomposition(K, 3, [0, -1], max_level=2)
    d = rep.to_dict()
    assert d["lhs_totals"] == {"0": 3, "-1": 0}
    assert d["verdicts"]["0"] == "Equal"


def test_decomposition_reports_prime_agreement(D):
    rep = verify_decomposition(D, 2, [0, -1, -2, -3], max_level=4,
                               mode=MODULAR)
    assert rep.agreed == {0: True, -1: True, -2: True, -3: True}
    assert rep.to_dict()["agreed"] == {"0": True, "-1": True, "-2": True,
                                       "-3": True}


def test_decomposition_reports_orbit_rank_disagreement(D, monkeypatch):
    # a disagreement on an orbit-complex rank alone must reach `agreed`
    rank_info = hochschild.rank_info
    orbit_differential = decomposition.OrbitComplex.total_differential
    orbit_matrices = []  # every matrix an orbit complex handed out

    def recording(self, k):
        mtx = orbit_differential(self, k)
        orbit_matrices.append(mtx)
        return mtx

    def disagreeing(m, mode=EXACT, cleared=()):
        r = rank_info(m, mode, cleared)
        if not any(m is x for x in orbit_matrices):
            return r
        return r._replace(per_prime=((1048583, r.value), (1048589, -1)))

    monkeypatch.setattr(decomposition.OrbitComplex, "total_differential",
                        recording)
    monkeypatch.setattr(hochschild, "rank_info", disagreeing)
    rep = verify_decomposition(D, 2, [0, -1], max_level=3,
                               mode=MODULAR)
    assert rep.agreed == {0: False, -1: False}
    assert rep.all_equal


def test_positive_degree_reads_the_factor_certificates(D, monkeypatch):
    # the right side in degree 1 reads the factor's degrees 0 and 1; an
    # uncertified factor degree 1 must make that verdict Heuristic
    total_homology = decomposition.total_homology

    def factor_uncertified_at_1(sc, degrees, mode=EXACT):
        out = total_homology(sc, degrees, mode)
        if isinstance(sc, StandardComplex) and sc.category is D:
            out.degrees[1] = out.degrees[1]._replace(certificate="heuristic")
        return out

    rep = verify_decomposition(D, 2, [1, 0, -1], max_level=3)
    assert rep.verdicts == {1: "Equal", 0: "Equal", -1: "Equal"}
    monkeypatch.setattr(decomposition, "total_homology",
                        factor_uncertified_at_1)
    rep = verify_decomposition(D, 2, [1, 0, -1], max_level=3)
    assert rep.verdicts == {1: "Heuristic", 0: "Equal", -1: "Equal"}


def test_lambda_complexes_read_only_the_requested_degrees(D, monkeypatch):
    # degree -2 alone: the factor reads its window -2..0 for the right
    # side, but each λ complex needs only d(-2) and d(-3)
    build_complexes = decomposition.build_complexes
    differential = StandardComplex.total_differential
    lambdas, read = [], set()

    def recording_complexes(*args):
        built = build_complexes(*args)
        lambdas.extend(built)
        return built

    def recording(self, k):
        if any(self is sc for sc in lambdas):
            read.add(k)
        return differential(self, k)

    monkeypatch.setattr(decomposition, "build_complexes", recording_complexes)
    monkeypatch.setattr(StandardComplex, "total_differential", recording)
    rep = verify_decomposition(D, 2, [-2], max_level=4)
    assert rep.verdicts == {-2: "Equal"}
    assert len(lambdas) == 2
    assert read == {-2, -3}


@pytest.mark.slow
def test_decomposition_dual_numbers_cube_modular(D):
    rep = verify_decomposition(D, 3, [0, -1, -2], max_level=3,
                               mode=MODULAR)
    assert rep.verdicts == {0: "Equal", -1: "Equal", -2: "Equal"}
    assert rep.lhs_totals == {0: 10, -1: 8, -2: 9}
    assert rep.mode == "modular"

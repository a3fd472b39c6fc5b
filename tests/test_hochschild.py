import itertools
from fractions import Fraction

import pytest
import sympy

from hhwb import hochschild
from hhwb.chainmaps import (
    homology_action,
    homotopy_H,
    induced_chain_map,
    twist_endo_map,
)
from hhwb.dgcore import (
    BasisInfo,
    DgCategory,
    NatTransform,
    Permutation,
    identity_functor,
    identity_nat,
    permutation_functor,
    tensor_power,
)
from hhwb.hochschild import (
    build_complex,
    check_equivariant,
    signed_chain_permutation,
    total_homology,
)
from hhwb.qlinalg import (
    EXACT,
    MODULAR,
    SparseMatrix,
    StructuralError,
    projector_invariant_dim,
)

from conftest import (
    dual_numbers,
    odd_dual,
    permuted,
    quiver_a2,
    square_zero_with_diff,
)
from oracles import entries, identity_chain_map, star_transform
from test_cli import DUAL, run_json


def hh_dims(c, twist, max_level, degrees, normalized=True, mode=EXACT):
    sc = build_complex(c, twist, max_level, normalized=normalized)
    return total_homology(sc, degrees, mode).dims(), sc


# -- independent oracles ----------------------------------------------------


def periodic_resolution_dims(order, top):
    """Homology of k[x]/x^order from its 2-periodic bimodule resolution.

    The resolution has maps x⊗1 - 1⊗x and Σ x^i ⊗ x^(order-1-i)
    alternating; after applying A ⊗_{A^e} - they become 0 and
    multiplication by order·x^(order-1).  Computed with sympy,
    independently of the package's linear algebra.
    """
    zero = sympy.zeros(order, order)
    top_power = sympy.zeros(order, order)  # basis (1, x, ..., x^(order-1))
    top_power[order - 1, 0] = order  # 1 -> order·x^(order-1)
    maps = [zero if n % 2 else top_power for n in range(1, top + 2)]  # d_1, d_2, ...
    dims = []
    for n in range(top + 1):
        d_out = maps[n - 1] if n >= 1 else sympy.zeros(0, order)
        d_in = maps[n]
        ker = order - (d_out.rank() if n >= 1 else 0)
        dims.append(ker - d_in.rank())
    return dims


def periodic_resolution_dims_D(top):
    """Homology of the dual numbers k[x]/x^2 (maps 0 and 1 -> 2x)."""
    return periodic_resolution_dims(2, top)


def bar_complex_dims_T2(top):
    """Brute-force Hochschild homology of the path algebra of • -> • (upper
    triangular 2x2 matrices), via the full algebra bar complex in sympy."""
    basis = ["ea", "eb", "p"]
    mult = {("ea", "ea"): "ea", ("eb", "eb"): "eb",
            ("p", "ea"): "p", ("eb", "p"): "p"}

    def chains(n):
        return list(itertools.product(basis, repeat=n + 1))

    def boundary(n):
        src = chains(n)
        tgt = chains(n - 1)
        pos = {t: i for i, t in enumerate(tgt)}
        m = sympy.zeros(len(tgt), len(src))
        for j, ch in enumerate(src):
            for i in range(n):
                prod = mult.get((ch[i], ch[i + 1]))
                if prod is not None:
                    t = ch[:i] + (prod,) + ch[i + 2:]
                    m[pos[t], j] += (-1) ** i
            prod = mult.get((ch[n], ch[0]))
            if prod is not None:
                t = (prod,) + ch[1:n]
                m[pos[t], j] += (-1) ** n
        return m

    dims = []
    for n in range(top + 1):
        d_out = boundary(n) if n >= 1 else sympy.zeros(0, len(chains(0)))
        d_in = boundary(n + 1)
        ker = len(chains(n)) - d_out.rank()
        dims.append(ker - d_in.rank())
    return dims


def test_periodic_resolution_oracle():
    assert periodic_resolution_dims_D(4) == [2, 1, 1, 1, 1]


def test_bar_complex_oracle_quiver():
    # HH_0 = T2/[T2, T2] has classes of the two vertex idempotents only.
    assert bar_complex_dims_T2(2) == [2, 0, 0]


# -- complex shape ----------------------------------------------------------


def test_ground_field_levels(K):
    sc = build_complex(K, identity_functor(K), 3, normalized=False)
    assert [len(lv) for lv in sc.levels] == [1, 1, 1, 1]
    sc_n = build_complex(K, identity_functor(K), 3, normalized=True)
    assert [len(lv) for lv in sc_n.levels] == [1, 0, 0, 0]


def test_dual_numbers_level_dims(D):
    full = build_complex(D, identity_functor(D), 3, normalized=False)
    assert [len(lv) for lv in full.levels] == [2, 4, 8, 16]
    norm = build_complex(D, identity_functor(D), 3, normalized=True)
    assert [len(lv) for lv in norm.levels] == [2, 2, 2, 2]


def test_d2_on_one_x_x(D):
    sc = build_complex(D, identity_functor(D), 2, normalized=True)
    (src,) = [i for i in range(len(sc.levels[2])) if sc.chain_ids(2, i)[0] == "1"]
    col = {r: v for (r, c), v in sc.d2[2].items() if c == src}
    (tgt,) = [i for i in range(len(sc.levels[1])) if sc.chain_ids(1, i)[0] == "x"]
    assert col == {tgt: Fraction(2)}


@pytest.mark.parametrize("normalized", [True, False])
def test_differential_identities(D, E, T, A2, normalized):
    cats = {"D": D, "E": E, "T": T, "A2": A2}
    for c in cats.values():
        sc = build_complex(c, identity_functor(c), 3, normalized=normalized)
        for m in range(1, 4):
            assert sc.d1[m - 1].mul(sc.d2[m]).add(
                sc.d2[m].mul(sc.d1[m])).is_zero()
            assert sc.d1[m].mul(sc.d1[m]).is_zero()
            if m >= 2:
                assert sc.d2[m - 1].mul(sc.d2[m]).is_zero()


def test_total_differential_squares_to_zero(T):
    sc = build_complex(T, identity_functor(T), 3, normalized=True)
    for k in range(-3, 3):
        assert sc.total_differential(k + 1).mul(sc.total_differential(k)).is_zero()


# -- homology ---------------------------------------------------------------


def test_hh_ground_field(K):
    dims, sc = hh_dims(K, identity_functor(K), 3, range(-2, 2))
    assert dims == {-2: 0, -1: 0, 0: 1, 1: 0}
    assert sc.certified(0) and sc.certified(-2)


def test_hh_dual_numbers_matches_periodic_oracle(D):
    dims, sc = hh_dims(D, identity_functor(D), 5, range(-4, 1))
    oracle = periodic_resolution_dims_D(4)
    assert [dims[-n] for n in range(5)] == oracle == [2, 1, 1, 1, 1]


def test_hh_dual_numbers_full_mode_agrees(D):
    dims, _ = hh_dims(D, identity_functor(D), 4, range(-3, 1), normalized=False)
    assert [dims[-n] for n in range(4)] == [2, 1, 1, 1]


def test_hh_quiver_matches_bar_oracle(A2):
    dims, sc = hh_dims(A2, identity_functor(A2), 4, range(-3, 1))
    assert [dims[-n] for n in range(4)] == [2, 0, 0, 0]
    assert bar_complex_dims_T2(2) == [2, 0, 0]
    full_dims, _ = hh_dims(A2, identity_functor(A2), 4, range(-3, 1),
                           normalized=False)
    assert full_dims == dims


def test_hh_modular_mode_agrees(D):
    exact, _ = hh_dims(D, identity_functor(D), 4, range(-3, 1))
    modular, _ = hh_dims(D, identity_functor(D), 4, range(-3, 1),
                         mode=MODULAR)
    assert exact == modular


def test_each_total_differential_is_ranked_once(D, monkeypatch):
    ranked = []
    rank_info = hochschild.rank_info

    def counting(m, mode, cleared):
        ranked.append(m.cols)
        return rank_info(m, mode, cleared)

    monkeypatch.setattr(hochschild, "rank_info", counting)
    sc = build_complex(D, identity_functor(D), 4, normalized=True)
    first = total_homology(sc, range(-3, 1), MODULAR).dims()
    assert len(ranked) == 5  # total_differential(k) for k = -4..0
    # the ranks live in the call: a repeat call ranks again, to the same dims
    assert total_homology(sc, range(-3, 1), MODULAR).dims() == first
    assert len(ranked) == 10
    assert total_homology(sc, range(-3, 1), EXACT).dims() == first
    assert len(ranked) == 15


def test_certificates(D, E):
    sc = build_complex(D, identity_functor(D), 2, normalized=True)
    assert sc.certified(0) and sc.certified(-1)
    assert not sc.certified(-2)
    summary = total_homology(sc, [-2, -1, 0])
    assert summary.degrees[0].certificate == "exact"
    assert summary.degrees[-2].certificate == "heuristic"
    assert "max_level" in summary.degrees[-2].reason
    # positive hom degrees can never be truncation-certified
    sce = build_complex(E, identity_functor(E), 3, normalized=True)
    assert not any(sce.certified(k) for k in range(-4, 5))


def test_dims_independent_of_basis_order():
    renamed = DgCategory(
        objects=["*"],
        basis={"1": BasisInfo("*", "*", 0), "0a": BasisInfo("*", "*", 0)},
        units={"*": "1"},
        compose={("0a", "0a"): {}},
        diff={},
    )
    dims, _ = hh_dims(renamed, identity_functor(renamed), 4, range(-3, 1))
    reference, _ = hh_dims(dual_numbers(), identity_functor(dual_numbers()),
                           4, range(-3, 1))
    assert dims == reference


def test_swap_twist_option_matches_the_swap_functor(D, capsys):
    dims, _ = hh_dims(*permuted(D, 2, Permutation.from_cycles(2, [(1, 2)])),
                      4, range(-3, 1))
    assert [dims[-n] for n in range(4)] == [2, 1, 1, 1]
    results = run_json(capsys, "compute", DUAL, "--mode", "exact",
                       "--max-level", "4", "--degrees=-3..0",
                       "--twist", "perm:2:(1 2)")["results"]
    assert {int(k): v["dim"] for k, v in results.items()} == dims


# -- induced chain maps -----------------------------------------------------


def negx(D):
    from hhwb.dgcore import DgFunctor
    return DgFunctor(D, D, {"*": "*"},
                     {"1": {"1": Fraction(1)}, "x": {"x": Fraction(-1)}},
                     name="negx")


def test_identity_induced_map(D):
    sc = build_complex(D, identity_functor(D), 3, normalized=False)
    cm = induced_chain_map(identity_functor(D), identity_nat(identity_functor(D)),
                           sc, sc)
    for m, block in enumerate(cm.blocks):
        assert block == SparseMatrix.identity(len(sc.levels[m]))


def test_negx_induced_map_is_signed_diagonal(D):
    sc = build_complex(D, identity_functor(D), 3, normalized=False)
    F = negx(D)
    cm = induced_chain_map(F, identity_nat(F), sc, sc)
    for m, block in enumerate(cm.blocks):
        for i in range(len(sc.levels[m])):
            n_x = sc.chain_ids(m, i).count("x")
            assert entries(block).get((i, i)) == Fraction((-1) ** n_x)
        assert len(entries(block)) == len(sc.levels[m])


def test_induced_maps_respect_composition(D):
    p2 = tensor_power(D, 2)
    sc = build_complex(p2, identity_functor(p2), 3, normalized=True)
    swap = permutation_functor(D, 2, Permutation.from_cycles(2, [(1, 2)]),
                               power=p2)
    cm = induced_chain_map(swap, identity_nat(swap), sc, sc)
    composite_alpha = star_transform(swap, identity_nat(swap),
                                     swap, identity_nat(swap))
    from hhwb.dgcore import compose_functors
    both = induced_chain_map(compose_functors(swap, swap), composite_alpha,
                             sc, sc)
    for m in range(4):
        assert cm.blocks[m].mul(cm.blocks[m]) == both.blocks[m]


def test_induced_map_rejects_non_closed_alpha(T):
    sc = build_complex(T, identity_functor(T), 2, normalized=True)
    # d(u) = v, so a coefficient transform with component u is not closed
    bad = NatTransform(identity_functor(T), identity_functor(T),
                       {"*": {"u": Fraction(1)}}, 0)
    with pytest.raises(Exception):
        induced_chain_map(identity_functor(T), bad, sc, sc)


# -- homotopy ---------------------------------------------------------------


def check_homotopy_identities(sc):
    H = homotopy_H(sc)
    T = twist_endo_map(sc).blocks
    for m in range(sc.max_level):
        lhs = sc.d2[m + 1].mul(H[m])
        if m >= 1:
            lhs = lhs.add(H[m - 1].mul(sc.d2[m]))
        want = SparseMatrix.identity(len(sc.levels[m])).sub(T[m])
        assert lhs == want, f"d2 homotopy identity fails at level {m}"
        assert sc.d1[m + 1].mul(H[m]).add(H[m].mul(sc.d1[m])).is_zero(), \
            f"d1 homotopy identity fails at level {m}"


@pytest.mark.parametrize("normalized", [True, False])
def test_homotopy_identity_twist(D, normalized):
    check_homotopy_identities(
        build_complex(D, identity_functor(D), 3, normalized=normalized))


def test_homotopy_negx_twist(D):
    check_homotopy_identities(build_complex(D, negx(D), 3, normalized=False))


def test_homotopy_on_swap_twist(D):
    sc = build_complex(*permuted(D, 2, Permutation.from_cycles(2, [(1, 2)])),
                       3, normalized=True)
    check_homotopy_identities(sc)


def test_homotopy_on_category_with_differential(T):
    check_homotopy_identities(build_complex(T, identity_functor(T), 3,
                                            normalized=True))


def test_homotopy_level0_insertion(D):
    sc = build_complex(D, identity_functor(D), 2, normalized=True)
    H = homotopy_H(sc)
    (x_idx,) = [i for i in range(len(sc.levels[0])) if sc.chain_ids(0, i)[0] == "x"]
    col = {r: v for (r, c), v in H[0].items() if c == x_idx}
    (tgt,) = [i for i in range(len(sc.levels[1]))
              if sc.chain_ids(1, i) == ("1", "x")]
    assert col == {tgt: Fraction(1)}


# -- homology action --------------------------------------------------------


def test_identity_action(D):
    sc = build_complex(D, identity_functor(D), 4, normalized=True)
    action = homology_action(identity_chain_map(sc), [0, -1, -2, -3])
    assert action[0] == SparseMatrix.identity(2)
    for k in (-1, -2, -3):
        assert action[k] == SparseMatrix.identity(1)


def test_swap_action_on_hh0_of_square(D):
    p2 = tensor_power(D, 2)
    sc = build_complex(p2, identity_functor(p2), 2, normalized=True)
    swap = permutation_functor(D, 2, Permutation.from_cycles(2, [(1, 2)]),
                               power=p2)
    cm = induced_chain_map(swap, identity_nat(swap), sc, sc)
    (a0,) = homology_action(cm, [0]).values()
    assert a0.rows == a0.cols == 4
    proj = a0.add(SparseMatrix.identity(4)).scale(Fraction(1, 2))
    assert projector_invariant_dim(proj) == 3


def test_homology_coordinates_of_cycles_and_non_cycles(D):
    p2 = tensor_power(D, 2)
    sc = build_complex(p2, identity_functor(p2), 3, normalized=True)
    for k in (0, -1, -2):
        reps, boundaries = sc.homology_basis(k)
        coordinates = sc.homology_coordinates(k)
        # z = Σ (i+2)·rep_i - Σ bnd_j / (j+2) is in the class Σ (i+2)·[rep_i]
        z = {}
        for c, v in itertools.chain(
                ((i + 2, rep) for i, rep in enumerate(reps)),
                ((Fraction(-1, j + 2), b) for j, b in enumerate(boundaries))):
            for r, x in v.items():
                z[r] = z.get(r, 0) + c * x
        assert coordinates({r: x for r, x in z.items() if x}) == \
            {i: i + 2 for i in range(len(reps))}
        if k < 0:  # degrees -1 and -2 have both classes and boundaries
            assert reps and boundaries
    # a basis vector that d does not kill is not a cycle
    (_, col), _ = next(iter(sc.total_differential(-2).items()))
    assert sc.homology_coordinates(-2)({col: 1}) is None


# -- signed chain permutations ----------------------------------------------


def test_signed_chain_permutation_matches_induced_chain_map(D):
    F = negx(D)
    sc = build_complex(D, F, 3, normalized=True)
    perm = signed_chain_permutation(sc, F, range(sc.max_level + 1))
    check_equivariant(sc, perm, range(sc.max_level + 1))
    cm = induced_chain_map(F, identity_nat(F), sc, sc)
    for m, (rows, signs) in enumerate(perm):
        level = zip(rows, signs)
        assert entries(cm.blocks[m]) == {(j, i): Fraction(s)
                                         for i, (j, s) in enumerate(level)}


def test_signed_chain_permutation_refuses_a_scaling(D):
    from hhwb.dgcore import DgFunctor
    twice = DgFunctor(D, D, {"*": "*"},
                      {"1": {"1": Fraction(1)}, "x": {"x": Fraction(2)}},
                      name="twox")
    sc = build_complex(D, identity_functor(D), 2, normalized=True)
    with pytest.raises(StructuralError, match="±1"):
        signed_chain_permutation(sc, twice, range(sc.max_level + 1))


def basis_map(c, images, name):
    """The map of c with one object sending basis morphism b to
    images[b] = (target, sign), with no check that it is a functor."""
    from hhwb.dgcore import DgFunctor
    return DgFunctor(c, c, {"*": "*"},
                     {b: {t: Fraction(s)} for b, (t, s) in images.items()},
                     name=name)


def test_signed_chain_permutation_refuses_a_chain_sent_out(D):
    # 1 <-> x sends the bar slot x of a level-1 chain to the unit 1, which
    # no bar slot of the normalized complex holds
    swap = basis_map(D, {"1": ("x", 1), "x": ("1", 1)}, "swap")
    sc = build_complex(D, identity_functor(D), 2, normalized=True)
    with pytest.raises(StructuralError,
                       match="swap sends a level-1 chain out of the complex"):
        signed_chain_permutation(sc, swap, range(sc.max_level + 1))


def test_signed_chain_permutation_refuses_a_map_that_is_not_injective(D):
    # 1, x -> 1 sends both level-0 chains, 1 and x, to the chain 1
    onto_one = basis_map(D, {"1": ("1", 1), "x": ("1", 1)}, "one")
    sc = build_complex(D, identity_functor(D), 2, normalized=True)
    with pytest.raises(StructuralError, match="one is not injective on level 0"):
        signed_chain_permutation(sc, onto_one, range(sc.max_level + 1))


def test_check_equivariant_catches_the_internal_differential(T):
    # on T, d(u) = v; u -> -u, v -> v sends d(u) to v but d(-u) = -v
    flip = basis_map(T, {"1": ("1", 1), "u": ("u", -1), "v": ("v", 1)},
                     "flip")
    sc = build_complex(T, identity_functor(T), 2, normalized=True)
    perm = signed_chain_permutation(sc, flip, range(sc.max_level + 1))
    with pytest.raises(StructuralError,
                       match="internal differential at level 0"):
        check_equivariant(sc, perm, range(sc.max_level + 1))


def test_twist_endo_acts_as_identity_on_homology(D):
    sc = build_complex(D, negx(D), 4, normalized=True)
    cm = twist_endo_map(sc)
    action = homology_action(cm, [0, -1, -2, -3])
    for k, mtx in action.items():
        assert mtx == SparseMatrix.identity(mtx.rows), f"degree {k}"


def test_action_refuses_uncertified_degree(D):
    sc = build_complex(D, identity_functor(D), 2, normalized=True)
    with pytest.raises(Exception):
        homology_action(identity_chain_map(sc), [-2])
    homology_action(identity_chain_map(sc), [-2], force=True)


def test_hochschild_hands_out_the_chain_maps():
    from hhwb import chainmaps

    for name in ("ChainMapData", "induced_chain_map", "twist_endo_map",
                 "homotopy_H", "homology_action"):
        assert getattr(hochschild, name) is getattr(chainmaps, name)
    with pytest.raises(AttributeError):
        hochschild.no_such_name

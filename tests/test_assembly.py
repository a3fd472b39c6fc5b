"""The assembled differentials, locked against frozen digests.

Each digest is the sha256 of the JSON list of sorted
(row basis ids, column basis ids, value) triples of one d1[m] or d2[m]
block.  Chains are named by their basis ids, so a digest does not depend
on the order in which chains are enumerated.  The values were frozen from
the Chain-dataclass assembly that the int-keyed one replaced.
"""

import hashlib
import json
from fractions import Fraction

import pytest

from hhwb.decomposition import signed_chain_permutation
from hhwb.dgcore import (
    BasisInfo,
    DgCategory,
    Permutation,
    identity_functor,
    permutation_functor,
    validate_category,
)
from hhwb.hochschild import (
    build_complex,
    total_homology,
)
from hhwb.qlinalg import EXACT, MODULAR

from conftest import (
    dual_numbers,
    ground_field,
    odd_dual,
    permuted,
    quiver_a2,
    square_zero_with_diff,
)
from oracles import (
    entries,
    lambda_complex,
    reference_chain_permutation,
    reference_d1,
    reference_d2,
    reference_levels,
)

EMPTY = hashlib.sha256(b"[]").hexdigest()

CASES = {
    "D": (dual_numbers, None, 4),
    "T": (square_zero_with_diff, None, 4),
    "A2": (quiver_a2, None, 4),
    "DxD-(1 2)": (dual_numbers, ((1, 2),), 4),
    "D^3-(1 2 3)": (dual_numbers, ((1, 2, 3),), 3),
}

FROZEN = {
    "D normalized": {
        "d1": [EMPTY] * 5,
        "d2": [
            EMPTY,
            "fe6c524275e045e1fe19406e7af75b70b051c4659b85f68adb08d8c7afdbc67e",
            EMPTY,
            "4cfd3ce30f39b44b9e59643064def1b8a0eef1ed5b64c34e67100f76e6e0cd36",
        ],
    },
    "D full": {
        "d1": [EMPTY] * 5,
        "d2": [
            EMPTY,
            "2aefc7d05e3eaca42b2596bbd943b15b1d6e4d12998778167ac69a650e2f91fc",
            "8c6dc080c46ffc6b68bb5b557f8cc32d209334c231fe4f0f64bada9c00e37b2f",
            "9c5cc84bdb56122ceaa771eb243c010f70ccf484af7fd80b58a0f7c1719ece10",
        ],
    },
    "T normalized": {
        "d1": [
            "327f698ec71570cb24035be4c13069540eb5b177d7f9c09ffc370052c3b9ec12",
            "c432b21b48a861c2f9ddbc3ce8cca51e292ca808f74a5e0def7f7bbe0befeca3",
            "5cdb9079d1509c99122839f9cc45265d4c8601ad3e01604dcc5951771ac1ee14",
            "464dc5a9e3152f69992391c1397eb9994d4da9bddfea93cfc004b099566da454",
            "d71975f6f8b97d13a9f0d40f7ae3571856f6298395dfcaca9a6a7b4bb21719a2",
        ],
        "d2": [
            EMPTY,
            "90d17037cc81bf3e5e6b7aad8f4ff8d4d793fb384dd1e28a03f11388352d29e0",
            "132f38f8f5490d820236b7fa0c1ab891c4b8a7f11cecacc80ca9c819507d01c2",
            "76f6255d58547b0796db903fcb5125fb786846b097b5c53e6e610184d5e7bce9",
        ],
    },
    "T full": {
        "d1": [
            "327f698ec71570cb24035be4c13069540eb5b177d7f9c09ffc370052c3b9ec12",
            "8a73e8b723cae4486aa2435e88669b348ee92650df8ef9655e83a1a4be30e3d2",
            "ec14d94fe2ec823f9cec6a59b20d63ffb8b3bbf51e16b4efb90bd10aed0ed269",
            "36c72cd510d86479f1a075d2400142bb7f9f5463fad4aea0700dceda4303c67f",
            "d34413f3283a4d0e75e422a66d6bcfdb87d5563cb3cfd77e0f5318901155027c",
        ],
        "d2": [
            EMPTY,
            "8455e6977d31cbe56c6a0cd7174d5b9bc905df2a66ecc9805ba06bc763ab4139",
            "b41bd372f8cc1e10df0d91c6ce838a2bc9cd228b4d12f98bca31f20766ddbf6f",
            "7cae9bf2f014f3c02e8d3a138bca63a490655f3ab02012524126b9871a3d5038",
        ],
    },
    "A2 normalized": {
        "d1": [EMPTY] * 5,
        "d2": [EMPTY] * 4,
    },
    "A2 full": {
        "d1": [EMPTY] * 5,
        "d2": [
            EMPTY,
            "d192a8b2fa8173b7940963fd6601609b42ddd04969e85f0e3d1d002475a9ea6d",
            EMPTY,
            "b02facae64d89f6423e65803e1f2da9f25ee559a186c8f21d0d722219eb7641e",
        ],
    },
    "DxD-(1 2) normalized": {
        "d1": [EMPTY] * 5,
        "d2": [
            "c74cd6a6d39a6f0a156ebbf4f93aecb15860295fc59c114b76ac3fd9aac5b06d",
            "74df7cca7d8daf78de1f79e555d0d50a456b05c3c18e2f3f4ee8726d1d3ecfe5",
            "502fb17a831c0b872f682280072e364a09f74327f7b1c6217857f823bd68428d",
            "dfba1def272daa224a2906cb0f7097006ae7e2c1f27083a476252f2316a9e399",
        ],
    },
    "DxD-(1 2) full": {
        "d1": [EMPTY] * 5,
        "d2": [
            "c74cd6a6d39a6f0a156ebbf4f93aecb15860295fc59c114b76ac3fd9aac5b06d",
            "72c87c6d701b37aac03111e51d3ab46a30fa2ef45541e2ff526c4477bfe836fa",
            "7bd2bd5fdb6ad2dcf5e6c935e9c1544365bf495ba682f6a940548a61ebb6345a",
            "3017745c8d748b682a11fa8f9a2cb1c03804c6bf1e61bd4ad13957fd85fb64cc",
        ],
    },
    "D^3-(1 2 3) normalized": {
        "d1": [EMPTY] * 4,
        "d2": [
            "d02eb410919dc314cc6e1299b8727c8c25fc0d462381d0130402dbabd1e417a3",
            "8df1e0658c1695860a8afc52ed83cbceed8e809e03a98e20cb978b722dddb4df",
            "3a45717c030c7a3fe28edd1fe76238583673f6596c9e5ce3514dd5ee7a6ed12d",
        ],
    },
    "D^3-(1 2 3) full": {
        "d1": [EMPTY] * 4,
        "d2": [
            "d02eb410919dc314cc6e1299b8727c8c25fc0d462381d0130402dbabd1e417a3",
            "59f0a209375a0d183c0e1de28bdc5e0fbaab01adc783e9207f84245874a43afd",
            "da76771e6d96175bd445355a71c643754e97b872967cc9536ade88299915b590",
        ],
    },
}


def digest(sc, mtx, row_level, col_level) -> str:
    triples = sorted((list(sc.chain_ids(row_level, r)),
                      list(sc.chain_ids(col_level, c)), str(v))
                     for (r, c), v in mtx.items())
    return hashlib.sha256(
        json.dumps(triples, ensure_ascii=False).encode()).hexdigest()


@pytest.mark.parametrize("normalized", [True, False],
                         ids=["normalized", "full"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_differentials_match_frozen_digests(case, normalized):
    make, cycle, max_level = CASES[case]
    c = make()
    if cycle:
        n = len(cycle[0])
        c, twist = permuted(c, n, Permutation.from_cycles(n, list(cycle)))
    else:
        twist = identity_functor(c)
    sc = build_complex(c, twist, max_level, normalized=normalized)
    frozen = FROZEN[f"{case} {'normalized' if normalized else 'full'}"]
    assert [digest(sc, sc.d1[m], m, m)
            for m in range(max_level + 1)] == frozen["d1"]
    assert [digest(sc, sc.d2[m], m - 1, m)
            for m in range(1, max_level + 1)] == frozen["d2"]


# -- integral and non-integral presentations of one category ---------------


def truncated_cube(scale):
    """k[x]/x^3 on the basis 1, x, y = scale·x^2, so x∘x = y / scale."""
    return DgCategory(
        objects=["*"],
        basis={"1": BasisInfo("*", "*", 0), "x": BasisInfo("*", "*", 0),
               "y": BasisInfo("*", "*", 0)},
        units={"*": "1"},
        compose={("x", "x"): {"y": Fraction(1, scale)}, ("x", "y"): {},
                 ("y", "x"): {}, ("y", "y"): {}},
        diff={},
        name="cube",
    )


def two_cycle(scale):
    """a ⇄ b with p: a -> b, q: b -> a, r = scale·(q∘p) and every other
    product of non-units zero."""
    return DgCategory(
        objects=["a", "b"],
        basis={"ea": BasisInfo("a", "a", 0), "eb": BasisInfo("b", "b", 0),
               "p": BasisInfo("a", "b", 0), "q": BasisInfo("b", "a", 0),
               "r": BasisInfo("a", "a", 0)},
        units={"a": "ea", "b": "eb"},
        compose={("q", "p"): {"r": Fraction(1, scale)}},
        diff={},
        name="cycle",
    )


SWAP = Permutation.from_cycles(2, [(1, 2)])


def entries_by_ids(sc, mtx, row_level, col_level) -> dict:
    return {(sc.chain_ids(row_level, r), sc.chain_ids(col_level, c)): v
            for (r, c), v in mtx.items()}


@pytest.mark.parametrize("make,scaled,twist,max_level", [
    (truncated_cube, "y", None, 4),
    (truncated_cube, "y", SWAP, 3),
    (two_cycle, "r", None, 4),
], ids=["cube", "cube-square-swap", "two-cycle"])
def test_rescaled_presentation_gives_the_same_homology(make, scaled, twist,
                                                        max_level):
    degrees = range(-max_level + 1, 1)
    dims = {}
    integral = None
    for scale in (1, 2, 3):
        c = make(scale)
        assert validate_category(c) == []
        cat, functor = (permuted(c, twist.n, twist) if twist
                        else (c, identity_functor(c)))
        sc = build_complex(cat, functor, max_level)
        for mtx in sc.d1 + sc.d2:
            assert all(type(v) is int
                       or (type(v) is Fraction and v.denominator > 1)
                       for v in entries(mtx).values())
        for mode in (EXACT, MODULAR):
            dims[(scale, mode.kind)] = total_homology(sc, degrees, mode).dims()
        if integral is None:
            integral = sc
            continue

        # a chain of basis ids is scale^(number of scaled factors) times the
        # integral one, so d[r, c] = d_integral[r, c] * S(c) / S(r)
        def S(ids):
            return Fraction(scale) ** sum(
                b.split("⊗").count(scaled) for b in ids)

        for m in range(1, max_level + 1):
            want = {(r, c): v * S(c) / S(r) for (r, c), v in entries_by_ids(
                integral, integral.d2[m], m - 1, m).items()}
            assert entries_by_ids(sc, sc.d2[m], m - 1, m) == want
        assert any(v.denominator > 1 for mtx in sc.d2
                   for v in entries(mtx).values())
    assert len(set(map(str, dims.values()))) == 1, dims


def test_integral_complex_homology_basis_stays_exact():
    """k[x]/x^3 with x∘x = 3·y has integral differentials with entries ±3,
    so the homology bases need non-unit pivots."""
    c = truncated_cube(Fraction(1, 3))
    sc = build_complex(c, identity_functor(c), 4)
    # the reference: the same complex with every entry held as a Fraction,
    # integral ones included, set past the normalising constructor
    ref = build_complex(c, identity_functor(c), 4)
    for k in range(-4, 1):
        d = ref.total_differential(k)
        d.by_row = {i: {j: Fraction(v) for j, v in row.items()}
                    for i, row in d.by_row.items()}
    assert any(abs(v) == 3 for _, v in sc.total_differential(-2).items())
    for k in range(-3, 1):
        d_out = sc.total_differential(k)
        assert all(type(v) is int for v in entries(d_out).values())
        reps, boundaries = sc.homology_basis(k)
        assert (reps, boundaries) == ref.homology_basis(k)
        assert all(type(v) in (int, Fraction)
                   for vec in reps + boundaries for v in vec.values())
        for z in reps:
            assert d_out.apply(z) == {}
        assert len(reps) == total_homology(sc, [k]).dims()[k]


def test_unchecked_differentials_keep_the_entry_contract():
    """total_differential and the orbit differential skip the constructor's
    checks; on a presentation with non-integral constants their entries
    must still be ints or non-integral Fractions, nonzero and in range."""
    from hhwb.decomposition import OrbitComplex, Partition
    from hhwb.dgcore import permutation_functor, tensor_power
    from hhwb.decomposition import signed_chain_permutation
    from hhwb.qlinalg import SparseMatrix

    c = truncated_cube(2)
    power = tensor_power(c, 2)
    sc = lambda_complex(c, 2, Partition((1, 1)), 3, True, power)
    swap = permutation_functor(c, 2, Permutation.from_cycles(2, [(1, 2)]),
                               power=power)
    oc = OrbitComplex(sc, [signed_chain_permutation(sc, swap, range(4))])
    seen_fraction = False
    for k in range(-3, 1):
        for mtx in (sc.total_differential(k), oc.total_differential(k)):
            assert mtx == SparseMatrix(mtx.rows, mtx.cols, entries(mtx))
            assert all(type(v) is int or (type(v) is Fraction
                                          and v.denominator > 1)
                       for v in entries(mtx).values())
            seen_fraction |= any(type(v) is Fraction
                                 for v in entries(mtx).values())
    assert seen_fraction


# -- the grid assembly against the tuple-based reference --------------------


def _perm(n, *cycles):
    return Permutation.from_cycles(n, list(cycles))


# (category, twist as (n, cycles) or None, the permutations (n, cycles) whose
# chain permutations are compared, max level)
REFERENCE_CASES = {
    "K": (ground_field, None, [], 4),
    "D": (dual_numbers, None, [], 4),
    "E": (odd_dual, None, [], 4),
    "T": (square_zero_with_diff, None, [], 4),
    "A2": (quiver_a2, None, [], 4),
    "two-cycle": (lambda: two_cycle(2), None, [], 4),
    "DxD-id": (dual_numbers, (2, ()), [(2, (1, 2))], 4),
    "DxD-(1 2)": (dual_numbers, (2, ((1, 2),)), [(2, (1, 2))], 4),
    "ExE-(1 2)": (odd_dual, (2, ((1, 2),)), [(2, (1, 2))], 4),
    "TxT-(1 2)": (square_zero_with_diff, (2, ((1, 2),)), [(2, (1, 2))], 3),
    "cube^2-(1 2)": (lambda: truncated_cube(2), (2, ((1, 2),)),
                     [(2, (1, 2))], 3),
    "D^3-(1 2 3)": (dual_numbers, (3, ((1, 2, 3),)),
                    [(3, (1, 2, 3)), (3, (1, 3, 2))], 4),
    "E^3-(1 2)": (odd_dual, (3, ((1, 2),)), [(3, (1, 2)), (3, (3,))], 3),
    "A2^2-(1 2)": (quiver_a2, (2, ((1, 2),)), [(2, (1, 2))], 4),
}


@pytest.mark.parametrize("normalized", [True, False],
                         ids=["normalized", "full"])
@pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
def test_grid_assembly_matches_the_tuple_reference(case, normalized):
    make, twist, perms, max_level = REFERENCE_CASES[case]
    c = make()
    if twist is None:
        sc = build_complex(c, identity_functor(c), max_level, normalized)
    else:
        n, cycles = twist
        sc = build_complex(*permuted(c, n, _perm(n, *cycles)), max_level,
                           normalized)
    phis = [permutation_functor(c, n, _perm(n, cycle), power=sc.category)
            for n, cycle in perms] or [identity_functor(c)]
    chain_perms = [signed_chain_permutation(sc, phi, range(max_level + 1))
                   for phi in phis]
    for m in range(max_level + 1):
        assert list(sc.levels[m]) == reference_levels(sc, m), m
        assert entries(sc.d1[m]) == entries(reference_d1(sc, m)), m
        assert entries(sc.d2[m]) == entries(reference_d2(sc, m)), m
        for phi, perm in zip(phis, chain_perms):
            rows, signs = perm[m]
            assert (list(rows), list(signs)) == reference_chain_permutation(
                sc, phi, m), m

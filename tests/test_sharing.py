"""The λ complexes of one tensor power, built in one build_complexes
call, share a skeleton: the chain catalog, d1, the inner faces of d2 and
the chain permutations are built once, and every level is built only when
a degree reads it."""

import gc
import weakref
from fractions import Fraction

import pytest

from hhwb import hochschild
from hhwb.cli import main
from hhwb.decomposition import (
    _checked_chain_permutation,
    centralizer_gens,
    partitions,
    sigma_of,
    signed_chain_permutation,
    verify_decomposition,
)
from hhwb.dgcore import (
    Permutation,
    identity_functor,
    permutation_functor,
    tensor_power,
    validate_category,
)
from hhwb.hochschild import (
    build_complex,
    build_complexes,
    total_homology,
)
from hhwb.qlinalg import MODULAR

from conftest import dual_numbers, permuted, quiver_a2
from oracles import brute_force_levels
from test_assembly import two_cycle
from test_cli import DUAL, QUIVER, run_json


def shared_complexes(c, n, max_level, normalized):
    """(λ, complex) for each λ ⊢ n, built together as verify_decomposition
    builds them."""
    power = tensor_power(c, n)
    lams = partitions(n)
    return list(zip(lams, build_complexes(
        power, [permutation_functor(c, n, sigma_of(lam), power=power)
                for lam in lams], max_level, normalized)))


@pytest.mark.slow
@pytest.mark.parametrize("normalized", [True, False], ids=["norm", "full"])
@pytest.mark.parametrize("make,n", [(dual_numbers, 3), (dual_numbers, 4),
                                    (quiver_a2, 2), (quiver_a2, 3)],
                         ids=["D3", "D4", "A2-2", "A2-3"])
def test_shared_complexes_equal_standalone_ones(make, n, normalized):
    c = make()
    for lam, sc in shared_complexes(c, n, 3, normalized):
        alone = build_complex(*permuted(c, n, sigma_of(lam)), 3,
                              normalized=normalized)
        assert alone.skeleton is not sc.skeleton
        for m in range(4):
            assert list(sc.levels[m]) == list(alone.levels[m]), (lam, m)
            assert sc.d1[m] == alone.d1[m], (lam, m)
            assert sc.d2[m] == alone.d2[m], (lam, m)


def test_one_object_complexes_share_one_catalog():
    built = shared_complexes(dual_numbers(), 3, 3, True)
    (_, first), rest = built[0], built[1:]
    for _, sc in rest:
        assert sc.skeleton is first.skeleton
        for m in range(4):
            assert sc.levels[m] is first.levels[m]
            assert sc.row_of[m] is first.row_of[m]
            assert sc.d1[m] is first.d1[m]
    # the wrap face makes d2 the complex's own
    assert first.d2[2] is not rest[0][1].d2[2]


def test_multi_object_complexes_share_only_per_object_map():
    c = quiver_a2()
    (lam1, ident), (lam2, swap) = shared_complexes(c, 2, 3, True)
    assert lam1.parts == (1, 1) and lam2.parts == (2,)
    assert ident.skeleton is not swap.skeleton
    assert list(ident.levels[0]) != list(swap.levels[0])
    assert not (ident.skeleton.shared or swap.skeleton.shared)
    # in one call, the twists with the identity object map share
    twists = [ident.twist, swap.twist, ident.twist]
    first, other, third = build_complexes(ident.category, twists, 3, True)
    assert first.skeleton is third.skeleton is not other.skeleton
    assert first.skeleton.shared and not other.skeleton.shared


def test_chain_permutation_cache_matches_a_fresh_permutation():
    c = dual_numbers()
    built = dict((lam.parts, sc) for lam, sc in shared_complexes(c, 3, 3, True))
    levels = [0, 1, 2, 3]
    cache, seen = {}, {}
    for parts, sc in built.items():
        pres = centralizer_gens(next(lam for lam in partitions(3)
                                     if lam.parts == parts))
        for h in pres.s_generators + pres.c_generators:
            perm = _checked_chain_permutation(c, sc, h, levels, cache)
            phi = permutation_functor(c, 3, h, power=sc.category)
            assert perm == signed_chain_permutation(sc, phi, levels)
            if h.images in seen:
                assert perm is seen[h.images]  # (2 3) serves (1,1,1) and (1,2)
            seen[h.images] = perm
    assert len(seen) == len(cache) == 3


def test_only_the_levels_the_degrees_read_are_built(capsys, monkeypatch):
    enumerated = []
    enumerate_level = hochschild._Skeleton._enumerate

    def spy(self, m):
        enumerated.append(m)
        return enumerate_level(self, m)

    monkeypatch.setattr(hochschild._Skeleton, "_enumerate", spy)
    res = run_json(capsys, "decompose", DUAL, "--n", "4", "--max-level", "4",
                   "--degrees=-1..0")["results"]
    assert res["lhs_totals"] == res["rhs_totals"] == {"0": 20, "-1": 18}
    assert set(res["verdicts"].values()) == {"Equal"}
    # degrees -1..0 read total degrees -2..1, which D has at levels 0..2;
    # one skeleton for the λ complexes and one for the factor
    assert sorted(enumerated) == [0, 0, 1, 1, 2, 2]


def test_a_complex_is_built_on_its_category_as_it_is_now():
    c = dual_numbers()
    first = build_complex(c, identity_functor(c), 3)
    assert total_homology(first, [0, -1, -2]).dims() == {0: 2, -1: 1, -2: 1}
    c.compose[("x", "x")] = {"x": Fraction(1)}  # k[x]/(x² - x) ≅ k × k
    assert validate_category(c) == []
    second = build_complex(c, identity_functor(c), 3)
    assert second.skeleton is not first.skeleton
    assert total_homology(second, [0, -1, -2]).dims() == {0: 2, -1: 0, -2: 0}


def test_levels_are_built_on_first_access():
    c = dual_numbers()
    sc = build_complex(c, identity_functor(c), 5)
    assert sc.levels.built() == []
    sc.total_differential(-2)  # degrees -2 -> -1: levels 2 and 1
    assert sc.levels.built() == [1, 2]
    assert sc.d2.built() == [2]
    assert [len(level) for level in sc.levels] == [2] * 6
    assert sc.levels.built() == [0, 1, 2, 3, 4, 5]


def test_homology_reads_chains_only_as_grid_positions(capsys, monkeypatch):
    decoded = []
    for name in ("__iter__", "__getitem__"):
        def spy(self, *args, _read=getattr(hochschild._Level, name)):
            decoded.append(len(self))
            return _read(self, *args)

        monkeypatch.setattr(hochschild._Level, name, spy)
    sc = build_complex(*permuted(dual_numbers(), 2, Permutation((1, 0))), 4)
    dims = total_homology(sc, range(-3, 1), MODULAR).dims()
    assert dims == {0: 2, -1: 1, -2: 1, -3: 1}
    res = run_json(capsys, "decompose", DUAL, "--n", "3", "--max-level",
                   "3", "--degrees=-2..0")["results"]
    assert res["lhs_totals"] == {"0": 10, "-1": 8, "-2": 9}
    # no level was read as chain tuples, and no {chain: row} map was built
    assert decoded == []
    assert sc.levels.built() == [0, 1, 2, 3, 4]
    assert sc.row_of.built() == []
    monkeypatch.undo()
    gc.collect()
    chains = {len(level): set(level) for level in sc.levels}
    for obj in gc.get_objects():
        if type(obj) in (list, dict) and len(obj) in chains:
            level = chains[len(obj)]
            assert not all(type(ch) is tuple and ch in level for ch in obj)


def test_a_lone_complex_holds_its_faces_once():
    c = dual_numbers()
    lone = build_complex(c, identity_functor(c), 3)
    lone.d2[3]
    assert lone.skeleton._inner == {}  # d2 is the only copy
    built = shared_complexes(c, 3, 3, True)
    for _, sc in built:
        sc.d2[3]
    assert list(built[0][1].skeleton._inner) == [3]  # built once, then copied


def test_a_group_builds_each_levels_inner_faces_once(monkeypatch):
    built = []  # (shared, level) of each build of a level's inner faces
    inner_faces = hochschild._Skeleton.inner_faces

    def spy(self, m):
        if m not in self._inner:
            built.append((self.shared, m))
        return inner_faces(self, m)

    monkeypatch.setattr(hochschild._Skeleton, "inner_faces", spy)
    c = dual_numbers()
    group = shared_complexes(c, 3, 3, True)
    for lam, sc in group:
        for m in (2, 3):
            alone = build_complex(*permuted(c, 3, sigma_of(lam)), 3)
            assert sc.d2[m] == alone.d2[m]
    assert all(sc.skeleton is group[0][1].skeleton for _, sc in group)
    # the group builds each level's faces once and keeps them; each
    # standalone complex builds its own
    assert [m for shared, m in built if shared] == [2, 3]
    assert sorted(m for shared, m in built if not shared) == [2] * 3 + [3] * 3


def test_a_complex_frees_its_power_without_the_cycle_collector():
    enabled = gc.isenabled()
    gc.disable()
    try:
        sc = build_complex(*permuted(dual_numbers(), 3, sigma_of(
            partitions(3)[1])), 3)
        sc.total_differential(-2)
        power, skeleton = weakref.ref(sc.category), weakref.ref(sc.skeleton)
        del sc
        assert power() is None and skeleton() is None
    finally:
        if enabled:
            gc.enable()


def test_the_lambda_skeleton_is_freed_once_a_verification_returns(
        monkeypatch):
    from hhwb import decomposition

    skeletons = []

    def spy(*args):
        built = build_complexes(*args)
        assert all(sc.skeleton is built[0].skeleton for sc in built)
        skeletons.append(weakref.ref(built[0].skeleton))
        return built

    monkeypatch.setattr(decomposition, "build_complexes", spy)
    enabled = gc.isenabled()
    gc.disable()
    try:
        rep = verify_decomposition(dual_numbers(), 3, [0, -1], 3)
        assert rep.all_equal and len(skeletons) == 1
        assert skeletons[0]() is None
    finally:
        if enabled:
            gc.enable()


def test_no_lambda_complex_is_alive_while_the_factor_is_built(monkeypatch):
    from hhwb import decomposition

    complexes, alive = [], []

    def spy_many(*args):
        built = build_complexes(*args)
        complexes.extend(weakref.ref(sc) for sc in built)
        return built

    def spy_one(*args, **kwargs):  # the factor complex
        alive.extend(ref() is not None for ref in complexes)
        return build_complex(*args, **kwargs)

    monkeypatch.setattr(decomposition, "build_complexes", spy_many)
    monkeypatch.setattr(decomposition, "build_complex", spy_one)
    enabled = gc.isenabled()
    gc.disable()
    try:
        rep = verify_decomposition(dual_numbers(), 3, [0, -1, -2], 3)
        assert rep.all_equal
        assert alive == [False] * len(partitions(3))
    finally:
        if enabled:
            gc.enable()


def test_verify_decomposition_builds_each_chain_permutation_once(monkeypatch):
    from hhwb import decomposition

    built = []
    signed = decomposition.signed_chain_permutation

    def spy(sc, phi, levels):
        built.append(phi.name)
        return signed(sc, phi, levels)

    monkeypatch.setattr(decomposition, "signed_chain_permutation", spy)
    rep = decomposition.verify_decomposition(dual_numbers(), 3, [0, -1, -2], 3)
    assert rep.lhs_totals == {0: 10, -1: 8, -2: 9} and rep.all_equal
    # (1 2) and (2 3) for (1,1,1); (2 3) again, shared, for (1,2); (1 2 3)
    assert sorted(built) == ["perm(0, 2, 1)", "perm(1, 0, 2)", "perm(1, 2, 0)"]


@pytest.mark.parametrize("normalized", [True, False], ids=["norm", "full"])
@pytest.mark.parametrize("make,n", [(quiver_a2, 2), (quiver_a2, 3),
                                    (lambda: two_cycle(1), 2)],
                         ids=["A2-2", "A2-3", "cycle-2"])
def test_enumeration_matches_every_object_tuple(make, n, normalized):
    for lam, sc in shared_complexes(make(), n, 4, normalized):
        expected = brute_force_levels(sc.skeleton, 4)
        assert [list(sc.levels[m]) for m in range(5)] == expected, lam
        assert expected[0], lam


def test_decompose_quiver_fourth_power(capsys):
    res = run_json(capsys, "decompose", QUIVER, "--n", "4",
                   "--max-level", "4")["results"]
    assert res["lhs_totals"] == res["rhs_totals"] == {
        "0": 20, "-1": 0, "-2": 0, "-3": 0}
    assert set(res["verdicts"].values()) == {"Equal"}

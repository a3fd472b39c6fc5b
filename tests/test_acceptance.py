"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS line directly to the terminal when it
succeeds; a failed assertion marks the criterion FAILED in the verbose
test listing.
"""

import json
import time
from fractions import Fraction

import pytest

from hhwb.chainmaps import homotopy_H, twist_endo_map
from hhwb.cli import main
from hhwb.contraction import (
    FiniteAlgebra,
    algebra_square,
    diagonal_bimodule,
    free_env_module,
    random_bimodule,
    warmup_factorization,
)
from hhwb.decomposition import (
    Partition,
    centralizer_gens,
    partitions,
    sigma_of,
    verify_decomposition,
)
from hhwb.dgcore import Permutation, identity_functor, tensor, tensor_functor
from hhwb.hochschild import build_complex, total_homology
from hhwb.kunneth import kunneth_verify, s2_check, shuffle_map, \
    verify_shuffle_chain_map
from hhwb.qlinalg import MODULAR, SparseMatrix, projector_invariant_dim

from conftest import dual_numbers, ground_field, permuted, quiver_a2
from oracles import lambda_invariant_dims, twisted_summand_dims
from test_cli import DUAL, GROUND, QUIVER
from test_hochschild import bar_complex_dims_T2, periodic_resolution_dims_D


def announce(capsys, n, budget, elapsed, detail):
    with capsys.disabled():
        print(f"\ncriterion {n:2d}: PASS ({elapsed:.2f}s < {budget}s) {detail}")


def run_cli_json(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_criterion_01_ground_field(capsys):
    t0 = time.monotonic()
    code, rep = run_cli_json(capsys, "compute", GROUND, "--mode", "exact",
                             "--max-level", "4", "--degrees=-3..0")
    dims = {int(k): v["dim"] for k, v in rep["results"].items()}
    assert code == 0
    assert dims == {0: 1, -1: 0, -2: 0, -3: 0}
    assert all(v["certificate"] == "exact" for v in rep["results"].values())
    dt = time.monotonic() - t0
    assert dt < 1
    announce(capsys, 1, 1, dt, "ground field: dim 1 at degree 0, 0 elsewhere")


def test_criterion_02_dual_numbers(capsys):
    t0 = time.monotonic()
    code, rep = run_cli_json(capsys, "compute", DUAL, "--mode", "exact",
                             "--max-level", "5", "--degrees=-4..0")
    dims = tuple(rep["results"][str(-k)]["dim"] for k in range(5))
    assert code == 0
    assert dims == (2, 1, 1, 1, 1)
    assert list(dims) == list(periodic_resolution_dims_D(4))[:5]
    dt = time.monotonic() - t0
    assert dt < 10
    announce(capsys, 2, 10, dt,
             "dual numbers: (2,1,1,1,1) matches the periodic-resolution "
             "oracle")


def test_criterion_03_quiver(capsys):
    # The independent bar-complex oracle gives (2,0,0,0): degree 0 is the
    # algebra modulo commutators, which is 2-dimensional for the path
    # algebra of a -> b (the two vertex idempotents; the arrow is a
    # commutator).  The value (1,0,0,0) would be the center instead.
    t0 = time.monotonic()
    code, rep = run_cli_json(capsys, "compute", QUIVER, "--mode", "exact",
                             "--max-level", "4", "--degrees=-3..0")
    dims = tuple(rep["results"][str(-k)]["dim"] for k in range(4))
    assert code == 0
    assert dims == (2, 0, 0, 0)
    assert list(dims) == list(bar_complex_dims_T2(3))[:4]
    dt = time.monotonic() - t0
    assert dt < 30
    announce(capsys, 3, 30, dt,
             "quiver path algebra: (2,0,0,0) matches the brute-force bar "
             "oracle (multi-object path)")


def test_criterion_04_warmup(capsys):
    t0 = time.monotonic()
    swap = Permutation.from_cycles(2, [(1, 2)])
    d = dual_numbers()
    sc = build_complex(*permuted(d, 2, swap), 4)
    dims = tuple(total_homology(sc, [0, -1, -2, -3]).dims()[-k]
                 for k in range(4))
    assert dims == (2, 1, 1, 1)
    a = FiniteAlgebra(d)
    sq = algebra_square(a)
    for m in (free_env_module(sq), diagonal_bimodule(sq)):
        rep = warmup_factorization(a, m)
        assert rep.kernels_equal and rep.lhs_dim == rep.rhs_dim
    for seed in range(20):
        rep = warmup_factorization(a, random_bimodule(a, seed=seed))
        assert rep.kernels_equal and rep.lhs_dim == rep.rhs_dim, seed
    dt = time.monotonic() - t0
    assert dt < 60
    announce(capsys, 4, 60, dt,
             "warm-up: swap-twisted square has dims (2,1,1,1); kernel "
             "factorization holds on fixtures and 20 seeded bimodules")


def test_criterion_05_three_cycle(capsys):
    t0 = time.monotonic()
    summary = twisted_summand_dims(dual_numbers(), 3, Partition((3,)),
                                   [0, -1, -2], max_level=3, mode=MODULAR)
    dims = tuple(summary.dims()[-k] for k in range(3))
    assert dims == (2, 1, 1)
    for r in summary.degrees.values():
        assert r.mode == "modular" and len(r.primes) == 2 and r.agreed
    dt = time.monotonic() - t0
    assert dt < 300
    announce(capsys, 5, 300, dt,
             "3-cycle twist on the cube: (2,1,1), two modular primes agree")


def test_criterion_06_kunneth(capsys):
    t0 = time.monotonic()
    D = dual_numbers()
    K = ground_field()

    def tensor_sc(c1, c2, n):
        cat = tensor(c1, c2)
        tw = tensor_functor(identity_functor(c1), identity_functor(c2),
                            cat, cat)
        return build_complex(cat, tw, n)

    a = build_complex(D, identity_functor(D), 4)
    b = build_complex(K, identity_functor(K), 4)
    assert verify_shuffle_chain_map(
        shuffle_map(a, a, tensor_sc(D, D, 4))) == []
    assert verify_shuffle_chain_map(
        shuffle_map(a, b, tensor_sc(D, K, 4))) == []
    report = kunneth_verify(a, a, [0, -1, -2, -3], tensor_sc(D, D, 4))
    assert report.ok
    dims = {k: r.target_dim for k, r in report.degrees.items()}
    assert dims == {0: 4, -1: 4, -2: 5, -3: 6}
    assert all(r.induced_rank == r.target_dim
               for r in report.degrees.values())
    assert s2_check(build_complex(D, identity_functor(D), 3),
                    tensor_sc(D, D, 3)) == []
    dt = time.monotonic() - t0
    assert dt < 120
    announce(capsys, 6, 120, dt,
             "shuffle chain map exact on all blocks; induced map full rank "
             "with dims (4,4,5,6); symmetry identity exact")


def test_criterion_07_homotopy(capsys):
    t0 = time.monotonic()
    D = dual_numbers()
    negx = type(identity_functor(D))(
        D, D, {"*": "*"},
        {"1": {"1": Fraction(1)}, "x": {"x": Fraction(-1)}}, name="negx")
    swap = permuted(D, 2, Permutation.from_cycles(2, [(1, 2)]))
    complexes = [
        build_complex(D, identity_functor(D), 3, normalized=False),
        build_complex(D, negx, 3, normalized=False),
        build_complex(*swap, 3),
    ]
    for sc in complexes:
        H = homotopy_H(sc)
        endo = twist_endo_map(sc).blocks
        for m in range(sc.max_level):
            assert sc.d1[m + 1].mul(H[m]).add(H[m].mul(sc.d1[m])).is_zero()
            lhs = sc.d2[m + 1].mul(H[m])
            if m >= 1:
                lhs = lhs.add(H[m - 1].mul(sc.d2[m]))
            ident = SparseMatrix.identity(len(sc.levels[m]))
            assert lhs == ident.sub(endo[m])
    dt = time.monotonic() - t0
    assert dt < 60
    announce(capsys, 7, 60, dt,
             "homotopy identities exact for id and x↦-x on D and the "
             "rotation twist on the square")


def test_criterion_08_decompose_trivial(capsys):
    t0 = time.monotonic()
    expected = {1: 1, 2: 2, 3: 3, 4: 5, 5: 7}
    for k, p in expected.items():
        code, rep = run_cli_json(capsys, "decompose", GROUND, "--n", str(k),
                                 "--mode", "exact", "--max-level", "2",
                                 "--degrees=0..0")
        assert code == 0
        assert rep["results"]["verdicts"] == {"0": "Equal"}
        assert rep["results"]["lhs_totals"] == {"0": p}
    dt = time.monotonic() - t0
    assert dt < 10
    announce(capsys, 8, 10, dt,
             "trivial coefficients: totals p(1..5) = (1,2,3,5,7), all Equal")


def test_criterion_09_decompose_dual(capsys):
    t0 = time.monotonic()
    D = dual_numbers()
    two = verify_decomposition(D, 2, [0, -1, -2, -3], max_level=4,
                               mode=MODULAR)
    assert two.all_equal
    assert two.lhs_totals == {0: 5, -1: 3, -2: 3, -3: 4}
    assert two.lhs_totals == two.rhs_totals
    three = verify_decomposition(D, 3, [0, -1, -2], max_level=3,
                                 mode=MODULAR)
    assert three.all_equal
    assert three.lhs_totals == {0: 10, -1: 8, -2: 9}
    assert three.lhs_totals == three.rhs_totals
    dt = time.monotonic() - t0
    assert dt < 900
    announce(capsys, 9, 900, dt,
             "main comparison on dual numbers: n=2 gives (5,3,3,4), n=3 "
             "gives (10,8,9), both sides Equal in modular mode")


def test_criterion_10_structural(capsys):
    t0 = time.monotonic()
    corpus = [ground_field(), dual_numbers(), quiver_a2()]
    # (d1 + d2)^2 = 0 blockwise on every stored level
    for c in corpus:
        for normalized in (True, False):
            sc = build_complex(c, identity_functor(c), 3,
                               normalized=normalized)
            for m in range(1, sc.max_level + 1):
                assert sc.d1[m].mul(sc.d1[m]).is_zero()
                assert sc.d2[m - 1].mul(sc.d2[m]).is_zero() if m >= 2 else True
                mixed = sc.d1[m - 1].mul(sc.d2[m]).add(
                    sc.d2[m].mul(sc.d1[m]))
                assert mixed.is_zero()
    # normalized and full homology agree on certified degrees
    for c in corpus:
        full = total_homology(build_complex(c, identity_functor(c), 3,
                                            normalized=False), [0, -1, -2])
        norm = total_homology(build_complex(c, identity_functor(c), 3,
                                            normalized=True), [0, -1, -2])
        assert full.dims() == norm.dims()
    # averaging projector is idempotent with rank = trace; rotations act as
    # the homology identity
    D = dual_numbers()
    inv = lambda_invariant_dims(D, Partition((1, 1)), [0, -1, -2], max_level=3)
    assert inv == {0: 3, -1: 2, -2: 2}
    inv_rot = lambda_invariant_dims(D, Partition((2,)), [0, -1, -2],
                                    max_level=3)
    assert inv_rot == {0: 2, -1: 1, -2: 1}
    # centralizer generators commute with sigma for all partitions, n <= 6
    for n in range(1, 7):
        for lam in partitions(n):
            pres = centralizer_gens(lam)  # raises on any failure
            sig = sigma_of(lam)
            for g in pres.c_generators + pres.s_generators:
                assert g.after(sig) == sig.after(g)
    # reported dims are invariant under renaming/reordering the basis
    from hhwb.dgcore import BasisInfo, DgCategory
    renamed = DgCategory(
        objects=["*"],
        basis={"zz_unit": BasisInfo("*", "*", 0),
               "aa_nil": BasisInfo("*", "*", 0)},
        units={"*": "zz_unit"},
        compose={("aa_nil", "aa_nil"): {}},
        diff={},
        name="D-renamed",
    )
    base = total_homology(build_complex(D, identity_functor(D), 4),
                          [0, -1, -2, -3]).dims()
    other = total_homology(build_complex(renamed, identity_functor(renamed),
                                         4), [0, -1, -2, -3]).dims()
    assert base == other
    dt = time.monotonic() - t0
    assert dt < 120
    announce(capsys, 10, 120, dt,
             "differential squares to zero; normalized/full agree; "
             "projectors idempotent with rank = trace; rotations trivial; "
             "centralizers commute; basis-renaming invariance")

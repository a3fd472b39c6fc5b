from fractions import Fraction
from math import comb

import pytest

from hhwb.decomposition import dims_convolve
from hhwb.dgcore import identity_functor, tensor
from hhwb.functors import tensor_functor
from hhwb.hochschild import build_complex
from hhwb.kunneth import (
    kunneth_verify,
    s2_check,
    shuffle_map,
    verify_shuffle_chain_map,
)
from hhwb.qlinalg import StructuralError

from conftest import dual_numbers, ground_field, odd_dual
from oracles import entries


def tensor_complex(c1, c2, max_level, normalized=True):
    cat = tensor(c1, c2)
    twist = tensor_functor(identity_functor(c1), identity_functor(c2), cat, cat)
    return build_complex(cat, twist, max_level, normalized=normalized)


def test_dims_convolve():
    unit = {0: 1}
    h = {0: 2, -1: 1, -2: 1, -3: 1}
    assert dims_convolve(unit, h) == h
    assert dims_convolve({}, h) == {}
    assert dims_convolve(h, h) == {0: 4, -1: 4, -2: 5, -3: 6, -4: 3, -5: 2, -6: 1}


def test_empty_shuffle_block(K, D):
    a = build_complex(D, identity_functor(D), 2)
    b = build_complex(K, identity_functor(K), 2)
    sh = shuffle_map(a, b, tensor_complex(D, K, 2))
    blk = sh.blocks[(0, 0)]
    # Sh(m[] ⊗ n[]) = (m⊗n)[]: a permutation-like matrix with +1 entries
    assert blk.nnz() == len(a.levels[0]) * len(b.levels[0])
    assert all(v == Fraction(1) for v in entries(blk).values())


def test_number_of_terms_is_binomial(D):
    # Normalized chains have non-unit bar slots, so the images f⊗1 and 1⊗g
    # of distinct shuffle words are distinct basis chains and nothing cancels.
    a = build_complex(D, identity_functor(D), 3, normalized=True)
    sh = shuffle_map(a, a, tensor_complex(D, D, 3, normalized=True))
    for (k, l), blk in sh.blocks.items():
        per_col = {}
        for (r, c), v in blk.items():
            per_col[c] = per_col.get(c, 0) + 1
        for c in range(blk.cols):
            assert per_col.get(c, 0) == comb(k + l, k)


def test_single_slot_sign_rule(E, K):
    # Sh(m[f] ⊗ n[]) = (-1)^{|f||n|}(m⊗n)[f⊗1]; with |f| = |n| = 1 the sign
    # flips.
    a = build_complex(E, identity_functor(E), 1, normalized=True)
    b = build_complex(E, identity_functor(E), 1, normalized=True)
    sh = shuffle_map(a, b, tensor_complex(E, E, 1))
    blk = sh.blocks[(1, 0)]
    for (r, c), v in blk.items():
        i, j = divmod(c, len(b.levels[0]))
        x, y = a.chain_ids(1, i), b.chain_ids(0, j)
        expected = (-1) ** (a.category.deg(x[1]) * b.category.deg(y[0]))
        assert v == Fraction(expected), (x, y)


def test_two_slot_expansion(D):
    # Sh(m[f] ⊗ n[g]) has the two (1,1)-shuffles with signs +1 and -1 when
    # all degrees vanish.
    a = build_complex(D, identity_functor(D), 1, normalized=True)
    sh = shuffle_map(a, a, tensor_complex(D, D, 2))
    blk = sh.blocks[(1, 1)]
    per_col = {}
    for (r, c), v in blk.items():
        per_col.setdefault(c, []).append(v)
    for c, vals in per_col.items():
        assert sorted(vals) == [Fraction(-1), Fraction(1)]


@pytest.mark.parametrize("normalized", [True, False])
def test_chain_map_identity_on_dual_numbers(D, K, normalized):
    a = build_complex(D, identity_functor(D), 3, normalized=normalized)
    b = build_complex(K, identity_functor(K), 3, normalized=normalized)
    sh = shuffle_map(a, b, tensor_complex(D, K, 3, normalized=normalized))
    assert verify_shuffle_chain_map(sh) == []
    sh2 = shuffle_map(a, a, tensor_complex(D, D, 3, normalized=normalized))
    assert verify_shuffle_chain_map(sh2) == []


def test_chain_map_identity_with_odd_degrees(E, T):
    a = build_complex(E, identity_functor(E), 3)
    sh = shuffle_map(a, a, tensor_complex(E, E, 3))
    assert verify_shuffle_chain_map(sh) == []
    t = build_complex(T, identity_functor(T), 3)
    sh2 = shuffle_map(t, t, tensor_complex(T, T, 3))
    assert verify_shuffle_chain_map(sh2) == []


def test_chain_map_identity_mixed_factors(D, T):
    a = build_complex(D, identity_functor(D), 3)
    t = build_complex(T, identity_functor(T), 3)
    sh = shuffle_map(a, t, tensor_complex(D, T, 3))
    assert verify_shuffle_chain_map(sh) == []


def test_normalization_mismatch_rejected(D):
    a = build_complex(D, identity_functor(D), 2, normalized=True)
    with pytest.raises(StructuralError):
        shuffle_map(a, a, tensor_complex(D, D, 2, normalized=False))


def test_kunneth_ground_field(K):
    a = build_complex(K, identity_functor(K), 3)
    report = kunneth_verify(a, a, [0, -1], tensor_complex(K, K, 3))
    assert report.ok
    assert report.degrees[0].convolved_dim == 1
    assert report.degrees[-1].convolved_dim == 0


def test_kunneth_dual_times_field(D, K):
    a = build_complex(D, identity_functor(D), 4)
    b = build_complex(K, identity_functor(K), 4)
    report = kunneth_verify(a, b, [0, -1, -2, -3], tensor_complex(D, K, 4))
    assert report.ok
    assert {k: d.convolved_dim for k, d in report.degrees.items()} == \
        {0: 2, -1: 1, -2: 1, -3: 1}


def test_kunneth_dual_squared(D):
    a = build_complex(D, identity_functor(D), 4)
    report = kunneth_verify(a, a, [0, -1, -2, -3], tensor_complex(D, D, 4))
    assert report.chain_map_diags == []
    assert report.ok
    dims = {k: d.target_dim for k, d in report.degrees.items()}
    assert dims == {0: 4, -1: 4, -2: 5, -3: 6}
    assert all(d.certified for d in report.degrees.values())
    assert all(d.induced_rank == d.target_dim for d in report.degrees.values())


def test_s2_check_ground_field(K):
    a = build_complex(K, identity_functor(K), 3)
    assert s2_check(a, tensor_complex(K, K, 3)) == []


def test_s2_check_dual_numbers(D):
    a = build_complex(D, identity_functor(D), 3)
    assert s2_check(a, tensor_complex(D, D, 3)) == []


def test_s2_check_with_odd_generator(E):
    assert s2_check(build_complex(E, identity_functor(E), 3),
                    tensor_complex(E, E, 3)) == []


def test_s2_check_with_differential(T):
    assert s2_check(build_complex(T, identity_functor(T), 2),
                    tensor_complex(T, T, 2)) == []

import itertools
from fractions import Fraction

import pytest

from hhwb.dgcore import (
    BasisInfo,
    DgCategory,
    Permutation,
    identity_functor,
    permutation_functor,
    tensor,
    tensor_power,
    validate_category,
)
from hhwb.functors import (
    NatTransform,
    compose_functors,
    functor_equal,
    identity_nat,
    opposite,
    validate_functor,
    validate_nat_transform,
)

from conftest import dual_numbers


def neg_x_functor(D):
    return DgFunctor_negx(D)


def DgFunctor_negx(D):
    from hhwb.dgcore import DgFunctor
    return DgFunctor(D, D, {"*": "*"},
                     {"1": {"1": Fraction(1)}, "x": {"x": Fraction(-1)}},
                     name="negx")


def test_validate_ground_field(K):
    assert validate_category(K) == []


def test_validate_dual_numbers(D):
    assert validate_category(D) == []


def test_validate_others(E, T, A2):
    assert validate_category(E) == []
    assert validate_category(T) == []
    assert validate_category(A2) == []


def test_validate_broken_composition():
    broken = DgCategory(
        objects=["*"],
        basis={"1": BasisInfo("*", "*", 0), "x": BasisInfo("*", "*", 1)},
        units={"*": "1"},
        compose={("x", "x"): {"1": Fraction(1)}},  # wrong degree: |x|+|x| != 0
        diff={},
    )
    diags = validate_category(broken)
    assert any("degree" in d for d in diags)


def test_validate_broken_associativity(D):
    broken = DgCategory(
        objects=["*"],
        basis={"1": BasisInfo("*", "*", 0), "x": BasisInfo("*", "*", 0),
               "z": BasisInfo("*", "*", 0)},
        units={"*": "1"},
        compose={("x", "x"): {"z": Fraction(1)},
                 ("x", "z"): {"1": Fraction(1)},
                 ("z", "x"): {}, ("z", "z"): {}},
        diff={},
    )
    diags = validate_category(broken)
    assert any("associativity" in d for d in diags)


def test_opposite_of_field_is_field(K):
    op = opposite(K)
    assert validate_category(op) == []
    assert op.basis == K.basis


def test_opposite_of_dual_numbers(D):
    op = opposite(D)
    assert validate_category(op) == []
    assert op.compose_basis("x", "x") == {}


def test_opposite_sign_on_odd_pair(E):
    op = opposite(E)
    # |y| = |y| = 1: the (vanishing) product keeps its table entry signless,
    # so exercise the sign on a category with a nonzero odd product instead.
    ext = DgCategory(
        objects=["*"],
        basis={"1": BasisInfo("*", "*", 0), "y": BasisInfo("*", "*", 1),
               "z": BasisInfo("*", "*", 2)},
        units={"*": "1"},
        compose={("y", "y"): {"z": Fraction(1)},
                 ("z", "y"): {}, ("y", "z"): {}, ("z", "z"): {}},
        diff={},
    )
    assert validate_category(ext) == []
    op = opposite(ext)
    assert validate_category(op) == []
    assert op.compose_basis("y", "y") == {"z": Fraction(-1)}


def test_opposite_involutive(D, E, T):
    for c in (D, E, T):
        oo = opposite(opposite(c))
        assert oo.basis == c.basis
        assert oo.compose == c.compose
        assert oo.diff == c.diff


def test_tensor_unit(K, D):
    t = tensor(K, D)
    assert validate_category(t) == []
    assert len(t.basis) == len(D.basis)


def test_tensor_dual_squared(D):
    t = tensor(D, D)
    assert validate_category(t) == []
    assert len(t.objects) == 1
    assert len(t.basis) == 4


def test_tensor_koszul_interchange_sign(E):
    t = tensor(E, E)
    # (y⊗1)∘(1⊗y) = y⊗y ; (1⊗y)∘(y⊗1) = -(y⊗y)
    plus = t.compose_basis("y⊗1", "1⊗y")
    minus = t.compose_basis("1⊗y", "y⊗1")
    assert plus == {"y⊗y": Fraction(1)}
    assert minus == {"y⊗y": Fraction(-1)}


def test_tensor_power_basics(D, K):
    assert len(tensor_power(D, 1).basis) == 2
    assert len(tensor_power(D, 3).basis) == 8
    assert len(tensor_power(K, 5).basis) == 1


def test_tensor_power_rejects_zero(D):
    with pytest.raises(ValueError):
        tensor_power(D, 0)


def test_tensor_power_validates(D, E, T):
    for c in (D, E, T):
        assert validate_category(tensor_power(c, 2)) == []


def test_tensor_associative_dims(D, E):
    left = tensor(tensor(D, E), D)
    right = tensor(D, tensor(E, D))
    assert sorted(left.basis) == sorted(right.basis)
    assert left.compose == right.compose
    assert left.diff == right.diff


def test_permutation_identity_functor(D):
    p2 = tensor_power(D, 2)
    f = permutation_functor(D, 2, Permutation.identity(2), power=p2)
    assert functor_equal(f, identity_functor(p2))


def test_permutation_even_swap_sign(D):
    p2 = tensor_power(D, 2)
    f = permutation_functor(D, 2, Permutation.from_cycles(2, [(1, 2)]), power=p2)
    assert f.apply_basis("x⊗1") == {"1⊗x": Fraction(1)}
    assert validate_functor(f) == []


def test_permutation_odd_swap_sign(E):
    p2 = tensor_power(E, 2)
    f = permutation_functor(E, 2, Permutation.from_cycles(2, [(1, 2)]), power=p2)
    assert f.apply_basis("y⊗y") == {"y⊗y": Fraction(-1)}
    assert f.apply_basis("y⊗1") == {"1⊗y": Fraction(1)}
    assert validate_functor(f) == []


def test_swap_involution(E):
    p2 = tensor_power(E, 2)
    f = permutation_functor(E, 2, Permutation.from_cycles(2, [(1, 2)]), power=p2)
    assert functor_equal(compose_functors(f, f), identity_functor(p2))


@pytest.mark.parametrize("n", [2, 3])
def test_strict_action_law(E, n):
    power = tensor_power(E, n)
    perms = [Permutation(p) for p in itertools.permutations(range(n))]
    functors = {p: permutation_functor(E, n, p, power=power) for p in perms}
    for g in perms:
        for gp in perms:
            lhs = compose_functors(functors[g], functors[gp])
            rhs = functors[g.after(gp)]
            assert functor_equal(lhs, rhs)


def test_strict_action_law_on_even_cube(D):
    power = tensor_power(D, 3)
    g = Permutation.from_cycles(3, [(1, 2)])
    gp = Permutation.from_cycles(3, [(2, 3)])
    lhs = compose_functors(permutation_functor(D, 3, g, power=power),
                           permutation_functor(D, 3, gp, power=power))
    rhs = permutation_functor(D, 3, g.after(gp), power=power)
    assert functor_equal(lhs, rhs)


def test_permutation_functors_validate(E, T):
    for c in (E, T):
        power = tensor_power(c, 3)
        for p in itertools.permutations(range(3)):
            f = permutation_functor(c, 3, Permutation(p), power=power)
            assert validate_functor(f) == []


def test_validate_functor_identity(D):
    assert validate_functor(identity_functor(D)) == []


def test_validate_functor_neg_x(D):
    assert validate_functor(DgFunctor_negx(D)) == []


def test_validate_functor_broken_unit_image(D):
    from hhwb.dgcore import DgFunctor
    bad = DgFunctor(D, D, {"*": "*"},
                    {"1": {"1": Fraction(1)}, "x": {"1": Fraction(1)}})
    diags = validate_functor(bad)
    assert any("composition" in d for d in diags)


def test_nat_transform_identity(D):
    f = identity_functor(D)
    assert validate_nat_transform(identity_nat(f)) == []


def test_nat_transform_fails_for_sign_flip(D):
    f = identity_functor(D)
    g = DgFunctor_negx(D)
    alpha = NatTransform(f, g, {"*": {"1": Fraction(1)}}, 0)
    diags = validate_nat_transform(alpha)
    assert any("naturality" in d for d in diags)


def test_nat_transform_central_component(D):
    f = identity_functor(D)
    alpha = NatTransform(f, f, {"*": {"x": Fraction(1)}}, 0)
    assert validate_nat_transform(alpha) == []


def test_permutation_helpers():
    p = Permutation.from_cycles(3, [(1, 2, 3)])
    assert p.images == (1, 2, 0)
    assert p.after(p.inverse()) == Permutation.identity(3)

"""Shared small categories used across the test suite."""

from fractions import Fraction

import pytest

from hhwb.dgcore import BasisInfo, DgCategory, permutation_functor, tensor_power


def ground_field():
    return DgCategory(
        objects=["*"],
        basis={"1": BasisInfo("*", "*", 0)},
        units={"*": "1"},
        compose={},
        diff={},
        name="k",
    )


def dual_numbers():
    """k[x]/x^2 with |x| = 0 and zero differential."""
    return DgCategory(
        objects=["*"],
        basis={"1": BasisInfo("*", "*", 0), "x": BasisInfo("*", "*", 0)},
        units={"*": "1"},
        compose={("x", "x"): {}},
        diff={},
        name="D",
    )


def odd_dual():
    """k[y]/y^2 with |y| = 1 and zero differential."""
    return DgCategory(
        objects=["*"],
        basis={"1": BasisInfo("*", "*", 0), "y": BasisInfo("*", "*", 1)},
        units={"*": "1"},
        compose={("y", "y"): {}},
        diff={},
        name="E",
    )


def square_zero_with_diff():
    """Basis 1, u (degree 0), v (degree 1); all products of non-units vanish,
    d(u) = v."""
    return DgCategory(
        objects=["*"],
        basis={"1": BasisInfo("*", "*", 0),
               "u": BasisInfo("*", "*", 0),
               "v": BasisInfo("*", "*", 1)},
        units={"*": "1"},
        compose={("u", "u"): {}, ("u", "v"): {}, ("v", "u"): {}, ("v", "v"): {}},
        diff={"u": {"v": Fraction(1)}},
        name="T",
    )


def quiver_a2():
    """Path category of the quiver a -> b."""
    return DgCategory(
        objects=["a", "b"],
        basis={"ea": BasisInfo("a", "a", 0),
               "eb": BasisInfo("b", "b", 0),
               "p": BasisInfo("a", "b", 0)},
        units={"a": "ea", "b": "eb"},
        compose={},
        diff={},
        name="A2",
    )


def permuted(c, n, perm):
    """(the n-th tensor power of c, the functor permuting its factors by
    perm): the category and twist of the complex that `--twist` names."""
    power = tensor_power(c, n)
    return power, permutation_functor(c, n, perm, power)


@pytest.fixture
def K():
    return ground_field()


@pytest.fixture
def D():
    return dual_numbers()


@pytest.fixture
def E():
    return odd_dual()


@pytest.fixture
def T():
    return square_zero_with_diff()


@pytest.fixture
def A2():
    return quiver_a2()

"""Euler class enumeration, realizability conditions, orientation reversal."""

from fractions import Fraction

import pytest

from brieskorn.cli import census_params
from brieskorn.errors import NotRealizable
from brieskorn.euler import (
    EulerClass,
    enumerate_E,
    enumerate_X0,
    enumerate_condition_b,
    reverse_orientation,
    seifert_from_euler,
)
from brieskorn.seifert import canonicalize_params, cleared_euler_number, h1_order


def brute_x0(params):
    """Triple loop over Fraction sums; the production code clears denominators."""
    a1, a2, a3 = params.triple
    return [
        (k, l, m)
        for k in range(1, a1)
        for l in range(1, a2)
        for m in range(1, a3)
        if Fraction(k, a1) + Fraction(l, a2) + Fraction(m, a3) < 1
    ]


def brute_condition_b(params):
    a1, a2, a3 = params.triple
    return [
        (b1, b2, b3)
        for b1 in range(1, a1)
        for b2 in range(1, a2)
        for b3 in range(1, a3)
        if Fraction(b1, a1) + Fraction(b2, a2) + Fraction(b3, a3) > 2
    ]


def test_x0_empty_for_235():
    assert enumerate_X0(canonicalize_params(2, 3, 5)) == []


def test_x0_357_frozen():
    got = enumerate_X0(canonicalize_params(3, 5, 7))
    assert got == [(1, 1, 1), (1, 1, 2), (1, 1, 3), (1, 2, 1)]


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_x0_family_2_3_6n1(n):
    params = canonicalize_params(2, 3, 6 * n + 1)
    assert enumerate_X0(params) == [(1, 1, k) for k in range(1, n + 1)]


@pytest.mark.parametrize("triple", [(2, 3, 35), (4, 5, 9), (3, 7, 11), (5, 7, 9)])
def test_x0_matches_brute_force(triple):
    params = canonicalize_params(*triple)
    assert [tuple(t) for t in enumerate_X0(params)] == brute_x0(params)


@pytest.mark.parametrize("triple", [(2, 3, 7), (4, 5, 9), (3, 5, 7)])
def test_condition_b_matches_brute_force(triple):
    params = canonicalize_params(*triple)
    got = [eu.betas for eu in enumerate_condition_b(params)]
    assert got == brute_condition_b(params)


def test_condition_b_matches_brute_force_over_census():
    # every sphere with a <= 1000, so each edge of the computed b3 range is met
    for params in census_params(1000):
        got = [eu.betas for eu in enumerate_condition_b(params)]
        assert got == brute_condition_b(params), params.triple


def test_condition_b_237_single_class():
    params = canonicalize_params(2, 3, 7)
    classes = enumerate_condition_b(params)
    assert [(eu.beta, eu.betas) for eu in classes] == [(-2, (1, 2, 6))]
    assert classes[0].satisfies_condition_b()
    assert Fraction(classes[0].cleared_sum(), params.a) > 2


def test_euler_class_str():
    params = canonicalize_params(2, 3, 7)
    assert str(EulerClass(params, -1, 1, 1, 1)) == "(-1; 1,1,1)"


def test_euler_class_requires_normalized_coefficients():
    params = canonicalize_params(2, 3, 7)
    with pytest.raises(ValueError):
        EulerClass(params, -1, 0, 1, 1)
    with pytest.raises(ValueError):
        EulerClass(params, -1, 1, 3, 1)


def test_reverse_orientation_example_and_involution():
    params = canonicalize_params(3, 5, 7)
    eu = EulerClass(params, -1, 1, 2, 1)
    rev = reverse_orientation(eu)
    assert (rev.beta, rev.betas) == (-2, (2, 3, 6))
    assert Fraction(rev.cleared_sum(), params.a) == Fraction(2, 3) + Fraction(3, 5) + Fraction(6, 7)
    assert Fraction(rev.cleared_sum(), params.a) > 2
    assert reverse_orientation(rev) == eu


def test_reverse_orientation_rejects_unrealizable():
    params = canonicalize_params(3, 5, 7)
    # sum 2/3 + 4/5 + 6/7 lies strictly between 1 and 2: neither condition
    with pytest.raises(NotRealizable):
        reverse_orientation(EulerClass(params, -1, 2, 4, 6))


@pytest.mark.parametrize("triple", [(2, 3, 7), (3, 5, 7), (2, 5, 9), (4, 7, 11)])
def test_reversal_is_a_bijection_between_the_regimes(triple):
    params = canonicalize_params(*triple)
    forward = enumerate_E(params)
    backward = enumerate_condition_b(params)
    assert len(forward) == len(backward)
    assert {reverse_orientation(eu) for eu in forward} == set(backward)


def test_seifert_from_euler_shape_and_homology_237():
    params = canonicalize_params(2, 3, 7)
    cover = seifert_from_euler(EulerClass(params, -1, 1, 1, 1), params)
    assert str(cover) == "{0; (1,-1), (2,1), (3,1), (7,1)}"
    assert h1_order(cover) == 1


def test_seifert_from_euler_2313_cover_order():
    params = canonicalize_params(2, 3, 13)
    cover = seifert_from_euler(EulerClass(params, -1, 1, 1, 1), params)
    assert h1_order(cover) == 7


def test_seifert_from_euler_357_cover_orders_frozen():
    params = canonicalize_params(3, 5, 7)
    orders = [h1_order(seifert_from_euler(eu, params)) for eu in enumerate_E(params)]
    assert orders == [34, 19, 4, 13]
    assert all(order > 1 for order in orders)


@pytest.mark.parametrize("triple", [(2, 3, 7), (3, 5, 7), (2, 5, 9)])
def test_cover_euler_numbers_negate_under_reversal(triple):
    params = canonicalize_params(*triple)
    for eu in enumerate_E(params):
        cover = seifert_from_euler(eu, params)
        e = Fraction(cleared_euler_number(cover), cover.a)
        assert e == 1 - Fraction(eu.cleared_sum(), params.a)
        assert e > 0
        rev_cover = seifert_from_euler(reverse_orientation(eu), params)
        assert Fraction(cleared_euler_number(rev_cover), rev_cover.a) == -e
        assert h1_order(rev_cover) == h1_order(cover)


def test_seifert_from_euler_rejects_mismatched_params():
    params = canonicalize_params(2, 3, 7)
    other = canonicalize_params(2, 3, 5)
    eu = EulerClass(params, -1, 1, 1, 1)
    with pytest.raises(ValueError):
        seifert_from_euler(eu, other)

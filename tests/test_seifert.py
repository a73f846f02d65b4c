"""Seifert data: canonical ordering, the deterministic solver, homology orders."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from brieskorn.errors import (
    InvalidSeifertData,
    NotPairwiseCoprime,
    ValueTooSmall,
)
from brieskorn.seifert import (
    BrieskornParams,
    SeifertInvariant,
    canonicalize_params,
    cleared_euler_number,
    h1_order,
    solve_seifert,
    sphere_convention_sign,
)


def test_canonicalize_moves_even_first():
    params = canonicalize_params(7, 2, 3)
    assert params.triple == (2, 3, 7)
    assert params.permutation == (1, 2, 0)
    assert params.a == 42


def test_canonicalize_all_odd_keeps_ascending_order():
    params = canonicalize_params(3, 5, 7)
    assert params.triple == (3, 5, 7)
    assert params.permutation == (0, 1, 2)


def test_canonicalize_rejects_common_factors():
    with pytest.raises(NotPairwiseCoprime):
        canonicalize_params(4, 6, 9)


def test_canonicalize_rejects_small_values():
    with pytest.raises(ValueTooSmall):
        canonicalize_params(1, 2, 3)


def test_params_reject_misplaced_even_multiplicity():
    with pytest.raises(ValueError):
        BrieskornParams(3, 4, 7)


@pytest.mark.parametrize(
    "triple, expected",
    [
        ((2, 3, 5), (3, -2, -4)),
        ((2, 3, 7), (1, 2, -8)),
        ((3, 5, 7), (5, -4, -6)),
        ((2, 5, 7), (3, 4, -16)),
    ],
)
def test_solver_frozen_values(triple, expected):
    sigma = solve_seifert(canonicalize_params(*triple))
    assert sigma.b == 0
    assert sigma.coefficients == expected
    a1, a2, a3 = triple
    b1, b2, b3 = expected
    assert a2 * a3 * b1 + a1 * a3 * b2 + a1 * a2 * b3 == 1


def test_solver_result_format():
    sigma = solve_seifert(canonicalize_params(2, 3, 7))
    assert str(sigma) == "{0; (1,0), (2,1), (3,2), (7,-8)}"


# every ordered pairwise-coprime triple in [2, 60]^3, drawn directly rather
# than filtered, so that no seed trips Hypothesis's filter_too_much check
COPRIME_TRIPLES = [
    (x, y, z)
    for x, y, z in itertools.product(range(2, 61), repeat=3)
    if math.gcd(x, y) == 1 and math.gcd(x, z) == 1 and math.gcd(y, z) == 1
]


@given(st.sampled_from(COPRIME_TRIPLES))
def test_solver_identity_and_parities(xyz):
    x, y, z = xyz
    params = canonicalize_params(x, y, z)
    sigma = solve_seifert(params)
    a1, a2, a3 = params.triple
    b1, b2, b3 = sigma.coefficients
    assert a2 * a3 * b1 + a1 * a3 * b2 + a1 * a2 * b3 == 1
    assert sigma.b == 0
    # b1 starts in (0, a1) and gains at most 2*a1 from the parity repairs
    assert 0 < b1 < 3 * a1
    assert b1 % 2 == 1 and b2 % 2 == 0 and b3 % 2 == 0
    assert h1_order(sigma) == 1
    assert sphere_convention_sign(sigma) == 1


def test_euler_number_canonical_237():
    sigma = solve_seifert(canonicalize_params(2, 3, 7))
    assert Fraction(cleared_euler_number(sigma), sigma.a) == Fraction(-1, 42)
    assert cleared_euler_number(sigma) == -1


def test_euler_number_b_minus_one_variant_237():
    sigma = SeifertInvariant(-1, ((2, 1), (3, 1), (7, 1)))
    assert Fraction(cleared_euler_number(sigma), sigma.a) == Fraction(1, 42)
    assert h1_order(sigma) == 1
    assert sphere_convention_sign(sigma) == -1


def test_euler_number_degenerate_data_is_zero():
    sigma = SeifertInvariant(0, ((1, 0), (1, 0), (1, 0)))
    assert cleared_euler_number(sigma) == 0
    assert h1_order(sigma) == 0
    with pytest.raises(InvalidSeifertData):
        sphere_convention_sign(sigma)


def test_h1_order_is_exact_for_large_data():
    # cleared-denominator arithmetic, no float anywhere
    sigma = SeifertInvariant(0, ((101, 3), (103, -8), (107, 54)))
    a = 101 * 103 * 107
    expected = abs(3 * 103 * 107 - 8 * 101 * 107 + 54 * 101 * 103)
    assert h1_order(sigma) == expected


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_h1_order_of_family_covers(n):
    # data picked out by the classes (-1; 1, 1, k) on (2, 3, 6n+1)
    for k in range(1, n + 1):
        sigma = SeifertInvariant(-1, ((2, 1), (3, 1), (6 * n + 1, k)))
        assert h1_order(sigma) == 6 * (n - k) + 1


def test_h1_order_b_minus_one_variant_357():
    sigma = SeifertInvariant(-1, ((3, 2), (5, 1), (7, 1)))
    assert h1_order(sigma) == 1


def test_convention_sign_rejects_non_unit_order():
    with pytest.raises(InvalidSeifertData):
        sphere_convention_sign(SeifertInvariant(0, ((2, 1), (3, 1), (7, 1))))


def test_seifert_invariant_str_includes_base_pair():
    sigma = SeifertInvariant(-1, ((2, 1), (3, 1), (7, 1)))
    assert str(sigma) == "{0; (1,-1), (2,1), (3,1), (7,1)}"

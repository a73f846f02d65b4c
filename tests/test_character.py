"""Trace values, exact classification, and the two class enumerations."""

import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given
from hypothesis import strategies as st

from brieskorn.character import (
    CharacterTriple,
    ClassLabel,
    CountReport,
    TraceMemo,
    TraceValue,
    classify,
    count_report,
    enumerate_su2,
    kappa,
    phi_map,
    reversed_trace_check,
    trace_triple_of,
)
from brieskorn.errors import (
    CountMismatch,
    DegenerateAngle,
    InconsistentClassification,
)
from brieskorn.euler import EulerClass, enumerate_E, reverse_orientation, seifert_from_euler
from brieskorn.seifert import (
    SeifertInvariant,
    canonicalize_params,
    h1_order,
    solve_seifert,
)

F = Fraction


def angle(tv) -> Fraction:
    """The folded angle n/q of a trace value 2cos(pi*n/q)."""
    return F(tv.n, tv.q)


def angles(c: CharacterTriple) -> tuple[Fraction, Fraction, Fraction]:
    return (angle(c.tx), angle(c.ty), angle(c.tz))

# b = 0 forms of the published data for (2,3,7) and (2,3,13)
OVERRIDE_237 = SeifertInvariant(0, ((2, 1), (3, -2), (7, 1)))
OVERRIDE_2313 = SeifertInvariant(0, ((2, 1), (3, -2), (13, 2)))


def triple(t1, t2, t3, eps=-1):
    return CharacterTriple(
        *(TraceValue(*F(t).as_integer_ratio()) for t in (t1, t2, t3)), epsilon=eps
    )


def test_trace_value_folds_sign_and_period():
    assert angle(TraceValue(7, 6)) == F(5, 6)
    assert angle(TraceValue(-1, 6)) == F(1, 6)
    assert angle(TraceValue(25, 6)) == F(1, 6)
    assert angle(TraceValue(2, 1)) == 0
    assert angle(TraceValue(3, 2)) == F(1, 2)
    # the stored pair is reduced, whether or not the fold moved the angle
    assert (TraceValue(4, 6).n, TraceValue(4, 6).q) == (2, 3)
    assert (TraceValue(12, 8).n, TraceValue(12, 8).q) == (1, 2)
    assert (TraceValue(10, 5).n, TraceValue(10, 5).q) == (0, 1)
    assert (TraceValue(-5, 5).n, TraceValue(-5, 5).q) == (1, 1)


def test_trace_value_rejects_out_of_range():
    for q in (0, -3):
        with pytest.raises(ValueError, match="denominator"):
            TraceValue(1, q)


def test_trace_value_str():
    assert str(TraceValue(3, 7)) == "2cos(3π/7)"
    assert str(TraceValue(1, 2)) == "2cos(1π/2)"


@given(
    st.fractions(min_value=-50, max_value=50, max_denominator=400),
    st.integers(min_value=1, max_value=50),
)
def test_trace_value_canonical_invariants(r, scale):
    n, q = r.numerator, r.denominator
    tv = TraceValue(n, q)
    assert 0 <= tv.n <= tv.q
    assert math.gcd(tv.n, tv.q) == 1
    assert TraceValue(-n, q) == tv == TraceValue(n + 2 * q, q)
    scaled = TraceValue(scale * n, scale * q)
    assert scaled == tv and scaled.value == tv.value
    assert abs(tv.value - 2.0 * math.cos(math.pi * float(r))) < 1e-9
    # the carried float is bit for bit the one evaluated from the reduced pair
    assert tv.value == TraceValue(tv.n, tv.q).value == 2.0 * math.cos(math.pi * (tv.n / tv.q))


def test_trace_value_equality_and_hash_ignore_the_float():
    tv = TraceValue(3, 7)
    other = TraceValue(-11, 7)
    object.__setattr__(other, "value", -tv.value)
    assert other == tv and hash(other) == hash(tv)
    assert len({tv, other}) == 1
    assert repr(tv) == "TraceValue(n=3, q=7)"


def test_trace_triple_237():
    params = canonicalize_params(2, 3, 7)
    tri = trace_triple_of(EulerClass(params, -1, 1, 1, 1), OVERRIDE_237)
    assert angles(tri) == (F(1, 2), F(2, 3), F(1, 7))
    assert tri.epsilon == -1
    assert tri.values[0] == pytest.approx(0.0, abs=1e-15)
    assert tri.values[1] == pytest.approx(-1.0)
    assert tri.values[2] == pytest.approx(2.0 * math.cos(math.pi / 7))


def test_trace_triple_2313_both_classes():
    params = canonicalize_params(2, 3, 13)
    k1 = trace_triple_of(EulerClass(params, -1, 1, 1, 1), OVERRIDE_2313)
    k2 = trace_triple_of(EulerClass(params, -1, 1, 1, 2), OVERRIDE_2313)
    assert angles(k1) == (F(1, 2), F(2, 3), F(12, 13))
    assert angles(k2) == (F(1, 2), F(2, 3), F(2, 13))
    assert k1.epsilon == k2.epsilon == -1


def test_trace_triple_357_frozen_first():
    params = canonicalize_params(3, 5, 7)
    sigma = solve_seifert(params)
    tri = trace_triple_of(EulerClass(params, -1, 1, 1, 1), sigma)
    assert angles(tri) == (F(2, 3), F(4, 5), F(6, 7))
    # covering order 34 is even, so the central generator maps to +I
    assert tri.epsilon == 1


def test_trace_triple_357_high_precision_oracle():
    params = canonicalize_params(3, 5, 7)
    sigma = solve_seifert(params)
    for eu in enumerate_E(params):
        order = h1_order(seifert_from_euler(eu, params))
        tri = trace_triple_of(eu, sigma)
        with mpmath.workdps(60):
            for tv, (ai, bi) in zip((tri.tx, tri.ty, tri.tz), sigma.pairs):
                raw = 2 * mpmath.cos(mpmath.pi * mpmath.mpf(-order * bi) / ai)
                folded = 2 * mpmath.cos(mpmath.pi * mpmath.mpf(tv.n) / tv.q)
                assert abs(raw - folded) < mpmath.mpf(10) ** -50


def test_kappa_frozen_values():
    zero = triple(F(1, 2), F(1, 2), F(0))
    assert kappa(zero) == pytest.approx(0.0, abs=1e-12)
    low = triple(F(1, 2), F(2, 3), F(1, 7))
    assert kappa(low) == pytest.approx(4.0 * math.cos(math.pi / 7) ** 2 - 3.0)
    assert kappa(low) == pytest.approx(0.2469796, abs=1e-6)
    high = triple(F(1, 2), F(2, 3), F(3, 7))
    assert kappa(high) == pytest.approx(4.0 * math.cos(3 * math.pi / 7) ** 2 - 3.0)
    assert kappa(high) == pytest.approx(-2.8019377, abs=1e-6)


def test_kappa_factors_through_sum_and_difference_angles():
    # kappa = (v3 - 2cos(pi(t1+t2))) * (v3 - 2cos(pi(t1-t2))) for traces v
    t1, t2, t3 = F(2, 3), F(4, 5), F(6, 7)
    c = triple(t1, t2, t3, eps=1)
    v3 = c.values[2]
    product = (v3 - 2 * math.cos(math.pi * float(t1 + t2))) * (
        v3 - 2 * math.cos(math.pi * float(t1 - t2))
    )
    assert kappa(c) == pytest.approx(product, abs=1e-12)


def test_classify_examples():
    assert classify(triple(F(1, 2), F(2, 3), F(1, 7))) is ClassLabel.SL2R
    assert classify(triple(F(1, 2), F(2, 3), F(3, 7))) is ClassLabel.SU2
    assert classify(triple(F(1, 3), F(1, 3), F(2, 3))) is ClassLabel.REDUCIBLE


def test_classify_rejects_central_trace():
    with pytest.raises(DegenerateAngle):
        classify(triple(F(1, 2), F(1, 2), F(0)))
    with pytest.raises(DegenerateAngle):
        classify(triple(F(1), F(1, 3), F(1, 2)))


def test_character_triple_rejects_a_central_sign_other_than_plus_or_minus_one():
    tv = TraceValue(1, 3)
    for epsilon in (0, 2, -2):
        with pytest.raises(ValueError):
            CharacterTriple(tv, tv, tv, epsilon=epsilon)


def test_classify_refuses_margin_below_float_resolution():
    # exact arithmetic says SL2R, but kappa is about 1.6e-11, inside the
    # tolerance band, so no label can be corroborated
    wall = F(2, 3) + F(1, 10**12)
    with pytest.raises(InconsistentClassification):
        classify(triple(F(1, 3), F(1, 3), wall))


def test_enumerate_su2_235_frozen():
    params = canonicalize_params(2, 3, 5)
    triples = enumerate_su2(params, solve_seifert(params))
    assert [angles(t) for t in triples] == [
        (F(1, 2), F(2, 3), F(2, 5)),
        (F(1, 2), F(2, 3), F(4, 5)),
    ]
    assert all(t.epsilon == -1 for t in triples)


def test_enumerate_su2_237_published_table():
    params = canonicalize_params(2, 3, 7)
    triples = enumerate_su2(params, OVERRIDE_237)
    assert [angle(t.tz) for t in triples] == [F(3, 7), F(5, 7)]
    assert all((angle(t.tx), angle(t.ty)) == (F(1, 2), F(2, 3)) for t in triples)


def test_enumerate_su2_357_count_and_central_signs():
    params = canonicalize_params(3, 5, 7)
    triples = enumerate_su2(params, solve_seifert(params))
    assert len(triples) == 8
    assert {t.epsilon for t in triples} == {1, -1}
    keys = [t.key for t in triples]
    assert len(set(keys)) == len(keys)


def test_enumerate_su2_needs_product_relator_data():
    params = canonicalize_params(2, 3, 7)
    shifted = SeifertInvariant(-1, ((2, 1), (3, 1), (7, 1)))
    with pytest.raises(ValueError):
        enumerate_su2(params, shifted)


def test_enumerate_su2_rejects_mismatched_multiplicities():
    params = canonicalize_params(2, 3, 7)
    with pytest.raises(ValueError):
        enumerate_su2(params, solve_seifert(canonicalize_params(2, 3, 5)))


@pytest.mark.parametrize(
    "triple_, expected",
    [
        ((2, 3, 5), (2, 2, 0, 1, 2)),
        ((2, 3, 7), (3, 2, 1, 1, 3)),
        ((2, 3, 13), (6, 4, 2, 2, 6)),
        ((3, 5, 7), (12, 8, 4, 4, 12)),
    ],
)
def test_count_report_frozen(triple_, expected):
    report = count_report(canonicalize_params(*triple_))
    got = (report.total, report.su2, report.sl2r, report.casson_abs, report.casson_sl2c)
    assert got == expected


def test_count_report_rejects_broken_identities():
    with pytest.raises(CountMismatch):
        CountReport(total=3, su2=2, sl2r=2)
    with pytest.raises(CountMismatch):
        CountReport(total=3, su2=3, sl2r=0)


def test_count_report_derives_the_casson_fields():
    report = CountReport(total=12, su2=8, sl2r=4)
    assert (report.casson_abs, report.casson_sl2c) == (4, 12)
    with pytest.raises(TypeError):
        CountReport(total=3, su2=2, sl2r=1, casson_abs=1, casson_sl2c=3)


def test_phi_map_2313_angles():
    params = canonicalize_params(2, 3, 13)
    pairs = phi_map(params, OVERRIDE_2313)
    assert [(eu.betas, angle(tri.tz)) for eu, tri in pairs] == [
        ((1, 1, 1), F(12, 13)),
        ((1, 1, 2), F(2, 13)),
    ]


def test_phi_map_empty_for_235():
    params = canonicalize_params(2, 3, 5)
    assert phi_map(params, solve_seifert(params)) == []


def test_phi_map_357_injective():
    params = canonicalize_params(3, 5, 7)
    pairs = phi_map(params, solve_seifert(params))
    assert len(pairs) == 4
    assert len({tri.key for _, tri in pairs}) == 4
    for _, tri in pairs:
        assert classify(tri) is ClassLabel.SL2R


@pytest.mark.parametrize("triple_", [(2, 3, 7), (2, 3, 13), (3, 5, 7), (2, 5, 9)])
def test_reversed_trace_check_holds(triple_):
    params = canonicalize_params(*triple_)
    sigma = solve_seifert(params)
    pairs = phi_map(params, sigma)
    assert [eu for eu, _ in pairs] == enumerate_E(params)
    assert all(
        reversed_trace_check(eu, reverse_orientation(eu), triple, sigma) for eu, triple in pairs
    )


def test_reversed_trace_check_refuses_a_wrong_triple():
    params = canonicalize_params(3, 5, 7)
    sigma = solve_seifert(params)
    pairs = phi_map(params, sigma)
    assert len(pairs) == 4
    for (eu, triple), (_, other) in zip(pairs, pairs[1:] + pairs[:1]):
        partner = reverse_orientation(eu)
        assert reversed_trace_check(eu, partner, triple, sigma)
        # another class's triple, and the right traces with the central sign flipped
        assert not reversed_trace_check(eu, partner, other, sigma)
        flipped = CharacterTriple(triple.tx, triple.ty, triple.tz, epsilon=-triple.epsilon)
        assert not reversed_trace_check(eu, partner, flipped, sigma)


def test_reversed_trace_check_refuses_a_wrong_partner():
    params = canonicalize_params(3, 5, 7)
    sigma = solve_seifert(params)
    pairs = phi_map(params, sigma)
    partners = [reverse_orientation(eu) for eu, _ in pairs]
    for (eu, triple), partner, other in zip(pairs, partners, partners[1:] + partners[:1]):
        assert reversed_trace_check(eu, partner, triple, sigma)
        # another class's reversal is refused, as a wrong triple is
        assert not reversed_trace_check(eu, other, triple, sigma)


def test_trace_memo_holds_each_folded_trace_once():
    params = canonicalize_params(7, 11, 13)
    sigma = solve_seifert(params)
    memo = TraceMemo(params, sigma)
    pairs = [(eu, memo.triple_of(eu)) for eu in enumerate_E(params)]
    for generator, ai in zip(memo.generators, params.triple):
        assert 0 < len(generator) <= ai + 1
        assert all(0 <= r <= ai and tv == TraceValue(r, ai) for r, tv in generator.items())
    # the memo's fold against fresh TraceValues, over residues of both signs
    for order in range(-300, 300):
        [tri] = memo._triples([memo._keys_for_order(order)])
        fresh = [TraceValue(-order * bi, ai) for bi, ai in zip(sigma.coefficients, params.triple)]
        assert [tri.tx, tri.ty, tri.tz] == fresh
        assert tri.epsilon == (-1 if order % 2 else 1)
    # one object per distinct trace value
    values = {id(tv) for _, tri in pairs for tv in (tri.tx, tri.ty, tri.tz)}
    assert len(values) <= sum(len(generator) for generator in memo.generators)
    assert pairs == phi_map(params, sigma)


def test_trace_memo_refuses_another_sphere():
    params, other = canonicalize_params(3, 5, 7), canonicalize_params(2, 3, 7)
    sigma = solve_seifert(params)
    memo = TraceMemo(params, sigma)
    with pytest.raises(ValueError):
        memo.triple_of(enumerate_E(other)[0])
    with pytest.raises(ValueError, match="h1 order"):
        TraceMemo(params, SeifertInvariant(0, ((3, 1), (5, 1), (7, 1))))


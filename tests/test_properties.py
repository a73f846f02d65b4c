"""Cross-module invariants checked over small parameter sweeps."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from brieskorn.character import (
    KAPPA_TOLERANCE,
    CharacterTriple,
    ClassLabel,
    CountReport,
    TraceValue,
    classify,
    enumerate_su2,
    kappa,
    phi_map,
)
from brieskorn.errors import InconsistentClassification
from brieskorn.cli import census_params, sphere_summary
from brieskorn.euler import (
    EulerClass,
    enumerate_E,
    enumerate_X0,
    enumerate_condition_b,
    reverse_orientation,
    seifert_from_euler,
)
from brieskorn.seifert import (
    SeifertInvariant,
    canonicalize_params,
    cleared_euler_number,
    h1_order,
    solve_seifert,
    sphere_convention_sign,
)

SWEEP = census_params(400)
IDS = ["%dx%dx%d" % p.triple for p in SWEEP]


@pytest.mark.parametrize("params", SWEEP, ids=IDS)
def test_class_partition_and_disjointness(params):
    sigma = solve_seifert(params)
    su2 = enumerate_su2(params, sigma)
    pairs = phi_map(params, sigma)
    total = (params.a1 - 1) * (params.a2 - 1) * (params.a3 - 1) // 4
    assert len(su2) + len(pairs) == total
    su2_keys = {t.key for t in su2}
    phi_keys = {t.key for _, t in pairs}
    assert len(su2_keys) == len(su2)
    assert len(phi_keys) == len(pairs)
    assert not su2_keys & phi_keys
    for _, tri in pairs:
        assert classify(tri) is ClassLabel.SL2R


@pytest.mark.parametrize("params", SWEEP, ids=IDS)
def test_reversal_bijection(params):
    forward = enumerate_E(params)
    backward = enumerate_condition_b(params)
    assert len(forward) == len(backward)
    assert len(forward) == len(enumerate_X0(params))
    assert {reverse_orientation(eu) for eu in forward} == set(backward)
    for eu in forward:
        assert reverse_orientation(reverse_orientation(eu)) == eu


@pytest.mark.parametrize("params", SWEEP, ids=IDS)
def test_canonical_data_parities(params):
    sigma = solve_seifert(params)
    b1, b2, b3 = sigma.coefficients
    # not all coefficients can be even, and the solver pins the pattern
    assert (b1 % 2, b2 % 2, b3 % 2) == (1, 0, 0)
    assert sigma.b == 0
    assert h1_order(sigma) == 1


def test_epsilon_matches_cover_order():
    for params in SWEEP:
        sigma = solve_seifert(params)
        for eu, tri in phi_map(params, sigma):
            # order 1 is legitimate: that covering is the sphere itself
            order = h1_order(seifert_from_euler(eu, params))
            assert order >= 1
            assert tri.epsilon == (-1 if order % 2 else 1)


def test_cover_euler_number_negates_under_reversal():
    for params in SWEEP:
        for eu in enumerate_E(params):
            cover = seifert_from_euler(eu, params)
            reversed_cover = seifert_from_euler(reverse_orientation(eu), params)
            e = Fraction(cleared_euler_number(cover), cover.a)
            assert e > 0
            assert Fraction(cleared_euler_number(reversed_cover), reversed_cover.a) == -e


@given(st.sampled_from(census_params(1000)))
def test_cover_euler_number_matches_seifert_route(params):
    classes = enumerate_E(params) + enumerate_condition_b(params)
    for eu in classes:
        assert eu.cover_euler_number() == cleared_euler_number(seifert_from_euler(eu, params))


def test_trace_angles_reduce_to_euler_coefficients(partition_sweep):
    # each canonical angle lands on beta_i/a_i or its mirror 1 - beta_i/a_i,
    # the residue check TraceMemo.triple_of leaves out
    rows, _ = partition_sweep
    for params, _, _, pairs in rows:
        for eu, tri in pairs:
            for tv, beta, ai in zip((tri.tx, tri.ty, tri.tz), eu.betas, params.triple):
                assert tv.n * ai in (beta * tv.q, (ai - beta) * tv.q)


def dedekind_sum(h: int, k: int) -> Fraction:
    """s(h, k) for coprime h and k > 0, by reciprocity s(h,k) + s(k,h) = (h^2+k^2+1)/(12hk) - 1/4."""
    h %= k
    if h == 0:
        return Fraction(0)  # k == 1
    return Fraction(h * h + k * k + 1, 12 * h * k) - Fraction(1, 4) - dedekind_sum(k, h)


def sawtooth(x: Fraction) -> Fraction:
    return Fraction(0) if x.denominator == 1 else x - math.floor(x) - Fraction(1, 2)


def test_dedekind_sum_matches_its_definition():
    for k in range(1, 40):
        for h in range(-k, 2 * k):
            if math.gcd(h, k) == 1:
                expected = sum(
                    sawtooth(Fraction(i, k)) * sawtooth(Fraction(h * i, k)) for i in range(1, k)
                )
                assert dedekind_sum(h, k) == expected, (h, k)


def casson_invariant(a1: int, a2: int, a3: int) -> Fraction:
    """lambda(Sigma(a1, a2, a3)) by Fintushel-Stern, with the sign that gives (2,3,5) +1."""
    a = a1 * a2 * a3
    return Fraction(1, 8) * (
        1
        - Fraction(1 - a * a + (a1 * a2) ** 2 + (a2 * a3) ** 2 + (a1 * a3) ** 2, 3 * a)
        + 4 * (dedekind_sum(a2 * a3, a1) + dedekind_sum(a1 * a3, a2) + dedekind_sum(a1 * a2, a3))
    )


def test_casson_sign_convention():
    # Casson's own normalization gives lambda(Sigma(2,3,5)) = -1
    assert casson_invariant(2, 3, 5) == 1


def test_su2_count_is_twice_the_fintushel_stern_casson_invariant(partition_sweep):
    rows, _ = partition_sweep
    for params, _, su2, pairs in rows:
        lam = casson_invariant(*params.triple)
        assert lam.denominator == 1, params.triple
        report = CountReport.of(params, su2=len(su2), sl2r=len(pairs))
        assert abs(lam) == report.casson_abs, params.triple
        assert len(su2) == 2 * abs(lam), params.triple


def test_half_angle_coordinate_forces_trace_zero():
    # the self-mirrored slot beta1 = a1/2 pins the first trace to 0
    seen = 0
    for params in census_params(400):
        if params.a1 % 2:
            continue
        sigma = solve_seifert(params)
        for eu, tri in phi_map(params, sigma):
            if 2 * eu.beta1 == params.a1:
                seen += 1
                assert (tri.tx.n, tri.tx.q) == (1, 2)
    assert seen > 0


def test_classes_sharing_all_angle_mirrors_differ_by_one_flip():
    # if two distinct pulled-back classes induce the same unordered angle
    # pair {beta_i/a_i, 1 - beta_i/a_i} in every slot, they differ in exactly
    # one slot, by the mirror coefficient, and their triples still differ
    seen = 0
    for params in census_params(700):
        sigma = solve_seifert(params)
        pairs = phi_map(params, sigma)

        def mirrors(eu):
            return tuple(
                frozenset((Fraction(b, a), 1 - Fraction(b, a)))
                for b, a in zip(eu.betas, params.triple)
            )

        for i, (eu1, t1) in enumerate(pairs):
            m1 = mirrors(eu1)
            for eu2, t2 in pairs[i + 1 :]:
                if mirrors(eu2) != m1:
                    continue
                seen += 1
                diffs = [
                    j for j, (x, y) in enumerate(zip(eu1.betas, eu2.betas)) if x != y
                ]
                assert len(diffs) == 1
                j = diffs[0]
                assert eu2.betas[j] == params.triple[j] - eu1.betas[j]
                assert t1.key != t2.key
    assert seen > 0


def reference_fold(angle: Fraction) -> Fraction:
    t = angle % 2
    return 2 - t if t > 1 else t


def reference_label(t1: Fraction, t2: Fraction, t3: Fraction) -> ClassLabel:
    """The rational classification the integer lattice replaces, kept as the oracle."""
    if t3 in (reference_fold(t1 + t2), reference_fold(t1 - t2)):
        return ClassLabel.REDUCIBLE
    if abs(t1 - t2) < t3 < min(t1 + t2, 2 - t1 - t2):
        return ClassLabel.SU2
    return ClassLabel.SL2R


OPEN_ANGLES = st.fractions(min_value=0, max_value=1, max_denominator=5000).filter(
    lambda t: 0 < t < 1
)
THIRD_ANGLE = {
    "free": lambda t1, t2, t3: t3,
    "difference wall": lambda t1, t2, t3: abs(t1 - t2),
    "sum wall": lambda t1, t2, t3: t1 + t2,
    "reflected sum wall": lambda t1, t2, t3: 2 - t1 - t2,
}


@given(OPEN_ANGLES, OPEN_ANGLES, OPEN_ANGLES, st.sampled_from(sorted(THIRD_ANGLE)))
def test_integer_classify_matches_rational_reference(t1, t2, t3, placement):
    t3 = THIRD_ANGLE[placement](t1, t2, t3)
    assume(0 < t3 < 1)
    c = CharacterTriple(
        *(TraceValue(t.numerator, t.denominator) for t in (t1, t2, t3)), epsilon=1
    )
    expected = reference_label(t1, t2, t3)
    try:
        label = classify(c)
    except InconsistentClassification:
        # the only refusal allowed: a margin the float cross-check cannot resolve
        assert expected is not ClassLabel.REDUCIBLE
        assert abs(kappa(c)) <= KAPPA_TOLERANCE
        return
    assert label is expected


def fresh_value(tv: TraceValue) -> float:
    """The float a trace value must carry, evaluated from its reduced pair."""
    return 2.0 * math.cos(math.pi * (tv.n / tv.q))


def fresh_su2_rows(params, sigma):
    """Every window candidate folded afresh and kept when classify says SU2, in rotation-number order.

    Each row is ((l1, l2, l3), epsilon, triple).
    """
    found = []
    for eps in (-1, 1):
        ranges = [
            range(2 if (eps == 1 or bi % 2 == 0) else 1, ai, 2)
            for ai, bi in zip(params.triple, sigma.coefficients)
        ]
        for ls in itertools.product(*ranges):
            tri = CharacterTriple(
                *(TraceValue(li, ai) for li, ai in zip(ls, params.triple)), epsilon=eps
            )
            if classify(tri) is ClassLabel.SU2:
                found.append((ls, eps, tri))
    return sorted(found, key=lambda row: (row[0], row[1]))


def fresh_triple(eu, sigma):
    """The class's trace triple folded afresh from its cover order, without a memo."""
    order = abs(eu.cover_euler_number())
    return CharacterTriple(
        *(TraceValue(-order * bi, ai) for ai, bi in sigma.pairs),
        epsilon=-1 if order % 2 else 1,
    )


def check_against_fresh_folds(params, sigma):
    """phi_map, sphere_summary's class tables and their views against folds made afresh."""
    pairs = phi_map(params, sigma)
    for eu, tri in pairs:
        assert tri == fresh_triple(eu, sigma)
    # sphere_summary builds both tables on one TraceMemo
    _, pulled, unitary, _ = sphere_summary(params, sigma)
    assert unitary.memo is pulled.memo
    assert list(zip(pulled.classes, pulled.triples)) == pairs
    assert [row[3] for row in pulled.rows] == [abs(eu.cover_euler_number()) for eu in pulled.classes]
    fresh = fresh_su2_rows(params, sigma)
    assert unitary.rows == [(*ls, eps) for ls, eps, _ in fresh]
    assert unitary.triples == [tri for _, _, tri in fresh]
    assert len(unitary.rows) + len(pairs) == (params.a1 - 1) * (params.a2 - 1) * (params.a3 - 1) // 4
    for triples in (unitary.triples + pulled.triples, [tri for _, tri in pairs]):
        traces = [tv for tri in triples for tv in (tri.tx, tri.ty, tri.tz)]
        for tv in traces:
            expected = fresh_value(tv)
            assert tv.value == expected
            assert TraceValue(tv.n, tv.q).value == expected
        # one object per distinct trace value: a memo is keyed by folded angles
        assert len({id(tv) for tv in traces}) == len(set(traces))


def negated(sigma):
    """The same sphere's data with every coefficient negated: convention sign -1."""
    return SeifertInvariant(0, tuple((ai, -bi) for ai, bi in sigma.pairs))


def odd_b2(sigma):
    """The same euler number with (b1 + a1, b2 - a2, b3); b2 changes parity, since a2 is odd."""
    (a1, b1), (a2, b2), (a3, b3) = sigma.pairs
    return SeifertInvariant(0, ((a1, b1 + a1), (a2, b2 - a2), (a3, b3)))


def test_memoized_triples_match_fresh_folds():
    # each sphere's memo shares one TraceValue per distinct trace; the triples
    # and every carried float must equal ones folded and evaluated afresh. The
    # last two spheres have a3 > 2000 and wide SU(2) windows.
    wide = [canonicalize_params(2, 3, 6007), canonicalize_params(7, 11, 2003)]
    for params in census_params(1000) + wide:
        check_against_fresh_folds(params, solve_seifert(params))


@pytest.mark.parametrize("override, sign", [(negated, -1), (odd_b2, 1)], ids=["negated", "odd_b2"])
def test_memoized_triples_match_fresh_folds_on_override_data(override, sign):
    # canonical data has b1 odd and b2, b3 even on every sphere. Negated data
    # flip the sign of every -order*b_i before the fold; odd_b2 data walk the
    # odd l2 ranges of the epsilon = -1 rows, and the even l1 ones when a1 is odd
    assert odd_b2(solve_seifert(canonicalize_params(7, 11, 13))).coefficients == (12, -7, -14)
    for params in census_params(1000):
        sigma = override(solve_seifert(params))
        assert sphere_convention_sign(sigma) == sign
        check_against_fresh_folds(params, sigma)


def test_lattice_makers_build_what_the_public_constructors_build():
    # the makers skip the range and sign checks the public constructors make;
    # what they build must be the object those constructors build, attributes,
    # hash and cleared sum included
    for params in census_params(1000):
        sigma = solve_seifert(params)
        forward = enumerate_E(params)
        backward = enumerate_condition_b(params)
        for eu in forward + backward + [reverse_orientation(eu) for eu in forward + backward]:
            public = EulerClass(params, eu.beta, *eu.betas)
            assert eu == public
            assert hash(eu) == hash(public)
            assert eu.cleared_sum() == public.cleared_sum()
            assert vars(eu) == vars(public)
        for tri in [tri for _, tri in phi_map(params, sigma)] + enumerate_su2(params, sigma):
            public = CharacterTriple(tri.tx, tri.ty, tri.tz, epsilon=tri.epsilon)
            assert tri == public
            assert hash(tri) == hash(public)
            assert vars(tri) == vars(public)

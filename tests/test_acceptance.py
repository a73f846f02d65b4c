"""Acceptance suite: one numbered test per criterion, with stated budgets.

The conftest hook prints a PASS/FAIL line per criterion after the run.
"""

import time
from fractions import Fraction

import pytest

from brieskorn.character import (
    ClassLabel,
    PulledBackClasses,
    TraceMemo,
    classify,
    count_report,
    enumerate_su2,
    kappa,
    phi_map,
)
from brieskorn.errors import InconsistentClassification
from brieskorn.euler import (
    enumerate_E,
    enumerate_condition_b,
    seifert_from_euler,
)
from brieskorn.seifert import SeifertInvariant, canonicalize_params, h1_order

F = Fraction


def angle(tv) -> Fraction:
    """The folded angle n/q of a trace value 2cos(pi*n/q)."""
    return F(tv.n, tv.q)


def family_sigma(n: int) -> SeifertInvariant:
    """b = 0 form of the published data for (2, 3, 6n+1)."""
    return SeifertInvariant(0, ((2, 1), (3, -2), (6 * n + 1, n)))


def test_criterion_1_smallest_sphere_counts():
    start = time.perf_counter()
    report = count_report(canonicalize_params(2, 3, 5))
    elapsed = time.perf_counter() - start
    assert (report.total, report.su2, report.sl2r) == (2, 2, 0)
    assert (report.casson_abs, report.casson_sl2c) == (1, 2)
    assert elapsed < 1.0


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_criterion_2_family_counts(n):
    start = time.perf_counter()
    report = count_report(canonicalize_params(2, 3, 6 * n + 1))
    elapsed = time.perf_counter() - start
    assert report.total == 3 * n
    assert report.su2 == 2 * n
    assert report.sl2r == n
    assert report.casson_abs == n
    assert report.casson_sl2c == 3 * n
    assert elapsed < 1.0


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_criterion_3_family_trace_table(n):
    params = canonicalize_params(2, 3, 6 * n + 1)
    m = 6 * n + 1
    pairs = phi_map(params, family_sigma(n))
    assert [eu.betas for eu, _ in pairs] == [(1, 1, k) for k in range(1, n + 1)]
    for k, (eu, tri) in enumerate(pairs, start=1):
        assert angle(tri.tx) == F(1, 2)  # trace 0
        assert angle(tri.ty) == F(2, 3)  # trace -1
        expected = F(k, m) if (n - k) % 2 == 0 else 1 - F(k, m)
        assert angle(tri.tz) == expected
        assert tri.epsilon == -1
        cover = seifert_from_euler(eu, params)
        assert h1_order(cover) == 6 * (n - k) + 1


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_criterion_4_family_unitary_traces(n):
    params = canonicalize_params(2, 3, 6 * n + 1)
    m = 6 * n + 1
    triples = enumerate_su2(params, family_sigma(n))
    assert [angle(tri.tz) for tri in triples] == [
        F(l, m) for l in range(n + 2, 5 * n + 1, 2)
    ]
    for tri in triples:
        assert (angle(tri.tx), angle(tri.ty)) == (F(1, 2), F(2, 3))
        assert F(1, 6) < angle(tri.tz) < F(5, 6)


def test_criterion_5_357_euler_classes_and_covers():
    params = canonicalize_params(3, 5, 7)
    classes = enumerate_E(params)
    assert [eu.betas for eu in classes] == [(1, 1, 1), (1, 1, 2), (1, 1, 3), (1, 2, 1)]
    assert all(eu.beta == -1 for eu in classes)
    orders = [h1_order(seifert_from_euler(eu, params)) for eu in classes]
    assert orders == [34, 19, 4, 13]
    assert all(order > 1 for order in orders)


def test_criterion_6_partition_sweep(partition_sweep):
    rows, elapsed = partition_sweep
    assert elapsed < 60.0
    assert len(rows) == 1966
    classes = 0
    for params, sigma, su2, pairs in rows:
        total = (params.a1 - 1) * (params.a2 - 1) * (params.a3 - 1) // 4
        assert len(su2) + len(pairs) == total
        su2_keys = {t.key for t in su2}
        phi_keys = {t.key for _, t in pairs}
        assert len(su2_keys) == len(su2)
        assert len(phi_keys) == len(pairs)
        assert not su2_keys & phi_keys
        classes += total
    assert classes == 494125


def test_criterion_7_reversal_sweep(partition_sweep):
    # on each sphere's pulled-back rows: (-1; k,l,m) reverses to (-2; a1-k, a2-l, a3-m),
    # which maps the rows one to one onto the condition-b classes, and each partner's
    # cover has the negated euler number, hence the same memo keys and epsilon.
    # reverse_orientation and reversed_trace_check on class objects are tested apart,
    # in test_properties.py, test_euler.py and test_character.py
    rows, _ = partition_sweep
    for params, sigma, _, pairs in rows:
        memo = TraceMemo(params, sigma)
        pulled = PulledBackClasses(memo)
        assert len(pulled.rows) == len(pairs)
        a1, a2, a3 = params.triple
        a = params.a
        c1, c2, c3 = a2 * a3, a1 * a3, a1 * a2
        partners = []
        for (k, l, m, order), key in zip(pulled.rows, pulled.keys):
            b1, b2, b3 = a1 - k, a2 - l, a3 - m
            # a*e of the cover that (-2; b1,b2,b3) selects
            cover = 2 * a - b1 * c1 - b2 * c2 - b3 * c3
            assert cover == -order
            assert memo._keys_for_order([abs(cover)]) == [key]
            partners.append((b1, b2, b3))
        assert len(set(partners)) == len(partners)
        assert sorted(partners) == enumerate_condition_b(params)


def test_criterion_8_realization_sweep(realization_sweep):
    rows, elapsed = realization_sweep
    assert elapsed < 120.0
    assert len(rows) == 413
    checked = 0
    for params, stacks in rows:
        for triples, cert in stacks:
            assert len(cert) == len(triples)
            for tri, passed, max_residual, gap in zip(
                triples, cert.passed.tolist(), cert.residuals.max(axis=1).tolist(), cert.gaps.tolist()
            ):
                assert passed
                assert max_residual < 1e-9
                assert gap > 1e-9
                assert abs(gap - abs(kappa(tri))) < 1e-8
                checked += 1
    assert checked == 32053


def test_criterion_9_zero_inconsistent_classifications(partition_sweep, realization_sweep):
    # enumerate_su2 makes only the float kappa check on its survivors, so
    # classify every unitary and every pulled-back class here and count events
    rows, _ = partition_sweep
    events = 0
    mislabels = 0
    for params, sigma, su2, pairs in rows:
        assert len({tri.key for tri in su2}) == len(su2)
        for expected, triples in (
            (ClassLabel.SU2, su2),
            (ClassLabel.SL2R, [tri for _, tri in pairs]),
        ):
            for tri in triples:
                try:
                    if classify(tri) is not expected:
                        mislabels += 1
                except InconsistentClassification:
                    events += 1
    assert events == 0
    assert mislabels == 0
    real_rows, _ = realization_sweep
    assert real_rows  # realization sweep completed without raising

"""Matrix realizations: closed-form solves, relation residuals, commutator gap."""

import cmath
import math
import re
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest

from brieskorn.character import (
    CharacterTriple,
    ClassLabel,
    PulledBackClasses,
    TraceMemo,
    TraceValue,
    UnitaryClasses,
    enumerate_su2,
    kappa,
    phi_map,
    trace_table,
)
import brieskorn.realize
from brieskorn.cli import build_record, census_params, parse_seifert_override
from brieskorn.errors import BrieskornError, NotRealizable
from brieskorn.realize import (
    certify_columns,
    frobenius,
    realize_sl2r,
    realize_su2,
    sl2_inverse,
    stretch_for_product_trace,
    verify_relations,
)
from brieskorn.seifert import SeifertInvariant, canonicalize_params, solve_seifert

F = Fraction

OVERRIDE_237 = SeifertInvariant(0, ((2, 1), (3, -2), (7, 1)))


def triple(t1, t2, t3, eps=-1):
    return CharacterTriple(
        *(TraceValue(*F(t).as_integer_ratio()) for t in (t1, t2, t3)), epsilon=eps
    )


def test_stretch_closed_form():
    d = stretch_for_product_trace(2.5)
    assert d == pytest.approx(math.sqrt(2.0))
    assert d * d + 1.0 / (d * d) == pytest.approx(2.5)


@pytest.mark.parametrize("u", [2.0, 1.99, -3.0])
def test_stretch_rejects_small_targets(u):
    with pytest.raises(NotRealizable):
        stretch_for_product_trace(u)


def trace(m: np.ndarray) -> float:
    return float(m.trace().real)


def test_realize_su2_hits_all_three_traces():
    c = triple(F(1, 2), F(2, 3), F(3, 7))
    X, Y = realize_su2(c)
    for m in (X, Y):
        assert m.shape == (2, 2)
        assert float(np.abs(m @ m.conj().T - np.eye(2)).max()) < 1e-12
        assert abs(np.linalg.det(m) - 1.0) < 1e-12
    assert trace(X) == pytest.approx(c.values[0], abs=1e-10)
    assert trace(Y) == pytest.approx(c.values[1], abs=1e-10)
    assert trace(X @ Y) == pytest.approx(c.values[2], abs=1e-10)


def test_realize_su2_rejects_reducible_wall():
    # third trace pinned to the interval endpoint
    with pytest.raises(NotRealizable):
        realize_su2(triple(F(1, 3), F(1, 3), F(2, 3)))


def test_realize_su2_rejects_real_form_triple():
    with pytest.raises(NotRealizable):
        realize_su2(triple(F(1, 2), F(2, 3), F(1, 7)))


def test_realize_sl2r_rejects_unitary_triple():
    with pytest.raises(NotRealizable):
        realize_sl2r(triple(F(1, 2), F(2, 3), F(3, 7)))


@pytest.mark.parametrize(
    "angles",
    [
        (F(1, 2), F(2, 3), F(6, 7)),  # target trace below the unitary interval
        (F(1, 2), F(4, 5), F(2, 7)),  # target trace above it: lambda^2 = -d^2
    ],
)
def test_realize_sl2r_both_sign_branches(angles):
    c = triple(*angles)
    X, Y = realize_sl2r(c)
    assert X.shape == Y.shape == (2, 2)
    assert abs(np.linalg.det(X) - 1.0) < 1e-12 and abs(np.linalg.det(Y) - 1.0) < 1e-12
    assert trace(X) == pytest.approx(c.values[0], abs=1e-10)
    assert trace(Y) == pytest.approx(c.values[1], abs=1e-10)
    assert trace(X @ Y) == pytest.approx(c.values[2], abs=1e-10)
    assert float(np.abs(X.imag).max()) < 1e-12
    assert float(np.abs(Y.imag).max()) < 1e-12


def test_verify_relations_sl2r_class_237():
    params = canonicalize_params(2, 3, 7)
    [(eu, c)] = phi_map(params, OVERRIDE_237)
    X, Y = realize_sl2r(c)
    cert = verify_relations(X, Y, OVERRIDE_237, ClassLabel.SL2R, c.epsilon)
    assert cert.passed.tolist() == [True]
    assert cert.relations == ("x^2", "y^3", "z^7")
    assert cert.residuals.shape == (1, 3)
    assert cert.max_residual < 1e-12
    assert cert.gaps[0] == pytest.approx(abs(kappa(c)), abs=1e-8)
    assert cert.gaps[0] == pytest.approx(0.2469796, abs=1e-6)


def test_verify_relations_su2_classes_235():
    params = canonicalize_params(2, 3, 5)
    sigma = solve_seifert(params)
    for c in enumerate_su2(params, sigma):
        X, Y = realize_su2(c)
        cert = verify_relations(X, Y, sigma, ClassLabel.SU2, c.epsilon)
        assert cert.passed.tolist() == [True]
        assert cert.max_residual < 1e-12
        assert cert.gaps[0] == pytest.approx(abs(kappa(c)), abs=1e-8)


def test_verify_relations_gap_matches_kappa_across_357():
    params = canonicalize_params(3, 5, 7)
    sigma = solve_seifert(params)
    for _, c in phi_map(params, sigma):
        X, Y = realize_sl2r(c)
        cert = verify_relations(X, Y, sigma, ClassLabel.SL2R, c.epsilon)
        assert cert.passed.tolist() == [True]
        assert cert.gaps[0] == pytest.approx(abs(kappa(c)), abs=1e-8)


def test_verify_relations_flags_reducible_pair():
    X = np.eye(2)
    cert = verify_relations(X, X, OVERRIDE_237, ClassLabel.SU2, epsilon=-1)
    assert cert.passed.tolist() == [False]
    assert cert.gaps[0] == pytest.approx(0.0, abs=1e-15)


def test_verify_relations_rejects_shifted_data():
    X = np.eye(2)
    shifted = SeifertInvariant(-1, ((2, 1), (3, 1), (7, 1)))
    with pytest.raises(ValueError):
        verify_relations(X, X, shifted, ClassLabel.SU2, epsilon=1)


def test_verify_relations_rejects_a_central_sign_other_than_plus_or_minus_one():
    rotation = np.array([[0.0, -1.0], [1.0, 0.0]])
    for epsilon in (0, 2):
        with pytest.raises(ValueError, match=r"epsilon must be \+1 or -1"):
            verify_relations(rotation, rotation, OVERRIDE_237, ClassLabel.SL2R, epsilon=epsilon)


def chebyshev_power(m: np.ndarray, n: int) -> np.ndarray:
    """Eigenvalue closed form for powers of a det-1 matrix with trace != +-2."""
    half_trace = complex(m.trace()) / 2.0
    psi = cmath.acos(half_trace)
    s = cmath.sin(psi)
    return (cmath.sin(n * psi) / s) * m - (cmath.sin((n - 1) * psi) / s) * np.eye(2)


def entries(stack: np.ndarray) -> tuple:
    """The entry arrays (m00, m01, m10, m11) of an (n, 2, 2) stack, contiguous as an SU(2) stack holds them."""
    return tuple(np.ascontiguousarray(stack[:, i, j]) for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)))


def matrix_of(stack, k: int) -> np.ndarray:
    """Matrix k of a certificate stack, four SU(2) entry arrays or an (n, 2, 2) array, as a 2x2 array."""
    if isinstance(stack, tuple):
        return np.array([[stack[0][k], stack[1][k]], [stack[2][k], stack[3][k]]])
    return stack[k]


def entry_power(m: np.ndarray, n: int) -> np.ndarray:
    """m^n by the products the certificates power an SU(2) stack's entry arrays with."""
    return matrix_of(brieskorn.realize._power(entries(m[None]), n), 0)


def test_matrix_powers_match_eigenvalue_form():
    # an SL(2,R) pair by numpy's matrix_power, as its certificates take it, and
    # an SU(2) pair by the products on four entry arrays
    for realizer, angles, power in (
        (realize_sl2r, (F(1, 2), F(2, 3), F(1, 7)), np.linalg.matrix_power),
        (realize_su2, (F(1, 2), F(2, 3), F(3, 7)), entry_power),
    ):
        X, Y = realizer(triple(*angles))
        Z = sl2_inverse(X @ Y)
        for mat, n in ((X, 2), (Y, 3), (Z, 7), (Z, 19), (Z, 4001)):
            delta = power(mat, n) - chebyshev_power(mat, n)
            assert float(np.abs(delta).max()) < 1e-10


def test_sl2_inverse_is_the_inverse():
    c = triple(F(1, 2), F(2, 3), F(6, 7))
    X, _ = realize_sl2r(c)
    assert float(np.abs(X @ sl2_inverse(X) - np.eye(2)).max()) < 1e-14


@pytest.mark.parametrize(
    "bad, real_form, message",
    [
        (np.diag([2.0, 1.0]), ClassLabel.SL2R, "determinant"),
        (np.array([[1, 1j], [0, 1]]), ClassLabel.SL2R, "nonreal"),
        (np.array([[1.0, 1.0], [0.0, 1.0]]), ClassLabel.SU2, "not unitary"),  # shear
        (np.eye(2), ClassLabel.REDUCIBLE, "SU2 or SL2R"),
        (np.eye(3), ClassLabel.SU2, None),  # numpy or the shape check rejects it
    ],
    ids=["determinant", "nonreal", "shear", "reducible", "shape"],
)
def test_verify_relations_rejects_a_bad_pair(bad, real_form, message):
    rotation = np.array([[0.0, -1.0], [1.0, 0.0]])
    for X, Y in ((bad, rotation), (rotation, bad), (bad, bad)):
        with pytest.raises(ValueError, match=message):
            verify_relations(X, Y, OVERRIDE_237, real_form, epsilon=-1)


def test_verify_relations_accepts_a_rotation_pair():
    rotation = np.array([[0.0, -1.0], [1.0, 0.0]])
    cert = verify_relations(rotation, rotation, OVERRIDE_237, ClassLabel.SL2R, epsilon=-1)
    assert len(cert) == 1


# spheres for the stack checks: canonical data, the convention sign -1 data
# with odd b_i, and three spheres past a = 1524 whose SL(2,R) classes fail
# tol 1e-9 on float64 round-off (ROADMAP item 3)
STACK_SPHERES = [
    ((2, 3, 7), None),
    ((3, 5, 7), None),
    ((2, 3, 7), "0,-1,-2,8"),
    ((4, 3, 127), None),
    ((2, 3, 601), None),
    ((61, 67, 71), None),
]


def memo_stacks(params, sigma):
    """(real form, memo keys, triples) of both families on one TraceMemo, pulled-back first.

    The triples are the memo's views of the keys, which also fills the
    memo's tables with every key the stacks read; they must equal the views
    phi_map and enumerate_su2 make over fresh memos.
    """
    memo = TraceMemo(params, sigma)
    out = []
    for real_form, table, fresh in (
        (ClassLabel.SL2R, PulledBackClasses(memo), [c for _, c in phi_map(params, sigma)]),
        (ClassLabel.SU2, UnitaryClasses(memo), enumerate_su2(params, sigma)),
    ):
        triples = memo.triples(table.keys)
        assert triples == fresh
        out.append((real_form, table.keys, triples))
    return memo, out


def sphere_classes(multiplicities, override):
    """sigma and the (one-class realizer, real form, memo-key certificate, triples) of both families.

    Each family is certified from its memo keys on the sphere's one memo, as
    the command line certifies it.
    """
    params = canonicalize_params(*multiplicities)
    sigma = parse_seifert_override(override, params)[0] if override else solve_seifert(params)
    memo, stacks = memo_stacks(params, sigma)
    return sigma, [
        (realizer, real_form, certify_columns(memo.generators, keys, sigma, real_form), triples)
        for realizer, (real_form, keys, triples) in zip((realize_sl2r, realize_su2), stacks)
    ]


def outcome(cert, k):
    """Class k of a certificate: its named residuals, gap and verdict, as Python values."""
    residuals = dict(zip(cert.relations, cert.residuals[k].tolist()))
    return residuals, cert.gaps[k].item(), cert.passed[k].item()


@pytest.mark.parametrize("multiplicities, override", STACK_SPHERES, ids=str)
def test_stack_matches_one_class_wrappers(multiplicities, override):
    sigma, families = sphere_classes(multiplicities, override)
    for realizer, real_form, cert, triples in families:
        assert len(cert) == len(triples)
        assert cert.residuals.shape == (len(triples), 3)
        # every failed class and a spread of the rest: (61,67,71) has 69,300 classes
        step = max(1, len(triples) // 300)
        for k, passed in enumerate(cert.passed.tolist()):
            if passed and k % step:
                continue
            c = triples[k]
            one = verify_relations(*realizer(c), sigma, real_form, c.epsilon)
            # residuals and gaps are never nan or -0.0, so == is bit equality
            assert outcome(one, 0) == outcome(cert, k)


@pytest.mark.parametrize(
    "realizer, real_form, angles",
    [
        (realize_su2, ClassLabel.SU2, (F(1, 2), F(2, 3), F(500001, 1000001))),
        (realize_sl2r, ClassLabel.SL2R, (F(1, 2), F(2, 3), F(1, 1000001))),
    ],
    ids=["SU2", "SL2R"],
)
def test_one_class_realization_reads_only_its_own_entries(realizer, real_form, angles):
    # a wide denominator costs one entry, not a table of q + 1 sines, and the
    # pair has the bits the full tables of its denominators give it
    c = triple(*angles, eps=1)
    times = []
    for _ in range(5):
        start = time.perf_counter()
        X, Y = realizer(c)
        times.append(time.perf_counter() - start)
    assert min(times) < 0.005
    table = brieskorn.realize._table
    full = [trace_table(tv.q) for tv in (c.tx, c.ty, c.tz)]
    first, second = (table(traces, range(len(traces)), len(traces) - 1) for traces in full[:2])
    row = [(c.tx.n, c.ty.n, c.tz.n, c.epsilon)]
    X_full, at, Y_full, *_ = brieskorn.realize._realize_columns(first, second, full[2], row, real_form)
    for one, stack, k in ((X, X_full, at[0]), (Y, Y_full, 0)):
        in_full = matrix_of(stack, k)
        assert one.tobytes() == in_full.tobytes() and one.dtype == in_full.dtype


def reference_pair(c, real_form):
    """X and Y built for one class with math and plain 2x2 arrays: R(th1), and D R(th2) D^-1."""
    th1, th2, th3 = (math.pi * (tv.n / tv.q) for tv in (c.tx, c.ty, c.tz))
    c1, s1, c2, s2 = math.cos(th1), math.sin(th1), math.cos(th2), math.sin(th2)
    target = 2.0 * math.cos(th3)

    def rotation(angle):
        co, si = math.cos(angle), math.sin(angle)
        return np.array([[co, -si], [si, co]], dtype=complex)

    if real_form is ClassLabel.SU2:
        # lambda^2 = e^(i phi) on the unit circle, with cos phi = h
        h = (2.0 * c1 * c2 - target) / (2.0 * s1 * s2)
        lam = np.complex128(complex(h, math.sqrt(1.0 - h * h)))
        rot = rotation(th2)
        # numpy's complex reciprocal, which Python's complex division can miss by an ulp
        Y = np.array([[rot[0, 0], rot[0, 1] * lam], [rot[1, 0] * (1.0 / lam), rot[1, 1]]])
        return rotation(th1), Y
    u = (2.0 * c1 * c2 - target) / (s1 * s2)
    d = stretch_for_product_trace(abs(u))
    dd = d * d
    rot = rotation(th2 if u >= 0 else -th2)
    Y = np.array([[rot[0, 0], rot[0, 1] * dd], [rot[1, 0] / dd, rot[1, 1]]], dtype=complex)
    return rotation(th1), Y


# An SU(2) stack multiplies on its entry arrays, where the complex128
# reference takes np.matmul, so its residuals and gaps move in their last
# bits. Measured against that reference: residuals by at most 1.9e-14 on
# every sphere with a <= 1000 and 6.0e-14 on (2, 3, 601), 6.8e-13 and
# 4.3e-13 on FAILING_AT_SCALE below, gaps by at most 6.7e-16 anywhere.
SU2_RESIDUAL_DRIFT = 1e-13
SU2_RESIDUAL_DRIFT_AT_SCALE = 1e-12
SU2_GAP_DRIFT = 1e-15


def assert_matches_reference(real_form, cert, residuals, gaps, residual_drift=SU2_RESIDUAL_DRIFT):
    """SL(2,R) residuals and gaps equal the reference bit for bit; SU(2) ones lie within the drift."""
    if real_form is ClassLabel.SL2R:
        assert cert.residuals.tobytes() == residuals.tobytes()
        assert cert.gaps.tobytes() == gaps.tobytes()
    else:
        assert np.abs(cert.residuals - residuals).max(initial=0.0) <= residual_drift
        assert np.abs(cert.gaps - gaps).max(initial=0.0) <= SU2_GAP_DRIFT


@pytest.mark.parametrize("multiplicities, override", STACK_SPHERES[:5], ids=str)
def test_stack_matches_numpy_reference(multiplicities, override):
    sigma, families = sphere_classes(multiplicities, override)
    for realizer, real_form, cert, triples in families:
        assert len(cert) == len(triples)
        residuals, gaps = [], []
        for c in triples:
            X, Y = reference_pair(c, real_form)
            realized_X, realized_Y = realizer(c)
            assert np.array_equal(realized_X, X) and np.array_equal(realized_Y, Y)
            # the traces of X and Y are their table entries bit for bit, which is why
            # the realization checks only the trace of XY
            traces = [(m[0, 0] + m[1, 1]).real.hex() for m in (realized_X, realized_Y)]
            assert traces == [c.tx.value.hex(), c.ty.value.hex()]
            row = []
            for mat, (ai, bi) in zip((X, Y, sl2_inverse(X @ Y)), sigma.pairs):
                center = -np.eye(2) if (c.epsilon == -1 and bi % 2) else np.eye(2)
                row.append(np.linalg.norm(np.linalg.matrix_power(mat, ai) - center))
            residuals.append(row)
            commutator = X @ Y @ sl2_inverse(X) @ sl2_inverse(Y)
            gaps.append(abs(complex(commutator.trace()) - 2.0))
        reference = np.array(residuals, dtype=float).reshape(-1, 3), np.array(gaps, dtype=float)
        assert_matches_reference(real_form, cert, *reference)


def reference_certificate(triples, sigma, real_form):
    """Residuals and gaps as complex128 stacks built class by class, the construction of earlier versions.

    Each class is solved in math; X, Y and XY are complex stacks with one X
    per class, each raised to its power by np.linalg.matrix_power.
    """
    columns = []
    for c in triples:
        tx, ty, tz = c.tx, c.ty, c.tz
        s1, s2 = math.sin(math.pi * (tx.n / tx.q)), math.sin(math.pi * (ty.n / ty.q))
        c1, c2 = tx.value / 2.0, ty.value / 2.0
        u = (2.0 * c1 * c2 - tz.value) / (s1 * s2)
        if real_form is ClassLabel.SU2:
            h = u / 2.0
            columns.append((c1, s1, c2, s2, h, math.sqrt(1.0 - h * h)))
        else:
            size = abs(u)
            d = math.sqrt((size + math.sqrt(size * size - 4.0)) / 2.0)
            columns.append((c1, s1, c2, s2, math.copysign(d * d, u), 0.0))
    c1, s1, c2, s2, lam_re, lam_im = np.array(columns, dtype=float).reshape(-1, 6).T

    def rotations(co, si):
        r = np.empty((len(co), 2, 2), dtype=complex)
        r[:, 0, 0], r[:, 0, 1], r[:, 1, 0], r[:, 1, 1] = co, -si, si, co
        return r

    def inverse(m):
        inv = np.empty_like(m)
        inv[:, 0, 0], inv[:, 0, 1], inv[:, 1, 0], inv[:, 1, 1] = (
            m[:, 1, 1], -m[:, 0, 1], -m[:, 1, 0], m[:, 0, 0]
        )
        return inv

    X, Y = rotations(c1, s1), rotations(c2, s2)
    lam_sq = lam_re + 1j * lam_im
    Y[:, 0, 1] *= lam_sq
    Y[:, 1, 0] *= 1.0 / lam_sq
    XY = X @ Y
    identity = np.eye(2, dtype=complex)
    odd_sign = np.array([c.epsilon == -1 for c in triples], dtype=bool)
    residuals = []
    for stack, (ai, bi) in zip((X, Y, inverse(XY)), sigma.pairs):
        center = np.where((odd_sign & (bi % 2 == 1))[:, None, None], -identity, identity)
        residuals.append(frobenius(entries(np.linalg.matrix_power(stack, ai) - center)))
    commutator = XY @ inverse(X) @ inverse(Y)
    offset = commutator[:, 0, 0] + commutator[:, 1, 1] - 2.0
    return np.stack(residuals, axis=1), np.hypot(offset.real, offset.imag)


# two spheres past a = 1524 whose first SL(2,R) class fails tol 1e-9; the scale
# test runs them after every sphere with a <= 1000
FAILING_AT_SCALE = [(2, 3, 6007), (7, 11, 2003)]


def test_certificates_keep_the_complex_reference_bits_at_scale(monkeypatch):
    certify = brieskorn.realize.certify_columns
    made = []

    def recording(*args):
        made.append(certify(*args))
        return made[-1]

    # SL(2,R) certificates keep the reference's bits, SU(2) ones stay within its drift
    monkeypatch.setattr(brieskorn.realize, "certify_columns", recording)
    for multiplicities in [p.triple for p in census_params(1000)] + FAILING_AT_SCALE:
        params = canonicalize_params(*multiplicities)
        sigma = solve_seifert(params)
        made.clear()
        try:
            build_record(params, sigma, "canonical", verify=True)
        except BrieskornError:
            assert multiplicities in FAILING_AT_SCALE
        # the command line's certificates, from the memo's tables and integer columns
        from_columns = list(made)
        assert len(from_columns) == (1 if multiplicities in FAILING_AT_SCALE else 2)
        memo, stacks = memo_stacks(params, sigma)
        for k, (real_form, keys, triples) in enumerate(stacks):
            residuals, gaps = reference_certificate(triples, sigma, real_form)
            # certified afresh as well: the command line never reaches the
            # unitary stack of a sphere whose real stack fails
            whole = certify(memo.generators, keys, sigma, real_form)
            drift = SU2_RESIDUAL_DRIFT_AT_SCALE if multiplicities in FAILING_AT_SCALE else SU2_RESIDUAL_DRIFT
            for cert in [whole] + from_columns[k : k + 1]:
                assert_matches_reference(real_form, cert, residuals, gaps, drift)


@pytest.mark.parametrize("multiplicities", FAILING_AT_SCALE + [(2, 5, 100003)], ids=str)
def test_unitary_classes_pass_where_the_command_line_aborts(multiplicities):
    # the command line stops at the first failing SL(2,R) class of these
    # spheres, before it certifies their SU(2) classes
    params = canonicalize_params(*multiplicities)
    sigma = solve_seifert(params)
    memo = TraceMemo(params, sigma)
    cert = certify_columns(memo.generators, UnitaryClasses(memo).keys, sigma, ClassLabel.SU2)
    assert cert.passed.all()
    assert cert.max_residual < 2e-10


def test_frobenius_is_numpy_norm_bit_for_bit():
    rng = np.random.default_rng(7)
    stack = rng.standard_normal((2000, 2, 2)) + 1j * rng.standard_normal((2000, 2, 2))
    stack *= 10.0 ** rng.integers(-12, 12, size=(2000, 1, 1))
    # on the entry arrays of complex matrices, and of float64 ones, which norm as
    # their complex128 casts: the imaginary parts add 0.0
    for matrices in (stack, stack.real):
        assert frobenius(entries(matrices)).tolist() == [np.linalg.norm(m.astype(complex)) for m in matrices]


# hand-built tables for the stack tests: 2cos(pi*r/q) for r in [0, q], one q per generator
HAND_Q = (6, 15, 14)
HAND_TABLES = tuple(trace_table(q) for q in HAND_Q)
# their class rows: keys in the three tables, then epsilon
REAL = (3, 10, 2, -1)  # angles (1/2, 2/3, 1/7)
UNITARY = (3, 10, 6, -1)  # (1/2, 2/3, 3/7), which has no SL(2,R) pair
OTHER_REAL = (3, 12, 4, -1)  # (1/2, 4/5, 2/7)
OTHER_UNITARY = (2, 5, 7, -1)  # (1/3, 1/3, 1/2)
DEGENERATE = (0, 10, 2, -1)  # (0, 2/3, 1/7): trace x is 2


def hand_triple(row):
    return CharacterTriple(*(TraceValue(r, q) for r, q in zip(row[:3], HAND_Q)), epsilon=row[3])


def test_hand_tables_hold_the_trace_values_of_their_rows():
    for row in (REAL, UNITARY, OTHER_REAL, OTHER_UNITARY, DEGENERATE):
        c = hand_triple(row)
        assert [t[r] for t, r in zip(HAND_TABLES, row[:3])] == list(c.values)


def test_stack_raises_on_an_unrealizable_class():
    cert = certify_columns(HAND_TABLES, [REAL], OVERRIDE_237, ClassLabel.SL2R)
    assert cert.passed.tolist() == [True]
    with pytest.raises(NotRealizable):
        certify_columns(HAND_TABLES, [REAL, UNITARY], OVERRIDE_237, ClassLabel.SL2R)


def test_stack_error_names_the_first_class_without_a_pair():
    def product_trace(c):
        (s1, s2), (c1, c2) = (math.sin(math.pi * tv.n / tv.q) for tv in (c.tx, c.ty)), c.values[:2]
        return abs((2.0 * (c1 / 2.0) * (c2 / 2.0) - c.tz.value) / (s1 * s2))

    cases = [
        (ClassLabel.SU2, [UNITARY, REAL, OTHER_REAL],
         f"target trace {hand_triple(REAL).tz.value} lies outside the open unitary interval"),
        (ClassLabel.SL2R, [REAL, UNITARY, OTHER_UNITARY],
         f"required d^2 + d^-2 = {product_trace(hand_triple(UNITARY))} is not above 2"),
        (ClassLabel.SL2R, [REAL, DEGENERATE, UNITARY], "degenerate rotation angle, traces are +-2"),
        (ClassLabel.SU2, [UNITARY, REAL, DEGENERATE], "target trace"),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a degenerate class divides by no zero
        for real_form, rows, message in cases:
            with pytest.raises(NotRealizable) as info:
                certify_columns(HAND_TABLES, rows, OVERRIDE_237, real_form)
            assert str(info.value).startswith(message)


def test_stack_refuses_a_key_its_table_lacks():
    # each table holds the keys 0..q: q + 1 and -1 lie past its ends
    for i, q in enumerate(HAND_Q):
        for key in (q + 1, -1):
            row = REAL[:i] + (key,) + REAL[i + 1 :]
            with pytest.raises(IndexError):
                certify_columns(HAND_TABLES, [REAL, row], OVERRIDE_237, ClassLabel.SL2R)


@pytest.mark.parametrize("real_form", [ClassLabel.SU2, ClassLabel.SL2R], ids=lambda f: f.value)
def test_stack_refuses_a_memo_key_outside_zero_to_a_i(real_form):
    # numpy reads index -1 from an array's end: a class with a negative key
    # must not read another key's entry, here key a_i of (2,3,7), and pass.
    # The memo is the one the command line certifies from
    params = canonicalize_params(2, 3, 7)
    memo = build_record(params, OVERRIDE_237, "override").pulled.memo
    for i, ai in enumerate(params.triple):
        for key in (-1, ai + 1):
            row = [1, 2, 3, -1]
            row[i] = key
            with pytest.raises(IndexError):
                certify_columns(memo.generators, [row], OVERRIDE_237, real_form)


def test_stack_checks_its_inputs():
    c = hand_triple(REAL)
    shifted = SeifertInvariant(-1, ((2, 1), (3, 1), (7, 1)))
    with pytest.raises(ValueError, match="b = 0"):
        certify_columns(HAND_TABLES, [REAL], shifted, ClassLabel.SL2R)
    X, Y = realize_sl2r(c)
    for tol in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="finite and positive"):
            certify_columns(HAND_TABLES, [REAL], OVERRIDE_237, ClassLabel.SL2R, tol=tol)
        with pytest.raises(ValueError, match="finite and positive"):
            verify_relations(X, Y, OVERRIDE_237, ClassLabel.SL2R, c.epsilon, tol=tol)
    with pytest.raises(ValueError, match="SU2 or SL2R"):
        certify_columns(HAND_TABLES, [REAL], OVERRIDE_237, ClassLabel.REDUCIBLE)
    # a central sign other than +-1 is refused, naming the first such row, for either real form
    for real_form, row in ((ClassLabel.SL2R, REAL), (ClassLabel.SU2, UNITARY)):
        for epsilon in (0, 2, 7):
            bad = row[:3] + (epsilon,)
            with pytest.raises(ValueError, match=re.escape(f"epsilon must be +1 or -1: class row 1, {list(bad)}")):
                certify_columns(HAND_TABLES, [row, bad, row[:3] + (3,)], OVERRIDE_237, real_form)
    # rows of other lengths are refused, even when their entries add up to four per class
    with pytest.raises(ValueError, match="three keys and epsilon"):
        certify_columns(HAND_TABLES, [REAL[:3], REAL + (1,)], OVERRIDE_237, ClassLabel.SL2R)
    # an (n, 4) integer array certifies as its rows do
    rows = [REAL, OTHER_REAL]
    as_rows, as_array = (certify_columns(HAND_TABLES, c, OVERRIDE_237, ClassLabel.SL2R) for c in (rows, np.array(rows)))
    assert as_array.residuals.tobytes() == as_rows.residuals.tobytes()
    assert as_array.gaps.tobytes() == as_rows.gaps.tobytes()
    empty = certify_columns(HAND_TABLES, [], OVERRIDE_237, ClassLabel.SU2)
    assert len(empty) == 0 and empty.residuals.shape == (0, 3)
    assert empty.max_residual == 0.0 and empty.min_gap == math.inf

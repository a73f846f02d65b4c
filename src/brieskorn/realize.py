"""Explicit 2x2 matrix realizations of trace triples and relation checking.

Both constructions solve one scalar equation in closed form. Unitary pairs:
X diagonal, Y a tilted diagonal, and the tilt phi interpolates
tr(XY) = 2(cos th1 cos th2 - sin th1 sin th2 cos phi). Real pairs: X a
rotation, Y a rotation conjugated by diag(d, 1/d), and the stretch d solves
tr(XY) = 2 cos th1 cos th2 - (d^2 + d^-2) sin th1 sin th2.

`certify_classes` realizes all classes of one real form on a sphere as
(n, 2, 2) stacks and runs every check once per stack. The scalar angle math
stays per class in math/cmath, and each stacked operation is the one a
single class would get, so a stack gives the same bits as its classes taken
one at a time. `realize_su2`, `realize_sl2r` and `verify_relations` are the
one-class case of the same code.
"""

from __future__ import annotations

import cmath
import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .character import CharacterTriple, ClassLabel
from .errors import NotRealizable
from .seifert import SeifertInvariant

FORM_TOLERANCE = 1e-12
TRACE_TOLERANCE = 1e-10
RELATION_TOLERANCE = 1e-9

_I2 = np.eye(2, dtype=complex)


def sl2_inverse(m: np.ndarray) -> np.ndarray:
    """Inverse of a determinant-one matrix, or of each in a stack, by the adjugate; no linear solve."""
    inv = np.empty(m.shape, dtype=complex)
    inv[..., 0, 0] = m[..., 1, 1]
    inv[..., 0, 1] = -m[..., 0, 1]
    inv[..., 1, 0] = -m[..., 1, 0]
    inv[..., 1, 1] = m[..., 0, 0]
    return inv


def _square_sum(a: np.ndarray) -> np.ndarray:
    # grouped as np.linalg.norm's dot product groups the entries of a 2x2 matrix
    sq = a * a
    return (sq[..., 0, 0] + sq[..., 1, 0]) + (sq[..., 0, 1] + sq[..., 1, 1])


def frobenius(m: np.ndarray) -> np.ndarray:
    """Frobenius norm of a 2x2 matrix, or of each in a stack, bit for bit np.linalg.norm."""
    return np.sqrt(_square_sum(m.real) + _square_sum(m.imag))


def _power(m: np.ndarray, n: int) -> np.ndarray:
    """m**n for n >= 1 on a stack, by the products np.linalg.matrix_power makes."""
    if n == 3:  # matrix_power's shortcut; the bit loop would give m @ (m @ m)
        return (m @ m) @ m
    z = result = None
    while n > 0:
        z = m if z is None else z @ z
        n, bit = divmod(n, 2)
        if bit:
            result = z if result is None else result @ z
    return result


def _check_form(stack: np.ndarray, real_form: ClassLabel) -> None:
    """Raise ValueError unless every matrix of the stack has determinant 1 and lies in real_form."""
    if real_form is ClassLabel.SL2R:
        form_bad = np.abs(stack.imag).max(axis=(1, 2)) > FORM_TOLERANCE
        message = "real-form matrix has nonreal entries"
    elif real_form is ClassLabel.SU2:
        gram = stack @ stack.conj().transpose(0, 2, 1)
        form_bad = frobenius(gram - _I2) > FORM_TOLERANCE
        message = "unitary-form matrix is not unitary"
    else:
        raise ValueError("real_form must be SU2 or SL2R")
    if (np.abs(np.linalg.det(stack) - 1.0) > FORM_TOLERANCE).any():
        raise ValueError("determinant must be 1")
    if form_bad.any():
        raise ValueError(message)


@dataclass(frozen=True, eq=False)
class Mat2:
    """A determinant-one 2x2 matrix tagged with the real form it lives in."""

    m: np.ndarray
    real_form: ClassLabel

    def __post_init__(self) -> None:
        mat = np.asarray(self.m, dtype=complex)
        if mat.shape != (2, 2):
            raise ValueError("expected a 2x2 matrix")
        object.__setattr__(self, "m", mat)
        _check_form(mat[None], self.real_form)

    @property
    def trace(self) -> float:
        return float(self.m.trace().real)


def _checked_mat2(m: np.ndarray, real_form: ClassLabel) -> Mat2:
    """A Mat2 around one matrix of a stack that already passed _check_form."""
    mat = object.__new__(Mat2)
    object.__setattr__(mat, "m", m)
    object.__setattr__(mat, "real_form", real_form)
    return mat


@dataclass(frozen=True)
class RealizationReport:
    """Residuals of the group relations for one realized pair."""

    X: Mat2
    Y: Mat2
    Z: Mat2
    epsilon: int
    residuals: dict[str, float]
    irreducibility_gap: float
    tol: float

    @functools.cached_property
    def max_residual(self) -> float:
        return max(self.residuals.values())

    @property
    def passed(self) -> bool:
        return self.max_residual < self.tol and self.irreducibility_gap > self.tol


def _angles(c: CharacterTriple) -> tuple[float, float, float]:
    # n / q rounds exactly as float(Fraction(n, q)) does
    tx, ty, tz = c.tx, c.ty, c.tz
    return math.pi * (tx.n / tx.q), math.pi * (ty.n / ty.q), math.pi * (tz.n / tz.q)


def _su2_solve(c: CharacterTriple) -> tuple:
    """Eigenvalues of X and of the untilted Y, cos and sin of half the tilt, and the target traces."""
    th1, th2, th3 = _angles(c)
    c1, s1 = math.cos(th1), math.sin(th1)
    c2, s2 = math.cos(th2), math.sin(th2)
    target = 2.0 * math.cos(th3)
    denom = 2.0 * s1 * s2
    if denom < 1e-15:
        raise NotRealizable("degenerate rotation angle, traces are +-2")
    cos_phi = (2.0 * c1 * c2 - target) / denom
    if abs(cos_phi) >= 1.0:
        raise NotRealizable(
            f"target trace {target} lies outside the open unitary interval"
        )
    phi = math.acos(cos_phi)
    eigenvalues = cmath.exp(1j * th1), cmath.exp(-1j * th1), cmath.exp(1j * th2), cmath.exp(-1j * th2)
    return (*eigenvalues, math.cos(phi / 2.0), math.sin(phi / 2.0), 2.0 * c1, 2.0 * c2, target)


def stretch_for_product_trace(u: float) -> float:
    """Solve d^2 + d^-2 = u for the stretch d >= 1; u must exceed 2."""
    if u <= 2.0:
        raise NotRealizable(f"required d^2 + d^-2 = {u} is not above 2")
    dd = (u + math.sqrt(u * u - 4.0)) / 2.0
    return math.sqrt(dd)


def _sl2r_solve(c: CharacterTriple) -> tuple:
    """cos and sin of both rotation angles, the squared stretch d^2, and the three target traces.

    When the target sits on the far side of the unitary interval the second
    rotation angle is negated, which flips the sign of the stretch term but
    keeps tr Y fixed.
    """
    th1, th2, th3 = _angles(c)
    c1, s1 = math.cos(th1), math.sin(th1)
    c2, s2 = math.cos(th2), math.sin(th2)
    target = 2.0 * math.cos(th3)
    denom = s1 * s2
    if denom < 1e-15:
        raise NotRealizable("degenerate rotation angle, traces are +-2")
    u = (2.0 * c1 * c2 - target) / denom
    second_angle = th2 if u >= 0 else -th2
    d = stretch_for_product_trace(abs(u))
    second = math.cos(second_angle), math.sin(second_angle)
    return (c1, s1, *second, d * d, 2.0 * c1, 2.0 * c2, target)


def _rotations(c: np.ndarray, s: np.ndarray) -> np.ndarray:
    r = np.empty((len(c), 2, 2), dtype=complex)
    r[:, 0, 0] = c
    r[:, 0, 1] = -s
    r[:, 1, 0] = s
    r[:, 1, 1] = c
    return r


def _diagonals(d0: np.ndarray, d1: np.ndarray) -> np.ndarray:
    r = np.zeros((len(d0), 2, 2), dtype=complex)
    r[:, 0, 0] = d0
    r[:, 1, 1] = d1
    return r


def _realize_stack(triples: Sequence[CharacterTriple], real_form: ClassLabel) -> tuple:
    """X, Y and XY stacks for the triples, with the traces and X and Y checked."""
    if real_form is ClassLabel.SU2:
        solve, width = _su2_solve, 9
    elif real_form is ClassLabel.SL2R:
        solve, width = _sl2r_solve, 8
    else:
        raise ValueError("real_form must be SU2 or SL2R")
    rows = [solve(c) for c in triples]
    cols = np.array(rows, dtype=complex).reshape(-1, width).T
    if real_form is ClassLabel.SU2:
        X = _diagonals(cols[0], cols[1])
        tilt = _rotations(cols[4].real, cols[5].real)
        Y = tilt @ _diagonals(cols[2], cols[3]) @ tilt.transpose(0, 2, 1)
    else:
        X = _rotations(cols[0].real, cols[1].real)
        Y = _rotations(cols[2].real, cols[3].real)
        dd = cols[4].real
        Y[:, 0, 1] *= dd
        # numpy divides a complex by a real as entry * (1 / dd), which entry / dd can miss by an ulp
        Y[:, 1, 0] *= 1.0 / dd
    XY = X @ Y
    traces = np.stack([(m[:, 0, 0] + m[:, 1, 1]).real for m in (X, Y, XY)])
    if not (np.abs(traces - cols[-3:].real) < TRACE_TOLERANCE).all():
        raise AssertionError("realized traces miss the trace triple")
    _check_form(X, real_form)
    _check_form(Y, real_form)
    return X, Y, XY


def _check_relation_inputs(sigma: SeifertInvariant, epsilons: Sequence[int], tol: float) -> None:
    if sigma.b != 0:
        raise ValueError("relation check needs data with b = 0 (product relator xyz = 1)")
    if any(eps not in (1, -1) for eps in epsilons):
        raise ValueError("epsilon must be +1 or -1")
    if tol <= 0:
        raise ValueError("tolerance must be positive")


def _relation_reports(
    X: np.ndarray, Y: np.ndarray, XY: np.ndarray, real_form: ClassLabel,
    sigma: SeifertInvariant, epsilons: Sequence[int], tol: float,
) -> list[RealizationReport]:
    """One report per class of the stacks, after Z = (XY)^-1 passes its form checks.

    Z is (XY)^-1 by construction, which is the product relator for data
    with b = 0. The power relation for generator i reads
    M^a_i = epsilon^(-b_i) * I; the commutator trace distance from 2 must
    stay above tol for the pair to count as irreducible.
    """
    Z = sl2_inverse(XY)
    _check_form(Z, real_form)
    odd_sign = np.array(epsilons) == -1
    names, residuals = [], []
    for name, stack, (ai, bi) in zip("xyz", (X, Y, Z), sigma.pairs):
        flip = odd_sign & (bi % 2 == 1)
        center = np.where(flip[:, None, None], -_I2, _I2)
        names.append(f"{name}^{ai}")
        residuals.append(frobenius(_power(stack, ai) - center).tolist())
    commutator = XY @ sl2_inverse(X) @ sl2_inverse(Y)
    offset = commutator[:, 0, 0] + commutator[:, 1, 1] - 2.0
    # np.hypot is the modulus abs(complex) takes, bit for bit
    gaps = np.hypot(offset.real, offset.imag).tolist()
    nx, ny, nz = names
    return [
        RealizationReport(
            _checked_mat2(x, real_form),
            _checked_mat2(y, real_form),
            _checked_mat2(z, real_form),
            eps,
            {nx: rx, ny: ry, nz: rz},
            gap,
            tol,
        )
        for x, y, z, eps, gap, rx, ry, rz in zip(X, Y, Z, epsilons, gaps, *residuals)
    ]


def certify_classes(
    triples: Sequence[CharacterTriple],
    sigma: SeifertInvariant,
    real_form: ClassLabel,
    tol: float = RELATION_TOLERANCE,
) -> list[RealizationReport]:
    """Realize every triple in real_form and check its relations, all on one stack.

    Returns one report per triple, in order; a class whose relations fail
    gets a report that did not pass. Every other failed check raises for
    the whole stack: NotRealizable when a triple has no pair in real_form,
    AssertionError when a pair misses its traces, ValueError when X, Y or Z
    fails its determinant or real-form check.
    """
    epsilons = [c.epsilon for c in triples]
    _check_relation_inputs(sigma, epsilons, tol)
    X, Y, XY = _realize_stack(triples, real_form)
    return _relation_reports(X, Y, XY, real_form, sigma, epsilons, tol)


def _realize_one(c: CharacterTriple, real_form: ClassLabel) -> tuple[Mat2, Mat2]:
    X, Y, _ = _realize_stack([c], real_form)
    return _checked_mat2(X[0], real_form), _checked_mat2(Y[0], real_form)


def realize_su2(c: CharacterTriple) -> tuple[Mat2, Mat2]:
    """Unitary pair (X, Y) with tr X, tr Y, tr XY matching the triple."""
    return _realize_one(c, ClassLabel.SU2)


def realize_sl2r(c: CharacterTriple) -> tuple[Mat2, Mat2]:
    """Real pair (X, Y): a rotation and a stretched rotation hitting tr XY."""
    return _realize_one(c, ClassLabel.SL2R)


def verify_relations(
    X: Mat2,
    Y: Mat2,
    sigma: SeifertInvariant,
    epsilon: int,
    tol: float = RELATION_TOLERANCE,
) -> RealizationReport:
    """Frobenius residuals of the three power relations plus the irreducibility gap of one pair."""
    _check_relation_inputs(sigma, [epsilon], tol)
    x, y = X.m[None], Y.m[None]
    [report] = _relation_reports(x, y, x @ y, X.real_form, sigma, [epsilon], tol)
    return report

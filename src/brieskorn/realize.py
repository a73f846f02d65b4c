"""Explicit 2x2 matrix realizations of trace triples and relation checking.

Both constructions solve one scalar equation in closed form. Unitary pairs:
X diagonal, Y a tilted diagonal, and the tilt phi interpolates
tr(XY) = 2(cos th1 cos th2 - sin th1 sin th2 cos phi). Real pairs: X a
rotation, Y a rotation conjugated by diag(d, 1/d), and the stretch d solves
tr(XY) = 2 cos th1 cos th2 - (d^2 + d^-2) sin th1 sin th2.
"""

from __future__ import annotations

import cmath
import math
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
    """Inverse of a determinant-one matrix by the adjugate; no linear solve."""
    return np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]], dtype=complex)


def frobenius(m: np.ndarray) -> float:
    return float(np.linalg.norm(m))


def _rotation(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]], dtype=complex)


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
        if abs(np.linalg.det(mat) - 1.0) > FORM_TOLERANCE:
            raise ValueError("determinant must be 1")
        if self.real_form is ClassLabel.SL2R:
            if float(np.abs(mat.imag).max()) > FORM_TOLERANCE:
                raise ValueError("real-form matrix has nonreal entries")
        elif self.real_form is ClassLabel.SU2:
            if frobenius(mat @ mat.conj().T - _I2) > FORM_TOLERANCE:
                raise ValueError("unitary-form matrix is not unitary")
        else:
            raise ValueError("real_form must be SU2 or SL2R")

    @property
    def trace(self) -> float:
        return float(self.m.trace().real)


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

    @property
    def max_residual(self) -> float:
        return max(self.residuals.values())

    @property
    def passed(self) -> bool:
        return self.max_residual < self.tol and self.irreducibility_gap > self.tol


def _angles(c: CharacterTriple) -> tuple[float, float, float]:
    # n / q rounds exactly as float(Fraction(n, q)) does
    return tuple(math.pi * (tv.n / tv.q) for tv in (c.tx, c.ty, c.tz))


def realize_su2(c: CharacterTriple) -> tuple[Mat2, Mat2]:
    """Unitary pair (X, Y) with tr X, tr Y, tr XY matching the triple."""
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
    X = np.diag([cmath.exp(1j * th1), cmath.exp(-1j * th1)])
    tilt = _rotation(phi / 2.0)
    Y = tilt @ np.diag([cmath.exp(1j * th2), cmath.exp(-1j * th2)]) @ tilt.T
    assert abs(X.trace().real - 2.0 * c1) < TRACE_TOLERANCE
    assert abs(Y.trace().real - 2.0 * c2) < TRACE_TOLERANCE
    assert abs((X @ Y).trace().real - target) < TRACE_TOLERANCE
    return Mat2(X, ClassLabel.SU2), Mat2(Y, ClassLabel.SU2)


def stretch_for_product_trace(u: float) -> float:
    """Solve d^2 + d^-2 = u for the stretch d >= 1; u must exceed 2."""
    if u <= 2.0:
        raise NotRealizable(f"required d^2 + d^-2 = {u} is not above 2")
    dd = (u + math.sqrt(u * u - 4.0)) / 2.0
    return math.sqrt(dd)


def realize_sl2r(c: CharacterTriple) -> tuple[Mat2, Mat2]:
    """Real pair (X, Y): a rotation and a stretched rotation hitting tr XY.

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
    dd = d * d
    rot = _rotation(second_angle)
    X = _rotation(th1)
    Y = np.array(
        [[rot[0, 0], rot[0, 1] * dd], [rot[1, 0] / dd, rot[1, 1]]], dtype=complex
    )
    assert abs(X.trace().real - 2.0 * c1) < TRACE_TOLERANCE
    assert abs(Y.trace().real - 2.0 * c2) < TRACE_TOLERANCE
    assert abs((X @ Y).trace().real - target) < TRACE_TOLERANCE
    return Mat2(X, ClassLabel.SL2R), Mat2(Y, ClassLabel.SL2R)


def verify_relations(
    X: Mat2,
    Y: Mat2,
    sigma: SeifertInvariant,
    epsilon: int,
    tol: float = RELATION_TOLERANCE,
) -> RealizationReport:
    """Frobenius residuals of the three power relations plus the irreducibility gap.

    Z is (XY)^-1 by construction, which is the product relator for data with
    b = 0. The power relation for generator i reads
    M^a_i = epsilon^(-b_i) * I; the commutator trace distance from 2 must
    stay above tol for the pair to count as irreducible.
    """
    if sigma.b != 0:
        raise ValueError("relation check needs data with b = 0 (product relator xyz = 1)")
    if epsilon not in (1, -1):
        raise ValueError("epsilon must be +1 or -1")
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    Zm = sl2_inverse(X.m @ Y.m)
    Z = Mat2(Zm, X.real_form)
    residuals: dict[str, float] = {}
    for name, mat, (ai, bi) in zip("xyz", (X.m, Y.m, Zm), sigma.pairs):
        center = _I2 if (epsilon == 1 or bi % 2 == 0) else -_I2
        residuals[f"{name}^{ai}"] = frobenius(np.linalg.matrix_power(mat, ai) - center)
    commutator = X.m @ Y.m @ sl2_inverse(X.m) @ sl2_inverse(Y.m)
    gap = abs(complex(commutator.trace()) - 2.0)
    return RealizationReport(
        X=X,
        Y=Y,
        Z=Z,
        epsilon=epsilon,
        residuals=residuals,
        irreducibility_gap=gap,
        tol=tol,
    )

"""Explicit 2x2 matrix realizations of trace triples and relation checking.

One construction serves both real forms. X is the rotation R(th1) and Y is
D R(th2) D^-1 with D = diag(lambda, 1/lambda), so with u = lambda^2 + lambda^-2

    tr(XY) = 2 cos th1 cos th2 - u sin th1 sin th2,
    kappa = sin^2 th1 sin^2 th2 (u^2 - 4).

A unitary class (kappa < 0) has |u| < 2, which puts lambda^2 on the unit
circle and the pair in SU(2); a real class (kappa > 0) has |u| > 2, which
puts lambda^2 on the real line and the pair in SL(2,R), with lambda^2 = +-d^2
for the stretch d >= 1 of `stretch_for_product_trace`. Past the sines of the
two angles, the solve for each class is elementwise arithmetic.

`certify_classes` realizes all classes of one real form on a sphere as
(n, 2, 2) stacks, runs every check once per stack, and returns one
`Certificate`: an (n, 3) array of relation residuals and an (n,) array of
irreducibility gaps. The scalar angle math stays per class in math,
and each stacked operation is the one a single class would get, so a stack
gives the same bits as its classes taken one at a time. `realize_su2` and
`realize_sl2r` return one class's pair as plain 2x2 arrays, and
`verify_relations` checks a given pair through the same code as a stack of
one.
"""

from __future__ import annotations

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
class Certificate:
    """Relation residuals and irreducibility gaps of a stack of realized classes.

    Row k of residuals holds the Frobenius residuals of the three power
    relations, named by relations, for class k; gaps[k] is its commutator
    trace distance from 2.
    """

    relations: tuple[str, str, str]
    residuals: np.ndarray
    gaps: np.ndarray
    tol: float

    def __len__(self) -> int:
        return len(self.gaps)

    @property
    def passed(self) -> np.ndarray:
        """Whether each class has every residual below tol and its gap above it."""
        return (self.residuals.max(axis=1) < self.tol) & (self.gaps > self.tol)

    @property
    def max_residual(self) -> float:
        return float(self.residuals.max(initial=0.0))

    @property
    def min_gap(self) -> float:
        return float(self.gaps.min(initial=math.inf))


def stretch_for_product_trace(u: float) -> float:
    """Solve d^2 + d^-2 = u for the stretch d >= 1; u must exceed 2."""
    if u <= 2.0:
        raise NotRealizable(f"required d^2 + d^-2 = {u} is not above 2")
    dd = (u + math.sqrt(u * u - 4.0)) / 2.0
    return math.sqrt(dd)


def _solve(c: CharacterTriple, real_form: ClassLabel) -> tuple:
    """cos and sin of both rotation angles, lambda^2 as real and imaginary parts, and the three traces."""
    tx, ty, tz = c.tx, c.ty, c.tz
    # n / q rounds exactly as float(Fraction(n, q)) does
    s1, s2 = math.sin(math.pi * (tx.n / tx.q)), math.sin(math.pi * (ty.n / ty.q))
    if s1 * s2 < 1e-15:
        raise NotRealizable("degenerate rotation angle, traces are +-2")
    c1, c2 = tx.value / 2.0, ty.value / 2.0  # value is 2.0 * math.cos(angle); halving is exact
    u = (2.0 * c1 * c2 - tz.value) / (s1 * s2)
    if real_form is ClassLabel.SU2:
        if abs(u) >= 2.0:
            raise NotRealizable(
                f"target trace {tz.value} lies outside the open unitary interval"
            )
        h = u / 2.0
        return c1, s1, c2, s2, h, math.sqrt(1.0 - h * h), tx.value, ty.value, tz.value
    d = stretch_for_product_trace(abs(u))
    return c1, s1, c2, s2, math.copysign(d * d, u), 0.0, tx.value, ty.value, tz.value


def _rotations(c: np.ndarray, s: np.ndarray) -> np.ndarray:
    r = np.empty((len(c), 2, 2), dtype=complex)
    r[:, 0, 0] = c
    r[:, 0, 1] = -s
    r[:, 1, 0] = s
    r[:, 1, 1] = c
    return r


def _realize_stack(triples: Sequence[CharacterTriple], real_form: ClassLabel) -> tuple:
    """X, Y and XY stacks for the triples, with the traces and X and Y checked."""
    if real_form not in (ClassLabel.SU2, ClassLabel.SL2R):
        raise ValueError("real_form must be SU2 or SL2R")
    # the width 9 shapes an empty stack too
    cols = np.array([_solve(c, real_form) for c in triples], dtype=float).reshape(-1, 9).T
    X = _rotations(cols[0], cols[1])
    Y = _rotations(cols[2], cols[3])
    lam_sq = cols[4] + 1j * cols[5]
    # Y = D R(th2) D^-1 with D = diag(lambda, 1/lambda). For a real lambda^2 = +-d^2 the
    # complex reciprocal is exactly +-1/d^2, so a real Y gets the bits of a stretch by d^2
    Y[:, 0, 1] *= lam_sq
    Y[:, 1, 0] *= 1.0 / lam_sq
    XY = X @ Y
    traces = np.stack([(m[:, 0, 0] + m[:, 1, 1]).real for m in (X, Y, XY)])
    if not (np.abs(traces - cols[6:]) < TRACE_TOLERANCE).all():
        raise AssertionError("realized traces miss the trace triple")
    _check_form(X, real_form)
    _check_form(Y, real_form)
    return X, Y, XY


def _check_relation_inputs(sigma: SeifertInvariant, tol: float) -> None:
    if sigma.b != 0:
        raise ValueError("relation check needs data with b = 0 (product relator xyz = 1)")
    if not 0 < tol < math.inf:
        raise ValueError("tolerance must be finite and positive")


def _certificate(
    X: np.ndarray, Y: np.ndarray, XY: np.ndarray, real_form: ClassLabel,
    sigma: SeifertInvariant, epsilons: Sequence[int], tol: float,
) -> Certificate:
    """The certificate of the stacks, after Z = (XY)^-1 passes its form checks.

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
        residuals.append(frobenius(np.linalg.matrix_power(stack, ai) - center))
    commutator = XY @ sl2_inverse(X) @ sl2_inverse(Y)
    offset = commutator[:, 0, 0] + commutator[:, 1, 1] - 2.0
    # np.hypot is the modulus abs(complex) takes, bit for bit
    gaps = np.hypot(offset.real, offset.imag)
    return Certificate(tuple(names), np.stack(residuals, axis=1), gaps, tol)


def certify_classes(
    triples: Sequence[CharacterTriple],
    sigma: SeifertInvariant,
    real_form: ClassLabel,
    tol: float = RELATION_TOLERANCE,
) -> Certificate:
    """Realize every triple in real_form and check its relations, all on one stack.

    Returns one certificate whose rows follow the triples; a class whose
    relations fail has a row that did not pass. Every other failed check
    raises for the whole stack: NotRealizable when a triple has no pair in
    real_form, AssertionError when a pair misses its traces, ValueError when
    X, Y or Z fails its determinant or real-form check.
    """
    _check_relation_inputs(sigma, tol)
    X, Y, XY = _realize_stack(triples, real_form)
    return _certificate(X, Y, XY, real_form, sigma, [c.epsilon for c in triples], tol)


def realize_su2(c: CharacterTriple) -> tuple[np.ndarray, np.ndarray]:
    """Unitary pair (X, Y): the rotation by th1, and a rotation conjugated by a unit-circle lambda^2."""
    X, Y, _ = _realize_stack([c], ClassLabel.SU2)
    return X[0], Y[0]


def realize_sl2r(c: CharacterTriple) -> tuple[np.ndarray, np.ndarray]:
    """Real pair (X, Y): the rotation by th1, and a rotation conjugated by a real lambda^2 = +-d^2."""
    X, Y, _ = _realize_stack([c], ClassLabel.SL2R)
    return X[0], Y[0]


def verify_relations(
    X: np.ndarray,
    Y: np.ndarray,
    sigma: SeifertInvariant,
    real_form: ClassLabel,
    epsilon: int,
    tol: float = RELATION_TOLERANCE,
) -> Certificate:
    """The one-row certificate of a pair of 2x2 matrices in real_form.

    Raises ValueError unless X and Y are 2x2, have determinant 1 and lie in
    real_form.
    """
    _check_relation_inputs(sigma, tol)
    if epsilon not in (1, -1):
        raise ValueError("epsilon must be +1 or -1")
    pair = np.array([X, Y], dtype=complex)
    if pair.shape != (2, 2, 2):
        raise ValueError("expected a pair of 2x2 matrices")
    _check_form(pair, real_form)
    x, y = pair[:1], pair[1:]
    return _certificate(x, y, x @ y, real_form, sigma, [epsilon], tol)

"""Explicit 2x2 matrix realizations of trace triples and relation checking.

Both constructions solve one scalar equation in closed form. Unitary pairs:
X diagonal, Y a tilted diagonal, and the tilt phi interpolates
tr(XY) = 2(cos th1 cos th2 - sin th1 sin th2 cos phi). Real pairs: X a
rotation, Y a rotation conjugated by diag(d, 1/d), and the stretch d solves
tr(XY) = 2 cos th1 cos th2 - (d^2 + d^-2) sin th1 sin th2.

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


def _first_angles(c: CharacterTriple) -> tuple[float, float, float, float, float]:
    """cos and sin of the rotation angles th1 and th2, and the target trace 2 cos th3."""
    tx, ty, tz = c.tx, c.ty, c.tz
    # n / q rounds exactly as float(Fraction(n, q)) does
    th1, th2 = math.pi * (tx.n / tx.q), math.pi * (ty.n / ty.q)
    s1, s2 = math.sin(th1), math.sin(th2)
    if s1 * s2 < 1e-15:
        raise NotRealizable("degenerate rotation angle, traces are +-2")
    return math.cos(th1), s1, math.cos(th2), s2, 2.0 * math.cos(math.pi * (tz.n / tz.q))


def _su2_solve(c: CharacterTriple) -> tuple:
    """cos and sin of th1, th2 and half the tilt phi, and the target traces."""
    c1, s1, c2, s2, target = _first_angles(c)
    cos_phi = (2.0 * c1 * c2 - target) / (2.0 * s1 * s2)
    if abs(cos_phi) >= 1.0:
        raise NotRealizable(
            f"target trace {target} lies outside the open unitary interval"
        )
    phi = math.acos(cos_phi)
    return c1, s1, c2, s2, math.cos(phi / 2.0), math.sin(phi / 2.0), 2.0 * c1, 2.0 * c2, target


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
    keeps tr Y fixed; only its sine changes sign.
    """
    c1, s1, c2, s2, target = _first_angles(c)
    u = (2.0 * c1 * c2 - target) / (s1 * s2)
    d = stretch_for_product_trace(abs(u))
    return c1, s1, c2, (s2 if u >= 0 else -s2), d * d, 2.0 * c1, 2.0 * c2, target


def _rotations(c: np.ndarray, s: np.ndarray) -> np.ndarray:
    r = np.empty((len(c), 2, 2), dtype=complex)
    r[:, 0, 0] = c
    r[:, 0, 1] = -s
    r[:, 1, 0] = s
    r[:, 1, 1] = c
    return r


def _eigenvalues(c: np.ndarray, s: np.ndarray) -> np.ndarray:
    """diag(c + is, c - is): the eigenvalues exp(+-i th) of the rotation with cos c and sin s."""
    r = np.zeros((len(c), 2, 2), dtype=complex)
    r.real[:, 0, 0] = r.real[:, 1, 1] = c
    r.imag[:, 0, 0] = s
    r.imag[:, 1, 1] = -s
    return r


def _realize_stack(triples: Sequence[CharacterTriple], real_form: ClassLabel) -> tuple:
    """X, Y and XY stacks for the triples, with the traces and X and Y checked."""
    if real_form is ClassLabel.SU2:
        solve, width = _su2_solve, 9
    elif real_form is ClassLabel.SL2R:
        solve, width = _sl2r_solve, 8
    else:
        raise ValueError("real_form must be SU2 or SL2R")
    # width shapes an empty stack too
    cols = np.array([solve(c) for c in triples], dtype=float).reshape(-1, width).T
    if real_form is ClassLabel.SU2:
        X = _eigenvalues(cols[0], cols[1])
        tilt = _rotations(cols[4], cols[5])
        Y = tilt @ _eigenvalues(cols[2], cols[3]) @ tilt.transpose(0, 2, 1)
    else:
        X = _rotations(cols[0], cols[1])
        Y = _rotations(cols[2], cols[3])
        dd = cols[4]
        Y[:, 0, 1] *= dd
        # numpy divides a complex by a real as entry * (1 / dd), which entry / dd can miss by an ulp
        Y[:, 1, 0] *= 1.0 / dd
    XY = X @ Y
    traces = np.stack([(m[:, 0, 0] + m[:, 1, 1]).real for m in (X, Y, XY)])
    if not (np.abs(traces - cols[-3:]) < TRACE_TOLERANCE).all():
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
        residuals.append(frobenius(_power(stack, ai) - center))
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
    epsilons = [c.epsilon for c in triples]
    _check_relation_inputs(sigma, epsilons, tol)
    X, Y, XY = _realize_stack(triples, real_form)
    return _certificate(X, Y, XY, real_form, sigma, epsilons, tol)


def realize_su2(c: CharacterTriple) -> tuple[np.ndarray, np.ndarray]:
    """Unitary pair (X, Y) with tr X, tr Y, tr XY matching the triple."""
    X, Y, _ = _realize_stack([c], ClassLabel.SU2)
    return X[0], Y[0]


def realize_sl2r(c: CharacterTriple) -> tuple[np.ndarray, np.ndarray]:
    """Real pair (X, Y): a rotation and a stretched rotation hitting tr XY."""
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
    _check_relation_inputs(sigma, [epsilon], tol)
    pair = np.array([X, Y], dtype=complex)
    if pair.shape != (2, 2, 2):
        raise ValueError("expected a pair of 2x2 matrices")
    _check_form(pair, real_form)
    x, y = pair[:1], pair[1:]
    return _certificate(x, y, x @ y, real_form, sigma, [epsilon], tol)

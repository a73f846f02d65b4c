"""Explicit 2x2 matrix realizations of trace triples and relation checking.

One construction serves both real forms. X is the rotation R(th1) and Y is
D R(th2) D^-1 with D = diag(lambda, 1/lambda), so with u = lambda^2 + lambda^-2

    tr(XY) = 2 cos th1 cos th2 - u sin th1 sin th2,
    kappa = sin^2 th1 sin^2 th2 (u^2 - 4).

A unitary class (kappa < 0) has |u| < 2, which puts lambda^2 on the unit
circle and the pair in SU(2); a real class (kappa > 0) has |u| > 2, which
puts lambda^2 on the real line and the pair in SL(2,R), with lambda^2 = +-d^2
for the stretch d >= 1 of `stretch_for_product_trace`.

`certify_columns` realizes all classes of one real form on a sphere as
(n, 2, 2) stacks, runs every check once per stack, and returns one
`Certificate`: an (n, 3) array of relation residuals and an (n,) array of
irreducibility gaps. The classes come as integer columns. Each generator
has a table, the list of traces 2cos(pi*r/q) for r in [0, q] that a
TraceMemo generator is, and the classes are (n, 4) integer rows: the keys
of each class in the three tables, then its central sign epsilon. A key
is its entry's position. Each entry's cos is half its trace, and its sin
is math.sin(math.pi * (r / q)), the math call a TraceValue of the entry
would make, so every class reads the bits of its own trace values. The
rest of the solve (u, then h and sqrt(1 - h^2), or the stretch
d) is elementwise numpy in the operation order of the scalar formulas. X is
a rotation fixed by its trace, so it is built, inverted and raised to its
power once per entry of the first table, then gathered by the first index
column.

The SU(2) stacks are complex128 and the SL(2,R) stacks float64. A real
stack's complex product has imaginary parts that are exact zeros, which
add nothing to the real part, to the Frobenius norm or to the modulus of
the commutator offset, so the float64 stacks, multiplied by np.matmul,
keep the bits of the complex ones; tests/test_realize.py checks this at
scale against the complex128 construction. Their failures at tol 1e-9
past a = 1524 depend on those bits, so they stay on np.matmul until the
power relations get an exact form. A complex stack multiplies on its entry
arrays instead, as the sum of two outer products of a column and a row,
since np.matmul makes one BLAS call per complex 2x2 matrix; its residuals
and gaps stay within a stated drift of the np.matmul construction, which
tests/test_realize.py checks. Powers take np.linalg.matrix_power's
products in its order, and every determinant is the 2x2 formula. Each
stacked operation is the one a single class would get, so a stack gives
the same bits as its classes taken one at a time.

`certify_columns` on memo keys is the one stacked entry. `realize_su2` and
`realize_sl2r` realize one CharacterTriple from one entry per generator,
its own trace value, which has the bits of entry n of the table of its
denominator q, so the cost does not grow with q. `verify_relations`, the
one per-pair entry, checks a given pair as a stack of one, after the
determinant and real-form checks on the caller's complex input.
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

_I2 = np.eye(2)


def sl2_inverse(m: np.ndarray) -> np.ndarray:
    """Inverse of a determinant-one matrix, or of each in a stack, by the adjugate; no linear solve."""
    adjugate = (m[..., 1, 1], -m[..., 0, 1], -m[..., 1, 0], m[..., 0, 0])
    return np.stack(adjugate, axis=-1).reshape(m.shape)


def _mul(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """p @ q for stacks of 2x2 matrices: np.matmul for float64, entry arrays for complex."""
    if not np.iscomplexobj(p):
        return p @ q
    return p[..., :, :1] * q[..., :1, :] + p[..., :, 1:] * q[..., 1:, :]


def _power(stack: np.ndarray, n: int) -> np.ndarray:
    """stack^n for n >= 1, by the products np.linalg.matrix_power takes, in its order."""
    if n == 3:
        return _mul(_mul(stack, stack), stack)
    z = result = None
    while n > 0:
        z = stack if z is None else _mul(z, z)
        n, bit = divmod(n, 2)
        if bit:
            result = z if result is None else _mul(result, z)
    return result


def _square_sum(a: np.ndarray) -> np.ndarray:
    # grouped as np.linalg.norm's dot product groups the entries of a 2x2 matrix
    sq = a * a
    return (sq[..., 0, 0] + sq[..., 1, 0]) + (sq[..., 0, 1] + sq[..., 1, 1])


def frobenius(m: np.ndarray) -> np.ndarray:
    """Frobenius norm of a 2x2 matrix, or of each in a stack, bit for bit np.linalg.norm."""
    return np.sqrt(_square_sum(m.real) + _square_sum(m.imag))


def _check_form(stack: np.ndarray, real_form: ClassLabel) -> None:
    """Raise ValueError unless every matrix of the stack has determinant 1 and lies in real_form.

    An SL(2,R) stack is float64, so real by construction; verify_relations
    checks a caller's complex pair for nonreal entries itself.
    """
    unitary = real_form is ClassLabel.SU2
    if unitary:
        gram = _mul(stack, stack.conj().transpose(0, 2, 1))
        form_bad = frobenius(gram - _I2) > FORM_TOLERANCE
    elif real_form is not ClassLabel.SL2R:
        raise ValueError("real_form must be SU2 or SL2R")
    det = stack[:, 0, 0] * stack[:, 1, 1] - stack[:, 0, 1] * stack[:, 1, 0]
    if (np.abs(det - 1.0) > FORM_TOLERANCE).any():
        raise ValueError("determinant must be 1")
    if unitary and form_bad.any():
        raise ValueError("unitary-form matrix is not unitary")


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


def stretch_for_product_trace(u):
    """Solve d^2 + d^-2 = u for the stretch d >= 1, elementwise for an array; u must exceed 2."""
    if not np.all(u > 2.0):
        raise NotRealizable(f"required d^2 + d^-2 = {u} is not above 2")
    return np.sqrt((u + np.sqrt(u * u - 4.0)) / 2.0)


def _table(traces: Sequence[float], keys: Sequence[int], q: int) -> tuple:
    """The cos and sin of each entry traces[j] = 2cos(pi*keys[j]/q) of one generator."""
    # an entry is 2.0 * math.cos(angle), so halving gives the cos exactly, and
    # r / q rounds exactly as float(Fraction(r, q)) does
    sines = np.array([math.sin(math.pi * (r / q)) for r in keys], dtype=float)
    return np.array(traces, dtype=float) / 2.0, sines


def _rotations(c: np.ndarray, s: np.ndarray, dtype) -> np.ndarray:
    return np.stack((c, -s, s, c), axis=-1).reshape(-1, 2, 2).astype(dtype)


def _realize_columns(first: tuple, second: tuple, third: Sequence[float], classes, real_form: ClassLabel) -> tuple:
    """X per entry of the first table, each class's row in it, the Y and XY stacks, and the epsilons.

    first and second are the _table arrays of the first two generators, and
    third the traces of the third; a class names its positions in them. The
    trace of XY, which tests the solve for u, and the forms of X and Y are
    checked. The traces of X and Y are their table entries by construction:
    each diagonal is (c, c), with c half the entry, and doubling c is exact.
    A class with no pair in real_form raises NotRealizable; the first such
    class names the error.
    """
    unitary = real_form is ClassLabel.SU2
    (cos1, sin1), (cos2, sin2) = first, second
    X = _rotations(cos1, sin1, complex if unitary else float)
    _check_form(X, real_form)  # first, so a real_form other than SU2 or SL2R raises first
    classes = np.asarray(classes, dtype=np.intp).reshape(-1, 4)
    # numpy would read a negative key from the table's end, another key's entry
    if (classes[:, :3] < 0).any():
        raise IndexError("a class names a negative memo key")
    at, p2, p3 = classes[:, 0], classes[:, 1], classes[:, 2]
    c2, s2, tz = cos2[p2], sin2[p2], np.array(third, dtype=float)[p3]
    sines = sin1[at] * s2
    degenerate = sines < 1e-15
    u = (2.0 * cos1[at] * c2 - tz) / np.where(degenerate, 1.0, sines)
    unfit = degenerate | (np.abs(u) >= 2.0 if unitary else np.abs(u) <= 2.0)
    if unfit.any():
        k = int(unfit.argmax())
        if degenerate[k]:
            raise NotRealizable("degenerate rotation angle, traces are +-2")
        if unitary:
            raise NotRealizable(
                f"target trace {float(tz[k])} lies outside the open unitary interval"
            )
        stretch_for_product_trace(abs(float(u[k])))  # raises: |u| is not above 2
    if unitary:
        h = u / 2.0
        lam_sq = h + 1j * np.sqrt(1.0 - h * h)
    else:
        d = stretch_for_product_trace(np.abs(u))
        lam_sq = np.copysign(d * d, u)
    Y = _rotations(c2, s2, X.dtype)
    # Y = D R(th2) D^-1 with D = diag(lambda, 1/lambda); a real lambda^2 = +-d^2 stretches by d^2
    Y[:, 0, 1] *= lam_sq
    Y[:, 1, 0] *= 1.0 / lam_sq
    XY = _mul(X[at], Y)
    if not (np.abs((XY[:, 0, 0] + XY[:, 1, 1]).real - tz) < TRACE_TOLERANCE).all():
        raise AssertionError("realized traces miss the trace triple")
    _check_form(Y, real_form)
    return X, at, Y, XY, classes[:, 3]


def _check_relation_inputs(sigma: SeifertInvariant, tol: float) -> None:
    if sigma.b != 0:
        raise ValueError("relation check needs data with b = 0 (product relator xyz = 1)")
    if not 0 < tol < math.inf:
        raise ValueError("tolerance must be finite and positive")


def _certificate(X, at, Y, XY, epsilons, sigma, real_form, tol) -> Certificate:
    """The certificate of the stacks, after Z = (XY)^-1 passes its form checks.

    Class k has the X of row at[k] and the k-th Y, XY and Z. Z is (XY)^-1 by
    construction, which is the product relator for data with b = 0. The
    power relation for generator i reads M^a_i = epsilon^(-b_i) * I; the
    commutator trace distance from 2 must stay above tol for the pair to
    count as irreducible.
    """
    Z = sl2_inverse(XY)
    _check_form(Z, real_form)
    odd_sign = np.asarray(epsilons) == -1
    names = tuple(f"{name}^{ai}" for name, (ai, _) in zip("xyz", sigma.pairs))
    residuals = []
    for stack, rows, (ai, bi) in zip((X, Y, Z), (at, ..., ...), sigma.pairs):
        flip = odd_sign & (bi % 2 == 1)
        power = _power(stack, ai)[rows]
        residuals.append(frobenius(power - np.where(flip[:, None, None], -_I2, _I2)))
    commutator = _mul(_mul(XY, sl2_inverse(X)[at]), sl2_inverse(Y))
    offset = commutator[:, 0, 0] + commutator[:, 1, 1] - 2.0
    # the gap is |offset|, by np.hypot, the modulus abs(complex) takes, bit for bit
    return Certificate(names, np.stack(residuals, axis=1), np.hypot(offset.real, offset.imag), tol)


def certify_columns(tables: Sequence[Sequence[float]], classes, sigma: SeifertInvariant,
                    real_form: ClassLabel, tol: float = RELATION_TOLERANCE) -> Certificate:
    """Realize every class in real_form and check its relations, all on one stack.

    classes is an (n, 4) integer array, or a sequence of such rows: row k
    holds the keys of class k in the three tables, then its central sign
    epsilon. Returns one certificate whose rows follow the classes; a class
    whose relations fail has a row that did not pass. Every other failed
    check raises for the whole stack: NotRealizable when a class has no pair
    in real_form (the first such class names the error), AssertionError
    when a pair's product misses its trace, ValueError when X, Y or Z fails its
    determinant or real-form check, and IndexError when a class names a key
    outside [0, q] of its table.
    """
    _check_relation_inputs(sigma, tol)
    first, second = (_table(traces, range(len(traces)), len(traces) - 1) for traces in tables[:2])
    return _certificate(*_realize_columns(first, second, tables[2], classes, real_form), sigma, real_form, tol)


def _realize_one(c: CharacterTriple, real_form: ClassLabel) -> tuple[np.ndarray, np.ndarray]:
    """The pair of one triple, realized from one entry per generator: its own trace value.

    Entry n of the table of denominator q is TraceValue(n, q).value, so the
    pair has the bits a full table of each denominator would give it.
    """
    first, second = (_table([tv.value], [tv.n], tv.q) for tv in (c.tx, c.ty))
    X, _, Y, *_ = _realize_columns(first, second, [c.tz.value], [(0, 0, 0, c.epsilon)], real_form)
    return X[0], Y[0]


def realize_su2(c: CharacterTriple) -> tuple[np.ndarray, np.ndarray]:
    """Unitary pair (X, Y): the rotation by th1, and a rotation conjugated by a unit-circle lambda^2."""
    return _realize_one(c, ClassLabel.SU2)


def realize_sl2r(c: CharacterTriple) -> tuple[np.ndarray, np.ndarray]:
    """Real float64 pair (X, Y): the rotation by th1, and a rotation conjugated by a real +-d^2."""
    return _realize_one(c, ClassLabel.SL2R)


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
    real_form. Those checks read the pair as complex; an SL(2,R) pair that
    passes is certified as its float64 real part.
    """
    _check_relation_inputs(sigma, tol)
    if epsilon not in (1, -1):
        raise ValueError("epsilon must be +1 or -1")
    pair = np.array([X, Y], dtype=complex)
    if pair.shape != (2, 2, 2):
        raise ValueError("expected a pair of 2x2 matrices")
    _check_form(pair, real_form)
    real = real_form is ClassLabel.SL2R
    if real and np.abs(pair.imag).max() > FORM_TOLERANCE:
        raise ValueError("real-form matrix has nonreal entries")
    x, y = np.split(np.ascontiguousarray(pair.real) if real else pair, 2)
    return _certificate(x, np.zeros(1, dtype=np.intp), y, _mul(x, y), [epsilon], sigma, real_form, tol)

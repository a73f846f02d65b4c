"""Explicit 2x2 matrix realizations of trace triples and relation checking.

One construction serves both real forms. X is the rotation R(th1) and Y is
D R(th2) D^-1 with D = diag(lambda, 1/lambda), so with u = lambda^2 + lambda^-2

    tr(XY) = 2 cos th1 cos th2 - u sin th1 sin th2,
    kappa = sin^2 th1 sin^2 th2 (u^2 - 4).

A unitary class (kappa < 0) has |u| < 2, which puts lambda^2 on the unit
circle and the pair in SU(2); a real class (kappa > 0) has |u| > 2, which
puts lambda^2 on the real line and the pair in SL(2,R), with lambda^2 = +-d^2
for the stretch d >= 1 of `stretch_for_product_trace`.

`certify_columns` realizes all classes of one real form on a sphere as one
stack, runs every check once per stack, and returns one `Certificate`: an
(n, 3) array of relation residuals and an (n,) array of irreducibility
gaps. The classes come as integer columns. Each generator has a table, the
list of traces 2cos(pi*r/q) for r in [0, q] that a TraceMemo generator is,
and the classes are (n, 4) integer rows: the keys of each class in the
three tables, then its central sign epsilon, +1 or -1. A key is its
entry's position. Each entry's cos is half its trace, and its sin is
math.sin(math.pi * (r / q)), the math call a TraceValue of the entry would
make, so every class reads the bits of its own trace values. The rest of
the solve (u, then h and sqrt(1 - h^2), or the stretch d) is elementwise
numpy in the operation order of the scalar formulas. X is a rotation fixed
by its trace, so it is built, inverted and raised to its power once per
entry of the first table, then gathered by the first index column.

An SU(2) stack is four contiguous complex128 entry arrays (m00, m01, m10,
m11). Entry ij of a product is p_i0*q_0j + p_i1*q_1j, the inverse is (m11,
-m01, -m10, m00), a gather indexes each array, and the Frobenius norm
groups (m00^2 + m10^2) + (m01^2 + m11^2), real parts, then imaginary
parts, as np.linalg.norm does. Its residuals and gaps stay within a stated
drift of the complex128 np.matmul construction, which tests/test_realize.py
checks. An SL(2,R) stack is an (n, 2, 2) float64 array, multiplied by
np.matmul and raised to its powers by np.linalg.matrix_power. A real
stack's complex product has imaginary parts that are exact zeros, which add
nothing to the real part, to the Frobenius norm or to the modulus of the
commutator offset, so the float64 stacks keep the bits of the complex
np.matmul construction; tests/test_realize.py checks this at scale. Their
failures at tol 1e-9 past a = 1524 depend on those bits, so they stay on
np.matmul until the power relations get an exact form. SU(2) powers take
np.linalg.matrix_power's products in its order, and every determinant is
the 2x2 formula. Each stacked operation is the one a single class would
get, so a stack gives the same bits as its classes taken one at a time.

`certify_columns` on memo keys is the one stacked entry. `realize_su2` and
`realize_sl2r` realize one CharacterTriple from one entry per generator,
its own trace value, which has the bits of entry n of the table of its
denominator q, so the cost does not grow with q; each returns its pair as
plain 2x2 arrays. `verify_relations`, the one per-pair entry, checks a
given pair as a stack of one, after the determinant and real-form checks
on the caller's complex input.
"""

from __future__ import annotations

import itertools
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


def sl2_inverse(m: np.ndarray) -> np.ndarray:
    """Inverse of a determinant-one matrix, or of each in a stack, by the adjugate; no linear solve."""
    adjugate = (m[..., 1, 1], -m[..., 0, 1], -m[..., 1, 0], m[..., 0, 0])
    return np.stack(adjugate, axis=-1).reshape(m.shape)


def _inverse(m: tuple) -> tuple:
    """The adjugate of each matrix of an SU(2) stack, on its entry arrays."""
    m00, m01, m10, m11 = m
    return m11, -m01, -m10, m00


def _mul(p: tuple, q: tuple) -> tuple:
    """p @ q for SU(2) stacks, on their entry arrays: entry ij is p_i0*q_0j + p_i1*q_1j."""
    (p00, p01, p10, p11), (q00, q01, q10, q11) = p, q
    return p00 * q00 + p01 * q10, p00 * q01 + p01 * q11, p10 * q00 + p11 * q10, p10 * q01 + p11 * q11


def _power(m: tuple, n: int) -> tuple:
    """m^n for n >= 1, by the products np.linalg.matrix_power takes, in its order."""
    if n == 3:
        return _mul(_mul(m, m), m)
    z = result = None
    while n > 0:
        z = m if z is None else _mul(z, z)
        n, bit = divmod(n, 2)
        if bit:
            result = z if result is None else _mul(result, z)
    return result


# the product, power and inverse of each real form's stacks
_ALGEBRA = {
    ClassLabel.SU2: (_mul, _power, _inverse),
    ClassLabel.SL2R: (np.matmul, np.linalg.matrix_power, sl2_inverse),
}


def _entries(m) -> tuple:
    """The entry arrays (m00, m01, m10, m11): an SU(2) stack's own, or views of an array of 2x2 matrices."""
    return m if isinstance(m, tuple) else (m[..., 0, 0], m[..., 0, 1], m[..., 1, 0], m[..., 1, 1])


def _take(m, rows):
    """The given rows of a stack: of each entry array of an SU(2) stack, or of a float64 stack."""
    return tuple(e[rows] for e in m) if isinstance(m, tuple) else m[rows]


def _square_sum(a00, a01, a10, a11):
    # grouped as np.linalg.norm's dot product groups the entries of a 2x2 matrix
    return (a00 * a00 + a10 * a10) + (a01 * a01 + a11 * a11)


def frobenius(m: tuple) -> np.ndarray:
    """Frobenius norm of the 2x2 matrices with entry arrays m = (m00, m01, m10, m11).

    Bit for bit np.linalg.norm of each matrix as complex128: a float64
    matrix's imaginary parts would add 0.0, so they are not squared.
    """
    if not np.iscomplexobj(m[0]):
        return np.sqrt(_square_sum(*m))
    return np.sqrt(_square_sum(*(e.real for e in m)) + _square_sum(*(e.imag for e in m)))


def _check_form(m: tuple, real_form: ClassLabel) -> None:
    """Raise ValueError unless each matrix with entry arrays m has determinant 1 and lies in real_form.

    An SL(2,R) stack is float64, so real by construction; verify_relations
    checks a caller's complex pair for nonreal entries itself.
    """
    m00, m01, m10, m11 = m
    if (np.abs(m00 * m11 - m01 * m10 - 1.0) > FORM_TOLERANCE).any():
        raise ValueError("determinant must be 1")
    if real_form is ClassLabel.SU2:
        # m m^* - I, whose norm is 0 for a unitary m
        g00, g01, g10, g11 = _mul(m, (m00.conj(), m10.conj(), m01.conj(), m11.conj()))
        if (frobenius((g00 - 1.0, g01, g10, g11 - 1.0)) > FORM_TOLERANCE).any():
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


def _realize_columns(first: tuple, second: tuple, third: Sequence[float], classes, real_form: ClassLabel) -> tuple:
    """X per entry of the first table, each class's row in it, the Y and XY stacks, and the epsilons.

    first and second are the _table arrays of the first two generators, and
    third the traces of the third; a class names its positions in them. An
    SU(2) stack is a tuple of four complex128 entry arrays, an SL(2,R) stack
    an (n, 2, 2) float64 array. The trace of XY, which tests the solve for
    u, and the forms of X and Y are checked. The traces of X and Y are their
    table entries by construction: each diagonal is (c, c), with c half the
    entry, and doubling c is exact. A class with no pair in real_form raises
    NotRealizable; the first such class names the error.
    """
    unitary = real_form is ClassLabel.SU2
    (cos1, sin1), (cos2, sin2) = first, second
    if not isinstance(classes, np.ndarray):
        # rows of other lengths could still add up to four entries per class
        if set(map(len, classes)) - {4}:
            raise ValueError("a class row must hold three keys and epsilon")
        classes = np.fromiter(itertools.chain.from_iterable(classes), np.intp, 4 * len(classes))
    classes = np.asarray(classes, dtype=np.intp).reshape(-1, 4)
    # numpy would read a negative key from the table's end, another key's entry
    if (classes[:, :3] < 0).any():
        raise IndexError("a class names a negative memo key")
    epsilons = classes[:, 3]
    bad = (epsilons != 1) & (epsilons != -1)
    if bad.any():
        k = int(bad.argmax())
        raise ValueError(f"epsilon must be +1 or -1: class row {k}, {classes[k].tolist()}")
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
    # X = R(th1), and Y = D R(th2) D^-1 with D = diag(lambda, 1/lambda); a real
    # lambda^2 = +-d^2 stretches by d^2
    X, Y = (
        tuple(e.astype(complex, copy=False) for e in m) if unitary else np.stack(m, axis=-1).reshape(-1, 2, 2)
        for m in ((cos1, -sin1, sin1, cos1), (c2, -s2 * lam_sq, s2 * (1.0 / lam_sq), c2))
    )
    XY = _ALGEBRA[real_form][0](_take(X, at), Y)
    xy00, _, _, xy11 = _entries(XY)
    if not (np.abs((xy00 + xy11).real - tz) < TRACE_TOLERANCE).all():
        raise AssertionError("realized traces miss the trace triple")
    for m in (X, Y):
        _check_form(_entries(m), real_form)
    return X, at, Y, XY, epsilons


def _check_relation_inputs(sigma: SeifertInvariant, real_form: ClassLabel, tol: float) -> None:
    if real_form not in _ALGEBRA:
        raise ValueError("real_form must be SU2 or SL2R")
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
    mul, power, inverse = _ALGEBRA[real_form]
    Z = inverse(XY)
    _check_form(_entries(Z), real_form)
    odd_sign = np.asarray(epsilons) == -1
    names = tuple(f"{name}^{ai}" for name, (ai, _) in zip("xyz", sigma.pairs))
    residuals = []
    for stack, rows, (ai, bi) in zip((X, Y, Z), (at, ..., ...), sigma.pairs):
        m00, m01, m10, m11 = _entries(_take(power(stack, ai), rows))
        center = np.where(odd_sign & (bi % 2 == 1), -1.0, 1.0)
        residuals.append(frobenius((m00 - center, m01, m10, m11 - center)))
    c00, _, _, c11 = _entries(mul(mul(XY, _take(inverse(X), at)), inverse(Y)))
    offset = c00 + c11 - 2.0
    # the gap is |offset|, by np.hypot, the modulus abs(complex) takes, bit for bit
    return Certificate(names, np.stack(residuals, axis=1), np.hypot(offset.real, offset.imag), tol)


def certify_columns(tables: Sequence[Sequence[float]], classes, sigma: SeifertInvariant,
                    real_form: ClassLabel, tol: float = RELATION_TOLERANCE) -> Certificate:
    """Realize every class in real_form and check its relations, all on one stack.

    classes is an (n, 4) integer array, or a sequence of such rows: row k
    holds the keys of class k in the three tables, then its central sign
    epsilon. Returns one certificate whose rows follow the classes; a class
    whose relations fail has a row that did not pass. Every other failed
    check raises for the whole stack: ValueError, before any class is
    realized, when a class's epsilon is not +1 or -1 (the first such row
    names the error); NotRealizable when a class has no pair in real_form
    (the first such class names the error); AssertionError when a pair's
    product misses its trace; ValueError when X, Y or Z fails its
    determinant or real-form check; and IndexError when a class names a key
    outside [0, q] of its table.
    """
    _check_relation_inputs(sigma, real_form, tol)
    first, second = (_table(traces, range(len(traces)), len(traces) - 1) for traces in tables[:2])
    return _certificate(*_realize_columns(first, second, tables[2], classes, real_form), sigma, real_form, tol)


def _realize_one(c: CharacterTriple, real_form: ClassLabel) -> tuple[np.ndarray, np.ndarray]:
    """The pair of one triple, realized from one entry per generator: its own trace value.

    Entry n of the table of denominator q is TraceValue(n, q).value, so the
    pair has the bits a full table of each denominator would give it.
    """
    first, second = (_table([tv.value], [tv.n], tv.q) for tv in (c.tx, c.ty))
    X, _, Y, *_ = _realize_columns(first, second, [c.tz.value], [(0, 0, 0, c.epsilon)], real_form)
    # the one matrix of each stack as a plain 2x2 array
    return tuple(np.reshape([e[0] for e in _entries(m)], (2, 2)) for m in (X, Y))


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
    passes is certified as its float64 real part, an SU(2) pair as the
    entry arrays of its complex stack.
    """
    _check_relation_inputs(sigma, real_form, tol)
    if epsilon not in (1, -1):
        raise ValueError("epsilon must be +1 or -1")
    pair = np.array([X, Y], dtype=complex)
    if pair.shape != (2, 2, 2):
        raise ValueError("expected a pair of 2x2 matrices")
    _check_form(_entries(pair), real_form)
    if real_form is ClassLabel.SL2R:
        if np.abs(pair.imag).max() > FORM_TOLERANCE:
            raise ValueError("real-form matrix has nonreal entries")
        x, y = np.split(np.ascontiguousarray(pair.real), 2)
    else:
        x, y = (_entries(m) for m in np.split(pair, 2))
    xy = _ALGEBRA[real_form][0](x, y)
    return _certificate(x, np.zeros(1, dtype=np.intp), y, xy, [epsilon], sigma, real_form, tol)

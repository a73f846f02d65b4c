"""Trace coordinates of the irreducible representation classes.

Traces of the three cone generators are numbers 2cos(pi*n/q) with integer
n and q, so every fold and comparison here is integer arithmetic on cleared
denominators; floating point only appears as a cross-check discriminant.
A class names its traces by memo key: trace i is 2cos(pi*r_i/a_i), entry
r_i in [0, a_i] of its generator's float table in the sphere's TraceMemo,
which has the bits of TraceValue(r_i, a_i).value.
The module enumerates the unitary classes directly and produces the real
(non-unitary) classes by pulling back rotations through the coverings that
the euler classes select.

Each sphere's lattices are walked once, through one TraceMemo, which
takes the tables of a census's smaller multiplicities from one store of
that command. Both kinds of class are integer rows on that memo:
PulledBackClasses holds the beta = -1 classes as enumerate_X0's
(k, l, m, order) rows and folds each row's memo keys from the cover
order, and UnitaryClasses holds the unitary classes as
(l1, l2, l3, epsilon) rows, which are their memo keys.
TraceMemo.triples makes CharacterTriple views from memo keys, with the
class's one constructor; each caller asks it for the keys it needs. The
command line writes every output from the rows and keys, certifies from
the keys, and builds no EulerClass: a pulled-back row names its class. It
checks the pulled-back rows with hardest_real_row, in one pass over the
keys, and hands classify the one view of the row that pass returns, so a
sphere makes at most one CharacterTriple and one classify call. phi_map
and enumerate_su2 build the views over a fresh memo, phi_map its
EulerClass views from the rows. casson_invariant is the Fintushel-Stern
lambda in integers, which CountReport.of checks the SU(2) count against.

Why the two tables are the whole character set. For data with b = 0, the
irreducible SL(2,C) classes are the admissible rows (r1, r2, r3, epsilon):
0 < r_i < a_i; (-1)**r_i = epsilon**b_i for each i, since
X_i**a_i = (-1)**r_i * I must be rho(h)**(-b_i); and r3*a/a3 on neither
end of the _window of r1*a/a1 and r2*a/a2, so that kappa != 0. A trace
triple with kappa != 0 is the character of an irreducible pair (Fricke;
Culler-Shalen 1983), and the sign of kappa is the SU(2)/SL(2,R) split. The
b_i are never all even, so the r_i fix epsilon, and distinct rows are
distinct classes. UnitaryClasses lists admissible rows inside the window
by construction, and hardest_real_row checks every pulled-back row to be
admissible and outside it, so the tables are disjoint; the pulled-back
keys are checked distinct, and CountReport.of checks that the two tables
hold (a1-1)(a2-1)(a3-1)/4 rows. That is the number of admissible rows,
the SL(2,C) count of Boden-Curtis 2006, which the tests also reach by
brute force. So the tables are the whole set, not only a set of its size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from operator import itemgetter

from .errors import (
    CountMismatch,
    DegenerateAngle,
    InconsistentClassification,
    InjectivityViolation,
)
from .euler import (
    EulerClass,
    enumerate_E,
    enumerate_X0,
)
from .seifert import (
    BrieskornParams,
    SeifertInvariant,
    h1_order,
    solve_seifert,
)

# |kappa| below this is treated as "indistinguishable from reducible" and
# any irreducible label must clear it with the right sign
KAPPA_TOLERANCE = 1e-9

# a trace 2cos(pi*n/q) as text, from its reduced angle n/q: str(TraceValue)
# and the writers print it with this one format
_TRACE_TEXT = "2cos(%dπ/%d)"


@dataclass(frozen=True, init=False)
class TraceValue:
    """The number 2cos(pi*n/q), stored as the reduced pair 0 <= n <= q.

    Folding (-1)**k * 2cos(pi*s) into this shape makes equality of trace
    values literal equality of the stored integers. The float value is
    evaluated once, when the value is built, and takes no part in equality
    or hashing.
    """

    n: int
    q: int
    value: float = field(compare=False, repr=False)

    def __init__(self, n: int, q: int) -> None:
        """2cos(pi*n/q) for integers n and q >= 1, folded into [0, 1] by evenness and period 2."""
        if q < 1:
            raise ValueError(f"denominator must be at least 1, got {q}")
        n %= 2 * q
        if n > q:
            n = 2 * q - n
        g = math.gcd(n, q)
        n, q = n // g, q // g
        # n / q is the correctly rounded float(Fraction(n, q))
        object.__setattr__(
            self, "__dict__", {"n": n, "q": q, "value": 2.0 * math.cos(math.pi * (n / q))}
        )

    def __str__(self) -> str:
        return _TRACE_TEXT % (self.n, self.q)


class ClassLabel(Enum):
    REDUCIBLE = "Reducible"
    SU2 = "SU2"
    SL2R = "SL2R"


@dataclass(frozen=True, init=False)
class CharacterTriple:
    """Generator traces (tr X, tr Y, tr Z) plus the central sign rho(h) = epsilon*I."""

    tx: TraceValue
    ty: TraceValue
    tz: TraceValue
    epsilon: int

    def __init__(self, tx: TraceValue, ty: TraceValue, tz: TraceValue, epsilon: int) -> None:
        if epsilon not in (1, -1):
            raise ValueError("epsilon must be +1 or -1")
        # the four fields as one dict, as TraceValue does: the frozen dataclass
        # __init__ would set them one by one, at about 1.7 times the cost
        object.__setattr__(self, "__dict__", {"tx": tx, "ty": ty, "tz": tz, "epsilon": epsilon})

    @property
    def values(self) -> tuple[float, float, float]:
        return (self.tx.value, self.ty.value, self.tz.value)

    def __str__(self) -> str:
        return "eps %+d (%s, %s, %s)" % (self.epsilon, self.tx, self.ty, self.tz)

    @property
    def key(self) -> tuple[int, int, int, int, int, int]:
        """Identity of the class: the trace triple alone, as its reduced integer pairs."""
        return (self.tx.n, self.tx.q, self.ty.n, self.ty.q, self.tz.n, self.tz.q)


@dataclass(frozen=True)
class CountReport:
    """Class counts and the Casson-type invariants derived from them.

    Two identities are checked here: total = su2 + sl2r, and su2 is even. The
    Casson fields are derived, |casson| = su2/2 and the SL(2,C) Casson count
    = total, so sl2c - 2|casson| = sl2r holds by construction. CountReport.of
    also ties su2 to the Casson invariant itself: su2 = 2|lambda|, with
    lambda from casson_invariant, so |casson| is |lambda|.
    """

    total: int
    su2: int
    sl2r: int
    casson_abs: int = field(init=False)
    casson_sl2c: int = field(init=False)

    def __post_init__(self) -> None:
        if self.total != self.su2 + self.sl2r:
            raise CountMismatch(
                f"total {self.total} != su2 {self.su2} + sl2r {self.sl2r}"
            )
        if self.su2 % 2:
            raise CountMismatch(f"su2 count {self.su2} is not twice |casson|")
        object.__setattr__(self, "casson_abs", self.su2 // 2)
        object.__setattr__(self, "casson_sl2c", self.total)

    @classmethod
    def of(cls, params: BrieskornParams, su2: int, sl2r: int) -> "CountReport":
        """Counts of enumerated classes, checked against (a1-1)(a2-1)(a3-1)/4 and su2 = 2|lambda|."""
        report = cls(total=_total_count(params), su2=su2, sl2r=sl2r)
        twice = 2 * abs(casson_invariant(params))
        if su2 != twice:
            raise CountMismatch(f"su2 count {su2} on {params.triple} is not 2|casson| = {twice}")
        return report


def _total_count(params: BrieskornParams) -> int:
    a1, a2, a3 = params.triple
    product = (a1 - 1) * (a2 - 1) * (a3 - 1)
    assert product % 4 == 0  # a2, a3 odd
    return product // 4


def _dedekind_sum(h: int, k: int) -> tuple[int, int]:
    """The Dedekind sum s(h, k), for coprime h and k >= 1, as a (numerator, denominator) pair.

    s(h, k) = s(h mod k, k), and reciprocity (Rademacher-Grosswald 1972),
    s(h, k) + s(k, h) = (h^2 + k^2 + 1)/(12hk) - 1/4, runs Euclid's
    algorithm down to s(0, 1) = 0: an alternating sum of one term per step.
    """
    num, den, sign = 0, 1, 1
    h %= k
    while h:
        term, size = h * h + k * k + 1 - 3 * h * k, 12 * h * k
        num, den = num * size + sign * term * den, den * size
        g = math.gcd(num, den)
        num, den = num // g, den // g
        h, k, sign = k % h, h, -sign
    return num, den


def casson_invariant(params: BrieskornParams) -> int:
    """The Casson invariant lambda(Sigma(a1, a2, a3)), in integers only.

    Fintushel-Stern 1990: 8*lambda = 1 - N/(3a) + 4*sum_i s(a/a_i, a_i),
    with N = 1 - a^2 + sum_{i<j} (a_i*a_j)^2 and s the Dedekind sum. The sign
    is the one that gives Sigma(2, 3, 5) +1; Casson's own gives -1. This
    reads only the multiplicities, never the classes, so it checks the
    enumerated counts independently. A lambda that is not an integer raises
    CountMismatch.
    """
    a1, a2, a3 = params.triple
    a = params.a
    # 1 - N/(3a) over the denominator 3a
    num, den = 3 * a - 1 + a * a - (a1 * a2) ** 2 - (a1 * a3) ** 2 - (a2 * a3) ** 2, 3 * a
    for ai in params.triple:
        n, d = _dedekind_sum(a // ai, ai)
        num, den = num * d + 4 * n * den, den * d
    lam, rest = divmod(num, 8 * den)
    if rest:
        raise CountMismatch(f"casson invariant of {params.triple} is not an integer")
    return lam


def _check_sphere_data(params: BrieskornParams, sigma: SeifertInvariant) -> None:
    if sigma.multiplicities != params.triple:
        raise ValueError("sigma multiplicities disagree with params")
    if h1_order(sigma) != 1:
        raise ValueError("sigma must describe a homology sphere (h1 order 1)")


def trace_triple_of(eu: EulerClass, sigma: SeifertInvariant) -> CharacterTriple:
    """Trace triple of the class attached to eu, computed from the covering order.

    Building a fresh TraceMemo of eu's sphere checks that sigma describes
    it. The covering space eu selects has first homology of order a*|e|; the
    central generator goes to a lift of rotation by that order times pi, so
    epsilon is -1 exactly when the order is odd. Trace i is
    TraceValue(-order * b_i, a_i), made from its memo key, the fold of
    TraceMemo._keys_for_order.

    Each trace lies strictly inside (-2, 2) and sits on the angle beta_i/a_i
    or its mirror 1 - beta_i/a_i. EulerClass guarantees 0 < beta_i < a_i.
    Modulo a_i, the cover order is +-beta_i*a/a_i, hence at least 1, and
    b_i*a/a_i is +-1 because the memo checked h1 order 1; so -order*b_i is
    +-beta_i modulo a_i, never 0.
    """
    memo = TraceMemo(eu.params, sigma)
    return memo.triples(memo._keys_for_order([abs(eu.cover_euler_number())]))[0]


def trace_table(q: int) -> list[float]:
    """The traces 2cos(pi*r/q) of one generator, entry r for each key r in [0, q].

    Entry r has the bits of TraceValue(r, q).value: r/q and the reduced n/q'
    of that value are one rational, which the division rounds correctly, so
    the cos reads the same float.
    """
    return [2.0 * math.cos(math.pi * (r / q)) for r in range(q + 1)]


class TraceMemo:
    """One sphere's trace tables: per generator, every trace evaluated once, by this memo or its store.

    Building the memo checks the sphere data once; the triples it makes skip
    that check. A table depends on a_i alone, so the memos of one command
    may share a store, a dict from a_i to trace_table(a_i) that the caller
    passes as tables: a memo takes each table the store holds and builds
    the others, which live as long as the memo. The memo only reads the
    store: it adds no table and changes none, and no cache outlives the
    caller.
    """

    def __init__(self, params: BrieskornParams, sigma: SeifertInvariant, tables: dict | None = None) -> None:
        _check_sphere_data(params, sigma)
        self.params = params
        self.sigma = sigma
        tables = tables or {}  # a table is never empty, so .get finds a stored one
        self.generators = tuple(tables.get(ai) or trace_table(ai) for ai in params.triple)
        # a_i, the b_i negated and the 2a_i, unpacked at once per fold
        self._fold = (*params.triple, *(-bi for bi in sigma.coefficients), *(2 * ai for ai in params.triple))

    def _keys_for_order(self, orders) -> list[tuple[int, int, int, int]]:
        """The three memo keys and epsilon of each class whose cover has homology of one of these orders.

        Each -order*b_i is reduced mod 2a_i to r, and r is mirrored into
        [0, a_i] as a_i - |a_i - r|, which is the memo's key for
        TraceValue(-order*b_i, a_i); epsilon is -1 exactly when the order is
        odd. This is the one trace fold.
        """
        a1, a2, a3, n1, n2, n3, m1, m2, m3 = self._fold
        return [
            (a1 - abs(a1 - o * n1 % m1), a2 - abs(a2 - o * n2 % m2), a3 - abs(a3 - o * n3 % m3),
             1 - o % 2 * 2) for o in orders
        ]

    def triples(self, keys) -> list[CharacterTriple]:
        """The CharacterTriple view of each (r1, r2, r3, epsilon) row of memo keys.

        This is the one maker of CharacterTriple views from memo keys. Each
        key the rows name gets one TraceValue(r_i, a_i), made where a row
        first names it, which the views of this call share; the tables hold
        only floats. So one row, the view classify reads, costs three
        TraceValues and no set or dict comprehension.
        """
        a1, a2, a3 = self.params.triple
        v1, v2, v3 = {}, {}, {}  # a TraceValue is never falsy, so .get finds a made one
        return [
            CharacterTriple(v1.get(r1) or v1.setdefault(r1, TraceValue(r1, a1)),
                            v2.get(r2) or v2.setdefault(r2, TraceValue(r2, a2)),
                            v3.get(r3) or v3.setdefault(r3, TraceValue(r3, a3)), eps)
            for r1, r2, r3, eps in keys
        ]


def _window(big1: int, big2: int, whole: int) -> tuple[int, int]:
    """The open interval (|N1 - N2|, min(N1 + N2, 2*whole - N1 - N2)) of the angles N_i/whole.

    Its ends are the folded difference and sum of the two angles. A third
    angle N3/whole makes a unitary triple with them exactly when
    lower < N3 < upper, and a reducible one when N3 is an end.
    """
    return abs(big1 - big2), min(big1 + big2, 2 * whole - big1 - big2)


def _kappa(t1: float, t2: float, t3: float) -> float:
    """t1^2 + t2^2 + t3^2 - t1*t2*t3 - 4; the table passes write it inline, in this order."""
    return t1 * t1 + t2 * t2 + t3 * t3 - t1 * t2 * t3 - 4.0


def kappa(c: CharacterTriple) -> float:
    """Floating discriminant t1^2 + t2^2 + t3^2 - t1*t2*t3 - 4 of the triple.

    Negative inside the unitary region, zero on the reducible walls, positive
    outside; used only to corroborate the exact tests.
    """
    return _kappa(c.tx.value, c.ty.value, c.tz.value)


def classify(c: CharacterTriple) -> ClassLabel:
    """Split a triple into Reducible / SU2 / SL2R by exact integer tests.

    A triple of elliptic angles is unitary exactly when the third angle lies
    strictly inside the interval the first two can span,
    |t1 - t2| < t3 < min(t1 + t2, 2 - t1 - t2), compared here over the common
    denominator. The float discriminant must agree in sign, otherwise the
    data is inconsistent and we refuse to label.
    """
    tx, ty, tz = c.tx, c.ty, c.tz
    # a canonical pair has 0 <= n <= q, so this excludes the traces +-2
    if not (0 < tx.n < tx.q and 0 < ty.n < ty.q and 0 < tz.n < tz.q):
        raise DegenerateAngle("classification needs all traces strictly inside (-2, 2)")
    lcm = math.lcm(tx.q, ty.q, tz.q)
    lower, upper = _window(tx.n * (lcm // tx.q), ty.n * (lcm // ty.q), lcm)
    big3 = tz.n * (lcm // tz.q)
    if big3 == lower or big3 == upper:
        return ClassLabel.REDUCIBLE
    k = _kappa(tx.value, ty.value, tz.value)
    if lower < big3 < upper:
        if not k < -KAPPA_TOLERANCE:
            raise InconsistentClassification(f"unitary triple with kappa = {k}")
        return ClassLabel.SU2
    if not k > KAPPA_TOLERANCE:
        raise InconsistentClassification(f"real-form triple with kappa = {k}")
    return ClassLabel.SL2R


def hardest_real_row(memo: TraceMemo, keys) -> int:
    """Check every (r1, r2, r3, epsilon) row of memo keys as a real class, in one pass.

    Each row gets classify's three tests: every 0 < r_i < a_i; the angle
    r3/a3 strictly outside the _window of r1/a1 and r2/a2, compared over the
    common denominator a as big_i = r_i*(a/a_i), so the row is neither
    unitary nor on a reducible wall; and the float cross check
    kappa > KAPPA_TOLERANCE, on the memo's table floats, which have the bits
    of the TraceValues classify reads. The window and _kappa are written out
    inline, kappa in _kappa's operation order, so its bits are _kappa's.
    Each row also gets
    the parity test classify does not make: (-1)**r_i = epsilon**b_i for
    each i, with the b_i of memo.sigma, since X_i**a_i = (-1)**r_i * I must
    be rho(h)**(-b_i). In integers: the parities r_i & 1, packed into three
    bits, must be 0 for epsilon = +1 and the packed b_i & 1 for
    epsilon = -1. The test reads only the keys, the a_i, the b_i and the
    memo, never the cover order that made the keys.

    Returns the index of the row classify should read: the first row that
    fails or, if every row passes, the row of least kappa, the one nearest a
    reducible wall. classify cannot refuse a row that fails the parity test
    alone, nor one whose table floats alone fail the kappa test, so the
    caller tests the row it gets back again. keys must not be empty.
    """
    a1, a2, a3 = memo.params.triple
    a = memo.params.a
    f1, f2, f3 = a // a1, a // a2, a // a3
    two_a = 2 * a
    traces1, traces2, traces3 = memo.generators
    tol = KAPPA_TOLERANCE
    b1, b2, b3 = memo.sigma.coefficients
    # the packed parities a row must have, indexed by epsilon: [1] for +1, [-1] for -1
    parities = (None, 0, b1 & 1 | (b2 & 1) << 1 | (b3 & 1) << 2)
    least, hardest = math.inf, 0
    index = 0
    for r1, r2, r3, eps in keys:
        if not (0 < r1 < a1 and 0 < r2 < a2 and 0 < r3 < a3) or (
            r1 & 1 | (r2 & 1) << 1 | (r3 & 1) << 2 != parities[eps]
        ):
            return index
        big1, big2, big3 = r1 * f1, r2 * f2, r3 * f3
        t1, t2, t3 = traces1[r1], traces2[r2], traces3[r3]
        k = t1 * t1 + t2 * t2 + t3 * t3 - t1 * t2 * t3 - 4.0
        # inside the closed window, or a kappa that does not confirm a real class
        if abs(big1 - big2) <= big3 <= big1 + big2 and big3 <= two_a - big1 - big2 or not k > tol:
            return index
        if k < least:
            least, hardest = k, index
        index += 1
    return hardest


class PulledBackClasses:
    """The beta = -1 classes of one sphere, as (k, l, m, order) rows on one TraceMemo.

    .rows is enumerate_X0's list as it comes, one row per X0 lattice
    point: the class (-1; k, l, m) and order = a - k*c1 - l*c2 - m*c3
    (c_i = a/a_i), the homology order of the cover the class selects, which
    the scan reads off its own comparison. The fold that
    trace_triple_of describes gives each row its memo keys and epsilon,
    kept in .keys as (r1, r2, r3, epsilon): the writers and certification
    read them. The triples are checked pairwise distinct here, on their
    keys: distinct keys of one generator are distinct trace values. The
    table builds no CharacterTriple; memo.triples(keys) makes the views a
    caller needs, and a row names its class (-1; k, l, m) itself.
    """

    def __init__(self, memo: TraceMemo) -> None:
        self.memo = memo
        params = memo.params
        self.rows = enumerate_X0(params)
        self.keys = memo._keys_for_order(map(itemgetter(3), self.rows))
        if len({key[:3] for key in self.keys}) != len(self.keys):
            raise InjectivityViolation(
                f"distinct euler classes of {params.triple} share a trace triple"
            )


class UnitaryClasses:
    """The irreducible unitary classes of one sphere, as (l1, l2, l3, epsilon) rows.

    For central sign epsilon, generator i is a rotation by pi*l_i/a_i whose
    a_i-th power must be epsilon**(-b_i) * I, forcing l_i even when epsilon
    is +1 and l_i = b_i mod 2 when epsilon is -1. A triple is unitary
    exactly when l3*a/a3 lies strictly inside the _window of l1*a/a1 and
    l2*a/a2 over the common denominator a, the test classify makes. So each
    (l1, l2) lists its l3 as one range: from the first l3 above the lower end,
    moved onto the parity, up to the last l3 below the upper end. The upper
    end is at most a, so l3 stays below a3. Each row must also pass
    classify's float cross-check, kappa < -KAPPA_TOLERANCE, on the memo's
    table floats, in the loop that makes it: kappa in _kappa's operation
    order, so with its bits, with t1*t1 + t2*t2 and t1*t2 once per (l1, l2).
    The first row that fails, in the order the loop makes them (epsilon -1
    first), raises. The rows are then sorted into rotation-number order,
    and .keys is the same list: a row holds its class's memo keys and
    epsilon, so memo.triples(keys) makes its CharacterTriple views.

    The keys are distinct by construction: distinct 0 < l_i < a_i fold to
    distinct reduced pairs, and since sum b_i*a/a_i = +-1 the b_i are never
    all even, so no tuple survives under both signs. The count is not
    checked here: CountReport.of and enumerate_su2 check it. The memo is the
    sphere's one TraceMemo, which PulledBackClasses may share.
    """

    def __init__(self, memo: TraceMemo) -> None:
        self.memo = memo
        params, sigma = memo.params, memo.sigma
        if sigma.b != 0:
            raise ValueError("unitary enumeration needs data with b = 0 (product relator xyz = 1)")
        a1, a2, a3 = params.triple
        a = params.a
        f1, f2, f3 = a // a1, a // a2, a // a3
        traces1, traces2, traces3 = memo.generators
        tol = -KAPPA_TOLERANCE
        rows: list[tuple[int, int, int, int]] = []
        for eps in (-1, 1):
            s1, s2, s3 = (2 if (eps == 1 or bi % 2 == 0) else 1 for bi in sigma.coefficients)
            for l1 in range(s1, a1, 2):
                big1, t1 = l1 * f1, traces1[l1]
                for l2 in range(s2, a2, 2):
                    t2 = traces2[l2]
                    lower, upper = _window(big1, l2 * f2, a)
                    # the first l3 of the parity of s3 with l3*f3 > lower
                    first = lower // f3 + 1
                    first += (first - s3) % 2
                    # kappa in _kappa's operation order, with t1*t1 + t2*t2 and t1*t2 once per pair
                    square, product = t1 * t1 + t2 * t2, t1 * t2
                    for l3 in range(first, (upper - 1) // f3 + 1, 2):
                        t3 = traces3[l3]
                        k = square + t3 * t3 - product * t3 - 4.0
                        if not k < tol:
                            raise InconsistentClassification(f"unitary triple with kappa = {k}")
                        rows.append((l1, l2, l3, eps))
        rows.sort()
        # each row is its class's memo keys and epsilon, the columns certification reads
        self.rows = self.keys = rows


def enumerate_su2(params: BrieskornParams, sigma: SeifertInvariant) -> list[CharacterTriple]:
    """Trace triples of all irreducible unitary classes, in rotation-number order.

    The memo's views of the keys of UnitaryClasses over a fresh TraceMemo,
    whose count must match the closed form (a1-1)(a2-1)(a3-1)/4 - |X0| from
    a fresh X0 scan.
    """
    memo = TraceMemo(params, sigma)
    triples = memo.triples(UnitaryClasses(memo).keys)
    expected = _total_count(params) - len(enumerate_X0(params))
    if len(triples) != expected:
        raise CountMismatch(
            f"found {len(triples)} unitary classes on {params.triple}, expected {expected}"
        )
    return triples


def count_report(params: BrieskornParams) -> CountReport:
    """Class counts for the canonical Seifert data, with identities enforced."""
    su2 = len(enumerate_su2(params, solve_seifert(params)))
    return CountReport.of(params, su2=su2, sl2r=len(enumerate_E(params)))


def phi_map(
    params: BrieskornParams, sigma: SeifertInvariant
) -> list[tuple[EulerClass, CharacterTriple]]:
    """The class-to-triple map on the beta = -1 classes, with injectivity asserted.

    The rows of PulledBackClasses over a fresh TraceMemo, in enumerate_E's
    order, each as an EulerClass view paired with the memo's
    CharacterTriple view of its keys: a class (-1; k, l, m) selects a cover
    of order a - S, with S its cleared sum, and trace_triple_of says how
    the triple follows from that order. The CLI reads the table itself.
    """
    memo = TraceMemo(params, sigma)
    table = PulledBackClasses(memo)
    classes = [EulerClass(params, -1, k, l, m) for k, l, m, _ in table.rows]
    return list(zip(classes, memo.triples(table.keys)))


def reversed_trace_check(
    eu: EulerClass,
    partner: EulerClass,
    triple: CharacterTriple,
    sigma: SeifertInvariant,
) -> bool:
    """Check the trace triple phi_map gave eu through the orientation-reversed covering.

    partner is reverse_orientation(eu). The reversed covering must have the
    negated euler number, hence the same homology order, and the reversed
    class must give the same trace triple, central sign included. The
    partner's triple comes from trace_triple_of, through a fresh TraceMemo,
    each trace as TraceValue(-order * b_i, a_i) from the partner's own cover
    order.

    For a true partner both hold by construction: its cover euler number is
    -(-2a + 3a - S) = -(a - S) for S = a*sum beta_i/a_i, and a triple reads
    only the cover order and the b_i, with beta_i entering through the set
    (beta_i, a_i - beta_i), which the reversal maps to itself. So
    cli.build_record does not run this check.
    """
    if partner.cover_euler_number() != -eu.cover_euler_number():
        return False
    return trace_triple_of(partner, sigma) == triple

"""Trace coordinates of the irreducible representation classes.

Traces of the three cone generators are numbers 2cos(pi*n/q) with integer
n and q, so every fold and comparison here is integer arithmetic on cleared
denominators; floating point only appears as a cross-check discriminant.
A class names its traces by memo key: trace i is the TraceValue(r_i, a_i)
held under key r_i in [0, a_i] of its generator's table in the sphere's
TraceMemo.
The module enumerates the unitary classes directly and produces the real
(non-unitary) classes by pulling back rotations through the coverings that
the euler classes select.

Each sphere's lattices are walked once, through one TraceMemo. Both kinds
of class are integer rows on that memo: PulledBackClasses holds the
beta = -1 classes as (k, l, m, order) rows and folds each row's memo keys
from the cover order, and UnitaryClasses holds the unitary classes as
(l1, l2, l3, epsilon) rows, which are their memo keys. Either table's
CharacterTriple views come from its keys through TraceMemo._triples. The
command line writes every output from the rows and keys and certifies from
the keys; an EulerClass view is built only to name a class that fails.
phi_map and enumerate_su2 build the views over a fresh memo.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

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
        return f"2cos({self.n}π/{self.q})"


class ClassLabel(Enum):
    REDUCIBLE = "Reducible"
    SU2 = "SU2"
    SL2R = "SL2R"


# read once here, not through the enum's descriptors on every classify
_REDUCIBLE, _SU2, _SL2R = ClassLabel.REDUCIBLE, ClassLabel.SU2, ClassLabel.SL2R


@dataclass(frozen=True)
class CharacterTriple:
    """Generator traces (tr X, tr Y, tr Z) plus the central sign rho(h) = epsilon*I."""

    tx: TraceValue
    ty: TraceValue
    tz: TraceValue
    epsilon: int

    def __post_init__(self) -> None:
        if self.epsilon not in (1, -1):
            raise ValueError("epsilon must be +1 or -1")

    @classmethod
    def _signed(
        cls, tx: TraceValue, ty: TraceValue, tz: TraceValue, epsilon: int
    ) -> "CharacterTriple":
        """A triple from this module's makers, whose epsilon is -1 or +1 by construction.

        No sign check: the makers take epsilon from the parity of the cover order or from (-1, 1).
        """
        triple = object.__new__(cls)
        object.__setattr__(triple, "__dict__", {"tx": tx, "ty": ty, "tz": tz, "epsilon": epsilon})
        return triple

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

    Two identities are checked: total = su2 + sl2r, and su2 is even. The
    Casson fields are derived, |casson| = su2/2 and the SL(2,C) Casson count
    = total, so sl2c - 2|casson| = sl2r holds by construction.
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
        """Counts of enumerated classes against the closed-form total (a1-1)(a2-1)(a3-1)/4."""
        return cls(total=_total_count(params), su2=su2, sl2r=sl2r)


def _total_count(params: BrieskornParams) -> int:
    a1, a2, a3 = params.triple
    product = (a1 - 1) * (a2 - 1) * (a3 - 1)
    assert product % 4 == 0  # a2, a3 odd
    return product // 4


def _check_sphere_data(params: BrieskornParams, sigma: SeifertInvariant) -> None:
    if sigma.multiplicities != params.triple:
        raise ValueError("sigma multiplicities disagree with params")
    if h1_order(sigma) != 1:
        raise ValueError("sigma must describe a homology sphere (h1 order 1)")


def trace_triple_of(eu: EulerClass, sigma: SeifertInvariant) -> CharacterTriple:
    """Trace triple of the class attached to eu, through a fresh TraceMemo of its sphere.

    Building the memo checks that sigma describes eu's sphere; TraceMemo.triple_of
    says how the triple follows from the covering order.
    """
    return TraceMemo(eu.params, sigma).triple_of(eu)


class _GeneratorTraces(dict):
    """Folded traces 2cos(pi*r/q) of one generator, keyed by r in [0, q], filled on first lookup.

    Every angle n/q folds onto one such r, so the memo never holds more than
    q + 1 entries.
    """

    def __init__(self, q: int) -> None:
        super().__init__()
        self.q = q

    def __missing__(self, r: int) -> TraceValue:
        tv = self[r] = TraceValue(r, self.q)
        return tv


class TraceMemo:
    """One sphere's trace values, each folded and evaluated once per generator.

    Building the memo checks the sphere data once; the triples it makes skip
    that check.
    """

    def __init__(self, params: BrieskornParams, sigma: SeifertInvariant) -> None:
        _check_sphere_data(params, sigma)
        self.params = params
        self.sigma = sigma
        self.generators = tuple(_GeneratorTraces(ai) for ai in params.triple)
        # a_i and b_i, unpacked at once per class
        self._fold = (*params.triple, *sigma.coefficients)

    def triple_of(self, eu: EulerClass) -> CharacterTriple:
        """Trace triple of the class attached to eu, computed from the covering order.

        The covering space eu selects has first homology of order a*|e|; the
        central generator goes to a lift of rotation by that order times pi, so
        epsilon is -1 exactly when the order is odd. Trace i is
        TraceValue(-order * b_i, a_i), looked up in the memo.

        Each trace lies strictly inside (-2, 2) and sits on the angle beta_i/a_i
        or its mirror 1 - beta_i/a_i. EulerClass guarantees 0 < beta_i < a_i.
        Modulo a_i, the cover order is +-beta_i*a/a_i, hence at least 1, and
        b_i*a/a_i is +-1 because the memo checked h1 order 1; so -order*b_i is
        +-beta_i modulo a_i, never 0.
        """
        if eu.params is not self.params and eu.params != self.params:
            raise ValueError("euler class belongs to another sphere")
        return self._triples([self._keys_for_order(abs(eu.cover_euler_number()))])[0]

    def _keys_for_order(self, order):
        """The three memo keys and epsilon of a class whose cover has homology of this order.

        Each -order*b_i is reduced mod 2a_i to r, and r is mirrored into
        [0, a_i] as a_i - |a_i - r|, which is the memo's key for
        TraceValue(-order*b_i, a_i); epsilon is -1 exactly when the order is
        odd. This is the one trace fold.
        """
        a1, a2, a3, b1, b2, b3 = self._fold
        r1, r2, r3 = -order * b1 % (2 * a1), -order * b2 % (2 * a2), -order * b3 % (2 * a3)
        return a1 - abs(a1 - r1), a2 - abs(a2 - r2), a3 - abs(a3 - r3), 1 - order % 2 * 2

    def _triples(self, keys) -> list[CharacterTriple]:
        """The CharacterTriple view of each (r1, r2, r3, epsilon) row of memo keys."""
        traces1, traces2, traces3 = self.generators
        make = CharacterTriple._signed
        return [make(traces1[r1], traces2[r2], traces3[r3], eps) for r1, r2, r3, eps in keys]


def _window(big1: int, big2: int, whole: int) -> tuple[int, int]:
    """The open interval (|N1 - N2|, min(N1 + N2, 2*whole - N1 - N2)) of the angles N_i/whole.

    Its ends are the folded difference and sum of the two angles. A third
    angle N3/whole makes a unitary triple with them exactly when
    lower < N3 < upper, and a reducible one when N3 is an end.
    """
    return abs(big1 - big2), min(big1 + big2, 2 * whole - big1 - big2)


def _kappa(t1: float, t2: float, t3: float) -> float:
    """t1^2 + t2^2 + t3^2 - t1*t2*t3 - 4, the one place the discriminant is written."""
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
        return _REDUCIBLE
    k = _kappa(tx.value, ty.value, tz.value)
    if lower < big3 < upper:
        if not k < -KAPPA_TOLERANCE:
            raise InconsistentClassification(f"unitary triple with kappa = {k}")
        return _SU2
    if not k > KAPPA_TOLERANCE:
        raise InconsistentClassification(f"real-form triple with kappa = {k}")
    return _SL2R


class PulledBackClasses:
    """The beta = -1 classes of one sphere, as (k, l, m, order) rows on one TraceMemo.

    There is one row per X0 lattice point, in enumerate_X0's order: the
    class (-1; k, l, m) and order = a - k*c1 - l*c2 - m*c3 (c_i = a/a_i),
    the homology order of the cover the class selects. The fold that
    TraceMemo.triple_of describes gives each row its memo keys and epsilon,
    kept in .keys as (r1, r2, r3, epsilon): the writers and certification
    read them. The triples are checked pairwise distinct here, on their
    keys: distinct keys of one generator are distinct trace values. The
    CharacterTriple views of .triples and the EulerClass views of .classes
    are built on first read.
    """

    def __init__(self, memo: TraceMemo) -> None:
        self.memo = memo
        params = memo.params
        a1, a2, a3 = params.triple
        a = params.a
        c1, c2, c3 = a2 * a3, a1 * a3, a1 * a2
        self.rows = rows = [
            (k, l, m, a - k * c1 - l * c2 - m * c3) for k, l, m in enumerate_X0(params)
        ]
        self.keys = [memo._keys_for_order(row[3]) for row in rows]
        if len({key[:3] for key in self.keys}) != len(self.keys):
            raise InjectivityViolation(
                f"distinct euler classes of {params.triple} share a trace triple"
            )

    @cached_property
    def triples(self) -> list[CharacterTriple]:
        """The keys as CharacterTriple views through the memo, built on first read."""
        return self.memo._triples(self.keys)

    @cached_property
    def classes(self) -> list[EulerClass]:
        """The rows as EulerClass views (-1; k, l, m), built on first read."""
        params = self.memo.params
        a = params.a
        make = EulerClass._in_range
        return [make(params, -1, k, l, m, a - order) for k, l, m, order in self.rows]


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
    trace values. The rows are in rotation-number order, and .keys is the
    same list: a row holds its class's memo keys and epsilon.

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
        rows: list[tuple[int, int, int, int]] = []
        for eps in (-1, 1):
            starts = [2 if (eps == 1 or bi % 2 == 0) else 1 for bi in sigma.coefficients]
            for l1 in range(starts[0], a1, 2):
                big1 = l1 * f1
                for l2 in range(starts[1], a2, 2):
                    lower, upper = _window(big1, l2 * f2, a)
                    # the first l3 of the parity of starts[2] with l3*f3 > lower
                    first = lower // f3 + 1
                    first += (first - starts[2]) % 2
                    rows += [(l1, l2, l3, eps) for l3 in range(first, (upper - 1) // f3 + 1, 2)]
        rows.sort()
        # 0 < l_i < a_i is already a folded key
        traces1, traces2, traces3 = memo.generators
        for l1, l2, l3, _ in rows:
            k = _kappa(traces1[l1].value, traces2[l2].value, traces3[l3].value)
            if not k < -KAPPA_TOLERANCE:
                raise InconsistentClassification(f"unitary triple with kappa = {k}")
        # each row is its class's memo keys and epsilon, the columns certification reads
        self.rows = self.keys = rows

    @cached_property
    def triples(self) -> list[CharacterTriple]:
        """The rows as CharacterTriple views through the memo, built on first read."""
        return self.memo._triples(self.rows)


def enumerate_su2(params: BrieskornParams, sigma: SeifertInvariant) -> list[CharacterTriple]:
    """Trace triples of all irreducible unitary classes, in rotation-number order.

    The views of UnitaryClasses over a fresh TraceMemo, whose count must
    match the closed form (a1-1)(a2-1)(a3-1)/4 - |X0| from a fresh X0 scan.
    """
    triples = UnitaryClasses(TraceMemo(params, sigma)).triples
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

    The (euler class, trace triple) pairs of PulledBackClasses over a fresh
    TraceMemo, in enumerate_E's order: a class (-1; k, l, m) selects a cover
    of order a - S, with S its cleared sum, and TraceMemo.triple_of says how
    the triple follows from that order. The CLI reads the table itself.
    """
    table = PulledBackClasses(TraceMemo(params, sigma))
    return list(zip(table.classes, table.triples))


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

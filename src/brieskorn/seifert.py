"""Exact arithmetic for Seifert data of Brieskorn homology spheres.

Everything here is integer arithmetic; no floating point enters. The
sphere Sigma(a1, a2, a3) is described by data {0; (1,b), (a1,b1), (a2,b2),
(a3,b3)} over the 2-sphere, and the same container also carries the data of
the auxiliary fibered spaces that euler classes select later.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import (
    InvalidSeifertData,
    NotPairwiseCoprime,
    ValueTooSmall,
)


@dataclass(frozen=True)
class BrieskornParams:
    """Pairwise coprime multiplicities, with the even one (if any) first.

    The permutation field records which input slot each canonical slot came
    from; it is bookkeeping only and does not take part in equality.
    """

    a1: int
    a2: int
    a3: int
    permutation: tuple[int, int, int] = field(default=(0, 1, 2), compare=False)

    def __post_init__(self) -> None:
        triple = (self.a1, self.a2, self.a3)
        for ai in triple:
            if ai < 2:
                raise ValueTooSmall(f"multiplicities must be at least 2, got {ai}")
        for i in range(3):
            for j in range(i + 1, 3):
                if math.gcd(triple[i], triple[j]) != 1:
                    raise NotPairwiseCoprime(
                        f"gcd({triple[i]}, {triple[j]}) > 1; multiplicities must be pairwise coprime"
                    )
        # at most one multiplicity is even, and canonical order puts it first
        if self.a2 % 2 == 0 or self.a3 % 2 == 0:
            raise ValueError("canonical order requires the even multiplicity first")

    @property
    def triple(self) -> tuple[int, int, int]:
        return (self.a1, self.a2, self.a3)

    @property
    def a(self) -> int:
        return self.a1 * self.a2 * self.a3


def canonicalize_params(a1: int, a2: int, a3: int) -> BrieskornParams:
    """Validate and reorder multiplicities: even one first, the rest ascending."""
    values = (a1, a2, a3)
    order = sorted(range(3), key=lambda i: (values[i] % 2 == 1, values[i]))
    ordered = tuple(values[i] for i in order)
    return BrieskornParams(*ordered, permutation=tuple(order))


@dataclass(frozen=True)
class SeifertInvariant:
    """Data {0; (1,b), (a1,b1), (a2,b2), (a3,b3)}: integer b plus three cone pairs.

    The coefficients b_i are unconstrained integers. Multiplicities a_i = 1
    are tolerated so degenerate data stays representable; the sphere
    constructors never produce them.
    """

    b: int
    pairs: tuple[tuple[int, int], tuple[int, int], tuple[int, int]]

    def __post_init__(self) -> None:
        if len(self.pairs) != 3:
            raise ValueError("exactly three cone pairs expected")
        object.__setattr__(self, "pairs", tuple((int(a), int(b)) for a, b in self.pairs))
        for ai, _ in self.pairs:
            if ai < 1:
                raise ValueTooSmall(f"cone multiplicity must be positive, got {ai}")

    @property
    def multiplicities(self) -> tuple[int, int, int]:
        return tuple(ai for ai, _ in self.pairs)

    @property
    def coefficients(self) -> tuple[int, int, int]:
        return tuple(bi for _, bi in self.pairs)

    @property
    def a(self) -> int:
        return math.prod(self.multiplicities)

    def __str__(self) -> str:
        cones = ", ".join(f"({ai},{bi})" for ai, bi in self.pairs)
        return f"{{0; (1,{self.b}), {cones}}}"


def solve_seifert(params: BrieskornParams) -> SeifertInvariant:
    """Deterministic Seifert data for Sigma(a1,a2,a3) with b = 0 and b2, b3 even.

    Solves a2*a3*b1 + a1*a3*b2 + a1*a2*b3 = 1: b1 is the representative of
    (a2*a3)^-1 mod a1 in (0, a1), b2 starts minimal nonnegative, and parity
    is repaired by the trades (b1, b2) -> (b1+a1, b2-a2) and then
    (b1, b3) -> (b1+a1, b3-a3), which keep the identity intact.
    """
    a1, a2, a3 = params.triple
    b1 = pow(a2 * a3, -1, a1)
    t = (1 - a2 * a3 * b1) // a1
    b2 = (t * pow(a3, -1, a2)) % a2
    b3 = (t - a3 * b2) // a2
    if b2 % 2:
        b1, b2 = b1 + a1, b2 - a2
    if b3 % 2:
        b1, b3 = b1 + a1, b3 - a3
    assert a2 * a3 * b1 + a1 * a3 * b2 + a1 * a2 * b3 == 1
    assert b2 % 2 == 0 and b3 % 2 == 0
    return SeifertInvariant(0, ((a1, b1), (a2, b2), (a3, b3)))


def cleared_euler_number(s: SeifertInvariant) -> int:
    """a * e(s) = -(a*b + sum b_i * a/a_i), an integer because every a_i divides a."""
    a = s.a
    total = s.b * a
    for ai, bi in s.pairs:
        total += bi * (a // ai)
    return -total


def h1_order(s: SeifertInvariant) -> int:
    """Order of the first homology group, a * |e(s)|, as a nonnegative integer."""
    return abs(cleared_euler_number(s))


def sphere_convention_sign(s: SeifertInvariant) -> int:
    """Return the sign of a*(b + sum b_i/a_i), which must be +1 or -1.

    Homology-sphere data comes in two sign conventions; both are accepted
    and the trace formulas downstream are valid for either.
    """
    value = -cleared_euler_number(s)
    if value == 1:
        return 1
    if value == -1:
        return -1
    raise InvalidSeifertData(f"a*(b + sum b_i/a_i) = {value}, expected +1 or -1")

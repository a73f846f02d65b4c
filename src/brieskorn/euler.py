"""Euler classes of the base orbifold group and their orientation reversal.

A normalized class beta*x0 + beta1*x1 + beta2*x2 + beta3*x3 (0 < beta_i < a_i)
is realizable by an elliptic geometric structure in exactly two regimes:
beta = -1 with sum beta_i/a_i < 1, or beta = -2 with sum beta_i/a_i > 2.
Reversing orientation swaps the two. enumerate_X0 lists the beta = -1
classes as integer rows (k, l, m, order), each with the homology order of
the cover it selects; the class tables read the rows as they come.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotRealizable
from .seifert import BrieskornParams, SeifertInvariant


@dataclass(frozen=True)
class EulerClass:
    """Normalized euler class; the parameters ride along for range checks."""

    params: BrieskornParams
    beta: int
    beta1: int
    beta2: int
    beta3: int

    def __post_init__(self) -> None:
        a = self.params.a
        cleared = 0
        for bi, ai in zip(self.betas, self.params.triple):
            if not 0 < bi < ai:
                raise ValueError(f"coefficient {bi} outside (0, {ai})")
            cleared += bi * (a // ai)
        # held once: the cover order and both conditions read it
        object.__setattr__(self, "_cleared_sum", cleared)

    @property
    def betas(self) -> tuple[int, int, int]:
        return (self.beta1, self.beta2, self.beta3)

    def cleared_sum(self) -> int:
        """a * sum beta_i/a_i, an integer because every a_i divides a."""
        return self._cleared_sum

    def cover_euler_number(self) -> int:
        """a * e of the covering this class selects; its absolute value is the h1 order."""
        return -(self.params.a * self.beta + self.cleared_sum())

    def satisfies_condition_a(self) -> bool:
        """beta = -1 and the coefficient sum stays below 1."""
        return self.beta == -1 and self.cleared_sum() < self.params.a

    def satisfies_condition_b(self) -> bool:
        """beta = -2 and the coefficient sum exceeds 2."""
        return self.beta == -2 and self.cleared_sum() > 2 * self.params.a

    def __str__(self) -> str:
        return f"({self.beta}; {self.beta1},{self.beta2},{self.beta3})"


def enumerate_X0(params: BrieskornParams) -> list[tuple[int, int, int, int]]:
    """Lattice points 0 < k < a1, 0 < l < a2, 0 < m < a3 with k/a1 + l/a2 + m/a3 < 1, as rows.

    Each row is (k, l, m, order), with order = a - k*c1 - l*c2 - m*c3 and
    c_i = a/a_i: the homology order of the cover that the class
    (-1; k, l, m) selects, at least 1. The comparison is done on cleared
    denominators, so it is exact, and each order is read off the remainder
    the comparison already holds.
    """
    a1, a2, a3 = params.triple
    a = params.a
    c1, c2, c3 = a2 * a3, a1 * a3, a1 * a2
    out: list[tuple[int, int, int, int]] = []
    for k in range(1, a1):
        for l in range(1, a2):
            rem = a - k * c1 - l * c2
            # largest m with m*c3 < rem; provably below a3 already
            top = (rem - 1) // c3
            out += [(k, l, m, rem - m * c3) for m in range(1, top + 1)]
    return out


def enumerate_E(params: BrieskornParams) -> list[EulerClass]:
    """Classes -x0 + k*x1 + l*x2 + m*x3 for the rows (k, l, m, order) of X0, in the same order."""
    return [EulerClass(params, -1, k, l, m) for k, l, m, _ in enumerate_X0(params)]


def enumerate_condition_b(params: BrieskornParams) -> list[tuple[int, int, int]]:
    """The beta = -2 classes as rows (b1, b2, b3), lexicographic, read from their own inequality.

    Condition b asks b1*c1 + b2*c2 + b3*c3 > 2a on cleared denominators. For
    each (b1, b2) the b3 that meet it are one range, from the first b3 above
    (2a - b1*c1 - b2*c2)/c3, at least 1, up to a3 - 1. The range reads only
    that inequality, not enumerate_E: the orientation-reversal bijection
    between the two lists stays a checked property, not a definition.
    """
    a1, a2, a3 = params.triple
    a = params.a
    c1, c2, c3 = a2 * a3, a1 * a3, a1 * a2
    out: list[tuple[int, int, int]] = []
    for b1 in range(1, a1):
        for b2 in range(1, a2):
            first = max(1, (2 * a - b1 * c1 - b2 * c2) // c3 + 1)
            out += [(b1, b2, b3) for b3 in range(first, a3)]
    return out


def reversed_coefficients(params: BrieskornParams, rows) -> list[tuple[int, int, int]]:
    """(a1-b1, a2-b2, a3-b3) for each row that begins (b1, b2, b3): the reversal on integers.

    These are the coefficients of each class's reversed-orientation partner;
    reverse_orientation adds the swap of beta = -1 and beta = -2.
    """
    a1, a2, a3 = params.triple
    return [(a1 - row[0], a2 - row[1], a3 - row[2]) for row in rows]


def reverse_orientation(eu: EulerClass) -> EulerClass:
    """Swap a realizable class with its reversed-orientation partner.

    (-1; b1,b2,b3) maps to (-2; a1-b1, a2-b2, a3-b3) and back; the map is an
    involution on the union of the two regimes.
    """
    if eu.satisfies_condition_a():
        new_beta = -2
    elif eu.satisfies_condition_b():
        new_beta = -1
    else:
        raise NotRealizable(f"{eu} satisfies neither realizability condition")
    [betas] = reversed_coefficients(eu.params, [eu.betas])
    return EulerClass(eu.params, new_beta, *betas)


def seifert_from_euler(eu: EulerClass, params: BrieskornParams) -> SeifertInvariant:
    """Seifert data {0; (1,beta), (a1,beta1), (a2,beta2), (a3,beta3)} of the space eu selects."""
    if params != eu.params:
        raise ValueError("params disagree with the class being converted")
    a1, a2, a3 = params.triple
    return SeifertInvariant(
        eu.beta, ((a1, eu.beta1), (a2, eu.beta2), (a3, eu.beta3))
    )

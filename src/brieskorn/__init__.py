"""Representation classes of Brieskorn homology spheres Sigma(a1, a2, a3).

The package enumerates the conjugacy classes of irreducible two-dimensional
representations of the fundamental group, splits them into the unitary and
real families by exact rational trace arithmetic, ties the counts to the
Casson-type invariants, and certifies each class with an explicit pair of
2x2 matrices checked against the group relations.
"""

import importlib

from .character import (
    CharacterTriple,
    ClassLabel,
    CountReport,
    TraceMemo,
    TraceValue,
    classify,
    count_report,
    enumerate_su2,
    kappa,
    phi_map,
    reversed_trace_check,
    trace_triple_of,
)
from .errors import (
    BrieskornError,
    CountMismatch,
    DegenerateAngle,
    InconsistentClassification,
    InjectivityViolation,
    InvalidSeifertData,
    NotPairwiseCoprime,
    NotRealizable,
    ValueTooSmall,
)
from .euler import (
    EulerClass,
    X0Triple,
    enumerate_E,
    enumerate_X0,
    enumerate_condition_b,
    reverse_orientation,
    seifert_from_euler,
)
from .seifert import (
    BrieskornParams,
    SeifertInvariant,
    canonicalize_params,
    euler_number,
    h1_order,
    solve_seifert,
    sphere_convention_sign,
)

__version__ = "0.1.0"

# realize needs numpy, so it loads on first use of one of its names
_REALIZE_NAMES = {
    "Certificate",
    "realize_sl2r",
    "realize_su2",
    "stretch_for_product_trace",
    "verify_relations",
}


def __getattr__(name: str):
    if name == "realize" or name in _REALIZE_NAMES:
        realize = importlib.import_module(".realize", __name__)
        return realize if name == "realize" else getattr(realize, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "BrieskornError",
    "BrieskornParams",
    "Certificate",
    "CharacterTriple",
    "ClassLabel",
    "CountMismatch",
    "CountReport",
    "DegenerateAngle",
    "EulerClass",
    "InconsistentClassification",
    "InjectivityViolation",
    "InvalidSeifertData",
    "NotPairwiseCoprime",
    "NotRealizable",
    "SeifertInvariant",
    "TraceMemo",
    "TraceValue",
    "ValueTooSmall",
    "X0Triple",
    "canonicalize_params",
    "classify",
    "count_report",
    "enumerate_E",
    "enumerate_X0",
    "enumerate_condition_b",
    "enumerate_su2",
    "euler_number",
    "h1_order",
    "kappa",
    "phi_map",
    "realize_sl2r",
    "realize_su2",
    "reverse_orientation",
    "reversed_trace_check",
    "seifert_from_euler",
    "solve_seifert",
    "sphere_convention_sign",
    "stretch_for_product_trace",
    "trace_triple_of",
    "verify_relations",
]

"""Command line front end: analyze one sphere, or sweep a census.

Output is deterministic: identical arguments produce byte-identical stdout.
Nothing is colorized, so NO_COLOR is honored trivially.

build_record is the one pass per sphere, on every command and format: it
checks a sphere and returns a SphereRecord, which every writer reads. It
checks the pulled-back classes in one pass over their memo keys, on the
float trace tables of the sphere's TraceMemo, the parity of each key row
against its epsilon included, and calls classify once per sphere, on one
view. Every output is written from the sphere's integer class rows: the
pulled-back rows are enumerate_X0's (k, l, m, order), which print the
euler class and cover_h1 as they are, with no dict, EulerClass or
CharacterTriple per class. The text and JSON writers fill one `%` template
per class from its row and from the texts of its three traces, looked up
by the class's memo keys; each writer makes only the texts it prints,
once per key the rows name, from the key's table float and its angle
r/a_i reduced, the texts its TraceValue would print. A census shares one
read-only store of trace tables among its spheres' memos, keyed by q,
for every q with q*q <= max_a: the two smaller multiplicities of every
sphere, in about max_a/2 floats. The seifert block is built by _seifert,
only in the text and JSON writers that print it; the census text and CSV
lines print the summary alone, and the CSV verify columns come with its
verification block. render_json writes exactly what json.dumps writes
for the record's dict form, which README.md lays out, and with compact
the census JSON line.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from functools import cache
from itertools import repeat
from typing import NamedTuple

from .character import (
    KAPPA_TOLERANCE,
    ClassLabel,
    CountReport,
    PulledBackClasses,
    TraceMemo,
    UnitaryClasses,
    classify,
    _kappa,
    _TRACE_TEXT,
    hardest_real_row,
    trace_table,
)
from .errors import (
    BrieskornError,
    InconsistentClassification,
    InvalidSeifertData,
    NotPairwiseCoprime,
    ValueTooSmall,
)
from .euler import enumerate_condition_b, reversed_coefficients
from .seifert import (
    BrieskornParams,
    SeifertInvariant,
    canonicalize_params,
    cleared_euler_number,
    solve_seifert,
    sphere_convention_sign,
)

CSV_COLUMNS = [
    "a1",
    "a2",
    "a3",
    "a",
    "total",
    "su2",
    "sl2r",
    "casson_abs",
    "casson_sl2c",
]
CSV_VERIFY_COLUMNS = CSV_COLUMNS + ["max_residual", "min_gap"]


def census_params(max_a: int) -> list[BrieskornParams]:
    """All canonical triples with a1*a2*a3 <= max_a, ascending product then lexicographic."""
    found: list[BrieskornParams] = []
    p = 2
    while p * (p + 1) * (p + 2) <= max_a:
        q = p + 1
        while p * q * (q + 1) <= max_a:
            if math.gcd(p, q) == 1:
                for r in range(q + 1, max_a // (p * q) + 1):
                    if math.gcd(p, r) == 1 and math.gcd(q, r) == 1:
                        found.append(canonicalize_params(p, q, r))
            q += 1
        p += 1
    found.sort(key=lambda params: (params.a, params.triple))
    return found


def parse_seifert_override(text: str, params: BrieskornParams) -> tuple[SeifertInvariant, str]:
    """Parse "b,b1,b2,b3", validate the +-1 normalization, and force b = 0.

    Data with b != 0 is folded into the second coefficient by the trade
    (b, b2) -> (0, b2 + a2*b), which leaves b + sum b_i/a_i unchanged.
    """
    try:
        numbers = [int(part) for part in text.split(",")]
    except ValueError as exc:
        raise InvalidSeifertData(f"cannot parse override {text!r}: {exc}") from None
    if len(numbers) != 4:
        raise InvalidSeifertData("override must be four integers b,b1,b2,b3")
    b, b1, b2, b3 = numbers
    a1, a2, a3 = params.triple
    sigma = SeifertInvariant(b, ((a1, b1), (a2, b2), (a3, b3)))
    sphere_convention_sign(sigma)  # raises if not +-1
    source = "override"
    if b != 0:
        sigma = SeifertInvariant(0, ((a1, b1), (a2, b2 + a2 * b), (a3, b3)))
        source = "override (normalized to b=0)"
    return sigma, source


class SphereRecord(NamedTuple):
    """One sphere's analysis as build_record hands it to the writers.

    summary holds the small blocks: params, counts and, with verify,
    verification. sigma is the sphere's Seifert data and source says where
    it came from; _seifert builds the seifert block from them, only for the
    writers that print it. The classes stay the integer rows of the two
    tables, on the sphere's one TraceMemo, pulled.memo; each writer makes
    the texts it prints once per memo key the rows name. The certificates
    hold the pulled-back stack, then the unitary one (none without verify).
    With condition b, partners holds the coefficients (a1-k, a2-l, a3-m) of
    the reversed partner of each pulled-back class, in the condition-b list's
    order, so the pulled-back rows taken backwards.
    """

    summary: dict
    sigma: SeifertInvariant
    source: str
    pulled: PulledBackClasses
    unitary: UnitaryClasses
    certificates: list
    partners: list | None


_json_str = json.encoder.encode_basestring_ascii
# the euler class of a pulled-back row (k, l, m, order), as str(EulerClass) prints it
_SL2R_NAME = "(-1; %d,%d,%d)"


def build_record(
    params: BrieskornParams,
    sigma: SeifertInvariant,
    source: str,
    verify: bool = False,
    tol: float = 1e-9,
    condition_b: bool = False,
    tables: dict | None = None,
) -> SphereRecord:
    """One pass over a sphere: enumerate, classify, count and (with verify) certify every class.

    One TraceMemo serves the sphere, so its data is checked once, and both
    tables read it: PulledBackClasses for the beta = -1 classes and
    UnitaryClasses for the unitary ones. The memo takes the trace tables
    that tables holds, a read-only store from a_i to trace_table(a_i) that
    a census shares among its spheres, and builds the others. Each lattice
    is walked once, and the classes stay integer rows. The unitary count is
    checked once, by CountReport.of against the closed-form total: with
    sl2r = |X0|, total = su2 + sl2r is the check su2 = total - |X0|;
    CountReport.of also checks su2 = 2|lambda| against the Casson
    invariant. hardest_real_row checks every pulled-back key row in one
    pass, reading only the keys, the a_i, the b_i and the memo, never the
    cover order that made the keys. It hands back the first row that fails,
    or else the row nearest a reducible wall; memo.triples makes the one
    view of that row, and classify labels it by its own route. classify
    reads no b_i, so the row's parity, (-1)**r_i = epsilon**b_i, is tested
    again here; and the view's TraceValues are made afresh, not read from
    the tables, so the row's kappa is tested again here on the table floats
    the pass read. So a failing row raises classify's own error, or a
    pulled-back error naming the row, and a sphere with no pulled-back
    class calls no classify. With verify, both tables are certified from
    their memo keys, and a unitary CharacterTriple view is built only to
    name a class that fails; a pulled-back class is named by its row. The
    seifert block is left to the writers that print it.

    With condition_b, orientation reversal must map the pulled-back classes
    onto the brute-force condition-b classes, checked on the integer rows.
    The partners' trace triples are not folded again: reversed_trace_check
    says why they agree by construction.

    Every assertion runs before the record is returned.
    """
    memo = TraceMemo(params, sigma, tables)
    pulled = PulledBackClasses(memo)
    unitary = UnitaryClasses(memo)
    counts = CountReport.of(params, su2=len(unitary.rows), sl2r=len(pulled.rows))
    sl2r = ClassLabel.SL2R
    if pulled.keys:
        # one pass checks every pulled-back row; classify labels the one it hands back
        k = hardest_real_row(memo, pulled.keys)
        key = pulled.keys[k]
        label = classify(memo.triples([key])[0])
        name = _SL2R_NAME % pulled.rows[k][:3]
        if label is not sl2r:
            raise InconsistentClassification(f"pulled-back class {name} classified as {label.value}")
        # classify reads no b_i: a row refused for its parity alone is labelled SL2R
        eps = key[3]
        if any((-1) ** r != eps ** (b % 2) for r, b in zip(key, sigma.coefficients)):
            raise BrieskornError(
                f"pulled-back class {name} breaks (-1)**r_i = eps**b_i: "
                f"keys {key[:3]}, eps {eps:+d}"
            )
        # the view's TraceValues are fresh, so kappa again on the table floats the pass read
        kappa = _kappa(*map(list.__getitem__, memo.generators, key))
        if not kappa > KAPPA_TOLERANCE:
            raise InconsistentClassification(f"pulled-back class {name} has kappa = {kappa} on the trace tables")
    certificates = []
    if verify:
        from .realize import certify_columns  # numpy loads only when a class is certified

        for table, real_form in ((pulled, sl2r), (unitary, ClassLabel.SU2)):
            # each class as its memo keys and epsilon, on the memo's tables
            cert = certify_columns(memo.generators, table.keys, sigma, real_form, tol)
            passed = cert.passed
            if not passed.all():
                k = int(passed.argmin())
                # an SL(2,R) class is named by its euler class, a unitary one by its traces
                name = (_SL2R_NAME % pulled.rows[k][:3] if table is pulled
                        else memo.triples(unitary.keys[k : k + 1])[0])
                j = int(cert.residuals[k].argmax())
                if cert.residuals[k, j] < tol:  # every relation held, so the gap failed
                    raise BrieskornError(
                        f"commutator gap not above tolerance on {params.triple}: "
                        f"class {name}, gap {float(cert.gaps[k])!r}, tol {tol:g}"
                    )
                raise BrieskornError(
                    f"relation residuals exceed tolerance on {params.triple}: class {name}, "
                    f"relation {cert.relations[j]} residual {float(cert.residuals[k, j])!r}, "
                    f"gap {float(cert.gaps[k])!r}, tol {tol:g}"
                )
            certificates.append(cert)
    summary = {
        "params": {
            "a1": params.a1,
            "a2": params.a2,
            "a3": params.a3,
            "a": params.a,
            "input_permutation": list(params.permutation),
        },
        "counts": {name: getattr(counts, name) for name in CSV_COLUMNS[4:]},
    }
    if verify:
        summary["verification"] = {
            "tol": tol,
            "classes": sum(map(len, certificates)),
            "max_residual": max(cert.max_residual for cert in certificates),
            "min_gap": min(cert.min_gap for cert in certificates),
            "passed": True,
        }
    partners = None
    if condition_b:
        # Order condition: enumerate_X0 lists (k, l, m) ascending, beta_i -> a_i - beta_i
        # reverses that order, and enumerate_condition_b lists ascending. So the reversal
        # is a bijection exactly when it maps the pulled-back classes (-1; k, l, m), taken
        # backwards, onto the brute-force list of beta = -2 classes entry by entry; any
        # gap, extra or duplicate breaks that.
        partners = reversed_coefficients(params, reversed(pulled.rows))
        if enumerate_condition_b(params) != partners:
            raise BrieskornError(
                f"orientation reversal is not a bijection on {params.triple}"
            )
    return SphereRecord(summary, sigma, source, pulled, unitary, certificates, partners)


def _seifert(record: SphereRecord) -> dict:
    """The seifert block of the record: its data, their source, and a*e read three ways.

    a*e is +-1, as solve_seifert's assert, sphere_convention_sign and the
    memo's h1 order check all hold, so e = a*e/a is in lowest terms.
    """
    sigma = record.sigma
    ae = cleared_euler_number(sigma)
    return {
        "b": sigma.b, "coefficients": list(sigma.coefficients), "source": record.source,
        "euler_number": "%d/%d" % (ae, sigma.a), "h1_order": abs(ae), "convention_sign": -ae,
    }


def _generator_leaves(record: SphereRecord, leaf) -> list[dict]:
    """One dict per generator, mapping each memo key r a class row names to leaf(n, q, its trace).

    n/q is r/a_i reduced, the pair TraceValue(r, a_i) holds, and the trace
    is the table float, which has the bits of its value; each leaf is made
    once per key. The unitary kappa check and hardest_real_row passed every
    row, so every such trace lies strictly inside (-2, 2).
    """
    memo = record.pulled.memo
    columns = zip(*record.pulled.keys, *record.unitary.rows)
    return [
        {r: leaf(r // g, ai // g, table[r]) for r in set(column) for g in (math.gcd(r, ai),)}
        for column, ai, table in zip(columns, memo.params.triple, memo.generators)
    ]


def _text_leaf(n: int, q: int, trace: float) -> tuple[str, str]:
    """A trace's two texts in the text report: the trace and its value to 12 places."""
    return _TRACE_TEXT % (n, q), "%.12f" % trace


def _verify_columns(record: SphereRecord, text: bool) -> list:
    """Per class list, each class's verify leaves: (residual, gap) for text, JSON (gap, residual) else.

    Without verify, each class gets no leaves. A printed class has passed, so
    both floats are finite and JSON writes each as its repr: its residual is
    below tol, and its gap is a trace of products that its finite powers bound.
    """
    if not record.certificates:
        return [repeat(())] * 2
    columns = [
        (cert.residuals.max(axis=1).tolist(), cert.gaps.tolist()) for cert in record.certificates
    ]
    if text:
        return [zip(residuals, gaps) for residuals, gaps in columns]
    return [zip(map(repr, gaps), map(repr, residuals)) for residuals, gaps in columns]


_TRIPLE_LINE = "eps %+d   (%s, %s, %s) = (%s, %s, %s)"
_SL2R_LINE = "  (-1; %d,%d,%d)  cover h1 %d   " + _TRIPLE_LINE
_SU2_LINE = "  " + _TRIPLE_LINE
_VERIFY_SUFFIX = "   [residual %.3e, gap %.3e: pass]"
_REVERSAL_LINE = "  (-2; %d,%d,%d) <- reverse of (-1; %d,%d,%d)"


def render_text(record: SphereRecord) -> str:
    """The text report: the sphere, its data and counts, then one line per class."""
    p, s = record.summary["params"], _seifert(record)
    c = s["coefficients"]
    lines = [
        f"Brieskorn sphere Sigma({p['a1']}, {p['a2']}, {p['a3']})   a = {p['a']}",
        "seifert data: {0; (1,%d), (%d,%d), (%d,%d), (%d,%d)}   [%s]"
        % (s["b"], p["a1"], c[0], p["a2"], c[1], p["a3"], c[2], s["source"]),
        f"euler number {s['euler_number']}   h1 order {s['h1_order']}   convention sign {s['convention_sign']:+d}",
        "counts: total %d | su2 %d | sl2r %d | |casson| %d | sl2c casson %d"
        % tuple(record.summary["counts"][name] for name in CSV_COLUMNS[4:]),
    ]
    suffix = _VERIFY_SUFFIX if record.certificates else ""
    pulled_checks, unitary_checks = _verify_columns(record, text=True)
    g1, g2, g3 = _generator_leaves(record, _text_leaf)
    # each class's three leaves (x, y, z) by its memo keys; "for ... in (one,)" binds them
    line = _SL2R_LINE + suffix
    lines.append(
        "sl2r classes:"
        if record.pulled.rows
        else "sl2r classes: none (every irreducible class is unitary)"
    )
    lines += [
        line % (k, l, m, order, eps, x[0], y[0], z[0], x[1], y[1], z[1], *v)
        for (k, l, m, order), (r1, r2, r3, eps), v in zip(record.pulled.rows, record.pulled.keys, pulled_checks)
        for x, y, z in ((g1[r1], g2[r2], g3[r3]),)
    ]
    line = _SU2_LINE + suffix
    lines.append("su2 classes:" if record.unitary.rows else "su2 classes: none")
    lines += [
        line % (eps, x[0], y[0], z[0], x[1], y[1], z[1], *v)
        for (l1, l2, l3, eps), v in zip(record.unitary.rows, unitary_checks)
        for x, y, z in ((g1[l1], g2[l2], g3[l3]),)
    ]

    if record.partners is not None:
        header = "condition-b classes (orientation reversed):"
        lines.append(header if record.partners else header + " none")
        lines += [
            _REVERSAL_LINE % (b1, b2, b3, k, l, m)
            for (b1, b2, b3), (k, l, m, _) in zip(record.partners, reversed(record.pulled.rows))
        ]

    if record.certificates:
        v = record.summary["verification"]
        lines.append(
            "verification: %d classes, max residual %.3e, min gap %.3e, tol %g: PASS"
            % (v["classes"], v["max_residual"], v["min_gap"], v["tol"])
        )
    return "\n".join(lines) + "\n"


def _entry_templates(compact: bool) -> dict:
    """The entry template of each class list, as json.dumps lays the entry out.

    Compact is the separators=(",", ":") layout of a census line; otherwise
    the entry sits two levels deep in an indent=2 dump. Each "%s" or "%d"
    leaf of a skeleton becomes a slot, so the slots follow the sorted key
    order of the entry; every other leaf is the same in every entry. The two
    class lists have one template without and one with the verify block.
    """

    def template(skeleton: dict) -> str:
        if compact:
            text = json.dumps(skeleton, sort_keys=True, separators=(",", ":"))
        else:
            text = "    " + json.dumps(skeleton, sort_keys=True, indent=2).replace("\n", "\n    ")
        return text.replace('"%s"', "%s").replace('"%d"', "%d")

    triple = {"angles": ["%s"] * 3, "epsilon": "%d", "traces": ["%s"] * 3, "values": ["%s"] * 3}
    sl2r = {
        **triple,
        "label": ClassLabel.SL2R.value,
        "cover_h1": "%d",
        "euler_class": {"beta": -1, "coefficients": ["%d"] * 3},
    }
    su2 = {**triple, "label": ClassLabel.SU2.value}
    verified = {"verify": {"gap": "%s", "max_residual": "%s", "passed": True}}
    return {
        "sl2r_classes": (template(sl2r), template({**sl2r, **verified})),
        "su2_classes": (template(su2), template({**su2, **verified})),
        "condition_b_classes": template(
            {
                "euler_class": {"beta": -2, "coefficients": ["%d"] * 3},
                "reverse_of": {"beta": -1, "coefficients": ["%d"] * 3},
            }
        ),
    }


# indexed by compact
_TEMPLATES = (_entry_templates(False), _entry_templates(True))


def _json_leaf(n: int, q: int, trace: float) -> tuple[str, str, str]:
    """A trace's three JSON texts: its angle, its trace and its float.

    A trace strictly inside (-2, 2) has a reduced angle n/q with q > 1,
    which prints as "n/q", and a finite float, which prints as its repr.
    """
    return '"%d/%d"' % (n, q), _json_str(_TRACE_TEXT % (n, q)), repr(trace)


def _class_lists(record: SphereRecord, compact: bool) -> dict[str, list[str]]:
    """Each class list of the record as its JSON entries."""
    templates = _TEMPLATES[compact]
    verified = bool(record.certificates)
    pulled_checks, unitary_checks = _verify_columns(record, text=False)
    g1, g2, g3 = _generator_leaves(record, _json_leaf)
    lists = {}
    entry = templates["sl2r_classes"][verified]
    lists["sl2r_classes"] = [
        entry % (x[0], y[0], z[0], order, eps, k, l, m, x[1], y[1], z[1], x[2], y[2], z[2], *v)
        for (k, l, m, order), (r1, r2, r3, eps), v in zip(record.pulled.rows, record.pulled.keys, pulled_checks)
        for x, y, z in ((g1[r1], g2[r2], g3[r3]),)
    ]
    entry = templates["su2_classes"][verified]
    lists["su2_classes"] = [
        entry % (x[0], y[0], z[0], eps, x[1], y[1], z[1], x[2], y[2], z[2], *v)
        for (l1, l2, l3, eps), v in zip(record.unitary.rows, unitary_checks)
        for x, y, z in ((g1[l1], g2[l2], g3[l3]),)
    ]
    if record.partners is not None:
        entry = templates["condition_b_classes"]
        lists["condition_b_classes"] = [
            entry % (b1, b2, b3, k, l, m)
            for (b1, b2, b3), (k, l, m, _) in zip(record.partners, reversed(record.pulled.rows))
        ]
    return lists


def render_json(record: SphereRecord, compact: bool = False) -> str:
    """The record as json.dumps(..., sort_keys=True, indent=2) + "\\n" writes its dict form.

    With compact, the census line: the dict form as
    json.dumps(..., sort_keys=True, separators=(",", ":")) + "\\n" writes it.
    The dict form holds the summary blocks and, as lists of entries, the
    classes; README.md gives its layout. The class lists, nearly all of the
    bytes, are written one entry per template; the small blocks go through
    json.dumps, and in the indented layout are indented one level more,
    which is safe because indented json.dumps never puts a raw newline inside
    a string.
    """
    lists = _class_lists(record, compact)
    items = sorted({**record.summary, "seifert": _seifert(record), **lists}.items())
    if compact:
        return "{%s}\n" % ",".join(
            _json_str(key) + ":" + (
                "[%s]" % ",".join(value) if key in lists
                else json.dumps(value, sort_keys=True, separators=(",", ":"))
            )
            for key, value in items
        )
    blocks = []
    for key, value in items:
        if key not in lists:
            text = json.dumps(value, sort_keys=True, indent=2).replace("\n", "\n  ")
        elif value:
            text = "[\n" + ",\n".join(value) + "\n  ]"
        else:
            text = "[]"
        blocks.append("  %s: %s" % (_json_str(key), text))
    return "{\n" + ",\n".join(blocks) + "\n}\n"


def _csv_row(record: dict) -> list:
    """The CSV row of a record's summary; the verify columns come with its verification block."""
    p, counts = record["params"], record["counts"]
    row = [p["a1"], p["a2"], p["a3"], p["a"]] + [counts[name] for name in CSV_COLUMNS[4:]]
    if "verification" in record:
        v = record["verification"]
        row += [repr(v["max_residual"]), repr(v["min_gap"])]
    return row


def _csv_writer(out, verify: bool):
    """A CSV writer on out that has already written the header row."""
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_VERIFY_COLUMNS if verify else CSV_COLUMNS)
    return writer


def render_csv(summary: dict) -> str:
    """The header row and the one row of a record's summary."""
    buffer = io.StringIO()
    _csv_writer(buffer, "verification" in summary).writerow(_csv_row(summary))
    return buffer.getvalue()


def _census_text_row(record: dict) -> str:
    text = "(%d,%d,%d) a=%d total=%d su2=%d sl2r=%d |casson|=%d sl2c=%d" % tuple(
        _csv_row(record)[:9]
    )
    if "verification" in record:
        v = record["verification"]
        text += f" max_residual={v['max_residual']:.3e} min_gap={v['min_gap']:.3e}"
    return text


def _tolerance(text: str) -> float:
    """argparse type of --tol: a finite float above zero."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not (value > 0 and math.isfinite(value)):
        raise argparse.ArgumentTypeError(f"must be finite and positive, got {text!r}")
    return value


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process; parse_args keeps no state between calls."""
    parser = argparse.ArgumentParser(
        prog="brieskorn",
        description="Representation classes of Brieskorn homology spheres",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="full analysis of one sphere")
    analyze.add_argument("a1", type=int)
    analyze.add_argument("a2", type=int)
    analyze.add_argument("a3", type=int)
    analyze.add_argument(
        "--seifert",
        metavar="b,b1,b2,b3",
        help="override the canonical Seifert data, b_i paired with a_i as the seifert data line "
        "prints them (even first, rest ascending); must satisfy a*(b + sum b_i/a_i) = +-1",
    )
    analyze.add_argument("--condition-b", action="store_true", dest="condition_b")
    analyze.add_argument("--output", "-o", help="write to this file instead of stdout")

    census = sub.add_parser("census", help="sweep all spheres with a1*a2*a3 <= MAX_A")
    census.add_argument("max_a", type=int)

    for p in (analyze, census):
        p.add_argument("--verify", action="store_true")
        p.add_argument("--tol", type=_tolerance, default=1e-9)
        p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    return parser


def _emit(text: str, path: str | None) -> int:
    """Write text to path, or to stdout without one; 2 when the file cannot be written."""
    if not path:
        sys.stdout.write(text)
        return 0
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        print(f"error: cannot write {path}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    return 0


def _run_analyze(args) -> int:
    params = canonicalize_params(args.a1, args.a2, args.a3)
    if args.seifert is not None:
        sigma, source = parse_seifert_override(args.seifert, params)
    else:
        sigma, source = solve_seifert(params), "canonical"
    record = build_record(params, sigma, source, args.verify, args.tol, args.condition_b)
    if args.format == "json":
        text = render_json(record)
    elif args.format == "csv":
        text = render_csv(record.summary)
    else:
        text = render_text(record)
    return _emit(text, args.output)


def _run_census(args) -> int:
    if args.max_a < 30:
        print("error: census needs max_a >= 30 (smallest sphere is (2,3,5))", file=sys.stderr)
        return 2
    out = sys.stdout
    if args.format == "csv":
        writer = _csv_writer(out, args.verify)
    rows = sum_sl2r = 0
    # the census's memos read trace_table(q) here for q*q <= max_a: of a
    # sphere's multiplicities a_i < a_j < a_k, a_j*a_j < a <= max_a, so only
    # the largest may be built per sphere, and the store holds max_a/2 floats
    tables = {q: trace_table(q) for q in range(2, math.isqrt(args.max_a) + 1)}
    for params in census_params(args.max_a):
        try:
            record = build_record(params, solve_seifert(params), "canonical", args.verify, args.tol, False, tables)
        except BrieskornError as exc:
            print(
                f"census aborted at ({params.a1},{params.a2},{params.a3}): {exc}",
                file=sys.stderr,
            )
            return 1
        rows += 1
        summary = record.summary
        sum_sl2r += summary["counts"]["sl2r"]
        if args.format == "json":
            out.write(render_json(record, compact=True))
        elif args.format == "csv":
            writer.writerow(_csv_row(summary))
        else:
            out.write(_census_text_row(summary) + "\n")
    print(
        f"census ok: {rows} spheres, aggregate identity sl2c - 2|casson| = sl2r = {sum_sl2r}",
        file=sys.stderr,
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "analyze":
            return _run_analyze(args)
        return _run_census(args)
    except (ValueTooSmall, NotPairwiseCoprime, InvalidSeifertData) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrieskornError as exc:
        print(f"assertion failure: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()

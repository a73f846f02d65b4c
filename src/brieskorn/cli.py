"""Command line front end: analyze one sphere, or sweep a census.

Output is deterministic: identical arguments produce byte-identical stdout.
Nothing is colorized, so NO_COLOR is honored trivially.

Every output is written from the sphere's integer class rows, with no dict
or EulerClass per class: build_record checks a sphere and returns a
SphereRecord, and the text, JSON and census JSON writers fill one `%`
template per class from its row and from the texts of its three trace
values, looked up by the class's memo keys and made once per key.
render_json writes exactly what json.dumps writes for the record's dict
form, which README.md lays out.
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
    ClassLabel,
    CountReport,
    PulledBackClasses,
    TraceMemo,
    TraceValue,
    UnitaryClasses,
    classify,
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
    h1_order,
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


def sphere_summary(
    params: BrieskornParams,
    sigma: SeifertInvariant,
    verify: bool = False,
    tol: float = 1e-9,
):
    """One pass over a sphere: enumerate, classify, count and (with verify) certify every class.

    One TraceMemo serves the sphere, so its data is checked once, and both
    tables read it: PulledBackClasses for the beta = -1 classes and
    UnitaryClasses for the unitary ones. Each lattice is walked once, and
    the classes stay integer rows. The unitary count is checked once, by
    CountReport.of against the closed-form total: with sl2r = |X0|,
    total = su2 + sl2r is the check su2 = total - |X0|. classify checks
    every pulled-back triple independently. With verify, both tables are
    certified from their memo keys, and a unitary CharacterTriple view or an
    EulerClass view is built only to name a class that fails.

    Returns the summary record (params, counts, and with verify the
    verification block), the PulledBackClasses, the UnitaryClasses, and the
    certificates of the pulled-back stack then the unitary one (empty without
    verify). Every assertion runs before anything is returned.
    """
    memo = TraceMemo(params, sigma)
    pulled = PulledBackClasses(memo)
    unitary = UnitaryClasses(memo)
    counts = CountReport.of(params, su2=len(unitary.rows), sl2r=len(pulled.rows))
    sl2r = ClassLabel.SL2R
    for i, triple in enumerate(pulled.triples):
        label = classify(triple)
        if label is not sl2r:
            raise InconsistentClassification(
                f"pulled-back class {pulled.classes[i]} classified as {label.value}"
            )
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
                name = pulled.classes[k] if table is pulled else unitary.triples[k]
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
    return summary, pulled, unitary, certificates


class SphereRecord(NamedTuple):
    """One sphere's analysis as build_record hands it to the writers.

    summary holds the small blocks: params, counts, seifert and, with verify,
    verification. The classes stay the integer rows of the two tables; the
    certificates hold the pulled-back stack, then the unitary one (none
    without verify). With condition b, partners holds the coefficients
    (a1-k, a2-l, a3-m) of the reversed partner of each pulled-back class, in
    the condition-b list's order, so the pulled-back rows taken backwards.
    leaves holds one dict per generator, mapping each memo key of the
    sphere's TraceMemo to the texts (_leaf) of its trace value.
    """

    summary: dict
    pulled: PulledBackClasses
    unitary: UnitaryClasses
    certificates: list
    partners: list | None
    leaves: tuple[dict, dict, dict]


_json_str = json.encoder.encode_basestring_ascii


def _leaf(tv: TraceValue) -> tuple[str, str, str, str, str]:
    """A trace value's texts: trace and "%.12f" for text, then angle, trace and float in JSON.

    Each is made once per memo key, and every class that holds the key reads it.

    Every value a record holds lies strictly inside (-2, 2), so its angle n/q
    has q > 1 and prints as "n/q", and its float is finite and prints as its repr.
    """
    trace = str(tv)
    return trace, "%.12f" % tv.value, '"%d/%d"' % (tv.n, tv.q), _json_str(trace), repr(tv.value)


def build_record(
    params: BrieskornParams,
    sigma: SeifertInvariant,
    source: str,
    verify: bool = False,
    tol: float = 1e-9,
    condition_b: bool = False,
) -> SphereRecord:
    """Assemble the full analysis for one sphere; every assertion runs before emission.

    With condition_b, orientation reversal must map the pulled-back classes
    onto the brute-force condition-b classes, checked on the integer rows. The
    partners' trace triples are not folded again: reversed_trace_check says
    why they agree by construction.
    """
    summary, pulled, unitary, certificates = sphere_summary(params, sigma, verify, tol)
    summary["seifert"] = {
        "b": sigma.b,
        "coefficients": list(sigma.coefficients),
        "source": source,
        # a*e is +-1, as solve_seifert's assert, sphere_convention_sign and the
        # memo's h1 order check all hold, so e = a*e/a is in lowest terms
        "euler_number": "%d/%d" % (cleared_euler_number(sigma), sigma.a),
        "h1_order": h1_order(sigma),
        "convention_sign": sphere_convention_sign(sigma),
    }
    partners = None
    if condition_b:
        # Order condition: enumerate_X0 lists (k, l, m) ascending, beta_i -> a_i - beta_i
        # reverses that order, and enumerate_condition_b lists ascending. So the reversal
        # is a bijection exactly when it maps the pulled-back classes (-1; k, l, m), taken
        # backwards, onto the brute-force list entry by entry, each partner with beta = -2;
        # any gap, extra or duplicate breaks that.
        partners = reversed_coefficients(params, reversed(pulled.rows))
        listed = enumerate_condition_b(params)
        if [(eu.beta1, eu.beta2, eu.beta3) for eu in listed if eu.beta == -2] != partners:
            raise BrieskornError(
                f"orientation reversal is not a bijection on {params.triple}"
            )
    # the memo holds every trace value the two tables read, each once: the unitary
    # kappa check and the classify check of every pulled-back triple filled it
    leaves = tuple({r: _leaf(tv) for r, tv in traces.items()} for traces in pulled.memo.generators)
    return SphereRecord(summary, pulled, unitary, certificates, partners, leaves)


def _pulled_fields(record: SphereRecord):
    """(k, l, m, cover order, epsilon, three trace leaves) of each pulled-back class."""
    g1, g2, g3 = record.leaves
    for (k, l, m, order), (r1, r2, r3, eps) in zip(record.pulled.rows, record.pulled.keys):
        yield k, l, m, order, eps, g1[r1], g2[r2], g3[r3]


def _unitary_fields(record: SphereRecord):
    """(epsilon, three trace leaves) of each unitary class; each l_i is its generator's memo key."""
    g1, g2, g3 = record.leaves
    for l1, l2, l3, eps in record.unitary.rows:
        yield eps, g1[l1], g2[l2], g3[l3]


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
    p, s = record.summary["params"], record.summary["seifert"]
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
    line = _SL2R_LINE + suffix
    lines.append(
        "sl2r classes:"
        if record.pulled.rows
        else "sl2r classes: none (every irreducible class is unitary)"
    )
    lines += [
        line % (k, l, m, order, eps, x[0], y[0], z[0], x[1], y[1], z[1], *v)
        for (k, l, m, order, eps, x, y, z), v in zip(_pulled_fields(record), pulled_checks)
    ]
    line = _SU2_LINE + suffix
    lines.append("su2 classes:" if record.unitary.rows else "su2 classes: none")
    lines += [
        line % (eps, x[0], y[0], z[0], x[1], y[1], z[1], *v)
        for (eps, x, y, z), v in zip(_unitary_fields(record), unitary_checks)
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


def _class_lists(record: SphereRecord, compact: bool) -> dict[str, list[str]]:
    """Each class list of the record as its JSON entries."""
    templates = _TEMPLATES[compact]
    verified = bool(record.certificates)
    pulled_checks, unitary_checks = _verify_columns(record, text=False)
    entry = templates["sl2r_classes"][verified]
    lists = {
        "sl2r_classes": [
            entry % (x[2], y[2], z[2], order, eps, k, l, m, x[3], y[3], z[3], x[4], y[4], z[4], *v)
            for (k, l, m, order, eps, x, y, z), v in zip(_pulled_fields(record), pulled_checks)
        ]
    }
    entry = templates["su2_classes"][verified]
    lists["su2_classes"] = [
        entry % (x[2], y[2], z[2], eps, x[3], y[3], z[3], x[4], y[4], z[4], *v)
        for (eps, x, y, z), v in zip(_unitary_fields(record), unitary_checks)
    ]
    if record.partners is not None:
        entry = templates["condition_b_classes"]
        lists["condition_b_classes"] = [
            entry % (b1, b2, b3, k, l, m)
            for (b1, b2, b3), (k, l, m, _) in zip(record.partners, reversed(record.pulled.rows))
        ]
    return lists


def render_json(record: SphereRecord) -> str:
    """The record as json.dumps(..., sort_keys=True, indent=2) + "\\n" writes its dict form.

    The dict form holds the summary blocks and, as lists of entries, the
    classes; README.md gives its layout. The class lists, nearly all of the
    bytes, are written one entry per template; the small blocks go through
    json.dumps and are indented one level more, which is safe because
    indented json.dumps never puts a raw newline inside a string.
    """
    lists = _class_lists(record, compact=False)
    blocks = []
    for key, value in sorted({**record.summary, **lists}.items()):
        if key not in lists:
            text = json.dumps(value, sort_keys=True, indent=2).replace("\n", "\n  ")
        elif value:
            text = "[\n" + ",\n".join(value) + "\n  ]"
        else:
            text = "[]"
        blocks.append("  %s: %s" % (_json_str(key), text))
    return "{\n" + ",\n".join(blocks) + "\n}\n"


def _census_json_row(record: SphereRecord) -> str:
    """The census line of a record: its dict form as json.dumps(..., separators=(",", ":"))."""
    lists = _class_lists(record, compact=True)
    blocks = []
    for key, value in sorted({**record.summary, **lists}.items()):
        if key in lists:
            text = "[%s]" % ",".join(value)
        else:
            text = json.dumps(value, sort_keys=True, separators=(",", ":"))
        blocks.append(_json_str(key) + ":" + text)
    return "{%s}" % ",".join(blocks)


def _csv_row(record: dict, verify: bool) -> list:
    p, counts = record["params"], record["counts"]
    row = [p["a1"], p["a2"], p["a3"], p["a"]] + [counts[name] for name in CSV_COLUMNS[4:]]
    if verify:
        v = record["verification"]
        row += [repr(v["max_residual"]), repr(v["min_gap"])]
    return row


def _csv_writer(out, verify: bool):
    """A CSV writer on out that has already written the header row."""
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_VERIFY_COLUMNS if verify else CSV_COLUMNS)
    return writer


def render_csv(records: list[dict], verify: bool) -> str:
    buffer = io.StringIO()
    writer = _csv_writer(buffer, verify)
    for record in records:
        writer.writerow(_csv_row(record, verify))
    return buffer.getvalue()


def _census_text_row(record: dict) -> str:
    text = "(%d,%d,%d) a=%d total=%d su2=%d sl2r=%d |casson|=%d sl2c=%d" % tuple(
        _csv_row(record, False)
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
        help="override the canonical Seifert data (must satisfy a*(b + sum b_i/a_i) = +-1)",
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
    if args.seifert:
        sigma, source = parse_seifert_override(args.seifert, params)
    else:
        sigma, source = solve_seifert(params), "canonical"
    record = build_record(
        params,
        sigma,
        source,
        verify=args.verify,
        tol=args.tol,
        condition_b=args.condition_b,
    )
    if args.format == "json":
        text = render_json(record)
    elif args.format == "csv":
        text = render_csv([record.summary], args.verify)
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
    for params in census_params(args.max_a):
        try:
            sigma = solve_seifert(params)
            # only JSON prints the classes; text and CSV print the counts
            if args.format == "json":
                record = build_record(params, sigma, "canonical", args.verify, args.tol)
                summary = record.summary
            else:
                summary = sphere_summary(params, sigma, args.verify, args.tol)[0]
        except BrieskornError as exc:
            print(
                f"census aborted at ({params.a1},{params.a2},{params.a3}): {exc}",
                file=sys.stderr,
            )
            return 1
        rows += 1
        sum_sl2r += summary["counts"]["sl2r"]
        if args.format == "json":
            out.write(_census_json_row(record) + "\n")
        elif args.format == "csv":
            writer.writerow(_csv_row(summary, args.verify))
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

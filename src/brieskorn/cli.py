"""Command line front end: analyze one sphere, or sweep a census.

Output is deterministic: identical arguments produce byte-identical stdout.
Nothing is colorized, so NO_COLOR is honored trivially.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import itertools
import json
import math
import sys

from .character import (
    ClassLabel,
    CountReport,
    classify,
    enumerate_su2,
    phi_map,
    reversed_trace_check,
)
from .errors import (
    BrieskornError,
    InconsistentClassification,
    InvalidSeifertData,
    NotPairwiseCoprime,
    ValueTooSmall,
)
from .euler import enumerate_condition_b, reverse_orientation
from .seifert import (
    BrieskornParams,
    SeifertInvariant,
    canonicalize_params,
    euler_number,
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


def _euler_entry(eu) -> dict:
    return {"beta": eu.beta, "coefficients": list(eu.betas)}


def _triple_entry(triple, verify_report, leaves: dict) -> dict:
    """The JSON entry of one class.

    leaves memoizes each trace value's angle string, trace string and value,
    keyed by its reduced pair (n, q), which hashes faster than the TraceValue.
    """
    columns = []
    for tv in (triple.tx, triple.ty, triple.tz):
        key = (tv.n, tv.q)
        leaf = leaves.get(key)
        if leaf is None:
            leaf = leaves[key] = (str(tv.t), str(tv), tv.value)
        columns.append(leaf)
    angles, traces, values = zip(*columns)
    entry = {
        "epsilon": triple.epsilon,
        "angles": list(angles),
        "traces": list(traces),
        "values": list(values),
    }
    if verify_report is not None:
        entry["verify"] = {
            "max_residual": verify_report.max_residual,
            "gap": verify_report.irreducibility_gap,
            "passed": verify_report.passed,
        }
    return entry


def sphere_summary(
    params: BrieskornParams,
    sigma: SeifertInvariant,
    verify: bool = False,
    tol: float = 1e-9,
):
    """One pass over a sphere: enumerate, classify, count and (with verify) certify every class.

    Returns the summary record (params, counts, and with verify the
    verification block), the pulled-back pairs, the unitary triples, and the
    certificates of the pulled-back then the unitary classes (empty without
    verify). Every assertion runs before anything is returned.
    """
    pairs = phi_map(params, sigma)
    su2_triples = enumerate_su2(params, sigma)
    counts = CountReport.of(params, su2=len(su2_triples), sl2r=len(pairs))
    for eu, triple in pairs:
        label = classify(triple)
        if label is not ClassLabel.SL2R:
            raise InconsistentClassification(
                f"pulled-back class {eu} classified as {label.value}"
            )
    reports = []
    if verify:
        from .realize import certify_classes  # numpy loads only when a class is certified

        # an SL(2,R) class is named by its euler class, a unitary one by its traces
        for names, triples, real_form in (
            ([eu for eu, _ in pairs], [t for _, t in pairs], ClassLabel.SL2R),
            (su2_triples, su2_triples, ClassLabel.SU2),
        ):
            batch = certify_classes(triples, sigma, real_form, tol)
            for name, report in zip(names, batch):
                if not report.passed:
                    relation, residual = max(report.residuals.items(), key=lambda item: item[1])
                    raise BrieskornError(
                        f"relation residuals exceed tolerance on {params.triple}: class {name}, "
                        f"relation {relation} residual {residual!r}, "
                        f"gap {report.irreducibility_gap!r}, tol {tol:g}"
                    )
            reports += batch
    summary = {
        "params": {
            "a1": params.a1,
            "a2": params.a2,
            "a3": params.a3,
            "a": params.a,
            "input_permutation": list(params.permutation),
        },
        "counts": dataclasses.asdict(counts),
    }
    if verify:
        summary["verification"] = {
            "tol": tol,
            "classes": len(reports),
            "max_residual": max((r.max_residual for r in reports), default=0.0),
            "min_gap": min((r.irreducibility_gap for r in reports), default=math.inf),
            "passed": True,
        }
    return summary, pairs, su2_triples, reports


def build_record(
    params: BrieskornParams,
    sigma: SeifertInvariant,
    source: str,
    verify: bool = False,
    tol: float = 1e-9,
    condition_b: bool = False,
) -> dict:
    """Assemble the full analysis for one sphere; every assertion runs before emission."""
    record, pairs, su2_triples, reports = sphere_summary(params, sigma, verify, tol)
    reports = iter(reports) if verify else itertools.repeat(None)
    leaves: dict = {}
    record["seifert"] = {
        "b": sigma.b,
        "coefficients": list(sigma.coefficients),
        "source": source,
        "euler_number": str(euler_number(sigma)),
        "h1_order": h1_order(sigma),
        "convention_sign": sphere_convention_sign(sigma),
    }
    record["sl2r_classes"] = [
        {
            "euler_class": _euler_entry(eu),
            "cover_h1": abs(eu.cover_euler_number()),
            "label": ClassLabel.SL2R.value,
            **_triple_entry(triple, next(reports), leaves),
        }
        for eu, triple in pairs
    ]
    record["su2_classes"] = [
        {"label": ClassLabel.SU2.value, **_triple_entry(triple, next(reports), leaves)}
        for triple in su2_triples
    ]

    if condition_b:
        reversed_classes = enumerate_condition_b(params)
        partners = {reverse_orientation(eu): (eu, triple) for eu, triple in pairs}
        if set(partners) != set(reversed_classes):
            raise BrieskornError(
                f"orientation reversal is not a bijection on {params.triple}"
            )
        for partner, (eu, triple) in partners.items():
            if not reversed_trace_check(eu, partner, triple, sigma):
                raise BrieskornError(
                    f"reversed-orientation traces disagree for {eu} on {params.triple}"
                )
        record["condition_b_classes"] = [
            {"euler_class": _euler_entry(eu), "reverse_of": _euler_entry(partners[eu][0])}
            for eu in reversed_classes
        ]
    return record


def render_text(record: dict) -> str:
    p = record["params"]
    s = record["seifert"]
    lines = [
        f"Brieskorn sphere Sigma({p['a1']}, {p['a2']}, {p['a3']})   a = {p['a']}",
        "seifert data: {0; (1,%d), (%d,%d), (%d,%d), (%d,%d)}   [%s]"
        % (
            s["b"],
            p["a1"],
            s["coefficients"][0],
            p["a2"],
            s["coefficients"][1],
            p["a3"],
            s["coefficients"][2],
            s["source"],
        ),
        f"euler number {s['euler_number']}   h1 order {s['h1_order']}   convention sign {s['convention_sign']:+d}",
        "counts: total %d | su2 %d | sl2r %d | |casson| %d | sl2c casson %d"
        % tuple(record["counts"][name] for name in CSV_COLUMNS[4:]),
    ]

    def format_euler(eu):
        return "(%d; %s)" % (eu["beta"], ",".join(map(str, eu["coefficients"])))

    def format_triple(entry):
        exact = ", ".join(entry["traces"])
        decimal = ", ".join(f"{v:.12f}" for v in entry["values"])
        suffix = ""
        if "verify" in entry:
            v = entry["verify"]
            outcome = "pass" if v["passed"] else "FAIL"
            suffix = f"   [residual {v['max_residual']:.3e}, gap {v['gap']:.3e}: {outcome}]"
        return f"eps {entry['epsilon']:+d}   ({exact}) = ({decimal}){suffix}"

    if record["sl2r_classes"]:
        lines.append("sl2r classes:")
        for entry in record["sl2r_classes"]:
            lines.append(
                f"  {format_euler(entry['euler_class'])}  cover h1 {entry['cover_h1']}   "
                + format_triple(entry)
            )
    else:
        lines.append("sl2r classes: none (every irreducible class is unitary)")

    if record["su2_classes"]:
        lines.append("su2 classes:")
        for entry in record["su2_classes"]:
            lines.append("  " + format_triple(entry))
    else:
        lines.append("su2 classes: none")

    if "condition_b_classes" in record:
        lines.append("condition-b classes (orientation reversed):")
        for entry in record["condition_b_classes"]:
            lines.append(
                f"  {format_euler(entry['euler_class'])} <- reverse of "
                + format_euler(entry["reverse_of"])
            )
        if not record["condition_b_classes"]:
            lines[-1] += " none"

    if "verification" in record:
        v = record["verification"]
        lines.append(
            "verification: %d classes, max residual %.3e, min gap %.3e, tol %g: PASS"
            % (v["classes"], v["max_residual"], v["min_gap"], v["tol"])
        )
    return "\n".join(lines) + "\n"


def _entry_template(skeleton: dict) -> str:
    """One class-list entry as json.dumps(indent=2) lays it out two levels deep.

    Each leaf of skeleton is a "%s" or "%d" slot, so the slots follow the
    sorted key order of the entry.
    """
    text = json.dumps(skeleton, sort_keys=True, indent=2)
    text = text.replace('"%s"', "%s").replace('"%d"', "%d")
    return "    " + text.replace("\n", "\n    ")


_TRIPLE_SKELETON = {
    "angles": ["%s"] * 3,
    "epsilon": "%d",
    "label": "%s",
    "traces": ["%s"] * 3,
    "values": ["%s"] * 3,
}
_VERIFY_SKELETON = {"verify": {"gap": "%s", "max_residual": "%s", "passed": "%s"}}
_EULER_SKELETON = {"beta": "%d", "coefficients": ["%d"] * 3}
_SL2R_SKELETON = {**_TRIPLE_SKELETON, "cover_h1": "%d", "euler_class": _EULER_SKELETON}
# indexed by whether the entry has a verify block
_SU2_TEMPLATES = tuple(
    _entry_template({**_TRIPLE_SKELETON, **extra}) for extra in ({}, _VERIFY_SKELETON)
)
_SL2R_TEMPLATES = tuple(
    _entry_template({**_SL2R_SKELETON, **extra}) for extra in ({}, _VERIFY_SKELETON)
)
_CONDITION_B_TEMPLATE = _entry_template(
    {"euler_class": _EULER_SKELETON, "reverse_of": _EULER_SKELETON}
)
_json_str = json.encoder.encode_basestring_ascii


def _json_float(x: float) -> str:
    """x as json.dumps writes it: the float repr when finite, else NaN or +-Infinity."""
    return float.__repr__(x) if math.isfinite(x) else json.dumps(x)


class _FloatText(dict):
    """The JSON text of each float seen, computed on first sight.

    A record repeats each trace value across many classes, and the float repr
    is the costliest leaf. Zero is never stored, since 0.0 and -0.0 are one key.
    """

    def __missing__(self, x: float) -> str:
        text = _json_float(x)
        if x:
            self[x] = text
        return text


def _verify_leaves(entry: dict) -> tuple:
    v = entry["verify"]
    return _json_float(v["gap"]), _json_float(v["max_residual"]), "true" if v["passed"] else "false"


def _su2_json(entry: dict, floats: _FloatText) -> str:
    leaves = (
        *map(_json_str, entry["angles"]),
        entry["epsilon"],
        _json_str(entry["label"]),
        *map(_json_str, entry["traces"]),
        *map(floats.__getitem__, entry["values"]),
    )
    if "verify" in entry:
        return _SU2_TEMPLATES[1] % (*leaves, *_verify_leaves(entry))
    return _SU2_TEMPLATES[0] % leaves


def _sl2r_json(entry: dict, floats: _FloatText) -> str:
    eu = entry["euler_class"]
    leaves = (
        *map(_json_str, entry["angles"]),
        entry["cover_h1"],
        entry["epsilon"],
        eu["beta"],
        *eu["coefficients"],
        _json_str(entry["label"]),
        *map(_json_str, entry["traces"]),
        *map(floats.__getitem__, entry["values"]),
    )
    if "verify" in entry:
        return _SL2R_TEMPLATES[1] % (*leaves, *_verify_leaves(entry))
    return _SL2R_TEMPLATES[0] % leaves


def _condition_b_json(entry: dict, floats: _FloatText) -> str:
    eu, rev = entry["euler_class"], entry["reverse_of"]
    return _CONDITION_B_TEMPLATE % (
        eu["beta"], *eu["coefficients"], rev["beta"], *rev["coefficients"]
    )


_CLASS_LIST_WRITERS = {
    "condition_b_classes": _condition_b_json,
    "sl2r_classes": _sl2r_json,
    "su2_classes": _su2_json,
}


def render_json(record: dict) -> str:
    """Exactly json.dumps(record, sort_keys=True, indent=2) + "\\n".

    The class lists, nearly all of the bytes, are written one entry per
    template; the small blocks go through json.dumps and are indented one
    level more, which is safe because indented json.dumps never puts a raw
    newline inside a string.
    """
    blocks = []
    floats = _FloatText()
    for key in sorted(record):
        value = record[key]
        write = _CLASS_LIST_WRITERS.get(key)
        if write is None:
            text = json.dumps(value, sort_keys=True, indent=2).replace("\n", "\n  ")
        elif value:
            text = "[\n" + ",\n".join([write(entry, floats) for entry in value]) + "\n  ]"
        else:
            text = "[]"
        blocks.append("  %s: %s" % (_json_str(key), text))
    return "{\n" + ",\n".join(blocks) + "\n}\n"


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


def build_parser() -> argparse.ArgumentParser:
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
        text = render_csv([record], args.verify)
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
    rows = 0
    sum_sl2c = sum_abs = sum_sl2r = 0
    for params in census_params(args.max_a):
        try:
            sigma = solve_seifert(params)
            # only JSON prints the classes; text and CSV print the counts
            if args.format == "json":
                record = build_record(params, sigma, "canonical", args.verify, args.tol)
            else:
                record = sphere_summary(params, sigma, args.verify, args.tol)[0]
        except BrieskornError as exc:
            print(
                f"census aborted at ({params.a1},{params.a2},{params.a3}): {exc}",
                file=sys.stderr,
            )
            return 1
        counts = record["counts"]
        rows += 1
        sum_sl2c += counts["casson_sl2c"]
        sum_abs += counts["casson_abs"]
        sum_sl2r += counts["sl2r"]
        if args.format == "json":
            out.write(json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n")
        elif args.format == "csv":
            writer.writerow(_csv_row(record, args.verify))
        else:
            out.write(_census_text_row(record) + "\n")
    if sum_sl2c - 2 * sum_abs != sum_sl2r:
        print("census identity sl2c - 2|casson| = sl2r failed in aggregate", file=sys.stderr)
        return 1
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

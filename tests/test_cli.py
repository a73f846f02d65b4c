"""Command line behavior: formats, determinism, exit codes."""

import functools
import hashlib
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from itertools import repeat
from pathlib import Path
from types import SimpleNamespace

import pytest

import brieskorn
import brieskorn.character
import brieskorn.cli
import brieskorn.realize
from brieskorn.character import (
    ClassLabel,
    CountReport,
    PulledBackClasses,
    TraceMemo,
    TraceValue,
    UnitaryClasses,
    enumerate_su2,
    hardest_real_row,
    phi_map,
    trace_table,
)
from brieskorn.cli import (
    _generator_leaves,
    _json_leaf,
    _text_leaf,
    build_parser,
    build_record,
    census_params,
    main,
    parse_seifert_override,
    render_json,
    render_text,
)
from brieskorn.errors import (
    BrieskornError,
    DegenerateAngle,
    InconsistentClassification,
    InvalidSeifertData,
)
from brieskorn.euler import EulerClass, enumerate_condition_b, reverse_orientation
from brieskorn.realize import realize_sl2r, realize_su2, verify_relations
from brieskorn.seifert import (
    canonicalize_params,
    cleared_euler_number,
    h1_order,
    solve_seifert,
    sphere_convention_sign,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_text_235(capsys):
    code, out, err = run(capsys, "analyze", "2", "3", "5")
    assert code == 0
    assert out.startswith("Brieskorn sphere Sigma(2, 3, 5)   a = 30\n")
    assert "counts: total 2 | su2 2 | sl2r 0 | |casson| 1 | sl2c casson 2" in out
    assert "sl2r classes: none (every irreducible class is unitary)" in out


def test_analyze_text_237_lists_both_kinds(capsys):
    code, out, _ = run(capsys, "analyze", "2", "3", "7")
    assert code == 0
    assert "sl2r classes:" in out
    assert "(-1; 1,1,1)  cover h1 1" in out
    assert "su2 classes:" in out
    # canonical data (7,-8) lands on the mirror angle of the b=-1 convention
    assert "2cos(6π/7)" in out
    assert "= (0.000000000000, -1.000000000000, -1.801937735805)" in out


def test_analyze_rejects_non_coprime(capsys):
    code, out, err = run(capsys, "analyze", "4", "6", "9")
    assert code == 2
    assert out == ""
    assert "coprime" in err


def test_analyze_rejects_small_multiplicity(capsys):
    code, _, err = run(capsys, "analyze", "1", "2", "3")
    assert code == 2
    assert "at least 2" in err


def test_analyze_rejects_bad_override(capsys):
    code, _, err = run(capsys, "analyze", "2", "3", "7", "--seifert", "0,1,1,1")
    assert code == 2
    assert "expected +1 or -1" in err


def test_analyze_rejects_malformed_override(capsys):
    code, _, err = run(capsys, "analyze", "2", "3", "7", "--seifert", "0,1,1")
    assert code == 2
    assert "four integers" in err


def test_analyze_rejects_an_empty_override(capsys):
    # an empty override is parsed and refused, not taken as no override
    code, out, err = run(capsys, "analyze", "2", "3", "5", "--seifert=")
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot parse override '':")


@pytest.mark.parametrize(
    "data, code, message",
    [("0,1,2,-8", 0, ""), ("0,2,1,-8", 2, "error: a*(b + sum b_i/a_i) = 8, expected +1 or -1\n")],
    ids=["canonical-order", "typed-order"],
)
def test_seifert_override_pairs_with_the_canonical_multiplicities(capsys, data, code, message):
    # (3, 2, 7) canonicalizes to (2, 3, 7); b1, b2, b3 pair with 2, 3, 7 as the
    # seifert data line prints them, not with 3, 2, 7 as typed
    got, out, err = run(capsys, "analyze", "3", "2", "7", f"--seifert={data}")
    assert (got, err) == (code, message)
    if code == 0:
        assert "seifert data: {0; (1,0), (2,1), (3,2), (7,-8)}   [override]\n" in out


@pytest.mark.parametrize("fmt", ["text", "csv"])
def test_census_text_and_csv_build_no_seifert_block(capsys, monkeypatch, fmt):
    # neither format prints the seifert block, so neither computes a*e
    assert "euler number -1/42   h1 order 1" in run(capsys, "analyze", "2", "3", "7")[1]

    def refuse(sigma):
        raise AssertionError("the seifert block was built")

    monkeypatch.setattr(brieskorn.cli, "cleared_euler_number", refuse)
    code, out, _ = run(capsys, "census", "100", "--format", fmt)
    assert code == 0
    assert len(out.splitlines()) == 8 + (fmt == "csv")


def test_analyze_json_round_trip_and_counts(capsys):
    code, out, _ = run(capsys, "analyze", "2", "3", "7", "--format", "json", "--verify")
    assert code == 0
    record = json.loads(out)
    assert json.dumps(record, sort_keys=True, indent=2) + "\n" == out
    assert record["counts"] == {
        "total": 3,
        "su2": 2,
        "sl2r": 1,
        "casson_abs": 1,
        "casson_sl2c": 3,
    }
    assert record["seifert"]["source"] == "canonical"
    assert record["verification"]["passed"] is True
    assert record["verification"]["classes"] == 3
    assert record["verification"]["max_residual"] < 1e-9
    [entry] = record["sl2r_classes"]
    assert entry["euler_class"] == {"beta": -1, "coefficients": [1, 1, 1]}
    assert entry["verify"]["passed"] is True


def test_analyze_json_override_normalizes_b(capsys):
    code, out, _ = run(
        capsys, "analyze", "2", "3", "7", "--seifert=-1,1,1,1", "--format", "json"
    )
    assert code == 0
    record = json.loads(out)
    assert record["seifert"]["b"] == 0
    assert record["seifert"]["coefficients"] == [1, -2, 1]
    assert "normalized" in record["seifert"]["source"]
    # this data carries the opposite sign convention, e = +1/42
    assert record["seifert"]["euler_number"] == "1/42"
    assert record["seifert"]["convention_sign"] == -1


def reference_record(params, sigma, source, verify=False, tol=1e-9, condition_b=False) -> dict:
    """The analysis of one sphere as a dict, built class by class from the public API.

    render_json must write its stdlib_json, render_text its reference_text, and
    census --format json its compact json.dumps (without condition_b).
    """
    pairs = phi_map(params, sigma)
    unitary = enumerate_su2(params, sigma)
    counts = CountReport.of(params, su2=len(unitary), sl2r=len(pairs))

    def euler(eu):
        return {"beta": eu.beta, "coefficients": list(eu.betas)}

    def entry(triple, label):
        traces = (triple.tx, triple.ty, triple.tz)
        return {
            "label": label,
            "epsilon": triple.epsilon,
            "angles": [str(Fraction(tv.n, tv.q)) for tv in traces],
            "traces": [str(tv) for tv in traces],
            "values": list(triple.values),
        }

    record = {
        "params": {
            "a1": params.a1,
            "a2": params.a2,
            "a3": params.a3,
            "a": params.a,
            "input_permutation": list(params.permutation),
        },
        "seifert": {
            "b": sigma.b,
            "coefficients": list(sigma.coefficients),
            "source": source,
            "euler_number": str(Fraction(cleared_euler_number(sigma), sigma.a)),
            "h1_order": h1_order(sigma),
            "convention_sign": sphere_convention_sign(sigma),
        },
        "counts": {
            name: getattr(counts, name)
            for name in ("total", "su2", "sl2r", "casson_abs", "casson_sl2c")
        },
        "sl2r_classes": [
            {
                **entry(triple, "SL2R"),
                "euler_class": euler(eu),
                "cover_h1": abs(eu.cover_euler_number()),
            }
            for eu, triple in pairs
        ],
        "su2_classes": [entry(triple, "SU2") for triple in unitary],
    }
    if verify:
        # each class on its own, through the one-class wrappers, off the CLI's stacked route
        blocks = []
        for entries, triples, realize, real_form in (
            (record["sl2r_classes"], [triple for _, triple in pairs], realize_sl2r, ClassLabel.SL2R),
            (record["su2_classes"], unitary, realize_su2, ClassLabel.SU2),
        ):
            for e, triple in zip(entries, triples):
                cert = verify_relations(*realize(triple), sigma, real_form, triple.epsilon, tol)
                e["verify"] = {
                    "max_residual": cert.max_residual,
                    "gap": cert.gaps[0].item(),
                    "passed": cert.passed[0].item(),
                }
                blocks.append(e["verify"])
        record["verification"] = {
            "tol": tol,
            "classes": len(blocks),
            "max_residual": max(b["max_residual"] for b in blocks),
            "min_gap": min(b["gap"] for b in blocks),
            "passed": all(b["passed"] for b in blocks),
        }
    if condition_b:
        listed = [EulerClass(params, -2, *row) for row in enumerate_condition_b(params)]
        record["condition_b_classes"] = [
            {"euler_class": euler(eu), "reverse_of": euler(reverse_orientation(eu))} for eu in listed
        ]
    return record


def stdlib_json(record: dict) -> str:
    """The reference render_json must reproduce byte for byte."""
    return json.dumps(record, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize(
    "triple, seifert, verify, condition_b",
    [
        ((2, 3, 5), None, True, True),  # no SL(2,R) classes
        ((2, 3, 7), None, True, True),
        ((2, 3, 7), "-1,1,1,1", True, False),  # source "override (normalized to b=0)"
        ((3, 5, 7), None, False, False),
        ((3, 5, 7), None, False, True),
    ],
)
def test_render_json_matches_stdlib(triple, seifert, verify, condition_b):
    params = canonicalize_params(*triple)
    if seifert:
        sigma, source = parse_seifert_override(seifert, params)
    else:
        sigma, source = solve_seifert(params), "canonical"
    record = build_record(params, sigma, source, verify=verify, condition_b=condition_b)
    reference = reference_record(params, sigma, source, verify=verify, condition_b=condition_b)
    assert render_json(record) == stdlib_json(reference)


@functools.lru_cache(maxsize=None)
def census_records(verify: bool) -> list:
    """(record, reference) for every sphere of census_params(400), with condition b."""
    out = []
    for params in census_params(400):
        sigma = solve_seifert(params)
        out.append(
            (
                build_record(params, sigma, "canonical", verify=verify, condition_b=True),
                reference_record(params, sigma, "canonical", verify=verify, condition_b=True),
            )
        )
    return out


@pytest.mark.parametrize("verify", [False, True], ids=["plain", "verify"])
def test_render_json_matches_stdlib_over_census(verify):
    for record, reference in census_records(verify):
        assert render_json(record) == stdlib_json(reference), reference["params"]


@pytest.mark.parametrize("verify", [False, True], ids=["plain", "verify"])
def test_census_json_lines_match_compact_stdlib(capsys, verify):
    code, out, _ = run(capsys, "census", "400", "--format", "json", *["--verify"] * verify)
    assert code == 0
    lines = out.splitlines()
    references = [reference for _, reference in census_records(verify)]
    assert len(lines) == len(references)
    for line, reference in zip(lines, references):
        # a census lists no condition-b classes
        census = {key: value for key, value in reference.items() if key != "condition_b_classes"}
        assert line == json.dumps(census, sort_keys=True, separators=(",", ":"))


def reference_text(record: dict) -> str:
    """render_text as it was written before its class lines came from fixed templates."""
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
        f"euler number {s['euler_number']}   h1 order {s['h1_order']}   "
        f"convention sign {s['convention_sign']:+d}",
        "counts: total %d | su2 %d | sl2r %d | |casson| %d | sl2c casson %d"
        % tuple(
            record["counts"][name] for name in ("total", "su2", "sl2r", "casson_abs", "casson_sl2c")
        ),
    ]

    def format_euler(eu):
        return "(%d; %s)" % (eu["beta"], ",".join(map(str, eu["coefficients"])))

    def format_triple(entry):
        exact = ", ".join(entry["traces"])
        decimal = "%.12f, %.12f, %.12f" % tuple(entry["values"])
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


@pytest.mark.parametrize("verify", [False, True], ids=["plain", "verify"])
def test_render_text_matches_reference_over_census(verify):
    for record, reference in census_records(verify):
        assert render_text(record) == reference_text(reference), reference["params"]


def test_analyze_csv_single_row(capsys):
    code, out, _ = run(capsys, "analyze", "2", "3", "7", "--format", "csv")
    assert code == 0
    assert out.splitlines() == [
        "a1,a2,a3,a,total,su2,sl2r,casson_abs,casson_sl2c",
        "2,3,7,42,3,2,1,1,3",
    ]


def test_analyze_condition_b_listing(capsys):
    code, out, _ = run(capsys, "analyze", "2", "3", "7", "--condition-b")
    assert code == 0
    assert "condition-b classes (orientation reversed):" in out
    assert "(-2; 1,2,6) <- reverse of (-1; 1,1,1)" in out


def test_build_record_checks_the_sphere_data_per_sphere_not_per_class(monkeypatch):
    # the traces are folded through one TraceMemo per pass and the reversal
    # folds nothing again, so no check runs per class
    calls = []
    h1_order = brieskorn.character.h1_order
    monkeypatch.setattr(
        brieskorn.character, "h1_order", lambda sigma: calls.append(sigma) or h1_order(sigma)
    )
    params = canonicalize_params(7, 11, 13)
    record = build_record(params, solve_seifert(params), "canonical", condition_b=True)
    assert len(record.partners) == len(record.pulled.rows) == 100
    # one TraceMemo serves both class tables of the sphere
    assert len(calls) == 1


def test_build_record_checks_no_coefficient_range_per_class(monkeypatch):
    # the pulled-back rows, the condition-b scan and the reversal all take each
    # coefficient from a range that keeps it in (0, a_i), so no class goes
    # through the check the public EulerClass constructor makes
    calls = []
    post_init = EulerClass.__post_init__
    monkeypatch.setattr(EulerClass, "__post_init__", lambda eu: calls.append(eu) or post_init(eu))
    params = canonicalize_params(7, 11, 13)
    record = build_record(params, solve_seifert(params), "canonical", condition_b=True)
    assert len(record.partners) == len(record.pulled.rows) == 100
    assert calls == []


def test_condition_b_json_makes_no_euler_class_past_the_condition_b_scan(monkeypatch, capsys):
    # the condition-b scan lists integer rows, the reversal is checked on them
    # and every class is written from them, so no EulerClass is made at all
    monkeypatch.setattr(
        EulerClass, "__post_init__", lambda eu: pytest.fail(f"built EulerClass {eu.betas}")
    )
    code, out, _ = run(capsys, "analyze", "7", "11", "13", "--condition-b", "--format", "json")
    assert code == 0
    assert len(json.loads(out)["condition_b_classes"]) == 100
    rows = enumerate_condition_b(canonicalize_params(7, 11, 13))
    assert len(rows) == 100
    assert all(type(row) is tuple and list(map(type, row)) == [int] * 3 for row in rows)


def test_cli_builds_no_euler_class(monkeypatch, capsys):
    # every class is a row from the lattice scan to the output bytes: the
    # pulled-back rows name their classes and the certificates are solved from
    # integer columns
    monkeypatch.setattr(
        EulerClass, "__post_init__", lambda eu: pytest.fail(f"built EulerClass {eu.betas}")
    )
    for argv in (
        ["analyze", "7", "11", "13", "--verify"],
        ["census", "400", "--format", "json"],
    ):
        code, out, _ = run(capsys, *argv)
        assert code == 0, argv
        assert out


@pytest.mark.parametrize("change", ["drop", "swap", "duplicate"])
def test_reversal_check_refuses_a_condition_b_list_it_does_not_match(monkeypatch, capsys, change):
    params = canonicalize_params(7, 11, 13)
    listed = enumerate_condition_b(params)
    if change == "drop":
        listed = listed[:50] + listed[51:]
    elif change == "swap":  # coefficients whose sum is not above 2
        listed = listed[:50] + [(1, 1, 1)] + listed[51:]
    else:  # a row of the list, twice
        listed = listed[:50] + [listed[51]] + listed[51:]
    assert len(listed) in (99, 100)
    monkeypatch.setattr(brieskorn.cli, "enumerate_condition_b", lambda p: list(listed))
    message = "orientation reversal is not a bijection on (7, 11, 13)"
    with pytest.raises(BrieskornError, match=re.escape(message)):
        build_record(params, solve_seifert(params), "canonical", condition_b=True)
    assert run(capsys, "analyze", "7", "11", "13", "--condition-b") == (
        1, "", f"assertion failure: {message}\n"
    )


def test_analyze_output_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    code, out, _ = run(
        capsys, "analyze", "2", "3", "7", "--format", "json", "-o", str(target)
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["params"]["a"] == 42


def test_analyze_output_file_in_missing_directory(tmp_path, capsys):
    target = tmp_path / "missing" / "x"
    code, out, err = run(capsys, "analyze", "2", "3", "7", "-o", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write {target}: ")
    assert not target.exists()


@pytest.mark.parametrize("command", [["analyze", "2", "3", "7"], ["census", "30"]], ids=" ".join)
@pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
def test_tol_must_be_finite_and_positive(capsys, command, tol):
    with pytest.raises(SystemExit) as exit_info:
        main([*command, "--verify", "--tol", tol])
    captured = capsys.readouterr()
    assert exit_info.value.code == 2
    assert captured.out == ""
    assert f"argument --tol: must be finite and positive, got '{tol}'" in captured.err


def test_analyze_text_identical_under_input_permutation(capsys):
    _, canonical, _ = run(capsys, "analyze", "2", "3", "7")
    _, permuted, _ = run(capsys, "analyze", "7", "2", "3")
    assert canonical == permuted


def test_analyze_json_records_input_permutation(capsys):
    _, out, _ = run(capsys, "analyze", "7", "2", "3", "--format", "json")
    assert json.loads(out)["params"]["input_permutation"] == [1, 2, 0]


def test_analyze_deterministic(capsys):
    _, first, _ = run(capsys, "analyze", "3", "5", "7", "--format", "json", "--condition-b")
    _, second, _ = run(capsys, "analyze", "3", "5", "7", "--format", "json", "--condition-b")
    assert first == second


def test_verify_failure_names_class_relation_and_residual(capsys):
    # at tol 1e-16 the first class listed, (-1; 1,1,1), fails on float round-off
    code, out, err = run(capsys, "analyze", "2", "3", "7", "--verify", "--tol", "1e-16")
    assert code == 1
    assert out == ""
    params = canonicalize_params(2, 3, 7)
    sigma = solve_seifert(params)
    [(eu, triple)] = phi_map(params, sigma)
    cert = verify_relations(*realize_sl2r(triple), sigma, ClassLabel.SL2R, triple.epsilon, 1e-16)
    relation, residual = max(zip(cert.relations, cert.residuals[0].tolist()), key=lambda item: item[1])
    assert err.startswith(
        "assertion failure: relation residuals exceed tolerance on (2, 3, 7): "
        f"class (-1; 1,1,1), relation {relation} residual {residual!r}, "
    )
    assert re.search(r"relation [xyz]\^[237] residual ", err)


def test_verify_failure_on_the_gap_alone_names_the_gap(capsys):
    # at tol 0.5 every relation of (-1; 1,1,1) holds, but its gap |kappa| = 0.247 does not clear tol
    code, out, err = run(capsys, "analyze", "2", "3", "7", "--verify", "--tol", "0.5")
    assert code == 1
    assert out == ""
    params = canonicalize_params(2, 3, 7)
    sigma = solve_seifert(params)
    [(eu, triple)] = phi_map(params, sigma)
    cert = verify_relations(*realize_sl2r(triple), sigma, ClassLabel.SL2R, triple.epsilon, 0.5)
    assert cert.max_residual < 0.5
    assert err == (
        "assertion failure: commutator gap not above tolerance on (2, 3, 7): "
        f"class (-1; 1,1,1), gap {cert.gaps[0].item()!r}, tol 0.5\n"
    )
    code, _, err = run(capsys, "census", "100", "--verify", "--tol", "0.3")
    assert code == 1
    assert "commutator gap not above tolerance on (2, 3, 7)" in err


def test_verify_failure_at_first_float_defect_is_pinned(capsys):
    # (4,3,127) at a = 1524 is the smallest sphere whose true classes fail
    # tol 1e-9 on float64 round-off; the message pins the class, relation,
    # residual and gap bit for bit
    code, out, err = run(capsys, "analyze", "4", "3", "127", "--verify")
    assert code == 1
    assert out == ""
    assert err == (
        "assertion failure: relation residuals exceed tolerance on (4, 3, 127): "
        "class (-1; 1,1,1), relation z^127 residual 1.0284785100061874e-09, "
        "gap 5.825114620410716, tol 1e-09\n"
    )


def test_unitary_stack_not_certified_after_a_real_class_fails(capsys, monkeypatch):
    certify = brieskorn.realize.certify_columns
    forms = []

    def recording(tables, classes, sigma, real_form, tol):
        forms.append(real_form)
        return certify(tables, classes, sigma, real_form, tol)

    monkeypatch.setattr(brieskorn.realize, "certify_columns", recording)
    assert run(capsys, "analyze", "4", "3", "127", "--verify")[0] == 1
    assert forms == [ClassLabel.SL2R]
    assert run(capsys, "analyze", "4", "3", "125", "--verify")[0] == 0
    assert forms == [ClassLabel.SL2R, ClassLabel.SL2R, ClassLabel.SU2]


def test_verify_builds_no_unitary_view(capsys, monkeypatch):
    # the unitary classes are certified from their integer rows, with no
    # CharacterTriple view, and the pulled-back rows are checked in one pass
    # over their keys: a passing run asks the memo for at most one view, of a
    # pulled-back key, for the one classify call
    params = canonicalize_params(7, 11, 13)
    memo = TraceMemo(params, solve_seifert(params))
    pulled_keys, unitary_keys = PulledBackClasses(memo).keys, UnitaryClasses(memo).keys
    views = TraceMemo.triples
    requested = []

    def recording(self, keys):
        keys = list(keys)
        requested.extend(keys)
        return views(self, keys)

    monkeypatch.setattr(TraceMemo, "triples", recording)
    code, out, _ = run(capsys, "analyze", "7", "11", "13", "--verify")
    assert code == 0
    assert "su2 classes:" in out and "verification: " in out
    assert len(pulled_keys) > 1 and len(requested) <= 1
    assert set(requested) <= set(pulled_keys)
    assert not set(requested) & set(unitary_keys)
    assert not hasattr(brieskorn.realize, "_solve")


def test_parser_built_once_keeps_no_state_between_calls(capsys):
    assert build_parser() is build_parser()
    code, out, _ = run(capsys, "analyze", "7", "11", "13", "--verify")
    assert code == 0 and "verification: " in out
    code, out, _ = run(capsys, "analyze", "7", "11", "13")
    assert code == 0 and "verification" not in out
    # a usage error exits 2 with what a freshly built parser writes, every time
    errors = []
    for parse in (main, build_parser().parse_args, build_parser.__wrapped__().parse_args, main):
        with pytest.raises(SystemExit) as exit_info:
            parse(["analyze", "7", "11"])
        assert exit_info.value.code == 2
        errors.append(capsys.readouterr().err)
    assert errors == [errors[0]] * 4
    assert errors[0].startswith("usage: brieskorn analyze ")
    assert errors[0].endswith("error: the following arguments are required: a3\n")


def test_numpy_loads_only_to_certify():
    script = "\n".join(
        [
            "import sys",
            "import brieskorn",
            "assert 'fractions' not in sys.modules",
            "from brieskorn.cli import main",
            "assert 'numpy' not in sys.modules",
            "main(['census', '100'])",
            "assert 'fractions' not in sys.modules",
            "main(['analyze', '4', '3', '125', '--condition-b', '--format', 'json'])",
            "assert 'numpy' not in sys.modules",
            "assert 'fractions' not in sys.modules",
            "main(['analyze', '2', '3', '7', '--verify'])",
            "assert 'numpy' in sys.modules",
            "assert 'fractions' not in sys.modules",
            "assert all(hasattr(brieskorn, name) for name in brieskorn.__all__)",
        ]
    )
    src = Path(brieskorn.__file__).resolve().parent.parent
    done = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr


def test_census_30_single_row(capsys):
    code, out, err = run(capsys, "census", "30")
    assert code == 0
    assert out.splitlines() == [
        "(2,3,5) a=30 total=2 su2=2 sl2r=0 |casson|=1 sl2c=2"
    ]
    assert "census ok: 1 spheres" in err


def test_census_300_stderr_is_pinned(capsys):
    code, _, err = run(capsys, "census", "300")
    assert code == 0
    assert err == "census ok: 63 spheres, aggregate identity sl2c - 2|casson| = sl2r = 512\n"


def test_census_rejects_small_bound(capsys):
    code, out, err = run(capsys, "census", "29")
    assert code == 2
    assert out == ""
    assert "max_a >= 30" in err


def test_census_json_lines_round_trip(capsys):
    code, out, err = run(capsys, "census", "210", "--format", "json")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 38
    for line in lines:
        assert json.dumps(json.loads(line), sort_keys=True, separators=(",", ":")) == line
    products = [json.loads(line)["params"]["a"] for line in lines]
    assert products == sorted(products)
    assert "census ok: 38 spheres" in err


def test_census_csv_row_identities(capsys):
    code, out, _ = run(capsys, "census", "210", "--format", "csv")
    assert code == 0
    header, *rows = out.splitlines()
    assert header == "a1,a2,a3,a,total,su2,sl2r,casson_abs,casson_sl2c"
    assert rows[0] == "2,3,5,30,2,2,0,1,2"
    assert rows[1] == "2,3,7,42,3,2,1,1,3"
    assert "3,5,7,105,12,8,4,4,12" in rows
    for row in rows:
        a1, a2, a3, a, total, su2, sl2r, cabs, csl2c = map(int, row.split(","))
        assert a == a1 * a2 * a3
        assert total == su2 + sl2r
        assert cabs == su2 // 2 and su2 % 2 == 0
        assert csl2c - 2 * cabs == sl2r


def test_census_verify_appends_columns(capsys):
    code, out, _ = run(capsys, "census", "70", "--verify", "--format", "csv")
    assert code == 0
    header, *rows = out.splitlines()
    assert header == "a1,a2,a3,a,total,su2,sl2r,casson_abs,casson_sl2c,max_residual,min_gap"
    for row in rows:
        parts = row.split(",")
        assert float(parts[-2]) < 1e-9
        assert float(parts[-1]) > 1e-9


def test_census_deterministic(capsys):
    _, first, _ = run(capsys, "census", "120", "--format", "json")
    _, second, _ = run(capsys, "census", "120", "--format", "json")
    assert first == second


def corrupt_pulled_back_row(monkeypatch, triple, corrupt):
    """Hand build_record the sphere triple's pulled-back table with its last row changed by corrupt.

    corrupt(memo, keys) edits the keys, or the trace values the memo holds
    for them, after both class tables are built, so that the table's own
    injectivity check and the unitary table's kappa check have passed.
    """

    class Corrupted(UnitaryClasses):
        def __init__(self, memo):
            super().__init__(memo)
            if memo.params.triple == triple:
                corrupt(memo, pulled[-1].keys)

    class Recorded(PulledBackClasses):
        def __init__(self, memo):
            super().__init__(memo)
            pulled.append(self)

    pulled = []
    monkeypatch.setattr(brieskorn.cli, "PulledBackClasses", Recorded)
    monkeypatch.setattr(brieskorn.cli, "UnitaryClasses", Corrupted)


def assert_refused(capsys, triple, max_a, kind, message):
    """build_record, analyze and census each refuse the sphere triple with the same error.

    census max_a ends at the sphere, so it prints the lines of the spheres
    before it, and aborts on it.
    """
    params = canonicalize_params(*triple)
    with pytest.raises(kind) as refused:
        build_record(params, solve_seifert(params), "canonical")
    assert str(refused.value) == message
    assert run(capsys, "analyze", *map(str, triple)) == (1, "", f"assertion failure: {message}\n")
    code, out, err = run(capsys, "census", str(max_a))
    spheres = census_params(max_a)
    assert spheres[-1].triple == triple
    assert (code, len(out.splitlines())) == (1, len(spheres) - 1)
    assert err == "census aborted at (%d,%d,%d): %s\n" % (*triple, message)


def test_census_fails_when_a_pulled_back_class_is_classified_unitary(monkeypatch, capsys):
    # the last of (3,5,7)'s four pulled-back rows, (-1; 1,2,1), made the key
    # row of a unitary class: the one-pass check refuses it on its window
    def unitary(memo, keys):
        keys[-1] = UnitaryClasses(memo).keys[0]

    corrupt_pulled_back_row(monkeypatch, (3, 5, 7), unitary)
    assert_refused(
        capsys, (3, 5, 7), 105, InconsistentClassification,
        "pulled-back class (-1; 1,2,1) lies in the closed unitary window: keys (1, 2, 2), eps -1",
    )


def _wall_value(memo, keys):
    # no key row of a sphere lies on a reducible wall: its a_i are pairwise
    # coprime, so r3/a3 is never a folded sum or difference of r1/a1 and
    # r2/a2. So the row (1, 2, 6) keeps its keys, and the memo's table float
    # under its second key becomes 2cos(11pi/21), with 1/3 + 11/21 = 6/7 on
    # the upper wall; no other pulled-back row of (3,5,7) reads that key.
    # The window test reads the keys, so the row passes it, and the kappa
    # test on the table floats refuses it
    memo.generators[1][2] = TraceValue(11, 21).value


def _raise_kappa_tolerance(monkeypatch):
    # kappa of (2,3,13)'s second pulled-back row is 0.136; every row and
    # unitary class before it clears 0.15
    monkeypatch.setattr(brieskorn.character, "KAPPA_TOLERANCE", 0.15)


@pytest.mark.parametrize(
    "way, triple, max_a, kind, message",
    [
        ("zero key", (3, 5, 7), 105, DegenerateAngle,
         "pulled-back class (-1; 1,2,1) has a key outside (0, a_i): keys (0, 2, 6), eps -1"),
        ("a_i key", (3, 5, 7), 105, DegenerateAngle,
         "pulled-back class (-1; 1,2,1) has a key outside (0, a_i): keys (1, 5, 6), eps -1"),
        ("reducible wall", (3, 5, 7), 105, InconsistentClassification,
         "pulled-back class (-1; 1,2,1) has kappa = 0.0 on the trace tables"),
        ("kappa", (2, 3, 13), 78, InconsistentClassification,
         "pulled-back class (-1; 1,1,2) has kappa = 0.1361294934623114 on the trace tables"),
    ],
    ids=["zero key", "a_i key", "reducible wall", "kappa"],
)
def test_pulled_back_check_refuses_a_corrupted_row(
    monkeypatch, capsys, way, triple, max_a, kind, message
):
    if way == "kappa":
        _raise_kappa_tolerance(monkeypatch)
    else:
        corrupt = {
            "zero key": lambda memo, keys: keys.__setitem__(-1, (0, *keys[-1][1:])),
            "a_i key": lambda memo, keys: keys.__setitem__(-1, (keys[-1][0], 5, *keys[-1][2:])),
            "reducible wall": _wall_value,
        }[way]
        corrupt_pulled_back_row(monkeypatch, triple, corrupt)
    assert_refused(capsys, triple, max_a, kind, message)


def test_pulled_back_parity_refuses_a_flipped_epsilon(monkeypatch, capsys):
    # epsilon flipped on every pulled-back row whose cover order is divisible by 5: the
    # traces still make a real class, so only the parity test (-1)**r_i = eps**b_i can
    # refuse the row. (-1; 1,1,1) of (7,11,13) has cover order 5 and all keys even
    keys_for_order = TraceMemo._keys_for_order

    def flipped(memo, orders):
        orders = list(orders)
        return [
            (r1, r2, r3, -eps if order % 5 == 0 else eps)
            for order, (r1, r2, r3, eps) in zip(orders, keys_for_order(memo, orders))
        ]

    monkeypatch.setattr(TraceMemo, "_keys_for_order", flipped)
    assert run(capsys, "analyze", "7", "11", "13") == (
        1,
        "",
        "assertion failure: pulled-back class (-1; 1,1,1) breaks (-1)**r_i = eps**b_i: "
        "keys (6, 10, 12), eps -1\n",
    )
    code, out, err = run(capsys, "census", "3000", "--format", "json")
    assert (code, len(out.splitlines())) == (1, 3)  # the spheres before (2,3,11)
    assert err == (
        "census aborted at (2,3,11): pulled-back class (-1; 1,1,1) breaks "
        "(-1)**r_i = eps**b_i: keys (1, 2, 10), eps +1\n"
    )


def test_one_pass_refuses_a_row_that_classify_would_pass(monkeypatch, capsys):
    # the last pulled-back row of (3,5,7), (-1; 1,2,1), gets the keys (1, 0, 6): r2 keeps
    # its parity and the table kappa is 7.85, so only the key range refuses the row.
    # classify is made to label every view SL2R, so the one pass alone must refuse it
    params = canonicalize_params(3, 5, 7)
    assert PulledBackClasses(TraceMemo(params, solve_seifert(params))).keys[-1] == (1, 2, 6, -1)
    kappa = brieskorn.character._kappa(*(trace_table(ai)[r] for ai, r in zip((3, 5, 7), (1, 0, 6))))
    assert round(kappa, 2) == 7.85
    corrupt_pulled_back_row(monkeypatch, (3, 5, 7), lambda memo, keys: keys.__setitem__(-1, (1, 0, 6, -1)))
    monkeypatch.setattr(brieskorn.cli, "classify", lambda triple: ClassLabel.SL2R)
    assert_refused(
        capsys, (3, 5, 7), 105, DegenerateAngle,
        "pulled-back class (-1; 1,2,1) has a key outside (0, a_i): keys (1, 0, 6), eps -1",
    )


def test_classify_checks_the_row_the_pass_hands_back(monkeypatch, capsys):
    # classify labels one view per sphere with pulled-back classes, the row
    # nearest a wall, and any label but SL2R refuses the sphere; (2,3,5) has
    # no pulled-back class, so census 42 calls it on (2,3,7) alone
    views = []

    def unitary(triple):
        views.append(triple)
        return ClassLabel.SU2

    monkeypatch.setattr(brieskorn.cli, "classify", unitary)
    params = canonicalize_params(2, 3, 7)
    memo = TraceMemo(params, solve_seifert(params))
    table = PulledBackClasses(memo)
    hardest = hardest_real_row(table)
    assert_refused(
        capsys, (2, 3, 7), 42, InconsistentClassification,
        "pulled-back class (-1; %d,%d,%d) classified as SU2" % table.rows[hardest][:3],
    )
    assert views == memo.triples(table.keys[hardest : hardest + 1]) * 3


def test_census_fails_when_a_unitary_row_is_missing(monkeypatch, capsys):
    # the census path scans X0 once, so CountReport.of is its one unitary count check
    class Short(UnitaryClasses):
        def __init__(self, memo):
            super().__init__(memo)
            if memo.params.triple == (3, 5, 7):
                del self.rows[3]

    monkeypatch.setattr(brieskorn.cli, "UnitaryClasses", Short)
    code, out, err = run(capsys, "census", "1000")
    assert code == 1
    assert len(out.splitlines()) == 9  # the spheres before (3,5,7)
    assert err == "census aborted at (3,5,7): total 12 != su2 7 + sl2r 4\n"


def test_unitary_check_refuses_a_corrupted_table_float(monkeypatch, capsys):
    # generator 1's table float under the l1 of (7,11,13)'s first unitary row is
    # made 100.0, so every row that reads it has kappa >= 100**2 - 4*100 - 4 > 0.
    # The check makes the rows with epsilon -1 first, each key ascending, and
    # names the kappa, keys and epsilon of the first row that fails, here that first row
    params = canonicalize_params(7, 11, 13)
    memo = TraceMemo(params, solve_seifert(params))
    first = min(UnitaryClasses(memo).rows, key=lambda row: (row[3], row))
    _, traces2, traces3 = memo.generators
    kappa = brieskorn.character._kappa(100.0, traces2[first[1]], traces3[first[2]])
    assert kappa > 0
    trace_table = brieskorn.character.trace_table

    def corrupted(q):
        table = trace_table(q)
        if q == 7:
            table[first[0]] = 100.0
        return table

    monkeypatch.setattr(brieskorn.character, "trace_table", corrupted)
    message = f"unitary triple with kappa = {kappa}: keys {first[:3]}, eps {first[3]:+d}"
    assert run(capsys, "analyze", "7", "11", "13") == (1, "", f"assertion failure: {message}\n")


def test_census_memos_share_the_tables_of_the_smaller_multiplicities(monkeypatch, capsys):
    # census 1000 reads 1,239 generators of 413 spheres. Every memo takes
    # trace_table(q) for q*q <= 1000 from the command's one store, which
    # holds the two smaller multiplicities of every sphere and nothing
    # more; the table of a larger a_i is the memo's own. The store is read
    # only. The output is that of records whose memos each built their own
    # tables, which is build_record's default
    built, memos, stores = build_record, [], []

    def recording(*args):
        # the store is build_record's last argument
        stores.append(args[-1])
        record = built(*args)
        memos.append(record.pulled.memo)
        return record

    monkeypatch.setattr(brieskorn.cli, "build_record", recording)
    code, out, _ = run(capsys, "census", "1000", "--verify", "--format", "json")
    assert code == 0
    store = stores[0]
    assert all(held is store for held in stores) and len(memos) == 413
    assert sorted(store) == list(range(2, 32))
    assert all(table == trace_table(q) for q, table in store.items())
    for memo in memos:
        assert all(ai in store for ai in sorted(memo.params.triple)[:2]), memo.params.triple
        for ai, table in zip(memo.params.triple, memo.generators):
            assert (table is store.get(ai)) == (ai * ai <= 1000), memo.params.triple
    fresh = [built(params, solve_seifert(params), "canonical", True) for params in census_params(1000)]
    assert fresh[0].pulled.memo.generators[0] is not fresh[1].pulled.memo.generators[0]
    assert [memo.params for memo in memos] == [record.pulled.memo.params for record in fresh]
    assert out == "".join(render_json(record, compact=True) for record in fresh)


def test_writer_leaves_are_the_trace_value_texts():
    # the writers make a printed trace's texts from its table float and its
    # angle r/a_i reduced by the gcd: every key of every table census 3000
    # reads, and of three wide spheres, must print as its TraceValue does.
    # Each table goes through _generator_leaves as a one-generator record
    # whose rows name every key
    wide = [canonicalize_params(*t) for t in ((2, 3, 6007), (7, 11, 2003), (2, 5, 100003))]
    tables = {ai: trace_table(ai) for params in census_params(3000) + wide for ai in params.triple}
    for ai, table in tables.items():
        memo = SimpleNamespace(params=SimpleNamespace(triple=(ai,)), generators=(table,))
        keys = [(r,) for r in range(ai + 1)]
        record = SimpleNamespace(pulled=SimpleNamespace(memo=memo, keys=keys), unitary=SimpleNamespace(rows=[]))
        [text] = _generator_leaves(record, _text_leaf)
        [json_texts] = _generator_leaves(record, _json_leaf)
        assert len(text) == len(json_texts) == ai + 1
        for r, tv in enumerate(map(TraceValue, range(ai + 1), repeat(ai))):
            assert text[r] == (str(tv), "%.12f" % tv.value), (r, ai)
            assert json_texts[r] == ('"%d/%d"' % (tv.n, tv.q), json.dumps(str(tv)), repr(tv.value)), (r, ai)


def test_census_fails_when_su2_is_not_twice_the_casson_invariant(monkeypatch, capsys):
    # CountReport.of ties every sphere's su2 count to the Fintushel-Stern lambda
    casson = brieskorn.character.casson_invariant
    monkeypatch.setattr(
        brieskorn.character,
        "casson_invariant",
        lambda params: casson(params) + (params.triple == (3, 5, 7)),
    )
    code, out, err = run(capsys, "census", "1000")
    assert (code, len(out.splitlines())) == (1, 9)  # the spheres before (3,5,7)
    assert err == "census aborted at (3,5,7): su2 count 8 on (3, 5, 7) is not 2|casson| = 10\n"


def test_census_fails_when_two_pulled_back_triples_collide(monkeypatch, capsys):
    enumerate_X0 = brieskorn.character.enumerate_X0
    monkeypatch.setattr(brieskorn.character, "enumerate_X0", lambda params: enumerate_X0(params) * 2)
    assert run(capsys, "census", "1000") == (
        1,
        "(2,3,5) a=30 total=2 su2=2 sl2r=0 |casson|=1 sl2c=2\n",
        "census aborted at (2,3,7): distinct euler classes of (2, 3, 7) share a trace triple\n",
    )


def test_census_params_ordering_and_bound():
    triples = census_params(210)
    products = [p.a for p in triples]
    assert products == sorted(products)
    assert all(p.a <= 210 for p in triples)
    at_bound = [p.triple for p in triples if p.a == 210]
    assert at_bound == sorted(at_bound)
    assert len(set(p.triple for p in triples)) == len(triples)


def test_parse_seifert_override_keeps_b_zero_data():
    params = canonicalize_params(2, 3, 7)
    sigma, source = parse_seifert_override("0,1,-2,1", params)
    assert sigma.b == 0
    assert sigma.coefficients == (1, -2, 1)
    assert source == "override"


def test_parse_seifert_override_rejects_garbage():
    params = canonicalize_params(2, 3, 7)
    with pytest.raises(InvalidSeifertData):
        parse_seifert_override("0,one,2,3", params)


# stdout sha256 of each command, taken with Python 3.11.7 on x86-64 Linux;
# the float columns depend on the platform's libm, so another platform may
# need its own digests. The first four date from before the integer angle
# lattice, the next two from before the cover order moved onto EulerClass,
# the next from before certification moved onto matrix stacks, the next two
# from before render_json wrote the class lists from per-entry templates, the
# next two from before certificates became arrays, the next from before
# each trace value was folded once per sphere, and the last from before the
# checks that restate other checks were dropped. The six commands with
# --verify date from the SU(2) stacks' products on their entry arrays, which
# moved the last bits of SU(2) residuals and gaps. The last entry dates from
# before the SU(2) stacks became four separate entry arrays.
PINNED_STDOUT = {
    ("census", "1000"): "1119ad93483e3995215ace91f56781803534538ad7351bbc8be4d1fc62f8c529",
    ("census", "1000", "--format", "csv"): (
        "5ebc4be086b23d2a465254683fb91eb217d676f681c2b840e663417bedac6447"
    ),
    ("census", "1000", "--format", "json"): (
        "d8b19ea66d1192cff909c58f78ab8c0606197c48f34c08bc5756781518e85a2d"
    ),
    ("analyze", "4", "3", "125", "--condition-b"): (
        "b6a2ef512f4696c99a44d95110092acf908b1ccfc3b4611dd13712d753edc98e"
    ),
    # cover_h1 and condition_b_classes in JSON
    ("analyze", "3", "5", "7", "--format", "json", "--condition-b"): (
        "3e74ffe03e2f92583916b245f85d2fd2138bef82bf8508edfa17aea12a1eaae9"
    ),
    # convention sign -1 and odd coefficients
    ("analyze", "2", "3", "7", "--seifert=0,-1,-2,8", "--condition-b", "--verify"): (
        "46eb4ae30597490f4b5bf217487f38681d8663e57911c2161da8e103962a40a3"
    ),
    # every class's residual and gap, printed with repr
    ("analyze", "3", "5", "7", "--verify", "--format", "json"): (
        "06f008c31939c9de062d015cab2617a7be6c24019c2d9b24874d18898f9a5d00"
    ),
    # no SL(2,R) classes: an empty class list
    ("analyze", "2", "3", "5", "--format", "json"): (
        "fdbf7c7fcdfda66a90e5122dc3a6e532338cbf55595bc0eb5dc232e5940ef3b8"
    ),
    # both class templates with their verify blocks, and the condition-b template
    ("analyze", "2", "3", "7", "--verify", "--condition-b", "--format", "json"): (
        "55c5f028433ab761ec4a08e9ef1a4cf98c5c0901258cff53e5eb935c0c7b5c1b"
    ),
    # each sphere's max_residual and min_gap, printed with repr
    ("census", "300", "--verify", "--format", "csv"): (
        "4fa6e79b6f041346ff476d357a86f5fd0101fb0bd06601f7beacbfc5d0433872"
    ),
    # an empty SL(2,R) stack under --verify
    ("analyze", "2", "3", "5", "--verify", "--format", "json"): (
        "a8e54e64416105b7efbb22918b4ed570998e8f22fd8ccd54f1507093f9f70184"
    ),
    # classes sharing each trace value many times over: every float, residual and reversal entry
    ("analyze", "7", "11", "13", "--verify", "--condition-b", "--format", "json"): (
        "9826a220475e740ab9aa7aef207f338419fb85fe3d619da922349bd6409f4148"
    ),
    # the reversal listing and every shared trace value as text
    ("analyze", "7", "11", "13", "--condition-b"): (
        "65760d3d47e02592923f66a8f6e31232f3ddd623fb8996e7fe88d3e879e04344"
    ),
    # SU(2) bits at stack scale: every residual and gap of 474 SU(2) and 702 SL(2,R) classes
    ("analyze", "8", "25", "29", "--verify", "--format", "json"): (
        "d7cd599c34de30c56c2e2b18ee24ee0c4b6b66267721c0a37b812d59f9847229"
    ),
}


@pytest.mark.parametrize("argv", list(PINNED_STDOUT), ids=" ".join)
def test_stdout_byte_identical_to_pinned_digest(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_STDOUT[argv]

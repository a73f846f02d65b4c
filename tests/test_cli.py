"""Command line behavior: formats, determinism, exit codes."""

import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import brieskorn
import brieskorn.realize
from brieskorn.character import ClassLabel, phi_map
from brieskorn.cli import build_record, census_params, main, parse_seifert_override, render_json
from brieskorn.errors import InvalidSeifertData
from brieskorn.realize import realize_sl2r, verify_relations
from brieskorn.seifert import canonicalize_params, solve_seifert


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
    assert render_json(record) == stdlib_json(record)


@pytest.mark.parametrize("verify", [False, True], ids=["plain", "verify"])
def test_render_json_matches_stdlib_over_census(verify):
    for params in census_params(400):
        record = build_record(
            params, solve_seifert(params), "canonical", verify=verify, condition_b=True
        )
        assert render_json(record) == stdlib_json(record), params.triple


def test_render_json_matches_stdlib_on_floats_it_never_meets():
    params = canonicalize_params(2, 3, 7)
    record = build_record(params, solve_seifert(params), "canonical", verify=True)
    sl2r, su2 = record["sl2r_classes"][0], record["su2_classes"][0]
    # a float memoized as 0.0 must not answer for -0.0, nor a finite one for nan
    sl2r["values"] = [0.0, -0.0, math.nan]
    su2["values"] = [-0.0, 0.0, math.inf]
    sl2r["verify"].update(gap=-math.inf, max_residual=math.nan, passed=False)
    record["verification"]["min_gap"] = math.inf
    record["su2_classes"][1]["values"] = [1e-300, -2.5, 1e16]
    assert render_json(record) == stdlib_json(record)


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
    report = verify_relations(*realize_sl2r(triple), sigma, triple.epsilon, 1e-16)
    relation, residual = max(report.residuals.items(), key=lambda item: item[1])
    assert err.startswith(
        "assertion failure: relation residuals exceed tolerance on (2, 3, 7): "
        f"class (-1; 1,1,1), relation {relation} residual {residual!r}, "
    )
    assert re.search(r"relation [xyz]\^[237] residual ", err)


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
    certify = brieskorn.realize.certify_classes
    forms = []

    def recording(triples, sigma, real_form, tol):
        forms.append(real_form)
        return certify(triples, sigma, real_form, tol)

    monkeypatch.setattr(brieskorn.realize, "certify_classes", recording)
    assert run(capsys, "analyze", "4", "3", "127", "--verify")[0] == 1
    assert forms == [ClassLabel.SL2R]
    assert run(capsys, "analyze", "4", "3", "125", "--verify")[0] == 0
    assert forms == [ClassLabel.SL2R, ClassLabel.SL2R, ClassLabel.SU2]


def test_numpy_loads_only_to_certify():
    script = "\n".join(
        [
            "import sys",
            "import brieskorn",
            "from brieskorn.cli import main",
            "assert 'numpy' not in sys.modules",
            "main(['census', '100'])",
            "main(['analyze', '4', '3', '125', '--condition-b', '--format', 'json'])",
            "assert 'numpy' not in sys.modules",
            "main(['analyze', '2', '3', '7', '--verify'])",
            "assert 'numpy' in sys.modules",
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
# the next from before certification moved onto matrix stacks, the last two
# from before render_json wrote the class lists from per-entry templates.
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
        "1ac3e2ba62fe7965f2e0667f099193880210e640c92d2da06c72bd81ca459ff8"
    ),
    # every class's residual and gap, printed with repr
    ("analyze", "3", "5", "7", "--verify", "--format", "json"): (
        "a8f36deb3d72d83fddf0734315f1d50b96d407db76c56d112d28648e39934617"
    ),
    # no SL(2,R) classes: an empty class list
    ("analyze", "2", "3", "5", "--format", "json"): (
        "fdbf7c7fcdfda66a90e5122dc3a6e532338cbf55595bc0eb5dc232e5940ef3b8"
    ),
    # both class templates with their verify blocks, and the condition-b template
    ("analyze", "2", "3", "7", "--verify", "--condition-b", "--format", "json"): (
        "47fa47dcf44ab5fa2d0dc69447ea10fa49cedf2f37e2e90c88b1d48af8198002"
    ),
}


@pytest.mark.parametrize("argv", list(PINNED_STDOUT), ids=" ".join)
def test_stdout_byte_identical_to_pinned_digest(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_STDOUT[argv]

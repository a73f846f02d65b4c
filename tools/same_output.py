"""Check that the CLI gives the same output at a git revision and in the working tree.

    python tools/same_output.py REV

The script extracts src/ at REV into a temporary directory with git archive.
It runs one fixed command set through brieskorn.cli.main against that source
and against the working tree's src/, in one subprocess each, and compares
the exit code and the sha256 of stdout and of stderr. It prints the number
of commands, then each command whose exit code, stdout or stderr differ,
and exits 1 if any differ. It runs the differing commands once more on each
side to show, for each differing stream, the first differing line: its
number, then the old and the new line, each cut to 160 characters from a
little before the first differing character. The command set:

- census 3000 and census 1000 --verify, each in text, csv and json;
- census 4000 --verify in text and json, which abort at (4,3,127) on the
  known float64 certificate failure, after 758 spheres, so they pin a
  census that stops partway;
- analyze 4 3 127 --verify and analyze 2 3 7 --verify --tol 1e-16;
- analyze 2 3 6007 --verify and analyze 7 11 2003 --verify, which exit 1
  on the known float64 certificate failures and print the failing
  residual's repr, so their stderr pins the certificate's bits at scale;
- every PINNED_STDOUT command, read from tests/test_cli.py;
- analyze 7 11 13 with three --seifert overrides (every coefficient
  negated, so convention sign -1; b2 odd; and b = 1, normalized to the
  odd-b2 data), each in text, --format json, --verify and --condition-b;
- analyze 3 5 211 --seifert=0,-5,-2,436 in text and with --verify, which
  exits 1 on the known float64 certificate failure;
- analyze 3 2 7 --seifert=0,1,2,-8 in text and --format json, whose
  coefficients pair with the canonical multiplicities (2, 3, 7), and
  --seifert=0,2,1,-8, which pairs them as typed and exits 2;
- analyze 2 3 5 --seifert= with an empty override, which exits 2;
- analyze --verify in text, csv and json, analyze --condition-b and
  analyze --condition-b --format json on 60 spheres: the middle sphere of
  each of 60 equal slices of census_params(6000), the spheres the
  benchmark samples.

344 commands in all.
"""

from __future__ import annotations

import ast
import itertools
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# run in each subprocess: read [commands, texts] as JSON on stdin, run each
# command through cli.main and print one [exit code, stdout, stderr] per
# command, the two streams as their sha256 digests unless texts is true
_RUNNER = r"""
import contextlib, hashlib, io, json, sys
from brieskorn import cli

def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()

argvs, texts = json.load(sys.stdin)
rows = []
for argv in argvs:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except BaseException as exc:
            code = "raised " + type(exc).__name__
            print(repr(exc), file=sys.stderr)
    streams = [out.getvalue(), err.getvalue()]
    rows.append([code] + (streams if texts else [digest(s) for s in streams]))
json.dump(rows, sys.stdout)
"""


def pinned_commands() -> list[list[str]]:
    """The keys of PINNED_STDOUT in tests/test_cli.py, read without importing the test."""
    tree = ast.parse((ROOT / "tests" / "test_cli.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "PINNED_STDOUT" for t in node.targets
        ):
            return [list(ast.literal_eval(key)) for key in node.value.keys]
    raise SystemExit("PINNED_STDOUT not found in tests/test_cli.py")


def sampled_spheres(census_params) -> list[tuple[int, int, int]]:
    """The middle sphere of each of 60 equal slices of census_params(6000)."""
    population = [p.triple for p in census_params(6000)]
    step = len(population) / 60
    return [population[int((i + 0.5) * step)] for i in range(60)]


def commands(census_params) -> list[list[str]]:
    out = []
    for base in (["census", "3000"], ["census", "1000", "--verify"]):
        out += [base, base + ["--format", "csv"], base + ["--format", "json"]]
    out += [["census", "4000", "--verify"], ["census", "4000", "--verify", "--format", "json"]]
    out += [
        ["analyze", "4", "3", "127", "--verify"],
        ["analyze", "2", "3", "7", "--verify", "--tol", "1e-16"],
        ["analyze", "2", "3", "6007", "--verify"],
        ["analyze", "7", "11", "2003", "--verify"],
    ]
    out += pinned_commands()
    for data in ("0,-5,-4,14", "0,12,-7,-14", "1,12,-18,-14"):
        base = ["analyze", "7", "11", "13", f"--seifert={data}"]
        out += [base, base + ["--format", "json"], base + ["--verify"], base + ["--condition-b"]]
    base = ["analyze", "3", "5", "211", "--seifert=0,-5,-2,436"]
    out += [base, base + ["--verify"]]
    base = ["analyze", "3", "2", "7"]
    out += [
        base + ["--seifert=0,1,2,-8"],
        base + ["--seifert=0,1,2,-8", "--format", "json"],
        base + ["--seifert=0,2,1,-8"],
        ["analyze", "2", "3", "5", "--seifert="],
    ]
    for triple in sampled_spheres(census_params):
        given = list(map(str, triple))
        out += [
            ["analyze", *given, "--verify"],
            ["analyze", *given, "--verify", "--format", "csv"],
            ["analyze", *given, "--verify", "--format", "json"],
            ["analyze", *given, "--condition-b"],
            ["analyze", *given, "--condition-b", "--format", "json"],
        ]
    return out


def run_all(src: Path, argvs: list[list[str]], texts: bool = False) -> list[list]:
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-c", _RUNNER], input=json.dumps([argvs, texts]), env=env,
        capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout)


def first_difference(name: str, old: str, new: str, width: int = 160) -> str:
    """The first line where two texts differ, as its number and both lines cut to width."""
    pairs = itertools.zip_longest(old.split("\n"), new.split("\n"))
    number, (a, b) = next((n, p) for n, p in enumerate(pairs, 1) if p[0] != p[1])
    column = next((i for i, (x, y) in enumerate(zip(a or "", b or "")) if x != y),
                  min(len(a or ""), len(b or "")))
    start = max(0, column - 40)

    def cut(line):
        if line is None:
            return "(no such line)"
        end = start + width
        return ("..." if start else "") + line[start:end] + ("..." if len(line) > end else "")

    return f"  {name} line {number}:\n    - {cut(a)}\n    + {cut(b)}"


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: same_output.py REV", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from brieskorn.cli import census_params

    argvs = commands(census_params)
    with tempfile.TemporaryDirectory() as tmp:
        archive = Path(tmp) / "src.tar"
        with archive.open("wb") as f:
            subprocess.run(["git", "archive", argv[0], "src"], cwd=ROOT, stdout=f, check=True)
        with tarfile.open(archive) as tar:
            tar.extractall(tmp, filter="data")
        before = run_all(Path(tmp) / "src", argvs)
        after = run_all(ROOT / "src", argvs)
        differing = [cmd for cmd, old, new in zip(argvs, before, after) if old != new]
        shown_before = run_all(Path(tmp) / "src", differing, texts=True) if differing else []
        shown_after = run_all(ROOT / "src", differing, texts=True) if differing else []
    print(f"{len(argvs)} commands")
    for cmd, old, new in zip(differing, shown_before, shown_after):
        parts = [name for name, x, y in zip(("exit code", "stdout", "stderr"), old, new) if x != y]
        print(f"differ in {', '.join(parts)}: {' '.join(cmd)}")
        if old[0] != new[0]:
            print(f"  exit code: {old[0]} -> {new[0]}")
        for name, x, y in zip(("stdout", "stderr"), old[1:], new[1:]):
            if x != y:
                print(first_difference(name, x, y))
    print(f"{len(differing)} differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

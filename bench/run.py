"""Benchmark for the brieskorn command line, run in one process from a source checkout.

    python3 bench/run.py --workload census-sweep --seed 1 --seconds 35 --trace 0
    python3 bench/run.py                # every workload, untraced then traced

Each request is one call of `brieskorn.cli.main` with stdout and stderr
captured; the next request starts when the previous one returns (closed loop,
one caller, no extra threads). Every output is checked against an oracle of
the benchmark's own, outside the timed region. With `--trace 0` the run
reports the end-to-end metrics of BENCHMARK.json; with `--trace 1` it
alternates untraced and traced passes and reports the per-layer metrics,
taken by wrapping the package's functions from outside (see tracer.py).

The last line of stdout is the result as one JSON object. The exit code is 1
when an output check failed, and 2 when the package cannot be imported.
See bench/README.md for the workloads and what each metric should show.
"""

from __future__ import annotations

import os

# one thread per numerical library, before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import io
import json
import math
import platform
import random
import re
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

CENSUS_MAX_A = 1000
SAMPLE_MAX_A = 6000
SAMPLE_SIZE = 60
SAMPLE_ARGS = {
    "verify-sample": ["--verify", "--format", "json"],
    "condition-b": ["--condition-b"],
}
SETUP_REPEATS = 7
WARMUP = ["analyze", "2", "3", "7", "--verify", "--condition-b", "--format", "json"]
KNOWN_FAILURE = "assertion failure: relation residuals exceed tolerance on "
CLOCK = time.perf_counter
# One calibration chunk (calibration_chunk below) takes this long at the
# reference speed, the median on a 2-core Intel Xeon VM with Python 3.11.
REFERENCE_CHUNK_S = 0.00125
CENSUS_CHUNKS = 40  # calibration chunks spread over the rows of a census pass


# ---------------------------------------------------------------- oracle


def x0_count(a1: int, a2: int, a3: int) -> int:
    """Brute-force count of 0 < k,l,m < a_i with k/a1 + l/a2 + m/a3 < 1."""
    a = a1 * a2 * a3
    c1, c2, c3 = a2 * a3, a1 * a3, a1 * a2
    n = 0
    for k in range(1, a1):
        for l in range(1, a2):
            for m in range(1, a3):
                if k * c1 + l * c2 + m * c3 >= a:
                    break
                n += 1
    return n


def expected_counts(triple) -> dict:
    """total from the closed form, sl2r from the lattice count, su2 as the rest."""
    a1, a2, a3 = triple
    total = (a1 - 1) * (a2 - 1) * (a3 - 1) // 4
    sl2r = x0_count(a1, a2, a3)
    return {"total": total, "sl2r": sl2r, "su2": total - sl2r}


def census_triples(max_a: int) -> set[tuple[int, int, int]]:
    """Pairwise coprime p < q < r with p*q*r <= max_a, generated independently of the CLI."""
    found = set()
    p = 2
    while p * (p + 1) * (p + 2) <= max_a:
        q = p + 1
        while p * q * (q + 1) <= max_a:
            for r in range(q + 1, max_a // (p * q) + 1):
                if math.gcd(p, q) == math.gcd(p, r) == math.gcd(q, r) == 1:
                    found.add((p, q, r))
            q += 1
        p += 1
    return found


CENSUS_ROW = re.compile(
    r"\((\d+),(\d+),(\d+)\) a=(\d+) total=(\d+) su2=(\d+) sl2r=(\d+) \|casson\|=(\d+) sl2c=(\d+)"
)
TEXT_COUNTS = re.compile(r"^counts: total (\d+) \| su2 (\d+) \| sl2r (\d+) \|", re.M)


def count_errors(triple, found: dict, oracle: dict) -> list[str]:
    return [
        f"{triple} {key}={found[key]}, oracle says {oracle[key]}"
        for key in ("total", "su2", "sl2r")
        if found[key] != oracle[key]
    ]


def check_census(out: str, oracle: dict) -> tuple[dict, int, list[str]]:
    """Per-sphere errors of one census output, the classes it reports, and other errors."""
    errors: dict[tuple, list[str]] = {t: ["missing row"] for t in oracle}
    classes = 0
    stray = []
    for line in out.splitlines():
        match = CENSUS_ROW.fullmatch(line)
        if not match:
            stray.append(f"unparsed census row {line!r}")
            continue
        a1, a2, a3, a, total, su2, sl2r, casson_abs, sl2c = map(int, match.groups())
        key = tuple(sorted((a1, a2, a3)))
        if key not in errors or errors[key] != ["missing row"]:
            stray.append(f"unexpected or repeated row {line!r}")
            continue
        found = {"total": total, "su2": su2, "sl2r": sl2r}
        problems = count_errors(key, found, oracle[key])
        if a != a1 * a2 * a3 or casson_abs * 2 != su2 or sl2c != total:
            problems.append(f"inconsistent row {line!r}")
        errors[key] = problems
        classes += total
    return errors, classes, stray


def check_verified_record(triple, record: dict, oracle: dict):
    p = record["params"]
    counts = record["counts"]
    sl2r, su2 = record["sl2r_classes"], record["su2_classes"]
    errors = count_errors(triple, counts, oracle)
    if (p["a1"], p["a2"], p["a3"]) != triple:
        errors.append(f"{triple} record is for {p}")
    if len(sl2r) != counts["sl2r"] or len(su2) != counts["su2"]:
        errors.append(f"{triple} class lists disagree with counts")
    verification = record["verification"]
    if verification["classes"] != counts["total"] or not verification["passed"]:
        errors.append(f"{triple} verification summary {verification}")
    if not all(entry["verify"]["passed"] for entry in sl2r + su2):
        errors.append(f"{triple} a class failed verification but the sphere passed")
    return bool(errors), len(sl2r) + len(su2), errors


def check_sphere(workload: str, triple, reply, oracle: dict):
    """(failed, classes emitted, check errors) for one analyze request."""
    rc, out, err = reply.rc, reply.out, reply.err
    if rc != 0:
        if workload == "verify-sample" and rc == 1 and not out and err.startswith(KNOWN_FAILURE):
            return True, 0, []
        return True, 0, [f"{triple} exit {rc}: {err.strip()[:200]}"]
    if workload == "verify-sample":
        try:
            return check_verified_record(triple, json.loads(out), oracle)
        except (ValueError, KeyError, TypeError) as exc:
            return True, 0, [f"{triple} malformed JSON record: {exc!r}"]
    match = TEXT_COUNTS.search(out)
    if not out.startswith("Brieskorn sphere Sigma(%d, %d, %d) " % triple) or not match:
        return True, 0, [f"{triple} unparsed analyze output"]
    total, su2, sl2r = map(int, match.groups())
    errors = count_errors(triple, {"total": total, "su2": su2, "sl2r": sl2r}, oracle)
    lines = out.splitlines()
    sl2r_lines = sum(" cover h1 " in line for line in lines)
    su2_lines = sum(line.startswith("  eps ") for line in lines)
    reversed_lines = sum(" <- reverse of " in line for line in lines)
    if (sl2r_lines, su2_lines, reversed_lines) != (sl2r, su2, sl2r):
        errors.append(
            f"{triple} lists {sl2r_lines} sl2r, {su2_lines} su2, {reversed_lines} reversed classes"
        )
    return bool(errors), sl2r_lines + su2_lines, errors


# ---------------------------------------------------------------- requests


def calibration_chunk() -> float:
    """Time of a fixed loop of exact rational additions, about a millisecond.

    On a shared machine speed drifts by a quarter or more over a minute.
    Every time this benchmark reports, except setup_s, is scaled by the speed
    these chunks measured during the same pass. The loop is Fraction
    arithmetic because that is what the package spends its time on. Scaled
    pass times vary by about 3 % from pass to pass, unscaled ones by about 8 %.
    """
    start = CLOCK()
    total = Fraction(0)
    for i in range(1, 300):
        total += Fraction(1, i)
    return CLOCK() - start


class Capture(io.TextIOBase):
    """Stand-in for stdout that keeps the text and stamps the time each line ends.

    With `calibrate_every` > 0 it runs a calibration chunk after every that
    many writes, on a clock that stops while the chunk runs, so the chunks
    sample the machine's speed across a long request without adding to it.
    """

    def __init__(self, calibrate_every: int = 0):
        self.parts: list[str] = []
        self.stamps: list[float] = []
        self.calibration: list[float] = []
        self.calibrate_every = calibrate_every
        self.paused = 0.0

    def now(self) -> float:
        return CLOCK() - self.paused

    def write(self, text: str) -> int:
        self.parts.append(text)
        if text.endswith("\n"):
            self.stamps.append(self.now())
        if self.calibrate_every and len(self.parts) % self.calibrate_every == 0:
            start = CLOCK()
            self.calibration.append(calibration_chunk())
            self.paused += CLOCK() - start
        return len(text)

    def text(self) -> str:
        return "".join(self.parts)


@dataclass
class Reply:
    rc: int
    out: str
    err: str
    start: float
    end: float
    stamps: list[float]
    calibration: list[float]


def call_main(cli, argv: list[str], calibrate_every: int = 0) -> Reply:
    """One closed-loop request, with its stdout, stderr and timings."""
    out, err = Capture(calibrate_every), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = out.now()
        try:
            rc = cli.main(argv)
        except Exception:  # an uncaught error is a failed request, reported below
            rc = -1
            traceback.print_exc()
        end = out.now()
    return Reply(rc, out.text(), err.getvalue(), start, end, out.stamps, out.calibration)


def digest(rc: int, out: str) -> str:
    return hashlib.sha256(f"{rc}\n{out}".encode()).hexdigest()


@dataclass
class Pass:
    request_s: list[float] = field(default_factory=list)
    calibration_s: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    classes: int = 0
    sphere_ms: list[float] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)

    @property
    def slowdown(self) -> float:
        """How much slower than the reference speed the machine ran during this pass."""
        return statistics.mean(self.calibration_s) / REFERENCE_CHUNK_S

    @property
    def wall_s(self) -> float:
        """Pass time at the reference speed."""
        return sum(self.request_s) / self.slowdown


class Workload:
    """The requests of one workload and the checks on their outputs."""

    def __init__(self, cli, name: str, seed: int):
        self.cli = cli
        self.name = name
        if name == "census-sweep":
            self.triples = sorted(census_triples(CENSUS_MAX_A))
            self.requests = [(["census", str(CENSUS_MAX_A)], None)]
            self.band = f"census_params({CENSUS_MAX_A}): a <= {CENSUS_MAX_A}, every sphere"
            self.calibrate_every = len(self.triples) // CENSUS_CHUNKS
        else:
            population = [p.triple for p in cli.census_params(SAMPLE_MAX_A)]
            self.triples = systematic_sample(population, SAMPLE_SIZE)
            self.calibrate_every = 0  # one chunk after each request is spread enough
            rng = random.Random(seed)
            self.requests = []
            for triple in rng.sample(self.triples, len(self.triples)):
                given = rng.sample(triple, 3)
                self.requests.append((["analyze", *map(str, given), *SAMPLE_ARGS[name]], triple))
            self.band = (
                f"census_params({SAMPLE_MAX_A}): a <= {SAMPLE_MAX_A}, {len(population)} spheres; "
                f"every {len(population) / len(self.triples):g}th by a"
            )
        self.oracle = {tuple(sorted(t)): expected_counts(tuple(sorted(t))) for t in self.triples}

    def run_pass(self, tracer: Tracer | None = None) -> Pass:
        result = Pass()
        for index, (argv, triple) in enumerate(self.requests):
            if tracer is not None:
                tracer.request = index
            reply = call_main(self.cli, argv, self.calibrate_every)
            result.request_s.append(reply.end - reply.start)
            result.calibration_s += reply.calibration + [calibration_chunk()]
            if tracer is not None:
                tracer.add("cli.render.bytes", len(reply.out.encode()))
            result.digests[" ".join(argv)] = digest(reply.rc, reply.out)
            if triple is None:
                self._census_outcome(result, reply)
                continue
            failed, classes, errors = check_sphere(
                self.name, triple, reply, self.oracle[tuple(sorted(triple))]
            )
            result.attempted += 1
            result.failed += failed
            result.classes += classes
            result.errors += errors
            result.sphere_ms.append(1e3 * (reply.end - reply.start))
        return result

    def _census_outcome(self, result: Pass, reply: Reply) -> None:
        errors, classes, stray = check_census(reply.out, self.oracle)
        if reply.rc != 0:
            stray.append(f"census exit {reply.rc}: {reply.err.strip()[:200]}")
        result.attempted += len(errors)
        result.failed += sum(bool(e) for e in errors.values())
        result.classes += classes
        result.errors += stray + [f"{t}: {'; '.join(e)}" for t, e in errors.items() if e]
        gaps = [b - a for a, b in zip([reply.start] + reply.stamps, reply.stamps)]
        result.sphere_ms += [1e3 * g for g in gaps]


def systematic_sample(population: list, size: int) -> list:
    """The middle sphere of each of `size` equal slices of the a-ordered population.

    The set is the same for every seed; the seed only orders the requests and
    the multiplicities within each. A set drawn at random per seed moves
    fail_frac on verify-sample by about a third from seed to seed, since
    failures past a = 1524 scatter with the number theory of each triple.
    """
    step = len(population) / size
    return [population[int((i + 0.5) * step)] for i in range(size)]


# ---------------------------------------------------------------- tracing


def _su2_scanned(tracer, result, params, sigma):
    for eps in (-1, 1):
        n = 1
        for ai, bi in zip(params.triple, sigma.coefficients):
            start = 2 if (eps == 1 or bi % 2 == 0) else 1
            n *= len(range(start, ai, 2))
        tracer.add("character.enumerate_su2.scanned", n)
    tracer.add("character.enumerate_su2.kept", len(result))


def _condition_b_scanned(tracer, result, params):
    a1, a2, a3 = params.triple
    tracer.add("euler.enumerate_condition_b.scanned", (a1 - 1) * (a2 - 1) * (a3 - 1))
    tracer.add("euler.enumerate_condition_b.kept", len(result))


def _verified(tracer, report, *args, **kwargs):
    tracer.add("realize.verify_relations.failed", not report.passed)
    tracer.high("realize.verify_relations.worst_residual", report.max_residual)


def trace_targets(pkg):
    """(module, function, layer, counter) for every function the trace wraps."""
    cli, character, euler, realize, seifert = (
        pkg.cli, pkg.character, pkg.euler, pkg.realize, pkg.seifert,
    )
    targets = [
        (euler, "enumerate_X0", "euler.enumerate_X0",
         lambda t, r, *a: t.add("euler.enumerate_X0.points", len(r))),
        (euler, "enumerate_E", "euler.enumerate_E", None),
        (euler, "enumerate_condition_b", "euler.enumerate_condition_b", _condition_b_scanned),
        (euler, "reverse_orientation", "euler.reverse_orientation", None),
        (euler, "seifert_from_euler", "euler.seifert_from_euler", None),
        (character, "enumerate_su2", "character.enumerate_su2", _su2_scanned),
        (character, "classify", "character.classify", None),
        (character, "phi_map", "character.phi_map", None),
        (character, "trace_triple_of", "character.trace_triple_of", None),
        (character, "count_report", "character.count_report", None),
        (character, "reversed_trace_check", "character.reversed_trace_check", None),
        (seifert, "solve_seifert", "seifert.solve_seifert", None),
        (seifert, "h1_order", "seifert.h1_order", None),
        (realize, "realize_su2", "realize.realize_su2", None),
        (realize, "realize_sl2r", "realize.realize_sl2r", None),
        (realize, "verify_relations", "realize.verify_relations", _verified),
        (cli, "census_params", "cli.census_params",
         lambda t, r, *a: t.add("cli.census_params.spheres", len(r))),
        (cli, "build_record", "cli.build_record", None),
    ]
    # every way cli turns a record into text; json.dumps is reached as cli.json.dumps
    for module, attr in ((cli, "render_text"), (cli, "render_csv"), (cli, "_csv_row"),
                         (cli, "_census_text_row"), (cli.json, "dumps")):
        targets.append((module, attr, "cli.render", None))
    return targets


def layer_metrics(tracer: Tracer, traced: list[Pass], overhead: float) -> dict:
    """Every per_layer metric of BENCHMARK.json, per traced pass, derived from its suffix.

    Times are scaled to the reference speed like the end-to-end ones.
    """
    passes = len(traced)
    spheres = sum(p.attempted for p in traced)
    slowdown = statistics.mean(p.slowdown for p in traced)
    values = {}
    for spec in SPEC["per_layer"]:
        name = spec["name"]
        layer, _, metric = name.rpartition(".")
        stats = tracer.layer(layer)
        self_s = stats.self_s / slowdown
        per_call = 1e6 * self_s / stats.calls if stats.calls else 0.0
        if name == "trace.overhead_frac":
            value = overhead
        elif metric == "calls":
            value = stats.calls / passes
        elif metric == "calls_per_sphere":
            value = stats.calls / spheres
        elif metric == "self_s":
            value = self_s / passes
        elif metric in ("us_per_call", "us_per_class"):
            value = per_call
        elif metric == "kept_ratio":
            scanned = tracer.counts.get(layer + ".scanned", 0)
            value = tracer.counts.get(layer + ".kept", 0) / scanned if scanned else 0.0
        elif metric == "worst_residual":
            value = tracer.counts.get(name, 0.0)
        else:
            value = tracer.counts.get(name, 0) / passes
        values[name] = {"value": value, "unit": spec["unit"]}
    return values


def write_spans(tracer: Tracer, path: Path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("span\tparent\trequest\tlayer\tstart_s\tend_s\n")
        for span in tracer.spans:
            handle.write("%d\t%d\t%d\t%s\t%.9f\t%.9f\n" % span)


# ---------------------------------------------------------------- metrics


def setup_seconds() -> float:
    """Median time from a fresh interpreter to `import brieskorn` done."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    command = [sys.executable, "-c", "import brieskorn"]
    subprocess.run(command, env=env, cwd=ROOT, check=True)  # warm the bytecode cache
    times = []
    for _ in range(SETUP_REPEATS):
        start = CLOCK()
        subprocess.run(command, env=env, cwd=ROOT, check=True)
        times.append(CLOCK() - start)
    return statistics.median(times)


def tail_percentile(samples_per_pass: int) -> float:
    """Highest percentile with at least ten of one pass's samples beyond it."""
    return 100 * (1 - 10 / samples_per_pass)


def percentile(values: list[float], p: float) -> float:
    ordered = sorted(values)
    rank = p / 100 * (len(ordered) - 1)
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def end_to_end(passes: list[Pass], setup_s: float, tail_p: float) -> dict:
    wall = statistics.median(p.wall_s for p in passes)
    latencies = [ms / p.slowdown for p in passes for ms in p.sphere_ms]
    attempted = sum(p.attempted for p in passes)
    values = {
        "setup_s": setup_s,
        "wall_s": wall,
        "spheres_per_s": passes[0].attempted / wall,
        "classes_per_s": passes[0].classes / wall,
        "sphere_ms_p50": statistics.median(latencies),
        "sphere_ms_tail": percentile(latencies, tail_p),
        "fail_frac": sum(p.failed for p in passes) / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in SPEC["end_to_end"]}


# ---------------------------------------------------------------- run


def source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "brieskorn").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
    )
    return done.stdout.strip() or None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def compare_digests(passes: list[Pass], code: str) -> list[str]:
    """Outputs must not change between passes, or between runs of the same source."""
    errors = []
    seen: dict[str, str] = {}
    for p in passes:
        for request, value in p.digests.items():
            if seen.setdefault(request, value) != value:
                errors.append(f"stdout of '{request}' changed between passes")
    store = OUT / f"digests-{code[:16]}.json"
    known = json.loads(store.read_text()) if store.exists() else {}
    for request, value in seen.items():
        if known.setdefault(request, value) != value:
            errors.append(f"stdout of '{request}' differs from an earlier run of this source")
    scratch = store.with_suffix(".tmp")
    scratch.write_text(json.dumps(known, sort_keys=True))
    os.replace(scratch, store)
    return errors


def run(args) -> int:
    if not (SRC / "brieskorn" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy

    import brieskorn
    import brieskorn.cli

    if Path(brieskorn.__file__).resolve().parent != SRC / "brieskorn":
        print(f"error: imported brieskorn from {brieskorn.__file__}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    code = source_sha256()
    setup_s = None if args.trace else setup_seconds()
    workload = Workload(brieskorn.cli, args.workload, args.seed)
    call_main(brieskorn.cli, WARMUP)  # first-call costs are not what a pass measures

    untraced: list[Pass] = []
    traced: list[Pass] = []
    tracer = Tracer(CLOCK)
    started = CLOCK()
    while True:
        lap = CLOCK()
        untraced.append(workload.run_pass())
        if args.trace:
            with tracer.patch(trace_targets(brieskorn)):
                traced.append(workload.run_pass(tracer))
            tracer.keep_spans = False  # spans of the first traced pass are enough
        if CLOCK() - started + (CLOCK() - lap) > args.seconds:
            break

    errors = compare_digests(untraced + traced, code)
    for p in untraced + traced:
        errors += p.errors
    errors = list(dict.fromkeys(errors))  # passes repeat the same failures
    spheres_per_pass = untraced[0].attempted
    tail_p = tail_percentile(len(untraced[0].sphere_ms))
    if args.trace:
        overhead = (
            statistics.median(p.wall_s for p in traced)
            / statistics.median(p.wall_s for p in untraced)
            - 1
        )
        metrics = layer_metrics(tracer, traced, overhead)
        spans_path = OUT / f"spans-{args.workload}.tsv"
        write_spans(tracer, spans_path)
    else:
        metrics = end_to_end(untraced, setup_s, tail_p)

    measured = traced if args.trace else untraced
    result = {
        "correct": not errors,
        "attempted": sum(p.attempted for p in measured),
        "failed": sum(p.failed for p in measured),
        "metrics": metrics,
    }
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": platform.machine(),
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha(),
        "source_sha256": code,
        "population": workload.band,
        "sample_size": spheres_per_pass,
        "passes": len(measured),
        "unscaled_wall_s": [sum(p.request_s) for p in measured],
        "slowdown": [p.slowdown for p in measured],
        "tail_percentile": tail_p,
        "tail_samples": sum(len(p.sphere_ms) for p in untraced),
        "check_errors": errors[:20],
    }
    if args.trace:
        provenance["spans_file"] = spans_path.relative_to(ROOT).as_posix()
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"provenance": provenance, "result": result}, indent=2) + "\n"
    )
    for error in errors[:20]:
        print(f"check failed: {error}", file=sys.stderr)
    for name, metric in metrics.items():
        print(f"{args.workload:<14} {name:<48} {metric['value']:>14.6g} {metric['unit']}")
    print(json.dumps(provenance, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Every workload untraced then traced, each in its own process."""
    worst = 0
    for spec in SPEC["workloads"]:
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, __file__, "--workload", spec["name"], "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(trace)],
                capture_output=True, text=True,
            )
            sys.stderr.write(done.stderr)
            for line in done.stdout.splitlines()[:-2]:
                print(line)
            worst = max(worst, done.returncode)
    return worst


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", default="all", choices=[w["name"] for w in SPEC["workloads"]] + ["all"]
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())

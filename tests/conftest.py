"""Shared sweep fixtures plus a per-criterion summary for the acceptance run."""

from __future__ import annotations

import re
import time

import pytest

from brieskorn.character import (
    ClassLabel,
    PulledBackClasses,
    TraceMemo,
    UnitaryClasses,
    enumerate_su2,
    phi_map,
)
from brieskorn.cli import census_params
from brieskorn.realize import certify_columns
from brieskorn.seifert import solve_seifert


@pytest.fixture(scope="session")
def partition_sweep():
    """Canonical data, unitary triples, and pulled-back pairs for every a <= 3000."""
    start = time.perf_counter()
    rows = []
    for params in census_params(3000):
        sigma = solve_seifert(params)
        rows.append((params, sigma, enumerate_su2(params, sigma), phi_map(params, sigma)))
    return rows, time.perf_counter() - start


@pytest.fixture(scope="session")
def realization_sweep(partition_sweep):
    """Realize and relation-check every class with a <= 1000 at tol 1e-9: (triples, certificate) per real form.

    Each sphere's classes are certified from their memo keys on the sphere's
    one TraceMemo. The memo's views of the keys, which fill its tables with
    every key certified, must equal partition_sweep's triples.
    """
    rows, _ = partition_sweep
    start = time.perf_counter()
    out = []
    for params, sigma, su2_triples, pairs in rows:
        if params.a > 1000:
            continue
        memo = TraceMemo(params, sigma)
        stacks = []
        for fresh, table, real_form in (
            ([tri for _, tri in pairs], PulledBackClasses(memo), ClassLabel.SL2R),
            (su2_triples, UnitaryClasses(memo), ClassLabel.SU2),
        ):
            triples = memo.triples(table.keys)
            assert triples == fresh
            cert = certify_columns(memo.generators, table.keys, sigma, real_form, 1e-9)
            stacks.append((triples, cert))
        out.append((params, stacks))
    return out, time.perf_counter() - start


CRITERIA = {
    1: "counts for the smallest sphere (2,3,5)",
    2: "Casson-type counts across the (2,3,6n+1) family",
    3: "pulled-back trace table for the family data",
    4: "unitary trace window for the family data",
    5: "euler classes and cover homology for (3,5,7)",
    6: "partition sweep a <= 3000 within 60 s",
    7: "orientation-reversal bijection and trace agreement",
    8: "realization sweep a <= 1000 at 1e-9 within 120 s",
    9: "zero inconsistent classifications across the sweeps",
}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    results: dict[int, str] = {}
    for outcome in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(outcome, []):
            nodeid = getattr(rep, "nodeid", "")
            match = re.search(r"test_criterion_(\d+)", nodeid)
            if not match:
                continue
            if outcome == "passed" and getattr(rep, "when", "call") != "call":
                continue
            num = int(match.group(1))
            if outcome == "passed":
                results.setdefault(num, "passed")
            else:
                results[num] = outcome
    if not results:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for num in sorted(results):
        verdict = "PASS" if results[num] == "passed" else "FAIL"
        terminalreporter.write_line(f"criterion {num} {verdict}: {CRITERIA.get(num, '')}")

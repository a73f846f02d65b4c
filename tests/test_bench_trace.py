"""The benchmark's layer tracing still finds every function it wraps.

bench/run.py wraps package functions by name; a refactor that renames or
drops one would otherwise surface only as an AttributeError in a traced
benchmark run.
"""

import importlib.util
import os
import sys
from pathlib import Path
from unittest import mock

import pytest

import brieskorn
from brieskorn.cli import main

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_bench_run():
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    # run.py imports its sibling tracer.py by name and pins thread counts in
    # os.environ; dataclasses look their module up while it runs
    sys.modules[spec.name] = module
    try:
        with mock.patch.object(sys, "path", [str(BENCH), *sys.path]):
            with mock.patch.dict(os.environ):
                spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_traced_analyze_reaches_the_wrapped_layers(capsys):
    run = load_bench_run()
    tracer = run.Tracer()
    with tracer.patch(run.trace_targets(brieskorn)):
        code = main(["analyze", "2", "3", "7", "--verify", "--condition-b", "--format", "json"])
    capsys.readouterr()
    assert code == 0
    # the CLI reads the pulled-back table, not phi_map: X0 is reached through it
    for layer in ("euler.enumerate_X0", "character.classify", "cli.build_record"):
        assert tracer.layer(layer).calls > 0
    assert not hasattr(brieskorn.character.phi_map, "__wrapped__")


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_traced_census_reaches_build_record_once_per_sphere(capsys, fmt):
    # every format of a census makes its spheres through the one traced pass
    run = load_bench_run()
    tracer = run.Tracer()
    with tracer.patch(run.trace_targets(brieskorn)):
        code = main(["census", "100", "--format", fmt])
    capsys.readouterr()
    assert code == 0
    spheres = len(brieskorn.cli.census_params(100))
    assert spheres > 1
    assert tracer.layer("cli.build_record").calls == spheres

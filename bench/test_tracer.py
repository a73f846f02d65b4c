"""Tests of the benchmark's tracer: self-time arithmetic and restoring the originals.

    PYTHONPATH=src python3 -m pytest -q bench/test_tracer.py
"""

from __future__ import annotations

import math
import types

import pytest

import brieskorn
from brieskorn import character, cli, euler
from brieskorn.seifert import canonicalize_params
from tracer import Tracer


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_of_nested_spans_is_exact():
    clock = FakeClock()
    tracer = Tracer(clock)
    mod = types.SimpleNamespace()

    def inner():
        clock.now += 3.0

    def middle():
        clock.now += 2.0
        mod.inner()
        mod.inner()
        clock.now += 1.0

    def outer():
        clock.now += 5.0
        mod.middle()
        clock.now += 0.5

    mod.inner, mod.middle, mod.outer = inner, middle, outer
    targets = [(mod, name, name, None) for name in ("outer", "middle", "inner")]
    with tracer.patch(targets):
        mod.outer()

    assert tracer.layers["inner"].calls == 2
    assert tracer.layers["inner"].self_s == 6.0
    assert tracer.layers["middle"].total_s == 9.0
    assert tracer.layers["middle"].self_s == 3.0
    assert tracer.layers["outer"].total_s == 14.5
    assert tracer.layers["outer"].self_s == 5.5
    parents = {span[0]: span[1] for span in tracer.spans}
    names = {span[0]: span[3] for span in tracer.spans}
    assert sorted(names[parents[i]] for i in names if names[i] == "inner") == ["middle"] * 2


def test_self_time_excludes_counter_bookkeeping():
    clock = FakeClock()
    tracer = Tracer(clock)
    mod = types.SimpleNamespace(child=lambda: setattr(clock, "now", clock.now + 1.0))
    mod.parent = lambda: mod.child()

    def slow_counter(t, result):
        clock.now += 100.0

    with tracer.patch([(mod, "parent", "parent", None), (mod, "child", "child", slow_counter)]):
        mod.parent()
    assert tracer.layers["child"].self_s == 1.0
    assert tracer.layers["parent"].self_s == 0.0


def test_span_raising_still_charges_parent():
    clock = FakeClock()
    tracer = Tracer(clock)
    mod = types.SimpleNamespace()

    def child():
        clock.now += 2.0
        raise ValueError("boom")

    def parent():
        with pytest.raises(ValueError):
            mod.child()

    mod.child, mod.parent = child, parent
    with tracer.patch([(mod, "parent", "parent", None), (mod, "child", "child", None)]):
        mod.parent()
    assert tracer.layers["child"].self_s == 2.0
    assert tracer.layers["parent"].self_s == 0.0


def test_count_report_chain_nests_and_self_times_add_up():
    tracer = Tracer()
    targets = [
        (character, "count_report", "count_report", None),
        (character, "enumerate_su2", "enumerate_su2", None),
        (euler, "enumerate_X0", "enumerate_X0", None),
    ]
    with tracer.patch(targets):
        report = brieskorn.count_report(canonicalize_params(2, 3, 25))
    assert report.total == 2 * 24 // 4
    by_id = {span[0]: span for span in tracer.spans}
    names = {span[0]: span[3] for span in tracer.spans}
    # count_report -> enumerate_su2 -> enumerate_X0, and enumerate_E -> enumerate_X0
    x0_parents = sorted(names.get(by_id[i][1], "root") for i in names if names[i] == "enumerate_X0")
    assert x0_parents == ["count_report", "enumerate_su2"]
    assert names[by_id[next(i for i in names if names[i] == "enumerate_su2")][1]] == "count_report"
    root = next(span for span in tracer.spans if span[1] == -1)
    assert root[3] == "count_report"
    self_sum = sum(stats.self_s for stats in tracer.layers.values())
    assert math.isclose(self_sum, root[5] - root[4], rel_tol=0.05)
    assert all(stats.self_s >= 0 for stats in tracer.layers.values())


def test_patch_restores_every_holder():
    originals = {
        "character.classify": character.classify,
        "cli.classify": cli.classify,
        "package.classify": brieskorn.classify,
        "cli.build_record": cli.build_record,
    }
    tracer = Tracer()
    targets = [
        (character, "classify", "character.classify", None),
        (cli, "build_record", "cli.build_record", None),
    ]
    with tracer.patch(targets):
        assert cli.classify is not originals["cli.classify"]
        assert brieskorn.classify is character.classify is cli.classify
        assert cli.main(["analyze", "2", "3", "7", "--format", "json"]) == 0
    assert tracer.layers["character.classify"].calls > 0
    assert tracer.layers["cli.build_record"].calls == 1
    assert character.classify is originals["character.classify"]
    assert cli.classify is originals["cli.classify"]
    assert brieskorn.classify is originals["package.classify"]
    assert cli.build_record is originals["cli.build_record"]


def test_patch_restores_after_error():
    tracer = Tracer()
    original = euler.enumerate_X0
    with pytest.raises(RuntimeError):
        with tracer.patch([(euler, "enumerate_X0", "x0", None)]):
            raise RuntimeError("stop")
    assert euler.enumerate_X0 is original
    assert character.enumerate_X0 is original

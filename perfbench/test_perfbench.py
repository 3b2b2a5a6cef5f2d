"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench

They run in-process on small slices of the case lists, except the
second-seed test, which runs the three in-process workloads in full.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402
from worker import run_pass  # noqa: E402

from gschur import engine  # noqa: E402


def _slice(setup, count):
    return dataclasses.replace(setup, cases=setup.cases[:count])


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_case_lists_repeat_for_a_seed(name):
    first = workloads.build(name, 7)
    again = workloads.build(name, 7)
    assert first.cases == again.cases
    assert len(first.cases) >= 100
    dumps = {t: s.table_dump(8) for t, s in first.tables.items() if s.kind == "table"}
    assert dumps == {t: s.table_dump(8) for t, s in again.tables.items() if s.kind == "table"}


def test_seed_changes_the_inputs():
    one = workloads.build("routes", 7).tables["rand0"].table_dump(8)
    two = workloads.build("routes", 8).tables["rand0"].table_dump(8)
    assert one != two


def test_corrupted_route_is_a_failed_case(monkeypatch):
    setup = _slice(workloads.build("routes", workloads.DEFAULT_SEED), 12)
    assert run_pass(setup, "plain")["failed"] == []
    target = setup.cases[5]
    original = engine.GschurContext.giambelli

    def corrupted(self, lam):
        value = original(self, lam)
        return value + 1 if (self.n, lam) == target.params else value

    monkeypatch.setattr(engine.GschurContext, "giambelli", corrupted)
    fresh = _slice(workloads.build("routes", workloads.DEFAULT_SEED), 12)
    assert run_pass(fresh, "plain")["failed"] == [target.key]


def test_changed_output_fails_the_digest_guard():
    setup = _slice(workloads.build("shifts", workloads.DEFAULT_SEED), 10)
    assert setup.pinned
    key = setup.cases[3].key
    setup.pinned = dict(setup.pinned, **{key: "0" * 16})
    assert run_pass(setup, "plain")["failed"] == [key]


def _gschur_state():
    from gschur import coeffseq, exactalg

    state = {}
    for name, mod in sys.modules.items():
        if name == "gschur" or name.startswith("gschur."):
            state.update({(name, k): v for k, v in vars(mod).items()})
    for cls in (engine.GschurContext, exactalg.MultiPoly, coeffseq.UniPolySeq):
        state.update({(cls.__name__, k): v for k, v in vars(cls).items()})
    return state


@pytest.mark.parametrize("name", ["routes", "shifts", "stable"])
def test_traced_pass_restores_gschur_and_matches(name):
    before = _gschur_state()
    plain = run_pass(_slice(workloads.build(name, workloads.DEFAULT_SEED), 15), "plain")
    traced = run_pass(_slice(workloads.build(name, workloads.DEFAULT_SEED), 15), "traced")
    after = _gschur_state()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert traced["digests"] == plain["digests"]
    assert traced["failed"] == plain["failed"] == []
    assert traced["trace"]["spans"] > 0


def test_tracer_self_time_excludes_children():
    ctx = engine.GschurContext(3, workloads.build("routes", 1).tables["so_odd"])
    tracer = Tracer()
    tracer.install()
    try:
        ctx.bialternant((2, 1))
        ctx.bialternant((2, 1))
    finally:
        tracer.uninstall()
    summary = tracer.summarize()
    assert summary["engine.bialternant.calls"] == 2
    assert summary["engine.bialternant.hits"] == 1
    assert summary["exactalg.exact_divide.calls"] == 1
    total = sum(e - s for e, s, p in zip(tracer.end, tracer.start, tracer.parent) if p < 0)
    self_sum = sum(v for k, v in summary.items() if k.endswith(".self_s"))
    assert self_sum == pytest.approx(total, rel=1e-9)


def test_cli_traced_matches_untraced():
    setup = workloads.build("cli", 3)
    picked = [c for c in setup.cases if c.params[0] in ("compute", "stable", "verify")][:3]
    setup = dataclasses.replace(setup, cases=picked)
    plain = run_pass(setup, "plain")
    traced = run_pass(setup, "traced")
    assert plain["failed"] == traced["failed"] == []
    assert traced["digests"] == plain["digests"]
    assert traced["trace"]["engine.bialternant.calls"] > 0


@pytest.mark.parametrize("name", ["routes", "shifts", "stable"])
def test_second_seed_passes_every_cross_route_check(name):
    setup = workloads.build(name, workloads.DEFAULT_SEED + 1)
    assert setup.pinned == {}
    record = run_pass(setup, "plain")
    assert record["failed"] == []


def test_expected_digests_cover_the_default_seed():
    with open(workloads.EXPECTED, encoding="utf-8") as fh:
        data = json.load(fh)
    assert data["seed"] == workloads.DEFAULT_SEED
    for name in workloads.WORKLOADS:
        keys = [c.key for c in workloads.build(name, workloads.DEFAULT_SEED).cases]
        assert sorted(keys) == sorted(data["digests"][name])


def test_fails_without_the_package_sources():
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", "test_*"))
    shutil.copy(HERE.parent / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "routes", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170, check=False,
        )
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

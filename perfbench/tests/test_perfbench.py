"""Tests of the benchmark itself, on small inputs.

    python3 -m pytest -q perfbench/tests

The pool is cut to its two 2x2 matrices, so every workload finishes one
round in a few seconds.
"""

from __future__ import annotations

import cProfile
import inspect
import json
import pstats
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import harness  # noqa: E402
import oracle  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SMALL_POOL = (workloads.POOL[0], workloads.POOL[2])
SEED = 7


@pytest.fixture(autouse=True)
def small_inputs(monkeypatch):
    monkeypatch.setattr(workloads, "POOL", SMALL_POOL)


def one_round(workload, **kwargs):
    return harness.run(workload, SEED, 0.0, **kwargs)


@pytest.fixture(scope="module")
def records():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(workloads, "POOL", SMALL_POOL)
        return {name: one_round(name)["records"] for name in workloads.WORKLOADS}


# ---------------------------------------------------------------------------
# smoke


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_round_runs_and_checks(workload, records):
    recs = records[workload]
    assert recs and all(r is not None for r in recs)
    assert oracle.CHECKS[workload](recs) == 0


def test_result_line_has_the_declared_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", "type-labels",
             "--seed", "3", "--seconds", "0.2", "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, check=True, timeout=120)
        doc = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(doc) == {"correct", "attempted", "failed", "metrics"}
        assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] > 0
        declared = {m["name"]: m["unit"] for m in spec[section]}
        assert {k: v["unit"] for k, v in doc["metrics"].items()} == declared


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "type-labels",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_same_seed_same_inputs():
    ck = harness.fresh_import()
    wl = workloads.TypeLabels()
    first = [(kind, data) for kind, data, *_ in wl.make_round(ck, SEED, 0)]
    again = [(kind, data) for kind, data, *_ in wl.make_round(ck, SEED, 0)]
    other = [(kind, data) for kind, data, *_ in wl.make_round(ck, SEED + 1, 0)]
    assert first == again != other


# ---------------------------------------------------------------------------
# each check counts a deliberately wrong output as a failure


def _shift(desc, delta):
    if desc[0] == "e":
        return ("e", desc[1] + delta, desc[2] + delta)
    if desc[0] == "p":
        return ("p", desc[1] * (1 + delta), desc[2])
    return (desc[0], desc[1] + delta)


def test_kms_check_rejects_shifted_side(records):
    recs = records["kms-check"]
    for i, rec in enumerate(recs):
        key, J, K, lhs, rhs, residual, ok = rec
        if J or K:
            bad = (key, J, K, _shift(lhs, 1e-6), rhs, residual, ok)
            assert oracle.check_kms(recs[:i] + [bad] + recs[i + 1:]) == 1
            return
    pytest.fail("no non-unit monomial in the round")


def test_kms_check_rejects_large_residual(records):
    rec = records["kms-check"][0]
    assert oracle.check_kms([rec[:5] + (1e-6, rec[6])]) == 1


def test_tensor_check_rejects_shifted_enclosure(records):
    rec = records["tensor-verify"][0]
    enclosure = tuple((lo + 1e-6, hi + 1e-6) for lo, hi in rec[4])
    assert oracle.check_tensor([rec[:4] + (enclosure,)]) == 1


def test_tensor_check_rejects_wrong_diagonal_count(records):
    rec = records["tensor-verify"][0]
    assert oracle.check_tensor([rec[:3] + (rec[3] + 1, rec[4])]) == 1


def test_beta_check_rejects_moved_beta(records):
    rows, omega, lo, hi, mode = records["beta-float"][0]
    assert oracle.check_beta([(rows, omega, lo + 1e-6, hi + 1e-6, mode)]) == 1


def test_label_check_rejects_exponent_off_by_one(records):
    recs = records["type-labels"]
    power = next(r for r in recs if r[0] == "power-k")
    kind, data, base, label, exps = power
    poly, lo, hi, e = label[2][0]
    bad = (kind, data, base, ("p", label[1], ((poly, lo, hi, e + 1),)), exps)
    assert oracle.check_labels([bad]) == 1
    rational = next(r for r in recs if r[0] == "rational" and r[3] != ("q", 1))
    kind, data, base, label, exps = rational
    assert oracle.check_labels([(kind, data, base, ("q", label[1] ** 2), exps)]) == 1


def test_rational_label_arithmetic():
    F = oracle.Fraction
    assert oracle.rational_label([F(1, 4), F(1, 8)]) == F(1, 2)
    assert oracle.rational_label([F(4, 9), F(16, 81)]) == F(4, 9)
    assert oracle.rational_label([F(1, 2), F(1, 3)]) == 1
    assert oracle.rational_label([F(1, 2), F(2, 1) ** -1]) == F(1, 2)


# ---------------------------------------------------------------------------
# tracer


def _profiled_calls(stats, ck) -> dict:
    """ncalls per traced function, matched on source file, line and name."""
    out = {}
    for name in tracer.traced_names():
        mod, fn = name.split(".")
        f = inspect.unwrap(getattr(getattr(ck, mod), fn))
        key = (inspect.getsourcefile(f), f.__code__.co_firstlineno, f.__name__)
        out[name] = stats.stats[key][1] if key in stats.stats else 0
    return out


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_calls_match_cprofile(workload):
    profiler = cProfile.Profile()
    one_round(workload, profiler=profiler)
    ck = harness.fresh_import()
    expected = _profiled_calls(pstats.Stats(profiler), ck)
    traced = one_round(workload, trace=True)["tracer"]
    got = dict(zip(traced.names, traced.calls))
    assert got == expected
    assert sum(got.values()) > 0
    assert len(traced.start) == sum(got.values())


def test_self_time_excludes_children():
    traced = one_round("type-labels", trace=True)["tracer"]
    total = {}
    for i in range(len(traced.start)):
        if traced.parent[i] == -1:
            name = traced.names[traced.name_id[i]]
            total[name] = total.get(name, 0.0) + traced.end[i] - traced.start[i]
    self_sum = sum(traced.self_s)
    # self times partition the root spans' durations
    assert self_sum == pytest.approx(sum(total.values()), rel=1e-6)
    assert set(tracer.metric_names()) == set(traced.metrics())

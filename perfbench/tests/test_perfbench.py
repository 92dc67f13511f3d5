"""The benchmark's own tests: a tiny run of every workload, each check
against a planted wrong answer, and the refusal to run without sources.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

import copy
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import checks
import inputs
from repro import convert_to_hsdf, throughput
from repro.graphs import TABLE1_CASES
from repro.graphs.csdf_apps import ip_frame_decoder

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.01", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, cwd=cwd, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_reports_every_metric(workload, trace):
    done = run_bench(workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], done.stderr
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench("table1", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert "metrics" not in done.stdout


@pytest.fixture(scope="module")
def modem():
    case = next(c for c in TABLE1_CASES if c.name == "modem")
    g = case.build()
    return case, g, throughput(g, method="symbolic"), convert_to_hsdf(g), \
        throughput(g, method="hsdf")


def table1_problems(case, g, sym, h, cls, **planted):
    figures = dict(classical_actors=case.paper_traditional,
                   symbolic_cycle_time=sym.cycle_time,
                   classical_cycle_time=cls.cycle_time,
                   compact_cycle_time=throughput(h.graph, method="hsdf").cycle_time,
                   tokens=sum(e.tokens for e in g.edges),
                   compact_actors=h.actor_count, compact_edges=h.edge_count)
    figures.update(planted)
    return checks.check_table1(case.name, case.paper_traditional, **figures)


def test_table1_check_accepts_the_right_answer(modem):
    assert table1_problems(*modem) == []


@pytest.mark.parametrize("planted", [
    {"symbolic_cycle_time": Fraction(42)},
    {"classical_cycle_time": Fraction(41, 2)},
    {"compact_cycle_time": Fraction(40)},
    {"classical_actors": 47},
    {"compact_actors": 14 * 16 + 1},
    {"compact_edges": 14 * 29 + 1},
])
def test_table1_check_rejects_a_planted_wrong_answer(modem, planted):
    assert table1_problems(*modem, **planted)


def test_witness_check_rejects_a_perturbed_cycle_time(modem):
    case, g, sym, _, _ = modem
    assert checks.check_witness(g, sym) == []
    tampered = copy.deepcopy(sym)
    tampered.provenance.cycle_time += 1
    assert checks.check_witness(g, tampered)


def test_csdf_bounds_reject_a_cycle_time_outside_them():
    from repro.csdf.analysis import csdf_throughput

    g = ip_frame_decoder()
    result = csdf_throughput(g)
    upper = Fraction(36)
    assert checks.check_csdf_bounds(g, result.repetition, result.cycle_time, upper) == []
    lower = checks.self_loop_lower_bound(g, result.repetition)
    assert checks.check_csdf_bounds(g, result.repetition, lower - 1, upper)
    assert checks.check_csdf_bounds(g, result.repetition, upper + 1, upper)


@pytest.mark.parametrize("family, n, exact, bound", [
    ("prefetch", 6, 23, 30), ("remote-memory", 8, 800, 800)])
def test_abstraction_check_uses_the_paper_closed_forms(family, n, exact, bound):
    assert checks.check_abstraction("m", family, n, exact, bound, True) == []
    assert checks.check_abstraction("m", family, n, exact + 1, bound, None)
    assert checks.check_abstraction("m", family, n, exact, bound - 1, None)
    assert checks.check_abstraction("m", family, n, exact, bound, False)


def test_csdf_set_is_seeded():
    def shape(graphs):
        return [(g.name, [(e.source, e.target, e.production, e.consumption, e.tokens)
                          for e in g.edges]) for g in graphs]

    assert shape(inputs.csdf_set(7, 5)) == shape(inputs.csdf_set(7, 5))
    assert shape(inputs.csdf_set(7, 5)) != shape(inputs.csdf_set(8, 5))

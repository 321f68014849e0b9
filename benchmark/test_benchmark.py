"""Self-test of the benchmark: short runs of every workload, and proof that the
checks reject a wrong program.

    python3 -m pytest benchmark/test_benchmark.py -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import program
import reference as ref
from workloads import FLAT_SERIES, SERIES_SLOTS, THETA, Entropy, Portrait, Runner, Series, check

RUN = Path(__file__).resolve().parent / "run.py"


def _run(args, cwd=program.ROOT, timeout=300):
    return subprocess.run([sys.executable, str(RUN), *args], cwd=cwd, capture_output=True,
                          text=True, timeout=timeout)


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["portraits", "series", "entropy"])
def test_short_run_prints_end_to_end_metrics(workload):
    res = _result(_run(["--workload", workload, "--seed", "7", "--seconds", "0.2", "--trace", "0"]))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True
    assert set(res["metrics"]) == {"setup_s", "experiments_per_s", "experiment_p50_s",
                                   "cpu_s_per_experiment", "peak_rss_mb"}
    assert all(m["value"] > 0 for m in res["metrics"].values())
    if workload == "series":
        # whole rounds: exactly the flat-series requests fail
        per_round = len(SERIES_SLOTS) + len(FLAT_SERIES)
        assert res["attempted"] % per_round == 0
        assert res["failed"] == res["attempted"] // per_round * len(FLAT_SERIES)
    else:
        assert res["failed"] == 0


def test_traced_run_prints_layer_metrics():
    res = _result(_run(["--workload", "series", "--seed", "7", "--seconds", "0.2", "--trace", "1"]))
    layers = json.loads((program.ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert {m["name"] for m in layers} <= set(res["metrics"])
    assert "trace.overhead_pct" in res["metrics"]
    assert res["metrics"]["moments.self_s"]["value"] > 0
    assert res["metrics"]["evolution.amplitude_updates"]["value"] > 0
    assert res["metrics"]["wigner.grid_points"]["value"] == 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(program.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(RUN.parent, tmp_path / RUN.parent.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, str(tmp_path / RUN.parent.name / "run.py"), "--workload",
                           "series", "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


# the checks against deliberately wrong programs --------------------------------

REQUESTS = [
    Portrait(2, 15.0, 121, Fraction(1, 8), THETA, 0),
    Series(1, "x", 4, Fraction(1), 401),
    Series(2, "p", 6, Fraction(1, 2), 1441),
    Entropy(2, 20.0, 2 / 3, 2.0),
]


@pytest.fixture(scope="module")
def kc():
    return program.import_kerrcat()


@pytest.fixture
def runner(kc, tmp_path):
    return Runner(kc, tmp_path)


def _conjugated(dim, chi, t):
    n = np.arange(dim, dtype=np.float64)
    return np.exp(+1j * chi * t * n * (n - 1))


def _n_squared(dim, chi, t):
    n = np.arange(dim, dtype=np.float64)
    return np.exp(-1j * np.mod(chi * t * n * n, 2 * np.pi))


@pytest.mark.parametrize("req", REQUESTS, ids=lambda r: r.name)
def test_checks_pass_the_program(runner, req):
    assert check(req, runner.run(req)).problems == []


@pytest.mark.parametrize("mutant", [_conjugated, _n_squared], ids=["conjugated", "n_squared"])
@pytest.mark.parametrize("req", REQUESTS, ids=lambda r: r.name)
def test_checks_reject_a_wrong_propagator(runner, kc, monkeypatch, req, mutant):
    monkeypatch.setattr(kc.evolution, "_phase_factors", mutant)
    assert check(req, runner.run(req)).problems


def test_checks_reject_a_silent_burst_detector(runner, kc, monkeypatch):
    monkeypatch.setattr(kc.schedule, "detect_bursts", lambda series: [])
    verdict = check(REQUESTS[1], runner.run(REQUESTS[1]))
    assert verdict.problems and verdict.schedule_only


# the references themselves ------------------------------------------------------

def test_normal_ordering_of_second_moments():
    x2 = {(i, j): c for c, i, j in ref.normal_ordered("x", 2)}
    p2 = {(i, j): c for c, i, j in ref.normal_ordered("p", 2)}
    assert x2 == pytest.approx({(0, 2): 0.5, (1, 1): 1.0, (2, 0): 0.5, (0, 0): 0.5})
    assert p2 == pytest.approx({(0, 2): -0.5, (1, 1): 1.0, (2, 0): -0.5, (0, 0): 0.5})


def test_revival_components():
    w, lab = ref.revival_components(1, 20.0, THETA, Fraction(1, 4))
    assert w.size == 4 and np.allclose(np.abs(w), np.abs(w[0]))
    w, lab = ref.revival_components(3, 20.0, THETA, Fraction(1))
    assert w.size == 3  # exact revival: the initial three components
    w, lab = ref.revival_components(1, 0.0, THETA, Fraction(0))
    vac = ref.wigner_coherent_sum(w, lab, np.zeros(1), np.zeros(1))
    assert vac[0] == pytest.approx(1 / math.pi)


def test_burst_schedule():
    assert ref.burst_schedule(2, 2, Fraction(1)) == [Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)]
    assert ref.burst_schedule(3, 2, Fraction(1)) == []
    assert ref.burst_schedule(1, 1, Fraction(1)) == []

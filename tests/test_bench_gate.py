"""The benchmark regression gate compares like with like.

``benchmarks/check_regression.py`` must refuse a baseline from another
tier, a workload run at another size and a counter that moved at all,
and must fail a wall-clock regression above its threshold.  Real
``bench_sat``, ``bench_arith``, ``bench_smt`` and ``bench_proof`` smoke
runs, driven in-process through the shared harness, must pass the gate
against the committed baselines, exact search and checker counters
included.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"
sys.path.insert(0, str(BENCHMARKS))

import bench_arith  # noqa: E402
import bench_proof  # noqa: E402
import bench_sat  # noqa: E402
import bench_smt  # noqa: E402
import check_regression  # noqa: E402
import harness  # noqa: E402


def payload(mode="smoke", n=4, seconds=0.01, conflicts=28, hits=120, rup=27) -> dict:
    return {
        "bench": "toy",
        "mode": mode,
        "python": "3.11.7",
        "results": [
            {
                "workload": "pigeonhole",
                "n": n,
                "answer": "unsat",
                "solver": {"conflicts": conflicts, "decisions": 40},
                "checker": {"rup_checked": rup, "propagations": 454},
                "intern": {"hits": hits, "misses": 60, "hit_rate": 0.6667},
                "seconds": {"encode": seconds / 2, "solve": seconds / 2},
            }
        ],
    }


def gate(tmp_path: Path, fresh: dict, baseline: dict) -> int:
    baseline_dir = tmp_path / "baselines"
    baseline_dir.mkdir()
    (baseline_dir / "BENCH_toy.json").write_text(json.dumps(baseline), encoding="utf-8")
    fresh_path = tmp_path / "BENCH_toy.json"
    fresh_path.write_text(json.dumps(fresh), encoding="utf-8")
    return check_regression.main([str(fresh_path), "--baseline-dir", str(baseline_dir)])


def test_identical_payloads_pass(tmp_path):
    assert gate(tmp_path, payload(), payload()) == 0


@pytest.mark.parametrize(
    "fresh, message",
    [
        (payload(mode="full"), "mode differs: baseline 'smoke', fresh 'full'"),
        (payload(n=5), "n differs: baseline 4, fresh 5"),
        (payload(conflicts=29), "pigeonhole.conflicts: baseline 28, fresh 29"),
        (payload(hits=121), "pigeonhole.intern.hits: baseline 120, fresh 121"),
        (payload(rup=28), "pigeonhole.checker.rup_checked: baseline 27, fresh 28"),
    ],
    ids=["mode", "n", "solver-counter", "intern-counter", "checker-counter"],
)
def test_mismatch_fails_naming_both_values(tmp_path, capsys, fresh, message):
    assert gate(tmp_path, fresh, payload()) == 1
    assert message in capsys.readouterr().out


def test_timing_regression_above_floor_fails(tmp_path):
    assert gate(tmp_path, payload(seconds=0.26), payload(seconds=0.1)) == 1


def test_timing_within_threshold_or_below_floor_passes(tmp_path):
    assert gate(tmp_path, payload(seconds=0.24), payload(seconds=0.1)) == 0
    (tmp_path / "sub").mkdir()
    assert gate(tmp_path / "sub", payload(seconds=0.04), payload(seconds=0.001)) == 0


def test_workload_on_one_side_only_is_reported_not_failed(tmp_path):
    fresh = payload()
    fresh["results"].append({**fresh["results"][0], "workload": "new_family"})
    assert gate(tmp_path, fresh, payload()) == 0


def test_missing_fresh_result_for_discovered_baseline_fails(tmp_path, monkeypatch):
    baseline_dir = tmp_path / "baselines"
    baseline_dir.mkdir()
    (baseline_dir / "BENCH_toy.json").write_text(json.dumps(payload()), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert check_regression.main(["--baseline-dir", str(baseline_dir)]) == 1


@pytest.mark.parametrize(
    "suite, names",
    [
        (bench_sat, ["pigeonhole", "random_3sat", "xor_chain_sat", "xor_chain_unsat"]),
        (bench_arith, ["dense_simplex", "sparse_simplex", "branch_bound", "diamond_lra"]),
        (bench_smt, ["euf_orbit", "euf_pigeonhole", "euf_model", "incremental"]),
        (
            bench_proof,
            [
                "pigeonhole_plain",
                "pigeonhole_logged",
                "pigeonhole_check",
                "random_3sat_logged",
                "engine_unsat_core",
            ],
        ),
    ],
    ids=["sat", "arith", "smt", "proof"],
)
def test_bench_smoke_passes_gate_against_committed_baseline(tmp_path, suite, names):
    bench = suite.__name__.removeprefix("bench_")
    out = tmp_path / f"BENCH_{bench}.json"
    argv = ["--mode", "smoke", "--out", str(out)]
    assert harness.main(bench, suite.MODE_SIZES, suite.workloads, suite.COLUMNS, argv) == 0
    fresh = json.loads(out.read_text(encoding="utf-8"))
    assert fresh["mode"] == "smoke"
    assert [row["workload"] for row in fresh["results"]] == names
    assert check_regression.main([str(out)]) == 0

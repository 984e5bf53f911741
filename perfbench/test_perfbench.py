"""Tests of the benchmark itself, at toy sizes.

    python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checker  # noqa: E402
import child  # noqa: E402
import primediff  # noqa: E402
import run  # noqa: E402

child.pd = primediff
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_prints_with_its_unit(workload, trace):
    proc = _run("--workload", workload, "--seed", "0", "--seconds", "1", "--trace", str(trace), "--toy")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, lines
    wanted = BENCH["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {k: v["unit"] for k, v in result["metrics"].items()}
    table = {line.split()[0]: line.split() for line in lines[:-1] if not line.startswith("#")}
    for m in wanted:
        assert table[m["name"]][2] == m["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_every_layer_metric_is_measured_on_some_workload():
    proc = _run("--workload", "all", "--seed", "0", "--seconds", "1", "--trace", "1", "--toy")
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    for m in BENCH["per_layer"]:
        values = [metrics[f"{w}/{m['name']}"]["value"] for w in run.WORKLOADS]
        assert any(values), m["name"]


def test_layer_map_covers_every_layer_metric():
    mapped = json.loads((HERE / "layers.json").read_text())["layers"]
    for m in BENCH["per_layer"]:
        name = m["name"]
        assert name in mapped or name.rsplit(".", 1)[0] in mapped, name


def test_without_sources_it_fails_without_a_result():
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for f in HERE.iterdir():
        if f.is_file():
            shutil.copy(f, bare / "perfbench")
    proc = _run("--workload", "search", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# -- every kind of bad output is a counted failure ---------------------------

SIEVE = checker.Sieve(200)


def _failures(monkeypatch, name, fake, task):
    monkeypatch.setattr(primediff, name, fake)
    ctx = child.Pass(SIEVE, trace=False, digest=False, workdir=str(ROOT), cli_cap=0)
    res = child.run_tasks(ctx, [(0, task)])
    assert res["failed_tasks"] == 1
    return ctx.failures


def test_swapped_vertex_pair_is_a_failure(monkeypatch):
    real = primediff.hamilton_path

    def swapped(n, a, b):
        w = real(n, a, b)
        s = w.sequence
        return primediff.PathWitness(w.interval, (s[1], s[0], *s[2:]))

    assert _failures(monkeypatch, "hamilton_path", swapped, lambda ctx: child.t_path(20, 3, 17, ctx))


def test_non_prime_step_is_a_failure(monkeypatch):
    def ascending(n, a, b):
        middle = [v for v in range(1, n + 1) if v not in (a, b)]
        return primediff.PathWitness(primediff.Interval(1, n), (a, *middle, b))

    failures = _failures(monkeypatch, "hamilton_path", ascending, lambda ctx: child.t_path(20, 3, 17, ctx))
    assert failures == ["non-prime difference"]


def test_missing_required_edge_is_a_failure(monkeypatch):
    n, edge = 20, (4, 11)
    real = primediff.hamilton_cycle_through_edge
    other = next(
        w for e in [(a, a + 2) for a in range(1, n - 1)]
        for w in [real(n, e)]
        if checker.cycle(SIEVE, w.sequence, 1, n, required_edge=edge) == "missing required edge"
    )
    failures = _failures(monkeypatch, "hamilton_cycle_through_edge", lambda n, e: other,
                         lambda ctx: child.t_cycle(n, edge, ctx))
    assert failures == ["missing required edge"]


def test_shared_family_edge_is_a_failure(monkeypatch):
    real = primediff.edge_disjoint_cycles

    def doubled(n):
        fam = real(n)
        return primediff.DisjointFamily(fam.interval, fam.cycles + fam.cycles[:1], fam.sources + fam.sources[:1])

    failures = _failures(monkeypatch, "edge_disjoint_cycles", doubled, lambda ctx: child.t_family(100, 7, ctx))
    assert failures == ["shared edge"]


def test_wrong_oracle_answer_is_a_failure(monkeypatch):
    failures = _failures(monkeypatch, "prime_arithmetic_progression", lambda k, limit: None,
                         lambda ctx: child.t_ap(5, 100, (5, 11, 17, 23, 29), ctx))
    assert failures == ["AP(5, 100) = None, expected (5, 11, 17, 23, 29)"]


def test_digest_mismatch_is_a_failure():
    passes = [{"traced": False, "attempted": 3, "failures": [], "failed_tasks": 0, "digest": "0" * 64,
               "wall_ns": 10**9, "latencies_ns": [1, 2, 3], "returned_vertices": 9, "maxrss_kb": 1024,
               "retained_bytes": 0, "cli_maxrss_kb": 0}]
    out = run.reduce("search", run.DEFAULT_SEED, "toy", passes, [0.1])
    assert out["failed"] == 1 and "digest" in out["failures"][0]
    assert run.reduce("search", run.DEFAULT_SEED + 1, "toy", passes, [0.1])["failed"] == 0


def test_checker_accepts_library_witnesses():
    assert checker.path(SIEVE, primediff.hamilton_path(30, 5, 6).sequence, 1, 30, (5, 6)) is None
    assert checker.cycle(SIEVE, primediff.cycle_diff23(30).sequence, 1, 30, allowed={2, 3}) is None
    assert checker.two_factor(SIEVE, primediff.two_factor(20, (3, 4, 13)).cycles, 1, 20, (3, 4, 13)) is None
    fam = primediff.edge_disjoint_cycles(100)
    assert checker.family(SIEVE, [c.sequence for c in fam.cycles], 1, 100) is None

#!/usr/bin/env python3
"""primediff benchmark: three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload sweep-dense --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one table each
    python3 perfbench/run.py --workload search --toy   # toy sizes, about a second

Run from the repository root (or anywhere: paths are taken from this file).
Each measured pass of a workload runs in its own fresh process (child.py),
which imports primediff from ../src, so the timed section starts with a cold
sieve and an empty memo, as a CLI call or a new library process does.  Passes
repeat while the next one still fits in --seconds; timings are medians over
passes.  `setup_s` is the median over every pass and over extra set-up-only
processes.  With --trace 0 the last stdout line carries the end-to-end
metrics of BENCHMARK.json, from untraced passes; with --trace 1 it carries
the per-layer metrics, from traced passes alternating with untraced ones
(their difference is the tracing overhead).  Spans go to .perfbench/.

Every output is checked by checker.py; at the default seed the outputs'
SHA-256 must also match digests.json.  Each workload child and each CLI
process it starts runs under an address-space cap, so a memory regression
fails as a counted failure instead of exhausting the machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
WORKLOADS = ("sweep-dense", "witness-large", "search")
DEFAULT_SEED = 0
CHILD_CAP = 3 << 30  # address-space cap of a workload child, bytes
CLI_CAP = 1 << 30  # and of each CLI process it starts
SETUP_PROBES = 5  # set-up-only processes per run, on top of the passes
DEADLINE_S = 170  # a run stops starting passes and kills stragglers here
# Printed with the end-to-end table but not in BENCHMARK.json: per-call
# percentiles are steady only on sweep-dense (about 1,000 calls beyond p99);
# witness-large and search make a few dozen calls, so there a percentile is
# one call's time and spreads wider than any bound.  failed_ratio is 0 when
# the program is correct; BENCHMARK.json carries ok_ratio = 1 - failed_ratio.
UNGATED = (("call_p50_us", "us"), ("call_p99_us", "us"), ("failed_ratio", "ratio"))


class RunError(Exception):
    """The benchmark itself could not run (not a failed program output)."""


def spawn(cfg: dict, deadline: float) -> dict:
    """Run one child; return its result plus setup_s and elapsed_s."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("ORACLE_MAX_ORDER", None)
    t0 = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), json.dumps(cfg)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        cwd=ROOT,
        start_new_session=True,  # so a timeout can stop its CLI processes too
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return {"crash": "timed out"}
    elapsed = time.monotonic() - t0
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"crash": f"exit {proc.returncode}: {err.strip()[-1500:]}"}
    res = json.loads(lines[-1])
    # Both clocks are CLOCK_MONOTONIC, which is system-wide.
    res["setup_s"] = res["setup_done"] - t0
    res["elapsed_s"] = elapsed
    if not Path(res["primediff"]).resolve().is_relative_to(ROOT / "src"):
        res["crash"] = f"imported primediff from {res['primediff']}, not from src/"
    return res


def percentile(sorted_xs, q: int):
    """Nearest-rank q-th percentile of an ascending list."""
    return sorted_xs[max(0, (q * len(sorted_xs) + 99) // 100 - 1)]


def provenance(seed: int) -> dict:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except OSError:
        commit = None
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted((ROOT / "src" / "primediff").glob("*.py")))
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "seed": seed,
        "git_commit": commit,
        "src_primediff_lines": src_lines,
    }


def measure(workload: str, seed: int, seconds: float, trace: bool, size: str) -> dict:
    """Run the passes of one workload and reduce them to metrics."""
    deadline = time.monotonic() + DEADLINE_S
    WORK.mkdir(exist_ok=True)
    base = {
        "workload": workload,
        "seed": seed,
        "size": size,
        "cap_bytes": CHILD_CAP,
        "cli_cap_bytes": CLI_CAP,
        "workdir": str(WORK),
        "setup_only": True,
        "trace": False,
        "digest": False,
    }
    # The first process compiles bytecode; no measured process pays for that.
    warm = spawn(base, deadline)
    if "crash" in warm:
        raise RunError(f"{workload}: set-up failed: {warm['crash']}")
    setups = []
    for _ in range(SETUP_PROBES):
        probe = spawn(base, deadline)
        if "crash" in probe:
            raise RunError(f"{workload}: set-up failed: {probe['crash']}")
        setups.append(probe["setup_s"])

    passes = []
    start = time.monotonic()
    longest = 0.0
    while True:
        traced = trace and len(passes) % 2 == 1
        spans = WORK / f"spans-{workload}-{size}-seed{seed}-pass{len(passes)}.jsonl"
        cfg = dict(base, setup_only=False, trace=traced, digest=seed == DEFAULT_SEED, spans_path=str(spans))
        res = spawn(cfg, deadline)
        res["traced"] = traced
        passes.append(res)
        if "crash" in res:
            break
        setups.append(res["setup_s"])
        longest = max(longest, res["elapsed_s"])
        now = time.monotonic()
        if now + longest > deadline:
            break
        if (not trace or len(passes) >= 2) and now - start + longest > seconds:
            break
    return reduce(workload, seed, size, passes, setups)


def reduce(workload: str, seed: int, size: str, passes: list, setups: list) -> dict:
    plain = [p for p in passes if "crash" not in p and not p["traced"]]
    traced = [p for p in passes if "crash" not in p and p["traced"]]
    if not plain:
        crash = next(p["crash"] for p in passes if "crash" in p)
        raise RunError(f"{workload}: no pass completed: {crash}")

    attempted = sum(p.get("attempted", 1) for p in passes)
    failures = [f for p in passes for f in p.get("failures", [p.get("crash")]) if f]
    failed = sum(p.get("failed_tasks", 1) for p in passes)
    expected = json.loads((HERE / "digests.json").read_text())[size].get(workload)
    digests = sorted({p["digest"] for p in plain + traced if p.get("digest")})
    if seed == DEFAULT_SEED and digests != [expected]:
        failed += 1
        failures.append(f"digest {digests} does not match the recorded {expected}")

    walls = [p["wall_ns"] / 1e9 for p in plain]
    lat = sorted(x for p in plain for x in p["latencies_ns"])
    m = {
        "setup_s": median(setups),
        "wall_s": median(walls),
        "calls_per_s": median([p["attempted"] / (p["wall_ns"] / 1e9) for p in plain]),
        "ns_per_vertex": median([p["wall_ns"] / p["returned_vertices"] for p in plain]),
        "call_p50_us": percentile(lat, 50) / 1e3,
        "call_p99_us": percentile(lat, 99) / 1e3,
        "peak_rss_mb": median([p["maxrss_kb"] / 1024 for p in plain]),
        "ok_ratio": 1 - failed / attempted,
        "failed_ratio": failed / attempted,
    }
    samples = {
        "passes": len(plain),
        "traced_passes": len(traced),
        "setup_samples": len(setups),
        "call_samples": len(lat),
        "calls_beyond_p99": len(lat) - len(lat) * 99 // 100,
    }
    m["paths.retained_mb"] = median([p["retained_bytes"] / 2**20 for p in plain])
    m["cli.peak_rss_mb"] = median([p["cli_maxrss_kb"] / 1024 for p in plain])
    if traced:
        m.update(layer_metrics(traced))
        m["trace.overhead_s"] = median([p["wall_ns"] / 1e9 for p in traced]) - m["wall_s"]
    return {
        "workload": workload,
        "metrics": m,
        "samples": samples,
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:20],
        "digest": digests,
        "passes": [{k: v for k, v in p.items() if k != "latencies_ns"} for p in passes],
    }


def layer_metrics(traced: list) -> dict:
    """Median over traced passes of each layer's self time, calls and vertices."""
    names = set().union(*(p["layers"] for p in traced))
    out = {}
    for name in names:
        for i, suffix in enumerate((".s", ".calls", ".vertices")):
            vals = [p["layers"].get(name, [0, 0, 0])[i] for p in traced]
            out[name + suffix] = median(vals) / (1e9 if suffix == ".s" else 1)
    out["paths.construct_est.s"] = median([p["construct_est_ns"] / 1e9 for p in traced])
    starts = [x for p in traced for x in p["cli_startup_ns"]]
    out["cli.startup.s"] = median(starts) / 1e9 if starts else 0.0
    out["trace.spans"] = median([p["spans"] for p in traced])
    return out


def result_line(run: dict, wanted: list) -> dict:
    metrics = {}
    for spec in wanted:
        # A layer the workload never calls did no work: zero calls, zero time.
        metrics[spec["name"]] = {"value": run["metrics"].get(spec["name"], 0), "unit": spec["unit"]}
    return {
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }


def print_table(run: dict, wanted: list, prov: dict) -> None:
    s = run["samples"]
    print(f"# {run['workload']}  python {prov['python']}  nproc {prov['nproc']}  seed {prov['seed']}  "
          f"commit {prov['git_commit']}  src/primediff {prov['src_primediff_lines']} lines")
    print(f"# {s['passes']} untraced and {s['traced_passes']} traced passes; setup_s over {s['setup_samples']} "
          f"processes; call percentiles over {s['call_samples']} calls ({s['calls_beyond_p99']} beyond p99)")
    print(f"# {run['failed']} of {run['attempted']} calls failed; digest {run['digest']}")
    for f in run["failures"]:
        print(f"# FAILED: {f}")
    for spec in wanted:
        print(f"{spec['name']:<48} {run['metrics'].get(spec['name'], 0):>16.6f} {spec['unit']}")
    if "wall_s" in {spec["name"] for spec in wanted}:
        for name, unit in UNGATED:
            print(f"{name:<48} {run['metrics'][name]:>16.6f} {unit}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true", help="tiny input sizes, for the benchmark's own tests")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "primediff" / "__init__.py").is_file():
        print(f"perfbench: no primediff sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = bench["per_layer" if args.trace else "end_to_end"]
    prov = provenance(args.seed)
    size = "toy" if args.toy else "full"
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    lines = []
    for name in names:
        try:
            run = measure(name, args.seed, args.seconds, bool(args.trace), size)
        except RunError as e:
            print(f"perfbench: {e}", file=sys.stderr)
            return 1
        run["provenance"] = prov
        report = WORK / f"report-{name}-{size}-seed{args.seed}-trace{args.trace}.json"
        report.write_text(json.dumps(run, indent=1))
        print_table(run, wanted, prov)
        lines.append((name, result_line(run, wanted)))
    if len(lines) == 1:
        print(json.dumps(lines[0][1]))
    else:
        for name, line in lines:
            print(f"# {name}: {json.dumps(line)}")
        print(json.dumps({
            "correct": all(line["correct"] for _, line in lines),
            "attempted": sum(line["attempted"] for _, line in lines),
            "failed": sum(line["failed"] for _, line in lines),
            "metrics": {f"{n}/{k}": v for n, line in lines for k, v in line["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

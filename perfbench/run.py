"""greenheight benchmark: drives the CLI in-process on seeded inputs.

    python3 perfbench/run.py --workload presentations --seed 1 --seconds 35 --trace 0

Run it from the repository root. Each workload runs in a fresh child
interpreter (perfbench/child.py) with `src` on PYTHONPATH. With --trace 0
it reports the end-to-end metrics; with --trace 1 untraced and traced
passes alternate, and it reports the per-layer metrics of the traced
ones. Every time reported is divided by the machine's speed during the
run (see calib.py). `--workload all` runs every workload in turn. The last line of
output is one JSON object; the lines before it give every metric with its
unit, the tail percentile, the error rate and the environment. Outputs go
under .perfbench_run/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calib
import workloads

HERE = Path(__file__).resolve().parent
RUN_DIR = Path(".perfbench_run")
SETUP_RUNS = 5  # fresh interpreters timed before and again after the workload child
# Every time reported is divided by the run's calib.speed, measured between
# ops, so that a run in a slow stretch of the shared machine reads like one
# in a quick stretch.
TAIL_BEYOND = 10  # pooled samples above the tail sample
TIMEOUT_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMBA_NUM_THREADS")
# one fresh interpreter: kernel samples around the timed import of greenheight.cli
SETUP_SNIPPET = (f"import sys, time; sys.path.append({str(HERE)!r}); import calib; "
                 "r = [calib.sample() for _ in range(3)]; t = time.perf_counter(); "
                 "import greenheight.cli; d = time.perf_counter() - t; "
                 "r += [calib.sample() for _ in range(3)]; print(d, *r)")

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "op_p50_ms": "ms", "op_tail_ms": "ms",
                    "ops_per_s": "1/s", "peak_rss_mb": "MB"}


def child_env() -> dict:
    """PYTHONPATH with the checkout's src first; one BLAS/OpenMP thread.

    Every workload is single-threaded. With more BLAS threads, numpy's
    import starts a thread pool whose start-up time depends on whether the
    other cores are busy, which setup_s would measure.
    """
    env = dict(os.environ)
    src = str(Path("src").resolve())
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update({var: "1" for var in THREAD_VARS})
    return env


def run_child(workload, seed, seconds, trace, outdir, env, deadline):
    out = outdir / "child.json"
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--workdir", str(outdir / "inputs"),
           "--out", str(out)]
    subprocess.run(cmd, env=env, check=True, timeout=max(deadline - time.monotonic(), 1))
    return json.loads(out.read_text())


def setup_samples(env, deadline):
    samples = []
    for _ in range(SETUP_RUNS):
        done = subprocess.run([sys.executable, "-c", SETUP_SNIPPET], env=env, check=True,
                              capture_output=True, text=True,
                              timeout=max(deadline - time.monotonic(), 1))
        import_s, *refs = map(float, done.stdout.split())
        samples.append((import_s, refs))
    return samples


def quartiles(values):
    return statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3


def tail(samples):
    """Latency at the highest percentile with at least TAIL_BEYOND samples
    beyond it: (value, percentile, pooled sample count)."""
    xs = sorted(samples)
    k = len(xs) - TAIL_BEYOND - 1
    if k < 0:
        raise ValueError(f"{len(xs)} pooled op samples; the tail needs {TAIL_BEYOND + 1}")
    return xs[k], 100.0 * (k + 1) / len(xs), len(xs)


def end_to_end(res, setups):
    """Metrics from the untraced passes of one run; `setups` holds
    (import seconds, kernel samples) per fresh interpreter."""
    passes = res["passes"]
    speed = calib.speed([r for p in passes for r in p["ref_s"]])
    wall = {
        "run_s": statistics.fmean(p["run_s"] for p in passes),
        "op_s": [s for p in passes for s in p["op_s"]],
        "setup_s": [d for d, _ in setups],
    }
    run_s = wall["run_s"] / speed
    pooled = [s / speed for s in wall["op_s"]]
    tail_s, pct, count = tail(pooled)
    metrics = {
        "setup_s": statistics.median(d / calib.speed(refs) for d, refs in setups),
        "run_s": run_s,
        "op_p50_ms": statistics.median(pooled) * 1000,
        "op_tail_ms": tail_s * 1000,
        "ops_per_s": len(res["ops"]) / run_s,
        "peak_rss_mb": res["peak_rss_mb"],
    }
    notes = {
        "passes": len(passes),
        "speed": speed,
        "wall_run_s": wall["run_s"],
        "wall_run_s_quartiles": quartiles([p["run_s"] for p in passes]),
        "wall_op_p50_ms": statistics.median(wall["op_s"]) * 1000,
        "wall_setup_s": statistics.median(wall["setup_s"]),
        "op_tail_percentile": pct,
        "op_tail_samples": count,
        "setup_samples": setups,
    }
    if res["workload"] == "small-search":
        notes["tables_per_s"] = workloads.TABLES_PER_PASS / run_s
    return metrics, notes


def run_workload(workload, seed, seconds, trace, env, deadline):
    outdir = RUN_DIR / f"{workload}-seed{seed}-trace{trace}"
    outdir.mkdir(parents=True, exist_ok=True)
    if trace:
        res = run_child(workload, seed, seconds, 1, outdir, env, deadline)
        speed = {t: calib.speed([r for p in res["passes"] if p["traced"] == t for r in p["ref_s"]])
                 for t in (False, True)}
        metrics = {k: statistics.median(p[k] for p in res["layers"]) for k in res["layers"][0]}
        metrics.update({k: v / speed[True] for k, v in metrics.items() if k.endswith("_s")})
        mean_pass = {t: statistics.fmean(p["run_s"] for p in res["passes"] if p["traced"] == t)
                     / speed[t] for t in (False, True)}
        metrics["trace.overhead_ratio"] = mean_pass[True] / mean_pass[False]
        notes = {"spans_file": res["spans_file"], "traced_passes": len(res["layers"])}
    else:
        setups = setup_samples(env, deadline)
        res = run_child(workload, seed, seconds, 0, outdir, env, deadline)
        setups += [(res["setup_s"], res["setup_ref_s"])] + setup_samples(env, deadline)
        metrics, notes = end_to_end(res, setups)
    attempted = len(res["passes"]) * len(res["ops"])
    failed = len({(f["pass"], f["op"]) for f in res["failures"]})
    summary = {
        "workload": workload, "seed": seed, "trace": trace, "metrics": metrics, "notes": notes,
        "attempted": attempted, "failed": failed, "error_rate": failed / attempted,
        "failures": res["failures"][:20], "stdout_sha256": res["stdout_sha256"], "env": res["env"],
    }
    (outdir / "summary.json").write_text(json.dumps(summary, indent=1) + "\n")
    return summary


def unit_of(name):
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("_ratio") else "count"


def report(summary):
    """Human-readable lines: every metric with its unit, then the notes."""
    w = summary["workload"]
    for name, value in summary["metrics"].items():
        print(f"{w} {name}: {value:.6g} {unit_of(name)}")
    notes = summary["notes"]
    if "op_tail_percentile" in notes:
        print(f"{w} op_tail_ms is p{notes['op_tail_percentile']:.1f} of "
              f"{notes['op_tail_samples']} op samples from {notes['passes']} passes")
        q1, q2, q3 = notes["wall_run_s_quartiles"]
        print(f"{w} times are divided by speed {notes['speed']:.4f}; wall clock: "
              f"run_s {notes['wall_run_s']:.4f} s (pass quartiles {q1:.4f} {q2:.4f} {q3:.4f}), "
              f"op_p50_ms {notes['wall_op_p50_ms']:.2f} ms, setup_s {notes['wall_setup_s']:.4f} s")
    if "tables_per_s" in notes:
        print(f"{w} tables_per_s: {notes['tables_per_s']:.6g} 1/s")
    print(f"{w} error_rate: {summary['error_rate']:.6g} ({summary['failed']} of "
          f"{summary['attempted']} ops)")
    for f in summary["failures"]:
        print(f"{w} FAILED pass {f['pass']} {f['op']}: {f['problem']}")
    print(f"{w} env: {json.dumps(summary['env'], sort_keys=True)}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*workloads.BUILDERS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not Path("src/greenheight/cli.py").is_file():
        print("error: run from the root of a greenheight checkout (src/greenheight/cli.py "
              "not found)", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIMEOUT_S
    names = list(workloads.BUILDERS) if args.workload == "all" else [args.workload]
    if len(names) > 1:
        deadline += TIMEOUT_S * (len(names) - 1)
    env = child_env()
    try:
        summaries = [run_workload(n, args.seed, args.seconds, args.trace, env, deadline)
                     for n in names]
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for s in summaries:
        report(s)
    prefix = len(summaries) > 1
    failed = sum(s["failed"] for s in summaries)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": failed,
        "metrics": {(f"{s['workload']}.{k}" if prefix else k): {"value": v, "unit": unit_of(k)}
                    for s in summaries for k, v in s["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

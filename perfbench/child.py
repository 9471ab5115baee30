"""One workload in a fresh interpreter: time the import of greenheight.cli,
then run passes over the workload's ops, checking every op's output. An
untraced run makes workloads.passes() passes; a traced one goes on while
the next pass fits in --seconds. Writes a JSON result to --out.

Run by run.py with `src` on PYTHONPATH; not meant to be started by hand.
"""

import time

import calib  # imports only time, so it takes no work out of the import timed below

_ref0 = [calib.sample() for _ in range(3)]
_t0 = time.perf_counter()
import greenheight.cli as cli  # noqa: E402  (the import is what setup_s times)

SETUP_S = time.perf_counter() - _t0
SETUP_REF_S = _ref0 + [calib.sample() for _ in range(3)]

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib.util  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402
from run import THREAD_VARS  # noqa: E402


def environment() -> dict:
    from greenheight import _accel

    numba_active = _accel.numba_kernels is not None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "numba_kernels_none": not numba_active,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        # numbers taken under numba are not comparable with the reference
        "reference": not numba_active,
    }


def stdout_digest(out: str) -> str:
    """sha256 of the output without verify's elapsed_ms line."""
    kept = [line for line in out.splitlines(keepends=True) if not line.startswith("elapsed_ms:")]
    return hashlib.sha256("".join(kept).encode()).hexdigest()


def run_op(op):
    """(seconds, stdout, problems) for one cli.main call."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli.main(list(op.argv))
    except Exception as exc:  # an op that raises is a failed op, not a crash
        rc = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    text = out.getvalue()
    if rc != 0:
        return seconds, text, [f"exit {rc!r}: {err.getvalue().strip()}"]
    return seconds, text, op.check(text)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()

    ops = workloads.build(args.workload, args.seed, args.workdir)
    # with --trace 1, untraced and traced passes alternate, so that the
    # tracing overhead is measured under the same machine conditions
    tracer = spans.Tracer() if args.trace else None
    n_passes = workloads.passes(args.workload, args.seconds)

    passes, failures, digests, layers, last_spans = [], [], {}, [], []
    begin = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        restore = spans.instrument(tracer) if traced else None
        lat, refs = [], []
        try:
            for i, op in enumerate(ops):
                if traced:
                    tracer.op = len(passes) * len(ops) + i
                refs.append(calib.sample())
                seconds, text, problems = run_op(op)
                lat.append(seconds)
                digest = stdout_digest(text)
                if digests.setdefault(op.id, digest) != digest:
                    problems.append("stdout differs from the first pass")
                failures += [{"pass": len(passes), "op": op.id, "problem": p} for p in problems]
        finally:
            if restore is not None:
                restore()
        passes.append({"run_s": sum(lat), "op_s": lat, "ref_s": refs, "traced": traced})
        if traced:
            last_spans, counts = tracer.take()
            layers.append(spans.layer_metrics(last_spans, counts))
        # a traced run goes on while the next pass fits in --seconds
        if tracer is None:
            done = len(passes) == n_passes
        else:
            done = layers and time.perf_counter() - begin + passes[-1]["run_s"] > args.seconds
        if done:
            break

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "setup_s": SETUP_S,
        "setup_ref_s": SETUP_REF_S,
        "ops": [op.id for op in ops],
        "passes": passes,
        "failures": failures,
        "stdout_sha256": digests,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "env": environment(),
    }
    if layers:
        # every pass gives metrics; the spans of the last pass are kept
        result["layers"] = layers
        trace_path = args.out.with_suffix(".spans.jsonl")
        with open(trace_path, "w") as f:
            spans.write_jsonl(f, last_spans, len(passes) - 1)
        result["spans_file"] = str(trace_path)
    args.out.write_text(json.dumps(result, indent=1) + "\n")


if __name__ == "__main__":
    main()

"""One round of a workload in a fresh single-threaded process.

    python3 worker.py --workload NAME --seed N --dir ROUND_DIR --t0 T
                      --result FILE [--trace SPANS_FILE] [--check]

Sets the workload up, runs its operations in order, and writes a JSON
result: set-up time (from T, the wall-clock time the parent took just
before starting this process, to the end of set-up), each operation's
latency, exit code and output SHA-256, the machine's slowdown after set-up
and around each operation (against a calibration loop), the peak resident
memory after the last operation, and, as asked, per-layer figures or
correctness problems.  All times are raw; the parent scales them.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import random
import resource
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path


# A fixed loop of dict, tuple and int work, timed after set-up and after
# every operation.  The machine's speed moves by up to 80% between states
# that last a second to minutes, and the program slows with the loop, so
# the parent scales an operation's latency by its slowdown: the mean time
# of the two loops around it over CALIBRATION_S (see SLOWDOWN_EXPONENT in
# run.py).
CALIBRATION_S = 0.01
CALIBRATION_STEPS = 36000


def calibration_s():
    start = time.perf_counter()
    d = {}
    total = 0
    for i in range(CALIBRATION_STEPS):
        k = (i % 97, i % 13)
        d[k] = d.get(k, 0) + i
        total += len(d)
    return time.perf_counter() - start


def output_hash(root, code, stdout, stderr, outputs):
    """SHA-256 of everything an operation produced; paths relative to root."""
    h = hashlib.sha256()
    h.update(("code=%r\n" % (code,)).encode())
    for chunk in (stdout, stderr):
        h.update(chunk.encode())
        h.update(b"\0")
    for out in outputs:
        files = sorted(p for p in out.rglob("*") if p.is_file()) if out.is_dir() else [out]
        for p in files:
            if p.exists():
                h.update(str(p.relative_to(root)).encode() + b"\0")
                h.update(p.read_bytes())
    return h.hexdigest()


def run_op(op, root):
    out, err = io.StringIO(), io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = op.call()
    except SystemExit as e:  # argparse rejects an argv with exit code 2
        code = e.code
    except Exception:
        code, error = None, traceback.format_exc()
    latency = time.perf_counter() - start
    stdout, stderr = out.getvalue(), err.getvalue()
    return {
        "label": op.label,
        "latency_s": latency,
        "code": code,
        "failed": error is not None or code not in (0, 1),
        "error": error or (stderr if code not in (0, 1) else None),
        "hash": output_hash(root, code, stdout, stderr, op.outputs),
        "stdout": stdout,
        "stderr": stderr,
    }


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--dir", required=True)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--trace", default=None)
    p.add_argument("--check", action="store_true")
    args = p.parse_args(argv)

    import tracing
    import workloads

    root = Path(args.dir)
    wl = workloads.WORKLOADS[args.workload]()
    ops = wl.setup(root, random.Random(args.seed))
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    setup_s = time.time() - args.t0
    loops = [calibration_s()]
    results = []
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        results.append(run_op(op, root))
        loops.append(calibration_s())
        results[-1]["slowdown"] = (loops[-2] + loops[-1]) / 2 / CALIBRATION_S
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    doc = {
        "setup_s": setup_s,
        "slowdown": loops[0] / CALIBRATION_S,
        "wall_s": sum(r["latency_s"] for r in results),
        "peak_rss_mib": peak_rss_mib,
        "ops": results,
    }
    if tracer is not None:
        tracer.uninstall()
        doc["layers"] = tracing.layer_values(tracer)
        tracer.write(args.trace)
    if args.check:
        try:
            doc["problems"] = wl.check(ops, results)
        except Exception:
            doc["problems"] = ["a check raised:\n" + traceback.format_exc()]
    for r in results:
        del r["stdout"], r["stderr"]
    Path(args.result).write_text(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""arrowforms benchmark: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload {solve,check,walk,span} --seed N
                             --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from
`src/`.  Every round of the workload's fixed operation list runs in a fresh
single-threaded worker process, and rounds are started while they can end
within S seconds (at least one).  Reported times are scaled by the
machine's slowdown against a calibration loop timed around every operation
(see worker.py and SLOWDOWN_EXPONENT); the result file keeps the raw
times.  After its operations, the first round checks every output against
the oracles.  With --trace 1, rounds alternate
between untraced and traced, and the per-layer figures of the traced rounds
are reported instead of the end-to-end ones.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}.
Results (with every operation's output SHA-256) and spans go to
`.perfbench_out/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("solve", "check", "walk", "span")
LIMIT_S = 170  # every run ends within this many seconds
# In the machine's slow state the calibration loop (worker.py) slows by
# 1.7-1.8x and the program's operations by 1.5-1.6x, so a time is divided
# by slowdown ** 0.8 (ln 1.58 / ln 1.75 = 0.82).
SLOWDOWN_EXPONENT = 0.8

sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import tracing  # noqa: E402


class BenchError(Exception):
    pass


def source_digest():
    h = hashlib.sha256()
    for base in (SRC / "arrowforms", HERE):
        for p in sorted(base.glob("*.py")):
            h.update(p.name.encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def run_round(args, index, work, deadline, check=False, traced=False):
    rdir = work / ("r%d" % index)
    rdir.mkdir(parents=True)
    result = work / ("r%d.json" % index)
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--dir", str(rdir), "--result", str(result),
    ]
    if check:
        cmd.append("--check")
    if traced:
        cmd += ["--trace", str(OUT / ("%s-s%d.trace.json" % (args.workload, args.seed)))]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("no time left for round %d" % index)
    t0 = time.time()
    try:
        proc = subprocess.run(
            cmd + ["--t0", repr(t0)], cwd=str(ROOT), env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchError("round %d did not end within %.0f s" % (index, timeout))
    if proc.returncode != 0:
        raise BenchError("round %d worker exited %d:\n%s" % (index, proc.returncode, proc.stderr[-4000:]))
    doc = json.loads(result.read_text())
    shutil.rmtree(rdir)
    result.unlink()
    doc["traced"] = traced
    return doc


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    hard_deadline = time.monotonic() + LIMIT_S

    if not (SRC / "arrowforms" / "__init__.py").is_file():
        raise BenchError("program sources not found at %s" % SRC)
    bad = oracles.selftest()
    if bad:
        raise BenchError("oracle self-test failed: " + "; ".join(bad))

    work = OUT / "work" / ("%s-s%d-p%d" % (args.workload, args.seed, os.getpid()))
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    rounds, durations = [], []
    start = time.monotonic()
    try:
        while True:
            traced = bool(args.trace) and len(rounds) % 2 == 1
            t = time.monotonic()
            rounds.append(run_round(args, len(rounds), work, hard_deadline,
                                    check=not rounds, traced=traced))
            durations.append(time.monotonic() - t)
            enough = len(rounds) >= (2 if args.trace else 1)
            # start no round that would end after the measuring time
            if enough and time.monotonic() - start + min(durations) > args.seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    problems = list(rounds[0]["problems"])
    # determinism: every round of this run, and an earlier run with the same
    # seed on the same sources, give the same output hashes
    hashes = [[[o["label"], o["failed"], None if o["failed"] else o["hash"]] for o in r["ops"]] for r in rounds]
    if any(h != hashes[0] for h in hashes):
        problems.append("operation outputs differ between rounds with the same seed")
    digest = source_digest()
    result_path = OUT / ("%s-s%d.result.json" % (args.workload, args.seed))
    if result_path.exists():
        try:
            earlier = json.loads(result_path.read_text())
        except ValueError:
            earlier = None
        if earlier and earlier.get("source_sha256") == digest and earlier.get("op_hashes") != hashes[0]:
            problems.append("operation outputs differ from an earlier run with the same seed")
    for r in rounds:
        for o in r["ops"]:
            if o["failed"]:
                print("failed: %s\n%s" % (o["label"], o["error"]), file=sys.stderr)
    for msg in problems:
        print("incorrect: %s" % msg, file=sys.stderr)

    # times scaled to the machine's nominal speed
    scaled = lambda t, slowdown: t / slowdown ** SLOWDOWN_EXPONENT
    plain = [r for r in rounds if not r["traced"]]
    wall = lambda r: sum(scaled(o["latency_s"], o["slowdown"]) for o in r["ops"])
    if args.trace:
        traced = [r for r in rounds if r["traced"]]
        metrics = {
            name: {"value": statistics.median(r["layers"][name] for r in traced), "unit": unit}
            for name, unit in tracing.LAYER_METRICS
        }
        traced_wall = statistics.median(map(wall, traced))
        metrics["trace.wall_s"] = {"value": traced_wall, "unit": "s"}
        metrics["trace.overhead_s"] = {
            "value": traced_wall - statistics.median(map(wall, plain)), "unit": "s",
        }
        metrics["machine.slowdown"] = {
            "value": statistics.median(o["slowdown"] for r in rounds for o in r["ops"]),
            "unit": "ratio",
        }
    else:
        metrics = {
            "setup_s": {
                "value": statistics.median(scaled(r["setup_s"], r["slowdown"]) for r in plain),
                "unit": "s",
            },
            "wall_s": {"value": statistics.median(map(wall, plain)), "unit": "s"},
            "op_p50_ms": {
                "value": 1000 * statistics.median(
                    scaled(o["latency_s"], o["slowdown"]) for r in plain for o in r["ops"]
                ),
                "unit": "ms",
            },
            "peak_rss_mib": {
                "value": statistics.median(r["peak_rss_mib"] for r in plain), "unit": "MiB",
            },
        }
    out = {
        "correct": not problems,
        "attempted": sum(len(r["ops"]) for r in rounds),
        "failed": sum(o["failed"] for r in rounds for o in r["ops"]),
        "metrics": metrics,
    }
    result_path.write_text(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "source_sha256": digest,
        "op_hashes": hashes[0],
        "problems": problems,
        "rounds": [
            {k: r[k] for k in ("setup_s", "wall_s", "slowdown", "peak_rss_mib", "traced")}
            | {"op_latency_s": [o["latency_s"] for o in r["ops"]],
               "op_slowdown": [o["slowdown"] for o in r["ops"]]}
            for r in rounds
        ],
        "result": out,
    }, indent=1))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as e:
        print("error: %s" % e, file=sys.stderr)
        sys.exit(2)

#!/usr/bin/env python3
"""gramphase benchmark: one workload per invocation, from a source checkout.

    python3 bench/run.py --workload sweep --seed 1 --seconds 15 --trace 0

Run it from the root of a checkout: gramphase is imported from ``src/``
(nothing is installed).  The workload runs in fresh child processes with
BLAS threads capped at the CPU count: first set-up-only processes, then
the measured one.  Result files, traces and everything the runners write
go under ``.bench_out/``.  The last stdout line is the result, e.g.
``{"correct": true, "attempted": 940, "failed": 0, "metrics": {...}}``;
with ``--trace 0`` it holds the end-to-end metrics, with ``--trace 1``
the per-layer ones.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("sweep", "solve", "mra", "analysis")
SETUP_PROCESSES = 5  # set-ups per run; setup_s is their median
RUN_BUDGET_S = 170  # every process of one run must end within this
# Reference time of one calibration pass (see measure.py); end-to-end
# times are scaled by measured / reference calibration time.
CALIBRATION_REF_S = 0.040
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        current = env.get(var, "")
        if not (current.isdigit() and 0 < int(current) <= nproc):
            env[var] = str(nproc)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # leave the source tree untouched
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args, env, out, setup_only, deadline):
    cmd = [sys.executable, str(Path(__file__).with_name("measure.py")),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(out), "--launched", repr(time.monotonic())]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"{args.workload} process exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def reference_time(segments) -> float:
    """Timed seconds scaled to reference speed.  Each stretch of timed work
    is scaled by the mean of the calibrations that bracket it."""
    total = 0.0
    for i, (cal, timed) in enumerate(segments):
        after = segments[i + 1][0] if i + 1 < len(segments) else cal
        total += timed * CALIBRATION_REF_S / ((cal + after) / 2)
    return total


def code_identity(root: Path) -> dict:
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "gramphase").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    sha = None
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        sha = proc.stdout.strip() or None
    return {"git_sha": sha, "src_sha256": digest.hexdigest()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    root = Path.cwd()
    if not (root / "src" / "gramphase" / "__init__.py").is_file():
        print(f"error: {root} has no src/gramphase; run from a gramphase checkout",
              file=sys.stderr)
        return 2
    # metric names and units come from the benchmark's declaration
    declared = json.loads((root / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in declared["per_layer" if args.trace else "end_to_end"]}
    out = root / ".bench_out"
    env = child_env(root)
    deadline = time.monotonic() + RUN_BUDGET_S
    try:
        children = [] if args.trace else [
            run_child(args, env, out, True, deadline) for _ in range(SETUP_PROCESSES - 1)]
        res = run_child(args, env, out, False, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    children.append(res)
    setups = [c["setup_s"] * CALIBRATION_REF_S / c["setup_calibration_s"] for c in children]
    if args.trace:
        values = res["layers"]
    else:
        values = {"setup_s": statistics.median(setups),
                  "ops_per_s": res["attempted"] / reference_time(res["segments"]),
                  "peak_rss_mb": res["peak_rss_mb"]}
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}
    summary = {"correct": res["correct"], "attempted": res["attempted"],
               "failed": res["failed"], "metrics": metrics}

    env_info = {**res["env"], **code_identity(root)}
    detail = {**summary, "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "rounds": res["rounds"], "timed_s": res["timed_s"],
              "setups_s": setups, "raw_setups_s": [c["setup_s"] for c in children],
              "setup_calibration_s": [c["setup_calibration_s"] for c in children],
              "segments": res["segments"], "calibration_ref_s": CALIBRATION_REF_S,
              "errors": res["errors"], "env": env_info}
    if args.trace:
        detail["untraced_timed_s"] = res["untraced_timed_s"]
    results = out / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(detail, indent=1) + "\n")

    for err in res["errors"]:
        print(f"check failed: {err}")
    print("env: " + json.dumps(env_info, sort_keys=True))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())

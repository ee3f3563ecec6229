"""ncd-moduli benchmark: one workload, one run.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout; the library is imported from ``src/``.
Workloads: ``cli-fixtures``, ``levels-neck2xN``, ``buildings`` and
``exact-lattice`` (see ``perfbench/README.md``).

With ``--trace 0`` it reports the end-to-end metrics: set-up runs in
``SETUP_SAMPLES`` fresh interpreters and ``setup_s`` is their median; the
middle one goes on to the timed phase.  Times are scaled to a reference host
speed (see ``harness.Gauge``); each set-up by the mean of the speed read
right before it and the speed its worker reads right after it.  With ``--trace 1`` one interpreter runs every operation
both untraced and traced, and the per-layer metrics come from the traced
calls.  Human-readable details go to standard error;
the last line on standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

from harness import REFERENCE_S, speed_now

SETUP_SAMPLES = 7
BUDGET_S = 170.0  # the whole run, set-up included, must end within 180 s
WORKLOADS = ("cli-fixtures", "levels-neck2xN", "buildings", "exact-lattice")


class RunError(Exception):
    pass


def spawn_worker(args, root: str, deadline: float, setup_only: bool) -> tuple[float, dict]:
    """Start a worker; return (seconds until it reported ready, scaled to the
    reference host speed, and its result)."""
    here = os.path.dirname(os.path.abspath(__file__))
    cmd = [sys.executable, os.path.join(here, "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--root", root]
    if setup_only:
        cmd.append("--setup-only")
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RunError("time budget spent before the worker started")
    before = speed_now()
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=root, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(remaining, proc.kill)
    timer.start()
    try:
        first = proc.stdout.readline()
        ready_s = time.perf_counter() - t0
        after = proc.stdout.readline()
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if first.strip() != "ready" or code != 0:
        raise RunError(f"worker exited with code {code} (killed after the time budget if negative)")
    ready_s *= REFERENCE_S / statistics.fmean((before, float(after)))
    if setup_only:
        return ready_s, {}
    lines = rest.strip().splitlines()
    if not lines:
        raise RunError("worker printed no result")
    return ready_s, json.loads(lines[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    # one CPU for this process and every process it starts, so that the
    # speed the gauge reads is the speed the operations ran at
    if hasattr(os, "sched_setaffinity"):
        try:
            os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        except OSError:
            pass
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "ncd_moduli", "__init__.py")):
        print("error: run from the root of an ncd-moduli checkout (no src/ncd_moduli here)", file=sys.stderr)
        return 2
    deadline = time.monotonic() + BUDGET_S
    try:
        # the set-up-only samples come half before and half after the timed
        # worker, so together they span the run rather than one moment of it
        extra = 0 if args.trace else SETUP_SAMPLES - 1
        setups = [spawn_worker(args, root, deadline, setup_only=True)[0] for _ in range(extra // 2)]
        ready_s, result = spawn_worker(args, root, deadline, setup_only=False)
        setups.append(ready_s)
        setups += [spawn_worker(args, root, deadline, setup_only=True)[0] for _ in range(extra - extra // 2)]
    except RunError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3

    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    info = result["info"]
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {result['attempted']} ops, "
          f"{result['failed']} failed, {result['wrong']} wrong", file=sys.stderr)
    for name, m in sorted(metrics.items()):
        print(f"  {name} = {m['value']:.6g} {m['unit']}", file=sys.stderr)
    for key, value in sorted(info.items()):
        if key not in ("failures", "known_defects"):
            print(f"  [{key}] {value}", file=sys.stderr)
    if setups and not args.trace:
        print(f"  [setup samples s] {', '.join(f'{s:.4f}' for s in setups)}", file=sys.stderr)
    for line in info.get("failures", []):
        print(f"  failure: {line}", file=sys.stderr)
    for line in info.get("known_defects", []):
        print(f"  known-defect probe (not counted in failed): {line}", file=sys.stderr)
    print(json.dumps({
        "correct": result["wrong"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

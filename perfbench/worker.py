"""One workload in one fresh interpreter: set up, warm up, then measure.

Run by ``run.py``; not meant to be started by hand.  Prints ``ready`` on
standard output once set-up and warm-up are done, then the host's speed as
a reading of ``harness.reference()``, and, unless ``--setup-only``, one
JSON line with the run's results at the end.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import harness
from tracer import BranchCounter, Tracer

WORKLOADS = {
    "cli-fixtures": "workloads.cli_fixtures",
    "levels-neck2xN": "workloads.levels",
    "buildings": "workloads.buildings",
    "exact-lattice": "workloads.lattice",
}

# traced spans whose self time is reported as "<span>.self_s", per round
SELF_S = [
    "maptype.validate_structure",
    "maptype.check_naive",
    "maptype.check_broken_cylinders",
    "maptype.check_enhanced",
    "maptype.contraction",
    "maptype.walk_fiber",
    "levelsys.build_system",
    "levelsys.feasible_positive",
    "levelsys.torus_dim",
    "levelsys.beta_relations",
    "levelsys.solve_gluing",
    "levelsys.LevelSystem.rows",
    "dimension.stratum_codim",
    "exactnum.linalg.rref",
    "exactnum.linalg.rational_nullspace",
    "building.build",
    "building.build_multi",
    "building.LevelBuilding.piece_classes",
    "building.collapse",
    "building.building_to_dict",
    "divisor.local_model",
    "divisor.validate",
    "divisor.stratum_counts",
    "exactnum.lattice.smith_normal_form",
    "exactnum.powersys.solve_power_system",
    "exactnum.values.ExactNonzeroComplex.from_rational",
]
# span -> the shorter metric prefix it is reported under
ALIAS = {
    "building.LevelBuilding.piece_classes": "building.piece_classes",
    "exactnum.values.ExactNonzeroComplex.from_rational": "exactnum.values.from_rational",
}
CALLS = {
    "exactnum.values.from_rational.calls": "exactnum.values.ExactNonzeroComplex.from_rational",
    "exactnum.lattice.smith_normal_form.calls": "exactnum.lattice.smith_normal_form",
}
CALLS_PER_OP = {
    "maptype.contraction.calls_per_op": "maptype.contraction",
    "maptype.walk_fiber.calls_per_op": "maptype.walk_fiber",
    "exactnum.linalg.rref.calls_per_op": "exactnum.linalg.rref",
}
SPS = "exactnum.linalg.strict_positive_solution"
PROBE_SAMPLES = 5


class Context:
    """What a workload's set-up and checks share with the worker."""

    def __init__(self, root: str, workdir: str):
        self.root = root
        self.src = os.path.join(root, "src")
        self.workdir = workdir
        self.counters: dict[str, float] = {}
        self.largest_op: str = ""  # op whose traced calls give calls_per_op

    def note_max(self, key: str, value: float) -> None:
        self.counters[key] = max(self.counters.get(key, value), value)


def _peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def _probe_ms(root: str, code: str) -> float:
    """Wall time of a fresh interpreter running ``code``, or the seconds the
    code prints about itself, in ms."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    t0 = time.perf_counter()
    out = subprocess.run([sys.executable, "-c", code], cwd=root, env=env, capture_output=True, text=True,
                         timeout=60, check=True)
    wall = (time.perf_counter() - t0) * 1000.0
    return float(out.stdout) * 1000.0 if out.stdout.strip() else wall


def cli_probes(root: str) -> dict[str, float]:
    """Fresh-process costs: interpreter start, importing the CLI above that
    floor, and the first ``from_rational`` call."""
    first = ("import time\nfrom ncd_moduli.exactnum.values import ExactNonzeroComplex as E\n"
             "t = time.perf_counter(); E.from_rational(2); print(time.perf_counter() - t)")
    start = statistics.median(_probe_ms(root, "pass") for _ in range(PROBE_SAMPLES))
    imp = statistics.median(_probe_ms(root, "import ncd_moduli.cli") for _ in range(PROBE_SAMPLES))
    call = statistics.median(_probe_ms(root, first) for _ in range(PROBE_SAMPLES))
    return {"cli.interp_start_ms": start, "cli.import_ms": imp - start, "exactnum.values.first_call_ms": call}


def end_to_end(samples, workload) -> tuple[dict, dict]:
    ok = [s for s in samples if s.outcome == "ok"]
    lat_ms = [s.latency_s * 1000.0 for s in samples]
    tail_ms, pct, n = harness.tail(lat_ms)
    growth = harness.growth_exponent(samples)
    metrics = {
        "ops_per_s": (len(ok) / sum(s.scaled_s for s in samples), "1/s"),
        "op_p50_ms": (statistics.median(lat_ms), "ms"),
        "op_tail_ms": (tail_ms, "ms"),
        "growth_exp": (growth, "1"),
        "ok_ratio": (len(ok) / len(samples), "ratio"),
        "peak_rss_mb": (_peak_rss_mb(workload.child_rss), "MB"),
    }
    info = {"op_tail_percentile": pct, "samples": n, "failed_ratio": 1 - len(ok) / len(samples),
            "growth_ladder": workload.ladder_name}
    return metrics, info


def per_layer(tracer, ctx, defects, traced_meta, rounds, overhead, branches, labels, probes, run_ms) -> dict:
    totals = tracer.totals()
    metrics = {}
    for span in SELF_S:
        metrics[f"{ALIAS.get(span, span)}.self_s"] = (totals.get(span, (0, 0.0))[1] / rounds, "s/round")
    for name, span in CALLS.items():
        metrics[name] = (totals.get(span, (0, 0.0))[0] / rounds, "count/round")
    for tag in ("feasible", "infeasible"):
        metrics[f"{SPS}.self_s.{tag}"] = (tracer.totals(tag=tag).get(SPS, (0, 0.0))[1] / rounds, "s/round")
    chosen = {i for i, m in enumerate(traced_meta) if not ctx.largest_op or m["name"] == ctx.largest_op}
    per_op = tracer.totals(ops=chosen)
    for name, span in CALLS_PER_OP.items():
        metrics[name] = (per_op.get(span, (0, 0.0))[0] / max(len(chosen), 1), "count")
    metrics["levelsys.system_rows"] = (ctx.counters.get("system_rows", 0), "count")
    metrics["levelsys.system_cols"] = (ctx.counters.get("system_cols", 0), "count")
    metrics["exactnum.linalg.witness_max_bits"] = (ctx.counters.get("witness_max_bits", 0), "bits")
    build_s = sum(s[4] - s[3] for s in tracer.spans if s[0] in ("building.build", "building.build_multi"))
    metrics["building.labels"] = (labels / rounds, "count/round")
    metrics["building.labels_per_s"] = (labels / build_s if build_s else 0.0, "1/s")
    for k in (6, 7):
        tried = [s for s in defects if s.op.kind == f"smith.k{k}"]
        missed = sum(1 for s in tried if s.outcome == "deadline")
        metrics[f"exactnum.lattice.deadline_ratio.k{k}"] = (missed / len(tried) if tried else 0.0, "ratio")
    metrics["exactnum.lattice.uv_max_bits"] = (ctx.counters.get("uv_max_bits", 0), "bits")
    metrics["exactnum.powersys.branches_built"] = (branches.built / rounds, "count/round")
    metrics["exactnum.powersys.branches_read_ratio"] = (branches.read / branches.built if branches.built else 0.0,
                                                        "ratio")
    metrics["cli.interp_start_ms"] = (probes["cli.interp_start_ms"], "ms")
    metrics["cli.import_ms"] = (probes["cli.import_ms"], "ms")
    metrics["exactnum.values.first_call_ms"] = (probes["exactnum.values.first_call_ms"], "ms")
    metrics["cli.run_ms"] = (run_ms, "ms")
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    return metrics


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--root", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    sys.path.insert(0, os.path.join(args.root, "src"))
    # every library module, so the tracer can find every public function
    for mod in ("cli", "building", "dimension", "divisor", "fixtures", "levelsys", "maptype", "exactnum"):
        importlib.import_module(f"ncd_moduli.{mod}")

    workdir = os.path.join(args.root, ".perfbench", f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        ctx = Context(args.root, workdir)
        workload = importlib.import_module(WORKLOADS[args.workload]).setup(args.seed, ctx)
        harness.install_deadline_handler()
        for op in workload.warmup_ops:
            harness.run_op(op, -1)
        print("ready", flush=True)
        print(harness.speed_now(), flush=True)
        if args.setup_only:
            return 0
        result = traced_run(args, ctx, workload) if args.trace else timed_run(args, workload)
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _rounds(args, workload, ops, step):
    t_start = time.perf_counter()
    r = 0
    while r < workload.min_rounds or time.perf_counter() - t_start < args.seconds:
        for op in ops:
            step(op, r)
        r += 1
    return r


def _summary(samples, defects, metrics, info) -> dict:
    """The run's result.  ``defects`` are the known-defect probes' samples
    (see ``harness.Workload.defect_ops``): only a wrong answer from one
    counts."""
    return {
        "attempted": len(samples),
        "failed": sum(1 for s in samples if s.outcome != "ok"),
        "wrong": sum(1 for s in samples + defects if s.outcome == "wrong"),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "info": dict(info, failures=harness.failure_summary(samples),
                     known_defects=harness.defect_report(defects)),
    }


def run_defects(workload) -> list:
    """The known-defect probes, each run once, untimed and untraced."""
    return [harness.run_op(op, -1)[0] for op in workload.defect_ops]


def timed_run(args, workload) -> dict:
    samples = []
    gauge = harness.Gauge()

    def step(op, r):
        gauge.tick()
        samples.append(harness.run_op(op, r)[0])

    rounds = _rounds(args, workload, workload.round_ops, step)
    gauge.scale(samples)
    metrics, info = end_to_end(samples, workload)
    info["rounds"] = rounds
    return _summary(samples, run_defects(workload), metrics, info)


def traced_run(args, ctx, workload) -> dict:
    tracer = Tracer()
    tracer.discover()
    branches = BranchCounter(tracer)
    labels = 0

    def count_labels(result, span):
        nonlocal labels
        labels += len(result.divisor_strata)

    def tag_feasibility(result, span):
        span.append("infeasible" if result is None else "feasible")

    tracer.hooks.update({
        "exactnum.powersys.solve_power_system": branches,
        "building.build": count_labels,
        "building.build_multi": count_labels,
        SPS: tag_feasibility,
    })
    samples, meta, in_process_ms = [], [], []
    wall: dict[tuple[bool, bool], float] = {}  # (traced, after round 0) -> seconds

    def step(op, r):
        tracer.op = len(meta)
        meta.append({"name": op.name, "kind": op.kind, "round": r})

        def run():
            tracer.install()
            try:
                return op.run()
            finally:
                tracer.uninstall()

        # the halves swap order every round, and round 0, which pays the
        # one-off costs of first calls, is left out of the overhead ratio
        # when there are later rounds
        for traced in (r % 2 == 1, r % 2 == 0):
            if traced:
                sample, _ = harness.run_op(dataclasses.replace(op, run=run), r)
            else:
                sample, _ = harness.run_op(op, r)
                in_process_ms.append(sample.wall_s * 1000.0)
            samples.append(sample)
            wall[traced, r > 0] = wall.get((traced, r > 0), 0.0) + sample.wall_s

    ops = workload.traced_ops or workload.round_ops
    rounds = _rounds(args, workload, ops, step)
    late = (False, True) in wall
    defects = run_defects(workload)
    metrics = per_layer(
        tracer, ctx, defects, meta, rounds, wall[True, late] / wall[False, late], branches, labels,
        cli_probes(args.root), statistics.median(in_process_ms) if workload.traced_ops else 0.0,
    )
    out_dir = os.path.join(args.root, ".perfbench")
    tracer.write(os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.jsonl"), meta)
    return _summary(samples, defects, metrics, {"rounds": rounds, "spans": len(tracer.spans),
                                                "rebound": tracer.rebound})


if __name__ == "__main__":
    sys.exit(main())

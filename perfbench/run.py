#!/usr/bin/env python3
"""coxfan benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload sections --seed 1 --seconds 24 --trace 0

Run from the root of a coxfan checkout; the program is imported from
``src/``.  With ``--trace 0`` it prints the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("cli", "sections", "correspondence")
SETUP_SAMPLES = 3  # fresh processes set up per run; setup_s is their median
# Blocks a run measures at --seconds 24, scaled for other values, so a
# seed and a --seconds value fix the work done.  At 24 s a run takes
# 15-57 s on the reference machine (see README.md).
BLOCKS_AT_24S = {"cli": 1, "sections": 2, "correspondence": 3}
TRACE_BLOCKS = {"cli": 1, "sections": 1, "correspondence": 1}
IMPORT_SAMPLES = 5
# Time of worker.probe() on the reference machine.  The host's speed
# drifts by up to 2x over minutes, so every time is rescaled by this
# over the mean of the probes taken around it (see README.md).
REF_PROBE_S = 0.0015
DEADLINE_S = 170

PER_LAYER = [
    ("cli.import_s", "s"),
    ("cli.numpy_import_s", "s"),
    ("polyfan.cone_inequalities.calls", "count"),
    ("polyfan.cone_inequalities.self_s", "s"),
    ("polyfan.cone_generators_from_inequalities.calls", "count"),
    ("polyfan.cone_generators_from_inequalities.self_s", "s"),
    ("polyfan.hilbert_basis.calls", "count"),
    ("polyfan.hilbert_basis.self_s", "s"),
    ("polyfan.hilbert_basis.basis_size", "count"),
    ("polyfan.validate_fan.self_s", "s"),
    ("intlat.smith_normal_form.calls", "count"),
    ("intlat.smith_normal_form.self_s", "s"),
    ("intlat.subgroup_contains.calls", "count"),
    ("grading.degree_fiber.calls", "count"),
    ("grading.degree_fiber.self_s", "s"),
    ("grading.degree_fiber.points_out", "count"),
    ("grading.positive_weight_vector.calls", "count"),
    ("grading.positive_weight_vector.self_s", "s"),
    ("grading.degree_monomials.calls", "count"),
    ("grading.degree_monomials.self_s", "s"),
    ("cox.build_cox.self_s", "s"),
    ("cox.local_chart.calls", "count"),
    ("cox.local_chart.self_s", "s"),
    ("ratlin.rref.calls", "count"),
    ("ratlin.rref.self_s", "s"),
    ("ratlin.rref.cells_in", "count"),
    ("ratlin.rref.nonzeros_in", "count"),
    ("ratlin.rref.rank_out", "count"),
    ("ratlin.nullspace.self_s", "s"),
    ("ratlin.subspace_intersection.calls", "count"),
    ("ratlin.subspace_intersection.self_s", "s"),
    ("groeb.module_groebner_basis.calls", "count"),
    ("groeb.module_groebner_basis.self_s", "s"),
    ("groeb.module_groebner_basis.basis_size_out", "count"),
    ("groeb.module_saturate_element.calls", "count"),
    ("groeb.module_saturate_element.self_s", "s"),
    ("groeb.module_intersection.calls", "count"),
    ("groeb.module_intersection.self_s", "s"),
    ("groeb.submodule_equal.calls", "count"),
    ("groeb.module_contains.calls", "count"),
    ("gradmod.saturate_submodule.calls", "count"),
    ("gradmod.saturate_submodule.self_s", "s"),
    ("gradmod.minimalize_submodule_generators.self_s", "s"),
    ("gradmod.submodule_membership.calls", "count"),
    ("gradmod.submodule_membership.true_ratio", "ratio"),
    ("gradmod.is_torsion.self_s", "s"),
    ("sheaf.sheafify.self_s", "s"),
    ("sheaf.global_sections_degree.calls", "count"),
    ("sheaf.global_sections_degree.self_s", "s"),
    ("sheaf.global_sections_degree.levels", "count"),
    ("sheaf.xi_forward.self_s", "s"),
    ("sheaf.xi_preimage.self_s", "s"),
    ("sheaf.lift_finite_type.self_s", "s"),
    ("sheaf.family_equal.self_s", "s"),
] + [(f"{layer}.self_s", "s") for layer in LAYERS] + [
    ("trace.throughput_ratio", "ratio"),
    ("trace.max_self_over_wall", "ratio"),
    ("trace.spans", "count"),
]


class BenchError(Exception):
    pass


def _env():
    return dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")


def _worker(args, extra, deadline):
    """Run worker.py and rescale its times to the reference speed.  Its
    setup time runs from spawn to its ready stamp."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed), *extra]
    t0 = time.monotonic()
    with subprocess.Popen(cmd, cwd=ROOT, env=_env(), stdout=subprocess.PIPE, text=True) as proc:
        try:
            out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise BenchError("worker ran past the deadline")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"worker exited with code {proc.returncode}")
    result = json.loads(out.strip().splitlines()[-1])
    result["setup_s"] = (result["ready"] - t0) * REF_PROBE_S / result["probe"]
    result["raw_records"] = result.get("records", [])
    result["records"] = [
        (group, kind, dt * REF_PROBE_S / speed, status) for group, kind, dt, status, speed in result["raw_records"]
    ]
    return result


def _tail(latencies):
    """The highest percentile with at least ten samples above it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 11:
        raise BenchError(f"only {n} ops measured; the tail needs 11")
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def _tally(records):
    """(attempted, failed, correct): a wrong answer also counts as failed,
    and any wrong answer makes the run incorrect."""
    statuses = [st for _, _, _, st in records]
    return len(statuses), sum(st != "ok" for st in statuses), "wrong" not in statuses


def _end_to_end(args, deadline):
    setups = [
        _worker(args, ["--phase", "setup"], deadline)["setup_s"] for _ in range(SETUP_SAMPLES - 1)
    ]
    blocks = max(1, round(BLOCKS_AT_24S[args.workload] * args.seconds / 24))
    run = _worker(args, ["--phase", "run", "--blocks", str(blocks)], deadline)
    setups.append(run["setup_s"])
    records = run["records"]

    # An op's latency is the median over its group: the same template in
    # every block, so the spread inside a group is machine noise.
    groups = {}
    for group, kind, dt, status in records:
        groups.setdefault(group, (kind, [], []))
        groups[group][1].append(dt)
        groups[group][2].append(status == "ok")
    medians = {g: statistics.median(dts) for g, (_, dts, _) in groups.items()}
    latencies = [medians[group] for group, _, _, _ in records]
    tail, pct, n = _tail(latencies)

    def throughput(kind=None):
        """Passed ops per second spent in ops, at the block mix."""
        chosen = [g for g, (k, _, _) in groups.items() if kind is None or k == kind]
        passed = sum(sum(groups[g][2]) for g in chosen)
        return passed / sum(len(groups[g][1]) * medians[g] for g in chosen)

    attempted, failed, correct = _tally(records)
    raw = [dt for _, _, dt, _, _ in run["raw_records"]]
    print(
        f"latency_tail_s is p{pct:.1f} of n={n} ops; setup samples {setups}; "
        f"unscaled: {len(raw) / sum(raw):.4g} ops/s, median latency {statistics.median(raw):.4g} s"
    )
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (throughput(), "1/s"),
        "latency_p50_s": (statistics.median(latencies), "s"),
        "latency_tail_s": (tail, "s"),
        "success_ratio": ((attempted - failed) / attempted, "ratio"),
        "peak_rss_mb": (run["rss_kb"] / 1024, "MB"),
        "class_a_ops_per_s": (throughput("a"), "1/s"),
        "class_b_ops_per_s": (throughput("b"), "1/s"),
    }
    return metrics, attempted, failed, correct


def _fresh_import(module):
    code = f"import time; t = time.perf_counter(); import {module}; print(time.perf_counter() - t)"
    times = []
    for _ in range(IMPORT_SAMPLES):
        out = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, env=_env(), capture_output=True, text=True, check=True
        ).stdout
        times.append(float(out))
    return statistics.median(times)


def _per_layer(args, deadline):
    blocks = ["--phase", "run", "--blocks", str(TRACE_BLOCKS[args.workload])]
    plain = _worker(args, [*blocks, "--trace", "0"], deadline)
    traced = _worker(args, [*blocks, "--trace", "1"], deadline)
    funcs = traced["trace"]["functions"]
    op_self = {int(k): v for k, v in traced["trace"]["op_self_ns"].items()}

    def get(name):
        fn, _, key = name.rpartition(".")
        entry = funcs.get(fn, {})
        if key == "self_s":
            if fn in LAYERS:
                return sum(e["self_ns"] for f, e in funcs.items() if f.startswith(fn + ".")) / 1e9
            return entry.get("self_ns", 0) / 1e9
        if key == "true_ratio":
            return entry.get("true", 0) / entry["calls"] if entry.get("calls") else 0.0
        return entry.get(key, 0)

    def ops_per_s(run):
        return len(run["records"]) / sum(dt for _, _, dt, _ in run["records"])

    # Self times are not rescaled, so compare them with raw wall times.
    walls = {i + 1: dt for i, (_, _, dt, _, _) in enumerate(traced["raw_records"])}
    special = {
        "cli.import_s": lambda: _fresh_import("coxfan.cli"),
        "cli.numpy_import_s": lambda: _fresh_import("numpy"),
        "trace.throughput_ratio": lambda: ops_per_s(traced) / ops_per_s(plain),
        "trace.max_self_over_wall": lambda: max(op_self.get(i, 0) / 1e9 / dt for i, dt in walls.items()),
        "trace.spans": lambda: sum(e["calls"] for e in funcs.values()),
    }
    metrics = {name: (special.get(name, lambda: get(name))(), unit) for name, unit in PER_LAYER}
    return (metrics, *_tally(traced["records"]))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "coxfan" / "__init__.py").is_file():
        print(f"perfbench: no coxfan sources at {SRC}; run from a coxfan checkout", file=sys.stderr)
        return 2
    # SIGTERM unwinds like an error, so the worker gets killed on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    deadline = time.monotonic() + DEADLINE_S
    try:
        measure = _per_layer if args.trace else _end_to_end
        metrics, attempted, failed, correct = measure(args, deadline)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

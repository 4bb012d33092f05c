#!/usr/bin/env python3
"""Write a BENCH file: benchmark medians of the checkout this script is in.

    python3 scripts/bench_file.py --out BENCH_6.json \\
        --workloads sections,cli,correspondence --seeds 1,2,3

For every seed and workload it runs ``perfbench/run.py --trace 0`` (the
end-to-end metrics), then one ``--trace 1`` run per workload on the first
seed (the per-layer metrics).  Every run lasts the benchmark's
``run_seconds`` from BENCHMARK.json, so BENCH files stay comparable.  The
file records the machine, the Python version, the commit, every run, and
the per-workload medians.  To compare two commits, run the script in a
checkout of each on the same machine.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]


def _bench(workload, seed, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload]
    cmd += ["--seed", str(seed), "--seconds", str(SECONDS), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        err = proc.stderr.strip()
        sys.exit(f"bench_file: {' '.join(cmd)} exited {proc.returncode}: {err}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    metrics = {k: m["value"] for k, m in result.pop("metrics").items()}
    return {"seed": seed, **result, "metrics": metrics}


def _git(*args):
    proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def _source_digest():
    """sha256 over the paths and bytes of src/, so a file made from a
    working tree with uncommitted changes still names the code it ran."""
    h = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*")):
        if p.is_file() and "__pycache__" not in p.parts and p.suffix != ".pyc":
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True, help="file to write, e.g. BENCH_6.json")
    ap.add_argument("--workloads", default="sections,cli,correspondence")
    ap.add_argument("--seeds", default="1,2,3", help="comma-separated seeds")
    args = ap.parse_args(argv)
    workloads = args.workloads.split(",")
    seeds = [int(s) for s in args.seeds.split(",")]
    runs = {w: [] for w in workloads}
    for seed in seeds:
        for w in workloads:
            runs[w].append(_bench(w, seed, 0))
            print(f"bench_file: {w} seed {seed} done", file=sys.stderr)
    out = {
        "commit": _git("rev-parse", "HEAD"),
        "uncommitted_changes": bool(
            _git("status", "--porcelain", "--untracked-files=no")
        ),
        "source_sha256": _source_digest(),
        "machine": {
            "cpu": _cpu_model(),
            "cpus": os.cpu_count(),
            "system": " ".join(
                (platform.system(), platform.release(), platform.machine())
            ),
        },
        "python": platform.python_version(),
        "seconds": SECONDS,
        "seeds": seeds,
        "workloads": {},
    }
    for w in workloads:
        values = {k: [r["metrics"][k] for r in runs[w]] for k in runs[w][0]["metrics"]}
        out["workloads"][w] = {
            "median": {k: statistics.median(v) for k, v in values.items()},
            "correct": all(r["correct"] for r in runs[w]),
            "runs": runs[w],
            "per_layer": _bench(w, seeds[0], 1),
        }
    Path(args.out).write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

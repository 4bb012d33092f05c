"""One measuring process: set a workload up, then time its ops one at a
time (closed loop, one client).  Prints one JSON line with the setup
finish time, one record per op, peak RSS and, when traced, the span
summary.  ``run.py`` starts it; see README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import signal
import subprocess
import sys
import time
from fractions import Fraction

import oracles
import workloads
from workloads import OUT, ROOT

# A fixed kernel of about 1.5 ms in coxfan's style of pure Python: a
# rational linear solve.  Its time, taken before and after each op,
# measures how fast the machine runs then.
_PROBE_SYSTEM = [[Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + j) % 4) for j in range(7)] for i in range(7)]


def probe():
    """Median seconds of three runs of the kernel."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        oracles.solve(_PROBE_SYSTEM, [1] * 7)
        times.append(time.perf_counter() - t0)
    return sorted(times)[1]


def _pin_to_one_cpu():
    """Run this process and its CLI children on one CPU, so that the
    probe and the child it scales see the same core."""
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass


def _run_cli_op(op, schemas, tracer_files, op_id):
    if tracer_files is None:
        cmd = [sys.executable, "-m", "coxfan.cli", *op.argv]
        env = None
    else:
        spans = OUT / f"cli-op-{op_id}.jsonl"
        cmd = [sys.executable, os.path.join(os.path.dirname(__file__), "cli_shim.py"), *op.argv]
        env = dict(os.environ, PERFBENCH_SPANS=str(spans), PERFBENCH_OP=str(op_id))
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=150)
    dt = time.perf_counter() - t0
    if tracer_files is not None:
        tracer_files.append(spans)
    status = workloads.cli_check(op, proc.returncode, proc.stdout, schemas)
    if status != "ok":
        last = (proc.stderr.strip().splitlines() or [""])[-1]
        print(f"perfbench: {status}: coxfan {' '.join(op.argv)} -> exit {proc.returncode} {last}", file=sys.stderr)
    return dt, status


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--phase", choices=("setup", "run"), required=True)
    ap.add_argument("--blocks", type=int, default=1)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()
    # Unwind on SIGTERM, so that subprocess.run kills a running CLI op.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    rng = random.Random(args.seed)
    OUT.mkdir(exist_ok=True)
    if args.workload == "cli":
        _pin_to_one_cpu()
    setup_probe = probe()

    tracer = None
    if args.trace and args.workload != "cli":
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    if args.workload == "cli":
        schemas = oracles.SchemaChecker(workloads.SCHEMA_DIR)
        ops = workloads.cli_catalogue(rng, workloads.write_fans(OUT / "fans"))
        block_iter = workloads.cli_blocks(ops, rng)
    elif args.workload == "sections":
        block_iter = workloads.sections_blocks(workloads.sections_setup(), rng)
    else:
        block_iter = workloads.correspondence_blocks(workloads.correspondence_setup(), rng)
    ready = time.monotonic()
    # The speed over setup: the mean of the probes before and after it.
    setup_probe = (setup_probe + probe()) / 2
    if args.phase == "setup":
        print(json.dumps({"ready": ready, "probe": setup_probe}))
        return

    cli_spans = [] if args.trace and args.workload == "cli" else None
    records = []
    after = probe()
    for nblocks, block in enumerate(block_iter, 1):
        for op in block:
            op_id = len(records) + 1
            before = after
            if args.workload == "cli":
                dt, status = _run_cli_op(op, schemas, cli_spans, op_id)
            else:
                if tracer is not None:
                    tracer.op = op_id
                t0 = time.perf_counter()
                try:
                    value = op.run()
                except Exception as e:  # an op that raises counts as failed
                    dt, status = time.perf_counter() - t0, "failed"
                    print(f"perfbench: failed: {op.group}: {type(e).__name__}: {e}", file=sys.stderr)
                else:
                    dt = time.perf_counter() - t0
                    status = "ok" if op.check(value) else "wrong"
                    if status == "wrong":
                        print(f"perfbench: wrong answer: {op.group}", file=sys.stderr)
                if tracer is not None:
                    tracer.op = 0
            after = probe()
            records.append((op.group, op.kind, dt, status, (before + after) / 2))
        if nblocks == args.blocks:
            break

    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    result = {"ready": ready, "probe": setup_probe, "records": records, "rss_kb": resource.getrusage(who).ru_maxrss}
    if args.trace:
        result["trace"] = _trace_summary(args, tracer, cli_spans)
    print(json.dumps(result))


def _trace_summary(args, tracer, cli_files):
    """Summarize the spans and write them all to one file."""
    import tracer as tracing

    path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
    if tracer is not None:
        tracer.uninstall()
        tracer.dump(path)
        return tracing.summarize(tracer.spans, tracer.extras)
    summary = None
    with open(path, "w") as out:
        for f in cli_files:
            spans, extras = tracing.load(f)
            summary = tracing.summarize(spans, extras, summary)
            out.write(f.read_text())
            f.unlink()
    return summary or {"functions": {}, "op_self_ns": {}}


if __name__ == "__main__":
    main()

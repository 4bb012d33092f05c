#!/usr/bin/env python3
"""Tabulate global-section dimensions of line-bundle twists.

Reads the global sections off the chart cover of a complete fixture fan
(for this free module, the coordinates common to the chart windows) and
prints dim Γ(𝒪(d)) for a window of twists, in both evaluation
modes as a cross-check, with the certificate of each mode's level
("bound" for a proven level).

Usage:
    python3 scripts/sections_scan.py --fan p2 --min -2 --max 4
"""

import argparse
import json
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from coxfan import corpus, grading  # noqa: E402
from coxfan.cox import BaseRingFlags, build_cox  # noqa: E402
from coxfan.grading import subgroup_of_whole_group  # noqa: E402
from coxfan.gradmod import free_module  # noqa: E402
from coxfan.sheaf import global_sections_degree, sheafify  # noqa: E402


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--fan", default="p2", choices=sorted(corpus.CORPUS_NAMES))
    ap.add_argument("--min", type=int, default=-2)
    ap.add_argument("--max", type=int, default=4)
    args = ap.parse_args()

    g = grading.build_grading(corpus.build(args.fan))
    c = build_cox(
        g,
        subgroup_of_whole_group(g),
        BaseRingFlags(field=True, noetherian=True, reduced=True),
    )
    ring = free_module(c)
    A = g.class_group
    rows = []
    for d in range(args.min, args.max + 1):
        coords = [d] + [0] * (A.free_rank - 1)
        cover = sheafify(ring.shifted(A.from_coords(coords)))
        shift = global_sections_degree(cover, A.zero(), mode="via_shift")
        twist = global_sections_degree(cover, A.zero(), mode="via_twist")
        rows.append(
            {
                "twist": coords,
                "dim_via_shift": shift.dimension,
                "dim_via_twist": twist.dimension,
                "certificates": [shift.certificate, twist.certificate],
            }
        )
    print(json.dumps({"fan": args.fan, "sections": rows}, indent=2))


if __name__ == "__main__":
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:  # the reader closed the pipe: exit 2 quietly, as the CLI does
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 2
    sys.exit(code)

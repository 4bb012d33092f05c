#!/usr/bin/env python3
"""Print a structural summary of every bundled fan.

For each fixture: fan properties, class group, ray degrees, Picard
subgroup, and the scheme-level property verdicts over a field base.

Usage:
    python3 scripts/corpus_report.py [--flags field,noetherian,reduced]
"""

import argparse
import json
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from coxfan import corpus, grading  # noqa: E402
from coxfan.cox import BaseRingFlags  # noqa: E402
from coxfan.grading import classify_subgroup, picard_group  # noqa: E402
from coxfan.polyfan import fan_properties  # noqa: E402
from coxfan.schemeprops import scheme_property_report  # noqa: E402


def describe(name, flags):
    fan = corpus.build(name)
    g = grading.build_grading(fan)
    props = fan_properties(fan)
    pic = picard_group(g)
    b = classify_subgroup(g, list(pic.generators))
    report = scheme_property_report(props, flags)
    return {
        "fan": name,
        "rays": [list(r) for r in g.fan.ray_index],
        "class_group": {
            "free_rank": g.class_group.free_rank,
            "torsion": list(g.class_group.torsion_orders),
        },
        "ray_degrees": [list(d.coords()) for d in g.ray_degrees],
        "pic_generators": [list(x.coords()) for x in pic.generators],
        "pic_is_big": b.is_big,
        "pic_is_small": b.is_small,
        "fan_properties": {
            "complete": props.is_complete,
            "simplicial": props.is_simplicial,
            "regular": props.is_regular,
            "full": props.is_full,
        },
        "scheme": {
            k: v["verdict"] for k, v in report.as_dict().items()
        },
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument(
        "--flags",
        default="field,noetherian,reduced",
        help="comma-separated base ring flags",
    )
    args = ap.parse_args()
    names = {f.strip() for f in args.flags.split(",") if f.strip()}
    flags = BaseRingFlags(**{n: True for n in names})
    out = [describe(name, flags) for name in corpus.CORPUS_NAMES]
    print(json.dumps(out, indent=2, sort_keys=True))


if __name__ == "__main__":
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:  # the reader closed the pipe: exit 2 quietly, as the CLI does
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 2
    sys.exit(code)

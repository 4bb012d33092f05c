#!/usr/bin/env python3
"""Print the CLI's stdout and exit code on a fixed set of runs, as one JSON
document.

The runs are the twelve README commands on each corpus fan, ``cox build``
on a second big subgroup of each, ``subgroup classify`` on a subgroup of
infinite index of each, ``sheaf lift`` of <Z1^1000> and of <Z1> at a big
subgroup of each, a fixed set of refusals on each (bad
flags, cone, ideal, window, module, subgroup and usage, and ``--module``
with ``--ideal``), the sections of S/<Z1> in both modes, ``module
torsion`` and ``module sections`` of S/<binomial> on p2 (the conic
Z1·Z2 - Z3^2), P1xP1 (Z1·Z3 - Z2·Z4), P(1,1,2) (Z1·Z3 - Z2), quadric_cone
(Z1·Z2 - Z3·Z4) and three_rays (Z1^2·Z3 - Z2), ``chart`` on
every cone of each (the zero cone as ``--cone ""``), ``pic``, ``cox
build`` and ``chart`` on every cone of the scale fans of
``tests/oracles.py``, the commands of ``RANK3_RUNS`` on its singular
rank-3 fan, commands on malformed fans, usage errors, and the
``--help`` text of every parser.  Each run calls ``coxfan.cli.main`` in
this process, from this checkout's ``src``.
Paths in arguments and output read ``<corpus>`` and ``<tmp>``, so the
output of two checkouts can be compared with ``diff``:

    python3 scripts/cli_snapshot.py > after.json
    python3 /path/to/other/checkout/scripts/cli_snapshot.py > before.json
    diff before.json after.json

An exception that escapes ``main`` is recorded as ``uncaught``.
"""

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))
os.environ["COLUMNS"] = "80"  # argparse wraps help text at the terminal width

import oracles  # noqa: E402

from coxfan import cli, corpus, grading, polyfan  # noqa: E402

# Per corpus fan: two subgroups that are big, one that is not, a cone, and
# a sections window valid for its class group.
FAN_ARGS = {
    "p2": ("2", "3", "0", "0,1", "0;1;2;3"),
    "p112": ("2", "3", "0", "0,1", "0;1;2;3"),
    "p1xp1": ("1,0;0,2", "2,0;0,2", "1,0", "0,2", "0,0;1,0;0,1;1,1"),
    "quadric_cone": ("2", "3", "0", "0,1,2,3", "0;1;2"),
    "three_rays": ("2", "3", "0", "0", "0;1;2"),
}

README = [
    ["fan", "validate", "{fan}"],
    ["fan", "report", "{fan}", "--flags", "field,noetherian,reduced"],
    ["grading", "build", "{fan}"],
    ["pic", "{fan}"],
    ["subgroup", "classify", "{fan}", "--subgroup", "{big}"],
    ["cox", "build", "{fan}", "--subgroup", "{big}", "--flags", "field"],
    ["cox", "build", "{fan}", "--subgroup", "{big2}"],
    ["subgroup", "classify", "{fan}", "--subgroup", "{small}"],
    ["chart", "{fan}", "--cone", "{cone}"],
    ["ideal", "saturate", "{fan}", "--ideal", "Z1*Z2,Z1*Z3"],
    ["module", "sections", "{fan}", "--degrees", "{window}"],
    ["module", "torsion", "{fan}", "--ideal", "Z1,Z2,Z3"],
    ["sheaf", "xi-check", "{fan}", "--ideal", "Z1", "--window", "{window}"],
    ["sheaf", "lift", "{fan}", "--ideal", "Z1"],
]

REFUSALS = [
    ["fan", "report", "{fan}", "--flags", "field,bogus"],
    ["cox", "build", "{fan}", "--flags", "bogus"],
    ["chart", "{fan}", "--cone", "0,99"],
    ["chart", "{fan}", "--cone", "x"],
    ["chart", "{fan}", "--cone", "0,1,2"],
    ["ideal", "saturate", "{fan}", "--ideal", "Z99"],
    ["ideal", "saturate", "{fan}", "--ideal", "Y1*Z2^-1"],
    ["sheaf", "xi-check", "{fan}", "--ideal", "Z1", "--window", ";"],
    ["module", "sections", "{fan}", "--degrees", "1,2,3"],
    ["module", "sections", "{fan}", "--module", "{tmp}/missing.json", "--degrees", "0"],
    ["module", "sections", "{fan}", "--module", "{tmp}/{name}-graded.json", "--degrees", "{window}"],
    ["module", "sections", "{fan}", "--module", "{tmp}/{name}-graded.json", "--degrees", "{window}",
     "--mode", "via_twist"],
    ["module", "torsion", "{fan}", "--module", "{tmp}/{name}-mixed.json"],
    ["module", "torsion", "{fan}", "--ideal", "Z99"],
    ["subgroup", "classify", "{fan}", "--subgroup", "1,2,3"],
    ["cox", "build", "{fan}", "--subgroup", "{small}"],
    ["module", "sections", "{fan}", "--degrees", "0", "--mode", "foo"],
    ["sheaf", "lift", "{fan}"],
    ["module", "torsion", "{fan}", "--module", "{tmp}/{name}-graded.json", "--ideal", "Z1,Z2,Z3"],
]

# The lift at a high power, and at a big subgroup, where m_σ may exceed 1.
LIFT_RUNS = [
    ["sheaf", "lift", "{fan}", "--ideal", "Z1^1000"],
    ["sheaf", "lift", "{fan}", "--ideal", "Z1", "--subgroup", "{big}"],
]

# A Cl-homogeneous binomial relation x^u - x^v per fan, (u, v): its
# saturations are not monomial.
BINOMIALS = {
    "p2": ([1, 1, 0], [0, 0, 2]),
    "p1xp1": ([1, 0, 1, 0], [0, 1, 0, 1]),  # two variables in each cone monomial
    "p112": ([1, 0, 1], [0, 1, 0]),  # weights (1, 2, 1) on the rays
    "quadric_cone": ([1, 1, 0, 0], [0, 0, 1, 1]),  # one chart, cone monomial 1
    "three_rays": ([2, 0, 1], [0, 1, 0]),
}

BINOMIAL_RUNS = [
    ["module", "torsion", "{fan}", "--module", "{tmp}/{name}-binomial.json"],
    ["module", "sections", "{fan}", "--module", "{tmp}/{name}-binomial.json", "--degrees", "{window}"],
]

# Commands on ``oracles.RANK3_FAN``, a singular fan outside the corpus
# (``fan report`` reads its regularity off Hermite bases of its cones;
# the charts on 1,2,4 and 1,6,7 read Hilbert bases of duals of
# multiplicity 2,688 and 3,267).
RANK3_RUNS = [
    ["grading", "build", "{fan}"],
    ["pic", "{fan}"],
    ["fan", "report", "{fan}"],
    ["cox", "build", "{fan}"],
    ["chart", "{fan}", "--cone", ""],
    ["chart", "{fan}", "--cone", "0"],
    ["chart", "{fan}", "--cone", "1,2,4"],
    ["chart", "{fan}", "--cone", "1,6,7"],
    ["module", "torsion", "{fan}", "--ideal", "Z1,Z2,Z3"],
]

# Malformed fan files, each given to the commands below.
BAD_FANS = {
    "not_json": "{ not json",
    "top_level_list": [],
    "no_rank": {"rays": [], "max_cones": []},
    "no_rays": {"rank": 2, "max_cones": []},
    "no_max_cones": {"rank": 2, "rays": []},
    "rank_zero": {"rank": 0, "rays": [], "max_cones": []},
    "rank_string": {"rank": "2", "rays": [], "max_cones": []},
    "rank_float": {"rank": 2.0, "rays": [], "max_cones": []},
    "rank_bool": {"rank": True, "rays": [[1]], "max_cones": [[0]]},
    "rays_int": {"rank": 2, "rays": 5, "max_cones": []},
    "rays_null": {"rank": 2, "rays": None, "max_cones": []},
    "rays_string": {"rank": 2, "rays": "ab", "max_cones": []},
    "rays_object": {"rank": 2, "rays": {"a": 1}, "max_cones": []},
    "ray_short": {"rank": 2, "rays": [[1]], "max_cones": [[0]]},
    "ray_float": {"rank": 2, "rays": [[1.0, 0]], "max_cones": [[0]]},
    "ray_bool": {"rank": 2, "rays": [[True, 0], [0, 1]], "max_cones": [[0, 1]]},
    "ray_zero": {"rank": 2, "rays": [[0, 0]], "max_cones": [[0]]},
    "ray_scaled": {"rank": 2, "rays": [[2, 0], [0, 3]], "max_cones": [[0, 1]]},
    "cones_int": {"rank": 2, "rays": [[1, 0]], "max_cones": 5},
    "cone_int": {"rank": 2, "rays": [[1, 0]], "max_cones": [0]},
    "cone_index_high": {"rank": 2, "rays": [[1, 0]], "max_cones": [[1]]},
    "cone_index_negative": {"rank": 2, "rays": [[1, 0]], "max_cones": [[-1]]},
    "cone_index_bool": {"rank": 2, "rays": [[1, 0], [0, 1]], "max_cones": [[0, True]]},
    "cone_index_float": {"rank": 2, "rays": [[1, 0]], "max_cones": [[0.0]]},
    "nonpointed": {"rank": 1, "rays": [[1], [-1]], "max_cones": [[0, 1]]},
    "line_and_redundant_ray": {
        "rank": 2, "rays": [[1, 0], [-1, 0], [0, 1], [1, 1]], "max_cones": [[0, 1, 2, 3]],
    },
    "repeated_ray": {"rank": 2, "rays": [[1, 0], [2, 0], [0, 1]], "max_cones": [[0, 2], [1, 2]]},
    "overlapping": {"rank": 2, "rays": [[1, 0], [0, 1], [1, 1]], "max_cones": [[0, 1], [0, 2]]},
    "rays_no_cones": {"rank": 2, "rays": [[1, 0]], "max_cones": []},
    "p1": {"rank": 1, "rays": [[1], [-1]], "max_cones": [[0], [1]]},
}

BAD_FAN_COMMANDS = [
    ["fan", "validate", "{fan}"],
    ["fan", "report", "{fan}", "--flags", "bogus"],
    ["module", "torsion", "{fan}", "--ideal", "Z1"],
]

USAGE = [
    [],
    ["bogus"],
    ["fan"],
    ["fan", "validate"],
    ["fan", "validate", "{tmp}/missing.json"],
    ["pic", "{corpus}/p2.json", "--bogus"],
]

HELP = [
    [],
    ["fan"], ["fan", "validate"], ["fan", "report"],
    ["grading"], ["grading", "build"],
    ["pic"],
    ["subgroup"], ["subgroup", "classify"],
    ["cox"], ["cox", "build"],
    ["chart"],
    ["ideal"], ["ideal", "saturate"],
    ["module"], ["module", "sections"], ["module", "torsion"],
    ["sheaf"], ["sheaf", "xi-check"], ["sheaf", "lift"],
]


def _modules(tmp, name):
    """A graded module (Z1 as a relation), one whose relation Z1 + Z1^2
    mixes two degrees, and the fan's binomial quotient if it has one, for
    the fan's number of variables and class group."""
    n = len(corpus.fan_spec(name)["rays"])
    r = grading.build_grading(corpus.build(name)).class_group.ngens
    z1 = [1] + [0] * (n - 1)
    term = {"gen": 0, "exponent": z1, "coefficient": "1"}
    graded = {"generator_degrees": [[0] * r], "relations": [[term]]}
    mixed = {
        "generator_degrees": [[0] * r],
        "relations": [[term, dict(term, exponent=[2] + [0] * (n - 1))]],
    }
    (tmp / f"{name}-graded.json").write_text(json.dumps(graded))
    (tmp / f"{name}-mixed.json").write_text(json.dumps(mixed))
    if name in BINOMIALS:
        u, v = BINOMIALS[name]
        relation = [dict(term, exponent=u), dict(term, exponent=v, coefficient="-1")]
        binomial = {"generator_degrees": [[0] * r], "relations": [relation]}
        (tmp / f"{name}-binomial.json").write_text(json.dumps(binomial))


def _call(argv):
    out = io.StringIO()
    record = {}
    with contextlib.redirect_stdout(out):
        try:
            record["exit"] = cli.main(argv)
        except SystemExit as e:  # --help
            record["exit"] = e.code
        except Exception as e:
            record["uncaught"] = f"{type(e).__name__}: {e}"
    record["stdout"] = out.getvalue().splitlines()
    return record


def _every_chart(run, path, fan):
    for c in fan.cones:
        run(["chart", "{fan}", "--cone", "{cone}"], fan=path,
            cone=",".join(map(str, fan.cone_ray_indices(c))))


def main():
    runs = []
    with tempfile.TemporaryDirectory() as name:
        tmp = Path(name)
        corpus_dir = str(corpus.fixture_path("p2").parent)
        places = {str(tmp): "<tmp>", corpus_dir: "<corpus>"}

        def run(template, **values):
            values.update(tmp=str(tmp), corpus=corpus_dir)
            argv = [a.format(**values) for a in template]
            record = _call(argv)
            shown = json.dumps({"argv": argv, **record})
            for place, label in places.items():
                shown = shown.replace(place, label)
            runs.append(json.loads(shown))

        for fan in corpus.CORPUS_NAMES:
            big, big2, small, cone, window = FAN_ARGS[fan]
            _modules(tmp, fan)
            binomial = BINOMIAL_RUNS if fan in BINOMIALS else []
            for template in README + LIFT_RUNS + REFUSALS + binomial:
                run(template, fan=str(corpus.fixture_path(fan)), name=fan,
                    big=big, big2=big2, small=small, cone=cone, window=window)
            _every_chart(run, str(corpus.fixture_path(fan)), corpus.build(fan))
        for fan, (rays, max_cones) in oracles.SCALE_FANS.items():
            path = tmp / f"{fan}.json"
            path.write_text(json.dumps({"rank": len(rays[0]), "rays": rays, "max_cones": max_cones}))
            run(["pic", "{fan}"], fan=str(path))
            run(["cox", "build", "{fan}"], fan=str(path))
            _every_chart(run, str(path), polyfan.build_fan(len(rays[0]), rays, max_cones))
        rays, max_cones = oracles.RANK3_FAN
        path = tmp / "rank3.json"
        path.write_text(json.dumps({"rank": 3, "rays": rays, "max_cones": max_cones}))
        for template in RANK3_RUNS:
            run(template, fan=str(path))
        for fan, content in BAD_FANS.items():
            path = tmp / f"{fan}.json"
            path.write_text(content if isinstance(content, str) else json.dumps(content))
            for template in BAD_FAN_COMMANDS:
                run(template, fan=str(path))
        for template in USAGE:
            run(template)
        for template in HELP:
            run([*template, "--help"])
    json.dump(runs, sys.stdout, indent=1)
    sys.stdout.write("\n")


if __name__ == "__main__":
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:  # the reader closed the pipe: exit 2 quietly, as the CLI does
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 2
    sys.exit(code)

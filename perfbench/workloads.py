"""Seeded inputs of the three workloads, as blocks of fixed mix.

Every block of a workload holds the same op templates, so every block
has the same mix.  The seed chooses each op's arguments (symmetric
images, divisor representatives, coefficients) and the order inside
the block.  Each op belongs to a group of like ops; ``run.py`` takes
each group's median latency.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations, product
from pathlib import Path

import oracles

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CORPUS_DIR = SRC / "coxfan" / "corpus"
SCHEMA_DIR = SRC / "coxfan" / "schemas"
OUT = Path(__file__).resolve().parent / "out"

CORPUS = ("p2", "p1xp1", "p112", "quadric_cone", "three_rays")

# ROADMAP scale tier.
SCALE = {
    "p3": {
        "rank": 3,
        "rays": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1]],
        "max_cones": [list(c) for c in combinations(range(4), 3)],
    },
    "f2": {
        "rank": 2,
        "rays": [[1, 0], [0, 1], [-1, 2], [0, -1]],
        "max_cones": [[0, 1], [1, 2], [2, 3], [3, 0]],
    },
    "dp6": {
        "rank": 2,
        "rays": [[1, 0], [1, 1], [0, 1], [-1, 0], [-1, -1], [0, -1]],
        "max_cones": [[i, (i + 1) % 6] for i in range(6)],
    },
    "p1cubed": {
        "rank": 3,
        "rays": [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]],
        "max_cones": [[a, b, c] for a in (0, 1) for b in (2, 3) for c in (4, 5)],
    },
}


def fan_spec(name):
    if name in SCALE:
        return SCALE[name]
    return json.loads((CORPUS_DIR / f"{name}.json").read_text())


@dataclass
class Op:
    """One timed call.  ``kind`` is "a", "b" or "" (counted only in the
    totals); ``check`` turns the returned value into True (right) or
    False (wrong answer)."""

    group: str
    kind: str
    run: object
    check: object


# --------------------------------------------------------------- sections

# (fan, divisor coefficients per ray, modes).  dP6 is via_shift only: its
# via_twist op at D = 0 runs past 40 s, beyond one run's budget.  P3 is at
# H, not 2H: its via_twist op takes 1.2 s there, not 2.2-3.6 s.
SECTIONS_ITEMS = (
    ("p2", (2, 0, 0), ("via_shift", "via_twist")),
    ("p2", (3, 0, 0), ("via_shift", "via_twist")),
    ("p112", (2, 0, 0), ("via_shift", "via_twist")),
    ("p112", (3, 0, 0), ("via_shift", "via_twist")),
    ("p3", (1, 0, 0, 0), ("via_shift", "via_twist")),
    ("f2", (1, 0, 0, 0), ("via_shift", "via_twist")),
    ("dp6", "one_ray", ("via_shift",)),
)
SECTIONS_FANS = ("p2", "p112", "p3", "f2", "dp6")


def _build_cox(spec):
    """Fan -> grading -> Cox ring data over the whole class group."""
    from coxfan import cox, grading, polyfan

    fan = polyfan.build_fan(spec["rank"], [tuple(r) for r in spec["rays"]], spec["max_cones"])
    g = grading.build_grading(fan)
    return cox.build_cox(g, grading.subgroup_of_whole_group(g))


def sections_setup():
    from coxfan import gradmod, sheaf

    env = {}
    for name in SECTIONS_FANS:
        spec = fan_spec(name)
        c = _build_cox(spec)
        env[name] = (spec["rays"], c.grading, sheaf.sheafify(gradmod.free_module(c)))
    return env


def _sections_divisor(base, rays, rng):
    if base == "one_ray":
        ray = rng.randrange(len(rays))
        base = tuple(int(i == ray) for i in range(len(rays)))
    # A seeded linearly equivalent representative D + div(chi^m).
    m = [rng.randint(-1, 1) for _ in rays[0]]
    return [b + p for b, p in zip(base, oracles.principal_divisor(rays, m))]


def sections_blocks(env, rng):
    from coxfan import sheaf

    while True:
        ops = []
        for name, base, modes in SECTIONS_ITEMS:
            rays, g, s = env[name]
            a = _sections_divisor(base, rays, rng)
            alpha = g.a_map(tuple(a))
            expected = oracles.lattice_point_count(rays, a)
            seen = set()

            def check(w, expected=expected, seen=seen):
                # Both modes must give the lattice count, and so each other.
                seen.add(w.dimension)
                return w.dimension == expected and len(seen) == 1

            for mode in modes:
                ops.append(
                    Op(
                        f"{name} {base} {mode}",
                        "a" if mode == "via_shift" else "b",
                        lambda s=s, alpha=alpha, mode=mode: sheaf.global_sections_degree(
                            s, alpha, mode=mode
                        ),
                        check,
                    )
                )
        rng.shuffle(ops)
        yield ops


# --------------------------------------------------------- correspondence

# Fan automorphisms, as permutations of the variables.  On P1xP1 only
# those that keep each ruling; swapping the rulings changes the cost of
# some templates by a factor of two.
SYMMETRIES = {
    "p2": list(permutations(range(3))),
    "p1xp1": [(0, 1, 2, 3), (1, 0, 2, 3), (0, 1, 3, 2), (1, 0, 3, 2)],
}

# Ideals as lists of polynomials; a polynomial is a list of (coefficient
# slot, exponent) terms, slot 0 meaning 1 and slot 1 the seeded constant.
CORRESPONDENCE_ITEMS = (
    ("p2", "monomial", [[(0, (1, 1, 0))], [(0, (1, 0, 1))]]),
    ("p2", "monomial", [[(0, (2, 0, 0))], [(0, (0, 1, 1))]]),
    ("p2", "monomial", [[(0, (2, 1, 0))], [(0, (0, 0, 3))]]),
    ("p2", "binomial", [[(0, (1, 1, 0)), (1, (0, 0, 2))]]),
    ("p2", "binomial", [[(0, (2, 0, 0)), (1, (0, 1, 1))], [(0, (1, 1, 0))]]),
    ("p2", "binomial", [[(0, (1, 1, 0)), (1, (0, 0, 2))], [(0, (1, 0, 1)), (1, (0, 2, 0))]]),
    ("p1xp1", "monomial", [[(0, (1, 0, 1, 0))]]),
    ("p1xp1", "monomial", [[(0, (1, 1, 0, 0))], [(0, (0, 0, 1, 0))]]),
    ("p1xp1", "monomial", [[(0, (1, 0, 2, 0))], [(0, (0, 1, 0, 1))]]),
    ("p1xp1", "binomial", [[(0, (1, 0, 1, 0)), (1, (0, 1, 0, 1))]]),
    ("p1xp1", "binomial", [[(0, (1, 0, 0, 0)), (1, (0, 1, 0, 0))]]),
    ("p1xp1", "binomial", [[(0, (1, 0, 1, 0)), (1, (0, 1, 0, 1))], [(0, (1, 0, 0, 1))]]),
)
COEFFICIENTS = [Fraction(c) for c in (-1, -2, -3, 2, "-1/2", "3/2")]


def correspondence_setup():
    return {name: (_build_cox(fan_spec(name)), _zhats(fan_spec(name))) for name in SYMMETRIES}


def _window(c, degrees):
    """Every degree from 0 up to the coordinatewise maximum of ``degrees``."""
    A = c.grading.class_group
    top = [max(d[j] for d in degrees) for j in range(A.free_rank)]
    return [A.from_coords(list(d)) for d in product(*(range(t + 1) for t in top))]


def _correspondence_op(c, window, gens):
    from coxfan import gradmod, sheaf

    f = gradmod.free_module(c)
    sub = gradmod.GradedSubmodule(f, tuple((p,) for p in gens))
    sat = gradmod.saturate_submodule(sub)
    family = sheaf.xi_forward(sub)
    pre = sheaf.xi_preimage(family, f, window)
    lift = sheaf.lift_finite_type(family, f)
    return (
        sat,
        gradmod.submodules_equal(pre, sat),
        sheaf.family_equal(sheaf.xi_forward(lift), family),
    )


def correspondence_blocks(env, rng):
    while True:
        ops = []
        for item, (name, kind, template) in enumerate(CORRESPONDENCE_ITEMS):
            c, zhats = env[name]
            # Monomial ideals take a seeded symmetric image, binomial ones
            # a seeded coefficient: a symmetric image of the two-binomial
            # ideal on p2 can cost three times another.
            perm = rng.choice(SYMMETRIES[name]) if kind == "monomial" else SYMMETRIES[name][0]
            const = rng.choice(COEFFICIENTS)
            gens = [
                {tuple(e[perm[i]] for i in range(len(e))): (Fraction(1), const)[slot] for slot, e in poly}
                for poly in template
            ]
            # The window reaches one past the generators' degrees and, for
            # a monomial ideal, covers its saturation's generators.
            degrees = [tuple(x + 1 for x in c.grading.a_map(next(iter(p))).coords()) for p in gens]
            expected = None
            if kind == "monomial":
                expected = oracles.monomial_saturation([next(iter(p)) for p in gens], zhats)
                degrees += [c.grading.a_map(e).coords() for e in expected]
            window = _window(c, degrees)

            def check(result, expected=expected):
                sat, round_trip, family_round_trip = result
                got = [e for x in sat.element_generators for p in x for e in p]
                return (
                    round_trip
                    and family_round_trip
                    and (expected is None or oracles.minimal_monomials(got) == expected)
                )

            ops.append(
                Op(
                    f"{name} {kind} {item}",
                    "a" if kind == "monomial" else "b",
                    lambda c=c, window=window, gens=gens: _correspondence_op(c, window, gens),
                    check,
                )
            )
        rng.shuffle(ops)
        yield ops


# -------------------------------------------------------------------- cli

# Per corpus fan: arguments valid for its class group, and the sections
# degrees with a divisor representative each (for the lattice oracle).
CLI_ARGS = {
    "p2": dict(subgroup="2", degrees={"0": (0, 0, 0), "1": (1, 0, 0), "2": (2, 0, 0), "3": (3, 0, 0)}),
    "p112": dict(subgroup="2", degrees={"0": (0, 0, 0), "1": (1, 0, 0), "2": (2, 0, 0), "3": (3, 0, 0)}),
    "p1xp1": dict(
        subgroup="1,0;0,2",
        degrees={"0,0": (0, 0, 0, 0), "1,0": (1, 0, 0, 0), "0,1": (0, 0, 1, 0), "1,1": (1, 0, 1, 0)},
    ),
    "quadric_cone": dict(subgroup="2", degrees=None),
    "three_rays": dict(subgroup="2", degrees=None),
}
SELF_CHECKS = {"fan validate": "valid", "sheaf xi-check": "round_trip_equal", "sheaf lift": "family_round_trip"}


@dataclass
class CliOp:
    kind: str
    argv: list
    expect: str  # "ok", "domain" (exit 1, typed error) or "malformed" (exit 1/2)
    schema: str = ""
    error_type: str = ""
    dimensions: dict = None  # expected module sections output
    ideal: list = None  # monomial ideal given to ideal saturate
    zhats: list = None
    group: str = ""


def _fmt(e):
    parts = [f"Z{i + 1}" + (f"^{x}" if x > 1 else "") for i, x in enumerate(e) if x]
    return "*".join(parts) or "1"


def _parse_monomial(text, nvars):
    e = [0] * nvars
    if text != "1":
        for factor in text.split("*"):
            var, _, power = factor.partition("^")
            e[int(var[1:]) - 1] += int(power or 1)
    return tuple(e)


def _zhats(spec):
    n = len(spec["rays"])
    return [tuple(0 if i in cone else 1 for i in range(n)) for cone in spec["max_cones"]]


def _corpus_ops(name, path, rng):
    """The 12 README commands, with arguments valid for the fan."""
    spec = fan_spec(name)
    n = len(spec["rays"])
    args = CLI_ARGS[name]
    cone = ",".join(map(str, rng.choice(spec["max_cones"])))
    degree_two = [tuple(int(i == j) + int(i == k) for i in range(n)) for j in range(n) for k in range(j, n)]
    sat_ideal = rng.sample(degree_two, 2)
    var = f"Z{rng.randrange(n) + 1}"
    torsion = ",".join(f"Z{i + 1}" for i in sorted(rng.sample(range(n), 3)))
    if args["degrees"]:
        window = ";".join(args["degrees"])
        dims = {k: oracles.lattice_point_count(spec["rays"], a) for k, a in args["degrees"].items()}
        sections = CliOp("a", ["module", "sections", path, "--degrees", window], "ok", "module_sections", dimensions=dims)
        xi = CliOp("a", ["sheaf", "xi-check", path, "--ideal", var, "--window", window], "ok", "sheaf_xi_check")
    else:
        # Not complete: degree fibers are infinite.
        window = "0;1;2"
        sections = CliOp("a", ["module", "sections", path, "--degrees", window], "domain", error_type="UnboundedFiber")
        xi = CliOp("a", ["sheaf", "xi-check", path, "--ideal", var, "--window", window], "domain", error_type="UnboundedFiber")
    sat = ",".join(map(_fmt, sat_ideal))
    ops = [
        CliOp("a", ["fan", "validate", path], "ok", "fan_validate"),
        CliOp("a", ["fan", "report", path, "--flags", "field,noetherian,reduced"], "ok", "fan_report"),
        CliOp("a", ["grading", "build", path], "ok", "grading_build"),
        CliOp("a", ["pic", path], "ok", "pic"),
        CliOp("a", ["subgroup", "classify", path, "--subgroup", args["subgroup"]], "ok", "subgroup_classify"),
        CliOp("a", ["cox", "build", path, "--subgroup", args["subgroup"], "--flags", "field"], "ok", "cox_build"),
        CliOp("a", ["chart", path, "--cone", cone], "ok", "chart"),
        CliOp("a", ["ideal", "saturate", path, "--ideal", sat], "ok", "ideal_saturate", ideal=sat_ideal, zhats=_zhats(spec)),
        sections,
        CliOp("a", ["module", "torsion", path, "--ideal", torsion], "ok", "module_torsion"),
        xi,
        CliOp("a", ["sheaf", "lift", path, "--ideal", var], "ok", "sheaf_lift"),
    ]
    # The import-bound commands share a group; the windowed ones cost more.
    for op in ops:
        op.group = " ".join(op.argv) if op is sections or op is xi else f"corpus {name}"
    return ops


def _scale_op(name, path, command, rng):
    argv = {
        "fan report": ["fan", "report", path, "--flags", "field,noetherian,reduced"],
        "grading build": ["grading", "build", path],
        "pic": ["pic", path],
        "cox build": ["cox", "build", path],
        "chart": ["chart", path, "--cone", ",".join(map(str, rng.choice(SCALE[name]["max_cones"])))],
    }[command]
    # P3 and F2 commands cost about the same (fan validation); dP6 and
    # (P1)^3 `cox build` and `chart` cost twice their other commands.
    heavy = name in ("dp6", "p1cubed") and command in ("cox build", "chart")
    group = f"{name} heavy" if heavy else name
    return CliOp("b", argv, "ok", command.replace(" ", "_"), group=group)


def cli_catalogue(rng, fan_paths):
    """Every CLI op; one block runs all of them.  Each op runs once per
    block, so its group holds ops of like cost on the same fan."""
    light = ("fan report", "grading build", "pic")
    ops = [op for name in CORPUS for op in _corpus_ops(name, fan_paths[name], rng)]
    for name in SCALE:
        ops += [_scale_op(name, fan_paths[name], c, rng) for c in light + ("cox build", "chart")]
    # Malformed requests: each must exit 1 or 2 with error-schema JSON.
    bad = rng.choice(["p2", "p112", "p1xp1"])
    path, nvars = fan_paths[bad], len(fan_spec(bad)["rays"])
    ops += [
        CliOp("", ["module", "torsion", path, "--ideal", "Z1", "--power-cap", "0"], "malformed"),
        CliOp("", ["chart", path, "--cone", ",".join(map(str, range(nvars)))], "malformed"),
        CliOp("", ["ideal", "saturate", path, "--ideal", rng.choice([f"Z{nvars + 1}", "Z1**Z2", "Y1,Z2"])], "malformed"),
    ]
    for op in ops[-3:]:
        op.group = " ".join(op.argv)
    return ops


def cli_blocks(ops, rng):
    while True:
        yield rng.sample(ops, len(ops))


def cli_check(op, code, stdout, schemas):
    """'ok', 'failed' (error path broken) or 'wrong' (a wrong answer)."""
    try:
        payload = json.loads(stdout)
    except ValueError:
        payload = None
    if op.expect != "ok":
        good = (
            code in ((1,) if op.expect == "domain" else (1, 2))
            and payload is not None
            and schemas.valid(payload, "error")
            and (not op.error_type or payload["error"]["type"] == op.error_type)
        )
        return "ok" if good else "failed"
    if code != 0 or payload is None:
        return "failed"
    if not schemas.valid(payload, op.schema):
        return "wrong"
    key = SELF_CHECKS.get(payload["command"])
    if key and payload[key] is not True:
        return "wrong"
    if op.dimensions is not None:
        got = {k: v["dimension"] for k, v in payload["dimensions"].items()}
        if got != op.dimensions:
            return "wrong"
    if op.ideal is not None:
        nvars = len(op.zhats[0])
        sat = [_parse_monomial(s, nvars) for s in payload["generators"]]
        if oracles.minimal_monomials(sat) != oracles.monomial_saturation(op.ideal, op.zhats):
            return "wrong"
    return "ok"


def write_fans(directory):
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name in CORPUS:
        paths[name] = str((CORPUS_DIR / f"{name}.json").relative_to(ROOT))
    for name, spec in SCALE.items():
        path = directory / f"{name}.json"
        path.write_text(json.dumps(spec))
        paths[name] = str(path.relative_to(ROOT))
    return paths

"""Command-line front end: fan ingestion, JSON reports, exact output.

Exit codes: 0 success, 1 domain error (invalid fan, bad subgroup, cap
exceeded), 2 I/O or parse error.  All numbers in the JSON output are
exact; rationals are rendered as "p/q" strings.

A command imports only the layers it uses, since a process spends most of
its time loading them: only ``ideal``, ``module`` and ``sheaf`` load gradmod.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from . import polyfan


class ParseError(ValueError):
    def __init__(self, reason, line=None):
        super().__init__(reason)
        self.reason = reason
        self.line = line


class ValidationError(ValueError):
    pass


EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_PARSE = 2

# The domain errors by layer.  Only layers already loaded are searched:
# a layer never loaded raised nothing.
_DOMAIN_ERRORS = {
    "polyfan": ("PolyfanError",),
    "cox": ("NotBig", "ConeNotInFan"),
    "grading": ("UnboundedFiber", "FiberTooLarge"),
    "sheaf": ("Unstabilized",),
}


def domain_errors():
    """The exception classes that exit with EXIT_DOMAIN."""
    found = [ValidationError]
    for layer, names in _DOMAIN_ERRORS.items():
        module = sys.modules.get(f"coxfan.{layer}")
        if module is not None:
            found += [getattr(module, name) for name in names]
    return tuple(found)


def parse_fan_json(text):
    """Parse a fan description; returns (Fan, warnings)."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON: {e.msg}", line=e.lineno)
    if not isinstance(data, dict):
        raise ParseError("top level must be an object")
    for field in ("rank", "rays", "max_cones"):
        if field not in data:
            raise ParseError(f"missing field {field!r}")
    rank = data["rank"]
    if not isinstance(rank, int) or rank < 1:
        raise ParseError("rank must be a positive integer")
    warnings = []
    rays = []
    for i, r in enumerate(data["rays"]):
        if (
            not isinstance(r, list)
            or len(r) != rank
            or not all(isinstance(x, int) for x in r)
        ):
            raise ParseError(f"ray {i} must be a list of {rank} integers")
        if all(x == 0 for x in r):
            raise ParseError(f"ray {i} is zero")
        prim = polyfan.primitive(r)
        if list(prim) != r:
            warnings.append(f"ray {i} {r} normalized to primitive {list(prim)}")
        rays.append(prim)
    cones = data["max_cones"]
    if not isinstance(cones, list):
        raise ParseError("max_cones must be a list of ray index lists")
    for c in cones:
        if not isinstance(c, list) or not all(
            isinstance(i, int) and 0 <= i < len(rays) for i in c
        ):
            raise ParseError(f"bad cone ray index list {c!r}")
    try:
        fan = polyfan.build_fan(rank, rays, cones)
    except polyfan.FanInvalid as e:
        raise ValidationError(str(e))
    return fan, warnings


def serialize_fan(fan):
    rays = list(fan.ray_index)
    return {
        "rank": fan.ambient_rank,
        "rays": [list(r) for r in rays],
        "max_cones": [
            sorted(rays.index(g) for g in c.ray_generators)
            for c in fan.maximal_cones()
        ],
    }


def _parse_frac(s):
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"bad rational {s!r}")


def format_monomial(e):
    parts = []
    for i, x in enumerate(e):
        if x == 1:
            parts.append(f"Z{i + 1}")
        elif x:
            parts.append(f"Z{i + 1}^{x}")
    return "*".join(parts) if parts else "1"


def parse_monomial(s, nvars):
    e = [0] * nvars
    s = s.strip()
    if s == "1":
        return tuple(e)
    for factor in s.split("*"):
        factor = factor.strip()
        if "^" in factor:
            var, _, power = factor.partition("^")
        else:
            var, power = factor, "1"
        if not var.startswith("Z"):
            raise ParseError(f"bad monomial factor {factor!r}")
        try:
            idx = int(var[1:])
            p = int(power)
        except ValueError:
            raise ParseError(f"bad monomial factor {factor!r}")
        if not 1 <= idx <= nvars:
            raise ParseError(f"variable {var} out of range (1..{nvars})")
        if p < 0:
            raise ParseError(f"negative exponent in {factor!r}")
        e[idx - 1] += p
    return tuple(e)


def parse_ideal(spec, nvars):
    return [parse_monomial(part, nvars) for part in spec.split(",") if part.strip()]


def _parse_coords(s):
    try:
        return [int(x) for x in s.split(",")]
    except ValueError:
        raise ParseError(f"bad coordinate list {s!r}")


def _class_element(coords, group, what):
    """The class-group element with these coordinates; a ParseError names
    ``what`` when their count is wrong."""
    if len(coords) != group.ngens:
        raise ParseError(f"{what} needs {group.ngens} coordinates")
    return group.from_coords(coords)


def _element_list(spec, group, what):
    """Class-group elements from ';'-separated coordinate lists."""
    return [
        _class_element(_parse_coords(part), group, f"{what} {part!r}")
        for part in (p.strip() for p in spec.split(";"))
        if part
    ]


def parse_subgroup(spec, group):
    return _element_list(spec, group, "subgroup generator")


def parse_flags(spec):
    from .cox import BASE_RING_FLAG_NAMES, BaseRingFlags
    values = {}
    for part in (spec or "").split(","):
        part = part.strip()
        if not part:
            continue
        if part not in BASE_RING_FLAG_NAMES:
            raise ParseError(
                f"unknown base ring flag {part!r}; known: {sorted(BASE_RING_FLAG_NAMES)}"
            )
        values[part] = True
    return BaseRingFlags(**values)


def _json_ints(values):
    """Whether a JSON value is a list of integers (``bool`` is an ``int``
    subclass in Python, so ``true`` is checked out by type)."""
    return isinstance(values, list) and all(type(x) is int for x in values)


def load_module_json(text, cox_data):
    """Module presentation from JSON: generator degrees as class-group
    coordinates, relations as lists of {gen, exponent, coefficient}."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON: {e.msg}", line=e.lineno)
    A = cox_data.grading.class_group
    try:
        raw_degrees = list(data["generator_degrees"])
        rows = data.get("relations", [])
    except (KeyError, TypeError):
        raise ParseError("generator_degrees must be lists of class-group coordinates")
    for d in raw_degrees:
        if not _json_ints(d):
            raise ParseError(f"generator degree {d!r} must be a list of integers")
    degrees = tuple(
        _class_element(d, A, f"generator degree {d!r}") for d in raw_degrees
    )
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise ParseError("relations must be lists of terms")
    rank = len(degrees)
    nvars = cox_data.num_vars
    relations = []
    for n, row in enumerate(rows):
        elem = [dict() for _ in range(rank)]
        for term in row:
            try:
                i, e, c = term["gen"], term["exponent"], term["coefficient"]
            except (KeyError, TypeError):
                raise ParseError(f"bad relation term {term!r}")
            if type(i) is not int or not _json_ints(e) or any(x < 0 for x in e):
                raise ParseError(
                    f"relation term needs integer gen and exponents >= 0: {term!r}"
                )
            if type(c) not in (int, str):
                raise ParseError(
                    f"relation term needs a 'p/q' string or integer coefficient: {term!r}"
                )
            if not 0 <= i < rank or len(e) != nvars:
                raise ParseError(f"relation term out of range: {term!r}")
            e = tuple(e)
            elem[i][e] = elem[i].get(e, Fraction(0)) + _parse_frac(c)
        rel = tuple({k: v for k, v in p.items() if v} for p in elem)
        degs = {A.add(degrees[i], cox_data.grading.a_map(e)) for i, p in enumerate(rel) for e in p}
        if len(degs) > 1:
            shown = ";".join(",".join(map(str, c)) for c in sorted(d.coords() for d in degs))
            raise ValidationError(f"relation {n} is not homogeneous: its terms have degrees {shown}")
        relations.append(rel)
    from . import gradmod
    return gradmod.GradedModulePresentation(cox_data, degrees, tuple(relations))


def _coords(element):
    return list(element.coords())


def _read(path):
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e.strerror}")


def _emit(payload):
    json.dump(payload, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    return EXIT_OK


def _pipeline(args, need_cox=True):
    from . import grading
    fan, warnings = parse_fan_json(_read(args.fan))
    g = grading.build_grading(fan)
    if not need_cox:
        return fan, warnings, g, None
    from . import cox
    if getattr(args, "subgroup", None):
        b = grading.classify_subgroup(g, parse_subgroup(args.subgroup, g.class_group))
    else:
        b = grading.subgroup_of_whole_group(g)
    flags = parse_flags(getattr(args, "flags", None))
    c = cox.build_cox(g, b, flags)
    return fan, warnings, g, c


def cmd_fan_validate(args):
    fan, warnings = parse_fan_json(_read(args.fan))
    return _emit(
        {
            "command": "fan validate",
            "valid": True,
            "num_cones": len(fan.cones),
            "fan": serialize_fan(fan),
            "warnings": warnings,
        }
    )


def cmd_fan_report(args):
    from . import schemeprops
    fan, warnings = parse_fan_json(_read(args.fan))
    props = polyfan.fan_properties(fan)
    flags = parse_flags(args.flags)
    report = schemeprops.scheme_property_report(props, flags)
    return _emit(
        {
            "command": "fan report",
            "properties": {
                "is_full": props.is_full,
                "is_complete": props.is_complete,
                "is_simplicial": props.is_simplicial,
                "is_regular": props.is_regular,
                "cone_equals_span": props.cone_equals_span,
                "is_empty": props.is_empty,
            },
            "scheme": report.as_dict(),
            "warnings": warnings,
        }
    )


def cmd_grading_build(args):
    _, warnings, g, _ = _pipeline(args, need_cox=False)
    A = g.class_group
    return _emit(
        {
            "command": "grading build",
            "class_group": {
                "free_rank": A.free_rank,
                "torsion_orders": list(A.torsion_orders),
            },
            "ray_degrees": [_coords(d) for d in g.ray_degrees],
            "warnings": warnings,
        }
    )


def cmd_pic(args):
    from . import grading
    _, warnings, g, _ = _pipeline(args, need_cox=False)
    pic = grading.picard_group(g)
    return _emit(
        {
            "command": "pic",
            "generators": [_coords(x) for x in pic.generators],
            "warnings": warnings,
        }
    )


def cmd_subgroup_classify(args):
    from . import grading
    from .intlat import INFINITE
    _, warnings, g, _ = _pipeline(args, need_cox=False)
    b = grading.classify_subgroup(g, parse_subgroup(args.subgroup, g.class_group))
    return _emit(
        {
            "command": "subgroup classify",
            "generators": [_coords(x) for x in b.generators],
            "index": "infinite" if b.index_in_A == INFINITE else b.index_in_A,
            "is_big": b.is_big,
            "is_small": b.is_small,
            "warnings": warnings,
        }
    )


def cmd_cox_build(args):
    fan, warnings, g, c = _pipeline(args)
    rays = list(fan.ray_index)
    m_exps = {}
    for cone in fan.maximal_cones():
        label = ",".join(str(rays.index(r)) for r in cone.ray_generators)
        m_exps[label] = c.m_exponents[cone.ray_generators]
    return _emit(
        {
            "command": "cox build",
            "num_vars": c.num_vars,
            "variable_degrees": [_coords(d) for d in c.variable_degrees()],
            "irrelevant_generators": [
                format_monomial(e) for e in c.irrelevant_generators
            ],
            "restricted_irrelevant_generators": [
                format_monomial(e) for e in c.restricted_irrelevant_generators
            ],
            "m_exponents": m_exps,
            "warnings": warnings,
        }
    )


def _find_cone(fan, index_spec):
    rays = list(fan.ray_index)
    idxs = _parse_coords(index_spec)
    if not all(0 <= i < len(rays) for i in idxs):
        raise ParseError(f"cone ray index out of range in {index_spec!r}")
    wanted = tuple(sorted(tuple(rays[i]) for i in idxs))
    for c in fan.cones:
        if c.ray_generators == wanted:
            return c
    from . import cox
    raise cox.ConeNotInFan(f"no fan cone with ray indices {index_spec}")


def cmd_chart(args):
    from . import cox
    fan, warnings, g, c = _pipeline(args)
    cone = _find_cone(fan, args.cone)
    chart = cox.local_chart(c, cone)
    return _emit(
        {
            "command": "chart",
            "cone": args.cone,
            "degree_zero_generators": [list(e) for e in chart.degree_zero_generators],
            "toric_relations": [list(r) for r in chart.toric_relations],
            "monoid_hilbert_basis": [list(u) for u in chart.monoid_chart[0]],
            "warnings": warnings,
        }
    )


def cmd_ideal_saturate(args):
    from . import gradmod
    _, warnings, g, c = _pipeline(args)
    exps = parse_ideal(args.ideal, c.num_vars)
    s = gradmod.free_module(c)
    sub = gradmod.GradedSubmodule(
        s, tuple(({e: Fraction(1)},) for e in exps)
    )
    sat = gradmod.saturate_submodule(sub)
    gens = sorted(
        format_monomial(e) for x in sat.element_generators for p in x for e in p
    )
    return _emit(
        {
            "command": "ideal saturate",
            "input": sorted(format_monomial(e) for e in exps),
            "generators": gens,
            "warnings": warnings,
        }
    )


def _window(spec, group, option):
    """The degrees of a window option; an empty window is refused."""
    degrees = _element_list(spec, group, "degree")
    if not degrees:
        raise ValidationError(f"{option} needs at least one degree")
    return degrees


def cmd_module_sections(args):
    from . import gradmod, sheaf
    _, warnings, g, c = _pipeline(args)
    if args.module:
        f = load_module_json(_read(args.module), c)
    else:
        f = gradmod.free_module(c)
    s = sheaf.sheafify(f)
    dims = {}
    for alpha in _window(args.degrees, g.class_group, "--degrees"):
        w = sheaf.global_sections_degree(s, alpha, mode=args.mode)
        key = ",".join(str(x) for x in _coords(alpha))
        dims[key] = {"dimension": w.dimension, "certificate": w.certificate}
    return _emit(
        {
            "command": "module sections",
            "mode": args.mode,
            "dimensions": dims,
            "warnings": warnings,
        }
    )


def cmd_module_torsion(args):
    from . import gradmod
    cap = gradmod.DEFAULT_POWER_CAP if args.power_cap is None else args.power_cap
    if cap < 1:
        raise ValidationError("--power-cap must be >= 1")
    _, warnings, g, c = _pipeline(args)
    if args.module:
        f = load_module_json(_read(args.module), c)
    elif args.ideal:
        f = gradmod.quotient_by_monomial_ideal(
            c, parse_ideal(args.ideal, c.num_vars)
        )
    else:
        f = gradmod.free_module(c)
    cert = gradmod.is_torsion(f, power_cap=cap)
    table = [
        {
            "generator": i,
            "cone_rays": [list(r) for r in key],
            "power": k,
        }
        for (i, key), k in sorted(cert.exponent_table.items())
    ]
    return _emit(
        {
            "command": "module torsion",
            "is_torsion": cert.is_torsion,
            "certificate": table,
            "capped": cert.capped,
            "warnings": warnings,
        }
    )


def cmd_sheaf_xi_check(args):
    from . import gradmod, sheaf
    _, warnings, g, c = _pipeline(args)
    exps = parse_ideal(args.ideal, c.num_vars)
    window = _window(args.window, g.class_group, "--window")
    s = gradmod.free_module(c)
    sub = gradmod.GradedSubmodule(s, tuple(({e: Fraction(1)},) for e in exps))
    sat = gradmod.saturate_submodule(sub)
    t = sheaf.xi_forward(sub)
    pre = sheaf.xi_preimage(t, s, window)
    agrees = pre.element_generators == sat.element_generators
    return _emit(
        {
            "command": "sheaf xi-check",
            "saturation_generators": sorted(
                format_monomial(e)
                for x in sat.element_generators
                for p in x
                for e in p
            ),
            "preimage_generators": sorted(
                format_monomial(e)
                for x in pre.element_generators
                for p in x
                for e in p
            ),
            "round_trip_equal": agrees,
            "warnings": warnings,
        }
    )


def cmd_sheaf_lift(args):
    from . import gradmod, sheaf
    _, warnings, g, c = _pipeline(args)
    exps = parse_ideal(args.ideal, c.num_vars)
    s = gradmod.free_module(c)
    sub = gradmod.GradedSubmodule(s, tuple(({e: Fraction(1)},) for e in exps))
    t = sheaf.xi_forward(sub)
    lift = sheaf.lift_finite_type(t, s)
    ok = sheaf.family_equal(sheaf.xi_forward(lift), t)
    return _emit(
        {
            "command": "sheaf lift",
            "lift_generators": sorted(
                format_monomial(e)
                for x in lift.element_generators
                for p in x
                for e in p
            ),
            "family_round_trip": ok,
            "warnings": warnings,
        }
    )


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a usage error as ParseError JSON (exit 2) instead of
    usage text; the subcommand parsers inherit the class.  A coordinate
    list that starts with a negative number, such as '-1;0;1' or
    '-1,0;0,2', is read as a value, not as an option."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\d*\.\d+$|^-\d[\d,;\s-]*$")

    def error(self, message):
        raise ParseError(message)


def build_parser():
    p = _ArgumentParser(
        prog="coxfan",
        description="Exact toric-fan, Cox-ring and sheaf computations with JSON output",
    )
    sub = p.add_subparsers(dest="group", required=True)

    fan_p = sub.add_parser("fan", help="fan validation and property reports")
    fan_sub = fan_p.add_subparsers(dest="action", required=True)
    fv = fan_sub.add_parser("validate")
    fv.add_argument("fan")
    fv.set_defaults(func=cmd_fan_validate)
    fr = fan_sub.add_parser("report")
    fr.add_argument("fan")
    fr.add_argument("--flags", default="", help="comma-separated base ring flags")
    fr.set_defaults(func=cmd_fan_report)

    gr_p = sub.add_parser("grading", help="class group and ray degrees")
    gr_sub = gr_p.add_subparsers(dest="action", required=True)
    gb = gr_sub.add_parser("build")
    gb.add_argument("fan")
    gb.set_defaults(func=cmd_grading_build)

    pic_p = sub.add_parser("pic", help="Picard subgroup generators")
    pic_p.add_argument("fan")
    pic_p.set_defaults(func=cmd_pic)

    sg_p = sub.add_parser("subgroup", help="degree subgroup classification")
    sg_sub = sg_p.add_subparsers(dest="action", required=True)
    sc = sg_sub.add_parser("classify")
    sc.add_argument("fan")
    sc.add_argument("--subgroup", required=True, help="generators, e.g. '2' or '1,0;0,2'")
    sc.set_defaults(func=cmd_subgroup_classify)

    cox_p = sub.add_parser("cox", help="restricted coordinate ring data")
    cox_sub = cox_p.add_subparsers(dest="action", required=True)
    cb = cox_sub.add_parser("build")
    cb.add_argument("fan")
    cb.add_argument("--subgroup", default=None)
    cb.add_argument("--flags", default="")
    cb.set_defaults(func=cmd_cox_build)

    ch = sub.add_parser("chart", help="local chart of one fan cone")
    ch.add_argument("fan")
    ch.add_argument("--cone", required=True, help="ray indices, e.g. '0,1'")
    ch.add_argument("--subgroup", default=None)
    ch.set_defaults(func=cmd_chart)

    id_p = sub.add_parser("ideal", help="monomial ideal operations")
    id_sub = id_p.add_subparsers(dest="action", required=True)
    isat = id_sub.add_parser("saturate")
    isat.add_argument("fan")
    isat.add_argument("--ideal", required=True, help="monomials, e.g. 'Z1*Z2,Z1*Z3'")
    isat.add_argument("--subgroup", default=None)
    isat.set_defaults(func=cmd_ideal_saturate)

    mod_p = sub.add_parser("module", help="graded module computations")
    mod_sub = mod_p.add_subparsers(dest="action", required=True)
    ms = mod_sub.add_parser("sections")
    ms.add_argument("fan")
    ms.add_argument("--module", default=None)
    ms.add_argument("--degrees", required=True, help="e.g. '-1;0;1'")
    ms.add_argument("--mode", choices=["via_shift", "via_twist"], default="via_shift")
    ms.add_argument("--subgroup", default=None)
    ms.set_defaults(func=cmd_module_sections)
    mt = mod_sub.add_parser("torsion")
    mt.add_argument("fan")
    mt.add_argument("--module", default=None)
    mt.add_argument("--ideal", default=None, help="quotient by this monomial ideal")
    mt.add_argument("--power-cap", type=int, default=None)
    mt.add_argument("--subgroup", default=None)
    mt.set_defaults(func=cmd_module_torsion)

    sh_p = sub.add_parser("sheaf", help="subsheaf chart families")
    sh_sub = sh_p.add_subparsers(dest="action", required=True)
    sx = sh_sub.add_parser("xi-check")
    sx.add_argument("fan")
    sx.add_argument("--ideal", required=True)
    sx.add_argument("--window", default="0;1;2;3", help="degrees, e.g. '0;1;2;3'")
    sx.add_argument("--subgroup", default=None)
    sx.set_defaults(func=cmd_sheaf_xi_check)
    sl = sh_sub.add_parser("lift")
    sl.add_argument("fan")
    sl.add_argument("--ideal", required=True)
    sl.add_argument("--subgroup", default=None)
    sl.set_defaults(func=cmd_sheaf_lift)

    return p


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ParseError as e:
        _emit(
            {
                "ok": False,
                "error": {
                    "type": "ParseError",
                    "reason": e.reason,
                    "line": e.line,
                },
            }
        )
        return EXIT_PARSE
    except domain_errors() as e:
        _emit(
            {
                "ok": False,
                "error": {"type": type(e).__name__, "reason": str(e)},
            }
        )
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())

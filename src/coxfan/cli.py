"""Command-line front end: fan ingestion, JSON reports, exact output.

Exit codes: 0 success; 1 a ``DomainError`` (an invalid fan, a subgroup
that is not big, a cap exceeded: the base class of every layer's
refusals, in ``coxfan._record``); 2 an I/O, parse or usage error
(``ParseError``).  All numbers in the JSON output are exact; rationals are
rendered as "p/q" strings.

``COMMANDS`` maps each command name to its handler and its options, and
``build_parser`` builds every subparser from it.  A handler returns its
payload; ``main`` adds the command name and the warnings and prints it.
A handler takes the fan, the grading and the ring from an ``_Inputs``,
which builds each on first use, so a command meets bad input in the
order in which it asks.

A command imports only the layers it uses, since a process spends most of
its time loading them: only ``ideal``, ``module`` and ``sheaf`` load gradmod.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction
from functools import cached_property

from . import polyfan
from ._record import DomainError


class ParseError(ValueError):
    def __init__(self, reason, line=None):
        super().__init__(reason)
        self.line = line


class ValidationError(DomainError):
    pass


EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_PARSE = 2


def _json_ints(values):
    """Whether a JSON value is a list of integers (``bool`` is an ``int``
    subclass in Python, so ``true`` is checked out by type)."""
    return isinstance(values, list) and all(type(x) is int for x in values)


def _load_json(text):
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON: {e.msg}", line=e.lineno)
    except ValueError:  # an integer past Python's digit limit
        raise ParseError(f"invalid JSON: an integer has more than {sys.get_int_max_str_digits()} digits")


def parse_fan_json(text):
    """Parse a fan description; returns (Fan, warnings)."""
    data = _load_json(text)
    if not isinstance(data, dict):
        raise ParseError("top level must be an object")
    for field in ("rank", "rays", "max_cones"):
        if field not in data:
            raise ParseError(f"missing field {field!r}")
    rank = data["rank"]
    if type(rank) is not int or rank < 1:
        raise ParseError("rank must be a positive integer")
    if not isinstance(data["rays"], list):
        raise ParseError("rays must be a list of integer lists")
    warnings = []
    rays = []
    for i, r in enumerate(data["rays"]):
        if not _json_ints(r) or len(r) != rank:
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
        if not _json_ints(c) or not all(0 <= i < len(rays) for i in c):
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
            for c in fan.maximal
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


def load_module_json(text, cox_data):
    """Module presentation from JSON: generator degrees as class-group
    coordinates, relations as lists of {gen, exponent, coefficient}."""
    data = _load_json(text)
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
        if any(rel):  # a relation whose terms cancel presents nothing
            relations.append(rel)
    from . import gradmod
    return gradmod.GradedModulePresentation(cox_data, degrees, tuple(relations))


def _coords(elements):
    return [list(x.coords()) for x in elements]


def _read(path):
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e.strerror}")


def _emit(payload, code=EXIT_OK):
    """Print a payload whole and return its exit code.  A reader that has
    gone makes an I/O error, and stdout then points at os.devnull, so the
    interpreter's last flush stays quiet."""
    try:
        text = json.dumps(payload, indent=2, sort_keys=True)
    except ValueError:  # an integer past Python's digit limit
        limit = sys.get_int_max_str_digits()
        raise ValidationError(f"an integer in the result has more than {limit} digits")
    try:
        sys.stdout.write(text + "\n")
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PARSE
    return code


class _Inputs:
    """A command's fan, grading and ring, each built when first asked for."""

    def __init__(self, args):
        self.args = args
        self.warnings = []

    @cached_property
    def fan(self):
        fan, self.warnings = parse_fan_json(_read(self.args.fan))
        return fan

    @cached_property
    def grading(self):
        from . import grading
        return grading.build_grading(self.fan)

    @cached_property
    def ring(self):
        from . import cox, grading
        g, spec = self.grading, self.args.subgroup
        if spec:
            b = grading.classify_subgroup(g, parse_subgroup(spec, g.class_group))
        else:
            b = grading.subgroup_of_whole_group(g)
        return cox.build_cox(g, b, parse_flags(getattr(self.args, "flags", None)))


def _ideal_submodule(args, inputs):
    """The ideal of ``--ideal`` as a submodule of the ring."""
    from . import gradmod
    c = inputs.ring
    exps = parse_ideal(args.ideal, c.num_vars)
    return gradmod.GradedSubmodule(
        gradmod.free_module(c), tuple(({e: Fraction(1)},) for e in exps)
    )


def _generator_monomials(sub):
    """The sorted generator monomials of a monomial submodule of the ring."""
    return sorted(
        format_monomial(e) for x in sub.element_generators for p in x for e in p
    )


def _module(inputs, path, ideal=None):
    """The module of ``--module``, else the quotient by ``--ideal``, else
    the ring itself.  The two options name two modules, so both together
    are refused."""
    from . import gradmod
    if path is not None and ideal is not None:
        raise ParseError("--module and --ideal each name the module: give one of them")
    c = inputs.ring
    if path:
        return load_module_json(_read(path), c)
    if ideal:
        return gradmod.quotient_by_monomial_ideal(c, parse_ideal(ideal, c.num_vars))
    return gradmod.free_module(c)


def _window(spec, group, option):
    """The degrees of a window option; an empty window is refused."""
    degrees = _element_list(spec, group, "degree")
    if not degrees:
        raise ValidationError(f"{option} needs at least one degree")
    return degrees


def _find_cone(fan, index_spec):
    """The fan cone on the listed ray indices; a blank list names the zero cone."""
    rays = list(fan.ray_index)
    idxs = _parse_coords(index_spec) if index_spec.strip() else []
    if not all(0 <= i < len(rays) for i in idxs):
        raise ParseError(f"cone ray index out of range in {index_spec!r}")
    wanted = tuple(sorted(tuple(rays[i]) for i in idxs))
    for c in fan.cones:
        if c.ray_generators == wanted:
            return c
    from . import cox
    raise cox.ConeNotInFan(f"no fan cone with ray indices {index_spec}")


def cmd_fan_validate(args, inputs):
    fan = inputs.fan
    return {"valid": True, "num_cones": len(fan.cones), "fan": serialize_fan(fan)}


def cmd_fan_report(args, inputs):
    from . import schemeprops
    props = polyfan.fan_properties(inputs.fan)
    report = schemeprops.scheme_property_report(props, parse_flags(args.flags))
    return {
        "properties": {f: getattr(props, f) for f in props.__slots__},
        "scheme": report.as_dict(),
    }


def cmd_grading_build(args, inputs):
    g = inputs.grading
    A = g.class_group
    return {
        "class_group": {
            "free_rank": A.free_rank,
            "torsion_orders": list(A.torsion_orders),
        },
        "ray_degrees": _coords(g.ray_degrees),
    }


def cmd_pic(args, inputs):
    from . import grading
    return {"generators": _coords(grading.picard_group(inputs.grading).generators)}


def cmd_subgroup_classify(args, inputs):
    from . import grading
    from .intlat import INFINITE
    g = inputs.grading
    b = grading.classify_subgroup(g, parse_subgroup(args.subgroup, g.class_group))
    return {
        "generators": _coords(b.generators),
        "index": "infinite" if b.index_in_A == INFINITE else b.index_in_A,
        "is_big": b.is_big,
        "is_small": b.is_small,
    }


def cmd_cox_build(args, inputs):
    c = inputs.ring
    rays = list(inputs.fan.ray_index)
    return {
        "num_vars": c.num_vars,
        "variable_degrees": _coords(c.variable_degrees()),
        "irrelevant_generators": [format_monomial(e) for e in c.irrelevant_generators],
        "restricted_irrelevant_generators": [
            format_monomial(e) for e in c.restricted_irrelevant_generators
        ],
        "m_exponents": {
            ",".join(str(rays.index(r)) for r in key): c.m_exponents[key]
            for key in c.maximal_keys
        },
    }


def cmd_chart(args, inputs):
    from . import cox
    c = inputs.ring
    chart = cox.local_chart(c, _find_cone(inputs.fan, args.cone))
    return {
        "cone": args.cone,
        "degree_zero_generators": [list(e) for e in chart.degree_zero_generators],
        "toric_relations": [list(r) for r in chart.toric_relations],
        "monoid_hilbert_basis": [list(u) for u in chart.monoid_hilbert_basis],
    }


def cmd_ideal_saturate(args, inputs):
    from . import gradmod
    sub = _ideal_submodule(args, inputs)
    return {
        "input": _generator_monomials(sub),
        "generators": _generator_monomials(gradmod.saturate_submodule(sub)),
    }


def cmd_module_sections(args, inputs):
    from . import sheaf
    s = sheaf.sheafify(_module(inputs, args.module))
    dims = {}
    for alpha in _window(args.degrees, inputs.grading.class_group, "--degrees"):
        w = sheaf.global_sections_degree(s, alpha, mode=args.mode)
        key = ",".join(str(x) for x in alpha.coords())
        dims[key] = {"dimension": w.dimension, "certificate": w.certificate}
    return {"mode": args.mode, "dimensions": dims}


def cmd_module_torsion(args, inputs):
    from . import gradmod
    cert = gradmod.is_torsion(_module(inputs, args.module, args.ideal))
    table = [
        {"generator": i, "cone_rays": [list(r) for r in key], "power": k}
        for (i, key), k in sorted(cert.exponent_table.items())
    ]
    return {"is_torsion": cert.is_torsion, "certificate": table}


def cmd_sheaf_xi_check(args, inputs):
    from . import gradmod, sheaf
    sub = _ideal_submodule(args, inputs)
    window = _window(args.window, inputs.grading.class_group, "--window")
    sat = gradmod.saturate_submodule(sub)
    pre = sheaf.xi_preimage(sheaf.xi_forward(sub), sub.ambient, window)
    return {
        "saturation_generators": _generator_monomials(sat),
        "preimage_generators": _generator_monomials(pre),
        "round_trip_equal": pre.element_generators == sat.element_generators,
    }


def cmd_sheaf_lift(args, inputs):
    from . import sheaf
    sub = _ideal_submodule(args, inputs)
    t = sheaf.xi_forward(sub)
    lift = sheaf.lift_finite_type(t, sub.ambient)
    return {
        "lift_generators": _generator_monomials(lift),
        "family_round_trip": sheaf.family_equal(sheaf.xi_forward(lift), t),
    }


# The help of each command group, in the order `coxfan --help` lists them.
GROUP_HELP = {
    "fan": "fan validation and property reports",
    "grading": "class group and ray degrees",
    "pic": "Picard subgroup generators",
    "subgroup": "degree subgroup classification",
    "cox": "restricted coordinate ring data",
    "chart": "local chart of one fan cone",
    "ideal": "monomial ideal operations",
    "module": "graded module computations",
    "sheaf": "subsheaf chart families",
}

_SUBGROUP = ("--subgroup", {})

# Each command, by the words that name it: its handler, and the options
# that follow its positional fan argument.
COMMANDS = {
    "fan validate": (cmd_fan_validate, []),
    "fan report": (
        cmd_fan_report,
        [("--flags", {"default": "", "help": "comma-separated base ring flags"})],
    ),
    "grading build": (cmd_grading_build, []),
    "pic": (cmd_pic, []),
    "subgroup classify": (
        cmd_subgroup_classify,
        [("--subgroup", {"required": True, "help": "generators, e.g. '2' or '1,0;0,2'"})],
    ),
    "cox build": (cmd_cox_build, [_SUBGROUP, ("--flags", {"default": ""})]),
    "chart": (
        cmd_chart,
        [("--cone", {"required": True, "help": "ray indices, e.g. '0,1'"}), _SUBGROUP],
    ),
    "ideal saturate": (
        cmd_ideal_saturate,
        [("--ideal", {"required": True, "help": "monomials, e.g. 'Z1*Z2,Z1*Z3'"}), _SUBGROUP],
    ),
    "module sections": (
        cmd_module_sections,
        [
            ("--module", {}),
            ("--degrees", {"required": True, "help": "e.g. '-1;0;1'"}),
            ("--mode", {"choices": ["via_shift", "via_twist"], "default": "via_shift"}),
            _SUBGROUP,
        ],
    ),
    "module torsion": (
        cmd_module_torsion,
        [
            ("--module", {}),
            ("--ideal", {"help": "quotient by this monomial ideal"}),
            _SUBGROUP,
        ],
    ),
    "sheaf xi-check": (
        cmd_sheaf_xi_check,
        [
            ("--ideal", {"required": True}),
            ("--window", {"default": "0;1;2;3", "help": "degrees, e.g. '0;1;2;3'"}),
            _SUBGROUP,
        ],
    ),
    "sheaf lift": (cmd_sheaf_lift, [("--ideal", {"required": True}), _SUBGROUP]),
}


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
    groups = p.add_subparsers(dest="group", required=True)
    actions = {}
    for name, (handler, options) in COMMANDS.items():
        group, _, action = name.partition(" ")
        if not action:
            sp = groups.add_parser(group, help=GROUP_HELP[group])
        else:
            if group not in actions:
                gp = groups.add_parser(group, help=GROUP_HELP[group])
                actions[group] = gp.add_subparsers(dest="action", required=True)
            sp = actions[group].add_parser(action)
        sp.add_argument("fan")
        for flag, spec in options:
            sp.add_argument(flag, **spec)
        sp.set_defaults(command=name, handler=handler)
    return p


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        inputs = _Inputs(args)
        payload = args.handler(args, inputs)
        return _emit({**payload, "command": args.command, "warnings": inputs.warnings})
    except (ParseError, DomainError) as e:
        error = {"type": type(e).__name__, "reason": str(e)}
        if isinstance(e, ParseError):
            error["line"] = e.line
        code = EXIT_PARSE if isinstance(e, ParseError) else EXIT_DOMAIN
        return _emit({"ok": False, "error": error}, code)


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface: schemas, exit codes, determinism."""

import contextlib
import functools
import io
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from referencing import Registry, Resource

import coxfan
from coxfan import cli, corpus, gradmod, grading, sheaf
from coxfan.polyfan import build_fan

import oracles

SCHEMA_DIR = Path(coxfan.__file__).parent / "schemas"


def _registry():
    reg = Registry()
    for path in SCHEMA_DIR.glob("*.schema.json"):
        reg = Resource.from_contents(json.loads(path.read_text())) @ reg
    return reg


REGISTRY = _registry()


@functools.lru_cache(maxsize=None)
def _validator(name):
    with open(SCHEMA_DIR / f"{name}.schema.json") as fh:
        schema = json.load(fh)
    return jsonschema.Draft202012Validator(schema, registry=REGISTRY)


def _validate(payload, name):
    _validator(name).validate(payload)


def _run(args):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(args)
    return code, buf.getvalue()


@pytest.fixture(scope="module")
def p2():
    return str(corpus.fixture_path("p2"))


@pytest.fixture(scope="module")
def quadric():
    return str(corpus.fixture_path("quadric_cone"))


CASES = [
    ("fan_validate", lambda f: ["fan", "validate", f]),
    ("fan_report", lambda f: ["fan", "report", f, "--flags", "field,noetherian,reduced"]),
    ("grading_build", lambda f: ["grading", "build", f]),
    ("pic", lambda f: ["pic", f]),
    ("subgroup_classify", lambda f: ["subgroup", "classify", f, "--subgroup", "2"]),
    ("cox_build", lambda f: ["cox", "build", f, "--subgroup", "2", "--flags", "field"]),
    ("chart", lambda f: ["chart", f, "--cone", "0,1"]),
    ("ideal_saturate", lambda f: ["ideal", "saturate", f, "--ideal", "Z1*Z2,Z1*Z3"]),
    ("module_sections", lambda f: ["module", "sections", f, "--degrees", "0;1;2"]),
    ("module_torsion", lambda f: ["module", "torsion", f, "--ideal", "Z1,Z2,Z3"]),
    ("sheaf_xi_check", lambda f: ["sheaf", "xi-check", f, "--ideal", "Z1"]),
    ("sheaf_lift", lambda f: ["sheaf", "lift", f, "--ideal", "Z1"]),
]


@pytest.mark.parametrize("schema_name,mk", CASES, ids=[c[0] for c in CASES])
def test_output_validates_against_schema(p2, schema_name, mk):
    code, out = _run(mk(p2))
    assert code == 0, out
    _validate(json.loads(out), schema_name)


@pytest.mark.parametrize("schema_name,mk", CASES, ids=[c[0] for c in CASES])
def test_output_is_byte_identical_across_runs(p2, schema_name, mk):
    _, a = _run(mk(p2))
    _, b = _run(mk(p2))
    assert a == b


@pytest.mark.parametrize(
    "name,subgroup,count",
    [("dp6", "4,0,0,0;0,1,0,0;0,0,1,0;0,0,0,1", 17), ("p1cubed", "4,0,0;0,1,0;0,0,1", 20)],
    ids=["dp6", "p1cubed"],
)
def test_cox_build_on_a_big_subgroup_of_a_scale_fan(tmp_path, name, subgroup, count):
    rays, max_cones = oracles.SCALE_FANS[name]
    fan = tmp_path / f"{name}.json"
    fan.write_text(json.dumps({"rank": len(rays[0]), "rays": rays, "max_cones": max_cones}))
    code, out = _run(["cox", "build", str(fan), "--subgroup", subgroup])
    assert code == 0, out
    payload = json.loads(out)
    _validate(payload, "cox_build")
    assert len(payload["restricted_irrelevant_generators"]) == count


def test_parse_error_exit_code(tmp_path, p2):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    # class-group coordinate lists of the wrong length
    mod = tmp_path / "mod.json"
    mod.write_text(json.dumps({"generator_degrees": [[0, 1]]}))
    p1xp1 = str(corpus.fixture_path("p1xp1"))
    for args in (
        ["fan", "validate", str(bad)],
        ["module", "sections", p2, "--degrees", "1,2"],
        ["sheaf", "xi-check", p1xp1, "--ideal", "Z1"],
        ["module", "sections", p2, "--module", str(mod), "--degrees", "1"],
    ):
        code, out = _run(args)
        assert code == cli.EXIT_PARSE, args
        _validate(json.loads(out), "error")


@pytest.mark.parametrize(
    "args",
    [
        ["module", "sections", "{p2}", "--degrees", "1", "--mode", "foo"],
        ["module", "sections", "{p2}"],
        [],
        ["module", "torsion", "{p2}", "--ideal", "Z1", "--power-cap", "3"],
    ],
    ids=["bad_choice", "missing_required", "no_command", "removed_power_cap"],
)
def test_usage_error_is_parse_error_json(p2, capsys, args):
    code = cli.main([a.format(p2=p2) for a in args])
    out, err = capsys.readouterr()
    assert code == cli.EXIT_PARSE
    assert err == ""
    payload = json.loads(out)
    _validate(payload, "error")
    assert payload["error"]["type"] == "ParseError"


def test_help_still_prints_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["module", "sections", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: coxfan module sections")


def _term(gen=0, exponent=(1, 0, 0)):
    return {"gen": gen, "exponent": list(exponent), "coefficient": "1"}


BAD_MODULES = {
    "string_degree": {"generator_degrees": [["a"]]},
    "float_degree": {"generator_degrees": [[1.5]]},
    "bool_degree": {"generator_degrees": [[True]]},
    "string_gen": {"generator_degrees": [[0]], "relations": [[_term(gen="0")]]},
    "bool_gen": {"generator_degrees": [[0]], "relations": [[_term(gen=True)]]},
    "string_exponent": {
        "generator_degrees": [[0]],
        "relations": [[_term(exponent=(1, 0, "x"))]],
    },
    "negative_exponent": {
        "generator_degrees": [[0]],
        "relations": [[_term(exponent=(1, 0, -1))]],
    },
    "relations_not_a_list": {"generator_degrees": [[0]], "relations": 5},
    "float_coefficient": {
        "generator_degrees": [[0]],
        "relations": [[dict(_term(), coefficient=0.1)]],
    },
    "bool_coefficient": {
        "generator_degrees": [[0]],
        "relations": [[dict(_term(), coefficient=True)]],
    },
}


@pytest.mark.parametrize("name", sorted(BAD_MODULES))
def test_bad_module_json_is_parse_error(tmp_path, p2, name):
    mod = tmp_path / "mod.json"
    mod.write_text(json.dumps(BAD_MODULES[name]))
    code, out = _run(["module", "sections", p2, "--module", str(mod), "--degrees", "1"])
    assert code == cli.EXIT_PARSE, out
    payload = json.loads(out)
    _validate(payload, "error")
    assert payload["error"]["type"] == "ParseError"
    if name.endswith("_coefficient"):
        assert "coefficient" in payload["error"]["reason"]


@pytest.mark.parametrize(
    "command", [["module", "sections", "--degrees", "0;1;2"], ["module", "torsion"]]
)
def test_non_homogeneous_relation_is_validation_error(tmp_path, p2, command):
    # Z1 + Z2^2 mixes degrees 1 and 2 on P2: the module is not graded.
    mod = tmp_path / "mod.json"
    mod.write_text(
        json.dumps(
            {
                "generator_degrees": [[0]],
                "relations": [[_term(), _term(exponent=(0, 2, 0))]],
            }
        )
    )
    code, out = _run([*command[:2], p2, *command[2:], "--module", str(mod)])
    assert code == cli.EXIT_DOMAIN, out
    payload = json.loads(out)
    _validate(payload, "error")
    assert payload["error"] == {
        "type": "ValidationError",
        "reason": "relation 0 is not homogeneous: its terms have degrees 1;2",
    }


def test_domain_error_exit_code(tmp_path):
    nonpointed = tmp_path / "np.json"
    nonpointed.write_text(
        json.dumps(
            {"rank": 1, "rays": [[1], [-1]], "max_cones": [[0, 1]]}
        )
    )
    code, out = _run(["fan", "validate", str(nonpointed)])
    assert code == cli.EXIT_DOMAIN
    payload = json.loads(out)
    _validate(payload, "error")
    assert payload["error"]["type"] == "NonPointed"


def test_primitivity_warning(tmp_path):
    scaled = tmp_path / "scaled.json"
    scaled.write_text(
        json.dumps(
            {"rank": 2, "rays": [[2, 0], [0, 1]], "max_cones": [[0], [1]]}
        )
    )
    code, out = _run(["fan", "validate", str(scaled)])
    assert code == 0
    payload = json.loads(out)
    assert payload["warnings"]


def test_repeated_primitive_ray_is_validation_error(tmp_path):
    # [1, 0] and [2, 0] are one ray: P2 given this way is not a fan on four
    # rays, and a grading built on them has the wrong class group.
    fan = tmp_path / "repeated.json"
    fan.write_text(
        json.dumps(
            {"rank": 2, "rays": [[1, 0], [2, 0], [0, 1], [-1, -1]],
             "max_cones": [[0, 2], [2, 3], [3, 1]]}
        )
    )
    for command in (["fan", "validate"], ["grading", "build"]):
        code, out = _run([*command, str(fan)])
        assert code == cli.EXIT_DOMAIN, out
        payload = json.loads(out)
        _validate(payload, "error")
        assert payload["error"] == {
            "type": "ValidationError",
            "reason": "rays 0 and 1 span the same ray [1, 0]",
        }


MALFORMED_FANS = {
    "rays_int": ({"rank": 2, "rays": 5, "max_cones": []}, "rays must be a list"),
    "rays_null": ({"rank": 2, "rays": None, "max_cones": []}, "rays must be a list"),
    "rays_object": ({"rank": 2, "rays": {}, "max_cones": []}, "rays must be a list"),
    "bool_rank": ({"rank": True, "rays": [[1]], "max_cones": [[0]]}, "rank must be"),
    "bool_coordinate": (
        {"rank": 2, "rays": [[True, 0], [0, 1]], "max_cones": [[0, 1]]},
        "ray 0 must be",
    ),
    "bool_cone_index": (
        {"rank": 2, "rays": [[1, 0], [0, 1]], "max_cones": [[False, True]]},
        "bad cone ray index list",
    ),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_FANS))
def test_malformed_fan_is_parse_error(tmp_path, name):
    # Before these were refused, 'rays' that is not a list escaped as a
    # TypeError, and booleans were read as the integers 0 and 1.
    doc, reason = MALFORMED_FANS[name]
    fan = tmp_path / "fan.json"
    fan.write_text(json.dumps(doc))
    code, out = _run(["fan", "validate", str(fan)])
    assert code == cli.EXIT_PARSE, out
    payload = json.loads(out)
    _validate(payload, "error")
    assert payload["error"]["type"] == "ParseError"
    assert payload["error"]["reason"].startswith(reason)


@pytest.mark.parametrize(
    "text", ["p2", '{"rank": 2, "rays": [], "max_cones": []}'], ids=["p2", "empty"]
)
def test_fan_round_trip(p2, text):
    fan, warnings = cli.parse_fan_json(Path(p2).read_text() if text == "p2" else text)
    payload = cli.serialize_fan(fan)
    _validate(payload, "fan")
    again, _ = cli.parse_fan_json(json.dumps(payload))
    assert fan == again and not warnings


def test_saturate_example_against_oracle(p2):
    # the given pair is already saturated for the triangle fan
    _, out = _run(["ideal", "saturate", p2, "--ideal", "Z1*Z2,Z1*Z3"])
    payload = json.loads(out)
    assert sorted(payload["generators"]) == ["Z1*Z2", "Z1*Z3"]


def test_sections_pinned_dimensions(p2):
    _, out = _run(["module", "sections", p2, "--degrees", "0;1;2;3"])
    payload = json.loads(out)
    dims = [payload["dimensions"][str(d)]["dimension"] for d in range(4)]
    assert dims == [1, 3, 6, 10]


@pytest.mark.parametrize("mode", ["via_shift", "via_twist"])
def test_sections_of_a_conic(tmp_path, p2, mode):
    # S / (Z1*Z2 - Z3^2) on P2 is the structure sheaf of a smooth conic,
    # a P1 embedded by O(2): its degree-d sections number 2d + 1.
    mod = tmp_path / "conic.json"
    mod.write_text(
        json.dumps(
            {
                "generator_degrees": [[0]],
                "relations": [
                    [
                        {"gen": 0, "exponent": [1, 1, 0], "coefficient": "1"},
                        {"gen": 0, "exponent": [0, 0, 2], "coefficient": "-1"},
                    ]
                ],
            }
        )
    )
    args = ["module", "sections", p2, "--module", str(mod), "--degrees", "0;1;2;3"]
    code, out = _run(args + ["--mode", mode])
    assert code == 0, out
    payload = json.loads(out)
    _validate(payload, "module_sections")
    assert [payload["dimensions"][str(d)]["dimension"] for d in range(4)] == [1, 3, 5, 7]
    # With relations the level is not proven.
    assert {v["certificate"] for v in payload["dimensions"].values()} == {"heuristic"}


@pytest.mark.parametrize(
    "relation",
    [[], [{"gen": 0, "exponent": [1, 0, 0], "coefficient": "0"}]],
    ids=["empty", "zero_coefficient"],
)
@pytest.mark.parametrize("mode", ["via_shift", "via_twist"])
def test_a_zero_relation_leaves_the_free_module(p2, tmp_path, mode, relation):
    # A relation whose terms cancel presents nothing: the module is S, whose
    # sections of degree 1 have the proven level of a free module.
    mod = tmp_path / "m.json"
    mod.write_text(json.dumps({"generator_degrees": [[0]], "relations": [relation]}))
    args = ["module", "sections", p2, "--module", str(mod), "--degrees", "1", "--mode", mode]
    code, out = _run(args)
    assert code == 0, out
    payload = json.loads(out)
    _validate(payload, "module_sections")
    assert payload["dimensions"] == {"1": {"certificate": "bound", "dimension": 3}}


def test_twisted_sections_at_the_level_bound(p2):
    # The twisted windows give 0 at levels 1 and 2 here and reach every
    # section at their proven level 4; a free module at a Cartier class
    # reads via_shift's level-1 windows instead, with the same label.
    args = ["module", "sections", p2, "--degrees", "4", "--mode", "via_twist"]
    code, out = _run(args)
    assert code == 0, out
    payload = json.loads(out)
    _validate(payload, "module_sections")
    assert payload["dimensions"] == {"4": {"certificate": "bound", "dimension": 15}}


def test_twisted_sections_past_the_former_generator_box(p2):
    # The Laurent generators of degree 7 reach past |u_j| <= 8; a box search
    # refused this degree with Unstabilized.  At this Cartier class the free
    # module reads via_shift's windows.
    args = ["module", "sections", p2, "--degrees", "7", "--mode", "via_twist"]
    code, out = _run(args)
    assert code == 0, out
    payload = json.loads(out)
    _validate(payload, "module_sections")
    assert payload["dimensions"] == {"7": {"certificate": "bound", "dimension": 36}}


@pytest.mark.parametrize("power", [9, 20])
def test_sheaf_lift_at_high_powers(p2, power):
    # Z1^k is its own lift; a search over at most eight levels refused
    # these with Unstabilized.
    code, out = _run(["sheaf", "lift", p2, "--ideal", f"Z1^{power}"])
    assert code == 0, out
    payload = json.loads(out)
    assert payload["lift_generators"] == [f"Z1^{power}"]
    assert payload["family_round_trip"] is True


# S/(Z1) + S(-1)/(Z2) on P2: its sheaf is O_L + O_L'(-1) for two lines,
# with (d + 1) + d sections in degree d.
RANK_TWO = {
    "generator_degrees": [[0], [1]],
    "relations": [
        [{"gen": 0, "exponent": [1, 0, 0], "coefficient": "1"}],
        [{"gen": 1, "exponent": [0, 1, 0], "coefficient": "1"}],
    ],
}


@pytest.mark.parametrize("mode", ["via_shift", "via_twist"])
def test_sections_of_a_rank_two_module(tmp_path, p2, mode):
    mod = tmp_path / "rank2.json"
    mod.write_text(json.dumps(RANK_TWO))
    args = ["module", "sections", p2, "--module", str(mod), "--degrees", "0;1;2;3"]
    code, out = _run(args + ["--mode", mode])
    assert code == 0, out
    payload = json.loads(out)
    assert [payload["dimensions"][str(d)]["dimension"] for d in range(4)] == [1, 3, 5, 7]


def test_torsion_of_a_rank_two_module(tmp_path, p2):
    mod = tmp_path / "rank2.json"
    mod.write_text(json.dumps(RANK_TWO))
    code, out = _run(["module", "torsion", p2, "--module", str(mod)])
    assert code == 0, out
    payload = json.loads(out)
    _validate(payload, "module_torsion")
    # No power of the cone monomial kills generator 0 there: the
    # localization kernel certifies that.
    assert payload["is_torsion"] is False
    assert [(c["generator"], c["power"]) for c in payload["certificate"]] == [(0, 1)]


@pytest.mark.parametrize("k", [1, 5])
def test_torsion_of_a_monomial_quotient_makes_no_membership_test(p2, monkeypatch, k):
    # S/<Z1^k> on p2: every kill-table entry is read off the exponents, a
    # None included, so no Groebner reduction runs.
    calls = []
    real = gradmod.module_contains
    monkeypatch.setattr(gradmod, "module_contains", lambda gb, x: calls.append(x) or real(gb, x))
    code, out = _run(["module", "torsion", p2, "--ideal", f"Z1^{k}"])
    assert code == 0, out
    payload = json.loads(out)
    assert payload["is_torsion"] is False
    assert calls == []


def test_torsion_refuses_a_module_with_an_ideal(tmp_path, p2):
    # Both options name the module; neither is dropped in silence.
    mod = tmp_path / "free.json"
    mod.write_text(json.dumps({"generator_degrees": [[0]]}))
    code, out = _run(["module", "torsion", p2, "--module", str(mod), "--ideal", "Z1,Z2,Z3"])
    assert code == cli.EXIT_PARSE, out
    payload = json.loads(out)
    _validate(payload, "error")
    assert payload["error"]["type"] == "ParseError"
    assert "--module" in payload["error"]["reason"] and "--ideal" in payload["error"]["reason"]
    code, out = _run(["module", "torsion", p2, "--module", str(mod)])
    assert code == 0 and json.loads(out)["is_torsion"] is False


@pytest.mark.parametrize("form", ["separate", "equals"])
def test_degrees_may_start_with_a_negative_degree(p2, form):
    # The help text's own example: '-1;0;1' is a value, not an option.
    flag = ["--degrees", "-1;0;1"] if form == "separate" else ["--degrees=-1;0;1"]
    code, out = _run(["module", "sections", p2, *flag])
    assert code == 0, out
    payload = json.loads(out)
    _validate(payload, "module_sections")
    assert [payload["dimensions"][d]["dimension"] for d in ("-1", "0", "1")] == [0, 1, 3]


@pytest.mark.parametrize("form", ["separate", "equals"])
def test_window_may_start_with_a_negative_degree(p2, form):
    flag = ["--window", "-1;0;1;2"] if form == "separate" else ["--window=-1;0;1;2"]
    code, out = _run(["sheaf", "xi-check", p2, "--ideal", "Z1", *flag])
    assert code == 0, out
    _validate(json.loads(out), "sheaf_xi_check")


@pytest.mark.parametrize(
    "args",
    [
        ["sheaf", "xi-check", "{p2}", "--ideal", "Z1", "--window", "99999999"],
        ["module", "sections", "{p2}", "--degrees", "99999999"],
    ],
    ids=["xi_check_window", "sections_degrees"],
)
def test_huge_degree_is_refused_quickly(p2, args):
    # The fiber of degree 10^8 on P2 has about 5 * 10^15 points; the one
    # lattice-point enumerator stops at its cap instead of listing them.
    start = time.perf_counter()
    code, out = _run([a.format(p2=p2) for a in args])
    assert time.perf_counter() - start < 5
    assert code == cli.EXIT_DOMAIN
    payload = json.loads(out)
    _validate(payload, "error")
    assert payload["error"]["type"] == "FiberTooLarge"
    assert str(grading.FIBER_POINT_CAP) in payload["error"]["reason"]


def test_huge_window_degree_answers_where_no_multiple_is_listed(p2):
    # Z1 has degree 1, in the window, so the preimage takes it as it is
    # and lists no fiber: the fiber of degree 10^8, past the cap, is
    # never read.  Without 1 in the window, Z1's multiples of degree 10^8
    # are listed and refused (test_huge_degree_is_refused_quickly).
    start = time.perf_counter()
    code, out = _run(["sheaf", "xi-check", p2, "--ideal", "Z1", "--window", "1;99999999"])
    assert time.perf_counter() - start < 5
    assert code == 0, out
    payload = json.loads(out)
    _validate(payload, "sheaf_xi_check")
    assert payload["round_trip_equal"] is True
    assert payload["preimage_generators"] == payload["saturation_generators"] == ["Z1"]


def test_torsion_of_a_huge_power_returns_quickly(p2):
    # Z1^10000 is killed on the chart where Z1 is inverted, by the power
    # 10000 and no smaller one: the localization kernel of monomial
    # relations is a monomial saturation, and the least-power search
    # gallops to the least power.  The lift of <Z1^1000000> needs that
    # search's millionth power of Z1 on the same chart.  Child processes,
    # so a hang fails at the timeout.
    src = str(Path(cli.__file__).resolve().parents[1])

    def run(*args):
        proc = subprocess.run(
            [sys.executable, "-m", "coxfan.cli", *args],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            timeout=5,
        )
        assert proc.returncode == 0, proc.stdout
        return json.loads(proc.stdout)

    payload = run("module", "torsion", p2, "--ideal", "Z1^10000")
    _validate(payload, "module_torsion")
    assert payload["is_torsion"] is False
    assert [(c["generator"], c["power"]) for c in payload["certificate"]] == [(0, 10000)]
    payload = run("sheaf", "lift", p2, "--ideal", "Z1^1000000")
    _validate(payload, "sheaf_lift")
    assert payload["lift_generators"] == ["Z1^1000000"]
    assert payload["family_round_trip"] is True


# A complete plane fan whose Picard generators have entries near 10^5: a
# Smith form of them grows past a thousand bits, their Hermite basis does not.
SIX_RAYS = ([[-2, -3], [3, -5], [9, -7], [8, -5], [-1, 8], [-2, 9]],
            [[0, 1], [1, 2], [2, 3], [3, 4], [4, 5], [5, 0]])


def _run_on_fan(tmp_path, rays, max_cones, commands):
    """The JSON of each CLI command on the fan, keyed by the command's
    group, each run as a process under a 30 s timeout."""
    fan = tmp_path / "fan.json"
    fan.write_text(json.dumps({"rank": len(rays[0]), "rays": rays, "max_cones": max_cones}))
    src = str(Path(cli.__file__).resolve().parents[1])
    payloads = {}
    for command in commands:
        proc = subprocess.run(
            [sys.executable, "-m", "coxfan.cli", *command, str(fan)],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            timeout=30,
        )
        assert proc.returncode == 0, proc.stdout
        payloads[command[0]] = json.loads(proc.stdout)
    return payloads


def _pic_is_the_cartier_classes(payload, rays, max_cones):
    """The Picard generators span the classes of the oracle's support
    functions; returns the group and the generators."""
    _validate(payload, "pic")
    g = grading.build_grading(build_fan(2, rays, max_cones))
    A = g.class_group
    pic = [A.from_coords(x) for x in payload["generators"]]
    cartier = [g.a_map(v) for v in oracles.cartier_lattice(rays, max_cones)]
    assert oracles.subgroup_equal(pic, cartier, A)
    return A, pic


def test_ring_building_answers_on_a_fan_with_large_degrees(tmp_path):
    rays, max_cones = SIX_RAYS
    payloads = _run_on_fan(tmp_path, rays, max_cones, (["pic"], ["cox", "build"]))
    _validate(payloads["cox"], "cox_build")
    A, pic = _pic_is_the_cartier_classes(payloads["pic"], rays, max_cones)
    # [Cl : Pic] is the product of the six cone multiplicities.
    assert oracles.subgroup_index(pic, A) == 49_718_592 == 19 * 24 * 11 * 59 * 7 * 24


# A complete plane fan whose Cartier system, v_i − u_σ·ρ_i = 0, sent a
# Smith form's transforms past any useful size: `pic` ran past 5 s.  The
# Hermite basis of the system's kernel stays small.
NINE_RAYS = [[50, -41], [1, 0], [29, 3], [9, 47], [-11, 34], [-10, 21], [-41, 51], [-31, 21], [-59, 25]]


def test_pic_answers_on_a_fan_with_a_dense_cartier_system(tmp_path):
    max_cones = [[i, (i + 1) % 9] for i in range(9)]
    payloads = _run_on_fan(tmp_path, NINE_RAYS, max_cones, (["pic"],))
    _pic_is_the_cartier_classes(payloads["pic"], NINE_RAYS, max_cones)


def test_sections_and_ring_answer_on_a_singular_rank_three_fan(tmp_path):
    # Each command lifts a class, which inverts the Smith transform u of
    # the ray matrix; u has entries of 36-158 bits, and a Smith form of u
    # grows past use where the Hermite basis of (u | I) does not.
    rays, max_cones = oracles.RANK3_FAN
    zero = "0,0,0,0,0"
    twice = ";".join(",".join(str(2 * (i == j)) for j in range(5)) for i in range(5))
    payloads = _run_on_fan(tmp_path, rays, max_cones, (
        ["module", "sections", "--degrees", zero],
        ["cox", "build", "--subgroup", twice],
        ["sheaf", "xi-check", "--ideal", "Z1", "--window", zero],
    ))
    _validate(payloads["module"], "module_sections")
    assert payloads["module"]["dimensions"] == {zero: {"dimension": 1, "certificate": "bound"}}
    _validate(payloads["cox"], "cox_build")
    _validate(payloads["sheaf"], "sheaf_xi_check")


def test_twisted_sections_answer_on_a_singular_rank_three_fan(tmp_path):
    # The twist box [0, e)^3 of the cone (2, 4, 7), of multiplicity 768,
    # holds 589,824 points of one coset and ran past 40 s; at the Cartier
    # class 0 the free module's via_twist reads via_shift's windows.
    rays, max_cones = oracles.RANK3_FAN
    zero = "0,0,0,0,0"
    command = ["module", "sections", "--degrees", zero, "--mode", "via_twist"]
    payload = _run_on_fan(tmp_path, rays, max_cones, (command,))["module"]
    _validate(payload, "module_sections")
    assert payload["mode"] == "via_twist"
    assert payload["dimensions"] == {zero: {"dimension": 1, "certificate": "bound"}}


def test_twisted_sections_past_the_twist_box_cap_are_refused(tmp_path, monkeypatch):
    # At the class (1, 0, 0, 0, 0) via_twist builds its own windows: the
    # twist box [0, 466)^3 of the seventh maximal cone holds 217,156
    # points of one coset, past the enumeration cap.  The boxes' point
    # counts are known from their lattices, so the refusal comes before
    # any cone's box is listed; listing the first six (525,014 points)
    # took seconds, and listing them all, unchecked, ran past 60 s.
    listed = []
    monkeypatch.setattr(sheaf, "_coset_minima", lambda *args: listed.append(args))
    rays, max_cones = oracles.RANK3_FAN
    fan = tmp_path / "fan.json"
    fan.write_text(json.dumps({"rank": 3, "rays": rays, "max_cones": max_cones}))
    start = time.perf_counter()
    code, out = _run(["module", "sections", str(fan), "--degrees", "1,0,0,0,0",
                      "--mode", "via_twist"])
    assert time.perf_counter() - start < 1
    assert code == cli.EXIT_DOMAIN
    payload = json.loads(out)
    _validate(payload, "error")
    assert payload["error"]["type"] == "FiberTooLarge"
    cap = grading.FIBER_POINT_CAP
    assert payload["error"]["reason"] == f"more than {cap} points (the enumeration cap)"
    assert listed == []


@pytest.mark.parametrize("cone", ["1,2,4", "1,6,7", "1,2,7"])
def test_chart_answers_on_a_singular_rank_three_fan(tmp_path, cone):
    # The duals of these cones have multiplicity 2,688-5,376; their Hilbert
    # bases scanned a coordinate box, which took minutes or did not finish.
    rays, max_cones = oracles.RANK3_FAN
    fan = tmp_path / "fan.json"
    fan.write_text(json.dumps({"rank": 3, "rays": rays, "max_cones": max_cones}))
    code, out = _run(["chart", str(fan), "--cone", cone])
    assert code == 0, out
    _validate(json.loads(out), "chart")


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
def test_a_closed_pipe_is_an_io_error_without_a_traceback(p2, unbuffered):
    # As in `coxfan grading build p2.json | true`: the reader has gone
    # before the JSON is written, which a buffered stdout meets only at
    # its flush.
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "coxfan.cli", "grading", "build", p2],
            env=env, stdout=write, stderr=subprocess.PIPE, text=True, timeout=30,
        )
    finally:
        os.close(write)
    assert proc.returncode == cli.EXIT_PARSE
    assert proc.stderr == ""  # no traceback, at exit or before


def test_an_integer_past_the_digit_limit_in_the_fan_is_a_parse_error(tmp_path):
    fan = tmp_path / "fan.json"
    big = "1" + "0" * 5000
    fan.write_text(f'{{"rank": 2, "rays": [[{big}, 1], [0, 1]], "max_cones": [[0, 1]]}}')
    code, out = _run(["fan", "validate", str(fan)])
    assert code == cli.EXIT_PARSE
    payload = json.loads(out)
    _validate(payload, "error")
    assert payload["error"]["type"] == "ParseError"
    assert str(sys.get_int_max_str_digits()) in payload["error"]["reason"]


def test_an_integer_past_the_digit_limit_in_the_result_is_refused_whole():
    # Two generators of 3,001 digits fit, but the index they print,
    # 10^6000, has more digits than Python converts; the refusal is the
    # only output, with nothing of the result before it.
    p1xp1 = str(corpus.fixture_path("p1xp1"))
    big = "1" + "0" * 3000
    code, out = _run(["subgroup", "classify", p1xp1, "--subgroup", f"{big},0;0,{big}"])
    assert code == cli.EXIT_DOMAIN
    payload = json.loads(out)
    _validate(payload, "error")
    assert payload["error"] == {
        "type": "ValidationError",
        "reason": f"an integer in the result has more than {sys.get_int_max_str_digits()} digits",
    }


@pytest.mark.parametrize(
    "args,option",
    [
        (["module", "sections", "{p2}", "--degrees", ""], "--degrees"),
        (["sheaf", "xi-check", "{p2}", "--ideal", "Z1", "--window", ";"], "--window"),
    ],
    ids=["sections_degrees", "xi_check_window"],
)
def test_empty_degree_window_is_validation_error(p2, args, option, monkeypatch):
    # The window is checked before any saturation runs.
    def refuse(sub):
        raise AssertionError("saturated before the window was checked")

    monkeypatch.setattr(gradmod, "saturate_submodule", refuse)
    code, out = _run([a.format(p2=p2) for a in args])
    assert code == cli.EXIT_DOMAIN
    payload = json.loads(out)
    _validate(payload, "error")
    assert payload["error"] == {
        "type": "ValidationError",
        "reason": f"{option} needs at least one degree",
    }


def _fresh_modules(code, *args):
    """The modules a fresh interpreter holds after running code."""
    src = str(Path(cli.__file__).resolve().parents[1])
    code += "\nprint(' '.join(sys.modules))"
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    return set(proc.stdout.split())


_MAIN = "import contextlib, io, sys\nfrom coxfan import cli\n" + (
    "with contextlib.redirect_stdout(io.StringIO()):\n    assert cli.main(sys.argv[1:]) == 0"
)


def test_fan_validate_loads_only_its_layers(p2):
    loaded = _fresh_modules(_MAIN, "fan", "validate", p2)
    assert "coxfan.polyfan" in loaded
    assert not loaded & {"coxfan.sheaf", "coxfan.gradmod", "coxfan.groeb", "coxfan.ratlin",
                         "dataclasses"}


def test_cox_build_loads_neither_gradmod_nor_sheaf(p2):
    loaded = _fresh_modules(_MAIN, "cox", "build", p2, "--subgroup", "2")
    assert "coxfan.cox" in loaded
    assert not loaded & {"coxfan.sheaf", "coxfan.gradmod", "coxfan.ratlin"}


# Every name the package exported when it imported all of its layers.
PACKAGE_EXPORTS = """
INFINITE AbelianGroup GroupElement cokernel_presentation
hermite_row_basis smith_normal_form Cone Fan FanInvalid FanProperties
build_fan dual_cone fan_properties hilbert_basis validate_fan GradingData
PicardGroup SubgroupB build_grading classify_subgroup degree_fiber
picard_group subgroup_of_whole_group BaseRingFlags CoxRingData LocalChart
build_cox gamma_is_iso is_positively_graded local_chart strongly_graded_at
GradedModulePresentation GradedSubmodule degree_component free_module
is_torsion quotient_by_monomial_ideal saturate_submodule
submodule_membership ChartSubmoduleFamily
SheafCoverPresentation Unstabilized global_sections_degree is_zero_sheaf
lift_finite_type sheafify xi_forward xi_preimage PropertyReport
scheme_property_report __version__
""".split()


def test_package_names_resolve_on_first_use():
    code = (
        "import sys, coxfan\n"
        "assert not [m for m in sys.modules if m.startswith('coxfan.')]\n"
        "names = sys.argv[1:]\n"
        "assert set(names) <= set(dir(coxfan)), set(names) - set(dir(coxfan))\n"
        "for name in names:\n"
        "    exec(f'from coxfan import {name}')\n"
        "from coxfan import corpus, sheaf\n"
        "assert coxfan.build_fan is coxfan.polyfan.build_fan\n"
        "assert sheaf.sheafify is coxfan.sheafify and corpus.CORPUS_NAMES"
    )
    loaded = _fresh_modules(code, *PACKAGE_EXPORTS)
    assert {"coxfan.sheaf", "coxfan.schemeprops", "coxfan.corpus"} <= loaded


def test_negative_rank_two_degree_list():
    p1xp1 = str(corpus.fixture_path("p1xp1"))
    code, out = _run(["module", "sections", p1xp1, "--degrees", "-1,0;0,1"])
    assert code == 0, out
    dims = json.loads(out)["dimensions"]
    assert {d: v["dimension"] for d, v in dims.items()} == {"-1,0": 0, "0,1": 2}


def test_chart_on_affine_quadric(quadric):
    code, out = _run(["chart", quadric, "--cone", "0,1,2,3"])
    assert code == 0
    payload = json.loads(out)
    assert len(payload["degree_zero_generators"]) == 4


def test_negative_cone_index_is_parse_error(p2):
    code, out = _run(["chart", p2, "--cone", "0,-1"])
    assert code == cli.EXIT_PARSE
    payload = json.loads(out)
    _validate(payload, "error")
    assert "out of range" in payload["error"]["reason"]


def test_unknown_cone_is_domain_error(p2):
    code, out = _run(["chart", p2, "--cone", "0,1,2"])
    assert code == cli.EXIT_DOMAIN
    _validate(json.loads(out), "error")


@pytest.mark.parametrize("spec", ["", " "], ids=["empty", "blank"])
def test_blank_cone_names_the_zero_cone(p2, spec):
    code, out = _run(["chart", p2, "--cone", spec])
    assert code == 0, out
    payload = json.loads(out)
    _validate(payload, "chart")
    # The chart of the zero cone is the torus: its monoid is all of M.
    assert payload["monoid_hilbert_basis"] == [[-1, 0], [0, -1], [0, 1], [1, 0]]


@pytest.mark.parametrize("spec", [",", "0,", " , ", "0;1"])
def test_malformed_cone_list_is_parse_error(p2, spec):
    code, out = _run(["chart", p2, "--cone", spec])
    assert code == cli.EXIT_PARSE, out
    _validate(json.loads(out), "error")


def test_module_json_loader(p2, tmp_path):
    mod = tmp_path / "mod.json"
    mod.write_text(
        json.dumps(
            {
                "generator_degrees": [[0]],
                "relations": [
                    [{"gen": 0, "exponent": [1, 1, 0], "coefficient": 1}]
                ],
            }
        )
    )
    code, out = _run(
        ["module", "torsion", p2, "--module", str(mod)]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["is_torsion"] is False


# In-process fuzzing of cli.main: malformed fans, ideals, degree lists
# and module JSON.  Numbers stay small where they are sizes
# (exponents up to 12 a factor, degrees up to 9, besides one degree past
# the fiber cap): the CLI has no cap yet on exponent size or window
# degree, and a large one is a long computation, not a malformed input.
FUZZ_SECONDS = 5

_SCALARS = st.none() | st.booleans() | st.integers(-2, 3) | st.sampled_from([0.5, "1", "x"])
_JSON = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["rank", "rays", "max_cones", "gen"]), inner, max_size=2),
    max_leaves=6,
)
_P2 = corpus.fan_spec("p2")
# P2 with one field replaced, or any JSON document.
_FANS = st.one_of(
    _JSON,
    st.tuples(st.sampled_from(sorted(_P2)), _SCALARS | _JSON).map(
        lambda fv: {**_P2, fv[0]: fv[1]}
    ),
    st.lists(st.lists(st.integers(-2, 2) | _JSON, max_size=3), max_size=4).map(
        lambda rays: {**_P2, "rays": rays}
    ),
    st.lists(st.lists(st.integers(-1, 3) | _JSON, max_size=3), max_size=4).map(
        lambda cones: {**_P2, "max_cones": cones}
    ),
)
_POWERS = st.sampled_from(["", "^2", "^12", "^0", "^-1", "^", "^x"])
_MONOMIALS = st.lists(
    st.sampled_from(["Z1", "Z2", "Z3", "Z4", "Z0", "Z", "Y1", "1", "", " "]).flatmap(
        lambda var: _POWERS.map(var.__add__)
    ),
    max_size=3,
).map("*".join)
_IDEALS = st.lists(_MONOMIALS, max_size=3).map(",".join)
_COORDS = st.integers(-6, 9).map(str) | st.sampled_from(["99999999", "x", "", "1.5", "--1"])
_DEGREES = st.lists(
    st.lists(_COORDS, min_size=1, max_size=3).map(",".join), max_size=3
).map(";".join)
_TERMS = st.fixed_dictionaries(
    {
        "gen": st.sampled_from([0, 1, -1, True, "0"]),
        "exponent": st.lists(st.integers(0, 3), min_size=3, max_size=3) | _JSON,
        "coefficient": st.sampled_from([1, -1, "1/2", "0", "1/0", "x", 0.5, True]),
    }
) | _JSON
_MODULES = st.fixed_dictionaries(
    {
        "generator_degrees": st.lists(
            st.lists(st.integers(-1, 2), min_size=1, max_size=2), max_size=2
        )
        | _JSON,
        "relations": st.lists(st.lists(_TERMS, max_size=3), max_size=2) | _JSON,
    }
) | _JSON

# Requests as (argv, {file name: JSON document}); "{dir}" is the files'
# directory and "{p2}" the P2 fixture.
_FAN_REQUESTS = st.tuples(
    st.sampled_from(
        [["fan", "validate"], ["fan", "report"], ["grading", "build"], ["pic"], ["cox", "build"]]
    ).map(lambda words: [*words, "{dir}/fan.json"]),
    _FANS.map(lambda doc: {"fan.json": doc}),
)
_OTHER_REQUESTS = st.one_of(
    st.tuples(
        st.sampled_from(
            [["ideal", "saturate"], ["module", "torsion"], ["sheaf", "lift"], ["sheaf", "xi-check"]]
        ).flatmap(lambda words: _IDEALS.map(lambda i: [*words, "{p2}", "--ideal", i])),
        st.just({}),
    ),
    st.tuples(
        st.sampled_from(["via_shift", "via_twist"]).flatmap(
            lambda mode: _DEGREES.map(
                lambda d: ["module", "sections", "{p2}", "--mode", mode, f"--degrees={d}"]
            )
        )
        | _DEGREES.map(lambda d: ["sheaf", "xi-check", "{p2}", "--ideal", "Z1", f"--window={d}"]),
        st.just({}),
    ),
    st.tuples(
        st.sampled_from(
            [["module", "torsion", "{p2}"], ["module", "sections", "{p2}", "--degrees", "0;1;2"]]
        ).map(lambda argv: [*argv, "--module", "{dir}/module.json"]),
        _MODULES.map(lambda doc: {"module.json": doc}),
    ),
)


@contextlib.contextmanager
def _time_limit(seconds):
    def stop(signum, frame):
        raise TimeoutError(f"a call took more than {seconds} s")

    previous = signal.signal(signal.SIGALRM, stop)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _check_request(directory, p2, request):
    """Exit code 0, 1 or 2, stdout that validates against the command's
    schema or the error schema, and no call longer than FUZZ_SECONDS."""
    argv, files = request
    for name, doc in files.items():
        (directory / name).write_text(json.dumps(doc))
    argv = [a.format(dir=directory, p2=p2) for a in argv]
    with _time_limit(FUZZ_SECONDS):
        code, out = _run(argv)
    assert code in (cli.EXIT_OK, cli.EXIT_DOMAIN, cli.EXIT_PARSE), argv
    payload = json.loads(out)
    if code == cli.EXIT_OK:
        _validate(payload, payload["command"].replace(" ", "_").replace("-", "_"))
    else:
        _validate(payload, "error")


_FUZZ = pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs SIGALRM")


@_FUZZ
@seed(20)
@settings(max_examples=100, database=None)
@given(request=_FAN_REQUESTS)
def test_malformed_fans_get_schema_json(fuzz_dir, p2, request):
    _check_request(fuzz_dir, p2, request)


@_FUZZ
@seed(20)
@settings(max_examples=60, database=None)
@given(request=_OTHER_REQUESTS)
def test_malformed_requests_get_schema_json(fuzz_dir, p2, request):
    _check_request(fuzz_dir, p2, request)

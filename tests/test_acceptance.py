"""End-to-end acceptance run: ten checks, one pass/fail line each.

Every numeric expectation is exact (integer/rational arithmetic throughout);
derived constants are recomputed by the independent brute-force oracles in
tests/oracles.py.
"""

import itertools
import random
from fractions import Fraction

import pytest

from coxfan import corpus, grading
from coxfan.cox import (
    BaseRingFlags,
    build_cox,
    is_positively_graded,
    local_chart,
    strongly_graded_at,
)
from coxfan.grading import (
    classify_subgroup,
    picard_group,
    subgroup_of_whole_group,
)
from coxfan.gradmod import (
    GradedSubmodule,
    free_module,
    is_torsion,
    quotient_by_monomial_ideal,
    saturate_submodule,
    submodules_equal,
)
from coxfan.groeb import (
    POT,
    _s_vector,
    m_is_zero,
    m_leading_term,
    m_normal_form,
    module_groebner_basis,
    poly,
)
from coxfan.polyfan import Cone, dual_cone, fan_properties, hilbert_basis
from coxfan.sheaf import (
    eta_component_is_bijective,
    family_equal,
    global_sections_degree,
    is_zero_sheaf,
    sheafify,
    xi_forward,
    xi_preimage,
)

import oracles

FIELD = BaseRingFlags(field=True, noetherian=True, reduced=True)


def _report(name, ok):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, name


def _grading(name):
    return grading.build_grading(corpus.build(name))


def _cox(name, sub=None):
    g = _grading(name)
    b = sub(g) if sub else subgroup_of_whole_group(g)
    return build_cox(g, b, FIELD)


def _elem(e):
    return ({tuple(e): Fraction(1)},)


def _submodule(ring, exps):
    return GradedSubmodule(
        ambient=ring, element_generators=tuple(_elem(e) for e in exps)
    )


@pytest.fixture(scope="module")
def p2():
    c = _cox("p2")
    return c, free_module(c)


def _ideal_family():
    monos = [
        e
        for e in itertools.product(range(3), repeat=3)
        if 1 <= sum(e) <= 2
    ]
    seen, fam = set(), []
    for r in range(1, len(monos) + 1):
        for combo in itertools.combinations(monos, r):
            m = tuple(sorted(oracles.minimalize(combo)))
            if m not in seen:
                seen.add(m)
                fam.append(list(m))
    return fam


def test_criterion_01_grading_pipeline():
    expect = {
        "p2": [(1,), (1,), (1,)],
        "p1xp1": [(1, 0), (1, 0), (0, 1), (0, 1)],
        "p112": [(1,), (2,), (1,)],
    }
    ok = True
    for name, degrees in expect.items():
        g = _grading(name)
        ok &= [d.coords() for d in g.ray_degrees] == degrees
        ok &= not g.class_group.torsion_orders
        diag = oracles.snf_diagonal([list(r) for r in g.delta_basis])
        ok &= [d for d in diag if d > 1] == list(
            g.class_group.torsion_orders
        )
    _report("01 grading-pipeline", ok)


def test_criterion_02_picard_equivalences():
    pinned = {"p2": [(1,)], "p112": [(2,)], "quadric_cone": []}
    ok = True
    for name, gens in pinned.items():
        pic = picard_group(_grading(name))
        ok &= [x.coords() for x in pic.generators] == gens
    for name in corpus.CORPUS_NAMES:
        g = _grading(name)
        pic = picard_group(g)
        b = classify_subgroup(g, list(pic.generators))
        props = fan_properties(g.fan)
        ok &= b.is_big == props.is_simplicial
        ok &= (b.is_big and b.index_in_A == 1) == props.is_regular
    _report("02 picard-equivalences", ok)


def test_criterion_03_section_dimensions(p2):
    c, ring = p2
    A = c.grading.class_group
    ok = True
    for d in range(-2, 5):
        win = global_sections_degree(
            sheafify(ring.shifted(A.from_coords([d]))), A.zero()
        )
        want = oracles.count_monomials_total_degree(3, d)
        ok &= win.certificate == "bound" and win.dimension == want
    _report("03 section-dimensions", ok)


def test_criterion_04_submodule_correspondence(p2):
    c, ring = p2
    A = c.grading.class_group
    window = [A.from_coords([d]) for d in range(4)]
    by = [tuple(1 if i == j else 0 for i in range(3)) for j in range(3)]
    fam = _ideal_family()
    ok = True
    saturated = {}
    for exps in fam:
        sub = _submodule(ring, exps)
        back = xi_preimage(xi_forward(sub), ring, window)
        ok &= submodules_equal(back, saturate_submodule(sub))
        key = tuple(sorted(oracles.saturate_monomial(exps, by)))
        saturated.setdefault(key, exps)
    families = [
        xi_forward(_submodule(ring, exps)) for exps in saturated.values()
    ]
    for i in range(len(families)):
        for j in range(i + 1, len(families)):
            ok &= not family_equal(families[i], families[j])
    _report("04 submodule-correspondence", ok)


def test_criterion_05_torsion_criterion(p2):
    c, ring = p2
    ok = True
    for m in (1, 2, 3):
        powered = [
            tuple(m * x for x in e)
            for e in c.restricted_irrelevant_generators
        ]
        q = quotient_by_monomial_ideal(c, powered)
        ok &= is_torsion(q).is_torsion
        ok &= is_zero_sheaf(sheafify(q))
    # converse on a sample of corpus quotients: zero cover implies torsion
    for exps in ([(1, 0, 0)], [(1, 1, 1)], [(2, 0, 0), (0, 1, 0), (0, 0, 1)]):
        q = quotient_by_monomial_ideal(c, exps)
        if is_zero_sheaf(sheafify(q)):
            ok &= is_torsion(q).is_torsion
        else:
            ok &= not is_torsion(q).is_torsion
    _report("05 torsion-criterion", ok)


def test_criterion_06_comparison_map(p2):
    c, ring = p2
    A = c.grading.class_group
    cover = sheafify(ring)
    ok = all(
        eta_component_is_bijective(cover, A.from_coords([d]))
        for d in range(5)
    )
    for d in range(-2, 3):
        a = global_sections_degree(cover, A.from_coords([d]), mode="via_shift")
        b = global_sections_degree(cover, A.from_coords([d]), mode="via_twist")
        ok &= a.dimension == b.dimension
    _report("06 comparison-map", ok)


def test_criterion_07_positivity():
    ok = True
    for name in ("p2", "p1xp1", "p112"):
        flag, _ = is_positively_graded(_cox(name))
        ok &= flag
    c = _cox("three_rays")
    g = c.grading
    flag, (alpha, plus, minus) = is_positively_graded(c)
    ok &= not flag and not alpha.is_zero()
    ok &= g.a_map(plus) == alpha and g.a_map(minus) == g.class_group.neg(alpha)
    ok &= min(plus) >= 0 and min(minus) >= 0
    _report("07 positivity", ok)


def test_criterion_08_strongly_graded():
    ok = True
    for name in ("p2", "p1xp1", "p112"):
        g = _grading(name)
        pic = picard_group(g)
        b = classify_subgroup(g, list(pic.generators))
        if b.is_small:
            c = build_cox(g, b, FIELD)
            for m in g.fan.maximal:
                ok &= strongly_graded_at(c, m)
    c = _cox("p112")  # B = A, not small here
    failing = [
        sorted(m.ray_generators)
        for m in c.grading.fan.maximal
        if not strongly_graded_at(c, m)
    ]
    ok &= [(-1, -2), (1, 0)] in failing
    _report("08 strongly-graded", ok)


def _random_cone(rng):
    rank = rng.randint(2, 3)
    gens = []
    for _ in range(rng.randint(1, rank + 1)):
        v = tuple(rng.randint(-4, 4) for _ in range(rank))
        if any(v):
            gens.append(v)
    if not gens:
        gens = [(1,) + (0,) * (rank - 1)]
    return rank, gens


def _pointed(rank, gens):
    return not any(
        oracles.in_cone([-x for x in g], gens, rank) for g in gens if any(g)
    )


def test_criterion_09_kernel_invariants():
    rng = random.Random(12345)
    ok = True
    checked = 0
    while checked < 200:
        rank, gens = _random_cone(rng)
        if not _pointed(rank, gens):
            continue
        checked += 1
        dual_gens = dual_cone(Cone.make(rank, gens)).generators
        halfspaces = oracles.cone_halfspaces(gens, rank)
        box = itertools.product(range(-3, 4), repeat=rank)
        for v in box:
            ok &= oracles.in_halfspaces(v, halfspaces) == all(
                sum(a * b for a, b in zip(u, v)) >= 0 for u in dual_gens
            )
        hb = hilbert_basis(gens, rank)
        pts = oracles.cone_lattice_points(gens, rank, 6)
        workspace = oracles.cone_lattice_points(gens, rank, 12)
        ok &= oracles.monoid_generates(pts, hb, workspace=workspace)
        for i, h in enumerate(hb):
            others = [x for j, x in enumerate(hb) if j != i]
            ok &= not oracles.monoid_generates(
                [h], others, workspace=workspace
            )
    rng2 = random.Random(777)
    for _ in range(100):
        nvars = rng2.randint(1, 3)
        gens = []
        for _ in range(rng2.randint(1, 4)):
            terms = {}
            for _ in range(rng2.randint(1, 3)):
                e = tuple(rng2.randint(0, 3) for _ in range(nvars))
                if sum(e) <= 3:
                    terms[e] = Fraction(rng2.randint(-3, 3))
            terms = {k: v for k, v in terms.items() if v}
            if terms:
                gens.append((poly(terms),))
        if not gens:
            continue
        # ideals as rank-1 submodules: every S-vector shares position 0
        gb = module_groebner_basis(gens, POT)
        lts = [m_leading_term(g, POT) for g in gb]
        for i in range(len(gb)):
            for j in range(i + 1, len(gb)):
                s = _s_vector(gb[i], gb[j], lts[i], lts[j])
                ok &= m_is_zero(m_normal_form(s, gb, POT))
    _report("09 kernel-invariants", ok)


def test_criterion_10_subgroup_independence():
    g = _grading("p2")
    whole = build_cox(g, subgroup_of_whole_group(g), FIELD)
    half = build_cox(
        g,
        classify_subgroup(g, [g.class_group.from_coords([2])]),
        FIELD,
    )
    ok = True
    for m in g.fan.cones:
        a = sorted(local_chart(whole, m).degree_zero_generators)
        b = sorted(local_chart(half, m).degree_zero_generators)
        ok &= a == b
    for m in g.fan.maximal:
        key = tuple(sorted(m.ray_generators))
        ok &= half.m_exponents[key] == 2
    _report("10 subgroup-independence", ok)

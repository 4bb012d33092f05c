"""Graded modules: degree components, shifts, saturation, torsion."""

import itertools
import random
from fractions import Fraction

import pytest

from coxfan import corpus, gradmod, grading, polyfan, ratlin
from coxfan.cox import BaseRingFlags, build_cox
from coxfan.gradmod import (
    GradedModulePresentation,
    GradedSubmodule,
    degree_component,
    free_module,
    is_torsion,
    quotient_by_monomial_ideal,
    saturate_submodule,
    submodule_membership,
    submodules_equal,
)
from coxfan.grading import classify_subgroup, subgroup_of_whole_group
from coxfan.groeb import (
    ELIM,
    POT,
    _divides,
    _s_vector,
    m_is_zero,
    m_leading_term,
    m_normal_form,
    m_term_mul,
    module_saturate_element,
)

import oracles


def _deg2_monomial_ideals():
    """All distinct monomial ideals generated in total degrees <= 2 in
    3 variables (94 ideals after dropping redundant generators)."""
    monos = [
        e
        for e in itertools.product(range(3), repeat=3)
        if 1 <= sum(e) <= 2
    ]
    seen = set()
    out = []
    for r in range(1, len(monos) + 1):
        for combo in itertools.combinations(monos, r):
            mins = tuple(sorted(oracles.minimalize(combo)))
            if mins not in seen:
                seen.add(mins)
                out.append(list(mins))
    return out


def _elem(e):
    return ({tuple(e): Fraction(1)},)


def _submodule(ring, exps):
    return GradedSubmodule(
        ambient=ring,
        element_generators=tuple(_elem(e) for e in exps),
    )


def test_ring_degree_components(p2_ring):
    comp = degree_component(p2_ring, p2_ring.cox.grading.class_group.from_coords([1]))
    assert comp.dimension == 3
    comp0 = degree_component(p2_ring, p2_ring.cox.grading.class_group.from_coords([0]))
    assert comp0.dimension == 1
    neg = degree_component(p2_ring, p2_ring.cox.grading.class_group.from_coords([-1]))
    assert neg.dimension == 0


def test_shift_moves_components(p2_ring):
    A = p2_ring.cox.grading.class_group
    shifted = p2_ring.shifted(A.from_coords([1]))
    for d in range(-1, 4):
        a = degree_component(p2_ring, A.from_coords([d + 1])).dimension
        b = degree_component(shifted, A.from_coords([d])).dimension
        assert a == b


def test_components_match_counting_oracle(corpus_gradings):
    weights = {"p2": [1, 1, 1], "p112": [1, 2, 1]}
    for name, w in weights.items():
        g = corpus_gradings[name]
        b = subgroup_of_whole_group(g)
        c = build_cox(g, b, BaseRingFlags(field=True, noetherian=True, reduced=True))
        ring = free_module(c)
        for d in range(5):
            comp = degree_component(ring, g.class_group.from_coords([d]))
            assert comp.dimension == len(
                oracles.monomials_of_weighted_degree(w, d)
            ), (name, d)


def _presentations(c, rng, count):
    """Presentations of rank 1, 2 and 3 in turn on c's fan: generator i
    sits in degree β + deg x^(s_i), with s_0 = 0, the other s_i 0/1
    exponents and β = deg x^t − deg x^t′ for 0/1 exponents t and t′.  The
    relations are one or two generated elements on e_0 alone and on each
    pair (e_0, e_i) (``oracles.random_homogeneous_elements``)."""
    g = c.grading
    A = g.class_group
    rays = g.fan.ray_index

    def bits():
        return tuple(rng.randint(0, 1) for _ in rays)

    for k in range(count):
        rank = k % 3 + 1
        beta = A.add(g.a_map(bits()), A.neg(g.a_map(bits())))
        shifts = [(0,) * len(rays)] + [bits() for _ in range(rank - 1)]
        rels = []
        for i, s in enumerate(shifts):
            for x in oracles.random_homogeneous_elements(rng, rays, rng.randint(1, 2), s if i else None):
                row = [{} for _ in range(rank)]
                for j, p in zip((0, i), x):
                    row[j] = p
                rels.append(tuple(row))
        yield GradedModulePresentation(c, tuple(A.add(beta, g.a_map(s)) for s in shifts), tuple(rels))


@pytest.mark.parametrize("name", oracles.NINE_FANS)
def test_component_counts_match_the_row_rank(name):
    # Generated presentations of rank 1-3 with shifted generator degrees
    # on the nine fans: the count of standard monomials is the fiber's
    # monomials less the rank of the relations' slice, eliminated from
    # scratch, at degrees deg e_0 + deg x^w, and one deg e_0 + deg x^w −
    # deg x^w′.  Where a nonzero monomial has degree 0 (three_rays,
    # quadric_cone) every fiber is infinite, and the count refuses as the
    # fiber does.
    c = _cox_of(name)
    g, A = c.grading, c.grading.class_group
    rays = g.fan.ray_index
    rng = random.Random(name)
    for f in _presentations(c, rng, 9):
        for k in range(4):
            w = tuple(rng.randint(0, 2) for _ in rays)
            w2 = tuple(rng.randint(0, k // 3) for _ in rays)
            alpha = A.add(f.generator_degrees[0], A.add(g.a_map(w), A.neg(g.a_map(w2))))
            if not oracles.finite_fibers(g):
                with pytest.raises(polyfan.UnboundedFiber):
                    degree_component(f, alpha)
                continue
            fiber = gradmod._monomials_of_degree(f, alpha)
            want = oracles.component_dimension_by_rank(fiber, f.relations)
            assert degree_component(f, alpha).dimension == want, (f.relations, alpha)


def test_components_are_counted_without_elimination(p2_cox, monkeypatch):
    # With every ratlin elimination made to raise, components still come
    # out: the complete intersections <Z1^2 - Z2·Z3, Z2^3 - 2·Z3^3>
    # (whose leading terms are coprime, so the relations are their own
    # Groebner basis) and <Z1·Z2 - Z3^2, Z1·Z3 - Z2^2> (whose basis adds a
    # cubic) have the Hilbert functions of degrees (2, 3) and (2, 2), and
    # S/<Z1, Z2, Z3> is Q in degree 0 alone.
    def refuse(*args):
        raise AssertionError("degree components eliminate no rows")

    monkeypatch.setattr(ratlin, "rank", refuse)
    monkeypatch.setattr(ratlin, "echelon", refuse)
    A = p2_cox.grading.class_group
    one = Fraction(1)
    cases = [
        ([{(2, 0, 0): one, (0, 1, 1): -one}, {(0, 3, 0): one, (0, 0, 3): -2 * one}], [1, 3, 5, 6, 6, 6, 6]),
        ([{(1, 1, 0): one, (0, 0, 2): -one}, {(1, 0, 1): one, (0, 2, 0): -one}], [1, 3, 4, 4, 4, 4, 4]),
        ([{(1, 0, 0): one}, {(0, 1, 0): one}, {(0, 0, 1): one}], [1, 0, 0, 0, 0, 0, 0]),
    ]
    for polys, hilbert in cases:
        f = GradedModulePresentation(p2_cox, (A.zero(),), tuple((p,) for p in polys))
        got = [degree_component(f, A.from_coords([d])).dimension for d in range(-1, 7)]
        assert got == [0] + hilbert, polys


def test_membership(p2_ring):
    z1, z2, z3 = _elem((1, 0, 0)), _elem((0, 1, 0)), _elem((0, 0, 1))
    sub = GradedSubmodule(ambient=p2_ring, element_generators=(z1, z2))
    assert submodule_membership(z1, sub)
    assert not submodule_membership(z3, sub)


@pytest.mark.parametrize("exps,var", [
    ([(1, 1, 0), (1, 0, 1)], 0),
    ([(2, 0, 0), (0, 1, 1)], 1),
    ([(1, 0, 0)], 2),
])
def test_saturation_matches_union_of_colons(p2_ring, exps, var):
    sub = _submodule(p2_ring, exps)
    sat = saturate_submodule(sub)
    # each maximal cone of the triangle fan omits one ray, so the
    # complement monomials are the single variables
    by = [
        tuple(1 if i == j else 0 for i in range(3)) for j in range(3)
    ]
    want_exps = oracles.saturate_monomial(exps, by)
    want = _submodule(p2_ring, want_exps)
    assert submodules_equal(sat, want)


def test_saturation_of_already_saturated_pair(p2_ring):
    # <Z1 Z2, Z1 Z3> is already saturated for the standard cone family:
    # its colon by each single-variable generator stabilizes immediately
    exps = [(1, 1, 0), (1, 0, 1)]
    by = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert sorted(oracles.saturate_monomial(exps, by)) == sorted(exps)
    sub = _submodule(p2_ring, exps)
    assert submodules_equal(saturate_submodule(sub), sub)


def test_saturation_idempotent_and_extensive(p2_ring):
    for exps in [[(2, 1, 0)], [(1, 1, 0), (0, 0, 2)], [(1, 0, 0), (0, 1, 0)]]:
        sub = _submodule(p2_ring, exps)
        sat = saturate_submodule(sub)
        for g in sub.element_generators:
            assert submodule_membership(g, sat)
        assert submodules_equal(saturate_submodule(sat), sat)


def test_saturation_fallback_route_agrees(p2_cox):
    # A binomial submodule, so the Groebner route runs, not the monomial
    # one: B*<x, y> in the free module S + S(-1) on P2.  The reference is
    # the intersection over the maximal cones of the iterated-colon
    # saturations by each cone monomial.
    A = p2_cox.grading.class_group
    ring = free_module(p2_cox, [A.from_coords([0]), A.from_coords([1])])
    one = Fraction(1)
    x = ({(1, 1, 0): one, (1, 0, 1): -one}, {(1, 0, 0): one})
    y = ({(0, 0, 2): one}, {(0, 1, 0): one, (0, 0, 1): -one})
    units = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    gens = [m_term_mul(v, e, 1) for v in (x, y) for e in units]
    sat = saturate_submodule(GradedSubmodule(ring, tuple(gens)))
    want = None
    for cone in p2_cox.grading.fan.maximal:
        z = {tuple(p2_cox.zhat[cone.ray_generators]): one}
        part = oracles.module_saturate_element(gens, z, 2, 3, POT, ELIM)
        want = part if want is None else oracles.module_intersection(
            want, part, 3, ELIM
        )
    assert submodules_equal(sat, GradedSubmodule(ring, tuple(want)))
    assert submodules_equal(sat, GradedSubmodule(ring, (x, y)))


def test_family_of_35_ideals(p2_ring):
    ideals = _deg2_monomial_ideals()
    assert len(ideals) == 94
    by = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    for exps in ideals:
        sat = saturate_submodule(_submodule(p2_ring, exps))
        want = _submodule(p2_ring, oracles.saturate_monomial(exps, by))
        assert submodules_equal(sat, want), exps


def test_saturation_on_a_fan_without_cones_is_the_whole_module():
    # With no maximal cone the irrelevant ideal is 0, so every submodule
    # saturates to the ambient free module: the chart intersection of no
    # charts starts from the unit ideal at every position.
    g = grading.build_grading(polyfan.build_fan(2, [], []))
    c = build_cox(g, subgroup_of_whole_group(g))
    ring = free_module(c, [g.class_group.zero()] * 2)
    one = Fraction(1)
    for gens in [(), (({(): one}, {}),), (({(): 2 * one}, {(): 3 * one}),)]:
        sat = saturate_submodule(GradedSubmodule(ring, gens))
        assert sat.element_generators == (({(): one}, {}), ({}, {(): one}))


def test_torsion_of_irrelevant_quotients(p2_cox):
    for m in (1, 2, 3):
        powered = [
            tuple(m * x for x in e)
            for e in p2_cox.restricted_irrelevant_generators
        ]
        q = quotient_by_monomial_ideal(p2_cox, powered)
        cert = is_torsion(q)
        assert cert.is_torsion
        assert max(cert.exponent_table.values()) == m


def test_free_modules_are_not_torsion(p2_ring, p2_cox):
    assert not is_torsion(p2_ring).is_torsion
    A = p2_cox.grading.class_group
    assert not is_torsion(p2_ring.shifted(A.from_coords([1]))).is_torsion


def _random_homogeneous(rng, c, degrees, alpha):
    """Two terms of degree alpha in the free module on the given
    generator degrees, with random nonzero coefficients."""
    g, A = c.grading, c.grading.class_group
    coords = [
        (i, e) for i, d in enumerate(degrees) for e in grading.degree_fiber(g, A.add(alpha, A.neg(d)))
    ]
    x = [{} for _ in degrees]
    for i, e in rng.sample(coords, min(2, len(coords))):
        x[i][e] = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]))
    return tuple(x)


SATURATION_FANS = {
    "p2": lambda: corpus.build("p2"),
    "p1xp1": lambda: corpus.build("p1xp1"),
    "f2": lambda: polyfan.build_fan(2, [(1, 0), (0, 1), (-1, 2), (0, -1)], [[0, 1], [1, 2], [2, 3], [3, 0]]),
}


@pytest.mark.parametrize("name", sorted(SATURATION_FANS))
def test_pruned_saturation_is_the_intersection(name, monkeypatch):
    # Ideals of two binomials take the Groebner route.  The answer spans
    # the submodule that oracles.module_intersection gives from the
    # per-cone saturations (those are checked against the iterated colon
    # in test_groeb), and every pruned intermediate is a reduced Groebner
    # basis: monic, and no term of an element divisible by the leading
    # term of another.
    g = grading.build_grading(SATURATION_FANS[name]())
    c = build_cox(g, subgroup_of_whole_group(g))
    ring = free_module(c)
    pruned = []
    real = gradmod.reduced_basis
    monkeypatch.setattr(gradmod, "reduced_basis", lambda gb: pruned.append(real(gb)) or pruned[-1])
    rng = random.Random(20261104)
    A = g.class_group
    units = [A.from_coords([int(j == k) for j in range(A.free_rank)]) for k in range(A.free_rank)]
    for _ in range(5):
        gens = [_random_homogeneous(rng, c, [A.zero()], rng.choice(units)) for _ in range(2)]
        sat = saturate_submodule(GradedSubmodule(ring, tuple(gens)))
        want = None
        for cone in g.fan.maximal:
            z = {tuple(c.zhat[cone.ray_generators]): Fraction(1)}
            part = module_saturate_element(gens, z, 1, c.num_vars)
            want = part if want is None else oracles.module_intersection(want, part, c.num_vars, ELIM)
        assert submodules_equal(sat, GradedSubmodule(ring, tuple(want)))
    assert pruned
    for gb in pruned:
        lts = [m_leading_term(x, POT) for x in gb]
        for (i, f), (j, h) in itertools.combinations(enumerate(gb), 2):
            if lts[i][0][0] == lts[j][0][0]:
                assert m_is_zero(m_normal_form(_s_vector(f, h, lts[i], lts[j]), gb, POT))
        for i, x in enumerate(gb):
            assert lts[i][1] == 1
            for j, ((q, d), _) in enumerate(lts):
                if j != i:
                    assert not any(_divides(d, e) for e in x[q]), (x, gb[j])


def _cox_of(name):
    if name in oracles.SCALE_FANS:
        rays, max_cones = oracles.SCALE_FANS[name]
        fan = polyfan.build_fan(len(rays[0]), rays, max_cones)
    else:
        fan = corpus.build(name)
    g = grading.build_grading(fan)
    return build_cox(g, subgroup_of_whole_group(g))


@pytest.mark.parametrize("name", list(corpus.CORPUS_NAMES) + sorted(oracles.SCALE_FANS))
def test_saturation_at_every_cone_equals_the_iterated_colon(name):
    # Generated binomial ideals, and rank-2 modules whose second generator
    # sits in the degree of a monomial x^s, saturated at every cone
    # monomial: by one variable at a time where the rays have a positive
    # relation, by Rabinowitsch where they have none (three_rays), and
    # not at all at z = 1 (the zero cone; quadric_cone's one chart).  Each
    # reduced basis is the one of the reference iterated colon.
    c = _cox_of(name)
    g, A = c.grading, c.grading.class_group
    rays = g.fan.ray_index
    rng = random.Random(name)
    shift = tuple(1 - (i % 2) for i in range(len(rays)))
    cases = [
        (free_module(c), oracles.random_homogeneous_elements(rng, rays, 2)),
        (free_module(c, [A.zero(), g.a_map(shift)]), oracles.random_homogeneous_elements(rng, rays, 2, shift)),
    ]
    for z in c.zhat.values():
        for f, gens in cases:
            got = gradmod.saturate_at(GradedSubmodule(f, tuple(gens)), z)
            want = oracles.module_saturate_element(gens, {z: Fraction(1)}, f.rank, c.num_vars, POT, ELIM)
            assert got == gradmod.reduced_basis(gradmod.module_groebner_basis(want)), (z, gens)

"""Chart covers, global sections, and the module/submodule correspondences."""

import functools
import itertools
import math
import random
import time
import types
from fractions import Fraction

import pytest

from coxfan import corpus, cox, gradmod, grading, polyfan, ratlin, sheaf
from coxfan.cox import BaseRingFlags, build_cox
from coxfan.gradmod import (
    GradedModulePresentation,
    GradedSubmodule,
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
    m_term_mul,
    module_contains,
    module_groebner_basis,
    module_intersection,
    module_saturate_element,
    reduced_basis,
)
from coxfan.sheaf import (
    eta_component_is_bijective,
    family_equal,
    global_sections_degree,
    is_zero_sheaf,
    lift_finite_type,
    sheafify,
    xi_forward,
    xi_preimage,
)

import oracles
from oracles import DP6, NINE_FANS, P1_4, P1_CUBED, SCALE_FANS


def _elem(e):
    return ({tuple(e): Fraction(1)},)


def _submodule(ring, exps):
    return GradedSubmodule(
        ambient=ring, element_generators=tuple(_elem(e) for e in exps)
    )


def _alpha(ring, d):
    return ring.cox.grading.class_group.from_coords([d])


def test_structure_cover_is_free(p2_cox, p2_ring):
    cover = sheafify(p2_ring)
    assert not is_zero_sheaf(cover)
    table = gradmod.kill_table(p2_ring)
    assert set(table.values()) == {None}
    zero = _alpha(p2_ring, 0)
    for key in table:
        assert sheaf._laurent_component_generators(p2_cox, zero, key[1]) == ((0, 0, 0),)


def test_irrelevant_quotient_gives_zero_cover(p2_cox, p2_ring):
    q = quotient_by_monomial_ideal(
        p2_cox, p2_cox.restricted_irrelevant_generators
    )
    assert is_zero_sheaf(sheafify(q))
    table = gradmod.kill_table(q)
    assert len(table) == 3 and set(table.values()) == {1}


def test_twist_chart_generators(p2_cox, p2_ring):
    # The generator of O(1) has degree -1, so each chart is spanned by the
    # one Laurent monomial of degree 1 that is >= 0 on the cone's rays.
    for cone in p2_cox.grading.fan.maximal:
        key = cone.ray_generators
        gens = sheaf._laurent_component_generators(p2_cox, _alpha(p2_ring, 1), key)
        assert len(gens) == 1
        (v,) = gens
        assert all(v[p] >= 0 for p in sheaf._sigma_positions(p2_cox, key))


def test_sections_of_twists_match_counting_oracle(p2_ring):
    for d in range(5):
        twisted = p2_ring.shifted(_alpha(p2_ring, d))
        win = global_sections_degree(sheafify(twisted), _alpha(p2_ring, 0))
        assert win.certificate == "bound"
        assert win.dimension == oracles.count_monomials_total_degree(3, d)
    for d in (-1, -2):
        twisted = p2_ring.shifted(_alpha(p2_ring, d))
        win = global_sections_degree(sheafify(twisted), _alpha(p2_ring, 0))
        assert win.certificate == "bound" and win.dimension == 0


def _twisted(s, alpha):
    """The dimension from via_twist's own windows at their level bound.
    The public via_twist reads via_shift's windows instead for a free
    module at a Cartier class (B = Cl), so a test of the twisted windows
    there calls them directly."""
    inv = sheaf._level_invariants(s, alpha, "via_twist")
    return sheaf._common_coordinates(sheaf._chart_windows(s, inv, inv[3]))


def test_shift_and_twist_modes_agree(p2_ring):
    for shift in (0, 1):
        cover = sheafify(p2_ring.shifted(_alpha(p2_ring, shift)))
        for d in range(-2, 3):
            a = global_sections_degree(cover, _alpha(p2_ring, d), mode="via_shift")
            b = global_sections_degree(cover, _alpha(p2_ring, d), mode="via_twist")
            assert a.dimension == b.dimension == _twisted(cover, _alpha(p2_ring, d)), (shift, d)


def test_sections_on_product_fan():
    g = grading.build_grading(corpus.build("p1xp1"))
    c = build_cox(
        g,
        subgroup_of_whole_group(g),
        BaseRingFlags(field=True, noetherian=True, reduced=True),
    )
    ring = free_module(c)
    A = g.class_group
    for a, b in [(0, 0), (1, 0), (1, 1), (2, 1), (-1, 0)]:
        twisted = ring.shifted(A.from_coords([a, b]))
        win = global_sections_degree(sheafify(twisted), A.zero())
        want = 0 if (a < 0 or b < 0) else (a + 1) * (b + 1)
        assert win.certificate == "bound" and win.dimension == want, (a, b)


def test_comparison_map_bijective_in_positive_degrees():
    for name in ("p2", "p1xp1", "p112"):
        c = _cox(name)
        cover = sheafify(free_module(c))
        for ray in (0, 1):
            for d in range(5):
                assert eta_component_is_bijective(cover, _ray_multiple(c.grading, d, ray)), (name, ray, d)


def _quotient_sum(c, ideals):
    """S/I_1 ⊕ ... ⊕ S/I_r for monomial ideals, each generator in degree 0."""
    rank = len(ideals)
    rels = tuple(
        tuple({tuple(e): Fraction(1)} if j == i else {} for j in range(rank))
        for i, ideal in enumerate(ideals)
        for e in ideal
    )
    return GradedModulePresentation(c, (c.grading.class_group.zero(),) * rank, rels)


def test_eta_kernel_decides_where_dimensions_agree(p2_cox, p2_ring):
    # M = S/<Z1,Z2,Z3> ⊕ S/<Z1, Z2·Z3>.  At α = 0 the first summand's
    # generator spans ker η_0, as B kills it, while dim M_0 = h0 = 2: the
    # second summand's sheaf is the structure sheaf of two points.
    irrelevant = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    pair = _quotient_sum(p2_cox, [irrelevant, [(1, 0, 0), (0, 1, 1)]])
    s = sheafify(pair)
    zero = _alpha(p2_ring, 0)
    assert gradmod.degree_component(pair, zero).dimension == 2
    assert global_sections_degree(s, zero).dimension == 2
    assert not eta_component_is_bijective(s, zero)
    for d in (1, 2, 3):
        assert eta_component_is_bijective(s, _alpha(p2_ring, d)), d
    # S/<Z1,Z2,Z3> alone: M_0 = Q, and the sheaf is 0.
    s = sheafify(quotient_by_monomial_ideal(p2_cox, irrelevant))
    got = [eta_component_is_bijective(s, _alpha(p2_ring, d)) for d in range(4)]
    assert got == [False, True, True, True]


def test_eta_asks_its_kernel_before_the_windows(p2_cox, p2_ring, monkeypatch):
    # S/<Z1,Z2,Z3>: at α = 0, dim M_0 = 1 and dim (F/N)_0 = 0, N = S, so
    # η_0 is not injective, and no section window is built; at α = −1
    # and 1 both dimensions are 0, and the sections decide, once each.
    calls = []
    real = sheaf.global_sections_degree
    monkeypatch.setattr(sheaf, "global_sections_degree", lambda *a: calls.append(a) or real(*a))
    s = sheafify(quotient_by_monomial_ideal(p2_cox, [(1, 0, 0), (0, 1, 0), (0, 0, 1)]))
    assert not eta_component_is_bijective(s, _alpha(p2_ring, 0))
    assert calls == []
    assert [eta_component_is_bijective(s, _alpha(p2_ring, d)) for d in (-1, 1)] == [True, True]
    assert len(calls) == 2


def _reference_kernels(f):
    """The maximal cones' localization kernels (R : z_σ^∞), each by
    ``oracles.module_saturate_element``."""
    c = f.cox
    rels = list(f.relations)
    return [
        oracles.module_saturate_element(rels, {z: Fraction(1)}, f.rank, c.num_vars, POT, ELIM)
        for z in (c.zhat[cone.ray_generators] for cone in c.grading.fan.maximal)
    ]


def _eta_reference(f, kernels, alpha):
    """dim M_α and dim ker η_α by the reference engine, for a module whose
    monomials of degree α have every exponent at most max(0, α) (P2 and
    P1xP1 with generators in degrees >= 0): ker η_α is N_α / R_α, N the
    intersection of the kernels, each cut to its degree-α slice, the
    slices met by ``oracles.subspace_intersection``."""
    c = f.cox
    g, A = c.grading, c.grading.class_group
    box = list(itertools.product(range(max(0, *alpha.coords()) + 1), repeat=c.num_vars))
    coords = [
        (i, e) for i, d in enumerate(f.generator_degrees) for e in box
        if A.add(d, g.a_map(e)) == alpha
    ]
    index = {x: k for k, x in enumerate(coords)}

    def slice_rows(gens):
        rows = []
        for x in gens:
            i, e0 = next((i, e) for i, p in enumerate(x) for e in p)
            for m in box:
                if A.add(f.generator_degrees[i], g.a_map(tuple(map(sum, zip(e0, m))))) == alpha:
                    row = [Fraction(0)] * len(coords)
                    for j, p in enumerate(x):
                        for e, v in p.items():
                            row[index[j, tuple(map(sum, zip(e, m)))]] += v
                    rows.append(row)
        red, piv = oracles.rref(rows)
        return red[: len(piv)]

    meet = slice_rows(kernels[0])
    for kernel in kernels[1:]:
        meet = oracles.subspace_intersection(meet, slice_rows(kernel))
    r = len(slice_rows(f.relations))
    return len(coords) - r, len(meet) - r


def _terms(*terms):
    return {e: Fraction(x) for x, e in terms}


_SIX_POINTS = [_terms((1, (2, 0, 0)), (-1, (0, 1, 1))), _terms((1, (0, 3, 0)), (-2, (0, 0, 3)))]

# Binomial relations.  On P2 the six points Z1² = Z2·Z3, Z2³ = 2·Z3³, all
# in the torus; with S(-2)/B beside them (B the irrelevant ideal),
# dim M_2 = h0 = 6 while ker η_2 is the torsion summand's degree-2 part.
# On P1xP1, (Z3 − Z4)·<Z1·Z2, Z3·Z4>: the curve Z3 = Z4 and the four
# torus-fixed points, each on one chart only, so that without any one
# maximal kernel the intersection is too big where η is bijective.
_P2_BOX = [[d] for d in range(-1, 5)]
ETA_BINOMIAL = {
    "p2": ("p2", [[0]], [(p,) for p in _SIX_POINTS], _P2_BOX),
    "p2_with_torsion": (
        "p2", [[0], [2]],
        [(p, {}) for p in _SIX_POINTS]
        + [({}, _terms((1, e))) for e in [(1, 0, 0), (0, 1, 0), (0, 0, 1)]],
        _P2_BOX,
    ),
    "p1xp1": (
        "p1xp1", [[0, 0]],
        [
            (_terms((1, (1, 1, 1, 0)), (-1, (1, 1, 0, 1))),),
            (_terms((1, (0, 0, 2, 1)), (-1, (0, 0, 1, 2))),),
        ],
        [[a, b] for a in range(-1, 3) for b in range(-1, 4)],
    ),
}


@pytest.mark.parametrize("case", sorted(ETA_BINOMIAL))
def test_eta_on_binomial_relations_matches_the_reference_kernel(case):
    name, degrees, rels, box = ETA_BINOMIAL[case]
    c = _cox(name)
    A = c.grading.class_group
    f = GradedModulePresentation(c, tuple(map(A.from_coords, degrees)), tuple(rels))
    s = sheafify(f)
    kernels = _reference_kernels(f)
    verdicts = set()
    for d in box:
        alpha = A.from_coords(d)
        dim, ker = _eta_reference(f, kernels, alpha)
        h0 = global_sections_degree(s, alpha).dimension
        got = eta_component_is_bijective(s, alpha)
        assert got == (ker == 0 and dim == h0), (case, d, dim, ker, h0)
        verdicts.add((got, ker == 0, dim == h0))
    assert (True, True, True) in verdicts
    if case == "p2_with_torsion":
        assert (False, False, True) in verdicts  # the kernel alone decides


def test_xi_forward_of_principal_ideal(p2_ring):
    t = xi_forward(_submodule(p2_ring, [(1, 0, 0)]))
    # on the chart where Z1 is invertible the localized ideal is the unit
    # ideal; on the others the generator Z1 survives
    unit_charts = sum(
        1
        for ch in t.charts.values()
        if any(all(x == 0 for x in e) for _, e in _flat(ch))
    )
    assert unit_charts == 1


def _flat(chart_gens):
    for g in chart_gens:
        for i, p in enumerate(g):
            for e, c in p.items():
                yield i, e


def test_xi_forward_of_irrelevant_ideal_is_unit_family(p2_ring, p2_cox):
    t = xi_forward(
        _submodule(p2_ring, p2_cox.restricted_irrelevant_generators)
    )
    for ch in t.charts.values():
        assert any(all(x == 0 for x in e) for _, e in _flat(ch))


def test_round_trip_equals_saturation(p2_ring):
    A = p2_ring.cox.grading.class_group
    window = [A.from_coords([d]) for d in range(4)]
    for exps in ([(1, 1, 0), (1, 0, 1)], [(2, 0, 0)], [(1, 0, 0), (0, 1, 0)]):
        sub = _submodule(p2_ring, exps)
        back = xi_preimage(xi_forward(sub), p2_ring, window)
        assert submodules_equal(back, saturate_submodule(sub)), exps


def test_distinct_saturated_ideals_have_distinct_families(p2_ring):
    fams = [
        xi_forward(_submodule(p2_ring, exps))
        for exps in ([(1, 0, 0)], [(0, 1, 0)], [(1, 0, 0), (0, 1, 0)])
    ]
    for i in range(len(fams)):
        for j in range(i + 1, len(fams)):
            assert not family_equal(fams[i], fams[j])


def test_lift_finite_type_round_trips(p2_ring):
    for exps in ([(1, 0, 0)], [(1, 1, 0), (1, 0, 1)]):
        t = xi_forward(_submodule(p2_ring, exps))
        lifted = lift_finite_type(t, p2_ring)
        assert family_equal(xi_forward(lifted), t), exps


@pytest.mark.parametrize("power", [9, 20])
def test_lift_of_a_high_power_is_itself(p2_ring, power):
    # The family of <Z1^k> is <Z1^k> on the charts of Z2 and Z3, and the
    # unit on the chart of Z1 needs Z1^k to enter them; a search over at
    # most eight levels refused k = 9.
    t = xi_forward(_submodule(p2_ring, [(power, 0, 0)]))
    lifted = lift_finite_type(t, p2_ring)
    assert lifted.element_generators == _submodule(p2_ring, [(power, 0, 0)]).element_generators
    assert family_equal(xi_forward(lifted), t)


def test_lift_refusal_is_certified(p2_ring):
    # A unit on the chart of Z1 and <Z2> on another: no power of Z1 puts
    # 1 in <Z2>, since (Z2 : Z1^inf) = <Z2>, so the lift refuses at once.
    charts = dict(xi_forward(_submodule(p2_ring, [(0, 0, 0)])).charts)
    zhat = p2_ring.cox.zhat
    assert sorted(zhat[k] for k in charts) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]
    other = next(k for k in charts if zhat[k] == (0, 0, 1))
    charts[other] = (_elem((0, 1, 0)),)
    family = sheaf.ChartSubmoduleFamily(charts)
    with pytest.raises(sheaf.Unstabilized, match="no chart module"):
        lift_finite_type(family, p2_ring)


# The binomial ideals of the correspondence benchmark: (coefficient, exponent)
# terms, None standing for the constant c.
_BINOMIAL_TEMPLATES = [
    ("p2", [[(1, (1, 1, 0)), (None, (0, 0, 2))]]),
    ("p2", [[(1, (2, 0, 0)), (None, (0, 1, 1))], [(1, (1, 1, 0))]]),
    ("p2", [[(1, (1, 1, 0)), (None, (0, 0, 2))], [(1, (1, 0, 1)), (None, (0, 2, 0))]]),
    ("p1xp1", [[(1, (1, 0, 1, 0)), (None, (0, 1, 0, 1))]]),
    ("p1xp1", [[(1, (1, 0, 0, 0)), (None, (0, 1, 0, 0))]]),
    ("p1xp1", [[(1, (1, 0, 1, 0)), (None, (0, 1, 0, 1))], [(1, (1, 0, 0, 1))]]),
]


def test_built_lift_reads_the_meet_off_power_multiples(monkeypatch):
    # A built family whose chart intersection N has every basis element a
    # cone-monomial power multiple of a chart generator lifts to N with no
    # least-power search: the benchmark's binomial ideals, each with a
    # seeded coefficient.  <Z1·Z2, Z3> and <Z1·Z3², Z2·Z4> on P1xP1 lift
    # to less than N and still search; so does a hand-given copy of a built
    # family, which may hold a generator with no power.  Every lift is the
    # one whose result is always a Groebner basis.
    calls = _count_calls(monkeypatch, "_least_power")
    rng = random.Random(20261020)
    for name, template in _BINOMIAL_TEMPLATES:
        f = free_module(_cox(name))
        c = Fraction(rng.choice([-1, -2, -3, 2, "-1/2", "3/2"]))
        gens = tuple(({e: c if x is None else Fraction(x) for x, e in p},) for p in template)
        built = xi_forward(GradedSubmodule(f, gens))
        calls["_least_power"] = 0
        lift = lift_finite_type(built, f)
        assert calls["_least_power"] == 0, template
        assert lift.element_generators == gradmod.chart_intersection(f, built.charts), template
        assert lift.element_generators == oracles.lift_by_groebner(built, f), template
        by_hand = sheaf.ChartSubmoduleFamily(dict(built.charts))
        calls["_least_power"] = 0
        assert lift_finite_type(by_hand, f).element_generators == lift.element_generators, template
        assert calls["_least_power"] > 0, template
    f = free_module(_cox("p1xp1"))
    for exps in ([(1, 1, 0, 0), (0, 0, 1, 0)], [(1, 0, 2, 0), (0, 1, 0, 1)]):
        built = xi_forward(_submodule(f, exps))
        calls["_least_power"] = 0
        lift = lift_finite_type(built, f)
        assert calls["_least_power"] > 0, exps
        assert lift.element_generators != gradmod.chart_intersection(f, built.charts), exps
        assert lift.element_generators == oracles.lift_by_groebner(built, f), exps


@pytest.mark.parametrize("name", ["p2", "p1xp1", "f2", "p2_2cl"])
def test_lift_matches_the_per_chart_reference(name, monkeypatch):
    # Seeded monomial and binomial ideals, each with its own chart family
    # and with one chart taken from the ideal of its first generator: the
    # lift is the chart-by-chart reference element for element, refuses
    # where the reference does, and saturates at most once per cone.  On
    # p2 at B = 2·Cl every m_σ is 2, so the search steps by z_σ^2.
    c = _cox(name)
    f = free_module(c)
    g = c.grading
    saturations = []
    real = sheaf.saturate_at
    monkeypatch.setattr(sheaf, "saturate_at", lambda sub, z: saturations.append(tuple(z)) or real(sub, z))
    rng = random.Random(20261020)
    outcomes = set()
    for k in range(12):
        if k % 2:
            ideal = [{e: Fraction(1)} for e in oracles.random_monomial_ideal(rng, c.num_vars)]
        else:
            ideal = oracles.random_binomial_ideal(rng, c.num_vars, lambda e: g.a_map(e).coords())
        sub = GradedSubmodule(f, tuple((p,) for p in ideal))
        charts = xi_forward(sub).charts
        mixed = dict(charts)
        key = sorted(mixed)[k % len(mixed)]
        mixed[key] = xi_forward(GradedSubmodule(f, sub.element_generators[:1])).charts[key]
        for family in (charts, mixed):
            want = oracles.lift_per_chart(family, c.zhat, c.m_exponents, f.relations, POT, ELIM)
            saturations.clear()
            try:
                got = lift_finite_type(sheaf.ChartSubmoduleFamily(family), f).element_generators
            except sheaf.Unstabilized:
                got = None
            assert got == want, (ideal, key)
            assert len(saturations) == len(set(saturations)), (ideal, key)
            outcomes.add((got is None, bool(saturations)))
    assert {(True, True), (False, True)} <= outcomes


def test_torsion_iff_zero_cover_small_subgroup(p2_cox):
    # B = A is small here, so vanishing chart families detect torsion
    cases = [
        ([(2, 0, 0), (0, 2, 0), (0, 0, 2)], True),
        ([(1, 0, 0)], False),
    ]
    for exps, torsion in cases:
        q = quotient_by_monomial_ideal(p2_cox, exps)
        assert is_torsion(q).is_torsion == torsion
        assert is_zero_sheaf(sheafify(q)) == torsion


def test_zero_sheaf_on_a_singular_chart_without_torsion():
    # On P(1,1,2), S(1)/<Z1, Z3> lives only on the chart of the cone on
    # (1, 0) and (-1, -2), where Z2 of degree 2 is inverted: no power of
    # Z2 kills the generator, yet every Z2^k·e has odd degree, so the
    # degree-0 chart module, and with it the sheaf, is 0.
    c = _cox("p112")
    A = c.grading.class_group
    relations = tuple(_elem(e) for e in [(1, 0, 0), (0, 0, 1)])
    s = sheafify(GradedModulePresentation(c, (A.from_coords([1]),), relations))
    assert is_zero_sheaf(s)
    assert not is_torsion(s.origin).is_torsion
    for d in range(-2, 4):
        assert global_sections_degree(s, A.from_coords([d]), mode="via_twist").dimension == 0


def test_kill_power_is_exact_beyond_sixteen(p2_cox):
    # Z3^17 kills the generator on the chart where Z3 is inverted, and no
    # smaller power does
    q = quotient_by_monomial_ideal(p2_cox, [(0, 0, 17)])
    killed = [(k, i) for (i, _), k in gradmod.kill_table(q).items() if k is not None]
    assert killed == [(17, 0)]
    # S/<Z1^17, Z2^17, Z3^17> is torsion, each cone monomial's 17th power
    # being the least that kills the generator
    q = quotient_by_monomial_ideal(p2_cox, [(17, 0, 0), (0, 17, 0), (0, 0, 17)])
    cert = is_torsion(q)
    assert cert.is_torsion
    assert list(cert.exponent_table.values()) == [17, 17, 17]


@pytest.mark.parametrize("k", [1, 100000])
def test_kill_table_needs_logarithmically_many_tests(p2_cox, monkeypatch, k):
    # Relations Z1^k·e_0 - Z2^k·e_1 and Z2·e_1: Z1^k kills e_0 where Z1 is
    # inverted, and the binomial keeps the search off the exponents.
    # Doubling and bisection test 2·ceil(log2 k) + 1 powers of Z1 at most,
    # one when k = 1; e_0 lies outside the other two kernels, the search's
    # colons, so there only Z2·e_0 and Z3·e_0 are tested before the colon
    # refuses.
    powers = []
    real = gradmod.module_contains

    def counted(gb, x):
        if any(any(e) for e in x[0]):
            powers.append(x)
        return real(gb, x)

    monkeypatch.setattr(gradmod, "module_contains", counted)
    A = p2_cox.grading.class_group
    rels = (({(k, 0, 0): Fraction(1)}, {(0, k, 0): Fraction(-1)}), ({}, {(0, 1, 0): Fraction(1)}))
    table = gradmod.kill_table(GradedModulePresentation(p2_cox, (A.zero(),) * 2, rels))
    by_zhat = {(i, p2_cox.zhat[key]): v for (i, key), v in table.items() if v is not None}
    assert by_zhat == {(0, (1, 0, 0)): k, (1, (0, 1, 0)): 1}
    of_z1 = [x for x in powers if all(e[1:] == (0, 0) for e in x[0])]
    assert 1 <= len(of_z1) <= 2 * math.ceil(math.log2(k)) + 1
    assert sorted(e for x in powers if x not in of_z1 for e in x[0]) == [(0, 0, 1), (0, 1, 0)]


def _z1_power_times_binomial(ring, k):
    return GradedSubmodule(ring, (({(k, 1, 0): Fraction(1), (k, 0, 1): Fraction(-1)},),))


@pytest.mark.parametrize("k", [1, 100000])
def test_lift_needs_logarithmically_many_tests(p2_ring, monkeypatch, k):
    # The generator Z2 - Z3 of the chart of Z1 needs Z1^k to enter
    # <Z1^k·(Z2 - Z3)>, the chart module of Z2 and of Z3.  The search
    # tests 2·ceil(log2 k) + 1 powers of it at most and every chart
    # generator once at j = 0; a family built by xi_forward takes no
    # colon.  Counting up made k + 1 tests.  The chart intersection is
    # built first, so only the search's tests are counted.
    sub = _z1_power_times_binomial(p2_ring, k)
    t = xi_forward(sub)
    gradmod.chart_intersection(p2_ring, t.charts)
    tests = []
    real = gradmod.module_contains

    def counted(gb, x):
        tests.append(x)
        return real(gb, x)

    monkeypatch.setattr(gradmod, "module_contains", counted)
    monkeypatch.setattr(sheaf, "module_contains", counted)
    lifted = lift_finite_type(t, p2_ring)
    assert lifted.element_generators == reduced_basis(module_groebner_basis(sub.element_generators))
    generators = sum(map(len, t.charts.values()))
    assert len(tests) <= 2 * math.ceil(math.log2(k)) + 1 + generators


@pytest.mark.parametrize("k", [1, 17, 100000])
def test_monomial_least_powers_are_read_off_the_exponents(p2_cox, p2_ring, monkeypatch, k):
    # Z1^k kills S/<Z1^k> where Z1 is inverted, and the unit on the chart
    # of Z1 needs Z1^k to enter <Z1^k>: both are read off the exponents,
    # with no membership test of a power.
    powers = []
    real = gradmod.module_contains

    def counted(gb, x):
        if any(any(e) for p in x for e in p):
            powers.append(x)
        return real(gb, x)

    monkeypatch.setattr(gradmod, "module_contains", counted)
    table = gradmod.kill_table(quotient_by_monomial_ideal(p2_cox, [(k, 0, 0)]))
    assert [v for v in table.values() if v is not None] == [k]
    t = xi_forward(_submodule(p2_ring, [(k, 0, 0)]))
    assert lift_finite_type(t, p2_ring).element_generators == _submodule(p2_ring, [(k, 0, 0)]).element_generators
    assert powers == []


def test_lift_of_a_built_family_takes_no_colon(p2_ring, monkeypatch):
    # Z2 - Z3 on the chart of Z1 needs Z1^7.  The family xi_forward built
    # from <Z1^7·(Z2 - Z3)> saturates nothing to lift; the same charts
    # given by hand saturate once, on that chart, for the same lift.
    sub = _z1_power_times_binomial(p2_ring, 7)
    t = xi_forward(sub)
    saturations = []
    real = sheaf.saturate_at
    monkeypatch.setattr(sheaf, "saturate_at", lambda g, z: saturations.append(tuple(z)) or real(g, z))
    lifted = lift_finite_type(t, p2_ring)
    assert saturations == []
    assert lifted.element_generators == reduced_basis(module_groebner_basis(sub.element_generators))
    assert family_equal(xi_forward(lifted), t)
    by_hand = lift_finite_type(sheaf.ChartSubmoduleFamily(dict(t.charts)), p2_ring)
    assert saturations == [(1, 0, 0)]
    assert by_hand == lifted


def test_a_generator_among_the_relations_is_killed_by_the_zeroth_power(p2_cox):
    # Z1·e_0 and Z1·Z3·e_0 - 2·e_1 are relations, so e_1 is one too.
    A = p2_cox.grading.class_group
    rels = (({(1, 0, 0): Fraction(1)}, {}), ({(1, 0, 1): Fraction(1)}, {(0, 0, 0): Fraction(-2)}))
    q = GradedModulePresentation(p2_cox, (A.zero(), A.from_coords([2])), rels)
    table = gradmod.kill_table(q)
    assert [k for (i, _), k in table.items() if i == 1] == [0, 0, 0]
    by_zhat = {p2_cox.zhat[key]: k for (i, key), k in table.items() if i == 0}
    assert by_zhat == {(1, 0, 0): 1, (0, 1, 0): None, (0, 0, 1): None}


def _least_kill_power(rels, i, z, bound):
    """The least k <= bound with z^k e_i in the relation module, by the
    reference Groebner engine, or None."""
    gb = oracles.module_groebner_basis(list(rels), POT)
    for k in range(1, bound + 1):
        x = tuple({tuple(k * a for a in z): Fraction(1)} if j == i else {} for j in range(len(rels[0])))
        if not any(oracles.m_normal_form(x, gb, POT)):
            return k
    return None


@pytest.mark.parametrize("name", ["p2", "p112", "p1xp1", "f2", "p1cubed"])
def test_kill_table_matches_count_up_oracle(name):
    # Random monomial modules of rank 1-2, exponents up to 20: a power of
    # the cone monomial that kills a generator is at most the largest
    # exponent of a relation, so counting up to it decides each entry.
    c = _cox(name)
    n = c.num_vars
    A = c.grading.class_group
    rng = random.Random(20261018)
    for _ in range(12):
        rank = rng.randint(1, 2)
        rels = []
        for _ in range(rng.randint(2, 6)):
            e = [0] * n
            for v in rng.sample(range(n), rng.choice([1, 1, 2])):
                e[v] = rng.randint(1, 20)
            i = rng.randrange(rank)
            rels.append(tuple({tuple(e): Fraction(1)} if j == i else {} for j in range(rank)))
        q = GradedModulePresentation(c, (A.zero(),) * rank, tuple(rels))
        bound = max(x for r in rels for p in r for e in p for x in e)
        table = gradmod.kill_table(q)
        want = {
            (i, key): _least_kill_power(rels, i, c.zhat[key], bound)
            for (i, key) in table
        }
        assert table == want, rels
        assert len(table) == rank * len(c.grading.fan.maximal)
        assert is_torsion(q).is_torsion == (None not in table.values())


def test_rank_two_localization_kernel(p2_cox):
    # S/(Z1) + S(-1)/(Z2): generator 0 dies where Z1 is inverted, generator
    # 1 where Z2 is, and both live on the third chart
    A = p2_cox.grading.class_group
    rels = (({(1, 0, 0): Fraction(1)}, {}), ({}, {(0, 1, 0): Fraction(1)}))
    m = GradedModulePresentation(p2_cox, (A.from_coords([0]), A.from_coords([1])), rels)
    by_zhat = {(i, p2_cox.zhat[key]): k for (i, key), k in gradmod.kill_table(m).items()}
    assert by_zhat == {
        (0, (1, 0, 0)): 1, (0, (0, 1, 0)): None, (0, (0, 0, 1)): None,
        (1, (1, 0, 0)): None, (1, (0, 1, 0)): 1, (1, (0, 0, 1)): None,
    }


def _line_bundle_cover(rays, max_cones):
    fan = polyfan.build_fan(len(rays[0]), rays, max_cones)
    g = grading.build_grading(fan)
    return g, sheafify(free_module(build_cox(g, subgroup_of_whole_group(g))))


def test_sections_on_p1_cubed_match_lattice_points():
    rays, max_cones = P1_CUBED
    g, cover = _line_bundle_cover(rays, max_cones)
    a = (1, 0, 1, 0, 1, 0)
    win = global_sections_degree(cover, g.a_map(a), mode="via_shift")
    assert win.dimension == oracles.polytope_lattice_count(rays, a, 3) == 8


# Rank-4 windows of 10^4 to 10^5 coordinates, whose common ones a free
# module's sections count without elimination.
def test_sections_on_p1_to_the_fourth_match_lattice_points():
    rays, max_cones = P1_4
    g, cover = _line_bundle_cover(rays, max_cones)
    for a, modes, want in (
        ((2, 0) * 4, ("via_shift", "via_twist"), 81),
        ((3, 0) * 4, ("via_shift",), 256),
    ):
        assert oracles.polytope_lattice_count(rays, a, 5) == want
        for mode in modes:
            assert global_sections_degree(cover, g.a_map(a), mode=mode).dimension == want, mode
        if "via_twist" in modes:
            assert _twisted(cover, g.a_map(a)) == want


# Classes of (P1)^4 whose twisted windows refused with FiberTooLarge after
# 4.0 s and 6.5 s, or answered after 10.2 s; via_shift's windows take 0.01 s.
@pytest.mark.parametrize("a", [(-6, -3, 0, 7), (0, -6, -3, 7), (-6, 4, -3, 3)])
def test_twisted_sections_on_p1_to_the_fourth_at_large_classes(a):
    rays, max_cones = P1_4
    g, cover = _line_bundle_cover(rays, max_cones)
    alpha = g.a_map(tuple(x for c in a for x in (c, 0)))
    for mode in ("via_shift", "via_twist"):
        start = time.perf_counter()
        win = global_sections_degree(cover, alpha, mode=mode)
        assert (win.dimension, win.certificate) == (0, "bound"), mode
        assert time.perf_counter() - start < 5, mode


def test_dp6_twist_agrees_with_shift_and_lattice_points():
    rays, max_cones = DP6
    g, cover = _line_bundle_cover(rays, max_cones)
    a = (1, 0, 0, 0, 0, 0)
    dims = {
        mode: global_sections_degree(cover, g.a_map(a), mode=mode).dimension
        for mode in ("via_shift", "via_twist")
    }
    dims["twisted windows"] = _twisted(cover, g.a_map(a))
    assert dims == dict.fromkeys(dims, oracles.polytope_lattice_count(rays, a, 3))


def _cox(name):
    """The ring of a corpus or scale fan at B = Cl, or at B = 2·Cl for a
    name ending in "_2cl" (p2 only: Cl = Z)."""
    fan_name = name.removesuffix("_2cl")
    if fan_name in SCALE_FANS:
        rays, max_cones = SCALE_FANS[fan_name]
        fan = polyfan.build_fan(len(rays[0]), rays, max_cones)
    else:
        fan = corpus.build(fan_name)
    g = grading.build_grading(fan)
    if name != fan_name:
        return build_cox(g, classify_subgroup(g, [g.class_group.from_coords([2])]))
    return build_cox(g, subgroup_of_whole_group(g))


def _ray_multiple(g, d, ray=0):
    """The class of d times the divisor of one ray."""
    return g.a_map(tuple(d * (i == ray) for i in range(g.num_rays)))


def _check_twists(c, alpha, label):
    """The chart twists of one degree on every cone (maximal cones and
    faces): the same minimal cone parts as the two-box reference search;
    on a full-dimensional cone v is unique, so the vectors are the
    reference's too, and on the other faces each is the least
    (max |v_i|, v) of its part, by brute force up to its own max |v_i|."""
    g = c.grading
    rays = g.delta_basis
    v0 = g.a_map.lift(alpha)
    for key in c.zhat:
        pos = sheaf._sigma_positions(c, key)
        ref = oracles.laurent_generators(rays, v0, pos, 6)
        got = sheaf._laurent_component_generators(c, alpha, key)
        assert ref is not None
        assert [tuple(v[p] for p in pos) for v in got] == sorted(ref), (key, label)
        if len(oracles.rref(key)[1]) == len(rays[0]):
            assert got == tuple(ref[p] for p in sorted(ref)), (key, label)
        else:
            for v in got:
                part = [v[p] for p in pos]
                least = oracles.least_in_part(rays, v, pos, part, max(map(abs, v)))
                assert least == v, (key, label)


@pytest.mark.parametrize("name", list(corpus.CORPUS_NAMES) + list(SCALE_FANS))
def test_chart_twists_match_two_box_reference(name):
    c = _cox(name)
    for d in range(6 if name == "quadric_cone" else 4):
        _check_twists(c, _ray_multiple(c.grading, d), d)


def test_face_twist_is_the_least_in_its_part():
    # The search box |u_j| <= 6 of the two-box search missed this one: it
    # kept (4, -2, -3, 0, 2, 3), whose max |v_i| is also 4.
    c = _cox("dp6")
    alpha = c.grading.a_map((2, -1, 0, 2, 1, 0))
    got = sheaf._laurent_component_generators(c, alpha, ((-1, 0),))
    assert got == ((4, -3, -4, 0, 3, 4),)
    _check_twists(c, alpha, (2, -1, 0, 2, 1, 0))


def test_part_lattice_at_the_zero_cone(corpus_gradings):
    # No steps and no bounds: the whole degree-0 lattice is kernel, and
    # the empty box holds one point.
    for g in corpus_gradings.values():
        lattice = grading._degree_zero_lattice(g.delta_basis)
        assert cox._part_lattice(lattice, ()) == ([], list(lattice), (), 1)
    p2 = grading._degree_zero_lattice(corpus_gradings["p2"].delta_basis)
    assert cox._part_lattice(p2, ()) == ([], [(1, 0, -1), (0, 1, -1)], (), 1)


@pytest.mark.parametrize("d", [1, 3, 5])
def test_simplicial_part_bound_is_reached(d):
    # The cone of P(1,1,2) on the rays (1, 0) and (-1, -2) has index 2: its
    # rays span a sublattice L of exponent e = 2 in Z^2.  At odd degree the
    # parts are the coset of (1, 0) mod L, and both minimal ones have an
    # entry e - 1, so a bound below [0, e) loses them.
    c = _cox("p112")
    key = ((1, 0), (-1, -2))
    assert sorted(oracles.snf_diagonal([list(r) for r in key])) == [1, 2]
    pos = sheaf._sigma_positions(c, key)
    got = sheaf._laurent_component_generators(c, _ray_multiple(c.grading, d), key)
    assert sorted(tuple(v[p] for p in pos) for v in got) == [(0, 1), (1, 0)]


def _pointed_polyhedra(count, ranks=(1, 2, 3)):
    """Seeded (B, v0) with B of r independent columns, r in ranks, and
    r+1 … r+3 rows, and P = {y : v0 + B·y >= 0} not empty."""
    rng = random.Random(20261020)
    out = []
    while len(out) < count:
        r = rng.choice(ranks)
        b = [tuple(rng.randint(-3, 3) for _ in range(r)) for _ in range(r + rng.randint(1, 3))]
        v0 = [rng.randint(-4, 4) for _ in b]
        if oracles.row_rank(b) == r and oracles.polyhedron_vertices(b, v0):
            out.append((b, v0))
    return out


def test_nonsimplicial_part_bounds_match_the_vertex_reference():
    # Non-extreme recession rays would only widen the bound: the sweep's
    # Fourier–Motzkin rays include some (the reference removes them).
    for b, v0 in _pointed_polyhedra(300):
        assert cox._nonsimplicial_part_bounds(b, v0) == oracles.part_bounds(b, v0), (b, v0)


def test_nonsimplicial_part_bounds_at_the_rank_cap():
    # A full-dimensional cone of a rank-6 fan has r = 6, and the
    # homogenization of P works one rank higher, above the fan rank cap.
    for b, v0 in _pointed_polyhedra(8, ranks=(polyfan.RANK_CAP,)):
        assert cox._nonsimplicial_part_bounds(b, v0) == oracles.part_bounds(b, v0), (b, v0)


# The fan over the faces of a square pyramid, times P^3: rank 6, and each
# maximal cone on the pyramid's base is full-dimensional with 7 rays.
_PYRAMID_RAYS = [(0, 0, 1), (1, 1, -1), (1, -1, -1), (-1, 1, -1), (-1, -1, -1)]
_PYRAMID_CONES = [[1, 2, 3, 4], [0, 1, 2], [0, 2, 4], [0, 4, 3], [0, 3, 1]]
PYRAMID_TIMES_P3 = (
    [r + (0, 0, 0) for r in _PYRAMID_RAYS] + [(0, 0, 0) + r for r in oracles.P3[0]],
    [a + [5 + j for j in b] for a in _PYRAMID_CONES for b in oracles.P3[1]],
)


@pytest.mark.parametrize("a", [(0,) * 5 + (1, 0, 0, 0), (1,) + (0,) * 8])
def test_sections_on_a_rank_six_nonsimplicial_fan(a):
    rays, max_cones = PYRAMID_TIMES_P3
    g, cover = _line_bundle_cover(rays, max_cones)
    dims = {
        mode: global_sections_degree(cover, g.a_map(a), mode=mode).dimension
        for mode in ("via_shift", "via_twist")
    }
    dims["twisted windows"] = _twisted(cover, g.a_map(a))
    assert dims == dict.fromkeys(dims, oracles.polytope_lattice_count(rays, a, 2))


def test_sections_on_a_rank_six_nonsimplicial_fan_at_a_cartier_class():
    # The twisted windows of this class pass FIBER_POINT_CAP and refuse.
    rays, max_cones = PYRAMID_TIMES_P3
    g, cover = _line_bundle_cover(rays, max_cones)
    a = (2, 0, 0, 0, 0, 1, 0, 0, 0)
    assert grading.is_cartier(g, g.a_map(a))
    for mode in ("via_shift", "via_twist"):
        win = global_sections_degree(cover, g.a_map(a), mode=mode)
        assert (win.dimension, win.level, win.certificate) == (76, 1, "bound"), mode


@pytest.mark.parametrize("name", ["p2", "p3", "f2", "dp6"])
def test_twist_overlaps_need_no_more_level_than_the_degree(name):
    # A face twist on the edge of the search box (the lexicographically
    # least one, say) needs a slack of 6 to 12 here.
    c = _cox(name)
    s = sheafify(free_module(c))
    for d in range(4):
        alpha = _ray_multiple(c.grading, d)
        inv = sheaf._level_invariants(s, alpha, "via_twist")
        plan = sheaf._overlap_plan(s, alpha, "via_twist", inv)
        assert max(slack for *_, slack in plan) <= d, d


def _rays(name):
    return SCALE_FANS[name][0] if name in SCALE_FANS else corpus.fan_spec(name)["rays"]


@pytest.mark.parametrize(
    "name,a",
    [
        ("p2", (2, 0, 0)),
        ("p3", (2, 0, 0, 0)),
        ("f2", (0, 0, 0, 1)),
        ("dp6", (1, 1, 1, 1, 0, 0)),
        ("dp6", (0, 0, 0, 1, 1, 0)),
        ("p1cubed", (1, 0, 1, 0, 1, 0)),
    ],
)
def test_both_modes_count_lattice_points(name, a):
    c = _cox(name)
    s = sheafify(free_module(c))
    want = oracles.polytope_lattice_count(_rays(name), a, 4)
    for mode in ("via_shift", "via_twist"):
        assert global_sections_degree(s, c.grading.a_map(a), mode=mode).dimension == want, mode
    assert _twisted(s, c.grading.a_map(a)) == want



# The cases where levels 1 and 2 of via_twist both give 0, with the level
# bound L: the first level whose windows hold every section.
@pytest.mark.parametrize(
    "name,a,bound",
    [
        ("p2", (4, 0, 0), 4),
        ("p2", (5, 0, 0), 5),
        ("p3", (3, 0, 0, 0), 3),
        ("p112", (6, 0, 0), 6),
        ("f2", (0, 0, 0, 3), 6),
        ("dp6", (3, 0, 0, 0, 0, 0), 3),
    ],
)
def test_free_sections_at_the_level_bound(name, a, bound):
    c = _cox(name)
    s = sheafify(free_module(c))
    alpha = c.grading.a_map(a)
    want = oracles.polytope_lattice_count(_rays(name), a, 12)
    # Every class here is Cartier, so the public via_twist reads via_shift's
    # level-1 windows.
    for mode in ("via_shift", "via_twist"):
        win = global_sections_degree(s, alpha, mode=mode)
        assert (win.dimension, win.level, win.certificate) == (want, 1, "bound"), mode
    # The twisted windows hold every section at the bound, and one level
    # lower some section is still missing.
    inv = sheaf._level_invariants(s, alpha, "via_twist")
    assert inv[3] == bound
    assert sheaf._common_coordinates(sheaf._chart_windows(s, inv, bound)) == want
    assert sheaf._common_coordinates(sheaf._chart_windows(s, inv, bound - 1)) < want


@pytest.mark.parametrize(
    "degrees,d,want",
    [((1,), 1, {"via_twist": 0, "via_shift": 1}), ((0, 1), 3, {"via_twist": 9, "via_shift": 10})],
    ids=["S(-1) at 1", "S+S(-1) at 3"],
)
def test_twist_keeps_its_windows_off_pic(degrees, d, want):
    # Pic of P(1,1,2) is 2·Cl: at an odd class O(α) is no line bundle, and
    # S(−1)~ ⊗ O(α) is not O(α − 1).
    c = _cox("p112")
    A = c.grading.class_group
    s = sheafify(free_module(c, [A.from_coords([x]) for x in degrees]))
    alpha = A.from_coords([d])
    assert not grading.is_cartier(c.grading, alpha)
    got = {mode: global_sections_degree(s, alpha, mode=mode).dimension for mode in want}
    assert got == want


def test_twist_keeps_its_windows_with_relations(p2_cox):
    # S/<Z1, Z2·Z3> is two points of P2: via_twist's windows count them at
    # α = −4, where via_shift's heuristic level still prints 0, so routing
    # a module with relations would copy that wrong number.
    s = sheafify(quotient_by_monomial_ideal(p2_cox, [(1, 0, 0), (0, 1, 1)]))
    alpha = p2_cox.grading.class_group.from_coords([-4])
    got = {mode: global_sections_degree(s, alpha, mode=mode).dimension for mode in ("via_twist", "via_shift")}
    assert got == {"via_twist": 2, "via_shift": 0}


@pytest.mark.parametrize("name", ["p2", "p1xp1", "f2", "p3", "dp6", "p112"])
def test_twisted_windows_at_cartier_classes_equal_shift_and_lattice_points(name):
    # Seeded free modules ⊕ S(−d_i) of rank 1–3 at Cartier classes α (the
    # even ones on P(1,1,2)): h0 = Σ #(P_(α−d_i) ∩ M) by every route.
    c = _cox(name)
    g = c.grading
    rays = g.delta_basis
    cones = [g.fan.cone_ray_indices(k) for k in g.fan.maximal]
    rng = random.Random(f"cartier {name}")
    wants = []
    while len(wants) < 8:
        a = [rng.randint(-1, 2) for _ in rays]
        if not oracles.divisor_is_cartier(rays, cones, a):
            continue
        shifts = [[rng.randint(0, 1) for _ in rays] for _ in range(rng.randint(1, 3))]
        s = sheafify(free_module(c, [g.a_map(tuple(d)) for d in shifts]))
        alpha = g.a_map(tuple(a))
        want = sum(oracles.polytope_lattice_count(rays, [x - y for x, y in zip(a, d)], 8) for d in shifts)
        assert _twisted(s, alpha) == want, (a, shifts)
        for mode in ("via_shift", "via_twist"):
            win = global_sections_degree(s, alpha, mode=mode)
            assert (win.dimension, win.level) == (want, 1), (a, shifts, mode)
        wants.append(want)
    assert any(wants)


def _count_and_equalizer(s, alpha, mode, inv, level):
    """A free module's section count at one level (the coordinates its
    windows share) and the rows-and-rank equalizer of the same windows."""
    windows = sheaf._chart_windows(s, inv, level)
    plan = sheaf._overlap_plan(s, alpha, mode, inv)
    return sheaf._common_coordinates(windows), sheaf._equalizer(s, inv, plan, windows)


@pytest.mark.parametrize("name", ["p2", "p1xp1", "p112", "p3", "f2", "dp6", "p1cubed"])
def test_free_sections_are_the_common_coordinates(name):
    # Seeded free modules ⊕ S(−d_i) of rank 1–3 at classes α with entries
    # −1 … 2: at the level bound L both modes' windows share exactly the
    # Σ #(P_(α−d_i) ∩ M) sections that the equalizer counts, and one level
    # lower, where some window still misses a section, the two agree too.
    # On P(1,1,2) half the classes are not Cartier; the twisted windows
    # are called directly there, with every d_i Cartier, so that
    # S(−d_i)~ ⊗ O(α) ≅ O(α − d_i).
    c = _cox(name)
    g = c.grading
    rays = g.delta_basis
    cones = [g.fan.cone_ray_indices(k) for k in g.fan.maximal]
    rng = random.Random(f"common {name}")
    below = []
    cartier = []
    for _ in range(6):
        a = [rng.randint(-1, 2) for _ in rays]
        shifts = [[rng.randint(0, 1) for _ in rays] for _ in range(rng.randint(1, 3))]
        cartier.append(oracles.divisor_is_cartier(rays, cones, a))
        if not cartier[-1]:
            shifts = [d if oracles.divisor_is_cartier(rays, cones, d) else [0] * len(rays) for d in shifts]
        s = sheafify(free_module(c, [g.a_map(tuple(d)) for d in shifts]))
        alpha = g.a_map(tuple(a))
        want = sum(oracles.polytope_lattice_count(rays, [x - y for x, y in zip(a, d)], 8) for d in shifts)
        for mode in ("via_shift", "via_twist"):
            inv = sheaf._level_invariants(s, alpha, mode)
            level = inv[3]
            assert _count_and_equalizer(s, alpha, mode, inv, level) == (want, want), (a, shifts, mode)
            if level > 1:
                count, eq = _count_and_equalizer(s, alpha, mode, inv, level - 1)
                assert count == eq, (a, shifts, mode)
                below.append(count < want)
    assert any(below)
    assert name != "p112" or not all(cartier)
    # With no generator no window is live, and there is no section.
    s = sheafify(free_module(c, []))
    zero = g.class_group.zero()
    inv = sheaf._level_invariants(s, zero, "via_shift")
    assert _count_and_equalizer(s, zero, "via_shift", inv, 1) == (0, 0)


# Degrees whose Laurent generators lie outside the box |u_j| <= 8 that a
# box search walked; it refused them with Unstabilized.
@pytest.mark.parametrize("name,a", [("p3", (8, 0, 0, 0)), ("p112", (9, 0, 0))])
def test_sections_past_the_former_generator_box(name, a):
    c = _cox(name)
    s = sheafify(free_module(c))
    want = oracles.polytope_lattice_count(_rays(name), a, 12)
    for mode in ("via_shift", "via_twist"):
        win = global_sections_degree(s, c.grading.a_map(a), mode=mode)
        assert (win.dimension, win.certificate) == (want, "bound"), mode
    assert _twisted(s, c.grading.a_map(a)) == want


P6 = (
    [tuple(int(i == j) for j in range(6)) for i in range(6)] + [(-1,) * 6],
    [[j for j in range(7) if j != i] for i in range(7)],
)


@pytest.mark.parametrize(
    "rays,max_cones,a,want",
    [(*P6, (1,) + (0,) * 6, 7), (*P1_CUBED, (1, 0, 1, 0, 1, 0), 8)],
    ids=["p6", "p1cubed"],
)
def test_twist_sections_take_no_box_walk(rays, max_cones, a, want):
    # A walk over the box |u_j| <= 8 visits 9^6 = 531,441 points on each
    # maximal cone of P^6.
    start = time.perf_counter()
    g, cover = _line_bundle_cover(rays, max_cones)
    win = global_sections_degree(cover, g.a_map(a), mode="via_twist")
    assert (win.dimension, win.certificate) == (want, "bound")
    assert _twisted(cover, g.a_map(a)) == want
    assert time.perf_counter() - start < 5


def test_free_module_is_evaluated_at_one_level(monkeypatch):
    c = _cox("p2")
    calls = []
    real = sheaf._chart_windows

    def counted(*args):
        calls.append(args[2])
        return real(*args)

    monkeypatch.setattr(sheaf, "_chart_windows", counted)
    s = sheafify(free_module(c))
    for mode in ("via_shift", "via_twist"):
        for d in (-1, 0, 3):
            calls.clear()
            global_sections_degree(s, _ray_multiple(c.grading, d), mode=mode)
            assert len(calls) == 1, (mode, d)
    # With relations the level is a heuristic: two equal levels, from L on.
    q = sheafify(quotient_by_monomial_ideal(c, [(1, 0, 0)]))
    calls.clear()
    win = global_sections_degree(q, _ray_multiple(c.grading, 3), mode="via_twist")
    assert win.certificate == "heuristic" and calls[0] == 3 and len(calls) >= 2
    assert win.dimension == 4


def _count_calls(monkeypatch, *names):
    """Count the calls of the named sheaf functions, by name."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, name=name, real=getattr(sheaf, name)):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(sheaf, name, counted)
    return calls


def test_free_module_sections_read_no_overlap(monkeypatch):
    # A free module reads its maximal charts only: on P(1,1,2) at the class
    # 3, not Cartier, via_twist takes the Laurent generators of its three
    # maximal cones and of none of their three overlaps.
    c = _cox("p112")
    s = sheafify(free_module(c))
    calls = _count_calls(monkeypatch, "_laurent_component_generators", "_cover_twist")
    alpha = c.grading.class_group.from_coords([3])
    assert not grading.is_cartier(c.grading, alpha)
    global_sections_degree(s, alpha, mode="via_twist")
    assert calls["_laurent_component_generators"] == 3
    # No free-module call, in either mode, reaches the overlaps' level slack.
    for name in ("p2", "p112", "f2"):
        c = _cox(name)
        s = sheafify(free_module(c, [_ray_multiple(c.grading, 1)]))
        for mode in ("via_shift", "via_twist"):
            for d in range(-1, 4):
                global_sections_degree(s, _ray_multiple(c.grading, d), mode=mode)
    assert calls["_cover_twist"] == 0


def test_overlap_plan_is_built_once_per_call(p2_cox, monkeypatch):
    # S/<Z1> on p2 at 3 under via_twist: the heuristic evaluates two or
    # more levels, all over one overlap plan, whose slack is computed.
    s = sheafify(quotient_by_monomial_ideal(p2_cox, [(1, 0, 0)]))
    calls = _count_calls(monkeypatch, "_overlap_plan", "_chart_windows", "_cover_twist")
    win = global_sections_degree(s, _ray_multiple(p2_cox.grading, 3), mode="via_twist")
    assert win.certificate == "heuristic" and win.dimension == 4
    assert calls["_overlap_plan"] == 1 and calls["_chart_windows"] >= 2
    assert calls["_cover_twist"] > 0


def test_killed_chart_builds_no_window(monkeypatch):
    # S/<Z1> on P(1,1,2) dies on the chart where Z1 is inverted.  Its
    # window and its overlaps' windows are all subspace (one overlap window
    # has 169 coordinates at 6·D_0), so none of them is built.
    c = _cox("p112")
    s = sheafify(quotient_by_monomial_ideal(c, [(1, 0, 0)]))
    (dead,) = [key for (_, key), k in gradmod.kill_table(s.origin).items() if k is not None]
    built = []

    class Counted(sheaf._Window):
        def __init__(self, s, key, *rest):
            built.append(key)
            super().__init__(s, key, *rest)

    monkeypatch.setattr(sheaf, "_Window", Counted)
    win = global_sections_degree(s, _ray_multiple(c.grading, 6), mode="via_twist")
    assert (win.dimension, win.level, win.certificate) == (4, 7, "heuristic")
    assert built and not any(set(key) <= set(dead) for key in built)
    assert len(set(built)) == 3  # the two live charts and their overlap


@pytest.mark.parametrize("ideal", [None, [(1, 0, 0), (0, 1, 1)]], ids=["free", "Z1,Z2Z3"])
def test_covers_of_one_module_stay_equal_after_sections(p2_cox, ideal):
    f = free_module(p2_cox) if ideal is None else quotient_by_monomial_ideal(p2_cox, ideal)
    a, b = sheafify(f), sheafify(f)
    for mode in ("via_shift", "via_twist"):
        global_sections_degree(a, _alpha(f, 2), mode=mode)
    assert a == b


def _check_windows(monkeypatch, checked):
    """Make every window built check itself against the block reference,
    which quotients each twist's block by all fiber multiples of the
    kernel, and append whether it had several twists and a kernel."""

    class Checked(sheaf._Window):
        def __init__(self, s, key, degree, twists, level):
            super().__init__(s, key, degree, twists, level)
            f = s.origin
            g = f.cox.grading
            target = g.class_group.add(degree, g.a_map(tuple(level * x for x in f.cox.zhat[key])))
            base = gradmod._monomials_of_degree(f, target)
            index = {m: k for k, m in enumerate(base)}
            kernel = gradmod.graded_elements(f, s.kernels[key])
            rows = oracles.component_span_rows(f, kernel, target, index)
            want = oracles.window_quotient_dimension(base, rows, twists)
            assert len(self.index) - len(self.rows) == want, (key, degree, level)
            checked.append(len(twists) > 1 and bool(rows))

    monkeypatch.setattr(sheaf, "_Window", Checked)


@pytest.mark.parametrize("ideal", [[(1, 0, 0)], [(1, 1, 0), (0, 0, 1)]], ids=["Z1", "Z1Z2,Z3"])
def test_windows_match_the_block_reference(monkeypatch, ideal):
    # At odd degrees the cone of P(1,1,2) on (1, 0) and (-1, -2) has two
    # twists, and for these modules a localization kernel.
    c = _cox("p112")
    s = sheafify(quotient_by_monomial_ideal(c, ideal))
    checked = []
    _check_windows(monkeypatch, checked)
    for d in range(-3, 7):
        global_sections_degree(s, _ray_multiple(c.grading, d), mode="via_twist")
    assert any(checked)


@pytest.mark.parametrize("name", ["p2", "p1xp1", "p112", "f2", "dp6", "p3"])
def test_windows_of_generated_relations_match_the_block_reference(monkeypatch, name):
    # Generated binomial ideals and rank-2 modules, in both modes, at
    # classes with entries -1..2: a window's subspace rows, read off a
    # Groebner basis of its twisted kernel, span what every fiber multiple
    # of the kernel spans.  At the odd classes of P(1,1,2) a window has two
    # twists and a binomial kernel, whose two shifted bases together need
    # not be a Groebner basis.
    c = _cox(name)
    A = c.grading.class_group
    rng = random.Random(28)
    modules = list(_generated_modules(c, rng, 4))
    boxes = list(itertools.product(range(-1, 3), repeat=len(A.zero().coords())))
    alphas = [A.from_coords(t) for t in rng.sample(boxes, min(4, len(boxes)))]
    checked = []
    _check_windows(monkeypatch, checked)
    for f, gens in modules:
        s = sheafify(GradedModulePresentation(c, f.generator_degrees, tuple(gens)))
        for alpha in alphas:
            for mode in ("via_shift", "via_twist"):
                global_sections_degree(s, alpha, mode=mode)
    assert checked
    assert any(checked) == (name == "p112")


_ROW3 = [{(2, 0, 0): 1, (0, 1, 1): -1}, {(0, 3, 0): 1, (0, 0, 3): -2}]
_ROW_CASES = [
    ("p2", _ROW3, 4, "via_shift"),
    ("p2", _ROW3, 4, "via_twist"),
    ("p112", [{(2, 0, 0): 1, (0, 1, 0): -1}, {(0, 0, 2): 1, (0, 1, 0): -3}], 5, "via_twist"),
]


def _sections_of_ideals(cases):
    for name, ideal, d, mode in cases:
        c = _cox(name)
        rels = tuple(({e: Fraction(x) for e, x in p.items()},) for p in ideal)
        s = sheafify(GradedModulePresentation(c, (c.grading.class_group.zero(),), rels))
        global_sections_degree(s, _ray_multiple(c.grading, d), mode=mode)


def test_window_rows_are_independent(monkeypatch):
    # A window makes one row per leading monomial of its twisted kernel's
    # Groebner basis, so its rows number their rank.  Every fiber multiple
    # of the kernel gave row 3 of ROADMAP item 3 at α = 4 16 rows for 15
    # pivots.
    sizes = []

    class Checked(sheaf._Window):
        def __init__(self, *args):
            super().__init__(*args)
            assert ratlin.rank(list(self.rows.values())) == len(self.rows)
            sizes.append(len(self.rows))

    monkeypatch.setattr(sheaf, "_Window", Checked)
    _sections_of_ideals(_ROW_CASES)
    assert any(sizes)


def test_only_overlap_windows_eliminate(monkeypatch):
    # A maximal window's quotient is its coordinates with no row, so only
    # the overlap windows reach ratlin.echelon, each distinct one once.
    calls = []
    built = []

    def echelon(rows):
        calls.append(list(rows))
        return ratlin.echelon(rows)

    class Recorded(sheaf._Window):
        def __init__(self, s, key, *rest):
            super().__init__(s, key, *rest)
            built.append((key in s.maximal, list(self.rows.values())))

    monkeypatch.setattr(sheaf, "ratlin", types.SimpleNamespace(echelon=echelon, rank=ratlin.rank))
    monkeypatch.setattr(sheaf, "_Window", Recorded)
    _sections_of_ideals(_ROW_CASES)
    overlaps = [rows for maximal, rows in built if not maximal]
    assert overlaps and len(overlaps) < len(built) and any(overlaps)
    assert calls == overlaps


def _lex_window(c, top):
    """Every degree from 0 up to top, coordinatewise, in increasing
    lexicographic order: each degree after all the degrees below it."""
    A = c.grading.class_group
    return [A.from_coords(list(d)) for d in itertools.product(*(range(t + 1) for t in top))]


def _monomials(sub):
    return sorted(e for x in sub.element_generators for p in x for e in p)


PREIMAGE_CASES = {
    "p2 binomial": ("p2", [{(1, 1, 0): 1, (0, 0, 2): -1}, {(1, 0, 1): 1, (0, 2, 0): -2}], (3,)),
    "p1xp1 monomial": ("p1xp1", [{(1, 0, 2, 0): 1}, {(0, 1, 0, 1): 1}], (2, 3)),
}


def _preimage_case(label):
    name, ideal, top = PREIMAGE_CASES[label]
    c = _cox(name)
    f = free_module(c)
    sub = GradedSubmodule(f, tuple(({e: Fraction(x) for e, x in p.items()},) for p in ideal))
    return f, sub, xi_forward(sub), _lex_window(c, top)


@pytest.mark.parametrize("label", sorted(PREIMAGE_CASES))
def test_preimage_builds_a_basis_only_off_the_window(label, monkeypatch):
    # The preimage is generated by the chart intersection's basis elements
    # of degree in the window and the window-degree multiples of the rest.
    # A window that holds every basis degree returns the intersection's
    # basis with no Groebner basis run; a window of the top degree alone
    # runs one, on the multiples, all of that degree.
    f, sub, family, window = _preimage_case(label)
    sat = saturate_submodule(sub)
    degrees = {f.element_degree(x) for x in sat.element_generators}
    assert degrees <= set(window)
    calls = []
    real = sheaf.module_groebner_basis
    monkeypatch.setattr(sheaf, "module_groebner_basis", lambda gens: calls.append(list(gens)) or real(gens))
    out = xi_preimage(family, f, window)
    assert calls == []
    assert out.element_generators == sat.element_generators
    top = window[-1]
    assert degrees != {top}
    out = xi_preimage(family, f, [top])
    (gens,) = calls
    assert {f.element_degree(x) for x in gens} == {top}
    assert out.element_generators == reduced_basis(module_groebner_basis(_component_meet(f, family, top)))


@pytest.mark.parametrize("label", sorted(PREIMAGE_CASES))
def test_preimage_does_not_depend_on_window_order(label):
    f, _, family, window = _preimage_case(label)
    want = xi_preimage(family, f, window)
    shuffled = list(window)
    random.Random(5).shuffle(shuffled)
    for order in (window[::-1], shuffled):
        got = xi_preimage(family, f, order)
        assert submodules_equal(got, want)
        assert _monomials(got) == _monomials(want)


@pytest.mark.parametrize("label", sorted(PREIMAGE_CASES))
def test_preimage_lists_only_the_fibers_of_multiples(label, monkeypatch):
    # A window that holds the degree of every element of the chart
    # intersection's basis lists no degree fiber at all; the window of the
    # top degree alone lists the fibers that the other elements'
    # multiples of that degree come from, and no other.
    f, _, family, window = _preimage_case(label)
    A = f.cox.grading.class_group
    degrees = [f.element_degree(x) for x in gradmod.chart_intersection(f, family.charts)]
    assert set(degrees) <= set(window)
    listed = []
    real = grading.degree_fiber
    for module in (grading, gradmod, sheaf):
        monkeypatch.setattr(module, "degree_fiber", lambda g, a: listed.append(a) or real(g, a))
    xi_preimage(family, f, window)
    assert listed == []
    top = window[-1]
    xi_preimage(family, f, [top])
    assert listed and set(listed) == {A.add(top, A.neg(d)) for d in degrees if d != top}


@pytest.mark.parametrize("name", ["quadric_cone", "three_rays"])
def test_preimage_refuses_unbounded_fibers_for_any_nonempty_window(name):
    # A nonzero monomial has degree 0, so every fiber is infinite.  A
    # window that holds every basis degree lists none, and is refused all
    # the same; an empty window reads no degree and gives the relations.
    c = _cox(name)
    assert not oracles.finite_fibers(c.grading)
    f = free_module(c)
    family = xi_forward(_submodule(f, [(1,) + (0,) * (c.num_vars - 1)]))
    window = [f.element_degree(x) for x in gradmod.chart_intersection(f, family.charts)]
    assert window
    with pytest.raises(polyfan.UnboundedFiber):
        xi_preimage(family, f, window)
    assert xi_preimage(family, f, []).element_generators == ()


@pytest.mark.parametrize("name", ["p2", "p1xp1", "f2"])
def test_generated_round_trips_equal_monomial_saturation(name):
    # Random monomial ideals: xi_preimage(xi_forward(I)), over a window one
    # variable degree past the saturation's generator degrees, gives the
    # saturation's minimal monomials.  Each chart, from the monomial fast
    # path, is the reduced basis the Groebner path gives, as family_equal
    # compares charts as they are.
    c = _cox(name)
    f = free_module(c)
    A = c.grading.class_group
    rng = random.Random(20261018)
    for _ in range(20):
        exps = oracles.random_monomial_ideal(rng, c.num_vars)
        sub = _submodule(f, exps)
        family = xi_forward(sub)
        for key, chart in family.charts.items():
            z = {c.zhat[key]: Fraction(1)}
            sat = module_saturate_element(sub.element_generators, z, 1, c.num_vars)
            assert chart == reduced_basis(sat), exps
        want = oracles.minimalize(oracles.saturate_monomial(exps, [c.zhat[k] for k in family.charts]))
        steps = (A.zero(), *c.grading.ray_degrees)
        window = {A.add(c.grading.a_map(e), d) for e in want for d in steps}
        got = xi_preimage(family, f, sorted(window, key=lambda a: a.coords()))
        assert _monomials(got) == want, exps
        assert family_equal(xi_forward(lift_finite_type(family, f)), family), exps


@pytest.mark.parametrize("name", ["p2", "p1xp1"])
def test_generated_binomial_round_trips(name):
    # Random binomial ideals, whose chart components are not spanned by
    # monomials: xi_preimage(xi_forward(I)), over a window one variable
    # degree past the saturation's generator degrees, is the saturation,
    # and the finite-type lift of the family has the same family.
    c = _cox(name)
    f = free_module(c)
    g = c.grading
    A = g.class_group
    rng = random.Random(20261018)
    for _ in range(8):
        ideal = oracles.random_binomial_ideal(rng, c.num_vars, lambda e: g.a_map(e).coords())
        sub = GradedSubmodule(f, tuple((p,) for p in ideal))
        sat = saturate_submodule(sub)
        family = xi_forward(sub)
        steps = (A.zero(), *g.ray_degrees)
        window = {A.add(f.element_degree(x), d) for x in sat.element_generators for d in steps}
        got = xi_preimage(family, f, sorted(window, key=lambda a: a.coords()))
        assert submodules_equal(got, sat), ideal
        assert got.element_generators == sat.element_generators, ideal
        assert family_equal(xi_forward(lift_finite_type(family, f)), family), ideal


def _generated_modules(c, rng, count):
    """(free module, generated elements) pairs on c's fan: binomial ideals
    and, every second draw, rank-2 modules (``random_homogeneous_elements``)."""
    g = c.grading
    rays = g.fan.ray_index
    for k in range(count):
        shift, f = None, free_module(c)
        if k % 2:
            shift = tuple(rng.randint(0, 1) for _ in rays)
            f = free_module(c, [g.class_group.zero(), g.a_map(shift)])
        yield f, oracles.random_homogeneous_elements(rng, rays, rng.randint(1, 2), shift)


@pytest.mark.parametrize("name", NINE_FANS)
def test_meets_and_lifts_match_the_groebner_paths(name):
    # Generated binomial ideals and rank-2 modules on the nine fans, with
    # their chart family and with one chart taken from their first
    # generator's: the chart intersection, which meets nested charts by
    # containment, is the plain F ⊕ F fold of the charts; the lift, which
    # returns the intersection when it holds the intersection's basis, is
    # the lift whose result is always a Groebner basis, and refuses where
    # it does; a built family lifts to a module with the same family and,
    # where the degree fibers are finite, round trips to the saturation
    # over a window one variable degree past its generators.  Relations
    # drawn the same way have a kill table whose every entry is the least
    # killing power, and every None lies outside the kernel.
    c = _cox(name)
    A = c.grading.class_group
    steps = (A.zero(), *c.grading.ray_degrees)
    finite = oracles.finite_fibers(c.grading)
    rng = random.Random(20261020)
    for k, (f, gens) in enumerate(_generated_modules(c, rng, 6)):
        sub = GradedSubmodule(f, tuple(gens))
        built = xi_forward(sub)
        mixed = dict(built.charts)
        key = sorted(mixed)[k % len(mixed)]
        mixed[key] = xi_forward(GradedSubmodule(f, sub.element_generators[:1])).charts[key]
        for t in (built, sheaf.ChartSubmoduleFamily(mixed)):
            fold = functools.reduce(lambda a, b: reduced_basis(module_intersection(a, b)), t.charts.values())
            assert gradmod.chart_intersection(f, t.charts) == fold, gens
            want = oracles.lift_by_groebner(t, f)
            try:
                got = lift_finite_type(t, f).element_generators
            except sheaf.Unstabilized:
                got = None
            assert got == want, gens
        lift = lift_finite_type(built, f)
        assert family_equal(xi_forward(lift), built), gens
        assert {key: gradmod.saturate_at(lift, c.zhat[key]) for key in c.maximal_keys} == built.charts, gens
        if finite:
            sat = saturate_submodule(sub)
            window = {A.add(f.element_degree(x), d) for x in sat.element_generators for d in steps}
            pre = xi_preimage(built, f, sorted(window, key=lambda a: a.coords()))
            assert pre.element_generators == sat.element_generators, gens
        q = GradedModulePresentation(c, f.generator_degrees, tuple(gens))
        rel_gb = module_groebner_basis(gens)
        kernels = gradmod.chart_bases(GradedSubmodule(q, ()))
        for (i, key), power in gradmod.kill_table(q).items():
            e = q.units[i]
            z = c.zhat[key]
            if power is None:
                assert not module_contains(kernels[key], e), gens
                continue
            assert module_contains(rel_gb, m_term_mul(e, tuple(power * a for a in z), 1)), gens
            assert power == 0 or not module_contains(rel_gb, m_term_mul(e, tuple((power - 1) * a for a in z), 1))


@pytest.mark.parametrize("name", NINE_FANS)
def test_xi_reads_the_last_family_for_its_meet_basis(name, monkeypatch):
    # Generated binomial ideals and rank-2 modules g on the nine fans, each
    # h read just after g's family T and its intersection N: h takes T
    # with no saturation exactly when it is generated by N's reduced basis
    # in g's ambient, and saturates its n charts otherwise.  The
    # saturation always takes T, and so does the lift where it returns N,
    # on every fan; the relations alone, g with an element outside N added
    # and N's basis over an equal but distinct ambient never do; the
    # lift, an equal but distinct twin of g, the preimage and a monomial
    # ideal take T where their generators are N's basis.  Every read
    # equals the charts computed with both caches cleared.  A hand-made
    # lift that drops one of g's generators fails the family round trip
    # wherever its charts differ, which happens on every fan.
    c = _cox(name)
    n = len(c.maximal_keys)
    A = c.grading.class_group
    steps = (A.zero(), *c.grading.ray_degrees)
    finite = oracles.finite_fibers(c.grading)
    saturations = []
    real_at = gradmod.saturate_at
    monkeypatch.setattr(gradmod, "saturate_at", lambda g, z: saturations.append(g) or real_at(g, z))

    def check(g, h):
        family = xi_forward(g)
        meet = gradmod.chart_intersection(g.ambient, family.charts)
        before = len(saturations)
        got = xi_forward(h).charts
        hit = h.ambient is g.ambient and h.element_generators == meet
        assert (got is family.charts) == hit and len(saturations) - before == (0 if hit else n), g
        gradmod._LAST_CHARTS[:] = None, None
        gradmod._LAST_MEET[:] = None, None
        assert got == xi_forward(h).charts, g
        return hit, family

    rng = random.Random(20261021)
    lifts_hit = dropped = 0
    for f, gens in _generated_modules(c, rng, 6):
        sub = GradedSubmodule(f, tuple(gens))
        sat = saturate_submodule(sub)
        meet = sat.element_generators
        assert check(sub, sat)[0], gens
        lift = lift_finite_type(xi_forward(sub), f)
        hit, family = check(sub, lift)
        lifts_hit += hit
        assert family_equal(xi_forward(lift), family), gens
        q = GradedModulePresentation(c, f.generator_degrees, tuple(gens))
        twin_f = GradedModulePresentation(c, f.generator_degrees, f.relations)
        outer = [e for e in f.units if not module_contains(meet, e)]
        misses = [
            (GradedSubmodule(q, q.units[:1]), GradedSubmodule(q, ())),
            (sub, GradedSubmodule(twin_f, meet)),
            *((sub, GradedSubmodule(f, (*gens, e))) for e in outer[:1]),
        ]
        for g, h in misses:
            assert not check(g, h)[0], gens
        check(sub, GradedSubmodule(f, tuple(gens)))
        if finite:
            window = {A.add(f.element_degree(x), d) for x in meet + sub.element_generators for d in steps}
            check(sub, xi_preimage(xi_forward(sub), f, sorted(window, key=lambda a: a.coords())))
        if len(gens) > 1:
            h = GradedSubmodule(f, tuple(gens[1:]))
            dropped += not family_equal(xi_forward(h), xi_forward(sub))
        mono = _submodule(free_module(c), oracles.random_monomial_ideal(rng, c.num_vars))
        check(mono, GradedSubmodule(mono.ambient, saturate_submodule(mono).element_generators))
        check(mono, GradedSubmodule(mono.ambient, mono.element_generators))
    assert lifts_hit and dropped, name


def _component_meet(f, family, alpha):
    """A basis of the degree-alpha vectors that lie in every chart module,
    as module elements: the chart components, intersected densely by the
    oracle."""
    coords = gradmod._monomials_of_degree(f, alpha)
    index = {m: k for k, m in enumerate(coords)}
    meet = None
    for chart in family.charts.values():
        rows = oracles.component_span_rows(f, gradmod.graded_elements(f, chart), alpha, index)
        dense = [[row.get(k, 0) for k in range(len(coords))] for row in rows]
        meet = dense if meet is None else oracles.subspace_intersection(meet, dense)
    return [
        tuple({coords[k][1]: x for k, x in enumerate(v) if x and coords[k][0] == i} for i in range(f.rank))
        for v in meet
    ]


@pytest.mark.parametrize("name", ["p2", "p1xp1", "f2"])
def test_preimage_is_generated_by_the_chart_components_meet(name):
    # Seeded monomial and binomial ideals, over windows that reach past
    # the saturation's generator degrees and windows cut short of them,
    # in increasing and shuffled order: the preimage is the submodule
    # that the per-degree intersections of the chart components generate.
    c = _cox(name)
    f = free_module(c)
    g = c.grading
    A = g.class_group
    rng = random.Random(20261019)
    for k in range(4):
        if k % 2:
            ideal = [{e: Fraction(1)} for e in oracles.random_monomial_ideal(rng, c.num_vars)]
        else:
            ideal = oracles.random_binomial_ideal(rng, c.num_vars, lambda e: g.a_map(e).coords())
        sub = GradedSubmodule(f, tuple((p,) for p in ideal))
        family = xi_forward(sub)
        steps = (A.zero(), *g.ray_degrees)
        sat = saturate_submodule(sub)
        cover = sorted(
            {A.add(f.element_degree(x), d) for x in sat.element_generators for d in steps},
            key=lambda a: a.coords(),
        )
        shuffled = list(cover)
        rng.shuffle(shuffled)
        cut = sorted({f.element_degree(x) for x in sub.element_generators}, key=lambda a: a.coords())
        meets = {alpha: _component_meet(f, family, alpha) for alpha in cover + cut}
        for window in (cover, shuffled, cover[:2], cover[1::-1], cut, cut[:1]):
            vectors = [x for alpha in window for x in meets[alpha]]
            got = xi_preimage(family, f, window)
            assert got.element_generators == reduced_basis(module_groebner_basis(vectors)), (ideal, window)


@pytest.mark.parametrize("name", ["p2", "p1xp1"])
def test_xi_check_saturates_each_chart_once(name, monkeypatch):
    # The chart bases and their intersection are kept for the last
    # submodule and the last charts dict, by identity: the saturation and
    # the round trip of sheaf xi-check saturate each chart and intersect
    # the charts once, in n - 1 pairwise meets, and an equal but distinct
    # submodule computes its own.  These charts are nested, so no meet
    # takes a basis in F ⊕ F; charts that are not nested, those of
    # Z1·Z2·(Z1 - Z3) on p2 and of Z1·Z3·(Z1 - Z2) on p1xp1, do.
    c = _cox(name)
    f = free_module(c)
    A = c.grading.class_group
    saturations, meets, intersections = [], [], []
    real_at, real_meet, real_inter = gradmod.saturate_at, gradmod._meet, gradmod.module_intersection
    monkeypatch.setattr(gradmod, "saturate_at", lambda g, z: saturations.append(g) or real_at(g, z))
    monkeypatch.setattr(gradmod, "_meet", lambda *a: meets.append(a) or real_meet(*a))
    monkeypatch.setattr(gradmod, "module_intersection", lambda *a: intersections.append(a) or real_inter(*a))
    one = Fraction(1)
    ideal, distinct = {
        "p2": ([{(1, 1, 0): one, (0, 0, 2): -one}, {(1, 0, 1): one, (0, 2, 0): -2 * one}],
               {(2, 1, 0): one, (1, 1, 1): -one}),
        "p1xp1": ([{(1, 0, 1, 0): one, (0, 1, 0, 1): -one}, {(1, 0, 0, 1): one, (0, 1, 1, 0): 2 * one}],
                  {(2, 0, 1, 0): one, (1, 1, 1, 0): -one}),
    }[name]
    sub = GradedSubmodule(f, tuple((p,) for p in ideal))
    window = _lex_window(c, (3,) * A.free_rank)
    n = len(c.grading.fan.maximal)
    sat = saturate_submodule(sub)
    pre = xi_preimage(xi_forward(sub), f, window)
    assert pre.element_generators == sat.element_generators
    assert len(saturations) == n and all(g is sub for g in saturations)
    assert len(meets) == n - 1
    twin = GradedSubmodule(f, tuple((p,) for p in ideal))
    assert twin == sub and twin is not sub
    assert saturate_submodule(twin).element_generators == sat.element_generators
    assert len(saturations) == 2 * n and all(g is twin for g in saturations[n:])
    assert len(meets) == 2 * (n - 1)
    assert intersections == []
    apart = GradedSubmodule(f, ((distinct,),))
    assert saturate_submodule(apart).element_generators == apart.element_generators
    assert len(meets) == 3 * (n - 1)
    assert len(intersections) == 1


# Two-binomial saturations that took 127 s, 5.2 s and more than 460 s
# (on a 2-CPU Xeon) when Buchberger popped its pairs last in, first out.
TAIL_SATURATIONS = [
    ("p1xp1", [{(2, 0, 2, 0): -1, (2, 0, 1, 1): -2}, {(1, 1, 0, 2): 2, (0, 2, 2, 0): -2}]),
    ("p2", [{(2, 0, 2): 2, (1, 2, 1): -3}, {(2, 1, 0): 1, (0, 2, 1): -1}]),
    ("p1xp1", [{(2, 0, 1, 2): -1, (2, 0, 2, 1): -3}, {(2, 1, 0, 2): 1, (1, 2, 2, 0): 2}]),
]


@pytest.mark.parametrize("name, ideal", TAIL_SATURATIONS)
def test_two_binomial_saturation_is_fast_and_round_trips(name, ideal):
    c = _cox(name)
    f = free_module(c)
    g = c.grading
    A = g.class_group
    sub = GradedSubmodule(f, tuple(({e: Fraction(x) for e, x in p.items()},) for p in ideal))
    start = time.perf_counter()
    sat = saturate_submodule(sub)
    assert time.perf_counter() - start < 1.0
    family = xi_forward(sub)
    steps = (A.zero(), *g.ray_degrees)
    window = {A.add(f.element_degree(x), d) for x in sat.element_generators for d in steps}
    got = xi_preimage(family, f, sorted(window, key=lambda a: a.coords()))
    assert submodules_equal(got, sat)
    assert got.element_generators == sat.element_generators
    assert family_equal(xi_forward(lift_finite_type(family, f)), family)
    assert all(submodule_membership(x, sat) for x in sub.element_generators)


def test_correspondences_return_the_reduced_basis():
    # <Z1^2 - Z2 Z3, Z1 Z2> on P2 is a complete intersection, so saturated.
    # It has two minimal generators, but its reduced basis also holds
    # Z2^2 Z3, a leading term neither generator's divides.  The
    # saturation, the preimage and the finite-type lift each return the
    # reduced basis of their submodule, element for element.
    c = _cox("p2")
    f = free_module(c)
    A = c.grading.class_group
    one = Fraction(1)
    gens = [({(2, 0, 0): one, (0, 1, 1): -one},), ({(1, 1, 0): one},)]
    sub = GradedSubmodule(f, tuple(gens))
    family = xi_forward(sub)
    sat = saturate_submodule(sub)
    pre = xi_preimage(family, f, [A.from_coords([d]) for d in range(5)])
    lift = lift_finite_type(family, f)
    assert sat.element_generators == reduced_basis(module_groebner_basis(gens))
    assert len(sat.element_generators) == 3
    assert len(oracles.minimalize_generators(list(sat.element_generators), (), POT)) == 2
    for out in (sat, pre, lift):
        assert out.element_generators == reduced_basis(module_groebner_basis(list(out.element_generators)))
    assert pre.element_generators == sat.element_generators
    assert family_equal(xi_forward(lift), family)

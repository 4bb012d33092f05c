"""Groebner machinery: Buchberger criterion, colon and saturation, modules.
Ideals are rank-1 submodules, with elements ``(p,)``."""

import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from coxfan import corpus, groeb
from coxfan.groeb import (
    ELIM,
    POT,
    _s_vector,
    m_is_monomial,
    m_is_zero,
    m_leading_term,
    m_normal_form,
    m_term_mul,
    minimalize_monomials,
    module_contains,
    module_groebner_basis,
    module_intersection,
    module_saturate_element,
    monomial_ideal_intersection,
    monomial_ideal_saturate,
    poly,
    reduced_basis,
    submodule_equal,
)

import oracles


# Besides small integers, larger ones and rationals: the engine scales its
# input to primitive integer elements and divides out contents, and these
# make that scaling and the gcds nontrivial.
_LARGE = [c for c in range(-30, 31) if abs(c) > 3]
_RATIONAL = [Fraction(n, d) for n, d in ((1, 2), (-1, 2), (3, 7), (-5, 3), (7, 4), (-2, 9))]


def _random_coefficient(rng):
    """Nonzero: an integer in -3..3 half the time, else one up to ±30 or a
    rational, by equal shares."""
    r = rng.random()
    if r < 0.5:
        return Fraction(rng.choice([-3, -2, -1, 1, 2, 3]))
    return Fraction(rng.choice(_LARGE)) if r < 0.75 else rng.choice(_RATIONAL)


def _random_poly(rng, nvars, max_deg, max_terms):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        e = tuple(rng.randint(0, max_deg) for _ in range(nvars))
        if sum(e) > max_deg:
            continue
        terms[e] = _random_coefficient(rng)
    terms = {e: c for e, c in terms.items() if c}
    if not terms:
        terms = {(0,) * nvars: Fraction(1)}
    return poly(terms)


def _random_term(rng, nvars, max_deg):
    e = [0] * nvars
    for _ in range(rng.randint(0, max_deg)):
        e[rng.randrange(nvars)] += 1
    return {tuple(e): _random_coefficient(rng)}


def _random_element(rng, rank, nvars, single):
    """A single term, or up to two terms (degree <= 2) in each position."""
    if single:
        pos = rng.randrange(rank)
        term = _random_term(rng, nvars, 2)
        return tuple(term if i == pos else {} for i in range(rank))
    x = tuple(
        _random_poly(rng, nvars, 2, 2) if rng.random() < 0.7 else {}
        for _ in range(rank)
    )
    return x if not m_is_zero(x) else _random_element(rng, rank, nvars, True)


def _random_gens(rng, rank, nvars, count, single_ratio):
    return [
        _random_element(rng, rank, nvars, rng.random() < single_ratio)
        for _ in range(count)
    ]


def _saturation_input(gens, f, rank, nvars):
    """The generators module_saturate_element eliminates t from: the
    embedded generators plus (1 - t*f)*e_i for each i."""
    one_tf = poly({(0,) * (nvars + 1): 1, **{(1,) + e: -c for e, c in f.items()}})
    unit = [tuple(one_tf if j == i else {} for j in range(rank)) for i in range(rank)]
    return [tuple({(0,) + e: c for e, c in p.items()} for p in g) for g in gens] + unit


def _same_position_s_vectors(gb, order):
    for i in range(len(gb)):
        for j in range(i + 1, len(gb)):
            lt_i, lt_j = m_leading_term(gb[i], order), m_leading_term(gb[j], order)
            if lt_i[0][0] == lt_j[0][0]:
                yield _s_vector(gb[i], gb[j], lt_i, lt_j)


def test_buchberger_criterion_random_ideals():
    # every S-polynomial of a computed basis must reduce to zero
    rng = random.Random(20260826)
    for _ in range(100):
        nvars = rng.randint(1, 3)
        gens = [
            (_random_poly(rng, nvars, 3, 3),) for _ in range(rng.randint(1, 4))
        ]
        gb = module_groebner_basis(gens, POT)
        for s in _same_position_s_vectors(gb, POT):
            assert m_is_zero(m_normal_form(s, gb, POT))


def test_buchberger_criterion_random_modules():
    # rank 2 and 3, in position-over-term and in the elimination order
    # that module_saturate_element uses; then single terms next to binomials,
    # and the input shape of the one-basis saturation
    rng = random.Random(20261018)
    cases = []
    for _ in range(60):
        rank = rng.randint(2, 3)
        nvars = rng.randint(1, 3)
        gens = [
            tuple(
                _random_poly(rng, nvars, 2, 2) if rng.random() < 0.7 else {}
                for _ in range(rank)
            )
            for _ in range(rng.randint(1, 3))
        ]
        cases += [(gens, POT), (gens, ELIM)]
    rng = random.Random(20261021)
    for _ in range(80):
        rank, nvars = rng.randint(1, 3), rng.randint(1, 3)
        gens = _random_gens(rng, rank, nvars, rng.randint(2, 4), 0.5)
        f = _random_term(rng, nvars, 2)
        cases += [(gens, POT), (gens, ELIM)]
        cases.append((_saturation_input(gens, f, rank, nvars), ELIM))
    for gens, order in cases:
        gb = module_groebner_basis(gens, order)
        for s in _same_position_s_vectors(gb, order):
            assert m_is_zero(m_normal_form(s, gb, order))
        for g in gens:
            assert m_is_zero(m_normal_form(g, gb, order))


def test_generators_reduce_to_zero():
    rng = random.Random(7)
    for _ in range(25):
        gens = [(_random_poly(rng, 3, 3, 3),) for _ in range(3)]
        gb = module_groebner_basis(gens)
        for g in gens:
            assert module_contains(gb, g)


def test_reduced_basis_pinned():
    # x^2 - y, x y - 1 in grevlex: classic reduced basis
    x2y = poly({(2, 0): Fraction(1), (0, 1): Fraction(-1)})
    xy1 = poly({(1, 1): Fraction(1), (0, 0): Fraction(-1)})
    gb = module_groebner_basis([(x2y,), (xy1,)])
    y2x = poly({(0, 2): Fraction(1), (1, 0): Fraction(-1)})
    assert submodule_equal(gb, [(x2y,), (xy1,), (y2x,)])
    # its leading monomials: x^2, x y, y^2
    leads = [m_leading_term(g, POT)[0][1] for g in gb]
    assert minimalize_monomials(leads) == [(0, 2), (1, 1), (2, 0)]
    # monic and sorted by leading term
    assert reduced_basis(gb) == ((y2x,), (xy1,), (x2y,))


def test_ideal_intersection_principal():
    # <x> cap <y> = <x y>
    x = poly({(1, 0): Fraction(1)})
    y = poly({(0, 1): Fraction(1)})
    xy = poly({(1, 1): Fraction(1)})
    assert submodule_equal(module_intersection([(x,)], [(y,)]), [(xy,)])


_GENERATED_FANS = {
    **{name: corpus.fan_spec(name)["rays"] for name in ("p2", "p1xp1", "p112", "three_rays")},
    "f2": oracles.F2[0],
    "p3": oracles.P3[0],
    "dp6": oracles.DP6[0],
}


@pytest.mark.parametrize("fan", sorted(_GENERATED_FANS))
def test_intersection_equals_tag_elimination_on_generated_modules(fan):
    # A ∩ B read off one basis in F ⊕ F has the reduced basis of the
    # reference's tag elimination, on generated Cl-homogeneous ideals and
    # rank-2 modules whose second generator has degree deg x^s
    rays = _GENERATED_FANS[fan]
    rng = random.Random(20261103 + sorted(_GENERATED_FANS).index(fan))
    larger = 0
    for k in range(12):
        shift = None if k % 2 else tuple(rng.randint(0, 1) for _ in rays)
        a = oracles.random_homogeneous_elements(rng, rays, rng.randint(1, 2), shift)
        b = oracles.random_homogeneous_elements(rng, rays, rng.randint(1, 2), shift)
        got = reduced_basis(module_intersection(a, b))
        want = oracles.module_intersection(a, b, len(rays), ELIM)
        assert got == tuple(oracles.reduced_basis(want, POT))
        larger += len(got) > 1
    assert larger >= 2


small_exps = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)),
    min_size=1,
    max_size=4,
)


@given(small_exps, st.integers(0, 2))
def test_monomial_saturation_matches_oracle(exps, var):
    f = tuple(1 if i == var else 0 for i in range(3))
    got = sorted(monomial_ideal_saturate(exps, f))
    want = sorted(oracles.saturate_monomial(exps, [f]))
    assert got == want


@given(small_exps, small_exps)
def test_monomial_intersection_matches_oracle(a, b):
    got = sorted(monomial_ideal_intersection(a, b))
    want = sorted(oracles.intersect_monomial(a, b))
    assert got == want


@given(small_exps, st.integers(0, 2))
def test_saturation_is_stable(exps, var):
    # (J : f^inf) : f = (J : f^inf)
    f = tuple(1 if i == var else 0 for i in range(3))
    sat = monomial_ideal_saturate(exps, f)
    again = oracles.colon_monomial(sat, f)
    assert sorted(oracles.minimalize(again)) == sorted(
        oracles.minimalize(sat)
    )


def test_general_saturation_agrees_on_monomial_input():
    rng = random.Random(99)
    for _ in range(10):
        exps = [
            tuple(rng.randint(0, 2) for _ in range(3))
            for _ in range(rng.randint(1, 3))
        ]
        var = rng.randint(0, 2)
        f_exp = tuple(1 if i == var else 0 for i in range(3))
        gens = [(poly({e: Fraction(1)}),) for e in exps]
        f = poly({f_exp: Fraction(1)})
        sat = module_saturate_element(gens, f, 1, 3)
        want = [
            (poly({e: Fraction(1)}),)
            for e in monomial_ideal_saturate(exps, f_exp)
        ]
        assert submodule_equal(sat, want)


def test_module_membership_basic():
    # column vectors over 2 vars, rank-2 free module
    x = {(1, 0): Fraction(1)}
    y = {(0, 1): Fraction(1)}
    zero = {}
    g1 = (poly(x), poly(zero))
    g2 = (poly(zero), poly(y))
    gb = module_groebner_basis([g1, g2])
    inside = (poly({(1, 1): Fraction(1)}), poly(zero))
    outside = (poly(zero), poly({(1, 0): Fraction(1)}))
    assert module_contains(gb, inside)
    assert not module_contains(gb, outside)


def test_module_syzygy_reduction():
    # relation column (y, -x): x*(col) lies in the module it generates
    rel = (poly({(0, 1): Fraction(1)}), poly({(1, 0): Fraction(-1)}))
    gb = module_groebner_basis([rel])
    scaled = m_term_mul(rel, (1, 0), 1)
    assert module_contains(gb, scaled)
    assert not m_is_zero(rel)


def test_groebner_basis_equals_reference():
    # The pair order and the chain criterion change which elements the
    # basis holds, not the submodule: its reduced basis, which is unique,
    # is the reference engine's.  The engine's own reduced basis under POT
    # is the reference's.
    rng = random.Random(20261019)
    singles = elements = 0
    for _ in range(320):
        rank, nvars = rng.randint(1, 3), rng.randint(1, 3)
        gens = _random_gens(rng, rank, nvars, rng.randint(1, 4), 0.6)
        singles += sum(m_is_monomial(g) for g in gens)
        elements += len(gens)
        for order in (POT, ELIM):
            gb = module_groebner_basis(gens, order)
            got = oracles.reduced_basis(gb, order)
            want = oracles.reduced_basis(oracles.module_groebner_basis(gens, order), order)
            assert got == want
            if order == POT:
                assert reduced_basis(gb) == tuple(want)
    assert 2 * singles >= elements


def test_monomial_reduced_basis_equals_reference():
    # Single terms of rank 1-3 with repeated terms, terms that divide
    # others, non-unit coefficients and zero elements: their minimal terms
    # per position, monic, are the reference's reduced POT basis, both of
    # the terms themselves (a basis already) and of the engine's basis.
    rng = random.Random(20261104)
    repeated = divided = 0
    for _ in range(200):
        rank, nvars = rng.randint(1, 3), rng.randint(1, 3)
        gens, terms = [], []
        for _ in range(rng.randint(1, 6)):
            if terms and rng.random() < 0.3:
                pos, e = rng.choice(terms)
                e = tuple(a + rng.randint(0, 1) for a in e)
            else:
                pos, e = rng.randrange(rank), tuple(rng.randint(0, 3) for _ in range(nvars))
            c = rng.choice([1, -1, 2] + _RATIONAL) if rng.random() < 0.9 else 0
            gens.append(tuple(poly({e: c}) if j == pos else {} for j in range(rank)))
            terms += [(pos, e)] if c else []
        repeated += len(set(terms)) < len(terms)
        divided += any(i == j and e != f and all(map(int.__le__, e, f))
                       for i, e in terms for j, f in terms)
        want = tuple(oracles.reduced_basis(oracles.module_groebner_basis(gens, POT), POT))
        assert reduced_basis(gens) == want, gens
        assert reduced_basis(module_groebner_basis(gens)) == want, gens
    assert repeated >= 20 and divided >= 20


def test_saturation_equals_iterated_colon():
    rng = random.Random(20261020)
    for _ in range(160):
        rank, nvars = rng.randint(1, 3), 3
        gens = _random_gens(rng, rank, nvars, rng.randint(1, 3), 0.5)
        support = rng.sample(range(nvars), rng.randint(1, 3))
        e = tuple(rng.randint(1, 2) if i in support else 0 for i in range(nvars))
        f = {e: Fraction(1)}
        got = module_saturate_element(gens, f, rank, nvars)
        want = oracles.module_saturate_element(gens, f, rank, nvars, POT, ELIM)
        assert submodule_equal(got, want)



def _items(x):
    """An element as nested term lists: equal also in dict order."""
    return [list(p.items()) for p in x]


def _proportional(x, y):
    """x = k*y for one nonzero k, term for term and in the same order."""
    ratios = {a / Fraction(b) for p, q in zip(x, y) for a, b in zip(p.values(), q.values())}
    return [list(p) for p in x] == [list(q) for q in y] and len(ratios) <= 1


def test_reduction_kernel_equals_reference():
    # In-place reduction keeps the reducer (the first basis element whose
    # leading term divides) and the exact arithmetic, so remainders are
    # the reference's, term for term and in the same order, S-vectors are
    # the reference's up to a nonzero factor, terms in the same order, and
    # the inputs are left as they were.
    rng = random.Random(20261102)
    reduced = s_vectors = 0
    for _ in range(150):
        rank, nvars = rng.randint(1, 3), rng.randint(1, 3)
        basis = _random_gens(rng, rank, nvars, rng.randint(1, 4), 0.4)
        x = _random_element(rng, rank, nvars, False)
        for b in rng.sample(basis, rng.randint(1, len(basis))):
            (e,) = _random_term(rng, nvars, 2)
            x = oracles._m_sub(x, m_term_mul(b, e, rng.randint(1, 3)))
        before = (_items(x), [_items(b) for b in basis])
        for order in (POT, ELIM):
            lts = [m_leading_term(b, order) for b in basis]
            want = oracles.m_normal_form(x, basis, order)
            reduced += want != x
            assert _items(m_normal_form(x, basis, order)) == _items(want)
            for (i, f), (j, g) in combinations(enumerate(basis), 2):
                if lts[i][0][0] == lts[j][0][0]:
                    want = oracles._s_vector(f, g, order)
                    assert _proportional(_s_vector(f, g, lts[i], lts[j]), want)
                    s_vectors += 1
        assert (_items(x), [_items(b) for b in basis]) == before
    assert reduced >= 200 and s_vectors >= 200


def test_one_element_is_its_own_basis():
    # A single element has no S-pair: the basis is the element made
    # primitive, under POT and under ELIM, and a reference run agrees.
    rng = random.Random(20261020)
    for _ in range(40):
        rank, nvars = rng.randint(1, 3), rng.randint(1, 3)
        x = _random_element(rng, rank, nvars, False)
        if m_is_zero(x):
            continue
        for order in (POT, ELIM):
            (b,) = module_groebner_basis([x], order)
            assert all(type(c) is int for p in b for c in p.values())
            assert _proportional(b, x)
            want = oracles.module_groebner_basis([x], order)
            assert reduced_basis([b]) == reduced_basis(want)
    assert module_groebner_basis([]) == [] and module_groebner_basis([({},)]) == []


def test_pot_key_table_is_shared_and_bounded(monkeypatch):
    # Every POT leader reads the one process-wide grevlex table, which is
    # cleared before it would pass _KEYS_MAX entries; answers do not change.
    lead = groeb._leader(POT, 1)
    x = ({(i, 300 - i, 7): Fraction(i + 1) for i in range(300)},)
    assert lead(x) == m_leading_term(x, POT) == ((0, (299, 1, 7)), Fraction(300))
    assert (5, 295, 7) in groeb._POT_KEYS
    big = ({(i, 2 * groeb._KEYS_MAX - i): Fraction(1) for i in range(groeb._KEYS_MAX + 100)},)
    lead(big)
    assert len(groeb._POT_KEYS) <= groeb._KEYS_MAX
    monkeypatch.setattr(groeb, "_KEYS_MAX", 16)
    gens = [(poly({(i, 0, 2): 1, (0, i, 2): -1}),) for i in range(1, 12)]
    assert reduced_basis(module_groebner_basis(gens)) == reduced_basis(oracles.module_groebner_basis(gens, POT))
    assert len(groeb._POT_KEYS) <= 16

"""Cones, dual cones, Hilbert bases, fan validation and properties."""

import random
import time
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxfan import corpus, polyfan
from coxfan.polyfan import (
    Cone,
    FanInvalid,
    build_fan,
    cone_generators_from_inequalities,
    cone_inequalities,
    dual_cone,
    fan_properties,
    hilbert_basis,
    in_cone,
    validate_fan,
)

import oracles


rays2 = st.lists(st.integers(-4, 4), min_size=2, max_size=2).filter(any)
rays3 = st.lists(st.integers(-4, 4), min_size=3, max_size=3).filter(any)
cones2 = st.lists(rays2, min_size=1, max_size=3)
cones3 = st.lists(rays3, min_size=1, max_size=3)


def test_dual_cone_pinned():
    d = dual_cone(Cone.make(2, [(1, 0), (1, 2)]))
    assert sorted(d.generators) == [(0, 1), (2, -1)]


def test_dual_of_orthant_is_orthant():
    d = dual_cone(Cone.make(2, [(1, 0), (0, 1)]))
    assert sorted(d.generators) == [(0, 1), (1, 0)]


def test_hilbert_basis_quadratic_cone():
    hb = hilbert_basis([(1, 0), (1, 2)], 2)
    assert sorted(hb) == [(1, 0), (1, 1), (1, 2)]


def test_hilbert_basis_orthant():
    assert sorted(hilbert_basis([(1, 0), (0, 1)], 2)) == [(0, 1), (1, 0)]


@given(st.one_of(cones2, cones3))
@settings(max_examples=60)
def test_double_dual_identity(gens):
    rank = len(gens[0])
    c = Cone.make(rank, gens)
    dd_gens = dual_cone(c).generators
    # x lies in the cone iff u.x >= 0 for every dual generator u; checked
    # against the independent half-space oracle on a box of lattice points
    from itertools import product as _product

    for v in _product(range(-3, 4), repeat=rank):
        lhs = oracles.in_cone(v, gens, rank)
        rhs = all(sum(a * b for a, b in zip(u, v)) >= 0 for u in dd_gens)
        assert lhs == rhs


@given(st.one_of(cones2, cones3))
@settings(max_examples=60)
def test_hilbert_basis_generates(gens):
    rank = len(gens[0])
    hb = hilbert_basis(gens, rank)
    pts = oracles.cone_lattice_points(gens, rank, 6)
    big = oracles.cone_lattice_points(gens, rank, 12)
    assert oracles.monoid_generates(pts, hb, workspace=big)
    # every basis element is itself a cone point
    for h in hb:
        assert oracles.in_cone(h, gens, rank)


def _random_pointed_cones(seed, rank, ngens, entry, count):
    rng = random.Random(seed)
    cones = []
    while len(cones) < count:
        gens = [
            tuple(rng.randint(-entry, entry) for _ in range(rank))
            for _ in range(ngens)
        ]
        # pointed iff no generator's negative lies in the cone
        if all(any(g) for g in gens) and not any(
            oracles.in_cone([-x for x in g], gens, rank) for g in gens
        ):
            cones.append(gens)
    return cones


# (rank, generators, entry range): one or two generators in rank 3 and
# one in rank 2 span lower-dimensional cones.
HB_CASES = [(2, 1, 4), (2, 2, 4), (2, 3, 4), (3, 1, 2), (3, 2, 2), (3, 3, 2), (3, 4, 2)]


@pytest.mark.parametrize(
    "rank,ngens,entry", HB_CASES, ids=[f"r{r}g{k}" for r, k, _ in HB_CASES]
)
def test_hilbert_basis_is_exactly_the_irreducible_points(rank, ngens, entry):
    for gens in _random_pointed_cones(10 * rank + ngens, rank, ngens, entry, 6):
        expected = oracles.hilbert_basis_by_reduction(gens, rank)
        assert hilbert_basis(gens, rank) == expected, gens


def test_cone_lattice_points_matches_box_scan():
    rng = random.Random(4)
    for _ in range(40):
        rank = rng.randint(1, 3)
        gens = [
            tuple(rng.randint(-4, 4) for _ in range(rank))
            for _ in range(rng.randint(1, rank + 1))
        ]
        bound = rng.randint(0, 7)
        halfspaces = oracles.cone_halfspaces(gens, rank)
        box = [
            v
            for v in product(range(-bound, bound + 1), repeat=rank)
            if sum(map(abs, v)) <= bound and oracles.in_halfspaces(v, halfspaces)
        ]
        assert oracles.cone_lattice_points(gens, rank, bound) == box


def test_oracle_halfspaces_agree_with_in_cone_in_rank_4():
    # Without gcd division and per-step deduplication the oracle's
    # Fourier-Motzkin rows outgrew memory on this cone.
    gens = [(1, 4, 1, -2), (0, -2, 0, -4), (-4, -2, 0, -2), (-3, -2, -4, -4), (-4, 3, -1, 2)]
    halfspaces = oracles.cone_halfspaces(gens, 4)
    for v in product(range(-4, 5), repeat=4):
        assert oracles.in_halfspaces(v, halfspaces) == in_cone(v, gens, 4), v


# Six generators of a pointed cone in a hyperplane of Q^4: an oracle that
# wrote the hyperplane's equality as opposite half-space pairs multiplied
# its rows and did not finish this cone in 120 s (2-CPU Xeon).
FLAT_CONE = [(-2, 2, -6, 2), (3, -1, -3, 4), (-3, 1, -2, -1), (-4, 0, 2, -4), (3, 1, -5, 5), (-2, -4, 0, -1)]


def _flat_cones(seed, count):
    """FLAT_CONE, then seeded pointed cones of rank 3 and 4 with one to six
    generators, each spanned inside a subspace of lower dimension."""
    rng = random.Random(seed)
    cones = [(4, FLAT_CONE)]
    while len(cones) < count:
        rank = rng.choice((3, 4))
        basis = [[rng.randint(-2, 2) for _ in range(rank)] for _ in range(rng.randint(1, rank - 1))]
        gens = [
            tuple(sum(c * b[j] for c, b in zip(coeffs, basis)) for j in range(rank))
            for coeffs in ([rng.randint(-2, 2) for _ in basis] for _ in range(rng.randint(1, 6)))
        ]
        if all(any(g) for g in gens) and not any(
            oracles.in_cone([-x for x in g], gens, rank) for g in gens
        ):
            cones.append((rank, gens))
    return cones


def test_oracle_in_cone_on_lower_dimensional_cones():
    # oracles.in_cone agrees with the package on a box and on nonnegative
    # combinations of the generators, on 150 lower-dimensional cones, in
    # seconds.
    rng = random.Random(1)
    start = time.perf_counter()
    for rank, gens in _flat_cones(20261020, 150):
        combos = [
            tuple(sum(c * g[j] for c, g in zip(coeffs, gens)) for j in range(rank))
            for coeffs in ([rng.randint(0, 3) for _ in gens] for _ in range(5))
        ]
        for v in combos:
            assert oracles.in_cone(v, gens, rank), (gens, v)
        for v in list(product(range(-1, 2), repeat=rank)) + combos:
            assert oracles.in_cone(v, gens, rank) == in_cone(v, gens, rank), (gens, v)
    assert time.perf_counter() - start < 30


def test_oracle_hilbert_basis_of_the_flat_cone():
    # The oracle's Fourier–Motzkin substitutes through the hyperplane's
    # equality, so its half-spaces (four facets and one opposite pair) and
    # the reduction reference on them finish on FLAT_CONE in about a second.
    halfspaces = oracles.cone_halfspaces(FLAT_CONE, 4)
    assert len(halfspaces) == 6
    assert oracles.hilbert_basis_by_reduction(FLAT_CONE, 4) == hilbert_basis(FLAT_CONE, 4)


def test_hilbert_basis_matches_the_parallelepiped_reference_on_simplicial_cones():
    rng = random.Random(12)
    for _ in range(100):
        rank = rng.choice([2, 3])
        gens = [tuple(rng.randint(-4, 4) for _ in range(rank)) for _ in range(rank)]
        if oracles.det(gens):
            assert hilbert_basis(gens, rank) == oracles.hilbert_basis_of_simplicial(gens), gens


def test_hilbert_bases_of_rank_three_duals_match_the_parallelepiped_reference():
    # The reference is linear in the multiplicity, which is 2,688-217,156
    # on these duals; the three below 6,000 take about a second in all.
    rays, max_cones = oracles.RANK3_FAN
    checked = 0
    for cone in max_cones:
        dual = oracles.dual_cone_generators([rays[i] for i in cone], 3)
        if abs(oracles.det(dual)) <= 6000:
            assert hilbert_basis(dual, 3) == oracles.hilbert_basis_of_simplicial(dual), cone
            checked += 1
    assert checked == 3


def test_chernikov_rule_keeps_the_projections_small(monkeypatch):
    # The cone over the octahedron: without the rule its Hilbert basis
    # takes tens of seconds, and its widest level has millions of rows.
    gens = [tuple(s * (i == j) for j in range(3)) + (1,) for i in range(3) for s in (1, -1)]
    levels = []

    def spy(m):
        out = projections(m)
        levels.append([len(lv) for lv in out])
        return out

    projections = polyfan._projections
    monkeypatch.setattr(polyfan, "_projections", spy)
    assert len(hilbert_basis(gens, 4)) == 7
    assert levels and max(map(max, levels)) <= 100, levels


def test_maximal_cones_are_the_cones_no_other_contains():
    fans = [corpus.build(name) for name in corpus.CORPUS_NAMES]
    fans += [build_fan(len(r[0]), r, c) for r, c in [*oracles.SCALE_FANS.values(), oracles.RANK3_FAN]]
    for fan in fans:
        keys = [set(c.ray_generators) for c in fan.cones]
        want = [c for c, k in zip(fan.cones, keys) if not any(k < other for other in keys)]
        assert list(fan.maximal) == want


def test_fan_p2_has_seven_cones():
    fan = corpus.build("p2")
    assert len(fan.cones) == 7  # 0, three rays, three 2-cones


def test_fan_rejects_overlapping_cones():
    with pytest.raises(FanInvalid):
        build_fan(2, [(1, 0), (0, 1), (1, 1)], [[0, 1], [0, 2]])


def test_fan_single_cone_includes_faces():
    fan = build_fan(2, [(1, 0), (0, 1)], [[0, 1]])
    assert len(fan.cones) == 4


def test_properties_p2():
    p = fan_properties(corpus.build("p2"))
    assert p.is_full and p.is_complete and p.is_simplicial and p.is_regular
    assert p.cone_equals_span and not p.is_empty


def test_properties_p112():
    p = fan_properties(corpus.build("p112"))
    assert p.is_complete and p.is_simplicial
    assert not p.is_regular  # the weighted cone is singular


def test_properties_quadric_cone():
    p = fan_properties(corpus.build("quadric_cone"))
    assert not p.is_simplicial and not p.is_complete
    assert p.is_full


def test_properties_three_rays():
    p = fan_properties(corpus.build("three_rays"))
    assert p.is_full and not p.is_complete
    assert not p.cone_equals_span


def test_validate_preserves_ray_order():
    fan = build_fan(2, [(0, 1), (1, 0), (-1, -1)], [[0, 1], [1, 2], [2, 0]])
    assert list(fan.ray_index) == [(0, 1), (1, 0), (-1, -1)]


# --- Extreme rays, faces and duals against the removal references --------


def _sweep_cones():
    """Seeded pointed cones of rank 2-4: full-dimensional ones from random
    generators and lower-dimensional ones from random combinations of
    fewer basis vectors, with a redundant sum of two generators, a
    repeated or a scaled generator mixed in."""
    rng = random.Random(20261019)
    out = []
    while len(out) < 150:
        rank = 2 + len(out) % 3
        span = rank if len(out) % 2 else rng.randint(1, rank - 1)
        basis = [tuple(rng.randint(-2, 2) for _ in range(rank)) for _ in range(span)]
        gens = [
            tuple(sum(rng.randint(-1, 2) * b[i] for b in basis) for i in range(rank))
            for _ in range(rng.randint(1, rank + 1))
        ]
        gens = [g for g in gens if any(g)]
        if len(gens) > 1 and rng.random() < 0.5:
            a, b = rng.sample(gens, 2)
            gens.append(tuple(x + y for x, y in zip(a, b)))
        if gens and rng.random() < 0.3:
            gens.append(tuple(rng.choice((1, 2)) * x for x in rng.choice(gens)))
        if gens and not any(
            oracles.in_cone_eliminated([-x for x in g], gens, rank) for g in gens
        ):
            out.append((rank, gens))
    return out


def test_rays_faces_and_dual_match_the_removal_references():
    dims = set()
    for rank, gens in _sweep_cones():
        c = Cone.make(rank, gens)
        assert c.ray_generators == tuple(sorted(oracles.minimal_generators(gens, rank))), gens
        assert [f.ray_generators for f in c.faces()] == oracles.cone_faces(gens, rank), gens
        assert list(dual_cone(c).generators) == oracles.dual_cone_generators(gens, rank), gens
        dims.add((rank, c.dim()))
    assert {(r, d) for r in (2, 3, 4) for d in range(1, r + 1)} <= dims


# --- Integer Fourier-Motzkin against the Fraction reference ---------------


def _generator_sets():
    """Seeded generator lists in ranks 1-4, with zero and duplicate
    generators, opposite pairs (non-pointed cones) and fewer generators
    than the rank (lower-dimensional cones)."""
    rng = random.Random(20261018)
    out = [[], [(0,)], [(0, 0), (0, 0)], [(1, 0), (-1, 0)], [(2, 0, 0), (1, 0, 0)]]
    for k in range(240):
        rank = 1 + k % 4
        entry = 3 if rank < 4 else 2
        gens = [
            tuple(rng.randint(-entry, entry) for _ in range(rank))
            for _ in range(rng.randint(1, rank + 2))
        ]
        shape = k % 6
        if shape == 1:
            gens.append((0,) * rank)
        elif shape == 2:
            gens.append(rng.choice(gens))
        elif shape == 3:
            gens.append(tuple(-x for x in rng.choice(gens)))
        elif shape == 4:
            gens.append(tuple(2 * x for x in rng.choice(gens)))
        rng.shuffle(gens)
        out.append(gens)
    return out


def test_cone_inequalities_rows_and_order_match_fraction_reference():
    for gens in _generator_sets():
        rank = len(gens[0]) if gens else 2
        assert cone_inequalities(gens, rank) == oracles.facet_hrep(gens, rank), gens


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def test_cone_inequalities_are_the_facets():
    for gens in _generator_sets():
        rank = len(gens[0]) if gens else 2
        ineqs, eqs = cone_inequalities(gens, rank)
        dim = oracles.row_rank(gens)
        tight_sets = [tuple(g for g in gens if not _dot(f, g)) for f in ineqs]
        for f, tight in zip(ineqs, tight_sets):
            assert all(_dot(f, g) >= 0 for g in gens), (gens, f)
            assert oracles.row_rank(tight) == dim - 1, (gens, f)
        assert len(set(tight_sets)) == len(tight_sets), gens
        # Membership as in oracles.in_cone_eliminated, its rows computed once.
        ref_ineqs, ref_eqs = oracles.cone_inequalities(gens, rank)
        for v in _box(rank, 2 if rank < 4 else 1):
            expect = all(_dot(f, v) >= 0 for f in ref_ineqs) and not any(_dot(e, v) for e in ref_eqs)
            got = all(_dot(f, v) >= 0 for f in ineqs) and not any(_dot(e, v) for e in eqs)
            assert got == expect, (gens, v)


def test_cone_generators_from_inequalities_returns_no_redundant_ray():
    for gens in _generator_sets():
        rank = len(gens[0]) if gens else 2
        rays, lin = cone_generators_from_inequalities(gens, [], rank)
        span = list(lin) + [tuple(-x for x in v) for v in lin]
        for r in rays:
            others = [g for g in rays if g != r] + span
            assert not oracles.in_cone_eliminated(r, others, rank), (gens, r)


def _box(rank, r):
    return list(product(range(-r, r + 1), repeat=rank))


def test_cone_generators_from_inequalities_against_oracle():
    rng = random.Random(7)
    for k in range(80):
        rank = 2 + k % 2
        ineqs = [
            tuple(rng.randint(-2, 2) for _ in range(rank))
            for _ in range(rng.randint(0, rank + 1))
        ]
        eqs = [tuple(rng.randint(-2, 2) for _ in range(rank))] if k % 3 == 0 else []
        rays, lin = cone_generators_from_inequalities(ineqs, eqs, rank)
        gens = list(rays) + list(lin) + [tuple(-x for x in v) for v in lin]
        halfspaces = oracles.cone_halfspaces(gens, rank) if gens else None
        for v in _box(rank, 3):
            inside = oracles.in_halfspaces(v, ineqs) and not any(
                sum(a * b for a, b in zip(e, v)) for e in eqs
            )
            got = oracles.in_halfspaces(v, halfspaces) if gens else not any(v)
            assert got == inside, (ineqs, eqs, v)


def test_cone_intersect_against_oracle():
    for rank, seed in ((2, 1), (3, 2)):
        entry = 4 if rank == 2 else 2
        cones = _random_pointed_cones(seed, rank, rank, entry, 12)
        for a, b in zip(cones[::2], cones[1::2]):
            inter = Cone.make(rank, a).intersect(Cone.make(rank, b))
            ha, hb = oracles.cone_halfspaces(a, rank), oracles.cone_halfspaces(b, rank)
            hi = oracles.cone_halfspaces(list(inter.ray_generators), rank)
            for v in _box(rank, 3 if rank == 3 else 5):
                expect = oracles.in_halfspaces(v, ha) and oracles.in_halfspaces(v, hb)
                got = oracles.in_halfspaces(v, hi) if inter.ray_generators else not any(v)
                assert got == expect, (a, b, v)


# --- Fan validation against the angular-interval oracle --------------------


def _plane_fan(rng):
    """P2 or F_a (a <= 3) after up to four random star subdivisions, as a
    counterclockwise list of two-dimensional cones (u, v)."""
    if rng.random() < 0.3:
        rays = [(1, 0), (0, 1), (-1, -1)]
    else:
        rays = [(1, 0), (0, 1), (-1, rng.randint(0, 3)), (0, -1)]
    for _ in range(rng.randint(0, 4)):
        i = rng.randrange(len(rays))
        u, v = rays[i], rays[(i + 1) % len(rays)]
        rays.insert(i + 1, (u[0] + v[0], u[1] + v[1]))
    return [(rays[i], rays[(i + 1) % len(rays)]) for i in range(len(rays))]


def _plane_collections():
    """(cones, valid by construction or None): half are subdivided fans,
    some with a face of a cone also given; half add a crossing cone, a ray
    strictly inside a cone, a smaller cone inside a cone, or a random one."""
    rng = random.Random(11)
    out = []
    for k in range(120):
        cones = [list(c) for c in _plane_fan(rng)]
        u, v = rng.choice(cones)
        w = (u[0] + v[0], u[1] + v[1])
        kind = k % 8
        expect = True
        if kind == 1:
            cones.append([u])
        elif kind == 2:
            cones.append([u, v])
        elif kind == 4:
            j = next(i for i, c in enumerate(cones) if c[0] == v)
            x = cones[j][1]
            a, b = w, (v[0] + x[0], v[1] + x[1])
            if a[0] * b[1] - a[1] * b[0] > 0:
                cones.append([a, b])  # v lies strictly inside
            else:
                cones.append([w])
            expect = False
        elif kind == 5:
            cones.append([w])
            expect = False
        elif kind == 6:
            cones.append([u, w])
            expect = False
        elif kind == 7:
            a, b = [tuple(rng.randint(-3, 3) for _ in range(2)) for _ in range(2)]
            if a[0] * b[1] - a[1] * b[0] == 0:
                continue
            cones.append([a, b])
            expect = None
        rng.shuffle(cones)
        out.append((cones, expect))
    return out


def test_plane_fan_validation_agrees_with_angular_oracle():
    verdicts = []
    for cones, expect in _plane_collections():
        valid = oracles.plane_fan_is_valid(cones)
        if expect is not None:
            assert valid == expect, cones
        try:
            validate_fan([Cone.make(2, c) for c in cones])
            raised = False
        except FanInvalid:
            raised = True
        assert raised == (not valid), cones
        verdicts.append(valid)
    assert verdicts.count(True) >= 40 and verdicts.count(False) >= 40


E1, E2, E3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)
P3_CONES = [list(c) for c in combinations([E1, E2, E3, (-1, -1, -1)], 3)]
CUBE_CONES = [[a, b, c] for a in (E1, (-1, 0, 0)) for b in (E2, (0, -1, 0)) for c in (E3, (0, 0, -1))]
RANK3_CASES = {
    "p3_face_given": (P3_CONES + [[E1, E2]], True),
    "p3_ray_inside_a_cone": (P3_CONES + [[(1, 1, 1)]], False),
    "p3_ray_inside_a_face": (P3_CONES + [[(1, 1, 0)]], False),
    "p3_smaller_cone_inside_a_cone": (P3_CONES + [[E1, (1, 1, 1)]], False),
    "p3_shrunk_cone": ([[(1, 1, 0), E2, E3]] + [c for c in P3_CONES if c != [E1, E2, E3]], False),
    "cube_ray_given": (CUBE_CONES + [[E1]], True),
    "cube_cone_inside_an_orthant": (CUBE_CONES + [[(1, 1, 0), E3]], False),
    "cube_cone_across_orthants": (CUBE_CONES + [[(1, 1, 1), (-1, 1, 1), E2]], False),
}


@pytest.mark.parametrize("name", list(RANK3_CASES))
def test_rank_three_fan_variants(name):
    cones, valid = RANK3_CASES[name]
    if valid:
        validate_fan([Cone.make(3, c) for c in cones])
    else:
        with pytest.raises(FanInvalid):
            validate_fan([Cone.make(3, c) for c in cones])


@pytest.mark.parametrize("cones", [CUBE_CONES, P3_CONES + [[E1]]], ids=["p1cubed", "p3_and_a_ray"])
def test_validation_intersects_only_pairs_of_given_cones(monkeypatch, cones):
    calls = []
    intersect = Cone.intersect

    def counting(self, other):
        calls.append(1)
        return intersect(self, other)

    monkeypatch.setattr(Cone, "intersect", counting)
    validate_fan([Cone.make(3, c) for c in cones])
    k = len(cones)
    assert 0 < len(calls) <= k * (k - 1) // 2


def _simplicial_cones(seed, count):
    """Seeded simplicial cones of rank 2-4 with 2 to rank rays: every other
    one is spanned by rows of a random unimodular matrix, so it is regular;
    the rest by random primitive rays."""
    rng = random.Random(seed)
    cones = []
    while len(cones) < count:
        rank = rng.randint(2, 4)
        k = rng.randint(2, rank)
        if len(cones) % 2:
            rows = [[int(i == j) for j in range(rank)] for i in range(rank)]
            for _ in range(3 * rank):
                i, j = rng.sample(range(rank), 2)
                c = rng.choice((-2, -1, 1, 2))
                rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
            gens = rng.sample(rows, k)
        else:
            gens = [[rng.randint(-3, 3) for _ in range(rank)] for _ in range(k)]
        gens = [oracles._primitive(g) for g in gens]
        if oracles.row_rank(gens) == k:
            cones.append((rank, gens))
    return cones


def test_is_regular_is_a_smith_diagonal_of_ones():
    # A simplicial cone is regular when its rays extend to a basis of Z^n,
    # that is when the invariant factors of its ray matrix are all 1.
    verdicts = []
    for rank, gens in _simplicial_cones(36, 160):
        p = fan_properties(build_fan(rank, gens, [range(len(gens))]))
        expected = all(x == 1 for x in oracles.snf_diagonal(gens))
        assert p.is_simplicial and p.is_regular == expected, gens
        verdicts.append(expected)
    assert 0 < sum(verdicts) < len(verdicts)

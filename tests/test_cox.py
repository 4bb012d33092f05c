"""Multigraded coordinate rings, local charts, grading quality checks."""

import itertools
import math
import random

import pytest

from coxfan import corpus, cox, grading
from coxfan.cox import (
    BaseRingFlags,
    build_cox,
    gamma_is_iso,
    is_positively_graded,
    local_chart,
    strongly_graded_at,
)
from coxfan.grading import classify_subgroup, subgroup_of_whole_group
from coxfan.intlat import subgroup_contains
from coxfan.polyfan import build_fan

import oracles


FIELD_FLAGS = BaseRingFlags(field=True, noetherian=True, reduced=True)


def _cox(name, sub=None):
    g = grading.build_grading(corpus.build(name))
    b = sub(g) if sub else subgroup_of_whole_group(g)
    return build_cox(g, b, FIELD_FLAGS)


def _index_two(g):
    return classify_subgroup(g, [g.class_group.from_coords([2])])


def test_p2_irrelevant_generators():
    c = _cox("p2")
    # complement monomial of each maximal cone is a single variable
    assert sorted(c.irrelevant_generators) == [
        (0, 0, 1),
        (0, 1, 0),
        (1, 0, 0),
    ]
    assert c.restricted_irrelevant_generators == c.irrelevant_generators


def test_p2_restricted_to_index_two():
    c = _cox("p2", _index_two)
    # powers must land in even total degree: all six degree-2 monomials
    assert sorted(c.restricted_irrelevant_generators) == [
        (0, 0, 2),
        (0, 1, 1),
        (0, 2, 0),
        (1, 0, 1),
        (1, 1, 0),
        (2, 0, 0),
    ]
    maximal = c.grading.fan.maximal
    for m in maximal:
        key = tuple(sorted(m.ray_generators))
        assert c.m_exponents[key] == 2


def test_p1xp1_irrelevant_generators():
    c = _cox("p1xp1")
    # each maximal cone omits one ray per factor: products of two variables
    gens = sorted(c.irrelevant_generators)
    assert all(sum(e) == 2 and max(e) == 1 for e in gens)
    assert len(gens) == 4


def test_p2_m_exponents_whole_group():
    c = _cox("p2")
    maximal = c.grading.fan.maximal
    for m in maximal:
        key = tuple(sorted(m.ray_generators))
        assert c.m_exponents[key] == 1


def test_p2_local_chart():
    c = _cox("p2")
    fan = c.grading.fan
    sigma = next(
        m
        for m in fan.maximal
        if sorted(m.ray_generators) == [(0, 1), (1, 0)]
    )
    ch = local_chart(c, sigma)
    assert sorted(ch.degree_zero_generators) == [(0, 1, -1), (1, 0, -1)]
    assert ch.toric_relations == ()


def test_quadric_cone_chart_relation():
    c = _cox("quadric_cone")
    sigma = max(c.grading.fan.maximal, key=lambda m: m.dim())
    ch = local_chart(c, sigma)
    assert len(ch.degree_zero_generators) == 4
    assert len(ch.toric_relations) == 1
    rel = ch.toric_relations[0]
    assert sorted(rel) == [-1, -1, 1, 1]


def test_chart_rejects_foreign_cone():
    c = _cox("p2")
    from coxfan.polyfan import Cone

    foreign = Cone(ambient_rank=2, ray_generators=((7, 1),))
    with pytest.raises(cox.ConeNotInFan):
        local_chart(c, foreign)


def test_gamma_is_iso_on_the_nine_fans():
    # the rays of every corpus and scale fan span, so no witness
    for name in oracles.NINE_FANS:
        assert gamma_is_iso(_ring(_fan(name))) == (True, None), name


def test_gamma_iso_fails_when_rays_span_a_proper_sublattice():
    from coxfan.polyfan import build_fan

    g = grading.build_grading(build_fan(2, [(1, 0)], [[0]]))
    c = build_cox(g, subgroup_of_whole_group(g), FIELD_FLAGS)
    ok, witness = gamma_is_iso(c)
    assert not ok
    # the witness is a lattice direction invisible to every ray
    assert witness is not None and any(witness)


def test_strongly_graded_everywhere_when_small():
    for name in ("p2", "p1xp1"):
        c = _cox(name)
        for m in c.grading.fan.maximal:
            assert strongly_graded_at(c, m), name


def test_strongly_graded_fails_on_weighted_singular_chart():
    c = _cox("p112")
    failures = [
        sorted(m.ray_generators)
        for m in c.grading.fan.maximal
        if not strongly_graded_at(c, m)
    ]
    assert [(-1, -2), (1, 0)] in failures


def test_positively_graded():
    assert is_positively_graded(_cox("p2"))[0]
    assert is_positively_graded(_cox("p1xp1"))[0]
    assert is_positively_graded(_cox("p112"))[0]


# Rays (1,0), (2,3), (1,3): class group Z/3 x Z, every ray a unit ray.
TORSION_FAN = build_fan(2, [(1, 0), (2, 3), (1, 3)], [[0, 1], [1, 2]])


def _double_last_generator(g):
    gens = g.class_group.generators()
    gens[-1] = g.class_group.add(gens[-1], gens[-1])
    return classify_subgroup(g, gens)


@pytest.mark.parametrize("index", [1, 2])
@pytest.mark.parametrize("name", ["three_rays", "quadric_cone", "torsion"])
def test_negative_positivity_verdict_carries_its_witness(name, index):
    g = grading.build_grading(
        TORSION_FAN if name == "torsion" else corpus.build(name)
    )
    b = _double_last_generator(g) if index == 2 else subgroup_of_whole_group(g)
    assert b.index_in_A == index
    ok, (alpha, plus, minus) = is_positively_graded(build_cox(g, b))
    A = g.class_group
    assert not ok
    assert g.a_map(plus) == alpha and g.a_map(minus) == A.neg(alpha)
    assert min(plus) >= 0 and min(minus) >= 0
    assert not alpha.is_zero() and subgroup_contains(b.generators, alpha, A)


def test_degree_zero_independent_of_subgroup():
    # the chart rings only see degree zero, so shrinking B changes nothing
    c_whole = _cox("p2")
    c_half = _cox("p2", _index_two)
    for m in c_whole.grading.fan.maximal:
        a = sorted(local_chart(c_whole, m).degree_zero_generators)
        b = sorted(local_chart(c_half, m).degree_zero_generators)
        assert a == b


def _fan(name):
    if name in oracles.SCALE_FANS:
        rays, max_cones = oracles.SCALE_FANS[name]
        return build_fan(len(rays[0]), rays, max_cones)
    return corpus.build(name)


def _ring(fan):
    g = grading.build_grading(fan)
    return build_cox(g, subgroup_of_whole_group(g), FIELD_FLAGS)


def _degree_zero_box(c, bound):
    """The degree-0 vectors of [-bound, bound]^n."""
    g = c.grading
    box = itertools.product(range(-bound, bound + 1), repeat=g.num_rays)
    return [v for v in box if g.a_map(v).is_zero()]


def _chart_against_reference(c, cone, box):
    """The chart's generators and the reference's, after checking that
    each generator has degree 0 and is >= 0 on the cone's rays, that the
    two sets are equal where the cone is full-dimensional, and, with a
    workspace box, that each set generates the other."""
    g = c.grading
    new = local_chart(c, cone).degree_zero_generators
    old = oracles.degree_zero_monoid_generators(c, cone)
    on_cone = [g.delta_basis.index(r) for r in cone.ray_generators]
    for v in new:
        assert g.a_map(v).is_zero() and all(v[i] >= 0 for i in on_cone), (cone, v)
    if cone.dim() == cone.ambient_rank:
        assert new == old, cone
    if box is not None:
        workspace = [v for v in box if all(v[i] >= 0 for i in on_cone)]
        assert oracles.monoid_generates(old, new, workspace), cone
        assert oracles.monoid_generates(new, old, workspace), cone
    return new, old


@pytest.mark.parametrize("name", oracles.NINE_FANS)
def test_chart_generators_match_the_degree_zero_reference(name):
    # On every cone, the images of the dual cone's Hilbert basis against
    # the Hilbert basis of the degree-0 monoid computed in the coordinates
    # of the degree-0 lattice: equal on full-dimensional cones, and
    # generating the same monoid in [-2, 2]^n on every cone.
    c = _ring(_fan(name))
    box = _degree_zero_box(c, 2)
    for cone in c.grading.fan.cones:
        _chart_against_reference(c, cone, box)


def test_chart_generators_match_the_reference_on_the_rank_three_fan():
    # Every face of the singular rank-3 fan, whose degree-0 vectors have
    # large entries, and its cheapest maximal cone (multiplicity 99).
    rays, max_cones = oracles.RANK3_FAN
    fan = build_fan(3, rays, max_cones)
    c = _ring(fan)
    cheap = {rays[1], rays[6], rays[7]}
    for cone in fan.cones:
        if cone.dim() < 3 or set(cone.ray_generators) == cheap:
            _chart_against_reference(c, cone, None)


@pytest.mark.parametrize(
    "rank, rays, max_cones",
    [(3, [(1, 0, 1), (0, 1, 1)], [[0, 1]]), (2, [(1, 0)], [[0]]), (2, [], [[]])],
    ids=["plane_in_rank_3", "ray_in_rank_2", "empty"],
)
def test_chart_generators_generate_the_reference_when_the_rays_do_not_span(rank, rays, max_cones):
    # Here c(u) = (u·u_ρ)_ρ has a kernel, and on the zero cone the images
    # of σ^∨'s lineality basis may add a dependent unit pair, ±(1, 1) on
    # the first fan; the two sets still generate the same monoid.  The
    # empty fan has no degree-0 vector but 0, so no generators.
    fan = build_fan(rank, rays, max_cones)
    c = _ring(fan)
    box = _degree_zero_box(c, 2)
    for cone in fan.cones:
        new, old = _chart_against_reference(c, cone, box)
        if not rays:
            assert new == old == ()


def test_local_chart_builds_one_hilbert_basis(monkeypatch):
    c = _cox("quadric_cone")
    calls = []
    real = cox.hilbert_basis
    monkeypatch.setattr(cox, "hilbert_basis", lambda *a: calls.append(a) or real(*a))
    cones = c.grading.fan.cones
    for cone in cones:
        local_chart(c, cone)
    assert len(calls) == len(cones)


# (fan, diagonal of B in class-group coordinates); the dp6 and p1cubed
# subgroups were past the former total-degree cap walk's point cap.
RESTRICTED_CASES = [
    ("p1xp1", (1, 2)),
    ("p2", (3,)),
    ("p112", (3,)),
    ("f2", (2, 2)),
    ("dp6", (4, 1, 1, 1)),
    ("p1cubed", (4, 1, 1)),
]


@pytest.mark.parametrize("name,diagonal", RESTRICTED_CASES, ids=[n for n, _ in RESTRICTED_CASES])
def test_restricted_irrelevant_against_brute_force(name, diagonal):
    g = grading.build_grading(_fan(name))
    A = g.class_group
    assert not A.torsion_orders and A.free_rank == len(diagonal)
    rows = [[d * (i == j) for j in range(len(diagonal))] for i, d in enumerate(diagonal)]
    c = build_cox(g, classify_subgroup(g, map(A.from_coords, rows)))
    zhats = [c.zhat[m.ray_generators] for m in g.fan.maximal]
    degrees = [d.coords() for d in g.ray_degrees]
    # generators lie in Zhat + [0, e)^n, e = lcm(diagonal); the box reaches e + 1
    e = math.lcm(*diagonal)
    members = [
        v
        for v in itertools.product(range(e + 2), repeat=g.num_rays)
        if all(
            sum(x * d[i] for x, d in zip(v, degrees)) % m == 0
            for i, m in enumerate(diagonal)
        )
        and any(all(x >= y for x, y in zip(v, z)) for z in zhats)
    ]
    # a member one step above another is not minimal; this keeps the
    # quadratic oracle small
    held = set(members)
    candidates = [
        v
        for v in members
        if not any(x and v[:j] + (x - 1,) + v[j + 1 :] in held for j, x in enumerate(v))
    ]
    assert sorted(c.restricted_irrelevant_generators) == sorted(
        oracles.minimalize(candidates)
    )
    assert c.restricted_irrelevant_generators != c.irrelevant_generators


def test_restricted_irrelevant_past_the_point_cap_is_refused():
    # e = 16 on six variables: 16^6 / 16 box points per maximal cone
    g = grading.build_grading(_fan("p1cubed"))
    A = g.class_group
    b = classify_subgroup(g, [A.from_coords([16, 0, 0]), *A.generators()[1:]])
    with pytest.raises(grading.FiberTooLarge):
        build_cox(g, b)


# (fan, diagonal of B) with A = Z^2 and A/B = Z/2 x Z/3: the variables'
# degrees have orders 2 and 3 there, none has order 6.
EXPONENT_CASES = [("p1xp1", (2, 3)), ("f2", (2, 3))]


@pytest.mark.parametrize("name,diagonal", EXPONENT_CASES, ids=[n for n, _ in EXPONENT_CASES])
def test_restricted_irrelevant_box_is_the_exponent_box(name, diagonal, monkeypatch):
    # The box [0, e)^n of each maximal cone holds e^n / [A : B] points of
    # L_B, with e the exponent of A/B, which is the lcm of the variables'
    # orders and not the largest; the cap counts those points.  The
    # generators alone do not show e: a minimal one exceeds Zhat in x_j by
    # less than the order of deg x_j.
    g = grading.build_grading(_fan(name))
    A = g.class_group
    rows = [[d * (i == j) for j in range(len(diagonal))] for i, d in enumerate(diagonal)]
    b = classify_subgroup(g, map(A.from_coords, rows))
    orders = [
        math.lcm(*(m // math.gcd(x, m) for x, m in zip(d.coords(), diagonal)))
        for d in g.ray_degrees
    ]
    e = math.lcm(*diagonal)
    assert math.lcm(*orders) == e > max(orders)
    counts = []
    enumerate_points = cox._lattice_points

    def counting(*args):
        points = list(enumerate_points(*args))
        counts.append(len(points))
        return points

    monkeypatch.setattr(cox, "_lattice_points", counting)
    build_cox(g, b)
    assert counts == [e ** g.num_rays // b.index_in_A] * len(g.fan.maximal)


def _in_lattice(echelon, x):
    """Whether x is an integer combination of the rows of an echelon
    basis, by clearing each pivot column in turn."""
    x = list(x)
    for row in echelon:
        c = next(j for j, a in enumerate(row) if a)
        if x[c] % row[c]:
            return False
        q = x[c] // row[c]
        x = [a - q * b for a, b in zip(x, row)]
    return not any(x)


def _coset_cases(count, full_rank):
    """Seeded (basis, v0, pos, top): r = 1-3 independent rows in Z^n, pos
    a set of k positions, the parts' lattice L (the rows at pos) of rank
    r, and the scan's reach top, with (top + 1)^k at most 4,000.  When
    full_rank, k = r and top = e, the exponent of Z^k / L: each minimal
    part lies in [0, e)^k.  Otherwise k = r + 1, a row is positive at pos,
    as a chart's parts have, and top is the reference bound of the
    Minkowski–Weyl argument.  Some rows are 0 at pos, some full-rank L are
    diagonal, where e is the lcm of the unit vectors' orders and can
    exceed each of them, and rows are mixed."""
    rng = random.Random(20261020 + full_rank)
    out = []
    while len(out) < count:
        r = rng.randint(1, 3)
        k = r if full_rank else r + 1
        n = k + rng.randint(0, 2)
        pos = tuple(sorted(rng.sample(range(n), k)))
        rows = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(r)]
        if not full_rank:
            for p in pos:
                rows[0][p] = rng.randint(1, 2)
        elif rng.random() < 0.3:
            for i, row in enumerate(rows):
                for j, p in enumerate(pos):
                    row[p] = rng.randint(1, 4) if i == j else 0
        if n > k and rng.random() < 0.5:
            rows.append([0 if j in pos else rng.randint(-2, 2) for j in range(n)])
        if len(rows) > 1:
            i, j = rng.sample(range(len(rows)), 2)
            rows[i] = [a + rng.choice((-1, 1)) * b for a, b in zip(rows[i], rows[j])]
        parts = [[row[p] for p in pos] for row in rows]
        if oracles.row_rank(rows) != len(rows) or oracles.row_rank(parts) != r:
            continue
        v0 = tuple(rng.randint(-4, 4) for _ in range(n))
        if full_rank:
            top = max(oracles.snf_diagonal(parts))
        else:
            h = oracles._hermite(parts, k)
            b = [tuple(row[i] for row in h) for i in range(k)]
            top = max(oracles.part_bounds(b, [v0[p] for p in pos]))
        if (top + 1) ** k <= 4000:
            out.append((tuple(map(tuple, rows)), v0, pos, top))
    return out


def _check_coset_minima(basis, v0, pos, top):
    """The minima and kernel of ``_coset_minima`` against a scan of the
    box [0, top]^k for the coset v0|pos + L, minimalized."""
    lattice = oracles._hermite(basis, len(v0))
    parts = oracles._hermite([[row[p] for p in pos] for row in basis], len(pos))
    shift = [v0[p] for p in pos]
    scan = [
        q for q in itertools.product(range(top + 1), repeat=len(pos))
        if _in_lattice(parts, [a - b for a, b in zip(q, shift)])
    ]
    minima, kernel = cox._coset_minima(basis, v0, pos)
    assert [tuple(v[p] for p in pos) for v in minima] == oracles.minimalize(scan)
    assert all(_in_lattice(lattice, [a - b for a, b in zip(v, v0)]) for v in minima)
    assert len(kernel) == len(lattice) - len(parts) == oracles.row_rank(kernel)
    assert all(_in_lattice(lattice, w) and not any(w[p] for p in pos) for w in kernel)


def test_coset_minima_of_full_rank_parts_match_a_box_scan(monkeypatch):
    # Each minimal part lies in [0, e)^k, e the exponent of Z^k / L; the
    # scan reaches e.  The box holds e^k / [Z^k : L] points, which the
    # bound max(orders) of the unit vectors would cut where e is larger.
    counts = []
    enumerate_points = cox._lattice_points

    def counting(*args):
        points = list(enumerate_points(*args))
        counts.append(len(points))
        return points

    monkeypatch.setattr(cox, "_lattice_points", counting)
    cut = 0
    for basis, v0, pos, e in _coset_cases(60, full_rank=True):
        parts = [[row[p] for p in pos] for row in basis]
        index = math.prod(oracles.snf_diagonal(parts))
        echelon = oracles._hermite(parts, len(pos))
        orders = [
            next(m for m in itertools.count(1)
                 if _in_lattice(echelon, [m * (i == j) for i in range(len(pos))]))
            for j in range(len(pos))
        ]
        cut += max(orders) < e
        counts.clear()
        _check_coset_minima(basis, v0, pos, e)
        assert counts == [e ** len(pos) // index], (basis, pos)
        assert cox._part_lattice(basis, pos)[3] == e ** len(pos) // index
    assert cut


def test_coset_minima_refuse_a_full_rank_box_from_its_point_count(monkeypatch):
    # L = Z^2 ⊕ 1000·Z: e = 1000, and the box [0, e)^3 holds 10^6 points
    # of every coset, past the cap, so it is refused before any is listed.
    listed = []
    monkeypatch.setattr(cox, "_lattice_points", lambda *args: listed.append(args))
    basis = ((1, 0, 0), (0, 1, 0), (0, 0, 1000))
    assert cox._part_lattice(basis, (0, 1, 2))[3] == 10**6
    with pytest.raises(grading.FiberTooLarge, match=str(grading.FIBER_POINT_CAP)):
        cox._coset_minima(basis, (0, 0, 0), (0, 1, 2))
    assert listed == []


def test_coset_minima_of_parts_without_full_rank_match_a_box_scan():
    for basis, v0, pos, top in _coset_cases(40, full_rank=False):
        _check_coset_minima(basis, v0, pos, top)

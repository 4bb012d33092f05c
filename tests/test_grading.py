"""Class groups, ray degrees, Picard subgroups, degree fibers."""

import itertools
import random
from collections import OrderedDict

import pytest

from coxfan import corpus, grading
from coxfan.grading import (
    classify_subgroup,
    degree_fiber,
    picard_group,
    subgroup_of_whole_group,
)
from coxfan.intlat import INFINITE
from coxfan.polyfan import UnboundedFiber, build_fan

import oracles
from oracles import finite_fibers


def _degrees(g):
    return [d.coords() for d in g.ray_degrees]


def test_p2_grading(corpus_gradings):
    g = corpus_gradings["p2"]
    assert g.class_group.free_rank == 1 and not g.class_group.torsion_orders
    assert _degrees(g) == [(1,), (1,), (1,)]


def test_p1xp1_grading(corpus_gradings):
    g = corpus_gradings["p1xp1"]
    assert g.class_group.free_rank == 2
    assert _degrees(g) == [(1, 0), (1, 0), (0, 1), (0, 1)]


def test_p112_grading(corpus_gradings):
    g = corpus_gradings["p112"]
    assert g.class_group.free_rank == 1
    assert _degrees(g) == [(1,), (2,), (1,)]


def test_quadric_cone_grading(corpus_gradings):
    g = corpus_gradings["quadric_cone"]
    assert g.class_group.free_rank == 1 and not g.class_group.torsion_orders


def test_single_ray_trivial_class_group():
    from coxfan.polyfan import build_fan

    g = grading.build_grading(build_fan(2, [(1, 0)], [[0]]))
    assert g.class_group.order() == 1


def test_grading_against_snf_oracle(corpus_gradings):
    for name in ("p2", "p1xp1", "p112"):
        g = corpus_gradings[name]
        rows = [list(r) for r in g.delta_basis]
        # cokernel torsion of the transposed ray matrix matches the oracle
        diag = oracles.snf_diagonal(rows)
        torsion = [d for d in diag if d > 1]
        assert list(g.class_group.torsion_orders) == torsion


def test_pic_p2_is_whole_group(corpus_gradings):
    g = corpus_gradings["p2"]
    pic = picard_group(g)
    assert [x.coords() for x in pic.generators] == [(1,)]


def test_pic_p112_is_index_two(corpus_gradings):
    g = corpus_gradings["p112"]
    pic = picard_group(g)
    assert [x.coords() for x in pic.generators] == [(2,)]


def test_pic_quadric_cone_trivial(corpus_gradings):
    g = corpus_gradings["quadric_cone"]
    assert picard_group(g).generators == ()


def test_pic_against_cartier_oracle():
    # a degree d class on the weighted fan is Cartier iff the oracle can
    # solve the per-cone integral linear systems for a representative divisor
    spec = corpus._SPECS["p112"]
    rays, cones = spec["rays"], spec["max_cones"]
    assert oracles.divisor_is_cartier(rays, cones, [2, 0, 0])
    assert not oracles.divisor_is_cartier(rays, cones, [1, 0, 0])
    spec = corpus._SPECS["quadric_cone"]
    assert not oracles.divisor_is_cartier(
        spec["rays"], spec["max_cones"], [1, 0, 0, 0]
    )
    assert oracles.divisor_is_cartier(
        spec["rays"], spec["max_cones"], [0, 0, 0, 0]
    )
    # On one ray the forms are partly free: u = (0, -1) takes (2, 1) to -1.
    assert oracles.divisor_is_cartier([(2, 1)], [[0]], [1])
    # u·(1, 0, 0) = -1 and u·(1, 2, 0) = 0 force u_2 = 1/2, whatever u_3 is.
    assert not oracles.divisor_is_cartier([(1, 0, 0), (1, 2, 0)], [[0, 1]], [1, 0])


_E4 = [tuple(int(i == j) for j in range(4)) for i in range(4)]
CARTIER_FANS = {
    **{name: (corpus.fan_spec(name)["rays"], corpus.fan_spec(name)["max_cones"])
       for name in corpus.CORPUS_NAMES},
    **oracles.SCALE_FANS,
    "p4": (_E4 + [(-1, -1, -1, -1)], [list(c) for c in itertools.combinations(range(5), 4)]),
    "p1_4": oracles.P1_4,
    "p123": ([(1, 0), (0, 1), (-2, -3)], [[0, 1], [1, 2], [2, 0]]),
}


@pytest.mark.parametrize("name", list(CARTIER_FANS))
def test_cartier_lattice_matches_the_per_cone_intersection(name):
    rays, max_cones = CARTIER_FANS[name]
    g = grading.build_grading(build_fan(len(rays[0]), rays, max_cones))
    assert grading.cartier_lattice(g) == oracles.cartier_lattice(rays, max_cones)


@pytest.mark.parametrize("name", list(CARTIER_FANS))
def test_is_cartier_decides_the_per_cone_systems(name):
    # Seeded divisors, each with its classes' verdict: a divisor is Cartier
    # exactly when its class lies in Pic.
    rays, max_cones = CARTIER_FANS[name]
    g = grading.build_grading(build_fan(len(rays[0]), rays, max_cones))
    rng = random.Random(f"cartier {name}")
    seen = set()
    for _ in range(40):
        a = [rng.randint(-3, 3) for _ in rays]
        want = oracles.divisor_is_cartier(rays, max_cones, a)
        assert grading.is_cartier(g, g.a_map(tuple(a))) == want, a
        seen.add(want)
    assert True in seen


def test_pic_big_iff_simplicial(corpus_gradings):
    from coxfan.polyfan import fan_properties

    for name, g in corpus_gradings.items():
        pic = picard_group(g)
        b = classify_subgroup(g, list(pic.generators))
        props = fan_properties(g.fan)
        assert b.is_big == props.is_simplicial, name
        whole = subgroup_of_whole_group(g)
        pic_is_whole = b.is_big and b.index_in_A == 1
        assert pic_is_whole == props.is_regular, name


def test_subgroup_classification_p2(corpus_gradings):
    g = corpus_gradings["p2"]
    A = g.class_group
    b = classify_subgroup(g, [A.from_coords([2])])
    assert b.index_in_A == 2 and b.is_big and b.is_small


def test_subgroup_classification_p112(corpus_gradings):
    g = corpus_gradings["p112"]
    A = g.class_group
    whole = subgroup_of_whole_group(g)
    assert whole.is_big and not whole.is_small


def test_subgroup_classification_quadric(corpus_gradings):
    g = corpus_gradings["quadric_cone"]
    trivial = classify_subgroup(g, [])
    assert trivial.index_in_A == INFINITE
    assert not trivial.is_big and trivial.is_small


def test_degree_fiber_p2(corpus_gradings):
    g = corpus_gradings["p2"]
    A = g.class_group
    assert finite_fibers(g)
    for d in range(5):
        fiber = degree_fiber(g, A.from_coords([d]))
        assert len(fiber) == oracles.count_monomials_total_degree(3, d)
    assert degree_fiber(g, A.from_coords([-1])) == []


def test_degree_fiber_weighted(corpus_gradings):
    g = corpus_gradings["p112"]
    A = g.class_group
    fiber = degree_fiber(g, A.from_coords([2]))
    assert sorted(fiber) == sorted(
        oracles.monomials_of_weighted_degree([1, 2, 1], 2)
    )


def test_infinite_fibers_on_affine_fan():
    from coxfan.polyfan import build_fan

    g = grading.build_grading(build_fan(2, [(1, 0), (0, 1)], [[0, 1]]))
    # class group is trivial here; the zero degree has an infinite fiber
    assert not finite_fibers(g)


# Fans outside the corpus: the Hirzebruch surface F2, projective 3-space,
# and P2 / mu_3, whose class group Z + Z/3 has torsion.
EXTRA_FANS = {
    "f2": (2, [(1, 0), (0, 1), (-1, 2), (0, -1)], [[0, 1], [1, 2], [2, 3], [3, 0]]),
    "p3": (
        3,
        [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)],
        [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]],
    ),
    "p2_mod_3": (2, [(2, -1), (-1, 2), (-1, -1)], [[0, 1], [1, 2], [2, 0]]),
}


def _extra_grading(name):
    from coxfan.polyfan import build_fan

    rank, rays, cones = EXTRA_FANS[name]
    return grading.build_grading(build_fan(rank, rays, cones))


def _brute_fiber(g, alpha, total):
    """Exponent vectors v >= 0 with sum(v) <= total and degree alpha."""
    return sorted(
        v
        for v in itertools.product(range(total + 1), repeat=g.num_rays)
        if sum(v) <= total and g.a_map(v) == alpha
    )


def _degree_box(g, lo, hi):
    A = g.class_group
    tors = [range(t) for t in A.torsion_orders]
    free = [range(lo, hi)] * A.free_rank
    return [A.from_coords(list(c)) for c in itertools.product(*tors, *free)]


def _sum_bound(g, alpha):
    """An integer weight w with w . deg(ray) >= 1 for every ray bounds
    sum(v) by w . alpha on the fiber of alpha."""
    for w in itertools.product(range(-3, 4), repeat=g.class_group.free_rank):
        if all(sum(a * b for a, b in zip(w, d.free_part)) >= 1 for d in g.ray_degrees):
            return max(0, sum(a * b for a, b in zip(w, alpha.free_part)))
    raise AssertionError("no positive weight")


@pytest.mark.parametrize("name", sorted(EXTRA_FANS))
def test_degree_fiber_matches_brute_force_beyond_corpus(name):
    g = _extra_grading(name)
    assert finite_fibers(g)
    for alpha in _degree_box(g, -1, 4):
        assert degree_fiber(g, alpha) == _brute_fiber(g, alpha, _sum_bound(g, alpha))


def test_uncapped_fiber_refused_on_quadric_cone(corpus_gradings):
    g = corpus_gradings["quadric_cone"]
    assert not finite_fibers(g)
    with pytest.raises(UnboundedFiber):
        degree_fiber(g, g.class_group.zero())


@pytest.mark.parametrize(
    "name", list(corpus.CORPUS_NAMES) + sorted(oracles.SCALE_FANS) + ["rank3"]
)
def test_finite_fiber_check_agrees_with_the_cone_test(name, corpus_gradings):
    # One check per grading, with no degree: it passes exactly where
    # minus the sum of the rays lies in their cone.
    if name == "rank3":
        rays, max_cones = oracles.RANK3_FAN
        g = grading.build_grading(build_fan(len(rays[0]), rays, max_cones))
    else:
        g = corpus_gradings[name] if name in corpus_gradings else _scale_grading(name)
    if finite_fibers(g):
        grading.require_finite_fibers(g)
    else:
        with pytest.raises(UnboundedFiber, match="infinite"):
            grading.require_finite_fibers(g)


def _random_polyhedron(rng, k):
    """Rows and offsets of a polyhedron in Z^k: a random box, so that it
    is bounded, plus a few random half-spaces."""
    m, b = [], []
    for j in range(k):
        e = tuple(int(i == j) for i in range(k))
        m += [e, tuple(-x for x in e)]
        b += [rng.randint(-1, 2), rng.randint(-1, 2)]
    for _ in range(rng.randint(0, 3)):
        m.append(tuple(rng.randint(-3, 3) for _ in range(k)))
        b.append(rng.randint(-2, 6))
    return tuple(m), tuple(b)


def test_lattice_points_match_brute_force():
    rng = random.Random(9)
    for _ in range(300):
        k, n = rng.randint(0, 4), rng.randint(1, 5)
        m, b = _random_polyhedron(rng, k)
        v0 = tuple(rng.randint(-5, 5) for _ in range(n))
        basis = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(k)]
        want = [
            tuple(x + sum(c * r[i] for c, r in zip(u, basis)) for i, x in enumerate(v0))
            for u in itertools.product(range(-2, 3), repeat=k)
            if all(y + sum(a * c for a, c in zip(row, u)) >= 0 for row, y in zip(m, b))
        ]
        assert list(grading._lattice_points(m, b, v0, basis)) == want, (m, b, v0, basis)


def test_unbounded_and_oversized_fibers_are_refused():
    with pytest.raises(UnboundedFiber):
        grading._lattice_points(((1,),), (0,), (0,), [(1,)])
    cap = grading.FIBER_POINT_CAP
    # v = (total - x, x) >= 0: total + 1 points
    assert len(grading._cone_points([(1, -1)], (cap - 1, 0))) == cap
    with pytest.raises(grading.FiberTooLarge, match=str(cap)):
        grading._cone_points([(1, -1)], (cap, 0))


@pytest.fixture
def fresh_fiber_cache(monkeypatch):
    monkeypatch.setattr(grading, "_FIBERS", OrderedDict())
    monkeypatch.setattr(grading, "_fiber_points", 0)


def _scale_grading(name):
    rays, max_cones = oracles.SCALE_FANS[name]
    return grading.build_grading(build_fan(len(rays[0]), rays, max_cones))


@pytest.mark.parametrize("name", list(corpus.CORPUS_NAMES) + sorted(oracles.SCALE_FANS))
def test_cached_fibers_equal_the_enumeration(name, corpus_gradings, fresh_fiber_cache):
    g = corpus_gradings[name] if name in corpus_gradings else _scale_grading(name)
    if not finite_fibers(g):
        with pytest.raises(UnboundedFiber):
            degree_fiber(g, g.class_group.zero())
        assert not grading._FIBERS  # a refusal is not kept
        return
    lattice = grading._degree_zero_lattice(g.delta_basis)
    for _ in range(2):  # enumerated, then read from the cache
        for alpha in _degree_box(g, -1, 3):
            want = grading._cone_points(lattice, g.a_map.lift(alpha))
            assert degree_fiber(g, alpha) == want, alpha
    assert grading._FIBERS


def test_fiber_lists_are_copies(corpus_gradings):
    g = corpus_gradings["p2"]
    alpha = g.class_group.from_coords([2])
    got = degree_fiber(g, alpha)
    want = list(got)
    got[0] = (9, 9, 9)
    got.append((0, 0, 0))
    assert degree_fiber(g, alpha) == want


def test_fiber_cache_holds_at_most_the_point_cap(corpus_gradings, fresh_fiber_cache, monkeypatch):
    # On P2 the fiber of degree d has (d + 1)(d + 2)/2 points: 1, 3, 6, 10,
    # 15, 21.  With the cap at 12, degrees 4 and 5 are refused every time.
    monkeypatch.setattr(grading, "FIBER_POINT_CAP", 12)
    g = corpus_gradings["p2"]
    for d in (0, 1, 2, 3, 4, 1, 0, 5, 2, 3, 4, 3, 0):
        alpha = g.class_group.from_coords([d])
        size = oracles.count_monomials_total_degree(3, d)
        if size > 12:
            with pytest.raises(grading.FiberTooLarge):
                degree_fiber(g, alpha)
        else:
            assert len(degree_fiber(g, alpha)) == size
            assert next(reversed(grading._FIBERS))[1] == g.a_map.lift(alpha)
        held = sum(map(len, grading._FIBERS.values()))
        assert held == grading._fiber_points <= 12, d


def test_fiber_cache_drops_the_least_recently_used(corpus_gradings, fresh_fiber_cache, monkeypatch):
    monkeypatch.setattr(grading, "FIBER_POINT_CAP", 9)
    g = corpus_gradings["p2"]
    alpha = {d: g.class_group.from_coords([d]) for d in range(3)}
    for d in (1, 2, 1, 0):  # 3 + 6 points, then degree 1 is used again
        degree_fiber(g, alpha[d])
    assert [k[1] for k in grading._FIBERS] == [g.a_map.lift(alpha[d]) for d in (1, 0)]


@pytest.mark.parametrize(
    "name,want",
    [
        ("p2", (1, 1, 1)),
        ("p1xp1", (1, 1, 1, 1)),
        ("p3", (1, 1, 1, 1)),
        ("p1cubed", (1,) * 6),
        ("f2", (1, 1, 1, 3)),
        ("p112", (1, 2, 1)),
        ("three_rays", None),
        ("quadric_cone", None),
    ],
)
def test_positive_weight_vector(name, want, corpus_gradings):
    g = corpus_gradings[name] if name in corpus_gradings else _scale_grading(name)
    w = grading.positive_weight_vector(g.delta_basis)
    assert w == want
    if w is not None:
        assert not any(sum(x * u[k] for x, u in zip(w, g.delta_basis)) for k in range(g.fan.ambient_rank))

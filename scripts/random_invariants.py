#!/usr/bin/env python3
"""Randomized invariant checks for the exact-arithmetic kernels.

Verifies the double-dual identity and Hilbert-basis generation on random
pointed cones against the brute-force oracles used by the test suite, and
the Buchberger S-pair criterion on random ideals with rational
coefficients, taken as rank-1 submodules (elements ``(p,)``).  With
``--round-trips N`` it also checks, on N random monomial ideals I of P2,
P1xP1 and F2 and N generated Cl-homogeneous binomial ideals or rank-2
modules (``oracles.random_homogeneous_elements``) of P2, P1xP1, F2,
P(1,1,2), quadric_cone, three_rays, P3, dP6 and (P1)^3, that
xi_preimage(xi_forward(I)) is the saturation of I (the iterated colon for
monomial ideals; not on quadric_cone and three_rays, whose degree fibers
are infinite) and that
xi_forward(lift_finite_type(T)) equals T for the family T of I, and so
do the lift's charts saturated one by one with no cache, and that the
lift's generators are those of ``oracles.lift_by_groebner``, the lift
with none of its shortcuts.  With
``--torsion N`` it checks the kill table of N random quotients of rank 1
or 2 on those nine fans, by monomial relations (exponents up to 20), by
generated binomial ones, or (every third) by a fattened ideal of the
torus-fixed points, against the reference Groebner engine, that the
chart intersection of the sheaf cover's kernels is the reference
intersection of the maximal cones' kernels, and that is_torsion agrees
with the sheaf being zero.  With ``--sections N`` it checks global
sections of N random free modules S(−d_1) ⊕ … of rank 1–3 at random
classes α of the seven complete fans against the lattice count
Σ #(P_(α−d_i) ∩ M): at a Cartier α, via_twist's own windows, via_shift
and the public via_twist (which reads via_shift's windows there);
elsewhere the public via_twist, its twisted windows, with each d_i
Cartier so that S(−d_i)~ ⊗ O(α) ≅ O(α − d_i).  In both modes the count
of coordinates common to the chart windows, which a free module's
sections read off the first window, must equal the intersection of every
window listed in full (``oracles.common_coordinates_by_intersection``)
and the rows-and-rank equalizer of those windows.  With
``--relations N`` it checks N generated binomial ideals or rank-2
modules, taken as relations, on P2, P1xP1, P(1,1,2), F2, dP6 and P3, at
up to four classes with entries −1 … 2, in both modes: at the level
where ``global_sections_degree`` stops, the equalizer, whose overlap
classes are Groebner normal forms, must give its dimension and so must a
reference equalizer that reads every window's quotient off a dense rref
of every fiber multiple of the kernel, with no Groebner basis.

Usage:
    python3 scripts/random_invariants.py --cones 50 --ideals 25 --seed 7
    python3 scripts/random_invariants.py --cones 0 --ideals 0 --round-trips 200
    python3 scripts/random_invariants.py --cones 0 --ideals 0 --torsion 200
    python3 scripts/random_invariants.py --cones 0 --ideals 0 --sections 200
    python3 scripts/random_invariants.py --cones 0 --ideals 0 --relations 90
"""

import argparse
import functools
import itertools
import os
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from operator import add
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))
import oracles  # noqa: E402

from coxfan import corpus, grading, polyfan  # noqa: E402
from coxfan.cox import build_cox  # noqa: E402
from coxfan.gradmod import (  # noqa: E402
    GradedModulePresentation,
    GradedSubmodule,
    chart_intersection,
    free_module,
    is_torsion,
    kill_table,
    saturate_at,
    saturate_submodule,
    submodules_equal,
)
from coxfan.groeb import (  # noqa: E402
    ELIM,
    POT,
    _s_vector,
    m_is_zero,
    m_leading_term,
    m_normal_form,
    module_groebner_basis,
    poly,
)
from coxfan.polyfan import Cone, dual_cone, hilbert_basis  # noqa: E402
from coxfan.sheaf import (  # noqa: E402
    _common_coordinates,
    _equalizer,
    _level_invariants,
    _overlap_plan,
    family_equal,
    global_sections_degree,
    is_zero_sheaf,
    lift_finite_type,
    sheafify,
    xi_forward,
    xi_preimage,
)


@dataclass(frozen=True)
class RunConfig:
    cones: int = 50
    ideals: int = 25
    round_trips: int = 0
    torsion: int = 0
    sections: int = 0
    relations: int = 0
    seed: int = 7
    entry_bound: int = 4
    box: int = 3
    point_bound: int = 6
    workspace_bound: int = 12


def random_pointed_cone(rng, cfg):
    while True:
        rank = rng.randint(2, 3)
        gens = [
            tuple(rng.randint(-cfg.entry_bound, cfg.entry_bound) for _ in range(rank))
            for _ in range(rng.randint(1, rank + 1))
        ]
        gens = [g for g in gens if any(g)]
        if not gens:
            continue
        if not any(
            oracles.in_cone([-x for x in g], gens, rank) for g in gens
        ):
            return rank, gens


def check_cone(rng, cfg):
    rank, gens = random_pointed_cone(rng, cfg)
    dual_gens = dual_cone(Cone.make(rank, gens)).generators
    for v in itertools.product(range(-cfg.box, cfg.box + 1), repeat=rank):
        lhs = oracles.in_cone(v, gens, rank)
        rhs = all(sum(a * b for a, b in zip(u, v)) >= 0 for u in dual_gens)
        if lhs != rhs:
            return False
    hb = hilbert_basis(gens, rank)
    pts = oracles.cone_lattice_points(gens, rank, cfg.point_bound)
    workspace = oracles.cone_lattice_points(gens, rank, cfg.workspace_bound)
    return oracles.monoid_generates(pts, hb, workspace=workspace)


def random_ideal(rng):
    gens = []
    nvars = rng.randint(1, 3)
    for _ in range(rng.randint(1, 4)):
        terms = {}
        for _ in range(rng.randint(1, 3)):
            e = tuple(rng.randint(0, 3) for _ in range(nvars))
            if sum(e) <= 3:
                terms[e] = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        terms = {k: v for k, v in terms.items() if v}
        if terms:
            gens.append((poly(terms),))
    return gens or [(poly({(0,) * nvars: Fraction(1)}),)]


def check_ideal(rng):
    gb = module_groebner_basis(random_ideal(rng), POT)
    lts = [m_leading_term(g, POT) for g in gb]
    return all(
        m_is_zero(m_normal_form(_s_vector(gb[i], gb[j], lts[i], lts[j]), gb, POT))
        for i in range(len(gb))
        for j in range(i + 1, len(gb))
    )


MONOMIAL_FANS = ("f2", "p1xp1", "p2")


def round_trip_rings():
    fans = {name: corpus.build(name) for name in ("p2", "p1xp1", "p112", "quadric_cone", "three_rays")}
    scale = ("f2", oracles.F2), ("p3", oracles.P3), ("dp6", oracles.DP6), ("p1cubed", oracles.P1_CUBED)
    for name, (rays, max_cones) in scale:
        fans[name] = polyfan.build_fan(len(rays[0]), rays, max_cones)
    out = {}
    for name, fan in fans.items():
        g = grading.build_grading(fan)
        out[name] = free_module(build_cox(g, grading.subgroup_of_whole_group(g)))
    return out


def _generated(rng, f):
    """Generated relations or generators on f's fan: a binomial ideal, or
    half the time a rank-2 module, with the free module they live in."""
    g = f.cox.grading
    rays = g.fan.ray_index
    shift = None
    if rng.random() < 0.5:
        shift = tuple(rng.randint(0, 1) for _ in rays)
        f = free_module(f.cox, [g.class_group.zero(), g.a_map(shift)])
    return f, oracles.random_homogeneous_elements(rng, rays, rng.randint(1, 2), shift)


def _round_trip(f, sub, degrees):
    """xi_preimage(xi_forward(N)) over the given degrees, each also one
    variable degree further, or None where the degree fibers are
    infinite, and whether the finite-type lift of the family has the same
    family, read by ``xi_forward`` and saturated afresh chart by chart,
    and the generators of ``oracles.lift_by_groebner``."""
    A = f.cox.grading.class_group
    family = xi_forward(sub)
    lift = lift_finite_type(family, f)
    cold = {key: saturate_at(lift, f.cox.zhat[key]) for key in f.cox.maximal_keys}
    lift_ok = (
        family_equal(xi_forward(lift), family)
        and cold == family.charts
        and lift.element_generators == oracles.lift_by_groebner(family, f)
    )
    if not oracles.finite_fibers(f.cox.grading):
        return None, lift_ok
    window = {A.add(a, d) for a in degrees for d in (A.zero(), *f.cox.grading.ray_degrees)}
    return xi_preimage(family, f, sorted(window, key=lambda a: a.coords())), lift_ok


def check_round_trip(rng, rings):
    """One monomial ideal of P2, P1xP1 or F2, whose preimage must give the
    minimal monomials of the iterated colon, and one generated binomial
    ideal or rank-2 module on any of the fans, whose preimage must equal
    saturate_submodule, as a submodule and as the same reduced basis."""
    f = rings[rng.choice(MONOMIAL_FANS)]
    g = f.cox.grading
    exps = oracles.random_monomial_ideal(rng, f.nvars)
    zhats = [f.cox.zhat[c.ray_generators] for c in g.fan.maximal]
    want = oracles.minimalize(oracles.saturate_monomial(exps, zhats))
    sub = _ideal(f, ({e: Fraction(1)} for e in exps))
    pre, monomial_ok = _round_trip(f, sub, [g.a_map(e) for e in want])
    monomial_ok = monomial_ok and sorted(e for x in pre.element_generators for p in x for e in p) == want
    f, gens = _generated(rng, rings[rng.choice(sorted(rings))])
    sub = GradedSubmodule(f, tuple(gens))
    sat = saturate_submodule(sub)
    pre, binomial_ok = _round_trip(f, sub, [f.element_degree(x) for x in sat.element_generators])
    if pre is not None:
        binomial_ok &= submodules_equal(pre, sat) and pre.element_generators == sat.element_generators
    return monomial_ok and binomial_ok


def _reference_contains(gb, x):
    return not any(oracles.m_normal_form(x, gb, POT))


def check_torsion(rng, rings, draw):
    """One quotient of rank 1 or 2 by monomial relations, each in one
    generator's component, or by generated binomial ones: every kill-table
    entry k must put z^k e_i in the relations and, for k > 0, z^(k-1) e_i
    outside them, and every None must leave e_i outside (relations :
    z^inf), by the reference engine; the chart intersection of all the
    sheaf cover's kernels, the overlaps' included, must be the reference
    intersection of the maximal cones' kernels alone; is_torsion must
    agree with the sheaf being zero.

    Every third draw is a fattened ideal of the torus-fixed points, the
    intersection over the maximal cones σ of <Z_ρ^k : ρ in σ>, times a
    binomial half the time, as S/(Z3 - Z4)·<Z1·Z2, Z3·Z4> on P1xP1, and
    gets no power of each variable: that module is not torsion, and its
    kernel at σ is the component at σ's fixed point, so an intersection
    that missed any one maximal kernel would be larger."""
    f = rings[rng.choice(sorted(rings))]
    cox = f.cox
    n, g = cox.num_vars, cox.grading
    rank = rng.randint(1, 2)
    degrees = (g.class_group.zero(),) * rank
    top = 20
    points = draw % 3 == 0

    def placed(p, i):
        return tuple(p if j == i else {} for j in range(rank))

    if points:
        ideal = [(0,) * n]  # the unit ideal
        for c in g.fan.maximal:
            rays = g.fan.cone_ray_indices(c)
            powers = [tuple(rng.randint(1, 2) * (u == v) for u in range(n)) for v in rays]
            ideal = oracles.intersect_monomial(ideal, powers)
        b = {(0,) * n: 1}
        if rng.random() < 0.5:
            (b,) = oracles.random_homogeneous_elements(rng, g.fan.ray_index, 1)[0]
        home = rng.randrange(rank)  # the fixed points' component
        rels = [placed({tuple(map(add, e, m)): Fraction(c) for e, c in b.items()}, home) for m in ideal]
    elif rng.random() < 0.5:
        rels = [
            placed({tuple(rng.randint(1, top) if x else 0 for x in e): Fraction(1)}, rng.randrange(rank))
            for e in oracles.random_monomial_ideal(rng, n)
        ]
    else:
        top = 4  # the binomial case runs Rabinowitsch's Groebner basis
        f, rels = _generated(rng, f)
        rank, degrees = f.rank, f.generator_degrees
    if not points and rng.random() < 0.5:  # a torsion module: a power of each variable
        for i in range(rank):
            for v in range(n):
                e = tuple(rng.randint(1, top) if u == v else 0 for u in range(n))
                rels.append(tuple({e: Fraction(1)} if j == i else {} for j in range(rank)))
    q = GradedModulePresentation(cox, degrees, tuple(rels))
    rel_gb = oracles.module_groebner_basis(rels, POT)
    kernels = {
        c.ray_generators: oracles.module_saturate_element(
            rels, {cox.zhat[c.ray_generators]: Fraction(1)}, rank, n, POT, ELIM
        )
        for c in g.fan.maximal
    }

    def power(i, z, k):
        return tuple({tuple(k * a for a in z): Fraction(1)} if j == i else {} for j in range(rank))

    ok = True
    for (i, key), k in kill_table(q).items():
        z = cox.zhat[key]
        if k is None:
            kernel = oracles.module_groebner_basis(kernels[key], POT)
            ok &= not _reference_contains(kernel, power(i, z, 0))
        else:
            ok &= _reference_contains(rel_gb, power(i, z, k))
            ok &= k == 0 or not _reference_contains(rel_gb, power(i, z, k - 1))
    cover = sheafify(q)
    meet = functools.reduce(
        lambda a, b: oracles.module_intersection(a, b, n, ELIM), kernels.values()
    )
    ok &= oracles.submodule_equal(list(chart_intersection(q, cover.kernels)), meet, POT)
    return ok and is_torsion(q).is_torsion == is_zero_sheaf(cover)


COMPLETE_FANS = ("p2", "p1xp1", "p112", "f2", "p3", "dp6", "p1cubed")


def check_sections(rng, rings):
    """One free module of rank 1–3, shifts d_i with entries 0 or 1, at a
    class α with entries −1 … 2 on one complete fan: the Cartier verdicts
    of ``grading.is_cartier`` and of the per-cone systems must agree, each
    mode's windows at its level bound must hold as many common coordinates
    as the intersection of the windows listed in full and as the
    rows-and-rank equalizer counts, and every route must give the lattice
    count (see the module docstring)."""
    f = rings[rng.choice(COMPLETE_FANS)]
    g = f.cox.grading
    rays = g.delta_basis
    cones = [g.fan.cone_ray_indices(c) for c in g.fan.maximal]
    a = [rng.randint(-1, 2) for _ in rays]
    cartier = oracles.divisor_is_cartier(rays, cones, a)
    shifts = [[rng.randint(0, 1) for _ in rays] for _ in range(rng.randint(1, 3))]
    if not cartier:
        shifts = [d if oracles.divisor_is_cartier(rays, cones, d) else [0] * len(rays) for d in shifts]
    s = sheafify(free_module(f.cox, [g.a_map(tuple(d)) for d in shifts]))
    alpha = g.a_map(tuple(a))
    want = sum(oracles.polytope_lattice_count(rays, [x - y for x, y in zip(a, d)], 10) for d in shifts)
    counts = {}
    for mode in ("via_shift", "via_twist"):
        charts, level = _level_invariants(s, alpha, mode)
        counts[mode] = _common_coordinates(charts, level)
        if counts[mode] != oracles.common_coordinates_by_intersection(charts, level):
            return False
        if counts[mode] != _equalizer(charts, _overlap_plan(s, alpha, mode, charts), level):
            return False
    got = [global_sections_degree(s, alpha, mode).dimension for mode in ("via_shift", "via_twist")]
    if cartier:
        got.append(counts["via_twist"])
    else:
        got = got[1:]
    return grading.is_cartier(g, alpha) == cartier and got == [want] * len(got)


RELATION_FANS = ("p2", "p1xp1", "p112", "f2", "dp6", "p3")


def reference_equalizer(s, charts, plan, level):
    """The equalizer dimension at one level, every window's quotient read
    off ``oracles.window_subspace`` (a dense rref of every fiber multiple
    of the kernel, no Groebner basis): the columns are the maximal
    windows' coordinates off the pivots, and a coordinate's class in an
    overlap window is itself off the pivots, else minus the other entries
    of its reduced row.  Of the charts it reads only their cone, degree,
    twists and m, and the overlap levels are ``_equalizer``'s."""

    def window(chart, k):
        args = s.origin, chart.key, chart.degree, chart.twists, k * chart.m
        index = oracles.window_coordinates(*args)
        return index, oracles.window_subspace(s, *args[1:], index)

    windows = {key: window(chart, level) for key, chart in charts.items()}
    cols = {key: [c for c, t in index.items() if t not in span] for key, (index, span) in windows.items()}
    offsets = dict(zip(cols, itertools.accumulate((len(c) for c in cols.values()), initial=0)))
    width = sum(map(len, cols.values()))
    rows = []
    for chart, sides, slack in plan:
        needed = max(level * charts[k].m for k in sides) + slack
        index, span = window(chart, -(-needed // chart.m))
        block = [[0] * width for _ in index]
        for key, sign in zip(sides, (1, -1)):
            for j, coord in enumerate(cols[key], offsets[key]):
                t = index[coord]
                image = {u: -x for u, x in span[t].items() if u != t} if t in span else {t: 1}
                for u, x in image.items():
                    block[u][j] += sign * x
        rows += [r for r in block if any(r)]
    return width - len(oracles.rref(rows)[1])


def check_relations(rng, rings):
    """One generated binomial ideal or rank-2 module, as relations, on one
    of RELATION_FANS, at up to four classes with entries −1 … 2, in both
    modes: where ``global_sections_degree`` stops, ``_equalizer`` must
    give its dimension and so must ``reference_equalizer``."""
    f, gens = _generated(rng, rings[rng.choice(RELATION_FANS)])
    A = f.cox.grading.class_group
    s = sheafify(GradedModulePresentation(f.cox, f.generator_degrees, tuple(gens)))
    boxes = list(itertools.product(range(-1, 3), repeat=len(A.zero().coords())))
    ok = True
    for t in rng.sample(boxes, min(4, len(boxes))):
        alpha = A.from_coords(list(t))
        for mode in ("via_shift", "via_twist"):
            w = global_sections_degree(s, alpha, mode)
            charts, _ = _level_invariants(s, alpha, mode)
            plan = _overlap_plan(s, alpha, mode, charts)
            got = _equalizer(charts, plan, w.level)
            ok &= got == w.dimension == reference_equalizer(s, charts, plan, w.level)
    return ok


def _ideal(f, polys):
    return GradedSubmodule(f, tuple((p,) for p in polys))


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--cones", type=int, default=RunConfig.cones)
    ap.add_argument("--ideals", type=int, default=RunConfig.ideals)
    ap.add_argument("--round-trips", type=int, default=RunConfig.round_trips)
    ap.add_argument("--torsion", type=int, default=RunConfig.torsion)
    ap.add_argument("--sections", type=int, default=RunConfig.sections)
    ap.add_argument("--relations", type=int, default=RunConfig.relations)
    ap.add_argument("--seed", type=int, default=RunConfig.seed)
    args = ap.parse_args()
    cfg = RunConfig(
        cones=args.cones,
        ideals=args.ideals,
        round_trips=args.round_trips,
        torsion=args.torsion,
        sections=args.sections,
        relations=args.relations,
        seed=args.seed,
    )

    rng = random.Random(cfg.seed)
    cone_ok = sum(check_cone(rng, cfg) for _ in range(cfg.cones))
    ideal_ok = sum(check_ideal(rng) for _ in range(cfg.ideals))
    print(f"cones: {cone_ok}/{cfg.cones} passed")
    print(f"ideals: {ideal_ok}/{cfg.ideals} passed")
    failed = cone_ok != cfg.cones or ideal_ok != cfg.ideals
    if cfg.round_trips:
        rings = round_trip_rings()
        trip_ok = sum(check_round_trip(rng, rings) for _ in range(cfg.round_trips))
        print(f"round trips: {trip_ok}/{cfg.round_trips} passed")
        failed = failed or trip_ok != cfg.round_trips
    if cfg.torsion:
        rings = round_trip_rings()
        torsion_ok = sum(check_torsion(rng, rings, i) for i in range(cfg.torsion))
        print(f"torsion: {torsion_ok}/{cfg.torsion} passed")
        failed = failed or torsion_ok != cfg.torsion
    if cfg.sections:
        rings = round_trip_rings()
        sections_ok = sum(check_sections(rng, rings) for _ in range(cfg.sections))
        print(f"sections: {sections_ok}/{cfg.sections} passed")
        failed = failed or sections_ok != cfg.sections
    if cfg.relations:
        rings = round_trip_rings()
        relations_ok = sum(check_relations(rng, rings) for _ in range(cfg.relations))
        print(f"relations: {relations_ok}/{cfg.relations} passed")
        failed = failed or relations_ok != cfg.relations
    return 1 if failed else 0


if __name__ == "__main__":
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:  # the reader closed the pipe: exit 2 quietly, as the CLI does
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 2
    sys.exit(code)

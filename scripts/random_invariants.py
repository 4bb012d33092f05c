#!/usr/bin/env python3
"""Randomized invariant checks for the exact-arithmetic kernels.

Verifies the double-dual identity and Hilbert-basis generation on random
pointed cones against the brute-force oracles used by the test suite, and
the Buchberger S-pair criterion on random ideals, taken as rank-1
submodules (elements ``(p,)``).  With ``--round-trips N`` it also checks,
on N random monomial ideals I of P2, P1xP1 and F2 and N random binomial
ideals of P2 and P1xP1, that xi_preimage(xi_forward(I)) is the saturation
of I (the iterated colon for monomial ideals) and that
xi_forward(lift_finite_type(T)) equals T for the family T of I.

Usage:
    python3 scripts/random_invariants.py --cones 50 --ideals 25 --seed 7
    python3 scripts/random_invariants.py --cones 0 --ideals 0 --round-trips 200
"""

import argparse
import itertools
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
import oracles  # noqa: E402

from coxfan import corpus, grading, polyfan  # noqa: E402
from coxfan.cox import build_cox  # noqa: E402
from coxfan.gradmod import (  # noqa: E402
    GradedSubmodule,
    free_module,
    saturate_submodule,
    submodules_equal,
)
from coxfan.groeb import (  # noqa: E402
    POT,
    _s_vector,
    m_is_zero,
    m_leading_term,
    m_normal_form,
    module_groebner_basis,
    poly,
)
from coxfan.polyfan import Cone, dual_cone, hilbert_basis  # noqa: E402
from coxfan.sheaf import family_equal, lift_finite_type, xi_forward, xi_preimage  # noqa: E402


@dataclass(frozen=True)
class RunConfig:
    cones: int = 50
    ideals: int = 25
    round_trips: int = 0
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
                terms[e] = Fraction(rng.randint(-3, 3))
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


def round_trip_rings():
    rays, max_cones = oracles.F2
    fans = {"p2": corpus.build("p2"), "p1xp1": corpus.build("p1xp1")}
    fans["f2"] = polyfan.build_fan(2, rays, max_cones)
    out = {}
    for name, fan in fans.items():
        g = grading.build_grading(fan)
        out[name] = free_module(build_cox(g, grading.subgroup_of_whole_group(g)))
    return out


def _round_trip(f, sub, degrees):
    """xi_preimage(xi_forward(N)) over the given degrees, each also one
    variable degree further, and whether the finite-type lift of the
    family has the same family."""
    A = f.cox.grading.class_group
    family = xi_forward(sub)
    window = {A.add(a, d) for a in degrees for d in (A.zero(), *f.cox.grading.ray_degrees)}
    pre = xi_preimage(family, f, sorted(window, key=lambda a: a.coords()))
    return pre, family_equal(xi_forward(lift_finite_type(family, f)), family)


def check_round_trip(rng, rings):
    """One monomial ideal, whose preimage must give the minimal monomials
    of the iterated colon, and one binomial ideal of P2 or P1xP1, whose
    preimage must equal saturate_submodule, as a submodule and as the
    same reduced basis."""
    f = rings[rng.choice(sorted(rings))]
    g = f.cox.grading
    exps = oracles.random_monomial_ideal(rng, f.nvars)
    zhats = [f.cox.zhat[c.ray_generators] for c in g.fan.maximal_cones()]
    want = oracles.minimalize(oracles.saturate_monomial(exps, zhats))
    sub = _ideal(f, ({e: Fraction(1)} for e in exps))
    pre, monomial_ok = _round_trip(f, sub, [g.a_map(e) for e in want])
    monomial_ok = monomial_ok and sorted(e for x in pre.element_generators for p in x for e in p) == want
    f = rings[rng.choice(["p1xp1", "p2"])]
    g = f.cox.grading
    sub = _ideal(f, oracles.random_binomial_ideal(rng, f.nvars, lambda e: g.a_map(e).coords()))
    sat = saturate_submodule(sub)
    pre, binomial_ok = _round_trip(f, sub, [f.element_degree(x) for x in sat.element_generators])
    return (
        monomial_ok
        and binomial_ok
        and submodules_equal(pre, sat)
        and pre.element_generators == sat.element_generators
    )


def _ideal(f, polys):
    return GradedSubmodule(f, tuple((p,) for p in polys))


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--cones", type=int, default=RunConfig.cones)
    ap.add_argument("--ideals", type=int, default=RunConfig.ideals)
    ap.add_argument("--round-trips", type=int, default=RunConfig.round_trips)
    ap.add_argument("--seed", type=int, default=RunConfig.seed)
    args = ap.parse_args()
    cfg = RunConfig(
        cones=args.cones, ideals=args.ideals, round_trips=args.round_trips, seed=args.seed
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
    if failed:
        raise SystemExit(1)


if __name__ == "__main__":
    main()

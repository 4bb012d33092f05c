"""Cones, dual cones, Hilbert bases, fan validation and properties."""

import os
import random
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coxfan
from coxfan import corpus
from coxfan.polyfan import (
    Cone,
    FanInvalid,
    build_fan,
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


def test_cli_import_does_not_load_numpy():
    code = "import sys, coxfan.cli; print('numpy' in sys.modules)"
    src = str(Path(coxfan.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "False"


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

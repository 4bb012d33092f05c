"""Sparse exact elimination against the dense column-by-column reference."""

import random
from fractions import Fraction

import pytest

from coxfan import ratlin, sheaf
from coxfan.gradmod import free_module
from coxfan.sheaf import sheafify

import oracles


def _entry(rng):
    x = rng.random()
    if x < 0.5:
        return rng.choice((1, -1))
    if x < 0.8:
        return rng.randint(-3, 3)
    return Fraction(rng.randint(-3, 3), rng.randint(2, 3))


def _matrix(rng, nrows, ncols, density):
    return [
        [_entry(rng) if rng.random() < density else 0 for _ in range(ncols)]
        for _ in range(nrows)
    ]


def _matrices():
    """Seeded random rational matrices, with the edge shapes first."""
    rng = random.Random(20261018)
    out = [
        [],
        [[]],
        [[0, 0, 0], [0, 0, 0]],
        [[0] * 5],
        [[3, 0, -1, 2]],
        [[2], [0], [-1]],
        [[1, 2], [1, 2], [2, 4]],
    ]
    for k in range(320):
        shape = k % 5
        if shape == 0:  # 1 x n and n x 1
            nrows, ncols = (1, rng.randint(1, 9)) if k % 2 else (rng.randint(1, 9), 1)
        elif shape == 1:  # wide
            nrows, ncols = rng.randint(1, 4), rng.randint(8, 12)
        elif shape == 2:  # tall
            nrows, ncols = rng.randint(8, 12), rng.randint(1, 4)
        else:
            nrows, ncols = rng.randint(1, 9), rng.randint(1, 9)
        m = _matrix(rng, nrows, ncols, rng.uniform(0.05, 1.0))
        if k % 7 == 0:  # duplicate rows and a combination of two rows
            m += [list(rng.choice(m))]
            a, b = rng.choice(m), rng.choice(m)
            m.append([x - 2 * y for x, y in zip(a, b)])
        out.append(m)
    return out


def _dense(rows, ncols):
    return [[r.get(c, Fraction(0)) for c in range(ncols)] for r in rows]


def _sparse(rows):
    return [{c: x for c, x in enumerate(r) if x} for r in rows]


@pytest.fixture(scope="module")
def cases():
    """Each matrix with its reference rref."""
    matrices = _matrices()
    assert len(matrices) >= 300
    return [(m, oracles.rref(m)) for m in matrices]


def test_rref_matches_dense_reference(cases):
    for m, reference in cases:
        before = [list(r) for r in m]
        ncols = len(m[0]) if m else 0
        ech = ratlin.echelon(m)
        zeros = [[Fraction(0)] * ncols for _ in range(len(m) - len(ech))]
        assert (_dense(ech.values(), ncols) + zeros, list(ech)) == reference, m
        assert all(type(x) is Fraction and x for r in ech.values() for x in r.values())
        assert ratlin.echelon(_sparse(m)) == ech
        assert m == before
        assert ratlin.rank(m) == len(ech)
        assert ratlin.rank(_sparse(m)) == len(ech)


def _entry_types(piv):
    return {type(x) for r in piv.values() for x in r.values()}


def test_unit_pivots_keep_integer_entries(p2_cox, monkeypatch):
    # Directed-graph incidence rows are totally unimodular: every pivot is ±1.
    rng = random.Random(35)
    for _ in range(50):
        n = rng.randint(2, 12)
        rows = [
            {a: 1, b: -1}
            for a, b in (rng.sample(range(n), 2) for _ in range(rng.randint(1, 20)))
        ]
        assert _entry_types(ratlin._pivot_rows(rows)) <= {int}
    # The Čech equalizer of a free module, at both modes on p2 at α = 2.
    # The sections of a free module are counted without it, so it is
    # called on the windows directly.
    seen = []
    monkeypatch.setattr(ratlin, "rank", lambda rows: seen.append(rows) or len(rows))
    s = sheafify(free_module(p2_cox))
    alpha = p2_cox.grading.a_map((2, 0, 0))
    for mode in ("via_shift", "via_twist"):
        inv = sheaf._level_invariants(s, alpha, mode)
        plan = sheaf._overlap_plan(s, alpha, mode, inv)
        sheaf._equalizer(s, inv, plan, sheaf._chart_windows(s, inv, inv[3]))
    assert len(seen) == 2 and all(seen)
    for rows in seen:
        assert {x for r in rows for x in r.values()} == {1, -1}
        piv = ratlin._pivot_rows(rows)
        assert _entry_types(piv) == {int}
        assert all(r[c] == 1 for c, r in piv.items())


def test_other_pivots_turn_rational_never_float(cases):
    for m in [[[2, 1], [1, 1]], [[1, 1], [1, 3]]] + [m for m, _ in cases]:
        assert _entry_types(ratlin._pivot_rows(m)) <= {int, Fraction}
        assert ratlin.rank(m) == len(oracles.rref(m)[1]), m
    assert _entry_types(ratlin._pivot_rows([[2, 1], [1, 1]])) == {Fraction}

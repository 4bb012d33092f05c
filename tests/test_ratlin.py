"""Sparse exact elimination against the dense column-by-column reference."""

import random
from fractions import Fraction

import pytest

from coxfan import ratlin

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

"""Integer lattice layer: normal forms, cokernels, subgroup calculus."""

import random
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from coxfan import corpus, intlat
from coxfan.intlat import (
    INFINITE,
    AbelianGroup,
    cokernel_presentation,
    hermite_row_basis,
    integer_kernel,
    smith_normal_form,
    subgroup_index,
)

import oracles
from oracles import det


small_matrices = st.integers(1, 4).flatmap(
    lambda nr: st.integers(1, 4).flatmap(
        lambda nc: st.lists(
            st.lists(st.integers(-6, 6), min_size=nc, max_size=nc),
            min_size=nr,
            max_size=nr,
        )
    )
)


def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def test_snf_pinned_example():
    d, u, v = smith_normal_form([[2, 0], [0, 4]], 2)
    assert d == [2, 4]
    assert abs(det(u)) == 1 and abs(det(v)) == 1


def test_snf_off_diagonal():
    d, u, v = smith_normal_form([[4, 2], [2, 4]], 2)
    assert d == oracles.snf_diagonal([[4, 2], [2, 4]])


@given(small_matrices)
def test_snf_properties(rows):
    d, u, v = smith_normal_form(rows, len(rows[0]))
    diagonal = [
        [d[i] if i == j and i < len(d) else 0 for j in range(len(rows[0]))]
        for i in range(len(rows))
    ]
    assert _matmul(_matmul(u, rows), v) == diagonal
    nonzero = [x for x in d if x]
    # nonnegative diagonal, divisibility chain, zero tail
    assert len(d) == min(len(rows), len(rows[0]))
    assert all(x >= 0 for x in d)
    for a, b in zip(nonzero, nonzero[1:]):
        assert b % a == 0
    assert d[len(nonzero):] == [0] * (len(d) - len(nonzero))
    assert nonzero == oracles.snf_diagonal(rows)
    assert abs(det(u)) == 1
    assert abs(det(v)) == 1


def test_empty_shapes():
    """The column count gives an empty matrix its shape: no rows of width n,
    or k rows of width 0."""
    for n in range(4):
        identity = [[int(i == j) for j in range(n)] for i in range(n)]
        assert smith_normal_form([], n) == ([], [], identity)
        assert smith_normal_form([[]] * n, 0) == ([], identity, [])
        assert integer_kernel([], n) == [tuple(r) for r in identity]
        group, q = cokernel_presentation([], n)
        assert group == AbelianGroup(0, ())
        assert q(()) == group.zero() and q.lift(group.zero()) == ()
    group, q = cokernel_presentation([[], []], 0)
    assert group == AbelianGroup(2, ())
    assert q([1, 2]).coords() == (1, 2)
    assert q.lift(group.from_coords([3, 4])) == (3, 4)


@given(small_matrices)
def test_hermite_canonical_under_row_shuffle(rows):
    ncols = len(rows[0])
    basis = hermite_row_basis(rows, ncols)
    assert basis == hermite_row_basis(list(reversed(rows)), ncols)
    doubled = hermite_row_basis(rows + rows, ncols)
    assert basis == doubled


@given(small_matrices)
def test_integer_kernel_annihilates(rows):
    for k in integer_kernel(rows, len(rows[0])):
        assert all(sum(x * y for x, y in zip(r, k)) == 0 for r in rows)


def test_cokernel_z2_x_z4():
    group, _ = cokernel_presentation([[2, 0], [0, 4]], 2)
    assert group.free_rank == 0
    assert list(group.torsion_orders) == [2, 4]


def test_cokernel_projective_plane_matrix():
    # rays of the standard triangle fan, as the rows of a 3x2 matrix
    group, q = cokernel_presentation([[1, 0], [0, 1], [-1, -1]], 2)
    assert group.free_rank == 1 and not group.torsion_orders


@given(small_matrices)
def test_quotient_map_section(rows):
    group, q = cokernel_presentation(rows, len(rows[0]))
    for column in zip(*rows):  # the cokernel kills the column lattice
        assert q(column).is_zero()
    for i in range(len(rows)):
        e = [int(k == i) for k in range(len(rows))]
        g = q(e)
        lifted = q.lift(g)
        assert q(lifted).coords() == g.coords()


def test_subgroup_index():
    z = AbelianGroup(1, ())
    two = [z.from_coords([2])]
    assert subgroup_index(two, z) == 2
    assert subgroup_index([], z) == INFINITE
    assert subgroup_index([z.from_coords([1])], z) == 1


def test_group_elements_reduce_torsion():
    g = AbelianGroup(1, (3,))
    x = g.from_coords([5, -2])
    assert x.torsion_part == (2,)
    assert g.add(x, g.neg(x)).is_zero()


@given(st.lists(st.lists(st.integers(-4, 4), min_size=2, max_size=2), min_size=1, max_size=3))
def test_subgroup_canonical_idempotent(gens):
    z2 = AbelianGroup(2, ())
    elems = [z2.from_coords(v) for v in gens]
    basis = oracles.subgroup_canonical_basis(elems, z2)
    assert hermite_row_basis(gens, 2) == basis
    regen = [z2.from_coords(list(r)) for r in basis]
    assert oracles.subgroup_canonical_basis(regen, z2) == basis
    assert oracles.subgroup_equal(elems, regen, z2)
    for e in elems:
        assert intlat.subgroup_contains(regen, e, z2)


def test_smith_transforms_match_the_reference():
    """(d, u, v) equal the two-list elimination's exactly, pivot choices
    included, on seeded matrices, the empty shapes and the ray matrices."""
    rng = random.Random(32)
    cases = [([], n) for n in range(4)] + [([[]] * n, 0) for n in range(1, 4)]
    for _ in range(400):
        nr, nc = rng.randint(1, 4), rng.randint(1, 5)
        cases.append(([[rng.randint(-5, 5) for _ in range(nc)] for _ in range(nr)], nc))
    fans = [corpus.fan_spec(name)["rays"] for name in corpus.CORPUS_NAMES]
    fans += [rays for rays, _ in oracles.SCALE_FANS.values()]
    cases += [(rays, len(rays[0])) for rays in fans]
    for rows, ncols in cases:
        assert smith_normal_form(rows, ncols) == oracles.smith_normal_form(rows, ncols), rows


def _random_group(rng):
    torsion = rng.choice([(), (2,), (3,), (6,), (2, 2), (2, 4), (2, 6), (3, 6)])
    return AbelianGroup(rng.randint(0, 2), torsion)


def _random_element(rng, group):
    return group.from_coords(
        [rng.randrange(t) for t in group.torsion_orders]
        + [rng.randint(-4, 4) for _ in range(group.free_rank)]
    )


def test_subgroup_questions_match_the_oracles():
    """Hermite basis, element orders, index and containment against the
    determinantal-divisor oracles, on groups Z^f x T with f <= 2 and
    torsion orders <= 6."""
    rng = random.Random(2026)
    orders = set()
    for _ in range(300):
        group = _random_group(rng)
        gens = [_random_element(rng, group) for _ in range(rng.randint(0, 4))]
        others = [_random_element(rng, group) for _ in range(rng.randint(0, 2))]
        basis = intlat._subgroup_basis(group, gens)
        assert basis == oracles.subgroup_canonical_basis(gens, group)
        for x in others + gens[:1]:
            order = intlat._order_modulo(basis, x.coords())
            assert order == oracles.order_modulo(x, gens, group)
            orders.add(order)
        assert subgroup_index(gens, group) == oracles.subgroup_index(gens, group)
        assert intlat.subgroup_leq(others, gens, group) == all(
            oracles.order_modulo(x, gens, group) == 1 for x in others
        )
    assert INFINITE in orders and {1, 2, 3, 4, 6} <= orders


def test_unimodular_inverse_of_dense_smith_transforms():
    """The Smith transforms u of seeded ray matrices reach 158-bit
    entries; the Hermite basis of (u | I) inverts all six in well under a
    second."""
    rng = random.Random(1)
    start = time.perf_counter()
    for _ in range(6):
        n, r = rng.randint(5, 9), rng.randint(2, 4)
        rays = [[rng.randint(-9, 9) for _ in range(r)] for _ in range(n)]
        u = cokernel_presentation(rays, r)[1]._u
        eye = [[int(i == j) for j in range(n)] for i in range(n)]
        assert _matmul(intlat._unimodular_inverse(u), u) == eye, rays
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("rows", [[[2]], [[1, 0], [0, 3]], [[1, 2], [2, 4]], [[1, 1], [1, -1]]])
def test_unimodular_inverse_refuses_other_matrices(rows):
    with pytest.raises(ValueError, match="not unimodular"):
        intlat._unimodular_inverse(rows)

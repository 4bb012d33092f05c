"""Integer lattice layer: normal forms, cokernels, subgroup calculus."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from coxfan import intlat
from coxfan.intlat import (
    INFINITE,
    AbelianGroup,
    IntMatrix,
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


def test_snf_pinned_example():
    m = IntMatrix.from_rows([[2, 0], [0, 4]])
    d, u, v = smith_normal_form(m)
    assert [d.at(0, 0), d.at(1, 1)] == [2, 4]
    assert abs(det(u)) == 1 and abs(det(v)) == 1


def test_snf_off_diagonal():
    m = IntMatrix.from_rows([[4, 2], [2, 4]])
    d, u, v = smith_normal_form(m)
    assert [d.at(0, 0), d.at(1, 1)] == oracles.snf_diagonal([[4, 2], [2, 4]])


@given(small_matrices)
def test_snf_properties(rows):
    m = IntMatrix.from_rows(rows)
    d, u, v = smith_normal_form(m)
    assert u.mul(m).mul(v).to_rows() == d.to_rows()
    diag = [d.at(i, i) for i in range(min(d.rows, d.cols))]
    nonzero = [x for x in diag if x]
    # nonnegative diagonal, divisibility chain, zero tail
    assert all(x >= 0 for x in diag)
    for a, b in zip(nonzero, nonzero[1:]):
        assert b % a == 0
    assert diag[len(nonzero):] == [0] * (len(diag) - len(nonzero))
    assert nonzero == oracles.snf_diagonal(rows)
    if u.rows <= 4:
        assert abs(det(u)) == 1
    if v.rows <= 4:
        assert abs(det(v)) == 1


@given(small_matrices)
def test_hermite_canonical_under_row_shuffle(rows):
    ncols = len(rows[0])
    basis = hermite_row_basis(rows, ncols)
    assert basis == hermite_row_basis(list(reversed(rows)), ncols)
    doubled = hermite_row_basis(rows + rows, ncols)
    assert basis == doubled


@given(small_matrices)
def test_integer_kernel_annihilates(rows):
    m = IntMatrix.from_rows(rows)
    for k in integer_kernel(m):
        assert all(x == 0 for x in m.mul_vec(k))


def test_cokernel_z2_x_z4():
    m = IntMatrix.from_rows([[2, 0], [0, 4]])
    group, _ = cokernel_presentation(m)
    assert group.free_rank == 0
    assert list(group.torsion_orders) == [2, 4]


def test_cokernel_projective_plane_matrix():
    # rays of the standard triangle fan, as a 3x2 matrix
    m = IntMatrix.from_rows([[1, 0], [0, 1], [-1, -1]]).transpose()
    group, q = cokernel_presentation(m.transpose())
    assert group.free_rank == 1 and not group.torsion_orders


@given(small_matrices)
def test_quotient_map_section(rows):
    m = IntMatrix.from_rows(rows)
    group, q = cokernel_presentation(m)
    for j in range(m.cols):
        e = [int(i == j) for i in range(m.rows)]
    for i in range(m.rows):
        e = [int(k == i) for k in range(m.rows)]
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

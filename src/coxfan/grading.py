"""Degree bookkeeping for a fan: the ray-evaluation map, its cokernel (the
grading group), ray degrees, the Picard subgroup, subgroup classification
(big / small), and the degree fibers.  Each fiber is enumerated once per
process by `polyfan._lattice_points`; this module keeps the fiber cache,
which holds at most FIBER_POINT_CAP points in all.  Whether the fibers
are finite is one fact of the grading (`require_finite_fibers`).
"""

from __future__ import annotations

from collections import OrderedDict
from functools import lru_cache
from itertools import islice

from ._record import DomainError, Record
from .intlat import (
    INFINITE,
    GroupElement,
    _order_modulo,
    _subgroup_basis,
    cokernel_presentation,
    hermite_row_basis,
    subgroup_contains,
    subgroup_index,
    subgroup_leq,
)
from .polyfan import Fan, _bounded_projections, _lattice_points, cone_generators_from_inequalities


FIBER_POINT_CAP = 200_000


class FiberTooLarge(DomainError):
    """A degree fiber has more than FIBER_POINT_CAP points."""


class GradingData(Record):
    __slots__ = (
        "fan",
        "class_group",
        "a_map",  # QuotientMap Z^Sigma_1 -> class_group
        "ray_degrees",  # GroupElement per ray, in Sigma_1 order
        "delta_basis",  # the rays in Sigma_1 order: the ray matrix's rows
    )

    @property
    def num_rays(self):
        return len(self.delta_basis)


class SubgroupB(Record):
    __slots__ = (
        "generators",  # GroupElements of the class group
        "index_in_A",  # int or INFINITE
        "is_big", "is_small",
    )


class PicardGroup(Record):
    __slots__ = ("generators",)  # GroupElements presenting pic as a subgroup of A


def build_grading(f: Fan) -> GradingData:
    rays = f.ray_index
    group, proj = cokernel_presentation(rays, f.ambient_rank)
    nr = len(rays)
    degrees = []
    for i in range(nr):
        e = [0] * nr
        e[i] = 1
        degrees.append(proj(e))
    return GradingData(
        fan=f,
        class_group=group,
        a_map=proj,
        ray_degrees=tuple(degrees),
        delta_basis=tuple(rays),
    )


def cartier_lattice(g: GradingData):
    """Hermite basis of the lattice of support functions: vectors v in
    Z^Sigma_1 that admit, on every maximal cone σ, an integral linear form
    u_σ agreeing with v on that cone's rays.  With x = (v, u_σ for each σ)
    and m the system v_i − u_σ·ρ_i = 0 (i ∈ σ), it is the part of the
    Hermite basis of the lattice of the (m·x | v) whose first block is 0,
    with that block dropped (a Smith form's transforms grow here)."""
    nr, n = g.num_rays, g.fan.ambient_rank
    maximal = g.fan.maximal
    width = nr + n * len(maximal)
    rows = []
    for k, cone in enumerate(maximal):
        for i in g.fan.cone_ray_indices(cone):
            row = [0] * width
            row[i] = 1
            row[nr + n * k: nr + n * (k + 1)] = [-x for x in g.delta_basis[i]]
            rows.append(row)
    h = len(rows)
    cols = [[r[j] for r in rows] + [int(i == j) for i in range(nr)] for j in range(width)]
    return [v[h:] for v in hermite_row_basis(cols, h + nr) if not any(v[:h])]


def picard_group(g: GradingData) -> PicardGroup:
    basis = cartier_lattice(g)
    gens = []
    for v in basis:
        x = g.a_map(v)
        if not x.is_zero():
            gens.append(x)
    # Canonicalize: drop generators already generated by the others.
    out = []
    for i, x in enumerate(gens):
        rest = out + gens[i + 1 :]
        if not subgroup_contains(rest, x, g.class_group):
            out.append(x)
    return PicardGroup(tuple(out))


@lru_cache(maxsize=256)
def _picard_basis(g: GradingData):
    """Hermite basis of Pic in the class group's coordinates, torsion
    relations included: the span of the classes of the Cartier lattice."""
    return _subgroup_basis(g.class_group, [g.a_map(v) for v in cartier_lattice(g)])


def is_cartier(g: GradingData, alpha: GroupElement) -> bool:
    """Whether alpha lies in Pic: its divisors are Cartier, locally
    principal on every maximal cone (Cox–Little–Schenck, Thm 4.2.8).  A
    principal divisor is Cartier, so one divisor of the class decides it
    for all, and the test is one membership in Pic's Hermite basis."""
    return _order_modulo(_picard_basis(g), alpha.coords()) == 1


def classify_subgroup(g: GradingData, generators) -> SubgroupB:
    generators = tuple(generators)
    idx = subgroup_index(generators, g.class_group)
    pic = picard_group(g)
    small = subgroup_leq(generators, pic.generators, g.class_group)
    return SubgroupB(
        generators=generators,
        index_in_A=idx,
        is_big=idx != INFINITE,
        is_small=small,
    )


def subgroup_of_whole_group(g: GradingData) -> SubgroupB:
    return classify_subgroup(g, g.class_group.generators())


@lru_cache(maxsize=256)
def _degree_zero_lattice(rays):
    """Hermite basis of the degree-0 exponent vectors: the image of the ray
    matrix, whose rows are the rays."""
    return tuple(hermite_row_basis(list(zip(*rays)), len(rays)))


@lru_cache(maxsize=256)
def positive_weight_vector(rays):
    """Integer weights w > 0 on the rays with Σ w_ρ·u_ρ = 0, or None if
    there are none: the sum of the extreme rays of {w ≥ 0 : Σ w_ρ·u_ρ = 0},
    positive exactly when some w in that cone is."""
    units = [tuple(int(i == j) for j in range(len(rays))) for i in range(len(rays))]
    gens, lineality = cone_generators_from_inequalities(units, list(zip(*rays)), len(rays))
    w = tuple(map(sum, zip(*gens)))
    return w if gens and not lineality and all(w) else None


def _nonnegative_rows(basis, n):
    """Rows of v >= 0 for v = b + x . basis, one per coordinate of v."""
    return tuple(tuple(r[i] for r in basis) for i in range(n))


def _refuse_past_cap(count):
    """Raises FiberTooLarge when count passes FIBER_POINT_CAP."""
    if count > FIBER_POINT_CAP:
        raise FiberTooLarge(f"more than {FIBER_POINT_CAP} points (the enumeration cap)")


def _capped(points):
    """The points as a list; raises FiberTooLarge past FIBER_POINT_CAP."""
    out = list(islice(points, FIBER_POINT_CAP + 1))
    _refuse_past_cap(len(out))
    return out


def _cone_points(basis, v0):
    """The sorted vectors v = v0 + x . basis (x integral) with v >= 0.
    Raises FiberTooLarge past FIBER_POINT_CAP vectors."""
    m = _nonnegative_rows(basis, len(v0))
    return sorted(_capped(_lattice_points(m, tuple(v0), v0, basis)))


def require_finite_fibers(g: GradingData):
    """Raises UnboundedFiber unless every degree fiber is finite.  A fiber
    is the lattice points of {x : lift + x . H >= 0}, H the degree-0
    lattice's basis, and the Fourier-Motzkin projections of those rows
    decide boundedness for every offset at once."""
    _bounded_projections(_nonnegative_rows(_degree_zero_lattice(g.delta_basis), g.num_rays))


_FIBERS = OrderedDict()  # (rays, lift) -> fiber, least recent first
_fiber_points = 0  # the points held in _FIBERS


def degree_fiber(g: GradingData, alpha: GroupElement):
    """The exact set of exponent vectors v >= 0 with degree alpha, as a new
    sorted list.

    The fiber must be finite; raises UnboundedFiber otherwise.  Fibers are
    kept as tuples, least recently used dropped first once more than
    FIBER_POINT_CAP points are held; a refusal is not kept.
    """
    global _fiber_points
    key = (g.delta_basis, g.a_map.lift(alpha))
    fiber = _FIBERS.pop(key, None)
    if fiber is None:
        fiber = tuple(_cone_points(_degree_zero_lattice(g.delta_basis), key[1]))
        _fiber_points += len(fiber)
        while _fiber_points > FIBER_POINT_CAP:
            _fiber_points -= len(_FIBERS.popitem(last=False)[1])
    _FIBERS[key] = fiber
    return list(fiber)

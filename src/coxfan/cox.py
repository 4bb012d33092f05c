"""The homogeneous coordinate ring of a fan.

One variable per ray, graded by the class group; the distinguished monomials
Zhat (one per cone, product of the variables off the cone), the irrelevant
ideal they generate, the restriction of both to a big subgroup of degrees,
degree-0 local charts, and the comparison with the monoid charts coming from
dual cones.
"""

from __future__ import annotations

from . import intlat
from ._record import DomainError, Record
from .grading import GradingData, SubgroupB, degree_fiber
from .grading import _cone_points, _degree_zero_lattice, _nonnegative_rows
from .groeb import minimalize_monomials
from .intlat import (
    INFINITE,
    IntMatrix,
    element_order_in_quotient,
    hermite_row_basis,
    integer_kernel,
    subgroup_contains,
)
from .polyfan import Cone, dual_cone, hilbert_basis


class NotBig(DomainError):
    pass


class ConeNotInFan(DomainError):
    pass


BASE_RING_FLAG_NAMES = ("field", "noetherian", "reduced", "stably_coherent", "zero")


class BaseRingFlags(Record):
    """Declared properties of the coefficient ring; never verified."""

    __slots__ = BASE_RING_FLAG_NAMES
    _defaults = dict.fromkeys(BASE_RING_FLAG_NAMES, False)

    def as_dict(self):
        return {name: getattr(self, name) for name in BASE_RING_FLAG_NAMES}


class CoxRingData(Record):
    __slots__ = (
        "grading",
        "subgroup",
        "base_ring_flags",
        "zhat",  # cone ray-generator tuple -> exponent vector
        "m_exponents",  # same keys -> least m >= 1 with m*deg(Zhat) in B
        "irrelevant_generators",  # minimal monomial generators of I
        "restricted_irrelevant_generators",  # minimal monomial gens of I ∩ S_B
    )

    @property
    def num_vars(self):
        return self.grading.num_rays

    def variable_degrees(self):
        return self.grading.ray_degrees


class LocalChart(Record):
    __slots__ = (
        "cone",
        "degree_zero_generators",  # exponent vectors, negatives allowed off the cone
        "toric_relations",  # integer kernel basis among the generators
        "monoid_chart",  # (hilbert basis of the dual monoid, images under c)
    )


def _zhat_exponent(grading: GradingData, cone: Cone):
    cone_rays = set(cone.ray_generators)
    return tuple(0 if r in cone_rays else 1 for r in grading.delta_basis)


def build_cox(g: GradingData, b: SubgroupB, flags: BaseRingFlags = BaseRingFlags()):
    """Assemble the graded coordinate ring data for a big degree subgroup."""
    if not b.is_big:
        raise NotBig("the degree subgroup must have finite index")
    zhat = {}
    m_exponents = {}
    for cone in g.fan.cones:
        e = _zhat_exponent(g, cone)
        zhat[cone.ray_generators] = e
        deg = g.a_map(e)
        order = element_order_in_quotient(deg, list(b.generators), g.class_group)
        if order == INFINITE:
            raise NotBig("no power of a cone monomial lands in the subgroup")
        m_exponents[cone.ray_generators] = order
    maximal = [c.ray_generators for c in g.fan.maximal_cones()]
    irrelevant = tuple(minimalize_monomials(zhat[k] for k in maximal))
    restricted = _restricted_irrelevant(g, b, zhat, m_exponents, maximal, irrelevant)
    return CoxRingData(
        grading=g,
        subgroup=b,
        base_ring_flags=flags,
        zhat=zhat,
        m_exponents=m_exponents,
        irrelevant_generators=irrelevant,
        restricted_irrelevant_generators=tuple(restricted),
    )


def _restricted_irrelevant(g, b, zhat, m_exponents, maximal, irrelevant):
    """Minimal monomial generators of I ∩ S_B.

    With B = A this is I.  Otherwise the monomials of I in the lattice of
    exponents with degree in B are enumerated up to the total-degree cap
    |Sigma_1| * max m_sigma + max |Zhat|; the powers Zhat^m landing in S_B
    guarantee every minimal generator appears below the cap.
    """
    if not maximal:
        return []
    if b.index_in_A == 1:
        return list(irrelevant)
    nr = g.num_rays
    m_max = max(m_exponents[k] for k in maximal)
    cap = nr * m_max + max(sum(zhat[k]) for k in maximal)
    lat = hermite_row_basis(
        [*_degree_zero_lattice(g.c_matrix), *map(g.a_map.lift, b.generators)], nr
    )
    found = [
        v
        for v in _cone_points(lat, (0,) * nr, cap)
        if any(all(x >= y for x, y in zip(v, zhat[k])) for k in maximal)
    ]
    return minimalize_monomials(found)


def degree_zero_monoid_generators(c: CoxRingData, cone: Cone):
    """Hilbert-style generators of {v : deg(v)=0, v >= 0 on the cone's rays}."""
    g = c.grading
    nr = g.num_rays
    if cone.ray_generators not in c.zhat:
        raise ConeNotInFan(f"cone {cone.ray_generators} is not in the fan")
    lat = _degree_zero_lattice(g.c_matrix)
    if not lat:
        return ()
    r = len(lat)
    # Cone in lattice coordinates: rows of lat give v = x . lat.
    rows = _nonnegative_rows(lat, nr)
    gens_cone_ineqs = [rows[g.delta_basis.index(ray)] for ray in cone.ray_generators]
    from .polyfan import cone_generators_from_inequalities

    rays, lin = cone_generators_from_inequalities(gens_cone_ineqs, [], r)
    hb = hilbert_basis(list(rays) + [l for l in lin] + [tuple(-x for x in l) for l in lin], r)
    out = []
    for h in hb:
        v = tuple(
            sum(h[k] * lat[k][i] for k in range(r)) for i in range(nr)
        )
        out.append(v)
    return tuple(sorted(set(out)))


def local_chart(c: CoxRingData, cone: Cone) -> LocalChart:
    """Degree-0 chart data at a cone: algebra generators of the degree-0
    part of the localization, their lattice relations, and the dual-monoid
    chart with its comparison map."""
    if cone.ray_generators not in c.zhat:
        raise ConeNotInFan(f"cone {cone.ray_generators} is not in the fan")
    gens = degree_zero_monoid_generators(c, cone)
    nr = c.num_vars
    if gens:
        m = IntMatrix.from_rows([list(v) for v in gens], cols=nr).transpose()
        relations = tuple(integer_kernel(m))
    else:
        relations = ()
    dc = dual_cone(cone)
    hb = tuple(hilbert_basis(dc.generators, cone.ambient_rank))
    images = tuple(
        tuple(sum(u[j] * ray[j] for j in range(cone.ambient_rank)) for ray in c.grading.delta_basis)
        for u in hb
    )
    return LocalChart(
        cone=cone,
        degree_zero_generators=gens,
        toric_relations=relations,
        monoid_chart=(hb, images),
    )


def gamma_is_iso(c: CoxRingData):
    """(flag, witness): the chart comparison is an isomorphism iff the ray
    matrix has trivial kernel; otherwise a nonzero kernel vector of the
    ray-evaluation map is returned."""
    ker = integer_kernel(c.grading.c_matrix)
    if not ker:
        return True, None
    return False, ker[0]


def strongly_graded_at(c: CoxRingData, cone: Cone) -> bool:
    """True iff every degree in B is hit by an invertible monomial of the
    localization at the cone monomial, i.e. B is contained in the subgroup
    generated by the degrees of the off-cone variables."""
    if cone.ray_generators not in c.zhat:
        raise ConeNotInFan(f"cone {cone.ray_generators} is not in the fan")
    g = c.grading
    cone_rays = set(cone.ray_generators)
    off = [
        g.ray_degrees[i]
        for i, r in enumerate(g.delta_basis)
        if r not in cone_rays
    ]
    return all(
        subgroup_contains(off, x, g.class_group) for x in c.subgroup.generators
    )


def _unit_subgroup_of_degree_monoid(c: CoxRingData):
    """Generators of the group of degrees alpha with monomials in both
    degree alpha and degree -alpha.

    A cancelling pair of monomials exists exactly along supports of
    nonnegative degree-0 exponent vectors; those supports are the rays not
    lying in the lineality space of the support cone, i.e. the rays whose
    negative leaves the cone spanned by all rays.
    """
    g = c.grading
    from .polyfan import in_cone

    rays = list(g.delta_basis)
    if not rays:
        return []
    n = g.fan.ambient_rank
    unit_gens = []
    for i, r in enumerate(rays):
        if not in_cone(tuple(-x for x in r), rays, n):
            unit_gens.append(g.ray_degrees[i])
    return unit_gens


def is_positively_graded(c: CoxRingData, degree_bound: int = 3):
    """(flag, witness).  Decided exactly from the geometry of the support
    cone; the bound only limits the search for a witness degree when the
    answer is negative.  The witness is (alpha, v_plus, v_minus) with both
    exponent vectors nonnegative of degrees alpha and -alpha."""
    if degree_bound < 1:
        raise ValueError("degree bound must be >= 1")
    g = c.grading
    if g.class_group.is_zero():
        return True, None
    units = _unit_subgroup_of_degree_monoid(c)
    bad = intlat.subgroup_intersection(
        units, list(c.subgroup.generators), g.class_group
    )
    if not bad:
        return True, None
    alpha = bad[0]
    witness = None
    for b in range(1, degree_bound + 1):
        plus = degree_fiber(g, alpha, cap=b)
        minus = degree_fiber(g, g.class_group.neg(alpha), cap=b)
        if plus and minus:
            witness = (alpha, plus[0], minus[0])
            break
    return False, witness

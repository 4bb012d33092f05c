"""The homogeneous coordinate ring of a fan.

One variable per ray, graded by the class group; the distinguished monomials
Zhat (one per cone, product of the variables off the cone), the irrelevant
ideal they generate, the restriction of both to a big subgroup of degrees,
and degree-0 local charts, each read off one Hilbert basis, that of its dual
cone.  `_coset_minima` lists the minimal parts of a lattice coset, for
I ∩ S_B and the chart twists of `sheaf`.
"""

from __future__ import annotations

from functools import lru_cache
from math import lcm, prod
from operator import add, mul

from ._record import DomainError, Record
from .grading import GradingData, SubgroupB, _capped, _degree_zero_lattice, _refuse_past_cap
from .groeb import minimalize_monomials
from .intlat import (
    INFINITE,
    _mul_vec,
    _order_modulo,
    _presentation_rows,
    _subgroup_basis,
    _transpose,
    hermite_row_basis,
    integer_kernel,
    subgroup_leq,
)
from .polyfan import (
    Cone,
    _lattice_points,
    cone_generators_from_inequalities,
    cone_inequalities,
    dual_cone,
    hilbert_basis,
)


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
        "maximal_keys",  # the maximal cones' keys, in the fan's cone order
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
        "monoid_hilbert_basis",  # of σ^∨ ∩ M; the generators are its nonzero images
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
    basis = _subgroup_basis(g.class_group, b.generators)
    for cone in g.fan.cones:
        e = _zhat_exponent(g, cone)
        zhat[cone.ray_generators] = e
        order = _order_modulo(basis, g.a_map(e).coords())
        if order == INFINITE:
            raise NotBig("no power of a cone monomial lands in the subgroup")
        m_exponents[cone.ray_generators] = order
    maximal = tuple(c.ray_generators for c in g.fan.maximal)
    irrelevant = tuple(minimalize_monomials(zhat[k] for k in maximal))
    restricted = _restricted_irrelevant(g, b, zhat, maximal)
    return CoxRingData(
        grading=g,
        subgroup=b,
        base_ring_flags=flags,
        zhat=zhat,
        m_exponents=m_exponents,
        maximal_keys=maximal,
        irrelevant_generators=irrelevant,
        restricted_irrelevant_generators=tuple(restricted),
    )


def _restricted_irrelevant(g, b, zhat, maximal):
    """Minimal monomial generators of I ∩ S_B: the minimal Zhat_sigma + w,
    sigma maximal and w a minimal point of (−Zhat_sigma + L_B) ∩ N^n
    (`_coset_minima`, every variable in the part), L_B the exponents of
    degree in B, as x ∈ L_B with x ≥ Zhat_sigma lies above one of them."""
    lat = tuple(hermite_row_basis(
        [*_degree_zero_lattice(g.delta_basis), *map(g.a_map.lift, b.generators)], g.num_rays
    ))
    pos = tuple(range(g.num_rays))
    found = []
    for k in maximal:
        minima, _ = _coset_minima(lat, tuple(-z for z in zhat[k]), pos)
        found += (tuple(map(add, zhat[k], v)) for v in minima)
    return minimalize_monomials(found)


def _coset_minima(basis, v0, pos):
    """The vectors v = v0 + x·basis (x integral), one per minimal part
    p = v|pos ≥ 0, and the kernel directions, which move v off pos only.
    The parts fill v0|pos + L, L the lattice of the b|pos, and lie in a box:
    - L of full rank k: e, the lcm of the unit vectors' orders modulo L,
      puts e·e_j in L, so p_j ≥ e makes p − e·e_j a smaller part.
    - Otherwise the parts are v0|pos + B·y (B the steps at pos, injective)
      over the integer points y of P = {v0|pos + B·y ≥ 0} = conv(V) +
      cone(G), V its vertices, G the primitive extreme rays of {B·y ≥ 0}
      (Minkowski–Weyl).  For y = q + Σ μ_g·g, y − Σ ⌊μ_g⌋·g lies in P with
      a smaller part (B·g ≥ 0), so a minimal y has every μ_g < 1, and
      p_i < max over V of (v0|pos + B·q)_i + Σ_g (B·g)_i; strictly when
      some B·y > 0, as on a chart, where u·ρ > 0 on the rays ρ of the
      pointed cone for some u: then some (B·g)_i > 0.
    Past FIBER_POINT_CAP box points, FiberTooLarge is raised: before any
    is listed when L has full rank, from the box's point count."""
    steps, kernel, top, size = _part_lattice(basis, pos)
    b = [tuple(s[p] for s in steps) for p in pos]
    v0_pos = [v0[p] for p in pos]
    if top is None:
        top = _nonsimplicial_part_bounds(b, v0_pos)
    else:
        _refuse_past_cap(size)
    m = tuple(b) + tuple(tuple(-x for x in row) for row in b)
    bounds = tuple(v0_pos) + tuple(t - x for t, x in zip(top, v0_pos))
    parts = {tuple(v[p] for p in pos): v for v in _capped(_lattice_points(m, bounds, v0, steps))}
    return [parts[p] for p in minimalize_monomials(parts)], kernel


@lru_cache(maxsize=256)
def _part_lattice(basis, pos):
    """Steps, kernel and, when L has full rank, the bounds e − 1 of
    ``_coset_minima`` and its box's point count e^k/[Z^k : L] (else None,
    None): in the Hermite basis of the rows (b|pos | b), the rows with a
    nonzero first block are the steps, those blocks a triangular basis of
    L, whose pivots multiply to [Z^k : L], and the others span the
    lattice's vectors 0 at pos."""
    k = len(pos)
    width = k + len(basis[0]) if basis else k
    h = hermite_row_basis([(*(b[p] for p in pos), *b) for b in basis], width)
    steps = [row[k:] for row in h if any(row[:k])]
    kernel = [row[k:] for row in h if not any(row[:k])]
    if len(steps) < k:
        return steps, kernel, None, None
    lat = [row[:k] for row in h[: len(steps)]]
    e = lcm(*(_order_modulo(lat, [int(i == j) for i in range(k)]) for j in range(k)))
    return steps, kernel, (e - 1,) * k, e**k // prod(row[i] for i, row in enumerate(lat))


def _nonsimplicial_part_bounds(b, v0_tau):
    """⌈max over the vertices of P⌉ + Σ_g (B·g) − 1 per entry of the part.
    The rays (t, y) of the homogenization {t·v0_τ + B·y ≥ 0, t ≥ 0} of P
    give its vertices y/t where t > 0 and the rays g = y of its recession
    cone where t = 0 (Ziegler, Lectures on Polytopes, §1)."""
    rows = [(x, *row) for x, row in zip(v0_tau, b)]
    t_row = (1,) + (0,) * len(b[0])
    rays, _ = cone_generators_from_inequalities(rows + [t_row], [], len(t_row))
    return [
        max(-(-sum(map(mul, row, v)) // v[0]) for v in rays if v[0])
        + sum(sum(map(mul, row, g)) for g in rays if not g[0]) - 1
        for row in rows
    ]


def local_chart(c: CoxRingData, cone: Cone) -> LocalChart:
    """Degree-0 chart data at a cone σ: generators of the degree-0 monoid
    {v ∈ Z^n : deg v = 0, v ≥ 0 on σ's rays}, their lattice relations, and
    the Hilbert basis of σ^∨ ∩ M that they are read off.

    The generators are the nonzero images of that Hilbert basis under
    c(u) = (u·u_ρ)_ρ.  By the exact sequence M → Z^n → Cl → 0 the degree-0
    vectors are exactly the c(u), and c(u) ≥ 0 on σ's rays iff u·g ≥ 0
    for every ray g of σ, i.e. iff u ∈ σ^∨.  So c maps σ^∨ ∩ M onto the
    degree-0 monoid, and on every cone the images of a generating set of
    σ^∨ ∩ M generate it.  When σ is full-dimensional its rays span M_R,
    so c is injective and σ^∨ is pointed, and `hilbert_basis` returns its
    Hilbert basis; c is then an isomorphism of monoids, which carries the
    irreducible elements onto the irreducible elements, so the images are
    exactly the Hilbert basis of the degree-0 monoid.  On a smaller cone
    σ^∨ has units and the generators are one choice among many.  When the
    rays do not span, c kills M ∩ (span of the rays)^⊥, and the images of
    σ^∨'s lineality basis may hold a dependent unit pair: the zero cone
    of the rays (1,0,1), (0,1,1) gets ±(1,1) beside a basis of its units.
    """
    if cone.ray_generators not in c.zhat:
        raise ConeNotInFan(f"cone {cone.ray_generators} is not in the fan")
    hb = tuple(hilbert_basis(dual_cone(cone).generators, cone.ambient_rank))
    images = {_mul_vec(c.grading.delta_basis, u) for u in hb}
    gens = tuple(sorted(v for v in images if any(v)))
    return LocalChart(
        cone=cone,
        degree_zero_generators=gens,
        toric_relations=tuple(integer_kernel(_transpose(gens, c.num_vars), len(gens))),
        monoid_hilbert_basis=hb,
    )


def gamma_is_iso(c: CoxRingData):
    """(flag, witness): the chart comparison is an isomorphism iff the ray
    matrix has trivial kernel; otherwise a nonzero kernel vector of the
    ray-evaluation map is returned."""
    ker = integer_kernel(c.grading.delta_basis, c.grading.fan.ambient_rank)
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
    return subgroup_leq(c.subgroup.generators, off, g.class_group)


def is_positively_graded(c: CoxRingData):
    """(flag, witness).  S_B fails to be positively graded exactly when some
    nonzero alpha in B has monomials in both degree alpha and degree -alpha;
    the witness is then (alpha, v_plus, v_minus), both exponent vectors
    nonnegative, of degrees alpha and -alpha.

    Each facet normal f of the cone spanned by all rays gives the
    nonnegative degree-0 vector (f . u_j)_j; their sum W is positive on the
    unit rays, whose degrees generate the units of the degree monoid.  A
    kernel vector of [unit-ray degrees | -B generators | torsion relations]
    gives c with alpha = sum c_j deg x_j in B; with k = max |c_j|, the
    vectors k W + c and k W - c are the witness.
    """
    g = c.grading
    A = g.class_group
    normals, _ = cone_inequalities(g.delta_basis, g.fan.ambient_rank)
    w = [sum(sum(map(mul, f, u)) for f in normals) for u in g.delta_basis]
    units = [j for j, x in enumerate(w) if x > 0]
    if A.is_zero() or not units:
        return True, None
    relations, n = _presentation_rows(A, map(A.neg, c.subgroup.generators))
    columns = [g.ray_degrees[j].coords() for j in units] + relations
    for v in integer_kernel(_transpose(columns, n), len(columns)):
        x = [0] * g.num_rays
        for j, cj in zip(units, v):
            x[j] = cj
        alpha = g.a_map(x)
        if not alpha.is_zero():
            k = max(map(abs, x))
            plus = tuple(k * wj + xj for wj, xj in zip(w, x))
            minus = tuple(k * wj - xj for wj, xj in zip(w, x))
            return False, (alpha, plus, minus)
    return True, None

"""Finitely presented graded modules over a restricted Cox ring.

A module is a free module with one generator per listed degree, modulo a
list of homogeneous relation rows.  On top of the presentation sit degree
components (counted by standard monomials, not eliminated), membership,
colon / saturation against the restricted irrelevant ideal, and torsion.
The saturation is the intersection of the chart modules, met one pair at
a time: a chart nested in the other is read off by exact membership
tests, and only charts that are not nested take a basis in F ⊕ F.  The
chart modules are kept for the last submodule, and read again for the
same object or for one whose generators are their intersection's
reduced basis.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from operator import mul

from . import groeb
from ._record import Record
from .cox import CoxRingData
from .grading import degree_fiber, positive_weight_vector
from .groeb import (
    _monomial_rows,
    m_is_zero,
    m_term_mul,
    module_contains,
    module_groebner_basis,
    module_intersection,
    module_saturate_element,
    module_saturate_variable,
    reduced_basis,
    submodule_equal,
)


class GradedModulePresentation(Record):
    __slots__ = (
        "cox",
        "generator_degrees",  # GroupElements, generator i spans a shifted copy
        "relations",  # ModElems (tuples of polynomial dicts), homogeneous
    )

    @property
    def rank(self):
        return len(self.generator_degrees)

    @property
    def nvars(self):
        return self.cox.num_vars

    @property
    def units(self):
        """The free generators e_i, as module elements."""
        one = {(0,) * self.nvars: Fraction(1)}
        r = range(self.rank)
        return tuple(tuple(one if j == i else {} for j in r) for i in r)

    def shifted(self, alpha):
        """The degree-shifted module: component beta reads off component
        alpha+beta, so generator degrees drop by alpha."""
        A = self.cox.grading.class_group
        return GradedModulePresentation(
            self.cox,
            tuple(A.add(d, A.neg(alpha)) for d in self.generator_degrees),
            self.relations,
        )

    def element_degree(self, x):
        """Degree of a homogeneous module element, or None for zero."""
        A = self.cox.grading.class_group
        for i, p in enumerate(x):
            for e in p:
                return A.add(self.generator_degrees[i], self.cox.grading.a_map(e))
        return None


def free_module(cox: CoxRingData, degrees=None) -> GradedModulePresentation:
    A = cox.grading.class_group
    if degrees is None:
        degrees = [A.zero()]
    return GradedModulePresentation(cox, tuple(degrees), ())


def quotient_by_monomial_ideal(cox: CoxRingData, exponents) -> GradedModulePresentation:
    """S_B / <monomials> as a rank-1 presentation."""
    rels = tuple(({tuple(e): Fraction(1)},) for e in exponents)
    return GradedModulePresentation(
        cox, (cox.grading.class_group.zero(),), rels
    )


class GradedSubmodule(Record):
    __slots__ = ("ambient", "element_generators")  # homogeneous ModElems

    def with_relations(self):
        return list(self.element_generators) + list(self.ambient.relations)


class DegreeComponent(Record):
    __slots__ = ("degree", "dimension")  # dimension over Q


def _monomials_of_degree(f: GradedModulePresentation, alpha):
    """(generator, exponent) pairs of degree alpha."""
    A = f.cox.grading.class_group
    out = []
    for i, d in enumerate(f.generator_degrees):
        fiber = degree_fiber(f.cox.grading, A.add(alpha, A.neg(d)))
        out.extend((i, e) for e in fiber)
    return out


def graded_elements(f, elements):
    """(degree, element) pairs of the nonzero homogeneous elements, for
    ``component_span_rows``: a caller that needs many degree slices of the
    same elements takes their degrees once."""
    return [(d, x) for x in elements if (d := f.element_degree(x)) is not None]


def component_span_rows(f, graded, alpha, index):
    """Sparse rows {coordinate: coefficient} spanning the degree-alpha
    slice of the module generated by the given (degree, homogeneous
    element) pairs, in the monomial coordinates of ``index``."""
    g = f.cox.grading
    A = g.class_group
    rows = []
    for d_rel, rel in graded:
        for m in degree_fiber(g, A.add(alpha, A.neg(d_rel))):
            row = {}
            for i, p in enumerate(rel):
                for e, c in p.items():
                    k = index.get((i, tuple(a + b for a, b in zip(e, m))))
                    if k is not None:
                        row[k] = row.get(k, 0) + c
            row = {k: c for k, c in row.items() if c}
            if row:
                rows.append(row)
    return rows


def degree_component(f: GradedModulePresentation, alpha) -> DegreeComponent:
    """Exact dimension of the degree-alpha component: the number of its
    monomials x^e·e_i that no leading term of a POT Groebner basis of the
    relations divides.  They are a basis of (F/R)_alpha, as that basis is
    homogeneous (Macaulay's basis theorem; Cox-Little-O'Shea, Using
    Algebraic Geometry, Ch. 5 §2)."""
    basis = module_groebner_basis(list(f.relations))
    lts = [groeb.m_leading_term(x, groeb.POT)[0] for x in basis]
    standard = (not any(q == i and groeb._divides(d, e) for q, d in lts)
                for i, e in _monomials_of_degree(f, alpha))
    return DegreeComponent(alpha, sum(standard))


def submodule_membership(x, sub: GradedSubmodule) -> bool:
    gens = sub.with_relations()
    if not gens:
        return m_is_zero(x)
    gb = module_groebner_basis(gens)
    return module_contains(gb, x)


def _is_monomial_context(sub: GradedSubmodule):
    return all(groeb.m_is_monomial(x) for x in sub.with_relations())


def saturate_at(g: GradedSubmodule, z):
    """The reduced basis of (g + relations : z^inf), for one cone monomial
    z.  Of the empty submodule it is the localization kernel, the elements
    a power of z kills.  A monomial input is saturated position by
    position.  Otherwise, where the rays have a positive relation w
    (``positive_weight_vector``), it is one basis per variable of z,
    (N : x_j^inf) by ``module_saturate_variable``, then one POT basis; z = 1
    takes that basis alone.  Proof: w kills the degree-0 lattice, the
    image of the ray matrix, so generator i's shift w·v is the same for
    every Laurent v of degree d_i, and the terms x^e·e_i of a homogeneous
    element share w·e + shift_i.  The order then compares them by revlex
    with x_j last, so the leading term has the least power of x_j among
    the terms (Eisenbud, Prop. 15.12).  Without a positive relation some
    x^u ≠ 1 has degree 0 (Stiemke's lemma), x^u − 1 is homogeneous, and
    every order leads it with x^u: the colon keeps Rabinowitsch's basis
    under ELIM (``module_saturate_element``)."""
    f = g.ambient
    gens = g.with_relations()
    if _is_monomial_context(g):
        exps = ([e for x in gens for e in x[i]] for i in range(f.rank))
        return _monomial_rows(f.rank, [groeb.monomial_ideal_saturate(m, z) for m in exps])
    grading = f.cox.grading
    w = positive_weight_vector(grading.delta_basis)
    if any(z):
        if w is None:
            return reduced_basis(module_saturate_element(gens, {tuple(z): 1}, f.rank, f.nvars))
        shifts = [sum(map(mul, w, grading.a_map.lift(d))) for d in f.generator_degrees]
        for j in (j for j, x in enumerate(z) if x):
            gens = module_saturate_variable(gens, j, w, shifts)
    return reduced_basis(module_groebner_basis(gens))


_LAST_CHARTS = [None, None]  # the last submodule and its chart bases
_LAST_MEET = [None, None]  # the last charts dict and its chart intersection


def chart_bases(h: GradedSubmodule):
    """Maximal cone key -> ``saturate_at(h, z)``, z the cone monomial: the
    chart modules of h, relations included.  The last submodule's dict is
    returned again for the same object (``is``), so
    ``saturate_submodule(h)`` then ``xi_forward(h)`` saturate once.  It is
    returned too, and h kept in its place, when h's generators are the
    reduced basis of those charts' intersection N, in the same ambient, as
    the lift of a family's often are.  Proof: with g the last submodule, R
    the relations and T_σ = (g + R : z_σ^∞), every T_σ holds g + R, so N
    does and h + R = N; saturation is monotone, N ⊆ T_σ and T_σ is
    z_σ-saturated, so T_σ ⊆ (N : z_σ^∞) ⊆ (T_σ : z_σ^∞) = T_σ, and the
    reduced basis of a module is unique."""
    g, charts = _LAST_CHARTS
    if g is not h:
        if not (
            g is not None
            and g.ambient is h.ambient
            and _LAST_MEET[0] is charts
            and h.element_generators == _LAST_MEET[1]
        ):
            cox = h.ambient.cox
            charts = {key: saturate_at(h, cox.zhat[key]) for key in cox.maximal_keys}
        _LAST_CHARTS[:] = h, charts
    return _LAST_CHARTS[1]


def _meet(a, b):
    """The reduced basis of A ∩ B, A and B given by their reduced POT
    bases a and b.  Membership in a Groebner basis is exact, so when every
    element of a lies in B, A ⊆ B and A ∩ B = A, whose reduced basis is a;
    likewise b when B ⊆ A.  Only charts that are not nested are met in
    F ⊕ F (``module_intersection``)."""
    if all(module_contains(b, x) for x in a):
        return a
    if all(module_contains(a, x) for x in b):
        return b
    return reduced_basis(module_intersection(a, b))


def chart_intersection(f: GradedModulePresentation, charts):
    """The reduced basis of the intersection of the chart modules of a
    dict of reduced bases in f, kept for the same dict (``is``).  Monomial
    charts, and no charts at all, meet position by position as monomial
    ideals, from the unit ideal.  Otherwise the charts are met one at a
    time (``_meet``): a running intersection nested in the next chart, or
    holding it, is read off by containment tests, and only two charts
    that are not nested take a basis in F ⊕ F, cut to its reduced basis."""
    if _LAST_MEET[0] is not charts:
        bases = list(charts.values())
        if all(groeb.m_is_monomial(x) for basis in bases for x in basis):
            unit = [(0,) * f.nvars]
            parts = [[[e for x in b for e in x[i]] for b in bases] for i in range(f.rank)]
            ideals = [reduce(groeb.monomial_ideal_intersection, p, unit) for p in parts]
            meet = _monomial_rows(f.rank, ideals)
        else:
            meet = reduce(_meet, bases)
        _LAST_MEET[:] = charts, meet
    return _LAST_MEET[1]


def saturate_submodule(g: GradedSubmodule) -> GradedSubmodule:
    """The smallest enlargement stable under colon by the restricted
    irrelevant ideal: the intersection of the saturations by the maximal
    cones' monomials, as the reduced basis, relations included."""
    return GradedSubmodule(g.ambient, chart_intersection(g.ambient, chart_bases(g)))


def _least_power(x, step, basis, colon=None):
    """The least k with z^k·x in the submodule of the POT Groebner basis
    ``basis``, z the monomial of exponent ``step``, or None when there is
    none.  When x = c·x^a·e_p and the basis are single terms, membership
    is divisibility, and k is read off the exponents: a basis term
    x^g·e_p divides z^k·x exactly when k >= ⌈(g_ρ − a_ρ)/step_ρ⌉ for every
    ρ with g_ρ > a_ρ, which no k does when such a step_ρ is 0, and k is
    the least of these bounds over the basis terms of position p.  This
    answer is exact, so it needs no colon.  Otherwise membership is monotone
    in k, so the search tests k = 0, 1, 3, 7, ... (k -> 2k + 1) until one
    lies in it, then bisects the last gap, and tests no power twice: a
    least k >= 1 takes m = ceil(log2(k + 1)) tests and m - 1 bisection
    tests, at most 2·ceil(log2 k) + 1 of k > 0.  Some power works exactly
    when x lies in (basis : z^inf), whose basis ``colon()`` returns; it is
    asked once k = 0 and k = 1 fail, so every None is certified.  Without
    ``colon`` some power is known to work."""
    if groeb.m_is_monomial(x) and all(map(groeb.m_is_monomial, basis)):
        p = next(i for i, q in enumerate(x) if q)
        (a,) = x[p]
        bounds = (
            max((-((ar - gr) // s) for gr, ar, s in zip(g, a, step) if gr > ar), default=0)
            for b in basis
            for g in b[p]
            if all(s or gr <= ar for gr, ar, s in zip(g, a, step))
        )
        return min(bounds, default=None)

    def works(k):
        return module_contains(basis, m_term_mul(x, tuple(k * s for s in step), 1))

    lo, hi = -1, 0  # no power up to lo works; test hi
    while not works(hi):
        if hi == 1 and colon is not None and not module_contains(colon(), x):
            return None
        lo, hi = hi, 2 * hi + 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if works(mid) else (mid, hi)
    return hi


def kill_table(f: GradedModulePresentation):
    """(generator index i, maximal cone rays) -> the least k with z^k e_i
    in the relation module, z the cone monomial (``_least_power``), or
    None when no power of z kills e_i: when e_i lies outside the
    localization kernel (relations : z^inf), the chart basis of the empty
    submodule (``chart_bases``), which is the search's colon.  Monomial
    relations decide every entry from the exponents."""
    kernels = chart_bases(GradedSubmodule(f, ()))
    rel_gb = module_groebner_basis(list(f.relations))
    zhat = f.cox.zhat
    return {(i, key): _least_power(e, zhat[key], rel_gb, lambda kernel=kernel: kernel)
            for i, e in enumerate(f.units) for key, kernel in kernels.items()}


def submodules_equal(a: GradedSubmodule, b: GradedSubmodule) -> bool:
    """Equal generator lists generate equal submodules; otherwise the
    reduced bases decide."""
    gens = a.with_relations()
    return gens == b.with_relations() or submodule_equal(gens, b.with_relations())


class TorsionCertificate(Record):
    __slots__ = (
        "is_torsion",
        "exponent_table",  # (generator index, cone rays) -> least killing power
        "failure",  # (generator index, cone rays) not killed, when not torsion
    )


def is_torsion(f: GradedModulePresentation):
    """Whether every generator is annihilated, on each maximal cone, by a
    power of the cone monomial modulo the relations.  The certificate
    holds the kill table in generator order up to the first entry that no
    power kills."""
    table = {}
    for entry, k in kill_table(f).items():
        if k is None:
            return TorsionCertificate(False, table, entry)
        table[entry] = k
    return TorsionCertificate(True, table, None)

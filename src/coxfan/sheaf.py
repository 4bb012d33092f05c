"""Quasicoherent sheaves on the toric cover, presented chart by chart.

A graded module's sheaf is held as its cover: the localization kernel
of every maximal cone and of every intersection of two, computed once.
A chart's twists (its minimal Laurent generators of one degree) are
exact: their cone parts lie in a box proven from a Hermite basis
(``cox._coset_minima``).  Global sections take degrees from finite
lists and denominators from one level: a proven bound for a free
module, else a heuristic.  Both section modes read one chart per cone
and call (``_Chart``), whose windows' coordinates are Laurent monomials.
A free module's sections are the coordinates common to its live maximal
windows, which the lattice-point count of P_D checks: the first window
is listed, and the others test its coordinates; only a module with
relations builds the overlaps' charts, for the equalizer, whose columns
are the maximal windows' standard coordinates and whose rows are keyed
by the overlap coordinates that their normal forms reach.
For a free module at a class in Pic (B = Cl), via_twist reads
via_shift's windows: O(α) is then a line bundle and
M~ ⊗ O(α) ≅ M(α)~.  The unit η of the
correspondence is compared by dimensions: its kernel in degree α is the
saturated relations modulo the relations there, the saturated relations
being the chart intersection of the maximal cones' kernels.
Chart modules and the submodules the correspondences return are held as
reduced POT Groebner bases, relations included, so equal modules are
equal tuples.  ``xi_forward`` reads one chart family per submodule
(``gradmod.chart_bases``), and ``xi_preimage`` and ``lift_finite_type``
one chart intersection per family (``gradmod.chart_intersection``), each
kept for the last object by identity; a submodule generated by the
intersection's reduced basis, as a family's lift often is, reads the
last family too.  The preimage is generated by the intersection's basis and
the window-degree multiples of its elements outside the window, and the
lift searches least powers against that basis.
A family keeps the submodule ``xi_forward`` built it from, and its lift
then needs no colon: some power is proven to clear every chart generator.
The lift of a built family whose intersection basis is made of
cone-monomial power multiples of its chart generators is the
intersection, returned with no search.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import combinations, count
from operator import add, ge, sub

from . import ratlin
from ._record import DomainError, Record
from .cox import CoxRingData, _coset_minima, _part_lattice
from .grading import (
    _degree_zero_lattice,
    _refuse_past_cap,
    degree_fiber,
    is_cartier,
    require_finite_fibers,
)
from .gradmod import (
    GradedModulePresentation,
    GradedSubmodule,
    _least_power,
    _monomials_of_degree,
    chart_bases,
    chart_intersection,
    degree_component,
    graded_elements,
    saturate_at,
)
from .groeb import (
    POT,
    _divides,
    m_leading_term,
    m_normal_form,
    m_term_mul,
    module_contains,
    module_groebner_basis,
    reduced_basis,
)
from .polyfan import _lattice_points

DEFAULT_MAX_LEVEL = 8
_ONE = Fraction(1)


class Unstabilized(DomainError, RuntimeError):
    """A windowed computation did not settle within its bound, or no
    level can settle it."""


class SheafCoverPresentation(Record):
    """The sheaf of a graded module, as what its readers use: the
    localization kernels, which decide the live charts and make the
    section windows' subspaces, and among them the maximal cones', which
    meet in the saturated relations of η."""

    __slots__ = (
        "origin",  # a GradedModulePresentation
        "kernels",  # cone key -> reduced basis of the localization kernel,
        # for the maximal cones and their pairwise intersections
        "maximal",  # the maximal cones' entries of kernels, one dict per
        # cover, so that η's chart intersection is kept for it (``is``)
    )

    @property
    def cox(self):
        return self.origin.cox


class ChartSubmoduleFamily(Record):
    """A subsheaf given by its (saturated) chart submodules, and the
    graded submodule they saturate when ``xi_forward`` built them."""

    __slots__ = (
        "charts",  # cone key -> reduced basis of the chart module, relations included
        "source",  # the GradedSubmodule of ``xi_forward``, or None for a family given by hand
    )
    _defaults = {"source": None}


class GlobalSectionsWindow(Record):
    __slots__ = (
        "degree", "mode", "dimension",
        "level",  # a free module's one level: the proven bound L of the
        # windows read (1 for via_shift's, which via_twist reads at a
        # Cartier class); with relations the second of two equal levels
        "certificate",  # "bound": a proven level; "heuristic": two equal levels
    )


def _sigma_positions(cox: CoxRingData, cone_key):
    rays = set(cone_key)
    return [p for p, r in enumerate(cox.grading.delta_basis) if r in rays]


def _laurent_component_generators(cox: CoxRingData, alpha, cone_key):
    """Minimal fractional-monomial generators of the degree-alpha part of
    the chart localization at the cone τ, as a module over its degree-0
    ring: the minimal parts v_τ ≥ 0 (the entries on τ's rays) of the
    exponents v = v0 + x·H, v0 = lift(alpha), H the Hermite basis of the
    degree-0 lattice, from ``cox._coset_minima``.  On a non-simplicial τ
    its box needs a part of the degree-0 lattice positive on all of τ's
    rays: u·ρ, for u in the interior of τ^∨, as τ is pointed.

    Each part keeps its v of least (max |v_i|, v).  On a full-dimensional τ
    there is no kernel and v is unique.  On a face the v of one part are
    v + t·kernel, and {t : |v + t·kernel| ≤ T} is bounded (the kernel
    directions are independent, as H's rows are), so ``_least_in_part``
    bisects on T and enumerates.  Dimensions do not depend on the choice:
    two v of one part differ by a unit of the chart."""
    g = cox.grading
    pos = tuple(_sigma_positions(cox, cone_key))
    minima, kernel = _coset_minima(_degree_zero_lattice(g.delta_basis), g.a_map.lift(alpha), pos)
    return tuple(_least_in_part(v, kernel) for v in minima)


def _least_in_part(v, kernel):
    """The least (max |v_i|, v) among the vectors v + t·kernel: the least
    vector of the region |v + t·kernel| <= T, for the least T at which the
    region has a point (found by bisection)."""
    if not kernel:
        return v
    m = tuple(tuple(s * k[i] for k in kernel) for i in range(len(v)) for s in (1, -1))

    def region(t):
        bounds = tuple(t + s * x for x in v for s in (1, -1))
        return _lattice_points(m, bounds, v, kernel)

    lo, hi = 0, max(map(abs, v))
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if next(iter(region(mid)), None) else (mid + 1, hi)
    return min(region(hi))


def _overlaps(keys):
    """Each pair of maximal cone keys with the key of their intersection:
    in a fan σ∩τ is a common face, the cone on the shared rays."""
    return [(a, b, tuple(g for g in a if g in b)) for a, b in combinations(keys, 2)]


def sheafify(f: GradedModulePresentation) -> SheafCoverPresentation:
    """The cover presentation of the associated sheaf: the localization
    kernels of the maximal cones and of their pairwise intersections."""
    cox = f.cox
    keys = list(cox.maximal_keys)
    faces = dict.fromkeys(keys + [tau for *_, tau in _overlaps(keys)])
    kernels = {key: saturate_at(GradedSubmodule(f, ()), cox.zhat[key]) for key in faces}
    maximal = {key: kernels[key] for key in keys}
    return SheafCoverPresentation(origin=f, kernels=kernels, maximal=maximal)


def is_zero_sheaf(s: SheafCoverPresentation) -> bool:
    """Whether the sheaf is 0: on each maximal cone σ the degree-0 chart
    module is spanned by the x^v·e_i, v over the Laurent generators of
    degree −deg e_i, and x^v·e_i = x^(v + c·ẑ_σ)·e_i / ẑ_σ^c (c clearing
    v's negative entries) is 0 exactly when its numerator lies in the
    localization kernel.  The kill table (``gradmod.kill_table``) decides
    B-torsion, which is more: on a singular chart a generator that no
    power of ẑ_σ kills may have no nonzero multiple of degree 0."""
    f = s.origin
    cox = f.cox
    group = cox.grading.class_group
    for key in s.maximal:
        z = cox.zhat[key]
        for unit, d in zip(f.units, f.generator_degrees):
            for v in _laurent_component_generators(cox, group.neg(d), key):
                c = max(0, -min(v))
                x = m_term_mul(unit, tuple(a + c * b for a, b in zip(v, z)), 1)
                if not module_contains(s.kernels[key], x):
                    return False
    return True


class _Chart:
    """One cone's section windows, at every denominator level k: the span
    of the Laurent monomials x^(v + e − k·m·ẑ)·e_i, for the chart's twists
    v and the monomials x^e·e_i of the window's degree t.  A coordinate is
    the pair (i, u), u = v + e − k·m·ẑ, so two twists whose products agree
    share it.  The subspace is Σ_v x^(v − k·m·ẑ)·K_t, K the localization
    kernel, which contains the relations.  Let c clear the twists'
    negative entries and J = Σ_v x^(v + c·ẑ)·K.  Every twist has one
    degree, so the subspace is x^(−lift)·J_D for one degree D, with
    lift = (c + k·m)·ẑ: the coordinate (i, u) is the monomial
    x^(u + lift)·e_i of degree D.  J does not depend on the level, which
    moves only the lift and D, so its POT Groebner basis is built once.
    J lies in the monomial submodule the x^(v + c·ẑ)·e_i generate, whose
    monomials of degree D are the window's.  A coordinate is standard when
    no leading term of the basis divides its monomial.

    The standard coordinates are a basis of the window's quotient.  They
    are independent modulo J_D: by Macaulay's basis theorem (Cox–Little–
    O'Shea, Using Algebraic Geometry, Ch. 5 §2) the standard monomials of
    degree D are a basis of F_D / J_D.  They span it, as ``image`` shows:
    a standard coordinate is its own class, and any other's is the normal
    form of its monomial under the basis, shifted back by the lift, whose
    terms are standard.  The remainder stays in the window: the monomial
    lies in the monomial submodule above, and so does J, so every term of
    the remainder is a window monomial of degree D.  It is the class's
    unique standard representative (Macaulay).  A free module's chart has
    an empty basis, so every coordinate is standard."""

    def __init__(self, s, key, degree, twists):
        cox = s.cox
        z, c = cox.zhat[key], max([0] + [-a for v in twists for a in v])
        self.f, self.key, self.degree, self.twists = s.origin, key, degree, twists
        self.z, self.m, self.c = z, cox.m_exponents[key], c
        corners = [tuple(a + c * b for a, b in zip(v, z)) for v in twists]
        self.basis = module_groebner_basis([
            m_term_mul(k, w, 1) for w in corners for k in s.kernels[key]
        ])
        self.leads = [m_leading_term(b, POT)[0] for b in self.basis]

    def _reducible(self, i, monomial):
        return any(q == i and _divides(d, monomial) for q, d in self.leads)

    def standard(self, level):
        """The window's standard coordinates at the level, each once."""
        g, z, k = self.f.cox.grading, self.z, level * self.m
        target = g.class_group.add(self.degree, g.a_map(tuple(k * b for b in z)))
        base = _monomials_of_degree(self.f, target)
        coords = {}
        for v in self.twists:
            shift = [a - k * b for a, b in zip(v, z)]
            for i, e in base:
                coords[i, tuple(map(add, e, shift))] = None
        if self.leads:
            lift = [(self.c + k) * b for b in z]
            return [(i, u) for i, u in coords if not self._reducible(i, tuple(map(add, u, lift)))]
        return coords

    def holds(self, u, level):
        """Whether the window at the level holds a coordinate (i, u) whose
        u has the windows' Laurent degree α − d_i: whether some twist v has
        e = u − v + level·m·ẑ ≥ 0, entry by entry.  Every twist has one
        degree, so such an e has the degree of the window's monomials
        x^e·e_i, and (i, u) is the coordinate of x^e·e_i."""
        k = level * self.m
        w = [a + k * z for a, z in zip(u, self.z)]
        return any(all(map(ge, w, v)) for v in self.twists)

    def image(self, coord, level):
        """The coordinate's class at the level, as {standard coordinate:
        coefficient}.  A coordinate the window does not hold (``holds``)
        is refused: the level slack (``_cover_twist``) was too small."""
        i, u = coord
        if not self.holds(u, level):
            raise Unstabilized("coordinate outside its overlap window")
        lift = [(self.c + level * self.m) * b for b in self.z]
        monomial = tuple(map(add, u, lift))
        if not self._reducible(i, monomial):
            return {coord: 1}
        x = [{} for _ in self.basis[0]]
        x[i] = {monomial: 1}
        return {(j, tuple(map(sub, e, lift))): y
                for j, p in enumerate(m_normal_form(x, self.basis, POT)) for e, y in p.items()}


def _cover_twist(v, tw_tau, tau_pos):
    """The level slack that puts the twist v's products in the overlap
    window: the largest −(v − vt)_i, or 0, for the first twist vt of the
    overlap chart dividing v there."""
    for vt in tw_tau:
        d = [a - b for a, b in zip(v, vt)]
        if all(d[p] >= 0 for p in tau_pos):
            return max(0, -min(d))
    raise Unstabilized("twist generator not covered on the overlap chart")


def _twists(cox, alpha, mode, key):
    """A cone's twists: via_shift's trivial one, via_twist's Laurent generators of alpha."""
    if mode == "via_shift":
        return ((0,) * cox.num_vars,)
    return _laurent_component_generators(cox, alpha, key)


def _level_invariants(s, alpha, mode):
    """What every level of either path reads, computed once: the live
    maximal cones' charts, by cone key, and the level bound L.  A chart
    reads the degree (via_shift: alpha with the trivial twist; via_twist:
    0 tensored with the Laurent generators of alpha) and its cone's
    twists.  A cone is live when no power of its cone monomial kills
    every generator e_i: a dead chart's window is all subspace, and so is
    each of its overlaps' windows, as its cone monomial divides theirs.
    Neither adds to the sections, so neither is built, but L is taken
    over every cone's twists.  A twist box past FIBER_POINT_CAP is
    refused from its point count before any cone's box is listed."""
    cox = s.cox
    degree = alpha if mode == "via_shift" else cox.grading.class_group.zero()
    keys = cox.maximal_keys
    if mode == "via_twist":
        lattice = _degree_zero_lattice(cox.grading.delta_basis)
        for key in keys:
            size = _part_lattice(lattice, tuple(_sigma_positions(cox, key)))[3]
            if size is not None:
                _refuse_past_cap(size)
    twists = {key: _twists(cox, alpha, mode, key) for key in keys}
    # The level bound L, proven in global_sections_degree.
    bound = max([1] + [
        -(-v[p] // (cox.m_exponents[k] * z))
        for k in keys for v in twists[k] for p, z in enumerate(cox.zhat[k]) if z > 0
    ])
    units = s.origin.units
    charts = {
        key: _Chart(s, key, degree, twists[key]) for key in keys
        if not all(module_contains(s.kernels[key], e) for e in units)
    }
    return charts, bound


def _overlap_plan(s, alpha, mode, charts):
    """What ``_equalizer`` reads of the overlaps at every level: per pair
    of live cones the overlap's chart, built once per overlap, the two
    cone keys, and the level slack that puts both sides' products in the
    overlap's windows."""
    cox = s.cox
    pairs = _overlaps(list(charts))
    faces = {tau: _Chart(s, tau, charts[a].degree, _twists(cox, alpha, mode, tau))
             for a, _, tau in pairs}
    plan = []
    for *sides, tau in pairs:
        pos = _sigma_positions(cox, tau)
        covers = [_cover_twist(v, faces[tau].twists, pos) for k in sides for v in charts[k].twists]
        plan.append((faces[tau], sides, max(covers, default=0)))
    return plan


def _common_coordinates(charts, level):
    """The number of coordinates all live maximal windows share at the
    level: a free module's sections (``global_sections_degree``, step 1).
    Only the first chart's window is listed, and each of its coordinates
    (i, u) is kept when every other chart holds it (``_Chart.holds``).
    This is exact: every coordinate of one call, in either mode, has the
    Laurent degree α − d_i (the twist's degree plus the window monomials',
    less the power of ẑ the level clears), so a nonnegative
    e = u − v + k·m·ẑ has the window monomials' degree, and (i, u) lies in
    another window exactly when one of its twists v gives such an e."""
    if not charts:
        return 0
    first, *rest = charts.values()
    return sum(all(chart.holds(u, level) for chart in rest) for _, u in first.standard(level))


def _equalizer(charts, plan, level):
    """The dimension of the equalizer of the chart windows' quotients at
    the level (only a module with relations gets here).  A maximal
    window's quotient has the basis S_σ of its standard coordinates
    (``_Chart``), which number the columns.  The equalizer is the kernel
    of δ on ⊕ span(S_σ), which sends a coordinate to its class in each
    overlap window's quotient, negated on a pair's second side, so its
    dimension is Σ|S_σ| − rank δ.  A coordinate's image is the same
    Laurent monomial in the overlap window, whose class there is its
    normal form under the overlap chart's Groebner basis
    (``_Chart.image``): the remainder stays in the window and is the
    class's unique representative in the overlap's standard coordinates,
    by Macaulay's basis theorem.  δ has one sparse row per overlap
    coordinate that some class reaches, keyed by that coordinate, so no
    overlap window lists its coordinates."""
    n = count()
    cols = {key: {c: next(n) for c in chart.standard(level)} for key, chart in charts.items()}
    rows = []
    for chart, sides, slack in plan:
        needed = max(level * charts[k].m for k in sides) + slack
        at = -(-needed // chart.m)
        eq = {}
        for key, sign in zip(sides, (1, -1)):
            for coord, col in cols[key].items():
                for u, x in chart.image(coord, at).items():
                    eq.setdefault(u, {})[col] = sign * x
        rows.extend(eq.values())
    return sum(map(len, cols.values())) - ratlin.rank(rows)


def global_sections_degree(
    s: SheafCoverPresentation, alpha, mode="via_shift"
) -> GlobalSectionsWindow:
    """Global sections of the sheaf (via_shift: of the shifted module's
    sheaf; via_twist: of the sheaf tensored with the twisting sheaf) as
    the equalizer of the restriction maps at one denominator level.

    At level k the window of a maximal cone σ holds the classes of
    x^v ⊗ x^e·e_i / ẑ_σ^(k·m_σ), for the twists v of σ (v ≥ 0 on σ's rays)
    and the monomials e of the window's degree; dim(k) is the dimension
    of the equalizer.  For a free module the level bound L of
    ``_level_invariants`` is proven, so that level alone is evaluated:

    1. The windows embed in the localization.  The localization kernel is
       quotiented out, and for a free module it is 0.  A window's
       coordinates are the Laurent monomials x^(v + e − k·m_σ·ẑ_σ)·e_i
       themselves, one per monomial however many twists reach it, so the
       window is their span, and each overlap window likewise.  Agreement
       on every overlap is then equality of Laurent polynomials, so dim(k)
       is the number of monomials common to all live windows
       (``_common_coordinates``).  Every monomial x^u·e_i of one call has
       degree α − d_i in both modes, so another window holds it exactly
       when one of its twists v has u − v + k·m_σ·ẑ_σ ≥ 0: the first
       window alone is listed.  In ``_equalizer``'s terms: each row is
       e_c − e_c′, where the monomial lies in both windows of a pair, or
       ±e_c, where it lies in one only, so the equalizer splits by
       monomial, and a monomial adds one dimension exactly when it lies in
       every live window.
    2. dim(k) never decreases and is at most H0.  Multiplying e by
       ẑ_σ^m_σ embeds the level-k window in the level-(k+1) one, and the
       windows of all levels make up the chart module, so H0 is the union
       of these nested equalizers.
    3. From k = L on, dim(k) equals H0.  By 1, H0 is spanned by monomials
       x^u·e_i that lie, on every σ, in some window: u = v + e − k'·m_σ·ẑ_σ
       with e ≥ 0.  Since ẑ_σ is 0 on σ's rays, u ≥ v ≥ 0 there, and every
       ray lies on a maximal cone, so u ≥ 0.  Then e' = u − v + L·m_σ·ẑ_σ
       puts x^u·e_i in the level-L window: e' = e on σ's rays, and off
       them e' ≥ L·m_σ·ẑ_σ,ρ − v_ρ ≥ 0, because L·m_σ·ẑ_σ,ρ ≥ max(v_ρ, 0).

    With relations steps 1 and 3 fail, and a heuristic takes over: the
    equalizer of the levels from L on, over the overlap plan built once
    per call, until two consecutive ones agree, for at most
    DEFAULT_MAX_LEVEL levels, else ``Unstabilized`` is raised.

    via_twist of a free module F = ⊕ S·e_i at a class α in Pic, with
    B = Cl, is read off via_shift's windows (Cox–Little–Schenck §5.3):
    F~ ⊗ O(α) ≅ F(α)~.  On a maximal cone σ, α is Cartier, so some
    divisor v_σ of class α (one of the class plus a principal one) is 0
    on σ's rays, and x^(v_σ) is a unit of S_(ẑ_σ), which inverts exactly
    the variables off σ.  Every Laurent monomial of degree α there is
    x^(v_σ) times one of degree 0, so the multiplication
    (F_(ẑ_σ))_0 ⊗ (S_(ẑ_σ))_α → (F_(ẑ_σ))_α, f ⊗ g ↦ f·g, is onto, and
    g ↦ g·x^(−v_σ) ⊗ x^(v_σ) inverts it.  Multiplication commutes with
    the restriction to σ∩τ (where x^(v_σ − v_τ) is the transition), so
    the chart isomorphisms glue and the sections agree.  A generator's
    degree plays no part: S(−d)~ ⊗ O(α) ≅ S(α−d)~ needs only α to be
    Cartier.  Everywhere else via_twist keeps its own windows: at a
    non-Cartier α the two sheaves differ, and with relations via_shift's
    level is the heuristic, whose numbers can be wrong where via_twist's
    are right."""
    if mode not in ("via_shift", "via_twist"):
        raise ValueError(f"unknown mode {mode!r}")
    if s.origin.relations:
        charts, bound = _level_invariants(s, alpha, mode)
        plan = _overlap_plan(s, alpha, mode, charts)
        prev = None
        for level in range(bound, bound + DEFAULT_MAX_LEVEL):
            dim = _equalizer(charts, plan, level)
            if dim == prev:
                return GlobalSectionsWindow(alpha, mode, dim, level, "heuristic")
            prev = dim
        raise Unstabilized(
            f"section dimension did not settle within {DEFAULT_MAX_LEVEL} levels"
        )
    read = mode
    if mode == "via_twist" and s.cox.subgroup.index_in_A == 1 and is_cartier(s.cox.grading, alpha):
        read = "via_shift"
    charts, level = _level_invariants(s, alpha, read)
    dim = _common_coordinates(charts, level)
    return GlobalSectionsWindow(alpha, mode, dim, level, "bound")


def eta_component_is_bijective(s: SheafCoverPresentation, alpha) -> bool:
    """Whether the unit η_α: M_α → H0(M~(α)) of the correspondence is an
    isomorphism, by dimensions.  Its kernel is N_α / R_α, R the relations
    in the free module F, B the irrelevant ideal and N = (R : B^∞), the
    intersection of the localization kernels (R : z_σ^∞) of the maximal
    cones σ.  As R ⊆ N, η_α is injective exactly when dim (F/N)_α =
    dim M_α, and bijective when that is also the section dimension.
    N is the chart intersection (``gradmod.chart_intersection``) of the
    cover's `maximal` dict, the same object at every α, so N is built
    once per cover.  The kernel is asked first: where η_α is not
    injective, no section window is built."""
    f = s.origin
    saturated = GradedModulePresentation(
        f.cox, f.generator_degrees, chart_intersection(f, s.maximal)
    )
    dim = degree_component(f, alpha).dimension
    return (dim == degree_component(saturated, alpha).dimension
            and dim == global_sections_degree(s, alpha).dimension)


def xi_forward(g: GradedSubmodule) -> ChartSubmoduleFamily:
    """The chart family of the subsheaf generated by a graded submodule:
    per maximal cone, the reduced basis of the saturation by the cone
    monomial: ``gradmod.chart_bases(g)``, with g as its source."""
    return ChartSubmoduleFamily(chart_bases(g), g)


def family_equal(a: ChartSubmoduleFamily, b: ChartSubmoduleFamily) -> bool:
    """Equal chart modules have equal reduced bases."""
    return a.charts == b.charts


def xi_preimage(
    t: ChartSubmoduleFamily,
    f: GradedModulePresentation,
    window_degrees,
) -> GradedSubmodule:
    """The saturated graded submodule whose image is t, generated over the
    window W by the relations and by N_α for α in W, N the chart
    intersection (``gradmod.chart_intersection``, kept per charts dict, so
    ``xi_forward(g)`` after ``saturate_submodule(g)`` reuses it).  For b
    over N's reduced basis, N_α is spanned by the x^m·b of degree α, and
    when b's degree lies in W, b is one of them and its multiples add
    nothing.  So the generators are the b of degree in W and the multiples
    of degree in W of the others: N's basis itself when no b is outside W,
    else the reduced basis of those and the relations.  The only fibers
    listed are those of the multiples, α − deg b for α in W and b outside
    W, under the one cap rule; no window degree's own fiber is, as N_α is
    never listed.  Whether fibers are finite does not depend on the
    degree, so a nonempty window refuses unbounded ones once, up front
    (``grading.require_finite_fibers``)."""
    window = dict.fromkeys(window_degrees)
    if window:
        require_finite_fibers(f.cox.grading)
    meet = chart_intersection(f, t.charts)
    graded = graded_elements(f, meet)
    far = [(d, b) for d, b in graded if d not in window]
    if not far:
        return GradedSubmodule(f, meet)
    g = f.cox.grading
    A = g.class_group
    gens = [b for d, b in graded if d in window] + list(f.relations)
    gens += [
        m_term_mul(b, m, _ONE)
        for d, b in far
        for alpha in window
        for m in degree_fiber(g, A.add(alpha, A.neg(d)))
    ]
    return GradedSubmodule(f, reduced_basis(module_groebner_basis(gens)))


def lift_finite_type(
    t: ChartSubmoduleFamily,
    f: GradedModulePresentation,
) -> GradedSubmodule:
    """A finite-type graded submodule with the given chart family: every
    chart generator x of a cone σ is cleared by the least power
    z_σ^(j·m_σ) that puts it in the chart module T_τ of every other cone
    τ.  Since x lies in T_σ, that is membership in the chart intersection
    N (``gradmod.chart_intersection``), whose reduced basis, relations
    included, tests it, and j is found by ``gradmod._least_power``.

    Some power works for a family that ``xi_forward`` built from a
    submodule g of f (``t.source``): with R the relations,
    T_σ = (g + R : z_σ^∞) and g + R ⊆ N ⊆ T_σ, so (N : z_σ^∞) = T_σ,
    which holds x.  The search then takes no colon.  For any other family,
    some power works exactly when x lies in every (T_τ : z_σ^∞), that is
    in (N : z_σ^∞), as the colon commutes with intersections: one
    saturation per cone, built only when some generator needs j > 1, so a
    refusal is certified.  The result L is the reduced basis of the
    cleared generators and the relations.

    For a built family L is N, with no search, when every element b of
    N's reduced basis is z_σ^(k·m_σ)·x for a chart generator x of some
    cone σ and some k >= 0 (``_cleared_multiple``).  Proof: every
    generator has a least power j, and z_σ^(k·m_σ)·x = b lies in N, so
    j <= k and b is a multiple of the cleared generator z_σ^(j·m_σ)·x;
    so N ⊆ L.  Each cleared generator lies in N, as j is the least power
    that membership in N's basis (or, for single terms, divisibility,
    which is exact) accepts, and R ⊆ N, so L ⊆ N.  N's reduced basis,
    ``meet``, is then L's.  A family given by hand does not take this
    rule, as one of its generators may have no power in N and must be
    refused."""
    cox = f.cox
    meet = chart_intersection(f, t.charts)
    built = t.source is not None and t.source.ambient is f
    steps = {key: tuple(cox.m_exponents[key] * zi for zi in cox.zhat[key]) for key in t.charts}
    if built:
        offers = [(m_leading_term(x, POT)[0], x, steps[key]) for key in t.charts for x in t.charts[key]]
        if all(_cleared_multiple(b, offers) for b in meet):
            return GradedSubmodule(f, meet)
    gens = []
    for key in sorted(t.charts):
        step = steps[key]
        colon = None if built else cache(lambda z=cox.zhat[key]: saturate_at(GradedSubmodule(f, meet), z))
        for x in t.charts[key]:
            j = _least_power(x, step, meet, colon)
            if j is None:
                raise Unstabilized("chart generator lies in no chart module after "
                                   "clearing by any power of its cone monomial")
            gens.append(m_term_mul(x, tuple(j * s for s in step), _ONE))
    return GradedSubmodule(f, reduced_basis(module_groebner_basis(gens + list(f.relations))))


def _cleared_multiple(b, offers):
    """Whether the monic b is z^(k·step)·x for some (POT leading term of
    x, monic x, step) of ``offers`` and some k >= 0.  Multiplying by a
    monomial keeps the POT leading term, so k is read off lt(b) − lt(x),
    and one comparison of elements confirms it; x's exponents are shifted
    with its coefficients kept, as the factor is 1."""
    (p, e), _ = m_leading_term(b, POT)
    for (q, a), x, step in offers:
        if q == p:
            d = tuple(map(sub, e, a))
            k = next((di // s for di, s in zip(d, step) if s), 0)
            if k >= 0 and d == tuple(k * s for s in step) and b == tuple(
                {tuple(map(add, m, d)): c for m, c in xp.items()} for xp in x
            ):
                return True
    return False

"""Quasicoherent sheaves on the toric cover, presented chart by chart.

A graded module's sheaf is held as its cover: the localization kernel
of every maximal cone and of every intersection of two, computed once,
and the kill table of the maximal cones (the least power of each cone
monomial that kills each generator).  A chart's twists (its minimal
Laurent generators of one degree) are exact: their cone parts lie in a
box proven from the Smith form of the cone's rays.  Global sections take
degrees from finite lists and denominators from one level: a proven
bound for a free module, else a heuristic.  Both section modes share
one window/equalizer builder, whose coordinates are Laurent monomials;
the lattice-point count of P_D checks them.  The unit η of the
correspondence is compared by dimensions: its kernel in degree α is the
saturated relations modulo the relations there.
Chart modules and the submodules the correspondences return are held as
reduced POT Groebner bases, relations included, so equal modules are
equal tuples.  ``xi_forward`` and ``xi_preimage`` read one chart family
and one chart intersection per submodule (``gradmod.chart_bases`` and
``gradmod.chart_intersection``), each kept for the last object by identity.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from operator import add, mul

from . import ratlin
from ._record import DomainError, Record
from .cox import CoxRingData
from .grading import _degree_zero_lattice, _lattice_points
from .gradmod import (
    GradedModulePresentation,
    GradedSubmodule,
    _monomials_of_degree,
    chart_bases,
    chart_intersection,
    component_span_rows,
    degree_component,
    graded_elements,
    kill_table,
    saturate_at,
)
from .groeb import (
    m_is_zero,
    m_term_mul,
    minimalize_monomials,
    module_contains,
    module_groebner_basis,
    reduced_basis,
)
from .intlat import IntMatrix, smith_normal_form
from .polyfan import cone_generators_from_inequalities

DEFAULT_MAX_LEVEL = 8
_ONE = Fraction(1)


class Unstabilized(DomainError, RuntimeError):
    """A windowed computation did not settle within its bound, or no
    level can settle it."""


class SheafCoverPresentation(Record):
    """The sheaf of a graded module, as what its readers use: the kill
    table and the localization kernels the section windows quotient by."""

    __slots__ = (
        "origin",  # a GradedModulePresentation
        "killed",  # (generator index, maximal cone key) -> least killing power, or None
        "kernels",  # cone key -> reduced basis of the localization kernel,
        # for the maximal cones and their pairwise intersections
    )

    @property
    def cox(self):
        return self.origin.cox


class ChartSubmoduleFamily(Record):
    """A subsheaf given by its (saturated) chart submodules."""

    __slots__ = ("charts",)  # cone key -> reduced basis of the chart module, relations included


class GlobalSectionsWindow(Record):
    __slots__ = (
        "degree", "mode", "dimension", "level",
        "certificate",  # "bound": a proven level; "heuristic": two equal levels
    )


def _sigma_positions(cox: CoxRingData, cone_key):
    rays = set(cone_key)
    return [p for p, r in enumerate(cox.grading.delta_basis) if r in rays]


def _laurent_component_generators(cox: CoxRingData, alpha, cone_key):
    """Minimal fractional-monomial generators of the degree-alpha part of
    the chart localization at the cone τ, as a module over its degree-0
    ring: the minimal parts p = v_τ ≥ 0 (the entries on τ's k rays) of the
    exponents v = v0 + x·H, v0 = lift(alpha), H the Hermite basis of the
    degree-0 lattice.  The parts fill the coset v0_τ + L, L = R·Z^m, R the
    columns of H on τ's rays.  With the Smith form D = U·R·W of rank r,
    x = W·(y, t) gives v = v0 + y·steps + t·kernel: y moves the part along
    the basis d_i·U⁻¹e_i of L, and t moves only the entries off τ.

    Bound on a minimal part p:
    - τ simplicial (r = k): the exponent e = d_(r−1) of Z^k/L puts e·e_j in
      L, so p_j ≥ e would make p − e·e_j a smaller part; p lies in [0, e)^k.
    - Otherwise the parts are v0_τ + B·y (B = steps on τ's rays, injective)
      for the integer points y of the pointed polyhedron
      P = {v0_τ + B·y ≥ 0} = conv(V) + cone(G), V its vertices and G the
      primitive extreme rays of {B·y ≥ 0} (Minkowski–Weyl).  For
      y = q + Σ μ_g·g, the point y − Σ ⌊μ_g⌋·g lies in P with a part below
      y's (B·g ≥ 0), so a minimal y has every μ_g < 1, and
      p_i < max over V of (v0_τ + B·q)_i + Σ_g (B·g)_i; strictly, since τ
      is pointed and so some (B·g)_i > 0.

    Each part keeps its v of least (max |v_i|, v).  On a full-dimensional τ
    there is no kernel and v is unique.  On a face the v of one part are
    v + t·kernel, and {t : |v + t·kernel| ≤ T} is bounded (the kernel
    directions are independent, as H's rows are), so ``_least_in_part``
    bisects on T and enumerates.  Dimensions do not depend on the choice:
    two v of one part differ by a unit of the chart."""
    g = cox.grading
    v0 = g.a_map.lift(alpha)
    pos = _sigma_positions(cox, cone_key)
    steps, kernel, top = _part_lattice(g.c_matrix, tuple(pos))
    b = [tuple(s[p] for s in steps) for p in pos]
    v0_tau = [v0[p] for p in pos]
    if top is None:
        top = _nonsimplicial_part_bounds(b, v0_tau)
    m = tuple(b) + tuple(tuple(-x for x in row) for row in b)
    bounds = tuple(v0_tau) + tuple(t - x for t, x in zip(top, v0_tau))
    points = _lattice_points(m, bounds, v0, steps)
    parts = {tuple(v[p] for p in pos): v for v in points}
    return tuple(_least_in_part(parts[p], kernel) for p in minimalize_monomials(parts))


@lru_cache(maxsize=256)
def _part_lattice(c_matrix, pos):
    """Steps, kernel directions and, for a simplicial cone, the bounds e − 1
    of ``_laurent_component_generators`` for the rays at pos."""
    nr = c_matrix.rows
    h = IntMatrix.from_rows(_degree_zero_lattice(c_matrix), nr)
    ht = h.transpose()
    d, _, w = smith_normal_form(IntMatrix.from_rows([ht.row(p) for p in pos], h.rows))
    r = sum(1 for x in d.entries if x)
    dirs = [tuple(x) for x in w.transpose().mul(h).to_rows()]
    top = (max(d.entries, default=1) - 1,) * r if r == len(pos) else None
    return dirs[:r], dirs[r:], top


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
    kernels of the maximal cones and of their pairwise intersections, and
    the kill table read off the maximal cones' kernels."""
    cox = f.cox
    keys = [cone.ray_generators for cone in cox.grading.fan.maximal_cones()]
    faces = dict.fromkeys(keys + [tau for *_, tau in _overlaps(keys)])
    kernels = {key: saturate_at(GradedSubmodule(f, ()), cox.zhat[key]) for key in faces}
    return SheafCoverPresentation(origin=f, killed=kill_table(f, kernels), kernels=kernels)


def is_zero_sheaf(s: SheafCoverPresentation) -> bool:
    """Whether the sheaf is 0: on each maximal cone σ the degree-0 chart
    module is spanned by the x^v·e_i, v over the Laurent generators of
    degree −deg e_i, and x^v·e_i = x^(v + c·ẑ_σ)·e_i / ẑ_σ^c (c clearing
    v's negative entries) is 0 exactly when its numerator lies in the
    localization kernel.  The kill table decides B-torsion, which is
    more: on a singular chart a generator that no power of ẑ_σ kills may
    have no nonzero multiple of degree 0."""
    f = s.origin
    cox = f.cox
    group = cox.grading.class_group
    one = {(0,) * f.nvars: _ONE}
    for cone in cox.grading.fan.maximal_cones():
        key = cone.ray_generators
        z = cox.zhat[key]
        for i, d in enumerate(f.generator_degrees):
            unit = tuple(one if j == i else {} for j in range(f.rank))
            for v in _laurent_component_generators(cox, group.neg(d), key):
                c = max(0, -min(v))
                x = m_term_mul(unit, tuple(a + c * b for a, b in zip(v, z)), 1)
                if not module_contains(s.kernels[key], x):
                    return False
    return True


class _Window:
    """One chart at one denominator level: the span of the Laurent
    monomials x^(v + e − level·ẑ)·e_i, for the chart's twists v and the
    monomials x^e·e_i of the window's degree.  A coordinate is the pair
    (i, v + e − level·ẑ), so two twists whose products agree share it.
    The subspace to quotient by is the localization kernel, which
    contains the relations, times each twist."""

    def __init__(self, s, key, degree, twists, level):
        f = s.origin
        g = f.cox.grading
        z = f.cox.zhat[key]
        self.level = level
        target = g.class_group.add(degree, g.a_map(tuple(level * x for x in z)))
        base = _monomials_of_degree(f, target)
        base_index = {c: k for k, c in enumerate(base)}
        base_rows = component_span_rows(
            f, graded_elements(f, s.kernels[key]), target, base_index
        )
        self.index = {}
        rows = []
        for v in twists:
            shift = [a - level * b for a, b in zip(v, z)]
            cols = [
                self.index.setdefault((i, tuple(map(add, e, shift))), len(self.index))
                for i, e in base
            ]
            rows.extend({cols[c]: x for c, x in r.items()} for r in base_rows)
        self.echelon = ratlin.echelon(rows)

    @property
    def size(self):
        return len(self.index)

    @property
    def sub_rank(self):
        return len(self.echelon)

    def image(self, coord):
        """The class of a coordinate vector in the quotient, as the sparse
        representative that is 0 at every pivot of the subspace."""
        t = self.index[coord]
        row = self.echelon.get(t)
        if row is None:
            return {t: _ONE}
        return {k: -x for k, x in row.items() if k != t}


def _cover_twist(v, tw_tau, tau_pos):
    """The level slack that puts the twist v's products in the overlap
    window: the largest −(v − vt)_i, or 0, for the first twist vt of the
    overlap chart dividing v there."""
    for vt in tw_tau:
        d = [a - b for a, b in zip(v, vt)]
        if all(d[p] >= 0 for p in tau_pos):
            return max(0, -min(d))
    raise Unstabilized("twist generator not covered on the overlap chart")


def _level_invariants(s, alpha, mode):
    """What the equalizer needs at every level, computed once: the degree
    read (via_shift: alpha with the single trivial twist; via_twist: 0
    tensored with the Laurent generators of alpha), the live maximal cones,
    the twists of every maximal cone and of every live overlap, the level
    bound L, and per pair of live cones the overlap key, the two cone keys
    and the level slack that puts both sides' products in the overlap
    window.  A cone is live unless the kill table kills every generator
    there: a dead chart's window is all subspace, and so is the window of
    each of its overlaps, since its cone monomial divides the overlap's.
    Neither adds to the equalizer, so neither is built, but L is taken
    over every cone."""
    cox = s.cox
    shift = mode == "via_shift"
    degree = alpha if shift else cox.grading.class_group.zero()

    def twist(key):
        if shift:
            return ((0,) * cox.num_vars,)
        return _laurent_component_generators(cox, alpha, key)

    keys = [c.ray_generators for c in cox.grading.fan.maximal_cones()]
    live = [k for k in keys if any(s.killed[i, k] is None for i in range(s.origin.rank))]
    twists = {key: twist(key) for key in keys}
    # The level bound L, proven in global_sections_degree.
    bound = max([1] + [
        -(-v[p] // (cox.m_exponents[k] * z))
        for k in keys for v in twists[k] for p, z in enumerate(cox.zhat[k]) if z > 0
    ])
    pairs = []
    for *sides, tau_key in _overlaps(live):
        if tau_key not in twists:
            twists[tau_key] = twist(tau_key)
        tau_pos = _sigma_positions(cox, tau_key)
        slack = max(
            (_cover_twist(v, twists[tau_key], tau_pos) for k in sides for v in twists[k]),
            default=0,
        )
        pairs.append((tau_key, sides, slack))
    return degree, live, twists, bound, pairs


def _sections_at_level(s, invariants, level_k):
    """The dimension of the equalizer of the live chart windows at one
    level.  It is the rank of its sparse rows: one row per overlap
    coordinate, read off the images of both sides' coordinates.  A
    coordinate is a Laurent monomial, and so is its image: the same
    monomial in the overlap window."""
    cox = s.cox
    degree, keys, twists, _, pairs = invariants
    windows = {
        key: _Window(s, key, degree, twists[key], level_k * cox.m_exponents[key])
        for key in keys
    }
    offsets = {}
    total = 0
    for key in keys:
        offsets[key] = total
        total += windows[key].size
    rows = []
    overlaps = {}
    for tau_key, sides, slack in pairs:
        needed = max(windows[k].level for k in sides) + slack
        m = cox.m_exponents[tau_key]
        ktau = m * -(-needed // m)
        if (tau_key, ktau) not in overlaps:
            overlaps[tau_key, ktau] = _Window(s, tau_key, degree, twists[tau_key], ktau)
        wt = overlaps[tau_key, ktau]
        eq = {}
        for key, sign in zip(sides, (_ONE, -_ONE)):
            off = offsets[key]
            for coord, col in windows[key].index.items():
                for t, x in wt.image(coord).items():
                    eq.setdefault(t, {})[off + col] = sign * x
        rows.extend(eq[t] for t in sorted(eq))
    trivial = sum(windows[k].sub_rank for k in keys)
    return total - ratlin.rank(rows) - trivial


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
       on every overlap is then equality of Laurent polynomials.
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
    levels from L on are evaluated until two consecutive ones agree, for
    at most DEFAULT_MAX_LEVEL levels, else ``Unstabilized`` is raised."""
    if mode not in ("via_shift", "via_twist"):
        raise ValueError(f"unknown mode {mode!r}")
    invariants = _level_invariants(s, alpha, mode)
    level = invariants[3]
    dim = _sections_at_level(s, invariants, level)
    certificate = "bound"
    if s.origin.relations:
        certificate = "heuristic"
        for level in range(level + 1, level + DEFAULT_MAX_LEVEL):
            prev, dim = dim, _sections_at_level(s, invariants, level)
            if dim == prev:
                break
        else:
            raise Unstabilized(
                f"section dimension did not settle within {DEFAULT_MAX_LEVEL} levels"
            )
    return GlobalSectionsWindow(alpha, mode, dim, level, certificate)


def eta_component_is_bijective(s: SheafCoverPresentation, alpha) -> bool:
    """Whether the unit η_α: M_α → H0(M~(α)) of the correspondence is an
    isomorphism, by dimensions.  Its kernel is (R : B^∞)_α / R_α, R the
    relations and B the irrelevant ideal, and (R : B^∞) is the
    intersection of the localization kernels of the maximal cones.  So
    η_α is bijective exactly when that intersection is R_α in degree α
    and dim M_α equals the section dimension."""
    f = s.origin
    h0 = global_sections_degree(s, alpha).dimension
    comp = degree_component(f, alpha)
    index = {c: k for k, c in enumerate(comp.monomial_basis)}
    keys = [c.ray_generators for c in s.cox.grading.fan.maximal_cones()]
    saturated = ratlin.intersection(
        (component_span_rows(f, graded_elements(f, s.kernels[k]), alpha, index) for k in keys),
        len(index),
    )
    ker = len(saturated) - len(comp.relation_rows)
    return ker == 0 and comp.dimension == h0


def xi_forward(g: GradedSubmodule) -> ChartSubmoduleFamily:
    """The chart family of the subsheaf generated by a graded submodule:
    per maximal cone, the reduced basis of the saturation by the cone
    monomial: ``gradmod.chart_bases(g)``."""
    return ChartSubmoduleFamily(chart_bases(g))


def family_equal(a: ChartSubmoduleFamily, b: ChartSubmoduleFamily) -> bool:
    """Equal chart modules have equal reduced bases."""
    return a.charts == b.charts


def xi_preimage(
    t: ChartSubmoduleFamily,
    f: GradedModulePresentation,
    window_degrees,
) -> GradedSubmodule:
    """The saturated graded submodule whose image is t, reconstructed
    degree by degree over the window: the degree-alpha rows of the chart
    intersection (``gradmod.chart_intersection``, built once per charts
    dict, so ``xi_forward(g)`` after ``saturate_submodule(g)`` reuses it),
    which contains the relations as every chart does.  A row is kept only
    when it is new to the degree-alpha span of the relations and the
    vectors kept so far, the submodule's own component there.  The result
    is the reduced basis of the kept vectors and the relations: in a
    window not in increasing order, a later, lower degree can make an
    earlier vector redundant, and the reduced basis drops it."""
    rels = graded_elements(f, f.relations)
    meet = graded_elements(f, chart_intersection(f, t.charts))
    gens = []  # (degree, element) pairs kept so far
    for alpha in window_degrees:
        coords = _monomials_of_degree(f, alpha)
        if not coords:
            continue
        index = {c: k for k, c in enumerate(coords)}
        rows = component_span_rows(f, meet, alpha, index)
        if not rows:
            continue
        own = component_span_rows(f, gens + rels, alpha, index)
        for vec in ratlin.new_to_span(own, rows):
            gens.append((alpha, tuple(
                {coords[k][1]: c for k, c in sorted(vec.items()) if coords[k][0] == i}
                for i in range(f.rank)
            )))
    kept = [x for _, x in gens] + list(f.relations)
    return GradedSubmodule(f, reduced_basis(module_groebner_basis(kept)))


def lift_finite_type(
    t: ChartSubmoduleFamily,
    f: GradedModulePresentation,
) -> GradedSubmodule:
    """A finite-type graded submodule with the given chart family: every
    chart generator x of a cone σ is cleared by the least power
    z_σ^(j·m_σ) that puts it in the chart module T_τ of every other cone
    τ.  Some power does exactly when x lies in (T_τ : z_σ^∞) for every τ.
    That is tested before any j > 1 is tried, so a refusal is certified;
    membership is monotone in j, so counting up from j = 0 finds the
    least j.  Each chart holds a reduced basis of T_τ, relations
    included, so it is the membership basis.  The result is the reduced
    basis of the cleared generators and the relations."""
    cox = f.cox
    keys = sorted(t.charts)
    gens = []
    for key in keys:
        z = cox.zhat[key]
        step = cox.m_exponents[key]
        others = [other for other in keys if other != key]
        colons = []

        def cleared(x, j):
            return m_term_mul(x, tuple(j * step * zi for zi in z), _ONE)

        def inside(x, j):
            cand = cleared(x, j)
            return all(module_contains(t.charts[other], cand) for other in others)

        def certify(x):
            if not colons:
                colons.extend(saturate_at(GradedSubmodule(f, t.charts[other]), z) for other in others)
            if not all(module_contains(gb, x) for gb in colons):
                raise Unstabilized(
                    "chart generator lies in no chart module after clearing "
                    "by any power of its cone monomial"
                )

        for x in t.charts[key]:
            if not m_is_zero(x):
                j = 0
                while not inside(x, j):
                    if j == 1:
                        certify(x)
                    j += 1
                gens.append(cleared(x, j))
    return GradedSubmodule(f, reduced_basis(module_groebner_basis(gens + list(f.relations))))

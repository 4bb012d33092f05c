"""Quasicoherent sheaves on the toric cover, presented chart by chart.

A graded module is turned into a family of localized chart modules (one
per maximal cone), glued along overlaps.  Global sections are windowed:
degrees come from explicit finite lists and denominator exponents are
raised until two consecutive levels agree.  Both section modes (via_shift
and via_twist) go through one window/equalizer builder, so they are not
independent checks of each other; the lattice-point count of the
divisor polytope is.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

from . import ratlin
from .cox import CoxRingData
from .grading import _lattice_points
from .gradmod import (
    GradedModulePresentation,
    GradedSubmodule,
    _is_monomial_context,
    _kill_power,
    _monomial_saturation,
    _monomials_of_degree,
    component_span_rows,
    minimalize_submodule_generators,
)
from .groeb import (
    m_is_zero,
    m_term_mul,
    module_contains,
    module_groebner_basis,
    module_saturate_element,
    submodule_equal,
)

DEFAULT_MAX_LEVEL = 8
DEFAULT_ENUM_BOX = 6


class Unstabilized(RuntimeError):
    """A windowed computation did not settle within its bound."""


@dataclass(frozen=True)
class LocalModuleWindow:
    """The localized chart module at one maximal cone."""

    cone_key: tuple  # ray generators of the cone
    denominator_step: int  # least power of the cone monomial inside S_B
    generators: tuple  # (generator index, fractional exponent vector)
    killed: dict  # generator index -> least annihilating power

    @property
    def is_zero(self):
        return not self.generators


@dataclass(frozen=True)
class SheafCoverPresentation:
    origin: GradedModulePresentation
    charts: dict  # cone key -> LocalModuleWindow
    kernels: dict = field(default_factory=dict)  # cone key -> localization kernel gens

    @property
    def cox(self):
        return self.origin.cox


@dataclass(frozen=True)
class ChartSubmoduleFamily:
    """A subsheaf given by its (saturated) chart submodule generators."""

    ambient: GradedModulePresentation
    charts: dict  # cone key -> tuple of homogeneous elements


@dataclass(frozen=True)
class GlobalSectionsWindow:
    degree: object
    mode: str
    dimension: int
    level: int
    stabilized: bool
    internals: object = field(compare=False, repr=False, default=None)


def _sigma_positions(cox: CoxRingData, cone_key):
    rays = set(cone_key)
    return [p for p, r in enumerate(cox.grading.delta_basis) if r in rays]


def _laurent_component_generators(cox: CoxRingData, alpha, cone_key):
    """Minimal fractional-monomial generators of the degree-alpha part of
    the chart localization, as a module over its degree-0 ring.

    Searches v = lift(alpha) + C u, v >= 0 on the cone, over |u_j| <= k; a
    heuristic accepts the answer once k = DEFAULT_ENUM_BOX and k + 2 agree."""
    g = cox.grading
    rnk = g.c_matrix.cols
    v0 = g.a_map.lift(alpha)
    pos = _sigma_positions(cox, cone_key)
    rows = g.c_matrix.to_rows()
    box = [tuple(s * (i == j) for i in range(rnk)) for s in (1, -1) for j in range(rnk)]
    m = tuple(tuple(rows[p]) for p in pos) + tuple(box)

    def collect(k):
        best = {}
        for u in _lattice_points(m, tuple(v0[p] for p in pos) + (k,) * (2 * rnk)):
            v = tuple(x + sum(a * b for a, b in zip(r, u)) for x, r in zip(v0, rows))
            key = tuple(v[p] for p in pos)
            if key not in best or v < best[key]:
                best[key] = v
        keys = sorted(best)
        minimal = [
            p
            for p in keys
            if not any(
                q != p and all(a - b >= 0 for a, b in zip(p, q)) for q in keys
            )
        ]
        return {p: best[p] for p in minimal}

    small, large = collect(DEFAULT_ENUM_BOX), collect(DEFAULT_ENUM_BOX + 2)
    if set(small) != set(large):
        raise Unstabilized(
            f"fractional generator search did not settle within |u_j| <= {DEFAULT_ENUM_BOX + 2}"
        )
    return tuple(small[p] for p in sorted(small))


def twist_generators(cox: CoxRingData, alpha, sigma):
    """Minimal monomial generators (fractional exponents) of the
    degree-alpha component of the chart localization of the ring."""
    key = sigma.ray_generators if hasattr(sigma, "ray_generators") else tuple(sigma)
    return _laurent_component_generators(cox, alpha, key)


def _localization_kernel(f: GradedModulePresentation, zexp):
    if not f.relations:
        return ()
    zp = {tuple(zexp): Fraction(1)}
    sat = module_saturate_element(list(f.relations), zp, f.rank, f.nvars)
    return tuple(x for x in sat if not m_is_zero(x))


def sheafify(f: GradedModulePresentation) -> SheafCoverPresentation:
    """The cover presentation of the associated sheaf: one localized
    module per maximal cone, with killed generators certified."""
    cox = f.cox
    A = cox.grading.class_group
    rel_gb = module_groebner_basis(list(f.relations)) if f.relations else []
    charts = {}
    kernels = {}
    for cone in cox.grading.fan.maximal_cones():
        key = cone.ray_generators
        z = cox.zhat[key]
        kern = _localization_kernel(f, z)
        kernels[key] = kern
        kern_gb = module_groebner_basis(list(kern)) if kern else []
        killed = {}
        gens = []
        for i in range(f.rank):
            unit = tuple(
                {} if j != i else {(0,) * f.nvars: Fraction(1)}
                for j in range(f.rank)
            )
            if kern and module_contains(kern_gb, unit):
                # the unit lies in (relations : z^inf), so a power kills it
                killed[i] = _kill_power(rel_gb, i, z, f.rank)
                continue
            alpha = A.neg(f.generator_degrees[i])
            for v in _laurent_component_generators(cox, alpha, key):
                gens.append((i, v))
        charts[key] = LocalModuleWindow(
            cone_key=key,
            denominator_step=cox.m_exponents[key],
            generators=tuple(gens),
            killed=killed,
        )
    return SheafCoverPresentation(origin=f, charts=charts, kernels=kernels)


def is_zero_sheaf(s: SheafCoverPresentation) -> bool:
    return all(chart.is_zero for chart in s.charts.values())


def _kernel_for(s: SheafCoverPresentation, key, zexp):
    if key not in s.kernels:
        s.kernels[key] = _localization_kernel(s.origin, zexp)
    return s.kernels[key]


def _reduce_mod(vec, rrows, pivots):
    v = list(vec)
    for r, p in zip(rrows, pivots):
        if v[p]:
            c = v[p]
            v = [a - c * b for a, b in zip(v, r)]
    return v


class _Window:
    """Monomial coordinates (twist index, generator, exponent) of one
    chart at one denominator level, together with the subspace to
    quotient by: relations and localization kernel in every twist block,
    plus the tensor identifications between the twist blocks."""

    def __init__(self, s, key, degree, twists, level):
        f = s.origin
        g = f.cox.grading
        z = f.cox.zhat[key]
        self.level = level
        self.twists = twists
        target = g.class_group.add(degree, g.a_map(tuple(level * x for x in z)))
        base = _monomials_of_degree(f, target)
        base_index = {c: k for k, c in enumerate(base)}
        base_rows = component_span_rows(
            f,
            list(_kernel_for(s, key, z)) + list(f.relations),
            target,
            base,
            base_index,
        )
        self.coords = [(j, i, e) for j in range(len(twists)) for (i, e) in base]
        self.index = {c: k for k, c in enumerate(self.coords)}
        rows = []
        width = len(base)
        for j in range(len(twists)):
            for r in base_rows:
                row = [Fraction(0)] * self.size
                row[j * width : (j + 1) * width] = r
                rows.append(row)
        for j, j2 in combinations(range(len(twists)), 2):
            diff = tuple(a - b for a, b in zip(twists[j], twists[j2]))
            for (i, e) in base:
                e2 = tuple(a + b for a, b in zip(e, diff))
                if (i, e2) in base_index:
                    row = [Fraction(0)] * self.size
                    row[self.index[(j, i, e)]] = Fraction(1)
                    row[self.index[(j2, i, e2)]] = Fraction(-1)
                    rows.append(row)
        self.w_rref, self.w_pivots = ratlin.rref(rows)
        self.w_rref = self.w_rref[: len(self.w_pivots)]

    @property
    def size(self):
        return len(self.coords)

    @property
    def sub_rank(self):
        return len(self.w_pivots)

    def reduce(self, vec):
        return _reduce_mod(vec, self.w_rref, self.w_pivots)


def _overlap_level(cox, tau_key, needed):
    m = cox.m_exponents[tau_key]
    return m * (-(-needed // m))


def _cover_twist(v, tw_tau, tau_pos):
    """A twist generator of the overlap chart dividing v there, with the
    exponent difference."""
    for l, vt in enumerate(tw_tau):
        d = tuple(a - b for a, b in zip(v, vt))
        if all(d[p] >= 0 for p in tau_pos):
            return l, d
    raise Unstabilized("twist generator not covered on the overlap chart")


def _sections_at_level(s, alpha, mode, level_k):
    """The equalizer of the chart windows at one level.  via_shift reads
    the degree-alpha slice with the single trivial twist; via_twist reads
    the degree-0 slice tensored with the Laurent generators of alpha."""
    cox = s.cox
    cones = list(cox.grading.fan.maximal_cones())
    keys = [c.ray_generators for c in cones]
    if mode == "via_shift":
        degree = alpha
        trivial_twist = ((0,) * cox.num_vars,)

        def twists(key):
            return trivial_twist

    else:
        degree = cox.grading.class_group.zero()

        def twists(key):
            return _laurent_component_generators(cox, alpha, key)

    windows = {
        key: _Window(s, key, degree, twists(key), level_k * cox.m_exponents[key])
        for key in keys
    }
    offsets = {}
    total = 0
    for key in keys:
        offsets[key] = total
        total += windows[key].size
    rows = []
    for (k1, c1), (k2, c2) in combinations(list(zip(keys, cones)), 2):
        tau_key = c1.intersect(c2).ray_generators
        ztau = cox.zhat[tau_key]
        tw_tau = twists(tau_key)
        tau_pos = _sigma_positions(cox, tau_key)
        plans = {
            key: [_cover_twist(v, tw_tau, tau_pos) for v in windows[key].twists]
            for key in (k1, k2)
        }
        slack = max(
            (max(0, -min(d)) for plan in plans.values() for _, d in plan),
            default=0,
        )
        needed = max(windows[k1].level, windows[k2].level) + slack
        ktau = _overlap_level(cox, tau_key, needed)
        wt = _Window(s, tau_key, degree, tw_tau, ktau)
        images = {}
        for key in (k1, k2):
            w = windows[key]
            zs = cox.zhat[key]
            cols = []
            for (j, i, e) in w.coords:
                l, d = plans[key][j]
                e2 = tuple(
                    a + b + ktau * zt - w.level * z
                    for a, b, zt, z in zip(e, d, ztau, zs)
                )
                vec = [Fraction(0)] * wt.size
                vec[wt.index[(l, i, e2)]] = Fraction(1)
                cols.append(wt.reduce(vec))
            images[key] = cols
        for t in range(wt.size):
            row = [Fraction(0)] * total
            for key, sign in ((k1, 1), (k2, -1)):
                off = offsets[key]
                for jcol, col in enumerate(images[key]):
                    if col[t]:
                        row[off + jcol] += sign * col[t]
            if any(row):
                rows.append(row)
    null = ratlin.nullspace(rows, ncols=total)
    trivial = sum(windows[k].sub_rank for k in keys)
    dim = len(null) - trivial
    return dim, (windows, offsets, total, null, keys)


def global_sections_degree(
    s: SheafCoverPresentation,
    alpha,
    mode="via_shift",
    max_level=DEFAULT_MAX_LEVEL,
) -> GlobalSectionsWindow:
    """Global sections of the sheaf (via_shift: of the shifted module's
    sheaf; via_twist: of the sheaf tensored with the twisting sheaf) as
    the equalizer of the restriction maps, stabilized over denominator
    levels."""
    if mode not in ("via_shift", "via_twist"):
        raise ValueError(f"unknown mode {mode!r}")
    prev = None
    for level in range(1, max_level + 1):
        dim, internals = _sections_at_level(s, alpha, mode, level)
        if prev is not None and dim == prev:
            return GlobalSectionsWindow(
                degree=alpha,
                mode=mode,
                dimension=dim,
                level=level,
                stabilized=True,
                internals=internals,
            )
        prev = dim
    raise Unstabilized(
        f"section dimension did not settle within {max_level} levels"
    )


def eta_component_is_bijective(s: SheafCoverPresentation, alpha) -> bool:
    """Whether the canonical map from the degree-alpha component of the
    module to the sections of the shifted sheaf is an isomorphism."""
    from .gradmod import degree_component

    f = s.origin
    cox = f.cox
    sec = global_sections_degree(s, alpha, mode="via_shift")
    windows, offsets, total, _null, keys = sec.internals
    comp = degree_component(f, alpha)
    if comp.dimension != sec.dimension:
        return False
    # injectivity: a degree component element mapping into every chart's
    # quotient-by-zero subspace must already lie in the relation span
    reduced_images = []
    for (i, e) in comp.monomial_basis:
        img = [Fraction(0)] * total
        for key in keys:
            w = windows[key]
            z = cox.zhat[key]
            e2 = tuple(a + w.level * b for a, b in zip(e, z))
            vec = [Fraction(0)] * w.size
            vec[w.index[(0, i, e2)]] = Fraction(1)
            red = w.reduce(vec)
            off = offsets[key]
            for t, x in enumerate(red):
                img[off + t] = x
        reduced_images.append(img)
    system = [
        [reduced_images[j][t] for j in range(len(reduced_images))]
        for t in range(total)
    ]
    kernel = ratlin.nullspace(system, ncols=len(reduced_images))
    rel_rows = list(comp.relation_rows)
    return all(ratlin.in_row_span(rel_rows, v) for v in kernel)


def xi_forward(g: GradedSubmodule) -> ChartSubmoduleFamily:
    """The chart family of the subsheaf generated by a graded submodule:
    per maximal cone, the saturation by the cone monomial."""
    f = g.ambient
    cox = f.cox
    charts = {}
    monomial = _is_monomial_context(g)
    for cone in cox.grading.fan.maximal_cones():
        key = cone.ray_generators
        z = cox.zhat[key]
        if monomial:
            charts[key] = _monomial_saturation(g, [z])
        else:
            zp = {tuple(z): Fraction(1)}
            sat = module_saturate_element(
                g.with_relations(), zp, f.rank, f.nvars
            )
            charts[key] = tuple(x for x in sat if not m_is_zero(x))
    return ChartSubmoduleFamily(ambient=f, charts=charts)


def family_equal(a: ChartSubmoduleFamily, b: ChartSubmoduleFamily) -> bool:
    f = a.ambient
    if set(a.charts) != set(b.charts):
        return False
    return all(
        submodule_equal(
            list(a.charts[k]) + list(f.relations),
            list(b.charts[k]) + list(f.relations),
        )
        for k in a.charts
    )


def xi_preimage(
    t: ChartSubmoduleFamily,
    f: GradedModulePresentation,
    window_degrees,
) -> GradedSubmodule:
    """The saturated graded submodule whose image is t, reconstructed
    degree by degree over the window: the intersection over charts of
    the chart modules' graded components."""
    gens = []
    for alpha in window_degrees:
        coords = _monomials_of_degree(f, alpha)
        if not coords:
            continue
        index = {c: k for k, c in enumerate(coords)}
        inter = None
        for key, chart_gens in sorted(t.charts.items()):
            rows = component_span_rows(
                f,
                list(chart_gens) + list(f.relations),
                alpha,
                coords,
                index,
            )
            red, piv = ratlin.rref(rows)
            basis = red[: len(piv)]
            inter = basis if inter is None else ratlin.subspace_intersection(
                inter, basis
            )
            if not inter:
                break
        if not inter:
            continue
        for vec in inter:
            elem = [dict() for _ in range(f.rank)]
            for (i, e), c in zip(coords, vec):
                if c:
                    elem[i][e] = Fraction(c)
            gens.append(tuple(elem))
    out = GradedSubmodule(f, tuple(gens))
    return minimalize_submodule_generators(out)


def lift_finite_type(
    t: ChartSubmoduleFamily,
    f: GradedModulePresentation,
) -> GradedSubmodule:
    """A finite-type graded submodule with the given chart family: every
    chart generator is cleared by a power of its cone monomial until the
    result lies in the family on all the other charts as well."""
    cox = f.cox
    keys = sorted(t.charts)
    sat_gbs = {}
    for key in keys:
        gens = list(t.charts[key]) + list(f.relations)
        sat_gbs[key] = module_groebner_basis(gens) if gens else []
    gens = []
    for key in keys:
        z = cox.zhat[key]
        step = cox.m_exponents[key]
        for x in t.charts[key]:
            if m_is_zero(x):
                continue
            lifted = None
            for j in range(DEFAULT_MAX_LEVEL + 1):
                e = tuple(j * step * zi for zi in z)
                cand = m_term_mul(x, e, Fraction(1))
                if all(
                    module_contains(sat_gbs[other], cand)
                    for other in keys
                    if other != key
                ):
                    lifted = cand
                    break
            if lifted is None:
                raise Unstabilized(
                    "chart generator could not be cleared into the family"
                )
            gens.append(lifted)
    out = GradedSubmodule(f, tuple(gens))
    return minimalize_submodule_generators(out)

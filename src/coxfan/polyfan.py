"""Rational polyhedral cones and fans.

Cones are given by primitive integer ray generators; conversion between
generator and inequality descriptions goes through Fourier-Motzkin
elimination on primitive integer rows, and keeps only the facets: a row
whose tight generators lie in no other row's tight set, one row per
tight set.  Everything else about a cone is read off the ray-facet
incidence of its one cached H-representation (Cox-Little-Schenck, Toric
Varieties, §1.2): a generator g spans an extreme ray when no other
generator is tight on every facet tight at g; the faces are the
intersections of the sets of rays tight on each facet; the facets are
the rays of the dual.  The dimension, like every other rank, is the
length of a Hermite basis.  The one lattice-point enumerator,
`_lattice_points`, is here: degree fibers, chart twists, the restricted
irrelevant ideal and Hilbert bases read it.
Cones, fans and Hilbert bases are capped at ambient rank 6 where they are made
(`Cone.make`, `build_fan`, `hilbert_basis`); the algorithms here are
enumeration-based and meant for desk-scale inputs.  The Fourier-Motzkin
conversions themselves take any rank, since a chart's polyhedron is
homogenized one rank above its fan.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import gcd
from operator import add, mul

from ._record import DomainError, Record
from .intlat import _transpose, cokernel_presentation, hermite_row_basis, integer_kernel

RANK_CAP = 6


class PolyfanError(DomainError):
    pass


class RankTooLarge(PolyfanError):
    pass


class NonPointed(PolyfanError):
    pass


class FanInvalid(PolyfanError):
    pass


def _check_rank(n):
    if n > RANK_CAP:
        raise RankTooLarge(f"ambient rank {n} exceeds the supported cap {RANK_CAP}")


def primitive(v):
    """Primitive integer vector on the same ray."""
    v = tuple(int(x) for x in v)
    g = gcd(*v)
    return tuple(x // g for x in v) if g else v


# --- Fourier-Motzkin machinery -------------------------------------------

def fm_combine(fp, fn, idx):
    """The primitive combination of a row with fp[idx] > 0 and a row with
    fn[idx] < 0 that cancels coordinate idx; both enter with a positive
    multiplier, so the result is implied by the two inequalities."""
    return primitive([fp[idx] * b - fn[idx] * a for a, b in zip(fp, fn)])


def _fm_eliminate(eqs, ineqs, idx):
    """Eliminate coordinate idx from integer equations e.x = 0 and
    inequalities f.x >= 0.

    Rows come out primitive and deduplicated in order.  Each is a positive
    multiple of the row that rational elimination (dividing by the pivot)
    would give, so the primitive rows do not depend on the arithmetic.
    """
    pivot = next((e for e in eqs if e[idx]), None)
    if pivot is not None:
        p = pivot[idx]
        s = 1 if p > 0 else -1

        def cancel(e):
            return primitive([(x * p - e[idx] * y) * s for x, y in zip(e, pivot)])

        eqs = [cancel(e) for e in eqs if e is not pivot]
        ineqs = [cancel(f) for f in ineqs]
    else:
        pos = [f for f in ineqs if f[idx] > 0]
        neg = [f for f in ineqs if f[idx] < 0]
        ineqs = [f for f in ineqs if f[idx] == 0]
        ineqs += [fm_combine(fp, fn, idx) for fp in pos for fn in neg]
    return _prune(eqs), _prune(ineqs)


def _prune(vectors):
    seen = set()
    out = []
    for v in vectors:
        if all(x == 0 for x in v):
            continue
        if v not in seen:
            seen.add(v)
            out.append(v)
    return out


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _tight(row, rays):
    """The rays on the hyperplane row.x = 0."""
    return frozenset(g for g in rays if not _dot(row, g))


def cone_inequalities(generators, rank):
    """Facet H-representation of cone(generators): (facet normals, equality normals).

    The cone is {x : f.x >= 0 for f in ineqs, e.x = 0 for e in eqs}.
    Obtained by eliminating the multiplier variables lambda from
    {x = sum lambda_i g_i, lambda >= 0} with Fourier-Motzkin, in integers.
    Elimination also yields implied rows.  A row cuts out the face on the
    generators tight on it, and some row cuts out each facet, as the rows
    are an H-representation.  No row is tight on every generator: a final
    row f is sum mu_i lambda_i plus a combination of the equations, with
    mu >= 0 not all 0, as every step scales the multipliers or adds them
    positively, and the coefficients of lambda_i give f.g_i = mu_i.  So a
    row's face lies in a facet, and a row is kept when its tight set lies
    strictly inside no other row's, the last of the rows with one tight
    set.  The equality normals are the Hermite basis of the eliminated
    equations, cleared from the last row up to primitive reduced echelon
    rows.
    """
    gens = [tuple(g) for g in generators]
    k = len(gens)
    eqs = [
        tuple(int(c == j) for j in range(rank)) + tuple(-g[c] for g in gens)
        for c in range(rank)
    ]
    ineqs = [tuple(int(j == rank + i) for j in range(rank + k)) for i in range(k)]
    for idx in reversed(range(rank, rank + k)):
        eqs, ineqs = _fm_eliminate(eqs, ineqs, idx)
    out_eq = hermite_row_basis([f[:rank] for f in eqs], rank)
    for i in reversed(range(len(out_eq))):
        out_eq[i] = p = primitive(out_eq[i])
        col = next(c for c, x in enumerate(p) if x)
        for j in range(i):
            out_eq[j] = [p[col] * a - out_eq[j][col] * b for a, b in zip(out_eq[j], p)]
    rows = {_tight(f, gens): f for f in _prune([primitive(f[:rank]) for f in ineqs])}
    return [f for tight, f in rows.items() if not any(tight < t for t in rows)], out_eq


def cone_generators_from_inequalities(ineqs, eqs, rank):
    """V-representation of {x : ineqs.x >= 0, eqs.x = 0}.

    Returns (rays, lineality_basis); the cone is cone(rays) + lattice
    spanned by +/- the lineality basis.  Uses duality: the normals
    generate the dual cone, whose facets are the extreme rays (so no ray
    is redundant) and whose equalities span the lineality space.
    """
    return cone_inequalities(_dual_generators(ineqs, eqs), rank)


def _dual_generators(ineqs, eqs):
    """Generators of the dual of {x : ineqs.x >= 0, eqs.x = 0}: the
    inequality normals and +/- the equality normals."""
    return [tuple(f) for f in ineqs] + [
        s for e in eqs for s in (tuple(e), tuple(-x for x in e))
    ]


def in_cone(v, generators, rank):
    """Exact membership of a vector in cone(generators)."""
    ineqs, eqs = _hrep_cached(tuple(tuple(g) for g in generators), rank)
    return all(_dot(f, v) >= 0 for f in ineqs) and not any(_dot(e, v) for e in eqs)


@lru_cache(maxsize=4096)
def _hrep_cached(gens, rank):
    return cone_inequalities(list(gens), rank)


# --- Lattice points of a polytope ----------------------------------------

class UnboundedFiber(DomainError):
    pass


@lru_cache(maxsize=256)
def _projections(m):
    """Fourier-Motzkin projections of {u : b + M u >= 0}, valid for every b.

    Level j + 1 holds the rows, on u_0..u_j, that bound u_j once the earlier
    coordinates are fixed; level 0 holds the constant rows.  A row is
    (coefficients, nonnegative multipliers on the rows of M), eliminated
    with its multipliers as extra columns, so its constant term for an
    offset b is multipliers . b.  None when a level lacks rows of both
    signs: the polyhedron then has a recession direction.

    Chernikov's rule (USSR Comput. Math. Math. Phys. 5, 1965): after t
    eliminations the rows whose multipliers use at most t + 1 rows of M
    include the extreme rays of the multiplier cone, and every other row
    is a nonnegative combination of those, multipliers included; dropping
    the others leaves every projection exact, for every b.
    """
    k = len(m[0]) if m else 0
    rows = [(*r, *(int(i == t) for t in range(len(m)))) for i, r in enumerate(m)]
    levels = []
    for t, j in enumerate(reversed(range(k)), 1):
        pos = [r for r in rows if r[j] > 0]
        neg = [r for r in rows if r[j] < 0]
        if not pos or not neg:
            return None
        levels.append(pos + neg)
        _, rows = _fm_eliminate([], rows, j)
        rows = [r for r in rows if sum(map(bool, r[k:])) <= t + 1]
    levels.append(rows)
    return tuple(tuple((r[:k], r[k:]) for r in lv) for lv in reversed(levels))


def _bounded_projections(m):
    """``_projections(m)``; raises UnboundedFiber where it is None, that is
    unless {u : b + M u >= 0} is bounded for every b."""
    levels = _projections(m)
    if levels is None:
        raise UnboundedFiber("degree fibers are infinite: a nonzero monomial has degree 0")
    return levels


def _lattice_points(m, b, v0, basis):
    """The vectors v0 + u . basis for the integer points u of
    {u : b + M u >= 0}, with M a tuple of rows, in lexicographic order of u.

    Returns a lazy iterable, which carries the partial vector and each
    bounding row's partial sum down the recursion.  Raises UnboundedFiber
    unless the polyhedron is bounded for every b."""
    levels = _bounded_projections(m)
    sums = [[sum(map(mul, la, b)) for _, la in lv] for lv in levels]
    if any(s < 0 for s in sums[0]):
        return []
    k = len(levels) - 1
    if k == 0:
        return [tuple(v0)]
    # coefs[j][l]: the coefficients on u_j of the rows of level j + 1 + l
    coefs = [[tuple(a[j] for a, _ in lv) for lv in levels[j + 1 :]] for j in range(k)]

    def rec(j, v, sums):
        lo = max(-(s // a) for a, s in zip(coefs[j][0], sums[0]) if a > 0)
        hi = min(s // -a for a, s in zip(coefs[j][0], sums[0]) if a < 0)
        step = basis[j]
        v = tuple(map(add, v, (lo * y for y in step)))
        if j == k - 1:
            for _ in range(lo, hi + 1):
                yield v
                v = tuple(map(add, v, step))
            return
        rest = coefs[j][1:]
        sums = [[s + lo * a for a, s in zip(c, ss)] for c, ss in zip(rest, sums[1:])]
        for _ in range(lo, hi + 1):
            yield from rec(j + 1, v, sums)
            v = tuple(map(add, v, step))
            sums = [list(map(add, ss, c)) for c, ss in zip(rest, sums)]

    return rec(0, tuple(v0), sums[1:])


class Cone(Record):
    __slots__ = ("ambient_rank", "ray_generators")  # sorted primitive integer vectors

    @staticmethod
    def make(rank, generators):
        """The cone on the generators that span its extreme rays.  A face is
        the cone on the generators it holds, and the facets tight at g cut
        out the smallest face holding g, so g spans an extreme ray when no
        other generator is tight on every facet tight at g.  A cone that
        contains a line keeps every primitive generator."""
        _check_rank(rank)
        cone = Cone(rank, tuple(sorted(_prune([primitive(g) for g in generators]))))
        if not cone.is_pointed():
            return cone
        gens, ineqs = cone.ray_generators, cone.hrep()[0]
        tight = {g: {i for i, f in enumerate(ineqs) if not _dot(f, g)} for g in gens}
        return Cone(rank, tuple(
            g for g in gens if not any(h != g and tight[g] <= tight[h] for h in gens)
        ))

    def dim(self):
        return len(hermite_row_basis(self.ray_generators, self.ambient_rank))

    def hrep(self):
        return _hrep_cached(self.ray_generators, self.ambient_rank)

    def is_pointed(self):
        ineqs, eqs = self.hrep()
        return len(hermite_row_basis(ineqs + eqs, self.ambient_rank)) == self.ambient_rank

    def faces(self):
        """All faces (including the cone itself and, when pointed, 0): the
        ray sets tight on the facets, closed under intersection."""
        rays = self.ray_generators
        found = {rays}
        for f in self.hrep()[0]:
            tight = _tight(f, rays)
            found |= {tuple(g for g in face if g in tight) for face in found}
        return [Cone(self.ambient_rank, k) for k in sorted(found, key=lambda k: (len(k), k))]

    def intersect(self, other):
        ineqs_a, eqs_a = self.hrep()
        ineqs_b, eqs_b = other.hrep()
        rays, lin = cone_generators_from_inequalities(
            ineqs_a + ineqs_b, eqs_a + eqs_b, self.ambient_rank
        )
        if lin:
            raise NonPointed("intersection of pointed cones should be pointed")
        return Cone(self.ambient_rank, tuple(sorted(rays)))


class DualCone(Record):
    __slots__ = ("ambient_rank", "generators")  # rays, with +/- pairs if not pointed


def dual_cone(c: Cone) -> DualCone:
    """Dual cone {u : u.g >= 0 for all generators g}, by its generators.
    Its rays are the cone's facet normals, its H-representation's rows,
    and +/- the equality normals span its lineality space (all of it for
    the zero cone, whose equalities are the unit vectors)."""
    gens = _dual_generators(*c.hrep())
    return DualCone(c.ambient_rank, tuple(sorted(gens)))


# --- Hilbert bases --------------------------------------------------------

def _hilbert_basis_pointed(generators, rank):
    cone = Cone.make(rank, generators)
    gens = cone.ray_generators
    if not gens:
        return []
    ineqs, eqs = cone.hrep()
    span = integer_kernel(eqs, rank)
    s = [sum(g[c] for g in gens) for c in range(rank)]
    # Candidates: the nonzero x = u . span with 0 <= F.x <= F.s.
    m = tuple(tuple(_dot(f, k) for k in span) for f in ineqs)
    m += tuple(tuple(-a for a in r) for r in m)
    bounds = (0,) * len(ineqs) + tuple(_dot(f, s) for f in ineqs)
    points = _lattice_points(m, bounds, (0,) * rank, span)
    candidates = [(tuple(_dot(f, x) for f in ineqs), x) for x in points if any(x)]
    # sum(F.x) > 0 off the origin of a pointed cone, so a reducible x has an
    # irreducible summand y kept before it, and x - y in the cone is F.y <= F.x.
    basis = []
    for vals, x in sorted(candidates, key=lambda c: (sum(c[0]), c)):
        if not any(all(a <= b for a, b in zip(kept, vals)) for kept, _ in basis):
            basis.append((vals, x))
    return sorted(x for _, x in basis)


def _lineality_lattice(generators, rank):
    ineqs, eqs = _hrep_cached(tuple(generators), rank)
    return integer_kernel(ineqs + eqs, rank)


def hilbert_basis(generators, rank):
    """Minimal generating set of cone(generators) ∩ Z^rank.

    For a pointed cone this is the Hilbert basis.  For a non-pointed cone
    the result is a +/- pair basis of the lineality lattice together with a
    deterministic lift of the Hilbert basis of the pointed quotient.
    """
    _check_rank(rank)
    gens = [primitive(g) for g in generators if any(x != 0 for x in g)]
    if not gens:
        return []
    lin = _lineality_lattice(gens, rank)
    if not lin:
        return _hilbert_basis_pointed(gens, rank)
    out = []
    for b in lin:
        out.append(tuple(b))
        out.append(tuple(-x for x in b))
    if rank > len(lin):
        # The lineality lattice is saturated, so Z^rank modulo it is free.
        quotient, proj = cokernel_presentation(_transpose(lin, rank), len(lin))
        proj_gens = _prune([primitive(proj(g).free_part) for g in gens])
        hb = _hilbert_basis_pointed(proj_gens, rank - len(lin))
        out += [proj.lift(quotient.element((), h)) for h in hb]
    return sorted(set(out))


# --- Fans -----------------------------------------------------------------

class Fan(Record):
    __slots__ = (
        "ambient_rank",
        "cones",  # all cones, face-closed, deduplicated, sorted
        "ray_index",  # ordered primitive ray generators (Sigma_1 order)
        "maximal",  # the cones no other cone contains, in the order of cones
    )

    def cone_ray_indices(self, cone):
        return tuple(self.ray_index.index(g) for g in cone.ray_generators)


class FanProperties(Record):
    __slots__ = ("is_full", "is_complete", "is_simplicial", "is_regular", "cone_equals_span",
                 "is_empty")


def validate_fan(max_cones, ray_order=None) -> Fan:
    """Close under faces, deduplicate, and verify the fan axioms.

    Only pairs of the given cones are intersected, and that is a full
    check.  Let F = σ∩σ′ be a face of both σ and σ′, and let τ ≤ σ and
    τ′ ≤ σ′.  Then τ∩F and τ′∩F are faces of F, so their intersection
    τ∩τ′ is a face of F, hence of σ.  It lies in τ, so it is a face of τ
    (Cox-Little-Schenck, Toric Varieties, §1.2); the same holds for τ′.
    Two faces of one given cone always meet in a common face.  A given ray
    order must name each ray of the fan once.  Every cone is a face of a
    given one, so a cone is maximal when no given cone strictly contains it.
    """
    if not max_cones:
        return Fan(0, (), (), ())
    rank = max_cones[0].ambient_rank
    _check_rank(rank)
    for c in max_cones:
        if c.ambient_rank != rank:
            raise FanInvalid("mixed ambient ranks")
        if not c.is_pointed():
            raise NonPointed(f"cone {c.ray_generators} contains a line")
    faces = [c.faces() for c in max_cones]
    all_cones = {f.ray_generators: f for fs in faces for f in fs}
    cones = sorted(
        all_cones.values(), key=lambda c: (len(c.ray_generators), c.ray_generators)
    )
    face_keys = [{f.ray_generators for f in fs} for fs in faces]
    for (a, keys_a), (b, keys_b) in combinations(zip(max_cones, face_keys), 2):
        inter = a.intersect(b).ray_generators
        if inter not in all_cones:
            raise FanInvalid(
                f"cones {a.ray_generators} and {b.ray_generators} "
                f"intersect in a non-face {inter}"
            )
        if inter not in keys_a or inter not in keys_b:
            raise FanInvalid("intersection is not a common face")
    if ray_order is None:
        seen = []
        for c in max_cones:
            for g in c.ray_generators:
                if g not in seen:
                    seen.append(g)
        ray_order = seen
    else:
        ray_order = [primitive(g) for g in ray_order]
        first = {}
        for i, g in enumerate(ray_order):
            if first.setdefault(g, i) != i:
                raise FanInvalid(f"rays {first[g]} and {i} span the same ray {list(g)}")
    fan_rays = {
        c.ray_generators[0] for c in cones if len(c.ray_generators) == 1
    }
    if set(ray_order) != fan_rays:
        raise FanInvalid("ray order does not match the rays of the fan")
    given = [set(c.ray_generators) for c in max_cones]
    maximal = tuple(c for c in cones if not any(set(c.ray_generators) < k for k in given))
    return Fan(rank, tuple(cones), tuple(ray_order), maximal)


def build_fan(rank, rays, max_cone_ray_indices) -> Fan:
    """Fan from a ray list and maximal cones given by ray indices."""
    rays = [primitive(r) for r in rays]
    cones = [
        Cone.make(rank, [rays[i] for i in idxs]) for idxs in max_cone_ray_indices
    ]
    if not cones:
        if rays:
            raise FanInvalid("rays given but no cones")
        return Fan(rank, (), (), ())
    return validate_fan(cones, ray_order=rays)


def fan_properties(f: Fan) -> FanProperties:
    if not f.cones:
        return FanProperties(
            is_full=f.ambient_rank == 0,
            is_complete=False,
            is_simplicial=True,
            is_regular=True,
            cone_equals_span=True,
            is_empty=True,
        )
    n = f.ambient_rank
    is_full = len(hermite_row_basis(f.ray_index, n)) == n
    is_simplicial = all(
        len(c.ray_generators) == c.dim() for c in f.cones
    )
    # A simplicial cone is regular when the columns of its k rays span Z^k.
    is_regular = is_simplicial and all(
        hermite_row_basis(_transpose(c.ray_generators, n), k := len(c.ray_generators))
        == [tuple(int(i == j) for j in range(k)) for i in range(k)]
        for c in f.cones
    )
    maximal = f.maximal
    if n == 0:
        is_complete = True
    else:
        is_complete = bool(maximal) and all(c.dim() == n for c in maximal)
        if is_complete:
            # The fan is face-closed: a wall whose rays a top cone holds
            # is a face of it.
            walls = [set(c.ray_generators) for c in f.cones if c.dim() == n - 1]
            tops = [set(t.ray_generators) for t in f.cones if t.dim() == n]
            for w in walls:
                count = sum(w <= t for t in tops)
                if count != 2:
                    is_complete = False
                    break
    support_gens = list(f.ray_index)
    if not support_gens:
        cone_equals_span = True
    else:
        cone_equals_span = all(
            in_cone(tuple(-x for x in g), support_gens, n) for g in support_gens
        )
    return FanProperties(
        is_full=is_full,
        is_complete=is_complete,
        is_simplicial=is_simplicial,
        is_regular=is_regular,
        cone_equals_span=cone_equals_span,
        is_empty=False,
    )

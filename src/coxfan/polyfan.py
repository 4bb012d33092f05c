"""Rational polyhedral cones and fans.

Cones are given by primitive integer ray generators; conversion between
generator and inequality descriptions goes through Fourier-Motzkin
elimination on primitive integer rows.  Everything else about a cone is
read off the ray-row incidence of its one cached H-representation
(Cox-Little-Schenck, Toric Varieties, §1.2): a generator g spans an
extreme ray when the rows tight at g, with the equalities, have rank one
less than the ambient rank; the faces are the intersections of the sets
of rays tight on each row; a row is a facet when the rays tight on it
span one dimension less than the cone.  Hilbert bases are computed by
bounded lattice enumeration in exact integer arithmetic.  Everything is
capped at ambient rank 6; the algorithms here are enumeration-based and
meant for desk-scale inputs.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, product
from math import gcd

from . import ratlin
from ._record import DomainError, Record
from .intlat import IntMatrix, integer_kernel, smith_normal_form, _unimodular_inverse

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


def _normalize_int(vec):
    """Clear denominators and make primitive, keeping orientation."""
    den = 1
    for x in vec:
        den = den * x.denominator // gcd(den, x.denominator)
    ints = [int(x * den) for x in vec]
    return primitive(ints)


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


def cone_inequalities(generators, rank):
    """H-representation of cone(generators): (inequality normals, equality normals).

    The cone is {x : f.x >= 0 for f in ineqs, e.x = 0 for e in eqs}.
    Obtained by eliminating the multiplier variables lambda from
    {x = sum lambda_i g_i, lambda >= 0} with Fourier-Motzkin, in integers.
    """
    _check_rank(rank)
    gens = [tuple(g) for g in generators]
    k = len(gens)
    eqs = [
        tuple(int(c == j) for j in range(rank)) + tuple(-g[c] for g in gens)
        for c in range(rank)
    ]
    ineqs = [tuple(int(j == rank + i) for j in range(rank + k)) for i in range(k)]
    for idx in reversed(range(rank, rank + k)):
        eqs, ineqs = _fm_eliminate(eqs, ineqs, idx)
    out_ineq = _prune([primitive(f[:rank]) for f in ineqs])
    # Canonical independent set of equality normals.
    ech = ratlin.echelon(f[:rank] for f in eqs)
    out_eq = [_normalize_int([r.get(c, 0) for c in range(rank)]) for r in ech.values()]
    # Inequalities implied by the equalities are redundant.
    out_ineq = [f for f in out_ineq if ratlin.new_to_span(out_eq, [f])]
    return out_ineq, out_eq


def cone_generators_from_inequalities(ineqs, eqs, rank):
    """V-representation of {x : ineqs.x >= 0, eqs.x = 0}.

    Returns (rays, lineality_basis); the cone is cone(rays) + lattice
    spanned by +/- the lineality basis.  Uses duality: the dual of the
    constraint cone is generated by the normals, and one more H-rep
    computation dualizes back.
    """
    _check_rank(rank)
    dual_gens = [tuple(f) for f in ineqs]
    for e in eqs:
        dual_gens.append(tuple(e))
        dual_gens.append(tuple(-x for x in e))
    if not dual_gens:
        basis = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
        return [], basis
    f2, e2 = cone_inequalities(dual_gens, rank)
    rays = _prune([tuple(f) for f in f2])
    lin = [tuple(e) for e in e2]
    return rays, lin


def in_cone(v, generators, rank):
    """Exact membership of a vector in cone(generators)."""
    ineqs, eqs = _hrep_cached(tuple(tuple(g) for g in generators), rank)
    return all(_dot(f, v) >= 0 for f in ineqs) and not any(_dot(e, v) for e in eqs)


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


@lru_cache(maxsize=4096)
def _hrep_cached(gens, rank):
    return cone_inequalities(list(gens), rank)


def _tight(row, rays):
    """The rays on the hyperplane row.x = 0, in order."""
    return tuple(g for g in rays if not _dot(row, g))


class Cone(Record):
    __slots__ = ("ambient_rank", "ray_generators")  # sorted primitive integer vectors

    @staticmethod
    def make(rank, generators):
        """The cone on the generators that span its extreme rays.  The rows
        tight at g, with the equalities, cut out the smallest face holding
        g, so g spans an extreme ray when they have rank ``rank - 1``.  A
        cone that contains a line keeps every primitive generator."""
        _check_rank(rank)
        cone = Cone(rank, tuple(sorted(_prune([primitive(g) for g in generators]))))
        if not cone.is_pointed():
            return cone
        ineqs, eqs = cone.hrep()
        return Cone(rank, tuple(
            g for g in cone.ray_generators
            if ratlin.rank([f for f in ineqs if not _dot(f, g)] + eqs) == rank - 1
        ))

    def dim(self):
        return ratlin.rank(self.ray_generators)

    def hrep(self):
        return _hrep_cached(self.ray_generators, self.ambient_rank)

    def is_pointed(self):
        ineqs, eqs = self.hrep()
        return ratlin.rank(ineqs + eqs) == self.ambient_rank

    def faces(self):
        """All faces (including the cone itself and, when pointed, 0): the
        ray sets tight on the rows, closed under intersection."""
        rays = self.ray_generators
        found = {rays}
        for f in self.hrep()[0]:
            tight = set(_tight(f, rays))
            found |= {tuple(g for g in face if g in tight) for face in found}
        return [Cone(self.ambient_rank, k) for k in sorted(found, key=lambda k: (len(k), k))]

    def intersect(self, other):
        ineqs_a, eqs_a = self.hrep()
        ineqs_b, eqs_b = other.hrep()
        rays, lin = cone_generators_from_inequalities(
            list(ineqs_a) + list(ineqs_b),
            list(eqs_a) + list(eqs_b),
            self.ambient_rank,
        )
        if lin:
            raise NonPointed("intersection of pointed cones should be pointed")
        return Cone.make(self.ambient_rank, rays)


class DualCone(Record):
    __slots__ = (
        "ambient_rank",
        "generators",  # rays; for non-pointed duals includes +/- pairs
        "inequalities",  # H-rep normals of the dual cone (= primal rays)
    )


def dual_cone(c: Cone) -> DualCone:
    """Dual cone {u : u.g >= 0 for all generators g} in both descriptions.
    Its rays are the facet normals, one row per tight ray set of rank
    dim - 1, and +/- the equality normals span its lineality space (all
    of it for the zero cone, whose equalities are the unit vectors)."""
    ineqs, eqs = c.hrep()
    rows = {_tight(f, c.ray_generators): f for f in ineqs}
    gens = [f for tight, f in rows.items() if ratlin.rank(tight) == c.dim() - 1]
    gens += [s for e in eqs for s in (e, tuple(-x for x in e))]
    return DualCone(c.ambient_rank, tuple(sorted(gens)), c.ray_generators)


# --- Hilbert bases --------------------------------------------------------

def _hilbert_basis_pointed(generators, rank):
    cone = Cone.make(rank, generators)
    gens = cone.ray_generators
    if not gens:
        return []
    ineqs, eqs = cone.hrep()
    s = [sum(g[c] for g in gens) for c in range(rank)]
    bound = [_dot(f, s) for f in ineqs]
    box = [
        range(sum(min(0, g[c]) for g in gens), sum(max(0, g[c]) for g in gens) + 1)
        for c in range(rank)
    ]
    # Candidates: nonzero box points with 0 <= F.x <= F.s and E.x = 0.
    candidates = []
    for x in product(*box):
        vals = tuple(_dot(f, x) for f in ineqs)
        if (
            any(x)
            and all(0 <= v <= b for v, b in zip(vals, bound))
            and not any(_dot(e, x) for e in eqs)
        ):
            candidates.append((sum(vals), vals, x))
    # sum(F.x) > 0 off the origin of a pointed cone, so a reducible x has an
    # irreducible summand y kept before it, and x - y in the cone is F.y <= F.x.
    basis = []
    for _, vals, x in sorted(candidates):
        if not any(all(a <= b for a, b in zip(kept, vals)) for kept, _ in basis):
            basis.append((vals, x))
    return sorted(x for _, x in basis)


def _lineality_lattice(generators, rank):
    ineqs, eqs = cone_inequalities(generators, rank)
    rows = [list(f) for f in ineqs] + [list(e) for e in eqs]
    if not rows:
        return [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
    m = IntMatrix.from_rows(rows, cols=rank)
    return integer_kernel(m)


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
    l = len(lin)
    kt = IntMatrix.from_rows([list(v) for v in lin], cols=rank).transpose()
    d, u, v = smith_normal_form(kt)
    uinv = _unimodular_inverse(u)
    proj_rows = [list(u.row(i)) for i in range(l, rank)]
    section_cols = [
        tuple(uinv.at(i, j) for i in range(rank)) for j in range(l, rank)
    ]
    out = []
    for b in lin:
        out.append(tuple(b))
        out.append(tuple(-x for x in b))
    if rank > l:
        proj = IntMatrix.from_rows(proj_rows, cols=rank)
        proj_gens = _prune([primitive(proj.mul_vec(g)) for g in gens])
        proj_gens = [g for g in proj_gens if any(x != 0 for x in g)]
        hb = _hilbert_basis_pointed(proj_gens, rank - l)
        for h in hb:
            lift = tuple(
                sum(section_cols[j][i] * h[j] for j in range(rank - l))
                for i in range(rank)
            )
            out.append(lift)
    return sorted(set(out))


# --- Fans -----------------------------------------------------------------

class Fan(Record):
    __slots__ = (
        "ambient_rank",
        "cones",  # all cones, face-closed, deduplicated, sorted
        "ray_index",  # ordered primitive ray generators (Sigma_1 order)
    )

    def maximal_cones(self):
        out = []
        for c in self.cones:
            if not any(
                c is not d and set(c.ray_generators) <= set(d.ray_generators)
                for d in self.cones
            ):
                out.append(c)
        return out

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
    order must name each ray of the fan once.
    """
    if not max_cones:
        return Fan(0, (), ())
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
    return Fan(rank, tuple(cones), tuple(ray_order))


def build_fan(rank, rays, max_cone_ray_indices) -> Fan:
    """Fan from a ray list and maximal cones given by ray indices."""
    rays = [primitive(r) for r in rays]
    cones = [
        Cone.make(rank, [rays[i] for i in idxs]) for idxs in max_cone_ray_indices
    ]
    if not cones:
        if rays:
            raise FanInvalid("rays given but no cones")
        return Fan(rank, (), ())
    return validate_fan(cones, ray_order=rays)


def _invariant_factors(rows, rank):
    if not rows:
        return []
    m = IntMatrix.from_rows([list(r) for r in rows], cols=rank)
    d, _, _ = smith_normal_form(m)
    k = min(m.rows, m.cols)
    return [d.at(i, i) for i in range(k) if d.at(i, i) != 0]


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
    rays = [list(r) for r in f.ray_index]
    is_full = (ratlin.rank(rays) == n) if rays else (n == 0)
    is_simplicial = all(
        len(c.ray_generators) == c.dim() for c in f.cones
    )
    is_regular = is_simplicial and all(
        all(x == 1 for x in _invariant_factors(c.ray_generators, n))
        for c in f.cones
    )
    maximal = f.maximal_cones()
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

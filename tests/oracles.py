"""Independent brute-force oracles.

Everything in this file is deliberately written from scratch, without
importing the package's own algorithms: naive elementary-operation
normal forms, half-space elimination by the textbook recipe, explicit
lattice-point enumeration, and set-based monomial combinatorics.  Tests
compare the fast implementations against these.  The four exceptions are
``smith_normal_form``, a verbatim copy of the package's earlier two-list
elimination, which pins the exact transforms of the block-matrix form;
``lift_by_groebner``, the finite-type lift by the package's own least
powers and Groebner bases, with none of the lift's shortcuts;
``degree_zero_monoid_generators``, the package's earlier chart generators:
a Hilbert basis of the degree-0 monoid itself, in the coordinates of a
Hermite basis of the degree-0 lattice; and ``component_span_rows``, the
package's earlier window rows: every fiber multiple of every element.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, combinations_with_replacement, product
from math import gcd


# ---------------------------------------------------------------------------
# Fans beyond the corpus, as (rays, maximal cones by ray index): the scale
# tier of the sections checks.

P1_CUBED = (
    [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)],
    [[a, b, c] for a in (0, 1) for b in (2, 3) for c in (4, 5)],
)
P1_4 = (
    [tuple(s * (i == j) for j in range(4)) for i in range(4) for s in (1, -1)],
    [[a, b, c, d] for a in (0, 1) for b in (2, 3) for c in (4, 5) for d in (6, 7)],
)
DP6 = (
    [(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)],
    [[i, (i + 1) % 6] for i in range(6)],
)
P3 = (
    [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)],
    [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]],
)
F2 = ([(1, 0), (0, 1), (-1, 2), (0, -1)], [[0, 1], [1, 2], [2, 3], [3, 0]])
SCALE_FANS = {"p3": P3, "f2": F2, "dp6": DP6, "p1cubed": P1_CUBED}
# The five corpus fans and the scale tier, by name: the fans of the
# differentials on generated modules.
NINE_FANS = ["p2", "p1xp1", "f2", "p112", "three_rays", "p3", "dp6", "quadric_cone", "p1cubed"]
# The face fan of a random simplicial polytope: complete and simplicial,
# not regular, with Cl = Z^5.  The Smith transform of its ray matrix has
# entries of 36-158 bits.
RANK3_FAN = (
    [(-1, 6, 0), (0, 7, 8), (7, 7, 9), (4, 0, -3), (6, 7, 2), (-7, 1, -9), (-3, -6, -8), (9, -8, -1)],
    [[1, 2, 7], [2, 4, 7], [1, 2, 4], [1, 5, 6], [1, 6, 7], [3, 4, 5],
     [3, 4, 7], [3, 5, 6], [3, 6, 7], [0, 1, 5], [0, 4, 5], [0, 1, 4]],
)


# ---------------------------------------------------------------------------
# Smith normal form by repeated elementary reduction (diagonal only)


def snf_diagonal(rows):
    """Invariant factors of an integer matrix, by naive reduction."""
    m = [list(r) for r in rows]
    if not m or not m[0]:
        return []
    nr, nc = len(m), len(m[0])
    diag = []
    top = 0
    while top < nr and top < nc:
        # find the smallest nonzero entry and move it to the corner
        best = None
        for i in range(top, nr):
            for j in range(top, nc):
                if m[i][j] and (best is None or abs(m[i][j]) < abs(m[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        i, j = best
        m[top], m[i] = m[i], m[top]
        for r in m:
            r[top], r[j] = r[j], r[top]
        dirty = False
        for i in range(top + 1, nr):
            q = m[i][top] // m[top][top]
            for j in range(nc):
                m[i][j] -= q * m[top][j]
            if m[i][top]:
                dirty = True
        for j in range(top + 1, nc):
            q = m[top][j] // m[top][top]
            for i in range(nr):
                m[i][j] -= q * m[i][top]
            if m[top][j]:
                dirty = True
        if dirty:
            continue
        # force divisibility of everything below-right
        bad = None
        for i in range(top + 1, nr):
            for j in range(top + 1, nc):
                if m[i][j] % m[top][top]:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            for j in range(nc):
                m[top][j] += m[bad][j]
            continue
        diag.append(abs(m[top][top]))
        top += 1
    return diag


def det(rows):
    """Determinant of a square integer matrix, given as its rows, by
    cofactor expansion along the first row; small matrices only."""
    rows = [list(r) for r in rows]
    if any(len(r) != len(rows) for r in rows):
        raise ValueError("not square")

    def _det(rs):
        if not rs:
            return 1
        total = 0
        for j, x in enumerate(rs[0]):
            if x:
                total += (-1) ** j * x * _det([r[:j] + r[j + 1 :] for r in rs[1:]])
        return total

    return _det(rows)


def subgroup_equal(gens_a, gens_b, group):
    """Whether two lists of elements generate the same subgroup of an
    abelian group.  Each subgroup is a lattice in Z^ngens: the element
    coordinates plus the torsion relations.  A lattice is equal to a larger
    one iff both have the same rank and the same product of nonzero
    invariant factors, so both lattices must match their sum."""
    n = len(group.torsion_orders) + group.free_rank
    rel = [[t * (i == j) for j in range(n)] for i, t in enumerate(group.torsion_orders)]

    def signature(elems):
        diag = [x for x in snf_diagonal(rel + [list(e.coords()) for e in elems]) if x]
        product = 1
        for x in diag:
            product *= x
        return len(diag), product

    both = signature(list(gens_a) + list(gens_b))
    return signature(gens_a) == both == signature(gens_b)


def subgroup_canonical_basis(gens, group):
    """Row-style Hermite normal form of the lattice in Z^ngens spanned by
    the element coordinates and the torsion relations: positive pivots,
    entries above a pivot reduced into [0, pivot), zero rows dropped."""
    n = len(group.torsion_orders) + group.free_rank
    rows = [[t * (i == j) for j in range(n)] for i, t in enumerate(group.torsion_orders)]
    return _hermite(rows + [list(e.coords()) for e in gens], n)


def _lattice_rows(gens, group):
    n = len(group.torsion_orders) + group.free_rank
    rel = [[t * (i == j) for j in range(n)] for i, t in enumerate(group.torsion_orders)]
    return rel + [list(e.coords()) for e in gens], n


def _determinantal_divisor(rows, n):
    """(r, d): the rank r of the row lattice and the gcd d of its r x r
    minors, which is the product of its nonzero invariant factors."""
    for r in range(min(len(rows), n), 0, -1):
        d = 0
        for rs in combinations(rows, r):
            for cs in combinations(range(n), r):
                d = gcd(d, det([[row[c] for c in cs] for row in rs]))
        if d:
            return r, d
    return 0, 1


def subgroup_index(gens, group):
    """[group : <gens>]: the divisor of the full-rank lattice of the element
    coordinates and the torsion relations, else "infinite"."""
    rows, n = _lattice_rows(gens, group)
    r, d = _determinantal_divisor(rows, n)
    return d if r == n else "infinite"


def order_modulo(x, gens, group):
    """Least m >= 1 with m*x in <gens>, trying m = 1, 2, ...  A vector lies
    in a lattice iff adding it keeps the rank and the divisor, since a
    lattice of the same rank inside another has index the ratio of their
    divisors.  No multiple lies in it when adding x raises the rank."""
    rows, n = _lattice_rows(gens, group)
    base = _determinantal_divisor(rows, n)
    if _determinantal_divisor(rows + [list(x.coords())], n)[0] > base[0]:
        return "infinite"
    m = 1
    while _determinantal_divisor(rows + [[m * c for c in x.coords()]], n) != base:
        m += 1
    return m


# ---------------------------------------------------------------------------
# Smith normal form with its transforms, pivot rule included: the
# reference for coxfan.intlat's exact (d, u, v)


def smith_normal_form(rows, ncols):
    """Return (d, u, v) for the matrix with the given rows and ncols
    columns: u and v are unimodular (as row lists) and u*m*v is diagonal,
    with diagonal d (min(rows, ncols) entries, nonnegative, a divisibility
    chain, zeros last).

    Pivot selection: smallest nonzero absolute value in the working
    submatrix, ties broken by lowest (row, column) index, so the transforms
    are deterministic.
    """
    a = [list(map(int, row)) for row in rows]
    r, c = len(a), ncols
    u = [[int(i == j) for j in range(r)] for i in range(r)]
    v = [[int(i == j) for j in range(c)] for i in range(c)]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def addmul_row(dst, src, q):
        a[dst] = [x + q * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x + q * y for x, y in zip(u[dst], u[src])]

    def addmul_col(dst, src, q):
        for row in a:
            row[dst] += q * row[src]
        for row in v:
            row[dst] += q * row[src]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    while t < min(r, c):
        # Locate the pivot: minimal |entry| over the trailing submatrix.
        best = None
        for i in range(t, r):
            for j in range(t, c):
                x = a[i][j]
                if x != 0 and (best is None or abs(x) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        swap_rows(t, best[0])
        swap_cols(t, best[1])
        # Clear row and column t; restart whenever a remainder shrinks the pivot.
        while True:
            dirty = False
            for i in range(t + 1, r):
                if a[i][t] != 0:
                    q = a[i][t] // a[t][t]
                    addmul_row(i, t, -q)
                    if a[i][t] != 0:
                        swap_rows(t, i)
                        dirty = True
            for j in range(t + 1, c):
                if a[t][j] != 0:
                    q = a[t][j] // a[t][t]
                    addmul_col(j, t, -q)
                    if a[t][j] != 0:
                        swap_cols(t, j)
                        dirty = True
            if dirty:
                continue
            # Divisibility: the pivot must divide every remaining entry.
            bad = None
            for i in range(t + 1, r):
                for j in range(t + 1, c):
                    if a[i][j] % a[t][t] != 0:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            addmul_row(t, bad, 1)
        if a[t][t] < 0:
            negate_row(t)
        t += 1
    return [a[i][i] for i in range(min(r, c))], u, v


# ---------------------------------------------------------------------------
# Cone geometry by direct Fourier–Motzkin elimination


def cone_halfspaces(generators, rank):
    """Inequality description of cone(generators) ⊆ Q^rank: returns rows u
    with the cone equal to {x : u·x ≥ 0 for all u}, each equality written
    as an opposite pair.  Read off ``facet_hrep``, whose Fourier–Motzkin
    eliminates a multiplier through an equality row by substitution, so
    the rows of a lower-dimensional cone do not multiply."""
    ineqs, eqs = facet_hrep(generators, rank)
    return [list(u) for u in ineqs] + [[s * x for x in e] for e in eqs for s in (1, -1)]


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def in_cone(v, generators, rank=None):
    """Membership by ``in_cone_eliminated``, whose H-representation keeps
    its equalities as equations."""
    return in_cone_eliminated(v, generators, len(v) if rank is None else rank)


def in_halfspaces(v, halfspaces):
    """True iff v lies on the nonnegative side of every half-space normal,
    e.g. of ``cone_halfspaces`` computed once for many points."""
    return all(sum(a * b for a, b in zip(u, v)) >= 0 for u in halfspaces)


def cone_lattice_points(generators, rank, bound):
    """All integer points of the cone with coordinate |sum| ≤ bound, in
    lexicographic order.  The L1 ball is walked coordinate by coordinate on
    the remaining budget, carrying every half-space's partial dot product;
    on the last coordinate each half-space u·v ≥ 0 is an interval."""
    halfspaces = cone_halfspaces(generators, rank)
    pts = []

    def walk(prefix, budget, partial):
        k = len(prefix)
        if k < rank - 1:
            for x in range(-budget, budget + 1):
                walk(
                    prefix + (x,),
                    budget - abs(x),
                    [p + u[k] * x for p, u in zip(partial, halfspaces)],
                )
            return
        lo, hi = -budget, budget
        for p, u in zip(partial, halfspaces):
            if u[k] > 0:
                lo = max(lo, -(p // u[k]))  # x ≥ ceil(-p / u_k)
            elif u[k] < 0:
                hi = min(hi, p // -u[k])  # x ≤ floor(p / -u_k)
            elif p < 0:
                return
        pts.extend(prefix + (x,) for x in range(lo, hi + 1))

    walk((), bound, [0] * len(halfspaces))
    return pts


def finite_fibers(g):
    """True iff every degree of the grading has finitely many monomials.
    That fails iff some nonzero v = C·u >= 0 exists (C the ray matrix), so
    iff cone(rays) is not a linear space.  That in turn holds iff minus the
    sum of the rays lies outside cone(rays): if -sum = sum of l_i·r_i with
    l_i >= 0, then 0 = sum of (1 + l_i)·r_i with positive coefficients, and
    every -r_j lies in the cone."""
    rays = g.delta_basis
    rank = len(rays[0])
    return in_cone(tuple(-sum(r[j] for r in rays) for j in range(rank)), rays, rank)


def polytope_lattice_count(rays, a, bound):
    """Number of m in Z^n with <m, u_rho> >= -a_rho for every ray: the
    dimension of H^0(O(D)) for D = sum a_rho D_rho on a complete toric
    variety (Cox-Little-Schenck, Toric Varieties, section 4.3).  Scans
    the box |m_j| <= bound and refuses when a point lies on its boundary,
    since the box may then cut the polytope."""
    pts = [
        m
        for m in product(range(-bound, bound + 1), repeat=len(rays[0]))
        if all(_dot(m, u) >= -b for u, b in zip(rays, a))
    ]
    if any(abs(x) == bound for m in pts for x in m):
        raise ValueError(f"polytope reaches the box |m_j| <= {bound}")
    return len(pts)


def laurent_generators(rays, v0, positions, box):
    """The two-box search for the minimal fractional-monomial generators
    of a chart localization in one degree: every v = v0 + C u with u in
    the box |u_j| <= k (C the matrix whose rows are the rays) and v >= 0
    at the cone's positions, grouped by the cone part of v.  Each part
    keeps its lexicographically least v; a part is minimal when no other
    part is below it.  Returns {part: v} for k = box, or None when
    k = box + 2 gives a different set of minimal parts.  The box is walked
    like ``cone_lattice_points``: all coordinates of u but the last, then
    the last one's interval."""
    rank = len(rays[0])
    big = box + 2
    last = [r[-1] for r in rays]
    small, large = {}, {}
    for head in product(range(-big, big + 1), repeat=rank - 1):
        partial = [x + _dot(r[:-1], head) for x, r in zip(v0, rays)]
        lo, hi = -big, big
        for p in positions:
            if last[p] > 0:
                lo = max(lo, -(partial[p] // last[p]))
            elif last[p] < 0:
                hi = min(hi, partial[p] // -last[p])
            elif partial[p] < 0:
                hi = lo - 1
        inner = max(map(abs, head), default=0) <= box
        v = tuple(a + lo * c for a, c in zip(partial, last))
        for x in range(lo, hi + 1):
            key = tuple(v[p] for p in positions)
            for best in (small, large) if inner and abs(x) <= box else (large,):
                if key not in best or v < best[key]:
                    best[key] = v
            v = tuple(a + c for a, c in zip(v, last))

    def minimal(best):
        # Scanning q in order of total degree finds a dominating part early.
        order = sorted(best, key=sum)
        return {
            p: best[p]
            for p in best
            if not any(q != p and all(a >= b for a, b in zip(p, q)) for q in order)
        }

    small = minimal(small)
    return small if set(small) == set(minimal(large)) else None


def least_in_part(rays, v0, positions, part, bound):
    """The least (max |v_i|, v), or None, over the vectors v = v0 + C·u
    (C the matrix whose rows are the rays, which must span) that equal
    part at the positions and have every |v_i| <= bound.  Walks the values
    of v on the first linearly independent rays and solves for u there."""
    rank = len(rays[0])
    basis = []
    for i, r in enumerate(rays):
        if len(rref([rays[j] for j in basis] + [r])[1]) > len(basis):
            basis.append(i)
    assert len(basis) == rank, "the rays do not span"
    best = None
    for w in product(range(-bound, bound + 1), repeat=rank):
        rhs = [x - v0[i] for x, i in zip(w, basis)]
        u = solve_rational([rays[i] for i in basis], rhs)
        if any(x.denominator != 1 for x in u):
            continue
        v = tuple(a + int(_dot(r, u)) for a, r in zip(v0, rays))
        on_part = all(v[p] == x for p, x in zip(positions, part))
        if on_part and max(map(abs, v)) <= bound:
            score = (max(map(abs, v)), v)
            if best is None or score < best:
                best = score
    return None if best is None else best[1]


def hilbert_basis_by_reduction(generators, rank):
    """Hilbert basis of a pointed cone: the nonzero cone points x such that
    x − y is not a cone point for any other nonzero cone point y.

    By Carathéodory every irreducible point other than a generator is a
    combination Σ λ_i g_i of at most ``rank`` independent generators with
    0 ≤ λ_i < 1, so the cone points with |sum| at most the ``rank`` largest
    generator norms |g|₁ added up are enough candidates.  A reducible point
    has an irreducible summand, which is a candidate too.
    """
    bound = sum(sorted(sum(map(abs, g)) for g in generators)[-rank:])
    halfspaces = cone_halfspaces(generators, rank)
    pts = [p for p in cone_lattice_points(generators, rank, bound) if any(p)]
    # x − y lies in the cone iff u·y ≤ u·x for every half-space normal u
    values = {x: [sum(a * b for a, b in zip(u, x)) for u in halfspaces] for x in pts}
    return sorted(
        x
        for x in pts
        if not any(
            y != x and all(a <= b for a, b in zip(values[y], values[x])) for y in pts
        )
    )


def hilbert_basis_of_simplicial(generators):
    """Hilbert basis of the cone on r independent generators w_i of Z^r.

    Every point of the cone is Σ λ_i·w_i with λ ≥ 0, and subtracting
    Σ ⌊λ_i⌋·w_i leaves a point of the fundamental parallelepiped
    (0 ≤ λ_i < 1), one per element of Z^r / ⟨w_i⟩.  With u·W·v = D the
    Smith form of the rows W, x ↦ x·v carries ⟨w_i⟩ onto ⊕ d_i·Z, so the
    c·v⁻¹ with 0 ≤ c_i < d_i are the cosets, and λ(x) = x·W⁻¹.  So the w_i
    and the nonzero parallelepiped points hold every irreducible point,
    and y ≠ x is a summand of x exactly when λ(y) ≤ λ(x); a reducible x
    has an irreducible summand, of smaller Σ λ.  Linear in the
    multiplicity |det W|.
    """
    w = [tuple(g) for g in generators]
    r = len(w)

    def inverse(rows):
        cols = [list(c) for c in zip(*rows)]
        return [solve_rational(cols, [int(i == j) for j in range(r)]) for i in range(r)]

    def times(x, rows):
        return tuple(sum(a * row[j] for a, row in zip(x, rows)) for j in range(r))

    d, _, v = smith_normal_form(w, r)
    to_lambda = [times(row, inverse(w)) for row in inverse(v)]
    found = {tuple(int(i == j) for j in range(r)): g for i, g in enumerate(w)}
    for c in product(*(range(x) for x in d)):
        lam = tuple(t - (t.numerator // t.denominator) for t in times(c, to_lambda))
        if any(lam):
            found[lam] = tuple(int(x) for x in times(lam, w))
    basis = []
    for lam in sorted(found, key=sum):
        if not any(all(a <= b for a, b in zip(kept, lam)) for kept in basis):
            basis.append(lam)
    return sorted(found[lam] for lam in basis)


def monoid_generates(points, generators, workspace=None):
    """True iff every listed point is a nonnegative integer combination of
    the generators.  Reachability is computed by forward closure inside a
    workspace point set (default: the points themselves), which must be
    large enough to hold the intermediate sums."""
    gens = [tuple(g) for g in generators if any(g)]
    allowed = set(map(tuple, workspace if workspace is not None else points))
    zero = (0,) * len(next(iter(allowed))) if allowed else ()
    have = {zero}
    frontier = [zero]
    while frontier:
        h = frontier.pop()
        for g in gens:
            q = tuple(a + b for a, b in zip(h, g))
            if q in allowed and q not in have:
                have.add(q)
                frontier.append(q)
    return all(tuple(p) in have for p in points)


# ---------------------------------------------------------------------------
# Dense reduced row echelon form, one column at a time (the reference for
# the package's sparse elimination)


def _frac_rows(rows):
    return [[Fraction(x) for x in row] for row in rows]


def rref(rows):
    """Reduced row echelon form.  Returns (rref_rows, pivot_columns)."""
    m = _frac_rows(rows)
    if not m:
        return [], []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, len(m)):
            if m[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = m[r][c]
        m[r] = [x / inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def subspace_intersection(rows_a, rows_b):
    """Reduced echelon basis of (row span of A) ∩ (row span of B), from
    the solutions (y, z) of y·A = z·B."""
    if not rows_a or not rows_b:
        return []
    na, ncols = len(rows_a), len(rows_a[0])
    system = [
        [Fraction(r[c]) for r in rows_a] + [-Fraction(r[c]) for r in rows_b]
        for c in range(ncols)
    ]
    red, piv = rref(system)
    width = na + len(rows_b)
    out = []
    for f in (c for c in range(width) if c not in piv):
        s = [Fraction(0)] * width
        s[f] = Fraction(1)
        for i, p in enumerate(piv):
            s[p] = -red[i][f]
        vec = [sum(s[i] * Fraction(rows_a[i][c]) for i in range(na)) for c in range(ncols)]
        if any(vec):
            out.append(vec)
    red, piv = rref(out)
    return red[: len(piv)]


def window_quotient_dimension(base, kernel_rows, twists):
    """Dimension of a chart window built block by block: one coordinate
    (j, i, e) per twist v_j and monomial x^e·e_i of ``base``, the sparse
    ``kernel_rows`` (over ``base``) in every block, and a row
    x_(j,i,e) − x_(j2,i,e2) for each pair of blocks j < j2 whose products
    x^(v_j + e)·e_i and x^(v_j2 + e2)·e_i agree.  The dimension is the
    number of coordinates minus the rank of the rows."""
    width = len(base)
    rows = [
        {(j, c): x for c, x in r.items()} for j in range(len(twists)) for r in kernel_rows
    ]
    for j, j2 in combinations(range(len(twists)), 2):
        for c, (i, e) in enumerate(base):
            for c2, (i2, e2) in enumerate(base):
                if i == i2 and all(
                    v + a == v2 + b for v, a, v2, b in zip(twists[j], e, twists[j2], e2)
                ):
                    rows.append({(j, c): 1, (j2, c2): -1})
    return len(twists) * width - _sparse_rank(rows)


def component_span_rows(f, graded, alpha, index):
    """Sparse rows {coordinate: coefficient} spanning the degree-alpha
    slice of the module generated by the given (degree, homogeneous
    element) pairs, in the monomial coordinates of ``index``: every fiber
    multiple of every element, dependent rows included."""
    from coxfan.grading import degree_fiber

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


def _sparse_rank(rows):
    """Rank of sparse rows {column: value}, one row at a time: reduce it
    by the pivot rows kept so far, and keep what is left as a new pivot."""
    pivots = {}
    for row in rows:
        r = {k: Fraction(x) for k, x in row.items() if x}
        while r:
            c = min(r)
            if c not in pivots:
                pivots[c] = {k: x / r[c] for k, x in r.items()}
                break
            f = r[c]
            for k, x in pivots[c].items():
                r[k] = r.get(k, 0) - f * x
                if not r[k]:
                    del r[k]
    return len(pivots)


def component_dimension_by_rank(fiber, relations):
    """The dimension of the degree component whose monomials x^e·e_i are
    the (i, e) pairs of ``fiber`` (every monomial of one degree) modulo
    the homogeneous ``relations`` (tuples of {exponent: coefficient}
    dicts): the number of monomials less the rank of the relations'
    multiples x^u·r in that degree.  Such a multiple puts r's first term
    (i, a) on some (i, e) of the fiber, with u = e − a, so the multiples
    read off the fiber that way are all of them."""
    index = {c: k for k, c in enumerate(fiber)}
    rows = []
    for r in relations:
        i, a = next((i, a) for i, p in enumerate(r) for a in p)
        for j, e in fiber:
            if j == i and all(x >= y for x, y in zip(e, a)):
                u = [x - y for x, y in zip(e, a)]
                rows.append({
                    index[k, tuple(x + y for x, y in zip(b, u))]: c
                    for k, p in enumerate(r)
                    for b, c in p.items()
                })
    return len(fiber) - _sparse_rank(rows)


# ---------------------------------------------------------------------------
# Fourier–Motzkin on Fraction rows, dividing by each equation pivot (the
# reference for the package's integer elimination, whose rows are positive
# multiples of these and so normalise to the same primitive rows)


def _primitive(v):
    v = tuple(int(x) for x in v)
    g = 0
    for x in v:
        g = gcd(g, abs(x))
    if g == 0:
        return v
    return tuple(x // g for x in v)


def _fm_eliminate(eqs, ineqs, idx):
    """Eliminate coordinate idx from a system of equations and inequalities.

    Each constraint is a rational vector; eqs mean v.x = 0, ineqs v.x >= 0.
    """
    pivot = None
    for e in eqs:
        if e[idx] != 0:
            pivot = e
            break
    out_eqs, out_ineqs = [], []
    if pivot is not None:
        p = pivot[idx]
        for e in eqs:
            if e is pivot:
                continue
            out_eqs.append([x - e[idx] * y / p for x, y in zip(e, pivot)])
        for f in ineqs:
            out_ineqs.append([x - f[idx] * y / p for x, y in zip(f, pivot)])
    else:
        pos = [f for f in ineqs if f[idx] > 0]
        neg = [f for f in ineqs if f[idx] < 0]
        zer = [f for f in ineqs if f[idx] == 0]
        out_eqs = list(eqs)
        out_ineqs = list(zer)
        for fp in pos:
            for fn in neg:
                out_ineqs.append(
                    [fp[idx] * b - fn[idx] * a for a, b in zip(fp, fn)]
                )
    return out_eqs, out_ineqs


def _normalize_int(vec):
    """Clear denominators and make primitive, keeping orientation."""
    den = 1
    for x in vec:
        den = den * x.denominator // gcd(den, x.denominator)
    ints = [int(x * den) for x in vec]
    return _primitive(ints)


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


def _in_row_span(rows, v):
    return len(rref(list(rows) + [v])[1]) == len(rref(rows)[1])


def cone_inequalities(generators, rank):
    """H-representation of cone(generators): (inequality normals, equality normals).

    The cone is {x : f.x >= 0 for f in ineqs, e.x = 0 for e in eqs}.
    Obtained by eliminating the multiplier variables lambda from
    {x = sum lambda_i g_i, lambda >= 0} with Fourier-Motzkin.
    """
    gens = [tuple(g) for g in generators]
    k = len(gens)
    width = rank + k
    eqs = []
    for c in range(rank):
        row = [Fraction(0)] * width
        row[c] = Fraction(1)
        for i, g in enumerate(gens):
            row[rank + i] = Fraction(-g[c])
        eqs.append(row)
    ineqs = []
    for i in range(k):
        row = [Fraction(0)] * width
        row[rank + i] = Fraction(1)
        ineqs.append(row)
    for i in range(k):
        eqs, ineqs = _fm_eliminate(eqs, ineqs, rank + k - 1 - i)
        ineqs = [f for f in _dedup_frac(ineqs)]
    out_ineq = _prune([_normalize_int(f[:rank]) for f in ineqs])
    out_eq_rows = [f[:rank] for f in eqs]
    # Canonical independent set of equality normals.
    red, piv = rref(out_eq_rows)
    out_eq = [_normalize_int(red[i]) for i in range(len(piv))]
    # Inequalities implied by the equalities are redundant.
    out_ineq = [f for f in out_ineq if not _in_row_span(out_eq, f)]
    return out_ineq, out_eq


def row_rank(rows):
    return len(rref(rows)[1])


def facet_hrep(generators, rank):
    """The reference H-representation with its rows cut to the facets:
    a row is kept when the generators tight on it span one dimension less
    than the cone, and of the rows with one tight set the last is kept."""
    gens = [tuple(g) for g in generators]
    ineqs, eqs = cone_inequalities(gens, rank)
    facet_rank = rank - len(eqs) - 1
    rows = {}
    for f in ineqs:
        rows[tuple(g for g in gens if _dot(f, g) == 0)] = f
    return [f for tight, f in rows.items() if row_rank(tight) == facet_rank], eqs


def _dedup_frac(rows):
    seen = set()
    out = []
    for r in rows:
        if all(x == 0 for x in r):
            continue
        key = _normalize_int(list(r))
        if key not in seen:
            seen.add(key)
            out.append([Fraction(x) for x in key])
    return out


# ---------------------------------------------------------------------------
# Extreme rays, faces and dual cones by removal: the algorithms the
# package's incidence reading replaced, kept as references.


@lru_cache(maxsize=64)
def _reference_hrep(generators, rank):
    return cone_inequalities(generators, rank)


def in_cone_eliminated(v, generators, rank):
    """Membership by the reference H-representation, kept for the last
    cones asked about.  Its equalities stay equations, so a
    lower-dimensional cone does not multiply rows the way opposite
    half-space pairs would."""
    ineqs, eqs = _reference_hrep(tuple(map(tuple, generators)), rank)
    return all(_dot(f, v) >= 0 for f in ineqs) and not any(_dot(e, v) for e in eqs)


def minimal_generators(generators, rank):
    """The generators spanning extreme rays of a pointed cone, in input
    order: drop the first generator that lies in the cone of the others,
    and repeat until none does."""
    gens = _prune([_primitive(g) for g in generators])
    while True:
        redundant = next(
            (
                g for g in gens
                if len(gens) > 1 and in_cone_eliminated(g, [h for h in gens if h != g], rank)
            ),
            None,
        )
        if redundant is None:
            return gens
        gens = [h for h in gens if h != redundant]


def cone_faces(generators, rank):
    """Ray sets of all faces of a pointed cone, 0 included, sorted by
    size: a walk from the cone through the face each facet normal of a
    found face cuts out."""
    found = set()
    stack = [tuple(sorted(minimal_generators(generators, rank)))]
    while stack:
        rays = stack.pop()
        if rays not in found:
            found.add(rays)
            for u in cone_inequalities(rays, rank)[0]:
                tight = [g for g in rays if _dot(u, g) == 0]
                stack.append(tuple(sorted(minimal_generators(tight, rank))))
    found.add(())
    return sorted(found, key=lambda k: (len(k), k))


def dual_cone_generators(generators, rank):
    """Sorted rays of the dual of a pointed cone: its inequality and ±
    equality normals with the redundant ones removed; ±e_i for 0."""
    rays = sorted(minimal_generators(generators, rank))
    if not rays:
        units = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
        return sorted(units + [tuple(-x for x in e) for e in units])
    ineqs, eqs = cone_inequalities(rays, rank)
    gens = list(ineqs) + [s for e in eqs for s in (e, tuple(-x for x in e))]
    return sorted(minimal_generators(gens, rank))


def polyhedron_vertices(b, v0):
    """The points v0 + B·y at the vertices of the pointed polyhedron
    {y : v0 + B·y >= 0}, B of full column rank r: y solves r of the rows
    with equality, uniquely, and satisfies the others."""
    r = len(b[0])
    out = []
    for rows in combinations(range(len(b)), r):
        sub = [b[i] for i in rows]
        if row_rank(sub) == r:
            y = solve_rational(sub, [-v0[i] for i in rows])
            point = [x + _dot(row, y) for row, x in zip(b, v0)]
            if min(point) >= 0:
                out.append(point)
    return out


def part_bounds(b, v0):
    """Per entry i: ⌈max over the vertices of (v0 + B·y)_i⌉ + Σ_g (B·g)_i − 1,
    g over the primitive extreme rays of {B·y >= 0}, with the redundant
    Fourier–Motzkin rays removed: g spans an extreme ray of the pointed
    cone when the rows of B tight at g have rank r − 1."""
    r = len(b[0])
    rays = [
        g for g in _prune([_primitive(g) for g in cone_inequalities(b, r)[0]])
        if row_rank([row for row in b if _dot(row, g) == 0]) == r - 1
    ]
    vertices = polyhedron_vertices(b, v0)
    return [
        -(-max(p[i] for p in vertices) // 1) + sum(_dot(row, g) for g in rays) - 1
        for i, row in enumerate(b)
    ]


# ---------------------------------------------------------------------------
# Cartier lattices by per-cone lattice intersection


def _hermite(rows, ncols):
    """Row-style Hermite normal form: positive pivots, entries above a
    pivot reduced into [0, pivot), zero rows dropped."""
    rows = [list(r) for r in rows]
    basis = []
    for col in range(ncols):
        live = [r for r in rows if r[col]]
        while len(live) > 1:  # Euclid on the column
            p = min(live, key=lambda r: abs(r[col]))
            for r in live:
                if r is not p:
                    q = r[col] // p[col]
                    r[:] = [a - q * b for a, b in zip(r, p)]
            live = [r for r in rows if r[col]]
        if live:
            rows = [r for r in rows if r is not live[0]]
            basis.append([-x for x in live[0]] if live[0][col] < 0 else live[0])
    for i, p in enumerate(basis):
        c = next(j for j, x in enumerate(p) if x)
        for k in range(i):
            q = basis[k][c] // p[c]
            basis[k] = [a - q * b for a, b in zip(basis[k], p)]
    return [tuple(r) for r in basis]


def lattice_intersection(basis_a, basis_b, ncols):
    """Hermite basis of L_a ∩ L_b (Zassenhaus): in the lattice of the rows
    (a, a) and (b, 0), the vectors whose first half vanishes are
    (0, x·A) with x·A = −y·B, and an echelon basis spans them by its rows
    with a pivot in the second half."""
    rows = [list(a) + list(a) for a in basis_a] + [list(b) + [0] * ncols for b in basis_b]
    return _hermite([r[ncols:] for r in _hermite(rows, 2 * ncols) if not any(r[:ncols])], ncols)


def cartier_lattice(rays, max_cones):
    """Hermite basis of the support functions v on the rays: on each
    cone, the values of the linear forms on its rays plus the unit
    vectors off it, intersected over the maximal cones."""
    nr, rank = len(rays), len(rays[0])
    current = None
    for cone in max_cones:
        basis = [[rays[i][j] if i in cone else 0 for i in range(nr)] for j in range(rank)]
        basis += [[int(i == k) for i in range(nr)] for k in range(nr) if k not in cone]
        basis = _hermite(basis, nr)
        current = basis if current is None else lattice_intersection(current, basis, nr)
    return current


# ---------------------------------------------------------------------------
# Fans in the plane by angular intervals


def _cross(u, v):
    return u[0] * v[1] - u[1] * v[0]


def _arc(cone):
    """A pointed cone in Z^2 as (kind, rays): the zero cone, a ray (u,),
    or a 2-dimensional cone (u, v) turning counterclockwise from u to v
    through less than a half turn.  Generators on one ray collapse."""
    gens = [_primitive(g) for g in cone if any(g)]
    rays = sorted(set(gens))
    if not rays:
        return ()
    for u in rays:
        for v in rays:
            # u and v bound the cone iff every generator lies in the
            # closed angle from u counterclockwise to v
            if _cross(u, v) > 0 and all(
                _cross(u, w) >= 0 and _cross(w, v) >= 0 for w in rays
            ):
                return (u, v)
    if len(rays) == 1:
        return (rays[0],)
    raise ValueError(f"not a pointed cone: {cone}")


def _strictly_inside(w, arc):
    u, v = arc
    return _cross(u, w) > 0 and _cross(w, v) > 0


def plane_fan_is_valid(cones):
    """Whether pointed cones in Z^2 (lists of generators) form a fan: any
    two meet in a common face.  Two angles of less than a half turn meet
    in more than a shared bounding ray iff they are equal or a bounding
    ray of one lies strictly inside the other; a ray breaks a fan iff it
    lies strictly inside a 2-dimensional cone."""
    arcs = [_arc(c) for c in cones]
    for i, a in enumerate(arcs):
        for b in arcs[i + 1 :]:
            if len(a) == 2 and len(b) == 2:
                if a == b:
                    continue
                if any(_strictly_inside(w, a) for w in b) or any(
                    _strictly_inside(w, b) for w in a
                ):
                    return False
            elif len(a) == 2 and len(b) == 1 and _strictly_inside(b[0], a):
                return False
            elif len(b) == 2 and len(a) == 1 and _strictly_inside(a[0], b):
                return False
    return True


# ---------------------------------------------------------------------------
# Exact dense linear solve (for small Cartier-data systems)


def solve_rational(rows, rhs):
    """One solution x of rows·x = rhs over Q, or None."""
    m = [[Fraction(x) for x in r] + [Fraction(b)] for r, b in zip(rows, rhs)]
    ncols = len(rows[0]) if rows else 0
    piv_cols = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        piv_cols.append(c)
        r += 1
    for i in range(r, len(m)):
        if m[i][ncols]:
            return None
    x = [Fraction(0)] * ncols
    for i, c in enumerate(piv_cols):
        x[c] = m[i][ncols]
    return x


def divisor_is_cartier(rays, max_cone_indices, coefficients):
    """Whether the ray-coefficient vector admits per-cone integral linear
    forms u_sigma with u_sigma · ray = -coefficient on every cone ray: on
    each cone the right-hand side lies in the lattice of the columns of
    the ray matrix, so adding it leaves that lattice's Hermite basis as
    it is.  A cone that is not full-dimensional leaves u_sigma partly
    free, so no single rational solution decides it."""
    for cone in max_cone_indices:
        columns = [[rays[i][j] for i in cone] for j in range(len(rays[0]))]
        rhs = [-coefficients[i] for i in cone]
        if _hermite(columns + [rhs], len(cone)) != _hermite(columns, len(cone)):
            return False
    return True


# ---------------------------------------------------------------------------
# Monomial ideal combinatorics


def minimalize(exponents):
    out = sorted(set(map(tuple, exponents)))
    return [
        e
        for e in out
        if not any(
            f != e and all(a <= b for a, b in zip(f, e)) for f in out
        )
    ]


def random_monomial_ideal(rng, nvars):
    """One to three distinct nonconstant monomials, exponents at most 2."""
    k = rng.randint(1, 3)
    gens = []
    while len(gens) < k:
        e = tuple(rng.randint(0, 2) for _ in range(nvars))
        if any(e) and e not in gens:
            gens.append(e)
    return gens


def random_binomial_ideal(rng, nvars, degree):
    """One or two binomials a·Z^e + b·Z^f, e ≠ f of equal degree(e), and
    half the time one monomial, as {exponent: Fraction} dicts, with
    exponents at most 2."""
    classes = {}
    for e in product(range(3), repeat=nvars):
        if any(e):
            classes.setdefault(degree(e), []).append(e)
    pool = [v for _, v in sorted(classes.items()) if len(v) > 1]
    coef = (1, -1, 2, -3)
    gens = []
    for _ in range(rng.randint(1, 2)):
        e, f = rng.sample(rng.choice(pool), 2)
        gens.append({e: Fraction(rng.choice(coef)), f: Fraction(rng.choice(coef))})
    if rng.random() < 0.5:
        gens.append({rng.choice([e for v in pool for e in v]): Fraction(1)})
    return gens


_GENERATED_COEFFICIENTS = tuple(map(Fraction, (1, -1, 2, -3))) + (Fraction(1, 2), Fraction(-3, 4))


def _homogeneous_pair(rng, rays, shift, top):
    """Distinct exponents (u, v) with u − v − shift = (⟨m, u_ρ⟩)_ρ for a
    lattice point m with entries in −top..top: the positive and negative
    parts of that difference plus a common part of 0s and 1s.  So x^u
    and x^(v + shift) have one Cl-degree."""
    while True:
        m = [rng.randint(-top, top) for _ in rays[0]]
        d = [_dot(m, r) + s for r, s in zip(rays, shift)]
        common = [rng.randint(0, 1) for _ in rays]
        u = tuple(max(x, 0) + c for x, c in zip(d, common))
        v = tuple(max(-x, 0) + c for x, c in zip(d, common))
        if u != v:
            return u, v


def random_homogeneous_elements(rng, rays, count, shift=None, top=1):
    """`count` Cl-homogeneous elements on the fan with these rays, as
    tuples of {exponent: Fraction} dicts.  With no shift they are
    binomials x^u − c·x^v of rank 1, u − v = (⟨m, u_ρ⟩)_ρ for a lattice
    point m.  With an exponent `shift` s they lie in the rank-2 free
    module whose generators have degrees 0 and deg x^s: such a binomial
    in either position, or x^u·e_0 − c·x^v·e_1 with
    u − v − s = (⟨m, u_ρ⟩)_ρ."""
    rank = 1 if shift is None else 2
    out = []
    for _ in range(count):
        c = rng.choice(_GENERATED_COEFFICIENTS)
        if rank == 2 and rng.random() < 0.5:
            u, v = _homogeneous_pair(rng, rays, shift, top)
            out.append(({u: Fraction(1)}, {v: -c}))
        else:
            u, v = _homogeneous_pair(rng, rays, (0,) * len(rays), top)
            pos = rng.randrange(rank)
            out.append(tuple({u: Fraction(1), v: -c} if i == pos else {} for i in range(rank)))
    return out


def colon_monomial(ideal, f):
    return minimalize(
        [tuple(max(a - b, 0) for a, b in zip(e, f)) for e in ideal]
    )


def intersect_monomial(a, b):
    return minimalize(
        [tuple(max(x, y) for x, y in zip(e, f)) for e in a for f in b]
    )


def colon_by_ideal(ideal, by):
    cur = None
    for f in by:
        c = colon_monomial(ideal, f)
        cur = c if cur is None else intersect_monomial(cur, c)
    return cur if cur is not None else list(map(tuple, ideal))


def saturate_monomial(ideal, by, max_steps=64):
    """Union of iterated colons, with stabilization detected."""
    cur = minimalize(ideal)
    for _ in range(max_steps):
        nxt = colon_by_ideal(cur, by)
        if sorted(nxt) == sorted(cur):
            return cur
        cur = nxt
    raise RuntimeError("saturation did not stabilize")


def count_monomials_total_degree(nvars, degree):
    if degree < 0:
        return 0
    return len(list(combinations_with_replacement(range(nvars), degree)))


def monomials_of_weighted_degree(weights, degree, cap=None):
    """All exponent vectors with given nonnegative-weight degree."""
    cap = cap if cap is not None else (abs(degree) + 1) * 4
    out = []
    n = len(weights)
    for e in product(range(cap + 1), repeat=n):
        if sum(w * x for w, x in zip(weights, e)) == degree:
            out.append(e)
    return out


# ---------------------------------------------------------------------------
# Buchberger over every same-position pair, last in first out, recomputing
# leading terms at each step, one basis per candidate in generator
# minimalization, and saturation by the iterated colon (the reference for
# the package's Groebner engine: its remainders and minimal generator
# lists must equal these element for element, its S-vectors must equal
# these up to a nonzero factor, and its bases must have the same reduced
# basis).  Module elements are tuples of {exponent: coefficient} dicts,
# Fractions or ints (the engine's bases have primitive int elements), and
# every division is over Fraction; `order` is any object whose `key` ranks
# (position, exponent) terms.


def _p_add(p, q):
    out = dict(p)
    for e, c in q.items():
        s = out.get(e, Fraction(0)) + c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def _p_term_mul(p, e, c):
    c = Fraction(c)
    if not c:
        return {}
    return {tuple(a + b for a, b in zip(e, m)): c * x for m, x in p.items()}


def _m_sub(x, y):
    return tuple(_p_add(a, {e: -c for e, c in b.items()}) for a, b in zip(x, y))


def _m_term_mul(x, e, c):
    return tuple(_p_term_mul(a, e, c) for a in x)


def _m_is_zero(x):
    return all(not a for a in x)


def _divides(e, m):
    return all(a <= b for a, b in zip(e, m))


def _m_leading_term(x, order):
    best = None
    for i, p in enumerate(x):
        for e, c in p.items():
            if best is None or order.key((i, e)) > order.key(best[0]):
                best = ((i, e), c)
    return best


def m_normal_form(x, basis, order):
    work = tuple(dict(p) for p in x)
    rem = tuple({} for _ in x)
    lts = [_m_leading_term(b, order) for b in basis]
    while not _m_is_zero(work):
        (pos, e), c = _m_leading_term(work, order)
        for b, ((bpos, be), bc) in zip(basis, lts):
            if bpos == pos and _divides(be, e):
                q_e = tuple(a - b2 for a, b2 in zip(e, be))
                work = _m_sub(work, _m_term_mul(b, q_e, Fraction(c) / bc))
                break
        else:
            rem = list(rem)
            rem[pos] = _p_add(rem[pos], {e: c})
            rem = tuple(rem)
            w = list(work)
            w[pos] = {k: v for k, v in w[pos].items() if k != e}
            work = tuple(w)
    return rem


def _s_vector(f, g, order):
    (_, ef), cf = _m_leading_term(f, order)
    (_, eg), cg = _m_leading_term(g, order)
    lcm = tuple(max(a, b) for a, b in zip(ef, eg))
    return _m_sub(
        _m_term_mul(f, tuple(a - b for a, b in zip(lcm, ef)), Fraction(1) / cf),
        _m_term_mul(g, tuple(a - b for a, b in zip(lcm, eg)), Fraction(1) / cg),
    )


def module_groebner_basis(gens, order):
    """Buchberger without criteria: every pair of elements whose leading
    terms share a position is reduced, the pair with the least lcm of
    its leading terms first (the normal strategy).  Taking the last pair
    instead grew a basis of over 150 elements for the tag intersection of
    two principal ideals of dP6, whose answer is one element."""
    basis = [g for g in gens if not _m_is_zero(g)]
    lts = [_m_leading_term(g, order)[0] for g in basis]
    pairs = []

    def add_pairs(j):
        for i in range(j):
            if lts[i][0] == lts[j][0]:
                lcm = tuple(max(a, b) for a, b in zip(lts[i][1], lts[j][1]))
                pairs.append((order.key((lts[j][0], lcm)), i, j))

    for j in range(len(basis)):
        add_pairs(j)
    while pairs:
        _, i, j = pairs.pop(min(range(len(pairs)), key=pairs.__getitem__))
        r = m_normal_form(_s_vector(basis[i], basis[j], order), basis, order)
        if not _m_is_zero(r):
            basis.append(r)
            lts.append(_m_leading_term(r, order)[0])
            add_pairs(len(basis) - 1)
    return basis


def reduced_basis(basis, order):
    """The reduced Groebner basis of the submodule that the Groebner basis
    `basis` generates, which depends on the submodule and the order only:
    the elements whose leading term no other's divides (the first of equal
    ones), each reduced by the others and made monic, sorted by leading
    term (position, exponent)."""
    gb = [g for g in basis if not _m_is_zero(g)]
    lts = [_m_leading_term(g, order)[0] for g in gb]
    minimal = [
        gb[i]
        for i, (pos, e) in enumerate(lts)
        if not any(
            q == pos and _divides(d, e) and (d != e or j < i)
            for j, (q, d) in enumerate(lts)
        )
    ]
    out = []
    for i, g in enumerate(minimal):
        r = m_normal_form(g, minimal[:i] + minimal[i + 1 :], order)
        term, c = _m_leading_term(r, order)
        out.append((term, _m_term_mul(r, (0,) * len(term[1]), Fraction(1) / c)))
    return [g for _, g in sorted(out, key=lambda kg: kg[0])]


def submodule_equal(gens_a, gens_b, pot):
    ga = module_groebner_basis(gens_a, pot)
    gb = module_groebner_basis(gens_b, pot)
    return all(_m_is_zero(m_normal_form(x, gb, pot)) for x in gens_a) and all(
        _m_is_zero(m_normal_form(y, ga, pot)) for y in gens_b
    )


def minimalize_generators(gens, relations, pot):
    """One pass that drops each generator lying in the span of the others
    and the relations, each test on a Groebner basis of that span."""
    gens = [x for x in gens if not _m_is_zero(x)]
    k = 0
    while k < len(gens):
        rest = gens[:k] + gens[k + 1 :]
        gb = module_groebner_basis(rest + list(relations), pot)
        if gb and _m_is_zero(m_normal_form(gens[k], gb, pot)):
            gens = rest
        else:
            k += 1
    return gens


def _grevlex_leading(p):
    return max(p, key=lambda e: (sum(e), tuple(-x for x in reversed(e))))


def _p_divexact(p, f):
    le = _grevlex_leading(f)
    quot, work = {}, dict(p)
    while work:
        e = _grevlex_leading(work)
        if not _divides(le, e):
            raise ValueError("division is not exact")
        q_e = tuple(a - b for a, b in zip(e, le))
        quot[q_e] = Fraction(work[e]) / f[le]
        work = _m_sub((work,), (_p_term_mul(f, q_e, quot[q_e]),))[0]
    return quot


def module_intersection(gens_a, gens_b, nvars, elim):
    """A ∩ B as the t-free part of t*A + (1 - t)*B under `elim`."""
    a = [g for g in gens_a if not _m_is_zero(g)]
    b = [g for g in gens_b if not _m_is_zero(g)]
    if not a or not b:
        return []
    t = (1,) + (0,) * nvars

    def embed(x):
        return tuple({(0,) + e: c for e, c in p.items()} for p in x)

    ext = [_m_term_mul(embed(g), t, 1) for g in a]
    ext += [_m_sub(embed(g), _m_term_mul(embed(g), t, 1)) for g in b]
    return [
        tuple({e[1:]: c for e, c in p.items()} for p in g)
        for g in module_groebner_basis(ext, elim)
        if not any(e[0] for p in g for e in p)
    ]


def module_saturate_element(gens, f, rank, nvars, pot, elim, max_steps=64):
    """(N : f^infinity) as the union of (N : f^k), stopping at the first
    k where (N : f^k) = (N : f^(k+1)).  `pot` is position-over-term and
    `elim` an order that eliminates a prepended tag variable."""
    current = [g for g in gens if not _m_is_zero(g)]
    fF = [tuple(dict(f) if j == i else {} for j in range(rank)) for i in range(rank)]
    for _ in range(max_steps):
        nxt = [
            tuple(_p_divexact(p, f) if p else {} for p in x)
            for x in module_intersection(current, fF, nvars, elim)
        ]
        if submodule_equal(current, nxt, pot):
            return current
        current = nxt
    raise RuntimeError("saturation did not stabilize")


def lift_per_chart(charts, zhat, m_exponents, relations, pot, elim):
    """The finite-type lift searched chart by chart: each generator x of
    the chart of cone σ times the least z_σ^(j·m_σ) that lies in every
    other chart module T_τ, each tested by its own normal form (every
    chart is a Groebner basis).  Before any j > 1, x is tested against
    each (T_τ : z_σ^∞), and None is returned when it lies outside one, as
    then no power works.  The result is the reduced basis of the cleared
    generators and the relations."""
    keys = sorted(charts)
    gens = []
    for key in keys:
        z = zhat[key]
        others = [charts[k] for k in keys if k != key]
        colons = []
        for x in charts[key]:
            if _m_is_zero(x):
                continue
            j = 0
            while True:
                cand = _m_term_mul(x, tuple(j * m_exponents[key] * a for a in z), 1)
                if all(_m_is_zero(m_normal_form(cand, b, pot)) for b in others):
                    break
                if j == 1:
                    if not colons:
                        colons.extend(
                            module_groebner_basis(
                                module_saturate_element(
                                    list(b) + list(relations), {tuple(z): Fraction(1)},
                                    len(x), len(z), pot, elim,
                                ),
                                pot,
                            )
                            for b in others
                        )
                    if not all(_m_is_zero(m_normal_form(x, c, pot)) for c in colons):
                        return None
                j += 1
            gens.append(cand)
    return tuple(reduced_basis(module_groebner_basis(gens + list(relations), pot), pot))


def lift_by_groebner(t, f):
    """The finite-type lift of the chart family t of f with every result
    from its Groebner basis: the package's least powers against the chart
    intersection, each refusal certified by its saturation, then the
    reduced basis of the cleared generators and the relations; None where
    some generator has no power."""
    from coxfan import gradmod, groeb

    cox = f.cox
    meet = gradmod.chart_intersection(f, t.charts)
    gens = []
    for key in sorted(t.charts):
        z = cox.zhat[key]
        step = tuple(cox.m_exponents[key] * a for a in z)
        for x in t.charts[key]:
            j = gradmod._least_power(
                x, step, meet, lambda z=z: gradmod.saturate_at(gradmod.GradedSubmodule(f, meet), z)
            )
            if j is None:
                return None
            gens.append(groeb.m_term_mul(x, tuple(j * s for s in step), Fraction(1)))
    return groeb.reduced_basis(groeb.module_groebner_basis(gens + list(f.relations)))


def degree_zero_monoid_generators(c, cone):
    """Hilbert-style generators of {v : deg(v)=0, v >= 0 on the cone's rays}."""
    from coxfan.cox import ConeNotInFan
    from coxfan.grading import _degree_zero_lattice, _nonnegative_rows
    from coxfan.polyfan import cone_generators_from_inequalities, hilbert_basis

    g = c.grading
    nr = g.num_rays
    if cone.ray_generators not in c.zhat:
        raise ConeNotInFan(f"cone {cone.ray_generators} is not in the fan")
    lat = _degree_zero_lattice(g.delta_basis)
    if not lat:
        return ()
    r = len(lat)
    # Cone in lattice coordinates: rows of lat give v = x . lat.
    rows = _nonnegative_rows(lat, nr)
    gens_cone_ineqs = [rows[g.delta_basis.index(ray)] for ray in cone.ray_generators]
    rays, lin = cone_generators_from_inequalities(gens_cone_ineqs, [], r)
    hb = hilbert_basis(list(rays) + [l for l in lin] + [tuple(-x for x in l) for l in lin], r)
    out = []
    for h in hb:
        v = tuple(
            sum(h[k] * lat[k][i] for k in range(r)) for i in range(nr)
        )
        out.append(v)
    return tuple(sorted(set(out)))

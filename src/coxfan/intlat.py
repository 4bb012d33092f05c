"""Exact integer linear algebra.

Smith and Hermite normal forms, integer kernels, cokernel presentations of
integer matrices, and arithmetic in finitely generated abelian groups.  All
arithmetic is arbitrary-precision; nothing here ever touches floats.  A
matrix is its list of rows, passed with its column count as (rows, ncols),
so an empty matrix keeps its shape.  A subgroup is its Hermite basis, and
membership, containment, element orders and the index are read off that
basis; the Smith form serves only presentations (Cohen, A Course in
Computational Algebraic Number Theory, §2.4).

An abelian group is kept in the canonical shape Z/t_1 x ... x Z/t_k x Z^f
with t_1 | t_2 | ... | t_k and every t_i >= 2, so two groups are equal iff
their field tuples are equal.  Element coordinates list the torsion residues
first and the free part last.
"""

from __future__ import annotations

from math import gcd, prod
from operator import mod, mul

from ._record import Record


INFINITE = "infinite"


def _transpose(rows, ncols):
    return [[r[j] for r in rows] for j in range(ncols)]


def _mul_vec(rows, x):
    return tuple(sum(map(mul, r, x)) for r in rows)


def smith_normal_form(rows, ncols):
    """Return (d, u, v) for the matrix with the given rows and ncols
    columns: u and v are unimodular (as row lists) and u*m*v is diagonal,
    with diagonal d (min(rows, ncols) entries, nonnegative, a divisibility
    chain, zeros last).

    The work is done on the block matrix [[m, I_r], [I_c, 0]]: a row
    operation on its first r rows acts on m and u together, a column
    operation on its first c columns on m and v together.

    Pivot selection: smallest nonzero absolute value in the working
    submatrix, ties broken by lowest (row, column) index, so the transforms
    are deterministic.
    """
    r, c = len(rows), ncols
    a = [[*map(int, row), *(int(i == j) for j in range(r))] for i, row in enumerate(rows)]
    a += [[int(i == j) for j in range(c + r)] for i in range(c)]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]

    def addmul_row(dst, src, q):
        a[dst] = [x + q * y for x, y in zip(a[dst], a[src])]

    def addmul_col(dst, src, q):
        for row in a:
            row[dst] += q * row[src]

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
        a[t], a[best[0]] = a[best[0]], a[t]
        swap_cols(t, best[1])
        # Clear row and column t; restart whenever a remainder shrinks the pivot.
        while True:
            dirty = False
            for i in range(t + 1, r):
                if a[i][t] != 0:
                    q = a[i][t] // a[t][t]
                    addmul_row(i, t, -q)
                    if a[i][t] != 0:
                        a[t], a[i] = a[i], a[t]
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
            a[t] = [-x for x in a[t]]
        t += 1
    d = [a[i][i] for i in range(min(r, c))]
    return d, [row[c:] for row in a[:r]], [row[:c] for row in a[r:]]


def hermite_row_basis(rows, ncols):
    """Canonical basis of the row lattice (row-style Hermite normal form).

    Pivots are positive, entries above a pivot are reduced into [0, pivot).
    Zero rows are dropped, so equal lattices give equal outputs.
    """
    work = [list(map(int, r)) for r in rows if any(x != 0 for x in r)]
    basis = []
    col = 0
    while col < ncols and work:
        sel = [r for r in work if r[col] != 0]
        rest = [r for r in work if r[col] == 0]
        if not sel:
            col += 1
            continue
        while len(sel) > 1:
            sel.sort(key=lambda r: abs(r[col]))
            p = sel[0]
            new_sel = [p]
            for r in sel[1:]:
                q = r[col] // p[col]
                rr = [x - q * y for x, y in zip(r, p)]
                if rr[col] != 0:
                    new_sel.append(rr)
                elif any(x != 0 for x in rr):
                    rest.append(rr)
            sel = new_sel
        p = sel[0]
        if p[col] < 0:
            p = [-x for x in p]
        basis.append(p)
        work = rest
        col += 1
    # Reduce above-pivot entries for canonicity.
    for i in range(len(basis)):
        pcol = next(j for j in range(ncols) if basis[i][j] != 0)
        for k in range(i):
            q = basis[k][pcol] // basis[i][pcol]
            if q:
                basis[k] = [x - q * y for x, y in zip(basis[k], basis[i])]
    return [tuple(r) for r in basis]


def integer_kernel(rows, ncols):
    """Basis of {x in Z^ncols : m x = 0} for the matrix m with these rows;
    the lattice returned is saturated."""
    d, _, v = smith_normal_form(rows, ncols)
    nz = sum(1 for x in d if x)
    return [tuple(row[j] for row in v) for j in range(nz, ncols)]


class AbelianGroup(Record):
    __slots__ = ("free_rank", "torsion_orders")

    def __post_init__(self):
        for t in self.torsion_orders:
            if t < 2:
                raise ValueError("torsion orders must be >= 2")
        for x, y in zip(self.torsion_orders, self.torsion_orders[1:]):
            if y % x != 0:
                raise ValueError("torsion orders must form a divisibility chain")

    @property
    def ngens(self):
        return len(self.torsion_orders) + self.free_rank

    def is_zero(self):
        return self.free_rank == 0 and not self.torsion_orders

    def order(self):
        """Group order, or INFINITE."""
        if self.free_rank:
            return INFINITE
        n = 1
        for t in self.torsion_orders:
            n *= t
        return n

    def zero(self):
        return GroupElement(
            tuple([0] * len(self.torsion_orders)), tuple([0] * self.free_rank)
        )

    def element(self, torsion_part, free_part):
        if len(torsion_part) != len(self.torsion_orders) or len(free_part) != self.free_rank:
            raise ValueError("coordinate length mismatch")
        tp = tuple(map(mod, map(int, torsion_part), self.torsion_orders))
        return GroupElement(tp, tuple(map(int, free_part)))

    def from_coords(self, coords):
        k = len(self.torsion_orders)
        return self.element(coords[:k], coords[k:])

    def add(self, x, y):
        return self.element(
            [a + b for a, b in zip(x.torsion_part, y.torsion_part)],
            [a + b for a, b in zip(x.free_part, y.free_part)],
        )

    def neg(self, x):
        return self.element(
            [-a for a in x.torsion_part], [-a for a in x.free_part]
        )

    def generators(self):
        out = []
        for i in range(self.ngens):
            coords = [0] * self.ngens
            coords[i] = 1
            out.append(self.from_coords(coords))
        return out


class GroupElement(Record):
    __slots__ = ("torsion_part", "free_part")

    def is_zero(self):
        return all(x == 0 for x in self.torsion_part) and all(
            x == 0 for x in self.free_part
        )

    def coords(self):
        return tuple(self.torsion_part) + tuple(self.free_part)


class QuotientMap:
    """Surjection Z^n -> G recorded via a Smith normal form.

    Holds the unimodular row transform u with u*m*v diagonal, so proj(x)
    reads off coordinates of u*x at the torsion and free positions of the
    diagonal.
    """

    def __init__(self, group, u, torsion_positions, free_positions):
        self.group = group
        self._u = u
        self._uinv = None  # built on the first lift
        self._torsion_positions = torsion_positions
        self._free_positions = free_positions

    def __call__(self, x):
        y = _mul_vec(self._u, x)
        return self.group.element(
            [y[i] for i in self._torsion_positions],
            [y[i] for i in self._free_positions],
        )

    def lift(self, g):
        """Some preimage in Z^n of a group element."""
        y = [0] * len(self._u)
        for i, p in enumerate(self._torsion_positions):
            y[p] = g.torsion_part[i]
        for i, p in enumerate(self._free_positions):
            y[p] = g.free_part[i]
        if self._uinv is None:
            self._uinv = _unimodular_inverse(self._u)
        return _mul_vec(self._uinv, y)


def _unimodular_inverse(u):
    """Exact inverse of a unimodular integer matrix (a square row list): the
    Hermite basis of the rows (u_i | e_i) is (I | u^-1), since each of its
    rows (h | w) has h = w*u, and u's rows span Z^n."""
    n = len(u)
    eye = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    basis = hermite_row_basis([(*row, *e) for row, e in zip(u, eye)], 2 * n)
    if [row[:n] for row in basis] != eye:
        raise ValueError("matrix is not unimodular")
    return [row[n:] for row in basis]


def cokernel_presentation(rows, ncols):
    """Present Z^len(rows) / (column lattice of m) as (AbelianGroup,
    QuotientMap), for the matrix m with the given rows and ncols columns."""
    d, u, _ = smith_normal_form(rows, ncols)
    torsion_positions = [i for i, x in enumerate(d) if x >= 2]
    free_positions = [i for i, x in enumerate(d) if x == 0] + list(
        range(len(d), len(rows))
    )
    group = AbelianGroup(
        len(free_positions), tuple(d[i] for i in torsion_positions)
    )
    return group, QuotientMap(group, u, torsion_positions, free_positions)


def _presentation_rows(g: AbelianGroup, extra_elements=()):
    """Rows presenting the subgroup <torsion relations, extra> of Z^ngens."""
    n = g.ngens
    rows = []
    for i, t in enumerate(g.torsion_orders):
        r = [0] * n
        r[i] = t
        rows.append(tuple(r))
    for e in extra_elements:
        rows.append(tuple(e.coords()))
    return rows, n


def _subgroup_basis(g: AbelianGroup, elements):
    """Hermite basis of <elements> as a lattice in Z^ngens: the element
    coordinates and the torsion relations."""
    return hermite_row_basis(*_presentation_rows(g, elements))


def _order_modulo(basis, x):
    """Least m >= 1 with m*x in the lattice of a Hermite basis, or INFINITE.

    Walking the pivot rows in order, the least k with p | k*y[c] at pivot
    column c is forced on m, and the pivot row then clears column c; what
    no pivot clears stays nonzero in every multiple."""
    y = list(x)
    m = 1
    for row in basis:
        c, p = next((j, p) for j, p in enumerate(row) if p)
        k = p // gcd(y[c], p)
        q = k * y[c] // p
        y = [k * a - q * b for a, b in zip(y, row)]
        m *= k
    return INFINITE if any(y) else m


def subgroup_index(sub, g: AbelianGroup):
    """[g : <sub>] exactly, or INFINITE."""
    basis = _subgroup_basis(g, sub)
    if len(basis) < g.ngens:
        return INFINITE
    return prod(row[i] for i, row in enumerate(basis))


def subgroup_contains(sub, x, g: AbelianGroup):
    return _order_modulo(_subgroup_basis(g, sub), x.coords()) == 1


def subgroup_leq(gens_a, gens_b, g: AbelianGroup):
    """<gens_a> contained in <gens_b>."""
    basis = _subgroup_basis(g, gens_b)
    return all(_order_modulo(basis, x.coords()) == 1 for x in gens_a)

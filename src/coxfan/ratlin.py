"""Dense exact linear algebra over the rationals.

Everything here works on lists of lists of Fraction (or int, coerced on
entry).  Matrices are small (dozens of rows at most), so plain Gaussian
elimination is fine.
"""

from __future__ import annotations

from fractions import Fraction


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


def rank(rows):
    return len(rref(rows)[1])


def nullspace(rows, ncols=None):
    """Basis of {x : A x = 0} for the matrix with the given rows."""
    if not rows:
        if ncols is None:
            return []
        return [[Fraction(int(i == j)) for j in range(ncols)] for i in range(ncols)]
    ncols = len(rows[0])
    red, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -red[i][f]
        basis.append(v)
    return basis


def in_row_span(rows, v):
    """True iff v is a rational combination of the given rows."""
    if all(x == 0 for x in v):
        return True
    if not rows:
        return False
    base = rank(rows)
    return rank(list(rows) + [v]) == base


def subspace_intersection(rows_a, rows_b):
    """Basis of (row span of A) ∩ (row span of B)."""
    if not rows_a or not rows_b:
        return []
    na, nb = len(rows_a), len(rows_b)
    # Solve y·A - z·B = 0 over (y, z); intersection vectors are y·A.
    ncols = len(rows_a[0])
    system = []
    for c in range(ncols):
        system.append(
            [Fraction(rows_a[i][c]) for i in range(na)]
            + [-Fraction(rows_b[j][c]) for j in range(nb)]
        )
    sols = nullspace(system)
    out = []
    for s in sols:
        vec = [
            sum(s[i] * Fraction(rows_a[i][c]) for i in range(na))
            for c in range(ncols)
        ]
        if any(x != 0 for x in vec):
            out.append(vec)
    red, piv = rref(out)
    return [red[i] for i in range(len(piv))]

"""Exact linear algebra over the rationals, on sparse rows.

A row is stored as a dict {column: Fraction} of its nonzero entries: the
chart windows and Čech equalizers of `sheaf` have thousands of rows with
a handful of entries each, mostly ±1.  One echelon core serves every
function.  It inserts the rows one at a time, cancelling each row's
leading entry against the pivot rows found so far until the row vanishes
or opens a new pivot, and back-substitutes once at the end.  The result
is the reduced row echelon form, which is unique.

`echelon`, `rank` and `in_row_span` take dense (list) or sparse (dict)
rows.  `rref` and `subspace_intersection` take dense rows, since they
read the width off the first row; `nullspace` needs `ncols` for sparse
rows.  `rref`, `nullspace` and `subspace_intersection` return dense rows.
"""

from __future__ import annotations

from fractions import Fraction


def _sparse(row):
    items = row.items() if isinstance(row, dict) else enumerate(row)
    return {c: x if type(x) is Fraction else Fraction(x) for c, x in items if x}


def _axpy(r, f, p, skip):
    """r -= f * p in place, over the entries of p other than column skip."""
    for k, x in p.items():
        if k != skip:
            y = r.get(k, 0) - f * x
            if y:
                r[k] = y
            else:
                r.pop(k, None)


def _insert(piv, row):
    """Cancel the row's leading entry against the pivot rows {column: row
    with 1 there} until it vanishes (False) or opens a new pivot (True)."""
    r = _sparse(row)
    while r:
        c = min(r)
        if c not in piv:
            x = r[c]
            piv[c] = {k: y / x for k, y in r.items()} if x != 1 else r
            return True
        _axpy(r, r.pop(c), piv[c], c)
    return False


def _pivot_rows(rows):
    piv = {}
    for row in rows:
        _insert(piv, row)
    return piv


def echelon(rows):
    """Reduced row echelon form as {pivot column: sparse row}, by pivot:
    each row has 1 at its pivot and 0 at every other pivot column."""
    piv = _pivot_rows(rows)
    order = sorted(piv)
    for c in reversed(order):
        r = piv[c]
        for q in [k for k in r if k != c and k in piv]:
            _axpy(r, r.pop(q), piv[q], q)
    return {c: piv[c] for c in order}


def dense(rows, ncols):
    """Dense copies, ncols wide, of sparse rows."""
    zero = Fraction(0)
    return [[row.get(c, zero) for c in range(ncols)] for row in rows]


def rref(rows):
    """Reduced row echelon form of dense rows.  Returns (rows, pivot
    columns): the pivot rows in pivot order, then one zero row for each
    dependent input row."""
    if not rows:
        return [], []
    ncols = len(rows[0])
    ech = echelon(rows)
    out = dense(ech.values(), ncols)
    out += [[Fraction(0)] * ncols for _ in range(len(rows) - len(ech))]
    return out, list(ech)


def rank(rows):
    return len(_pivot_rows(rows))


def nullspace(rows, ncols=None):
    """Basis of {x : A x = 0} for the matrix with the given rows.  Sparse
    rows need ncols; dense rows default to their length."""
    if ncols is None:
        if not rows:
            return []
        ncols = len(rows[0])
    ech = echelon(rows)
    basis = []
    for f in (c for c in range(ncols) if c not in ech):
        basis.append({f: Fraction(1), **{p: -r[f] for p, r in ech.items() if f in r}})
    return dense(basis, ncols)


def in_row_span(rows, v):
    """True iff v is a rational combination of the given rows."""
    return not _insert(_pivot_rows(rows), v)


def subspace_intersection(rows_a, rows_b):
    """Reduced echelon basis of (row span of A) ∩ (row span of B), dense.

    Zassenhaus: in the echelon form of the rows (a | a) and (b | 0), the
    rows that vanish on the first half carry a basis of the intersection
    on the second."""
    if not rows_a or not rows_b:
        return []
    n = len(rows_a[0])
    stacked = [
        {**r, **{n + c: x for c, x in r.items()}} for r in map(_sparse, rows_a)
    ] + list(map(_sparse, rows_b))
    ech = echelon(stacked)
    return dense(({c - n: x for c, x in ech[p].items()} for p in ech if p >= n), n)

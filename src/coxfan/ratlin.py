"""Exact linear algebra over the rationals, on sparse rows.

A row is stored as a dict {column: int or Fraction} of its nonzero
entries: the Čech equalizer of `sheaf`, its one caller, has thousands of
rows with a handful of entries each, mostly ±1.  Rows may be given as
lists too; every row returned is a dict.  One echelon core serves
``echelon``, for the overlap windows' rows, and ``rank``, for the
equalizer's.  It inserts the rows one at a time,
cancelling each row's leading entry against the pivot rows found so far
until the row vanishes or opens a new pivot.  A pivot of ±1 keeps a
row's ints, so rational arithmetic starts only at the first other pivot.
``echelon`` back-substitutes once at the end, to the reduced row echelon
form, which is unique, with Fraction entries.  Subspace intersections
are not taken here: the ones the package needs are degree slices of
submodule intersections, which ``gradmod`` takes once as modules.
"""

from __future__ import annotations

from fractions import Fraction


def _sparse(row):
    items = row.items() if isinstance(row, dict) else enumerate(row)
    return {c: x if type(x) in (int, Fraction) else Fraction(x) for c, x in items if x}


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
            if x == -1:
                r = {k: -y for k, y in r.items()}
            elif x != 1:
                r = {k: Fraction(y, x) for k, y in r.items()}
            piv[c] = r
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
    return {c: {k: Fraction(x) for k, x in piv[c].items()} for c in order}


def rank(rows):
    return len(_pivot_rows(rows))

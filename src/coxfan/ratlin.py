"""Exact linear algebra over the rationals, on sparse rows: the rank.

A row is a dict {column: int or Fraction} of its nonzero entries: the
Čech equalizer of `sheaf`, its one caller, has thousands of rows with a
handful of entries each, mostly ±1.  ``rank`` inserts the rows one at a
time, cancelling each row's leading entry against the pivot rows found
so far until the row vanishes or opens a new pivot.  A pivot of ±1
keeps a row's ints, so rational arithmetic starts only at the first
other pivot.  Nothing else is eliminated here: a section window's
classes are Groebner normal forms, and the subspace intersections the
package needs are degree slices of submodule intersections, which
``gradmod`` takes once as modules.
"""

from __future__ import annotations

from fractions import Fraction


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
    with 1 there} until it vanishes (False) or opens a new pivot (True).
    The row is copied, as it is reduced in place."""
    r = dict(row)
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


def rank(rows):
    return len(_pivot_rows(rows))

"""Groebner bases over the rationals, for submodules of free modules.

Polynomials are dicts mapping exponent tuples to nonzero Fractions.  Module
elements are tuples of polynomials against a free basis; module orders are
position-over-term.  An ideal is the rank-1 case, elements ``(p,)``.
Elimination uses a block order on a leading tag variable t.  Buchberger
takes its pairs by the normal strategy (least lcm of the leading terms
first) and skips those that the chain criterion settles; it keeps each
basis element's leading term and never queues a pair of two single
terms, whose S-vector is zero.  Reduction works in place on the dicts of
the remainder, with the same reducer (the first basis element whose
leading term divides) and the same exact Fraction arithmetic as a copying
reduction.  Saturation by one element f is a single basis: the t-free
part of N + (1 - t*f)*F (Cox-Little-O'Shea, Ch. 4 §4).  The reduced POT
basis is the one canonical form of a submodule: two submodules are equal
exactly when their reduced bases are.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heappop, heappush
from operator import le, neg

from ._record import Record


# --- polynomial arithmetic ------------------------------------------------

def poly(terms):
    """Normalize a {exponent: coefficient} mapping, dropping zeros."""
    out = {}
    for e, c in terms.items():
        c = Fraction(c)
        if c:
            out[tuple(int(x) for x in e)] = c
    return out


def p_term_mul(p, e, c):
    """Multiply by the term c * X^e."""
    c = Fraction(c)
    if not c:
        return {}
    e = tuple(e)
    return {tuple(a + b for a, b in zip(e, m)): c * x for m, x in p.items()}


# --- monomial orders ------------------------------------------------------

class MonomialOrder(Record):
    """Graded reverse lexicographic order, optionally with a leading
    elimination block of the first `block` variables."""

    __slots__ = ("block",)  # number of leading variables to eliminate first
    _defaults = {"block": 0}

    def key(self, e):
        if self.block:
            return (_grevlex_key(e[: self.block]), _grevlex_key(e[self.block :]))
        return _grevlex_key(e)


def _grevlex_key(e):
    return (sum(e), tuple(map(neg, reversed(e))))


GREVLEX = MonomialOrder(0)


def _divides(e, m):
    return all(map(le, e, m))


# --- monomial ideal combinatorics ----------------------------------------

def minimalize_monomials(exponents):
    """Minimal elements under divisibility, deduplicated, sorted.  A proper
    divisor has a smaller total degree, so only kept elements are tested."""
    out = []
    for e in sorted(set(tuple(e) for e in exponents), key=sum):
        if not any(_divides(f, e) for f in out):
            out.append(e)
    return sorted(out)


def monomial_ideal_saturate(exponents, f_exp):
    """(monomial ideal : monomial^infinity): wipe the divisor's support."""
    supp = {i for i, x in enumerate(f_exp) if x}
    return minimalize_monomials(
        tuple(0 if i in supp else x for i, x in enumerate(e)) for e in exponents
    )


def monomial_ideal_intersection(exps_a, exps_b):
    return minimalize_monomials(
        tuple(max(a, b) for a, b in zip(e, f)) for e in exps_a for f in exps_b
    )


# --- free modules ---------------------------------------------------------
#
# A module element over S^r is a tuple of r polynomials.  A module term is
# (position, exponent); position-over-term means lower position wins.

def m_term_mul(x, e, c):
    return tuple(p_term_mul(a, e, c) for a in x)


def m_is_zero(x):
    return all(not a for a in x)


def m_is_monomial(x):
    terms = [(i, e) for i, p in enumerate(x) for e in p]
    return len(terms) == 1


class ModuleOrder(Record):
    __slots__ = ("ring_order",)  # a MonomialOrder
    _defaults = {"ring_order": GREVLEX}

    def key(self, term):
        pos, e = term
        if self.ring_order.block:
            blk = e[: self.ring_order.block]
            rest = e[self.ring_order.block :]
            return (_grevlex_key(blk), -pos, _grevlex_key(rest))
        return (-pos, self.ring_order.key(e))


POT = ModuleOrder()


def m_leading_term(x, order):
    """((pos, exp), coeff) of the largest term, or None for zero.  Under a
    non-block order a lower position always wins, so the first nonzero
    position holds the leading term."""
    best = None
    for i, p in enumerate(x):
        for e, c in p.items():
            k = order.key((i, e))
            if best is None or k > bkey:
                best, bkey = ((i, e), c), k
        if best is not None and not order.ring_order.block:
            break
    return best


def _sub_term_mul(w, b, q_e, q):
    """w -= q * X^q_e * b, position by position, in place."""
    for wp, bp in zip(w, b):
        for m, y in bp.items():
            k = tuple(a + d for a, d in zip(q_e, m))
            v = wp.get(k, 0) - q * y
            if v:
                wp[k] = v
            else:
                del wp[k]


def m_normal_form(x, basis, order, lts=None):
    """Remainder of x on division by basis.  `lts`, when given, holds the
    leading term of each basis element.  The reducer of a term is the
    first basis element whose leading term divides it."""
    work = [dict(p) for p in x]
    rem = tuple({} for _ in x)
    if lts is None:
        lts = [m_leading_term(b, order) for b in basis]
    while (lt := m_leading_term(work, order)) is not None:
        (pos, e), c = lt
        for b, ((bpos, be), bc) in zip(basis, lts):
            if bpos == pos and _divides(be, e):
                _sub_term_mul(work, b, tuple(a - d for a, d in zip(e, be)), c / bc)
                break
        else:
            rem[pos][e] = c
            del work[pos][e]
    return rem


def _s_vector(f, g, lt_f, lt_g):
    """S-vector of two elements whose leading terms, lt_f and lt_g, share a
    position."""
    (_, ef), cf = lt_f
    (_, eg), cg = lt_g
    lcm = tuple(max(a, b) for a, b in zip(ef, eg))
    s = list(m_term_mul(f, tuple(a - b for a, b in zip(lcm, ef)), Fraction(1) / cf))
    _sub_term_mul(s, g, tuple(a - b for a, b in zip(lcm, eg)), Fraction(1) / cg)
    return tuple(s)


def module_groebner_basis(gens, order=POT):
    """Buchberger with the normal selection strategy and the chain
    criterion.  Pending pairs sit in a heap keyed by the order key of
    (position, lcm of the two leading terms), ties broken by (i, j).  A
    popped pair (i, j) is skipped when some k has a leading term in the
    same position that divides the lcm and neither (i, k) nor (j, k) is
    still pending: Buchberger's second criterion, which holds for modules
    (Cox-Little-O'Shea, Ch. 2 §10; Gebauer-Moller 1988).  The coprime
    criterion is not used: it does not hold for modules of rank > 1.  A
    pair of two single-term elements is never queued, as its S-vector is
    zero.  Leading terms are computed once, when an element joins the
    basis."""
    basis = [g for g in gens if not m_is_zero(g)]
    lts = [m_leading_term(g, order) for g in basis]
    single = [m_is_monomial(g) for g in basis]
    heap, pending = [], set()

    def queue_pairs(j):
        (pos, ej), _ = lts[j]
        for i in range(j):
            (q, ei), _ = lts[i]
            if q == pos and not (single[i] and single[j]):
                lcm = tuple(map(max, ei, ej))
                heappush(heap, (order.key((pos, lcm)), i, j, lcm))
                pending.add((i, j))

    def chain(i, j, pos, lcm):
        return any(
            q == pos
            and k != i
            and k != j
            and _divides(e, lcm)
            and (min(i, k), max(i, k)) not in pending
            and (min(j, k), max(j, k)) not in pending
            for k, ((q, e), _) in enumerate(lts)
        )

    for j in range(len(basis)):
        queue_pairs(j)
    while heap:
        _, i, j, lcm = heappop(heap)
        pending.discard((i, j))
        if chain(i, j, lts[i][0][0], lcm):
            continue
        s = _s_vector(basis[i], basis[j], lts[i], lts[j])
        r = m_normal_form(s, basis, order, lts)
        if not m_is_zero(r):
            basis.append(r)
            lts.append(m_leading_term(r, order))
            single.append(m_is_monomial(r))
            queue_pairs(len(basis) - 1)
    return basis


def module_contains(gb, x):
    if m_is_zero(x):
        return True
    if not gb:
        return False
    return m_is_zero(m_normal_form(x, gb, POT))


def reduced_basis(gb):
    """The reduced POT Groebner basis of the submodule that the POT
    Groebner basis gb generates, as a tuple.  It keeps the elements whose
    leading term no other's divides (the first of equal ones), reduces
    each by the rest, makes it monic, and sorts by leading term
    (position, exponent).  It depends on the submodule only
    (Cox-Little-O'Shea, Ch. 2 §7, Prop. 6)."""
    gb = [x for x in gb if not m_is_zero(x)]
    lts = [m_leading_term(x, POT) for x in gb]
    keep = [
        i
        for i, ((pos, e), _) in enumerate(lts)
        if not any(
            q == pos and _divides(d, e) and (d != e or j < i)
            for j, ((q, d), _) in enumerate(lts)
        )
    ]
    out = []
    for i in keep:
        rest = [k for k in keep if k != i]
        r = m_normal_form(gb[i], [gb[k] for k in rest], POT, [lts[k] for k in rest])
        c = lts[i][1]
        out.append((lts[i][0], tuple({e: x / c for e, x in p.items()} for p in r)))
    return tuple(x for _, x in sorted(out, key=lambda tx: tx[0]))


def submodule_equal(gens_a, gens_b):
    """Equality of two submodules: their reduced bases are the same."""
    return reduced_basis(module_groebner_basis(gens_a)) == reduced_basis(
        module_groebner_basis(gens_b)
    )


def _m_embed(x):
    """Prepend a zero exponent for the new leading (tag) variable."""
    return tuple({(0,) + e: c for e, c in p.items()} for p in x)


ELIM = ModuleOrder(MonomialOrder(block=1))  # eliminates a leading tag t


def _t_free(gb):
    """The elements of an ELIM basis free of the tag, with it dropped."""
    return [
        tuple({e[1:]: c for e, c in p.items()} for p in g)
        for g in gb
        if not any(e[0] for p in g for e in p)
    ]


def module_intersection(gens_a, gens_b, nvars):
    """Intersection of two submodules of a free module, by tag elimination:
    the elements of t*A + (1-t)*B free of t."""
    a = [g for g in gens_a if not m_is_zero(g)]
    b = [g for g in gens_b if not m_is_zero(g)]
    if not a or not b:
        return []
    t = (1,) + (0,) * nvars
    ext = [m_term_mul(_m_embed(g), t, 1) for g in a]
    for g in b:
        emb = _m_embed(g)
        ext.append(m_term_mul(emb, (0,) * (nvars + 1), 1))
        _sub_term_mul(ext[-1], emb, t, Fraction(1))
    return _t_free(module_groebner_basis(ext, ELIM))


def module_saturate_element(gens, f, rank, nvars):
    """(N : f^infinity) in one Groebner basis (Rabinowitsch): the t-free
    part of N + (1 - t*f)*F, where F is the ambient free module."""
    one_tf = {(0,) * (nvars + 1): Fraction(1), **{(1,) + e: -c for e, c in f.items()}}
    ext = [_m_embed(g) for g in gens if not m_is_zero(g)]
    ext += [tuple(one_tf if j == i else {} for j in range(rank)) for i in range(rank)]
    return _t_free(module_groebner_basis(ext, ELIM))

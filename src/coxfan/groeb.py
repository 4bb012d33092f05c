"""Groebner bases over the rationals, for submodules of free modules.

Polynomials are dicts mapping exponent tuples to nonzero coefficients.  Module
elements are tuples of polynomials against a free basis; a module order is
its key on module terms, position-over-term (POT) unless one is passed.
An ideal is the rank-1 case, elements ``(p,)``.  Buchberger
takes its pairs by the normal strategy (least lcm of the leading terms
first) and skips those that the chain criterion settles; it keeps each
basis element's leading term and never queues a pair of two single
terms, whose S-vector is zero.  It runs over the integers: each generator
is scaled once to a primitive element (coprime int coefficients), an
S-vector cancels the two leading coefficients by their cofactors over
their gcd, a reduction step w <- a*w - q*X^m*b is division-free, and each
new basis element has its content divided out; a basis element is a
rational multiple of the one the same steps over the rationals give.
A single element is its own basis.  Each term's order key is computed
once per run; a POT key is grevlex on the exponent, so every POT run
shares one table, cleared when it would pass a fixed size.  One
reduction routine, working in place with the same reducer (the first
basis element whose leading term divides), serves the basis, membership,
the exact remainder of `m_normal_form` (the scaled remainder over the
product of the step factors) and the reduced basis; on Fraction operands
its step is w - (c/b_c)*X^m*b.  Fractions remain in the inputs, in that remainder and
in the reduced POT basis, the one canonical form of a submodule: monic,
so two submodules are equal exactly when their reduced bases are.
An intersection is one POT basis in F ⊕ F (``gradmod`` meets nested
chart modules by membership tests first).  Saturation of a homogeneous
submodule by one variable x_j is one basis under a weighted revlex order
with x_j last, each element then divided by its largest power of x_j
(Bayer's method).  Saturation by any element f is one basis under ELIM,
the one order with a tag variable t: the t-free part of N + (1 - t*f)*F
(Rabinowitsch; Cox-Little-O'Shea, Ch. 4 §4).
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heappop, heappush
from math import gcd, lcm
from operator import add, le, mul, neg, sub

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
    if not c:
        return {}
    return {tuple(map(add, e, m)): c * x for m, x in p.items()}


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


def _monomial_rows(rank, ideals):
    """Monic monomial elements from one monomial ideal per position, sorted
    by position, then by exponent, as a reduced basis is."""
    one = Fraction(1)
    return tuple(
        tuple({e: one} if j == i else {} for j in range(rank))
        for i, m in enumerate(ideals)
        for e in m
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
    return sum(map(len, x)) == 1


class ModuleOrder(Record):
    """A module order, given by its key on module terms (position,
    exponent): the term with the larger key is the larger."""

    __slots__ = ("key",)


def _grevlex_key(e):
    return (sum(e), tuple(map(neg, reversed(e))))


def _pot_key(term):
    pos, e = term
    return (-pos, _grevlex_key(e))


POT = ModuleOrder(_pot_key)  # position over term, grevlex on the ring


_KEYS_MAX = 1 << 16  # entries a key table holds before it is cleared


class _Keys(dict):
    """Exponent -> its order key, each computed by `key` once until the
    table, cleared when it would pass ``_KEYS_MAX`` entries, forgets it."""

    __slots__ = ("key",)

    def __init__(self, key):
        self.key = key

    def __missing__(self, e):
        if len(self) >= _KEYS_MAX:
            self.clear()
        k = self[e] = self.key(e)
        return k


_POT_KEYS = _Keys(_grevlex_key)  # one table per process: a grevlex key is its exponent's


def _leader(order, rank):
    """m_leading_term under `order` for elements of rank `rank`, with each
    term's key computed once over the life of the returned function.
    Under POT a lower position always wins, so the leading term is the
    first nonzero position's largest, and every POT leader shares the one
    table ``_POT_KEYS``, as the grevlex key depends on the exponent only."""
    if order is POT:
        ring = _POT_KEYS.__getitem__

        def lead(x):
            for i, p in enumerate(x):
                if p:
                    e = max(p, key=ring)
                    return (i, e), p[e]
            return None

        return lead
    keys = [_Keys(lambda e, i=i: order.key((i, e))).__getitem__ for i in range(rank)]

    def lead(x):
        best = None
        for i, (p, key) in enumerate(zip(x, keys)):
            if p:
                e = max(p, key=key)
                if best is None or key(e) > top:
                    best, top = ((i, e), p[e]), key(e)
        return best

    return lead


def m_leading_term(x, order):
    """((pos, exp), coeff) of the largest term, or None for zero."""
    return _leader(order, len(x))(x)


def _cofactors(c, bc):
    """(a, q) with a > 0 and a*c == q*bc: the step w <- a*w - q*X^m*b
    cancels w's leading coefficient c against b's, bc.  Two ints stay ints,
    a = bc/g and q = c/g with g = gcd(c, bc) signed as bc; otherwise a = 1
    and q = c/bc."""
    if type(c) is int and type(bc) is int:
        g = gcd(c, bc) if bc > 0 else -gcd(c, bc)
        return bc // g, c // g
    return 1, c / bc


def _scale(x, a):
    """x times the int a, in place."""
    for p in x:
        for e in p:
            p[e] *= a


def _primitive(x):
    """A fresh copy of x times a rational that makes its coefficients
    coprime ints; a single term gets coefficient 1."""
    cs = [c for p in x for c in p.values()]
    if len(cs) == 1:
        return tuple({e: 1 for e in p} for p in x)
    d = lcm(*[c.denominator for c in cs])
    x = tuple({e: c.numerator * (d // c.denominator) for e, c in p.items()} for p in x)
    return _content_free(x)


def _content_free(x):
    """x, nonzero with int coefficients, divided in place by their gcd."""
    g = gcd(*(c for p in x for c in p.values()))
    if g != 1:
        for p in x:
            for e in p:
                p[e] //= g
    return x


def _sub_term_mul(w, b, q_e, q):
    """w -= q * X^q_e * b, position by position, in place."""
    for wp, bp in zip(w, b):
        for m, y in bp.items():
            k = tuple(map(add, q_e, m))
            v = wp.get(k, 0) - q * y
            if v:
                wp[k] = v
            else:
                del wp[k]


def _reduce(w, basis, lts, lead):
    """(r, a): r is the remainder of a*w on division by basis, where a > 0
    is the product of the step factors, 1 while each reducer's leading
    coefficient divides the one it cancels; w's dicts are consumed.  `lts` holds the
    leading term of each basis element and `lead` finds w's.  The reducer
    of a term is the first basis element whose leading term divides it;
    the remainder is scaled along with w."""
    rem = tuple({} for _ in w)
    a = 1
    while (lt := lead(w)) is not None:
        (pos, e), c = lt
        for b, ((bpos, be), bc) in zip(basis, lts):
            if bpos == pos and _divides(be, e):
                s, q = _cofactors(c, bc)
                if s != 1:
                    a *= s
                    _scale(w, s)
                    _scale(rem, s)
                _sub_term_mul(w, b, tuple(map(sub, e, be)), q)
                break
        else:
            rem[pos][e] = c
            del w[pos][e]
    return rem, a


def m_normal_form(x, basis, order):
    """Remainder of x on division by basis, exact.  The reducer of a term
    is the first basis element whose leading term divides it."""
    lead = _leader(order, len(x))
    r, a = _reduce(tuple(map(dict, x)), basis, [lead(b) for b in basis], lead)
    if a == 1:
        return r
    return tuple({e: Fraction(c, a) for e, c in p.items()} for p in r)


def _s_vector(f, g, lt_f, lt_g):
    """S-vector of two elements whose leading terms, lt_f and lt_g, share a
    position: a*X^(l-e_f)*f - q*X^(l-e_g)*g, l the lcm of the leading
    exponents and (a, q) the cofactors of the leading coefficients."""
    (_, ef), cf = lt_f
    (_, eg), cg = lt_g
    top = tuple(map(max, ef, eg))
    a, q = _cofactors(cf, cg)
    s = m_term_mul(f, tuple(map(sub, top, ef)), a)
    _sub_term_mul(s, g, tuple(map(sub, top, eg)), q)
    return s


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
    basis.  The elements are primitive: the generators scaled, then each
    remainder with its content divided out.  Fewer than two primitive
    generators are their own basis: a single element has no S-pair."""
    basis = [_primitive(g) for g in gens if not m_is_zero(g)]
    if len(basis) < 2:
        return basis
    lead = _leader(order, len(basis[0]))
    lts = [lead(g) for g in basis]
    single = [m_is_monomial(g) for g in basis]
    heap, pending = [], set()

    def queue_pairs(j):
        (pos, ej), _ = lts[j]
        for i in range(j):
            (q, ei), _ = lts[i]
            if q == pos and not (single[i] and single[j]):
                top = tuple(map(max, ei, ej))
                heappush(heap, (order.key((pos, top)), i, j, top))
                pending.add((i, j))

    def chain(i, j, pos, top):
        return any(
            q == pos
            and k != i
            and k != j
            and _divides(e, top)
            and (min(i, k), max(i, k)) not in pending
            and (min(j, k), max(j, k)) not in pending
            for k, ((q, e), _) in enumerate(lts)
        )

    for j in range(len(basis)):
        queue_pairs(j)
    while heap:
        _, i, j, top = heappop(heap)
        pending.discard((i, j))
        if chain(i, j, lts[i][0][0], top):
            continue
        r, _ = _reduce(_s_vector(basis[i], basis[j], lts[i], lts[j]), basis, lts, lead)
        if not m_is_zero(r):
            basis.append(_content_free(r))
            lts.append(lead(r))
            single.append(m_is_monomial(r))
            queue_pairs(len(basis) - 1)
    return basis


_LAST_LEADS = [None, None, None]  # the last basis, its leading terms, its leader


def module_contains(gb, x):
    """Whether x lies in the submodule of the POT Groebner basis gb.  The
    leading terms of the last basis are kept for the same object (``is``,
    not equal content): no caller changes a basis it has tested against."""
    if not gb or m_is_zero(x):
        return m_is_zero(x)
    if _LAST_LEADS[0] is not gb:
        lead = _leader(POT, len(x))
        _LAST_LEADS[:] = gb, [lead(b) for b in gb], lead
    return m_is_zero(_reduce(tuple(map(dict, x)), *_LAST_LEADS)[0])


def reduced_basis(gb):
    """The reduced POT Groebner basis of the submodule that the POT
    Groebner basis gb generates, as a tuple.  It keeps the elements whose
    leading term no other's divides (the first of equal ones), reduces
    each by the rest, makes it monic, and sorts by leading term
    (position, exponent).  It depends on the submodule only
    (Cox-Little-O'Shea, Ch. 2 §7, Prop. 6).  Of single terms it is the
    minimal exponents of each position, monic: a term reduces only to
    zero, and a term no other divides is its own remainder."""
    gb = [x for x in gb if not m_is_zero(x)]
    rank = len(gb[0]) if gb else 0
    if all(map(m_is_monomial, gb)):
        return _monomial_rows(rank, [minimalize_monomials(e for x in gb for e in x[i])
                                     for i in range(rank)])
    lead = _leader(POT, rank)
    lts = [lead(x) for x in gb]
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
        r, _ = _reduce(tuple(map(dict, gb[i])), [gb[k] for k in rest], [lts[k] for k in rest], lead)
        (pos, e), _ = lts[i]
        c = r[pos][e]
        out.append((lts[i][0], tuple({e: Fraction(x, c) for e, x in p.items()} for p in r)))
    return tuple(x for _, x in sorted(out, key=lambda tx: tx[0]))


def submodule_equal(gens_a, gens_b):
    """Equality of two submodules: their reduced bases are the same."""
    return reduced_basis(module_groebner_basis(gens_a)) == reduced_basis(
        module_groebner_basis(gens_b)
    )


def module_intersection(gens_a, gens_b):
    """Intersection A ∩ B of two submodules of a free module F, in one POT
    basis of F ⊕ F (Greuel-Pfister, Ch. 2): (u | v) lies in <(a | a),
    (b | 0)> with u = 0 exactly when v lies in A ∩ B.  POT ranks the
    first block's positions first, so the basis elements whose first
    block is 0, with it dropped, are a POT basis of A ∩ B."""
    a = [g for g in gens_a if not m_is_zero(g)]
    b = [g for g in gens_b if not m_is_zero(g)]
    if not a or not b:
        return []
    r = len(a[0])
    gb = module_groebner_basis([g + g for g in a] + [g + ({},) * r for g in b])
    return [g[r:] for g in gb if m_is_zero(g[:r])]


def module_saturate_variable(gens, j, weights, shifts):
    """(N : x_j^infinity) for the submodule N of the homogeneous gens
    (Bayer's method; see ``gradmod.saturate_at``): one basis under the
    order by weights.e + shifts[pos], then revlex with x_j last, then
    position, each element divided by its largest power of x_j."""

    def key(term):
        pos, e = term
        return (sum(map(mul, weights, e)) + shifts[pos], -e[j], tuple(map(neg, reversed(e))), -pos)

    out = []
    for g in module_groebner_basis(gens, ModuleOrder(key)):
        k = min(e[j] for p in g for e in p)
        out.append(tuple({(*e[:j], e[j] - k, *e[j + 1:]): c for e, c in p.items()} for p in g))
    return out


def _elim_key(term):
    pos, e = term
    return (e[0], -pos, _grevlex_key(e[1:]))


ELIM = ModuleOrder(_elim_key)  # eliminates a leading tag t, then POT


def module_saturate_element(gens, f, rank, nvars):
    """(N : f^infinity) in one Groebner basis (Rabinowitsch): the t-free
    part of N + (1 - t*f)*F, F the ambient free module, with t dropped."""
    one_tf = {(0,) * (nvars + 1): Fraction(1), **{(1,) + e: -c for e, c in f.items()}}
    ext = [tuple({(0,) + e: c for e, c in p.items()} for p in g) for g in gens if not m_is_zero(g)]
    ext += [tuple(one_tf if j == i else {} for j in range(rank)) for i in range(rank)]
    return [
        tuple({e[1:]: c for e, c in p.items()} for p in g)
        for g in module_groebner_basis(ext, ELIM)
        if not any(e[0] for p in g for e in p)
    ]

"""Groebner bases over the rationals, for polynomial rings and free modules.

Polynomials are dicts mapping exponent tuples to nonzero Fractions.  Module
elements are tuples of polynomials against a free basis; module orders are
position-over-term.  Elimination uses a block order on a leading group of
variables.  Buchberger with the coprime-pair shortcut is plenty at the
scales this library targets.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations


class SaturationCapExceeded(RuntimeError):
    pass


ITERATION_CAP = 64


# --- polynomial arithmetic ------------------------------------------------

def poly(terms):
    """Normalize a {exponent: coefficient} mapping, dropping zeros."""
    out = {}
    for e, c in terms.items():
        c = Fraction(c)
        if c:
            out[tuple(int(x) for x in e)] = c
    return out


def p_zero():
    return {}


def p_const(c, nvars):
    c = Fraction(c)
    return {(0,) * nvars: c} if c else {}


def p_add(p, q):
    out = dict(p)
    for e, c in q.items():
        s = out.get(e, Fraction(0)) + c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def p_neg(p):
    return {e: -c for e, c in p.items()}


def p_sub(p, q):
    return p_add(p, p_neg(q))


def p_scale(p, c):
    c = Fraction(c)
    if not c:
        return {}
    return {e: c * x for e, x in p.items()}


def p_term_mul(p, e, c):
    """Multiply by the term c * X^e."""
    c = Fraction(c)
    if not c:
        return {}
    e = tuple(e)
    return {tuple(a + b for a, b in zip(e, m)): c * x for m, x in p.items()}


def p_mul(p, q):
    out = {}
    for e, c in q.items():
        for m, x in p.items():
            key = tuple(a + b for a, b in zip(e, m))
            s = out.get(key, Fraction(0)) + c * x
            if s:
                out[key] = s
            else:
                out.pop(key, None)
    return out


def p_is_monomial(p):
    return len(p) == 1


def p_divexact(p, f, order):
    """Exact quotient p / f; raises if the division leaves a remainder."""
    q, r = _divmod_poly(p, [f], order)
    if r:
        raise ValueError("division is not exact")
    return q[0]


# --- monomial orders ------------------------------------------------------

@dataclass(frozen=True)
class MonomialOrder:
    """Graded reverse lexicographic order, optionally with a leading
    elimination block of the first `block` variables."""

    block: int = 0  # number of leading variables to eliminate first

    def key(self, e):
        if self.block:
            return (_grevlex_key(e[: self.block]), _grevlex_key(e[self.block :]))
        return _grevlex_key(e)


def _grevlex_key(e):
    return (sum(e), tuple(-x for x in reversed(e)))


GREVLEX = MonomialOrder(0)


def leading_term(p, order):
    e = max(p, key=order.key)
    return e, p[e]


def _divides(e, m):
    return all(a <= b for a, b in zip(e, m))


def _divmod_poly(p, divisors, order):
    quots = [{} for _ in divisors]
    rem = {}
    work = dict(p)
    lts = [leading_term(d, order) for d in divisors]
    while work:
        e = max(work, key=order.key)
        c = work[e]
        for i, (le, lc) in enumerate(lts):
            if _divides(le, e):
                q_e = tuple(a - b for a, b in zip(e, le))
                q_c = c / lc
                quots[i] = p_add(quots[i], {q_e: q_c})
                work = p_sub(work, p_term_mul(divisors[i], q_e, q_c))
                break
        else:
            rem[e] = c
            del work[e]
    return quots, rem


def normal_form(p, gb, order):
    """Remainder of p on division by gb; zero iff p lies in the ideal when
    gb is a Groebner basis."""
    if not gb:
        return dict(p)
    return _divmod_poly(p, list(gb), order)[1]


def s_polynomial(f, g, order):
    ef, cf = leading_term(f, order)
    eg, cg = leading_term(g, order)
    lcm = tuple(max(a, b) for a, b in zip(ef, eg))
    return p_sub(
        p_term_mul(f, tuple(a - b for a, b in zip(lcm, ef)), Fraction(1) / cf),
        p_term_mul(g, tuple(a - b for a, b in zip(lcm, eg)), Fraction(1) / cg),
    )


def groebner_basis(gens, order):
    basis = [dict(g) for g in gens if g]
    pairs = list(combinations(range(len(basis)), 2))
    while pairs:
        i, j = pairs.pop()
        ei, _ = leading_term(basis[i], order)
        ej, _ = leading_term(basis[j], order)
        if all(a == 0 or b == 0 for a, b in zip(ei, ej)):
            continue  # coprime leading monomials
        s = s_polynomial(basis[i], basis[j], order)
        r = normal_form(s, basis, order)
        if r:
            basis.append(r)
            pairs.extend((k, len(basis) - 1) for k in range(len(basis) - 1))
    return basis


def reduced_groebner_basis(gens, order=GREVLEX):
    """The unique reduced Groebner basis with monic leading coefficients."""
    basis = groebner_basis(gens, order)
    # Minimalize: drop elements whose leading monomial is divisible by another's.
    lead = [leading_term(g, order)[0] for g in basis]
    keep = []
    for i, g in enumerate(basis):
        if not any(
            j != i
            and _divides(lead[j], lead[i])
            and (lead[j] != lead[i] or j < i)
            for j in range(len(basis))
        ):
            keep.append(g)
    # Interreduce tails.
    out = []
    for i, g in enumerate(keep):
        others = keep[:i] + keep[i + 1 :]
        r = normal_form(g, others, order) if others else dict(g)
        if r:
            _, lc = leading_term(r, order)
            out.append(p_scale(r, Fraction(1) / lc))
    return sorted(out, key=lambda p: order.key(leading_term(p, order)[0]))


def ideal_contains(gb, p, order=GREVLEX):
    return not normal_form(p, gb, order)


def ideal_equal(gens_a, gens_b, order=GREVLEX):
    ga = reduced_groebner_basis(gens_a, order)
    gb = reduced_groebner_basis(gens_b, order)
    return ga == gb


# --- elimination helpers --------------------------------------------------

def _embed(p, extra=1):
    """Prepend `extra` zero exponents (new leading variables)."""
    return {(0,) * extra + e: c for e, c in p.items()}


def _drop_first_var(p):
    return {e[1:]: c for e, c in p.items()}


def _involves_first_var(p):
    return any(e[0] for e in p)


def eliminate_first_variable(gens):
    """Generators of the ideal's contraction to the subring without the
    first variable."""
    order = MonomialOrder(block=1)
    gb = reduced_groebner_basis(gens, order)
    return [_drop_first_var(g) for g in gb if not _involves_first_var(g)]


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


def _all_monomial(gens):
    return all(p_is_monomial(g) for g in gens if g)


def saturate_by_element(ideal_gens, f):
    """Generators of (ideal : f^infinity)."""
    gens = [dict(g) for g in ideal_gens if g]
    if not gens:
        return []
    if _all_monomial(gens) and p_is_monomial(f):
        f_exp = next(iter(f))
        exps = monomial_ideal_saturate([next(iter(g)) for g in gens], f_exp)
        return [{e: Fraction(1)} for e in exps]
    # Rabinowitsch trick: adjoin t, add 1 - t*f, eliminate t.
    nvars = len(next(iter(gens[0])))
    ext = [_embed(g) for g in gens]
    tf = {(1,) + e: c for e, c in f.items()}
    ext.append(p_sub(p_const(1, nvars + 1), tf))
    return eliminate_first_variable(ext)


def ideal_intersection(gens_a, gens_b):
    """Generators of the intersection of two ideals."""
    a = [dict(g) for g in gens_a if g]
    b = [dict(g) for g in gens_b if g]
    if not a or not b:
        return []
    if _all_monomial(a) and _all_monomial(b):
        exps = monomial_ideal_intersection(
            [next(iter(g)) for g in a], [next(iter(g)) for g in b]
        )
        return [{e: Fraction(1)} for e in exps]
    nvars = len(next(iter(a[0])))
    ext = []
    t = {(1,) + (0,) * nvars: Fraction(1)}
    one_minus_t = p_sub(p_const(1, nvars + 1), t)
    for g in a:
        ext.append(p_mul(t, _embed(g)))
    for g in b:
        ext.append(p_mul(one_minus_t, _embed(g)))
    return eliminate_first_variable(ext)


# --- free modules ---------------------------------------------------------
#
# A module element over S^r is a tuple of r polynomials.  A module term is
# (position, exponent); position-over-term means lower position wins.

def m_zero(rank, nvars):
    return tuple({} for _ in range(rank))


def m_add(x, y):
    return tuple(p_add(a, b) for a, b in zip(x, y))


def m_sub(x, y):
    return tuple(p_sub(a, b) for a, b in zip(x, y))


def m_scale(x, c):
    return tuple(p_scale(a, c) for a in x)


def m_term_mul(x, e, c):
    return tuple(p_term_mul(a, e, c) for a in x)


def m_is_zero(x):
    return all(not a for a in x)


def m_is_monomial(x):
    terms = [(i, e) for i, p in enumerate(x) for e in p]
    return len(terms) == 1


@dataclass(frozen=True)
class ModuleOrder:
    ring_order: MonomialOrder = GREVLEX

    def key(self, term):
        pos, e = term
        if self.ring_order.block:
            blk = e[: self.ring_order.block]
            rest = e[self.ring_order.block :]
            return (_grevlex_key(blk), -pos, _grevlex_key(rest))
        return (-pos, self.ring_order.key(e))


POT = ModuleOrder()


def m_leading_term(x, order):
    best = None
    for i, p in enumerate(x):
        for e, c in p.items():
            t = (i, e)
            if best is None or order.key(t) > order.key(best[0]):
                best = (t, c)
    return best  # ((pos, exp), coeff) or None


def m_normal_form(x, basis, order):
    work = tuple(dict(p) for p in x)
    rem = tuple({} for _ in x)
    lts = [m_leading_term(b, order) for b in basis]
    while not m_is_zero(work):
        (pos, e), c = m_leading_term(work, order)
        hit = False
        for b, lt in zip(basis, lts):
            (bpos, be), bc = lt
            if bpos == pos and _divides(be, e):
                q_e = tuple(a - b2 for a, b2 in zip(e, be))
                work = m_sub(work, m_term_mul(b, q_e, c / bc))
                hit = True
                break
        if not hit:
            rem = list(rem)
            rem[pos] = p_add(rem[pos], {e: c})
            rem = tuple(rem)
            w = list(work)
            w[pos] = {k: v for k, v in w[pos].items() if k != e}
            work = tuple(w)
    return rem


def module_groebner_basis(gens, order=POT):
    basis = [g for g in gens if not m_is_zero(g)]
    pairs = [
        (i, j)
        for i, j in combinations(range(len(basis)), 2)
        if m_leading_term(basis[i], order)[0][0]
        == m_leading_term(basis[j], order)[0][0]
    ]
    while pairs:
        i, j = pairs.pop()
        (pos, ei), ci = m_leading_term(basis[i], order)
        (_, ej), cj = m_leading_term(basis[j], order)
        lcm = tuple(max(a, b) for a, b in zip(ei, ej))
        s = m_sub(
            m_term_mul(
                basis[i], tuple(a - b for a, b in zip(lcm, ei)), Fraction(1) / ci
            ),
            m_term_mul(
                basis[j], tuple(a - b for a, b in zip(lcm, ej)), Fraction(1) / cj
            ),
        )
        r = m_normal_form(s, basis, order)
        if not m_is_zero(r):
            basis.append(r)
            rpos = m_leading_term(r, order)[0][0]
            for k in range(len(basis) - 1):
                if m_leading_term(basis[k], order)[0][0] == rpos:
                    pairs.append((k, len(basis) - 1))
    return basis


def module_contains(gb, x, order=POT):
    if m_is_zero(x):
        return True
    if not gb:
        return False
    return m_is_zero(m_normal_form(x, gb, order))


def submodule_equal(gens_a, gens_b, rank, nvars, order=POT):
    ga = module_groebner_basis([g for g in gens_a if not m_is_zero(g)], order)
    gb = module_groebner_basis([g for g in gens_b if not m_is_zero(g)], order)
    return all(module_contains(gb, x, order) for x in gens_a) and all(
        module_contains(ga, y, order) for y in gens_b
    )


def _m_embed(x, extra=1):
    return tuple(_embed(p, extra) for p in x)


def _m_drop_first_var(x):
    return tuple(_drop_first_var(p) for p in x)


def _m_involves_first_var(x):
    return any(_involves_first_var(p) for p in x)


def module_intersection(gens_a, gens_b, rank, nvars):
    """Intersection of two submodules of a free module, by tag elimination."""
    a = [g for g in gens_a if not m_is_zero(g)]
    b = [g for g in gens_b if not m_is_zero(g)]
    if not a or not b:
        return []
    t = (1,) + (0,) * nvars
    ext = []
    for g in a:
        ext.append(m_term_mul(_m_embed(g), t, 1))
    one_minus_t = [((0,) * (nvars + 1), Fraction(1)), (t, Fraction(-1))]
    for g in b:
        emb = _m_embed(g)
        val = m_add(
            m_term_mul(emb, one_minus_t[0][0], one_minus_t[0][1]),
            m_term_mul(emb, one_minus_t[1][0], one_minus_t[1][1]),
        )
        ext.append(val)
    order = ModuleOrder(MonomialOrder(block=1))
    gb = module_groebner_basis(ext, order)
    return [_m_drop_first_var(g) for g in gb if not _m_involves_first_var(g)]


def module_colon_element(gens, f, rank, nvars):
    """(N : f) = {x : f*x in N}, for a submodule N of the free module."""
    # f * F is generated by f * e_i.
    fF = []
    for i in range(rank):
        row = [dict() for _ in range(rank)]
        row[i] = dict(f)
        fF.append(tuple(row))
    inter = module_intersection(gens, fF, rank, nvars)
    out = []
    for x in inter:
        out.append(tuple(p_divexact(p, f, GREVLEX) if p else {} for p in x))
    return out


def module_saturate_element(gens, f, rank, nvars):
    """(N : f^infinity) by iterating the colon until it stabilizes."""
    current = [g for g in gens if not m_is_zero(g)]
    for _ in range(ITERATION_CAP):
        nxt = module_colon_element(current, f, rank, nvars)
        if submodule_equal(current, nxt, rank, nvars):
            return current
        current = nxt
    raise SaturationCapExceeded(
        f"module saturation did not stabilize within {ITERATION_CAP} steps"
    )


def module_colon_ideal(gens, ideal_gens, rank, nvars):
    """(N : I) = intersection of (N : f) over the ideal generators."""
    result = None
    for f in ideal_gens:
        part = module_colon_element(gens, f, rank, nvars)
        result = part if result is None else module_intersection(
            result, part, rank, nvars
        )
    return result if result is not None else []


def module_saturate_ideal_iterated(gens, ideal_gens, rank, nvars):
    """Union of (N : I^m) by iterated colon, with a hard cap."""
    current = [g for g in gens if not m_is_zero(g)]
    for _ in range(ITERATION_CAP):
        nxt = module_colon_ideal(current, ideal_gens, rank, nvars)
        if submodule_equal(current, nxt, rank, nvars):
            return current
        current = nxt
    raise SaturationCapExceeded(
        f"iterated colon did not stabilize within {ITERATION_CAP} steps"
    )

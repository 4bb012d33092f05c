"""Answer checks that share no code path with coxfan.

* ``lattice_point_count``: dim H^0(O(D)) on a complete toric variety is
  the number of lattice points of P_D = {m : <m, u_rho> >= -a_rho}
  (Cox-Little-Schenck, Toric Varieties, section 4.3).
* ``monomial_saturation``: the saturation of a monomial ideal by the
  irrelevant ideal, found monomial by monomial from its definition.
* ``SchemaChecker``: CLI stdout against the shipped JSON Schemas.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path


def solve(rows, rhs):
    """The unique rational solution of a square system, or None."""
    n = len(rows)
    m = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    for c in range(n):
        piv = next((i for i in range(c, n) if m[i][c] != 0), None)
        if piv is None:
            return None
        m[c], m[piv] = m[piv], m[c]
        for i in range(n):
            if i != c and m[i][c] != 0:
                f = m[i][c] / m[c][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return [m[i][n] / m[i][i] for i in range(n)]


def lattice_point_count(rays, a):
    """Number of m in Z^n with <m, u_rho> >= -a_rho for every ray.

    P_D is bounded for a complete fan, so its bounding box is spanned by
    its vertices, each cut out by n of the facet hyperplanes.
    """
    n = len(rays[0])

    def feasible(m):
        return all(sum(x * u for x, u in zip(m, r)) >= -b for r, b in zip(rays, a))

    vertices = []
    for idx in combinations(range(len(rays)), n):
        v = solve([rays[i] for i in idx], [-a[i] for i in idx])
        if v is not None and feasible(v):
            vertices.append(v)
    if not vertices:
        return 0
    box = [
        range(math.ceil(min(v[j] for v in vertices)), math.floor(max(v[j] for v in vertices)) + 1)
        for j in range(n)
    ]
    return sum(1 for m in product(*box) if feasible(m))


def principal_divisor(rays, m):
    """Coefficients of div(chi^m) = sum <m, u_rho> D_rho."""
    return [sum(x * u for x, u in zip(m, r)) for r in rays]


def _divides(g, e):
    return all(a <= b for a, b in zip(g, e))


def monomial_saturation(ideal, zhats):
    """Minimal generators of (I : B^inf), for the monomial ideal I and
    the irrelevant ideal B generated by ``zhats``, by brute force.

    A monomial m lies in (I : B^inf) iff every m * zhat^K lies in I, with
    K the largest exponent in I's generators.  That test depends only on
    min(m_i, K), so every minimal generator lies in the box [0, K]^n.
    """
    k = max(max(g) for g in ideal)

    def member(e):
        return all(
            any(_divides(g, [x + k * z for x, z in zip(e, zh)]) for g in ideal)
            for zh in zhats
        )

    members = [e for e in product(range(k + 1), repeat=len(zhats[0])) if member(e)]
    return minimal_monomials(members)


def minimal_monomials(monomials):
    monomials = sorted(set(tuple(e) for e in monomials))
    return [e for e in monomials if not any(f != e and _divides(f, e) for f in monomials)]


class SchemaChecker:
    """Validates CLI JSON output against ``src/coxfan/schemas``."""

    def __init__(self, schema_dir: Path):
        import jsonschema
        from referencing import Registry, Resource

        self._schemas = {}
        registry = Registry()
        for path in sorted(schema_dir.glob("*.schema.json")):
            schema = json.loads(path.read_text())
            registry = Resource.from_contents(schema) @ registry
            self._schemas[path.name[: -len(".schema.json")]] = schema
        self._validators = {
            name: jsonschema.Draft202012Validator(schema, registry=registry)
            for name, schema in self._schemas.items()
        }

    def valid(self, payload, schema_name):
        return self._validators[schema_name].is_valid(payload)

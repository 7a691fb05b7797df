"""Enumerative reference algorithms for diagonal symmetry groups (test-only).

Every group is a set of integer vectors mod d = |det E| (phases times d),
built by closing generators under addition, element by element.  These are
the algorithms the package used before it stored groups as lattices; they
cost time and memory proportional to the group orders and serve here as an
oracle for the integer group core:

* :func:`gfin_group`, :func:`g0_group`: closures of the standard generators;
* :func:`dual_group`: the Krawitz dual by walking every element of
  G^fin(f^T) and keeping those that pair integrally with G's generators;
* :func:`subgroups_containing_g0`: the subgroup lattice of G^fin/G_0 walked
  on explicit coset representatives, in the order (size, sorted reps);
* :func:`format_group`: the greedy generating set over all elements sorted
  by (-order, vector), rendered in ``1/r(a,b,c)`` notation.

Only ``ip_core`` is used: nothing here calls the group core it checks.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from lgmirror.ip_core import canonical_weights, det, scaled_inverse, transpose


class OracleGroup:
    """A group given by generators and its full, sorted element list."""

    def __init__(self, d: int, n: int, generators: list[tuple[int, ...]]):
        self.d, self.n = d, n
        self.generators = list(generators)
        self.elements = closure_ints(self.generators, d, n)
        self.order = len(self.elements)


def closure_ints(gens: list[tuple[int, ...]], d: int, n: int) -> list[tuple[int, ...]]:
    """All sums of the generators mod d, sorted."""
    zero = (0,) * n
    elements = {zero}
    frontier = [zero]
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                y = tuple((a + b) % d for a, b in zip(x, g))
                if y not in elements:
                    elements.add(y)
                    new.append(y)
        frontier = new
    return sorted(elements)


def scaled(phases, d: int) -> tuple[int, ...]:
    out = []
    for p in phases:
        p = Fraction(p) % 1
        assert d % p.denominator == 0, (p, d)
        out.append(p.numerator * (d // p.denominator))
    return tuple(out)


def gfin_group(f) -> OracleGroup:
    """Closure of the columns of E^{-1}."""
    d = abs(det(f))
    return OracleGroup(d, f.n, [tuple(a % d for a in col) for col in zip(*scaled_inverse(f))])


def g0_row(f) -> tuple[int, ...]:
    d = abs(det(f))
    return scaled(canonical_weights(f).q, d)


def g0_group(f) -> OracleGroup:
    return OracleGroup(abs(det(f)), f.n, [g0_row(f)])


def dual_group(f, G: OracleGroup) -> OracleGroup:
    """Walk G^fin(f^T); keep u with sum_i u_i (E v)_i = 0 mod d^2 for every
    generator v of G (phases u/d, v/d)."""
    d = G.d
    svecs = []
    for v in G.generators:
        s = [sum(e * x for e, x in zip(row, v)) for row in f.E]
        assert all(x % d == 0 for x in s), "generator is not a symmetry"
        svecs.append([x // d for x in s])
    kept = [u for u in gfin_group(transpose(f)).elements
            if all(sum(a * s for a, s in zip(u, sv)) % d == 0 for sv in svecs)]
    return OracleGroup(d, f.n, kept)


def subgroups_containing_g0(f) -> list[OracleGroup]:
    """All G_0 <= G <= G^fin, sorted by (|G/G_0|, sorted coset minima)."""
    d, n = abs(det(f)), f.n
    g0set = closure_ints([g0_row(f)], d, n)
    rep_cache: dict[tuple[int, ...], tuple[int, ...]] = {}

    def rep(x):
        if x not in rep_cache:
            coset = [tuple((a + b) % d for a, b in zip(x, s)) for s in g0set]
            r = min(coset)
            for y in coset:
                rep_cache[y] = r
        return rep_cache[x]

    reps = sorted({rep(u) for u in gfin_group(f).elements})
    zero = rep((0,) * n)

    def q_closure(gens):
        elements = {zero}
        frontier = [zero]
        while frontier:
            new = []
            for x in frontier:
                for g in gens:
                    y = rep(tuple((a + b) % d for a, b in zip(x, g)))
                    if y not in elements:
                        elements.add(y)
                        new.append(y)
            frontier = new
        return frozenset(elements)

    base = frozenset({zero})
    found: dict[frozenset, list] = {base: []}
    frontier = [base]
    while frontier:
        new = []
        for S in frontier:
            for x in reps:
                if x in S:
                    continue
                T = q_closure(found[S] + [x])
                if T not in found:
                    found[T] = found[S] + [x]
                    new.append(T)
        frontier = new
    return [OracleGroup(d, n, [g0_row(f)] + found[S])
            for S in sorted(found, key=lambda s: (len(s), sorted(s)))]


def _order(u: tuple[int, ...], d: int) -> int:
    return d // gcd(d, *u)


def format_group(G: OracleGroup) -> str:
    """Greedy generators over all elements sorted by (-order, vector)."""
    if G.order == 1:
        return "trivial"
    d, target = G.d, set(G.elements)
    gens: list[tuple[int, ...]] = []
    have = {(0,) * G.n}
    for t in sorted(G.elements, key=lambda u: (-_order(u, d), u)):
        if t not in have:
            gens.append(t)
            have = set(closure_ints(gens, d, G.n))
            if have == target:
                break
    parts = []
    for u in gens:
        r = _order(u, d)
        parts.append(f"1/{r}(" + ",".join(str(a * r // d) for a in u) + ")")
    return ";".join(parts)

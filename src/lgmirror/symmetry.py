"""Finite diagonal symmetry groups of invertible polynomials.

A diagonal symmetry acts on coordinate i by multiplication with e[u_i / d],
where e[x] = exp(2 pi i x), d = |det E| and u is an integer vector mod d:
every diagonal symmetry of f has order dividing d, so every group G of them
is a subgroup of (Z/d)^n.  G is stored as the lattice G + dZ^n in Hermite
normal form, an upper triangular integer basis whose pivots divide d.  The
basis is canonical: two groups are equal exactly when their contexts and
bases are, and |G| = d^n / (product of the pivots).

Membership is reduction by the triangular basis, the Krawitz dual is an
annihilator computed by integer linear algebra on n x n matrices, and the
subgroup lattice between G_0 and G^fin is walked on bases, and so are the
coordinate projections the trace formula counts with.  No coordinate
stabiliser is built: its index is the order of one column of the basis
mod d.  Elements are enumerated only for the junior count, once per
group, and the formatter scans them lazily.

Every check is made on integer vectors.  One test, E u = 0 mod d, decides
whether u / d is a symmetry; it serves group literals, G^fin, and (through
:meth:`DiagonalGroup.unfixed_monomial`) the Krawitz dual, the trace formula
and the cusp action.  Membership in SL is a row sum mod d.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, lcm, prod

from .errors import NotASubgroup, NotASymmetry, NotInvertible
from .ip_core import InvertiblePolynomial, canonical_weights, det, scaled_inverse, transpose

__all__ = [
    "DiagonalGroup",
    "gfin",
    "g0_group",
    "trivial_group",
    "group_from_generators",
    "dual_group",
    "junior_count",
    "is_sl_subgroup",
    "contains_g0",
    "subgroups_containing_g0",
    "parse_group_spec",
    "format_group",
    "format_phases",
]


@dataclass(frozen=True)
class DiagonalGroup:
    """A finite group of diagonal symmetries of ``context``, inside (Z/d)^n.

    ``basis`` is the Hermite normal form of the lattice G + dZ^n: row i is
    zero before column i, its pivot h_i divides d, and the entries above a
    pivot lie in [0, h_i).  Groups compare and hash by ``(context, basis)``;
    ``order`` = d^n / prod h_i.  ``rows`` lists every element on first use,
    and ``junior`` counts them once.
    """

    context: InvertiblePolynomial
    basis: tuple[tuple[int, ...], ...]
    d: int = field(compare=False, repr=False)
    order: int = field(compare=False)

    @cached_property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        """Every element as an integer vector mod d, in lexicographic order."""
        return tuple(_coset_reps(self, _hnf([], self.d, len(self.basis))))

    @cached_property
    def junior(self) -> int:
        """Number of elements of age exactly 1 fixing only the origin."""
        d = self.d
        return sum(1 for u in self.rows if all(u) and sum(u) == d)

    def unfixed_monomial(self, E) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
        """The first generator (a basis row) and the first exponent row of E
        whose monomial it does not fix, or None when every generator fixes
        every monomial."""
        for i, b in enumerate(self.basis):
            if b[i] == self.d:  # the row d e_i is zero mod d
                continue
            for row in E:
                if not _fixes_monomials((row,), b, self.d):
                    return b, row
        return None

    def __str__(self):
        return format_group(self)


def format_phases(u, d: int) -> str:
    """The phases u / d mod 1 of a diagonal map, as in ``(1/2, 1/3, 0)``."""
    return "(" + ", ".join(str(Fraction(a % d, d)) for a in u) + ")"


# ---------------------------------------------------------------------------
# integer vectors mod d and their lattices

def _order(u, d: int) -> int:
    return d // gcd(d, *u)


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with g = gcd(a, b) = x*a + y*b."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q = a // b
        a, b = b, a - q * b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return a, x0, y0


def _hnf(rows, d: int, n: int) -> tuple[tuple[int, ...], ...]:
    """Hermite normal form of the lattice spanned by ``rows`` and d Z^n.

    Column by column, the rows with a non-zero entry are folded into the row
    d e_col by unimodular 2x2 steps (extended gcd), leaving one pivot row and
    rows that vanish in that column.  Entries right of the current column
    are kept mod d, which adds multiples of the rows d e_j still unused.
    """
    rows = [[x % d for x in r] for r in rows]
    basis = []
    for col in range(n):
        pivot = [0] * n
        pivot[col] = d
        rest = []
        for r in rows:
            b = r[col]
            if b == 0:
                if any(r):
                    rest.append(r)
                continue
            a = pivot[col]
            g, x, y = _xgcd(a, b)
            ag, bg = a // g, b // g
            other = [(bg * p - ag * q) % d for p, q in zip(pivot, r)]
            pivot = [(x * p + y * q) % d for p, q in zip(pivot, r)]
            pivot[col] = g
            if any(other):
                rest.append(other)
        basis.append(pivot)
        rows = rest
    for j in range(n):
        h = basis[j][j]
        for i in range(j):
            q = basis[i][j] // h
            if q:
                basis[i] = [a - q * b for a, b in zip(basis[i], basis[j])]
    return tuple(tuple(b) for b in basis)


def _reduce(basis, d: int, u) -> tuple[int, ...]:
    """Canonical representative of u + G: the lexicographically least element."""
    u = list(u)
    for i, b in enumerate(basis):
        q = u[i] // b[i]
        if q:
            u = [(a - q * x) % d for a, x in zip(u, b)]
    return tuple(u)


def _member(basis, d: int, u) -> bool:
    return not any(_reduce(basis, d, u))


def _group(f: InvertiblePolynomial, rows) -> DiagonalGroup:
    d = abs(det(f))
    basis = _hnf(rows, d, f.n)
    index = 1
    for i, b in enumerate(basis):
        index *= b[i]
    return DiagonalGroup(context=f, basis=basis, d=d, order=d ** f.n // index)


def _fixes_monomials(E, u, d: int) -> bool:
    """E . (u / d) in Z^n: u / d fixes every monomial with exponent row in E."""
    return all(sum(e * a for e, a in zip(row, u)) % d == 0 for row in E)


def _g0_row(f: InvertiblePolynomial) -> tuple[int, ...]:
    ws = canonical_weights(f)
    return tuple(w % ws.d for w in ws.w)


# ---------------------------------------------------------------------------
# construction of the standard groups

@lru_cache(maxsize=None)
def gfin(f: InvertiblePolynomial) -> DiagonalGroup:
    """Maximal group of diagonal symmetries, generated by the columns of E^{-1}.

    (The rows of E^{-1} generate the symmetry group of the transpose.)
    """
    d = abs(det(f))
    gens = [tuple(a % d for a in col) for col in zip(*scaled_inverse(f))]
    for u in gens:
        if not _fixes_monomials(f.E, u, d):
            raise NotInvertible(
                f"generator {format_phases(u, d)} is not a symmetry; bad matrix?")
    G = _group(f, gens)
    if G.order != d:
        raise NotInvertible(f"symmetry group order {G.order} != |det E| = {d}")
    return G


def trivial_group(f: InvertiblePolynomial) -> DiagonalGroup:
    return _group(f, [])


def group_from_generators(context: InvertiblePolynomial, gens) -> DiagonalGroup:
    """Closure inside the symmetry group of ``context`` of the given
    generators, each a sequence of rational phases."""
    literals = []
    for g in gens:
        g = [Fraction(p) for p in g]
        r = lcm(*(p.denominator for p in g))
        literals.append((r, [int(p * r) for p in g]))
    return _literal_group(context, literals)


def _literal_group(f: InvertiblePolynomial, literals) -> DiagonalGroup:
    """Closure of the generators nums / r, given as pairs (r, nums).

    The generator nums / r is the row nums * d / r mod d; it exists when r
    divides every a * d and is a symmetry when it fixes every monomial.
    """
    d = abs(det(f))
    rows = []
    for r, nums in literals:
        u = [a * d // r for a in nums]
        if any(a * d % r for a in nums) or not _fixes_monomials(f.E, u, d):
            raise NotASymmetry(
                f"{format_phases(nums, r)} does not leave every monomial invariant")
        rows.append(u)
    return _group(f, rows)


@lru_cache(maxsize=None)
def g0_group(f: InvertiblePolynomial) -> DiagonalGroup:
    """The cyclic group generated by the exponential grading operator."""
    return _group(f, [_g0_row(f)])


# ---------------------------------------------------------------------------
# duality

@lru_cache(maxsize=None)
def dual_group(f: InvertiblePolynomial, G: DiagonalGroup) -> DiagonalGroup:
    """Krawitz dual: the subgroup of the transpose's symmetries pairing
    integrally with every element of G.

    The transpose's symmetries are the phase vectors E^{-T} a, a in Z^n, and
    E^{-T} a pairs with v/d in G as (E^{-T} a) . E (v/d) = a . v / d.  So the
    dual is the image of the annihilator {a : B a in d Z^n} = d B^{-1} Z^n of
    the basis B of G, mapped to (Z/d)^n by a -> (d E^{-1})^T a.
    """
    if G.context != f:
        raise NotASubgroup("group context does not match the polynomial")
    bad = G.unfixed_monomial(f.E)
    if bad:
        raise NotASubgroup(
            f"{format_phases(bad[0], G.d)} is not a diagonal symmetry of the polynomial")
    d, n, B = G.d, f.n, G.basis
    # M = d B^{-1}, integral because the rows of B span d Z^n; B upper triangular
    M = [[0] * n for _ in range(n)]
    for j in range(n):
        M[j][j] = d // B[j][j]
        for i in range(j - 1, -1, -1):
            s = sum(B[i][k] * M[k][j] for k in range(i + 1, j + 1))
            M[i][j] = -(s // B[i][i])
    dinv = scaled_inverse(f)
    gens = [tuple(sum(dinv[k][i] * M[k][j] for k in range(n)) % d for i in range(n))
            for j in range(n)]
    return _group(transpose(f), gens)


# ---------------------------------------------------------------------------
# junior elements and stabilisers

def junior_count(G: DiagonalGroup) -> int:
    """Number of elements of age exactly 1 fixing only the origin
    (:attr:`DiagonalGroup.junior`, counted once per group)."""
    return G.junior


def _coordinate_index(G: DiagonalGroup, i: int) -> int:
    """|G| / |K_i| for the stabiliser K_i of coordinate i: the order of the
    projection of G onto coordinate i, the cyclic group of (Z/d) generated
    by column i of the basis (docs/LEDGER.md L3)."""
    return G.d // gcd(G.d, *(b[i] for b in G.basis))


def _projection_orders(G: DiagonalGroup, S, a) -> tuple[int, int]:
    """(|H_S|, m_S) for the projection H_S of G onto the coordinates S:
    its order, and the order of a_S in (Z/d)^S / H_S.

    The columns S of G's basis span H_S + dZ^S, so |H_S| = d^|S| / (product
    of the pivots of their Hermite form), and m_S = [H_S + <a_S> : H_S] is
    the quotient of the pivot products without and with a_S.
    """
    d = G.d
    cols = [[b[i] for i in S] for b in G.basis]
    index = prod(h[i] for i, h in enumerate(_hnf(cols, d, len(S))))
    index_a = prod(h[i] for i, h in enumerate(_hnf(cols + [[a[i] for i in S]], d, len(S))))
    return d ** len(S) // index, index // index_a


def is_sl_subgroup(G: DiagonalGroup) -> bool:
    return all(sum(b) % G.d == 0 for b in G.basis)


def contains_g0(G: DiagonalGroup) -> bool:
    return _member(G.basis, G.d, _g0_row(G.context))


# ---------------------------------------------------------------------------
# subgroup enumeration for the verification harness

def _coset_reps(H: DiagonalGroup, K) -> list[tuple[int, ...]]:
    """Sorted canonical representatives of H/K, for K <= H given by its
    Hermite basis; with K trivial (basis d I), every element of H.

    The sums sum_i c_i h_i of H's basis rows with 0 <= c_i < k_ii / h_ii
    meet every coset once (compare leading coordinates).
    """
    d = H.d
    reps = [(0,) * len(H.basis)]
    for i, b in enumerate(H.basis):
        reps = [tuple((a + c * x) % d for a, x in zip(u, b))
                for u in reps for c in range(K[i][i] // b[i])]
    return sorted(_reduce(K, d, u) for u in reps)


@lru_cache(maxsize=None)
def subgroups_containing_g0(f: InvertiblePolynomial) -> tuple[DiagonalGroup, ...]:
    """All subgroups G with G_0 <= G <= G^fin, in deterministic order: by
    order, then by the sorted canonical coset representatives of G/G_0.

    Walks the subgroup lattice of the quotient G^fin/G_0 (order cf) upward,
    adjoining one coset of H at a time and deduplicating by canonical basis.
    <H, x> depends only on x + H, so the coset representatives of
    G^fin/G_0 are reduced by H first and each non-zero coset of H is
    adjoined once (docs/LEDGER.md L3).
    """
    G0 = g0_group(f)
    reps = _coset_reps(gfin(f), G0.basis)
    zero = (0,) * f.n
    found = {G0.basis: G0}
    frontier = [G0]
    while frontier:
        new = []
        for H in frontier:
            cosets = dict.fromkeys(_reduce(H.basis, H.d, x) for x in reps)
            cosets.pop(zero, None)
            for x in cosets:
                T = _group(f, H.basis + (x,))
                if T.basis not in found:
                    found[T.basis] = T
                    new.append(T)
        frontier = new
    return tuple(sorted(found.values(), key=lambda H: (H.order, _coset_reps(H, G0.basis))))


# ---------------------------------------------------------------------------
# group literals

def parse_group_spec(f: InvertiblePolynomial, spec: str) -> DiagonalGroup:
    """Parse a group literal relative to ``f``.

    Accepted forms: ``G0``, ``Gfin``, ``trivial`` (or ``1``),
    ``index:<k>`` (the unique subgroup of index k in G^fin containing G_0),
    and explicit generators ``1/r(a,b,c)`` joined by ``;``.
    """
    spec = spec.strip()
    if spec in ("G0", "g0"):
        return g0_group(f)
    if spec in ("Gfin", "gfin", "GFIN"):
        return gfin(f)
    if spec in ("trivial", "1", "{1}"):
        return trivial_group(f)
    if spec.startswith("index:"):
        k = int(spec.split(":", 1)[1])
        d = abs(det(f))
        matches = [G for G in subgroups_containing_g0(f) if d == k * G.order]
        if len(matches) != 1:
            raise NotASubgroup(
                f"index {k}: found {len(matches)} subgroups, need exactly 1")
        return matches[0]
    literals = []
    for part in spec.split(";"):
        part = part.strip()
        m = _GROUP_RE.fullmatch(part)
        if not m:
            raise NotASymmetry(f"cannot parse group literal {part!r}")
        r = int(m.group(1))
        nums = [int(x) for x in m.group(2).split(",")]
        if len(nums) != f.n or r <= 0:
            raise NotASymmetry(f"bad generator {part!r}")
        literals.append((r, nums))
    return _literal_group(f, literals)


_GROUP_RE = re.compile(r"1\s*/\s*(\d+)\s*\(\s*([-\d\s,]+)\s*\)")


def format_group(G: DiagonalGroup) -> str:
    """Render a group as its generator list in 1/r(a,b,c) notation."""
    if G.order == 1:
        return "trivial"
    parts = []
    for u in _minimal_generators(G):
        r = _order(u, G.d)
        parts.append(f"1/{r}(" + ",".join(str(a * r // G.d) for a in u) + ")")
    return ";".join(parts)


def _minimal_generators(G: DiagonalGroup) -> list[tuple[int, ...]]:
    """Greedy small generating set, for readable output only.

    Going through the elements sorted by (-order, integer vector), take each
    one not generated by those already taken, until they generate G.  The
    elements of maximal order e generate a finite abelian group, so every
    element taken has order e, and each comes lexicographically after the
    one before.  A single lexicographic scan finds them: it walks the cosets
    y + G_i (G_i: the elements of G vanishing before coordinate i) and skips
    those whose orders cannot reach e or that lie inside the span so far.
    """
    d, basis = G.d, G.basis
    n = len(basis)
    tail_exp = [1] * (n + 1)  # tail_exp[i] = exponent of G_i
    for i in range(n - 1, -1, -1):
        o = _order(basis[i], d)
        tail_exp[i] = tail_exp[i + 1] * o // gcd(tail_exp[i + 1], o)
    e = tail_exp[0]
    span = _hnf([], d, n)
    tail_inside = [False] * n + [True]  # G_i inside the span

    def scan(i, y):
        oy = _order(y, d)
        if oy * tail_exp[i] // gcd(oy, tail_exp[i]) != e:
            return
        if tail_inside[i] and _member(span, d, y):
            return
        if i == n:
            yield y
            return
        b = basis[i]
        k = (y[i] % b[i] - y[i]) // b[i]
        z = tuple((a + k * x) % d for a, x in zip(y, b))
        for _ in range(d // b[i]):
            yield from scan(i + 1, z)
            z = tuple((a + x) % d for a, x in zip(z, b))

    taken = []
    for y in scan(0, (0,) * n):
        taken.append(y)
        span = _hnf(taken, d, n)
        index = 1
        for i, b in enumerate(span):
            index *= b[i]
        if d ** n // index == G.order:
            break
        tail_inside = [all(_member(span, d, b) for b in basis[i:])
                       for i in range(n)] + [True]
    return taken

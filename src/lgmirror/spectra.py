"""Exact cyclotomic products, Poincare series and characteristic polynomials.

The shared currency is the signed product prod_m (1 - t^m)^{e(m)}, stored as
the map m -> e(m) (:class:`CycloVector`).  Multiplication is entrywise
addition of exponents, equality is map equality, and the (virtual) degree is
sum m*e(m).  The equivariant characteristic polynomial of a group comes in
closed form from at most eight coordinate projections of the group, the plain
one from the expanded exponents and cyclotomic polynomials; everything stays
in exact integer / rational arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, combinations
from math import gcd
from operator import add

from .errors import LGMirrorError, NonIntegral, NotASubgroup, NotGraded, NotPolynomial, NotSL
from .ip_core import InvertiblePolynomial, canonical_weights, cf, classify3, reduced_weights, transpose
from .curve_side import dolgachev, genus
from .symmetry import (
    DiagonalGroup,
    _projection_orders,
    dual_group,
    format_phases,
    g0_group,
    gfin,
    is_sl_subgroup,
)

__all__ = [
    "CycloVector",
    "PoincareVerdict",
    "cyclo_expand",
    "poincare_series",
    "psi",
    "psi_closed_form",
    "lefschetz_numbers",
    "equivariant_char_poly",
    "char_poly_qh",
    "verify_poincare_theorem",
]


# ---------------------------------------------------------------------------
# number-theoretic helpers

def _divisors(n: int) -> list[int]:
    small, large = [], []
    i = 1
    while i * i <= n:
        if n % i == 0:
            small.append(i)
            if i != n // i:
                large.append(n // i)
        i += 1
    return small + large[::-1]


def _moebius(n: int) -> int:
    result = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    if n > 1:
        result = -result
    return result


# ---------------------------------------------------------------------------
# cyclotomic vectors

@dataclass(frozen=True)
class CycloVector:
    """prod_m (1 - t^m)^{e(m)} stored as sorted (m, e) pairs with e != 0."""

    items: tuple[tuple[int, int], ...]

    @classmethod
    def from_entries(cls, entries) -> "CycloVector":
        merged: dict[int, int] = {}
        pairs = entries.items() if isinstance(entries, dict) else entries
        for m, e in pairs:
            if m < 1:
                raise LGMirrorError(f"cyclotomic index {m} must be positive")
            merged[m] = merged.get(m, 0) + e
        return cls(tuple(sorted((m, e) for m, e in merged.items() if e != 0)))

    @classmethod
    def one(cls) -> "CycloVector":
        return cls(())

    @property
    def entries(self) -> dict[int, int]:
        return dict(self.items)

    @property
    def degree(self) -> int:
        return sum(m * e for m, e in self.items)

    def __mul__(self, other: "CycloVector") -> "CycloVector":
        return CycloVector.from_entries(list(self.items) + list(other.items))

    def __truediv__(self, other: "CycloVector") -> "CycloVector":
        return CycloVector.from_entries(
            list(self.items) + [(m, -e) for m, e in other.items])

    def to_json(self) -> dict[str, int]:
        return {str(m): e for m, e in self.items}

    def __str__(self):
        if not self.items:
            return "1"
        num = [f"(1-t^{m})" + (f"^{e}" if e > 1 else "")
               for m, e in self.items if e > 0]
        den = [f"(1-t^{m})" + (f"^{-e}" if e < -1 else "")
               for m, e in self.items if e < 0]
        text = "".join(num) or "1"
        return text + (" / " + "".join(den) if den else "")


def _poly_mul_one_minus_tm(coeffs: list[int], m: int) -> list[int]:
    out = coeffs + [0] * m
    for j in range(len(coeffs)):
        out[j + m] -= coeffs[j]
    return out


def _poly_div_one_minus_tm(coeffs: list[int], m: int) -> list[int]:
    # (1 - t^m) * Q = P  =>  q_j = p_j + q_{j-m}; the top m coefficients of
    # the running quotient must vanish for the division to be exact.
    q = list(coeffs)
    for r in range(min(m, len(q))):
        q[r::m] = accumulate(q[r::m])
    if any(q[j] != 0 for j in range(max(0, len(q) - m), len(q))):
        raise NotPolynomial(f"division by (1 - t^{m}) is inexact")
    return q[: max(0, len(q) - m)] or [0]


def cyclo_expand(v: CycloVector) -> tuple[int, ...]:
    """Exact integer coefficients of prod (1-t^m)^{e(m)}; NotPolynomial otherwise."""
    coeffs = [1]
    for m, e in v.items:
        for _ in range(max(e, 0)):
            coeffs = _poly_mul_one_minus_tm(coeffs, m)
    for m, e in v.items:
        for _ in range(max(-e, 0)):
            coeffs = _poly_div_one_minus_tm(coeffs, m)
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


# ---------------------------------------------------------------------------
# Poincare series and psi

def poincare_series(f: InvertiblePolynomial, G: DiagonalGroup) -> CycloVector:
    """(1-t^{d/c}) / prod_i (1-t^{w_i/c}) with c = |G^fin/G|."""
    ws = canonical_weights(f)
    order_fin = gfin(f).order
    if order_fin % G.order != 0:
        raise NotASubgroup("group order does not divide |G^fin|")
    c = order_fin // G.order
    if ws.d % c != 0 or any(w % c != 0 for w in ws.w):
        raise NotGraded(f"index {c} does not divide the weight system {ws}")
    entries = [(ws.d // c, 1)] + [(w // c, -1) for w in ws.w]
    return CycloVector.from_entries(entries)


def psi(f: InvertiblePolynomial, G: DiagonalGroup) -> CycloVector:
    """Poincare series times (1-t)^{2-2g} prod_alpha (1-t^alpha)/(1-t)."""
    p = poincare_series(f, G)
    g = genus(f, G)
    A = dolgachev(f, G).multiset
    extra = [(1, 2 - 2 * g - len(A))] + [(a, 1) for a in A]
    return p * CycloVector.from_entries(extra)


def _exact(a: int, b: int) -> int:
    q, r = divmod(a, b)
    if r:
        raise LGMirrorError(f"internal: {a} not divisible by {b}")
    return q


def psi_closed_form(f: InvertiblePolynomial) -> CycloVector:
    """Closed form of psi(f, G_0) per classification type.

    Instantiates the per-type product with c = cf, the pairwise gcd
    parameters, and g = genus(f, G_0); an independent fixture generator for
    :func:`psi`.
    """
    tag = classify3(f)
    c = cf(f)
    g = genus(f, g0_group(f))
    num: list[tuple[int, int]] = []
    den: list[tuple[int, int]] = []
    if tag.tag == "I":
        p1, p2, p3 = tag.params
        c1, c2, c3 = gcd(p2, p3), gcd(p1, p3), gcd(p1, p2)
        num = [(_exact(p1 * c1, c), c1), (_exact(p2 * c2, c), c2),
               (_exact(p3 * c3, c), c3), (_exact(p1 * p2 * p3, c), 1)]
        den = [(1, c1 + c2 + c3 - 2 + 2 * g), (_exact(p2 * p3, c), 1),
               (_exact(p3 * p1, c), 1), (_exact(p1 * p2, c), 1)]
    elif tag.tag == "II":
        p1, p2, p3 = tag.params
        c1, c2 = gcd(p3 // p2, p2 - 1), gcd(p1, p2)
        num = [(_exact(p1 * c1, c), c1), (_exact(p3 * c2, p2 * c), c2),
               (_exact(p1 * p3, c), 1)]
        den = [(1, c1 + c2 - 1 + 2 * g), (_exact(p3, c), 1),
               (_exact(p1 * p3, p2 * c), 1)]
    elif tag.tag == "III":
        p1, q2, q3 = tag.params
        p2 = q2 * q3 + q2 + q3
        c1 = gcd(q2, q3)
        num = [(_exact(p1 * c1, c), c1), (_exact(p1 * p2, c), 1)]
        den = [(1, c1 + 2 * g), (_exact(p2, c), 1)]
    elif tag.tag == "IV":
        p1, p2, p3 = tag.params
        c1 = gcd(p2 // p1, p1 - 1)
        num = [(_exact(p3 * c1, p2 * c), c1), (_exact(p3, c), 1)]
        den = [(1, c1 + 2 * g), (_exact(p3, p1 * c), 1)]
    else:  # V
        q1, q2, q3 = tag.params
        num = [(_exact(q1 * q2 * q3 + 1, c), 1)]
        den = [(1, 1 + 2 * g)]
    return CycloVector.from_entries(num + [(m, -e) for m, e in den])


# ---------------------------------------------------------------------------
# monodromy traces and characteristic polynomials

def _sector_exponents(f: InvertiblePolynomial, G: DiagonalGroup) -> dict[int, int]:
    """The exponents e(m) of phi = prod_m (1 - t^m)^{e(m)} for the pair (f, G),
    G inside SL, in closed form from the projections of G (docs/LEDGER.md L2).

    With d = |det E|, reduced weights w~ and degree d~, and a_i = w~_i d / d~
    mod d, the sector-summed trace formula
        L_k = sum_g (-1)^{n_g+1} (1/|G|) sum_h
              prod_{i in Fix(g)} ([h_i + k a_i = 0 mod d] d~/w~_i - 1)
    expands over the subsets S of Fix(g) into
        L_k = sum_S c_S [m_S | k],
        c_S = (-1)^{|S|+1} |G| / |H_S|^2 prod_{i in S} d~/w~_i,
    where H_S is the projection of G onto the coordinates S and m_S the
    order of a_S in (Z/d)^S / H_S (S empty: c = -|G|, m = 1).  So
    L_k = sum_{m | k} C_m with C_m = sum_{m_S = m} c_S, and e(m) = C_m / m.

    Raises NonIntegral unless m divides C_m for every m.  That is the whole
    integrality content of the trace formula: it makes every C_m, hence
    every L_k, an integer, and L_k = sum_{m | k} m e(m) holds for all k by
    construction.
    """
    if G.context != f:
        raise NotASubgroup("group context does not match the polynomial")
    bad = G.unfixed_monomial(f.E)
    if bad:
        raise NotASubgroup(f"{format_phases(bad[0], G.d)} is not a symmetry of the polynomial")
    if not is_sl_subgroup(G):
        raise NotSL("trace formula needs G inside SL_n")
    ws = reduced_weights(f)
    wt, dt = ws.w, ws.d
    a = [w * (G.d // dt) % G.d for w in wt]
    sums: dict[int, Fraction] = {}
    for size in range(f.n + 1):
        for S in combinations(range(f.n), size):
            order, m = _projection_orders(G, S, a)
            c = Fraction(G.order, order * order)
            for i in S:
                c *= Fraction(dt, wt[i])
            sums[m] = sums.get(m, 0) + (c if size % 2 else -c)
    exponents = {}
    for m, c in sums.items():
        e = c / m
        if e.denominator != 1:
            raise NonIntegral(f"C_{m} = {c} is not divisible by {m}")
        exponents[m] = int(e)
    return exponents


def lefschetz_numbers(f: InvertiblePolynomial, G: DiagonalGroup) -> tuple[int, ...]:
    """Sector-summed monodromy traces (L_1, ..., L_d~) of the pair (f, G),
    G inside SL, with d~ the reduced weighted degree (L_k has period d~).

    L_k = sum_{m | k} m e(m), from the closed-form exponents of
    :func:`equivariant_char_poly`; no element of G is listed.
    """
    dt = reduced_weights(f).d
    traces = [0] * dt
    for m, e in _sector_exponents(f, G).items():
        for k in range(m - 1, dt, m):
            traces[k] += m * e
    return tuple(traces)


def equivariant_char_poly(f: InvertiblePolynomial, G: DiagonalGroup) -> CycloVector:
    """Signed product over the sectors of G (inside SL) of the monodromy
    characteristic polynomials, prod_m (1 - t^m)^{e(m)}.

    At most eight subsets S of the coordinates contribute, each through the
    orders of two Hermite forms; neither the elements of G nor the d~ traces
    are built.  Raises NonIntegral where an exponent is not an integer.
    """
    return CycloVector.from_entries(_sector_exponents(f, G))


def char_poly_qh(f: InvertiblePolynomial) -> tuple[tuple[Fraction, ...], CycloVector]:
    """Sorted monodromy exponents and characteristic polynomial of weighted
    homogeneous f, by direct expansion of prod_i (u^{w_i} - u^{d}) / (1 - u^{w_i})
    over the reduced weights.

    An exponent a / d~ contributes the eigenvalue e[a / d~], of order
    n = d~ / gcd(a, d~).  The multiplicities must be equal on each such class
    (an integer characteristic polynomial); with c_n the common value, the
    cyclotomic form is prod_n Phi_n^{c_n}, Phi_n = prod_{m | n} (1 - t^m)^{mu(n/m)}
    up to sign.  This route never touches a group and is independent of
    :func:`equivariant_char_poly`; its degree is checked against the
    exponent count.
    """
    dt, coeffs, vec = _qh_expansion(f)
    exponents = []
    for a, c in enumerate(coeffs):
        if c:
            exponents.extend([Fraction(a, dt)] * c)
    return tuple(exponents), vec


def _qh_expansion(f: InvertiblePolynomial) -> tuple[int, list[int], CycloVector]:
    """(d~, coeffs, vec) for :func:`char_poly_qh`: coeffs[a] is the
    multiplicity of the exponent a / d~, and vec is built from the counts
    per residue a mod d~, so no exponent is materialised."""
    ws = reduced_weights(f)
    wt, dt = ws.w, ws.d
    coeffs = [1]
    for w in wt:
        # times u^w - u^d~
        shifted = [0] * w + coeffs + [0] * (dt - w)
        coeffs = [x - y for x, y in zip(shifted, [0] * dt + coeffs)]
    for w in wt:
        coeffs = _poly_div_one_minus_tm(coeffs, w)
    if any(c < 0 for c in coeffs):
        raise NotPolynomial("expansion produced negative multiplicities")
    residue_counts = [0] * dt
    for start in range(0, len(coeffs), dt):
        chunk = coeffs[start:start + dt]
        residue_counts[:len(chunk)] = map(add, residue_counts, chunk)
    class_count: dict[int, int] = {}
    for r in range(dt):
        g = gcd(r, dt)
        if g in class_count:
            if class_count[g] != residue_counts[r]:
                raise NonIntegral(
                    "eigenvalue multiplicities are not Galois-stable")
        else:
            class_count[g] = residue_counts[r]
    vec = CycloVector.from_entries(
        [(m, _moebius(dt // g // m) * count)
         for g, count in class_count.items() for m in _divisors(dt // g)])
    if vec.degree != sum(residue_counts):
        raise NonIntegral(
            f"degree {vec.degree} != exponent count {sum(residue_counts)}")
    return dt, coeffs, vec


# ---------------------------------------------------------------------------
# the Poincare series identity

@dataclass(frozen=True)
class PoincareVerdict:
    status: str  # "equal" | "not_equal" | "not_applicable"
    reason: str | None
    psi: CycloVector | None
    phi: CycloVector | None

    @property
    def applicable(self) -> bool:
        return self.status != "not_applicable"

    @property
    def equal(self) -> bool:
        return self.status == "equal"


def verify_poincare_theorem(f: InvertiblePolynomial) -> PoincareVerdict:
    """Compare psi(f, G_0) with the equivariant characteristic polynomial of
    the dual pair, when cf(f) = cf(f^T) and the genus vanishes.

    The comparison is of the identity as literally stated.  That hypothesis
    is known to be insufficient: the two sides differ on 40 of the 746
    members of corpus(300, 8) it admits, A_2 = x^2+y^2+z^3 among them, while
    each side is correct on its own.  It suffices where G_0^T is trivial
    (cf(f) = 1; Ebeling-Takahashi, Compositio Math. 147, 2011).  See
    docs/LEDGER.md.
    """
    ft = transpose(f)
    if cf(f) != cf(ft):
        return PoincareVerdict(
            status="not_applicable",
            reason=f"cf(f) = {cf(f)} != cf(f^T) = {cf(ft)}", psi=None, phi=None)
    G0 = g0_group(f)
    g = genus(f, G0)
    if g != 0:
        return PoincareVerdict(
            status="not_applicable", reason=f"genus = {g} != 0", psi=None, phi=None)
    left = psi(f, G0)
    right = equivariant_char_poly(ft, dual_group(f, G0))
    status = "equal" if left == right else "not_equal"
    return PoincareVerdict(status=status, reason=None, psi=left, phi=right)

"""Dolgachev numbers, genus and stringy Euler number of the orbifold curve.

The isotropy data of the pair (f, G) is computed entirely on the dual side:
with G^T the dual group and K_i the maximal subgroup of G^T fixing the i-th
coordinate, the i-th isotropic point contributes the integer
alpha'_i / (|G^T|/|K_i|) with multiplicity |K_i|, where alpha'_i is the
isotropy order of the pair (f, G^fin) at that point.  Entries equal to one
are omitted from the resulting multiset.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .errors import NonIntegral, NotContainingG0, NotReduced
from .ip_core import InvertiblePolynomial, WeightSystem, classify3
from .symmetry import (
    DiagonalGroup,
    _coordinate_index,
    contains_g0,
    dual_group,
    junior_count,
)

__all__ = [
    "DolgachevData",
    "CoordinateIsotropy",
    "CurveInvariants",
    "dolgachev_gfin",
    "dolgachev",
    "orbit_invariants",
    "count_m",
    "genus",
    "curve_invariants",
]


@dataclass(frozen=True)
class CoordinateIsotropy:
    alpha_prime: int
    k_order: int
    value: int
    multiplicity: int


@dataclass(frozen=True)
class DolgachevData:
    per_coordinate: tuple[CoordinateIsotropy, ...]
    multiset: tuple[int, ...]


@dataclass(frozen=True)
class CurveInvariants:
    genus: int
    dolgachev: DolgachevData
    e_st: int


# Isotropy orders of (f, G^fin) per type, in normal-form coordinate order.
# Kept as a module-level table so the verification harness can be fed a
# corrupted copy as a negative control.
_ALPHA_RULES = {
    "I": lambda p: (p[0], p[1], p[2]),
    "II": lambda p: (p[0], (p[1] - 1) * p[0], p[2] // p[1]),
    "III": lambda p: (p[0], p[0] * p[2], p[0] * p[1]),
    "IV": lambda p: (p[1] - p[0] + 1, (p[0] - 1) * (p[2] // p[1]), p[2] // p[1]),
    "V": lambda p: (
        p[1] * p[2] - p[2] + 1,
        p[2] * p[0] - p[0] + 1,
        p[0] * p[1] - p[1] + 1,
    ),
}


def dolgachev_gfin(f: InvertiblePolynomial) -> tuple[int, int, int]:
    """Isotropy orders (alpha'_1, alpha'_2, alpha'_3) of the pair (f, G^fin).

    Index i attaches to the i-th normal-form coordinate and is pulled back to
    the original variable order; entries equal to 1 are retained here.
    """
    tag = classify3(f)
    normal = _ALPHA_RULES[tag.tag](tag.params)
    out = [0, 0, 0]
    for pos, orig in enumerate(tag.perm):
        out[orig] = normal[pos]
    return tuple(out)


def dolgachev(f: InvertiblePolynomial, G: DiagonalGroup) -> DolgachevData:
    """Dolgachev numbers of (f, G) for G_0 <= G <= G^fin, via the dual side."""
    if not contains_g0(G):
        raise NotContainingG0("Dolgachev numbers need G containing g_0")
    alpha = dolgachev_gfin(f)
    GT = dual_group(f, G)
    per = []
    values = []
    for i in range(3):
        index = _coordinate_index(GT, i)
        k_order = GT.order // index
        if alpha[i] % index != 0:
            raise NonIntegral(
                f"alpha'_{i} = {alpha[i]} not divisible by {index}")
        value = alpha[i] // index
        per.append(CoordinateIsotropy(
            alpha_prime=alpha[i], k_order=k_order, value=value,
            multiplicity=k_order))
        if value > 1:
            values.extend([value] * k_order)
    return DolgachevData(per_coordinate=tuple(per), multiset=tuple(sorted(values)))


def count_m(a: int, b: int, h: int) -> int:
    """Number of (k, l) in Z_{>=0}^2 with k*a + l*b = h, by direct enumeration."""
    return sum(1 for k in range(h // a + 1) if (h - k * a) % b == 0)


def orbit_invariants(ws: WeightSystem) -> tuple[int, ...]:
    """Exceptional-orbit orders of the weighted C*-action on a reduced system.

    For reduced weights (a_1,a_2,a_3; h): a_i enters once when a_i does not
    divide h, and gcd(a_i,a_j) enters (m(a_i,a_j;h) - 1) times when the gcd
    exceeds 1.
    """
    if len(ws.w) != 3:
        raise NotReduced("orbit invariants need three weights")
    if gcd(ws.d, *ws.w) != 1:
        raise NotReduced(f"weight system {ws} is not reduced")
    a, h = ws.w, ws.d
    values = []
    for i in range(3):
        if h % a[i] != 0:
            values.append(a[i])
    for i in range(3):
        for j in range(i + 1, 3):
            c = gcd(a[i], a[j])
            if c > 1:
                values.extend([c] * (count_m(a[i], a[j], h) - 1))
    return tuple(sorted(values))


def genus(f: InvertiblePolynomial, G: DiagonalGroup) -> int:
    """Genus of the orbifold curve: the junior count of the dual group."""
    if not contains_g0(G):
        raise NotContainingG0("genus needs G containing g_0")
    return junior_count(dual_group(f, G))


def curve_invariants(f: InvertiblePolynomial, G: DiagonalGroup) -> CurveInvariants:
    """Genus, Dolgachev data and stringy Euler number 2 - 2g + sum (alpha - 1)."""
    data = dolgachev(f, G)
    g = genus(f, G)
    return CurveInvariants(genus=g, dolgachev=data,
                           e_st=2 - 2 * g + sum(a - 1 for a in data.multiset))

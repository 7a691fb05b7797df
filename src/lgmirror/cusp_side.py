"""Gabrielov numbers and equivariant invariants of cusp polynomials.

The cusp polynomial attached to f is T_{g1,g2,g3}: x^{g1} + y^{g2} + z^{g3}
- xyz, where (g1,g2,g3) is the Dolgachev triple of the transpose at maximal
symmetry.  For a finite special-linear group G of diagonal symmetries, the
maximal subgroups H_i fixing one coordinate turn the triple into the
Gabrielov multiset via g_i / (|G|/|H_i|) repeated |H_i| times (ones omitted),
and the pair's characteristic polynomial is
(t-1)^{2-2j} prod (t^gamma - 1)/(t-1).

The triple is obtained from the transposed type tables; the coordinate
change onto the cusp normal form is combinatorially invisible and never
performed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NonIntegral, NotSL, NotSymmetryOfCusp
from .curve_side import dolgachev_gfin
from .ip_core import InvertiblePolynomial, transpose
from .spectra import CycloVector
from .symmetry import (
    DiagonalGroup,
    format_phases,
    is_sl_subgroup,
    junior_count,
    subgroup_fixing_coordinate,
)

__all__ = [
    "CuspPolynomial",
    "CuspIsotropy",
    "GabrielovData",
    "gabrielov_prime",
    "delta",
    "gabrielov",
    "gabrielov_from_gamma",
]


@dataclass(frozen=True)
class CuspPolynomial:
    gamma_prime: tuple[int, int, int]
    delta: int


@dataclass(frozen=True)
class CuspIsotropy:
    gamma_tilde: int
    h_order: int


@dataclass(frozen=True)
class GabrielovData:
    per_coordinate: tuple[CuspIsotropy, ...]
    multiset: tuple[int, ...]
    j: int
    milnor: int

    @property
    def char_poly(self) -> CycloVector:
        """(t-1)^{2-2j} prod_{gamma} (t^gamma - 1)/(t-1) as a cyclotomic vector,
        of degree ``milnor``.

        May carry negative exponents (a formal rational function) when the
        multiset is empty and j > 0.
        """
        entries = [(1, 2 - 2 * self.j - len(self.multiset))]
        entries += [(g, 1) for g in self.multiset]
        return CycloVector.from_entries(entries)


def delta(gamma_prime) -> int:
    """g1 g2 g3 - g2 g3 - g1 g3 - g1 g2; negative for the spherical cases."""
    g1, g2, g3 = gamma_prime
    return g1 * g2 * g3 - g2 * g3 - g1 * g3 - g1 * g2


def gabrielov_prime(f: InvertiblePolynomial) -> CuspPolynomial:
    """Cusp exponent triple of (f, {1}): the Dolgachev triple of the transpose
    at maximal symmetry, coordinate-indexed; entries equal to 1 allowed."""
    gp = dolgachev_gfin(transpose(f))
    return CuspPolynomial(gamma_prime=gp, delta=delta(gp))


def _check_action(gamma_prime, G: DiagonalGroup):
    if not is_sl_subgroup(G):
        raise NotSL("cusp invariants need G inside SL_3")
    pure_powers = [tuple(gi if j == i else 0 for j in range(3))
                   for i, gi in enumerate(gamma_prime)]
    bad = G.unfixed_monomial(pure_powers)
    if bad:
        u, row = bad
        raise NotSymmetryOfCusp(
            f"{format_phases(u, G.d)} does not fix the monomial with exponent {sum(row)}")


def gabrielov_from_gamma(gamma_prime, G: DiagonalGroup) -> GabrielovData:
    """Gabrielov data of the cusp with exponents ``gamma_prime`` under G."""
    _check_action(gamma_prime, G)
    per = []
    values = []
    for i in range(3):
        H = subgroup_fixing_coordinate(G, i)
        index = G.order // H.order
        if gamma_prime[i] % index != 0:
            raise NonIntegral(
                f"gamma'_{i} = {gamma_prime[i]} not divisible by {index}")
        gt = gamma_prime[i] // index
        per.append(CuspIsotropy(gamma_tilde=gt, h_order=H.order))
        if gt > 1:
            values.extend([gt] * H.order)
    j = junior_count(G)
    multiset = tuple(sorted(values))
    milnor = 2 - 2 * j + sum(g - 1 for g in multiset)
    return GabrielovData(per_coordinate=tuple(per), multiset=multiset, j=j,
                         milnor=milnor)


def gabrielov(f: InvertiblePolynomial, G: DiagonalGroup) -> GabrielovData:
    """Gabrielov numbers of the pair (f, G), G inside SL_3 and symmetric for
    the cusp monomials."""
    return gabrielov_from_gamma(gabrielov_prime(f).gamma_prime, G)


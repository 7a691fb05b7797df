"""Cusp polynomials, Gabrielov numbers, equivariant Milnor numbers."""

from fractions import Fraction as F

import pytest

from lgmirror import (
    NotSL,
    NotSymmetryOfCusp,
    canonical_weights,
    delta,
    dual_group,
    equivariant_char_poly,
    g0_group,
    gabrielov,
    gabrielov_prime,
    group_from_generators,
    parse_polynomial,
    transpose,
    trivial_group,
)
from lgmirror.cusp_side import gabrielov_from_gamma


def test_gamma_prime_values():
    assert gabrielov_prime(parse_polynomial("x^2+y^3+z^4")).gamma_prime == (2, 3, 4)
    assert gabrielov_prime(parse_polynomial("x^3+x*y+y*z^4")).gamma_prime \
        == (3, 9, 1)  # l=3, k=4: (l, (k-1)l, 1)
    assert gabrielov_prime(parse_polynomial("x^2+y^2+y*z^4")).gamma_prime \
        == (2, 2, 6)  # k=4: (2, 2, 2(k-1))


def test_delta_values():
    assert delta((2, 3, 4)) == -2
    assert delta((2, 3, 6)) == 0
    assert delta((5, 5, 5)) == 50
    # invariant under permutation
    assert delta((4, 2, 3)) == delta((2, 3, 4))


def test_gabrielov_e6():
    f = parse_polynomial("x^2+y^3+z^4")
    GT = dual_group(f, g0_group(f))
    data = gabrielov(transpose(f), GT)
    assert data.multiset == (2, 3, 3)
    assert data.j == 0 and data.milnor == 7


def test_gabrielov_klein():
    ft = parse_polynomial("x^2+y^2+z^6")  # gamma' = (2, 2, 6), 2k = 6
    f = transpose(ft)
    GT = dual_group(f, g0_group(f))
    assert GT.order == 4
    assert gabrielov(ft, GT).multiset == (3, 3)  # (k, k) with k = 3


def test_gabrielov_e8tilde():
    f6 = parse_polynomial("x^2+y^3+z^6")
    G = group_from_generators(f6, [(0, F(1, 3), F(2, 3))])
    data = gabrielov(f6, G)
    assert data.multiset == (2, 2, 2, 2)
    assert data.milnor == 6


def test_cusp_char_poly_trivial_group():
    f = parse_polynomial("x^2+y^3+z^4")
    vec = gabrielov_from_gamma((2, 3, 4), trivial_group(f)).char_poly
    assert vec.entries == {1: -1, 2: 1, 3: 1, 4: 1}


def test_cusp_char_poly_negative_exponent():
    f5 = parse_polynomial("x^5+y^5+z^5")
    G = group_from_generators(f5, [(F(1, 5), F(3, 5), F(1, 5))])
    data = gabrielov_from_gamma((5, 5, 5), G)
    assert data.char_poly.entries == {1: -2}
    assert data.milnor == -2


def test_cusp_char_poly_z3():
    f6 = parse_polynomial("x^2+y^3+z^6")
    G = group_from_generators(f6, [(0, F(1, 3), F(2, 3))])
    data = gabrielov_from_gamma((2, 3, 6), G)
    assert data.char_poly.entries == {1: -2, 2: 4}
    assert data.milnor == 6


def test_cusp_milnor_trivial():
    f = parse_polynomial("x^3+y^4+z^5")
    assert gabrielov_from_gamma((3, 4, 5), trivial_group(f)).milnor == 3 + 4 + 5 - 1


def test_degree_equals_milnor(corpus_fs):
    # mu = |G| (sum q_i - 1) + deg phi(f^T, G^T), phi from the traces
    # (Ebeling-Gusein-Zade, arXiv:1107.5542)
    for f in corpus_fs[::17]:
        G = g0_group(f)
        GT = dual_group(f, G)
        gp = gabrielov_prime(transpose(f)).gamma_prime
        data = gabrielov_from_gamma(gp, GT)
        phi = equivariant_char_poly(transpose(f), GT)
        assert data.milnor == G.order * (sum(canonical_weights(f).q) - 1) + phi.degree


def test_rejects_non_sl_group():
    f = parse_polynomial("x^2+y^3+z^5")
    G = g0_group(f)  # age of g0 is 31/30, not special linear
    with pytest.raises(NotSL):
        gabrielov(f, G)


def test_rejects_group_moving_cusp_monomials():
    f5 = parse_polynomial("x^5+y^5+z^5")
    G = group_from_generators(f5, [(F(1, 5), F(3, 5), F(1, 5))])
    with pytest.raises(NotSymmetryOfCusp):
        gabrielov_from_gamma((3, 3, 3), G)  # 3 * 1/5 is not integral

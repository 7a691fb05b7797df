"""Cyclotomic vectors, Poincare series, traces, characteristic polynomials."""

from fractions import Fraction as F

import pytest

from lgmirror import (
    CycloVector,
    NotGraded,
    NotPolynomial,
    NotSL,
    char_poly_qh,
    cyclo_expand,
    equivariant_char_poly,
    g0_group,
    gfin,
    group_from_generators,
    lefschetz_numbers,
    parse_polynomial,
    poincare_series,
    psi,
    psi_closed_form,
    trivial_group,
    verify_poincare_theorem,
)


def brute_poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def vec(entries):
    return CycloVector.from_entries(entries)


# ---------------------------------------------------------------------------
# cyclotomic vector arithmetic

def test_cyclo_ops():
    a = vec({2: 1, 1: -1})
    b = vec({3: 1})
    assert (a * b).entries == {2: 1, 1: -1, 3: 1}
    assert (a * b) / b == a
    assert a == vec({1: -1, 2: 1})
    assert vec({12: 1, 1: -1}).degree == 11


def test_cyclo_expand_examples():
    assert cyclo_expand(vec({2: 1, 1: -1})) == (1, 1)
    assert cyclo_expand(vec({1: 2})) == (1, -2, 1)


def test_cyclo_expand_cyclotomic_product():
    # (1-t^12)(1-t^3)(1-t^2) / ((1-t)(1-t^6)(1-t^4)) as plain polynomials
    v = vec({12: 1, 3: 1, 2: 1, 1: -1, 6: -1, 4: -1})
    got = cyclo_expand(v)
    num = [1]
    for m in (12, 3, 2):
        factor = [0] * (m + 1)
        factor[0], factor[m] = 1, -1
        num = brute_poly_mul(num, factor)
    # brute force: multiply expansion back by the denominator factors
    back = list(got)
    for m in (1, 6, 4):
        factor = [0] * (m + 1)
        factor[0], factor[m] = 1, -1
        back = brute_poly_mul(back, factor)
    assert back == num


def test_cyclo_expand_rejects_non_polynomial():
    with pytest.raises(NotPolynomial):
        cyclo_expand(vec({1: -1}))
    with pytest.raises(NotPolynomial):
        cyclo_expand(vec({3: 1, 2: -1}))


# ---------------------------------------------------------------------------
# Poincare series and psi

def test_poincare_series_values():
    f = parse_polynomial("x^2+y^3+z^4")
    assert poincare_series(f, g0_group(f)).entries == {12: 1, 6: -1, 4: -1, 3: -1}
    fp = parse_polynomial("x^5+y^5+z^5")
    assert poincare_series(fp, g0_group(fp)).entries == {5: 1, 1: -3}
    fs = parse_polynomial("x^2+x*y^3+y*z^5")
    assert poincare_series(fs, g0_group(fs)).entries == {6: 1, 3: -1, 1: -2}


def test_psi_values():
    f = parse_polynomial("x^2+y^3+z^4")
    assert psi(f, g0_group(f)).entries == {12: 1, 3: 1, 2: 1, 1: -1, 6: -1, 4: -1}
    fs = parse_polynomial("x^2+x*y^3+y*z^5")
    assert psi(fs, g0_group(fs)).entries == {6: 1, 3: -1, 1: -4}
    f8 = parse_polynomial("x^2+y^3+z^5")
    assert psi(f8, gfin(f8)).entries == {
        30: 1, 5: 1, 3: 1, 2: 1, 15: -1, 10: -1, 6: -1, 1: -1}


def test_psi_closed_form_matches_closed_forms():
    f = parse_polynomial("x^2+y^3+z^4")
    assert psi_closed_form(f).entries == {12: 1, 3: 1, 2: 1, 1: -1, 6: -1, 4: -1}
    fs = parse_polynomial("x^2+x*y^3+y*z^5")
    assert psi_closed_form(fs).entries == {6: 1, 3: -1, 1: -4}
    fl = parse_polynomial("x^3*y+y^3*z+z^3*x")
    assert psi_closed_form(fl).entries == {4: 1, 1: -7}


def test_psi_expands_to_polynomial_when_genus_zero(corpus_fs):
    from lgmirror import genus
    count = 0
    for f in corpus_fs[::9]:
        G0 = g0_group(f)
        if genus(f, G0) == 0:
            coeffs = cyclo_expand(psi(f, G0))
            assert all(isinstance(c, int) for c in coeffs)
            count += 1
    assert count > 10


# ---------------------------------------------------------------------------
# monodromy traces

def test_lefschetz_trivial_group():
    f = parse_polynomial("x^2+y^2+z^2")
    assert lefschetz_numbers(f, trivial_group(f)) == (-1, 1)  # (L_1, L_2), d~ = 2


def test_lefschetz_e6_sector_values():
    f = parse_polynomial("x^2+y^3+z^4")
    G = group_from_generators(f, [(F(1, 2), 0, F(1, 2))])
    table = lefschetz_numbers(f, G)
    assert len(table) == 12
    assert table[0] == -1  # L_1
    assert table[11] == 6  # L_12


def test_lefschetz_rejects_non_sl():
    f = parse_polynomial("x^2+y^3+z^5")
    with pytest.raises(NotSL):
        lefschetz_numbers(f, g0_group(f))


def test_equivariant_char_poly_values():
    f = parse_polynomial("x^2+y^3+z^4")
    G = group_from_generators(f, [(F(1, 2), 0, F(1, 2))])
    assert equivariant_char_poly(f, G).entries == {
        12: 1, 3: 1, 2: 1, 1: -1, 6: -1, 4: -1}
    q = parse_polynomial("x^2+y^2+z^2")
    Gq = group_from_generators(q, [(0, F(1, 2), F(1, 2))])
    assert equivariant_char_poly(q, Gq).entries == {2: 2, 1: -2}


def test_equivariant_trivial_equals_qh():
    for text in ["x^2+y^3+z^4", "x^2+x*y^3+y*z^5", "x^2*y+y^3*z+z^4*x"]:
        f = parse_polynomial(text)
        _, direct = char_poly_qh(f)
        assert direct == equivariant_char_poly(f, trivial_group(f))


def test_char_poly_qh_values():
    f = parse_polynomial("x^2+y^2+z^2")
    exps, v = char_poly_qh(f)
    assert exps == (F(3, 2),)
    assert v.entries == {2: 1, 1: -1}

    f2k = parse_polynomial("x^2+y^2+z^6")
    _, v2k = char_poly_qh(f2k)
    assert v2k.entries == {6: 1, 1: -1}

    f8 = parse_polynomial("x^2+y^3+z^5")
    exps8, v8 = char_poly_qh(f8)
    assert v8.entries == {30: 1, 5: 1, 3: 1, 2: 1, 15: -1, 10: -1, 6: -1, 1: -1}
    assert v8.degree == 8 and len(exps8) == 8


def test_char_poly_qh_degree_is_milnor_number(corpus_fs):
    for f in corpus_fs[::15]:
        red = __import__("lgmirror").reduced_weights(f)
        mu = 1
        for w in red.w:
            mu *= F(red.d - w, w)
        exps, v = char_poly_qh(f)
        assert mu.denominator == 1
        assert v.degree == int(mu) == len(exps)


def test_lefschetz_table_consistency():
    f = parse_polynomial("x^2+y^3+z^4")
    G = group_from_generators(f, [(F(1, 2), 0, F(1, 2))])
    table = lefschetz_numbers(f, G)
    vec_ = equivariant_char_poly(f, G)
    from math import gcd
    dt = len(table)  # table[k - 1] = L_k
    for k in range(1, dt + 1):
        assert table[k - 1] == table[gcd(k, dt) - 1]
    assert table[dt - 1] == vec_.degree


# ---------------------------------------------------------------------------
# the Poincare series identity

def test_psi_at_maximal_group_is_transpose_charpoly(corpus_fs):
    # the specialization at the maximal symmetry group: whenever the
    # transpose has reduced canonical weights, psi(f, G^fin) equals the plain
    # monodromy characteristic polynomial of the transpose
    from lgmirror import cf, transpose
    checked = 0
    for f in corpus_fs[::3]:
        ft = transpose(f)
        if cf(ft) != 1:
            continue
        checked += 1
        _, right = char_poly_qh(ft)
        assert psi(f, gfin(f)) == right, f
    assert checked > 100


def test_verify_poincare_examples():
    assert verify_poincare_theorem(parse_polynomial("x^2+y^3+z^4")).status == "equal"
    assert verify_poincare_theorem(parse_polynomial("x^2+y^3+z^5")).status == "equal"
    v = verify_poincare_theorem(parse_polynomial("x^2+x*y^3+y*z^5"))
    assert v.status == "not_applicable"
    assert "cf" in (v.reason or "")


def test_verify_poincare_genus_hypothesis():
    v = verify_poincare_theorem(parse_polynomial("x^3*y+y^3*z+z^3*x"))
    assert v.status == "not_applicable"
    assert "genus" in (v.reason or "")


def test_poincare_always_graded_above_g0(corpus_fs):
    # for G_0 <= G <= G^fin the index divides cf, which divides every weight,
    # so the rescaled system is always integral
    from lgmirror import canonical_weights, subgroups_containing_g0
    for f in corpus_fs[::21]:
        ws = canonical_weights(f)
        for G in subgroups_containing_g0(f):
            c = gfin(f).order // G.order
            assert ws.cf % c == 0
            poincare_series(f, G)  # must not raise


def test_poincare_rejects_ungraded_index():
    # outside the precondition (trivial group), the index is the full degree
    # and fails to divide the weights
    f = parse_polynomial("x^2+y^3+z^5")
    with pytest.raises(NotGraded):
        poincare_series(f, trivial_group(f))

"""Dolgachev numbers, orbit invariants, genus, stringy Euler number."""

import itertools

import pytest

from lgmirror import (
    NotBrieskornPham,
    NotContainingG0,
    count_m,
    curve_invariants,
    dolgachev,
    dolgachev_gfin,
    genus,
    gfin,
    g0_group,
    orbit_invariants,
    parse_group_spec,
    parse_polynomial,
    reduced_weights,
    trivial_group,
)
from genus_oracle import genus_bp_oracle


def brute_count_m(a, b, h):
    return sum(1 for k in range(h + 1) for l in range(h + 1) if k * a + l * b == h)


def test_dolgachev_gfin_values():
    assert dolgachev_gfin(parse_polynomial("x^2+y^3+z^6")) == (2, 3, 6)
    assert dolgachev_gfin(parse_polynomial("x^2+x*y^3+y*z^5")) == (5, 5, 5)
    assert dolgachev_gfin(parse_polynomial("x^3*y+y^3*z+z^3*x")) == (7, 7, 7)


def test_dolgachev_j30():
    f = parse_polynomial("x^6*y+y^3+z^2")
    assert dolgachev(f, g0_group(f)).multiset == (2, 2, 2, 3)


def test_dolgachev_maximal_group_drops_ones():
    f = parse_polynomial("x^4+x*y+y*z^3")  # alpha' contains a 1
    data = dolgachev(f, gfin(f))
    assert data.multiset == tuple(sorted(a for a in dolgachev_gfin(f) if a > 1))


def test_dolgachev_intermediate_group():
    f = parse_polynomial("x^2+y^3+z^6")
    G = parse_group_spec(f, "index:3")  # |G/G_0| = 2
    assert dolgachev(f, G).multiset == (2, 2, 2, 2)


def test_dolgachev_needs_g0():
    f = parse_polynomial("x^2+y^3+z^6")
    with pytest.raises(NotContainingG0):
        dolgachev(f, trivial_group(f))


def test_count_m_examples():
    assert count_m(2, 6, 18) == 4
    assert count_m(4, 6, 24) == 3
    assert count_m(1, 1, 7) == 8


def test_count_m_brute_force_small():
    for a, b, h in [(2, 6, 18), (3, 5, 17), (4, 6, 24), (7, 11, 60)]:
        assert count_m(a, b, h) == brute_count_m(a, b, h)


def test_orbit_invariants_examples():
    assert orbit_invariants(reduced_weights(parse_polynomial("x^6*y+y^3+z^2"))) \
        == (2, 2, 2, 3)
    assert orbit_invariants(reduced_weights(parse_polynomial("x^2+x*y^3+y*z^5"))) == ()
    assert orbit_invariants(reduced_weights(parse_polynomial("x^2+y^3+z^4"))) \
        == (2, 3, 3)


def test_genus_values():
    f = parse_polynomial("x^2+x*y^3+y*z^5")
    assert genus(f, g0_group(f)) == 2
    e8 = parse_polynomial("x^2+y^3+z^6")
    assert genus(e8, g0_group(e8)) == 1
    e6 = parse_polynomial("x^2+y^3+z^4")
    assert genus(e6, gfin(e6)) == 0


def test_genus_bp_oracle_values():
    f3 = parse_polynomial("x^3+y^3+z^3")
    assert genus_bp_oracle(f3, g0_group(f3)) == 1
    e8 = parse_polynomial("x^2+y^3+z^6")
    assert genus_bp_oracle(e8, g0_group(e8)) == 1
    e8strict = parse_polynomial("x^2+y^3+z^5")
    assert genus_bp_oracle(e8strict, g0_group(e8strict)) == 0


def test_genus_bp_oracle_rejects_chain():
    f = parse_polynomial("x^2+x*y^3+y*z^5")
    with pytest.raises(NotBrieskornPham):
        genus_bp_oracle(f, g0_group(f))


def test_stringy_euler_values():
    e8 = parse_polynomial("x^2+y^3+z^6")
    assert curve_invariants(e8, parse_group_spec(e8, "index:3")).e_st == 6
    seidel = parse_polynomial("x^2+x*y^3+y*z^5")
    assert curve_invariants(seidel, g0_group(seidel)).e_st == -2
    e6 = parse_polynomial("x^2+y^3+z^4")
    assert curve_invariants(e6, g0_group(e6)).e_st == 7


def test_dolgachev_entries_at_least_two(corpus_fs):
    for f in corpus_fs[::13]:
        data = dolgachev(f, g0_group(f))
        assert all(a >= 2 for a in data.multiset)
        assert len(dolgachev(f, gfin(f)).multiset) <= 3


def test_dolgachev_invariant_under_variable_permutation():
    base = parse_polynomial("x^2+z*y^2+y*z^4")
    permuted = parse_polynomial("y^2+z*x^2+x*z^4")  # swap x <-> y
    a = dolgachev(base, g0_group(base)).multiset
    b = dolgachev(permuted, g0_group(permuted)).multiset
    assert a == b


def test_genus_matches_bp_oracle_small():
    from lgmirror import subgroups_containing_g0
    for p in itertools.combinations_with_replacement(range(2, 5), 3):
        f = parse_polynomial(f"x^{p[0]}+y^{p[1]}+z^{p[2]}")
        for G in subgroups_containing_g0(f):
            assert genus(f, G) == genus_bp_oracle(f, G)

"""Diagonal symmetry groups, duality, ages, junior counts."""

from fractions import Fraction as F
from math import gcd

import pytest

from lgmirror import (
    DiagonalGroup,
    NotASubgroup,
    NotASymmetry,
    NotSymmetryOfCusp,
    canonical_weights,
    cf,
    contains_g0,
    det,
    dual_group,
    format_group,
    g0_group,
    gfin,
    group_from_generators,
    is_sl_subgroup,
    junior_count,
    lefschetz_numbers,
    parse_group_spec,
    parse_polynomial,
    poincare_series,
    subgroup_fixing_coordinate,
    subgroups_containing_g0,
    transpose,
    trivial_group,
)
from lgmirror.cusp_side import gabrielov_from_gamma

SAMPLE = [
    "x^2+y^3+z^4",
    "x^2+y^3+z^6",
    "x^2+x*y^3+y*z^5",
    "x^3*y+y^3*z+z^3*x",
    "x^5+y^5+z^5",
    "x^2+z*y^2+y*z^3",
    "x^6*y+y^3+z^2",
    "x^2+x*y^4+y*z^2",
]


def test_gfin_order():
    assert gfin(parse_polynomial("x^2+y^3+z^4")).order == 24


def _order(u, d):
    """Order of the element u / d: d // gcd(d, u_1, ..., u_n)."""
    return d // gcd(d, *u)


def test_gfin_contains_identity():
    G = gfin(parse_polynomial("x^2+y^3+z^4"))
    assert (0, 0, 0) in G.rows


def test_gfin_loop_cyclic():
    G = gfin(parse_polynomial("x^3*y+y^3*z+z^3*x"))
    assert G.order == 28
    assert any(_order(u, G.d) == 28 for u in G.rows)


def test_g0_values():
    for text, spec in [("x^2+y^3+z^6", "1/6(3,2,1)"), ("x^2+x*y^3+y*z^5", "1/6(3,1,1)")]:
        f = parse_polynomial(text)
        assert g0_group(f) == parse_group_spec(f, spec)
        assert format_group(g0_group(f)) == spec


def test_age_of_g0_is_weight_sum():
    # g_0 = (q_1, ..., q_n) mod 1 lies in G_0 as the row (w_i mod d); its age
    # sum(u) / d is the weight sum
    for text in SAMPLE:
        f = parse_polynomial(text)
        ws = canonical_weights(f)
        G0 = g0_group(f)
        u = tuple(w * G0.d // ws.d % G0.d for w in ws.w)
        assert u in G0.rows
        assert F(sum(u), G0.d) == sum(ws.q)


def test_group_from_generators_trivial():
    G = group_from_generators(parse_polynomial("x^2+y^3+z^4"), [])
    assert G.order == 1


def test_group_from_generators_seidel_dual():
    ft = parse_polynomial("x^2*y+y^3*z+z^5")
    G = group_from_generators(ft, [(F(1, 5), F(3, 5), F(1, 5))])
    assert G.order == 5


def test_group_from_generators_klein():
    f = parse_polynomial("x^2+y^2+z^6")  # 2k = 6
    G = group_from_generators(f, [(F(1, 2), F(1, 2), 0), (F(1, 2), 0, F(1, 2))])
    assert G.order == 4
    assert is_sl_subgroup(G)


def test_group_from_generators_rejects_non_symmetry():
    with pytest.raises(NotASymmetry):
        group_from_generators(parse_polynomial("x^2+y^3+z^4"), [(F(1, 5), 0, 0)])


@pytest.mark.parametrize("spec", ["1/4(2,0,6)", "1/2(-1,0,1)", "1/6(3,0,-15)"])
def test_literals_are_read_mod_one(spec):
    f = parse_polynomial("x^2+y^3+z^6")
    G = parse_group_spec(f, spec)
    assert G == parse_group_spec(f, "1/2(1,0,1)")
    assert G.order == 2


def test_dual_group_values():
    f = parse_polynomial("x^2+x*y^3+y*z^5")
    GT = dual_group(f, g0_group(f))
    assert GT.rows == group_from_generators(
        transpose(f), [(F(1, 5), F(3, 5), F(1, 5))]).rows

    fl = parse_polynomial("x^3*y+y^3*z+z^3*x")
    GTl = dual_group(fl, g0_group(fl))
    assert GTl.rows == group_from_generators(
        transpose(fl), [(F(1, 7), F(2, 7), F(4, 7))]).rows


def test_dual_of_maximal_group_is_trivial():
    f = parse_polynomial("x^2+y^3+z^4")
    assert dual_group(f, gfin(f)).order == 1


def test_junior_count():
    f5 = parse_polynomial("x^2*y+y^3*z+z^5")
    assert junior_count(group_from_generators(f5, [(F(1, 5), F(3, 5), F(1, 5))])) == 2
    assert junior_count(trivial_group(parse_polynomial("x^2+y^3+z^4"))) == 0
    f7 = parse_polynomial("z*x^3+x*y^3+y*z^3")
    assert junior_count(group_from_generators(f7, [(F(1, 7), F(2, 7), F(4, 7))])) == 3


def test_subgroup_fixing_coordinate():
    f = parse_polynomial("x^2+y^3+z^4")
    G = group_from_generators(f, [(F(1, 2), 0, F(1, 2))])
    assert subgroup_fixing_coordinate(G, 1).order == 2
    assert subgroup_fixing_coordinate(G, 0).order == 1
    assert subgroup_fixing_coordinate(G, 2).order == 1
    assert subgroup_fixing_coordinate(trivial_group(f), 0).order == 1


def test_in_sl():
    f6 = parse_polynomial("x^2+y^3+z^6")
    assert is_sl_subgroup(group_from_generators(f6, [(F(1, 2), 0, F(1, 2))]))
    assert not is_sl_subgroup(g0_group(parse_polynomial("x^2+y^3+z^5")))  # sum 31/30


def test_index_group_spec():
    f = parse_polynomial("x^2+y^3+z^6")
    G2 = parse_group_spec(f, "index:3")
    G3 = parse_group_spec(f, "index:2")
    assert (G2.order, G3.order) == (12, 18)
    assert contains_g0(G2) and contains_g0(G3)


def test_subgroup_enumeration_bounds():
    f = parse_polynomial("x^2+y^3+z^6")
    groups = subgroups_containing_g0(f)
    assert [G.order for G in groups] == [6, 12, 18, 36]
    for G in groups:
        assert contains_g0(G)


# ---------------------------------------------------------------------------
# structural invariants over a representative sample

def test_duality_invariants():
    for text in SAMPLE:
        f = parse_polynomial(text)
        d = abs(det(f))
        for G in subgroups_containing_g0(f):
            GT = dual_group(f, G)
            assert G.order * GT.order == d
            assert is_sl_subgroup(GT)
            back = dual_group(transpose(f), GT)
            assert back.rows == G.rows
        assert dual_group(f, g0_group(f)).order == cf(f)


def test_dual_of_sl_group_contains_g0():
    f = parse_polynomial("x^5+y^5+z^5")
    G = parse_group_spec(f, "1/5(1,1,3)")
    assert is_sl_subgroup(G)
    assert contains_g0(dual_group(f, G))


def test_age_inverse_identity():
    # age(u) = sum(u) / d; u and -u have phases a / d and (d - a) / d except
    # at the fixed coordinates (the zero entries)
    for text in SAMPLE:
        f = parse_polynomial(text)
        G = gfin(f)
        for u in G.rows:
            minus = tuple(-a % G.d for a in u)
            assert F(sum(u), G.d) + F(sum(minus), G.d) == f.n - u.count(0)


def test_sl3_fixed_locus_properties():
    for text in SAMPLE:
        f = parse_polynomial(text)
        GT = dual_group(f, g0_group(f))
        free = [u for u in GT.rows if u.count(0) == 0]
        assert len(free) == 2 * junior_count(GT)
        for u in GT.rows:
            if any(u):
                assert u.count(0) in (0, 1)


def test_chain_and_loop_duals_are_cyclic():
    # pure chains: dual of the grading group is cyclic of order cf and has a
    # generator multiplying the chain head by e[1/cf]
    f = parse_polynomial("x^2+x*y^3+y*z^5")  # chain z -> y -> x, cf = 5
    GT = dual_group(f, g0_group(f))
    c = cf(f)
    gens = [u for u in GT.rows if _order(u, GT.d) == c]
    assert gens, "dual group not cyclic"
    head = 2  # variable z heads the chain
    assert any(F(u[head], GT.d) == F(1, c) and _order(u, GT.d) == c for u in GT.rows)

    # pure loops: for each coordinate some generator scales it by e[1/cf]
    fl = parse_polynomial("x^3*y+y^3*z+z^3*x")
    GTl = dual_group(fl, g0_group(fl))
    cl = cf(fl)
    assert any(_order(u, GTl.d) == cl for u in GTl.rows)
    for i in range(3):
        assert any(F(u[i], GTl.d) == F(1, cl) and _order(u, GTl.d) == cl
                   for u in GTl.rows)


# ---------------------------------------------------------------------------
# groups that are not subgroups of the symmetry group at hand

def test_group_of_another_polynomial_is_refused():
    f = parse_polynomial("x^2+y^3+z^6")
    other = g0_group(parse_polynomial("x^5+y^5+z^5"))
    for fn in (dual_group, lefschetz_numbers):
        with pytest.raises(NotASubgroup, match="^group context does not match the polynomial$"):
            fn(f, other)
    with pytest.raises(NotASubgroup, match="^group order does not divide"):
        poincare_series(f, other)  # |G| = 5 does not divide |G^fin| = 36


def test_hand_built_group_fails_the_generator_check():
    # basis row (1, 35, 0) mod 36: in SL, but x^2 picks up the phase 2/36
    f = parse_polynomial("x^2+y^3+z^6")
    G = DiagonalGroup(context=f, basis=((1, 35, 0), (0, 36, 0), (0, 0, 36)), d=36, order=36)
    with pytest.raises(NotASubgroup,
                       match=r"^\(1/36, 35/36, 0\) is not a diagonal symmetry of the polynomial$"):
        dual_group(f, G)
    with pytest.raises(NotASubgroup,
                       match=r"^\(1/36, 35/36, 0\) is not a symmetry of the polynomial$"):
        lefschetz_numbers(f, G)
    with pytest.raises(NotSymmetryOfCusp,
                       match=r"^\(1/36, 35/36, 0\) does not fix the monomial with exponent 2$"):
        gabrielov_from_gamma((2, 3, 6), G)


def test_index_without_a_unique_subgroup_is_refused():
    f = parse_polynomial("x^2+y^3+z^6")  # cf 6: indices 1, 2, 3, 6
    with pytest.raises(NotASubgroup, match="^index 5: found 0 subgroups, need exactly 1$"):
        parse_group_spec(f, "index:5")
    f4 = parse_polynomial("x^4+y^4+z^4")
    with pytest.raises(NotASubgroup, match="^index 4: found 7 subgroups, need exactly 1$"):
        parse_group_spec(f4, "index:4")

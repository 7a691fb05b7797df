"""The integer group core agrees with the enumerative oracle of group_oracle.py.

For every member of the corpus enumerate_polynomials(6, 150), and for every
catalog polynomial and its transpose, the groups G^fin, G_0, every group
between them (in the same order) and the Krawitz dual of each have the same
elements, order and printed generators as the closures, brute-force dual
walks and greedy formatter of the oracle.  The coordinate stabiliser orders
and junior counts of the duals are checked against the enumerated elements.
"""

import pytest

import group_oracle as oracle
from lgmirror import (
    builtin_catalog,
    dual_group,
    enumerate_polynomials,
    format_group,
    g0_group,
    gfin,
    junior_count,
    parse_group_spec,
    parse_polynomial,
    subgroups_containing_g0,
    transpose,
)
from lgmirror.symmetry import _coordinate_index


def _same(G, want, what):
    assert G.order == want.order, what
    assert G.rows == tuple(want.elements), what
    assert format_group(G) == oracle.format_group(want), what


def _check_dual(f, G, want, what):
    GT, want_t = dual_group(f, G), oracle.dual_group(f, want)
    _same(GT, want_t, f"{what}: dual")
    for i in range(f.n):
        assert GT.order // _coordinate_index(GT, i) == sum(
            1 for u in want_t.elements if u[i] == 0), (what, i)
    d = want_t.d
    assert junior_count(GT) == sum(
        1 for u in want_t.elements if all(u) and sum(u) == d), what


def _check_polynomial(f):
    name = str(f)
    _same(gfin(f), oracle.gfin_group(f), f"{name}: G^fin")
    _same(g0_group(f), oracle.g0_group(f), f"{name}: G_0")
    groups, wants = subgroups_containing_g0(f), oracle.subgroups_containing_g0(f)
    assert len(groups) == len(wants), name
    for G, want in zip(groups, wants):
        _same(G, want, f"{name}: {format_group(G)}")
        _check_dual(f, G, want, f"{name}: {format_group(G)}")


def test_corpus_groups_match_oracle():
    fs = enumerate_polynomials(6, 150)
    assert len(fs) > 400
    for f in fs:
        _check_polynomial(f)


def test_catalog_groups_match_oracle():
    polys = {}
    for entry in builtin_catalog():
        f = parse_polynomial(entry.polynomial)
        polys.update(dict.fromkeys((f, transpose(f))))
        # the row's own group, closed by the oracle from the core's generators
        G = parse_group_spec(f, entry.group_spec)
        gens = [tuple(a % G.d for a in b) for b in G.basis]
        want = oracle.OracleGroup(G.d, f.n, gens)
        _same(G, want, entry.id)
        _check_dual(f, G, want, entry.id)
    for f in polys:
        _check_polynomial(f)


def test_rows_list_every_element_once():
    f = parse_polynomial("x^2+x*y^3+y*z^5")
    for G in subgroups_containing_g0(f):
        rows = set(G.rows)
        assert list(G.rows) == sorted(rows)
        assert len(rows) == G.order
        assert all(tuple((a + b) % G.d for a, b in zip(u, v)) in rows
                   for u in G.rows for v in G.rows)


@pytest.mark.parametrize("text", ["x^2+y^3+z^6", "x^3*y+y^3*z+z^3*x", "x^4+y^4+z^4"])
def test_groups_compare_by_basis(text):
    f = parse_polynomial(text)
    G0 = g0_group(f)
    GT = dual_group(f, G0)
    assert dual_group(transpose(f), GT) == G0
    assert hash(dual_group(transpose(f), GT)) == hash(G0)

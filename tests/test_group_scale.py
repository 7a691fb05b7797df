"""Groups of order up to about 10^6, handled through their bases alone.

An enumerating group core needs time and memory in proportion to |det E|
for G^fin, G_0 and every Krawitz dual; these inputs were out of its reach.
Here the orders, the double dual, the genus and the Dolgachev numbers of
(f, G_0) come from the integer bases, and none of the large groups lists
its elements.  The expected genus and Dolgachev numbers are computed
independently, by the Fermat-type monomial count and the C*-orbit
invariants.  The trace kernel of the cusp side, (f^T, G_0^T), is compared
with the element-summing loop at a few powers k; for x^16+x*y^15+y*z^15
(|G_0^T| = 225) that loop needs about 500 s for the whole table.
"""

from dataclasses import replace

import pytest

from lgmirror import (
    cf,
    char_poly_qh,
    det,
    dolgachev,
    dual_group,
    equivariant_char_poly,
    g0_group,
    genus,
    gfin,
    lefschetz_numbers,
    orbit_invariants,
    parse_polynomial,
    reduced_weights,
    transpose,
    trivial_group,
)
from genus_oracle import genus_bp_oracle
from trace_oracle import oracle_trace, sample_powers


@pytest.mark.parametrize("text, det_e, cf_f, genus_f", [
    ("x^99+y^100+z^101", 999900, 1, 0),  # G_0 = G^fin
    ("x^30+y^40+z^50", 60000, 100, 36),
])
def test_large_det_groups(text, det_e, cf_f, genus_f):
    f = parse_polynomial(text)
    d = abs(det(f))
    assert (d, cf(f)) == (det_e, cf_f)
    G0 = g0_group(f)
    assert gfin(f).order == d
    assert G0.order == d // cf(f)
    GT = dual_group(f, G0)
    assert GT.order == cf(f)
    assert dual_group(transpose(f), GT) == G0
    assert genus(f, G0) == genus_f == genus_bp_oracle(f, G0)
    assert dolgachev(f, G0).multiset == orbit_invariants(reduced_weights(f))
    for G in (gfin(f), G0):
        assert "rows" not in vars(G) and "elements" not in vars(G)


@pytest.mark.parametrize("text, order_gt", [
    ("x^99+y^100+z^101", 1),
    ("x^30+y^40+z^50", 100),
    ("x^16+x*y^15+y*z^15", 225),
])
def test_trace_kernel_lists_no_elements(text, order_gt):
    f = parse_polynomial(text)
    ft = transpose(f)
    GT = dual_group(f, g0_group(f))
    fresh = replace(GT)  # an equal group that has listed no elements yet
    traces = lefschetz_numbers(ft, fresh)
    phi = equivariant_char_poly(ft, fresh)
    assert "rows" not in vars(fresh)
    assert GT.order == order_gt
    assert len(traces) == reduced_weights(ft).d and traces[-1] == phi.degree
    for k in sample_powers(len(traces)):
        assert oracle_trace(ft, GT, k) == traces[k - 1], k
    for G in (gfin(f), g0_group(f)):
        assert "rows" not in vars(G) and "elements" not in vars(G)


def test_char_poly_qh_at_large_degree():
    # d~ = 70520: the exponent expansion against the closed form
    f = parse_polynomial("x^40+y^41+z^43")
    exponents, vec = char_poly_qh(f)
    assert len(exponents) == 39 * 40 * 42
    assert vec == equivariant_char_poly(f, trivial_group(f))

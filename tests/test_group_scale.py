"""Groups of order up to about 10^6, handled through their bases alone.

An enumerating group core needs time and memory in proportion to |det E|
for G^fin, G_0 and every Krawitz dual; these inputs were out of its reach.
Here the orders, the double dual, the genus and the Dolgachev numbers of
(f, G_0) come from the integer bases, and none of the large groups lists
its elements.  The expected genus and Dolgachev numbers are computed
independently, by the Fermat-type monomial count and the C*-orbit
invariants.  (``analyze`` is not run: its trace kernel is not in scope.)
"""

import pytest

from lgmirror import (
    cf,
    det,
    dolgachev,
    dual_group,
    g0_group,
    genus,
    gfin,
    orbit_invariants,
    parse_polynomial,
    reduced_weights,
    transpose,
)
from genus_oracle import genus_bp_oracle


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

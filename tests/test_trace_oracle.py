"""The closed-form trace kernel against the sector-summed loop it replaced.

``trace_oracle`` sums every trace over all pairs of group elements.
``lefschetz_numbers`` and ``equivariant_char_poly`` must equal it on every
(f^T, G^T) pair of corpus(120, 6) and on the trivial group of every catalog
polynomial; there ``char_poly_qh``, which expands the exponents and never
touches a group, must equal it too.  The full table costs d~ |G|^2 terms, so
above COST_CAP only the traces at :func:`sample_powers` are compared and the
cyclotomic form is inverted from the closed-form table.
"""

from lgmirror import (
    builtin_catalog,
    char_poly_qh,
    dual_group,
    enumerate_corpus,
    equivariant_char_poly,
    format_polynomial,
    lefschetz_numbers,
    parse_polynomial,
    transpose,
    trivial_group,
)
import trace_oracle
from trace_oracle import invert_traces, oracle_trace, sample_powers, trace_cost

COST_CAP = 20_000


def agrees_with_loop(f, G):
    """Compare both outputs of the kernel with the loop; return (agrees, phi)."""
    traces = lefschetz_numbers(f, G)
    phi = equivariant_char_poly(f, G)
    if trace_cost(f, G) <= COST_CAP:
        want = trace_oracle.lefschetz_numbers(f, G)
        return traces == want and phi == invert_traces(want), phi
    same = all(oracle_trace(f, G, k) == traces[k - 1] for k in sample_powers(len(traces)))
    return same and phi == invert_traces(traces), phi


def test_corpus_duals_match_the_loop():
    pairs = list(enumerate_corpus(120, 6))
    assert len(pairs) == 828
    failures = []
    for f, G in pairs:
        ft, GT = transpose(f), dual_group(f, G)
        if not agrees_with_loop(ft, GT)[0]:
            failures.append(f"{format_polynomial(ft)} |G^T| = {GT.order}")
    assert failures == []


def test_catalog_trivial_groups_match_the_loop():
    failures = []
    for entry in builtin_catalog():
        f = parse_polynomial(entry.polynomial)
        same, phi = agrees_with_loop(f, trivial_group(f))
        if not same or char_poly_qh(f)[1] != phi:
            failures.append(entry.id)
    assert failures == []

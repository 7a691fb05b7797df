"""Independent genus count for Fermat sums (test-only oracle).

The package computes the genus of (f, G) as the junior count of the Krawitz
dual.  This oracle counts G-invariant top forms over a monomial basis of the
Jacobian ring instead, which is direct for f = x^p1 + y^p2 + z^p3.
"""

from lgmirror import NotBrieskornPham, NotContainingG0, contains_g0


def genus_bp_oracle(f, G) -> int:
    """Independent genus count for Fermat sums x^p1 + y^p2 + z^p3.

    Counts exponent triples (r_1,r_2,r_3), 0 <= r_i <= p_i - 2, whose
    monomial top form has weighted degree one and is G-invariant, i.e.
    sum (r_i+1)/p_i = 1 and sum (r_i+1)*u_i = 0 mod d for every basis row u
    of G (the generator u / d).
    """
    E = f.E
    diag = [0, 0, 0]
    for row in E:
        support = [(j, e) for j, e in enumerate(row) if e != 0]
        if len(support) != 1:
            raise NotBrieskornPham("not a sum of pure powers")
        j, e = support[0]
        diag[j] = e
    p1, p2, p3 = diag
    if not contains_g0(G):
        raise NotContainingG0("oracle needs G containing g_0")
    count = 0
    for r1 in range(p1 - 1):
        for r2 in range(p2 - 1):
            for r3 in range(p3 - 1):
                # degree condition: sum (r_i+1)/p_i = 1, cleared of denominators
                lhs = ((r1 + 1) * p2 * p3 + (r2 + 1) * p1 * p3 + (r3 + 1) * p1 * p2)
                if lhs != p1 * p2 * p3:
                    continue
                invariant = True
                for u in G.basis:
                    chi = (r1 + 1) * u[0] + (r2 + 1) * u[1] + (r3 + 1) * u[2]
                    if chi % G.d:
                        invariant = False
                        break
                if invariant:
                    count += 1
    return count

"""Acceptance suite: one test per criterion, exact equality throughout.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Criterion 5a checks the Poincare-series side of the mirror.  The
hypothesis of ``verify_poincare_theorem``, cf(f) = cf(f^T) and genus 0, is
known to be insufficient for psi(f, G_0) = phi(f^T, G_0^T): the identity
fails on 40 of the 746 corpus members it admits, A_2 = x^2+y^2+z^3 among
them.  5a therefore asserts phi against the exponents of (f, G_0) on every
member and the identity only where G_0^T is trivial; see
``test_criterion_5a`` and docs/LEDGER.md.
"""

import itertools
from collections import Counter
from fractions import Fraction
from math import gcd

from lgmirror import (
    CycloVector,
    builtin_catalog,
    canonical_weights,
    cf,
    char_poly_qh,
    count_m,
    det,
    dolgachev,
    dual_group,
    equivariant_char_poly,
    format_group,
    format_polynomial,
    g0_group,
    gabrielov,
    gabrielov_prime,
    genus,
    gfin,
    junior_count,
    lefschetz_numbers,
    orbit_invariants,
    parse_group_spec,
    parse_polynomial,
    psi,
    reduced_weights,
    subgroups_containing_g0,
    psi_closed_form,
    transpose,
    trivial_group,
    verify_poincare_theorem,
)
from lgmirror.cusp_side import gabrielov_from_gamma
from genus_oracle import genus_bp_oracle


def report(n, label, failures, total):
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {n} [{status}] {label}: {total} checks, "
          f"{len(failures)} failures")
    return failures


def test_criterion_1_spherical_rows():
    """Spherical classification rows: |G_0^T| and both Gabrielov columns."""
    failures = []
    total = 0
    for entry in builtin_catalog():
        if entry.kind != "spherical":
            continue
        ft = parse_polynomial(entry.polynomial)
        f = transpose(ft)
        GT = dual_group(f, g0_group(f))
        checks = [
            ("g0t_order", GT.order, entry.expected["g0t_order"][0]),
            ("gamma_prime", sorted(gabrielov_prime(ft).gamma_prime),
             sorted(entry.expected["gamma_prime"][0])),
            ("gabrielov_g0t", sorted(gabrielov(ft, GT).multiset),
             sorted(entry.expected["gabrielov_g0t"][0])),
        ]
        for key, got, want in checks:
            total += 1
            if got != want:
                failures.append(f"{entry.id}/{key}: {got} != {want}")
    assert not report(1, "spherical rows", failures, total), failures


def test_criterion_2_bimodal_heads():
    """Bimodal series heads: the six Dolgachev multisets."""
    failures = []
    total = 0
    for entry in builtin_catalog():
        if entry.kind != "bimodal":
            continue
        f = parse_polynomial(entry.polynomial)
        got = sorted(dolgachev(f, g0_group(f)).multiset)
        want = sorted(entry.expected["dolgachev"][0])
        total += 1
        if got != want:
            failures.append(f"{entry.id}: {got} != {want}")
    assert total == 6
    assert not report(2, "bimodal heads", failures, total), failures


def test_criterion_3_orbit_invariants(corpus_all_exp8):
    """C*-orbit invariants equal the isotropy multiset for every f, exps <= 8."""
    failures = []
    for f in corpus_all_exp8:
        a = orbit_invariants(reduced_weights(f))
        b = dolgachev(f, g0_group(f)).multiset
        if a != b:
            failures.append(f"{format_polynomial(f)}: {a} != {b}")
    assert len(corpus_all_exp8) > 500
    assert not report(3, "orbit invariants vs isotropy", failures,
                      len(corpus_all_exp8)), failures[:5]


def test_criterion_4_mirror_identities(mirror_reports):
    """A = Gamma, g = j, e_st = mu for every (f, G) with |det| <= 300."""
    failures = [f"{rep.polynomial} | {rep.group}"
                for _, _, rep in mirror_reports if not rep.all_ok]
    assert len(mirror_reports) > 2000
    assert not report(4, "mirror identities", failures,
                      len(mirror_reports)), failures[:5]


def _moebius(n):
    result, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    return -result if n > 1 else result


def _jacobian_degrees(w, d):
    """Graded dimensions of the Jacobian ring of a quasihomogeneous isolated
    singularity of weights w and degree d: prod_i (1-u^{d-w_i})/(1-u^{w_i})."""
    coeffs = [1]
    for wi in w:
        out = coeffs + [0] * (d - wi)
        for j, c in enumerate(coeffs):
            out[j + d - wi] -= c
        coeffs = out
    for wi in w:
        # (1 - u^m) q = p  <=>  q_j = p_j + q_{j-m}; the top m terms must vanish
        for j in range(wi, len(coeffs)):
            coeffs[j] += coeffs[j - wi]
        assert not any(coeffs[len(coeffs) - wi:]), "inexact division"
        del coeffs[len(coeffs) - wi:]
    return coeffs


def _exponents_g0(f):
    """Exponents of (f, G_0), from the curve side alone.

    The sector of g in G_0 holds the forms x^m dx_Fix(g), x^m running over a
    monomial basis of the Jacobian ring of f restricted to Fix(g).  That
    restriction is again invertible with the weights of f, so its Poincare
    polynomial gives the weights w of these forms.  g_0 acts on a form of
    weight w by e[w], so the G_0-invariant forms are those of integral w;
    each contributes the exponent age(g) + w - 1.
    """
    ws = canonical_weights(f)
    exponents = []
    G0 = g0_group(f)
    for u in G0.rows:
        fix = [i for i, a in enumerate(u) if a == 0]
        restricted = [row for row in f.E
                      if all(row[j] == 0 for j in range(f.n) if j not in fix)]
        assert len(restricted) == len(fix), "f|Fix(g) is not invertible"
        age = Fraction(sum(u), G0.d)
        shift = sum(ws.w[i] for i in fix)
        for deg, count in enumerate(
                _jacobian_degrees([ws.w[i] for i in fix], ws.d)):
            if count and (deg + shift) % ws.d == 0:
                exponents += [age + (deg + shift) // ws.d - 1] * count
    return exponents


def _exponent_char_poly(exponents):
    """prod_q (t - e[q]) as prod_m (1 - t^m)^{e(m)}, up to sign."""
    residues = Counter(q % 1 for q in exponents)
    e = Counter()
    for n in {r.denominator for r in residues}:
        counts = {residues[Fraction(k, n)] for k in range(n) if gcd(k, n) == 1}
        assert len(counts) == 1, f"order-{n} eigenvalues are not Galois-stable"
        # Phi_n = prod_{m | n} (t^m - 1)^{mu(n/m)}
        for m in range(1, n + 1):
            if n % m == 0:
                e[m] += _moebius(n // m) * next(iter(counts))
    return CycloVector.from_entries(e)


def test_criterion_5a_poincare_identity(corpus_fs):
    """Poincare-series side of the mirror on the members with
    cf(f) = cf(f^T) and genus 0 (those verify_poincare_theorem evaluates).

    * On every member phi(f^T, G_0^T) equals the characteristic polynomial
      of the exponents of (f, G_0), computed here from (f, G_0) alone, as
      the mirror isomorphism predicts (Krawitz, arXiv:0906.0796).
    * Where G_0^T is trivial (|G_0^T| = cf(f) = 1, so G_0 = G^fin),
      psi(f, G_0) = phi(f^T, G_0^T): Arnold's strange duality as extended
      to invertible polynomials by Ebeling-Takahashi (Compositio Math. 147,
      2011).
    * At A_2 = x^2+y^2+z^3 both sides equal their hand-derived values,
      1 + t^2 + t^4 and (1 + t + t^2)^2, and differ.

    cf(f) = cf(f^T) and genus 0 do not imply psi = phi (A_2 is a row of the
    spherical table).  Where cf(f) > 1 nothing in the repo states a
    sufficient hypothesis, so there the identity is counted, not asserted.
    docs/LEDGER.md has the derivation, the failing members and the splits.
    """
    failures = []
    applicable = 0
    theorem = 0
    open_equal, open_differ = 0, 0
    for f in corpus_fs:
        verdict = verify_poincare_theorem(f)
        if not verdict.applicable:
            continue
        applicable += 1
        name = format_polynomial(f)
        if verdict.phi != _exponent_char_poly(_exponents_g0(f)):
            failures.append(f"phi != exponents of (f, G_0): {name}")
        if cf(f) == 1:
            theorem += 1
            if not verdict.equal:
                failures.append(f"psi != phi with G_0^T trivial: {name}")
        elif verdict.equal:
            open_equal += 1
        else:
            open_differ += 1

    # psi = (1-t^6)/(1-t^2) = 1 + t^2 + t^4, phi = ((1-t^3)/(1-t))^2
    a2 = verify_poincare_theorem(parse_polynomial("x^2+y^2+z^3"))
    if (a2.psi, a2.phi, a2.status) != (
            CycloVector.from_entries({6: 1, 2: -1}),
            CycloVector.from_entries({3: 2, 1: -2}), "not_equal"):
        failures.append(f"A_2: psi = {a2.psi}, phi = {a2.phi}, {a2.status}")

    assert applicable > 500
    assert theorem > 500
    print(f"ACCEPTANCE 5a: psi = phi not asserted on {open_equal + open_differ} "
          f"members with cf > 1 ({open_equal} equal, {open_differ} not), "
          "no sufficient hypothesis known; see docs/LEDGER.md")
    assert not report("5a", "Poincare identity", failures,
                      applicable + theorem + 1), (
        f"{len(failures)} failures among {applicable} applicable corpus "
        f"members (e.g. {failures[:3]}); see docs/LEDGER.md")


def test_criterion_5b_psi_closed_form(corpus_fs):
    """psi_closed_form(f) = psi(f, G_0) for every corpus f (all five types hit)."""
    failures = []
    tags = set()
    from lgmirror import classify3
    for f in corpus_fs:
        tags.add(classify3(f).tag)
        if psi_closed_form(f) != psi(f, g0_group(f)):
            failures.append(format_polynomial(f))
    assert tags == {"I", "II", "III", "IV", "V"}
    assert not report("5b", "closed-form psi", failures, len(corpus_fs)), failures[:5]


def test_criterion_6_worked_examples():
    """Named fixtures: Seidel, loop, E8-tilde intermediates, Efimov family."""
    failures = []
    total = 0

    def check(label, got, want):
        nonlocal total
        total += 1
        if got != want:
            failures.append(f"{label}: {got} != {want}")

    f = parse_polynomial("x^2+x*y^3+y*z^5")
    ws = canonical_weights(f)
    check("seidel weights", (ws.w, ws.d), ((15, 5, 5), 30))
    check("seidel cf", ws.cf, 5)
    check("seidel genus", genus(f, g0_group(f)), 2)
    GT = dual_group(f, g0_group(f))
    want = parse_group_spec(transpose(f), "1/5(1,3,1)")
    check("seidel dual", GT.rows, want.rows)
    check("seidel e_st", 2 - 2 * 2 + 0, -2)
    check("seidel mu", gabrielov(transpose(f), GT).milnor, -2)

    fl = parse_polynomial("x^3*y+y^3*z+z^3*x")
    check("loop genus", genus(fl, g0_group(fl)), 3)
    GTl = dual_group(fl, g0_group(fl))
    wantl = parse_group_spec(transpose(fl), "1/7(1,2,4)")
    check("loop dual", GTl.rows, wantl.rows)

    f6 = parse_polynomial("x^2+y^3+z^6")
    check("e8tilde A index3",
          dolgachev(f6, parse_group_spec(f6, "index:3")).multiset, (2, 2, 2, 2))
    check("e8tilde A index2",
          dolgachev(f6, parse_group_spec(f6, "index:2")).multiset, (3, 3, 3))

    for g in range(2, 6):
        p = 2 * g + 1
        fg = parse_polynomial(f"x^{p}+y^{p}+z^{p}")
        G = parse_group_spec(fg, f"1/{p}(1,1,{p - 2})")
        check(f"efimov g={g}", junior_count(G), g)

    assert not report(6, "worked examples", failures, total), failures


def test_criterion_7_oracle_equivalences(corpus_fs):
    """Independent implementations agree: char polys, genus, lattice counts."""
    failures = []
    total = 0

    for f in corpus_fs:
        total += 1
        _, direct = char_poly_qh(f)
        if direct != equivariant_char_poly(f, trivial_group(f)):
            failures.append(f"charpoly {format_polynomial(f)}")

    for ps in itertools.combinations_with_replacement(range(2, 8), 3):
        f = parse_polynomial(f"x^{ps[0]}+y^{ps[1]}+z^{ps[2]}")
        for G in subgroups_containing_g0(f):
            total += 1
            if genus(f, G) != genus_bp_oracle(f, G):
                failures.append(f"genus {format_polynomial(f)} |G|={G.order}")

    for a in range(1, 31):
        for b in range(1, 31):
            total += 1
            if count_m(a, b, a * b) != gcd(a, b) + 1:
                failures.append(f"count_m({a},{b},{a * b})")
            for h in range(1, 31):
                brute = sum(1 for k in range(h + 1) for l in range(h + 1)
                            if k * a + l * b == h)
                if count_m(a, b, h) != brute:
                    failures.append(f"count_m({a},{b},{h})")
                    break

    assert not report(7, "oracle equivalences", failures, total), failures[:5]


def test_criterion_8_structural_invariants(corpus_fs, corpus_pairs):
    """Duality, age, junior-count and integrality invariants, full corpus."""
    failures = []
    total = 0

    def check(cond, label):
        nonlocal total
        total += 1
        if not cond:
            failures.append(label)

    for f, G in corpus_pairs:
        name = f"{format_polynomial(f)} | {format_group(G)}"
        GT = dual_group(f, G)
        check(G.order * GT.order == abs(det(f)), f"order product {name}")
        back = dual_group(transpose(f), GT)
        check(back.rows == G.rows, f"double dual {name}")
        free = sum(1 for u in GT.rows if all(u))  # non-identity, fixing only 0
        check(free == 2 * junior_count(GT), f"2j count {name}")
        gp = gabrielov_prime(transpose(f)).gamma_prime
        cusp = gabrielov_from_gamma(gp, GT)
        # mu against the orbifold Euler characteristic of the dual pair
        # (Ebeling-Gusein-Zade, arXiv:1107.5542): |G| (sum q_i - 1) plus the
        # degree of phi(f^T, G^T), which comes from the traces, not from j
        phi = equivariant_char_poly(transpose(f), GT)
        check(cusp.milnor == G.order * (sum(canonical_weights(f).q) - 1) + phi.degree,
              f"milnor from charpoly degree {name}")

    for f in corpus_fs:
        name = format_polynomial(f)
        check(dual_group(f, g0_group(f)).order == cf(f), f"dual order {name}")
        # age(u) = sum(u) / d; the fixed coordinates are the zero entries
        d = abs(det(f))
        for u in gfin(f).rows:
            if sum(u) + sum(-a % d for a in u) != (f.n - u.count(0)) * d:
                check(False, f"age identity {name}")
                break
        else:
            check(True, "")

    # integrality of the trace tables on the applicable subset; the trace and
    # inversion routines raise on any non-integral value, so completing the
    # loop is the assertion
    applicable = 0
    for f in corpus_fs:
        if cf(f) != cf(transpose(f)) or genus(f, g0_group(f)) != 0:
            continue
        applicable += 1
        table = lefschetz_numbers(transpose(f), dual_group(f, g0_group(f)))
        vec = equivariant_char_poly(transpose(f), dual_group(f, g0_group(f)))
        check(all(isinstance(v, int) for v in table)
              and table[-1] == vec.degree,
              f"trace integrality {format_polynomial(f)}")
    assert applicable > 500

    assert not report(8, "structural invariants", failures, total), failures[:5]

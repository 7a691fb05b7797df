"""Parsing, transposition, decomposition, classification, weights."""

import random
from fractions import Fraction

import pytest

from lgmirror import (
    InvertiblePolynomial,
    NotInvertible,
    NotSquare,
    PolynomialSyntaxError,
    canonical_weights,
    cf,
    classify3,
    decompose_atoms,
    format_polynomial,
    parse_polynomial,
    reduced_weights,
    transpose,
    validate_invertible,
)
from lgmirror.ip_core import _adjugate_int, scaled_inverse


def solve_weights_cramer(E, d):
    """Independent oracle: exact Gaussian elimination over Fraction."""
    n = len(E)
    a = [[Fraction(x) for x in row] + [Fraction(d)] for row in E]
    for col in range(n):
        piv = next(r for r in range(col, n) if a[r][col] != 0)
        a[col], a[piv] = a[piv], a[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                factor = a[r][col]
                a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
    return tuple(a[r][n] for r in range(n))


# ---------------------------------------------------------------------------
# parsing

def test_parse_chain():
    f = parse_polynomial("x^2+x*y^3+y*z^5")
    assert f.E == ((2, 0, 0), (1, 3, 0), (0, 1, 5))


def test_parse_fermat():
    f = parse_polynomial("x^2+y^3+z^4")
    assert f.E == ((2, 0, 0), (0, 3, 0), (0, 0, 4))


def test_parse_not_square():
    with pytest.raises(NotSquare):
        parse_polynomial("x^2+y^2", varnames=("x", "y", "z"))


def test_parse_coefficients_and_spacing():
    f = parse_polynomial("2*x^2 + x y^3 - 3*y*z^5")
    assert f.coeffs == (2, 1, -3)
    assert f.E == ((2, 0, 0), (1, 3, 0), (0, 1, 5))


def test_parse_numbered_variables():
    f = parse_polynomial("x1^2+x2^3+x3^4")
    assert f.varnames == ("x1", "x2", "x3")
    assert f.E == ((2, 0, 0), (0, 3, 0), (0, 0, 4))


def test_parse_rejects_garbage():
    with pytest.raises(PolynomialSyntaxError):
        parse_polynomial("x^2 + 7")
    with pytest.raises(PolynomialSyntaxError):
        parse_polynomial("x^2 + 0*y^3 + z^2")
    with pytest.raises(PolynomialSyntaxError):
        parse_polynomial("")


def test_parse_rejects_non_invertible():
    with pytest.raises(NotInvertible):
        parse_polynomial("x*y*z+x^2+y^2")
    with pytest.raises(NotInvertible):
        parse_polynomial("x^2+x^2", varnames=("x", "y"))


def test_parse_format_roundtrip():
    for text in ["x^2+x*y^3+y*z^5", "x^3*y+y^3*z+z^3*x", "2*x^2+y^3+z^6"]:
        f = parse_polynomial(text)
        again = parse_polynomial(format_polynomial(f))
        assert again.E == f.E and again.coeffs == f.coeffs


# ---------------------------------------------------------------------------
# transposition

def test_transpose_type2():
    f = parse_polynomial("x^3+y^4+y*z^5")  # p1=3, p2=4, p3/p2=5
    ft = transpose(f)
    assert ft.E == parse_polynomial("x^3+y^4*z+z^5").E


def test_transpose_fermat_fixed():
    f = parse_polynomial("x^2+y^3+z^6")
    assert transpose(f) == f


def test_transpose_loop():
    f = parse_polynomial("x^2*y+y^3*z+z^4*x")
    ft = transpose(f)
    assert ft.E == parse_polynomial("z*x^2+x*y^3+y*z^4").E


def test_transpose_involution(corpus_fs):
    for f in corpus_fs[::7]:
        assert transpose(transpose(f)) == f


# ---------------------------------------------------------------------------
# decomposition

def test_decompose_fermat():
    atoms = decompose_atoms(parse_polynomial("x^2+y^3+z^6"))
    assert sorted(a.kind for a in atoms) == ["fermat", "fermat", "fermat"]
    assert sorted(a.exps[0] for a in atoms) == [2, 3, 6]


def test_decompose_chain():
    atoms = decompose_atoms(parse_polynomial("x^2+x*y^3+y*z^5"))
    assert len(atoms) == 1
    chain = atoms[0]
    # walk order: head z -> y -> x with owner exponents 5, 3, 2
    assert chain.kind == "chain"
    assert chain.vars == (2, 1, 0)
    assert chain.exps == (5, 3, 2)


def test_decompose_loop():
    atoms = decompose_atoms(parse_polynomial("x^3*y+y^3*z+z^3*x"))
    assert len(atoms) == 1
    assert atoms[0].kind == "loop"
    assert atoms[0].exps == (3, 3, 3)


def test_decompose_rejects_three_variable_monomial():
    f = parse_polynomial("x*y*z+x^2+y^2", validate=False)
    with pytest.raises(NotInvertible):
        decompose_atoms(f)


def test_decompose_rejects_shared_tail():
    # two chains pointing at the same variable is not a valid sum
    f = parse_polynomial("x^2*y+z^2*y+y^3", validate=False)
    with pytest.raises(NotInvertible):
        decompose_atoms(f)


def test_decompose_rejects_degenerate_two_loop():
    f = parse_polynomial("x*y+y^2*x", validate=False)
    with pytest.raises(NotInvertible):
        decompose_atoms(f)


# ---------------------------------------------------------------------------
# classification

def test_classify_type3_normal_form():
    f = parse_polynomial("x^2+z*y^2+y*z^4")  # q2=1, q3=3
    tag = classify3(f)
    assert tag.tag == "III"
    assert tag.params == (2, 1, 3)
    assert tag.perm == (0, 1, 2)


def test_classify_type4_with_unit_middle():
    f = parse_polynomial("x^4+x*y+y*z^3")  # l=4, k=3
    tag = classify3(f)
    assert tag.tag == "IV"
    assert tag.params == (4, 4, 12)  # p1=l, p2/p1=1, p3/p2=k


def test_classify_fermat():
    tag = classify3(parse_polynomial("x^2+y^3+z^6"))
    assert (tag.tag, tag.params, tag.perm) == ("I", (2, 3, 6), (0, 1, 2))


def test_classify_agrees_with_atoms(corpus_fs):
    kinds_for = {
        "I": ["fermat", "fermat", "fermat"],
        "II": ["chain", "fermat"],
        "III": ["fermat", "loop"],
        "IV": ["chain"],
        "V": ["loop"],
    }
    for f in corpus_fs[::5]:
        tag = classify3(f)
        assert sorted(a.kind for a in decompose_atoms(f)) == kinds_for[tag.tag]


def test_classify_transposed_orientation():
    # the transpose of a Type II polynomial classifies as Type II with
    # parameters (p1, p3/p2, p3)
    f = parse_polynomial("x^3+y^4+y*z^5")
    tag = classify3(transpose(f))
    assert tag.tag == "II"
    assert tag.params == (3, 5, 20)


# ---------------------------------------------------------------------------
# weights

def test_weights_seidel():
    ws = canonical_weights(parse_polynomial("x^2+x*y^3+y*z^5"))
    assert (ws.w, ws.d) == ((15, 5, 5), 30)


def test_weights_fermat_symmetric():
    p = 5
    ws = canonical_weights(parse_polynomial(f"x^{p}+y^{p}+z^{p}"))
    assert ws.w == (p * p, p * p, p * p) and ws.d == p ** 3


def test_weights_loop():
    ws = canonical_weights(parse_polynomial("x^3*y+y^3*z+z^3*x"))
    assert (ws.w, ws.d) == ((7, 7, 7), 28)


def test_weights_against_cramer_oracle(corpus_fs):
    for f in corpus_fs[::11]:
        ws = canonical_weights(f)
        assert ws.w == solve_weights_cramer(f.E, ws.d)
        for row in f.E:
            assert sum(e * w for e, w in zip(row, ws.w)) == ws.d


def test_scaled_inverse_and_weights(corpus_fs):
    """d E^{-1} with d = |det E| is integral, inverts E up to d, and its row
    sums are the canonical weights, for f and f^T."""
    for f in corpus_fs[::11]:
        for g in (f, transpose(f)):
            M, ws = scaled_inverse(g), canonical_weights(g)
            n = g.n
            for i in range(n):
                for j in range(n):
                    want = ws.d if i == j else 0
                    assert sum(g.E[i][k] * M[k][j] for k in range(n)) == want
                    assert sum(M[i][k] * g.E[k][j] for k in range(n)) == want
            assert tuple(sum(row) for row in M) == ws.w


def _cofactor_det(M):
    """Independent oracle: Laplace expansion along the first row."""
    if not M:
        return 1
    return sum((-1) ** j * M[0][j]
               * _cofactor_det([row[:j] + row[j + 1:] for row in M[1:]])
               for j in range(len(M)) if M[0][j])


def _cofactor_adjugate(M):
    n = len(M)
    return tuple(
        tuple((-1) ** (r + c) * _cofactor_det(
            [row[:c] + row[c + 1:] for i, row in enumerate(M) if i != r])
            for r in range(n))
        for c in range(n))


def test_adjugate_against_cofactor_oracle():
    """One Gauss-Jordan pass equals the cofactor adjugate, including matrices
    whose leading pivots vanish (row swaps) and negative determinants."""
    rng = random.Random(20111)
    cases = [((-3,),), ((0, 1), (1, 0)), ((0, 2, 1), (0, 1, 3), (5, 0, 0)),
             ((1, 1, 0), (1, 1, 1), (0, 2, 1))]
    for n in range(1, 6):
        for _ in range(40):
            M = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
            if rng.random() < 0.5:
                for row in M[: rng.randint(1, n)]:
                    row[0] = 0  # zero leading pivot: forces a row swap
            cases.append(tuple(map(tuple, M)))
    signs = set()
    swapped = 0
    for M in cases:
        dd = _cofactor_det([list(row) for row in M])
        if dd == 0:
            continue
        signs.add(dd > 0)
        swapped += M[0][0] == 0
        assert _adjugate_int(M) == _cofactor_adjugate([list(row) for row in M]), M
    assert signs == {True, False} and swapped > 20


def test_weights_monomial_order_invariant():
    a = canonical_weights(parse_polynomial("y^3+x^2+z^6"))
    b = canonical_weights(parse_polynomial("x^2+y^3+z^6"))
    assert a.d == b.d == 36 and sorted(a.w) == sorted(b.w)


def test_cf_values():
    assert cf(parse_polynomial("x^2+x*y^3+y*z^5")) == 5
    assert cf(parse_polynomial("x^2+y^3+z^4")) == 2
    assert cf(parse_polynomial("x^2+y^3+z^5")) == 1


def test_reduced_weights():
    red = reduced_weights(parse_polynomial("x^2+x*y^3+y*z^5"))
    assert (red.w, red.d, red.cf) == ((3, 1, 1), 6, 1)


# ---------------------------------------------------------------------------
# diagnostics

def test_validate_pass():
    assert validate_invertible(parse_polynomial("x^2+y^3+z^6")).passed


def test_validate_fail_no_decomposition():
    f = parse_polynomial("x*y*z+x^2+y^2", validate=False)
    report = validate_invertible(f)
    assert not report.passed
    assert any("decomposition" in msg or "form" in msg for msg in report.failures)


def test_validate_two_loop_edge_case():
    # loop of length 2 with both exponents >= 2 is admissible
    assert validate_invertible(parse_polynomial("x^2*y+y^2*x+z^2")).passed


def test_validate_fails_on_transpose_side():
    # chain with head exponent 1 transposes to a linear monomial
    f = parse_polynomial("x*y+y^2*z+z^3", validate=False)
    assert decompose_atoms(f)  # f itself decomposes
    report = validate_invertible(f)
    assert not report.passed


def test_direct_construction_checks_shape():
    with pytest.raises(NotSquare):
        InvertiblePolynomial(n=2, E=((1, 0),), coeffs=(1, 1), varnames=("x", "y"))

"""Invertible polynomials: representation, parsing, classification, weights.

A polynomial with as many monomials as variables is stored as its exponent
matrix ``E`` (row i = exponent vector of monomial i, in textual order)
together with the integer coefficients and variable names.  All invariants
computed by this package depend only on ``E``; coefficients are carried
verbatim.

All arithmetic is exact: integer determinants and adjugates, ``Fraction``
where a ratio is unavoidable.  No floating point anywhere.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd

from .errors import NotInvertible, NotSquare, PolynomialSyntaxError

__all__ = [
    "InvertiblePolynomial",
    "WeightSystem",
    "AtomicPart",
    "TypeTag3",
    "ValidationReport",
    "parse_polynomial",
    "format_polynomial",
    "det",
    "scaled_inverse",
    "transpose",
    "decompose_atoms",
    "classify3",
    "canonical_weights",
    "reduced_weights",
    "cf",
    "validate_invertible",
]


@dataclass(frozen=True)
class InvertiblePolynomial:
    """n monomials in n variables, encoded by the exponent matrix E.

    Construction performs structural checks only (shape, non-negative
    exponents, non-zero coefficients).  Use :func:`parse_polynomial` or
    :func:`validate_invertible` to certify invertibility.
    """

    n: int
    E: tuple[tuple[int, ...], ...]
    coeffs: tuple[int, ...]
    varnames: tuple[str, ...]

    def __post_init__(self):
        if self.n < 1 or len(self.E) != self.n:
            raise NotSquare(f"need {self.n} monomials, got {len(self.E)}")
        for row in self.E:
            if len(row) != self.n:
                raise NotSquare("exponent rows must match the variable count")
            if any(e < 0 for e in row):
                raise PolynomialSyntaxError("negative exponent")
        if len(self.coeffs) != self.n or any(c == 0 for c in self.coeffs):
            raise PolynomialSyntaxError("need n non-zero coefficients")
        if len(self.varnames) != self.n:
            raise PolynomialSyntaxError("need n variable names")
        object.__setattr__(
            self, "_hash", hash((self.n, self.E, self.coeffs, self.varnames)))

    def __str__(self):
        return format_polynomial(self)


InvertiblePolynomial.__hash__ = lambda self: self._hash


@dataclass(frozen=True)
class WeightSystem:
    """Weights (w_1..w_n; d) with cf = gcd(w_1,..,w_n,d) and q_i = w_i/d."""

    w: tuple[int, ...]
    d: int
    cf: int
    q: tuple[Fraction, ...]

    def __str__(self):
        return "(" + ",".join(str(x) for x in self.w) + f";{self.d})"


@dataclass(frozen=True)
class AtomicPart:
    """One Fermat / chain / loop summand; vars in walk order, exps per owner."""

    kind: str  # "fermat" | "chain" | "loop"
    vars: tuple[int, ...]
    exps: tuple[int, ...]


@dataclass(frozen=True)
class TypeTag3:
    """Three-variable classification: tag I..V, parameters, normal-form permutation.

    ``perm[k]`` is the original index of the variable sitting in normal-form
    position k, so applying ``perm`` to the variables puts the polynomial in
    the normal form the parameters refer to.  Coordinate-indexed data computed
    in normal form is pulled back through ``perm``.
    """

    tag: str
    params: tuple[int, ...]
    perm: tuple[int, ...]


@dataclass(frozen=True)
class ValidationReport:
    passed: bool
    failures: tuple[str, ...]


# ---------------------------------------------------------------------------
# parsing / formatting

_TERM_RE = re.compile(r"[+-]?[^+-]+")
_FACTOR_RE = re.compile(r"([A-Za-z]\w*)(?:\s*\^\s*(\d+))?\s*")
_COEFF_RE = re.compile(r"([+-]?\s*\d+)\s*\*?\s*")


def _canonical_var_order(names: set[str]) -> list[str]:
    """Sort x,y,z style alphabetically and x1..xn numerically."""
    if all(re.fullmatch(r"[A-Za-z]\d+", v) for v in names):
        return sorted(names, key=lambda v: (v[0], int(v[1:])))
    return sorted(names)


def _parse_term(term: str) -> tuple[int, dict[str, int]]:
    term = term.strip()
    coeff = 1
    m = _COEFF_RE.match(term)
    if m:
        coeff = int(m.group(1).replace(" ", ""))
        term = term[m.end():]
    elif term.startswith("-"):
        coeff = -1
        term = term[1:]
    elif term.startswith("+"):
        term = term[1:]
    exps: dict[str, int] = {}
    pos = 0
    term = term.strip()
    while pos < len(term):
        m = _FACTOR_RE.match(term, pos)
        if not m:
            raise PolynomialSyntaxError(f"cannot read factor at {term[pos:]!r}")
        var, exp = m.group(1), int(m.group(2) or 1)
        exps[var] = exps.get(var, 0) + exp
        pos = m.end()
        if pos < len(term) and term[pos] == "*":
            pos += 1
        while pos < len(term) and term[pos].isspace():
            pos += 1
    if not exps:
        raise PolynomialSyntaxError(f"term {term!r} has no variables")
    if coeff == 0:
        raise PolynomialSyntaxError("zero coefficient")
    return coeff, exps


def parse_polynomial(text: str, varnames=None, validate: bool = True) -> InvertiblePolynomial:
    """Parse a '+'-separated sum of monomials over x,y,z (or x1..xn).

    ``varnames`` fixes the declared variables; by default they are inferred
    from the text.  With ``validate`` (the default), rejects inputs whose
    exponent matrix is singular or admits no atomic decomposition.
    """
    text = text.strip()
    if not text:
        raise PolynomialSyntaxError("empty input")
    terms = _TERM_RE.findall(text.replace(" ", " "))
    parsed = [_parse_term(t) for t in terms if t.strip()]
    if not parsed:
        raise PolynomialSyntaxError("no terms found")
    if varnames is None:
        seen: set[str] = set()
        for _, exps in parsed:
            seen.update(exps)
        varnames = _canonical_var_order(seen)
    varnames = tuple(varnames)
    index = {v: i for i, v in enumerate(varnames)}
    for _, exps in parsed:
        for v in exps:
            if v not in index:
                raise PolynomialSyntaxError(f"unknown variable {v!r}")
    if len(parsed) != len(varnames):
        raise NotSquare(
            f"{len(parsed)} monomials over {len(varnames)} variables")
    n = len(varnames)
    E = tuple(
        tuple(exps.get(v, 0) for v in varnames) for _, exps in parsed)
    coeffs = tuple(c for c, _ in parsed)
    f = InvertiblePolynomial(n=n, E=E, coeffs=coeffs, varnames=varnames)
    if validate:
        if det(f) == 0:
            raise NotInvertible("det(E) = 0")
        decompose_atoms(f)  # raises NotInvertible if no decomposition
    return f


def format_polynomial(f: InvertiblePolynomial) -> str:
    """Canonical text form; parse(format(parse(s))) has the same E as parse(s)."""
    terms = []
    for coeff, row in zip(f.coeffs, f.E):
        factors = []
        for v, e in zip(f.varnames, row):
            if e == 1:
                factors.append(v)
            elif e > 1:
                factors.append(f"{v}^{e}")
        head = "" if coeff == 1 else f"{coeff}*"
        terms.append(head + "*".join(factors))
    return " + ".join(terms).replace("+ -", "- ")


# ---------------------------------------------------------------------------
# exact linear algebra on the exponent matrix

def _det_int(M: tuple[tuple[int, ...], ...]) -> int:
    """Integer determinant by fraction-free Gaussian elimination (Bareiss)."""
    n = len(M)
    a = [list(row) for row in M]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[-1][-1]


def _adjugate_int(M: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, ...], ...]:
    """Adjugate matrix (transpose of cofactors) of a non-singular integer
    matrix, by one fraction-free Gauss-Jordan pass on [M | I].

    Each step k clears column k in every other row by
    row_i <- (p row_i - a_ik row_k) / prev, p the pivot and prev the one
    before; by Bareiss's identity every entry is then a minor of [M | I],
    so the division is exact.  The pass leaves [D I | A] with D = det(P M)
    for the row swaps P it made, so A = D (P M)^{-1} = +-adj(M), the sign
    being that of P.
    """
    n = len(M)
    a = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(M)]
    sign = 1
    prev = 1
    for k in range(n):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                raise NotInvertible("singular matrix has no adjugate by elimination")
        p, pivot_row = a[k][k], a[k]
        for i in range(n):
            if i != k:
                c = a[i][k]
                a[i] = [(p * x - c * y) // prev for x, y in zip(a[i], pivot_row)]
        prev = p
    return tuple(tuple(sign * x for x in row[n:]) for row in a)


@lru_cache(maxsize=None)
def det(f: InvertiblePolynomial) -> int:
    return _det_int(f.E)


@lru_cache(maxsize=None)
def scaled_inverse(f: InvertiblePolynomial) -> tuple[tuple[int, ...], ...]:
    """d E^{-1} with d = |det E|: the adjugate, signed by det E."""
    dd = det(f)
    if dd == 0:
        raise NotInvertible("det(E) = 0")
    sign = 1 if dd > 0 else -1
    return tuple(tuple(sign * x for x in row) for row in _adjugate_int(f.E))


# ---------------------------------------------------------------------------
# transposition

@lru_cache(maxsize=None)
def transpose(f: InvertiblePolynomial) -> InvertiblePolynomial:
    """Berglund-Huebsch transpose: exponent matrix transposed, same coefficients."""
    ET = tuple(tuple(f.E[i][j] for i in range(f.n)) for j in range(f.n))
    return InvertiblePolynomial(n=f.n, E=ET, coeffs=f.coeffs, varnames=f.varnames)


# ---------------------------------------------------------------------------
# atomic decomposition

def _row_interpretations(row: tuple[int, ...]):
    """Ways to read a monomial as x_owner^a or x_owner^a * x_succ."""
    support = [(j, e) for j, e in enumerate(row) if e != 0]
    out = []
    if len(support) == 1:
        j, a = support[0]
        if a >= 2:
            out.append((j, None, a))
    elif len(support) == 2:
        (j, a), (k, b) = support
        if b == 1:
            out.append((j, k, a))
        if a == 1:
            out.append((k, j, b))
    return out


def _atoms_from_assignment(succ: dict[int, int | None], exp: dict[int, int], n: int):
    """Build Fermat/chain/loop parts from an owner -> successor map, or None."""
    indeg = [0] * n
    for v, s in succ.items():
        if s is not None:
            indeg[s] += 1
    if any(d > 1 for d in indeg):
        return None
    atoms = []
    seen: set[int] = set()
    # chains and Fermat pieces: walk forward from in-degree-0 vertices
    for v in range(n):
        if indeg[v] == 0:
            path = [v]
            while succ[path[-1]] is not None:
                path.append(succ[path[-1]])
            seen.update(path)
            if len(path) == 1:
                atoms.append(AtomicPart("fermat", (v,), (exp[v],)))
            else:
                atoms.append(AtomicPart(
                    "chain", tuple(path), tuple(exp[u] for u in path)))
    # what remains are disjoint cycles
    for v in range(n):
        if v in seen:
            continue
        cycle = [v]
        u = succ[v]
        while u != v:
            if u is None or u in seen:
                return None
            cycle.append(u)
            u = succ[u]
        seen.update(cycle)
        start = cycle.index(min(cycle))
        cycle = cycle[start:] + cycle[:start]
        exps = tuple(exp[u] for u in cycle)
        m = len(cycle)
        if m == 2 and min(exps) < 2:
            return None  # xy + y^b x has singularities off the origin
        if m % 2 == 0 and (all(e == 1 for e in exps[0::2])
                           or all(e == 1 for e in exps[1::2])):
            return None  # even loop with alternating unit exponents degenerates
        atoms.append(AtomicPart("loop", tuple(cycle), exps))
    return atoms


@lru_cache(maxsize=None)
def decompose_atoms(f: InvertiblePolynomial) -> tuple[AtomicPart, ...]:
    """Partition the variables into Fermat/chain/loop atoms.

    Each monomial must read as x_i^a or x_i^a*x_j and the induced successor
    graph must split into chains ending in a pure power and simple loops.
    Raises :class:`NotInvertible` when no such reading exists.
    """
    options = [_row_interpretations(row) for row in f.E]
    if any(not opts for opts in options):
        raise NotInvertible("a monomial is not of the form x_i^a or x_i^a*x_j")

    order = sorted(range(f.n), key=lambda r: len(options[r]))
    assignment: dict[int, tuple[int | None, int]] = {}

    def search(pos: int):
        if pos == len(order):
            succ = {v: s for v, (s, _) in assignment.items()}
            exp = {v: a for v, (_, a) in assignment.items()}
            return _atoms_from_assignment(succ, exp, f.n)
        row = order[pos]
        for owner, succ, a in options[row]:
            if owner in assignment:
                continue
            assignment[owner] = (succ, a)
            result = search(pos + 1)
            if result is not None:
                return result
            del assignment[owner]
        return None

    atoms = search(0)
    if atoms is None:
        raise NotInvertible("no Fermat/chain/loop decomposition")
    return tuple(sorted(atoms, key=lambda p: p.vars))


# ---------------------------------------------------------------------------
# three-variable classification (types I..V)

@lru_cache(maxsize=None)
def classify3(f: InvertiblePolynomial) -> TypeTag3:
    """Classify a three-variable invertible polynomial into types I..V.

    Returns the type tag, its parameters and the permutation to normal form;
    ties between equivalent orderings are broken by the lexicographically
    smallest permutation.
    """
    if f.n != 3:
        raise NotInvertible("classification requires exactly 3 variables")
    atoms = decompose_atoms(f)
    kinds = sorted(a.kind for a in atoms)
    candidates: list[tuple[tuple[int, ...], str, tuple[int, ...]]] = []

    if kinds == ["fermat", "fermat", "fermat"]:
        exp = {a.vars[0]: a.exps[0] for a in atoms}
        for perm in itertools.permutations(range(3)):
            candidates.append((perm, "I", tuple(exp[v] for v in perm)))
    elif kinds == ["chain", "fermat"]:
        fermat = next(a for a in atoms if a.kind == "fermat")
        chain = next(a for a in atoms if a.kind == "chain")
        head, tail = chain.vars
        a_head, a_tail = chain.exps
        if a_head >= 2:
            # normal form x^{p1} + y^{p2} + y z^{p3/p2}: y = tail, z = head
            p1, p2, p3 = fermat.exps[0], a_tail, a_tail * a_head
            candidates.append(((fermat.vars[0], tail, head), "II", (p1, p2, p3)))
    elif kinds == ["fermat", "loop"]:
        fermat = next(a for a in atoms if a.kind == "fermat")
        loop = next(a for a in atoms if a.kind == "loop")
        (u, v), (au, av) = loop.vars, loop.exps
        p1 = fermat.exps[0]
        # normal form x^{p1} + z y^{q2+1} + y z^{q3+1}
        for y, z, ay, az in ((u, v, au, av), (v, u, av, au)):
            candidates.append(((fermat.vars[0], y, z), "III", (p1, ay - 1, az - 1)))
    elif kinds == ["chain"]:
        chain = atoms[0]
        v1, v2, v3 = chain.vars
        a1, a2, a3 = chain.exps
        if a1 >= 2:
            # normal form x^{p1} + x y^{p2/p1} + y z^{p3/p2}: x = tail, z = head
            p1, p2, p3 = a3, a2 * a3, a1 * a2 * a3
            candidates.append(((v3, v2, v1), "IV", (p1, p2, p3)))
    elif kinds == ["loop"]:
        loop = atoms[0]
        vs, es = loop.vars, loop.exps
        for r in range(3):
            perm = (vs[r], vs[(r + 1) % 3], vs[(r + 2) % 3])
            params = (es[r], es[(r + 1) % 3], es[(r + 2) % 3])
            candidates.append((perm, "V", params))

    if not candidates:
        raise NotInvertible("no Table-1 normal form matches")
    perm, tag, params = min(candidates)
    return TypeTag3(tag=tag, params=params, perm=perm)


# ---------------------------------------------------------------------------
# weight systems

@lru_cache(maxsize=None)
def canonical_weights(f: InvertiblePolynomial) -> WeightSystem:
    """Unique exact solution of E.w = d.(1..1) with d = |det(E)|.

    The weights are the row sums of d E^{-1}, hence exact integers; d is
    taken as |det E| so that the system is independent of monomial order.
    """
    w = tuple(sum(row) for row in scaled_inverse(f))
    d = abs(det(f))
    for row in f.E:
        if sum(e * wj for e, wj in zip(row, w)) != d:
            raise NotInvertible("weight equation E.w = d.(1..1) failed")
    if any(wi <= 0 for wi in w):
        raise NotInvertible(f"non-positive weights {w};{d}")
    c = gcd(d, *w)
    q = tuple(Fraction(wi, d) for wi in w)
    return WeightSystem(w=w, d=d, cf=c, q=q)


@lru_cache(maxsize=None)
def reduced_weights(f: InvertiblePolynomial) -> WeightSystem:
    """Canonical system divided by cf; has gcd 1."""
    ws = canonical_weights(f)
    c = ws.cf
    return WeightSystem(
        w=tuple(wi // c for wi in ws.w), d=ws.d // c, cf=1, q=ws.q)


def cf(f: InvertiblePolynomial) -> int:
    """gcd of the canonical weights and degree."""
    return canonical_weights(f).cf


# ---------------------------------------------------------------------------
# diagnostics

def validate_invertible(f: InvertiblePolynomial) -> ValidationReport:
    """Pass/fail diagnostics: det, positive weights, decompositions of f and f^T."""
    failures = []
    if det(f) == 0:
        failures.append("det(E) = 0")
    else:
        try:
            canonical_weights(f)
        except NotInvertible as exc:
            failures.append(f"weights: {exc}")
        try:
            decompose_atoms(f)
        except NotInvertible as exc:
            failures.append(f"f: {exc}")
        try:
            decompose_atoms(transpose(f))
        except NotInvertible as exc:
            failures.append(f"f^T: {exc}")
    return ValidationReport(passed=not failures, failures=tuple(failures))

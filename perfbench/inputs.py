"""Seeded workload inputs, built with the benchmark's own integer arithmetic.

Nothing here imports lgmirror, so a change to the program under test cannot
change what it is fed.  A polynomial is its 3x3 exponent matrix E (row i is
the exponent vector of monomial i).  With the reduced degree
d~(f) = |det E| / gcd(|det E|, w_1, w_2, w_3), where the canonical weights
w solve E.w = |det E|.(1,1,1), the quantities the workloads are drawn on are

* ``det``   = |det E|;
* ``g0t``   = |G_0^T| = |det E| / d~(f), the order of the dual of the
  group generated by the grading operator;
* ``trace`` = d~(f^T) * |G_0^T|^2, the number of exact terms the sector
  trace formula sums for the transposed pair (f^T, G_0^T).
"""

from __future__ import annotations

import itertools
import random
from math import gcd

ANALYZE_CALLS = 100
POOL_SIZE = 125
TYPES = ("I", "II", "III", "IV", "V")


def type_matrices(max_exp: int):
    """Exponent matrices of the five three-variable normal forms with every
    parameter <= max_exp, in the order and with the deduplication the
    corpus enumeration of the program uses."""
    E = max_exp
    for p1, p2, p3 in itertools.combinations_with_replacement(range(2, E + 1), 3):
        yield "I", ((p1, 0, 0), (0, p2, 0), (0, 0, p3))
    for p1 in range(2, E + 1):
        for p2 in range(2, E + 1):
            for h in range(2, E + 1):
                yield "II", ((p1, 0, 0), (0, p2, 0), (0, 1, h))
    for p1 in range(2, E + 1):
        for q2 in range(1, E + 1):
            for q3 in range(q2, E + 1):
                yield "III", ((p1, 0, 0), (0, q2 + 1, 1), (0, 1, q3 + 1))
    for p1 in range(2, E + 1):
        for m in range(1, E + 1):
            for h in range(2, E + 1):
                yield "IV", ((p1, 0, 0), (1, m, 0), (0, 1, h))
    for q in itertools.product(range(1, E + 1), repeat=3):
        if q == min(q, q[1:] + q[:1], q[2:] + q[:2]):
            yield "V", ((q[0], 1, 0), (0, q[1], 1), (1, 0, q[2]))


def det3(E) -> int:
    (a, b, c), (d, e, f), (g, h, i) = E
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def transpose3(E):
    return tuple(zip(*E))


def reduced_degree(E) -> int:
    """d~ = |det E| / gcd(|det E|, w); w = |det E| E^{-1} (1,1,1) is the
    vector of signed row sums of the adjugate."""
    dd = det3(E)
    (a, b, c), (d, e, f), (g, h, i) = E
    adj = ((e * i - f * h, c * h - b * i, b * f - c * e),
           (f * g - d * i, a * i - c * g, c * d - a * f),
           (d * h - e * g, b * g - a * h, a * e - b * d))
    sign = 1 if dd > 0 else -1
    w = [sign * sum(row) for row in adj]
    return abs(dd) // gcd(abs(dd), *w)


def polynomial_text(E) -> str:
    """The polynomial with unit coefficients, e.g. ``x^16+x*y^15+y*z^15``."""
    monomials = []
    for row in E:
        factors = [v if e == 1 else f"{v}^{e}"
                   for v, e in zip("xyz", row) if e]
        monomials.append("*".join(factors))
    return "+".join(monomials)


def describe(tag: str, E) -> dict:
    det = abs(det3(E))
    dred = reduced_degree(E)
    g0t = det // dred
    return {"type": tag, "poly": polynomial_text(E), "det": det, "g0t": g0t,
            "trace": reduced_degree(transpose3(E)) * g0t * g0t}


# ---------------------------------------------------------------------------
# the two analyze populations; each workload draws ANALYZE_CALLS of them

# Inputs above this many trace terms run for minutes; see NOTES.md.
TRACE_CAP = 400_000


def _large_det(x) -> bool:
    return 1000 <= x["det"] <= 10000 and x["g0t"] <= 4


def _traces(x) -> bool:
    return (x["g0t"] >= 16 and 200 <= x["det"] <= 8000
            and x["trace"] <= TRACE_CAP)


POPULATIONS = {
    # name: (max_exp, predicate, cost key the draw is stratified on)
    "analyze-large-det": (24, _large_det, "det"),
    "analyze-traces": (16, _traces, "trace"),
}


def population(workload: str) -> list[dict]:
    max_exp, keep, _key = POPULATIONS[workload]
    return [x for x in (describe(t, E) for t, E in type_matrices(max_exp))
            if keep(x)]


def pool(workload: str) -> list[dict]:
    """The population sorted by its cost key, thinned to at most POOL_SIZE
    evenly spaced members; the reference digests cover every pool member."""
    _max_exp, _keep, key = POPULATIONS[workload]
    pop = sorted(population(workload), key=lambda x: (x[key], x["poly"]))
    if len(pop) > POOL_SIZE:
        pop = [pop[i * len(pop) // POOL_SIZE] for i in range(POOL_SIZE)]
    return pop


def draw(workload: str, seed: int) -> list[dict]:
    """ANALYZE_CALLS pool members, stratified so that every seed gets the
    same spread of cost.

    The cost-sorted pool is cut into ANALYZE_CALLS strata of (nearly) equal
    size and one member is drawn from each; the drawn list is then
    shuffled, so the call order also depends on the seed.
    """
    members = pool(workload)
    rng = random.Random(seed)
    picked = []
    n = ANALYZE_CALLS
    for s in range(n):
        lo, hi = s * len(members) // n, (s + 1) * len(members) // n
        picked.append(members[rng.randrange(lo, hi)])
    rng.shuffle(picked)
    return picked


def histogram(items: list[dict]) -> dict:
    """Type counts and the ranges of |det E|, |G_0^T| and trace cost."""
    out = {"n": len(items), "types": {t: 0 for t in TYPES}}
    for x in items:
        out["types"][x["type"]] += 1
    for k in ("det", "g0t", "trace"):
        vals = [x[k] for x in items]
        out[k] = [min(vals), max(vals)]
    return out

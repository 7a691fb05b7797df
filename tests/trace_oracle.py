"""The sector-summed trace loop (test-only oracle).

These are the algorithms the package used before the closed form of
``lefschetz_numbers``: every trace L_k is summed over all pairs (g, h) of
group elements, d~ |G|^2 exact ``Fraction`` terms for the whole table, and
the cyclotomic exponents are recovered by Moebius inversion with an all-k
reconstruction check.  They list the elements of G and cost time in
proportion to d~ |G|^2, so tests run the full table only on small inputs and
:func:`oracle_trace` for single k on large ones.
"""

from __future__ import annotations

from fractions import Fraction

from lgmirror import (
    CycloVector,
    NonIntegral,
    NotASubgroup,
    NotSL,
    canonical_weights,
    is_sl_subgroup,
    reduced_weights,
)
from lgmirror.symmetry import format_phases


def _divisors(n: int) -> list[int]:
    return [i for i in range(1, n + 1) if n % i == 0]


def _moebius(n: int) -> int:
    result, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    return -result if n > 1 else result


def trace_cost(f, G) -> int:
    """Number of terms the full table sums: d~ |G|^2."""
    return reduced_weights(f).d * G.order ** 2


def sample_powers(dt: int) -> list[int]:
    """The powers k at which a large table is compared: 1..6, d~/2, d~."""
    return sorted({k for k in range(1, 7) if k <= dt} | {dt} | ({dt // 2} if dt % 2 == 0 else set()))


def oracle_trace(f, G, k: int) -> Fraction:
    """L_k alone: sum_g (-1)^{n_g+1} (1/|G|) sum_h prod_{i in Fix(g)}
    ( [phase_i(h) + k q_i in Z] / q_i  -  1 ), exact rationals throughout."""
    ws = reduced_weights(f)
    wt, dt = ws.w, ws.d
    d = canonical_weights(f).d
    scale = d // dt
    scaled = G.rows  # numerators of the phases over d
    fixes = [tuple(i for i, a in enumerate(u) if a == 0) for u in scaled]
    kq = [(k * wi * scale) % d for wi in wt]
    total = Fraction(0)
    for fix in fixes:
        sign = -1 if len(fix) % 2 == 0 else 1
        inner = Fraction(0)
        for nums in scaled:
            num, den = 1, 1
            for i in fix:
                if (nums[i] + kq[i]) % d == 0:
                    num *= dt - wt[i]
                    den *= wt[i]
                else:
                    num = -num
            inner += Fraction(num, den)
        total += sign * inner
    return total / G.order


def lefschetz_numbers(f, G) -> tuple[int, ...]:
    """Sector-summed monodromy traces (L_1, ..., L_d~) of the pair (f, G),
    G inside SL, with d~ the reduced weighted degree (L_k has period d~),
    by :func:`oracle_trace` for every k; every L_k is asserted integral."""
    if G.context != f:
        raise NotASubgroup("group context does not match the polynomial")
    bad = G.unfixed_monomial(f.E)
    if bad:
        raise NotASubgroup(f"{format_phases(bad[0], G.d)} is not a symmetry of the polynomial")
    if not is_sl_subgroup(G):
        raise NotSL("trace formula needs G inside SL_n")
    values = []
    for k in range(1, reduced_weights(f).d + 1):
        total = oracle_trace(f, G, k)
        if total.denominator != 1:
            raise NonIntegral(f"L_{k} = {total} is not an integer")
        values.append(int(total))
    return tuple(values)


def invert_traces(traces: tuple[int, ...]) -> CycloVector:
    """Recover e(m) from traces (L_1, ..., L_d~): m e(m) = sum_{k|m} mu(m/k) L_k,
    m | d~."""
    dt = len(traces)
    e: dict[int, int] = {}
    for m in _divisors(dt):
        s = sum(_moebius(m // k) * traces[k - 1] for k in _divisors(m))
        q, r = divmod(s, m)
        if r:
            raise NonIntegral(f"m*e(m) = {s} not divisible by m = {m}")
        if q:
            e[m] = q
    for k in range(1, dt + 1):
        recon = sum(m * em for m, em in e.items() if k % m == 0)
        if recon != traces[k - 1]:
            raise NonIntegral(
                f"trace reconstruction failed at k={k}: {recon} != {traces[k - 1]}")
    return CycloVector.from_entries(e)

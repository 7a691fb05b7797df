"""Mirror-theorem verification: built-in catalog, corpus enumeration, reports.

The three identities checked for a pair (f, G) with G_0 <= G <= G^fin are

    A_(f,G) = Gamma_(f^T,G^T),   g_(f,G) = j_(G^T),   e_st = mu,

comparing the curve-side invariants of (f, G) with the cusp-side invariants
of the transposed pair.  The built-in catalog carries the published table
rows and worked examples as fixtures with provenance tags; the corpus
enumerator generates every three-variable polynomial of the five types
within exponent and determinant bounds, together with all admissible groups.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
from dataclasses import dataclass, field
from functools import cached_property, partial
from importlib import resources
from typing import Callable

from .errors import LGMirrorError
from .curve_side import (
    CurveInvariants,
    curve_invariants,
    dolgachev,
    dolgachev_gfin,
    genus,
    orbit_invariants,
)
from .cusp_side import gabrielov, gabrielov_prime
from .ip_core import (
    InvertiblePolynomial,
    canonical_weights,
    cf,
    classify3,
    det,
    format_polynomial,
    parse_polynomial,
    reduced_weights,
    transpose,
)
from .spectra import (
    _poincare_verdict,
    _psi,
    equivariant_char_poly,
    poincare_series,
    psi,
    psi_closed_form,
)
from .symmetry import (
    DiagonalGroup,
    contains_g0,
    dual_group,
    format_group,
    g0_group,
    is_sl_subgroup,
    junior_count,
    parse_group_spec,
    subgroups_containing_g0,
)

__all__ = [
    "MirrorReport",
    "CatalogEntry",
    "CheckResult",
    "VerificationSummary",
    "verify_mirror",
    "builtin_catalog",
    "enumerate_polynomials",
    "enumerate_corpus",
    "run_verification",
    "analyze",
    "emit_report",
]


# ---------------------------------------------------------------------------
# the mirror report

@dataclass(frozen=True)
class MirrorReport:
    polynomial: str
    G: DiagonalGroup
    dolgachev: tuple[int, ...]
    gabrielov: tuple[int, ...]
    genus: int
    junior: int
    e_st: int
    mu: int
    notes: tuple[str, ...] = ()

    @cached_property
    def group(self) -> str:
        """The group's generators, formatted on first read."""
        return format_group(self.G)

    @property
    def a_eq_gamma(self) -> bool:
        return self.dolgachev == self.gabrielov

    @property
    def g_eq_j(self) -> bool:
        return self.genus == self.junior

    @property
    def e_eq_mu(self) -> bool:
        return self.e_st == self.mu

    @property
    def all_ok(self) -> bool:
        return self.a_eq_gamma and self.g_eq_j and self.e_eq_mu


def verify_mirror(f: InvertiblePolynomial, G: DiagonalGroup) -> MirrorReport:
    """Check the three mirror identities for G_0 <= G <= G^fin."""
    return _mirror_report(f, G, curve_invariants(f, G))


def _mirror_report(f: InvertiblePolynomial, G: DiagonalGroup,
                   ci: CurveInvariants) -> MirrorReport:
    """:func:`verify_mirror` given the curve invariants ci of (f, G)."""
    GT = dual_group(f, G)
    gd = gabrielov(transpose(f), GT)
    return MirrorReport(
        polynomial=format_polynomial(f), G=G,
        dolgachev=ci.dolgachev.multiset, gabrielov=gd.multiset, genus=ci.genus, junior=gd.j,
        e_st=ci.e_st, mu=gd.milnor)


# ---------------------------------------------------------------------------
# catalog

@dataclass(frozen=True)
class CatalogEntry:
    id: str
    kind: str  # "spherical" | "bimodal" | "worked" | "efimov"
    polynomial: str
    group_spec: str
    side: str  # "curve" | "dual"
    expected: dict
    notes: tuple[str, ...] = ()


def builtin_catalog() -> tuple[CatalogEntry, ...]:
    """Load the packaged fixture catalog (one JSON object per line)."""
    text = resources.files(__package__).joinpath("catalog.jsonl").read_text()
    entries = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        raw = json.loads(line)
        entries.append(CatalogEntry(
            id=raw["id"], kind=raw["kind"], polynomial=raw["polynomial"],
            group_spec=raw.get("group", "G0"), side=raw.get("side", "curve"),
            expected=raw.get("expected", {}), notes=tuple(raw.get("notes", []))))
    return tuple(entries)


# ---------------------------------------------------------------------------
# corpus enumeration

def _type_matrices(max_exp: int):
    """Exponent matrices of the five normal forms, parameters <= max_exp."""
    E = max_exp
    for p1, p2, p3 in itertools.combinations_with_replacement(range(2, E + 1), 3):
        yield ("I", (p1, p2, p3),
               ((p1, 0, 0), (0, p2, 0), (0, 0, p3)))
    for p1 in range(2, E + 1):
        for p2 in range(2, E + 1):
            for h in range(2, E + 1):  # h = p3/p2
                yield ("II", (p1, p2, p2 * h),
                       ((p1, 0, 0), (0, p2, 0), (0, 1, h)))
    for p1 in range(2, E + 1):
        for q2 in range(1, E + 1):
            for q3 in range(q2, E + 1):
                yield ("III", (p1, q2, q3),
                       ((p1, 0, 0), (0, q2 + 1, 1), (0, 1, q3 + 1)))
    for p1 in range(2, E + 1):
        for m in range(1, E + 1):  # m = p2/p1
            for h in range(2, E + 1):  # h = p3/p2
                yield ("IV", (p1, p1 * m, p1 * m * h),
                       ((p1, 0, 0), (1, m, 0), (0, 1, h)))
    for q in itertools.product(range(1, E + 1), repeat=3):
        rotations = [q, q[1:] + q[:1], q[2:] + q[:2]]
        if q == min(rotations):  # dedup up to variable permutation
            yield ("V", q,
                   ((q[0], 1, 0), (0, q[1], 1), (1, 0, q[2])))


def enumerate_polynomials(max_exp: int, max_det: int | None = None
                          ) -> list[InvertiblePolynomial]:
    """All five types with parameters <= max_exp, deduplicated up to variable
    permutation, optionally filtered by |det E| <= max_det; deterministic order."""
    out = []
    for _tag, _params, E in _type_matrices(max_exp):
        f = InvertiblePolynomial(
            n=3, E=E, coeffs=(1, 1, 1), varnames=("x", "y", "z"))
        if max_det is not None and abs(det(f)) > max_det:
            continue
        out.append(f)
    return out


def enumerate_corpus(max_det: int, max_exp: int):
    """Stream of (f, G) pairs: every admissible f and every G_0 <= G <= G^fin."""
    for f in enumerate_polynomials(max_exp, max_det):
        for G in subgroups_containing_g0(f):
            yield f, G


# ---------------------------------------------------------------------------
# verification runs

class CheckResult:
    """One check of one item: ``item``, ``check``, ``status`` ("pass" |
    "fail" | "n/a") and ``detail``.

    The item may be given as a zero-argument callable returning its name;
    it is called on the first read of ``item``, so the names of passing
    checks, which no report prints, are never built.
    """

    __slots__ = ("_item", "check", "status", "detail")

    def __init__(self, item: str | Callable[[], str], check: str, status: str,
                 detail: str = ""):
        self._item, self.check, self.status, self.detail = item, check, status, detail

    @property
    def item(self) -> str:
        if callable(self._item):
            self._item = self._item()
        return self._item

    def __repr__(self):
        return (f"CheckResult(item={self.item!r}, check={self.check!r}, "
                f"status={self.status!r}, detail={self.detail!r})")


@dataclass
class VerificationSummary:
    scope: str
    results: list[CheckResult] = field(default_factory=list)

    def add(self, item: str | Callable[[], str], check: str, ok: bool,
            detail: str = ""):
        self.results.append(CheckResult(
            item, check, "pass" if ok else "fail", "" if ok else detail))

    def add_na(self, item: str, check: str, detail: str = ""):
        self.results.append(CheckResult(item, check, "n/a", detail))

    @property
    def counts(self) -> dict[str, int]:
        c = {"pass": 0, "fail": 0, "n/a": 0}
        for r in self.results:
            c[r.status] += 1
        return c

    @property
    def failures(self) -> list[CheckResult]:
        return [r for r in self.results if r.status == "fail"]

    @property
    def exit_code(self) -> int:
        return 1 if self.failures else 0

    def to_text(self) -> str:
        lines = [f"verification scope: {self.scope}"]
        for r in self.failures:
            lines.append(f"FAIL  {r.item}  [{r.check}]  {r.detail}")
        c = self.counts
        lines.append(
            f"checks: {len(self.results)}  pass: {c['pass']}  "
            f"fail: {c['fail']}  n/a: {c['n/a']}")
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "scope": self.scope,
            "counts": self.counts,
            "failures": [
                {"item": r.item, "check": r.check, "detail": r.detail}
                for r in self.failures],
            "exit_code": self.exit_code,
        }


def _mirror_detail(rep: MirrorReport) -> str:
    parts = []
    if not rep.a_eq_gamma:
        parts.append(f"A = {rep.dolgachev} != Gamma = {rep.gabrielov}")
    if not rep.g_eq_j:
        parts.append(f"g = {rep.genus} != j = {rep.junior}")
    if not rep.e_eq_mu:
        parts.append(f"e_st = {rep.e_st} != mu = {rep.mu}")
    return "; ".join(parts)


def _pair_item(name: str, G: DiagonalGroup) -> str:
    return f"{name} | {format_group(G)}"


def _check_expected(summary, item, key, computed, expected_pair):
    value, provenance = expected_pair
    ok = computed == value
    summary.add(item, f"{key} [{provenance}]", ok,
                f"computed {computed}, expected {value}")


def _eval_spherical(entry: CatalogEntry, summary: VerificationSummary):
    ft = parse_polynomial(entry.polynomial)
    f = transpose(ft)
    G0 = g0_group(f)
    GT = dual_group(f, G0)
    exp = entry.expected
    if "g0t_order" in exp:
        _check_expected(summary, entry.id, "g0t_order", GT.order, exp["g0t_order"])
    if "gamma_prime" in exp:
        # isotropy triples are multisets of orders; the published rows do not
        # always print them in coordinate order
        computed = sorted(gabrielov_prime(ft).gamma_prime)
        value, prov = exp["gamma_prime"]
        _check_expected(summary, entry.id, "gamma_prime", computed,
                        [sorted(value), prov])
    if "gabrielov_g0t" in exp:
        computed = sorted(gabrielov(ft, GT).multiset)
        value, prov = exp["gabrielov_g0t"]
        _check_expected(summary, entry.id, "gabrielov_g0t",
                        computed, [sorted(value), prov])
    rep = verify_mirror(f, G0)
    summary.add(entry.id, "mirror", rep.all_ok, _mirror_detail(rep))


def _eval_curve(entry: CatalogEntry, summary: VerificationSummary):
    f = parse_polynomial(entry.polynomial)
    G = parse_group_spec(f, entry.group_spec)
    exp = entry.expected
    item = entry.id
    if "weights" in exp:
        ws = canonical_weights(f)
        _check_expected(summary, item, "weights", list(ws.w) + [ws.d], exp["weights"])
    if "cf" in exp:
        _check_expected(summary, item, "cf", cf(f), exp["cf"])
    if "genus" in exp:
        _check_expected(summary, item, "genus", genus(f, G), exp["genus"])
    if "g0t" in exp:
        value, prov = exp["g0t"]
        GT = dual_group(f, g0_group(f))
        want = parse_group_spec(transpose(f), value)
        summary.add(item, f"g0t [{prov}]", GT == want,
                    f"computed {format_group(GT)}, expected {value}")
    if "dolgachev" in exp:
        computed = sorted(dolgachev(f, G).multiset)
        value, prov = exp["dolgachev"]
        _check_expected(summary, item, "dolgachev", computed, [sorted(value), prov])
    if "dolgachev_gfin" in exp:
        _check_expected(summary, item, "dolgachev_gfin",
                        list(dolgachev_gfin(f)), exp["dolgachev_gfin"])
    if "gamma_prime" in exp:
        computed = sorted(gabrielov_prime(transpose(f)).gamma_prime)
        value, prov = exp["gamma_prime"]
        _check_expected(summary, item, "gamma_prime", computed, [sorted(value), prov])
    if "e_st" in exp:
        _check_expected(summary, item, "e_st", curve_invariants(f, G).e_st, exp["e_st"])
    if "mu" in exp:
        GT = dual_group(f, G)
        computed = gabrielov(transpose(f), GT).milnor
        _check_expected(summary, item, "mu", computed, exp["mu"])
    rep = verify_mirror(f, G)
    summary.add(item, "mirror", rep.all_ok, _mirror_detail(rep))


def _eval_efimov(entry: CatalogEntry, summary: VerificationSummary):
    f = parse_polynomial(entry.polynomial)
    G = parse_group_spec(f, entry.group_spec)
    item = entry.id
    summary.add(item, "group-in-SL", is_sl_subgroup(G), "dual-side group not in SL")
    if "junior" in entry.expected:
        _check_expected(summary, item, "junior", junior_count(G),
                        entry.expected["junior"])
    # the given group is dual-side: pull back through the duality and run the
    # mirror check on (f, G^T); (G^T)^T = G must recover the input group
    Gc = dual_group(f, G)
    summary.add(item, "dual-contains-g0", contains_g0(Gc),
                "dual of the given SL group misses g_0")
    back = dual_group(transpose(f), Gc)
    summary.add(item, "double-dual", back == G, "(G^T)^T != G")
    rep = verify_mirror(f, Gc)
    summary.add(item, "mirror", rep.all_ok, _mirror_detail(rep))


def run_catalog_verification() -> VerificationSummary:
    summary = VerificationSummary(scope="catalog")
    for entry in builtin_catalog():
        try:
            if entry.kind == "spherical":
                _eval_spherical(entry, summary)
            elif entry.kind == "efimov":
                _eval_efimov(entry, summary)
            else:
                _eval_curve(entry, summary)
        except LGMirrorError as exc:
            summary.add(entry.id, "evaluation", False, f"error: {exc}")
    return summary


def run_corpus_verification(max_det: int = 300, max_exp: int = 8) -> VerificationSummary:
    summary = VerificationSummary(scope=f"corpus(max_det={max_det}, max_exp={max_exp})")
    for f in enumerate_polynomials(max_exp, max_det):
        name = format_polynomial(f)
        try:
            G0 = g0_group(f)
            ci0 = curve_invariants(f, G0)
            strange_ok = (orbit_invariants(reduced_weights(f))
                          == ci0.dolgachev.multiset)
            summary.add(name, "orbit-invariants", strange_ok,
                        "C*-orbit invariants differ from the isotropy multiset")
            psi0 = _psi(poincare_series(f, G0), ci0.genus, ci0.dolgachev.multiset)
            summary.add(name, "psi-closed-form", psi_closed_form(f) == psi0,
                        "closed-form psi differs from the assembled one")
            verdict = _poincare_verdict(f, ci0.genus, psi0)
            if not verdict.applicable:
                summary.add_na(name, "poincare", verdict.reason or "")
            else:
                summary.add(name, "poincare", verdict.equal,
                            "psi(f, G_0) != phi(f^T, G_0^T)")
            for G in subgroups_containing_g0(f):
                rep = _mirror_report(f, G, ci0 if G == G0 else curve_invariants(f, G))
                summary.add(partial(_pair_item, name, G), "mirror", rep.all_ok,
                            _mirror_detail(rep))
        except LGMirrorError as exc:
            summary.add(name, "evaluation", False, f"error: {exc}")
    return summary


def run_verification(scope: str = "all", max_det: int = 300,
                     max_exp: int = 8) -> VerificationSummary:
    """Run the requested verification scope; exit_code 0 iff no failures."""
    if scope == "catalog":
        return run_catalog_verification()
    if scope == "corpus":
        return run_corpus_verification(max_det, max_exp)
    if scope != "all":
        raise LGMirrorError(f"unknown scope {scope!r}")
    combined = VerificationSummary(scope="catalog + corpus")
    combined.results.extend(run_catalog_verification().results)
    combined.results.extend(run_corpus_verification(max_det, max_exp).results)
    return combined


# ---------------------------------------------------------------------------
# full single-pair reports

def analyze(f: InvertiblePolynomial, G: DiagonalGroup | None = None,
            group_label: str | None = None) -> dict:
    """JSON-ready report of the full invariant suite for one pair (f, G)."""
    if G is None:
        G = g0_group(f)
    ws = canonical_weights(f)
    red = reduced_weights(f)
    tag = classify3(f)
    GT = dual_group(f, G)
    ft = transpose(f)
    rep = verify_mirror(f, G)
    cp = gabrielov_prime(ft)
    series: dict[str, dict | None] = {}
    try:
        series["poincare"] = poincare_series(f, G).to_json()
        series["psi"] = psi(f, G).to_json()
    except LGMirrorError:
        series["poincare"] = None
        series["psi"] = None
    series["phi"] = equivariant_char_poly(ft, GT).to_json()
    return {
        "input": {
            "polynomial": rep.polynomial,
            "group": group_label or rep.group,
        },
        "exponent_matrix": [list(row) for row in f.E],
        "det": abs(det(f)),
        "weights": {
            "canonical": list(ws.w) + [ws.d],
            "reduced": list(red.w) + [red.d],
            "cf": ws.cf,
        },
        "type": {"tag": tag.tag, "params": list(tag.params), "perm": list(tag.perm)},
        "group": {"order": G.order, "generators": rep.group},
        "dual": {"order": GT.order, "generators": format_group(GT)},
        "curve": {"genus": rep.genus, "dolgachev": list(rep.dolgachev),
                  "stringy_euler": rep.e_st},
        "cusp": {
            "gamma_prime": list(cp.gamma_prime),
            "delta": cp.delta,
            "gabrielov": list(rep.gabrielov),
            "junior": rep.junior,
            "milnor": rep.mu,
        },
        "series": series,
        "checks": {
            "a_eq_gamma": rep.a_eq_gamma,
            "g_eq_j": rep.g_eq_j,
            "e_eq_mu": rep.e_eq_mu,
        },
    }


_CSV_COLUMNS = [
    "polynomial", "group", "group_order", "det", "cf", "type", "weights",
    "reduced", "genus", "dolgachev", "stringy_euler", "gamma_prime", "delta",
    "gabrielov", "junior", "milnor", "poincare", "psi", "phi",
    "a_eq_gamma", "g_eq_j", "e_eq_mu",
]


def _csv_row(report: dict) -> dict:
    j = lambda v: json.dumps(v, sort_keys=True)
    return {
        "polynomial": report["input"]["polynomial"],
        "group": report["group"]["generators"],
        "group_order": report["group"]["order"],
        "det": report["det"],
        "cf": report["weights"]["cf"],
        "type": report["type"]["tag"],
        "weights": j(report["weights"]["canonical"]),
        "reduced": j(report["weights"]["reduced"]),
        "genus": report["curve"]["genus"],
        "dolgachev": j(report["curve"]["dolgachev"]),
        "stringy_euler": report["curve"]["stringy_euler"],
        "gamma_prime": j(report["cusp"]["gamma_prime"]),
        "delta": report["cusp"]["delta"],
        "gabrielov": j(report["cusp"]["gabrielov"]),
        "junior": report["cusp"]["junior"],
        "milnor": report["cusp"]["milnor"],
        "poincare": j(report["series"]["poincare"]),
        "psi": j(report["series"]["psi"]),
        "phi": j(report["series"]["phi"]),
        "a_eq_gamma": report["checks"]["a_eq_gamma"],
        "g_eq_j": report["checks"]["g_eq_j"],
        "e_eq_mu": report["checks"]["e_eq_mu"],
    }


def _text_block(report: dict) -> str:
    lines = [
        f"polynomial      {report['input']['polynomial']}",
        f"group           {report['group']['generators']} (order {report['group']['order']})",
        f"type            {report['type']['tag']}  params {tuple(report['type']['params'])}",
        f"det             {report['det']}",
        f"weights         {tuple(report['weights']['canonical'])}  cf {report['weights']['cf']}",
        f"reduced         {tuple(report['weights']['reduced'])}",
        f"dual group      {report['dual']['generators']} (order {report['dual']['order']})",
        f"genus           {report['curve']['genus']}",
        f"dolgachev       {tuple(report['curve']['dolgachev'])}",
        f"stringy euler   {report['curve']['stringy_euler']}",
        f"gamma'          {tuple(report['cusp']['gamma_prime'])}  delta {report['cusp']['delta']}",
        f"gabrielov       {tuple(report['cusp']['gabrielov'])}",
        f"junior          {report['cusp']['junior']}",
        f"milnor          {report['cusp']['milnor']}",
        f"poincare        {report['series']['poincare']}",
        f"psi             {report['series']['psi']}",
        f"phi             {report['series']['phi']}",
        "checks          A=Gamma: {a}  g=j: {g}  e_st=mu: {e}".format(
            a=report["checks"]["a_eq_gamma"], g=report["checks"]["g_eq_j"],
            e=report["checks"]["e_eq_mu"]),
    ]
    return "\n".join(lines)


def emit_report(report, format: str = "text") -> str:
    """Deterministic serialization of one report dict (or a list of them)."""
    reports = report if isinstance(report, list) else [report]
    if format == "json":
        payload = reports if isinstance(report, list) else report
        return json.dumps(payload, sort_keys=True, indent=2)
    if format == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=_CSV_COLUMNS, lineterminator="\n")
        writer.writeheader()
        for r in reports:
            writer.writerow(_csv_row(r))
        return buf.getvalue()
    if format == "text":
        return "\n\n".join(_text_block(r) for r in reports)
    raise LGMirrorError(f"unknown format {format!r}")

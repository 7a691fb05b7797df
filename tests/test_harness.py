"""Catalog, corpus enumeration, mirror verification, reports."""

import json
from collections import Counter

import lgmirror.curve_side
from lgmirror import (
    analyze,
    builtin_catalog,
    det,
    emit_report,
    enumerate_polynomials,
    dual_group,
    format_polynomial,
    g0_group,
    gfin,
    contains_g0,
    is_sl_subgroup,
    parse_group_spec,
    parse_polynomial,
    run_verification,
    subgroups_containing_g0,
    verify_mirror,
)


# ---------------------------------------------------------------------------
# verify_mirror

def test_mirror_e6():
    f = parse_polynomial("x^2+y^3+z^4")
    rep = verify_mirror(f, g0_group(f))
    assert rep.dolgachev == rep.gabrielov == (2, 3, 3)
    assert rep.genus == rep.junior == 0
    assert rep.e_st == rep.mu == 7
    assert rep.all_ok


def test_mirror_e8tilde_intermediate():
    f = parse_polynomial("x^2+y^3+z^6")
    rep = verify_mirror(f, parse_group_spec(f, "index:3"))
    assert rep.dolgachev == rep.gabrielov == (2, 2, 2, 2)
    assert rep.e_st == rep.mu == 6
    assert rep.all_ok


def test_mirror_seidel():
    f = parse_polynomial("x^2+x*y^3+y*z^5")
    rep = verify_mirror(f, g0_group(f))
    assert rep.dolgachev == rep.gabrielov == ()
    assert rep.genus == rep.junior == 2
    assert rep.e_st == rep.mu == -2
    assert rep.all_ok


def test_mirror_checks_recomputed():
    f = parse_polynomial("x^2+y^3+z^4")
    rep = verify_mirror(f, g0_group(f))
    import dataclasses
    broken = dataclasses.replace(rep, junior=rep.junior + 1)
    assert not broken.g_eq_j and not broken.all_ok


# ---------------------------------------------------------------------------
# catalog

def test_catalog_loads_and_ids_unique():
    entries = builtin_catalog()
    assert len(entries) > 50
    ids = [e.id for e in entries]
    assert len(ids) == len(set(ids))


def test_catalog_entries_reproduce_valid_pairs():
    for entry in builtin_catalog():
        if entry.kind == "spherical":
            f = parse_polynomial(entry.polynomial)  # the transposed side
            continue
        f = parse_polynomial(entry.polynomial)
        G = parse_group_spec(f, entry.group_spec)
        if entry.side == "dual":
            assert is_sl_subgroup(G)
        else:
            assert contains_g0(G)
            assert G.order <= gfin(f).order


def test_catalog_expected_values_carry_provenance():
    tags = set()
    for entry in builtin_catalog():
        for key, pair in entry.expected.items():
            assert len(pair) == 2
            tags.add(pair[1])
    assert tags == {"PAPER", "DERIVED"}


# ---------------------------------------------------------------------------
# corpus enumeration

def test_enumerate_fermat_exp3():
    fs = [f for f in enumerate_polynomials(3)
          if all(sum(1 for e in row if e) == 1 for row in f.E)]
    triples = sorted(tuple(sorted(f.E[i][i] for i in range(3))) for f in fs)
    assert triples == [(2, 2, 2), (2, 2, 3), (2, 3, 3), (3, 3, 3)]


def test_enumerate_intermediate_group_count():
    f = parse_polynomial("x^2+y^3+z^6")
    assert len(subgroups_containing_g0(f)) >= 3


def test_enumerate_pairs_satisfy_duality(corpus_pairs):
    for f, G in corpus_pairs[::37]:
        assert G.order * dual_group(f, G).order == abs(det(f))


def test_enumerate_deduplicates_permutations():
    texts = {format_polynomial(f) for f in enumerate_polynomials(3)}
    # the permuted Fermat y^2+x^3+z^2 normalizes to (2,2,3); no duplicates
    assert "x^3 + y^2 + z^2" not in texts
    assert len(texts) == len(enumerate_polynomials(3))


def test_enumerate_respects_det_bound():
    for f in enumerate_polynomials(8, 100):
        assert abs(det(f)) <= 100


# ---------------------------------------------------------------------------
# verification runs

def test_catalog_verification_passes():
    summary = run_verification("catalog")
    assert summary.exit_code == 0
    assert summary.counts["fail"] == 0
    assert summary.counts["pass"] > 200


def _failures_by_check(summary):
    return Counter(r.check for r in summary.failures)


def test_corrupted_alpha_table_is_caught(monkeypatch):
    # negative control: corrupt the per-type isotropy table and expect the
    # C*-orbit and closed-form psi comparisons to flag it.  The uncorrupted
    # run already fails (literal poincare checks), so each of those two kinds
    # must fail more often than it does there.
    baseline = _failures_by_check(run_verification("corpus", max_det=30, max_exp=3))
    rules = dict(lgmirror.curve_side._ALPHA_RULES)
    rules["I"] = lambda p: (p[0] + 1, p[1], p[2])
    monkeypatch.setattr(lgmirror.curve_side, "_ALPHA_RULES", rules)
    summary = run_verification("corpus", max_det=30, max_exp=3)
    assert summary.counts["fail"] > 0
    assert summary.exit_code == 1
    failures = _failures_by_check(summary)
    for check in ("orbit-invariants", "psi-closed-form"):
        assert failures[check] > baseline[check], (check, failures, baseline)


def test_small_corpus_mirror_checks_pass():
    summary = run_verification("corpus", max_det=60, max_exp=4)
    mirror_fails = [r for r in summary.failures if r.check == "mirror"]
    strange_fails = [r for r in summary.failures if r.check == "orbit-invariants"]
    table2_fails = [r for r in summary.failures if r.check == "psi-closed-form"]
    assert not mirror_fails and not strange_fails and not table2_fails


# ---------------------------------------------------------------------------
# reports

def test_report_json_roundtrip():
    f = parse_polynomial("x^2+y^3+z^4")
    report = analyze(f, g0_group(f))
    text = emit_report(report, "json")
    assert json.loads(text) == report


def test_report_cyclo_vector_json_shape():
    f = parse_polynomial("x^2+y^3+z^4")
    report = analyze(f, g0_group(f))
    psi = report["series"]["psi"]
    assert psi == {"12": 1, "3": 1, "2": 1, "1": -1, "6": -1, "4": -1}


def test_report_csv_stable():
    fs = [parse_polynomial(t) for t in ("x^2+y^3+z^4", "x^2+y^3+z^6")]
    reports = [analyze(f, g0_group(f)) for f in fs]
    a = emit_report(reports, "csv")
    b = emit_report(reports, "csv")
    assert a == b
    lines = a.strip().splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("polynomial,group,group_order,det,cf,type")


def test_report_text_mentions_checks():
    f = parse_polynomial("x^2+y^3+z^4")
    report = analyze(f, g0_group(f))
    text = emit_report(report, "text")
    assert "A=Gamma: True" in text


def test_reports_deterministic_across_runs():
    f = parse_polynomial("x^2+x*y^3+y*z^5")
    a = emit_report(analyze(f, g0_group(f)), "json")
    b = emit_report(analyze(f, g0_group(f)), "json")
    assert a == b

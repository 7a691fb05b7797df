"""Command line interface.

Subcommands: analyze, transpose, dual, dolgachev, gabrielov, charpoly,
poincare, verify, catalog, enumerate.  Exit codes: 0 success, 1 verification
failure, 2 invalid input.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import LGMirrorError
from .curve_side import curve_invariants
from .cusp_side import gabrielov, gabrielov_prime
from .harness import (
    analyze,
    builtin_catalog,
    emit_report,
    enumerate_corpus,
    enumerate_polynomials,
    run_verification,
)
from .ip_core import canonical_weights, det, format_polynomial, parse_polynomial, transpose
from .spectra import char_poly_qh, equivariant_char_poly, poincare_series, psi
from .symmetry import dual_group, format_group, parse_group_spec

__all__ = ["main"]


def _parse_poly(text: str):
    f = parse_polynomial(text)
    if any(c != 1 for c in f.coeffs):
        print("note: non-unit coefficients are recorded but do not affect "
              "the computed invariants", file=sys.stderr)
    return f


def _print(args, payload_text: str, payload_json):
    if args.format == "json":
        print(json.dumps(payload_json, sort_keys=True, indent=2))
    else:
        print(payload_text)


def _cmd_analyze(args):
    f = _parse_poly(args.polynomial)
    G = parse_group_spec(f, args.group)
    report = analyze(f, G, group_label=args.group)
    print(emit_report(report, args.format))
    return 0


def _cmd_transpose(args):
    f = _parse_poly(args.polynomial)
    ft = transpose(f)
    _print(args, format_polynomial(ft), {
        "polynomial": format_polynomial(ft),
        "exponent_matrix": [list(r) for r in ft.E]})
    return 0


def _cmd_dual(args):
    f = _parse_poly(args.polynomial)
    G = parse_group_spec(f, args.group)
    GT = dual_group(f, G)
    _print(args, f"{format_group(GT)} (order {GT.order})", {
        "generators": format_group(GT), "order": GT.order})
    return 0


def _cmd_dolgachev(args):
    f = _parse_poly(args.polynomial)
    G = parse_group_spec(f, args.group)
    ci = curve_invariants(f, G)
    data = ci.dolgachev
    text = (f"dolgachev: {list(data.multiset)}\n"
            f"genus: {ci.genus}\nstringy euler: {ci.e_st}")
    _print(args, text, {
        "dolgachev": list(data.multiset),
        "per_coordinate": [
            {"alpha_prime": c.alpha_prime, "k_order": c.k_order,
             "value": c.value, "multiplicity": c.multiplicity}
            for c in data.per_coordinate],
        "genus": ci.genus, "stringy_euler": ci.e_st})
    return 0


def _cmd_gabrielov(args):
    f = _parse_poly(args.polynomial)
    G = parse_group_spec(f, args.group)
    cp = gabrielov_prime(f)
    data = gabrielov(f, G)
    vec = data.char_poly
    text = (f"gamma': {list(cp.gamma_prime)}  delta: {cp.delta}\n"
            f"gabrielov: {list(data.multiset)}\n"
            f"junior: {data.j}\nmilnor: {data.milnor}\ncharpoly: {vec}")
    _print(args, text, {
        "gamma_prime": list(cp.gamma_prime), "delta": cp.delta,
        "gabrielov": list(data.multiset), "junior": data.j,
        "milnor": data.milnor, "charpoly": vec.to_json()})
    return 0


def _cmd_charpoly(args):
    f = _parse_poly(args.polynomial)
    G = parse_group_spec(f, args.group)
    if G.order == 1:
        exps, vec = char_poly_qh(f)
        payload = {"charpoly": vec.to_json(), "degree": vec.degree,
                   "exponents": [str(q) for q in exps]}
    else:
        vec = equivariant_char_poly(f, G)
        payload = {"charpoly": vec.to_json(), "degree": vec.degree}
    _print(args, f"{vec}  (degree {vec.degree})", payload)
    return 0


def _cmd_poincare(args):
    f = _parse_poly(args.polynomial)
    G = parse_group_spec(f, args.group)
    p = poincare_series(f, G)
    ps = psi(f, G)
    _print(args, f"poincare: {p}\npsi: {ps}",
           {"poincare": p.to_json(), "psi": ps.to_json()})
    return 0


def _cmd_verify(args):
    summary = run_verification(args.scope, args.max_det, args.max_exp)
    if args.format == "json":
        print(json.dumps(summary.to_json(), sort_keys=True, indent=2))
    else:
        print(summary.to_text())
    return summary.exit_code


def _cmd_catalog(args):
    entries = builtin_catalog()
    if args.format == "json":
        payload = [{
            "id": e.id, "kind": e.kind, "polynomial": e.polynomial,
            "group": e.group_spec, "side": e.side, "expected": e.expected,
            "notes": list(e.notes)} for e in entries]
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        for e in entries:
            print(f"{e.id:22s} {e.kind:9s} {e.polynomial}  [{e.group_spec}]")
        print(f"{len(entries)} entries")
    return 0


def _cmd_enumerate(args):
    if args.pairs:
        reports = [analyze(f, G) for f, G in enumerate_corpus(args.max_det, args.max_exp)]
        print(emit_report(reports, args.format if args.format != "text" else "csv"))
        return 0
    fs = enumerate_polynomials(args.max_exp, args.max_det)
    if args.format == "json":
        print(json.dumps([format_polynomial(f) for f in fs], indent=2))
    else:
        for f in fs:
            ws = canonical_weights(f)
            print(f"{format_polynomial(f):34s} det {abs(det(f)):4d}  W {ws}")
        print(f"{len(fs)} polynomials")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lgmirror",
        description="Exact invariants and mirror checks for orbifold "
                    "Landau-Ginzburg models from invertible polynomials")
    parser.add_argument("--format", choices=["text", "json", "csv"],
                        default="text", help="output format")
    parser.add_argument("--json", action="store_const", const="json",
                        dest="format", help="shorthand for --format json")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_):
        p = sub.add_parser(name, help=help_)
        p.set_defaults(fn=fn)
        return p

    p = add("analyze", _cmd_analyze, "full invariant report for a pair (f, G)")
    p.add_argument("polynomial")
    p.add_argument("-g", "--group", default="G0",
                   help="group spec: G0 | Gfin | index:<k> | 1/r(a,b,c)[;...]")

    p = add("transpose", _cmd_transpose, "Berglund-Huebsch transpose")
    p.add_argument("polynomial")

    p = add("dual", _cmd_dual, "dual group of (f, G)")
    p.add_argument("polynomial")
    p.add_argument("-g", "--group", default="G0")

    p = add("dolgachev", _cmd_dolgachev, "Dolgachev numbers, genus, stringy Euler number")
    p.add_argument("polynomial")
    p.add_argument("-g", "--group", default="G0")

    p = add("gabrielov", _cmd_gabrielov,
            "Gabrielov numbers / cusp invariants of (f, G) with G in SL")
    p.add_argument("polynomial")
    p.add_argument("-g", "--group", default="trivial")

    p = add("charpoly", _cmd_charpoly, "characteristic polynomial of (f, G)")
    p.add_argument("polynomial")
    p.add_argument("-g", "--group", default="trivial")

    p = add("poincare", _cmd_poincare, "Poincare series and psi of (f, G)")
    p.add_argument("polynomial")
    p.add_argument("-g", "--group", default="G0")

    p = add("verify", _cmd_verify, "run the verification suite")
    p.add_argument("--scope", choices=["catalog", "corpus", "all"], default="all")
    p.add_argument("--max-det", type=int, default=300)
    p.add_argument("--max-exp", type=int, default=8)

    add("catalog", _cmd_catalog, "list the built-in fixture catalog")

    p = add("enumerate", _cmd_enumerate, "enumerate the polynomial corpus")
    p.add_argument("--max-det", type=int, default=100)
    p.add_argument("--max-exp", type=int, default=4)
    p.add_argument("--pairs", action="store_true",
                   help="emit one report row per (f, G) pair")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except LGMirrorError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Command line interface: subcommands, formats, exit codes."""

import json

import pytest

from lgmirror.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_text(capsys):
    code, out, _ = run(capsys, "analyze", "x^2+y^3+z^4")
    assert code == 0
    assert "dolgachev       (2, 3, 3)" in out
    assert "A=Gamma: True" in out


def test_analyze_json(capsys):
    code, out, _ = run(capsys, "--json", "analyze", "x^2+x*y^3+y*z^5")
    assert code == 0
    report = json.loads(out)
    assert report["weights"]["canonical"] == [15, 5, 5, 30]
    assert report["curve"]["genus"] == 2
    assert report["checks"]["g_eq_j"] is True


def test_transpose(capsys):
    code, out, _ = run(capsys, "transpose", "x^3+y^4+y*z^5")
    assert code == 0
    assert out.strip() == "x^3 + y^4*z + z^5"


def test_dual(capsys):
    code, out, _ = run(capsys, "dual", "x^2+x*y^3+y*z^5")
    assert code == 0
    assert "1/5(1,3,1)" in out


def test_dolgachev(capsys):
    code, out, _ = run(capsys, "dolgachev", "x^6*y+y^3+z^2")
    assert code == 0
    assert "[2, 2, 2, 3]" in out


def test_gabrielov(capsys):
    code, out, _ = run(capsys, "gabrielov", "x^2+y^3+z^4", "-g", "1/2(1,0,1)")
    assert code == 0
    assert "[2, 3, 3]" in out


def test_charpoly_trivial_and_group(capsys):
    code, out, _ = run(capsys, "charpoly", "x^2+y^3+z^5")
    assert code == 0 and "degree 8" in out
    code, out, _ = run(capsys, "--json", "charpoly", "x^2+y^3+z^4",
                       "-g", "1/2(1,0,1)")
    assert code == 0
    assert json.loads(out)["charpoly"] == {
        "12": 1, "3": 1, "2": 1, "1": -1, "6": -1, "4": -1}


def test_charpoly_trivial_group_spellings_agree(capsys):
    # a literal that generates the trivial group is the trivial group
    for fmt in ("--format=text", "--json"):
        want = run(capsys, fmt, "charpoly", "x^2+y^3+z^5", "-g", "trivial")
        for spec in ("1", "{1}", "1/2(0,0,0)", "1/3(3,0,-6)"):
            assert run(capsys, fmt, "charpoly", "x^2+y^3+z^5", "-g", spec) == want, spec
    assert len(json.loads(want[1])["exponents"]) == 8


def test_poincare(capsys):
    code, out, _ = run(capsys, "--json", "poincare", "x^2+y^3+z^4")
    assert code == 0
    assert json.loads(out)["poincare"] == {"12": 1, "6": -1, "4": -1, "3": -1}


def test_verify_catalog_exit_zero(capsys):
    code, out, _ = run(capsys, "verify", "--scope", "catalog")
    assert code == 0
    assert "fail: 0" in out


def test_verify_json(capsys):
    code, out, _ = run(capsys, "--json", "verify", "--scope", "corpus",
                       "--max-det", "40", "--max-exp", "3")
    payload = json.loads(out)
    assert payload["exit_code"] == code
    assert payload["counts"]["pass"] > 0


def test_catalog_listing(capsys):
    code, out, _ = run(capsys, "catalog")
    assert code == 0
    assert "bimodal-J30" in out and "seidel" in out


def test_enumerate(capsys):
    code, out, _ = run(capsys, "enumerate", "--max-exp", "3", "--max-det", "30")
    assert code == 0
    assert "x^2 + y^2 + z^2" in out


def test_enumerate_pairs_csv(capsys):
    code, out, _ = run(capsys, "enumerate", "--max-exp", "2", "--max-det", "30",
                       "--pairs")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("polynomial,")
    assert len(lines) > 2


def test_invalid_input_exit_two(capsys):
    code, _, err = run(capsys, "analyze", "x*y*z+x^2+y^2")
    assert code == 2
    assert "error:" in err


def test_analyze_refuses_the_trivial_group(capsys):
    # the help no longer offers "trivial": every group without g_0 is refused
    code, out, err = run(capsys, "analyze", "x^2+y^3+z^6", "-g", "trivial")
    assert (code, out) == (2, "")
    assert err == "error: Dolgachev numbers need G containing g_0\n"


def test_analyze_help_offers_no_trivial_group(capsys):
    with pytest.raises(SystemExit):
        main(["analyze", "--help"])
    out = " ".join(capsys.readouterr().out.split())  # undo line wrapping
    assert "G0 | Gfin | index:<k>" in out and "trivial" not in out


def test_invalid_group_exit_two(capsys):
    code, _, err = run(capsys, "dolgachev", "x^2+y^3+z^4", "-g", "1/5(1,1,1)")
    assert code == 2


@pytest.mark.parametrize("spec, phases", [
    ("1/7(1,0,0)", "(1/7, 0, 0)"),  # 7 does not divide |det E| = 36
    ("1/2(1,1,0)", "(1/2, 1/2, 0)"),  # y^3 picks up the phase 1/2
    ("1/4(6,2,0)", "(1/2, 1/2, 0)"),  # printed mod 1, in lowest terms
])
def test_literal_that_is_not_a_symmetry_exit_two(capsys, spec, phases):
    code, out, err = run(capsys, "dual", "x^2+y^3+z^6", "-g", spec)
    assert (code, out) == (2, "")
    assert err == f"error: {phases} does not leave every monomial invariant\n"


def test_nonunit_coefficient_notice(capsys):
    code, out, err = run(capsys, "analyze", "2*x^2+y^3+z^4")
    assert code == 0
    assert "non-unit coefficients" in err

"""Golden outputs: exit codes and SHA-256 digests of CLI output, byte for byte.

The digests pin the verify JSON of a small corpus sweep and the ``analyze``
and ``dual`` output on inputs that cover every kind of group literal
(``G0``, ``Gfin``, ``trivial``, ``index:<k>`` and explicit generators), and
the output of every other subcommand that computes something: ``gabrielov``,
``dolgachev``, ``charpoly``, ``poincare``, ``transpose``, the catalog
verification and the CSV report of ``enumerate --pairs``.  A
change of the group core, the formatting of groups or any invariant shows
here as a changed digest.  Rebuild a digest only when the output is meant to
change, and say why.
"""

import hashlib

import pytest

from lgmirror.cli import main

VERIFY_ARGV = ["--json", "verify", "--scope", "corpus", "--max-det", "120", "--max-exp", "6"]
VERIFY_GOLDEN = (1, "acc19abf8df47baf0c182350cc2d781a2628ab1754f1a5aa4b477d9a9d0608ff")

# (polynomial, group literal) -> (exit code, sha256 of stdout) per subcommand
GOLDEN = {
    ("x^2+x*y^3+y*z^5", "G0"): {
        "analyze": (0, "723a10694510a4a0a5d5fe54e0441d57db4413bc979eb558e7635af5ffbed676"),
        "dual": (0, "6831d11920b551dccf0406f6fdeed8c48cbf1cbe3f79cd3e1622e52b5fa6d86b"),
    },
    ("x^3*y+y^3*z+z^3*x", "G0"): {
        "analyze": (0, "782410f02118c096e442b55a0ca154314ca51be25c236d02bc5eb8cb8f09ffcd"),
        "dual": (0, "86994e230bedc6b399020e41e6b073fdd03e0ce927082e4d4be23f7f2bad8667"),
    },
    ("x^2+y^3+z^6", "Gfin"): {
        "analyze": (0, "35d77079446cdb94195858a5bb6c0f1c2aff18c1da36514107b79226a9ccd171"),
        "dual": (0, "0afe538009a1c5a4c49bf19abbb526fe228e831b6b69eca7e6ff0b89f6846884"),
    },
    ("x^2+y^3+z^6", "index:2"): {
        "analyze": (0, "c90712f4c4b47cf73e778fc2d189c271f32cc12a5f65ce869a36d6bee151d630"),
        "dual": (0, "12f111d7da0f2a65a1c6e344da571dff785269aadd6f3a0fffc4c6bb9132e771"),
    },
    ("x^5+y^5+z^5", "trivial"): {
        # analyze needs G containing g_0: exit 2, nothing on stdout
        "analyze": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        "dual": (0, "d1337ba71db1460cd2546f41d3ddc1e2376d8ce75602d548f36045be7769f08e"),
    },
    ("x^5+y^5+z^5", "1/5(1,1,1);1/5(1,4,0)"): {
        "analyze": (0, "b52d52635ffe73babab77cb5545c1157b1e00005553bfd3eaaac7c049fd9ec35"),
        "dual": (0, "ef6f786bb75c0e10ae2fc20d81c5d9731a2e9be6f98b9a7b1a170cdd4b1b7123"),
    },
    ("x^3+y^4+y*z^5", "G0"): {
        "analyze": (0, "c52100f4180daad7e895057c14e48b9521aff4d53e2374946cdd9dec21bec31d"),
        "dual": (0, "0afe538009a1c5a4c49bf19abbb526fe228e831b6b69eca7e6ff0b89f6846884"),
    },
    ("x^2*y+y^3*z+z^4", "Gfin"): {
        "analyze": (0, "c90302f5cdc3491df4cb18312074ccc770335e8a3f17d8f5ddc9fa2e3f0cd740"),
        "dual": (0, "0afe538009a1c5a4c49bf19abbb526fe228e831b6b69eca7e6ff0b89f6846884"),
    },
    ("x^3*y+y^3*z+z^3*x", "trivial"): {
        "analyze": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        "dual": (0, "ca563de204e5184fe335f34e85dd835ff635d58308ee48fa9308802c5deb46dd"),
    },
    ("x^4+y^4+z^4", "G0"): {
        "analyze": (0, "ec35e783d1bdc60f722e4fec35c4dc1331beccbca4924156f94e8bf5e8c11e3b"),
        "dual": (0, "59a27a47a39f369f6998caae67b2f591200b75be539114a73ec47dea3806bffa"),
    },
    ("x^4+y^4+z^4", "index:4"): {
        # seven subgroups of index 4 contain G_0: the literal is refused
        "analyze": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        "dual": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    },
}

# argv -> (exit code, sha256 of stdout)
GOLDEN_COMMANDS = {
    ("gabrielov", "x^2+y^3+z^6", "-g", "trivial"):
        (0, "438135683fae11b5e3914ec7d602d465125f2a4d9aece3f86dfd49c7a588bf9e"),
    ("--json", "gabrielov", "x^2+y^3+z^6", "-g", "trivial"):
        (0, "045502344103d7a46afdfc2247898d7311abd8f9ecb6a01c3d96dbf37ffd97aa"),
    ("gabrielov", "x^2+y^3+z^6", "-g", "1/2(1,0,1)"):
        (0, "ec3086a96b8e51920b718834c33c4735dd60813d0ce32920d581452e5ad59c09"),
    ("--json", "gabrielov", "x^2+y^3+z^6", "-g", "1/2(1,0,1)"):
        (0, "7bc777daabb2badd509b5cd08b106c0f3a7285d31beb133fc6375cc68c95a77a"),
    ("gabrielov", "x^3*y+y^3*z+z^3*x", "-g", "trivial"):
        (0, "6d5ad7c6936b1a1e2140849f39039427303c3f5cc80a6c2058bbaa4293790cb4"),
    ("--json", "gabrielov", "x^2+x*y^3+y*z^5", "-g", "trivial"):
        (0, "e09fbf50ae83954ccf851aaf874fa999c37197c44ab54fa0e2768ec91203f329"),
    # empty Gabrielov multiset, j = 2: the characteristic polynomial is 1/(1-t)^2
    ("gabrielov", "x^5+y^5+z^5", "-g", "1/5(1,1,3)"):
        (0, "b17cd7c1bf26c84120a2123e6f34fa1f0f4f3b0e3c2c4724c327c98837ffca76"),
    ("gabrielov", "x^2+y^3+z^6", "-g", "G0"):
        (0, "0920eb184e1fc3076ddad8db3f671c895b0f20f773c5b97721c3ad4f8561cb0b"),
    ("dolgachev", "x^2+x*y^3+y*z^5"):
        (0, "e4f4338d8570dfff7ddac84801fcfa36de83e8b15b5efac2a96b0971baf0c5f1"),
    ("--json", "dolgachev", "x^2+y^3+z^6", "-g", "index:2"):
        (0, "5d7e55df9e8cd4f4b369f6fda762f6f51acee54bd1ba23d2f23cffac358f1b1f"),
    ("--json", "dolgachev", "x^3*y+y^3*z+z^3*x", "-g", "Gfin"):
        (0, "dcb5167843879284526cd9bbab2865d7550354e147fa41f4f75a9ae4a145ee78"),
    # needs G containing g_0: exit 2, nothing on stdout
    ("dolgachev", "x^5+y^5+z^5", "-g", "trivial"):
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("charpoly", "x^2+y^3+z^6"):
        (0, "7fa32285bb4c1c46c44b5f45526b3374b5bed612f481a0f671c50ed6a80431fe"),
    ("--json", "charpoly", "x^3*y+y^3*z+z^3*x", "-g", "trivial"):
        (0, "676bd869cc555616316525f22d4db52d01c5a933150baf6a22af09b07680603b"),
    ("charpoly", "x^2+y^3+z^6", "-g", "1/2(1,0,1)"):
        (0, "7731b83c9f7f93bd15bcf8233a62c945ac83334f2f892ed9f0a3e64db03a45c8"),
    ("--json", "charpoly", "x^5+y^5+z^5", "-g", "1/5(1,1,3)"):
        (0, "1c75c1ec06658d3364461cc927318bd453cfd648e1e5a395440a970e14aacc8d"),
    ("poincare", "x^2+x*y^3+y*z^5"):
        (0, "46d9e77ce7539c4821698f9a9ebc6cec7b37f7eb89225d5708b2ded4d64d773e"),
    ("--json", "poincare", "x^2+y^3+z^6", "-g", "Gfin"):
        (0, "19f7a7f5d6428e9393e5aad63d5e6354a0a2bb9aa4dd509b67c7f2f26679f535"),
    ("transpose", "x^2+x*y^3+y*z^5"):
        (0, "96a052aa524ba85f1ba335e600835f91ad2106e32938ce47cd796f5251a76164"),
    ("--json", "transpose", "x^3*y+y^3*z+z^3*x"):
        (0, "d7e1944ebab571312381ccc57be894963df0079ae460ce865b0778075dc794e5"),
    ("--json", "verify", "--scope", "catalog"):
        (0, "8faceb08adfb1124fe7c9fa704ec6d1e28dd0e9a8946c09513bd9679971b8756"),
    ("--format", "csv", "enumerate", "--pairs", "--max-exp", "3"):
        (0, "b7c21ea8c15d9e5d94a0ea6173e3e16f71842b6957fe4f18758fc53873210673"),
}


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, hashlib.sha256(out.encode()).hexdigest()


def test_verify_corpus_golden(capsys):
    assert _run(capsys, VERIFY_ARGV) == VERIFY_GOLDEN


@pytest.mark.parametrize("key", list(GOLDEN), ids=[f"{p} [{g}]" for p, g in GOLDEN])
def test_analyze_and_dual_golden(capsys, key):
    poly, group = key
    want = GOLDEN[key]
    assert _run(capsys, ["--json", "analyze", poly, "-g", group]) == want["analyze"]
    assert _run(capsys, ["dual", poly, "-g", group]) == want["dual"]


@pytest.mark.parametrize("argv", list(GOLDEN_COMMANDS), ids=" ".join)
def test_subcommand_golden(capsys, argv):
    assert _run(capsys, list(argv)) == GOLDEN_COMMANDS[argv]

"""Golden outputs: exit codes and SHA-256 digests of CLI output, byte for byte.

The digests pin the verify JSON of a small corpus sweep and the ``analyze``
and ``dual`` output on inputs that cover every kind of group literal
(``G0``, ``Gfin``, ``trivial``, ``index:<k>`` and explicit generators).  A
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

"""Rebuild reference.json, the expected output of every benchmark call.

Usage (from the root of a source checkout):

    python3 perfbench/make_reference.py

Records the exit code and the SHA-256 of the standard output of

* the corpus sweep ``--json verify --scope corpus --max-det 300
  --max-exp 8``, together with its pass / fail / n/a counts;
* ``--json analyze <f>`` for every member of the pools the two analyze
  workloads draw from, so that any seed can be checked.

Run it only on a commit whose output is known to be right, and only when
the program's output is meant to change.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys

import run
from inputs import POPULATIONS, pool

BATCH = 50  # calls per worker process; caches grow with every call


def corpus_reference() -> dict:
    proc = subprocess.run(
        [sys.executable, "-m", "lgmirror.cli", *run.CORPUS_ARGV],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=run.SRC),
        cwd=run.ROOT, check=False)
    summary = json.loads(proc.stdout)
    return {"argv": run.CORPUS_ARGV, "exit_code": proc.returncode,
            "digest": hashlib.sha256(proc.stdout.encode()).hexdigest(),
            "counts": summary["counts"]}


def analyze_reference() -> dict:
    polys = sorted({x["poly"] for w in POPULATIONS for x in pool(w)})
    out = {}
    for i in range(0, len(polys), BATCH):
        batch = polys[i:i + BATCH]
        rep = run.spawn("bare", [run.analyze_argv(p) for p in batch])
        for poly, (_lat, rc, digest, err, _host) in zip(batch, rep["calls"]):
            if err is not None:
                raise RuntimeError(f"analyze {poly!r} raised {err}")
            out[poly] = [digest, rc]
        print(f"{i + len(batch)}/{len(polys)} analyze calls", file=sys.stderr)
    return out


def main():
    reference = {"corpus-300-8": corpus_reference(),
                 "analyze": analyze_reference()}
    with open(run.REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(json.dumps(reference["corpus-300-8"]))


if __name__ == "__main__":
    main()

"""lgmirror benchmark: one workload, timed or traced, checked against references.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see NOTES.md for why each exists and its input histogram):

* ``corpus-300-8``: ``--json verify --scope corpus --max-det 300 --max-exp 8``,
  the paper's verification sweep; its input is the fixed corpus, so the
  seed changes nothing;
* ``analyze-large-det``: 100 ``--json analyze <f>`` calls with
  1000 <= |det E| <= 10000 and |G_0^T| <= 4;
* ``analyze-traces``: 100 ``--json analyze <f>`` calls with |G_0^T| >= 16,
  200 <= |det E| <= 8000 and trace cost <= 4e5.

The program is driven only through ``lgmirror.cli.main``, imported from
``src/`` of the checkout, with its standard output captured.  Every
repetition runs in a fresh worker process (worker.py), because every cache
of the program is unbounded and a user pays to fill them on each
invocation.  Load is a closed loop: one call at a time, no threads.

``--trace 0`` first times fifteen set-up-only processes, then runs
repetitions for ``--seconds`` of call time at nominal host speed (at least
one; another only if the slowest one so far, plus 10%, still fits) and prints the end-to-end metrics: medians
over repetitions, and latency quantiles over all calls.  Every timing is
scaled to a fixed host speed with probes taken beside it (hostspeed.py).
``--trace 1`` runs one untraced and one traced repetition, without probes,
and prints the per-layer metrics.  Each call's exit
code and the SHA-256 of its output are compared with reference.json; the
last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import hostspeed  # noqa: E402
import inputs  # noqa: E402

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
REFERENCE = os.path.join(HERE, "reference.json")
SPANS_DIR = os.path.join(ROOT, ".perfbench")
SETUP_PROCESSES = 15
REP_TIMEOUT_S = 170

CORPUS_ARGV = ["--json", "verify", "--scope", "corpus",
               "--max-det", "300", "--max-exp", "8"]
WORKLOADS = ("corpus-300-8", "analyze-large-det", "analyze-traces")
SYMMETRY_FUNCTIONS = ("gfin", "g0_group", "dual_group",
                      "subgroups_containing_g0", "format_group")


def analyze_argv(poly: str) -> list[str]:
    return ["--json", "analyze", poly]


def workload_calls(workload: str, seed: int, reference: dict) -> list[tuple]:
    """(argv, expected exit code, expected output digest) per call."""
    if workload == "corpus-300-8":
        ref = reference["corpus-300-8"]
        return [(CORPUS_ARGV, ref["exit_code"], ref["digest"])]
    drawn = inputs.draw(workload, seed)
    print(f"inputs: {json.dumps(inputs.histogram(drawn))}")
    calls = []
    for x in drawn:
        digest, rc = reference["analyze"][x["poly"]]
        calls.append((analyze_argv(x["poly"]), rc, digest))
    return calls


def spawn(mode: str, argvs: list, spans_path: str | None = None) -> dict:
    """Start a worker, wait for it and return its result."""
    # bytecode is cached as in a normal install, whatever the caller's setting
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPATH"] = SRC
    start = time.perf_counter()
    cmd = [sys.executable, WORKER, repr(start), mode] + ([spans_path] if spans_path else [])
    proc = subprocess.run(cmd, input=json.dumps(argvs), capture_output=True,
                          text=True, env=env, cwd=ROOT, timeout=REP_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker ({mode}) exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def wrong_calls(calls: list, results: list) -> list[str]:
    """One line per call whose exit code or output digest differs from the
    reference, or that raised."""
    wrong = []
    for (argv, rc, digest), (_lat, got_rc, got, err, _host) in zip(calls, results):
        if err is not None:
            wrong.append(f"{argv}: raised\n{err}")
        elif got_rc != rc or got != digest:
            wrong.append(f"{argv}: exit {got_rc} (want {rc}), digest {got[:12]} (want {digest[:12]})")
    return wrong


def self_test(calls: list, results: list) -> bool:
    """The check must fail when one reference digest is corrupted."""
    argv, rc, digest = calls[0]
    corrupted = [(argv, rc, ("0" if digest[0] != "0" else "1") + digest[1:])]
    return bool(wrong_calls(corrupted + calls[1:], results))


def quantile(values: list[float], p: float, steps: int = 64) -> float:
    """Harrell-Davis estimate of the p-quantile: a weighted mean of all order
    statistics, with weights from the Beta(p(n+1), (1-p)(n+1)) distribution.

    Unlike a single order statistic, it does not jump by the gap between
    neighbouring latencies when one call moves past another."""
    ordered = sorted(values)
    n = len(ordered)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    weights = []
    for i in range(n):  # Beta mass of [i/n, (i+1)/n], midpoint rule
        xs = ((i + (k + 0.5) / steps) / n for k in range(steps))
        weights.append(sum(math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x)
                                    - log_beta) for x in xs) / (steps * n))
    # the density may be unbounded at one end (a < 1 or b < 1, never both);
    # the interval there gets the mass the others leave
    end = 0 if a < 1 else n - 1
    weights[end] = 0.0
    weights[end] = 1.0 - sum(weights)
    return sum(w * v for w, v in zip(weights, ordered))


def at_nominal_speed(seconds: float, probe_s: float) -> float:
    """A timing scaled to the host speed at which a probe takes NOMINAL_S."""
    return seconds * hostspeed.NOMINAL_S / probe_s


def timed(workload: str, calls: list, seconds: float) -> tuple[dict, list]:
    argvs = [c[0] for c in calls]
    spawn("setup", [])  # writes the bytecode cache of a fresh checkout; not timed
    setups, raw_setups = [], []
    for _ in range(SETUP_PROCESSES):
        r = spawn("setup", argvs)
        raw_setups.append(r["setup_s"])
        setups.append(at_nominal_speed(r["setup_s"], r["setup_host_s"]))
    reps, walls, latencies = [], [], []
    while True:
        r = spawn("run", argvs)
        reps.append(r)
        raw_setups.append(r["setup_s"])
        setups.append(at_nominal_speed(r["setup_s"], r["setup_host_s"]))
        scaled = [at_nominal_speed(c[0], c[4]) for c in r["calls"]]
        walls.append(sum(scaled))
        latencies += scaled
        # Start another only if it fits even when 10% slower than the slowest.
        # Counted at nominal host speed, so the host does not set the count.
        if sum(walls) + 1.1 * max(walls) > seconds:
            break
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "call_p50_ms": (1000 * quantile(latencies, 0.5), "ms"),
        "call_p90_ms": (1000 * quantile(latencies, 0.9), "ms"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in reps), "MB"),
    }
    print(f"{workload}: {len(reps)} repetition(s) of {len(calls)} call(s), "
          f"{len(setups)} set-ups, {len(latencies)} latencies; "
          "as measured / at nominal host speed: set-up "
          f"{statistics.median(raw_setups):.4f}/{metrics['setup_s'][0]:.4f} s, wall "
          + " ".join(f"{r['wall_s']:.2f}/{w:.2f}" for r, w in zip(reps, walls))
          + f" s; {sum(r['probes'] for r in reps)} host probes")
    return metrics, reps


def traced(workload: str, seed: int, calls: list) -> tuple[dict, list]:
    argvs = [c[0] for c in calls]
    os.makedirs(SPANS_DIR, exist_ok=True)
    spans_path = os.path.join(SPANS_DIR, f"spans-{workload}-seed{seed}.tsv")
    plain = spawn("bare", argvs)
    rep = spawn("trace", argvs, spans_path)
    tr = rep["trace"]
    fns = tr["functions"]
    metrics = {}
    for layer, v in tr["layers"].items():
        metrics[f"{layer}.self_s"] = (v["self_s"], "s")
        metrics[f"{layer}.calls"] = (v["calls"], "count")
    for name in SYMMETRY_FUNCTIONS:
        metrics[f"symmetry.{name}.self_s"] = (fns[f"symmetry.{name}"]["self_s"], "s")
    metrics["spectra.lefschetz_numbers.self_s"] = (
        fns["spectra.lefschetz_numbers"]["self_s"], "s")
    metrics["symmetry.elements_built"] = (tr["elements_built"], "count")
    metrics["symmetry.max_group_order"] = (tr["max_group_order"], "count")
    metrics["spectra.trace_terms"] = (tr["trace_terms"], "count")
    metrics["ip_core.cache_hit_ratio"] = (tr["cache_hit_ratio"]["ip_core"], "ratio")
    metrics["symmetry.cache_hit_ratio"] = (tr["cache_hit_ratio"]["symmetry"], "ratio")
    metrics["cache_entries"] = (tr["cache_entries"], "count")
    metrics["trace.overhead_s"] = (rep["wall_s"] - plain["wall_s"], "s")
    top = max(tr["layers"], key=lambda layer: tr["layers"][layer]["self_s"])
    print(f"{workload}: traced {tr['spans']} spans into {spans_path}; "
          f"top layer {top}")
    return metrics, [plain, rep]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM becomes SystemExit, on which subprocess.run kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(SRC, "lgmirror", "cli.py")):
        print(f"error: no lgmirror sources under {SRC}; run from the root "
              "of a source checkout", file=sys.stderr)
        return 2
    with open(REFERENCE) as fh:
        reference = json.load(fh)
    calls = workload_calls(args.workload, args.seed, reference)
    if args.trace:
        metrics, reps = traced(args.workload, args.seed, calls)
    else:
        metrics, reps = timed(args.workload, calls, args.seconds)
    attempted, wrong = 0, []
    for r in reps:
        attempted += len(r["calls"])
        wrong += wrong_calls(calls, r["calls"])
    for line in wrong[:5]:
        print(f"wrong: {line}")
    failed = len(wrong)
    detects = self_test(calls, reps[0]["calls"])
    print(f"wrong_ratio {failed}/{attempted} = {failed / attempted:.4f}; "
          f"corrupted-reference self-test {'caught' if detects else 'MISSED'}")
    print(json.dumps({
        "correct": failed == 0 and detects,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

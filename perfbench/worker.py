"""One repetition of a workload, in a fresh process.

Usage: python3 worker.py SPAWN_TIME MODE [SPANS_FILE] < calls.json

``calls.json`` is a JSON list of argument lists for ``lgmirror.cli.main``.
``SPAWN_TIME`` is the parent's ``time.perf_counter()`` just before it
started this process (a system-wide monotonic clock on Linux), so that the
reported set-up time covers interpreter start, the import of ``lgmirror.cli``
and loading the inputs.  MODE is

* ``setup``: set up, probe the host speed (hostspeed.py) and stop;
* ``run``:   as ``setup``, then run every call once, one after another,
  and report per call its latency, exit code, the SHA-256 of its standard
  output and the median host probe duration around it; the host is probed
  before every call, after the last one and every ``hostspeed.PERIOD_S``
  during the calls, and the time of probes inside a call is taken off its
  latency;
* ``bare``:  as ``run``, without probes;
* ``trace``: as ``bare``, with a span recorded around every public function
  of the seven lgmirror modules; the spans go to SPANS_FILE at the end and
  the per-layer figures derived from them are reported.

The result is one JSON object on standard output.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import resource
import sys
import time

from inputs import reduced_degree

LAYERS = ("ip_core", "symmetry", "curve_side", "cusp_side", "spectra",
          "harness", "cli")


def run_calls(calls, cli_module, sampler: Sampler | None = None) -> tuple[float, list]:
    """Closed loop: each call starts when the previous one has returned.

    Returns the time spent in calls and, per call, [latency, exit code,
    output digest, error or None, host probe duration around it or None]."""
    out, windows = [], []
    probing = sampler.running() if sampler else contextlib.nullcontext()
    with probing:
        for argv in calls:
            if sampler:
                sampler.probe()
            buf = io.StringIO()
            err = None
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(buf), \
                        contextlib.redirect_stderr(io.StringIO()):
                    rc = cli_module.main(list(argv))
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # an error is a wrong answer, not a crash
                import traceback  # only here, so that set-up time does not include it
                rc, err = None, traceback.format_exc()
            t1 = time.perf_counter()
            latency = t1 - t0
            if sampler:
                latency -= sum(d for s, d in zip(sampler.starts, sampler.durations)
                               if t0 <= s < t1)
            digest = hashlib.sha256(buf.getvalue().encode()).hexdigest()
            out.append([latency, rc, digest, err, None])
            windows.append((t0, t1))
        if sampler:
            sampler.probe()
    if sampler:
        for call, (t0, t1) in zip(out, windows):
            call[4] = sampler.around(t0, t1)
    return sum(call[0] for call in out), out


class Tracer:
    """Spans (function, start, end, parent) kept in memory.

    Every public function (module ``__all__``) of the layers is replaced by
    a recording wrapper in every lgmirror namespace that bound it, because
    ``harness`` and ``cli`` call through names they imported with
    ``from .symmetry import ...``.  ``cache_info`` stays reachable on
    wrapped ``lru_cache`` functions.
    """

    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []
        self.stack: list[int] = []
        self.groups: dict[int, object] = {}
        self.trace_terms = 0
        self.modules = {name: importlib.import_module(f"lgmirror.{name}")
                        for name in LAYERS}

    def install(self):
        namespaces = [m for name, m in sys.modules.items()
                      if name == "lgmirror" or name.startswith("lgmirror.")]
        for layer, module in self.modules.items():
            for attr in module.__all__:
                fn = getattr(module, attr)
                if isinstance(fn, type) or not callable(fn):
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", fn)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is fn:
                            setattr(ns, key, wrapper)

    def _wrap(self, name: str, fn):
        idx = len(self.names)
        self.names.append(name)
        spans, stack = self.spans, self.stack
        perf = time.perf_counter
        observe = self._observe_group if name.startswith("symmetry.") else None
        lefschetz = name == "spectra.lefschetz_numbers"

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            i = len(spans)
            spans.append(None)
            stack.append(i)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                spans[i] = (idx, t0, t1, parent)
            if observe is not None:
                observe(result)
            if lefschetz:
                self._count_terms(*args, **kwargs)
            return result

        for attr in ("__name__", "__qualname__", "__doc__", "__module__",
                     "cache_info", "cache_clear"):
            if hasattr(fn, attr):
                setattr(wrapper, attr, getattr(fn, attr))
        wrapper.__wrapped__ = fn
        return wrapper

    def _observe_group(self, result):
        group_type = self.modules["symmetry"].DiagonalGroup
        found = result if isinstance(result, tuple) else (result,)
        for g in found:
            if isinstance(g, group_type):
                self.groups.setdefault(id(g), g)

    def _count_terms(self, f, G):
        self.trace_terms += reduced_degree(f.E) * G.order * G.order

    def cache_stats(self) -> tuple[dict, int]:
        """Hit ratio per layer over the lru_caches it defines, and the
        entries held by all of them."""
        ratios, entries = {}, 0
        for layer, module in self.modules.items():
            hits = misses = 0
            seen = set()
            for value in vars(module).values():
                info = getattr(value, "cache_info", None)
                if (info is None or getattr(value, "__module__", None) != module.__name__
                        or id(info.__self__) in seen):
                    continue
                seen.add(id(info.__self__))
                ci = info()
                hits, misses = hits + ci.hits, misses + ci.misses
                entries += ci.currsize
            ratios[layer] = hits / (hits + misses) if hits + misses else 0.0
        return ratios, entries

    def summary(self) -> dict:
        self_s = [0.0] * len(self.names)
        calls = [0] * len(self.names)
        child_s = [0.0] * len(self.spans)
        for i in range(len(self.spans) - 1, -1, -1):
            idx, t0, t1, parent = self.spans[i]
            dur = t1 - t0
            self_s[idx] += dur - child_s[i]
            calls[idx] += 1
            if parent >= 0:
                child_s[parent] += dur
        per_function = {name: {"self_s": s, "calls": c}
                        for name, s, c in zip(self.names, self_s, calls)}
        per_layer = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
        for name, v in per_function.items():
            layer = per_layer[name.split(".")[0]]
            layer["self_s"] += v["self_s"]
            layer["calls"] += v["calls"]
        ratios, entries = self.cache_stats()
        orders = [g.order for g in self.groups.values()]
        return {"layers": per_layer,
                "functions": per_function,
                "elements_built": sum(orders),
                "max_group_order": max(orders, default=0),
                "trace_terms": self.trace_terms,
                "cache_hit_ratio": ratios,
                "cache_entries": entries,
                "spans": len(self.spans)}

    def write_spans(self, path: str):
        """One line per span: name, start, end, parent span index (-1: root)."""
        with open(path, "w") as fh:
            fh.write("name\tstart\tend\tparent\n")
            for idx, t0, t1, parent in self.spans:
                fh.write(f"{self.names[idx]}\t{t0:.9f}\t{t1:.9f}\t{parent}\n")


def main():
    spawned, mode = float(sys.argv[1]), sys.argv[2]
    cli = importlib.import_module("lgmirror.cli")
    calls = json.load(sys.stdin)
    result = {"setup_s": time.perf_counter() - spawned}
    # imported only now, so that set-up time is the program's own
    import statistics
    from hostspeed import Sampler
    sampler = None
    if mode in ("setup", "run"):
        sampler = Sampler()
        result["setup_host_s"] = statistics.median(sampler.probe() for _ in range(3))
    if mode in ("run", "bare", "trace"):
        tracer = None
        if mode == "trace":
            tracer = Tracer()
            tracer.install()
        result["wall_s"], result["calls"] = run_calls(calls, cli, sampler)
        if tracer is not None:
            result["trace"] = tracer.summary()
            tracer.write_spans(sys.argv[3])
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if sampler:
        result["probes"] = len(sampler.durations)
        result["peak_rss_mb"] -= sampler.footprint_mb
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()

"""Spans around convalg's public functions, installed from outside the library.

Each wrapped function records a span (name, start, end, parent, request).
The wrappers replace the function at every import site: ``cli`` and
``convhom`` bind ``check_conv_homomorphism`` by name, ``operators`` binds
``convolve``, ``exchange`` binds ``apply``, and the package re-exports them
all.  A layer's self time is its spans' duration minus the part covered by
their child spans.  Peak memory comes from tracemalloc, started only for
the duration of the spans that report it.
"""

from __future__ import annotations

import functools
import os
import sys
import time
import tracemalloc
from collections import Counter
from typing import Any, Callable

from convalg.errors import ClassificationError

MIB = 1024.0 * 1024.0


def _mode(args, kwargs) -> str:
    return kwargs.get("mode", args[1] if len(args) > 1 else "basis")


# JSON decoding and encoding count as jsonio's load and dump, with file I/O
JSONIO_LOAD = ("load", "operator_from_json", "signal_from_json", "kernel_family_from_json",
               "phase_space_from_json", "pair_from_json", "construct_params_from_json")
JSONIO_DUMP = ("dump", "operator_to_json", "signal_to_json", "witness_to_json",
               "axiom_report_to_json", "conv_classification_to_json",
               "exchange_classification_to_json", "intertwiner_classification_to_json",
               "torus_classification_to_json")

# (module, function, span name or a function of the call's arguments)
TRACED: list[tuple[str, str, Any]] = [
    ("convalg.cli", "run", "cli.run"),
    *[("convalg.jsonio", f, "jsonio.load") for f in JSONIO_LOAD],
    *[("convalg.jsonio", f, "jsonio.dump") for f in JSONIO_DUMP],
    ("convalg.operators", "check_conv_homomorphism",
     lambda a, k: "operators.basis_check" if _mode(a, k) == "basis"
     else "operators.sampled_check"),
    ("convalg.operators", "check_exchange_axioms", "operators.exchange_axioms"),
    ("convalg.operators", "apply", "operators.apply"),
    ("convalg.groups", "convolve", "groups.convolve"),
    ("convalg.groups", "dft", "groups.dft"),
    ("convalg.groups", "idft", "groups.dft"),
    ("convalg.convhom", "classify", "convhom.classify"),
    ("convalg.exchange", "classify_exchange", "exchange.classify"),
    ("convalg.exchange", "classify_fourier_exchange", "exchange.classify"),
    ("convalg.intertwine", "classify_intertwiner", "intertwine.classify"),
    ("convalg.torus", "classify_torus_operator", "torus.classify"),
    ("convalg.torus", "check_character_equation", "torus.char_check"),
    ("convalg.torus", "recover_frequency", "torus.recover_frequency"),
    ("convalg.twisted", "verify_rho_homomorphism", "twisted.verify"),
    ("convalg.twisted", "twisted_convolve", "twisted.twisted_convolve"),
    ("convalg.twisted", "rho_kernel", "twisted.rho_kernel"),
    ("convalg.twisted", "compose_kernels", "twisted.compose_kernels"),
]

# functions whose file argument's size counts as bytes read or written
FILE_ARG = {("convalg.jsonio", "load"): ("jsonio.bytes_read", 0),
            ("convalg.jsonio", "dump"): ("jsonio.bytes_written", 1)}

PEAK_SPANS = {"operators.basis_check": "operators.basis_check_peak_mib",
              "twisted.verify": "twisted.peak_mib"}

# per-layer metric -> (unit, better, the end-to-end metric and workload it should move)
LAYER_METRICS: dict[str, tuple[str, str, str]] = {
    "cli.self_s": ("s/req", "lower", "verdict_p50_ms on cli"),
    "jsonio.load_s": ("s/req", "lower", "verdict_p50_ms on cli"),
    "jsonio.dump_s": ("s/req", "lower", "verdict_p50_ms on cli"),
    "jsonio.bytes_read": ("B/req", "lower", "verdict_p50_ms on cli"),
    "jsonio.bytes_written": ("B/req", "lower", "verdict_p50_ms on cli"),
    "operators.basis_check_s": ("s/req", "lower", "verdict_tail_ms, peak_rss_mib on cli"),
    "operators.basis_check_peak_mib": ("MiB", "lower", "peak_rss_mib on cli"),
    "operators.pairs_checked": ("1/req", "lower", "verdict_tail_ms on cli"),
    "operators.apply_s": ("s/req", "lower", "verdicts_per_s on signal-algebra"),
    "operators.apply_calls": ("1/req", "lower", "verdicts_per_s on signal-algebra"),
    "operators.sampled_check_s": ("s/req", "lower", "verdicts_per_s on signal-algebra"),
    "operators.exchange_axioms_s": ("s/req", "lower", "verdicts_per_s on signal-algebra"),
    "groups.convolve_s": ("s/req", "lower",
                          "verdicts_per_s, peak_rss_mib on signal-algebra; nothing on cli"),
    "groups.convolve_calls": ("1/req", "lower", "verdicts_per_s on signal-algebra"),
    "groups.dft_s": ("s/req", "lower",
                     "verdicts_per_s, peak_rss_mib on signal-algebra; nothing on cli"),
    "groups.dft_calls": ("1/req", "lower", "verdicts_per_s on signal-algebra"),
    "convhom.classify_self_s": ("s/req", "lower", "cli"),
    "convhom.reject_frac": ("frac", "lower", "cli (base: classify calls)"),
    "exchange.classify_self_s": ("s/req", "lower", "cli, signal-algebra"),
    "intertwine.classify_s": ("s/req", "lower", "cli"),
    "torus.classify_self_s": ("s/req", "lower", "verdict_tail_ms on cli"),
    "torus.char_check_s": ("s/req", "lower", "verdict_tail_ms on cli"),
    "torus.recover_frequency_s": ("s/req", "lower", "verdict_tail_ms on cli"),
    "torus.kernels_checked": ("1/req", "lower", "verdict_tail_ms on cli"),
    "twisted.twisted_convolve_s": ("s/req", "lower", "verdicts_per_s on cli"),
    "twisted.rho_kernel_s": ("s/req", "lower", "verdicts_per_s on cli"),
    "twisted.compose_kernels_s": ("s/req", "lower", "verdicts_per_s on cli"),
    "twisted.peak_mib": ("MiB", "lower", "verdicts_per_s on cli"),
    "trace.overhead_frac": ("frac", "lower", "traced over untraced time, same requests"),
}

# *_s metrics: self time of the named span, summed and divided by requests
SELF_TIME = {
    "cli.self_s": "cli.run",
    "jsonio.load_s": "jsonio.load",
    "jsonio.dump_s": "jsonio.dump",
    "operators.basis_check_s": "operators.basis_check",
    "operators.apply_s": "operators.apply",
    "operators.sampled_check_s": "operators.sampled_check",
    "operators.exchange_axioms_s": "operators.exchange_axioms",
    "groups.convolve_s": "groups.convolve",
    "groups.dft_s": "groups.dft",
    "convhom.classify_self_s": "convhom.classify",
    "exchange.classify_self_s": "exchange.classify",
    "intertwine.classify_s": "intertwine.classify",
    "torus.classify_self_s": "torus.classify",
    "torus.char_check_s": "torus.char_check",
    "torus.recover_frequency_s": "torus.recover_frequency",
    "twisted.twisted_convolve_s": "twisted.twisted_convolve",
    "twisted.rho_kernel_s": "twisted.rho_kernel",
    "twisted.compose_kernels_s": "twisted.compose_kernels",
}

# count metrics: number of spans of the named kind, divided by requests
CALLS = {
    "operators.apply_calls": "operators.apply",
    "groups.convolve_calls": "groups.convolve",
    "groups.dft_calls": "groups.dft",
    "torus.kernels_checked": "torus.char_check",
}


class Tracer:
    """Collects spans in memory while installed; ``request`` tags new spans."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.counters: Counter = Counter()
        self.peaks: dict[str, float] = {}
        self.request = 0
        self._open: list[int] = []
        self._saved: list[tuple[Any, str, Callable]] = []

    # -- installation --------------------------------------------------------------

    def install(self) -> None:
        for module, attr, name in TRACED:
            original = getattr(sys.modules[module], attr)
            wrapper = self._wrap(original, name, FILE_ARG.get((module, attr)))
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "convalg" and not mod_name.startswith("convalg."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._saved):
            setattr(mod, key, original)
        self._saved.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- spans ---------------------------------------------------------------------------

    def _wrap(self, fn: Callable, name, file_arg=None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = name(args, kwargs) if callable(name) else name
            peak = PEAK_SPANS.get(span) if not tracemalloc.is_tracing() else None
            parent = tracer._open[-1] if tracer._open else -1
            index = len(tracer.spans)
            tracer.spans.append((span, 0.0, 0.0, parent, tracer.request))
            tracer._open.append(index)
            start = time.perf_counter()
            if peak:
                tracemalloc.start()
            try:
                result = fn(*args, **kwargs)
            except ClassificationError:
                tracer.counters[span + ".rejects"] += 1
                raise
            finally:
                if peak:
                    mib = tracemalloc.get_traced_memory()[1] / MIB
                    tracemalloc.stop()
                    tracer.peaks[peak] = max(tracer.peaks.get(peak, 0.0), mib)
                end = time.perf_counter()
                tracer._open.pop()
                tracer.spans[index] = (span, start, end, parent, tracer.request)
            if file_arg:
                counter, index = file_arg
                tracer.counters[counter] += os.path.getsize(args[index])
            if span == "operators.basis_check":
                tracer.counters["operators.pairs_checked"] += result.checked
            return result
        return wrapper

    # -- per-layer metrics ----------------------------------------------------------------

    def self_times(self) -> tuple[Counter, Counter]:
        """Summed self time and number of spans, by span name."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_time: Counter = Counter()
        calls: Counter = Counter()
        for i, (span, start, end, _, _) in enumerate(self.spans):
            self_time[span] += (end - start) - child[i]
            calls[span] += 1
        return self_time, calls

    def layer_metrics(self, requests: int, overhead: float) -> dict[str, float]:
        self_time, calls = self.self_times()
        out: dict[str, float] = {}
        for metric, span in SELF_TIME.items():
            out[metric] = self_time[span] / requests
        for metric, span in CALLS.items():
            out[metric] = calls[span] / requests
        for metric in ("jsonio.bytes_read", "jsonio.bytes_written", "operators.pairs_checked"):
            out[metric] = self.counters[metric] / requests
        for metric in PEAK_SPANS.values():
            out[metric] = self.peaks.get(metric, 0.0)
        classified = calls["convhom.classify"]
        out["convhom.reject_frac"] = (self.counters["convhom.classify.rejects"] / classified
                                      if classified else 0.0)
        out["trace.overhead_frac"] = overhead
        return {k: out[k] for k in LAYER_METRICS}


def overhead_frac(untraced: list[float], traced: list[float]) -> float:
    """Traced over untraced time on the same requests, minus one."""
    return sum(traced) / sum(untraced[:len(traced)]) - 1.0

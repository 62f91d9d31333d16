"""Span tracer that wraps hpqkit's public names from outside the package.

Each module looks its collaborators up at call time (``fitstack`` calls
``eigensolve`` through its own globals, the CLI calls
``spectrum.spectrum_vs_flux`` through the module), so replacing those
names with timing wrappers records every call without editing ``src/``.
Spans are kept in memory as ``(id, parent, name, start_ns, end_ns,
thread)``; the parent is the innermost open span of the same thread, so
calls made from a thread pool have no parent. Self time is a span's
duration minus its children's. The spans are written out when the pass
ends, and ``layer_metrics`` turns them into the per-layer metrics.
"""

from __future__ import annotations

import itertools
import json
import math
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

#: wrapped callables: metric prefix -> (module, attribute); the module
#: attribute is replaced in every hpqkit module that holds the same object
WRAPPED = {
    "potentials.fourier_u": ("hpqkit.potentials", "fourier_u"),
    "potentials.fourier_v": ("hpqkit.potentials", "fourier_v"),
    "potentials.find_phi_min": ("hpqkit.potentials", "find_phi_min"),
    "spectrum.build_hamiltonian": ("hpqkit.spectrum", "build_hamiltonian"),
    "spectrum.eigensolve": ("hpqkit.spectrum", "eigensolve"),
    "spectrum.spectrum_vs_flux": ("hpqkit.spectrum", "spectrum_vs_flux"),
    "synth.synthesize_map": ("hpqkit.synth", "synthesize_map"),
    "fitstack.lorentzian_fit": ("hpqkit.fitstack", "lorentzian_fit"),
    "fitstack.extract_transitions": ("hpqkit.fitstack", "extract_transitions"),
    "fitstack.model_residuals": ("hpqkit.fitstack", "model_residuals"),
    "fitstack.least_squares": ("hpqkit.fitstack", "least_squares"),
    "fitstack.fit_global": ("hpqkit.fitstack", "fit_global"),
    "fitstack.select_channel_count": ("hpqkit.fitstack", "select_channel_count"),
    "analysis.gate_sweep_regimes": ("hpqkit.analysis", "gate_sweep_regimes"),
    "config.load_config": ("hpqkit.config", "load_config"),
    "io.write_harmonics_csv": ("hpqkit.potentials", "write_harmonics_csv"),
    "io.write_map_csv": ("hpqkit.synth", "write_map_csv"),
    "io.write_regimes_csv": ("hpqkit.analysis", "write_regimes_csv"),
}
#: table writers that are methods: metric prefix -> (module, class, method)
WRAPPED_METHODS = {
    "io.transition_table_to_csv": ("hpqkit.spectrum", "TransitionTable", "to_csv"),
}

#: per-layer metrics reported by a traced run, in order: name -> unit
PER_LAYER = {
    "potentials.fourier_u.calls": "count",
    "potentials.fourier_u.s": "s",
    "potentials.fourier_v.calls": "count",
    "potentials.fourier_v.s": "s",
    "potentials.find_phi_min.calls": "count",
    "potentials.find_phi_min.s": "s",
    "spectrum.build_hamiltonian.calls": "count",
    "spectrum.build_hamiltonian.s": "s",
    "spectrum.build_hamiltonian.bytes": "B",
    "spectrum.eigensolve.calls": "count",
    "spectrum.eigensolve.s": "s",
    "spectrum.spectrum_vs_flux.calls": "count",
    "spectrum.spectrum_vs_flux.s": "s",
    "spectrum.flux_points": "count",
    "synth.synthesize_map.calls": "count",
    "synth.synthesize_map.s": "s",
    "synth.samples": "count",
    "fitstack.lorentzian_fit.calls": "count",
    "fitstack.lorentzian_fit.s": "s",
    "fitstack.extract.kept": "count",
    "fitstack.extract.rejected": "count",
    "fitstack.extract.crowded": "count",
    "fitstack.extract.kept_ratio": "ratio",
    "fitstack.model_residuals.calls": "count",
    "fitstack.model_residuals.s": "s",
    "fitstack.model_residuals.self_s": "s",
    "fitstack.least_squares.calls": "count",
    "fitstack.least_squares.nfev": "count",
    "fitstack.least_squares.njev": "count",
    "fitstack.least_squares.budget_exhausted": "count",
    "fitstack.fd_eval_share": "ratio",
    "fitstack.fit_global.calls": "count",
    "fitstack.fit_global.s": "s",
    "fitstack.select_channel_count.calls": "count",
    "fitstack.select_channel_count.s": "s",
    "analysis.gate_sweep_regimes.calls": "count",
    "analysis.gate_sweep_regimes.s": "s",
    "config.load_config.calls": "count",
    "cli.decompose.s": "s",
    "cli.sweep.s": "s",
    "cli.sweep.cpu_s": "s",
    "cli.synth.s": "s",
    "cli.synth.cpu_s": "s",
    "cli.classify.s": "s",
    "cli.io.write_s": "s",
    "cli.io.bytes": "B",
}
#: per-layer metrics that are counts: they must repeat exactly for one seed
COUNTS = tuple(name for name, unit in PER_LAYER.items() if unit in ("count", "B"))


def _on_build_hamiltonian(tracer, args, kwargs, result):
    tracer.add("spectrum.build_hamiltonian.bytes", result.nbytes)


def _on_spectrum_vs_flux(tracer, args, kwargs, result):
    tracer.add("spectrum.flux_points", len(result.flux_radians))


def _on_synthesize_map(tracer, args, kwargs, result):
    tracer.add("synth.samples", sum(len(trace.freqs) for trace in result[0]))


def _on_extract_transitions(tracer, args, kwargs, result):
    traces = args[0] if args else kwargs["traces"]
    hints = args[1] if len(args) > 1 else kwargs["hints"]
    finite = sum(
        1 for hint in hints.values() for idx in range(len(traces)) if math.isfinite(float(hint.centers[idx]))
    )
    tracer.add("fitstack.extract.hint_centers", finite)
    tracer.add("fitstack.extract.kept", len(result))


def _on_least_squares(tracer, args, kwargs, result):
    tracer.add("fitstack.least_squares.nfev", result.nfev)
    tracer.add("fitstack.least_squares.njev", result.njev or 0)
    tracer.add("fitstack.least_squares.budget_exhausted", int(result.status == 0))


def _on_lorentzian_error(tracer, exc):
    tracer.add("fitstack.extract.rejected", 1)


ON_RESULT = {
    "spectrum.build_hamiltonian": _on_build_hamiltonian,
    "spectrum.spectrum_vs_flux": _on_spectrum_vs_flux,
    "synth.synthesize_map": _on_synthesize_map,
    "fitstack.extract_transitions": _on_extract_transitions,
    "fitstack.least_squares": _on_least_squares,
}
ON_ERROR = {"fitstack.lorentzian_fit": _on_lorentzian_error}


class NullTracer:
    """Stand-in for untraced passes: records nothing."""

    enabled = False

    @contextmanager
    def span(self, name, cpu=False):
        yield

    def add(self, key, value):
        pass


class Tracer:
    """Records spans and counters for the wrapped hpqkit names while installed."""

    enabled = True

    def __init__(self):
        self.spans: list[tuple[int, int, str, int, int, int]] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, key, value):
        with self._lock:
            self.counters[key] += value

    @contextmanager
    def span(self, name, cpu=False):
        """Span around a block of the benchmark's own code; ``cpu`` also records process CPU time."""
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(sid)
        cpu0 = time.process_time() if cpu else 0.0
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self.spans.append((sid, parent, name, start, end, threading.get_ident()))
            if cpu:
                self.add(f"{name}.cpu_s", time.process_time() - cpu0)

    def wrap(self, name, fn):
        on_result, on_error = ON_RESULT.get(name), ON_ERROR.get(name)

        def traced(*args, **kwargs):
            with self.span(name):
                try:
                    result = fn(*args, **kwargs)
                except Exception as exc:
                    if on_error is not None:
                        on_error(self, exc)
                    raise
            if on_result is not None:
                on_result(self, args, kwargs, result)
            return result

        return traced

    def install(self):
        """Replace every wrapped name in every loaded hpqkit module."""
        modules = [m for n, m in sorted(sys.modules.items()) if n == "hpqkit" or n.startswith("hpqkit.")]
        for name, (module, attr) in WRAPPED.items():
            original = getattr(sys.modules[module], attr)
            wrapper = self.wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, value))
                        setattr(mod, key, wrapper)
        for name, (module, cls_name, attr) in WRAPPED_METHODS.items():
            cls = getattr(sys.modules[module], cls_name)
            original = cls.__dict__[attr]
            self._patches.append((cls, attr, original))
            setattr(cls, attr, self.wrap(name, original))

    def uninstall(self):
        for owner, key, value in reversed(self._patches):
            setattr(owner, key, value)
        self._patches.clear()

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer counts and inclusive/self seconds from the recorded spans."""
        calls: dict[str, int] = defaultdict(int)
        total_ns: dict[str, int] = defaultdict(int)
        child_ns: dict[int, int] = defaultdict(int)
        by_id = {}
        for sid, parent, name, start, end, _ in self.spans:
            calls[name] += 1
            total_ns[name] += end - start
            child_ns[parent] += end - start
            by_id[sid] = name
        self_ns: dict[str, int] = defaultdict(int)
        for sid, _, name, start, end, _ in self.spans:
            self_ns[name] += end - start - child_ns.get(sid, 0)
        fits_in_extract = sum(
            1 for _, parent, name, *_ in self.spans
            if name == "fitstack.lorentzian_fit" and by_id.get(parent) == "fitstack.extract_transitions"
        )

        out: dict[str, float] = {}
        for metric in PER_LAYER:
            layer, _, kind = metric.rpartition(".")
            if kind == "calls":
                out[metric] = calls[layer]
            elif kind == "s":
                out[metric] = total_ns[layer] / 1e9
            elif kind == "self_s":
                out[metric] = self_ns[layer] / 1e9
            else:
                out[metric] = self.counters.get(metric, 0.0)
        out["cli.io.write_s"] = sum(ns for name, ns in total_ns.items() if name.startswith("io.")) / 1e9
        out["fitstack.extract.crowded"] = self.counters.get("fitstack.extract.hint_centers", 0.0) - fits_in_extract
        fits = calls["fitstack.lorentzian_fit"]
        out["fitstack.extract.kept_ratio"] = out["fitstack.extract.kept"] / fits if fits else 0.0
        residuals = calls["fitstack.model_residuals"]
        nfev = out["fitstack.least_squares.nfev"]
        out["fitstack.fd_eval_share"] = (residuals - nfev) / residuals if residuals else 0.0
        return out

    def write_spans(self, path: str) -> None:
        """One JSON array per line: id, parent, name, start_ns, end_ns, thread."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

"""Span recorder for the traced run.

The tracer replaces public efano functions, at the module attributes
through which other modules and the benchmark call them, with wrappers
that record one span per call: name, start, end and parent.  A span's
self time is its duration minus the durations of its direct children.
Totals are kept for every span; the spans themselves are kept in memory
up to a cap and written out as JSON lines when the run ends.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass, field
from statistics import median

import efano.cli
import efano.dipole_ladder
import efano.efimov
import efano.fitter
import efano.profiles
import efano.twobody

SPAN_CAP = 100_000


def _levels(args, kwargs, result):
    return len(result.entries)


def _length(args, kwargs, result):
    return len(result)


def _iterations(args, kwargs, result):
    return result.iterations


def _fit_name(args, kwargs):
    return "fitter.fit." + (args[1] if len(args) > 1 else kwargs["model"])


def _cli_name(args, kwargs):
    return "cli.main." + args[0][0]


# (modules, attribute, span name or naming function, counter or None).
# A function is wrapped at every module that imports it by name.
WRAPPED = [
    ((efano.dipole_ladder,), "log_gamma", "numkit.log_gamma", None),
    ((efano.twobody,), "find_root", "numkit.find_root", None),
    ((efano.profiles,), "seeded_gaussian_noise", "numkit.seeded_gaussian_noise", _length),
    ((efano.dipole_ladder,), "kappa_n", "dipole_ladder.kappa_n", None),
    ((efano.dipole_ladder, efano.cli), "build_ladder", "dipole_ladder.build_ladder", _levels),
    ((efano.cli,), "alpha_from_strength", "dipole_ladder.alpha_from_strength", None),
    ((efano.efimov,), "geometric_energies", "dipole_ladder.geometric_energies", None),
    ((efano.twobody, efano.cli), "tune_to_scattering_length",
     "twobody.tune_to_scattering_length", None),
    ((efano.twobody, efano.cli), "scattering_length", "twobody.scattering_length", None),
    ((efano.twobody, efano.cli), "binding_energy", "twobody.binding_energy", None),
    ((efano.efimov, efano.cli), "count_states", "efimov.count_states", None),
    ((efano.efimov, efano.cli), "build_efimov_ladder", "efimov.build_efimov_ladder", None),
    ((efano.efimov, efano.cli), "classify_states_vs_threshold",
     "efimov.classify_states_vs_threshold", None),
    ((efano.profiles, efano.cli), "synthesize", "profiles.synthesize", _length),
    ((efano.fitter,), "initial_guess_fano", "fitter.initial_guess", None),
    ((efano.fitter,), "initial_guess_breit_wigner", "fitter.initial_guess", None),
    ((efano.fitter, efano.cli), "fit", _fit_name, _iterations),
    ((efano.fitter, efano.cli), "compare_models", "fitter.compare_models", None),
    ((efano.cli,), "report_to_json_dict", "fitter.report_to_json_dict", None),
    ((efano.cli,), "main", _cli_name, None),
]
# Spans whose individual durations are kept for medians.
KEEP_DURATIONS = ("fitter.fit.", "cli.main.")


@dataclass
class Totals:
    calls: int = 0
    self_ns: int = 0
    count: int = 0
    durations: list = field(default_factory=list)
    selfs: list = field(default_factory=list)


class Tracer:
    def __init__(self, cap: int = SPAN_CAP):
        self.cap = cap
        self.spans: list[tuple] = []  # (id, parent id, name, start ns, end ns)
        self.totals: dict[str, Totals] = {}
        self._stack: list[list] = []  # open spans: [id, child ns]
        self._next_id = 0
        self._undo: list[tuple] = []

    def span(self, name, fn, counter=None):
        """Wrap fn so that each call records a span named name (or name(args))."""
        clock = time.perf_counter_ns
        stack = self._stack
        naming = callable(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = name(args, kwargs) if naming else name
            span_id = self._next_id
            self._next_id = span_id + 1
            parent = stack[-1] if stack else None
            frame = [span_id, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self._record(span_name, span_id, parent, frame[1], start, end)
            if counter is not None:
                self.totals[span_name].count += counter(args, kwargs, result)
            return result

        return wrapper

    def _record(self, name, span_id, parent, child_ns, start, end):
        duration = end - start
        if parent is not None:
            parent[1] += duration
        t = self.totals.get(name)
        if t is None:
            t = self.totals[name] = Totals()
        t.calls += 1
        t.self_ns += duration - child_ns
        if name.startswith(KEEP_DURATIONS):
            t.durations.append(duration)
            t.selfs.append(duration - child_ns)
        if len(self.spans) < self.cap:
            self.spans.append((span_id, None if parent is None else parent[0], name,
                               start, end))

    def install(self) -> None:
        for modules, attr, name, counter in WRAPPED:
            original = getattr(modules[0], attr)
            wrapped = self.span(name, original, counter)
            for module in modules:
                self._undo.append((module, attr, getattr(module, attr)))
                setattr(module, attr, wrapped)
        cls = efano.profiles.CrossSectionCurve
        self._undo.append((cls, "__init__", cls.__init__))
        cls.__init__ = self.span("profiles.CrossSectionCurve", cls.__init__)

    def uninstall(self) -> None:
        for target, attr, value in reversed(self._undo):
            setattr(target, attr, value)
        self._undo.clear()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, name, start, end in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "name": name,
                                     "start_ns": start, "end_ns": end}) + "\n")

    # ------------------------------------------------------------ summaries

    def get(self, name: str) -> Totals:
        return self.totals.get(name, Totals())

    def self_ms(self, prefix: str) -> float:
        return sum(t.self_ns for n, t in self.totals.items() if n.startswith(prefix)) / 1e6

    def p50_ms(self, name: str) -> float:
        d = self.get(name).durations
        return median(d) / 1e6 if d else 0.0


"""Span tracing of quantdoa layers, applied from outside the package.

The tracer replaces each traced public function with a wrapper in every
``quantdoa`` module that binds it, so calls made through ``from .x
import f`` names are seen as well as calls through module attributes.
Nothing inside the package changes, and ``uninstall`` puts the
original functions back.

Spans nest: a span's self time is its duration minus the time its child
spans cover.  Spans are aggregated in memory per phase (``setup`` or
``run``) and per name; a wrapper called outside a phase runs the
original function and records nothing.
"""

from __future__ import annotations

import importlib
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

# Every traced (module, function).  A name missing from its module is an
# error: a rename must not silently drop a layer from the trace.
LAYERS = (
    ("music", "run_trials"),
    ("music", "sample_covariance"),
    ("music", "noise_subspace"),
    ("music", "music_spectrum"),
    ("music", "pick_peaks"),
    ("music", "doa_mse"),
    ("signal_model", "draw_source_angles"),
    ("signal_model", "synthesize"),
    ("signal_model", "steering_matrix"),
    ("quantizer", "quantize_complex"),
    ("network", "forward"),
    ("network", "backward"),
    ("network", "loss"),
    ("optimizer", "adam_step"),
    ("experiments", "train"),
    ("experiments", "evaluate_loss"),
    ("experiments", "denoise_snapshots"),
    ("dataset", "build_dataset"),
    ("dataset", "generate_record"),
    ("dataset", "save_dataset"),
    ("dataset", "load_dataset"),
    ("checkpoint", "save_checkpoint"),
    ("checkpoint", "load_checkpoint"),
)


class MissingLayerError(RuntimeError):
    """A traced function no longer exists in its module."""


@dataclass
class SpanStats:
    """All spans of one name in one phase."""

    durations: list[float] = field(default_factory=list)
    self_total: float = 0.0
    rows: int = 0        # network.forward: input rows seen
    unresolved: int = 0  # music.pick_peaks: calls padded with non-peaks
    nbytes: int = 0      # dataset save/load: file bytes

    @property
    def calls(self) -> int:
        return len(self.durations)


def count_peaks(spectrum: np.ndarray) -> int:
    """Strict local maxima of a spectrum, a plateau counting once.

    Mirrors the peak definition of ``music.pick_peaks`` so the tracer can
    tell when picking had to pad with points that are not peaks.
    """
    s = np.asarray(spectrum, dtype=float)
    starts = np.concatenate([[0], np.flatnonzero(np.diff(s) != 0.0) + 1])
    v = s[starts]
    return int(np.count_nonzero((v[1:-1] > v[:-2]) & (v[1:-1] > v[2:])))


def _arg(args, kwargs, index: int, name: str, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[tuple[str, str], SpanStats] = {}
        self.phase_wall: dict[str, float] = {}
        self.phase_ops: dict[str, int] = {}
        self._phase: str | None = None
        self._children: list[float] = []  # child time of each open span
        self._restore: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    @contextmanager
    def phase(self, name: str):
        """Record spans under ``name``; counts one op of that phase."""
        if self._phase is not None:
            raise RuntimeError("phases do not nest")
        self._phase = name
        start = time.perf_counter()
        try:
            yield
        finally:
            self._phase = None
            self.phase_wall[name] = self.phase_wall.get(name, 0.0) + time.perf_counter() - start
            self.phase_ops[name] = self.phase_ops.get(name, 0) + 1

    @contextmanager
    def span(self, name: str):
        if self._phase is None:
            yield
            return
        self._children.append(0.0)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(name, time.perf_counter() - start)

    def _close(self, name: str, duration: float) -> SpanStats:
        child = self._children.pop()
        st = self.stats.setdefault((self._phase, name), SpanStats())
        st.durations.append(duration)
        st.self_total += duration - child
        if self._children:
            self._children[-1] += duration
        return st

    def _wrap(self, label: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            if tracer._phase is None:
                return fn(*args, **kwargs)
            name = label
            if label == "network.forward":
                name = f"{label}.{_arg(args, kwargs, 2, 'mode', 'infer')}"
            tracer._children.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                st = tracer._close(name, duration)
            # Bookkeeping below runs after the span closed; its cost is
            # charged to the caller as child time so no self time absorbs it.
            mark = time.perf_counter()
            if label == "network.forward":
                st.rows += int(np.atleast_2d(_arg(args, kwargs, 1, "x")).shape[0])
            elif label == "music.pick_peaks":
                k = _arg(args, kwargs, 2, "num_sources")
                if count_peaks(_arg(args, kwargs, 1, "spectrum")) < k:
                    st.unresolved += 1
            elif label in ("dataset.save_dataset", "dataset.load_dataset"):
                st.nbytes += os.path.getsize(_arg(args, kwargs, 1 if "save" in label else 0, "path"))
            if tracer._children:
                tracer._children[-1] += time.perf_counter() - mark
            return result

        return traced

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every function in LAYERS wherever a quantdoa module binds it."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        importlib.import_module("quantdoa")
        modules = [m for n, m in list(sys.modules.items()) if n == "quantdoa" or n.startswith("quantdoa.")]
        for mod_name, fn_name in LAYERS:
            module = importlib.import_module(f"quantdoa.{mod_name}")
            original = getattr(module, fn_name, None)
            if not callable(original):
                self.uninstall()
                raise MissingLayerError(f"quantdoa.{mod_name}.{fn_name} does not exist; update benchmark/spans.py")
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def get(self, phase: str, name: str) -> SpanStats:
        return self.stats.get((phase, name), SpanStats())


def tail_percentile(n: int) -> float:
    """Highest of p50/p90/p99/p99.9 with at least ten samples beyond it.

    Falls back to p50 when even p50 has fewer than ten samples beyond it.
    """
    best = 50.0
    for p in (90.0, 99.0, 99.9):
        if n * (1.0 - p / 100.0) >= 10:
            best = p
    return best

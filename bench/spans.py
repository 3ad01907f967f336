"""Spans and work counters around calls into qstirling's public functions.

The package imports functions by name (``cycles.population``,
``performance.engine_ledger``, ``timing.integrate``, ...), so a wrapper
only sees a call if it replaces the name where the caller looks it up.
:meth:`Tracer.install` therefore rebinds every module attribute that *is*
the original function, and patches ``__post_init__``/methods on the
classes whose construction belongs to a layer.  :meth:`Tracer.remove`
restores everything.

A span's self time is its duration minus the durations of the spans it
directly encloses; each layer's share is the sum of its spans' self time.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

_clock = time.perf_counter_ns

# (layer, span key, module, attribute): plain functions rebound by identity
_FUNCTIONS = (
    ("statistics", "statistics.population", "statistics", "population"),
    ("statistics", "statistics.integrate_path", "statistics", "integrate_path"),
    ("cycles", "cycles.ledger", "cycles", "engine_ledger"),
    ("cycles", "cycles.ledger", "cycles", "fridge_ledger"),
    ("cycles", "cycles.work_closed_form", "cycles", "engine_work_closed_form"),
    ("cycles", "cycles.work_closed_form", "cycles", "fridge_work_closed_form"),
    ("timing", "timing.cycle_time", "timing", "engine_cycle_time"),
    ("timing", "timing.cycle_time", "timing", "fridge_cycle_time"),
    ("timing", "timing.stroke", "timing", "isothermal_time"),
    ("timing", "timing.stroke", "timing", "isochoric_time"),
    ("timing", "timing.closed_form", "timing", "closed_form_cycle_time"),
    ("timing", "timing.extents", "timing", "engine_regime_extents"),
    ("timing", "timing.extents", "timing", "fridge_regime_extents"),
    ("performance", "performance.sweep", "performance", "power_sweep"),
    ("performance", "performance.equivalence", "performance", "equivalence_report"),
    ("relaxation", "relaxation.call", "relaxation", "rates"),
    ("relaxation", "relaxation.call", "relaxation", "conduction_ratio"),
    ("relaxation", "relaxation.call", "relaxation", "heat_current"),
    ("relaxation", "relaxation.call", "relaxation", "limit_heat_current"),
    ("relaxation", "relaxation.call", "relaxation", "relax"),
    ("relaxation", "relaxation.call", "relaxation", "relaxation_rate"),
    ("relaxation", "relaxation.call", "relaxation", "equilibrium_population"),
    ("config", "config.load", "config", "load_run_config"),
)

# (layer, span key, module, class, attribute): construction and methods
_CLASS_ATTRS = (
    ("cycles", "cycles.spec_init", "cycles", "EngineSpec", "__post_init__"),
    ("cycles", "cycles.spec_init", "cycles", "FridgeSpec", "__post_init__"),
    ("relaxation", "relaxation.model_init", "relaxation", "GevaKosloff", "__post_init__"),
    ("relaxation", "relaxation.call", "relaxation", "GevaKosloff", "rates"),
    ("timing", "timing.regen_init", "timing", "LinearEngineRegenerator", "__post_init__"),
    ("timing", "timing.regen_init", "timing", "LinearFridgeRegenerator", "__post_init__"),
    ("quadrature", "quadrature.config_init", "quadrature", "QuadratureConfig", "__post_init__"),
)

_MODULES = ("cli", "config", "cycles", "errors", "performance", "quadrature",
            "relaxation", "statistics", "timing")


class Tracer:
    """Records per-key call counts, inclusive and self time, and GK15 work."""

    def __init__(self):
        self.stack: list[list[int]] = []          # [start_ns, enclosed child ns]
        self.stats: dict[str, list[int]] = {}     # key -> [calls, total_ns, self_ns]
        self.layer_self: dict[str, int] = defaultdict(int)
        self.counters: dict[str, int] = defaultdict(int)
        self._undo: list[tuple[object, str, object]] = []

    # -- span bookkeeping -------------------------------------------------
    def _close(self, key: str, layer: str, frame: list[int]):
        duration = _clock() - frame[0]
        self.stack.pop()
        own = duration - frame[1]
        entry = self.stats.get(key)
        if entry is None:
            entry = self.stats[key] = [0, 0, 0]
        entry[0] += 1
        entry[1] += duration
        entry[2] += own
        self.layer_self[layer] += own
        if self.stack:
            self.stack[-1][1] += duration

    def _span(self, key: str, layer: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [_clock(), 0]
            self.stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(key, layer, frame)
        return wrapper

    def _performance_span(self, fn, exact_mode):
        # one key per Mode: EXACT, LOW_TEMP and HIGH_TEMP cost very differently
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            mode = kwargs.get("mode", args[4] if len(args) > 4 else exact_mode)
            frame = [_clock(), 0]
            self.stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(f"performance.{mode.value}", "performance", frame)
        return wrapper

    def _integrate_span(self, fn, convergence_error):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(f, a, b, cfg=None):
            def integrand(x):
                counters["integrand_evals"] += 1
                frame = [_clock(), 0]
                self.stack.append(frame)
                try:
                    return f(x)
                finally:
                    self._close("timing.integrand", "timing", frame)

            before = counters["integrand_evals"]
            frame = [_clock(), 0]
            self.stack.append(frame)
            try:
                result = fn(integrand, a, b, cfg)
            except convergence_error:
                counters["failures"] += 1
                counters["panel_evals"] += (counters["integrand_evals"] - before) // 15
                raise
            finally:
                self._close("quadrature.integrate", "quadrature", frame)
            # the initial panel plus two per bisection: panels leaves, 2*panels-1 GK15 calls
            counters["leaf_panels"] += result.panels
            counters["panel_evals"] += 2 * result.panels - 1 if result.panels else 0
            return result
        return wrapper

    # -- installation -------------------------------------------------------
    def install(self):
        """Rebind the package's public functions to span-recording wrappers."""
        # import every submodule first: one imported later would bind a wrapper
        # by name and keep it after remove()
        modules = {name: importlib.import_module(f"qstirling.{name}") for name in _MODULES}
        namespaces = [importlib.import_module("qstirling"), *modules.values()]
        replacements = []
        for layer, key, module, attr in _FUNCTIONS:
            original = getattr(modules[module], attr)
            replacements.append((original, self._span(key, layer, original)))
        performance = modules["performance"]
        for attr in ("engine_performance", "fridge_performance"):
            original = getattr(performance, attr)
            replacements.append((original, self._performance_span(original, performance.Mode.EXACT)))
        original = modules["quadrature"].integrate
        replacements.append((original, self._integrate_span(
            original, modules["errors"].ConvergenceError)))
        for original, wrapper in replacements:
            for namespace in namespaces:
                for attr, value in list(vars(namespace).items()):
                    if value is original:
                        self._undo.append((namespace, attr, value))
                        setattr(namespace, attr, wrapper)
        for layer, key, module, cls_name, attr in _CLASS_ATTRS:
            cls = getattr(modules[module], cls_name)
            original = cls.__dict__[attr]
            self._undo.append((cls, attr, original))
            setattr(cls, attr, self._span(key, layer, original))
        return self

    def remove(self):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.remove()

    # -- readout --------------------------------------------------------------
    def calls(self, *keys: str) -> int:
        return sum(self.stats.get(k, (0, 0, 0))[0] for k in keys)

    def per_call_ns(self, keys, column: int) -> float | None:
        """Mean inclusive (column 1) or self (column 2) ns per call; None without calls."""
        calls = self.calls(*keys)
        if not calls:
            return None
        return sum(self.stats[k][column] for k in keys if k in self.stats) / calls

    def work_counts(self) -> dict[str, int]:
        """Deterministic work done so far: integrate calls, GK15 panels, integrand calls."""
        return {
            "integrate_calls": self.calls("quadrature.integrate"),
            "panel_evals": self.counters["panel_evals"],
            "leaf_panels": self.counters["leaf_panels"],
            "integrand_evals": self.counters["integrand_evals"],
        }

"""Timing wrappers installed from outside the program.

Each wrapper replaces a callable where its caller looks it up (a module
attribute such as ``mprfrailty.fitting.logdet_pd``, or a class attribute
such as ``Evaluator.information``) and puts the original back on exit.
Nothing under ``src/`` is edited, and a callable that a later version of
the program no longer has is reported as absent instead of failing.

``FitLog`` is always installed: it records the wall time and outcome of
every ``fit`` call (the exception type name, "not converged", or "ok")
and re-raises unchanged.  ``Tracer`` is installed only in traced runs;
it records one span per call and derives call counts, busy time and
self time per layer.
"""

import importlib
import inspect
import time
from contextlib import contextmanager

import numpy as np


def _resolve(owner_path):
    """Module or class named by a dotted path such as 'mprfrailty.hlik.Evaluator'."""
    parts = owner_path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:]:
            obj = getattr(obj, name)
        return obj
    raise ImportError(owner_path)


@contextmanager
def patched(points, absent):
    """Install wrappers for ``points``: (owner path, attribute, make_wrapper).

    ``make_wrapper(original)`` returns the replacement.  Points whose owner
    or attribute is missing are appended to ``absent`` and skipped.
    """
    undo = []
    try:
        for owner_path, attr, make_wrapper in points:
            try:
                owner = _resolve(owner_path)
                raw = inspect.getattr_static(owner, attr)
            except (ImportError, AttributeError):
                absent.append(f"{owner_path}.{attr}")
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                replacement = type(raw)(make_wrapper(raw.__func__))
            else:
                replacement = make_wrapper(raw)
            setattr(owner, attr, replacement)
            undo.append((owner, attr, raw))
        yield
    finally:
        for owner, attr, raw in reversed(undo):
            setattr(owner, attr, raw)


class FitLog:
    """Wall time, outcome and estimates of every fit, in call order."""

    def __init__(self):
        self.records = []
        self.context = ""

    def wrap(self, real):
        def fit(*args, **kwargs):
            structure = str(kwargs.get("structure", args[1] if len(args) > 1 else "BVNF"))
            start = time.perf_counter()
            try:
                result = real(*args, **kwargs)
            except Exception as exc:
                self._add(structure, time.perf_counter() - start, type(exc).__name__, None)
                raise
            outcome = "ok" if result.converged else "not converged"
            self._add(result.structure, time.perf_counter() - start, outcome, result)
            return result

        return fit

    def _add(self, structure, seconds, outcome, result):
        prefix = f"{self.context}/{structure}/"
        n = sum(1 for r in self.records if r["key"].startswith(prefix))
        record = {"key": f"{prefix}{n}", "structure": structure,
                  "seconds": seconds, "outcome": outcome}
        if result is not None:
            record["values"] = {
                "beta": np.asarray(result.beta, dtype=float).tolist(),
                "alpha": np.asarray(result.alpha, dtype=float).tolist(),
                "dispersion": {k: float(v) for k, v in result.dispersion.items()},
                "deviance_profile": float(result.deviance_profile),
            }
        self.records.append(record)

    def points(self):
        """Every place a workload's fits are looked up: its own calls, the CLI, run_scenario."""
        return [(owner, "fit", self.wrap)
                for owner in ("mprfrailty", "mprfrailty.cli", "mprfrailty.simulation")]


class Tracer:
    """Spans around calls into the program's layers.

    Spans nest on the calling thread only: every wrapped callable is
    reached from the benchmark's main thread (``run_scenario`` runs with
    ``threads=1``, and the bootstrap's worker threads call no wrapped
    callable).
    """

    # (owner, attribute, span name) for every layer boundary the benchmark times
    LAYERS = [
        ("mprfrailty.fitting", "logdet_pd", "hlik.logdet_pd"),
        ("mprfrailty.hlik.Evaluator", "information", "hlik.information"),
        ("mprfrailty.hlik.Evaluator", "h_score_info", "hlik.h_score_info"),
        ("mprfrailty.hlik.Evaluator", "h", "hlik.h"),
        ("mprfrailty.fitting", "outer_dispersion", "fitting.outer_dispersion"),
        ("mprfrailty.fitting", "build_design", "data.build_design"),
        ("mprfrailty.data.Dataset", "read_csv", "data.read_csv"),
        ("mprfrailty.cli", "selection_report", "selection"),
        ("mprfrailty.cli", "frailty_lrt", "selection"),
        ("mprfrailty.cli", "bootstrap_hr_ci", "inference.bootstrap_hr_ci"),
        ("mprfrailty.cli", "frailty_estimates", "inference.frailty_estimates"),
        ("mprfrailty", "calibrate_censoring", "simulation.calibrate_censoring"),
        ("mprfrailty.simulation", "calibrate_censoring", "simulation.calibrate_censoring"),
        ("mprfrailty", "simulate_dataset", "simulation.simulate_dataset"),
        ("mprfrailty.simulation", "simulate_dataset", "simulation.simulate_dataset"),
        ("mprfrailty", "fit", "fitting.fit"),
        ("mprfrailty.cli", "fit", "fitting.fit"),
        ("mprfrailty.simulation", "fit", "fitting.fit"),
        ("mprfrailty.cli", "main", "cli"),
    ]

    def __init__(self):
        self.spans = []  # [name, start, end, parent index]
        self._stack = []
        self.counts = {"objective_evals": 0, "gradient_converged": 0,
                       "outer_sweeps": 0, "inner_iters": 0}

    def wrap(self, name, real):
        spans, stack = self.spans, self._stack
        on_result = {"fitting.outer_dispersion": self._count_outer,
                     "fitting.fit": self._count_fit}.get(name)

        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), None, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = real(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _count_outer(self, result):
        self.counts["objective_evals"] += int(result.n_eval)
        self.counts["gradient_converged"] += bool(result.gradient_converged)

    def _count_fit(self, result):
        self.counts["outer_sweeps"] += int(result.iterations.get("outer", 0))
        self.counts["inner_iters"] += int(result.iterations.get("inner_total", 0))

    def points(self):
        return [(owner, attr, lambda real, name=name: self.wrap(name, real))
                for owner, attr, name in self.LAYERS]

    def layer_totals(self):
        """{span name: (calls, busy seconds, self seconds)}.

        Self time is a span's duration minus that of its direct children.
        No layer calls itself through a traced name, so busy times of one
        name never overlap.
        """
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            calls, busy, own = totals.get(name, (0, 0.0, 0.0))
            totals[name] = (calls + 1, busy + end - start, own + end - start - child[i])
        return totals

"""In-process tracing shim: spans and counters at floqnet's layer
boundaries, turned into per-layer metrics.

The shim wraps floqnet's public functions under every name their callers
look them up by (``floqnet.msf.monodromy``, ``floqnet.cli.simulate_network``,
``floqnet.linalg.expm`` ...), plus the ``field``/``jacobian`` of each model
and the right-hand side handed to the integrator.  Nothing under ``src/``
changes; :meth:`Tracer.uninstall` restores every patched name.

Calls at or above the integrator (``integrate``, ``monodromy``, the
``linalg`` functions, ...) are kept as spans ``(name, start, end, parent,
task)``.  The right-hand-side and model-field calls run millions of times
per pass, so they only feed counters and per-layer self time.  A layer's
self time is the time spent in its frames minus the time their child
frames cover.
"""
from __future__ import annotations

import contextlib
import dataclasses
import functools
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("models", "ode", "limit_cycle", "floquet", "msf", "network",
          "linalg", "cli")

# Per-layer metric -> (unit, the end-to-end metric it should move and where).
PER_LAYER = {
    "models.field_calls": ("count", "wall_s on network_sync and msf_curve"),
    "models.jacobian_calls": ("count", "wall_s on network_sync and msf_curve"),
    "models.self_s": ("s", "wall_s on network_sync and msf_curve"),
    "ode.integrate_calls": ("count", "wall_s on all three"),
    "ode.steps_accepted": ("count", "wall_s on all three"),
    "ode.steps_rejected": ("count", "wall_s on all three"),
    "ode.accept_ratio": ("ratio", "wall_s on all three"),
    "ode.self_s": ("s", "wall_s on all three"),
    "limit_cycle.calls": ("count", "wall_s on cycle_scan; small elsewhere"),
    "limit_cycle.s": ("s", "wall_s on cycle_scan; small elsewhere"),
    "floquet.monodromy_calls": ("count", "wall_s, peak_rss_mb on msf_curve"),
    "floquet.monodromy_s": ("s", "wall_s, peak_rss_mb on msf_curve"),
    "floquet.ajl_s": ("s", "wall_s on cycle_scan"),
    "floquet.lf_s": ("s", "wall_s on cycle_scan"),
    "floquet.self_s": ("s", "wall_s, peak_rss_mb on msf_curve"),
    "msf.points": ("count", "wall_s on msf_curve"),
    "msf.sweep_s": ("s", "wall_s on msf_curve"),
    "msf.predicate_s": ("s", "wall_s on network_sync"),
    "msf.predicate_reuse": ("ratio", "wall_s on network_sync"),
    "network.simulate_s": ("s", "wall_s on network_sync only"),
    "network.coupled_calls": ("count", "wall_s on network_sync only"),
    "network.fanout": ("calls/call", "wall_s on network_sync only"),
    "network.self_s": ("s", "wall_s on network_sync only"),
    "linalg.calls": ("count", "wall_s on cycle_scan and msf_curve"),
    "linalg.s": ("s", "wall_s on cycle_scan and msf_curve"),
    "cli.simulate_s": ("s", "wall_s on network_sync only"),
    "cli.self_s": ("s", "wall_s on network_sync only"),
    "cli.bytes_written": ("B", "wall_s on network_sync only"),
    "trace.unaccounted_s": ("s", "wall_s; benchmark glue and gates"),
    "trace.overhead": ("ratio", "none; traced over untraced wall_s"),
}

# Counters that must repeat exactly for the same seed.
DETERMINISTIC = tuple(
    name for name, (unit, _) in PER_LAYER.items()
    if unit in ("count", "B") or name in ("ode.accept_ratio",
                                           "msf.predicate_reuse",
                                           "network.fanout")
)

# Relative tolerance under which two K*lambda values count as one kappa.
KAPPA_EQUAL_RTOL = 1e-12


class _Frame:
    __slots__ = ("layer", "index", "start", "child")

    def __init__(self, layer, index):
        self.layer = layer
        self.index = index
        self.start = 0.0
        self.child = 0.0


def distinct_kappas(kappas, rtol=KAPPA_EQUAL_RTOL):
    """Number of values in ``kappas`` that differ by more than ``rtol``
    (relative) from every smaller one."""
    count, last = 0, None
    for kap in sorted(float(k) for k in kappas):
        if last is None or abs(kap - last) > rtol * max(abs(kap), abs(last)):
            count += 1
        last = kap
    return count


class Tracer:
    """Spans, counters and per-layer self time of one traced pass."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, task]
        self.counts = Counter()
        self.self_s = defaultdict(float)
        self.inclusive_s = defaultdict(float)
        self.task = None
        self._stack = []
        self._patches = []

    # -- frames -------------------------------------------------------

    def _enter(self, layer, name):
        parent = self._stack[-1] if self._stack else None
        index = None
        if parent is None or parent.index is not None:
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0,
                               parent.index if parent else None, self.task])
        frame = _Frame(layer, index)
        self._stack.append(frame)
        frame.start = time.perf_counter()
        return frame

    def _exit(self, frame, name):
        end = time.perf_counter()
        self._stack.pop()
        duration = end - frame.start
        self.self_s[frame.layer] += duration - frame.child
        self.inclusive_s[name] += duration
        self.counts[name] += 1
        if self._stack:
            self._stack[-1].child += duration
        if frame.index is not None:
            self.spans[frame.index][1:3] = [frame.start, end]

    @contextlib.contextmanager
    def task_span(self, task_id):
        """Root span of one benchmark task; its self time is benchmark
        glue (inputs, gates), not floqnet."""
        self.task = task_id
        frame = self._enter("bench", "bench.task")
        try:
            yield
        finally:
            self._exit(frame, "bench.task")
            self.task = None

    def wrap(self, fn, layer, name):
        """``fn`` inside a span of ``layer``."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self._enter(layer, name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(frame, name)
        return traced

    def _predicate(self, fn):
        """``sync_predicate``, also counting the distinct kappas it needs
        against the monodromies it computes."""
        traced = self.wrap(fn, "msf", "msf.sync_predicate")

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            before = self.counts["floquet.monodromy"]
            verdict = traced(*args, **kwargs)
            self.counts["msf.predicate_monodromies"] += (
                self.counts["floquet.monodromy"] - before)
            self.counts["msf.predicate_kappas"] += distinct_kappas(
                verdict.K * verdict.lambdas)
            return verdict
        return counted

    # -- hot paths: counters and self time only ----------------------

    def _model_leaf(self, fn, key):
        stack, counts, self_s = self._stack, self.counts, self.self_s
        clock = time.perf_counter

        @functools.wraps(fn)
        def leaf(x):
            t0 = clock()
            out = fn(x)
            dt = clock() - t0
            self_s["models"] += dt
            counts[key] += 1
            if stack:
                parent = stack[-1]
                parent.child += dt
                if parent.layer == "network":
                    counts["network.fanout_calls"] += 1
            return out
        return leaf

    def _rhs(self, fn, layer, tally):
        """The right-hand side handed to the integrator.  Its own work
        (stacking the variational system, the per-node loop) belongs to
        the layer that built it."""
        stack, self_s = self._stack, self.self_s
        clock = time.perf_counter

        def rhs(x):
            tally[0] += 1
            frame = _Frame(layer, None)
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(x)
            finally:
                dt = clock() - t0
                stack.pop()
                self_s[layer] += dt - frame.child
                stack[-1].child += dt
            return out
        return rhs

    def _integrator(self, fn, name):
        @functools.wraps(fn)
        def traced(field, *args, **kwargs):
            caller = self._stack[-1].layer if self._stack else "bench"
            tally = [0]
            frame = self._enter("ode", name)
            try:
                result = fn(self._rhs(field, caller, tally), *args, **kwargs)
            finally:
                self._exit(frame, name)
                self.counts["ode.integrate_calls"] += 1
                self.counts["ode.rhs_calls"] += tally[0]
                if caller == "network":
                    self.counts["network.coupled_calls"] += tally[0]
            # integrate_with_events returns (trajectory, crossings).
            traj = result[0] if isinstance(result, tuple) else result
            accepted = len(traj.times) - 1
            # DOPRI5 with FSAL: one start evaluation, one for the initial
            # step guess, then six per attempted step.
            self.counts["ode.steps_accepted"] += accepted
            self.counts["ode.steps_rejected"] += (tally[0] - 2) // 6 - accepted
            return result
        return traced

    def count(self, name, n):
        self.counts[name] += n

    def model(self, model):
        """``model`` with traced ``field`` and ``jacobian``."""
        return dataclasses.replace(
            model,
            field=self._model_leaf(model.field, "models.field_calls"),
            jacobian=self._model_leaf(model.jacobian, "models.jacobian_calls"),
        )

    # -- installation -------------------------------------------------

    def install(self, floqnet):
        """Patch every floqnet module's reference to a traced function."""
        fq = floqnet
        wrappers = {
            fq.ode.integrate: self._integrator(fq.ode.integrate,
                                               "ode.integrate"),
            fq.ode.integrate_with_events: self._integrator(
                fq.ode.integrate_with_events, "ode.integrate_with_events"),
            fq.limit_cycle.find_limit_cycle: self.wrap(
                fq.limit_cycle.find_limit_cycle, "limit_cycle",
                "limit_cycle.find_limit_cycle"),
            fq.floquet.monodromy: self.wrap(
                fq.floquet.monodromy, "floquet", "floquet.monodromy"),
            fq.floquet.ajl_determinant: self.wrap(
                fq.floquet.ajl_determinant, "floquet",
                "floquet.ajl_determinant"),
            fq.floquet.lf_decomposition: self.wrap(
                fq.floquet.lf_decomposition, "floquet",
                "floquet.lf_decomposition"),
            fq.msf.msf_point: self.wrap(fq.msf.msf_point, "msf",
                                        "msf.msf_point"),
            fq.msf.msf_sweep: self.wrap(fq.msf.msf_sweep, "msf",
                                        "msf.msf_sweep"),
            fq.msf.sync_predicate: self._predicate(fq.msf.sync_predicate),
            fq.network.simulate_network: self.wrap(
                fq.network.simulate_network, "network",
                "network.simulate_network"),
            fq.cli.run_subcommand: self.wrap(
                fq.cli.run_subcommand, "cli", "cli.run_subcommand"),
            fq.models.get_model: self._traced_get_model(fq.models.get_model),
        }
        for name in fq.linalg.__all__:
            fn = getattr(fq.linalg, name)
            wrappers[fn] = self.wrap(fn, "linalg", "linalg." + name)
        by_id = {id(orig): (orig, new) for orig, new in wrappers.items()}
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "floqnet" and not mod_name.startswith("floqnet."):
                continue
            for attr, value in list(vars(module).items()):
                hit = by_id.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def _traced_get_model(self, get_model):
        @functools.wraps(get_model)
        def traced(*args, **kwargs):
            return self.model(get_model(*args, **kwargs))
        return traced

    def uninstall(self):
        while self._patches:
            module, attr, value = self._patches.pop()
            setattr(module, attr, value)

    # -- results ------------------------------------------------------

    def layer_metrics(self, traced_wall_s, overhead):
        """Every metric of :data:`PER_LAYER` for the traced pass that took
        ``traced_wall_s``; ``overhead`` is traced over untraced wall_s."""
        c, s, inc = self.counts, self.self_s, self.inclusive_s
        accepted, rejected = c["ode.steps_accepted"], c["ode.steps_rejected"]
        attempted = accepted + rejected
        monodromies = c["msf.predicate_monodromies"]
        linalg_calls = sum(n for name, n in c.items()
                           if name.startswith("linalg."))
        metrics = {
            "models.field_calls": c["models.field_calls"],
            "models.jacobian_calls": c["models.jacobian_calls"],
            "models.self_s": s["models"],
            "ode.integrate_calls": c["ode.integrate_calls"],
            "ode.steps_accepted": accepted,
            "ode.steps_rejected": rejected,
            "ode.accept_ratio": accepted / attempted if attempted else 0.0,
            "ode.self_s": s["ode"],
            "limit_cycle.calls": c["limit_cycle.find_limit_cycle"],
            "limit_cycle.s": inc["limit_cycle.find_limit_cycle"],
            "floquet.monodromy_calls": c["floquet.monodromy"],
            "floquet.monodromy_s": inc["floquet.monodromy"],
            "floquet.ajl_s": inc["floquet.ajl_determinant"],
            "floquet.lf_s": inc["floquet.lf_decomposition"],
            "floquet.self_s": s["floquet"],
            "msf.points": c["msf.msf_point"],
            "msf.sweep_s": inc["msf.msf_sweep"],
            "msf.predicate_s": inc["msf.sync_predicate"],
            "msf.predicate_reuse": (c["msf.predicate_kappas"] / monodromies
                                    if monodromies else 0.0),
            "network.simulate_s": inc["network.simulate_network"],
            "network.coupled_calls": c["network.coupled_calls"],
            "network.fanout": (c["network.fanout_calls"]
                               / c["network.coupled_calls"]
                               if c["network.coupled_calls"] else 0.0),
            "network.self_s": s["network"],
            "linalg.calls": linalg_calls,
            "linalg.s": s["linalg"],
            "cli.simulate_s": inc["cli.run_subcommand"],
            "cli.self_s": s["cli"],
            "cli.bytes_written": c["cli.bytes_written"],
            "trace.unaccounted_s": traced_wall_s - sum(s[l] for l in LAYERS),
            "trace.overhead": overhead,
        }
        return metrics

    def dump(self):
        """Spans and counters as plain JSON-ready data."""
        return {
            "span_fields": ["name", "start", "end", "parent", "task"],
            "spans": self.spans,
            "counts": dict(sorted(self.counts.items())),
            "self_s": dict(sorted(self.self_s.items())),
            "inclusive_s": dict(sorted(self.inclusive_s.items())),
        }


class NullTracer:
    """Stand-in for untraced passes: no spans, no wrappers."""

    def task_span(self, task_id):
        return contextlib.nullcontext()

    def model(self, model):
        return model

    def count(self, name, n):
        pass

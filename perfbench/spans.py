"""In-memory span tracing around calls into qsdwalk's public functions.

The tracer replaces a function where its caller looks it up (for example
qsdwalk.experiment.step_arrays, which the experiment module calls by its
global name), records one span per call and restores the originals
afterwards. Nothing in the package itself changes.

A span is (id, parent_id, name, thread_id, start, end, work), where work
is a tuple of counts taken from the call's arguments and result. The
parent is carried in a context variable; the traced thread pool copies
the submitting context into each task, so kernel spans in worker threads
hang under the run_experiment span that started them.
"""

from __future__ import annotations

import contextvars
import itertools
import threading
import time
from collections import defaultdict

import numpy as np


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._current = contextvars.ContextVar("perfbench_span", default=0)
        self._patches: list[tuple] = []

    def wrap(self, name: str, fn, work=None):
        """fn recording one span per call; work(args, result) -> tuple of counts."""
        spans, ids, current = self.spans, self._ids, self._current

        def traced(*args, **kwargs):
            sid = next(ids)
            token = current.set(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                current.reset(token)
            spans.append((sid, current.get(), name, threading.get_ident(), start, end,
                          work(args, result) if work else ()))
            return result

        return traced

    def patch(self, module, attr: str, name: str, work=None) -> None:
        """Wrap module.attr; a lookup site the package no longer has is
        noted in `missing` and its metrics read 0."""
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return
        self._patches.append((module, attr, original))
        setattr(module, attr, self.wrap(name, original, work))

    def patch_pool(self, module, attr: str, name: str) -> None:
        """Count pool starts as zero-length spans and carry the span
        context into every submitted task."""
        base = getattr(module, attr, None)
        if base is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return
        tracer = self

        class TracedPool(base):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                now = time.perf_counter()
                tracer.spans.append((next(tracer._ids), tracer._current.get(), name,
                                     threading.get_ident(), now, now, ()))

            def submit(self, fn, /, *args, **kwargs):
                return super().submit(contextvars.copy_context().run, fn, *args, **kwargs)

        self._patches.append((module, attr, base))
        setattr(module, attr, TracedPool)

    def restore(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()


def _array_bytes(values) -> int:
    return sum(v.nbytes for v in values if isinstance(v, np.ndarray))


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the CLI workloads cross."""
    import qsdwalk.cli as cli
    import qsdwalk.discriminate as discriminate
    import qsdwalk.experiment as experiment
    import qsdwalk.oracle as oracle
    import qsdwalk.walk as walk

    draws = lambda args, result: (args[0].size,)
    chunk = lambda args, result: (args[2],)
    # computed bytes: every array read or written at the call boundary
    kernel = lambda args, result: (args[0].size, _array_bytes(args) + _array_bytes(result))

    for name, module, attr, work in (
        ("experiment.run_experiment", cli, "run_experiment", None),
        ("experiment.sweep_mu", cli, "sweep_mu", None),
        ("oracle.walk_agreement", cli, "walk_agreement", None),
        ("oracle.phase_table", cli, "phase_table", None),
        ("discriminate.run_trial", cli, "run_trial", None),
        ("rng.substream", cli, "substream", None),
        ("experiment.run_experiment", experiment, "run_experiment", None),
        ("rng.substream_states", experiment, "substream_states", chunk),
        ("rng.batch_uniform", experiment, "batch_uniform", draws),
        ("walk.step_arrays", experiment, "step_arrays", kernel),
        ("rng.substream", experiment, "substream", None),
        ("discriminate.run_trial", experiment, "run_trial", None),
        ("walk.weak_step", discriminate, "weak_step", None),
        ("walk.ax_probabilities", walk, "ax_probabilities", None),
        ("walk.collapse_update", walk, "collapse_update", None),
        ("gates.v_root", oracle, "v_root", None),
        ("oracle.apply_p", oracle, "apply_p", None),
        ("oracle.ax_marginal", oracle, "ax_marginal", None),
        ("oracle.project_ax", oracle, "project_ax", None),
        ("oracle.psi_moduli", oracle, "psi_moduli", None),
        ("walk.ax_probabilities", oracle, "ax_probabilities", None),
        ("walk.collapse_update", oracle, "collapse_update", None),
        ("rng.substream", oracle, "substream", None),
    ):
        tracer.patch(module, attr, name, work)
    tracer.patch_pool(experiment, "ThreadPoolExecutor", "experiment.pool_start")


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


class _Stats:
    __slots__ = ("calls", "busy_s", "self_s", "work")

    def __init__(self):
        self.calls = 0
        self.busy_s = 0.0
        self.self_s = 0.0
        self.work: tuple = ()


def summarize(spans: list[tuple]) -> dict[str, _Stats]:
    """Per span name: calls, busy time, self time and summed work.

    Self time is a span's duration minus the union of its children's
    intervals, clipped to the span; children in worker threads overlap,
    so their durations cannot simply be subtracted.
    """
    children = defaultdict(list)
    for sid, parent, _, _, start, end, _ in spans:
        children[parent].append((start, end))
    stats = defaultdict(_Stats)
    for sid, _, name, _, start, end, work in spans:
        st = stats[name]
        st.calls += 1
        st.busy_s += end - start
        kids = [(max(s, start), min(e, end))
                for s, e in children.get(sid, ()) if e > start and s < end]
        st.self_s += (end - start) - _union_length(kids)
        st.work = tuple(a + b for a, b in zip(st.work, work)) if st.work else work
    return stats


def layer_metrics(stats: dict[str, _Stats]) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer metrics of one traced pass, split into exact counts
    (which must repeat run to run) and timings."""
    def get(name):
        return stats.get(name) or _Stats()

    def work(name, i=0):
        w = get(name).work
        return w[i] if len(w) > i else 0

    def ratio(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    draws = work("rng.batch_uniform")
    trial_steps = work("walk.step_arrays")
    chunks = get("rng.substream_states")
    counts = {
        "rng.batch_uniform.calls": get("rng.batch_uniform").calls,
        "rng.batch_uniform.draws": draws,
        "rng.substream.calls": get("rng.substream").calls,
        "walk.step_arrays.calls": get("walk.step_arrays").calls,
        "walk.step_arrays.bytes_per_trial_step": ratio(work("walk.step_arrays", 1), trial_steps),
        "walk.weak_step.calls": get("walk.weak_step").calls,
        "discriminate.run_trial.calls": get("discriminate.run_trial").calls,
        "experiment.pool_starts": get("experiment.pool_start").calls,
        "experiment.trials_per_chunk": ratio(work("rng.substream_states"), chunks.calls),
        "oracle.apply_p.calls": get("oracle.apply_p").calls,
        "gates.v_root.calls": get("gates.v_root").calls,
    }
    timings = {
        "rng.batch_uniform.busy_s": get("rng.batch_uniform").busy_s,
        "rng.batch_uniform.ns_per_draw": ratio(get("rng.batch_uniform").busy_s, draws, 1e9),
        "rng.substream_states.busy_s": chunks.busy_s,
        "walk.step_arrays.busy_s": get("walk.step_arrays").busy_s,
        "walk.step_arrays.ns_per_trial_step":
            ratio(get("walk.step_arrays").busy_s, trial_steps, 1e9),
        "walk.weak_step.busy_s": get("walk.weak_step").busy_s,
        "walk.ax_probabilities.busy_s": get("walk.ax_probabilities").busy_s,
        "walk.collapse_update.busy_s": get("walk.collapse_update").busy_s,
        "discriminate.run_trial.self_s": get("discriminate.run_trial").self_s,
        "discriminate.run_trial.us_per_trial":
            ratio(get("discriminate.run_trial").busy_s, get("discriminate.run_trial").calls, 1e6),
        "experiment.run_experiment.self_s": get("experiment.run_experiment").self_s,
        "oracle.apply_p.self_s": get("oracle.apply_p").self_s,
        "oracle.ax_marginal.busy_s": get("oracle.ax_marginal").busy_s,
        "oracle.project_ax.busy_s": get("oracle.project_ax").busy_s,
        "oracle.psi_moduli.busy_s": get("oracle.psi_moduli").busy_s,
        "oracle.phase_table.busy_s": get("oracle.phase_table").busy_s,
        "oracle.walk_agreement.self_s": get("oracle.walk_agreement").self_s,
        "gates.v_root.busy_s": get("gates.v_root").busy_s,
        "cli.overhead_s": get("cli.main").self_s,
    }
    return counts, timings

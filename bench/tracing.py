"""Spans recorded around calls into the steinfisher modules, and their analysis.

The tracer wraps public functions where their callers look them up (module
attributes, class attributes, and the callables carried by catalog specs), so
the package itself is not modified.  Spans stay in memory and are written out
by the child process after the run; the parent process turns them into the
per-layer metrics.

A span is ``(id, name, thread, n, start, end, parent, count)``.  ``name`` is
``<layer>.<what>`` with the layer equal to a package module, ``n`` is the grid
point (the request identifier; inherited from the enclosing span when the
call itself does not show it), and ``count`` is the work the call did (values
evaluated, bytes returned, flops), as defined per wrapper in :meth:`install`.
Spans opened on a thread with no open span of its own (the CLI's shard
workers) have the root span as parent.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
import threading
import time
from collections import defaultdict

import numpy as np

LAYERS = ("bench", "cli", "distributions", "streams", "samplemean", "quadform",
          "estimate", "moments", "quadrature", "distances")
DRAW_SPANS = ("samplemean.draw", "quadform.draw")


# Work counts recorded with a span, computed from (call args, result).
def _size(args, result):
    return int(np.size(args[0]))


def _result_size(args, result):
    return int(np.size(result))


def _result_bytes(args, result):
    return int(result.nbytes)


def _matmul_flops(args, result):
    # x @ a and (tau * r) @ a, each 2 m n^2 flops.
    x = np.atleast_2d(args[1])
    m, n = x.shape
    return 2 * 2 * m * n * n


def _sample_bytes(args, result):
    return int(result.f.nbytes + result.h.nbytes + result.aux.nbytes
               + result.guarded.nbytes)


class Tracer:
    """In-memory span recorder; one per traced child process."""

    def __init__(self):
        self.spans = []
        self.counters = defaultdict(int)
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._root = None

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, key, amount):
        with self._lock:
            self.counters[key] += int(amount)

    def call(self, name, fn, args, kwargs, request=None, count=None):
        stack = self._stack()
        parent_id, parent_n = stack[-1] if stack else self._root
        n = request(args) if request is not None else parent_n
        sid = next(self._ids)
        stack.append((sid, n))
        result = None
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            t1 = time.perf_counter()
            stack.pop()
            c = count(args, result) if count is not None and result is not None else 0
            self.spans.append((sid, name, threading.get_ident(), n, t0, t1,
                               parent_id, c))

    def wrap(self, name, fn, request=None, count=None):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            return self.call(name, fn, args, kwargs, request, count)
        return wrapped

    def run_root(self, name, fn):
        """Run ``fn()`` as the root span; returns its result."""
        sid = next(self._ids)
        self._root = (sid, None)
        self._stack().append((sid, None))
        t0 = time.perf_counter()
        try:
            return fn()
        finally:
            t1 = time.perf_counter()
            self._stack().pop()
            self.spans.append((sid, name, threading.get_ident(), None, t0, t1,
                               -1, 0))

    def dump(self):
        return {"spans": self.spans, "counters": dict(self.counters)}

    # -- installation -------------------------------------------------------

    def timed_spec(self, spec):
        """A copy of a catalog spec whose callables record spans."""
        kf = spec.kernel_form
        kernel = dataclasses.replace(
            kf,
            tau=self.wrap("distributions.kernel", kf.tau),
            tau_prime=self.wrap("distributions.kernel", kf.tau_prime))

        return dataclasses.replace(
            spec,
            sampler=self.wrap("distributions.sample", spec.sampler,
                              count=_result_size),
            density=self.wrap("distributions.density", spec.density,
                              count=_size),
            log_density_derivative=self.wrap("distributions.score",
                                             spec.log_density_derivative,
                                             count=_size),
            kernel_form=kernel)

    def install(self):
        """Patch the package's lookup points for the rest of this process."""
        from steinfisher import (cli, distances, estimate, moments, quadform,
                                 samplemean, streams)

        specs = {}
        catalog_get = cli.catalog_get

        def timed_catalog_get(name):
            if name not in specs:
                specs[name] = self.timed_spec(catalog_get(name))
            return specs[name]

        cli.catalog_get = timed_catalog_get

        substream = self.wrap("streams.substream", streams.substream)
        cli.substream = substream
        streams.substream = substream

        columns = self.wrap("distributions.columns",
                            samplemean.sample_columns,
                            request=lambda a: len(a[0]), count=_result_bytes)
        samplemean.sample_columns = columns
        quadform.sample_columns = columns

        samplemean.linear_sum_pairs = self.wrap(
            "samplemean.draw", samplemean.linear_sum_pairs,
            request=lambda a: int(a[1]))
        samplemean.draw_score_pairs_sm = self.wrap(
            "samplemean.draw", samplemean.draw_score_pairs_sm,
            request=lambda a: a[0].n)
        samplemean.pre_pass = self.wrap(
            "samplemean.prepass", samplemean.pre_pass,
            request=lambda a: int(a[2]))

        quadform.draw_score_pairs = self.wrap(
            "quadform.draw", quadform.draw_score_pairs,
            request=lambda a: a[0].n)
        quadform.QuadFormModel.evaluate = self.wrap(
            "quadform.evaluate", quadform.QuadFormModel.evaluate,
            count=_matmul_flops)
        quadform.matrix_functionals = self.wrap(
            "quadform.functionals", quadform.matrix_functionals,
            request=lambda a: a[0].n)

        estimate.fisher_distance_upper = self.wrap(
            "estimate.upper", estimate.fisher_distance_upper)
        estimate.plugin_split = self.wrap("estimate.plugin",
                                          estimate.plugin_split)
        estimate.density_representation = self.wrap(
            "estimate.density", estimate.density_representation)
        concat = estimate.ScoreSample.concat

        def timed_concat(cls, samples):
            # Only the whole-sample merge, called by the root; merges of
            # chunks inside a draw belong to the draw's own time.
            stack = self._stack()
            if stack and stack[-1] != self._root:
                return concat(samples)
            return self.call("estimate.concat", concat, (samples,), {},
                             count=_sample_bytes)

        estimate.ScoreSample.concat = classmethod(timed_concat)

        query = moments.NegMomentQuery

        def counted(factor):
            def mgf(x):
                self.add("moments.mgf_abscissae", np.size(x))
                return factor(x)
            return mgf

        def timed_query(alpha, mgf_factors, *args, **kwargs):
            factors = tuple(counted(f) for f in mgf_factors)
            return self.call("moments.query", query,
                             (alpha, factors) + args, kwargs,
                             request=lambda a: len(a[1]))

        moments.NegMomentQuery = timed_query
        moments.negative_moment = self.wrap("moments.negative_moment",
                                            moments.negative_moment)
        moments.integrate = self.wrap("quadrature.integrate", moments.integrate)
        moments.integrate_half_line = self.wrap("quadrature.integrate",
                                                moments.integrate_half_line)

        distances.kolmogorov_empirical = self.wrap(
            "distances.kolmogorov", distances.kolmogorov_empirical)
        distances.convert = self.wrap("distances.convert", distances.convert)

        cli.validate = self.wrap("cli.validate", cli.validate)
        cli.rows_to_csv = self.wrap("cli.serialize", cli.rows_to_csv)


# -- analysis ----------------------------------------------------------------

class TraceError(Exception):
    """The recorded spans break an invariant of the trace."""


def self_times(spans):
    """Wall time attributed to each span, keyed by span id.

    Each instant of the root span is shared equally among the innermost open
    spans, where a span is innermost while none of its children is open.  On
    one thread this is the usual duration-minus-children; with worker threads
    the parallel time is split between them, so the self times of all spans
    add up to the root's duration.
    """
    parent = {s[0]: s[6] for s in spans}
    events = []
    for s in spans:
        events.append((s[4], 1, s[0]))
        events.append((s[5], 0, -s[0]))
    events.sort()
    out = dict.fromkeys(parent, 0.0)
    open_children = defaultdict(int)
    is_open = set()
    leaves = set()
    last = None
    for t, kind, key in events:
        if leaves and last is not None and t > last:
            share = (t - last) / len(leaves)
            for sid in leaves:
                out[sid] += share
        last = t
        sid = key if kind else -key
        p = parent[sid]
        if kind:
            is_open.add(sid)
            leaves.add(sid)
            if p >= 0:
                open_children[p] += 1
                leaves.discard(p)
        else:
            is_open.discard(sid)
            leaves.discard(sid)
            if p >= 0:
                open_children[p] -= 1
                if open_children[p] == 0 and p in is_open:
                    leaves.add(p)
    return out


def check_spans(spans):
    """Raise :class:`TraceError` unless the spans form one well-nested tree."""
    by_id = {s[0]: s for s in spans}
    roots = [s for s in spans if s[6] < 0]
    if len(roots) != 1:
        raise TraceError(f"expected one root span, found {len(roots)}")
    for s in spans:
        if s[5] < s[4]:
            raise TraceError(f"span {s[1]} ends before it starts")
        if s[6] < 0:
            continue
        p = by_id.get(s[6])
        if p is None:
            raise TraceError(f"span {s[1]} has an unknown parent")
        if s[4] < p[4] or s[5] > p[5]:
            raise TraceError(f"span {s[1]} lies outside its parent {p[1]}")
    return roots[0]


def layer_metrics(dump):
    """Per-layer metrics of one traced run, from its dumped spans."""
    spans = [tuple(s) for s in dump["spans"]]
    root = check_spans(spans)
    own = self_times(spans)
    if min(own.values()) < 0.0:
        raise TraceError("negative self time")
    run_s = root[5] - root[4]

    total = defaultdict(float)
    self_ = defaultdict(float)
    calls = defaultdict(int)
    count = defaultdict(int)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for s in spans:
        name = s[1]
        total[name] += s[5] - s[4]
        self_[name] += own[s[0]]
        calls[name] += 1
        count[name] += s[7]
        layer = name.split(".", 1)[0]
        if layer not in layer_self:
            raise TraceError(f"span {name} belongs to no known layer")
        layer_self[layer] += own[s[0]]
    if not math.isclose(sum(layer_self.values()), run_s, rel_tol=1e-9,
                        abs_tol=1e-9):
        raise TraceError(f"layer self times add up to "
                         f"{sum(layer_self.values())!r}, not run_s {run_s!r}")

    shard_time = 0.0
    shard_wall = 0.0
    by_n = defaultdict(list)
    for s in spans:
        if s[1] in DRAW_SPANS and s[6] == root[0] and root[1] == "cli.main":
            by_n[s[3]].append(s)
    for group in by_n.values():
        shard_time += sum(s[5] - s[4] for s in group)
        shard_wall += max(s[5] for s in group) - min(s[4] for s in group)

    metrics = {
        "distributions.sample_s": total["distributions.sample"],
        "distributions.columns_self_s": self_["distributions.columns"],
        "distributions.block_bytes": count["distributions.columns"],
        "distributions.kernel_s": total["distributions.kernel"],
        "distributions.kernel_calls": calls["distributions.kernel"],
        "distributions.score_s": total["distributions.score"],
        "distributions.score_values": count["distributions.score"],
        "distributions.density_s": total["distributions.density"],
        "distributions.density_values": count["distributions.density"],
        "streams.substreams": calls["streams.substream"],
        "samplemean.draw_self_s": self_["samplemean.draw"],
        "samplemean.prepass_s": total["samplemean.prepass"],
        "quadform.evaluate_self_s": self_["quadform.evaluate"],
        "quadform.matmul_gflop": count["quadform.evaluate"] / 1e9,
        "quadform.functionals_s": total["quadform.functionals"],
        "estimate.concat_s": total["estimate.concat"],
        "estimate.concat_bytes": count["estimate.concat"],
        "estimate.upper_s": total["estimate.upper"],
        "estimate.plugin_s": total["estimate.plugin"],
        "estimate.density_s": total["estimate.density"],
        "moments.query_s": total["moments.query"],
        "moments.negative_moment_s": total["moments.negative_moment"],
        "moments.mgf_abscissae": dump["counters"].get("moments.mgf_abscissae", 0),
        "quadrature.integrate_calls": calls["quadrature.integrate"],
        "quadrature.integrate_s": self_["quadrature.integrate"],
        "distances.kolmogorov_s": total["distances.kolmogorov"],
        "cli.validate_s": total["cli.validate"],
        "cli.serialize_s": total["cli.serialize"],
        "cli.run_self_s": self_["cli.main"],
        "cli.shard_parallelism": shard_time / shard_wall if shard_wall > 0 else 0.0,
        "trace.run_s": run_s,
        "trace.spans": len(spans),
    }
    for layer, value in layer_self.items():
        metrics[f"{layer}.self_s"] = value
    return metrics

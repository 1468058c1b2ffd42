"""In-memory spans around calls into the esn2 modules, and per-layer metrics.

The tracer wraps public functions of the package from outside: each wrapper
is installed into every esn2 module namespace that holds the original
function, so calls between modules (esn2.likelihood.zeta, esn2.model.zeta,
esn2.expectations.integrate_2d, ...) are seen as well as calls from the
benchmark.  Nothing in the package is edited.

A span records its name, start, end, parent, operation id and thread.  The
parent is the innermost open span of the same thread; a span opened on a
thread with no open span (a det_scan pool worker) takes the det_scan span
that spawned the pool as its parent.  Spans stay in memory until the run
writes them out.
"""

import itertools
import json
import math
import sys
import threading
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float = math.nan
    parent: int = -1
    op: str = ""
    thread: int = 0
    attrs: dict = field(default_factory=dict)


class Tracer:
    """Collects spans; one instance per traced run."""

    def __init__(self):
        self.spans = []
        self.op = ""
        self._ids = itertools.count()
        self._local = threading.local()
        self._fanout = []
        self._lock = threading.Lock()
        self._installed = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name):
        stack = self._stack()
        if stack:
            parent = stack[-1].sid
        elif self._fanout:
            parent = self._fanout[-1]
        else:
            parent = -1
        span = Span(next(self._ids), name, time.perf_counter(), parent=parent,
                    op=self.op, thread=threading.get_ident())
        stack.append(span)
        with self._lock:
            self.spans.append(span)
        return span

    def end(self, span):
        """Close the innermost open span of this thread, which is span."""
        span.end = time.perf_counter()
        self._stack().pop()

    def span(self, name):
        return _SpanContext(self, name)

    # -- wrappers ---------------------------------------------------------

    def wrap(self, name, fn, before=None, after=None, fanout=False):
        """Callable that runs fn inside a span.

        before(span, args, kwargs) may record attributes and returns the
        (args, kwargs) to call with; after(span, result) records attributes
        of the result.  fanout marks a function whose thread pool's spans
        should nest under this one.
        """
        def wrapper(*args, **kwargs):
            span = self.begin(name)
            if fanout:
                self._fanout.append(span.sid)
            try:
                if before is not None:
                    args, kwargs = before(span, args, kwargs)
                result = fn(*args, **kwargs)
                if after is not None:
                    after(span, result)
                return result
            finally:
                if fanout:
                    self._fanout.pop()
                self.end(span)
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, targets):
        """Replace each target function in every esn2 namespace holding it.

        targets: iterable of (span_name, module_name, attr, before, after,
        fanout); see wrap.
        Returns the (module, attr) pairs that could not be found, so a
        renamed internal shows up as missing rather than as an error.
        """
        missing = []
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "esn2" or n.startswith("esn2."))]
        for name, module_name, attr, before, after, fanout in targets:
            home = sys.modules.get(module_name)
            original = getattr(home, attr, None) if home else None
            if original is None:
                missing.append(f"{module_name}.{attr}")
                continue
            wrapper = self.wrap(name, original, before, after, fanout)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._installed.append((module, key, original))
        return missing

    def uninstall(self):
        for module, key, original in reversed(self._installed):
            setattr(module, key, original)
        self._installed.clear()

    def dump(self, path):
        """Write every span as one JSON line."""
        with open(path, "w", encoding="utf-8") as handle:
            for s in self.spans:
                handle.write(json.dumps(
                    {"id": s.sid, "name": s.name, "start": s.start,
                     "end": s.end, "parent": s.parent, "op": s.op,
                     "thread": s.thread, "attrs": s.attrs}) + "\n")


class _SpanContext:
    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name
        self.span = None

    def __enter__(self):
        self.span = self.tracer.begin(self.name)
        return self.span

    def __exit__(self, *exc):
        self.tracer.end(self.span)
        return False


def self_times(spans):
    """Self time of every span: its duration minus the union of the parts
    of its children's intervals that fall inside it.  Children on other
    threads may overlap each other; overlap is counted once."""
    children = {}
    for s in spans:
        children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for a, b in sorted(children.get(s.sid, ())):
            a, b = max(a, cursor), min(b, s.end)
            if b > a:
                covered += b - a
                cursor = b
        out[s.sid] = (s.end - s.start) - covered
    return out


# -- the esn2 wrapping table and the per-layer metrics ----------------------

TAIL_CUT = -10.0


def _zeta_call(span, args, kwargs):
    x = np.asarray(args[1] if len(args) > 1 else kwargs["x"], dtype=float)
    span.attrs["elements"] = int(x.size)
    span.attrs["tail"] = int(np.count_nonzero(x < TAIL_CUT))
    return args, kwargs


def _data_call(span, args, kwargs):
    data = args[1] if len(args) > 1 else kwargs["data"]
    span.attrs["n"] = int(data.n)
    return args, kwargs


def _sampler_call(span, args, kwargs):
    dp = args[0] if args else kwargs["dp"]
    span.attrs["n"] = int(args[1] if len(args) > 1 else kwargs["n"])
    span.attrs["accept"] = float(ndtr(dp.tau))
    return args, kwargs


def _make_integrate_call(tracer):
    def before(span, args, kwargs):
        f = args[0] if args else kwargs.pop("f")
        traced = tracer.wrap("cubature.integrand", f)
        return (traced,) + tuple(args[1:]), kwargs
    return before


def _integrate_result(span, result):
    span.attrs["evals"] = int(result.evals)
    span.attrs["converged"] = bool(result.converged)


def esn2_targets(tracer):
    """The wrapped functions, in the form Tracer.install takes."""
    return [
        ("special_fns.zeta", "esn2.special_fns", "zeta", _zeta_call, None,
         False),
        ("likelihood.loglik", "esn2.likelihood", "loglik", _data_call, None,
         False),
        ("likelihood.score", "esn2.likelihood", "score", _data_call, None,
         False),
        ("likelihood.observed_info", "esn2.likelihood", "observed_info",
         _data_call, None, False),
        ("likelihood.fit_mle", "esn2.likelihood", "fit_mle", None, None,
         False),
        ("cubature.integrate_2d", "esn2.cubature", "integrate_2d",
         _make_integrate_call(tracer), _integrate_result, False),
        ("expectations.a_terms", "esn2.expectations", "a_terms", None, None,
         False),
        ("expectations.box_check", "esn2.expectations", "_integration_box",
         None, None, False),
        ("expected_info.expected_info", "esn2.expected_info", "expected_info",
         None, None, False),
        ("expected_info.det_scan", "esn2.expected_info", "det_scan", None,
         None, True),
        ("expected_info.det_scan.point", "esn2.expected_info", "_scan_row",
         None, None, False),
        ("validation.sample_esn2", "esn2.validation", "sample_esn2",
         _sampler_call, None, False),
    ]


_KERNELS = ("likelihood.loglik", "likelihood.score",
            "likelihood.observed_info")


def layer_metrics(spans, passes):
    """Per-layer metrics from the spans of `passes` measured passes.

    Counts and self times are per pass; rates and fractions are pooled
    over the whole run.  A ratio whose base is empty is reported as 0.
    """
    selft = self_times(spans)
    by_name = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def group(name):
        return by_name.get(name, [])

    def calls(name):
        return len(group(name)) / passes

    def self_s(name):
        return sum(selft[s.sid] for s in group(name)) / passes

    def ratio(a, b):
        return a / b if b > 0 else 0.0

    def attr_sum(name, key):
        return sum(s.attrs.get(key, 0) for s in group(name))

    m = {}
    zeta = "special_fns.zeta"
    m[f"{zeta}.calls"] = calls(zeta)
    m[f"{zeta}.elements"] = attr_sum(zeta, "elements") / passes
    m[f"{zeta}.self_s"] = self_s(zeta)
    m[f"{zeta}.tail_frac"] = ratio(attr_sum(zeta, "tail"),
                                   attr_sum(zeta, "elements"))

    for k in _KERNELS:
        m[f"{k}.calls"] = calls(k)
        m[f"{k}.self_s"] = self_s(k)
    # over inclusive time: zeta, called inside the kernels, is their work
    m["likelihood.obs_per_s"] = ratio(
        sum(attr_sum(k, "n") for k in _KERNELS),
        sum(s.end - s.start for k in _KERNELS for s in group(k)))

    fit = "likelihood.fit_mle"
    fit_ids = {s.sid for s in group(fit)}
    kernel_children = sum(1 for k in _KERNELS for s in group(k)
                          if s.parent in fit_ids)
    m[f"{fit}.self_s"] = self_s(fit)
    m[f"{fit}.kernel_calls"] = ratio(kernel_children, len(fit_ids))

    cub = "cubature.integrate_2d"
    evals = attr_sum(cub, "evals")
    inclusive = sum(s.end - s.start for s in group(cub))
    m[f"{cub}.calls"] = calls(cub)
    m[f"{cub}.evals"] = evals / passes
    m[f"{cub}.self_s"] = self_s(cub)
    m[f"{cub}.integrand_s"] = sum(
        s.end - s.start for s in group("cubature.integrand")) / passes
    m[f"{cub}.evals_per_s"] = ratio(evals, inclusive)
    m[f"{cub}.unconverged"] = sum(
        1 for s in group(cub) if not s.attrs.get("converged", True)) / passes

    box_ids = {s.sid for s in group("expectations.box_check")}
    box_evals = sum(s.attrs.get("evals", 0) for s in group(cub)
                    if s.parent in box_ids)
    m["expectations.a_terms.calls"] = calls("expectations.a_terms")
    m["expectations.a_terms.self_s"] = self_s("expectations.a_terms")
    m["expectations.box_check.evals_frac"] = ratio(box_evals, evals)

    ei = "expected_info.expected_info"
    m[f"{ei}.calls"] = calls(ei)
    m[f"{ei}.self_s"] = self_s(ei)

    scan = "expected_info.det_scan"
    points = group(f"{scan}.point")
    scans = group(scan)
    threads = {}
    for p in points:
        threads.setdefault(p.parent, set()).add(p.thread)
    capacity = sum((s.end - s.start) * len(threads.get(s.sid, ()))
                   for s in scans)
    m[f"{scan}.points"] = len(points) / passes
    m[f"{scan}.threads"] = max((len(t) for t in threads.values()), default=0)
    m[f"{scan}.parallel_efficiency"] = ratio(
        sum(p.end - p.start for p in points if p.parent in threads), capacity)

    samp = "validation.sample_esn2"
    draws = attr_sum(samp, "n")
    m[f"{samp}.calls"] = calls(samp)
    m[f"{samp}.self_s"] = self_s(samp)
    m[f"{samp}.draws_per_s"] = ratio(
        draws, sum(s.end - s.start for s in group(samp)))
    # computed, not observed: Phi(tau) per call, pooled over the kept draws
    m[f"{samp}.accept_frac"] = ratio(
        draws, sum(s.attrs["n"] / s.attrs["accept"] for s in group(samp)))

    m["cli.self_s"] = self_s("cli.main")
    return m


PER_LAYER_UNITS = {
    "calls": "count/pass", "elements": "count/pass", "self_s": "s/pass",
    "tail_frac": "frac", "obs_per_s": "1/s", "kernel_calls": "count/fit",
    "evals": "count/pass", "integrand_s": "s/pass", "evals_per_s": "1/s",
    "unconverged": "count/pass", "evals_frac": "frac", "points": "count/pass",
    "threads": "count", "parallel_efficiency": "frac",
    "draws_per_s": "1/s", "accept_frac": "frac-computed", "import_s": "s",
    "op_s_traced": "s",
}


def unit_of(metric):
    return PER_LAYER_UNITS[metric.rsplit(".", 1)[1]]

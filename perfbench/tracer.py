"""Outside-in tracing of gsens layers.

The tracer replaces public gsens functions by timing wrappers at every module
attribute that binds them (``gsens.analysis.build_plan``,
``gsens.cli.load_model``, ...), so calls between modules are recorded
without changing a line of the program. Spans are kept in memory as
``[name, start_ns, end_ns, parent, job, raised]`` and aggregated, or written
out, when the run ends. Untraced runs install nothing.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import sys
import time
from collections import Counter

# (metric prefix, defining module, function). The prefix is the defining
# module's short name, so a metric keeps its name whichever module calls it.
TARGETS = (
    ("cli.build_parser", "gsens.cli", "build_parser"),
    ("analysis.load_model", "gsens.analysis", "load_model"),
    ("graphmodels.dag_to_gaussian", "gsens.graphmodels", "dag_to_gaussian"),
    ("graphmodels.dag_ci_statements", "gsens.graphmodels", "dag_ci_statements"),
    ("analysis.one_way_sweep", "gsens.analysis", "one_way_sweep"),
    ("analysis.two_way_sweep", "gsens.analysis", "two_way_sweep"),
    ("analysis.emit", "gsens.analysis", "emit"),
    ("covariation.build_plan", "gsens.covariation", "build_plan"),
    ("covariation.compose", "gsens.covariation", "compose"),
    ("covariation.verify_preserving", "gsens.covariation", "verify_preserving"),
    ("matcore.is_psd", "gsens.matcore", "is_psd"),
    ("matcore.inverse", "gsens.matcore", "inverse"),
    ("divergence.kl_mp", "gsens.divergence", "kl_mp"),
    ("divergence.kl_additive", "gsens.divergence", "kl_additive"),
    ("divergence.frobenius_mp", "gsens.divergence", "frobenius_mp"),
    ("divergence.scheme_ordering", "gsens.divergence", "scheme_ordering"),
    ("cimodel.model_holds", "gsens.cimodel", "model_holds"),
    ("cimodel.ci_holds", "gsens.cimodel", "ci_holds"),
    ("conditioning.condition", "gsens.conditioning", "condition"),
)
ROOT = "cli.main"
MINORS = "cimodel.minors"
EMIT_BYTES = "analysis.emit.bytes"

NAME, START, END, PARENT, JOB, RAISED = range(6)


class Tracer:
    """Span recorder; one instance per traced run."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._job = -1

    def wrap(self, name: str, fn, on_return=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0, stack[-1] if stack else -1, self._job, False]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[RAISED] = True
                raise
            finally:
                span[END] = clock()
                stack.pop()
            if on_return is not None:
                on_return(result)
            return result

        return traced

    def count_yields(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counts[name] += 1
                yield item

        return counted

    def run_job(self, job: int, fn, *args):
        """Call fn(*args) as job number ``job``, under a root span."""
        self._job = job
        try:
            return self.wrap(ROOT, fn)(*args)
        finally:
            self._job = -1

    def self_times(self) -> dict[str, int]:
        """Total self time in ns per span name: each span's duration minus
        the time its child spans cover. Children of one span never overlap
        (one thread, stack discipline), so covered time is their sum."""
        child = [0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                child[span[PARENT]] += span[END] - span[START]
        out: Counter = Counter()
        for k, span in enumerate(self.spans):
            out[span[NAME]] += span[END] - span[START] - child[k]
        return dict(out)

    def write(self, path) -> None:
        """Spans as gzipped CSV: id,parent,job,name,start_ns,end_ns,raised."""
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("id,parent,job,name,start_ns,end_ns,raised\n")
            for k, s in enumerate(self.spans):
                f.write(f"{k},{s[PARENT]},{s[JOB]},{s[NAME]},{s[START]},{s[END]},{int(s[RAISED])}\n")


def _bindings(original) -> list[tuple[object, str]]:
    """Every (gsens module, attribute) that binds ``original``."""
    found = []
    for modname, module in list(sys.modules.items()):
        if modname == "gsens" or not modname.startswith("gsens.") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                found.append((module, attr))
    return found


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Install wrappers for TARGETS and the minor counter; restore every
    original binding on exit."""
    restore: list[tuple[object, str, object]] = []

    def patch(original, replacement):
        for module, attr in _bindings(original):
            restore.append((module, attr, original))
            setattr(module, attr, replacement)

    def count_emit(text):
        tracer.counts[EMIT_BYTES] += len(text.encode())

    try:
        for prefix, modname, fname in TARGETS:
            original = getattr(sys.modules.get(modname), fname, None)
            if original is None:
                continue
            hook = count_emit if prefix == "analysis.emit" else None
            patch(original, tracer.wrap(prefix, original, hook))
        cimodel = sys.modules.get("gsens.cimodel")
        if cimodel is not None and hasattr(cimodel, "iter_minors"):
            original = cimodel.iter_minors
            restore.append((cimodel, "iter_minors", original))
            cimodel.iter_minors = tracer.count_yields(MINORS, original)
        yield
    finally:
        for module, attr, original in reversed(restore):
            setattr(module, attr, original)


def layer_metrics(tracer: Tracer, jobs: int) -> dict[str, float]:
    """Per-job means of self time (ms) and calls per layer, plus the derived
    counts and ratios; every TARGETS prefix appears, with 0 when the layer
    was never called."""
    self_ns = tracer.self_times()
    calls = Counter(s[NAME] for s in tracer.spans)
    out: dict[str, float] = {}
    out[f"{ROOT}.self_ms"] = self_ns.get(ROOT, 0) / 1e6 / jobs
    for prefix, _, _ in TARGETS:
        out[f"{prefix}.self_ms"] = self_ns.get(prefix, 0) / 1e6 / jobs
        out[f"{prefix}.calls"] = calls.get(prefix, 0) / jobs
    # outermost build_plan calls: build_plan recurses on multi-position
    # variations, and a failed cell raises out of the outermost call
    plan_attempts = plan_errors = 0
    spans = tracer.spans
    for s in spans:
        if s[NAME] == "covariation.build_plan" and (
            s[PARENT] < 0 or spans[s[PARENT]][NAME] != "covariation.build_plan"
        ):
            plan_attempts += 1
            plan_errors += s[RAISED]
    out["covariation.plan_error_ratio"] = plan_errors / plan_attempts if plan_attempts else 0.0
    minors = tracer.counts[MINORS]
    checks = calls.get("cimodel.ci_holds", 0)
    out[MINORS] = minors / jobs
    out["cimodel.minors_per_check"] = minors / checks if checks else 0.0
    out[EMIT_BYTES] = tracer.counts[EMIT_BYTES] / jobs
    out["trace.job_ms"] = sum(s[END] - s[START] for s in spans if s[NAME] == ROOT) / 1e6 / jobs
    return out

"""Spans and counters recorded around the public functions of each layer.

A traced pass replaces each name in WRAPPED, in the module namespace the
pipeline calls it from, with a wrapper that records a span (name, start, end,
parent). A layer's self time is its spans' time minus the time of their child
spans. A name that no longer exists is reported as missing and skipped, so the
traced pass survives refactors that delete or rename functions.

Counting work (chains, patterns, tape nodes) happens in `trace.bookkeeping`
spans, so its cost is attributed to tracing rather than to a layer. Counters
that no longer fit their function's arguments or result are reported as
missing too.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import time
from collections import Counter

# (module, attribute path, span name, counter hook name or None)
WRAPPED = (
    ("rachain.kg", "load_dataset", "kg.load", None),
    ("rachain.model", "sample_tree", "retrieval.sample_tree", "retrieval"),
    ("rachain.model", "select_top_k", "filter.select", "filter"),
    ("rachain.model", "select_random_k", "filter.select", "filter"),
    ("rachain.model", "Model.predict", "model.predict", None),
    ("rachain.model", "Model.forward", "model.forward", "forward"),
    ("rachain.model", "encode_chains", "encoder.encode", "encode"),
    ("rachain.model", "affine_transfer", "encoder.affine", None),
    ("rachain.model", "weight_chains", "reasoner.weight", None),
    ("rachain.reasoner", "transformer_stack_rows", "reasoner.weight", None),
    ("rachain.model", "project_values", "reasoner.project", None),
    ("rachain.training", "train", "training.train", None),
    ("rachain.training", "validation_mae", "training.validation", None),
    ("rachain.training", "loss_term", "training.loss_term", "loss"),
    ("rachain.training", "backward", "autodiff.backward", "backward"),
    ("rachain.training", "clip_global_norm", "autodiff.clip", None),
    ("rachain.autodiff", "Adam.step", "autodiff.adam_step", None),
    ("rachain.evaluation", "evaluate", "evaluation.evaluate", None),
)

BOOKKEEPING = "trace.bookkeeping"


def _argument(fn, args, kwargs, name):
    return inspect.signature(fn).bind(*args, **kwargs).arguments[name]


def _tape_nodes(root) -> int:
    """Tensors reachable from `root` through the autodiff tape, leaves included."""
    seen: set[int] = set()
    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.extend(getattr(node, "_parents", ()))
    return len(seen)


def _count_retrieval(counts, fn, args, kwargs, toc):
    counts["retrieval.calls"] += 1
    counts["retrieval.walks"] += _argument(fn, args, kwargs, "walks")
    counts["retrieval.chains"] += len(toc.chains)


def _count_filter(counts, fn, args, kwargs, etoc):
    toc = _argument(fn, args, kwargs, "toc")
    counts["filter.calls"] += 1
    counts["filter.chains_in"] += len(toc.chains)
    counts["filter.chains_kept"] += len(etoc.chains)
    counts["filter.patterns"] += len({(c.source_attribute, c.relations)
                                      for c in toc.chains})


def _count_forward(counts, fn, args, kwargs, result):
    counts["model.forward_calls"] += 1
    counts["model.fallbacks"] += result is None


def _count_encode(counts, fn, args, kwargs, result):
    counts["encoder.calls"] += 1


def _count_loss(counts, fn, args, kwargs, term):
    counts["autodiff.loss_terms"] += 1
    counts["autodiff.tape_nodes"] += _tape_nodes(term)


def _count_backward(counts, fn, args, kwargs, result):
    counts["autodiff.backward_calls"] += 1


HOOKS = {
    "retrieval": _count_retrieval,
    "filter": _count_filter,
    "forward": _count_forward,
    "encode": _count_encode,
    "loss": _count_loss,
    "backward": _count_backward,
}


class Tracer:
    """Spans kept in memory as [name, start, end, parent index] rows."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        row = [name, time.perf_counter(), 0.0, parent]
        self.spans.append(row)
        self._stack.append(idx)
        try:
            yield
        finally:
            row[2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name: str, hook):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if hook is not None:
                with self.span(BOOKKEEPING):
                    try:
                        hook(self.counts, fn, args, kwargs, result)
                    except (AttributeError, KeyError, TypeError):
                        # the function's arguments or result changed shape
                        label = f"{name} counters"
                        if label not in self.missing:
                            self.missing.append(label)
            return result
        return wrapper

    def install(self) -> None:
        for module_name, path, name, hook in WRAPPED:
            label = f"{module_name}.{path}"
            try:
                owner = importlib.import_module(module_name)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(label)
                continue
            self._installed.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, HOOKS.get(hook)))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- aggregation ------------------------------------------------------

    def times(self) -> tuple[Counter, Counter, float]:
        """Self and inclusive seconds per span name, and top-level seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        own: Counter = Counter()
        inclusive: Counter = Counter()
        top = 0.0
        for i, (name, start, end, parent) in enumerate(self.spans):
            own[name] += end - start - child[i]
            inclusive[name] += end - start
            if parent < 0:
                top += end - start
        return own, inclusive, top

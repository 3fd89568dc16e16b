"""Spans around calls into the salience modules, recorded from outside them.

``Tracer.install`` wraps each public function in ``TARGETS`` and rebinds the
wrapper under every name a salience module holds for it (``cli`` binds
``load_model``, ``intrusion`` binds ``metrics.auc`` as ``auc_metric``, and so
on), so calls made inside the package are seen too.  ``uninstall`` puts the
originals back.  Nothing under ``src/`` is changed.  A target the package
no longer has is listed in ``missing`` and its metrics read 0, so the traced
run survives a refactor that moves a function.

A span is ``[name, start, end, parent]``.  Calls are serial and in one
thread, so the spans nest: a span's self time is its duration minus the
durations of its direct children.  Counters marked "computed" in the
benchmark README are derived from argument and result shapes at the same
boundaries, never from timing.
"""
from __future__ import annotations

import functools
import importlib
import os
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np


def _count_pool(counters, args, result):
    # result has shape (..., K): one activation per cosine and kernel
    counters["kernels.gaussian_pool.cosines"] += result.size // result.shape[-1]
    counters["kernels.gaussian_pool.act_bytes"] += result.nbytes


def _count_grad_tables(counters, tables, referenced_rows):
    counters["training.grad_table_bytes"] += sum(t.vectors.nbytes for t in tables)
    counters["training.grad_rows_allocated"] += sum(t.vectors.shape[0] for t in tables)
    counters["training.grad_rows_useful"] += sum(np.unique(r).size for r in referenced_rows)


def _count_kce_backward(counters, args, result):
    model, _doc, cache = args[:3]
    _count_grad_tables(
        counters, (model.event_table, model.entity_table), (cache.rows_v, cache.rows_e)
    )


def _count_pagerank_backward(counters, args, result):
    model, _doc, cache = args[:3]
    _count_grad_tables(counters, (model.event_table,), (cache.rows,))


def _count_adam(counters, args, result):
    counters["training.Adam.step.elements"] += sum(p.size for p in args[1].values())


def _count_pairs(counters, args, result):
    counters["training.hinge_pairs"] += len(result)


def _count_saved(counters, args, result):
    counters["models.save_model.bytes"] += os.path.getsize(args[1])


# (module, attribute, counter); "Adam.step" names a method.
TARGETS = (
    ("synth", "generate_corpus", None),
    ("corpus", "load_corpus", None),
    ("corpus", "save_corpus", None),
    ("embeddings", "load_word_vectors", None),
    ("embeddings", "build_vocab", None),
    ("embeddings", "init_embeddings", None),
    ("embeddings", "table_to_json", None),
    ("embeddings", "table_from_json", None),
    ("features", "fit_scaler", None),
    ("features", "feature_matrix", None),
    ("kernels", "gaussian_pool", _count_pool),
    ("models", "kce_forward", None),
    ("models", "pagerank_forward", None),
    ("models", "save_model", _count_saved),
    ("models", "load_model", None),
    ("training", "train", None),
    ("training", "make_pairs", _count_pairs),
    ("training", "kce_backward", _count_kce_backward),
    ("training", "pagerank_backward", _count_pagerank_backward),
    ("training", "Adam.step", _count_adam),
    ("metrics", "evaluate", None),
    ("metrics", "auc", None),
    ("metrics", "permutation_test", None),
    ("intrusion", "build_instance", None),
    ("intrusion", "run_study", None),
    ("manifest", "write_manifest", None),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: defaultdict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def _begin(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def _end(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._begin(name)
        try:
            yield
        finally:
            self._end(idx)

    def _wrap(self, name, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(idx)
            if counter is not None:
                counter(self.counters, args, result)
            return result

        return traced

    def install(self, package: str = "salience") -> None:
        """Wrap every target; a target the package no longer has goes to ``missing``."""
        modules = [m for n, m in sys.modules.items() if n == package or n.startswith(package + ".")]
        for module_name, attr, counter in TARGETS:
            wrapped_name = f"{module_name}.{attr}"
            try:
                owner = importlib.import_module(f"{package}.{module_name}")
            except ModuleNotFoundError:
                self.missing.append(wrapped_name)
                continue
            *path, name = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, name, None)
            if original is None:
                self.missing.append(wrapped_name)
                continue
            wrapper = self._wrap(wrapped_name, original, counter)
            if path:  # a method: rebind it on its class
                self._patches.append((owner, name, original))
                setattr(owner, name, wrapper)
                continue
            for mod in modules:
                for bound_name, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, bound_name, original))
                        setattr(mod, bound_name, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def summary(self) -> tuple[dict[str, dict[str, float]], dict[str, float]]:
        """Per span name: calls, total seconds, self seconds; and self seconds per module."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        by_name: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        by_module: dict[str, float] = defaultdict(float)
        for (name, start, end, _), children in zip(self.spans, child_time):
            entry = by_name[name]
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += end - start - children
            by_module[name.split(".")[0]] += end - start - children
        return dict(by_name), dict(by_module)

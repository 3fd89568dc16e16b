"""Ranking metrics and the paired randomization significance test.

Precision@k always divides by k; recall@k divides by the number of salient
events.  Both read one running count of the salient events down a document's
ranking, so ``evaluate`` counts each document's hits once for all of its ks.
AUC follows the Mann-Whitney convention with half credit for tied scores,
computed exactly by counting each positive's lower and tied negatives in the
sorted negative scores.  That count is written once, in ``_sorted_auc``:
``auc`` calls it for one score vector, and ``row_aucs`` for each row of a
matrix of candidate scores over one document, the rows sorted in one call.
Corpus-level numbers are macro averages over per-document values; documents
without salient events are skipped for precision/recall, and AUC
additionally requires at least one non-salient event.

A ``MetricsReport`` is saved by ``errors.write_json`` as ``dataclasses.asdict``
with string k-keys, and loaded from the fields that ``_REPORT_FIELDS`` and
``_DOC_FIELDS`` name and check; any other key is ignored.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .corpus import Corpus, salience_labels
from .errors import DataError, NumericError, check_fields, is_int, is_number, read_json, write_json
from .models import ranked_order

DEFAULT_KS = (1, 5, 10)


def _hit_counts(ranked_labels: Sequence[bool]) -> list[int]:
    """``hits[i]``: the salient events among the top i slots, for i = 0 .. n."""
    return [0, *np.cumsum(np.asarray(ranked_labels, dtype=bool)).tolist()]


def _at_k(hits: list[int], k: int) -> tuple[float, float]:
    """(P@k, R@k) from a ranking's ``_hit_counts``."""
    if k < 1:
        raise DataError(f"k must be >= 1, got {k}")
    top = hits[min(k, len(hits) - 1)]
    return top / k, (top / hits[-1] if hits[-1] else 0.0)


def precision_at_k(ranked_labels: Sequence[bool], k: int) -> float:
    """Fraction of the top k slots holding salient events (missing slots count as misses)."""
    return _at_k(_hit_counts(ranked_labels), k)[0]


def recall_at_k(ranked_labels: Sequence[bool], k: int) -> float:
    """Fraction of all salient events captured in the top k (0 when none exist)."""
    return _at_k(_hit_counts(ranked_labels), k)[1]


def _sorted_auc(neg: np.ndarray, pos: np.ndarray) -> float:
    """The AUC count of the positive scores ``pos`` against the sorted negative scores ``neg``,
    both non-empty; NaN if any score is NaN (a sort puts NaN last)."""
    if math.isnan(neg[-1]) or np.isnan(pos).any():
        return float("nan")
    below = neg.searchsorted(pos, "left")
    ties = neg.searchsorted(pos, "right") - below
    u = below.sum() + 0.5 * ties.sum()
    return float(u / (len(pos) * len(neg)))


def auc(scores: np.ndarray, labels: np.ndarray) -> float | None:
    """Mann-Whitney AUC with 0.5 credit for ties; None when one class is empty.

    The statistic is the exact pair count: for each positive, the negatives
    scored strictly below it plus half of those tied with it, found by binary
    search in the sorted negatives.  The count is a half-integer, which float64
    holds exactly.  Any NaN score makes the result NaN.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=bool)
    if scores.shape != labels.shape:
        raise DataError("scores and labels must have equal length")
    n_pos = np.count_nonzero(labels)
    if n_pos == 0 or n_pos == len(labels):
        return None
    return _sorted_auc(np.sort(scores[~labels]), scores[labels])


def row_aucs(rows: np.ndarray, labels: np.ndarray) -> list[float | None]:
    """``auc`` of each row of an (R, n) score matrix against one document's n ``labels``, the
    rows' negatives sorted in one call."""
    labels = np.asarray(labels, dtype=bool)
    n_pos = np.count_nonzero(labels)
    if n_pos == 0 or n_pos == len(labels):
        return [None] * len(rows)
    negs = np.sort(rows[:, ~labels], axis=1)
    return [_sorted_auc(neg, pos) for neg, pos in zip(negs, rows[:, labels])]


def mean_auc(doc_aucs: Sequence[float | None]) -> float | None:
    """The macro average of per-document AUCs over the documents that have one; None if none has."""
    present = [value for value in doc_aucs if value is not None]
    return float(np.mean(present)) if present else None


@dataclass(frozen=True)
class DocMetrics:
    doc_id: str
    n_events: int
    n_salient: int
    p_at: dict[int, float]
    r_at: dict[int, float]
    auc: float | None


_COUNT = (lambda v: is_int(v) and v >= 0, "an integer >= 0")
_AUC = (lambda v: v is None or is_number(v), "a number or null")
_AT_K = (
    lambda v: isinstance(v, dict)
    and all(isinstance(k, str) and k.isdecimal() and is_number(x) for k, x in v.items()),
    "an object of numbers keyed by k",
)
_DOC_FIELDS = {
    "doc_id": (lambda v: isinstance(v, str), "a string"),
    "n_events": _COUNT,
    "n_salient": _COUNT,
    "p_at": _AT_K,
    "r_at": _AT_K,
    "auc": _AUC,
}
_REPORT_FIELDS = {
    "ks": (lambda v: isinstance(v, list) and all(is_int(k) and k >= 1 for k in v), "a list of integers >= 1"),
    "p_at": _AT_K,
    "r_at": _AT_K,
    "auc": _AUC,
    "n_docs": _COUNT,
    "n_docs_pr": _COUNT,
    "n_docs_auc": _COUNT,
    "tie_seed": (lambda v: v is None or (is_int(v) and v >= 0), "an integer >= 0 or null"),
    "per_doc": (lambda v: isinstance(v, list) and all(isinstance(d, dict) for d in v), "a list of objects"),
}


@dataclass
class MetricsReport:
    ks: tuple[int, ...]
    p_at: dict[int, float]
    r_at: dict[int, float]
    auc: float | None
    n_docs: int
    n_docs_pr: int
    n_docs_auc: int
    tie_seed: int | None
    per_doc: list[DocMetrics] = field(default_factory=list)

    def to_json(self) -> dict:
        """The report's fields in declaration order, each k-keyed dict keyed by strings and ``ks`` a list."""
        return {**asdict(self, dict_factory=_string_keys), "ks": list(self.ks)}

    def save(self, path: str | Path) -> None:
        write_json(self.to_json(), path)

    @staticmethod
    def from_json(obj: dict) -> "MetricsReport":
        """Inverse of ``to_json``.

        A missing or mistyped field, or a repeated ``doc_id``, raises
        ``DataError`` naming it; a NaN or infinite metric raises ``NumericError``.
        """
        if not isinstance(obj, dict):
            raise DataError("a metrics report must be a JSON object")
        obj = {"tie_seed": None, "per_doc": [], **obj}  # the two fields that may be absent
        check_fields(obj, _REPORT_FIELDS)
        _check_finite_metrics(obj, "")
        per_doc: dict[str, DocMetrics] = {}
        for i, d in enumerate(obj["per_doc"]):
            prefix = f"per_doc[{i}]."
            check_fields(d, _DOC_FIELDS, prefix)
            _check_finite_metrics(d, prefix)
            if d["doc_id"] in per_doc:
                raise DataError(f"field {prefix}doc_id repeats doc_id {d['doc_id']!r}")
            per_doc[d["doc_id"]] = DocMetrics(**_fields_of(d, _DOC_FIELDS))
        fields = _fields_of(obj, _REPORT_FIELDS)
        return MetricsReport(**{**fields, "ks": tuple(obj["ks"]), "per_doc": list(per_doc.values())})

    @staticmethod
    def load(path: str | Path) -> "MetricsReport":
        obj = read_json(path, "metrics report")
        try:
            return MetricsReport.from_json(obj)
        except (DataError, NumericError) as exc:
            raise type(exc)(f"{path}: {exc}") from None


def _string_keys(pairs: list[tuple[str, object]]) -> dict:
    """``asdict``'s dict factory: the k-keyed dicts get string keys, as JSON object keys are strings."""
    return {name: {str(k): x for k, x in v.items()} if isinstance(v, dict) else v for name, v in pairs}


def _fields_of(obj: dict, rules: dict) -> dict:
    """The fields of the JSON object ``obj`` that ``rules`` names, k-keyed dicts keyed by integers again."""
    return {
        name: {int(k): x for k, x in obj[name].items()} if rule is _AT_K else obj[name]
        for name, rule in rules.items()
    }


def _check_finite_metrics(obj: dict, prefix: str) -> None:
    for name in ("auc", "p_at", "r_at"):
        values = obj[name].values() if isinstance(obj[name], dict) else [obj[name]]
        if not all(v is None or math.isfinite(v) for v in values):
            raise NumericError(f"field {prefix}{name} holds a non-finite value")


def evaluate(
    scores_per_doc: Sequence[np.ndarray],
    corpus: Corpus,
    ks: tuple[int, ...] = DEFAULT_KS,
    tie_seed: int | None = None,
) -> MetricsReport:
    """Macro-averaged ranking metrics over a corpus.

    ``scores_per_doc`` aligns positionally with ``corpus.documents`` and each
    document's event list.  With ``tie_seed`` set, exact score ties are broken
    by a seeded random permutation before any metric is computed (the behavior
    baselines call for); otherwise ranking ties break by event id and AUC uses
    the half-credit convention.
    """
    if len(scores_per_doc) != len(corpus.documents):
        raise DataError(
            f"got scores for {len(scores_per_doc)} documents, corpus has {len(corpus.documents)}"
        )
    if tie_seed is not None and tie_seed < 0:
        raise DataError(f"tie seed must be >= 0, got {tie_seed}")
    per_doc: list[DocMetrics] = []
    for doc_idx, (doc, scores) in enumerate(zip(corpus.documents, scores_per_doc)):
        scores = np.asarray(scores, dtype=np.float64)
        if scores.shape != (len(doc.events),):
            raise DataError(f"doc {doc.doc_id!r}: score vector does not match the event list")
        labels = salience_labels(doc)
        if tie_seed is not None:
            rng = np.random.default_rng([tie_seed % (2**32), doc_idx])
            order = ranked_order(scores, rng=rng)
            auc_scores = np.empty(len(scores))
            auc_scores[order] = -np.arange(len(scores), dtype=np.float64)
        else:
            order = ranked_order(scores, [ev.id for ev in doc.events])
            auc_scores = scores
        hits = _hit_counts(labels[order])
        at_k = {k: _at_k(hits, k) for k in ks}
        per_doc.append(
            DocMetrics(
                doc_id=doc.doc_id,
                n_events=len(doc.events),
                n_salient=hits[-1],
                p_at={k: p for k, (p, _) in at_k.items()},
                r_at={k: r for k, (_, r) in at_k.items()},
                auc=auc(auc_scores, labels),
            )
        )

    pr_docs = [d for d in per_doc if d.n_salient > 0]
    report = MetricsReport(
        ks=ks,
        p_at={
            k: float(np.mean([d.p_at[k] for d in pr_docs])) if pr_docs else 0.0 for k in ks
        },
        r_at={
            k: float(np.mean([d.r_at[k] for d in pr_docs])) if pr_docs else 0.0 for k in ks
        },
        auc=mean_auc([d.auc for d in per_doc]),
        n_docs=len(per_doc),
        n_docs_pr=len(pr_docs),
        n_docs_auc=sum(d.auc is not None for d in per_doc),
        tie_seed=tie_seed,
        per_doc=per_doc,
    )
    return report


def permutation_test(
    a: Sequence[float], b: Sequence[float], iterations: int = 10000, seed: int = 0
) -> float:
    """Two-sided paired sign-flip randomization test with add-one smoothing.

    Flips the sign of each paired difference independently with probability
    one half and counts permuted |mean| >= observed |mean|; returns
    (count + 1) / (iterations + 1).
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise DataError("paired samples must be 1-d and of equal length")
    if len(a) == 0:
        raise DataError("cannot run a permutation test on empty samples")
    if iterations < 1:
        raise DataError("iterations must be >= 1")
    if seed < 0:
        raise DataError(f"seed must be >= 0, got {seed}")
    diff = a - b
    observed = abs(float(diff.mean()))
    rng = np.random.default_rng(seed)
    count = 0
    chunk = 4096
    done = 0
    while done < iterations:
        size = min(chunk, iterations - done)
        signs = rng.integers(0, 2, size=(size, len(diff))) * 2 - 1
        permuted = np.abs((signs * diff).mean(axis=1))
        count += int((permuted >= observed).sum())
        done += size
    return (count + 1) / (iterations + 1)

"""Reference implementations the tests check the vectorized code against.

Written one event, one pair and one scalar at a time, straight from the
definitions: cosine similarity and its gradient, the five per-event features
and their standardization, per-target kernel pooling with its backward pass,
the kernel activations computed with one temporary per operation,
the per-document kernel pass as first written (that pool, the diagonal
zeroed by fancy indexing, ``.sum(axis=1)`` pooling and the allocating
kernel slope),
the (salient, non-salient) pair list, the hinge gradient on the scores and the
per-row sum of mention gradients accumulated with ``np.add.at``, the training
loop that Adam-steps every row of every table in every batch, the
stand-alone LeToR scorer with its weight gradients, the one-step PageRank
walk, the dev search for its frequency/walk mix through one full ``evaluate``
per grid value, AUC from average ranks, the intrusion instance built by filtering
entities sentence by sentence, the intrusion study's scores with every
standardized feature but frequency zeroed, the corpus document loader
that checks one field per call and validates with a message built for every
mention, and the JSON lines writer that encodes each row with one
``json.dumps`` call.  Nothing in the package calls them.
"""
from __future__ import annotations

import copy
import functools
import itertools
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np
from scipy.stats import rankdata

from salience.corpus import Corpus, Document, EntityMention, EventMention, salience_labels, validate_document
from salience.embeddings import EmbeddingTable
from salience.errors import DataError
from salience.features import FeatureScaler, doc_geometry, feature_matrix, geometry_features, scale_matrix
from salience.intrusion import MIN_ORIGIN_SALIENT, IntrusionConfig, eligible_intruder_events
from salience.kernels import KernelBank, gaussian_pool
from salience.metrics import evaluate
from salience.models import (
    VARIANT_BLOCKS,
    KCEModel,
    PageRankModel,
    kce_forward,
    model_plan,
    pagerank_forward,
    reads_entities,
)
from salience.training import (
    EMBEDDING_KEYS,
    LAMBDA_GRID,
    Adam,
    EpochStats,
    TrainConfig,
    TrainHistory,
    _check_finite_params,
    _derived_rng,
    _dev_metrics,
    _doc_loss_and_grads,
    _param_arrays,
    _sync_scalar,
    make_pairs,
)


def cosine(u: np.ndarray, v: np.ndarray) -> float:
    """Cosine similarity; zero-norm inputs are defined to have similarity 0."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.ndim != 1 or u.shape != v.shape:
        raise ValueError(f"cosine expects equal-length 1-d vectors, got {u.shape} and {v.shape}")
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return float(np.dot(u, v) / (nu * nv))


def cosine_backward(
    u: np.ndarray, v: np.ndarray, upstream: float = 1.0
) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of ``upstream * cosine(u, v)`` w.r.t. u and v (0 at zero norm)."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        return np.zeros_like(u), np.zeros_like(v)
    c = float(np.dot(u, v) / (nu * nv))
    du = upstream * (v / (nu * nv) - c * u / (nu * nu))
    dv = upstream * (u / (nu * nv) - c * v / (nv * nv))
    return du, dv


# --- per-event features -------------------------------------------------------


@dataclass(frozen=True)
class FeatureVector:
    frequency: float
    sentence_location: float
    event_voting: float
    entity_voting: float
    local_entity_voting: float

    def to_array(self) -> np.ndarray:
        return np.array(
            [
                self.frequency,
                self.sentence_location,
                self.event_voting,
                self.entity_voting,
                self.local_entity_voting,
            ],
            dtype=np.float64,
        )

    @staticmethod
    def from_array(arr: np.ndarray) -> "FeatureVector":
        return FeatureVector(*(float(x) for x in arr))


def _event_index(doc: Document, ev: EventMention) -> int:
    for i, other in enumerate(doc.events):
        if other.id == ev.id:
            return i
    raise DataError(f"event {ev.id!r} is not part of doc {doc.doc_id!r}")


def frequency_feature(ev: EventMention, doc: Document) -> float:
    """How many events in the document share this head lemma (includes ev itself)."""
    return float(sum(1 for other in doc.events if other.head_lemma == ev.head_lemma))


def location_feature(ev: EventMention, doc: Document) -> float:
    """Raw sentence index."""
    return float(ev.sentence_index)


def event_voting(ev: EventMention, doc: Document, events_table: EmbeddingTable) -> float:
    """Mean cosine between this event's embedding and every other event's (0 if alone)."""
    i = _event_index(doc, ev)
    if len(doc.events) < 2:
        return 0.0
    target = events_table.row(ev.head_lemma)
    sims = [
        cosine(target, events_table.row(other.head_lemma))
        for j, other in enumerate(doc.events)
        if j != i
    ]
    return float(sum(sims) / len(sims))


def entity_voting(
    ev: EventMention, doc: Document, events_table: EmbeddingTable, entities_table: EmbeddingTable
) -> float:
    """Mean cosine between the event embedding and all entity embeddings (0 if none)."""
    if not doc.entities:
        return 0.0
    target = events_table.row(ev.head_lemma)
    sims = [cosine(target, entities_table.row(en.entity_key)) for en in doc.entities]
    return float(sum(sims) / len(sims))


def local_entity_voting(
    ev: EventMention, doc: Document, events_table: EmbeddingTable, entities_table: EmbeddingTable
) -> float:
    """Entity voting restricted to entities in the event's own sentence."""
    local = [en for en in doc.entities if en.sentence_index == ev.sentence_index]
    if not local:
        return 0.0
    target = events_table.row(ev.head_lemma)
    sims = [cosine(target, entities_table.row(en.entity_key)) for en in local]
    return float(sum(sims) / len(sims))


def extract_features(
    ev: EventMention,
    doc: Document,
    events_table: EmbeddingTable,
    entities_table: EmbeddingTable,
) -> FeatureVector:
    return FeatureVector(
        frequency=frequency_feature(ev, doc),
        sentence_location=location_feature(ev, doc),
        event_voting=event_voting(ev, doc, events_table),
        entity_voting=entity_voting(ev, doc, events_table, entities_table),
        local_entity_voting=local_entity_voting(ev, doc, events_table, entities_table),
    )


def apply_scaler(fv: FeatureVector, scaler: FeatureScaler) -> FeatureVector:
    return FeatureVector.from_array((fv.to_array() - scaler.means) / scaler.stds)


# --- kernel pooling -------------------------------------------------------------


def gaussian_pool_reference(cos_values: np.ndarray, bank: KernelBank) -> np.ndarray:
    """Kernel activations with one temporary per operation; shape (..., K)."""
    c = np.asarray(cos_values, dtype=np.float64)
    diff = c[..., None] - bank.means
    return np.exp(-(diff * diff) / (2.0 * bank.sigmas * bank.sigmas))


def pool_grad_wrt_cos(cos_values: np.ndarray, bank: KernelBank, upstream: np.ndarray) -> np.ndarray:
    """d(upstream . phi)/d cos for each cosine, given upstream (K,) weights."""
    c = np.asarray(cos_values, dtype=np.float64)
    diff = c[..., None] - bank.means
    act = np.exp(-(diff * diff) / (2.0 * bank.sigmas * bank.sigmas))
    return (act * (-diff / (bank.sigmas * bank.sigmas))) @ np.asarray(upstream, dtype=np.float64)


def kernel_features(
    target: np.ndarray, context: Sequence[np.ndarray], bank: KernelBank
) -> np.ndarray:
    """Pooled kernel vector of the target against a context bag (zeros when empty)."""
    if len(context) == 0:
        return np.zeros(bank.size, dtype=np.float64)
    cos_vals = np.array([cosine(target, c) for c in context])
    return gaussian_pool(cos_vals, bank).sum(axis=0)


def kernel_backward(
    target: np.ndarray,
    context: Sequence[np.ndarray],
    bank: KernelBank,
    upstream: np.ndarray,
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Exact gradients of ``upstream . kernel_features`` w.r.t. target and context vectors."""
    target = np.asarray(target, dtype=np.float64)
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.shape != (bank.size,):
        raise ValueError(f"upstream must have shape ({bank.size},), got {upstream.shape}")
    d_target = np.zeros_like(target)
    d_context: list[np.ndarray] = []
    if len(context) == 0:
        return d_target, d_context
    cos_vals = np.array([cosine(target, c) for c in context])
    d_cos = pool_grad_wrt_cos(cos_vals, bank, upstream)
    for c_vec, g in zip(context, d_cos):
        du, dv = cosine_backward(target, np.asarray(c_vec, dtype=np.float64), float(g))
        d_target += du
        d_context.append(dv)
    return d_target, d_context


# --- the kernel pass as first written ---------------------------------------------


def kce_forward_reference(model: KCEModel, plan) -> tuple[np.ndarray, dict]:
    """``kce_forward``'s scores with its activations and pooled features (None where the
    variant has no such block): the five-operation pool of ``gaussian_pool_reference``,
    the event-event diagonal zeroed by fancy indexing and each pooled feature summed by
    ``.sum(axis=1)``."""
    n = len(plan.rows_v)
    blocks = VARIANT_BLOCKS[model.variant]
    geo = doc_geometry(plan, model.event_table, model.entity_table if reads_entities(model.variant) else None)
    parts = dict.fromkeys(("acts_vv", "acts_ve", "phi_v", "phi_e"))
    terms = []
    if "w_v" in blocks:
        parts["acts_vv"] = gaussian_pool_reference(geo.sims_vv, model.bank)
        parts["acts_vv"][np.arange(n), np.arange(n), :] = 0.0
        parts["phi_v"] = parts["acts_vv"].sum(axis=1)
        terms.append(parts["phi_v"] @ model.w_v)
    if "w_e" in blocks:
        parts["acts_ve"] = gaussian_pool_reference(geo.sims_ve, model.bank)
        parts["phi_e"] = parts["acts_ve"].sum(axis=1)
        terms.append(parts["phi_e"] @ model.w_e)
    if "w_f" in blocks:
        terms.append(scale_matrix(geometry_features(plan, geo), model.scaler) @ model.w_f)
    scores = terms[0] + model.bias
    for term in terms[1:]:
        scores = scores + term
    return scores, parts


def kernel_slopes_reference(cos_values: np.ndarray, bank: KernelBank) -> np.ndarray:
    """``-(cos - mu) / (sigma sigma)`` by broadcasting, one temporary per operation; shape (..., K)."""
    return -(np.asarray(cos_values, dtype=np.float64)[..., None] - bank.means) / (bank.sigmas * bank.sigmas)


def kernel_cos_grad_reference(acts: np.ndarray, sims: np.ndarray, bank: KernelBank, weights: np.ndarray) -> np.ndarray:
    """d(weights . phi)/d(cos) from cached activations, one temporary per operation."""
    slopes = acts * kernel_slopes_reference(sims, bank)
    return slopes @ weights


# --- the per-document training path ---------------------------------------------


def make_pairs_reference(doc: Document, cfg: TrainConfig) -> list[tuple[int, int]]:
    """(salient, non-salient) index pairs as a list of tuples, subsampled in cross-product order."""
    labels = salience_labels(doc)
    pos = np.flatnonzero(labels)
    neg = np.flatnonzero(~labels)
    pairs = [(int(i), int(j)) for i in pos for j in neg]
    limit = cfg.max_pairs_per_doc
    if limit is not None and len(pairs) > limit:
        rng = _derived_rng(cfg.seed, doc.doc_id)
        chosen = rng.choice(len(pairs), size=limit, replace=False)
        pairs = [pairs[k] for k in sorted(chosen)]
    return pairs


def pair_loss_reference(
    scores: np.ndarray, pos_idx: np.ndarray, neg_idx: np.ndarray
) -> tuple[float, np.ndarray]:
    """Summed hinge over index pairs, its score gradient accumulated with ``np.add.at``."""
    grad = np.zeros_like(scores)
    if len(pos_idx) == 0:
        return 0.0, grad
    margins = 1.0 - scores[pos_idx] + scores[neg_idx]
    active = margins > 0.0
    loss = float(margins[active].sum()) if active.any() else 0.0
    np.add.at(grad, pos_idx[active], -1.0)
    np.add.at(grad, neg_idx[active], 1.0)
    return loss, grad


def row_sparse_reference(rows: np.ndarray, d_rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-mention row gradients summed per table row with ``np.add.at`` into a zero block."""
    uniq, inverse = np.unique(rows, return_inverse=True)
    block = np.zeros((len(uniq), d_rows.shape[1]))
    np.add.at(block, inverse, d_rows)
    return uniq, block


def train_dense_reference(model, corpus: Corpus, dev: Corpus, cfg: TrainConfig):
    """``train`` as first written: the model deep-copied whole, the tables in vocabulary
    order, and every row of every block zeroed and Adam-stepped once per batch."""
    model = copy.deepcopy(model)
    if cfg.epochs == 0:
        return model, TrainHistory()
    arrays = _param_arrays(model, cfg.freeze_embeddings)
    tables = tuple(name for name in EMBEDDING_KEYS if name in arrays)
    adam = Adam(arrays, lr=cfg.learning_rate, beta1=cfg.beta1, beta2=cfg.beta2, eps=cfg.eps)
    rng = np.random.default_rng(cfg.seed)
    history = TrainHistory()
    best_auc = best_epoch = best_model = best_arrays = None
    grads = {k: np.zeros_like(v) for k, v in arrays.items()}
    docs = [(doc.doc_id, model_plan(model, doc), make_pairs(doc, cfg)) for doc in corpus.documents]
    dev_plans = [model_plan(model, doc) for doc in dev.documents]
    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(len(docs))
        epoch_loss = 0.0
        for start in range(0, len(order), cfg.batch_docs):
            for buf in grads.values():
                buf.fill(0.0)
            for di in order[start : start + cfg.batch_docs]:
                loss, doc_grads = _doc_loss_and_grads(model, *docs[di], tables)
                epoch_loss += loss
                if doc_grads is None:
                    continue
                for name, buf in grads.items():
                    if name in EMBEDDING_KEYS:
                        rows, block = doc_grads[name]
                        buf[rows] += block
                    else:
                        buf += doc_grads[name]
            adam.step(arrays, grads)
            _sync_scalar(model, arrays)
        _check_finite_params(arrays)
        dev_auc, dev_p1 = _dev_metrics(model, dev, dev_plans)
        history.rows.append(EpochStats(epoch=epoch, loss=epoch_loss, dev_auc=dev_auc, dev_p1=dev_p1))
        if dev_auc is not None and (best_auc is None or dev_auc > best_auc):
            best_auc, best_epoch = dev_auc, epoch
            best_model = copy.copy(model)
            best_arrays = {k: v.copy() for k, v in arrays.items()}
    if best_arrays is not None:
        for name, arr in arrays.items():
            arr[...] = best_arrays[name]
        model = best_model
    model.meta.update(
        {
            "trained_epochs": cfg.epochs,
            "best_epoch": best_epoch,
            "best_dev_auc": best_auc,
            "train_config": cfg.to_json(),
        }
    )
    return model, history


# --- LeToR ----------------------------------------------------------------------


def letor_scores(model: KCEModel, doc: Document) -> tuple[np.ndarray, np.ndarray]:
    """The LeToR formula on its own: scores ``scaled @ w_f + bias`` and the scaled features."""
    scaled = scale_matrix(feature_matrix(doc, model.event_table, model.entity_table), model.scaler)
    return scaled @ model.w_f + model.bias, scaled


def letor_grads(scaled: np.ndarray, dscores: np.ndarray) -> dict[str, np.ndarray]:
    """Gradients of a loss with d(loss)/d(scores) = ``dscores`` w.r.t. w_f and the bias."""
    return {"w_f": scaled.T @ dscores, "bias": np.array([float(dscores.sum())])}


# --- pagerank -------------------------------------------------------------------


def pagerank_scores(model: PageRankModel, doc: Document) -> np.ndarray:
    """lambda * normalized lemma frequency + (1 - lambda) * one walk step from the
    uniform start, where each event moves to every other event with probability
    proportional to exp(cosine / temperature)."""
    n = len(doc.events)
    vecs = [model.event_table.row(ev.head_lemma) for ev in doc.events]
    walk = [0.0] * n
    for i in range(n):
        weights = {j: math.exp(cosine(vecs[i], vecs[j]) / model.temperature) for j in range(n) if j != i}
        total = sum(weights.values())
        for j, w in weights.items():
            walk[j] += w / total / n
    freq = [frequency_feature(ev, doc) for ev in doc.events]
    lam = model.combine_lambda
    return np.array([lam * f / sum(freq) + (1.0 - lam) * w for f, w in zip(freq, walk)])


def reference_lambda_search(model: PageRankModel, dev: Corpus) -> float:
    """The dev search for ``combine_lambda`` as one full ``evaluate`` of the dev corpus per
    ``LAMBDA_GRID`` value, reading only its AUC: the first value with the best AUC wins, and
    with no AUC at any value the model's own lambda stays.  Returns the chosen lambda."""
    caches = [pagerank_forward(model, model_plan(model, doc))[1] for doc in dev.documents]
    best_lam, best_auc = model.combine_lambda, None
    for lam in LAMBDA_GRID:
        value = evaluate([lam * c.norm_freq + (1.0 - lam) * c.walk for c in caches], dev).auc
        if value is not None and (best_auc is None or value > best_auc):
            best_lam, best_auc = lam, value
    return best_lam


# --- metrics and intrusion --------------------------------------------------------


def rank_sum_auc(scores: np.ndarray, labels: np.ndarray) -> float | None:
    """Mann-Whitney AUC from the rank sum of the positives, ties given average ranks."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=bool)
    n_pos = int(labels.sum())
    n_neg = int(len(labels) - n_pos)
    if n_pos == 0 or n_neg == 0:
        return None
    ranks = rankdata(scores, method="average")
    u = ranks[labels].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def feature_zeroed_scores(model: KCEModel, doc: Document) -> np.ndarray:
    """KCE scores after every standardized feature except frequency is set to 0.

    The terms are summed as ``kce_forward`` sums them (the variant's blocks in
    the order w_v, w_e, w_f, the bias added to the first), so scores that zero
    the features and scores that zero their weights can be compared bit for bit.
    """
    _, cache = kce_forward(model, model_plan(model, doc))
    zeroed = cache.scaled_feats.copy()
    zeroed[:, 1:] = 0.0
    inputs = {"w_v": cache.phi_v, "w_e": cache.phi_e, "w_f": zeroed}
    terms = [inputs[name] @ getattr(model, name) for name in VARIANT_BLOCKS[model.variant]]
    scores = terms[0] + model.bias
    for term in terms[1:]:
        scores = scores + term
    return scores


@dataclass(frozen=True)
class ReferenceInstance:
    """The fields of an ``IntrusionInstance`` that the study reads besides the plan."""

    origin_doc_id: str
    intruder_doc_id: str
    mixed: Document
    origin_flags: np.ndarray
    salient_origin_flags: np.ndarray
    frequency: np.ndarray


def build_instance_reference(
    origin: Document, intruder: Document, cfg: IntrusionConfig, n_intruders: int
) -> ReferenceInstance:
    """One intrusion instance built from scratch: shuffle the eligible intruders,
    take the first n, copy each with ``dataclasses.replace``, then walk the
    chosen events' source sentences in order and take each one's entities."""
    if sum(1 for ev in origin.events if ev.salient) < MIN_ORIGIN_SALIENT:
        raise DataError("origin has too few salient events")
    if origin.doc_id == intruder.doc_id:
        raise DataError("origin and intruder must be different documents")
    pool = eligible_intruder_events(intruder, cfg.intruder_kind)
    if n_intruders < 0 or n_intruders > len(pool):
        raise DataError("not enough eligible intruder events")
    order = _derived_rng(cfg.seed, origin.doc_id, intruder.doc_id).permutation(len(pool))
    chosen = [pool[i] for i in order[:n_intruders]]
    chosen.sort(key=lambda ev: (ev.sentence_index, ev.id))
    offset = origin.num_sentences
    prefix = f"{intruder.doc_id}::"
    mixed_events = list(origin.events) + [
        replace(ev, id=prefix + ev.id, sentence_index=ev.sentence_index + offset) for ev in chosen
    ]
    extra_entities = [
        replace(en, id=prefix + en.id, sentence_index=en.sentence_index + offset)
        for sent in sorted({ev.sentence_index for ev in chosen})
        for en in intruder.entities
        if en.sentence_index == sent
    ]
    mixed = Document(
        doc_id=f"{origin.doc_id}+{intruder.doc_id}",
        num_sentences=origin.num_sentences + intruder.num_sentences,
        events=tuple(mixed_events),
        entities=tuple(origin.entities) + tuple(extra_entities),
        abstract_lemmas=origin.abstract_lemmas,
    )
    if validate_document(mixed):
        raise DataError("mixed document is invalid")
    return ReferenceInstance(
        origin_doc_id=origin.doc_id,
        intruder_doc_id=intruder.doc_id,
        mixed=mixed,
        origin_flags=np.array([True] * len(origin.events) + [False] * len(chosen)),
        salient_origin_flags=np.array([bool(ev.salient) for ev in origin.events] + [False] * len(chosen)),
        frequency=np.array([float(frequency_feature(ev, mixed)) for ev in mixed.events]),
    )


# --- corpus loading ---------------------------------------------------------


def validate_document_reference(doc: Document) -> list[str]:
    """Every invariant violation, in the order the loader reports the first one."""
    problems: list[str] = []
    if not doc.doc_id:
        problems.append("doc_id: must be non-empty")
    if doc.num_sentences < 1:
        problems.append(f"doc {doc.doc_id!r}: num_sentences must be >= 1")

    seen_ids: set[str] = set()
    for ev in doc.events:
        where = f"doc {doc.doc_id!r} event {ev.id!r}"
        if not ev.id:
            problems.append(f"doc {doc.doc_id!r}: event id must be non-empty")
        elif ev.id in seen_ids:
            problems.append(f"{where}: duplicate mention id")
        seen_ids.add(ev.id)
        if ev.head_lemma.split() != [ev.head_lemma]:  # empty, or holds whitespace
            problems.append(f"{where}: head_lemma must be non-empty without whitespace")
        if not 0 <= ev.sentence_index < doc.num_sentences:
            problems.append(f"{where}: sentence_index {ev.sentence_index} out of range")
    for en in doc.entities:
        where = f"doc {doc.doc_id!r} entity {en.id!r}"
        if not en.id:
            problems.append(f"doc {doc.doc_id!r}: entity id must be non-empty")
        elif en.id in seen_ids:
            problems.append(f"{where}: duplicate mention id")
        seen_ids.add(en.id)
        if not en.entity_key:
            problems.append(f"{where}: entity_key must be non-empty")
        if not 0 <= en.sentence_index < doc.num_sentences:
            problems.append(f"{where}: sentence_index {en.sentence_index} out of range")

    order = [ev.sentence_index for ev in doc.events]
    if any(a > b for a, b in zip(order, order[1:])):
        problems.append(f"doc {doc.doc_id!r}: events not in nondecreasing sentence_index order")

    flags = {ev.salient is None for ev in doc.events}
    if len(flags) == 2:
        problems.append(f"doc {doc.doc_id!r}: salient labels must be all set or all unset")
    return problems


def _expect(obj: dict, key: str, kinds, where: str, allow_none: bool = False):
    if key not in obj:
        raise DataError(f"{where}: missing field {key!r}")
    val = obj[key]
    if val is None and allow_none:
        return None
    # bool is an int subclass; reject it where an int is required
    if int in (kinds if isinstance(kinds, tuple) else (kinds,)) and isinstance(val, bool):
        raise DataError(f"{where}: field {key!r} has wrong type")
    if not isinstance(val, kinds):
        raise DataError(f"{where}: field {key!r} has wrong type")
    return val


def document_from_json_reference(obj: dict, where: str = "document") -> Document:
    """One ``_expect`` call per field, then the first problem ``validate_document_reference`` finds."""
    doc_id = _expect(obj, "doc_id", str, where)
    where = f"doc {doc_id!r}"
    num_sentences = _expect(obj, "num_sentences", int, where)
    events = []
    for raw in _expect(obj, "events", list, where):
        if not isinstance(raw, dict):
            raise DataError(f"{where}: events entries must be objects")
        events.append(
            EventMention(
                id=_expect(raw, "id", str, where),
                head_lemma=_expect(raw, "head_lemma", str, where),
                surface=_expect(raw, "surface", str, where),
                sentence_index=_expect(raw, "sentence_index", int, where),
                frame=_expect(raw, "frame", str, where, allow_none=True),
                salient=_expect(raw, "salient", bool, where, allow_none=True),
            )
        )
    entities = []
    for raw in _expect(obj, "entities", list, where):
        if not isinstance(raw, dict):
            raise DataError(f"{where}: entities entries must be objects")
        entities.append(
            EntityMention(
                id=_expect(raw, "id", str, where),
                entity_key=_expect(raw, "entity_key", str, where),
                sentence_index=_expect(raw, "sentence_index", int, where),
            )
        )
    lemmas = _expect(obj, "abstract_lemmas", list, where, allow_none=True)
    if lemmas is not None:
        if not all(isinstance(x, str) for x in lemmas):
            raise DataError(f"{where}: abstract_lemmas must be strings")
        lemmas = frozenset(lemmas)
    doc = Document(
        doc_id=doc_id,
        num_sentences=num_sentences,
        events=tuple(events),
        entities=tuple(entities),
        abstract_lemmas=lemmas,
    )
    problems = validate_document_reference(doc)
    if problems:
        raise DataError(problems[0])
    return doc


def write_jsonl_reference(rows, path: str | Path) -> None:
    """The JSON lines writer with one ``json.dumps`` call per row, writing text; a ``bytes``
    value becomes the JSON string of its ASCII text."""
    dumps = functools.partial(
        json.dumps, ensure_ascii=False, separators=(",", ":"), default=lambda raw: raw.decode("ascii")
    )
    lines = map(dumps, rows)
    first = list(itertools.islice(lines, 1))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in itertools.chain(first, lines):
            fh.write(line)
            fh.write("\n")

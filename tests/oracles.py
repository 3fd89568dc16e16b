"""Reference implementations the tests check the vectorized code against.

Written one event, one pair and one scalar at a time, straight from the
definitions: cosine similarity and its gradient, the five per-event features
and their standardization, per-target kernel pooling with its backward pass,
the kernel activations computed with one temporary per operation,
the per-document kernel pass as first written (that pool, the diagonal
zeroed by fancy indexing, ``.sum(axis=1)`` pooling and the allocating
kernel slope),
the (salient, non-salient) pair list, the hinge gradient on the scores and the
per-row sum of mention gradients accumulated with ``np.add.at``, the forward
and backward passes and the dev pass over one document at a time, which the
stacked passes must equal bit for bit, the textbook
Adam step over every element of a block, the training
loop that Adam-steps every row of every table in every batch with it, the
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
from types import SimpleNamespace
from typing import Sequence

import numpy as np
from scipy.stats import rankdata

from salience.corpus import Corpus, Document, EntityMention, EventMention, salience_labels, validate_document
from salience.embeddings import EmbeddingTable, normalized_rows
from salience.errors import DataError, NumericError
from salience.features import N_FEATURES, DocPlan, FeatureScaler, feature_matrix, scale_matrix
from salience.intrusion import MIN_ORIGIN_SALIENT, IntrusionConfig, eligible_intruder_events
from salience.kernels import KernelBank, gaussian_pool, multiply_slopes
from salience.metrics import auc, evaluate, mean_auc
from salience.models import (
    VARIANT_BLOCKS,
    KCEModel,
    PageRankModel,
    model_plan,
    pagerank_mix,
    reads_entities,
)
from salience.training import (
    EMBEDDING_KEYS,
    LAMBDA_GRID,
    TEMPERATURE_KEY,
    EpochStats,
    TrainConfig,
    TrainHistory,
    _check_finite_params,
    _derived_rng,
    _pair_loss,
    _param_arrays,
    _row_sparse,
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
    geo = geometry_per_doc(plan, model.event_table, model.entity_table if reads_entities(model.variant) else None)
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
        terms.append(scale_matrix(features_per_doc(plan, geo), model.scaler) @ model.w_f)
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


class DenseAdam:
    """Textbook Adam with bias-corrected moment estimates, operation for operation, over every
    element of every block, in place through two scratch buffers per block."""

    def __init__(self, params: dict[str, np.ndarray], lr: float, beta1: float, beta2: float, eps: float) -> None:
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self._scratch = {k: (np.empty_like(v), np.empty_like(v)) for k, v in params.items()}

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        self.t += 1
        m_correction = 1.0 - self.beta1**self.t
        v_correction = 1.0 - self.beta2**self.t
        for name, p in params.items():
            g, m, v = grads[name], self.m[name], self.v[name]
            a, b = self._scratch[name]
            # m = beta1 * m + (1 - beta1) * g
            np.multiply(g, 1.0 - self.beta1, out=a)
            m *= self.beta1
            m += a
            # v = beta2 * v + (1 - beta2) * g^2
            np.multiply(g, g, out=a)
            a *= 1.0 - self.beta2
            v *= self.beta2
            v += a
            # p -= (lr * m_hat) / (sqrt(v_hat) + eps)
            np.divide(v, v_correction, out=a)
            np.sqrt(a, out=a)
            a += self.eps
            np.divide(m, m_correction, out=b)
            b *= self.lr
            b /= a
            p -= b


def train_dense_reference(model, corpus: Corpus, dev: Corpus, cfg: TrainConfig):
    """``train`` as first written: the model deep-copied whole, the tables in vocabulary
    order, every document scored and differentiated alone, and every row of every block
    zeroed and Adam-stepped once per batch."""
    model = copy.deepcopy(model)
    if cfg.epochs == 0:
        return model, TrainHistory()
    arrays = _param_arrays(model, cfg.freeze_embeddings)
    tables = tuple(name for name in EMBEDDING_KEYS if name in arrays)
    adam = DenseAdam(arrays, lr=cfg.learning_rate, beta1=cfg.beta1, beta2=cfg.beta2, eps=cfg.eps)
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
                loss, doc_grads = loss_and_grads_per_doc(model, *docs[di], tables)
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
        dev_auc, dev_p1 = dev_metrics_per_doc(model, dev, dev_plans)
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


# --- the per-document passes -------------------------------------------------------
# The forward and backward passes over one document, as the package ran them before it
# ran them over stacks of same-shape documents: each cache is a namespace of (n, ...)
# arrays, each backward pass returns one gradient dict.


def geometry_per_doc(plan: DocPlan, events_table, entities_table=None) -> SimpleNamespace:
    """One plan's unit vectors and cosines: its event rows and then its entity rows gathered,
    normalized in one pass and multiplied; no entity table, no entity side."""
    rows_v, rows_e = plan.rows_v, plan.rows_e
    entities = entities_table is not None and len(rows_e) > 0
    if plan.units is None:
        gathered = events_table.vectors[rows_v]
        if entities:
            gathered = np.concatenate((gathered, entities_table.vectors[rows_e]))
        unit, norms = normalized_rows(gathered)
        n = len(rows_v)
        unit_v, norms_v, unit_e, norms_e = unit[:n], norms[:n], unit[n:], norms[n:]
    elif plan.units[0] is events_table and plan.units[1] is entities_table:
        unit_v, norms_v, unit_e, norms_e = plan.units[2:]
    else:
        raise DataError("the plan's rows were normalized under other tables")
    sims_vv = unit_v @ unit_v.T
    np.fill_diagonal(sims_vv, 0.0)
    if entities:
        sims_ve = unit_v @ unit_e.T
    else:
        unit_e, norms_e, sims_ve = np.zeros((0, events_table.dim)), np.zeros(0), np.zeros((len(rows_v), 0))
    return SimpleNamespace(
        rows_v=rows_v, unit_v=unit_v, norms_v=norms_v, sims_vv=sims_vv,
        rows_e=rows_e, unit_e=unit_e, norms_e=norms_e, sims_ve=sims_ve,
    )


def features_per_doc(plan: DocPlan, geo: SimpleNamespace) -> np.ndarray:
    """All five features for every event of one plan, shape (n, 5)."""
    n, m = geo.sims_ve.shape
    out = np.zeros((n, N_FEATURES), dtype=np.float64)
    out[:, 0] = plan.lemma_counts
    out[:, 1] = plan.sentences
    if n > 1:
        out[:, 2] = geo.sims_vv.sum(axis=1) / (n - 1)
    if m > 0:
        out[:, 3] = geo.sims_ve.sum(axis=1) / m
        local_sum = (geo.sims_ve * plan.local_mask).sum(axis=1)
        nonzero = plan.local_counts > 0
        out[nonzero, 4] = local_sum[nonzero] / plan.local_counts[nonzero]
    return out


def kce_forward_per_doc(model: KCEModel, plan: DocPlan) -> tuple[np.ndarray, SimpleNamespace]:
    """One plan's scores and cache: both kernel blocks pooled in one call, each pooled
    feature summed by einsum (``.sum`` for a lone kernel)."""
    n = len(plan.rows_v)
    blocks = VARIANT_BLOCKS[model.variant]
    cache = geometry_per_doc(plan, model.event_table, model.entity_table)
    cache.acts_vv = cache.acts_ve = cache.phi_v = cache.phi_e = None
    pooled = [sims.ravel() for name, sims in (("w_v", cache.sims_vv), ("w_e", cache.sims_ve)) if name in blocks]
    acts = gaussian_pool(np.concatenate(pooled), model.bank) if pooled else None

    def pooled_sum(block):
        return block.sum(axis=1) if block.shape[-1] == 1 else np.einsum("ijk->ik", block)

    terms = []
    if "w_v" in blocks:
        acts[: n * n : n + 1] = 0.0
        cache.acts_vv = acts[: n * n].reshape(n, n, model.bank.size)
        cache.phi_v = pooled_sum(cache.acts_vv)
        terms.append(cache.phi_v @ model.w_v)
    if "w_e" in blocks:
        cache.acts_ve = acts[len(acts) - cache.sims_ve.size :].reshape(cache.sims_ve.shape + (model.bank.size,))
        cache.phi_e = pooled_sum(cache.acts_ve)
        terms.append(cache.phi_e @ model.w_e)
    cache.scaled_feats = np.zeros((n, N_FEATURES))
    if "w_f" in blocks:
        cache.scaled_feats = scale_matrix(features_per_doc(plan, cache), model.scaler)
        terms.append(cache.scaled_feats @ model.w_f)
    scores = terms[0] + model.bias
    for term in terms[1:]:
        scores = scores + term
    return scores, cache


def pagerank_forward_per_doc(model: PageRankModel, plan: DocPlan) -> tuple[np.ndarray, SimpleNamespace]:
    n = len(plan.rows_v)
    geo = geometry_per_doc(plan, model.event_table)
    freq = plan.lemma_counts
    norm_freq = freq / freq.sum() if n else freq
    if n <= 1:
        transitions, walk = np.zeros((n, n)), np.zeros(n)
    else:
        logits = geo.sims_vv / model.temperature
        np.fill_diagonal(logits, -np.inf)
        shifted = logits - logits.max(axis=1, keepdims=True)
        expo = np.exp(shifted)
        transitions = expo / expo.sum(axis=1, keepdims=True)
        walk = transitions.T @ np.full(n, 1.0 / n)
    cache = SimpleNamespace(
        rows=geo.rows_v, unit=geo.unit_v, norms=geo.norms_v, sims=geo.sims_vv,
        transitions=transitions, walk=walk, norm_freq=norm_freq,
    )
    return pagerank_mix(norm_freq, walk, model.combine_lambda), cache


def cosine_rows_backward_per_doc(grad_sims, sims, unit_a, norms_a, unit_b) -> np.ndarray:
    row_mix = (grad_sims * sims).sum(axis=1)
    d_a = grad_sims @ unit_b - row_mix[:, None] * unit_a
    safe_a = np.where(norms_a == 0.0, 1.0, norms_a)
    d_a /= safe_a[:, None]
    d_a[norms_a == 0.0] = 0.0
    return d_a


def kernel_cos_grad_per_doc(acts: np.ndarray, sims: np.ndarray, bank: KernelBank, weights: np.ndarray):
    """d(weights . phi)/d(cos) for every pooled pair: a copy of the activations times their slopes."""
    return multiply_slopes(acts.copy(), sims, bank) @ weights


def kce_backward_per_doc(model: KCEModel, plan: DocPlan, cache, dscores: np.ndarray, tables: tuple) -> dict:
    n = len(plan.rows_v)
    m = len(plan.rows_e)
    g = np.asarray(dscores, dtype=np.float64)
    blocks = VARIANT_BLOCKS[model.variant]
    inputs = {"w_v": cache.phi_v, "w_e": cache.phi_e, "w_f": cache.scaled_feats}
    grads = {name: inputs[name].T @ g for name in blocks}
    if not tables:
        return grads
    d_rows_v = np.zeros((n, model.event_table.dim))
    d_rows_e = np.zeros((len(cache.rows_e), model.entity_table.dim))
    if n and "event_emb" in tables:
        grad_vv = np.zeros((n, n))
        if "w_v" in blocks:
            grad_vv = g[:, None] * kernel_cos_grad_per_doc(cache.acts_vv, cache.sims_vv, model.bank, model.w_v)
        if "w_f" in blocks and n > 1:
            vote = g * (model.w_f[2] / model.scaler.stds[2] / (n - 1))
            grad_vv = grad_vv + vote[:, None]
        np.fill_diagonal(grad_vv, 0.0)
        d_rows_v = cosine_rows_backward_per_doc(
            grad_vv + grad_vv.T, cache.sims_vv, cache.unit_v, cache.norms_v, cache.unit_v
        )
    if n and m:
        grad_ve = np.zeros_like(cache.sims_ve)
        if "w_e" in blocks:
            grad_ve += g[:, None] * kernel_cos_grad_per_doc(cache.acts_ve, cache.sims_ve, model.bank, model.w_e)
        if "w_f" in blocks:
            grad_ve += np.outer(g * (model.w_f[3] / model.scaler.stds[3] / m), np.ones(m))
            safe_counts = np.where(plan.local_counts == 0, 1, plan.local_counts)
            local_up = g * model.w_f[4] / model.scaler.stds[4] / safe_counts
            local_up[plan.local_counts == 0] = 0.0
            grad_ve += local_up[:, None] * plan.local_mask
        if "event_emb" in tables:
            d_rows_v = d_rows_v + cosine_rows_backward_per_doc(
                grad_ve, cache.sims_ve, cache.unit_v, cache.norms_v, cache.unit_e
            )
        if "entity_emb" in tables:
            d_rows_e = cosine_rows_backward_per_doc(
                grad_ve.T, cache.sims_ve.T, cache.unit_e, cache.norms_e, cache.unit_v
            )
    for name, groups, d_rows in zip(EMBEDDING_KEYS, plan.groups, (d_rows_v, d_rows_e)):
        if name in tables:
            grads[name] = _row_sparse(groups, d_rows)
    return grads


def pagerank_backward_per_doc(model: PageRankModel, plan: DocPlan, cache, dscores: np.ndarray, tables: tuple):
    n = len(plan.rows_v)
    g = np.asarray(dscores, dtype=np.float64)
    d_walk = (1.0 - model.combine_lambda) * g
    d_trans = d_walk / n
    trans = cache.transitions
    inner = (trans * d_trans).sum(axis=1, keepdims=True)
    d_logits = trans * (d_trans - inner)
    temp_sq = model.temperature**2
    d_temp = float((d_logits * (-cache.sims / temp_sq)).sum())
    if "event_emb" not in tables:
        return {TEMPERATURE_KEY: np.array([d_temp])}
    grad_sims = d_logits / model.temperature
    np.fill_diagonal(grad_sims, 0.0)
    d_rows = cosine_rows_backward_per_doc(grad_sims + grad_sims.T, cache.sims, cache.unit, cache.norms, cache.unit)
    return {TEMPERATURE_KEY: np.array([d_temp]), "event_emb": _row_sparse(plan.groups[0], d_rows)}


def loss_and_grads_per_doc(model, doc_id: str, plan: DocPlan, pairs: np.ndarray, tables: tuple):
    """One document's hinge loss and gradients, ``(0.0, None)`` without pairs; ``NumericError``
    naming it if a score is not finite."""
    if len(pairs) == 0:
        return 0.0, None
    if isinstance(model, PageRankModel):
        forward, backward = pagerank_forward_per_doc, pagerank_backward_per_doc
    else:
        forward, backward = kce_forward_per_doc, kce_backward_per_doc
    scores, cache = forward(model, plan)
    if not np.isfinite(scores).all():
        raise NumericError(f"non-finite score while training on doc {doc_id!r}")
    loss, dscores = _pair_loss(scores, pairs)
    return loss, backward(model, plan, cache, dscores, tables)


def dev_metrics_per_doc(model, dev: Corpus, plans: list[DocPlan]) -> tuple[float | None, float | None]:
    """The epoch's dev pass, every document scored alone: (AUC, P@1), PageRank's mix first moved to
    the first ``LAMBDA_GRID`` value with the best mean of its documents' AUCs."""
    if not dev.documents:
        return None, None
    if isinstance(model, PageRankModel):
        parts = [(c.norm_freq, c.walk) for c in (pagerank_forward_per_doc(model, plan)[1] for plan in plans)]
        labels = [salience_labels(doc) for doc in dev.documents]
        best_auc = None
        for lam in LAMBDA_GRID:
            lam_auc = mean_auc([auc(pagerank_mix(*part, lam), y) for part, y in zip(parts, labels)])
            if lam_auc is not None and (best_auc is None or lam_auc > best_auc):
                model.combine_lambda, best_auc = lam, lam_auc
        scores = [pagerank_mix(*part, model.combine_lambda) for part in parts]
    else:
        scores = [kce_forward_per_doc(model, plan)[0] for plan in plans]
    for doc, doc_scores in zip(dev.documents, scores):
        if not np.all(np.isfinite(doc_scores)):
            raise NumericError(f"non-finite score while evaluating doc {doc.doc_id!r}")
    report = evaluate(scores, dev)
    return report.auc, report.p_at.get(1)


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
    caches = [pagerank_forward_per_doc(model, model_plan(model, doc))[1] for doc in dev.documents]
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
    _, cache = kce_forward_per_doc(model, model_plan(model, doc))
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

"""Pairwise ranking loss, Adam optimizer, exact gradients, and the train loop.

The loss for one document sums hinge terms over (salient, non-salient) event
pairs: max(0, 1 - s_plus + s_minus).  Gradients are computed analytically all
the way into the embedding tables (through both the kernel pooling and the
voting features); ``grad_check`` verifies them against central finite
differences.  A document touches only its own embedding rows, so the backward
passes return each table's gradient row-sparse: the sorted unique rows the
document references and an ``(r, d)`` block of their summed gradients.
``train`` scatters those blocks into dense per-batch buffers in document
order, and Adam updates every parameter densely once per batch.  Training is
serial and fully seeded so identical configurations reproduce
bitwise-identical models.
"""
from __future__ import annotations

import copy
import csv
import math
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .corpus import Corpus, Document, salience_labels
from .errors import DataError, NumericError, config_from_json, is_finite_number, is_int
from .metrics import evaluate
from .models import (
    KCE_VARIANTS,
    VARIANT_BLOCKS,
    KCECache,
    KCEModel,
    PageRankModel,
    kce_forward,
    model_scores,
    pagerank_forward,
    reads_entities,
)

LAMBDA_GRID = tuple(round(0.1 * i, 1) for i in range(11))


@dataclass
class TrainConfig:
    learning_rate: float = 1e-3
    batch_docs: int = 128
    epochs: int = 20
    seed: int = 0
    max_pairs_per_doc: int | None = None
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    freeze_embeddings: bool = False

    def to_json(self) -> dict:
        return dict(self.__dict__)

    @staticmethod
    def from_json(obj: dict) -> "TrainConfig":
        return config_from_json(TrainConfig(), obj, _CONFIG_RULES, "train config")


_CONFIG_RULES = {
    "learning_rate": (lambda v: is_finite_number(v) and v > 0, "a finite number > 0"),
    "batch_docs": (lambda v: is_int(v) and v >= 1, "an integer >= 1"),
    "epochs": (lambda v: is_int(v) and v >= 0, "an integer >= 0"),
    "seed": (lambda v: is_int(v) and v >= 0, "an integer >= 0"),
    "max_pairs_per_doc": (lambda v: v is None or (is_int(v) and v >= 1), "null or an integer >= 1"),
    "beta1": (lambda v: is_finite_number(v) and 0 <= v < 1, "a number in [0, 1)"),
    "beta2": (lambda v: is_finite_number(v) and 0 <= v < 1, "a number in [0, 1)"),
    "eps": (lambda v: is_finite_number(v) and v > 0, "a finite number > 0"),
    "freeze_embeddings": (lambda v: isinstance(v, bool), "true or false"),
}


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    loss: float
    dev_auc: float | None
    dev_p1: float | None


@dataclass
class TrainHistory:
    rows: list[EpochStats] = field(default_factory=list)

    def to_csv(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["epoch", "loss", "dev_auc", "dev_p1"])
            for row in self.rows:
                writer.writerow(
                    [
                        row.epoch,
                        repr(row.loss),
                        "" if row.dev_auc is None else repr(row.dev_auc),
                        "" if row.dev_p1 is None else repr(row.dev_p1),
                    ]
                )


def _pair_loss(scores: np.ndarray, pairs: np.ndarray) -> tuple[float, np.ndarray]:
    """Summed hinge over the (salient, non-salient) rows of a (k, 2) index array,
    as ``make_pairs`` and ``_cross_pairs`` build it, plus d(loss)/d(scores)."""
    pos_idx, neg_idx = pairs[:, 0], pairs[:, 1]
    margins = 1.0 - scores[pos_idx] + scores[neg_idx]
    active = margins > 0.0
    # integer counts, so the difference is exact; an unused score gets +0.0
    n = len(scores)
    counts = np.bincount(neg_idx[active], minlength=n) - np.bincount(pos_idx[active], minlength=n)
    return float(margins[active].sum()), counts.astype(np.float64)


def _derived_rng(seed: int, *names: str) -> np.random.Generator:
    entropy = [seed % (2**32)] + [zlib.crc32(n.encode("utf-8")) for n in names]
    return np.random.default_rng(entropy)


def _cross_pairs(labels: np.ndarray) -> np.ndarray:
    """Every (salient, non-salient) index pair as a (k, 2) array, in cross-product order."""
    pos = np.flatnonzero(labels)
    neg = np.flatnonzero(~labels)
    return np.column_stack((np.repeat(pos, len(neg)), np.tile(neg, len(pos))))


def make_pairs(doc: Document, cfg: TrainConfig) -> np.ndarray:
    """All (salient, non-salient) index pairs as a (k, 2) array, optionally subsampled.

    Rows follow the canonical cross-product order.  Subsampling is
    deterministic given (cfg.seed, doc_id) and keeps the chosen rows in that
    order.
    """
    pairs = _cross_pairs(salience_labels(doc))
    limit = cfg.max_pairs_per_doc
    if limit is not None and len(pairs) > limit:
        rng = _derived_rng(cfg.seed, doc.doc_id)
        chosen = rng.choice(len(pairs), size=limit, replace=False)
        pairs = pairs[np.sort(chosen)]
    return pairs


class Adam:
    """Reference Adam with bias-corrected moment estimates.

    The update is the textbook one, operation for operation; it runs in place
    through two scratch buffers per block so a step allocates no temporaries.
    """

    def __init__(
        self,
        params: dict[str, np.ndarray],
        lr: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ) -> None:
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self._scratch = {k: (np.empty_like(v), np.empty_like(v)) for k, v in params.items()}

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        self.t += 1
        m_correction = 1.0 - self.beta1**self.t
        v_correction = 1.0 - self.beta2**self.t
        for name, p in params.items():
            g = grads[name]
            m = self.m[name]
            v = self.v[name]
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


# --- parameter blocks -------------------------------------------------------

BIAS_KEY = "bias"
TEMPERATURE_KEY = "temperature"
EMBEDDING_KEYS = ("event_emb", "entity_emb")  # gradients come as (rows, block) pairs
MIN_TEMPERATURE = 1e-3


def _param_arrays(model, freeze_embeddings: bool) -> dict[str, np.ndarray]:
    """The model's trainable parameters: views into its weight blocks and embedding
    tables, and a one-element copy of its scalar (the bias or the temperature)."""
    if isinstance(model, KCEModel):
        arrays = {name: getattr(model, name) for name in VARIANT_BLOCKS[model.variant]}
        arrays[BIAS_KEY] = np.array([model.bias])
        entities = reads_entities(model.variant)
    elif isinstance(model, PageRankModel):
        arrays = {TEMPERATURE_KEY: np.array([model.temperature])}
        entities = False
    else:
        raise DataError(f"cannot train object of type {type(model).__name__}")
    if not freeze_embeddings and model.event_table.trainable:
        arrays["event_emb"] = model.event_table.vectors
    if not freeze_embeddings and entities and model.entity_table.trainable:
        arrays["entity_emb"] = model.entity_table.vectors
    return arrays


def _sync_scalar(model, arrays: dict[str, np.ndarray]) -> None:
    """Copy the scalar's array back onto the model; the temperature is floored first."""
    if isinstance(model, PageRankModel):
        arrays[TEMPERATURE_KEY][0] = max(float(arrays[TEMPERATURE_KEY][0]), MIN_TEMPERATURE)
        model.temperature = float(arrays[TEMPERATURE_KEY][0])
    else:
        model.bias = float(arrays[BIAS_KEY][0])


# --- analytic backward passes ------------------------------------------------


def _cosine_rows_backward(
    grad_sims: np.ndarray, sims: np.ndarray, unit_a: np.ndarray, norms_a: np.ndarray, unit_b: np.ndarray
) -> np.ndarray:
    """Push gradients on cos(a_i, b_j) back to the row vectors a_i.

    The gradient is the tangent part of ``grad_sims @ unit_b`` divided by the
    row norm; zero-norm rows get zero gradient by definition.  For the rows b_j
    pass the transposes; for a symmetric matrix (event-event) pass
    ``grad + grad.T`` with a zero diagonal, which accumulates both sides of
    each pair.
    """
    row_mix = (grad_sims * sims).sum(axis=1)
    d_a = grad_sims @ unit_b - row_mix[:, None] * unit_a
    safe_a = np.where(norms_a == 0.0, 1.0, norms_a)
    d_a /= safe_a[:, None]
    d_a[norms_a == 0.0] = 0.0
    return d_a


def _row_sparse(rows: np.ndarray, d_rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sum per-mention row gradients per table row: (sorted unique rows, (r, d) block).

    Each row starts from its first mention plus 0.0 (which turns -0.0 into
    +0.0, as adding into a zero table does), and the repeated mentions are
    added in ascending mention order, so scattering the block reproduces the
    dense ``np.add.at`` table bit for bit.
    """
    uniq, first, inverse = np.unique(rows, return_index=True, return_inverse=True)
    block = d_rows[first]
    block += 0.0
    if len(first) < len(rows):
        repeated = np.ones(len(rows), dtype=bool)
        repeated[first] = False
        dup = np.flatnonzero(repeated)
        for k, r in zip(dup.tolist(), inverse[dup].tolist()):
            block[r] += d_rows[k]
    return uniq, block


def _kernel_cos_grad(acts: np.ndarray, sims: np.ndarray, bank, weights: np.ndarray) -> np.ndarray:
    """d(weights . phi)/d(cos) for every pooled pair; activations already cached."""
    slopes = acts * (-(sims[..., None] - bank.means) / (bank.sigmas * bank.sigmas))
    return slopes @ weights


def kce_backward(
    model: KCEModel, doc: Document, cache: KCECache, dscores: np.ndarray
) -> dict:
    """Gradients of the document loss for the variant's weight blocks and the bias.

    The embedding tables come back row-sparse, as ``(rows, block)`` pairs, and
    only when at least one of them is trainable.
    """
    n = len(doc.events)
    m = len(doc.entities)
    g = np.asarray(dscores, dtype=np.float64)
    blocks = VARIANT_BLOCKS[model.variant]
    inputs = {"w_v": cache.phi_v, "w_e": cache.phi_e, "w_f": cache.scaled_feats}
    grads: dict[str, np.ndarray] = {name: inputs[name].T @ g for name in blocks}
    grads[BIAS_KEY] = np.array([float(g.sum())])
    if not (model.event_table.trainable or model.entity_table.trainable):
        return grads

    d_rows_v = np.zeros((n, model.event_table.dim))
    d_rows_e = np.zeros((len(cache.rows_e), model.entity_table.dim))  # no rows unless entities are used

    if n:
        # event-event cosine gradients: kernel path plus the event-voting feature
        grad_vv = np.zeros((n, n))
        if "w_v" in blocks:
            grad_vv = g[:, None] * _kernel_cos_grad(cache.acts_vv, cache.sims_vv, model.bank, model.w_v)
        if "w_f" in blocks and n > 1:
            vote = g * (model.w_f[2] / model.scaler.stds[2] / (n - 1))
            grad_vv = grad_vv + vote[:, None]
        np.fill_diagonal(grad_vv, 0.0)
        d_rows_v = _cosine_rows_backward(
            grad_vv + grad_vv.T, cache.sims_vv, cache.unit_v, cache.norms_v, cache.unit_v
        )

        if m and reads_entities(model.variant):
            grad_ve = np.zeros_like(cache.sims_ve)
            if "w_e" in blocks:
                grad_ve += g[:, None] * _kernel_cos_grad(
                    cache.acts_ve, cache.sims_ve, model.bank, model.w_e
                )
            if "w_f" in blocks:
                grad_ve += np.outer(g * (model.w_f[3] / model.scaler.stds[3] / m), np.ones(m))
                safe_counts = np.where(cache.local_counts == 0, 1, cache.local_counts)
                local_up = g * model.w_f[4] / model.scaler.stds[4] / safe_counts
                local_up[cache.local_counts == 0] = 0.0
                grad_ve += local_up[:, None] * cache.local_mask
            d_rows_v = d_rows_v + _cosine_rows_backward(
                grad_ve, cache.sims_ve, cache.unit_v, cache.norms_v, cache.unit_e
            )
            d_rows_e = _cosine_rows_backward(
                grad_ve.T, cache.sims_ve.T, cache.unit_e, cache.norms_e, cache.unit_v
            )

    grads["event_emb"] = _row_sparse(cache.rows_v, d_rows_v)
    grads["entity_emb"] = _row_sparse(cache.rows_e, d_rows_e)
    return grads


def pagerank_backward(
    model: PageRankModel, doc: Document, cache, dscores: np.ndarray
) -> dict:
    """Gradients into the walk temperature and (row-sparse) event embeddings."""
    n = len(doc.events)
    g = np.asarray(dscores, dtype=np.float64)
    if n <= 1:
        d_rows = np.zeros((n, model.event_table.dim))
        return {TEMPERATURE_KEY: np.array([0.0]), "event_emb": _row_sparse(cache.rows, d_rows)}
    d_walk = (1.0 - model.combine_lambda) * g
    d_trans = np.tile(d_walk / n, (n, 1))
    trans = cache.transitions
    inner = (trans * d_trans).sum(axis=1, keepdims=True)
    d_logits = trans * (d_trans - inner)
    d_temp = float((d_logits * (-cache.sims / (model.temperature**2))).sum())
    grad_sims = d_logits / model.temperature
    np.fill_diagonal(grad_sims, 0.0)
    d_rows = _cosine_rows_backward(grad_sims + grad_sims.T, cache.sims, cache.unit, cache.norms, cache.unit)
    return {TEMPERATURE_KEY: np.array([d_temp]), "event_emb": _row_sparse(cache.rows, d_rows)}


def _doc_loss_and_grads(model, doc: Document, cfg: TrainConfig):
    pairs = make_pairs(doc, cfg)
    if len(pairs) == 0:
        return 0.0, None
    if isinstance(model, PageRankModel):
        forward, backward = pagerank_forward, pagerank_backward
    else:
        forward, backward = kce_forward, kce_backward
    scores, cache = forward(model, doc)
    loss, dscores = _pair_loss(scores, pairs)
    return loss, backward(model, doc, cache, dscores)


def _dev_metrics(model, dev: Corpus) -> tuple[float | None, float | None]:
    if not dev.documents:
        return None, None
    scores = []
    for doc in dev.documents:
        s = model_scores(model, doc)
        if not np.all(np.isfinite(s)):
            raise NumericError(f"non-finite score while evaluating doc {doc.doc_id!r}")
        scores.append(s)
    report = evaluate(scores, dev)
    return report.auc, report.p_at.get(1)


def _tune_pagerank_lambda(model: PageRankModel, dev: Corpus) -> tuple[float, float | None]:
    """Grid-search the frequency/walk mix on dev AUC; ties prefer the smaller mix."""
    parts = []
    for doc in dev.documents:
        _, cache = pagerank_forward(model, doc)
        parts.append((cache.norm_freq, cache.walk))
    best_lam, best_auc = model.combine_lambda, None
    for lam in LAMBDA_GRID:
        scores = [lam * nf + (1.0 - lam) * walk for nf, walk in parts]
        auc = evaluate(scores, dev).auc
        if auc is not None and (best_auc is None or auc > best_auc):
            best_lam, best_auc = lam, auc
    return best_lam, best_auc


def _check_finite_params(arrays: dict[str, np.ndarray]) -> None:
    for name, arr in arrays.items():
        if not np.all(np.isfinite(arr)):
            raise NumericError(f"parameter block {name!r} became non-finite during training")


def train(model, corpus: Corpus, dev: Corpus, cfg: TrainConfig):
    """Train with Adam on batches of documents; returns (model, history).

    The input model is not mutated.  The returned model carries the parameters
    of the epoch with the best dev AUC.  Identical (model, corpora, cfg) runs
    produce bitwise-identical results: shuffling, pair sampling, and reductions
    are all seeded and serial.
    """
    for split in (corpus, dev):
        for doc in split.documents:
            salience_labels(doc)
    model = copy.deepcopy(model)
    if cfg.epochs == 0:
        return model, TrainHistory()

    arrays = _param_arrays(model, cfg.freeze_embeddings)
    adam = Adam(arrays, lr=cfg.learning_rate, beta1=cfg.beta1, beta2=cfg.beta2, eps=cfg.eps)
    rng = np.random.default_rng(cfg.seed)
    history = TrainHistory()
    best_auc: float | None = None
    best_epoch: int | None = None
    best_snapshot: dict[str, np.ndarray] | None = None
    best_lambda: float | None = None

    # The buffers start at +0.0 and a sum never turns +0.0 into -0.0, so the
    # rows a document does not touch need no +0.0 added: skipping them keeps
    # the batch gradient bitwise equal to summing dense per-document tables.
    grads = {k: np.zeros_like(v) for k, v in arrays.items()}
    docs = corpus.documents
    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(len(docs))
        epoch_loss = 0.0
        for start in range(0, len(order), cfg.batch_docs):
            batch = order[start : start + cfg.batch_docs]
            for buf in grads.values():
                buf.fill(0.0)
            for di in batch:
                loss, doc_grads = _doc_loss_and_grads(model, docs[di], cfg)
                epoch_loss += loss
                if doc_grads is None:
                    continue
                for name, buf in grads.items():
                    if name not in doc_grads:
                        continue
                    if name in EMBEDDING_KEYS:
                        rows, block = doc_grads[name]
                        buf[rows] += block
                    else:
                        buf += doc_grads[name]
            adam.step(arrays, grads)
            _sync_scalar(model, arrays)
        _check_finite_params(arrays)

        if isinstance(model, PageRankModel) and dev.documents:
            model.combine_lambda, _ = _tune_pagerank_lambda(model, dev)
        dev_auc, dev_p1 = _dev_metrics(model, dev)
        history.rows.append(EpochStats(epoch=epoch, loss=epoch_loss, dev_auc=dev_auc, dev_p1=dev_p1))
        if dev_auc is not None and (best_auc is None or dev_auc > best_auc):
            best_auc = dev_auc
            best_epoch = epoch
            best_snapshot = {k: v.copy() for k, v in arrays.items()}
            if isinstance(model, PageRankModel):
                best_lambda = model.combine_lambda

    if best_snapshot is not None:
        for name, arr in arrays.items():
            arr[...] = best_snapshot[name]
        _sync_scalar(model, arrays)
        if isinstance(model, PageRankModel) and best_lambda is not None:
            model.combine_lambda = best_lambda
    model.meta.update(
        {
            "trained_epochs": cfg.epochs,
            "best_epoch": best_epoch,
            "best_dev_auc": best_auc,
            "train_config": cfg.to_json(),
        }
    )
    return model, history


# --- finite-difference verification ------------------------------------------

GRAD_EPS = 1e-8


def _kce_loss(model: KCEModel, doc: Document, pairs: np.ndarray) -> float:
    scores, _ = kce_forward(model, doc)
    loss, _ = _pair_loss(scores, pairs)
    return loss


def grad_check(
    model: KCEModel,
    doc: Document,
    step: float = 1e-4,
    max_rows: int = 32,
    row_seed: int = 0,
) -> float:
    """Max relative error between analytic and central-difference gradients.

    Checks every trainable weight block and a seeded sample of up to
    ``max_rows`` embedding rows actually referenced by the document.  The
    relative error is |a - n| / max(|a|, |n|, 1e-8); coordinates where both
    values sit at or below 1e-8 are treated as agreeing zeros (the loss is
    exactly bias-shift invariant, so e.g. the bias gradient is identically
    zero while finite differences return pure floating-point noise).
    """
    if not isinstance(model, KCEModel) or model.variant not in KCE_VARIANTS:
        raise DataError("grad_check runs on kernel centrality models")
    if not (math.isfinite(step) and step > 0.0):
        raise DataError(f"gradient check step must be a finite number > 0, got {step!r}")
    labels = salience_labels(doc)
    if not labels.any() or labels.all():
        return 0.0
    pairs = _cross_pairs(labels)
    scores, cache = kce_forward(model, doc)
    _, dscores = _pair_loss(scores, pairs)
    analytic = kce_backward(model, doc, cache, dscores)
    params = _param_arrays(model, freeze_embeddings=False)
    tables = [name for name in EMBEDDING_KEYS if name in params]
    for name in tables:
        rows, block = analytic[name]
        analytic[name] = np.zeros_like(params[name])
        analytic[name][rows] = block

    # (parameter, analytic gradient, coordinates to perturb): every weight block and the bias ...
    blocks: list[tuple[np.ndarray, np.ndarray, list[tuple[int, ...]]]] = [
        (arr, analytic[name], [(k,) for k in range(len(arr))])
        for name, arr in params.items()
        if name not in EMBEDDING_KEYS
    ]
    # ... and a sample of the table rows the document references
    referenced = {"event_emb": cache.rows_v, "entity_emb": cache.rows_e}
    row_pool = [(name, int(r)) for name in tables for r in np.unique(referenced[name])]
    if row_pool and max_rows > 0:
        rng = np.random.default_rng(row_seed)
        chosen = (
            row_pool
            if len(row_pool) <= max_rows
            else [row_pool[i] for i in rng.choice(len(row_pool), size=max_rows, replace=False)]
        )
        for name, row in chosen:
            blocks.append((params[name], analytic[name], [(row, d) for d in range(params[name].shape[1])]))

    def loss_with_bias_synced() -> float:
        _sync_scalar(model, params)
        return _kce_loss(model, doc, pairs)

    worst = 0.0
    for param, grad, coords in blocks:
        for coord in coords:
            a = float(grad[coord])
            orig = float(param[coord])
            param[coord] = orig + step
            loss_plus = loss_with_bias_synced()
            param[coord] = orig - step
            loss_minus = loss_with_bias_synced()
            param[coord] = orig
            numeric = (loss_plus - loss_minus) / (2.0 * step)
            if abs(a) <= GRAD_EPS and abs(numeric) <= GRAD_EPS:
                continue
            # np.maximum keeps a NaN error, where max() would drop it
            worst = float(np.maximum(worst, abs(a - numeric) / max(abs(a), abs(numeric), GRAD_EPS)))
    _sync_scalar(model, params)
    return worst

"""Pairwise ranking loss, Adam optimizer, exact gradients, and the train loop.

The loss for one document sums hinge terms over (salient, non-salient) event
pairs: max(0, 1 - s_plus + s_minus).  Gradients are computed analytically all
the way into the embedding tables (through both the kernel pooling and the
voting features); ``grad_check`` verifies them against central finite
differences.  Only the tables ``_param_arrays`` names get gradient work, and each
comes back row-sparse: the sorted unique rows the document references and an
``(r, d)`` block of their summed gradients.
``train`` plans every document and draws its pairs once per call, scatters
the blocks into dense per-batch buffers in document order, and Adam updates
every parameter densely once per batch; a document whose training scores are
not all finite stops training with ``NumericError`` naming it.  Each epoch ends
in one dev pass, and the best epoch is kept as a shallow model copy plus copies
of its arrays.
Training is serial and fully seeded so identical configurations reproduce
bitwise-identical models.
"""
from __future__ import annotations

import copy
import math
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .corpus import Corpus, Document, salience_labels
from .errors import DataError, NumericError, config_from_json, is_finite_number, is_int, write_csv
from .features import DocPlan
from .metrics import auc, evaluate, mean_auc
from .models import (
    KCE_VARIANTS,
    VARIANT_BLOCKS,
    KCECache,
    KCEModel,
    PageRankModel,
    kce_forward,
    model_plan,
    model_scores,
    pagerank_forward,
    pagerank_mix,
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
        write_csv(
            ["epoch", "loss", "dev_auc", "dev_p1"],
            (
                [row.epoch, repr(row.loss), *("" if v is None else repr(v) for v in (row.dev_auc, row.dev_p1))]
                for row in self.rows
            ),
            path,
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
    """The model's trainable parameters, decided here alone: views into its weight blocks
    and into each table its score reads whose ``trainable`` is on, unless ``freeze_embeddings``
    is set, and a one-element copy of its scalar (the bias or the temperature)."""
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


def _row_sparse(groups: tuple, d_rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sum per-mention row gradients per table row: (sorted unique rows, (r, d) block).

    ``groups`` is the plan's ``row_groups`` of the mention rows.  Each row
    starts from its first mention plus 0.0 (which turns -0.0 into +0.0, as
    adding into a zero table does), and the repeated mentions are added in
    ascending mention order, so scattering the block reproduces the dense
    ``np.add.at`` table bit for bit.
    """
    uniq, first, repeats = groups
    block = d_rows[first]
    block += 0.0
    for k, r in repeats:
        block[r] += d_rows[k]
    return uniq, block


def _kernel_cos_grad(acts: np.ndarray, sims: np.ndarray, bank, weights: np.ndarray) -> np.ndarray:
    """d(weights . phi)/d(cos) for every pooled pair; activations already cached."""
    # acts * (-(sims - mu) / (sigma sigma)) in one buffer, bit for bit (kernels module docstring)
    slopes = sims[..., None] - bank.means
    slopes /= -(bank.sigmas * bank.sigmas)
    slopes *= acts
    return slopes @ weights


def kce_backward(
    model: KCEModel, plan: DocPlan, cache: KCECache, dscores: np.ndarray, tables: tuple[str, ...]
) -> dict:
    """Gradients of the document loss for the variant's weight blocks, the bias and
    the trained tables: the ``EMBEDDING_KEYS`` in ``tables``, row-sparse as ``(rows,
    block)`` pairs.  The entity cosines feed the event rows either way.
    """
    n = len(plan.rows_v)
    m = len(plan.rows_e)
    g = np.asarray(dscores, dtype=np.float64)
    blocks = VARIANT_BLOCKS[model.variant]
    inputs = {"w_v": cache.phi_v, "w_e": cache.phi_e, "w_f": cache.scaled_feats}
    grads: dict[str, np.ndarray] = {name: inputs[name].T @ g for name in blocks}
    grads[BIAS_KEY] = np.array([float(g.sum())])
    if not tables:
        return grads

    d_rows_v = np.zeros((n, model.event_table.dim))
    d_rows_e = np.zeros((len(cache.rows_e), model.entity_table.dim))  # no rows unless entities are used

    if n and "event_emb" in tables:
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

    if n and m and reads_entities(model.variant):
        grad_ve = np.zeros_like(cache.sims_ve)
        if "w_e" in blocks:
            grad_ve += g[:, None] * _kernel_cos_grad(
                cache.acts_ve, cache.sims_ve, model.bank, model.w_e
            )
        if "w_f" in blocks:
            grad_ve += np.outer(g * (model.w_f[3] / model.scaler.stds[3] / m), np.ones(m))
            safe_counts = np.where(plan.local_counts == 0, 1, plan.local_counts)
            local_up = g * model.w_f[4] / model.scaler.stds[4] / safe_counts
            local_up[plan.local_counts == 0] = 0.0
            grad_ve += local_up[:, None] * plan.local_mask
        if "event_emb" in tables:
            d_rows_v = d_rows_v + _cosine_rows_backward(
                grad_ve, cache.sims_ve, cache.unit_v, cache.norms_v, cache.unit_e
            )
        if "entity_emb" in tables:
            d_rows_e = _cosine_rows_backward(
                grad_ve.T, cache.sims_ve.T, cache.unit_e, cache.norms_e, cache.unit_v
            )

    for name, groups, d_rows in zip(EMBEDDING_KEYS, plan.groups, (d_rows_v, d_rows_e)):
        if name in tables:
            grads[name] = _row_sparse(groups, d_rows)
    return grads


def pagerank_backward(
    model: PageRankModel, plan: DocPlan, cache, dscores: np.ndarray, tables: tuple[str, ...]
) -> dict:
    """Gradients into the walk temperature and, if ``tables`` names it, the row-sparse event table."""
    n = len(plan.rows_v)
    g = np.asarray(dscores, dtype=np.float64)
    d_walk = (1.0 - model.combine_lambda) * g
    d_trans = d_walk / n  # every row of d(loss)/d(transitions), broadcast
    trans = cache.transitions
    inner = (trans * d_trans).sum(axis=1, keepdims=True)
    d_logits = trans * (d_trans - inner)
    d_temp = float((d_logits * (-cache.sims / (model.temperature**2))).sum())
    if "event_emb" not in tables:
        return {TEMPERATURE_KEY: np.array([d_temp])}
    grad_sims = d_logits / model.temperature
    np.fill_diagonal(grad_sims, 0.0)
    d_rows = _cosine_rows_backward(grad_sims + grad_sims.T, cache.sims, cache.unit, cache.norms, cache.unit)
    return {TEMPERATURE_KEY: np.array([d_temp]), "event_emb": _row_sparse(plan.groups[0], d_rows)}


def _doc_loss_and_grads(model, doc_id: str, plan: DocPlan, pairs: np.ndarray, tables: tuple[str, ...]):
    """The document's hinge loss and gradients; ``NumericError`` naming it if a score is not finite."""
    if len(pairs) == 0:
        return 0.0, None
    if isinstance(model, PageRankModel):
        forward, backward = pagerank_forward, pagerank_backward
    else:
        forward, backward = kce_forward, kce_backward
    scores, cache = forward(model, plan)
    if not np.isfinite(scores).all():  # a NaN margin would count as an inactive pair
        raise NumericError(f"non-finite score while training on doc {doc_id!r}")
    loss, dscores = _pair_loss(scores, pairs)
    return loss, backward(model, plan, cache, dscores, tables)


def _dev_metrics(model, dev: Corpus, plans: list[DocPlan]) -> tuple[float | None, float | None]:
    """The epoch's one pass over dev: (AUC, P@1) from one ``evaluate``.  PageRank first moves
    ``combine_lambda`` to the first ``LAMBDA_GRID`` value with the best dev AUC (ties keep the
    smaller; with no AUC it stays), computing only that AUC: ``mean_auc`` of each document's ``auc``."""
    if not dev.documents:
        return None, None
    if isinstance(model, PageRankModel):
        caches = (pagerank_forward(model, plan)[1] for plan in plans)
        parts = [(cache.norm_freq, cache.walk) for cache in caches]  # all caches at once raise peak RSS
        labels = [salience_labels(doc) for doc in dev.documents]
        best_auc = None
        for lam in LAMBDA_GRID:
            lam_auc = mean_auc([auc(pagerank_mix(*part, lam), y) for part, y in zip(parts, labels)])
            if lam_auc is not None and (best_auc is None or lam_auc > best_auc):
                model.combine_lambda, best_auc = lam, lam_auc
        scores = [pagerank_mix(*part, model.combine_lambda) for part in parts]
    else:
        scores = [model_scores(model, plan) for plan in plans]
    for doc, doc_scores in zip(dev.documents, scores):
        if not np.all(np.isfinite(doc_scores)):
            raise NumericError(f"non-finite score while evaluating doc {doc.doc_id!r}")
    report = evaluate(scores, dev)
    return report.auc, report.p_at.get(1)


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
    tables = tuple(name for name in EMBEDDING_KEYS if name in arrays)
    adam = Adam(arrays, lr=cfg.learning_rate, beta1=cfg.beta1, beta2=cfg.beta2, eps=cfg.eps)
    rng = np.random.default_rng(cfg.seed)
    history = TrainHistory()
    best_auc: float | None = None
    best_epoch: int | None = None
    best_model = best_arrays = None

    # The buffers start at +0.0 and a sum never turns +0.0 into -0.0, so the
    # rows a document does not touch need no +0.0 added: skipping them keeps
    # the batch gradient bitwise equal to summing dense per-document tables.
    grads = {k: np.zeros_like(v) for k, v in arrays.items()}
    # nothing a plan or a document's pairs hold depends on the parameters
    docs = [(doc.doc_id, model_plan(model, doc), make_pairs(doc, cfg)) for doc in corpus.documents]
    dev_plans = [model_plan(model, doc) for doc in dev.documents]
    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(len(docs))
        epoch_loss = 0.0
        for start in range(0, len(order), cfg.batch_docs):
            batch = order[start : start + cfg.batch_docs]
            for buf in grads.values():
                buf.fill(0.0)
            for di in batch:
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
            best_auc = dev_auc
            best_epoch = epoch
            # the shallow copy keeps this epoch's scalars; it shares the arrays, restored below
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


# --- finite-difference verification ------------------------------------------

GRAD_EPS = 1e-8


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
    plan = model_plan(model, doc)
    params = _param_arrays(model, freeze_embeddings=False)
    tables = tuple(name for name in EMBEDDING_KEYS if name in params)
    _, analytic = _doc_loss_and_grads(model, doc.doc_id, plan, pairs, tables)
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
    referenced = {"event_emb": plan.groups[0][0], "entity_emb": plan.groups[1][0]}  # the unique rows
    row_pool = [(name, int(r)) for name in tables for r in referenced[name]]
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
        return _pair_loss(kce_forward(model, plan)[0], pairs)[0]

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

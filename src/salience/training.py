"""Pairwise ranking loss, Adam optimizer, exact gradients, and the train loop.

The loss for one document sums hinge terms over (salient, non-salient) event
pairs: max(0, 1 - s_plus + s_minus).  Gradients are computed analytically all
the way into the embedding tables (through both the kernel pooling and the
voting features); ``grad_check`` verifies them against central finite
differences.  Only the tables ``_param_arrays`` names get gradient work, and each
comes back row-sparse: the sorted unique rows the document references and an
``(r, d)`` block of their summed gradients.
The backward passes, like the forward ones, run over a stack of plans of one
shape and return one gradient dict per document.
``train`` plans every document, draws its pairs and groups its mention rows
by table row once per call, the groups in one sort per mention count.  Within
a batch it groups the documents that have pairs into stacks by shape, of at
most ``STACK_COSINES`` cosines, and runs one forward and one backward pass
per stack; the hinge loss, the row-sparse sums over each plan's row groups
and the scatter of the blocks into per-batch buffers stay per document, in
batch order, noting the rows they touch, and Adam steps once per batch.  A
document whose training
scores are not all finite stops training with ``NumericError`` naming it,
the first in batch order.  For the call,
each trained table is stored in the order in which the first epoch's batches
first reach its rows, so the rows reached so far are a leading slice: each
step decays and updates only that slice, reads the gradient only on the rows
the batch touched, and then zeroes just those rows of the buffers; the
vocabulary order is put back before ``train`` returns.  A row no batch has
reached has zero moments and a zero gradient, and a dense step would leave it
bitwise unchanged, so the trained model is the one stepping every row gives.
Each epoch ends in one dev pass, in stacks too, where PageRank takes each dev
document's AUCs at every candidate mix from one (11, n) matrix; the best
epoch, unless it is the last, is kept as a shallow model copy plus copies of
its arrays.
Training is serial and fully seeded so identical configurations reproduce
bitwise-identical models.
"""
from __future__ import annotations

import copy
import math
import zlib
from dataclasses import astuple, dataclass, field, fields
from pathlib import Path

import numpy as np

from .corpus import Corpus, Document, salience_labels
from .errors import DataError, NumericError, config_from_json, is_finite_number, is_int, write_csv
from .features import DocPlan, fill_diagonals, plan_row_groups, stacked
from .kernels import multiply_slopes
from .metrics import evaluate, mean_auc, row_aucs
from .models import (
    KCE_VARIANTS,
    VARIANT_BLOCKS,
    KCECache,
    KCEModel,
    PageRankModel,
    kce_forward,
    model_plan,
    pagerank_forward,
    pagerank_mix,
    reads_entities,
)

LAMBDA_GRID = np.array([round(0.1 * i, 1) for i in range(11)])
LAMBDA_GRID.flags.writeable = False


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
        write_csv([f.name for f in fields(EpochStats)], map(astuple, self.rows), path)


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
    pairs = np.empty((len(pos), len(neg), 2), np.intp)
    pairs[..., 0] = pos[:, None]
    pairs[..., 1] = neg
    return pairs.reshape(-1, 2)


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
    """Bias-corrected Adam whose every element meets the textbook step's IEEE operations.

    ``step`` gets, per block, a parameter that may be a leading-row view of
    the block, the whole gradient buffer, and the sorted rows of that
    parameter the batch touched; every other row of the gradient must be
    +0.0.  Only the touched rows are gathered into the leading rows of two
    scratch buffers per block, where ``(1 - beta1) * g`` and
    ``(1 - beta2) * g * g`` are formed, so a step allocates no temporaries.
    On every other row the textbook adds +0.0: to ``m`` it is still added,
    densely, since it turns a decayed -0.0 (say from ``beta1 = 0``) into
    +0.0; ``v`` keeps its sign instead, since v is never below -0.0 and a
    -0.0 in ``v`` reaches the parameter only through ``sqrt(v_hat) + eps``,
    where both zeros give ``eps``.  The decays and the bias-corrected update
    cover every row of the parameter.
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

    def step(
        self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray], touched: dict[str, np.ndarray]
    ) -> None:
        self.t += 1
        m_correction = 1.0 - self.beta1**self.t
        v_correction = 1.0 - self.beta2**self.t
        for name, p in params.items():
            rows, idx = len(p), touched[name]
            g = grads[name]
            m = self.m[name][:rows]
            v = self.v[name][:rows]
            a, b = self._scratch[name]
            # the touched rows' terms; "clip" keeps np.take from buffering ``out``, the rows are in range
            ak, bk = a[: len(idx)], b[: len(idx)]
            # m = beta1 * m + (1 - beta1) * g
            np.take(g, idx, axis=0, out=ak, mode="clip")
            ak *= 1.0 - self.beta1
            m *= self.beta1
            np.take(m, idx, axis=0, out=bk, mode="clip")
            bk += ak
            m += 0.0
            m[idx] = bk
            # v = beta2 * v + (1 - beta2) * g^2
            np.take(g, idx, axis=0, out=ak, mode="clip")
            np.multiply(ak, ak, out=bk)
            bk *= 1.0 - self.beta2
            v *= self.beta2
            np.take(v, idx, axis=0, out=ak, mode="clip")
            ak += bk
            v[idx] = ak
            # p -= (lr * m_hat) / (sqrt(v_hat) + eps)
            a, b = a[:rows], b[:rows]
            np.divide(v, v_correction, out=a)
            np.sqrt(a, out=a)
            a += self.eps
            np.divide(m, m_correction, out=b)
            b *= self.lr
            b /= a
            p -= b


# --- parameter blocks -------------------------------------------------------

TEMPERATURE_KEY = "temperature"
EMBEDDING_KEYS = ("event_emb", "entity_emb")  # gradients come as (rows, block) pairs
ROW_ATTRS = ("rows_v", "rows_e")  # the plan rows each of them reads
MIN_TEMPERATURE = 1e-3


def _param_arrays(model, freeze_embeddings: bool) -> dict[str, np.ndarray]:
    """The model's trainable parameters, decided here alone: views into a KCE model's weight
    blocks or a one-element copy of PageRank's temperature, and views into each table the score
    reads whose ``trainable`` is on, unless ``freeze_embeddings`` is set."""
    if isinstance(model, KCEModel):
        arrays = {name: getattr(model, name) for name in VARIANT_BLOCKS[model.variant]}
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
    """Floor PageRank's temperature array and copy it back onto the model; KCE trains no scalar."""
    if isinstance(model, PageRankModel):
        arrays[TEMPERATURE_KEY][0] = max(float(arrays[TEMPERATURE_KEY][0]), MIN_TEMPERATURE)
        model.temperature = float(arrays[TEMPERATURE_KEY][0])


# --- analytic backward passes ------------------------------------------------


def _cosine_rows_backward(
    grad_sims: np.ndarray, sims: np.ndarray, unit_a: np.ndarray, norms_a: np.ndarray, unit_b: np.ndarray
) -> np.ndarray:
    """Push gradients on cos(a_i, b_j) back to the row vectors a_i, for each matrix of a stack.

    The gradient is the tangent part of ``grad_sims @ unit_b`` divided by the
    row norm; zero-norm rows get zero gradient by definition.  For the rows b_j
    pass the transposes; for a symmetric matrix (event-event) pass
    ``grad + grad.T`` with a zero diagonal, which accumulates both sides of
    each pair.
    """
    row_mix = (grad_sims * sims).sum(axis=2)
    d_a = grad_sims @ unit_b
    d_a -= row_mix[..., None] * unit_a
    safe_a = np.where(norms_a == 0.0, 1.0, norms_a)
    d_a /= safe_a[..., None]
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


def _kernel_cos_grads(model: KCEModel, cache: KCECache) -> dict[str, np.ndarray]:
    """d(w . phi)/d(cos) of each kernel block ``w`` the variant scores with, for every cosine
    the stack pooled, from one slope pass over all of them.  The cache's activations are
    consumed: multiplied by their slopes in place, then dropped, so a cache serves one
    backward pass and the rest of it runs without them."""
    if cache.acts is None:
        return {}
    multiply_slopes(cache.acts, cache.cosines[: len(cache.acts)], model.bank)
    # each block's (B, n, ., K) @ (K,) is one matrix-vector product per event, as for one document
    grads = {}
    if cache.acts_vv is not None:
        grads["w_v"] = cache.acts_vv @ model.w_v
    if cache.acts_ve is not None:
        grads["w_e"] = cache.acts_ve @ model.w_e
    cache.acts = cache.acts_vv = cache.acts_ve = None
    return grads


def kce_backward(
    model: KCEModel, stack: list[DocPlan], cache: KCECache, dscores: np.ndarray, tables: tuple[str, ...]
) -> list[dict]:
    """Each plan's gradients of its document loss, given the (B, n) ``dscores``, for the variant's
    weight blocks and the trained tables: the ``EMBEDDING_KEYS`` in ``tables``, row-sparse as
    ``(rows, block)`` pairs.  The entity cosines feed the event rows either way.  With tables,
    the cache's kernel activations are consumed (``_kernel_cos_grads``).
    """
    b, n, m = cache.sims_ve.shape
    g = np.asarray(dscores, dtype=np.float64)
    blocks = VARIANT_BLOCKS[model.variant]
    inputs = {"w_v": cache.phi_v, "w_e": cache.phi_e, "w_f": cache.scaled_feats}
    # each plan's (n, K).T @ (n,): the matrix-vector product of one document, once per matrix
    weights = {name: (inputs[name].transpose(0, 2, 1) @ g[..., None])[..., 0] for name in blocks}
    grads = [{name: block[k] for name, block in weights.items()} for k in range(b)]
    if not tables:
        return grads

    d_rows = {}  # per trained table, the (B, mentions, d) gradients of the mentions' rows
    kernel_grads = _kernel_cos_grads(model, cache)

    if n and "event_emb" in tables:
        # event-event cosine gradients: kernel path plus the event-voting feature
        grad_vv = np.zeros((b, n, n))
        if "w_v" in blocks:
            grad_vv = g[..., None] * kernel_grads["w_v"]
        if "w_f" in blocks and n > 1:
            vote = g * (model.w_f[2] / model.scaler.stds[2] / (n - 1))
            grad_vv = grad_vv + vote[..., None]
        fill_diagonals(grad_vv, 0.0)
        d_rows["event_emb"] = _cosine_rows_backward(
            grad_vv + grad_vv.transpose(0, 2, 1), cache.sims_vv, cache.unit_v, cache.norms_v, cache.unit_v
        )

    if n and m:
        grad_ve = np.zeros_like(cache.sims_ve)
        if "w_e" in blocks:
            grad_ve += g[..., None] * kernel_grads["w_e"]
        if "w_f" in blocks:
            grad_ve += (g * (model.w_f[3] / model.scaler.stds[3] / m))[..., None]
            local_counts = stacked(stack, "local_counts")
            safe_counts = np.where(local_counts == 0, 1, local_counts)
            local_up = g * model.w_f[4] / model.scaler.stds[4] / safe_counts
            local_up[local_counts == 0] = 0.0
            grad_ve += local_up[..., None] * stacked(stack, "local_mask")
        if "event_emb" in tables:
            d_rows["event_emb"] += _cosine_rows_backward(
                grad_ve, cache.sims_ve, cache.unit_v, cache.norms_v, cache.unit_e
            )
        if "entity_emb" in tables:
            grad_ev, sims_ev = grad_ve.transpose(0, 2, 1), cache.sims_ve.transpose(0, 2, 1)
            d_rows["entity_emb"] = _cosine_rows_backward(grad_ev, sims_ev, cache.unit_e, cache.norms_e, cache.unit_v)

    # a table no cosine reaches (no events, or no entities) gets zero gradients on its mentions' rows
    dims = {"event_emb": (n, model.event_table.dim), "entity_emb": (m, model.entity_table.dim)}
    for name, attr in zip(EMBEDDING_KEYS, ROW_ATTRS):
        if name in tables:
            for k, (groups, doc_grads) in enumerate(zip(plan_row_groups(stack, attr), grads)):
                doc_rows = d_rows[name][k] if name in d_rows else np.zeros(dims[name])
                doc_grads[name] = _row_sparse(groups, doc_rows)
    return grads


def pagerank_backward(
    model: PageRankModel, stack: list[DocPlan], cache, dscores: np.ndarray, tables: tuple[str, ...]
) -> list[dict]:
    """Each plan's gradients, given the (B, n) ``dscores``, into the walk temperature and, if
    ``tables`` names it, the row-sparse event table."""
    b, n = cache.rows.shape
    g = np.asarray(dscores, dtype=np.float64)
    d_walk = (1.0 - model.combine_lambda) * g
    d_trans = (d_walk / n)[:, None, :]  # every row of d(loss)/d(transitions), broadcast
    trans = cache.transitions
    inner = (trans * d_trans).sum(axis=2, keepdims=True)
    d_logits = trans * (d_trans - inner)
    try:
        temp_sq = model.temperature**2  # libm's square: t * t differs in the last bit for some t
    except OverflowError:
        raise NumericError(f"walk temperature {model.temperature!r} overflowed while training") from None
    # each plan's sum over its (n, n) terms, as one contiguous row
    d_temp = (d_logits * (-cache.sims / temp_sq)).reshape(b, n * n).sum(axis=1)
    grads = [{TEMPERATURE_KEY: d_temp[k : k + 1]} for k in range(b)]
    if "event_emb" not in tables:
        return grads
    grad_sims = d_logits / model.temperature
    fill_diagonals(grad_sims, 0.0)
    d_rows = _cosine_rows_backward(
        grad_sims + grad_sims.transpose(0, 2, 1), cache.sims, cache.unit, cache.norms, cache.unit
    )
    for groups, doc_grads, doc_rows in zip(plan_row_groups(stack, "rows_v"), grads, d_rows):
        doc_grads["event_emb"] = _row_sparse(groups, doc_rows)
    return grads


# The most cosines a stack of more than one document pools: four documents of 20 events and 30
# entities.  Larger stacks trained more slowly, and hold more activations at once.
STACK_COSINES = 4096


def _shape_stacks(plans: list[DocPlan], picked) -> list[list[int]]:
    """The ``picked`` indices of ``plans``, ascending, grouped by (events, entities) shape and cut
    into stacks of at most ``STACK_COSINES`` cosines (or one document), in the order of their
    first members."""
    groups: dict[tuple[int, int], list[int]] = {}
    for k in picked:
        groups.setdefault((len(plans[k].rows_v), len(plans[k].rows_e)), []).append(k)
    stacks = []
    for (n, m), group in groups.items():
        size = max(1, STACK_COSINES // max(1, n * (n + m)))
        stacks += [group[start : start + size] for start in range(0, len(group), size)]
    return sorted(stacks)


def _stack_loss_and_grads(model, batch: list[tuple], ks: list[int], later: list[list[int]], tables) -> dict:
    """The hinge loss and gradients of the batch documents ``ks``, one stack: ``{k: (loss, grads)}``.
    If a score is not finite, ``NumericError`` names the first such document in batch order,
    among this stack and the ``later`` ones."""
    if isinstance(model, PageRankModel):
        forward, backward = pagerank_forward, pagerank_backward
    else:
        forward, backward = kce_forward, kce_backward
    stack = [batch[k][1] for k in ks]
    scores, cache = forward(model, stack)
    if not np.isfinite(scores).all():  # a NaN margin would count as an inactive pair
        scored = [(ks, scores)] + [(js, forward(model, [batch[j][1] for j in js])[0]) for js in later]
        first = min(j for js, rows in scored for j, row in zip(js, rows) if not np.isfinite(row).all())
        raise NumericError(f"non-finite score while training on doc {batch[first][0]!r}")
    losses, dscores = [], np.empty_like(scores)
    for i, k in enumerate(ks):
        loss, dscores[i] = _pair_loss(scores[i], batch[k][2])
        losses.append(loss)
    return dict(zip(ks, zip(losses, backward(model, stack, cache, dscores, tables))))


def _batch_loss_and_grads(model, batch: list[tuple], tables: tuple[str, ...]):
    """Yield each ``(doc_id, plan, pairs)`` document's hinge loss and gradients, in batch order:
    one forward and one backward pass per stack of same-shape documents with pairs, each stack
    run when its first document is due, and ``(0.0, None)`` for a document without pairs.
    ``NumericError`` names the first document, in batch order, whose scores are not all finite."""
    plans = [plan for _, plan, _ in batch]
    stacks = _shape_stacks(plans, [k for k, (_, _, pairs) in enumerate(batch) if len(pairs)])
    done: dict[int, tuple] = {}
    for k in range(len(batch)):
        while stacks and stacks[0][0] <= k:
            ks = stacks.pop(0)
            done.update(_stack_loss_and_grads(model, batch, ks, stacks, tables))
        yield done.pop(k, (0.0, None))


def _dev_metrics(model, dev: Corpus, plans: list[DocPlan]) -> tuple[float | None, float | None]:
    """The epoch's one pass over dev, scored in stacks of same-shape documents: (AUC, P@1) from one
    ``evaluate``.  PageRank first moves ``combine_lambda`` to the first ``LAMBDA_GRID`` value with
    the best dev AUC (ties keep the smaller; with no AUC it stays), computing only that AUC:
    ``mean_auc`` of each document's ``auc``, taken for all values at once by ``row_aucs``."""
    if not dev.documents:
        return None, None
    stacks = _shape_stacks(plans, range(len(plans)))
    if isinstance(model, PageRankModel):
        parts: list = [None] * len(plans)
        for ks in stacks:
            cache = pagerank_forward(model, [plans[k] for k in ks])[1]  # one stack's cache at a time
            for k, norm_freq, walk in zip(ks, cache.norm_freq, cache.walk):
                parts[k] = (norm_freq, walk)
        # each document's AUC at every candidate mix, its (11, n) mixes built in one call
        grid = LAMBDA_GRID[:, None]
        doc_aucs = [row_aucs(pagerank_mix(*part, grid), salience_labels(d)) for part, d in zip(parts, dev.documents)]
        best_auc = None
        for lam, lam_aucs in zip(LAMBDA_GRID.tolist(), zip(*doc_aucs)):
            lam_auc = mean_auc(lam_aucs)
            if lam_auc is not None and (best_auc is None or lam_auc > best_auc):
                model.combine_lambda, best_auc = lam, lam_auc
        scores = [pagerank_mix(*part, model.combine_lambda) for part in parts]
    else:
        scores = [None] * len(plans)
        for ks in stacks:
            for k, doc_scores in zip(ks, kce_forward(model, [plans[k] for k in ks])[0]):
                scores[k] = doc_scores
    for doc, doc_scores in zip(dev.documents, scores):
        if not np.all(np.isfinite(doc_scores)):
            raise NumericError(f"non-finite score while evaluating doc {doc.doc_id!r}")
    report = evaluate(scores, dev)
    return report.auc, report.p_at.get(1)


def _check_finite_params(arrays: dict[str, np.ndarray]) -> None:
    for name, arr in arrays.items():
        if not np.all(np.isfinite(arr)):
            raise NumericError(f"parameter block {name!r} became non-finite during training")


def _order_by_reach(
    arrays: dict[str, np.ndarray],
    train_plans: list[DocPlan],
    dev_plans: list[DocPlan],
    order: np.ndarray,
    batch_docs: int,
) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray]]:
    """Store each table among ``arrays`` in place in the order in which the batches of ``order``
    first reach its rows, ascending within a batch, then the rows no batch reaches; every
    plan's rows are mapped to match.  Returns, per table, how many rows are reached once each
    batch is done, and the index that puts the vocabulary order back."""
    reached, restore = {}, {}
    for name, attr in zip(EMBEDDING_KEYS, ROW_ATTRS):
        if name not in arrays:
            continue
        doc_rows = [getattr(train_plans[di], attr) for di in order]
        rows = np.concatenate([np.zeros(0, np.intp), *doc_rows])
        batch_of = np.repeat(np.arange(len(order)) // batch_docs, [len(r) for r in doc_rows])
        uniq, first = np.unique(rows, return_index=True)
        first_batch = batch_of[first]
        unreached = np.setdiff1d(np.arange(len(arrays[name])), uniq, assume_unique=True)
        perm = np.concatenate([uniq[np.argsort(first_batch, kind="stable")], unreached])
        arrays[name][...] = arrays[name][perm]
        inverse = np.argsort(perm)
        for plan in (*train_plans, *dev_plans):
            setattr(plan, attr, inverse[getattr(plan, attr)])
        reached[name] = np.cumsum(np.bincount(first_batch, minlength=-(-len(order) // batch_docs)))
        restore[name] = inverse
    return reached, restore


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
    # the copy shares the vocabularies: nothing mutates a Vocabulary
    shared = [getattr(model, t).vocabulary for t in ("event_table", "entity_table") if hasattr(model, t)]
    model = copy.deepcopy(model, {id(vocab): vocab for vocab in shared})
    if cfg.epochs == 0:
        return model, TrainHistory()

    arrays = _param_arrays(model, cfg.freeze_embeddings)
    tables = tuple(name for name in EMBEDDING_KEYS if name in arrays)
    rng = np.random.default_rng(cfg.seed)
    history = TrainHistory()
    best_auc: float | None = None
    best_epoch: int | None = None
    best_model = best_arrays = None

    # nothing a plan or a document's pairs hold depends on the parameters
    docs = [(doc.doc_id, model_plan(model, doc), make_pairs(doc, cfg)) for doc in corpus.documents]
    dev_plans = [model_plan(model, doc) for doc in dev.documents]
    order = rng.permutation(len(docs))  # epoch 1's, drawn first: the tables follow its batches
    # before Adam allocates its state, so no table-sized temporary coexists with it
    train_plans = [plan for _, plan, _ in docs]
    reached, restore = _order_by_reach(arrays, train_plans, dev_plans, order, cfg.batch_docs)
    for name, attr in zip(EMBEDDING_KEYS, ROW_ATTRS):
        if name in tables:
            plan_row_groups(train_plans, attr)  # once for the call, after the rows' reordering
    adam = Adam(arrays, lr=cfg.learning_rate, beta1=cfg.beta1, beta2=cfg.beta2, eps=cfg.eps)
    # The buffers start at +0.0 and a sum never turns +0.0 into -0.0, so the
    # rows a document does not touch need no +0.0 added: skipping them keeps
    # the batch gradient bitwise equal to summing dense per-document tables.
    # After each step only the rows the batch touched are zeroed again.
    grads = {k: np.zeros_like(v) for k, v in arrays.items()}
    whole = {name: np.arange(len(arr)) for name, arr in arrays.items() if name not in EMBEDDING_KEYS}
    marks = {name: np.zeros(len(arrays[name]), bool) for name in tables}
    for epoch in range(1, cfg.epochs + 1):
        if epoch > 1:
            order = rng.permutation(len(docs))
        epoch_loss = 0.0
        for b, start in enumerate(range(0, len(order), cfg.batch_docs)):
            batch = [docs[di] for di in order[start : start + cfg.batch_docs]]
            for loss, doc_grads in _batch_loss_and_grads(model, batch, tables):
                epoch_loss += loss
                if doc_grads is None:
                    continue
                for name, buf in grads.items():
                    if name in EMBEDDING_KEYS:
                        rows, block = doc_grads[name]
                        buf[rows] += block
                        marks[name][rows] = True
                    else:
                        buf += doc_grads[name]
            # the rows reached so far, a leading slice of each table; the weights step whole
            heads = {name: counts[b if epoch == 1 else -1] for name, counts in reached.items()}
            touched = {**whole, **{name: np.flatnonzero(mark[: heads[name]]) for name, mark in marks.items()}}
            adam.step({name: arr[: heads.get(name)] for name, arr in arrays.items()}, grads, touched)
            for name, rows in touched.items():
                grads[name][rows] = 0.0
                if name in marks:
                    marks[name][rows] = False
            _sync_scalar(model, arrays)
        _check_finite_params(arrays)

        dev_auc, dev_p1 = _dev_metrics(model, dev, dev_plans)
        history.rows.append(EpochStats(epoch=epoch, loss=epoch_loss, dev_auc=dev_auc, dev_p1=dev_p1))
        if dev_auc is not None and (best_auc is None or dev_auc > best_auc):
            best_auc = dev_auc
            best_epoch = epoch
            # the shallow copy keeps this epoch's scalars; it shares the arrays, restored below.
            # Training ends with the last epoch's parameters, so that one needs neither.
            best_model = best_arrays = None
            if epoch < cfg.epochs:
                best_model = copy.copy(model)
                best_arrays = {k: v.copy() for k, v in arrays.items()}

    if best_arrays is not None:
        for name, arr in arrays.items():
            arr[...] = best_arrays[name]
        model = best_model
    del adam, grads, best_arrays  # freed before the restore's table-sized temporaries
    for name, inverse in restore.items():
        arrays[name][...] = arrays[name][inverse]
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
GRAD_CHECK_ROWS = 32  # the most embedding rows one check perturbs


def grad_check(model: KCEModel, doc: Document, step: float = 1e-4, row_seed: int = 0) -> float:
    """Max relative error between analytic and central-difference gradients.

    Checks every trainable weight block and a seeded sample of up to
    ``GRAD_CHECK_ROWS`` embedding rows actually referenced by the document.  The
    relative error is |a - n| / max(|a|, |n|, 1e-8); coordinates where both
    values sit at or below 1e-8 are treated as agreeing zeros (a far kernel's
    weight, say, has a gradient too small to reach the loss's bits, where
    finite differences return 0.0 or floating-point noise).
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
    [(_, analytic)] = _batch_loss_and_grads(model, [(doc.doc_id, plan, pairs)], tables)

    # (parameter, analytic gradient) vectors to perturb coordinate by coordinate: every weight block ...
    blocks = [(arr, analytic[name]) for name, arr in params.items() if name not in EMBEDDING_KEYS]
    # ... and a sample of the table rows the document references, each a view of its row and its
    # gradient's row: the row-sparse gradients list exactly those rows
    row_pool = [(params[name][row], grad) for name in tables for row, grad in zip(*analytic[name])]
    if len(row_pool) > GRAD_CHECK_ROWS:
        chosen = np.random.default_rng(row_seed).choice(len(row_pool), size=GRAD_CHECK_ROWS, replace=False)
        row_pool = [row_pool[i] for i in chosen]
    blocks += row_pool

    def loss() -> float:
        return _pair_loss(kce_forward(model, [plan])[0][0], pairs)[0]

    worst = 0.0
    for param, grad in blocks:
        for k in range(len(param)):
            a = float(grad[k])
            orig = float(param[k])
            param[k] = orig + step
            loss_plus = loss()
            param[k] = orig - step
            loss_minus = loss()
            param[k] = orig
            numeric = (loss_plus - loss_minus) / (2.0 * step)
            if abs(a) <= GRAD_EPS and abs(numeric) <= GRAD_EPS:
                continue
            # np.maximum keeps a NaN error, where max() would drop it
            worst = float(np.maximum(worst, abs(a - numeric) / max(abs(a), abs(numeric), GRAD_EPS)))
    return worst

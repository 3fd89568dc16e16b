"""Pairwise ranking loss, Adam optimizer, exact gradients, and the train loop.

The loss for one document sums hinge terms over (salient, non-salient) event
pairs: max(0, 1 - s_plus + s_minus).  Gradients are computed analytically all
the way into the embedding tables (through both the kernel pooling and the
voting features); ``grad_check`` verifies them against central finite
differences.  Only the tables ``_param_arrays`` names get gradient work, and each
comes back row-sparse: the sorted unique rows the document references and an
``(r, d)`` block of their summed gradients.
``train`` plans every document and draws its pairs once per call, scatters
the blocks into per-batch buffers in document order, and Adam steps once per
batch; a document whose training scores are not all finite stops training
with ``NumericError`` naming it.  For the call, each trained table is stored
in the order in which the first epoch's batches first reach its rows, so the
rows reached so far are a leading slice: each step zeroes and steps only that
slice, and the vocabulary order is put back before ``train`` returns.  A row
no batch has reached has zero moments and a zero gradient, and a dense step
would leave it bitwise unchanged, so the trained model is the one stepping
every row gives.  Each epoch ends in one dev pass, and the best epoch is kept
as a shallow model copy plus copies of its arrays.
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
from .features import DocPlan
from .kernels import kernel_slopes
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
    ``step`` may get a leading-row view of a block as its parameter: it then
    steps the same leading rows of the gradient, the moments and the scratch.
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
            rows = len(p)
            g = grads[name][:rows]
            m = self.m[name][:rows]
            v = self.v[name][:rows]
            a, b = (s[:rows] for s in self._scratch[name])
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

TEMPERATURE_KEY = "temperature"
EMBEDDING_KEYS = ("event_emb", "entity_emb")  # gradients come as (rows, block) pairs
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
    slopes = kernel_slopes(sims, bank)
    slopes *= acts
    return slopes @ weights


def kce_backward(
    model: KCEModel, plan: DocPlan, cache: KCECache, dscores: np.ndarray, tables: tuple[str, ...]
) -> dict:
    """Gradients of the document loss for the variant's weight blocks and the trained
    tables: the ``EMBEDDING_KEYS`` in ``tables``, row-sparse as ``(rows, block)`` pairs.
    The entity cosines feed the event rows either way.
    """
    n = len(plan.rows_v)
    m = len(plan.rows_e)
    g = np.asarray(dscores, dtype=np.float64)
    blocks = VARIANT_BLOCKS[model.variant]
    inputs = {"w_v": cache.phi_v, "w_e": cache.phi_e, "w_f": cache.scaled_feats}
    grads: dict[str, np.ndarray] = {name: inputs[name].T @ g for name in blocks}
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

    if n and m:
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
    try:
        temp_sq = model.temperature**2  # libm's square: t * t differs in the last bit for some t
    except OverflowError:
        raise NumericError(f"walk temperature {model.temperature!r} overflowed while training") from None
    d_temp = float((d_logits * (-cache.sims / temp_sq)).sum())
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
    for name, attr in zip(EMBEDDING_KEYS, ("rows_v", "rows_e")):
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
    reached, restore = _order_by_reach(arrays, [plan for _, plan, _ in docs], dev_plans, order, cfg.batch_docs)
    adam = Adam(arrays, lr=cfg.learning_rate, beta1=cfg.beta1, beta2=cfg.beta2, eps=cfg.eps)
    # The buffers start at +0.0 and a sum never turns +0.0 into -0.0, so the
    # rows a document does not touch need no +0.0 added: skipping them keeps
    # the batch gradient bitwise equal to summing dense per-document tables.
    grads = {k: np.zeros_like(v) for k, v in arrays.items()}
    for epoch in range(1, cfg.epochs + 1):
        if epoch > 1:
            order = rng.permutation(len(docs))
        epoch_loss = 0.0
        for b, start in enumerate(range(0, len(order), cfg.batch_docs)):
            batch = order[start : start + cfg.batch_docs]
            # the rows reached so far, a leading slice of each table; the weights step whole
            heads = {name: counts[b if epoch == 1 else -1] for name, counts in reached.items()}
            for name, buf in grads.items():
                buf[: heads.get(name)].fill(0.0)
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
            adam.step({name: arr[: heads.get(name)] for name, arr in arrays.items()}, grads)
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
    _, analytic = _doc_loss_and_grads(model, doc.doc_id, plan, pairs, tables)

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
        return _pair_loss(kce_forward(model, plan)[0], pairs)[0]

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

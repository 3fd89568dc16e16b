"""Salience ranking models.

* KCEModel        — kernel centrality model: pooled similarity kernels against
                    the document's other events and its entities, fused with the
                    feature block.  Three kernel variants of increasing capacity,
                    events_only < events_features < full, and features_only, the
                    LeToR linear model over the five standardized features alone.
* PageRankModel   — one-step random walk over a fully connected event graph with
                    softmax(cosine / temperature) transitions, blended with the
                    normalized frequency distribution.
* frequency / location baselines.

``kce_forward`` and ``pagerank_forward`` score a stack: a list of plans of
one shape (n events, m entities), every array with a leading document axis,
as ``features.doc_geometry`` builds it.  ``model_scores`` scores one document
as a stack of one.

Model files are single JSON documents, so every model is self-contained for
scoring.  ``save_model`` writes model file version 2, one line through
``errors.write_jsonl``: each embedding table's ``vectors`` is a base64 string
of its row-major little-endian float64 bytes, which round-trip exactly and
decode in one pass, and every other field is plain JSON.  The record holds
``vectors`` as the ``bytes`` of its base64, which ``write_jsonl`` copies to
the file as they are, so the tables never pass through ``json.dumps``.
``_FIELDS`` holds each record type's fields, in the order ``save_model``
writes them, with the rules ``load_model`` checks (``ModelFormatError``
naming the field).  One walk over its number fields raises ``NumericError``
naming a non-finite one, on the record about to be saved and on a loaded one
before any range or shape check.  ``load_model`` reads version 2 only.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .corpus import Document
from .embeddings import EmbeddingTable, table_from_json, table_to_json
from .errors import DataError, ModelFormatError, NumericError, check_fields, is_int, is_number, read_json
from .errors import write_jsonl
from .features import (
    DocGeometry,
    DocPlan,
    FeatureScaler,
    N_FEATURES,
    doc_geometry,
    doc_plan,
    fill_diagonals,
    geometry_features,
    lemma_codes,
    lemma_counts,
    scale_matrix,
    scaler_from_json,
    scaler_to_json,
    stacked,
)
from .kernels import KernelBank, bank_from_json, bank_to_json, default_bank, gaussian_pool, pooled_sum

MODEL_FILE_VERSION = 2  # the one version save_model writes and load_model reads
# The weight blocks each variant scores with; the blocks it leaves out stay zero.  A variant
# with entity kernels (w_e) has event kernels (w_v) too.
VARIANT_BLOCKS = {
    "events_only": ("w_v",),
    "events_features": ("w_v", "w_f"),
    "full": ("w_v", "w_e", "w_f"),
    "features_only": ("w_f",),
}
KCE_VARIANTS = ("events_only", "events_features", "full")  # the kernel variants a "kce" record holds


def reads_entities(variant: str) -> bool:
    """Whether a variant's score reads the entity table: through entity kernels or the voting features."""
    blocks = VARIANT_BLOCKS[variant]
    return "w_e" in blocks or "w_f" in blocks


@dataclass(eq=False)
class KCEModel:
    bank: KernelBank
    w_v: np.ndarray  # (K,) event-kernel weights
    w_e: np.ndarray  # (K,) entity-kernel weights
    w_f: np.ndarray  # (5,) feature weights
    bias: float
    event_table: EmbeddingTable
    entity_table: EmbeddingTable
    scaler: FeatureScaler
    variant: str = "full"
    meta: dict = field(default_factory=dict)


def new_kce_model(
    bank: KernelBank,
    event_table: EmbeddingTable,
    entity_table: EmbeddingTable,
    scaler: FeatureScaler,
    variant: str = "full",
) -> KCEModel:
    """A zero-weight model; features_only (LeToR) holds ``trainable=False`` copies of the tables."""
    if variant not in VARIANT_BLOCKS:
        raise DataError(f"unknown variant {variant!r}; expected one of {tuple(VARIANT_BLOCKS)}")
    frozen = variant == "features_only"
    return KCEModel(
        bank=bank,
        w_v=np.zeros(bank.size),
        w_e=np.zeros(bank.size),
        w_f=np.zeros(N_FEATURES),
        bias=0.0,
        event_table=replace(event_table, trainable=False) if frozen else event_table,
        entity_table=replace(entity_table, trainable=False) if frozen else entity_table,
        scaler=scaler,
        variant=variant,
    )


def new_letor_model(
    event_table: EmbeddingTable, entity_table: EmbeddingTable, scaler: FeatureScaler
) -> KCEModel:
    return new_kce_model(default_bank(), event_table, entity_table, scaler, variant="features_only")


@dataclass(eq=False)
class KCECache(DocGeometry):
    """Everything the backward pass needs from a forward evaluation of a stack of B plans."""

    acts: np.ndarray | None = None  # (c, K) activations of the first c ``cosines``, event-event diagonals zeroed
    acts_vv: np.ndarray | None = None  # (B, n, n, K) view of ``acts``; None without w_v
    acts_ve: np.ndarray | None = None  # (B, n, m, K) view of ``acts``; None without w_e
    phi_v: np.ndarray | None = None  # (B, n, K)
    phi_e: np.ndarray | None = None  # (B, n, K)
    scaled_feats: np.ndarray | None = None  # (B, n, 5) after standardization


def kce_forward(model: KCEModel, stack: list[DocPlan]) -> tuple[np.ndarray, KCECache]:
    """Scores, shape (B, n), of a stack of B plans of n events and m entities each, plus a cache
    for gradient computation.

    The score sums the variant's blocks in the order w_v, w_e, w_f, with the
    bias added to the first.
    """
    blocks = VARIANT_BLOCKS[model.variant]
    cache = doc_geometry(stack, model.event_table, model.entity_table, KCECache)
    b, n, m = cache.sims_ve.shape
    size = model.bank.size
    terms = []
    if "w_v" in blocks:
        # one pool over the event-event cosines, and full's event-entity ones after them;
        # each block's activations are a view of its part
        pooled = cache.cosines if "w_e" in blocks else cache.cosines[: cache.sims_vv.size]
        cache.acts = gaussian_pool(pooled, model.bank)
        cache.acts_vv = cache.acts[: b * n * n].reshape(b, n, n, size)
        fill_diagonals(cache.acts_vv, 0.0)  # the pairs of an event with itself
        cache.phi_v = pooled_sum(cache.acts_vv)
        terms.append(cache.phi_v @ model.w_v)
    if "w_e" in blocks:
        cache.acts_ve = cache.acts[len(cache.acts) - b * n * m :].reshape(b, n, m, size)
        cache.phi_e = pooled_sum(cache.acts_ve)
        terms.append(cache.phi_e @ model.w_e)
    if "w_f" in blocks:
        cache.scaled_feats = scale_matrix(geometry_features(stack, cache), model.scaler)
        terms.append(cache.scaled_feats @ model.w_f)
    else:
        cache.scaled_feats = np.zeros((b, n, N_FEATURES))
    scores = terms[0] + model.bias
    for term in terms[1:]:
        scores = scores + term
    return scores, cache


# The range of each PageRank scalar, as (predicate, description) rules for check_fields.
_PAGERANK_RANGES = {
    "temperature": (lambda v: math.isfinite(v) and v > 0.0, "a finite number > 0"),
    "combine_lambda": (lambda v: 0.0 <= v <= 1.0, "a number in [0, 1]"),
}


@dataclass
class PageRankModel:
    temperature: float
    combine_lambda: float
    event_table: EmbeddingTable
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name, (valid, expected) in _PAGERANK_RANGES.items():
            if not valid(getattr(self, name)):
                raise DataError(f"pagerank {name} must be {expected}")


@dataclass(eq=False)
class PageRankCache:
    """A stack of B plans of n events each, through the walk."""

    rows: np.ndarray  # (B, n)
    unit: np.ndarray  # (B, n, d)
    norms: np.ndarray  # (B, n)
    sims: np.ndarray  # (B, n, n), diagonals zeroed (unused)
    transitions: np.ndarray  # (B, n, n) row-stochastic, zero diagonals
    walk: np.ndarray  # (B, n) one-step visit distributions
    norm_freq: np.ndarray  # (B, n)


def pagerank_mix(norm_freq: np.ndarray, walk: np.ndarray, lam: float | np.ndarray) -> np.ndarray:
    """PageRank scores at frequency/walk mix ``lam``: the model's own, or a candidate one.  A
    column of values, shape (R, 1), gives one row of scores per value, each row the scores
    that value alone gives."""
    return lam * norm_freq + (1.0 - lam) * walk


def pagerank_forward(model: PageRankModel, stack: list[DocPlan]) -> tuple[np.ndarray, PageRankCache]:
    """Scores, shape (B, n), of a stack of B plans of n events each, plus a cache for the backward pass."""
    geo = doc_geometry(stack, model.event_table)
    b, n = geo.rows_v.shape
    freq = stacked(stack, "lemma_counts")
    norm_freq = freq / freq.sum(axis=1, keepdims=True) if n else freq

    if n <= 1:
        transitions = np.zeros((b, n, n))
        walk = np.zeros((b, n))
    else:
        logits = geo.sims_vv / model.temperature
        fill_diagonals(logits, -np.inf)  # no self-loops
        shifted = logits - logits.max(axis=2, keepdims=True)
        expo = np.exp(shifted)
        transitions = expo / expo.sum(axis=2, keepdims=True)
        walk = transitions.transpose(0, 2, 1) @ np.full(n, 1.0 / n)

    scores = pagerank_mix(norm_freq, walk, model.combine_lambda)
    cache = PageRankCache(
        rows=geo.rows_v,
        unit=geo.unit_v,
        norms=geo.norms_v,
        sims=geo.sims_vv,
        transitions=transitions,
        walk=walk,
        norm_freq=norm_freq,
    )
    return scores, cache


def frequency_scores(doc: Document) -> np.ndarray:
    """Headword-lemma count baseline."""
    return lemma_counts(lemma_codes(doc.events))


def location_scores(doc: Document) -> np.ndarray:
    """Earlier mentions rank higher: negated mention order index."""
    return -np.arange(len(doc.events), dtype=np.float64)


def ranked_order(
    scores: np.ndarray,
    event_ids: Sequence[str] | None = None,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Indices in descending-score order.

    Exact ties break uniformly at random when an rng is supplied, otherwise by
    ascending event id; one of the two is required.
    """
    scores = np.asarray(scores, dtype=np.float64)
    tiebreak = rng.random(len(scores)) if rng is not None else event_ids
    return np.array(
        sorted(range(len(scores)), key=lambda i: (-scores[i], tiebreak[i])), dtype=np.intp
    )


def _check_finite(name: str, arr: np.ndarray) -> None:
    if not np.all(np.isfinite(arr)):
        raise NumericError(f"model field {name} contains non-finite values")


_BLOCK_NAMES = {"w_v": "event-kernel", "w_e": "entity-kernel", "w_f": "feature"}


def _check_blocks(variant: str, weights: dict[str, np.ndarray]) -> None:
    """Every weight block is zero where the variant does not score with it."""
    for name, arr in weights.items():
        if name not in VARIANT_BLOCKS[variant] and np.any(arr != 0.0):
            raise ModelFormatError(f"variant {variant} requires zero {name} ({_BLOCK_NAMES[name]}) weights")


# Each record's fields, in the order save_model writes them, with their rules for check_fields:
# a nested dict of fields or a (predicate, description) pair.
_NUMBER = (is_number, "a number")
_NUMBERS = (lambda v: isinstance(v, list) and all(map(is_number, v)), "a list of numbers")
_TABLE = {
    "vocab": {
        "tokens": (lambda v: isinstance(v, list) and all(isinstance(t, str) for t in v), "a list of strings"),
        "unknown_index": (is_int, "an integer"),
    },
    "dim": (lambda v: is_int(v) and v >= 1, "an integer >= 1"),
    "trainable": (lambda v: isinstance(v, bool), "true or false"),
    "vectors": (lambda v: True, "present"),  # decoded and checked by table_from_json
}
_LETOR = {
    "w_f": _NUMBERS,
    "bias": _NUMBER,
    "scaler": {"means": _NUMBERS, "stds": _NUMBERS},
    "event_table": _TABLE,
    "entity_table": _TABLE,
}
_FIELDS = {
    "kce": {
        "variant": (lambda v: v in KCE_VARIANTS, f"one of {KCE_VARIANTS}"),
        "bank": {"means": _NUMBERS, "sigmas": _NUMBERS},
        "w_v": _NUMBERS,
        "w_e": _NUMBERS,
        **_LETOR,  # a kce record is the letor record after its kernel fields
    },
    "letor": _LETOR,
    "pagerank": {"temperature": _NUMBER, "combine_lambda": _NUMBER, "event_table": _TABLE},
}
_TO_JSON = {"bank": bank_to_json, "scaler": scaler_to_json}


def _check_finite_fields(obj: dict, rules: dict, prefix: str = "") -> None:
    """Refuse a non-finite value in any number field of the record ``obj``, nested ones included."""
    for key, rule in rules.items():
        if isinstance(rule, dict):
            _check_finite_fields(obj[key], rule, f"{prefix}{key}.")
        elif rule is _NUMBER or rule is _NUMBERS:
            _check_finite(prefix + key, np.asarray(obj[key], dtype=np.float64))


def _model_to_json(model) -> dict:
    """The model's record, keys in ``_FIELDS`` order, with every number and table vector checked finite."""
    if isinstance(model, KCEModel):
        _check_blocks(model.variant, {"w_v": model.w_v, "w_e": model.w_e, "w_f": model.w_f})
        # features_only is stored as the LeToR record it always was
        model_type = "letor" if model.variant == "features_only" else "kce"
    elif isinstance(model, PageRankModel):
        model_type = "pagerank"
    else:
        raise DataError(f"cannot serialize object of type {type(model).__name__}")
    rules = _FIELDS[model_type]
    fields = {}
    for key, rule in rules.items():
        value = getattr(model, key)
        if rule is _TABLE:  # called by name, so perfbench sees the call through the name it rebinds
            _check_finite(key, value.vectors)
            fields[key] = table_to_json(value)
        elif key in _TO_JSON:
            fields[key] = _TO_JSON[key](value)
        else:
            fields[key] = value.tolist() if rule is _NUMBERS else value
    _check_finite_fields(fields, rules)
    return {"version": MODEL_FILE_VERSION, "model_type": model_type, **fields, "meta": model.meta}


def save_model(model, path: str | Path) -> None:
    """Write the model file of ``model``: one JSON line, each table's base64 ``vectors`` copied
    from their ``bytes`` and the rest encoded by ``json.dumps``; a model that fails a check leaves no file."""
    # built inside write_jsonl's map: checked and encoded before the file is opened
    write_jsonl(map(_model_to_json, [model]), path)


def _built(name: str, build, value):
    """``build(value)``, with a DataError it raises turned into a ModelFormatError naming field ``name``."""
    try:
        return build(value)
    except DataError as exc:
        raise ModelFormatError(f"field {name}: {exc}") from None


def _table_checked(obj: dict, name: str) -> EmbeddingTable:
    try:
        table = table_from_json(obj[name])
    except ModelFormatError as exc:
        raise ModelFormatError(f"field {name}.{exc}") from None
    except DataError as exc:  # the vocabulary's own check
        raise ModelFormatError(f"field {name}.vocab: {exc}") from None
    _check_finite(name, table.vectors)
    return table


def _model_from_json(obj: dict):
    model_type = obj["model_type"]
    check_fields(obj, _FIELDS[model_type], error=ModelFormatError)
    _check_finite_fields(obj, _FIELDS[model_type])
    meta = obj.get("meta", {})
    if not isinstance(meta, dict):
        raise ModelFormatError("field meta must be an object")
    if model_type == "pagerank":
        check_fields(obj, _PAGERANK_RANGES, error=ModelFormatError)
        return PageRankModel(
            temperature=float(obj["temperature"]),
            combine_lambda=float(obj["combine_lambda"]),
            event_table=_table_checked(obj, "event_table"),
            meta=meta,
        )
    w_f = np.asarray(obj["w_f"], dtype=np.float64)
    if w_f.shape != (N_FEATURES,):
        raise ModelFormatError(f"field w_f must hold {N_FEATURES} weights")
    shared = dict(
        bias=float(obj["bias"]),
        event_table=_table_checked(obj, "event_table"),
        entity_table=_table_checked(obj, "entity_table"),
        scaler=_built("scaler", scaler_from_json, obj["scaler"]),
        meta=meta,
    )
    if model_type == "letor":
        bank = default_bank()
        w_v, w_e, variant = np.zeros(bank.size), np.zeros(bank.size), "features_only"
    else:
        variant = obj["variant"]
        bank = _built("bank", bank_from_json, obj["bank"])
        w_v = np.asarray(obj["w_v"], dtype=np.float64)
        w_e = np.asarray(obj["w_e"], dtype=np.float64)
        if w_v.shape != (bank.size,) or w_e.shape != (bank.size,):
            raise ModelFormatError("fields w_v and w_e must hold one weight per kernel of the bank")
        _check_blocks(variant, {"w_v": w_v, "w_e": w_e, "w_f": w_f})
    return KCEModel(bank=bank, w_v=w_v, w_e=w_e, w_f=w_f, variant=variant, **shared)


def load_model(path: str | Path, expect: str | None = None):
    """Load a model file of version 2; ``expect`` pins the model_type and raises otherwise."""
    obj = read_json(path, "model file", error=ModelFormatError)
    if not isinstance(obj, dict) or "version" not in obj:
        raise ModelFormatError(f"{path}: missing version field")
    version = obj["version"]
    if not is_int(version) or version != MODEL_FILE_VERSION:
        raise ModelFormatError(
            f"{path}: unsupported model file version {version!r} (expected {MODEL_FILE_VERSION})"
        )
    model_type = obj.get("model_type")
    if expect is not None and model_type != expect:
        raise ModelFormatError(f"{path}: expected a {expect} model, found {model_type!r}")
    if not isinstance(model_type, str) or model_type not in _FIELDS:
        raise ModelFormatError(f"{path}: unknown model_type {model_type!r}")
    try:
        return _model_from_json(obj)
    except (ModelFormatError, NumericError) as exc:
        raise type(exc)(f"{path}: {exc}") from None


def model_plan(model, doc: Document) -> DocPlan:
    """The document's plan under the vocabularies the model reads."""
    return doc_plan(doc, *plan_vocabularies(model))


def plan_vocabularies(model) -> tuple:
    """The event vocabulary, and the entity vocabulary if the model's score reads entities."""
    entities = isinstance(model, KCEModel) and reads_entities(model.variant)
    return model.event_table.vocabulary, model.entity_table.vocabulary if entities else None


def model_scores(model, doc: Document | DocPlan) -> np.ndarray:
    """Scores of a KCE or PageRank model for one document, or for a plan built
    under ``plan_vocabularies(model)``: the one scoring entry point."""
    if not isinstance(model, (KCEModel, PageRankModel)):
        raise DataError(f"cannot score with object of type {type(model).__name__}")
    plan = doc if isinstance(doc, DocPlan) else model_plan(model, doc)
    return (kce_forward if isinstance(model, KCEModel) else pagerank_forward)(model, [plan])[0][0]

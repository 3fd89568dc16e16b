"""Document plans and geometry, and the per-event features of the feature-based models.

``doc_plan`` reads what no parameter changes from a document, once: its
mentions' vocabulary rows, the event sentences, the same-sentence mask and
per-event lemma counts.  ``doc_geometry`` gathers the plan's event and
entity rows into one matrix, normalizes it in one pass and builds the
event-event and event-entity cosines.  ``geometry_features``
derives five features per event from both: lemma frequency within the
document, sentence location, and three embedding-vote averages (against other
events, all entities, and same-sentence entities).  A fitted scaler
standardizes features to zero mean / unit variance over a corpus.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .corpus import Corpus, Document
from .embeddings import EmbeddingTable, Vocabulary, normalized_rows
from .errors import DataError

FEATURE_NAMES = (
    "frequency",
    "sentence_location",
    "event_voting",
    "entity_voting",
    "local_entity_voting",
)
N_FEATURES = len(FEATURE_NAMES)


def lemma_codes(events) -> np.ndarray:
    """A code per event, shared by equal head lemmas and numbered in order of first appearance."""
    codes: dict[str, int] = {}
    return np.array([codes.setdefault(ev.head_lemma, len(codes)) for ev in events], dtype=np.intp)


def lemma_counts(codes: np.ndarray) -> np.ndarray:
    """How many events share each event's head lemma (itself included), from their ``lemma_codes``."""
    return np.bincount(codes)[codes].astype(np.float64)


def row_groups(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, list[tuple[int, int]]]:
    """Mentions grouped by table row: the sorted unique rows, each one's first
    mention, and (mention, group) for every later mention in mention order."""
    order = np.argsort(rows, kind="stable")
    ranked = rows[order]
    head = np.ones(len(rows), dtype=bool)
    head[1:] = ranked[1:] != ranked[:-1]
    group = np.empty(len(rows), dtype=np.intp)
    group[order] = np.cumsum(head) - 1
    repeats = np.sort(order[~head])
    return ranked[head], order[head], list(zip(repeats.tolist(), group[repeats].tolist()))


@dataclass
class DocPlan:
    """What the content models read from a document of n events and m entities before any parameter."""

    rows_v: np.ndarray  # (n,) event vocab rows
    rows_e: np.ndarray  # (m,) entity vocab rows; m = 0 without an entity vocabulary
    sentences: np.ndarray  # (n,) event sentence indices
    local_mask: np.ndarray  # (n, m) same-sentence indicator
    local_counts: np.ndarray  # (n,)
    lemma_counts: np.ndarray  # (n,)
    # (events_table, entities_table, unit_v, norms_v, unit_e, norms_e): the rows
    # already normalized under those tables, which must not change meanwhile
    units: tuple | None = None

    @cached_property
    def groups(self) -> tuple:
        """``row_groups`` of the event rows and of the entity rows, for the row-sparse gradients.
        An empty row array (every PageRank plan's entity side) gets its empty groups directly."""
        return tuple(
            row_groups(r) if len(r) else (r[:0], np.zeros(0, np.intp), []) for r in (self.rows_v, self.rows_e)
        )


def make_plan(rows_v, rows_e, sentences, entity_sentences, counts, units: tuple | None = None) -> DocPlan:
    """A plan from its mention arrays and lemma counts; the same-sentence mask follows from the sentences."""
    local_mask = sentences[:, None] == entity_sentences
    return DocPlan(rows_v, rows_e, sentences, local_mask, local_mask.sum(axis=1), counts, units)


def doc_plan(doc: Document, events_vocab: Vocabulary, entities_vocab: Vocabulary | None = None) -> DocPlan:
    """The document's plan; the entity side is empty without an entity vocabulary."""
    entities = doc.entities if entities_vocab is not None else ()
    return make_plan(
        events_vocab.rows([ev.head_lemma for ev in doc.events]),
        entities_vocab.rows([en.entity_key for en in entities]) if entities else np.zeros(0, np.intp),
        np.array([ev.sentence_index for ev in doc.events], dtype=np.intp),
        np.array([en.sentence_index for en in entities], dtype=np.intp),
        lemma_counts(lemma_codes(doc.events)),
    )


@dataclass
class DocGeometry:
    """A plan's unit vectors and cosines under the current tables."""

    rows_v: np.ndarray  # (n,) the plan's event rows
    unit_v: np.ndarray  # (n, d) unit event vectors (zero rows stay zero)
    norms_v: np.ndarray  # (n,)
    sims_vv: np.ndarray  # (n, n) cosines, diagonal zeroed (self excluded)
    rows_e: np.ndarray  # (m,) the plan's entity rows; m = 0 without an entity table
    unit_e: np.ndarray  # (m, d)
    norms_e: np.ndarray  # (m,)
    sims_ve: np.ndarray  # (n, m)


def doc_geometry(
    plan: DocPlan, events_table: EmbeddingTable, entities_table: EmbeddingTable | None = None
) -> DocGeometry:
    """Gather, normalize and multiply; no entity table, no entity side.

    A plan that carries ``units`` skips the normalizing, and is valid only
    for the very tables it names.
    """
    rows_v, rows_e = plan.rows_v, plan.rows_e
    entities = entities_table is not None and len(rows_e) > 0
    if plan.units is None:  # the event rows and then the entity rows, normalized in one pass
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
    else:  # the zero-size entity fields, built directly
        unit_e, norms_e, sims_ve = np.zeros((0, events_table.dim)), np.zeros(0), np.zeros((len(rows_v), 0))
    return DocGeometry(
        rows_v=rows_v,
        unit_v=unit_v,
        norms_v=norms_v,
        sims_vv=sims_vv,
        rows_e=rows_e,
        unit_e=unit_e,
        norms_e=norms_e,
        sims_ve=sims_ve,
    )


def geometry_features(plan: DocPlan, geo: DocGeometry) -> np.ndarray:
    """All five features for every event; votes are 0 where there is nothing to vote."""
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


def feature_matrix(
    doc: Document, events_table: EmbeddingTable, entities_table: EmbeddingTable
) -> np.ndarray:
    """All five features for every event of the document, shape (n, 5)."""
    plan = doc_plan(doc, events_table.vocabulary, entities_table.vocabulary)
    return geometry_features(plan, doc_geometry(plan, events_table, entities_table))


@dataclass(frozen=True)
class FeatureScaler:
    means: np.ndarray  # (5,)
    stds: np.ndarray  # (5,) floored at 1e-8


def fit_scaler(
    corpus: Corpus, events_table: EmbeddingTable, entities_table: EmbeddingTable
) -> FeatureScaler:
    """Per-feature mean/std over every event in the corpus (std floored at 1e-8)."""
    blocks = [
        feature_matrix(doc, events_table, entities_table)
        for doc in corpus.documents
        if doc.events
    ]
    if not blocks:
        raise DataError("cannot fit a feature scaler: corpus contains no events")
    stacked = np.concatenate(blocks, axis=0)
    means = stacked.mean(axis=0)
    stds = np.maximum(stacked.std(axis=0), 1e-8)
    return FeatureScaler(means=means, stds=stds)


def scale_matrix(features: np.ndarray, scaler: FeatureScaler) -> np.ndarray:
    return (features - scaler.means) / scaler.stds


def scaler_to_json(scaler: FeatureScaler) -> dict:
    return {"means": scaler.means.tolist(), "stds": scaler.stds.tolist()}


def scaler_from_json(obj: dict) -> FeatureScaler:
    means = np.asarray(obj["means"], dtype=np.float64)
    stds = np.asarray(obj["stds"], dtype=np.float64)
    if means.shape != (N_FEATURES,) or stds.shape != (N_FEATURES,):
        raise DataError("feature scaler must carry exactly five means and stds")
    if not np.all(stds > 0.0):
        raise DataError("feature scaler stds must be strictly positive")
    return FeatureScaler(means=means, stds=stds)

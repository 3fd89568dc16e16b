"""Document geometry and the per-event features of the feature-based models.

``doc_geometry`` builds what every content model reads from a document, once:
its mentions' unit vectors, the event-event and event-entity cosines, the
same-sentence mask, and per-event lemma counts.  ``geometry_features`` derives
five features per event from it: lemma frequency within the document,
sentence location, and three embedding-vote averages (against other events,
all entities, and same-sentence entities).  A fitted scaler standardizes
features to zero mean / unit variance over a corpus.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import Corpus, Document
from .embeddings import EmbeddingTable, normalized_rows
from .errors import DataError

FEATURE_NAMES = (
    "frequency",
    "sentence_location",
    "event_voting",
    "entity_voting",
    "local_entity_voting",
)
N_FEATURES = len(FEATURE_NAMES)


def lemma_counts(doc: Document) -> np.ndarray:
    """How many events in the document share each event's head lemma (itself included)."""
    lemmas = [ev.head_lemma for ev in doc.events]
    counts: dict[str, int] = {}
    for lemma in lemmas:  # a plain dict counts a short list faster than Counter
        counts[lemma] = counts.get(lemma, 0) + 1
    return np.array([counts[lemma] for lemma in lemmas], dtype=np.float64)


@dataclass
class DocGeometry:
    """What the content models read from one document of n events and m entities."""

    rows_v: np.ndarray  # (n,) event vocab rows
    unit_v: np.ndarray  # (n, d) unit event vectors (zero rows stay zero)
    norms_v: np.ndarray  # (n,)
    sims_vv: np.ndarray  # (n, n) cosines, diagonal zeroed (self excluded)
    rows_e: np.ndarray  # (m,) entity vocab rows; m = 0 without an entity table
    unit_e: np.ndarray  # (m, d)
    norms_e: np.ndarray  # (m,)
    sims_ve: np.ndarray  # (n, m)
    local_mask: np.ndarray  # (n, m) same-sentence indicator
    local_counts: np.ndarray  # (n,)
    lemma_counts: np.ndarray  # (n,)


def doc_geometry(
    doc: Document, events_table: EmbeddingTable, entities_table: EmbeddingTable | None = None
) -> DocGeometry:
    """The document's cosine geometry; the entity side is empty without an entity table."""
    rows_v = np.array(
        [events_table.vocabulary.lookup(ev.head_lemma) for ev in doc.events], dtype=np.intp
    )
    unit_v, norms_v = normalized_rows(events_table.vectors[rows_v])
    sims_vv = unit_v @ unit_v.T
    np.fill_diagonal(sims_vv, 0.0)

    if entities_table is not None and doc.entities:
        rows_e = np.array(
            [entities_table.vocabulary.lookup(en.entity_key) for en in doc.entities], dtype=np.intp
        )
        unit_e, norms_e = normalized_rows(entities_table.vectors[rows_e])
        ev_sent = np.array([ev.sentence_index for ev in doc.events], dtype=np.intp)
        en_sent = np.array([en.sentence_index for en in doc.entities], dtype=np.intp)
        local_mask = ev_sent[:, None] == en_sent[None, :]
        sims_ve, local_counts = unit_v @ unit_e.T, local_mask.sum(axis=1)
    else:  # the zero-size entity fields, built directly
        n = len(rows_v)
        rows_e, unit_e, norms_e = np.zeros(0, np.intp), np.zeros((0, events_table.dim)), np.zeros(0)
        sims_ve, local_mask, local_counts = np.zeros((n, 0)), np.zeros((n, 0), bool), np.zeros(n, int)
    return DocGeometry(
        rows_v=rows_v,
        unit_v=unit_v,
        norms_v=norms_v,
        sims_vv=sims_vv,
        rows_e=rows_e,
        unit_e=unit_e,
        norms_e=norms_e,
        sims_ve=sims_ve,
        local_mask=local_mask,
        local_counts=local_counts,
        lemma_counts=lemma_counts(doc),
    )


def geometry_features(doc: Document, geo: DocGeometry) -> np.ndarray:
    """All five features for every event; votes are 0 where there is nothing to vote."""
    n, m = geo.sims_ve.shape
    out = np.zeros((n, N_FEATURES), dtype=np.float64)
    out[:, 0] = geo.lemma_counts
    out[:, 1] = [ev.sentence_index for ev in doc.events]
    if n > 1:
        out[:, 2] = geo.sims_vv.sum(axis=1) / (n - 1)
    if m > 0:
        out[:, 3] = geo.sims_ve.sum(axis=1) / m
        local_sum = (geo.sims_ve * geo.local_mask).sum(axis=1)
        nonzero = geo.local_counts > 0
        out[nonzero, 4] = local_sum[nonzero] / geo.local_counts[nonzero]
    return out


def feature_matrix(
    doc: Document, events_table: EmbeddingTable, entities_table: EmbeddingTable
) -> np.ndarray:
    """All five features for every event of the document, shape (n, 5)."""
    return geometry_features(doc, doc_geometry(doc, events_table, entities_table))


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

"""Document plans and geometry, and the per-event features of the feature-based models.

``doc_plan`` reads what no parameter changes from a document, once: its
mentions' vocabulary rows, the event sentences, the same-sentence mask and
per-event lemma counts.  ``doc_geometry`` takes a stack of plans of one
shape (n events, m entities; a stack of one for a single document), gathers
their event and entity rows into one matrix, normalizes it in one pass and
builds each plan's event-event and event-entity cosines, every array with a
leading document axis.  ``geometry_features`` derives five features per
event from both: lemma frequency within the document, sentence location, and
three embedding-vote averages (against other events, all entities, and
same-sentence entities).  A fitted scaler standardizes features to zero mean
/ unit variance over a corpus.
"""
from __future__ import annotations

import math
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


@dataclass(eq=False)
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


def stacked(stack: list, name: str) -> np.ndarray:
    """The ``name`` arrays of a stack's equal-shape plans along a new leading axis; a stack of one's
    is a view of its plan's."""
    if len(stack) == 1:
        return getattr(stack[0], name)[None]
    return np.stack([getattr(plan, name) for plan in stack])


def fill_diagonals(stack: np.ndarray, value: float) -> None:
    """Set the diagonal of each (n, n) matrix of a C-contiguous (B, n, n, ...) stack, in place."""
    n = stack.shape[1]
    stack.reshape(len(stack), n * n, math.prod(stack.shape[3:]))[:, :: n + 1] = value


@dataclass(eq=False)
class DocGeometry:
    """A stack of B equal-shape plans' unit vectors and cosines under the current tables."""

    rows_v: np.ndarray  # (B, n) the plans' event rows
    unit_v: np.ndarray  # (B, n, d) unit event vectors (zero rows stay zero)
    norms_v: np.ndarray  # (B, n)
    sims_vv: np.ndarray  # (B, n, n) cosines, diagonal zeroed (self excluded)
    rows_e: np.ndarray  # (B, m) the plans' entity rows; m = 0 without an entity table
    unit_e: np.ndarray  # (B, m, d)
    norms_e: np.ndarray  # (B, m)
    sims_ve: np.ndarray  # (B, n, m)
    cosines: np.ndarray  # (B n n + B n m,) sims_vv's and then sims_ve's buffer


def doc_geometry(
    stack: list[DocPlan],
    events_table: EmbeddingTable,
    entities_table: EmbeddingTable | None = None,
    kind: type = DocGeometry,
) -> DocGeometry:
    """Gather, normalize and multiply a stack of plans of n events and m entities each, into a
    ``kind``, DocGeometry or a subclass whose own fields have defaults; no entity table, no
    entity side.

    Plans that carry ``units`` skip the normalizing, and are valid only for
    the very tables they name.  Each (n, d) matrix of a stack is C-contiguous,
    as one document's is, so a stacked ``matmul`` makes the BLAS call of one
    document once per document, and every row-wise step meets each row alone:
    a plan's cosines do not depend on the stack it is in.
    """
    rows_v, rows_e = stacked(stack, "rows_v"), stacked(stack, "rows_e")
    b, n = rows_v.shape
    m = rows_e.shape[1] if entities_table is not None else 0
    units = [p.units for p in stack]
    if not any(units):  # the stack's event rows and then its entity rows, normalized in one pass
        gathered = events_table.vectors[rows_v.ravel()]
        if m:
            gathered = np.concatenate((gathered, entities_table.vectors[rows_e.ravel()]))
        unit, norms = normalized_rows(gathered, out=gathered)  # the gather is a copy of its own
        dim = unit.shape[1]
        unit_v, norms_v = unit[: b * n].reshape(b, n, dim), norms[: b * n].reshape(b, n)
        unit_e, norms_e = unit[b * n :].reshape(b, m, dim), norms[b * n :].reshape(b, m)
    elif all(u is not None and u[0] is events_table and u[1] is entities_table for u in units):
        parts = zip(*(u[2:] for u in units))
        unit_v, norms_v, unit_e, norms_e = (part[0][None] if b == 1 else np.stack(part) for part in parts)
    else:
        raise DataError("the plan's rows were normalized under other tables")
    cosines = np.empty(b * n * (n + m))
    sims_vv = np.matmul(unit_v, unit_v.transpose(0, 2, 1), out=cosines[: b * n * n].reshape(b, n, n))
    fill_diagonals(sims_vv, 0.0)
    sims_ve = cosines[b * n * n :].reshape(b, n, m)
    if m:
        np.matmul(unit_v, unit_e.transpose(0, 2, 1), out=sims_ve)
    else:  # the zero-size entity fields, built directly
        unit_e, norms_e = np.zeros((b, 0, events_table.dim)), np.zeros((b, 0))
    return kind(
        rows_v=rows_v,
        unit_v=unit_v,
        norms_v=norms_v,
        sims_vv=sims_vv,
        rows_e=rows_e,
        unit_e=unit_e,
        norms_e=norms_e,
        sims_ve=sims_ve,
        cosines=cosines,
    )


def geometry_features(stack: list[DocPlan], geo: DocGeometry) -> np.ndarray:
    """All five features for every event of the stack, shape (B, n, 5); votes are 0 where there
    is nothing to vote."""
    b, n, m = geo.sims_ve.shape
    out = np.zeros((b, n, N_FEATURES), dtype=np.float64)
    out[..., 0] = stacked(stack, "lemma_counts")
    out[..., 1] = stacked(stack, "sentences")
    if n > 1:
        out[..., 2] = geo.sims_vv.sum(axis=2) / (n - 1)
    if m > 0:
        out[..., 3] = geo.sims_ve.sum(axis=2) / m
        local_counts = stacked(stack, "local_counts")
        local_sum = (geo.sims_ve * stacked(stack, "local_mask")).sum(axis=2)
        np.divide(local_sum, local_counts, out=out[..., 4], where=local_counts > 0)
    return out


def feature_matrix(
    doc: Document, events_table: EmbeddingTable, entities_table: EmbeddingTable
) -> np.ndarray:
    """All five features for every event of the document, shape (n, 5)."""
    stack = [doc_plan(doc, events_table.vocabulary, entities_table.vocabulary)]
    return geometry_features(stack, doc_geometry(stack, events_table, entities_table))[0]


@dataclass(frozen=True, eq=False)
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

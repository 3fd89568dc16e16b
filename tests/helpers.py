"""Shared generators for the test suite.

Random documents here are deliberately small and use distinct tokens per
mention unless a test asks otherwise.  The gradient-check instance generator
screens candidates so that every checked coordinate sits in the regime where
central finite differences are informative: away from hinge kinks, away from
the exact-match kernel's high-curvature zone (|cos| is capped well below 1),
and with no analytic gradient magnitude inside the float-noise gray band
(1e-8, 5e-3) where rounding error in the loss would dominate the comparison.
Rejected candidates are skipped deterministically, so a fixed seed sequence
always yields the same instances.
"""
from __future__ import annotations

import numpy as np

from salience.corpus import Corpus, Document, EntityMention, EventMention, salience_labels
from salience.embeddings import EmbeddingTable, Vocabulary
from salience.features import fit_scaler
from salience.kernels import default_bank
from salience.models import KCEModel, kce_forward
from salience.training import EMBEDDING_KEYS, _cross_pairs, _pair_loss, kce_backward

GRAY_BAND = (1e-8, 5e-3)
MARGIN_TOL = 5e-3
MAX_ABS_COS = 0.85


def document_pair_loss(scores, labels) -> tuple[float, np.ndarray]:
    """Hinge loss and d(loss)/d(scores) over every (salient, non-salient) pair of ``labels``."""
    return _pair_loss(np.asarray(scores, dtype=np.float64), _cross_pairs(np.asarray(labels, dtype=bool)))


def toy_vocab(tokens: list[str]) -> Vocabulary:
    return Vocabulary(
        token_to_index={t: i for i, t in enumerate(tokens)},
        unknown_index=len(tokens),
        size=len(tokens) + 1,
    )


def toy_table(tokens: list[str], dim: int, rng: np.random.Generator, scale: float = 1.0) -> EmbeddingTable:
    vocab = toy_vocab(tokens)
    return EmbeddingTable(vocab, dim, rng.normal(0.0, scale, size=(vocab.size, dim)))


def random_document(
    rng: np.random.Generator,
    doc_id: str = "doc",
    n_events: int = 6,
    n_entities: int = 4,
    n_sentences: int = 5,
    labeled: bool = True,
    distinct_lemmas: bool = True,
    lemma_pool: list[str] | None = None,
) -> Document:
    """A structurally valid document with random positions and labels."""
    if lemma_pool is None:
        lemma_pool = [f"ev{i}" for i in range(n_events if distinct_lemmas else max(2, n_events // 2))]
    sents = np.sort(rng.integers(0, n_sentences, size=n_events))
    if distinct_lemmas:
        lemmas = [lemma_pool[i % len(lemma_pool)] for i in range(n_events)]
    else:
        lemmas = [lemma_pool[rng.integers(0, len(lemma_pool))] for _ in range(n_events)]
    salient_lemmas: set[str] = set()
    if labeled and n_events:
        k = int(rng.integers(1, n_events + 1))
        salient_lemmas = {lemmas[i] for i in rng.permutation(n_events)[:k]}
    events = tuple(
        EventMention(
            id=f"e{i}",
            head_lemma=lemmas[i],
            surface=lemmas[i],
            sentence_index=int(sents[i]),
            salient=(lemmas[i] in salient_lemmas) if labeled else None,
        )
        for i in range(n_events)
    )
    entities = tuple(
        EntityMention(
            id=f"n{j}",
            entity_key=f"en{j}",
            sentence_index=int(rng.integers(0, n_sentences)),
        )
        for j in range(n_entities)
    )
    return Document(
        doc_id=doc_id,
        num_sentences=n_sentences,
        events=events,
        entities=entities,
        abstract_lemmas=frozenset(salient_lemmas) if labeled else None,
    )


def random_corpus(rng: np.random.Generator, n_docs: int = 5, **doc_kwargs) -> Corpus:
    docs = tuple(
        random_document(rng, doc_id=f"doc-{d:03d}", **doc_kwargs) for d in range(n_docs)
    )
    return Corpus(documents=docs)


def _gradcheck_candidate(
    seed: int,
    n_events: int = 5,
    n_entities: int = 4,
    dim: int = 6,
    emb_scale: float = 3.0,
    w_scale: float = 0.3,
) -> tuple[KCEModel, Document]:
    rng = np.random.default_rng([seed, 77])
    ev_tokens = [f"ev{i}" for i in range(n_events + 2)]
    en_tokens = [f"en{i}" for i in range(n_entities + 2)]
    evt = toy_table(ev_tokens, dim, rng, scale=emb_scale)
    ent = toy_table(en_tokens, dim, rng, scale=emb_scale)
    n_sent = 4
    labels = np.zeros(n_events, dtype=bool)
    labels[rng.permutation(n_events)[: rng.integers(1, n_events)]] = True
    sents = np.sort(rng.integers(0, n_sent, size=n_events))
    events = tuple(
        EventMention(
            id=f"e{i}",
            head_lemma=ev_tokens[i],
            surface=ev_tokens[i],
            sentence_index=int(sents[i]),
            salient=bool(labels[i]),
        )
        for i in range(n_events)
    )
    entities = tuple(
        EntityMention(id=f"n{j}", entity_key=en_tokens[j], sentence_index=int(rng.integers(0, n_sent)))
        for j in range(n_entities)
    )
    doc = Document(
        doc_id=f"gc-{seed}",
        num_sentences=n_sent,
        events=events,
        entities=entities,
        abstract_lemmas=frozenset(ev_tokens[i] for i in range(n_events) if labels[i]),
    )
    scaler = fit_scaler(Corpus(documents=(doc,)), evt, ent)
    bank = default_bank()
    model = KCEModel(
        bank=bank,
        w_v=rng.normal(0, w_scale, bank.size),
        w_e=rng.normal(0, w_scale, bank.size),
        w_f=rng.normal(0, w_scale, 5),
        bias=float(rng.normal(0, w_scale)),
        event_table=evt,
        entity_table=ent,
        scaler=scaler,
        variant="full",
    )
    return model, doc


def _fd_informative(model: KCEModel, doc: Document) -> bool:
    scores, cache = kce_forward(model, doc)
    labels = salience_labels(doc)
    margins = 1.0 - scores[labels][:, None] + scores[~labels][None, :]
    if np.abs(margins).min() < MARGIN_TOL:
        return False
    n = len(doc.events)
    off = cache.sims_vv[~np.eye(n, dtype=bool)]
    max_cos = max(
        np.abs(off).max() if off.size else 0.0,
        np.abs(cache.sims_ve).max() if cache.sims_ve.size else 0.0,
    )
    if max_cos > MAX_ABS_COS:
        return False
    _, dscores = _pair_loss(scores, _cross_pairs(labels))
    grads = kce_backward(model, doc, cache, dscores)
    lo, hi = GRAY_BAND
    for name, grad in grads.items():
        if name in EMBEDDING_KEYS:
            _rows, grad = grad  # rows outside the block have zero gradient, never in the band
        mags = np.abs(np.atleast_1d(np.asarray(grad, dtype=np.float64)))
        if np.any((mags > lo) & (mags < hi)):
            return False
    return True


def gradcheck_instances(count: int, start_seed: int = 0):
    """Yield `count` (model, doc, seed) triples suitable for finite differences."""
    seed = start_seed
    produced = 0
    while produced < count:
        model, doc = _gradcheck_candidate(seed)
        seed += 1
        if not _fd_informative(model, doc):
            continue
        produced += 1
        yield model, doc, seed

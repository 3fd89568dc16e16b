"""Synthetic corpora with planted topical structure.

Each topic owns a pool of event tokens and entity tokens whose latent vectors
cluster around a shared center; background tokens are isotropic.  A document
picks one topic, draws its salient events (and most entities) from that
topic's pools, adds a small cohesive group of confuser events from a different
topic, and fills the rest with background noise.  The abstract lemma set is
exactly the salient lemmas, so lemma-match labeling reproduces the plant, and
the latent vectors can be exported as pretrained embeddings.

Pools depend only on ``pool_seed``: corpora generated with different document
seeds share a vocabulary and geometry, which is how train/dev/test splits stay
mutually consistent.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import SPLIT_TAGS, Corpus, Document, EntityMention, EventMention
from .errors import DataError, NumericError, config_from_json, is_finite_number, is_int, read_json


@dataclass
class SynthConfig:
    docs: int = 100
    events_per_doc: int = 20
    entities_per_doc: int = 30
    dim: int = 128
    cosine_gap: float = 0.4
    n_topics: int = 8
    event_pool_per_topic: int = 12
    entity_pool_per_topic: int = 14
    background_event_pool: int = 500
    background_entity_pool: int = 400
    salient_low: int = 5
    salient_high: int = 7  # inclusive
    salient_token_choices: int = 4
    confuser_events: int = 3
    topic_entity_fraction: float = 0.6
    sentences_per_doc: int = 12
    vector_noise: float = 0.0  # per-coordinate Gaussian noise on the exported vectors
    pool_seed: int = 7
    seed: int = 1
    split: str = "unsplit"

    def to_json(self) -> dict:
        return dict(self.__dict__)

    @staticmethod
    def from_json(obj: dict) -> "SynthConfig":
        return config_from_json(SynthConfig(), obj, _CONFIG_RULES, "synth config")

    @staticmethod
    def load(path: str | Path) -> "SynthConfig":
        return SynthConfig.from_json(read_json(path, "synth config"))


def _int_at_least(low: int) -> tuple:
    return (lambda v: is_int(v) and v >= low, f"an integer >= {low}")


_CONFIG_RULES = {
    **dict.fromkeys(("docs", "entities_per_doc", "confuser_events", "pool_seed", "seed"), _int_at_least(0)),
    **dict.fromkeys(
        ("events_per_doc", "dim", "entity_pool_per_topic", "background_event_pool", "background_entity_pool",
         "salient_low", "salient_high", "salient_token_choices", "sentences_per_doc"),
        _int_at_least(1),
    ),
    # confusers come from a second topic, drawn two tokens at a time
    **dict.fromkeys(("n_topics", "event_pool_per_topic"), _int_at_least(2)),
    "cosine_gap": (lambda v: is_finite_number(v) and 0 < v < 1, "a number in (0, 1)"),
    "topic_entity_fraction": (lambda v: is_finite_number(v) and 0 <= v <= 1, "a number in [0, 1]"),
    "vector_noise": (lambda v: is_finite_number(v) and v >= 0, "a finite number >= 0"),
    "split": (lambda v: v in SPLIT_TAGS, f"one of {SPLIT_TAGS}"),
}


@dataclass(eq=False)
class TokenPools:
    topic_event_tokens: list[list[str]]
    topic_entity_tokens: list[list[str]]
    background_event_tokens: list[str]
    background_entity_tokens: list[str]
    event_vectors: dict[str, np.ndarray]
    entity_vectors: dict[str, np.ndarray]


def _unit(vec: np.ndarray) -> np.ndarray:
    return vec / np.linalg.norm(vec)


def _clustered(center: np.ndarray, spread: float, rng: np.random.Generator) -> np.ndarray:
    return _unit(center + spread * rng.standard_normal(center.shape))


def build_pools(cfg: SynthConfig) -> TokenPools:
    """Token names and latent geometry; within-topic mean cosine lands well above the gap."""
    if not 0.0 < cfg.cosine_gap < 1.0:
        raise DataError("cosine_gap must lie in (0, 1)")
    rng = np.random.default_rng(cfg.pool_seed)
    # Solve the per-coordinate spread so clustered vectors have expected
    # pairwise cosine around target = gap + margin.  For a unit center and
    # isotropic noise, cos ~ 1 / (1 + s^2 * dim), so s^2 = (1/target - 1)/dim.
    target = min(0.9, cfg.cosine_gap + 0.3)
    spread = float(np.sqrt((1.0 / target - 1.0) / cfg.dim))

    event_vectors: dict[str, np.ndarray] = {}
    entity_vectors: dict[str, np.ndarray] = {}
    topic_event_tokens: list[list[str]] = []
    topic_entity_tokens: list[list[str]] = []
    for t in range(cfg.n_topics):
        center = _unit(rng.standard_normal(cfg.dim))
        ev_tokens = [f"t{t}_ev{i}" for i in range(cfg.event_pool_per_topic)]
        en_tokens = [f"t{t}_en{i}" for i in range(cfg.entity_pool_per_topic)]
        for tok in ev_tokens:
            event_vectors[tok] = _clustered(center, spread, rng)
        for tok in en_tokens:
            entity_vectors[tok] = _clustered(center, spread, rng)
        topic_event_tokens.append(ev_tokens)
        topic_entity_tokens.append(en_tokens)

    background_event_tokens = [f"bg_ev{i}" for i in range(cfg.background_event_pool)]
    background_entity_tokens = [f"bg_en{i}" for i in range(cfg.background_entity_pool)]
    for tok in background_event_tokens:
        event_vectors[tok] = _unit(rng.standard_normal(cfg.dim))
    for tok in background_entity_tokens:
        entity_vectors[tok] = _unit(rng.standard_normal(cfg.dim))
    return TokenPools(
        topic_event_tokens=topic_event_tokens,
        topic_entity_tokens=topic_entity_tokens,
        background_event_tokens=background_event_tokens,
        background_entity_tokens=background_entity_tokens,
        event_vectors=event_vectors,
        entity_vectors=entity_vectors,
    )


def degrade_vectors(
    vectors: dict[str, np.ndarray], noise: float, seed: int
) -> dict[str, np.ndarray]:
    """Blurred copy of a vector table, as if the embeddings came from a small
    pretraining corpus.  The documents keep their clean latent structure; only
    what a model is handed gets worse, so frozen-embedding scorers feel the
    full hit while models that train embeddings can recover.
    """
    if noise < 0.0:
        raise DataError("vector noise must be >= 0")
    rng = np.random.default_rng(seed)
    out = {}
    for tok in sorted(vectors):
        noisy = vectors[tok] + noise * rng.standard_normal(vectors[tok].shape)
        norm = np.linalg.norm(noisy)
        if not np.isfinite(norm):
            raise NumericError(f"vector noise {noise!r} gives token {tok!r} a non-finite norm")
        out[tok] = noisy / norm
    return out


def measured_cosine_gap(pools: TokenPools, max_tokens: int = 40) -> float:
    """Mean within-topic pairwise cosine minus mean topic-background cosine."""
    within = []
    cross = []
    for t, tokens in enumerate(pools.topic_event_tokens):
        vecs = [pools.event_vectors[tok] for tok in tokens[:max_tokens]]
        for i in range(len(vecs)):
            for j in range(i + 1, len(vecs)):
                within.append(float(vecs[i] @ vecs[j]))
        for tok in pools.background_event_tokens[:max_tokens]:
            bg = pools.event_vectors[tok]
            for v in vecs:
                cross.append(float(v @ bg))
    return float(np.mean(within) - np.mean(cross))


def generate_corpus(cfg: SynthConfig) -> tuple[Corpus, TokenPools]:
    if cfg.events_per_doc < cfg.salient_high + cfg.confuser_events:
        raise DataError("events_per_doc too small for the configured salient/confuser counts")
    if cfg.salient_low < 1 or cfg.salient_low > cfg.salient_high:
        raise DataError("need 1 <= salient_low <= salient_high")
    if cfg.salient_token_choices > cfg.event_pool_per_topic:
        raise DataError("salient_token_choices exceeds event_pool_per_topic")
    pools = build_pools(cfg)
    rng = np.random.default_rng(cfg.seed)
    docs = []
    for d in range(cfg.docs):
        topic = int(rng.integers(cfg.n_topics))
        other = int(rng.integers(cfg.n_topics - 1))
        if other >= topic:
            other += 1

        n_salient = int(rng.integers(cfg.salient_low, cfg.salient_high + 1))
        token_choices = rng.choice(
            pools.topic_event_tokens[topic], size=cfg.salient_token_choices, replace=False
        )
        salient_lemmas = [str(token_choices[i]) for i in rng.integers(0, len(token_choices), n_salient)]

        confuser_choices = rng.choice(pools.topic_event_tokens[other], size=2, replace=False)
        confuser_lemmas = [
            str(confuser_choices[i]) for i in rng.integers(0, 2, cfg.confuser_events)
        ]

        n_background = cfg.events_per_doc - n_salient - cfg.confuser_events
        background_lemmas = [
            str(tok) for tok in rng.choice(pools.background_event_tokens, size=n_background)
        ]

        early = max(1, cfg.sentences_per_doc // 2)
        entries = [
            (lemma, int(rng.integers(0, early)), True) for lemma in salient_lemmas
        ] + [
            (lemma, int(rng.integers(0, cfg.sentences_per_doc)), False)
            for lemma in confuser_lemmas + background_lemmas
        ]
        entries.sort(key=lambda item: item[1])
        events = tuple(
            EventMention(
                id=f"e{i:02d}",
                head_lemma=lemma,
                surface=lemma,
                sentence_index=sent,
                frame=None,
                salient=salient,
            )
            for i, (lemma, sent, salient) in enumerate(entries)
        )

        salient_sentences = [sent for _, sent, salient in entries if salient]
        n_topic_entities = int(round(cfg.topic_entity_fraction * cfg.entities_per_doc))
        entity_entries = []
        for _ in range(n_topic_entities):
            key = str(rng.choice(pools.topic_entity_tokens[topic]))
            sent = int(salient_sentences[int(rng.integers(len(salient_sentences)))])
            entity_entries.append((key, sent))
        for _ in range(cfg.entities_per_doc - n_topic_entities):
            key = str(rng.choice(pools.background_entity_tokens))
            entity_entries.append((key, int(rng.integers(0, cfg.sentences_per_doc))))
        entities = tuple(
            EntityMention(id=f"n{i:02d}", entity_key=key, sentence_index=sent)
            for i, (key, sent) in enumerate(entity_entries)
        )

        docs.append(
            Document(
                doc_id=f"synth-{cfg.seed}-{d:05d}",
                num_sentences=cfg.sentences_per_doc,
                events=events,
                entities=entities,
                abstract_lemmas=frozenset(salient_lemmas),
            )
        )
    return Corpus(documents=tuple(docs), split_tag=cfg.split), pools

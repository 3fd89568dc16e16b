"""Event intrusion probe: can a model tell a document's own events from planted ones?

An instance mixes an origin document (must have at least five salient events)
with n events drawn from a second document, together with the entities from
the intruders' source sentences.  Intruder sentence indices are offset past
the origin's so same-sentence structure stays internal to each side.  Scoring
recounts lemma frequency on the mixed document and gives every other feature
zero weight; only relational evidence remains.  AUC treats origin events as
positives and intruders as negatives; SA-AUC drops the non-salient origin
events first.

A study checks each sampled (origin, intruder) pair, shuffles its eligible
intruders and relabels them once; every insertion fraction then mixes in a
prefix of that one order.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from operator import attrgetter
from pathlib import Path
from typing import Callable

import numpy as np

from .corpus import Corpus, Document, EntityMention, EventMention, salience_labels, validate_document
from .errors import DataError
from .metrics import auc as auc_metric
from .models import KCE_VARIANTS, KCEModel, frequency_scores, model_scores
from .training import _derived_rng

INTRUDER_KINDS = ("salient_only", "nonsalient_only")
DEFAULT_FRACTIONS = tuple(round(0.1 * i, 1) for i in range(1, 11))
MIN_ORIGIN_SALIENT = 5


@dataclass(frozen=True)
class IntrusionConfig:
    num_pairs: int = 500
    intruder_kind: str = "salient_only"
    seed: int = 0
    fractions: tuple[float, ...] = DEFAULT_FRACTIONS

    def __post_init__(self) -> None:
        if self.intruder_kind not in INTRUDER_KINDS:
            raise DataError(f"unknown intruder kind {self.intruder_kind!r}")
        if self.num_pairs < 1:
            raise DataError("num_pairs must be >= 1")
        if self.seed < 0:
            raise DataError(f"seed must be >= 0, got {self.seed}")
        if not self.fractions:
            raise DataError("need at least one insertion fraction")
        if any(not 0.0 < f <= 1.0 for f in self.fractions):
            raise DataError("fractions must lie in (0, 1]")
        if any(a >= b for a, b in zip(self.fractions, self.fractions[1:])):
            raise DataError(f"fractions must be strictly ascending, got {list(self.fractions)}")


@dataclass(frozen=True)
class IntrusionInstance:
    origin_doc_id: str
    intruder_doc_id: str
    mixed: Document
    origin_flags: np.ndarray  # True where the event came from the origin document
    salient_origin_flags: np.ndarray  # True for salient origin events only


def eligible_intruder_events(doc: Document, intruder_kind: str) -> list[EventMention]:
    want = intruder_kind == "salient_only"
    return [ev for ev in doc.events if ev.salient is want]


class _PairMixer:
    """One checked (origin, intruder) pair with its intruders relabelled in insertion order.

    The eligible intruder events are shuffled once per (seed, origin, intruder)
    triple; ``instance(n)`` mixes in the first n of that order, so growing n
    extends a fixed insertion order and a study builds each pair only once.
    """

    def __init__(self, origin: Document, intruder: Document, cfg: IntrusionConfig) -> None:
        n_salient = sum(1 for ev in origin.events if ev.salient)
        if n_salient < MIN_ORIGIN_SALIENT:
            raise DataError(
                f"origin doc {origin.doc_id!r} has {n_salient} salient events; need >= {MIN_ORIGIN_SALIENT}"
            )
        if origin.doc_id == intruder.doc_id:
            raise DataError("origin and intruder must be different documents")
        self.origin = origin
        self.intruder = intruder
        pool = eligible_intruder_events(intruder, cfg.intruder_kind)
        order = _derived_rng(cfg.seed, origin.doc_id, intruder.doc_id).permutation(len(pool))
        offset = origin.num_sentences
        prefix = f"{intruder.doc_id}::"
        # Intruder sentence indices move past the origin's; ids gain the
        # intruder's prefix, which leaves their relative order unchanged.
        self.moved = [
            EventMention(
                prefix + ev.id, ev.head_lemma, ev.surface, ev.sentence_index + offset, ev.frame, ev.salient
            )
            for ev in (pool[i] for i in order)
        ]
        self.entities_by_sentence: dict[int, list[EntityMention]] = {}
        for en in intruder.entities:
            self.entities_by_sentence.setdefault(en.sentence_index + offset, []).append(
                EntityMention(prefix + en.id, en.entity_key, en.sentence_index + offset)
            )
        self.origin_salient = salience_labels(origin)

    def instance(self, n_intruders: int) -> IntrusionInstance:
        """Mix the origin with the first ``n_intruders`` intruder events and their sentences' entities."""
        origin, intruder = self.origin, self.intruder
        if n_intruders < 0 or n_intruders > len(self.moved):
            raise DataError(
                f"intruder doc {intruder.doc_id!r} has {len(self.moved)} eligible events, asked for {n_intruders}"
            )
        chosen = sorted(self.moved[:n_intruders], key=attrgetter("sentence_index", "id"))
        extra_entities = tuple(
            en
            for sent in sorted({ev.sentence_index for ev in chosen})
            for en in self.entities_by_sentence.get(sent, ())
        )
        mixed = Document(
            doc_id=f"{origin.doc_id}+{intruder.doc_id}",
            num_sentences=origin.num_sentences + intruder.num_sentences,
            events=tuple(origin.events) + tuple(chosen),
            entities=tuple(origin.entities) + extra_entities,
            abstract_lemmas=origin.abstract_lemmas,
        )
        problems = validate_document(mixed)
        if problems:
            raise DataError(f"mixed document is invalid: {problems[0]}")
        n_orig = len(origin.events)
        return IntrusionInstance(
            origin_doc_id=origin.doc_id,
            intruder_doc_id=intruder.doc_id,
            mixed=mixed,
            origin_flags=np.arange(n_orig + n_intruders) < n_orig,
            salient_origin_flags=np.concatenate([self.origin_salient, np.zeros(n_intruders, dtype=bool)]),
        )


def build_instance(
    origin: Document, intruder: Document, cfg: IntrusionConfig, n_intruders: int
) -> IntrusionInstance:
    """Mix the origin with the first ``n_intruders`` eligible intruder events.

    The eligible events are shuffled once per (seed, origin, intruder) triple,
    so growing ``n_intruders`` extends a fixed insertion order.  Each chosen
    event brings along the entities from its source sentence.
    """
    return _PairMixer(origin, intruder, cfg).instance(n_intruders)


@dataclass(frozen=True)
class FractionResult:
    fraction: float
    auc: float
    sa_auc: float
    frequency_sa_auc: float
    n_pairs: int


@dataclass
class StudyResult:
    intruder_kind: str
    seed: int
    num_pairs: int
    rows: list[FractionResult]

    def to_csv(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["fraction", "auc", "sa_auc", "frequency_sa_auc", "n_pairs"])
            for row in self.rows:
                writer.writerow(
                    [row.fraction, repr(row.auc), repr(row.sa_auc), repr(row.frequency_sa_auc), row.n_pairs]
                )


def _instance_aucs(
    instance: IntrusionInstance, scores: np.ndarray
) -> tuple[float | None, float | None, float | None]:
    full = auc_metric(scores, instance.origin_flags)
    keep = ~instance.origin_flags | instance.salient_origin_flags
    sa = auc_metric(scores[keep], instance.origin_flags[keep])
    freq = frequency_scores(instance.mixed)
    freq_sa = auc_metric(freq[keep], instance.origin_flags[keep])
    return full, sa, freq_sa


def run_study_with_scorer(
    corpus: Corpus,
    score_fn: Callable[[IntrusionInstance], np.ndarray],
    cfg: IntrusionConfig,
) -> StudyResult:
    """Sample (origin, intruder) pairs and average AUC/SA-AUC per insertion fraction."""
    origins = [
        d for d in corpus.documents if sum(1 for ev in d.events if ev.salient) >= MIN_ORIGIN_SALIENT
    ]
    intruders = [d for d in corpus.documents if eligible_intruder_events(d, cfg.intruder_kind)]
    if not origins:
        raise DataError(
            f"no documents with >= {MIN_ORIGIN_SALIENT} salient events among {len(corpus.documents)}"
        )
    if not intruders:
        raise DataError(f"no documents offer {cfg.intruder_kind} intruder events")
    pairable = any(
        o.doc_id != i.doc_id for o in origins for i in intruders
    )
    if not pairable:
        raise DataError("origin and intruder pools contain only the same single document")

    rng = np.random.default_rng(cfg.seed)
    pairs: list[tuple[Document, Document]] = []
    while len(pairs) < cfg.num_pairs:
        origin = origins[int(rng.integers(len(origins)))]
        intruder = intruders[int(rng.integers(len(intruders)))]
        if origin.doc_id == intruder.doc_id:
            continue
        pairs.append((origin, intruder))

    sums = {f: np.zeros(3) for f in cfg.fractions}
    counts = {f: 0 for f in cfg.fractions}
    for origin, intruder in pairs:
        pair = _PairMixer(origin, intruder, cfg)
        for fraction in cfg.fractions:
            instance = pair.instance(math.ceil(fraction * len(pair.moved)))
            scores = np.asarray(score_fn(instance), dtype=np.float64)
            if scores.shape != (len(instance.mixed.events),):
                raise DataError("scorer returned a vector not matching the mixed event list")
            full, sa, freq_sa = _instance_aucs(instance, scores)
            if full is None or sa is None or freq_sa is None:
                continue
            sums[fraction] += (full, sa, freq_sa)
            counts[fraction] += 1

    rows = []
    for fraction in cfg.fractions:
        c = counts[fraction]
        if c == 0:
            raise DataError(f"no scorable instances at fraction {fraction}")
        mean = sums[fraction] / c
        rows.append(
            FractionResult(
                fraction=fraction,
                auc=float(mean[0]),
                sa_auc=float(mean[1]),
                frequency_sa_auc=float(mean[2]),
                n_pairs=c,
            )
        )
    return StudyResult(
        intruder_kind=cfg.intruder_kind, seed=cfg.seed, num_pairs=cfg.num_pairs, rows=rows
    )


def run_study(corpus: Corpus, model: KCEModel, cfg: IntrusionConfig) -> StudyResult:
    """Intrusion study for a kernel centrality model.

    The study scores with a copy of the model whose feature weights are zero
    except frequency's, recounted on each mixed document, so the model leans
    on its kernel evidence.
    """
    if not isinstance(model, KCEModel) or model.variant not in KCE_VARIANTS:
        raise DataError("intrusion studies score with a kernel centrality model")
    frequency_only = replace(model, w_f=np.concatenate([model.w_f[:1], np.zeros(len(model.w_f) - 1)]))

    def score_fn(instance: IntrusionInstance) -> np.ndarray:
        return model_scores(frequency_only, instance.mixed)

    return run_study_with_scorer(corpus, score_fn, cfg)

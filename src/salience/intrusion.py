"""Event intrusion probe: can a model tell a document's own events from planted ones?

An instance mixes an origin document (must have at least five salient events)
with n events drawn from a second document, together with the entities from
the intruders' source sentences.  Intruder sentence indices are offset past
the origin's so same-sentence structure stays internal to each side.  Scoring
recounts lemma frequency on the mixed document and gives every other feature
zero weight; only relational evidence remains.  AUC treats origin events as
positives and intruders as negatives; SA-AUC drops the non-salient origin
events first.

A study checks every document it samples once, then plans each sampled
(origin, intruder) pair once: it shuffles the pair's eligible intruders once
and keeps every mention's lemma code, sentence, vocabulary rows and normalized
rows, with the intruders in (sentence, id) order.  Every insertion fraction
mixes in a prefix of the shuffled order by index selection on those arrays,
with lemma counts from an integer ``bincount``.  The one invariant of the
mixed document that the checked documents do not guarantee, no prefixed
intruder id equal to an origin id, is checked for the mentions each instance
mixes in.  An instance carries its plan, so a scorer takes the instance
alone; the mixed ``Document`` is built only when a scorer reads it.
"""
from __future__ import annotations

import math
from dataclasses import astuple, dataclass, field, fields, replace
from functools import cached_property, partial
from operator import attrgetter
from pathlib import Path
from typing import Callable

import numpy as np

from .corpus import Corpus, Document, EntityMention, EventMention, salience_labels, validate_document
from .embeddings import normalized_rows
from .errors import DataError, NumericError, write_csv
from .features import DocPlan, lemma_codes, lemma_counts, make_plan
from .metrics import auc as auc_metric
from .models import KCE_VARIANTS, KCEModel, model_scores, plan_vocabularies
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


@dataclass(frozen=True, eq=False)
class IntrusionInstance:
    origin_doc_id: str
    intruder_doc_id: str
    origin_flags: np.ndarray  # True where the event came from the origin document
    salient_origin_flags: np.ndarray  # True for salient origin events only
    frequency: np.ndarray  # each event's lemma count in the mixed document
    build: Callable[[], Document] = field(repr=False)
    plan: DocPlan | None = field(default=None, repr=False)  # under the study's model, if any

    @cached_property
    def mixed(self) -> Document:
        """The mixed document, built on first use."""
        return self.build()


def eligible_intruder_events(doc: Document, intruder_kind: str) -> list[EventMention]:
    want = intruder_kind == "salient_only"
    return [ev for ev, salient in zip(doc.events, salience_labels(doc).tolist()) if salient is want]


def _check_mixed(doc: Document) -> None:
    problems = validate_document(doc)
    if problems:
        raise DataError(f"mixed document is invalid: {problems[0]}")


class _PairMixer:
    """One (origin, intruder) pair, planned once for every insertion fraction.

    The eligible intruders are shuffled once per (seed, origin, intruder)
    triple; ``mix(n)`` mixes in the first n of that order.  The pair's
    arrays hold the origin's mentions, then the intruder's: its eligible
    events in mixed-document (sentence, id) order and its entities grouped by
    sentence.  Intruder ids gain the prefix ``"<intruder>::"`` and intruder
    sentences move past the origin's, so for two valid documents the one
    invariant of a mix that can break is a prefixed id equal to an origin id.
    ``clashes`` marks each intruder event that brings such an id along,
    itself or through an entity of its sentence.
    """

    def __init__(self, origin: Document, intruder: Document, cfg: IntrusionConfig, model=None):
        self.origin_salient = salience_labels(origin)
        n_salient = np.count_nonzero(self.origin_salient)
        if n_salient < MIN_ORIGIN_SALIENT:
            raise DataError(
                f"origin doc {origin.doc_id!r} has {n_salient} salient events; need >= {MIN_ORIGIN_SALIENT}"
            )
        if origin.doc_id == intruder.doc_id:
            raise DataError("origin and intruder must be different documents")
        self.origin, self.intruder, self.model = origin, intruder, model
        self.offset, self.prefix = origin.num_sentences, f"{intruder.doc_id}::"
        pool = eligible_intruder_events(intruder, cfg.intruder_kind)
        by_key = sorted(range(len(pool)), key=lambda i: (pool[i].sentence_index, pool[i].id))
        self.moved = [pool[i] for i in by_key]
        self.entities = sorted(intruder.entities, key=attrgetter("sentence_index"))
        rank = np.empty(len(pool), dtype=np.intp)
        rank[by_key] = np.arange(len(pool))  # self.rank[j]: where the j-th inserted event sits in self.moved
        self.rank = rank[_derived_rng(cfg.seed, origin.doc_id, intruder.doc_id).permutation(len(pool))]
        taken = {m.id for m in (*origin.events, *origin.entities)}
        clashing = {en.sentence_index for en in self.entities if self.prefix + en.id in taken}
        self.clashes = np.array(
            [self.prefix + ev.id in taken or ev.sentence_index in clashing for ev in self.moved], dtype=bool
        )
        events = [*origin.events, *self.moved]
        self.codes = lemma_codes(events)
        if model is not None:  # the rows under the model's vocabularies, normalized once under its tables
            events_vocab, entities_vocab = plan_vocabularies(model)
            entities = [*origin.entities, *self.entities] if entities_vocab is not None else []
            self.rows_v = events_vocab.rows([ev.head_lemma for ev in events])
            keys = [en.entity_key for en in entities]
            self.rows_e = entities_vocab.rows(keys) if entities_vocab is not None else np.zeros(0, np.intp)
            self.units_v = normalized_rows(model.event_table.vectors[self.rows_v])
            self.units_e = normalized_rows(model.entity_table.vectors[self.rows_e])
            self.sent_v = np.array([ev.sentence_index for ev in events], dtype=np.intp)
            self.sent_e = np.array([en.sentence_index for en in entities], dtype=np.intp)
            self.sent_v[len(origin.events) :] += self.offset
            self.sent_e[len(origin.entities) :] += self.offset
            # the mask runs over the sentences the mentions use, not over every sentence the documents declare
            used, slots = np.unique(np.concatenate((self.sent_v, self.sent_e)), return_inverse=True)
            self.slots_v, self.slots_e = slots[: len(events)], slots[len(events) :]
            self.used = used < self.offset  # the origin's sentences

    def mix(self, n_intruders: int) -> IntrusionInstance:
        """Mix the origin with the first ``n_intruders`` intruder events and their sentences' entities.

        With a model, the instance carries the mixed document's plan under the
        model's vocabularies and tables; without one, its plan is None.
        """
        n_orig, n_moved = len(self.origin.events), len(self.moved)
        if not 0 <= n_intruders <= n_moved:
            raise DataError(
                f"intruder doc {self.intruder.doc_id!r} has {n_moved} eligible events, asked for {n_intruders}"
            )
        chosen = np.sort(self.rank[:n_intruders])
        if self.clashes[chosen].any():
            _check_mixed(self._document(chosen))  # raises, naming the first duplicate id
        events = np.concatenate((np.arange(n_orig), n_orig + chosen))
        frequency = lemma_counts(self.codes[events])
        plan = None
        if self.model is not None:
            sentences, used = self.sent_v[events], self.used.copy()
            used[self.slots_v[events]] = True
            entities = np.flatnonzero(used[self.slots_e])
            tables = (self.model.event_table, self.model.entity_table)
            units = (*tables, *(a[events] for a in self.units_v), *(a[entities] for a in self.units_e))
            rows_e, entity_sentences = self.rows_e[entities], self.sent_e[entities]
            plan = make_plan(self.rows_v[events], rows_e, sentences, entity_sentences, frequency, units)
        return IntrusionInstance(
            origin_doc_id=self.origin.doc_id,
            intruder_doc_id=self.intruder.doc_id,
            origin_flags=np.arange(n_orig + n_intruders) < n_orig,
            salient_origin_flags=np.concatenate([self.origin_salient, np.zeros(n_intruders, dtype=bool)]),
            frequency=frequency,
            build=partial(self._document, chosen),
            plan=plan,
        )

    def _document(self, chosen: np.ndarray) -> Document:
        origin, prefix, offset = self.origin, self.prefix, self.offset
        moved = [self.moved[i] for i in chosen]
        sentences = {ev.sentence_index for ev in moved}
        return Document(
            doc_id=f"{origin.doc_id}+{self.intruder.doc_id}",
            num_sentences=origin.num_sentences + self.intruder.num_sentences,
            events=(*origin.events, *(
                EventMention(
                    prefix + ev.id, ev.head_lemma, ev.surface, ev.sentence_index + offset, ev.frame, ev.salient
                )
                for ev in moved
            )),
            entities=(*origin.entities, *(
                EntityMention(prefix + en.id, en.entity_key, en.sentence_index + offset)
                for en in self.entities
                if en.sentence_index in sentences
            )),
            abstract_lemmas=origin.abstract_lemmas,
        )


def build_instance(
    origin: Document, intruder: Document, cfg: IntrusionConfig, n_intruders: int
) -> IntrusionInstance:
    """Mix the origin with the first ``n_intruders`` eligible intruder events.

    The eligible events are shuffled once per (seed, origin, intruder) triple,
    so growing ``n_intruders`` extends a fixed insertion order.  Each chosen
    event brings along the entities from its source sentence.  The mixed
    document is built and checked here.
    """
    instance = _PairMixer(origin, intruder, cfg).mix(n_intruders)
    _check_mixed(instance.mixed)
    return instance


@dataclass(frozen=True)
class FractionResult:
    fraction: float
    auc: float
    sa_auc: float
    frequency_sa_auc: float
    n_pairs: int


@dataclass
class StudyResult:
    rows: list[FractionResult]

    def to_csv(self, path: str | Path) -> None:
        write_csv([f.name for f in fields(FractionResult)], map(astuple, self.rows), path)


def run_study_with_scorer(
    corpus: Corpus, score_fn: Callable[[IntrusionInstance], np.ndarray], cfg: IntrusionConfig
) -> StudyResult:
    """Sample (origin, intruder) pairs and average AUC/SA-AUC per insertion fraction, scoring
    each instance alone; with no model to plan under, every instance's ``plan`` is None."""
    return _run_study(corpus, score_fn, cfg)


def _run_study(
    corpus: Corpus,
    score_fn: Callable[[IntrusionInstance], np.ndarray],
    cfg: IntrusionConfig,
    model: KCEModel | None = None,
) -> StudyResult:
    """``run_study_with_scorer`` over instances that carry their plan under ``model``."""
    origins = [d for d in corpus.documents if np.count_nonzero(salience_labels(d)) >= MIN_ORIGIN_SALIENT]
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
    for doc in {id(doc): doc for pair in pairs for doc in pair}.values():  # what the mixes are built on
        problems = validate_document(doc)
        if problems:
            raise DataError(problems[0])

    # Every origin has salient events and every instance mixes in at least one intruder
    # (a fraction > 0 of a non-empty pool), so each AUC sees both classes.
    sums = np.zeros((len(cfg.fractions), 3))
    for origin, intruder in pairs:
        pair = _PairMixer(origin, intruder, cfg, model)
        for i, fraction in enumerate(cfg.fractions):
            instance = pair.mix(math.ceil(fraction * len(pair.moved)))
            scores = np.asarray(score_fn(instance), dtype=np.float64)
            if scores.shape != instance.origin_flags.shape:
                raise DataError("scorer returned a vector not matching the mixed event list")
            finite = np.isfinite(scores)
            if not finite.all():
                raise NumericError(
                    f"non-finite score for intrusion instance {origin.doc_id}+{intruder.doc_id} "
                    f"at fraction {fraction} ({len(scores) - np.count_nonzero(finite)} of {len(scores)} scores)"
                )
            origin_flags = instance.origin_flags
            keep = ~origin_flags | instance.salient_origin_flags  # SA-AUC: intruders and salient origins
            sums[i] += (
                auc_metric(scores, origin_flags),
                auc_metric(scores[keep], origin_flags[keep]),
                auc_metric(instance.frequency[keep], origin_flags[keep]),
            )

    means = sums / cfg.num_pairs
    rows = [
        FractionResult(fraction, float(auc), float(sa_auc), float(frequency_sa_auc), cfg.num_pairs)
        for fraction, (auc, sa_auc, frequency_sa_auc) in zip(cfg.fractions, means)
    ]
    return StudyResult(rows)


def run_study(corpus: Corpus, model: KCEModel, cfg: IntrusionConfig) -> StudyResult:
    """Intrusion study for a kernel centrality model.

    The study scores each instance's plan with a copy of the model whose
    feature weights are zero except frequency's, recounted on each mixed
    document, so the model leans on its kernel evidence.
    """
    if not isinstance(model, KCEModel) or model.variant not in KCE_VARIANTS:
        raise DataError("intrusion studies score with a kernel centrality model")
    frequency_only = replace(model, w_f=np.concatenate([model.w_f[:1], np.zeros(len(model.w_f) - 1)]))

    return _run_study(corpus, lambda instance: model_scores(frequency_only, instance.plan), cfg, frequency_only)

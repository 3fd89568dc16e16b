"""Candidate filtering and abstract-based salience labeling.

An event mention is labeled salient when its head lemma occurs in the
document's abstract lemma set.  Before labeling, trivially uninformative
triggers (light verbs and reporting verbs) are dropped; an optional frame
whitelist restricts candidates further when configured.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

from .corpus import Corpus, Document
from .errors import DataError, config_from_json, read_json

# Common light verbs whose triggers carry little event content on their own.
LIGHT_VERBS = frozenset(
    {
        "appear", "be", "become", "do", "have", "seem", "get", "give",
        "go", "keep", "make", "put", "set", "take",
    }
)

# Speech-act verbs: the reported content, not the act of reporting, matters.
REPORTING_VERBS = frozenset({"argue", "claim", "say", "suggest", "tell"})


@dataclass(frozen=True)
class FilterConfig:
    """Candidate filter: frame whitelist (empty = disabled) plus verb stoplists."""

    event_frames: frozenset[str] = frozenset()
    light_verbs: frozenset[str] = LIGHT_VERBS
    reporting_verbs: frozenset[str] = REPORTING_VERBS

    def __post_init__(self) -> None:
        for name in ("event_frames", "light_verbs", "reporting_verbs"):
            vals = getattr(self, name)
            object.__setattr__(self, name, frozenset(v.lower() for v in vals))


_FILTER_RULES = dict.fromkeys(
    ("event_frames", "light_verbs", "reporting_verbs"),
    (lambda v: isinstance(v, list) and all(isinstance(s, str) for s in v), "a list of strings"),
)


def load_filter_config(path: str | Path) -> FilterConfig:
    return config_from_json(FilterConfig(), read_json(path, "filter config"), _FILTER_RULES, "filter config")


def filter_candidates(doc: Document, cfg: FilterConfig) -> Document:
    """Drop stoplisted triggers; when a frame whitelist is set, keep only listed frames."""
    stop = cfg.light_verbs | cfg.reporting_verbs
    kept = []
    for ev in doc.events:
        if ev.head_lemma in stop:
            continue
        # config frame names are stored lowercased, so compare case-insensitively
        if cfg.event_frames and (ev.frame is None or ev.frame.lower() not in cfg.event_frames):
            continue
        kept.append(ev)
    return replace(doc, events=tuple(kept))


def label_salience(doc: Document) -> Document:
    """Set each event's salient flag by exact lemma membership in the abstract set."""
    if doc.abstract_lemmas is None:
        raise DataError(f"doc {doc.doc_id!r}: cannot label salience without abstract_lemmas")
    events = tuple(
        replace(ev, salient=ev.head_lemma in doc.abstract_lemmas) for ev in doc.events
    )
    return replace(doc, events=events)


@dataclass(frozen=True)
class CorpusStats:
    n_docs: int
    events_per_doc: float
    distinct_event_lemmas: int
    salience_rate: float


def corpus_stats(corpus: Corpus) -> CorpusStats:
    n_docs = len(corpus.documents)
    n_events = sum(len(d.events) for d in corpus.documents)
    n_salient = sum(1 for d in corpus.documents for ev in d.events if ev.salient)
    lemmas = {ev.head_lemma for d in corpus.documents for ev in d.events}
    return CorpusStats(
        n_docs=n_docs,
        events_per_doc=n_events / n_docs if n_docs else 0.0,
        distinct_event_lemmas=len(lemmas),
        salience_rate=n_salient / n_events if n_events else 0.0,
    )

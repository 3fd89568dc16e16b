import json

import numpy as np
import pytest

from helpers import random_corpus
from salience.annotate import (
    LIGHT_VERBS,
    REPORTING_VERBS,
    corpus_stats,
    filter_candidates,
    label_salience,
    load_filter_config,
    FilterConfig,
)
from salience.corpus import Corpus, Document, EventMention
from salience.errors import DataError


def doc_with_lemmas(lemmas, frames=None, abstract=frozenset()):
    frames = frames or [None] * len(lemmas)
    events = tuple(
        EventMention(
            id=f"e{i}", head_lemma=lem, surface=lem, sentence_index=0, frame=frames[i], salient=None
        )
        for i, lem in enumerate(lemmas)
    )
    return Document(doc_id="d", num_sentences=1, events=events, abstract_lemmas=abstract)


def test_light_and_reporting_verbs_are_dropped():
    doc = doc_with_lemmas(["take", "say", "elect", "be", "argue"])
    kept = filter_candidates(doc, FilterConfig())
    assert [e.head_lemma for e in kept.events] == ["elect"]


def test_stoplists_match_expected_inventory():
    assert "seem" in LIGHT_VERBS and "suggest" in REPORTING_VERBS
    assert len(LIGHT_VERBS) == 14 and len(REPORTING_VERBS) == 5


def test_frame_whitelist_only_applies_when_non_empty():
    doc = doc_with_lemmas(["attack", "retreat"], frames=["Attack", None])
    cfg_all = FilterConfig()
    assert len(filter_candidates(doc, cfg_all).events) == 2
    cfg_frames = FilterConfig(
        light_verbs=cfg_all.light_verbs,
        reporting_verbs=cfg_all.reporting_verbs,
        event_frames=frozenset({"attack"}),
    )
    kept = filter_candidates(doc, cfg_frames)
    # events without a frame fail a non-empty whitelist
    assert [e.head_lemma for e in kept.events] == ["attack"]


def test_filter_is_idempotent():
    rng = np.random.default_rng(0)
    corpus = random_corpus(rng, n_docs=4, labeled=False)
    cfg = FilterConfig()
    once = [filter_candidates(d, cfg) for d in corpus.documents]
    twice = [filter_candidates(d, cfg) for d in once]
    assert once == twice


def test_label_salience_is_exact_string_match():
    doc = doc_with_lemmas(["Elect", "elect", "electing"], abstract=frozenset({"elect"}))
    labeled = label_salience(doc)
    assert [e.salient for e in labeled.events] == [False, True, False]


def test_label_salience_requires_abstract():
    doc = doc_with_lemmas(["elect"], abstract=None)
    with pytest.raises(DataError, match="d"):
        label_salience(doc)


def test_label_salience_idempotent():
    doc = doc_with_lemmas(["elect", "vote"], abstract=frozenset({"vote"}))
    once = label_salience(doc)
    assert label_salience(once) == once


def test_load_filter_config_round_trip(tmp_path):
    path = tmp_path / "filters.json"
    path.write_text(
        json.dumps(
            {
                "light_verbs": ["Make", "do"],
                "reporting_verbs": ["say"],
                "event_frames": ["Attack"],
            }
        ),
        encoding="utf-8",
    )
    cfg = load_filter_config(path)
    assert cfg.light_verbs == frozenset({"make", "do"})
    assert cfg.event_frames == frozenset({"attack"})


def test_load_filter_config_type_errors(tmp_path):
    path = tmp_path / "filters.json"
    path.write_text(json.dumps({"light_verbs": "make"}), encoding="utf-8")
    with pytest.raises(DataError, match="light_verbs"):
        load_filter_config(path)


def test_load_filter_config_keeps_the_defaults_of_absent_keys(tmp_path):
    path = tmp_path / "filters.json"
    path.write_text(json.dumps({"reporting_verbs": ["Say"]}), encoding="utf-8")
    assert load_filter_config(path) == FilterConfig(reporting_verbs=frozenset({"say"}))


def test_corpus_stats_counts():
    doc_a = Document(
        doc_id="a",
        num_sentences=2,
        events=(
            EventMention(id="e1", head_lemma="elect", surface="x", sentence_index=0, salient=True),
            EventMention(id="e2", head_lemma="elect", surface="x", sentence_index=1, salient=False),
        ),
        abstract_lemmas=frozenset({"elect"}),
    )
    stats = corpus_stats(Corpus(documents=(doc_a,)))
    assert stats.n_docs == 1
    assert stats.events_per_doc == 2.0
    assert stats.salience_rate == 0.5
    assert stats.distinct_event_lemmas == 1


def test_corpus_stats_empty():
    stats = corpus_stats(Corpus(documents=()))
    assert stats.n_docs == 0 and stats.salience_rate == 0.0

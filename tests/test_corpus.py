import json
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_corpus, random_document
from salience.corpus import (
    Corpus,
    Document,
    EntityMention,
    EventMention,
    document_from_json,
    load_corpus,
    save_corpus,
    validate_document,
)
from salience.errors import DataError


def make_doc(**overrides):
    base = dict(
        doc_id="d1",
        num_sentences=3,
        events=(
            EventMention(id="e1", head_lemma="elect", surface="elected", sentence_index=0, salient=True),
            EventMention(id="e2", head_lemma="vote", surface="votes", sentence_index=2, salient=False),
        ),
        entities=(EntityMention(id="n1", entity_key="Q1", sentence_index=0),),
        abstract_lemmas=frozenset({"elect"}),
    )
    base.update(overrides)
    return Document(**base)


def test_valid_document_passes():
    assert validate_document(make_doc()) == []


def test_duplicate_ids_across_events_and_entities():
    doc = make_doc(entities=(EntityMention(id="e1", entity_key="Q1", sentence_index=0),))
    problems = validate_document(doc)
    assert any("e1" in p for p in problems)


def test_sentence_index_out_of_range():
    doc = make_doc(
        events=(EventMention(id="e1", head_lemma="x", surface="x", sentence_index=3, salient=None),),
        abstract_lemmas=None,
    )
    assert any("sentence_index" in p for p in problems_of(doc))


def problems_of(doc):
    return validate_document(doc)


def test_events_must_be_ordered_by_sentence():
    doc = make_doc(
        events=(
            EventMention(id="e1", head_lemma="a", surface="a", sentence_index=2, salient=None),
            EventMention(id="e2", head_lemma="b", surface="b", sentence_index=0, salient=None),
        ),
        abstract_lemmas=None,
    )
    assert any("nondecreasing" in p or "order" in p for p in problems_of(doc))


def test_partial_labels_rejected():
    doc = make_doc(
        events=(
            EventMention(id="e1", head_lemma="a", surface="a", sentence_index=0, salient=True),
            EventMention(id="e2", head_lemma="b", surface="b", sentence_index=1, salient=None),
        )
    )
    assert any("salient" in p for p in problems_of(doc))


def test_empty_or_spacey_lemma_rejected():
    for bad in ("", "two words", " lead"):
        doc = make_doc(
            events=(EventMention(id="e1", head_lemma=bad, surface="x", sentence_index=0, salient=True),)
        )
        assert problems_of(doc), bad


def test_document_from_json_type_errors_name_the_field():
    payload = {
        "doc_id": "d9",
        "num_sentences": "three",
        "events": [],
        "entities": [],
        "abstract_lemmas": None,
    }
    with pytest.raises(DataError, match="num_sentences"):
        document_from_json(payload)


def test_document_from_json_rejects_bool_for_int():
    payload = {
        "doc_id": "d9",
        "num_sentences": True,
        "events": [],
        "entities": [],
        "abstract_lemmas": None,
    }
    with pytest.raises(DataError, match="num_sentences"):
        document_from_json(payload)


def test_round_trip_bytes(tmp_path):
    rng = np.random.default_rng(3)
    corpus = random_corpus(rng, n_docs=6)
    p1 = tmp_path / "a.jsonl"
    p2 = tmp_path / "b.jsonl"
    save_corpus(corpus, p1)
    save_corpus(load_corpus(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_save_is_compact_jsonl(tmp_path):
    rng = np.random.default_rng(4)
    corpus = random_corpus(rng, n_docs=2)
    path = tmp_path / "c.jsonl"
    save_corpus(corpus, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 2
    for line in lines:
        obj = json.loads(line)
        assert list(obj)[:2] == ["doc_id", "num_sentences"]
        assert ": " not in line and ", " not in line


def test_load_names_file_and_line_on_bad_json(tmp_path):
    rng = np.random.default_rng(9)
    good = tmp_path / "good.jsonl"
    save_corpus(Corpus(documents=(random_document(rng, doc_id="ok"),)), good)
    path = tmp_path / "bad.jsonl"
    path.write_text(good.read_text(encoding="utf-8") + "{broken\n", encoding="utf-8")
    with pytest.raises(DataError) as err:
        load_corpus(path)
    assert "line 2" in str(err.value) or ":2" in str(err.value)


def test_load_rejects_duplicate_doc_ids(tmp_path):
    rng = np.random.default_rng(5)
    doc = random_document(rng, doc_id="same")
    path = tmp_path / "dup.jsonl"
    save_corpus(Corpus(documents=(doc,)), path)
    path.write_text(path.read_text(encoding="utf-8") * 2, encoding="utf-8")
    with pytest.raises(DataError, match="same"):
        load_corpus(path)


def test_unicode_survives_round_trip(tmp_path):
    doc = make_doc(
        events=(
            EventMention(id="e1", head_lemma="пройти", surface="прошёл", sentence_index=0, salient=True),
        ),
        abstract_lemmas=frozenset({"пройти"}),
    )
    path = tmp_path / "u.jsonl"
    save_corpus(Corpus(documents=(doc,)), path)
    assert "пройти" in path.read_text(encoding="utf-8")
    loaded = load_corpus(path)
    assert loaded.documents[0].events[0].head_lemma == "пройти"


def test_corpus_split_tag_checked():
    with pytest.raises(DataError):
        Corpus(documents=(), split_tag="training")


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), n_events=st.integers(0, 8), n_entities=st.integers(0, 5))
def test_generated_documents_always_validate(seed, n_events, n_entities):
    rng = np.random.default_rng(seed)
    doc = random_document(rng, n_events=n_events, n_entities=n_entities, labeled=bool(seed % 2) and n_events > 0)
    assert validate_document(doc) == []


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_json_round_trip_identity(seed):
    rng = np.random.default_rng(seed)
    doc = random_document(rng, n_events=int(rng.integers(0, 6)))
    assert document_from_json(json.loads(json.dumps(doc_to_obj(doc)))) == doc


def doc_to_obj(doc):
    from salience.corpus import document_to_json

    return document_to_json(doc)


def test_validate_document_whitespace_rule_matches_isspace_for_every_code_point():
    chars = [chr(cp) for cp in range(sys.maxunicode + 1)]
    spaces = [c for c in chars if c.isspace()]
    others = "".join(c for c in chars if not c.isspace())
    # each whitespace code point alone must be flagged; no run of the others may be
    lemmas = spaces + [others[i : i + 256] for i in range(0, len(others), 256)]
    events = tuple(
        EventMention(id=f"e{i}", head_lemma=lemma, surface="x", sentence_index=0)
        for i, lemma in enumerate(lemmas)
    )
    problems = validate_document(Document(doc_id="d", num_sentences=1, events=events))
    assert problems == [
        f"doc 'd' event 'e{i}': head_lemma must be non-empty without whitespace" for i in range(len(spaces))
    ]


@pytest.mark.parametrize("lemma", ["", " ", "a b", "ab\u2003", "\u200b", "a\x1cb", "ok"])
def test_validate_document_rejects_empty_or_spaced_lemmas(lemma):
    doc = Document(
        doc_id="d",
        num_sentences=1,
        events=(EventMention(id="e0", head_lemma=lemma, surface="x", sentence_index=0),),
    )
    problems = validate_document(doc)
    bad = lemma == "" or any(c.isspace() for c in lemma)
    assert problems == (["doc 'd' event 'e0': head_lemma must be non-empty without whitespace"] if bad else [])

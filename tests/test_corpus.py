import dataclasses
import json
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_corpus, random_document
from oracles import document_from_json_reference, validate_document_reference, write_jsonl_reference
from salience.corpus import (
    Corpus,
    Document,
    EntityMention,
    EventMention,
    document_from_json,
    document_to_json,
    load_corpus,
    salience_labels,
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


def test_load_corpus_skips_blank_lines(tmp_path):
    corpus = random_corpus(np.random.default_rng(5), n_docs=3)
    path = tmp_path / "c.jsonl"
    save_corpus(corpus, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    path.write_text("\n" + "\n \t\n".join(lines) + "\n\n", encoding="utf-8")
    assert load_corpus(path).documents == corpus.documents


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


def test_save_corpus_writes_the_one_dumps_lines(tmp_path):
    """Escape-needing and non-ASCII strings reach the file as one json.dumps per document writes them."""
    odd = ('quote"d', "back\\slash", "ctl\x01", "café", "→")
    events = tuple(
        EventMention(id=f"e{i}", head_lemma=lemma, surface=f"{lemma}\t{i}", sentence_index=0, frame=lemma,
                     salient=i % 2 == 0)
        for i, lemma in enumerate(odd)
    )
    corpus = Corpus(documents=(make_doc(events=events, abstract_lemmas=frozenset(odd)),
                               *random_corpus(np.random.default_rng(2), n_docs=3).documents))
    path, reference = tmp_path / "c.jsonl", tmp_path / "r.jsonl"
    save_corpus(corpus, path)
    write_jsonl_reference(map(document_to_json, corpus.documents), reference)
    assert path.read_bytes() == reference.read_bytes()
    assert load_corpus(path).documents == corpus.documents


def _with_first_head_lemma(tmp_path, lemma: str):
    path = tmp_path / "c.jsonl"
    save_corpus(random_corpus(np.random.default_rng(7), n_docs=2), path)
    lines = path.read_text(encoding="utf-8").splitlines()
    obj = json.loads(lines[1])
    obj["events"][0]["head_lemma"] = lemma
    lines[1] = json.dumps(obj)  # ensure_ascii: every non-ASCII code point becomes a \u escape
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@pytest.mark.parametrize("lemma", ["\ud800", "a\udfffb", "\ude00\ud83d"])
def test_load_corpus_refuses_an_unpaired_surrogate_escape(tmp_path, lemma):
    path = _with_first_head_lemma(tmp_path, lemma)
    with pytest.raises(DataError) as err:
        load_corpus(path)
    assert str(err.value) == f"{path}: line 2: a string holds an unpaired surrogate escape"


def test_load_corpus_reads_a_paired_surrogate_escape(tmp_path):
    path = _with_first_head_lemma(tmp_path, "\U0001f600")
    assert "\\ud83d\\ude00" in path.read_text(encoding="utf-8")
    assert load_corpus(path).documents[1].events[0].head_lemma == "\U0001f600"


def test_salience_labels():
    doc = make_doc()
    labels = salience_labels(doc)
    assert labels.dtype == bool and labels.tolist() == [True, False]
    empty = salience_labels(make_doc(events=()))
    assert empty.dtype == bool and empty.shape == (0,)
    unlabeled = tuple(dataclasses.replace(ev, salient=None) for ev in doc.events)
    with pytest.raises(DataError, match="^doc 'd1' is not salience-labeled$"):
        salience_labels(make_doc(events=unlabeled))


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


# --- the loader against the one-field-per-call reference ---------------------

_VALID = {
    "doc_id": "d1",
    "num_sentences": 4,
    "events": [
        {"id": "e1", "head_lemma": "elect", "surface": "elected", "sentence_index": 0, "frame": "Vote",
         "salient": True},
        {"id": "e2", "head_lemma": "vote", "surface": "votes", "sentence_index": 2, "frame": None,
         "salient": False},
    ],
    "entities": [
        {"id": "n1", "entity_key": "Q1", "sentence_index": 1},
        {"id": "n2", "entity_key": "Q2", "sentence_index": 3},
    ],
    "abstract_lemmas": ["elect"],
}
# one value of each JSON type; a field gets every one whose type it does not hold
_JSON_VALUES = {"null": None, "true": True, "int": 1, "float": 1.5, "str": "x", "list": [], "object": {}}
_DROP = object()


def _with(*changes):
    """A copy of the valid document with each ``(path, value)`` applied; ``_DROP`` drops the key."""
    obj = json.loads(json.dumps(_VALID))
    for path, value in changes:
        *parents, last = path
        target = obj
        for step in parents:
            target = target[step]
        if value is _DROP:
            del target[last]
        else:
            target[last] = value
    return obj


def _mutations():
    places = [(key,) for key in _VALID]
    places += [("events", i, key) for i in (0, 1) for key in _VALID["events"][0]]
    places += [("entities", i, key) for i in (0, 1) for key in _VALID["entities"][0]]
    for place in places:
        name = "/".join(map(str, place))
        yield f"drop-{name}", _with((place, _DROP))
        for type_name, value in _JSON_VALUES.items():
            yield f"{name}={type_name}", _with((place, value))
    for kind in ("events", "entities"):
        for type_name, value in _JSON_VALUES.items():
            if type_name != "object":
                yield f"{kind}/1-entry={type_name}", _with(((kind, 1), value))
    yield "events/1/id=duplicate", _with((("events", 1, "id"), "e1"))
    yield "entities/0/id=event-id", _with((("entities", 0, "id"), "e2"))
    yield "entities/1/id=duplicate", _with((("entities", 1, "id"), "n1"))
    for lemma in ("", " ", "two words", "x ", "\tx"):
        yield f"events/0/head_lemma={lemma!r}", _with((("events", 0, "head_lemma"), lemma))
    for kind, i, value in (("events", 0, -1), ("events", 1, 4), ("entities", 1, 4), ("entities", 0, -2)):
        yield f"{kind}/{i}/sentence_index={value}", _with(((kind, i, "sentence_index"), value))
    yield "events-out-of-order", _with((("events", 0, "sentence_index"), 3))
    yield "events/1/salient=unset", _with((("events", 1, "salient"), None))
    yield "all-salient-unset", _with((("events", 0, "salient"), None), (("events", 1, "salient"), None))
    yield "doc_id=empty", _with((("doc_id",), ""))
    yield "num_sentences=0", _with((("num_sentences",), 0))
    yield "num_sentences=2**62-1", _with((("num_sentences",), 2**62 - 1))
    yield "num_sentences=2**62", _with((("num_sentences",), 2**62))
    yield "num_sentences=2**70+events/1/sentence_index=2**64", _with(
        (("num_sentences",), 2**70), (("events", 1, "sentence_index"), 2**64)
    )
    yield "events/0/id=empty", _with((("events", 0, "id"), ""))
    yield "entities/0/entity_key=empty", _with((("entities", 0, "entity_key"), ""))
    yield "abstract_lemmas=non-string", _with((("abstract_lemmas",), ["elect", 3]))
    # two faults: the one the reference reads first is the one reported
    for keys, prefix in ((list(_VALID), ()), (list(_VALID["events"][0]), ("events", 1)),
                         (list(_VALID["entities"][0]), ("entities", 1))):
        for first, second in zip(keys, keys[1:]):
            # an object is the wrong type for every field
            yield "/".join(map(str, (*prefix, first))) + f"=object+drop-{second}", _with(
                ((*prefix, first), {}), ((*prefix, second), _DROP)
            )
    yield "events/1/id=duplicate+entities/1/sentence_index=str", _with(
        (("events", 1, "id"), "e1"), (("entities", 1, "sentence_index"), "x")
    )
    yield "extra-keys", _with((("events", 0, "extra"), 1), (("extra",), [1]))
    yield "no-mentions", _with((("events",), []), (("entities",), []))


_MUTATIONS = dict(_mutations())


@pytest.mark.parametrize("name", list(_MUTATIONS))
def test_load_corpus_matches_the_reference_loader_on_one_mutation(tmp_path, name):
    obj = _MUTATIONS[name]
    path = tmp_path / "c.jsonl"
    path.write_text(json.dumps(obj) + "\n", encoding="utf-8")
    try:
        expected = document_from_json_reference(obj, where="line 1")
    except DataError as exc:
        with pytest.raises(DataError) as err:
            load_corpus(path)
        assert str(err.value) == str(exc)
    else:
        assert load_corpus(path).documents == (expected,)


def test_loaded_mentions_are_frozen_hashable_and_equal_to_constructed_ones(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text(json.dumps(_VALID) + "\n", encoding="utf-8")
    loaded = load_corpus(path).documents[0]
    built = document_from_json_reference(_VALID)
    assert loaded == built and hash(loaded) == hash(built)
    for got, want in zip(loaded.events + loaded.entities, built.events + built.entities):
        assert type(got) is type(want) and got == want and hash(got) == hash(want)
        assert repr(got) == repr(want) and vars(got) == vars(want)
        with pytest.raises(dataclasses.FrozenInstanceError):
            got.id = "other"


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), faults=st.lists(st.integers(0, 7), max_size=4))
def test_validate_document_lists_the_reference_problems(seed, faults):
    rng = np.random.default_rng(seed)
    doc = random_document(rng, n_events=int(rng.integers(0, 6)), n_entities=int(rng.integers(0, 4)))
    events, entities = list(doc.events), list(doc.entities)
    for fault in faults:
        if fault == 0:
            doc = dataclasses.replace(doc, doc_id="")
        elif fault == 1:
            doc = dataclasses.replace(doc, num_sentences=int(rng.integers(-1, 2)))
        elif fault in (2, 3, 4, 5) and events:
            i = int(rng.integers(0, len(events)))
            change = [
                {"id": rng.choice(["", events[0].id, "n0"])},
                {"head_lemma": rng.choice(["", "a b", " "])},
                {"sentence_index": int(rng.integers(-2, 8))},
                {"salient": None},
            ][fault - 2]
            events[i] = dataclasses.replace(events[i], **change)
        elif fault in (6, 7) and entities:
            j = int(rng.integers(0, len(entities)))
            change = {"id": rng.choice(["", "e0"])} if fault == 6 else {"entity_key": ""}
            entities[j] = dataclasses.replace(entities[j], **change)
    doc = dataclasses.replace(doc, events=tuple(events), entities=tuple(entities))
    assert validate_document(doc) == validate_document_reference(doc)

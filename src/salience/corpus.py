"""Document model and JSONL corpus (de)serialization.

A corpus is one JSON object per line, UTF-8, ``\n`` line endings, no BOM.
Each document carries its event mentions (predicate head words), entity
mentions, and optionally the lemma set of an abstract/summary used for
salience labeling.  Documents are immutable after load; transformations
return new objects.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError, is_int, read_lines, write_jsonl

SPLIT_TAGS = ("train", "dev", "test", "unsplit")
# num_sentences stays below this, so every sentence index fits in int64, and so does the sum of
# two documents' counts that an intrusion mix forms
_MAX_SENTENCES = 2**62


@dataclass(frozen=True)
class EventMention:
    """One event trigger occurrence in a document."""

    id: str
    head_lemma: str
    surface: str
    sentence_index: int
    frame: str | None = None
    salient: bool | None = None


@dataclass(frozen=True)
class EntityMention:
    """One entity occurrence; ``entity_key`` names the entity's lexical form."""

    id: str
    entity_key: str
    sentence_index: int


@dataclass(frozen=True)
class Document:
    doc_id: str
    num_sentences: int
    events: tuple[EventMention, ...]
    entities: tuple[EntityMention, ...] = ()
    abstract_lemmas: frozenset[str] | None = None


@dataclass(frozen=True)
class Corpus:
    documents: tuple[Document, ...]
    split_tag: str = "unsplit"

    def __post_init__(self) -> None:
        if self.split_tag not in SPLIT_TAGS:
            raise DataError(f"unknown split tag {self.split_tag!r}")


def salience_labels(doc: Document) -> np.ndarray:
    """The document's salient flags as a bool array; ``DataError`` if it is unlabeled."""
    labels = [ev.salient for ev in doc.events]
    if None in labels:
        raise DataError(f"doc {doc.doc_id!r} is not salience-labeled")
    return np.array(labels, dtype=bool)  # bool also when empty


def validate_document(doc: Document) -> list[str]:
    """Return a list of invariant violations (empty when the document is well formed)."""
    problems: list[str] = []
    doc_id = doc.doc_id
    if not doc_id:
        problems.append("doc_id: must be non-empty")
    n_sentences = doc.num_sentences
    if n_sentences < 1:
        problems.append(f"doc {doc_id!r}: num_sentences must be >= 1")

    # each message is built only for a mention that breaks a rule
    seen_ids: set[str] = set()
    unordered = False
    unlabeled = 0
    previous = None
    for ev in doc.events:
        ev_id, lemma, sentence = ev.id, ev.head_lemma, ev.sentence_index
        if not ev_id:
            problems.append(f"doc {doc_id!r}: event id must be non-empty")
        elif ev_id in seen_ids:
            problems.append(f"doc {doc_id!r} event {ev_id!r}: duplicate mention id")
        seen_ids.add(ev_id)
        if lemma.split() != [lemma]:  # empty, or holds whitespace
            problems.append(f"doc {doc_id!r} event {ev_id!r}: head_lemma must be non-empty without whitespace")
        if not 0 <= sentence < n_sentences:
            problems.append(f"doc {doc_id!r} event {ev_id!r}: sentence_index {sentence} out of range")
        if previous is not None and previous > sentence:
            unordered = True
        previous = sentence
        if ev.salient is None:
            unlabeled += 1
    for en in doc.entities:
        en_id, sentence = en.id, en.sentence_index
        if not en_id:
            problems.append(f"doc {doc_id!r}: entity id must be non-empty")
        elif en_id in seen_ids:
            problems.append(f"doc {doc_id!r} entity {en_id!r}: duplicate mention id")
        seen_ids.add(en_id)
        if not en.entity_key:
            problems.append(f"doc {doc_id!r} entity {en_id!r}: entity_key must be non-empty")
        if not 0 <= sentence < n_sentences:
            problems.append(f"doc {doc_id!r} entity {en_id!r}: sentence_index {sentence} out of range")

    if unordered:
        problems.append(f"doc {doc_id!r}: events not in nondecreasing sentence_index order")
    if 0 < unlabeled < len(doc.events):
        problems.append(f"doc {doc_id!r}: salient labels must be all set or all unset")
    return problems


def document_to_json(doc: Document) -> dict:
    return {
        "doc_id": doc.doc_id,
        "num_sentences": doc.num_sentences,
        "events": [
            {
                "id": ev.id,
                "head_lemma": ev.head_lemma,
                "surface": ev.surface,
                "sentence_index": ev.sentence_index,
                "frame": ev.frame,
                "salient": ev.salient,
            }
            for ev in doc.events
        ],
        "entities": [
            {"id": en.id, "entity_key": en.entity_key, "sentence_index": en.sentence_index}
            for en in doc.entities
        ],
        "abstract_lemmas": sorted(doc.abstract_lemmas) if doc.abstract_lemmas is not None else None,
    }


def _is_str(val) -> bool:
    return isinstance(val, str)


def _is_list(val) -> bool:
    return isinstance(val, list)


# (key, type check) in the order document_from_json reads them; the mention
# lists are read between "events" and "entities" and after "entities"
_DOC_FIELDS = (
    ("doc_id", _is_str),
    ("num_sentences", is_int),
    ("events", _is_list),
    ("entities", _is_list),
    ("abstract_lemmas", lambda val: val is None or isinstance(val, list)),
)
_EVENT_FIELDS = (
    ("id", _is_str),
    ("head_lemma", _is_str),
    ("surface", _is_str),
    ("sentence_index", is_int),
    ("frame", lambda val: val is None or isinstance(val, str)),
    ("salient", lambda val: val is None or isinstance(val, bool)),
)
_ENTITY_FIELDS = (("id", _is_str), ("entity_key", _is_str), ("sentence_index", is_int))


def _field_error(obj, fields, where: str, entries: str | None = None) -> DataError:
    """The error for the first of ``fields`` that ``obj`` lacks or holds with the wrong type.

    Called only once a check has failed, so the messages cost nothing on valid input.
    ``entries`` names the list ``obj`` came from, which must hold objects.
    """
    if entries is not None and not isinstance(obj, dict):
        return DataError(f"{where}: {entries} entries must be objects")
    for key, valid in fields:
        if key not in obj:
            return DataError(f"{where}: missing field {key!r}")
        if not valid(obj[key]):
            return DataError(f"{where}: field {key!r} has wrong type")
    raise AssertionError(f"{where}: no field is at fault")


def document_from_json(obj: dict, where: str = "document") -> Document:
    """Build a document from its JSON object, checking every field's type and every invariant.

    The mentions are built with the ``object.__setattr__`` calls that the
    frozen dataclass ``__init__`` makes, one per field in field order, without
    the cost of calling ``__init__`` with keywords: the objects are the same.
    """
    doc_id = obj.get("doc_id")
    if not isinstance(doc_id, str):
        raise _field_error(obj, _DOC_FIELDS[:1], where)
    num_sentences = obj.get("num_sentences")
    raw_events = obj.get("events")
    if not (is_int(num_sentences) and isinstance(raw_events, list)):
        raise _field_error(obj, _DOC_FIELDS[1:3], f"doc {doc_id!r}")
    if num_sentences >= _MAX_SENTENCES:
        raise DataError(f"doc {doc_id!r}: num_sentences must be < 2**62, got {num_sentences}")
    new, set_field = object.__new__, object.__setattr__
    events = []
    for raw in raw_events:
        try:
            ev_id, lemma, surface = raw["id"], raw["head_lemma"], raw["surface"]
            sentence, frame, salient = raw["sentence_index"], raw["frame"], raw["salient"]
        except (KeyError, TypeError):  # a missing key, or an entry that is not an object
            raise _field_error(raw, _EVENT_FIELDS, f"doc {doc_id!r}", "events") from None
        # is_int and isinstance(_, bool) spelled out: True and False are the only bools
        if not (
            isinstance(raw, dict)
            and isinstance(ev_id, str)
            and isinstance(lemma, str)
            and isinstance(surface, str)
            and isinstance(sentence, int) and sentence is not True and sentence is not False
            and (frame is None or isinstance(frame, str))
            and (salient is None or salient is True or salient is False)
        ):
            raise _field_error(raw, _EVENT_FIELDS, f"doc {doc_id!r}", "events")
        ev = new(EventMention)
        set_field(ev, "id", ev_id)
        set_field(ev, "head_lemma", lemma)
        set_field(ev, "surface", surface)
        set_field(ev, "sentence_index", sentence)
        set_field(ev, "frame", frame)
        set_field(ev, "salient", salient)
        events.append(ev)
    raw_entities = obj.get("entities")
    if not isinstance(raw_entities, list):
        raise _field_error(obj, _DOC_FIELDS[3:4], f"doc {doc_id!r}")
    entities = []
    for raw in raw_entities:
        try:
            en_id, key, sentence = raw["id"], raw["entity_key"], raw["sentence_index"]
        except (KeyError, TypeError):
            raise _field_error(raw, _ENTITY_FIELDS, f"doc {doc_id!r}", "entities") from None
        if not (
            isinstance(raw, dict)
            and isinstance(en_id, str)
            and isinstance(key, str)
            and isinstance(sentence, int) and sentence is not True and sentence is not False
        ):
            raise _field_error(raw, _ENTITY_FIELDS, f"doc {doc_id!r}", "entities")
        en = new(EntityMention)
        set_field(en, "id", en_id)
        set_field(en, "entity_key", key)
        set_field(en, "sentence_index", sentence)
        entities.append(en)
    lemmas = obj.get("abstract_lemmas")
    if "abstract_lemmas" not in obj or not (lemmas is None or isinstance(lemmas, list)):
        raise _field_error(obj, _DOC_FIELDS[4:], f"doc {doc_id!r}")
    if lemmas is not None:
        if not all(isinstance(x, str) for x in lemmas):
            raise DataError(f"doc {doc_id!r}: abstract_lemmas must be strings")
        lemmas = frozenset(lemmas)
    doc = Document(
        doc_id=doc_id,
        num_sentences=num_sentences,
        events=tuple(events),
        entities=tuple(entities),
        abstract_lemmas=lemmas,
    )
    problems = validate_document(doc)
    if problems:
        raise DataError(problems[0])
    return doc


def load_corpus(path: str | Path, split_tag: str = "unsplit") -> Corpus:
    """Read a JSONL corpus, validating every document.

    Raises DataError naming the file (not UTF-8), the offending line
    (malformed JSON, or a ``\\u`` escape of an unpaired surrogate) or the
    offending doc_id and field (invariant violations).
    """
    docs: list[Document] = []
    seen: set[str] = set()
    for line_no, line in enumerate(read_lines(path, "corpus"), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}: line {line_no}: malformed JSON ({exc.msg})") from exc
        if not isinstance(obj, dict):
            raise DataError(f"{path}: line {line_no}: expected a JSON object")
        # only a \u escape spells a lone surrogate, which no UTF-8 output can hold; the one-character
        # search (a memchr) spares a line without backslashes the slower two-character one
        if "\\" in line and "\\u" in line:
            try:
                json.dumps(obj, ensure_ascii=False).encode()
            except UnicodeEncodeError:
                raise DataError(f"{path}: line {line_no}: a string holds an unpaired surrogate escape") from None
        doc = document_from_json(obj, where=f"line {line_no}")
        if doc.doc_id in seen:
            raise DataError(f"{path}: line {line_no}: duplicate doc_id {doc.doc_id!r}")
        seen.add(doc.doc_id)
        docs.append(doc)
    return Corpus(documents=tuple(docs), split_tag=split_tag)


def save_corpus(corpus: Corpus, path: str | Path) -> None:
    """Write JSONL with a fixed key order so equal corpora produce identical bytes."""
    write_jsonl(map(document_to_json, corpus.documents), path)

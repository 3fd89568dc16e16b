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
from typing import Iterator

from .errors import DataError, read_lines

SPLIT_TAGS = ("train", "dev", "test", "unsplit")


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

    def __len__(self) -> int:
        return len(self.documents)

    def __iter__(self) -> Iterator[Document]:
        return iter(self.documents)


def validate_document(doc: Document) -> list[str]:
    """Return a list of invariant violations (empty when the document is well formed)."""
    problems: list[str] = []
    if not doc.doc_id:
        problems.append("doc_id: must be non-empty")
    if doc.num_sentences < 1:
        problems.append(f"doc {doc.doc_id!r}: num_sentences must be >= 1")

    seen_ids: set[str] = set()
    for ev in doc.events:
        where = f"doc {doc.doc_id!r} event {ev.id!r}"
        if not ev.id:
            problems.append(f"doc {doc.doc_id!r}: event id must be non-empty")
        elif ev.id in seen_ids:
            problems.append(f"{where}: duplicate mention id")
        seen_ids.add(ev.id)
        if ev.head_lemma.split() != [ev.head_lemma]:  # empty, or holds whitespace
            problems.append(f"{where}: head_lemma must be non-empty without whitespace")
        if not 0 <= ev.sentence_index < doc.num_sentences:
            problems.append(f"{where}: sentence_index {ev.sentence_index} out of range")
    for en in doc.entities:
        where = f"doc {doc.doc_id!r} entity {en.id!r}"
        if not en.id:
            problems.append(f"doc {doc.doc_id!r}: entity id must be non-empty")
        elif en.id in seen_ids:
            problems.append(f"{where}: duplicate mention id")
        seen_ids.add(en.id)
        if not en.entity_key:
            problems.append(f"{where}: entity_key must be non-empty")
        if not 0 <= en.sentence_index < doc.num_sentences:
            problems.append(f"{where}: sentence_index {en.sentence_index} out of range")

    order = [ev.sentence_index for ev in doc.events]
    if any(a > b for a, b in zip(order, order[1:])):
        problems.append(f"doc {doc.doc_id!r}: events not in nondecreasing sentence_index order")

    flags = {ev.salient is None for ev in doc.events}
    if len(flags) == 2:
        problems.append(f"doc {doc.doc_id!r}: salient labels must be all set or all unset")
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


def _expect(obj: dict, key: str, kinds, where: str, allow_none: bool = False):
    if key not in obj:
        raise DataError(f"{where}: missing field {key!r}")
    val = obj[key]
    if val is None and allow_none:
        return None
    # bool is an int subclass; reject it where an int is required
    if int in (kinds if isinstance(kinds, tuple) else (kinds,)) and isinstance(val, bool):
        raise DataError(f"{where}: field {key!r} has wrong type")
    if not isinstance(val, kinds):
        raise DataError(f"{where}: field {key!r} has wrong type")
    return val


def document_from_json(obj: dict, where: str = "document") -> Document:
    doc_id = _expect(obj, "doc_id", str, where)
    where = f"doc {doc_id!r}"
    num_sentences = _expect(obj, "num_sentences", int, where)
    events = []
    for raw in _expect(obj, "events", list, where):
        if not isinstance(raw, dict):
            raise DataError(f"{where}: events entries must be objects")
        events.append(
            EventMention(
                id=_expect(raw, "id", str, where),
                head_lemma=_expect(raw, "head_lemma", str, where),
                surface=_expect(raw, "surface", str, where),
                sentence_index=_expect(raw, "sentence_index", int, where),
                frame=_expect(raw, "frame", str, where, allow_none=True),
                salient=_expect(raw, "salient", bool, where, allow_none=True),
            )
        )
    entities = []
    for raw in _expect(obj, "entities", list, where):
        if not isinstance(raw, dict):
            raise DataError(f"{where}: entities entries must be objects")
        entities.append(
            EntityMention(
                id=_expect(raw, "id", str, where),
                entity_key=_expect(raw, "entity_key", str, where),
                sentence_index=_expect(raw, "sentence_index", int, where),
            )
        )
    lemmas = _expect(obj, "abstract_lemmas", list, where, allow_none=True)
    if lemmas is not None:
        if not all(isinstance(x, str) for x in lemmas):
            raise DataError(f"{where}: abstract_lemmas must be strings")
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
    (malformed JSON) or the offending doc_id and field (invariant violations).
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
        doc = document_from_json(obj, where=f"line {line_no}")
        if doc.doc_id in seen:
            raise DataError(f"{path}: line {line_no}: duplicate doc_id {doc.doc_id!r}")
        seen.add(doc.doc_id)
        docs.append(doc)
    return Corpus(documents=tuple(docs), split_tag=split_tag)


def save_corpus(corpus: Corpus, path: str | Path) -> None:
    """Write JSONL with a fixed key order so equal corpora produce identical bytes."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for doc in corpus.documents:
            fh.write(json.dumps(document_to_json(doc), ensure_ascii=False, separators=(",", ":")))
            fh.write("\n")

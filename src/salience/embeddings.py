"""Vocabularies, embedding tables, row normalization, and word-vector files.

Rare tokens (count below ``min_count``) share a single trainable "unknown"
row, which always takes the last index.  Pretrained vectors can be loaded
from the plain-text word2vec format: a ``"<count> <dim>"`` header followed
by ``token v1 .. v<dim>`` rows.
"""
from __future__ import annotations

import base64
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Container, Mapping

import numpy as np

from .corpus import Corpus
from .errors import DataError, ModelFormatError, read_lines

VOCAB_FIELDS = ("event_lemma", "entity_key")


@dataclass(frozen=True)
class Vocabulary:
    token_to_index: dict[str, int]
    unknown_index: int
    size: int

    def lookup(self, token: str) -> int:
        return self.token_to_index.get(token, self.unknown_index)

    def rows(self, tokens: list[str]) -> np.ndarray:
        """The rows of many tokens, looked up through the dict's bound ``get``."""
        get, unknown = self.token_to_index.get, self.unknown_index
        return np.array([get(token, unknown) for token in tokens], dtype=np.intp)

    def tokens_by_index(self) -> list[str]:
        return [t for t, _ in sorted(self.token_to_index.items(), key=lambda kv: kv[1])]


def build_vocab(corpus: Corpus, field_name: str, min_count: int = 2) -> Vocabulary:
    """Count tokens over the corpus; tokens seen >= min_count times get dense indices
    ordered by descending count (ties lexicographic), the rest map to the unknown row."""
    if field_name not in VOCAB_FIELDS:
        raise DataError(f"unknown vocabulary field {field_name!r}; expected one of {VOCAB_FIELDS}")
    if min_count < 1:
        raise DataError(f"min_count must be >= 1, got {min_count}")
    if not corpus.documents:
        raise DataError("cannot build a vocabulary from an empty corpus")
    counts: Counter[str] = Counter()
    for doc in corpus.documents:
        if field_name == "event_lemma":
            counts.update(ev.head_lemma for ev in doc.events)
        else:
            counts.update(en.entity_key for en in doc.entities)
    kept = sorted(
        (tok for tok, c in counts.items() if c >= min_count),
        key=lambda tok: (-counts[tok], tok),
    )
    token_to_index = {tok: i for i, tok in enumerate(kept)}
    return Vocabulary(token_to_index=token_to_index, unknown_index=len(kept), size=len(kept) + 1)


@dataclass(eq=False)
class EmbeddingTable:
    vocabulary: Vocabulary
    dim: int
    vectors: np.ndarray  # (size, dim) float64
    trainable: bool = True

    def row(self, token: str) -> np.ndarray:
        return self.vectors[self.vocabulary.lookup(token)]


def init_embeddings(
    vocab: Vocabulary,
    dim: int = 128,
    seed: int = 0,
    pretrained: Mapping[str, np.ndarray] | str | Path | None = None,
) -> EmbeddingTable:
    """Seeded uniform init in [-0.5/dim, 0.5/dim]; pretrained rows are copied exactly."""
    if dim < 1:
        raise DataError(f"embedding dim must be >= 1, got {dim}")
    rng = np.random.default_rng(seed)
    vectors = rng.uniform(-0.5 / dim, 0.5 / dim, size=(vocab.size, dim))
    if pretrained is not None:
        if isinstance(pretrained, (str, Path)):
            pretrained = load_word_vectors(pretrained, tokens=vocab.token_to_index)
        for token, idx in sorted(vocab.token_to_index.items(), key=lambda kv: kv[1]):
            vec = pretrained.get(token)
            if vec is None:
                continue
            vec = np.asarray(vec, dtype=np.float64)
            if vec.shape != (dim,):
                raise DataError(
                    f"pretrained vector for {token!r} has dim {vec.shape}, table wants ({dim},)"
                )
            vectors[idx] = vec
    return EmbeddingTable(vocabulary=vocab, dim=dim, vectors=vectors, trainable=True)


def normalized_rows(matrix: np.ndarray, out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Row-normalize, into ``out`` if given (``matrix`` itself, say); zero rows stay zero.
    Returns (unit rows, row norms)."""
    norms = np.sqrt(np.einsum("ij,ij->i", matrix, matrix))
    safe = norms + (norms == 0.0)  # 1.0 for a zero norm; adding 0.0 leaves every other norm as it is
    unit = np.divide(matrix, safe[:, None], out=out)
    return unit, norms


def load_word_vectors(path: str | Path, tokens: Container[str] | None = None) -> dict[str, np.ndarray]:
    """Parse text-format word vectors; later duplicates win.

    With ``tokens``, only the rows of those tokens are kept, and only they
    are parsed as numbers: a non-numeric or non-finite entry in any other
    row is never read.  Every row is still split and counted, so a ragged
    row anywhere, or a header count that differs from the number of rows, is
    an error naming the line; so is a bad entry in a kept row.  Bytes that
    are not UTF-8 are an error naming the file.
    """
    vectors: dict[str, np.ndarray] = {}
    lines = read_lines(path, "word vectors")
    header = next(lines, "").split()
    if len(header) != 2:
        raise DataError(f"{path}: line 1: expected '<count> <dim>' header")
    try:
        count, dim = int(header[0]), int(header[1])
    except ValueError as exc:
        raise DataError(f"{path}: line 1: expected integer header fields") from exc
    if dim < 1:
        raise DataError(f"{path}: line 1: dim must be >= 1")
    rows = 0
    for line_no, line in enumerate(lines, start=2):
        parts = line.split()
        if not parts:
            continue
        if len(parts) != dim + 1:
            raise DataError(
                f"{path}: line {line_no}: expected {dim + 1} fields, got {len(parts)}"
            )
        rows += 1
        if tokens is not None and parts[0] not in tokens:
            continue
        try:
            vec = np.fromiter(map(float, parts[1:]), dtype=np.float64, count=dim)
        except ValueError as exc:
            raise DataError(f"{path}: line {line_no}: non-numeric vector entry") from exc
        if not np.isfinite(vec).all():
            raise DataError(f"{path}: line {line_no}: non-finite vector entry")
        vectors[parts[0]] = vec
    if rows != count:
        raise DataError(f"{path}: line 1: header announces {count} rows, the file has {rows}")
    return vectors


def save_word_vectors(vectors: Mapping[str, np.ndarray], path: str | Path) -> None:
    """Write the text format with full float64 precision (17 significant digits)."""
    items = [(token, np.asarray(vec, dtype=np.float64)) for token, vec in vectors.items()]
    if not items:
        raise DataError("refusing to write an empty vector file")
    dim = len(items[0][1])
    for token, vec in items:  # before the file is opened, so a ragged table leaves none
        if vec.shape != (dim,):
            raise DataError(f"vector for {token!r} has dim {vec.shape}, expected ({dim},)")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{len(items)} {dim}\n")
        for token, vec in items:
            fh.write(token + " " + " ".join(format(x, ".17g") for x in vec) + "\n")


def vocab_to_json(vocab: Vocabulary) -> dict:
    return {"tokens": vocab.tokens_by_index(), "unknown_index": vocab.unknown_index}


def vocab_from_json(obj: dict) -> Vocabulary:
    tokens = obj["tokens"]
    unknown_index = obj["unknown_index"]
    if unknown_index != len(tokens):
        raise DataError("vocabulary unknown_index must follow the listed tokens")
    return Vocabulary(
        token_to_index={t: i for i, t in enumerate(tokens)},
        unknown_index=unknown_index,
        size=len(tokens) + 1,
    )


def table_to_json(table: EmbeddingTable) -> dict:
    """The vectors travel as base64 of their row-major little-endian float64 bytes, kept as the
    ``bytes`` that ``errors.write_jsonl`` copies to the file as a JSON string."""
    raw = np.ascontiguousarray(table.vectors, dtype="<f8").tobytes()
    return {
        "vocab": vocab_to_json(table.vocabulary),
        "dim": table.dim,
        "trainable": table.trainable,
        "vectors": base64.b64encode(raw),
    }


def table_from_json(obj: dict) -> EmbeddingTable:
    """Inverse of ``table_to_json``.

    The vectors come back as a writable, C-contiguous, native float64 array.
    """
    vocab = vocab_from_json(obj["vocab"])
    dim = int(obj["dim"])
    try:
        raw = base64.b64decode(obj["vectors"], validate=True)
    except (TypeError, ValueError) as exc:  # binascii.Error is a ValueError
        raise ModelFormatError("vectors must be a base64 string") from exc
    if len(raw) != vocab.size * dim * 8:
        raise ModelFormatError(
            f"vectors hold {len(raw)} bytes, expected {vocab.size} rows x {dim} x 8"
        )
    matrix = np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(vocab.size, dim)
    return EmbeddingTable(vocabulary=vocab, dim=dim, vectors=matrix, trainable=bool(obj["trainable"]))

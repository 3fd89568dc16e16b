import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf, sqrt as mpsqrt

from helpers import random_corpus, toy_vocab
from oracles import cosine, cosine_backward
from salience.corpus import Corpus, Document, EventMention
from salience.embeddings import (
    EmbeddingTable,
    Vocabulary,
    build_vocab,
    init_embeddings,
    load_word_vectors,
    normalized_rows,
    save_word_vectors,
    table_from_json,
    table_to_json,
    vocab_from_json,
    vocab_to_json,
)
from salience.errors import DataError

mp.dps = 60


def mp_cosine(u, v):
    du = sum(mpf(a) * mpf(b) for a, b in zip(u, v))
    nu = mpsqrt(sum(mpf(a) ** 2 for a in u))
    nv = mpsqrt(sum(mpf(b) ** 2 for b in v))
    if nu == 0 or nv == 0:
        return mpf(0)
    return du / (nu * nv)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 10**6), dim=st.integers(1, 24))
def test_cosine_matches_high_precision_oracle(seed, dim):
    rng = np.random.default_rng(seed)
    u = rng.normal(size=dim) * 10.0 ** rng.integers(-3, 4)
    v = rng.normal(size=dim) * 10.0 ** rng.integers(-3, 4)
    got = cosine(u, v)
    want = float(mp_cosine(u, v))
    assert got == pytest.approx(want, abs=1e-12)
    assert -1.0 - 1e-12 <= got <= 1.0 + 1e-12


def test_cosine_zero_vector_is_zero():
    assert cosine(np.zeros(4), np.ones(4)) == 0.0
    assert cosine(np.ones(4), np.zeros(4)) == 0.0


def test_cosine_shape_mismatch():
    with pytest.raises(ValueError):
        cosine(np.ones(3), np.ones(4))


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_cosine_backward_matches_finite_differences(seed):
    rng = np.random.default_rng(seed)
    u = rng.normal(size=5) + 0.1
    v = rng.normal(size=5) + 0.1
    du, dv = cosine_backward(u, v, 1.0)
    step = 1e-6
    for i in range(5):
        e = np.zeros(5)
        e[i] = step
        num = (cosine(u + e, v) - cosine(u - e, v)) / (2 * step)
        assert du[i] == pytest.approx(num, rel=1e-4, abs=1e-7)
        num = (cosine(u, v + e) - cosine(u, v - e)) / (2 * step)
        assert dv[i] == pytest.approx(num, rel=1e-4, abs=1e-7)


def test_cosine_backward_zero_norm_gives_zero_grads():
    du, dv = cosine_backward(np.zeros(3), np.ones(3), 1.0)
    assert not du.any() and not dv.any()


def test_normalized_rows_keeps_zero_rows():
    m = np.array([[3.0, 4.0], [0.0, 0.0]])
    unit, norms = normalized_rows(m)
    assert np.allclose(unit[0], [0.6, 0.8])
    assert norms[0] == 5.0
    assert not unit[1].any() and norms[1] == 0.0


def corpus_with_counts(counts: dict[str, int]) -> Corpus:
    events = []
    i = 0
    for lemma, count in counts.items():
        for _ in range(count):
            events.append(
                EventMention(id=f"e{i}", head_lemma=lemma, surface=lemma, sentence_index=0, salient=None)
            )
            i += 1
    doc = Document(doc_id="d", num_sentences=1, events=tuple(events))
    return Corpus(documents=(doc,))


def test_build_vocab_orders_by_count_then_token():
    corpus = corpus_with_counts({"b": 3, "a": 3, "c": 5, "rare": 1})
    vocab = build_vocab(corpus, "event_lemma", min_count=2)
    assert vocab.tokens_by_index() == ["c", "a", "b"]
    assert vocab.unknown_index == 3
    assert vocab.size == 4
    assert vocab.lookup("rare") == vocab.unknown_index
    assert vocab.lookup("never-seen") == vocab.unknown_index


def test_build_vocab_min_count_default_two():
    corpus = corpus_with_counts({"a": 2, "b": 1})
    vocab = build_vocab(corpus, "event_lemma")
    assert vocab.tokens_by_index() == ["a"]


def test_build_vocab_rejects_unknown_field():
    corpus = corpus_with_counts({"a": 2})
    with pytest.raises(DataError):
        build_vocab(corpus, "surface")


def test_init_embeddings_deterministic_and_range():
    vocab = toy_vocab(["a", "b", "c"])
    t1 = init_embeddings(vocab, dim=16, seed=9)
    t2 = init_embeddings(vocab, dim=16, seed=9)
    assert np.array_equal(t1.vectors, t2.vectors)
    bound = 0.5 / 16
    assert np.all(np.abs(t1.vectors) <= bound)
    assert t1.vectors.shape == (4, 16)


def test_init_embeddings_pretrained_rows_copied_exactly():
    vocab = toy_vocab(["a", "b"])
    pre = {"b": np.array([1.0, -2.0, 3.0]), "zzz": np.array([9.0, 9.0, 9.0])}
    table = init_embeddings(vocab, dim=3, seed=0, pretrained=pre)
    assert np.array_equal(table.row("b"), [1.0, -2.0, 3.0])
    # unlisted tokens keep their random init; unknown pretrained tokens are ignored
    assert np.all(np.abs(table.row("a")) <= 0.5 / 3)


def test_init_embeddings_pretrained_dim_mismatch():
    vocab = toy_vocab(["a"])
    with pytest.raises(DataError):
        init_embeddings(vocab, dim=4, seed=0, pretrained={"a": np.ones(3)})


def test_word_vector_file_round_trip(tmp_path):
    rng = np.random.default_rng(12)
    vecs = {f"tok{i}": rng.normal(size=7) for i in range(5)}
    path = tmp_path / "v.txt"
    save_word_vectors(vecs, path)
    header = path.read_text(encoding="utf-8").splitlines()[0]
    assert header == "5 7"
    loaded = load_word_vectors(path)
    assert set(loaded) == set(vecs)
    for tok in vecs:
        assert np.array_equal(loaded[tok], vecs[tok])


def test_word_vector_ragged_row_names_line(tmp_path):
    path = tmp_path / "v.txt"
    path.write_text("2 3\na 1 2 3\nb 1 2\n", encoding="utf-8")
    with pytest.raises(DataError, match="line 3"):
        load_word_vectors(path)


def test_word_vector_duplicate_last_wins(tmp_path):
    path = tmp_path / "v.txt"
    path.write_text("2 2\na 1 2\na 3 4\n", encoding="utf-8")
    loaded = load_word_vectors(path)
    assert np.array_equal(loaded["a"], [3.0, 4.0])


def test_word_vector_header_count_must_match_rows(tmp_path):
    path = tmp_path / "v.txt"
    path.write_text("5 2\na 1 2\nb 3 4\n", encoding="utf-8")
    with pytest.raises(DataError, match="line 1: header announces 5 rows, the file has 2"):
        load_word_vectors(path)


@pytest.mark.parametrize("entry", ["nan", "inf", "-Infinity"])
def test_word_vector_non_finite_entry_names_line(tmp_path, entry):
    path = tmp_path / "v.txt"
    path.write_text(f"2 2\na 1 2\nb 3 {entry}\n", encoding="utf-8")
    with pytest.raises(DataError, match="line 3: non-finite"):
        load_word_vectors(path)


def test_word_vector_bad_header(tmp_path):
    path = tmp_path / "v.txt"
    path.write_text("banana\na 1 2\n", encoding="utf-8")
    with pytest.raises(DataError, match="header"):
        load_word_vectors(path)


def test_save_word_vectors_refuses_an_empty_or_ragged_table(tmp_path):
    with pytest.raises(DataError, match="empty vector file"):
        save_word_vectors({}, tmp_path / "empty.txt")
    assert not (tmp_path / "empty.txt").exists()
    with pytest.raises(DataError, match=r"vector for 'b' has dim \(2,\), expected \(3,\)"):
        save_word_vectors({"a": np.ones(3), "b": np.ones(2)}, tmp_path / "ragged.txt")


def test_vocab_json_round_trip():
    rng = np.random.default_rng(2)
    corpus = random_corpus(rng, n_docs=4)
    vocab = build_vocab(corpus, "event_lemma", min_count=1)
    again = vocab_from_json(vocab_to_json(vocab))
    assert again == vocab


def test_vocab_from_json_validates_unknown_index():
    with pytest.raises(DataError):
        vocab_from_json({"tokens": ["a", "b"], "unknown_index": 1})


def test_table_json_round_trip():
    vocab = toy_vocab(["a", "b"])
    table = init_embeddings(vocab, dim=4, seed=3)
    again = table_from_json(table_to_json(table))
    assert np.array_equal(again.vectors, table.vectors)
    assert again.vocabulary == table.vocabulary
    assert again.dim == 4


def test_build_vocab_refuses_min_count_below_one():
    corpus = random_corpus(np.random.default_rng(1), n_docs=2)
    for min_count in (0, -3):
        with pytest.raises(DataError, match=f"min_count must be >= 1, got {min_count}"):
            build_vocab(corpus, "event_lemma", min_count=min_count)


def _vector_file(path, rows, count=None):
    path.write_text(f"{len(rows) if count is None else count} 3\n" + "".join(r + "\n" for r in rows), encoding="utf-8")
    return path


def test_init_embeddings_rows_equal_a_full_parse(tmp_path):
    rng = np.random.default_rng(21)
    vocab = toy_vocab(["a", "b", "c", "d"])
    rows = [f"{tok} " + " ".join(format(x, ".17g") for x in rng.normal(size=3)) for tok in "xaybazb"]
    rows.insert(3, "")  # blank lines are skipped, not counted
    path = _vector_file(tmp_path / "v.txt", rows, count=7)
    full = load_word_vectors(path)
    assert sorted(full) == ["a", "b", "x", "y", "z"]
    table = init_embeddings(vocab, dim=3, seed=4, pretrained=path)
    assert np.array_equal(table.vectors, init_embeddings(vocab, dim=3, seed=4, pretrained=full).vectors)
    kept = load_word_vectors(path, tokens=vocab.token_to_index)
    assert sorted(kept) == ["a", "b"]  # the later duplicate of each wins
    assert all(np.array_equal(kept[tok], full[tok]) for tok in kept)


@pytest.mark.parametrize("entry", ["nan", "inf", "oops"])
def test_word_vector_bad_entry_in_an_unused_row_is_never_parsed(tmp_path, entry):
    path = _vector_file(tmp_path / "v.txt", ["a 1 2 3", f"b 1 {entry} 3"])
    with pytest.raises(DataError, match="line 3: non-"):
        load_word_vectors(path)
    assert list(load_word_vectors(path, tokens={"a"})) == ["a"]
    table = init_embeddings(toy_vocab(["a"]), dim=3, seed=0, pretrained=path)
    assert np.array_equal(table.row("a"), [1.0, 2.0, 3.0])


@pytest.mark.parametrize("entry", ["nan", "-inf", "x"])
def test_word_vector_bad_entry_in_a_kept_row_names_the_line(tmp_path, entry):
    path = _vector_file(tmp_path / "v.txt", ["a 1 2 3", f"b 1 {entry} 3"])
    with pytest.raises(DataError, match="line 3: non-"):
        load_word_vectors(path, tokens={"b"})


def test_word_vector_ragged_unused_row_and_header_count_still_fail(tmp_path):
    ragged = _vector_file(tmp_path / "ragged.txt", ["a 1 2 3", "b 1 2"])
    with pytest.raises(DataError, match="line 3: expected 4 fields, got 3"):
        load_word_vectors(ragged, tokens={"a"})
    miscounted = _vector_file(tmp_path / "count.txt", ["a 1 2 3", "b 4 5 6"], count=3)
    with pytest.raises(DataError, match="header announces 3 rows, the file has 2"):
        init_embeddings(toy_vocab(["a"]), dim=3, seed=0, pretrained=miscounted)


# Rows whose fields are not separated by single ASCII spaces are counted as
# str.split() counts them, kept or not, with the same errors and line numbers.
# The odd separator sits between the second and third field, after a space.
def _one_odd(separator):
    return lambda fields: " ".join(fields[:2]) + separator + " ".join(fields[2:])


_SEPARATORS = {
    "tab": _one_odd("\t"),
    "run-of-spaces": _one_odd("  "),
    "leading-blank": lambda fields: " " + " ".join(fields),
    "trailing-blank": lambda fields: " ".join(fields) + " ",
    "no-break-space": _one_odd("\xa0"),
    "em-space": _one_odd("\u2003"),
    "form-feed": _one_odd("\x0c"),
    "unit-separator": _one_odd("\x1f"),
}


@pytest.mark.parametrize("join", _SEPARATORS.values(), ids=_SEPARATORS.keys())
def test_unkept_row_without_single_space_separators_is_split(tmp_path, join):
    good = _vector_file(tmp_path / "good.txt", ["a 1 2 3", join(["b", "4", "5", "6"]), "c 7 8 9"])
    assert list(load_word_vectors(good, tokens={"a"})) == ["a"]
    assert np.array_equal(load_word_vectors(good)["b"], [4.0, 5.0, 6.0])
    for fields, got in ((["b", "4", "5"], 3), (["b", "4", "5", "6", "7"], 5)):
        ragged = _vector_file(tmp_path / "ragged.txt", ["a 1 2 3", join(fields), "c 7 8 9"])
        for tokens in (None, {"a"}):
            with pytest.raises(DataError, match=f"line 3: expected 4 fields, got {got}$"):
                load_word_vectors(ragged, tokens=tokens)


def test_unkept_rows_with_single_spaces_are_counted_like_split(tmp_path):
    rows = ["a 1 2 3", "b 1 2", "c 1 2 3 4", "d", "e 1 2 3"]
    for row in rows[1:4]:
        path = _vector_file(tmp_path / "v.txt", [rows[0], row, rows[4]])
        want = f"line 3: expected 4 fields, got {len(row.split())}$"
        for tokens in (None, {"a"}):
            with pytest.raises(DataError, match=want):
                load_word_vectors(path, tokens=tokens)
    path = _vector_file(tmp_path / "v.txt", [rows[0], "", rows[4]], count=2)  # a blank row is not counted
    assert list(load_word_vectors(path, tokens={"a"})) == ["a"]

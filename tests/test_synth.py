import numpy as np
import pytest

from salience.corpus import validate_document
from salience.embeddings import load_word_vectors, save_word_vectors
from salience.errors import DataError
from salience.synth import SynthConfig, build_pools, generate_corpus, measured_cosine_gap

SMALL = SynthConfig(docs=12, dim=32, seed=3, split="train")


def test_pools_depend_only_on_pool_seed():
    a = build_pools(SynthConfig(docs=5, dim=32, seed=1, pool_seed=7))
    b = build_pools(SynthConfig(docs=900, dim=32, seed=999, pool_seed=7))
    assert a.topic_event_tokens == b.topic_event_tokens
    assert sorted(a.event_vectors) == sorted(b.event_vectors)
    for tok, vec in a.event_vectors.items():
        assert np.array_equal(vec, b.event_vectors[tok])
    c = build_pools(SynthConfig(docs=5, dim=32, seed=1, pool_seed=8))
    assert not np.array_equal(a.event_vectors["t0_ev0"], c.event_vectors["t0_ev0"])


def test_measured_gap_clears_requested_gap():
    pools = build_pools(SynthConfig(dim=128, cosine_gap=0.4))
    assert measured_cosine_gap(pools) >= 0.4


def test_vectors_are_unit_norm():
    pools = build_pools(SynthConfig(dim=64))
    for vec in list(pools.event_vectors.values())[:50]:
        assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-9)


def test_generated_documents_are_valid_and_sized():
    corpus, _ = generate_corpus(SMALL)
    assert corpus.split_tag == "train"
    assert len(corpus.documents) == SMALL.docs
    assert len({doc.doc_id for doc in corpus.documents}) == SMALL.docs
    for doc in corpus.documents:
        assert validate_document(doc) == []
        assert len(doc.events) == SMALL.events_per_doc
        assert len(doc.entities) == SMALL.entities_per_doc
        n_salient = sum(ev.salient for ev in doc.events)
        assert SMALL.salient_low <= n_salient <= SMALL.salient_high


def test_abstract_lemmas_equal_salient_lemmas():
    corpus, _ = generate_corpus(SMALL)
    for doc in corpus.documents:
        planted = {ev.head_lemma for ev in doc.events if ev.salient}
        assert set(doc.abstract_lemmas) == planted
        # the plant never leaks: no non-salient event carries an abstract lemma
        for ev in doc.events:
            assert ev.salient == (ev.head_lemma in doc.abstract_lemmas)


def test_salient_events_repeat_more_often():
    # salient lemmas are drawn from a handful of choices per doc, so they
    # repeat; background fills are near-unique draws from a big pool
    corpus, _ = generate_corpus(SynthConfig(docs=40, dim=16, seed=11))
    sal_freq, other_freq = [], []
    for doc in corpus.documents:
        counts = {}
        for ev in doc.events:
            counts[ev.head_lemma] = counts.get(ev.head_lemma, 0) + 1
        for ev in doc.events:
            (sal_freq if ev.salient else other_freq).append(counts[ev.head_lemma])
    assert np.mean(sal_freq) > np.mean(other_freq) + 0.5


def test_generation_is_deterministic():
    c1, _ = generate_corpus(SMALL)
    c2, _ = generate_corpus(SMALL)
    assert c1 == c2
    c3, _ = generate_corpus(SynthConfig(docs=12, dim=32, seed=4, split="train"))
    assert c3 != c1


def test_every_lemma_has_a_latent_vector():
    corpus, pools = generate_corpus(SMALL)
    for doc in corpus.documents:
        for ev in doc.events:
            assert ev.head_lemma in pools.event_vectors
        for en in doc.entities:
            assert en.entity_key in pools.entity_vectors


def test_pool_vectors_round_trip_as_word_vector_files(tmp_path):
    _, pools = generate_corpus(SynthConfig(docs=3, dim=8, seed=2))
    path = tmp_path / "ev.vec"
    save_word_vectors(pools.event_vectors, path)
    back = load_word_vectors(path)
    assert sorted(back) == sorted(pools.event_vectors)
    for tok, vec in pools.event_vectors.items():
        assert np.allclose(back[tok], vec, atol=1e-12)


def test_config_round_trip_and_load(tmp_path):
    cfg = SynthConfig(docs=7, cosine_gap=0.25, seed=5)
    again = SynthConfig.from_json(cfg.to_json())
    assert again == cfg
    path = tmp_path / "synth.json"
    path.write_text(__import__("json").dumps(cfg.to_json()), encoding="utf-8")
    assert SynthConfig.load(path) == cfg


def test_config_rejects_unknown_fields_and_bad_json(tmp_path):
    with pytest.raises(DataError, match="unknown synth config field"):
        SynthConfig.from_json({"docss": 5})
    bad = tmp_path / "bad.json"
    bad.write_text("{nope", encoding="utf-8")
    with pytest.raises(DataError, match="malformed"):
        SynthConfig.load(bad)


@pytest.mark.parametrize(
    "field, value",
    [
        ("docs", "3"),
        ("docs", True),
        ("dim", 0),
        ("cosine_gap", 1.0),
        ("n_topics", 1),
        ("topic_entity_fraction", float("nan")),
        ("vector_noise", -0.1),
        ("seed", -1),
        ("split", "holdout"),
    ],
)
def test_config_rejects_mistyped_and_out_of_range_fields(field, value):
    with pytest.raises(DataError, match=f"synth config field '{field}' must be"):
        SynthConfig.from_json({field: value})


def test_config_must_be_an_object():
    with pytest.raises(DataError, match="must be a JSON object"):
        SynthConfig.from_json([1])


def test_generation_validates_shape_parameters():
    with pytest.raises(DataError, match="cosine_gap"):
        generate_corpus(SynthConfig(cosine_gap=1.5))
    with pytest.raises(DataError, match="events_per_doc"):
        generate_corpus(SynthConfig(events_per_doc=6))
    with pytest.raises(DataError, match="salient_low"):
        generate_corpus(SynthConfig(salient_low=0))
    with pytest.raises(DataError, match="salient_token_choices"):
        generate_corpus(SynthConfig(salient_token_choices=13))

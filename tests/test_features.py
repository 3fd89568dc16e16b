import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_corpus, random_document, toy_table
from oracles import apply_scaler, cosine, extract_features
from salience.corpus import Corpus, Document, EntityMention, EventMention
from salience.errors import DataError
from salience.features import (
    FEATURE_NAMES,
    FeatureScaler,
    doc_geometry,
    doc_plan,
    feature_matrix,
    fit_scaler,
    make_plan,
    scale_matrix,
    scaler_from_json,
    scaler_to_json,
)


def tables_for(doc, rng, dim=8):
    ev_tokens = sorted({e.head_lemma for e in doc.events}) or ["pad"]
    en_tokens = sorted({n.entity_key for n in doc.entities}) or ["pad"]
    return toy_table(ev_tokens, dim, rng), toy_table(en_tokens, dim, rng)


def brute_features(doc, evt, ent, idx):
    """Loop-based reference: no vectorization, mirrors the documented definitions."""
    event = doc.events[idx]
    freq = sum(1 for e in doc.events if e.head_lemma == event.head_lemma)
    loc = float(event.sentence_index)
    u = evt.row(event.head_lemma)
    votes = [
        cosine(u, evt.row(other.head_lemma))
        for j, other in enumerate(doc.events)
        if j != idx
    ]
    ev_vote = float(np.mean(votes)) if votes else 0.0
    ent_votes = [cosine(u, ent.row(n.entity_key)) for n in doc.entities]
    en_vote = float(np.mean(ent_votes)) if ent_votes else 0.0
    local = [
        cosine(u, ent.row(n.entity_key))
        for n in doc.entities
        if n.sentence_index == event.sentence_index
    ]
    local_vote = float(np.mean(local)) if local else 0.0
    return np.array([freq, loc, ev_vote, en_vote, local_vote])


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**5))
def test_feature_matrix_matches_loop_reference(seed):
    rng = np.random.default_rng(seed)
    doc = random_document(
        rng,
        n_events=int(rng.integers(1, 7)),
        n_entities=int(rng.integers(0, 6)),
        distinct_lemmas=False,
    )
    evt, ent = tables_for(doc, rng)
    got = feature_matrix(doc, evt, ent)
    want = np.stack([brute_features(doc, evt, ent, i) for i in range(len(doc.events))])
    assert got == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("entity_table,n_entities", [(False, 3), (True, 0)])
def test_empty_entity_side_has_the_shapes_and_dtypes_of_zero_entities(entity_table, n_entities):
    """Without an entity table (pagerank) or without entities, the entity fields
    match what the entity branch builds from zero entities."""
    rng = np.random.default_rng(4)
    doc = random_document(rng, n_events=5, n_entities=n_entities)
    evt, ent = tables_for(doc, rng)
    plan = doc_plan(doc, evt.vocabulary, ent.vocabulary if entity_table else None)
    geo = doc_geometry([plan], evt, ent if entity_table else None)
    unit_e, mask = np.zeros((0, evt.dim)), np.zeros((5, 0), dtype=bool)
    want = dict(rows_e=np.zeros(0, np.intp), unit_e=unit_e, norms_e=np.zeros(0),
                sims_ve=geo.unit_v[0] @ unit_e.T, local_mask=mask, local_counts=mask.sum(axis=1))
    for name, value in want.items():
        got = getattr(plan, name) if name.startswith("local") else getattr(geo, name)[0]
        assert (name, got.dtype, got.shape) == (name, value.dtype, value.shape)


def test_a_plan_with_normalized_rows_scores_only_under_its_own_tables():
    rng = np.random.default_rng(4)
    doc = random_document(rng, n_events=5, n_entities=3)
    evt, ent = tables_for(doc, rng)
    plan = doc_plan(doc, evt.vocabulary, ent.vocabulary)
    want = doc_geometry([plan], evt, ent)
    units = (evt, ent, want.unit_v[0], want.norms_v[0], want.unit_e[0], want.norms_e[0])
    entity_sentences = np.array([en.sentence_index for en in doc.entities])
    carried = make_plan(plan.rows_v, plan.rows_e, plan.sentences, entity_sentences, plan.lemma_counts, units)
    got = doc_geometry([carried], evt, ent)
    assert got.sims_vv.tobytes() == want.sims_vv.tobytes() and got.sims_ve.tobytes() == want.sims_ve.tobytes()
    other_evt, other_ent = tables_for(doc, rng)
    for tables in ((other_evt, ent), (evt, other_ent), (evt, None)):
        with pytest.raises(DataError, match="normalized under other tables"):
            doc_geometry([carried], *tables)


def test_extract_features_agrees_with_matrix():
    rng = np.random.default_rng(41)
    doc = random_document(rng, n_events=5, n_entities=3, distinct_lemmas=False)
    evt, ent = tables_for(doc, rng)
    mat = feature_matrix(doc, evt, ent)
    for i, event in enumerate(doc.events):
        fv = extract_features(event, doc, evt, ent)
        assert fv.to_array() == pytest.approx(mat[i], abs=1e-12)


def test_single_event_doc_votes_are_zero():
    doc = Document(
        doc_id="d",
        num_sentences=1,
        events=(EventMention(id="e0", head_lemma="x", surface="x", sentence_index=0),),
    )
    rng = np.random.default_rng(0)
    evt, ent = tables_for(doc, rng)
    row = feature_matrix(doc, evt, ent)[0]
    assert row[2] == 0.0 and row[3] == 0.0 and row[4] == 0.0
    assert row[0] == 1.0


def test_location_is_raw_sentence_index():
    doc = Document(
        doc_id="d",
        num_sentences=9,
        events=(
            EventMention(id="e0", head_lemma="a", surface="a", sentence_index=0),
            EventMention(id="e1", head_lemma="b", surface="b", sentence_index=8),
        ),
    )
    rng = np.random.default_rng(0)
    evt, ent = tables_for(doc, rng)
    assert feature_matrix(doc, evt, ent)[:, 1].tolist() == [0.0, 8.0]


def test_fit_scaler_population_std_and_floor():
    rng = np.random.default_rng(7)
    corpus = random_corpus(rng, n_docs=4, n_events=5, n_entities=3)
    evt, ent = tables_for_corpus(corpus, rng)
    scaler = fit_scaler(corpus, evt, ent)
    rows = np.vstack([feature_matrix(d, evt, ent) for d in corpus.documents])
    assert scaler.means == pytest.approx(rows.mean(axis=0))
    assert scaler.stds == pytest.approx(np.maximum(rows.std(axis=0), 1e-8))
    scaled = scale_matrix(rows, scaler)
    assert scaled.mean(axis=0) == pytest.approx(np.zeros(5), abs=1e-9)


def tables_for_corpus(corpus, rng, dim=8):
    ev_tokens = sorted({e.head_lemma for d in corpus.documents for e in d.events})
    en_tokens = sorted({n.entity_key for d in corpus.documents for n in d.entities}) or ["pad"]
    return toy_table(ev_tokens, dim, rng), toy_table(en_tokens, dim, rng)


def test_fit_scaler_constant_feature_scales_to_zero():
    doc = Document(
        doc_id="d",
        num_sentences=1,
        events=(
            EventMention(id="e0", head_lemma="a", surface="a", sentence_index=0),
            EventMention(id="e1", head_lemma="b", surface="b", sentence_index=0),
        ),
    )
    corpus = Corpus(documents=(doc,))
    rng = np.random.default_rng(5)
    evt, ent = tables_for_corpus(corpus, rng)
    scaler = fit_scaler(corpus, evt, ent)
    scaled = scale_matrix(feature_matrix(doc, evt, ent), scaler)
    # frequency and location are constant across the corpus: scaled exactly 0
    assert scaled[:, 0].tolist() == [0.0, 0.0]
    assert scaled[:, 1].tolist() == [0.0, 0.0]


def test_fit_scaler_requires_events():
    corpus = Corpus(documents=(Document(doc_id="d", num_sentences=1, events=()),))
    rng = np.random.default_rng(0)
    evt, ent = tables_for_corpus_safe(corpus, rng)
    with pytest.raises(DataError):
        fit_scaler(corpus, evt, ent)


def tables_for_corpus_safe(corpus, rng, dim=4):
    return toy_table(["pad"], dim, rng), toy_table(["pad"], dim, rng)


def test_apply_scaler_matches_scale_matrix():
    rng = np.random.default_rng(21)
    doc = random_document(rng, n_events=4, n_entities=2)
    evt, ent = tables_for(doc, rng)
    corpus = Corpus(documents=(doc,))
    scaler = fit_scaler(corpus, evt, ent)
    mat = scale_matrix(feature_matrix(doc, evt, ent), scaler)
    for i, event in enumerate(doc.events):
        fv = apply_scaler(extract_features(event, doc, evt, ent), scaler)
        assert fv.to_array() == pytest.approx(mat[i], abs=1e-12)


def test_scaler_json_round_trip():
    scaler = FeatureScaler(means=np.arange(5.0), stds=np.arange(1.0, 6.0))
    again = scaler_from_json(scaler_to_json(scaler))
    assert np.array_equal(again.means, scaler.means)
    assert np.array_equal(again.stds, scaler.stds)


def test_feature_names_stable():
    assert FEATURE_NAMES == (
        "frequency",
        "sentence_location",
        "event_voting",
        "entity_voting",
        "local_entity_voting",
    )

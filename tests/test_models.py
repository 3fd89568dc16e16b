import json
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from helpers import random_corpus, random_document, toy_table
from oracles import apply_scaler, extract_features, kernel_features, letor_scores
from oracles import pagerank_scores as pagerank_oracle
from salience.corpus import Corpus, Document, EntityMention, EventMention
from salience.embeddings import normalized_rows
from salience.errors import DataError, ModelFormatError, NumericError
from salience.features import fit_scaler
from salience.kernels import default_bank
from salience.models import (
    KCEModel,
    PageRankModel,
    frequency_scores,
    kce_forward,
    load_model,
    location_scores,
    model_plan,
    model_scores,
    new_kce_model,
    new_letor_model,
    pagerank_forward,
    ranked_order,
    save_model,
)


def build_kce(rng, doc, variant="full", w_scale=0.5, dim=8):
    ev_tokens = sorted({e.head_lemma for e in doc.events}) or ["pad"]
    en_tokens = sorted({n.entity_key for n in doc.entities}) or ["pad"]
    evt = toy_table(ev_tokens, dim, rng)
    ent = toy_table(en_tokens, dim, rng)
    # fit over several documents so no feature is constant (keeps stds off the
    # 1e-8 floor, which would amplify last-ulp wobble in the oracle comparison)
    fillers = tuple(
        random_document(rng, doc_id=f"filler-{k}", n_events=4, n_entities=3, distinct_lemmas=False)
        for k in range(2)
    )
    scaler = fit_scaler(Corpus(documents=(doc,) + fillers), evt, ent)
    bank = default_bank()
    model = KCEModel(
        bank=bank,
        w_v=rng.normal(0, w_scale, bank.size),
        w_e=rng.normal(0, w_scale, bank.size) if variant == "full" else np.zeros(bank.size),
        w_f=rng.normal(0, w_scale, 5) if variant != "events_only" else np.zeros(5),
        bias=float(rng.normal()),
        event_table=evt,
        entity_table=ent,
        scaler=scaler,
        variant=variant,
    )
    return model


def compositional_scores(model, doc):
    """Score each event with the already-tested pieces, one event at a time."""
    scores = []
    for i, event in enumerate(doc.events):
        target = model.event_table.row(event.head_lemma)
        others = np.stack(
            [model.event_table.row(e.head_lemma) for j, e in enumerate(doc.events) if j != i]
        ) if len(doc.events) > 1 else np.zeros((0, model.event_table.dim))
        phi_v = kernel_features(target, others, model.bank)
        if doc.entities:
            ent_rows = np.stack([model.entity_table.row(n.entity_key) for n in doc.entities])
        else:
            ent_rows = np.zeros((0, model.entity_table.dim))
        phi_e = kernel_features(target, ent_rows, model.bank)
        feats = apply_scaler(
            extract_features(event, doc, model.event_table, model.entity_table), model.scaler
        ).to_array()
        score = float(model.w_v @ phi_v + model.w_e @ phi_e + model.w_f @ feats + model.bias)
        scores.append(score)
    return np.array(scores)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_kce_forward_matches_compositional_oracle(seed):
    rng = np.random.default_rng(seed)
    doc = random_document(
        rng,
        n_events=int(rng.integers(1, 7)),
        n_entities=int(rng.integers(0, 5)),
        distinct_lemmas=False,
    )
    model = build_kce(rng, doc)
    # a floored std amplifies last-ulp disagreement between the loop-based
    # oracle and the vectorized path by 1e8; those cases are covered by the
    # bitwise consistency test below
    assume(not np.any(model.scaler.stds <= 1e-8))
    got = model_scores(model, doc)
    assert got == pytest.approx(compositional_scores(model, doc), abs=1e-10)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_kce_forward_features_bitwise_equal_scaler_path(seed):
    """The features inside kce_forward must be the exact floats fit_scaler saw."""
    rng = np.random.default_rng(seed)
    doc = random_document(
        rng,
        n_events=int(rng.integers(1, 7)),
        n_entities=int(rng.integers(0, 5)),
        distinct_lemmas=False,
    )
    model = build_kce(rng, doc)
    _, cache = kce_forward(model, [model_plan(model, doc)])
    from salience.features import feature_matrix, scale_matrix

    want = scale_matrix(
        feature_matrix(doc, model.event_table, model.entity_table), model.scaler
    )
    assert np.array_equal(cache.scaled_feats[0], want)


def small_documents(rng):
    """A document without events, one with a single event, and one without entities."""
    single = Document(
        doc_id="single",
        num_sentences=2,
        events=(EventMention(id="e0", head_lemma="a", surface="a", sentence_index=1),),
        entities=(EntityMention(id="n0", entity_key="k", sentence_index=1),),
    )
    return (
        Document(doc_id="empty", num_sentences=1, events=()),
        single,
        random_document(rng, doc_id="entity-free", n_events=5, n_entities=0, distinct_lemmas=False),
    )


@pytest.mark.parametrize("variant", ["full", "events_features", "events_only"])
def test_kce_scores_empty_single_and_entity_free_documents(variant):
    rng = np.random.default_rng(43)
    for doc in small_documents(rng):
        model = build_kce(rng, doc, variant=variant)
        scores, cache = kce_forward(model, [model_plan(model, doc)])  # a stack of one
        n, K = len(doc.events), model.bank.size
        assert scores.shape == (1, n)
        assert cache.sims_vv.shape == (1, n, n) and cache.acts_vv.shape == (1, n, n, K)
        assert cache.phi_v.shape == (1, n, K)
        if variant == "full":
            assert cache.acts_ve.shape == (1, n, len(doc.entities), K) and cache.phi_e.shape == (1, n, K)
        else:  # no w_e block: the entity kernels are never pooled
            assert cache.acts_ve is None and cache.phi_e is None
        assert cache.scaled_feats.shape == (1, n, 5)
        assert scores[0] == pytest.approx(compositional_scores(model, doc), abs=1e-10)


def test_letor_and_pagerank_score_empty_single_and_entity_free_documents():
    rng = np.random.default_rng(47)
    for doc in small_documents(rng):
        kce = build_kce(rng, doc)
        letor = new_letor_model(kce.event_table, kce.entity_table, kce.scaler)
        letor.w_f[:] = rng.normal(size=5)
        letor.bias = float(rng.normal())
        want = [
            apply_scaler(extract_features(ev, doc, kce.event_table, kce.entity_table), kce.scaler).to_array()
            @ letor.w_f
            + letor.bias
            for ev in doc.events
        ]
        got, cache = kce_forward(letor, [model_plan(letor, doc)])
        assert got.shape == (1, len(doc.events))
        assert got[0] == pytest.approx(np.array(want), abs=1e-10)
        assert cache.acts_vv is None and cache.acts_ve is None  # no kernel pooling

        pagerank = PageRankModel(temperature=0.7, combine_lambda=0.3, event_table=kce.event_table)
        got = model_scores(pagerank, doc)
        assert got.shape == (len(doc.events),)
        assert got == pytest.approx(pagerank_oracle(pagerank, doc), abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6), variant=st.sampled_from(["events_only", "events_features"]))
def test_kce_variants_drop_blocks(seed, variant):
    rng = np.random.default_rng(seed)
    doc = random_document(rng, n_events=4, n_entities=3)
    model = build_kce(rng, doc, variant=variant)
    got = model_scores(model, doc)
    assert got == pytest.approx(compositional_scores(model, doc), abs=1e-10)


def test_letor_is_kce_without_kernels():
    rng = np.random.default_rng(11)
    doc = random_document(rng, n_events=5, n_entities=3, distinct_lemmas=False)
    kce = build_kce(rng, doc)
    letor = new_letor_model(kce.event_table, kce.entity_table, kce.scaler)
    letor.w_f[:] = kce.w_f
    letor.bias = kce.bias
    zeroed = KCEModel(
        bank=kce.bank,
        w_v=np.zeros(kce.bank.size),
        w_e=np.zeros(kce.bank.size),
        w_f=kce.w_f,
        bias=kce.bias,
        event_table=kce.event_table,
        entity_table=kce.entity_table,
        scaler=kce.scaler,
        variant="full",
    )
    assert model_scores(letor, doc) == pytest.approx(model_scores(zeroed, doc), abs=1e-12)


def softmax_rows(m):
    shifted = m - m.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def test_pagerank_matches_matrix_oracle():
    rng = np.random.default_rng(3)
    doc = random_document(rng, n_events=6, n_entities=0, distinct_lemmas=False)
    evt = toy_table(sorted({e.head_lemma for e in doc.events}), 8, rng)
    model = PageRankModel(temperature=0.7, combine_lambda=0.4, event_table=evt)
    n = len(doc.events)
    rows = np.stack([evt.row(e.head_lemma) for e in doc.events])
    unit, _ = normalized_rows(rows)
    sims = unit @ unit.T
    logits = sims / 0.7
    np.fill_diagonal(logits, -np.inf)
    trans = softmax_rows(logits)
    walk = trans.T @ np.full(n, 1.0 / n)
    freq = np.array(
        [sum(1 for e in doc.events if e.head_lemma == ev.head_lemma) for ev in doc.events],
        dtype=np.float64,
    )
    want = 0.4 * freq / freq.sum() + 0.6 * walk
    assert model_scores(model, doc) == pytest.approx(want, abs=1e-12)


def test_pagerank_single_event_walk_is_zero():
    doc = Document(
        doc_id="d",
        num_sentences=1,
        events=(EventMention(id="e0", head_lemma="x", surface="x", sentence_index=0),),
    )
    rng = np.random.default_rng(0)
    evt = toy_table(["x"], 4, rng)
    model = PageRankModel(temperature=1.0, combine_lambda=0.25, event_table=evt)
    # frequency part only: 0.25 * 1.0 (normalized) + 0.75 * 0
    assert model_scores(model, doc).tolist() == [0.25]


def test_pagerank_validation():
    rng = np.random.default_rng(0)
    evt = toy_table(["x"], 4, rng)
    with pytest.raises(DataError):
        PageRankModel(temperature=0.0, combine_lambda=0.5, event_table=evt)
    with pytest.raises(DataError):
        PageRankModel(temperature=1.0, combine_lambda=1.5, event_table=evt)


def test_frequency_and_location_baselines():
    doc = Document(
        doc_id="d",
        num_sentences=4,
        events=(
            EventMention(id="e0", head_lemma="a", surface="a", sentence_index=0),
            EventMention(id="e1", head_lemma="b", surface="b", sentence_index=1),
            EventMention(id="e2", head_lemma="a", surface="a", sentence_index=3),
        ),
    )
    assert frequency_scores(doc).tolist() == [2.0, 1.0, 2.0]
    assert location_scores(doc).tolist() == [0.0, -1.0, -2.0]


def test_ranked_order_deterministic_without_rng():
    scores = np.array([1.0, 2.0, 1.0])
    ids = ["c", "a", "b"]
    assert ranked_order(scores, event_ids=ids).tolist() == [1, 2, 0]


def test_ranked_order_random_ties_are_uniform():
    scores = np.zeros(3)
    rng = np.random.default_rng(123)
    counts = {}
    trials = 3000
    for _ in range(trials):
        order = tuple(ranked_order(scores, rng=rng))
        counts[order] = counts.get(order, 0) + 1
    assert len(counts) == 6
    stat, p = chisquare(list(counts.values()))
    assert p > 0.001


def test_save_load_round_trip_kce(tmp_path):
    rng = np.random.default_rng(17)
    doc = random_document(rng, n_events=4, n_entities=3)
    model = build_kce(rng, doc)
    path = tmp_path / "m.json"
    save_model(model, path)
    again = load_model(path, expect="kce")
    assert np.array_equal(again.w_v, model.w_v)
    assert np.array_equal(again.w_e, model.w_e)
    assert np.array_equal(again.w_f, model.w_f)
    assert again.bias == model.bias
    assert np.array_equal(again.event_table.vectors, model.event_table.vectors)
    assert again.variant == model.variant
    assert model_scores(again, doc) == pytest.approx(model_scores(model, doc), abs=0)
    # saving the reloaded model reproduces the file byte-for-byte
    path2 = tmp_path / "m2.json"
    save_model(again, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_save_load_round_trip_letor_and_pagerank(tmp_path):
    rng = np.random.default_rng(23)
    doc = random_document(rng, n_events=4, n_entities=2)
    kce = build_kce(rng, doc)
    letor = new_letor_model(kce.event_table, kce.entity_table, kce.scaler)
    letor.w_f[:] = rng.normal(size=5)
    p1 = tmp_path / "letor.json"
    save_model(letor, p1)
    assert json.loads(p1.read_text(encoding="utf-8"))["model_type"] == "letor"
    letor2 = load_model(p1, expect="letor")
    assert isinstance(letor2, KCEModel) and letor2.variant == "features_only"
    assert np.array_equal(model_scores(letor2, doc), model_scores(letor, doc))

    pr = PageRankModel(temperature=0.9, combine_lambda=0.3, event_table=kce.event_table)
    p2 = tmp_path / "pr.json"
    save_model(pr, p2)
    pr2 = load_model(p2, expect="pagerank")
    assert model_scores(pr2, doc) == pytest.approx(model_scores(pr, doc), abs=0)


def test_load_model_expect_mismatch(tmp_path):
    rng = np.random.default_rng(29)
    doc = random_document(rng, n_events=3, n_entities=2)
    model = build_kce(rng, doc)
    path = tmp_path / "m.json"
    save_model(model, path)
    with pytest.raises(ModelFormatError):
        load_model(path, expect="letor")


def test_load_model_rejects_missing_version(tmp_path):
    path = tmp_path / "m.json"
    path.write_text('{"model_type": "kce"}', encoding="utf-8")
    with pytest.raises(ModelFormatError):
        load_model(path)


def test_load_model_rejects_nonzero_frozen_blocks(tmp_path):
    rng = np.random.default_rng(31)
    doc = random_document(rng, n_events=3, n_entities=2)
    model = build_kce(rng, doc, variant="events_only")
    path = tmp_path / "m.json"
    save_model(model, path)
    saved = path.read_text(encoding="utf-8")
    for block in ("w_e", "w_f"):
        obj = json.loads(saved)
        obj[block][0] = 0.5
        path.write_text(json.dumps(obj), encoding="utf-8")
        with pytest.raises(ModelFormatError, match=f"requires zero {block}"):
            load_model(path)


def _model_of_type(model_type, rng):
    """A kce (full), letor or pagerank model with finite values in every number field."""
    kce = build_kce(rng, random_document(rng, n_events=3, n_entities=2))
    if model_type == "kce":
        return kce
    if model_type == "letor":
        letor = new_letor_model(kce.event_table, kce.entity_table, kce.scaler)
        letor.w_f[:] = rng.normal(size=5)
        return letor
    return PageRankModel(temperature=0.9, combine_lambda=0.3, event_table=kce.event_table)


_WEIGHTED_FIELDS = ("w_f", "bias", "scaler.means", "scaler.stds", "event_table", "entity_table")
# Every number field of the three records, as (model type, field the error names)
NUMBER_FIELDS = [
    *(("kce", name) for name in ("bank.means", "bank.sigmas", "w_v", "w_e", *_WEIGHTED_FIELDS)),
    *(("letor", name) for name in _WEIGHTED_FIELDS),
    *(("pagerank", name) for name in ("temperature", "combine_lambda", "event_table")),
]


@pytest.mark.parametrize("bad", [np.nan, -np.inf], ids=["nan", "minus-infinity"])
@pytest.mark.parametrize("model_type,field", NUMBER_FIELDS, ids=lambda v: v)
def test_save_model_rejects_non_finite(tmp_path, model_type, field, bad):
    """save_model refuses every non-finite number that load_model would refuse, naming it, and writes no file."""
    model = _model_of_type(model_type, np.random.default_rng(37))
    *owners, name = (field + ".vectors" if field.endswith("_table") else field).split(".")
    owner = model
    for attr in owners:
        owner = getattr(owner, attr)
    if isinstance(getattr(owner, name), np.ndarray):
        getattr(owner, name).flat[1] = bad
    else:
        setattr(owner, name, bad)
    with pytest.raises(NumericError, match=rf"model field {re.escape(field)} contains non-finite values"):
        save_model(model, tmp_path / "m.json")
    assert not (tmp_path / "m.json").exists()


def test_save_model_rejects_weights_the_variant_does_not_hold(tmp_path):
    rng = np.random.default_rng(39)
    doc = random_document(rng, n_events=3, n_entities=2)
    kce = build_kce(rng, doc)
    letor = new_letor_model(kce.event_table, kce.entity_table, kce.scaler)
    letor.w_v[0] = 0.5  # the letor record has no place for kernel weights
    with pytest.raises(ModelFormatError, match="requires zero w_v"):
        save_model(letor, tmp_path / "m.json")
    assert not (tmp_path / "m.json").exists()


def test_new_kce_model_refuses_an_unknown_variant():
    rng = np.random.default_rng(40)
    kce = build_kce(rng, random_document(rng, n_events=3, n_entities=2))
    with pytest.raises(DataError, match="unknown variant 'entities_only'"):
        new_kce_model(default_bank(), kce.event_table, kce.entity_table, kce.scaler, variant="entities_only")


def test_save_model_refuses_an_object_that_is_not_a_model(tmp_path):
    with pytest.raises(DataError, match="cannot serialize object of type dict"):
        save_model({"model_type": "kce"}, tmp_path / "m.json")
    assert not (tmp_path / "m.json").exists()


def test_model_scores_dispatch():
    rng = np.random.default_rng(41)
    doc = random_document(rng, n_events=4, n_entities=2)
    kce = build_kce(rng, doc)
    assert np.array_equal(model_scores(kce, doc), kce_forward(kce, [model_plan(kce, doc)])[0][0])
    letor = new_letor_model(kce.event_table, kce.entity_table, kce.scaler)
    letor.w_f[:] = rng.normal(size=5)
    assert np.array_equal(model_scores(letor, doc), letor_scores(letor, doc)[0])
    pagerank = PageRankModel(temperature=0.6, combine_lambda=0.4, event_table=kce.event_table)
    assert np.array_equal(model_scores(pagerank, doc), pagerank_forward(pagerank, [model_plan(pagerank, doc)])[0][0])
    with pytest.raises(DataError, match="cannot score"):
        model_scores(kce.scaler, doc)

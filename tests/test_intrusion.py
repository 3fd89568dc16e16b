import math
from dataclasses import replace

import numpy as np
import pytest

from helpers import random_corpus, toy_table
from oracles import build_instance_reference, feature_zeroed_scores
from salience import intrusion
from salience.corpus import Corpus, Document, EntityMention, EventMention, validate_document
from salience.errors import DataError, NumericError
from salience.features import fit_scaler
from salience.intrusion import (
    INTRUDER_KINDS,
    MIN_ORIGIN_SALIENT,
    IntrusionConfig,
    build_instance,
    eligible_intruder_events,
    run_study,
    run_study_with_scorer,
)
from salience.kernels import default_bank
from salience.models import (
    VARIANT_BLOCKS,
    KCEModel,
    frequency_scores,
    model_scores,
    new_kce_model,
    new_letor_model,
)
from salience.training import TrainConfig, train


def make_doc(doc_id, n_salient, n_nonsalient, n_sentences=6, n_entities=3, lemma_prefix=None):
    prefix = lemma_prefix or doc_id
    events = []
    for i in range(n_salient + n_nonsalient):
        events.append(
            EventMention(
                id=f"e{i:02d}",
                head_lemma=f"{prefix}_l{i}",
                surface=f"{prefix}_l{i}",
                sentence_index=i % n_sentences,
                salient=i < n_salient,
            )
        )
    events.sort(key=lambda e: (e.sentence_index, e.id))
    entities = tuple(
        EntityMention(id=f"n{j}", entity_key=f"{prefix}_k{j}", sentence_index=j % n_sentences)
        for j in range(n_entities)
    )
    return Document(
        doc_id=doc_id,
        num_sentences=n_sentences,
        events=tuple(events),
        entities=entities,
        abstract_lemmas=frozenset(e.head_lemma for e in events if e.salient),
    )


def study_corpus(n_docs=8, n_salient=6, n_nonsalient=6):
    docs = tuple(
        make_doc(f"doc-{d:02d}", n_salient, n_nonsalient) for d in range(n_docs)
    )
    return Corpus(documents=docs)


def test_eligible_intruders_filters_by_kind():
    doc = make_doc("a", 2, 3)
    salient = eligible_intruder_events(doc, "salient_only")
    nonsalient = eligible_intruder_events(doc, "nonsalient_only")
    assert all(e.salient for e in salient) and len(salient) == 2
    assert all(not e.salient for e in nonsalient) and len(nonsalient) == 3


CFG_S = IntrusionConfig(num_pairs=5, intruder_kind="salient_only", seed=0)


def test_build_instance_zero_intruders_is_identity():
    origin = make_doc("a", 5, 3)
    intruder = make_doc("b", 5, 3)
    inst = build_instance(origin, intruder, CFG_S, 0)
    assert inst.mixed.events == origin.events
    assert inst.mixed.entities == origin.entities
    assert inst.origin_flags.sum() == len(origin.events)


def test_build_instance_structure_and_prefixes():
    origin = make_doc("a", 5, 3)
    intruder = make_doc("b", 6, 2)
    cfg = IntrusionConfig(num_pairs=5, intruder_kind="salient_only", seed=4)
    n_intruded = math.ceil(0.5 * 6)
    inst = build_instance(origin, intruder, cfg, n_intruded)
    mixed = inst.mixed
    assert validate_document(mixed) == []
    assert len(mixed.events) == len(origin.events) + n_intruded
    assert inst.origin_flags.sum() == len(origin.events)
    foreign = [e for e in mixed.events if e.id.startswith("b::")]
    assert len(foreign) == n_intruded
    for ev in foreign:
        assert ev.sentence_index >= origin.num_sentences
    # entities from the intruder's source sentences came along, re-keyed
    assert any(n.id.startswith("b::") for n in mixed.entities)
    # origin entities intact
    assert sum(1 for n in mixed.entities if not n.id.startswith("b::")) == len(origin.entities)


def test_build_instance_nested_prefixes_across_fractions():
    origin = make_doc("a", 5, 3)
    intruder = make_doc("b", 6, 2)
    cfg = IntrusionConfig(num_pairs=5, intruder_kind="salient_only", seed=9)
    picks = {}
    for n in (2, 3, 6):
        inst = build_instance(origin, intruder, cfg, n)
        picks[n] = {e.id for e in inst.mixed.events if e.id.startswith("b::")}
    assert picks[2] <= picks[3] <= picks[6]
    assert len(picks[6]) == 6


def test_build_instance_requires_five_salient_origin():
    origin = make_doc("a", 4, 4)
    intruder = make_doc("b", 5, 3)
    with pytest.raises(DataError):
        build_instance(origin, intruder, CFG_S, 2)


def test_build_instance_rejects_same_document():
    doc = make_doc("a", 5, 3)
    with pytest.raises(DataError):
        build_instance(doc, doc, CFG_S, 2)


def test_build_instance_rejects_overdraw():
    origin = make_doc("a", 5, 3)
    intruder = make_doc("b", 2, 1)
    with pytest.raises(DataError, match="eligible"):
        build_instance(origin, intruder, CFG_S, 3)


def test_salient_origin_flags_mark_origin_salient_only():
    origin = make_doc("a", 5, 3)
    intruder = make_doc("b", 5, 3)
    cfg = IntrusionConfig(num_pairs=5, intruder_kind="nonsalient_only", seed=2)
    inst = build_instance(origin, intruder, cfg, 3)
    for flag, sflag, ev in zip(inst.origin_flags, inst.salient_origin_flags, inst.mixed.events):
        if sflag:
            assert flag and ev.salient
        if not flag:
            assert not sflag


def oracle_scorer(instance):
    """Perfect separation: origin events above intruders, salient above rest."""
    return np.array(
        [
            2.0 + (1.0 if sflag else 0.0) if flag else 0.0
            for flag, sflag in zip(instance.origin_flags, instance.salient_origin_flags)
        ]
    )


def test_oracle_scores_pin_auc_to_one():
    corpus = study_corpus()
    cfg = IntrusionConfig(num_pairs=40, intruder_kind="salient_only", seed=0, fractions=(0.2, 0.6, 1.0))
    result = run_study_with_scorer(corpus, oracle_scorer, cfg)
    for row in result.rows:
        assert row.auc == 1.0
        assert row.sa_auc == 1.0
        assert row.n_pairs == 40


def test_random_scores_hover_at_half():
    corpus = study_corpus(n_docs=10)
    rng_holder = {"rng": np.random.default_rng(123)}

    def random_scorer(instance):
        return rng_holder["rng"].random(len(instance.mixed.events))

    cfg = IntrusionConfig(num_pairs=1000, intruder_kind="salient_only", seed=1, fractions=(1.0,))
    result = run_study_with_scorer(corpus, random_scorer, cfg)
    assert result.rows[0].auc == pytest.approx(0.5, abs=0.05)


def test_frequency_sa_auc_uses_recounted_frequency():
    # intruders with repeated lemmas outrank single-mention salient origins
    origin = make_doc("a", 5, 1)
    intruder_events = tuple(
        EventMention(id=f"e{i:02d}", head_lemma="b_common", surface="x", sentence_index=0, salient=False)
        for i in range(4)
    )
    intruder = Document(
        doc_id="b",
        num_sentences=2,
        events=intruder_events,
        abstract_lemmas=frozenset(),
    )
    corpus = Corpus(documents=(origin, intruder))
    cfg = IntrusionConfig(num_pairs=4, intruder_kind="nonsalient_only", seed=3, fractions=(1.0,))
    result = run_study_with_scorer(corpus, oracle_scorer, cfg)
    # oracle AUC stays 1, but recounted frequency ranks the 4 duplicate
    # intruders above every singleton salient origin event
    assert result.rows[0].sa_auc == 1.0
    assert result.rows[0].frequency_sa_auc == 0.0


def test_study_requires_enough_material():
    thin = Corpus(documents=(make_doc("a", 5, 2),))  # nothing to pair with
    cfg = IntrusionConfig(num_pairs=5, intruder_kind="salient_only", seed=0, fractions=(1.0,))
    with pytest.raises(DataError):
        run_study_with_scorer(thin, oracle_scorer, cfg)


def unlabeled(doc):
    return replace(doc, events=tuple(replace(ev, salient=None) for ev in doc.events))


@pytest.mark.parametrize("kind", INTRUDER_KINDS)
def test_study_and_mixing_refuse_an_unlabeled_document(kind):
    # an unlabeled document is neither skipped as an origin nor as an intruder, as evaluate refuses it too
    corpus = study_corpus()
    docs = (*corpus.documents[:3], unlabeled(corpus.documents[3]), *corpus.documents[4:])
    cfg = IntrusionConfig(num_pairs=5, intruder_kind=kind, seed=0, fractions=(1.0,))
    with pytest.raises(DataError, match="doc 'doc-03' is not salience-labeled"):
        run_study_with_scorer(Corpus(docs), oracle_scorer, cfg)
    origin, intruder = corpus.documents[:2]
    for pair in ((unlabeled(origin), intruder), (origin, unlabeled(intruder))):
        with pytest.raises(DataError, match="is not salience-labeled"):
            build_instance(*pair, cfg, 1)
    with pytest.raises(DataError, match="is not salience-labeled"):
        eligible_intruder_events(unlabeled(intruder), kind)


def test_study_deterministic():
    corpus = study_corpus()
    cfg = IntrusionConfig(num_pairs=25, intruder_kind="nonsalient_only", seed=11, fractions=(0.5, 1.0))
    r1 = run_study_with_scorer(corpus, oracle_scorer, cfg)
    r2 = run_study_with_scorer(corpus, oracle_scorer, cfg)
    assert r1 == r2


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_study_refuses_non_finite_scores_naming_the_instance(value):
    # every score non-finite: ties would give each AUC half credit, and NaN would make them NaN
    corpus = study_corpus()
    cfg = IntrusionConfig(num_pairs=5, intruder_kind="salient_only", seed=0, fractions=(0.5, 1.0))
    with pytest.raises(NumericError, match=r"instance doc-\d\d\+doc-\d\d at fraction 0.5 \((\d+) of \1 scores\)"):
        run_study_with_scorer(corpus, lambda instance: np.full(len(instance.origin_flags), value), cfg)


def test_study_refuses_a_partly_non_finite_score_vector():
    def one_nan(instance):
        scores = oracle_scorer(instance)
        scores[-1] = math.nan
        return scores

    cfg = IntrusionConfig(num_pairs=5, intruder_kind="salient_only", seed=0, fractions=(1.0,))
    with pytest.raises(NumericError, match=r"at fraction 1.0 \(1 of \d+ scores\)"):
        run_study_with_scorer(study_corpus(), one_nan, cfg)


def test_study_refuses_a_score_vector_of_the_wrong_length():
    cfg = IntrusionConfig(num_pairs=5, intruder_kind="salient_only", seed=0, fractions=(1.0,))
    with pytest.raises(DataError, match="not matching the mixed event list"):
        run_study_with_scorer(study_corpus(), lambda instance: oracle_scorer(instance)[1:], cfg)


def test_study_csv_format(tmp_path):
    corpus = study_corpus()
    cfg = IntrusionConfig(num_pairs=10, intruder_kind="salient_only", seed=0, fractions=(0.5, 1.0))
    result = run_study_with_scorer(corpus, oracle_scorer, cfg)
    path = tmp_path / "s.csv"
    result.to_csv(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "fraction,auc,sa_auc,frequency_sa_auc,n_pairs"
    assert len(lines) == 3
    assert lines[1].startswith("0.5,")


def test_run_study_with_model_zeroes_nonfrequency_features():
    corpus = study_corpus(n_docs=6)
    rng = np.random.default_rng(0)
    lemmas = sorted({e.head_lemma for d in corpus.documents for e in d.events})
    keys = sorted({n.entity_key for d in corpus.documents for n in d.entities})
    evt = toy_table(lemmas, 8, rng)
    ent = toy_table(keys, 8, rng)
    scaler = fit_scaler(corpus, evt, ent)
    model = new_kce_model(default_bank(), evt, ent, scaler)
    model.w_v[:] = rng.normal(size=model.bank.size)
    model.w_f[:] = rng.normal(size=5)
    cfg = IntrusionConfig(num_pairs=8, intruder_kind="salient_only", seed=5, fractions=(1.0,))
    result = run_study(corpus, model, cfg)
    assert result.rows[0].n_pairs == 8
    assert 0.0 <= result.rows[0].auc <= 1.0
    # the features_only (LeToR) variant has no relational evidence to study
    with pytest.raises(DataError, match="kernel centrality"):
        run_study(corpus, new_letor_model(evt, ent, scaler), cfg)


def recording_study(monkeypatch):
    """Record (mixed document, scores) for every instance that ``run_study`` scores.

    ``run_study`` hands its scorer to ``intrusion._run_study``, which is where
    each instance meets its scores; the document is built from the instance."""
    scored = []
    study = intrusion._run_study

    def recording(corpus, score_fn, cfg, *args):
        def recorded(instance):
            scores = score_fn(instance)
            scored.append((instance.mixed, scores))
            return scores

        return study(corpus, recorded, cfg, *args)

    monkeypatch.setattr(intrusion, "_run_study", recording)
    return scored


def test_run_study_scores_like_the_feature_zeroed_reference(monkeypatch):
    """run_study zeroes every feature weight but frequency's; the reference zeroes
    the features instead.  Rows and per-instance scores must agree bit for bit,
    and the frequency, recounted on each mixed document, is standardized with
    the model's scaler."""
    rng = np.random.default_rng(9)
    corpus = random_corpus(rng, n_docs=10, n_events=14, n_entities=12, n_sentences=6, distinct_lemmas=False)
    lemmas = sorted({e.head_lemma for d in corpus.documents for e in d.events})
    keys = sorted({n.entity_key for d in corpus.documents for n in d.entities})
    evt = toy_table(lemmas, 8, rng)
    ent = toy_table(keys, 8, rng)
    zero = new_kce_model(default_bank(), evt, ent, fit_scaler(corpus, evt, ent))
    trained, _ = train(zero, corpus, corpus, TrainConfig(epochs=2, batch_docs=4, learning_rate=0.05, seed=1))
    assert trained.w_v.any() and trained.w_f[1:].any()
    frequency_probe = new_kce_model(default_bank(), evt, ent, zero.scaler, variant="events_features")
    frequency_probe.w_f[:] = rng.normal(size=5)
    frequency_probe.bias = 0.5
    cfg = IntrusionConfig(num_pairs=6, intruder_kind="salient_only", seed=3, fractions=(0.5, 1.0))

    scored = recording_study(monkeypatch)
    for model in (zero, trained, frequency_probe):
        want = run_study_with_scorer(corpus, lambda inst: feature_zeroed_scores(model, inst.mixed), cfg)
        scored.clear()
        got = run_study(corpus, model, cfg)
        assert got.rows == want.rows
        assert len(scored) == cfg.num_pairs * len(cfg.fractions)
        for doc, scores in scored:
            assert scores.tobytes() == feature_zeroed_scores(model, doc).tobytes()

    mean, std = zero.scaler.means[0], zero.scaler.stds[0]
    for doc, scores in scored:  # the probe has no kernel weights: bias + w_f[0] * standardized frequency
        assert scores == pytest.approx(0.5 + frequency_probe.w_f[0] * (frequency_scores(doc) - mean) / std)


def test_intrusion_config_validation():
    with pytest.raises(DataError):
        IntrusionConfig(num_pairs=0, intruder_kind="salient_only", seed=0)
    with pytest.raises(DataError):
        IntrusionConfig(num_pairs=5, intruder_kind="both", seed=0)
    with pytest.raises(DataError):
        IntrusionConfig(num_pairs=5, intruder_kind="salient_only", seed=0, fractions=(0.5, 0.2))
    with pytest.raises(DataError, match="strictly ascending"):
        IntrusionConfig(num_pairs=5, intruder_kind="salient_only", seed=0, fractions=(0.5, 0.5, 1.0))
    with pytest.raises(DataError):
        IntrusionConfig(num_pairs=5, intruder_kind="salient_only", seed=0, fractions=(0.0, 1.0))
    with pytest.raises(DataError, match="at least one insertion fraction"):
        IntrusionConfig(num_pairs=5, intruder_kind="salient_only", seed=0, fractions=())


def assert_same_instance(got, want):
    assert got.origin_doc_id == want.origin_doc_id
    assert got.intruder_doc_id == want.intruder_doc_id
    assert got.mixed == want.mixed  # tuples: same mentions in the same order
    for a, b in ((got.origin_flags, want.origin_flags), (got.salient_origin_flags, want.salient_origin_flags)):
        assert a.dtype == b.dtype and a.tolist() == b.tolist()
    assert got.frequency.dtype == want.frequency.dtype and got.frequency.tobytes() == want.frequency.tobytes()


def test_build_instance_matches_reference_with_entities_out_of_sentence_order():
    origin = make_doc("a", 5, 3)
    intruder_events = tuple(
        EventMention(id=f"e{i}", head_lemma=f"b_l{i}", surface="x", sentence_index=i // 2, salient=True)
        for i in range(8)
    )
    intruder = Document(
        doc_id="b",
        num_sentences=4,
        events=intruder_events,
        entities=tuple(
            EntityMention(id=f"n{j}", entity_key=f"b_k{j}", sentence_index=s)
            for j, s in enumerate((3, 0, 2, 0, 1, 3, 2, 1, 0))
        ),
        abstract_lemmas=frozenset(),
    )
    for seed in range(6):
        cfg = IntrusionConfig(num_pairs=1, intruder_kind="salient_only", seed=seed)
        for n in range(9):
            got = build_instance(origin, intruder, cfg, n)
            assert_same_instance(got, build_instance_reference(origin, intruder, cfg, n))
            # entities grouped by source sentence, file order kept within a sentence
            extra = [en for en in got.mixed.entities if en.id.startswith("b::")]
            assert [en.sentence_index for en in extra] == sorted(en.sentence_index for en in extra)


def test_build_instance_matches_reference_on_random_documents():
    rng = np.random.default_rng(3)
    corpus = random_corpus(rng, n_docs=12, n_events=14, n_entities=12, n_sentences=6)
    docs = corpus.documents
    origins = [d for d in docs if sum(bool(ev.salient) for ev in d.events) >= MIN_ORIGIN_SALIENT]
    assert origins
    for kind in ("salient_only", "nonsalient_only"):
        cfg = IntrusionConfig(num_pairs=1, intruder_kind=kind, seed=17)
        for origin in origins:
            for intruder in docs:
                if intruder.doc_id == origin.doc_id:
                    continue
                for n in range(len(eligible_intruder_events(intruder, kind)) + 1):
                    assert_same_instance(
                        build_instance(origin, intruder, cfg, n),
                        build_instance_reference(origin, intruder, cfg, n),
                    )


def order_scorer(instance):
    """A fixed score per mention with plenty of ties, so AUC exercises half credit."""
    return np.array(
        [len(ev.head_lemma) % 3 + 0.25 * (ev.sentence_index % 4) for ev in instance.mixed.events]
    )


# Rows of the study below as the per-fraction construction (one shuffle and
# one instance built from scratch per fraction) produced them; float.hex of
# auc, sa_auc and frequency_sa_auc, then n_pairs.
PINNED_ROWS = {
    "salient_only": [
        (0.1, '0x1.be79e79e79e7ap-2', '0x1.ec1e1736c8c1cp-2', '0x1.35101dcea9b76p-5', 60),
        (0.3, '0x1.b5bd5bd5bd5bep-2', '0x1.dc7577b280d84p-2', '0x1.59dfc01e24047p-4', 60),
        (0.5, '0x1.cd2f40aae61c3p-2', '0x1.f19239f8e0155p-2', '0x1.f77e66d55c451p-4', 60),
        (0.9, '0x1.dcff849c4e33dp-2', '0x1.fd92047203fdfp-2', '0x1.d7d57d57d57d7p-3', 60),
        (1.0, '0x1.e3e23bb394370p-2', '0x1.01e5294b443f3p-1', '0x1.e9393e3e8e93dp-3', 60),
    ],
    "nonsalient_only": [
        (0.1, '0x1.fcf3cf3cf3cf5p-2', '0x1.1293dc70fa42cp-1', '0x1.4d8b3f1a580bfp-5', 60),
        (0.3, '0x1.02ff2ff2ff2ffp-1', '0x1.14a81475e6a85p-1', '0x1.5fccebbdaac9ap-4', 60),
        (0.5, '0x1.f474906d9922bp-2', '0x1.0bfbd40e85fcbp-1', '0x1.1626fc095a2f3p-3', 60),
        (0.9, '0x1.c82be3d2da1a3p-2', '0x1.e98db2c435e1fp-2', '0x1.f603a47e8c2cbp-3', 60),
        (1.0, '0x1.c8e94cc0aec90p-2', '0x1.e9c85be34da77p-2', '0x1.0b6360e0b8b61p-2', 60),
    ],
}


@pytest.mark.parametrize("kind", INTRUDER_KINDS)
def test_study_builds_each_pair_once_with_unchanged_rows(kind):
    rng = np.random.default_rng(5)
    corpus = random_corpus(rng, n_docs=10, n_events=14, n_entities=12, n_sentences=6)
    docs = {d.doc_id: d for d in corpus.documents}
    cfg = IntrusionConfig(num_pairs=60, intruder_kind=kind, seed=8, fractions=(0.1, 0.3, 0.5, 0.9, 1.0))

    def checked_scorer(instance):
        origin, intruder = docs[instance.origin_doc_id], docs[instance.intruder_doc_id]
        n = int((~instance.origin_flags).sum())
        assert_same_instance(instance, build_instance_reference(origin, intruder, cfg, n))
        return order_scorer(instance)

    result = run_study_with_scorer(corpus, checked_scorer, cfg)
    got = [(r.fraction, r.auc.hex(), r.sa_auc.hex(), r.frequency_sa_auc.hex(), r.n_pairs) for r in result.rows]
    assert got == PINNED_ROWS[kind]


def plan_corpus(rng, n_docs=9):
    """Documents with out-of-vocabulary lemmas and keys, some without entities,
    intruder sentences without entities, and entities out of sentence order."""
    docs = []
    for d in range(n_docs):
        n_sentences = int(rng.integers(3, 7))
        n_events = int(rng.integers(8, 14))
        sents = np.sort(rng.integers(0, n_sentences, size=n_events))
        lemmas = [f"l{k}" for k in rng.integers(0, 12, size=n_events)]  # l10, l11: no vocabulary row
        events = tuple(
            EventMention(id=f"e{i}", head_lemma=lemma, surface=lemma, sentence_index=int(s), salient=i % 3 > 0)
            for i, (lemma, s) in enumerate(zip(lemmas, sents))
        )
        n_entities = 0 if d % 3 == 0 else int(rng.integers(1, 8))
        entity_sents = rng.integers(0, max(1, n_sentences - 1), size=n_entities)  # the last sentence has none
        entities = tuple(
            EntityMention(id=f"n{j}", entity_key=f"k{rng.integers(0, 8)}", sentence_index=int(s))
            for j, s in enumerate(entity_sents)
        )
        docs.append(Document(f"doc-{d}", n_sentences, events, entities, frozenset()))
    return Corpus(documents=tuple(docs))


@pytest.mark.parametrize("variant", ["full", "events_features", "events_only"])
@pytest.mark.parametrize("kind", INTRUDER_KINDS)
def test_study_scores_plans_like_the_mixed_documents(monkeypatch, variant, kind):
    """Every instance's scores equal model_scores of the frequency-only model on
    build_instance(...).mixed, byte for byte."""
    rng = np.random.default_rng(31)
    corpus = plan_corpus(rng)
    for doc in corpus.documents:
        assert validate_document(doc) == []
    evt = toy_table([f"l{k}" for k in range(10)], 6, rng)
    ent = toy_table([f"k{k}" for k in range(6)], 6, rng)
    evt.vectors[evt.vocabulary.lookup("l3")] = 0.0  # zero-norm rows
    ent.vectors[ent.vocabulary.lookup("k2")] = 0.0
    model = new_kce_model(default_bank(), evt, ent, fit_scaler(corpus, evt, ent), variant=variant)
    for name in ("w_v", "w_e", "w_f"):
        if name in VARIANT_BLOCKS[variant]:
            setattr(model, name, rng.normal(size=len(getattr(model, name))))
    frequency_only = replace(model, w_f=np.concatenate([model.w_f[:1], np.zeros(4)]))
    cfg = IntrusionConfig(num_pairs=30, intruder_kind=kind, seed=2, fractions=(0.1, 0.4, 0.7, 1.0))
    scored = recording_study(monkeypatch)
    run_study(corpus, model, cfg)
    assert len(scored) == cfg.num_pairs * len(cfg.fractions)
    docs = {d.doc_id: d for d in corpus.documents}
    for mixed, scores in scored:
        origin_id, intruder_id = mixed.doc_id.split("+")
        n = sum(1 for ev in mixed.events if ev.id.startswith(f"{intruder_id}::"))
        want = build_instance(docs[origin_id], docs[intruder_id], cfg, n).mixed
        assert mixed == want
        assert scores.tobytes() == model_scores(frequency_only, want).tobytes()


def test_a_prefixed_intruder_id_equal_to_an_origin_id_is_a_duplicate():
    origin = make_doc("a", 5, 3)
    intruder = make_doc("b", 5, 3)
    clash = replace(origin.events[0], id="b::" + intruder.events[0].id)
    origin = replace(origin, events=(clash,) + origin.events[1:])
    assert validate_document(origin) == []
    cfg = IntrusionConfig(num_pairs=3, intruder_kind="salient_only", seed=0, fractions=(1.0,))
    with pytest.raises(DataError, match="duplicate mention id"):
        build_instance(origin, intruder, cfg, 5)
    with pytest.raises(DataError, match=f"'b::{intruder.events[0].id}': duplicate mention id"):
        run_study_with_scorer(Corpus((origin, intruder)), oracle_scorer, cfg)


def test_a_prefixed_id_clash_raises_only_where_the_instance_mixes_it_in():
    """An instance is refused when it mixes in the clashing mention: the intruder
    event itself, or any event of the clashing entity's sentence."""
    origin = make_doc("a", 5, 3)
    intruder = make_doc("b", 5, 3)
    cfg = IntrusionConfig(num_pairs=3, intruder_kind="salient_only", seed=0, fractions=(0.2, 0.6))
    clean = [build_instance(origin, intruder, cfg, n).mixed for n in range(6)]
    mixed_ids = [{m.id for m in (*doc.events, *doc.entities)} for doc in clean]
    last = ({ev.id for ev in clean[5].events} - {ev.id for ev in clean[4].events}).pop()
    for clashing in (last, "b::n0", "b::n2"):
        for kind, ids in (("events", origin.events), ("entities", origin.entities)):
            clash = replace(origin, **{kind: (replace(ids[0], id=clashing),) + ids[1:]})
            assert validate_document(clash) == []
            for n in range(6):
                if clashing in mixed_ids[n]:
                    with pytest.raises(DataError, match=f"{clashing!r}: duplicate mention id"):
                        build_instance(clash, intruder, cfg, n)
                else:
                    assert len(build_instance(clash, intruder, cfg, n).mixed.events) == len(origin.events) + n
    # a study raises once one of its fractions reaches the clash (0.2 and 0.6 never reach the last event)
    outcomes = set()
    for clashing in (last, "b::n0", "b::n2"):
        clash = replace(origin, events=(replace(origin.events[0], id=clashing),) + origin.events[1:])
        corpus = Corpus((clash, intruder))
        for fractions in ((0.2,), (0.4,), (0.6,), (0.8,), (1.0,), (0.2, 0.6)):
            reached = any(clashing in mixed_ids[math.ceil(5 * f)] for f in fractions)
            outcomes.add((clashing == last, reached))
            study_cfg = replace(cfg, fractions=fractions)
            if reached:
                with pytest.raises(DataError, match=f"{clashing!r}: duplicate mention id"):
                    run_study_with_scorer(corpus, oracle_scorer, study_cfg)
            else:
                assert run_study_with_scorer(corpus, oracle_scorer, study_cfg).rows[-1].n_pairs == 3
    assert outcomes == {(True, True), (True, False), (False, True), (False, False)}


def test_mixing_refuses_documents_that_break_an_invariant():
    """Documents built in memory are not validated on construction; mixing them is."""
    origin = make_doc("a", 5, 3)
    intruder = make_doc("b", 5, 3)
    cfg = IntrusionConfig(num_pairs=4, intruder_kind="salient_only", seed=0, fractions=(1.0,))
    k = max(k for k, ev in enumerate(intruder.events) if ev.salient)  # a salient event, moved out of range
    late = intruder.events[:k] + (replace(intruder.events[k], sentence_index=99),) + intruder.events[k + 1 :]
    with pytest.raises(DataError, match="mixed document is invalid: .* sentence_index 105 out of range"):
        build_instance(origin, replace(intruder, events=late), cfg, 5)
    stray = replace(intruder, entities=intruder.entities + (EntityMention("n9", "b_k0", 99),))
    lemmas = sorted({e.head_lemma for d in (origin, intruder) for e in d.events})
    keys = sorted({n.entity_key for d in (origin, intruder) for n in d.entities})
    rng = np.random.default_rng(0)
    evt, ent = toy_table(lemmas, 8, rng), toy_table(keys, 8, rng)
    model = new_kce_model(default_bank(), evt, ent, fit_scaler(Corpus((origin, intruder)), evt, ent))
    for study in (lambda c: run_study(c, model, cfg), lambda c: run_study_with_scorer(c, oracle_scorer, cfg)):
        with pytest.raises(DataError, match="doc 'b' entity 'n9': sentence_index 99 out of range"):
            study(Corpus((origin, stray)))

"""``==`` on a dataclass that holds arrays is identity: it returns a bool and never compares arrays."""
import copy
import dataclasses

import numpy as np
import pytest

from helpers import random_corpus, random_document, toy_table
from salience.features import doc_geometry, doc_plan, fit_scaler
from salience.intrusion import MIN_ORIGIN_SALIENT, IntrusionConfig, build_instance
from salience.kernels import default_bank
from salience.models import PageRankModel, kce_forward, model_plan, new_kce_model, pagerank_forward
from salience.synth import SynthConfig, build_pools


def _setup():
    rng = np.random.default_rng(0)
    corpus = random_corpus(rng, n_docs=3, n_events=5, n_entities=3)
    events = sorted({ev.head_lemma for doc in corpus.documents for ev in doc.events})
    entities = sorted({en.entity_key for doc in corpus.documents for en in doc.entities})
    evt, ent = toy_table(events, 4, rng), toy_table(entities, 4, rng)
    model = new_kce_model(default_bank(), evt, ent, fit_scaler(corpus, evt, ent))
    return corpus, model


def _kce_cache():
    corpus, model = _setup()
    return kce_forward(model, [model_plan(model, corpus.documents[0])])[1]


def _pagerank_cache():
    corpus, model = _setup()
    walk = PageRankModel(temperature=1.0, combine_lambda=0.5, event_table=model.event_table)
    return pagerank_forward(walk, [model_plan(walk, corpus.documents[0])])[1]


def _doc_geometry():
    corpus, model = _setup()
    plan = doc_plan(corpus.documents[0], model.event_table.vocabulary, model.entity_table.vocabulary)
    return doc_geometry([plan], model.event_table, model.entity_table)


def _intrusion_instance():
    rng = np.random.default_rng(1)
    origin, intruder = (
        dataclasses.replace(doc, events=tuple(dataclasses.replace(ev, salient=True) for ev in doc.events))
        for doc in (random_document(rng, doc_id=d, n_events=MIN_ORIGIN_SALIENT) for d in "ab")
    )
    cfg = IntrusionConfig(num_pairs=1, intruder_kind="salient_only", seed=0)
    return build_instance(origin, intruder, cfg, 1)


FACTORIES = {
    "KernelBank": default_bank,
    "EmbeddingTable": lambda: _setup()[1].event_table,
    "FeatureScaler": lambda: _setup()[1].scaler,
    "KCEModel": lambda: _setup()[1],
    "DocPlan": lambda: model_plan(_setup()[1], _setup()[0].documents[0]),
    "DocGeometry": _doc_geometry,
    "KCECache": _kce_cache,
    "PageRankCache": _pagerank_cache,
    "IntrusionInstance": _intrusion_instance,
    "TokenPools": lambda: build_pools(SynthConfig(n_topics=2, dim=4, background_event_pool=4, background_entity_pool=4)),
}


@pytest.mark.parametrize("name", FACTORIES)
def test_eq_on_a_dataclass_holding_arrays_is_identity(name):
    obj = FACTORIES[name]()
    assert type(obj).__name__ == name
    twin = copy.deepcopy(obj)
    assert (obj == twin) is False
    assert (obj != twin) is True
    assert (obj == obj) is True

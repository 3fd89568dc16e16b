"""The benchmark's tracer finds every function it times, and sees them called.

``perfbench/tracing.py`` patches the package's functions by module and name,
and a target it cannot find only reads 0 in the benchmark.  Installing the
tracer here turns a rename or a deletion of a traced function into a failing
test instead.  So does a caller that reaches a traced function through a
reference taken before the tracer was installed: the function still runs, but
its layer reads 0 calls.
"""
import importlib.util
from pathlib import Path

import numpy as np

import salience.cli  # noqa: F401  (imports every module the tracer patches)
from helpers import random_corpus
from salience import embeddings, features, intrusion, kernels, models, training

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"

# The layers that model-type dispatch reaches: training, scoring and the intrusion study.
DISPATCHED = (
    "models.kce_forward",
    "models.pagerank_forward",
    "training.kce_backward",
    "training.pagerank_backward",
    "training.make_pairs",
    "training.Adam.step",
    "kernels.gaussian_pool",
    "intrusion.run_study",
)


def new_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.Tracer()


def test_every_traced_target_exists():
    tracer = new_tracer()
    try:
        tracer.install("salience")
        assert tracer.missing == []
    finally:
        tracer.uninstall()


def test_tracer_sees_every_dispatched_layer():
    rng = np.random.default_rng(4)
    corpus = random_corpus(rng, n_docs=8, n_events=12, n_entities=6, distinct_lemmas=False)
    dev = random_corpus(rng, n_docs=3, n_events=8, n_entities=4, distinct_lemmas=False)

    def tables():
        return (
            embeddings.init_embeddings(embeddings.build_vocab(corpus, "event_lemma", min_count=1), dim=6, seed=1),
            embeddings.init_embeddings(embeddings.build_vocab(corpus, "entity_key", min_count=1), dim=6, seed=2),
        )

    tracer = new_tracer()
    tracer.install("salience")
    try:
        cfg = training.TrainConfig(epochs=1, batch_docs=4, seed=1)
        evt, ent = tables()
        scaler = features.fit_scaler(corpus, evt, ent)
        kce, _ = training.train(models.new_kce_model(kernels.default_bank(), evt, ent, scaler), corpus, dev, cfg)
        letor, _ = training.train(models.new_letor_model(*tables(), scaler), corpus, dev, cfg)
        pagerank0 = models.PageRankModel(temperature=1.0, combine_lambda=0.5, event_table=tables()[0])
        pagerank, _ = training.train(pagerank0, corpus, dev, cfg)
        for model in (kce, letor, pagerank):
            for doc in dev.documents:
                models.model_scores(model, doc)
        intrusion.run_study(corpus, kce, intrusion.IntrusionConfig(num_pairs=2, fractions=(1.0,)))
    finally:
        tracer.uninstall()
    calls = {name: entry["calls"] for name, entry in tracer.summary()[0].items()}
    assert {name: calls.get(name, 0) for name in DISPATCHED if calls.get(name, 0) == 0} == {}

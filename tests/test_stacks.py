"""A stack of same-shape documents trains and scores as its documents do one at a time, bit for bit.

``kce_forward``/``kce_backward`` and ``pagerank_forward``/``pagerank_backward``
run over a stack of B plans at once.  Each must give every document of the
stack the scores, weight gradients and ``(rows, block)`` pairs of the
per-document passes in ``oracles``, byte for byte: for every variant and
PageRank, stacks of 1, 3 and 16, trainable and frozen tables, stacks of
entity-free and of one-event documents, and tables with a zero-norm row.
The batch and dev passes that stack documents by shape are held to the
per-document ones too, and so are the row groups of many documents sorted
at once, and the dev search's AUCs of every candidate PageRank mix at once.
"""
import copy
import math
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from helpers import random_document, toy_table
from oracles import (
    dev_metrics_per_doc,
    kce_backward_per_doc,
    kce_forward_per_doc,
    loss_and_grads_per_doc,
    pagerank_backward_per_doc,
    pagerank_forward_per_doc,
    row_sparse_per_doc,
)
from oracles import row_groups as row_groups_per_doc
from salience.corpus import Corpus
from salience.errors import NumericError
from salience.features import FeatureScaler, doc_plan, plan_row_groups, row_groups
from salience.kernels import default_bank
from salience.metrics import auc, row_aucs
from salience.models import (
    VARIANT_BLOCKS,
    PageRankModel,
    kce_forward,
    model_plan,
    new_kce_model,
    pagerank_forward,
    pagerank_mix,
)
from salience.training import (
    EMBEDDING_KEYS,
    LAMBDA_GRID,
    STACK_COSINES,
    TrainConfig,
    _batch_loss_and_grads,
    _dev_metrics,
    _param_arrays,
    _row_sparse,
    _shape_stacks,
    kce_backward,
    make_pairs,
    pagerank_backward,
)

DIM = 8
SHAPES = [(20, 30), (7, 0), (1, 4)]  # (events, entities): the default shape, entity-free, one event
STACK_SIZES = [1, 3, 16]


def _documents(rng, n_events, n_entities, count, prefix="d"):
    """``count`` documents of one shape over one lemma pool, named by ``prefix``, and one entity pool,
    so rows repeat within and across documents."""
    lemmas = [f"{prefix}ev{i}" for i in range(max(2, n_events // 2))]
    return [
        random_document(
            rng, doc_id=f"{prefix}{k}", n_events=n_events, n_entities=n_entities, lemma_pool=lemmas,
            distinct_lemmas=False,
        )
        for k in range(count)
    ]


def _tables(rng, docs):
    """Event and entity tables over the documents' tokens, each with one zero-norm row in use."""
    events = sorted({ev.head_lemma for doc in docs for ev in doc.events}) or ["pad"]
    entities = sorted({en.entity_key for doc in docs for en in doc.entities}) or ["pad"]
    evt, ent = toy_table(events, DIM, rng), toy_table(entities, DIM, rng)
    evt.vectors[evt.vocabulary.lookup(events[0])] = 0.0
    ent.vectors[ent.vocabulary.lookup(entities[0])] = 0.0
    return evt, ent


def _model(kind, evt, ent, rng):
    """A kce variant with random weights and bias, or a PageRank walk, over the tables."""
    if kind == "pagerank":
        return PageRankModel(temperature=float(rng.uniform(0.2, 2.0)), combine_lambda=0.3, event_table=evt)
    scaler = FeatureScaler(means=rng.normal(size=5), stds=rng.uniform(0.5, 2.0, size=5))
    model = new_kce_model(default_bank(), evt, ent, scaler, variant=kind)
    for name in VARIANT_BLOCKS[kind]:
        setattr(model, name, rng.normal(size=len(getattr(model, name))))
    model.bias = float(rng.normal())
    return model


def _case(kind, shape, count, frozen):
    """A model, a stack of ``count`` plans of one shape, their (count, n) dscores and the trained tables."""
    rng = np.random.default_rng(zlib.crc32(f"{kind} {shape} {count}".encode()))
    docs = _documents(rng, *shape, count)
    model = _model(kind, *_tables(rng, docs), rng)
    tables = tuple(name for name in EMBEDDING_KEYS if name in _param_arrays(model, frozen))
    dscores = rng.normal(size=(count, shape[0]))
    dscores[:, ::3] = 0.0  # scores no pair reaches
    return model, [model_plan(model, doc) for doc in docs], dscores, tables


def _bytes(value):
    return value.dtype.str, value.shape, value.tobytes()


def assert_same_grads(got: dict, want: dict) -> None:
    assert got.keys() == want.keys()
    for name, value in want.items():
        if name in EMBEDDING_KEYS:
            (rows, block), (want_rows, want_block) = got[name], value
            assert _bytes(rows) == _bytes(want_rows), name
            assert _bytes(block) == _bytes(want_block), name
        else:
            assert _bytes(np.asarray(got[name])) == _bytes(value), name


@pytest.mark.parametrize("frozen", [False, True], ids=["trainable", "frozen"])
@pytest.mark.parametrize("count", STACK_SIZES)
@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
@pytest.mark.parametrize("variant", VARIANT_BLOCKS)
def test_kce_stack_equals_its_documents_bitwise(variant, shape, count, frozen):
    model, plans, dscores, tables = _case(variant, shape, count, frozen)
    scores, cache = kce_forward(model, plans)
    grads = kce_backward(model, plans, cache, dscores, tables)
    assert scores.shape == (count, shape[0]) and len(grads) == count
    for plan, doc_scores, doc_dscores, doc_grads in zip(plans, scores, dscores, grads):
        want_scores, want_cache = kce_forward_per_doc(model, plan)
        assert _bytes(doc_scores) == _bytes(want_scores)
        assert_same_grads(doc_grads, kce_backward_per_doc(model, plan, want_cache, doc_dscores, tables))


@pytest.mark.parametrize("frozen", [False, True], ids=["trainable", "frozen"])
@pytest.mark.parametrize("count", STACK_SIZES)
@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
def test_pagerank_stack_equals_its_documents_bitwise(shape, count, frozen):
    model, plans, dscores, tables = _case("pagerank", shape, count, frozen)
    scores, cache = pagerank_forward(model, plans)
    grads = pagerank_backward(model, plans, cache, dscores, tables)
    assert scores.shape == (count, shape[0]) and len(grads) == count
    for plan, doc_scores, doc_dscores, doc_grads in zip(plans, scores, dscores, grads):
        want_scores, want_cache = pagerank_forward_per_doc(model, plan)
        assert _bytes(doc_scores) == _bytes(want_scores)
        assert_same_grads(doc_grads, pagerank_backward_per_doc(model, plan, want_cache, doc_dscores, tables))


def test_cases_reach_a_zero_norm_row_and_repeated_rows():
    model, plans, _, _ = _case("full", (20, 30), 3, False)
    zero_v = model.event_table.vectors.any(axis=1)
    zero_e = model.entity_table.vectors.any(axis=1)
    assert any(not zero_v[plan.rows_v].all() for plan in plans)
    assert any(not zero_e[plan.rows_e].all() for plan in plans)
    assert all(len(np.unique(plan.rows_v)) < len(plan.rows_v) for plan in plans)


def _mixed_batch(kind, seed=8):
    """A model and a batch of documents of several shapes, in an order that interleaves them
    (one-event documents without pairs among them), each over event lemmas of its own, with the
    tables the model trains."""
    rng = np.random.default_rng(seed)
    docs = []
    for k, shape in enumerate([(6, 3), (4, 0), (6, 3), (1, 2), (4, 0), (6, 3), (5, 5), (4, 0)]):
        docs += _documents(rng, *shape, 1, prefix=f"b{k}-")
    model = _model(kind, *_tables(rng, docs), rng)
    tables = tuple(name for name in EMBEDDING_KEYS if name in _param_arrays(model, False))
    cfg = TrainConfig()
    return model, docs, [(doc.doc_id, model_plan(model, doc), make_pairs(doc, cfg)) for doc in docs], tables


@pytest.mark.parametrize("kind", [*VARIANT_BLOCKS, "pagerank"])
def test_a_batch_of_mixed_shapes_equals_its_documents_one_at_a_time(kind):
    model, _, batch, tables = _mixed_batch(kind)
    plans = [plan for _, plan, _ in batch]
    stacks = _shape_stacks(plans, [k for k, (_, _, pairs) in enumerate(batch) if len(pairs)])
    assert max(map(len, stacks)) > 1 and len(stacks) > 1
    got = _batch_loss_and_grads(model, batch, tables)
    for doc, (loss, grads) in zip(batch, got):
        want_loss, want_grads = loss_and_grads_per_doc(model, *doc, tables)
        assert np.float64(loss).tobytes() == np.float64(want_loss).tobytes()
        if want_grads is None:
            assert grads is None
        else:
            assert_same_grads(grads, want_grads)


def test_the_first_non_finite_document_in_batch_order_is_named_across_stacks():
    model, _, batch, tables = _mixed_batch("full")
    plans = [plan for _, plan, _ in batch]
    first, *_ = stacks = _shape_stacks(plans, [k for k, (_, _, pairs) in enumerate(batch) if len(pairs)])
    later = stacks[1][0]  # the first document of the second stack
    assert later < first[-1]
    for k in (later, first[-1]):  # both non-finite; the first stack's one is scored first
        model.event_table.vectors[plans[k].rows_v] = np.nan
    with np.errstate(invalid="ignore"), pytest.raises(NumericError) as err:
        list(_batch_loss_and_grads(model, batch, tables))
    assert str(err.value) == f"non-finite score while training on doc {batch[later][0]!r}"


@pytest.mark.parametrize("kind", [*VARIANT_BLOCKS, "pagerank"])
def test_the_dev_pass_in_stacks_equals_the_dev_pass_one_document_at_a_time(kind):
    model, docs, batch, _ = _mixed_batch(kind, seed=9)
    dev, plans = Corpus(tuple(docs)), [plan for _, plan, _ in batch]
    want_model = copy.copy(model)  # PageRank's search moves combine_lambda
    got, want = _dev_metrics(model, dev, plans), dev_metrics_per_doc(want_model, dev, plans)
    assert [float(x).hex() for x in got] == [float(x).hex() for x in want]
    assert getattr(model, "combine_lambda", None) == getattr(want_model, "combine_lambda", None)


def test_stacks_group_by_shape_in_order_and_hold_at_most_the_cosine_budget():
    rng = np.random.default_rng(3)
    shapes = [(20, 30), (2, 0), (20, 30), (2, 0), (3, 1)] + [(20, 30)] * 8
    docs = [random_document(rng, doc_id=f"s{k}", n_events=n, n_entities=m) for k, (n, m) in enumerate(shapes)]
    model = _model("full", *_tables(rng, docs), rng)
    plans = [model_plan(model, doc) for doc in docs]
    stacks = _shape_stacks(plans, range(len(plans)))
    per_stack = STACK_COSINES // (20 * 50)
    big = [k for k, shape in enumerate(shapes) if shape == (20, 30)]
    assert stacks[:3] == [big[:per_stack], [1, 3], [4]]
    assert [k for ks in stacks for k in ks if shapes[k] == (20, 30)] == big
    assert [ks[0] for ks in stacks] == sorted(ks[0] for ks in stacks)
    assert all(len(ks) * 20 * 50 <= STACK_COSINES for ks in stacks if shapes[ks[0]] == (20, 30))


# signed zeros, values whose sums depend on the order they are added in, and any finite float
_GRAD_ENTRIES = st.sampled_from([-0.0, 0.0, 0.1, 0.2, 0.3, 1e16, -1e16, 1.0]) | st.floats(
    -1e6, 1e6, allow_nan=False, allow_infinity=False
)


@settings(max_examples=200, deadline=None)
@given(count=st.integers(1, 16), n=st.integers(0, 24), dim=st.integers(1, 4), data=st.data())
def test_stacked_row_groups_and_sums_equal_their_documents_bitwise(count, n, dim, data):
    """Stacks of 1 to 16 documents over a few table rows, so rows repeat within a document and
    across the stack; the last row plays a vocabulary's unknown row, and one document's leading
    mentions, up to all of them, hit it; whole -0.0 mention rows; ``n = 0`` is an empty side."""
    vocab = data.draw(st.integers(1, 8))
    rows = data.draw(hnp.arrays(np.intp, (count, n), elements=st.integers(0, vocab)))
    rows[data.draw(st.integers(0, count - 1)), : data.draw(st.integers(0, n))] = vocab
    d_rows = data.draw(hnp.arrays(np.float64, (count, n, dim), elements=_GRAD_ENTRIES))
    d_rows[:, data.draw(st.integers(0, max(n - 1, 0))) :: 3] = -0.0
    given_rows, given_grads = rows.copy(), d_rows.copy()
    groups = row_groups(rows)
    assert len(groups) == count
    for (uniq, first, repeats), doc_rows, doc_grads in zip(groups, rows, d_rows):
        want_uniq, want_first, want_repeats = row_groups_per_doc(doc_rows)
        assert _bytes(uniq) == _bytes(want_uniq) and _bytes(first) == _bytes(want_first)
        assert repeats == want_repeats
        got_rows, got_block = _row_sparse((uniq, first, repeats), doc_grads)
        want_rows, want_block = row_sparse_per_doc(doc_rows, doc_grads)
        assert _bytes(got_rows) == _bytes(want_rows)
        assert _bytes(got_block) == _bytes(want_block)
    assert _bytes(rows) == _bytes(given_rows) and _bytes(d_rows) == _bytes(given_grads)


def test_plan_row_groups_sort_each_mention_count_once_and_keep_the_groups():
    """Plans of mixed sizes get their own documents' groups; a second call computes nothing."""
    rng = np.random.default_rng(41)
    vocab = toy_table([f"ev{i}" for i in range(4)], 3, rng).vocabulary
    pool = ["ev0", "ev1", "unseen"]  # repeated rows, and the unknown row
    docs = [random_document(rng, n_events=n, distinct_lemmas=False, lemma_pool=pool) for n in (5, 3, 5, 0, 3, 5)]
    plans = [doc_plan(doc, vocab) for doc in docs]
    got = plan_row_groups(plans, "rows_v")
    for (uniq, first, repeats), plan in zip(got, plans):
        want_uniq, want_first, want_repeats = row_groups_per_doc(plan.rows_v)
        assert _bytes(uniq) == _bytes(want_uniq) and _bytes(first) == _bytes(want_first)
        assert repeats == want_repeats
    assert any(repeats for _, _, repeats in got)
    again = plan_row_groups(plans[::-1], "rows_v")
    assert all(a is b for a, b in zip(again, got[::-1]))


_AUC_SCORES = st.sampled_from([-1.0, -0.0, 0.0, 0.5, 1.0, math.inf, -math.inf, math.nan]) | st.floats(-1e6, 1e6)


@settings(max_examples=200, deadline=None)
@given(count=st.integers(1, 11), n=st.integers(0, 12), data=st.data())
def test_row_aucs_equal_auc_of_each_row(count, n, data):
    """Ties, signed zeros, infinities and NaN rows, and one-class (or no) labels."""
    scores = data.draw(hnp.arrays(np.float64, (count, n), elements=_AUC_SCORES))
    labels = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
    got = row_aucs(scores, labels)
    assert len(got) == count
    for value, row in zip(got, scores):
        want = auc(row, labels)
        assert (value is None) == (want is None)
        if want is not None:
            assert type(value) is float and value.hex() == want.hex()


@settings(max_examples=100, deadline=None)
@given(
    parts=hnp.arrays(np.float64, st.tuples(st.just(2), st.integers(0, 30)), elements=st.floats(0.0, 1.0))
)
def test_the_grid_of_mixes_equals_each_mix_alone_bitwise(parts):
    """One ``pagerank_mix`` over the whole ``LAMBDA_GRID`` makes each value's scores."""
    norm_freq, walk = parts
    mixes = pagerank_mix(norm_freq, walk, LAMBDA_GRID[:, None])
    assert mixes.shape == (len(LAMBDA_GRID), len(walk))
    for row, lam in zip(mixes, LAMBDA_GRID.tolist()):
        assert _bytes(row) == _bytes(pagerank_mix(norm_freq, walk, lam))

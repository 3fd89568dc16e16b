import copy
import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from helpers import document_pair_loss, gradcheck_instances, random_corpus, random_document, toy_table
from oracles import (
    DenseAdam,
    letor_grads,
    letor_scores,
    make_pairs_reference,
    pair_loss_reference,
    reference_lambda_search,
    row_groups,
    row_sparse_reference,
    train_dense_reference,
)
from salience import features, training
from salience.corpus import Corpus, Document, EntityMention, EventMention, salience_labels
from salience.embeddings import build_vocab, init_embeddings
from salience.errors import DataError, NumericError
from salience.features import doc_plan, fit_scaler, plan_row_groups
from salience.kernels import default_bank
from salience.metrics import evaluate
from salience.models import (
    KCE_VARIANTS,
    VARIANT_BLOCKS,
    KCEModel,
    PageRankModel,
    kce_forward,
    model_plan,
    model_scores,
    new_kce_model,
    new_letor_model,
    pagerank_forward,
    save_model,
)
from salience.training import (
    EMBEDDING_KEYS,
    GRAD_CHECK_ROWS,
    LAMBDA_GRID,
    TEMPERATURE_KEY,
    Adam,
    TrainConfig,
    grad_check,
    kce_backward,
    make_pairs,
    pagerank_backward,
    train,
)


# --- pairwise hinge loss --------------------------------------------------


def slow_pair_loss(scores, labels):
    total = 0.0
    grads = np.zeros(len(scores))
    for i, yi in enumerate(labels):
        if not yi:
            continue
        for j, yj in enumerate(labels):
            if yj:
                continue
            margin = 1.0 - scores[i] + scores[j]
            if margin > 0.0:
                total += margin
                grads[i] -= 1.0
                grads[j] += 1.0
    return total, grads


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_pair_loss_matches_slow_reference(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 10))
    scores = np.round(rng.normal(size=n), 2)
    labels = rng.integers(0, 2, size=n).astype(bool)
    loss, grads = document_pair_loss(scores, labels)
    want_loss, want_grads = slow_pair_loss(scores, labels)
    assert loss == pytest.approx(want_loss, abs=1e-12)
    assert grads == pytest.approx(want_grads, abs=0)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_pair_loss_nonnegative_and_grads_sum_zero(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 12))
    scores = rng.normal(size=n)
    labels = rng.integers(0, 2, size=n).astype(bool)
    loss, grads = document_pair_loss(scores, labels)
    assert loss >= 0.0
    assert grads.sum() == pytest.approx(0.0, abs=1e-12)


POSITIVE_ZERO = np.float64(0.0).tobytes()


@settings(max_examples=150, deadline=None)
@given(
    scores=hnp.arrays(
        np.float64, st.integers(1, 12), elements=st.sampled_from([-1.0, -0.0, 0.0, 0.5]) | st.floats(-1e6, 1e6)
    ),
    data=st.data(),
)
def test_pair_loss_score_gradient_sums_to_positive_zero(scores, data):
    """A bias added to every score has this sum as its gradient: +0.0 for any scores, ties included,
    and any subset of the pairs, so no optimizer step can move it."""
    labels = np.array(data.draw(st.lists(st.booleans(), min_size=len(scores), max_size=len(scores))), dtype=bool)
    pairs = training._cross_pairs(labels)
    keep = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    _, dscores = training._pair_loss(scores, pairs[np.array(keep, dtype=bool)])
    assert np.float64(dscores.sum()).tobytes() == POSITIVE_ZERO


def test_pair_loss_zero_iff_unit_margin_separation():
    labels = np.array([True, False])
    loss, _ = document_pair_loss(np.array([2.0, 1.0]), labels)
    assert loss == 0.0  # margin exactly 1: 1 - 2 + 1 = 0, not active
    loss, _ = document_pair_loss(np.array([1.9, 1.0]), labels)
    assert loss > 0.0
    loss, grads = document_pair_loss(np.array([5.0, 1.0]), labels)
    assert loss == 0.0 and not grads.any()


def test_pair_loss_single_class_is_zero():
    loss, grads = document_pair_loss(np.array([1.0, 2.0]), np.array([True, True]))
    assert loss == 0.0 and not grads.any()


# --- pair sampling ----------------------------------------------------------


def doc_with_labels(labels):
    events = tuple(
        EventMention(
            id=f"e{i}", head_lemma=f"l{i}", surface=f"l{i}", sentence_index=0, salient=bool(y)
        )
        for i, y in enumerate(labels)
    )
    return Document(
        doc_id="d",
        num_sentences=1,
        events=events,
        abstract_lemmas=frozenset(f"l{i}" for i, y in enumerate(labels) if y),
    )


def test_make_pairs_full_cross_product():
    doc = doc_with_labels([1, 0, 1, 0, 0])
    pairs = make_pairs(doc, TrainConfig())
    assert pairs.dtype == np.intp and pairs.shape == (2 * 3, 2)
    assert len(pairs) == 2 * 3
    as_tuples = [tuple(p) for p in pairs.tolist()]
    assert as_tuples == sorted(as_tuples)
    for p, q in pairs.tolist():
        assert doc.events[p].salient and not doc.events[q].salient


def test_make_pairs_subsample_is_seeded_and_without_replacement():
    doc = doc_with_labels([1, 1, 1, 0, 0, 0, 0])
    cfg = TrainConfig(max_pairs_per_doc=5, seed=3)
    pairs_a = make_pairs(doc, cfg)
    pairs_b = make_pairs(doc, cfg)
    assert pairs_a.tobytes() == pairs_b.tobytes()
    assert pairs_a.shape == (5, 2)
    as_tuples = [tuple(p) for p in pairs_a.tolist()]
    assert as_tuples == sorted(as_tuples)
    assert len(set(as_tuples)) == 5
    full = {tuple(p) for p in make_pairs(doc, TrainConfig()).tolist()}
    assert set(as_tuples) <= full
    other = make_pairs(doc, TrainConfig(max_pairs_per_doc=5, seed=4))
    assert not np.array_equal(other, pairs_a)  # different seed, different sample (chosen seeds differ)


# --- the per-document path against its np.add.at references, bit for bit ----

# few distinct score values, so margins hit exactly 0 (inactive) as well as both signs
_SCORES = st.sampled_from([-1.0, -0.5, 0.0, 0.25, 0.5, 1.0, 1.5, 2.0])


@settings(max_examples=150, deadline=None)
@given(
    labels_scores=st.lists(st.tuples(st.booleans(), _SCORES), max_size=12),
    limit=st.none() | st.integers(1, 40),
    seed=st.integers(0, 2**32),
)
def test_pairs_and_hinge_gradient_equal_references_bitwise(labels_scores, limit, seed):
    """Empty, single-class and mixed documents, with and without subsampling."""
    labels = [y for y, _ in labels_scores]
    scores = np.array([s for _, s in labels_scores], dtype=np.float64)
    doc = doc_with_labels(labels)
    cfg = TrainConfig(max_pairs_per_doc=limit, seed=seed)
    want = np.array(make_pairs_reference(doc, cfg), dtype=np.intp).reshape(-1, 2)
    got = make_pairs(doc, cfg)
    assert got.dtype == np.intp and got.shape == want.shape
    assert got.tobytes() == want.tobytes()

    full = np.array(make_pairs_reference(doc, TrainConfig()), dtype=np.intp).reshape(-1, 2)
    for (loss, grad), (want_loss, want_grad) in (
        (training._pair_loss(scores, got), pair_loss_reference(scores, want[:, 0], want[:, 1])),
        (document_pair_loss(scores, np.array(labels, dtype=bool)), pair_loss_reference(scores, full[:, 0], full[:, 1])),
    ):
        assert np.float64(loss).tobytes() == np.float64(want_loss).tobytes()
        assert grad.dtype == want_grad.dtype and grad.tobytes() == want_grad.tobytes()


# signed zeros, values whose sums depend on the order they are added in, and any finite float
_GRAD_ENTRIES = st.sampled_from([-0.0, 0.0, 0.1, 0.2, 0.3, 1e16, -1e16, 1.0]) | st.floats(
    -1e6, 1e6, allow_nan=False, allow_infinity=False
)


def assert_groups_match_np_unique(groups, rows):
    """The plan's row groups: np.unique's rows and first mentions, and every later
    mention in ascending order with its group."""
    uniq, first, inverse = np.unique(rows, return_index=True, return_inverse=True)
    later = sorted(set(range(len(rows))) - set(first.tolist()))
    assert groups[0].dtype == uniq.dtype and groups[0].tobytes() == uniq.tobytes()
    assert groups[1].tolist() == first.tolist()
    assert groups[2] == [(k, int(inverse[k])) for k in later]


@settings(max_examples=150, deadline=None)
@given(
    n_rows=st.integers(1, 6),
    dim=st.integers(1, 4),
    data=st.data(),
)
def test_row_sparse_equals_add_at_reference_bitwise(n_rows, dim, data):
    """Repeated rows, -0.0 gradient rows and documents without mentions."""
    rows = np.array(data.draw(st.lists(st.integers(0, n_rows - 1), max_size=14)), dtype=np.intp)
    d_rows = data.draw(hnp.arrays(np.float64, (len(rows), dim), elements=_GRAD_ENTRIES))
    if data.draw(st.booleans()):
        d_rows[: len(rows) // 2] = -0.0  # whole -0.0 mention rows
    given_rows, given_grads = rows.copy(), d_rows.copy()
    want_rows, want_block = row_sparse_reference(rows, d_rows)
    [groups] = features.row_groups(rows[None])
    assert_groups_match_np_unique(groups, rows)
    got_rows, got_block = training._row_sparse(groups, d_rows)
    assert got_rows.tobytes() == want_rows.tobytes()
    assert got_block.shape == want_block.shape and got_block.tobytes() == want_block.tobytes()
    assert rows.tobytes() == given_rows.tobytes() and d_rows.tobytes() == given_grads.tobytes()


def test_entity_free_plan_groups_equal_row_groups_of_no_rows():
    """A plan without an entity vocabulary (every PageRank plan) has an empty entity side, and
    its groups keep every field of ``row_groups``."""
    rng = np.random.default_rng(3)
    doc = random_document(rng, n_events=5, n_entities=3)
    plan = doc_plan(doc, toy_table([f"ev{i}" for i in range(5)], 3, rng).vocabulary)
    assert plan.rows_e.shape == (0,)
    [got], want = plan_row_groups([plan], "rows_e"), row_groups(np.zeros(0, np.intp))
    assert len(got) == len(want) == 3
    for g, w in zip(got[:2], want[:2]):
        assert type(g) is type(w) and g.dtype == w.dtype and g.shape == w.shape == (0,)
    assert got[2] == want[2] == []
    assert_groups_match_np_unique(plan_row_groups([plan], "rows_v")[0], plan.rows_v)


# --- Adam -------------------------------------------------------------------


def scalar_adam_reference(grads, lr=1e-3, b1=0.9, b2=0.999, eps=1e-8):
    """Textbook update sequence for a single scalar parameter starting at 0."""
    theta, m, v = 0.0, 0.0, 0.0
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1**t)
        v_hat = v / (1 - b2**t)
        theta -= lr * m_hat / (math.sqrt(v_hat) + eps)
    return theta


def every_row(params):
    return {k: np.arange(len(v)) for k, v in params.items()}


def test_adam_matches_scalar_reference():
    rng = np.random.default_rng(0)
    grads = rng.normal(size=50)
    params = {"w": np.zeros(1)}
    opt = Adam(params, lr=1e-3)
    for g in grads:
        opt.step(params, {"w": np.array([g])}, every_row(params))
    want = scalar_adam_reference(grads)
    assert params["w"][0] == pytest.approx(want, abs=1e-12)


def test_adam_matches_textbook_expression_bitwise():
    rng = np.random.default_rng(4)
    shapes = {"table": (7, 5), "vec": (3,)}
    params = {k: rng.normal(size=s) for k, s in shapes.items()}
    want = {k: v.copy() for k, v in params.items()}
    m = {k: np.zeros(s) for k, s in shapes.items()}
    v = {k: np.zeros(s) for k, s in shapes.items()}
    lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
    opt = Adam(params, lr=lr, beta1=b1, beta2=b2, eps=eps)
    for t in range(1, 6):
        grads = {k: rng.normal(size=s) for k, s in shapes.items()}
        untouched = rng.integers(0, 7)
        grads["table"][untouched] = 0.0  # a row this batch did not touch
        touched = {**every_row(grads), "table": np.setdiff1d(np.arange(7), [untouched])}
        opt.step(params, grads, touched)
        for k, g in grads.items():
            m[k] = b1 * m[k] + (1 - b1) * g
            v[k] = b2 * v[k] + (1 - b2) * (g * g)
            m_hat = m[k] / (1 - b1**t)
            v_hat = v[k] / (1 - b2**t)
            want[k] = want[k] - lr * m_hat / (np.sqrt(v_hat) + eps)
            assert params[k].tobytes() == want[k].tobytes()


def test_adam_zero_grad_leaves_fresh_param_unchanged():
    params = {"a": np.zeros(2), "b": np.zeros(2)}
    opt = Adam(params, lr=0.1)
    opt.step(params, {"a": np.ones(2), "b": np.zeros(2)}, every_row(params))
    assert params["a"][0] != 0.0
    assert not params["b"].any()


TABLE_ROWS = 12
HEADS = (3, 5, 5, 8, 10, 12, 12, 12)  # the rows reached after each step: a growing leading slice


def touched_row_steps(seed):
    """Per step, the touched rows of a 12-row table under ``HEADS`` and a dense gradient that is +0.0
    on every other row, as ``train`` leaves its buffers: some entries are subnormal, one touched row's
    gradient sums to exactly 0.0, and every row decays to -0.0 under a zero beta once left untouched."""
    rng = np.random.default_rng(seed)
    steps = []
    for t, head in enumerate(HEADS):
        rows = np.sort(rng.choice(head, size=max(1, head // 2), replace=False))
        table = np.zeros((TABLE_ROWS, 3))
        table[rows] = rng.normal(size=(len(rows), 3))
        table[rows[0]] = 0.75 + -0.75  # a touched row whose gradient sums to exactly +0.0
        if len(rows) > 1:
            table[rows[1], :2] = (-5e-324, 3e-310)  # subnormals: (1 - beta1) * g underflows to -0.0
        weights = rng.normal(size=4)
        weights[t % 4] = -1e-320
        steps.append((head, rows, {"table": table, "w": weights, "scalar": rng.normal(size=1)}))
    return steps


@pytest.mark.parametrize("beta2", [0.999, 0.0, -0.0])
@pytest.mark.parametrize("beta1", [0.9, 0.0, -0.0])
def test_adam_touched_row_step_equals_the_dense_textbook_step_bitwise(beta1, beta2):
    rng = np.random.default_rng(7)
    start = {"table": rng.normal(size=(TABLE_ROWS, 3)), "w": rng.normal(size=4), "scalar": np.array([0.5])}
    params = {k: v.copy() for k, v in start.items()}
    want = {k: v.copy() for k, v in start.items()}
    hp = dict(lr=0.05, beta1=beta1, beta2=beta2, eps=1e-8)
    opt, dense = Adam(params, **hp), DenseAdam(want, **hp)
    decayed_to_negative_zero = False
    for head, rows, grads in touched_row_steps(seed=3):
        untouched = np.setdiff1d(np.arange(head), rows)
        decayed = dense.m["table"][untouched] * beta1
        decayed_to_negative_zero |= bool((np.signbit(decayed) & (decayed == 0.0)).any())
        # a -0.0 parameter in a reached row this step does not touch, on both sides
        for side in (params, want):
            side["table"][untouched[-1:] if len(untouched) else []] = -0.0
        given_grads = {k: g.copy() for k, g in grads.items()}
        opt.step({**params, "table": params["table"][:head]}, grads, {**every_row(params), "table": rows})
        dense.step(want, grads)
        assert all(grads[k].tobytes() == given_grads[k].tobytes() for k in grads)  # the gradients are read only
        for k in start:
            assert params[k].tobytes() == want[k].tobytes(), k
            assert opt.m[k].tobytes() == dense.m[k].tobytes(), k
            # v may keep a -0.0 where the textbook adds +0.0 to it; it reaches p only through sqrt(v) + eps
            assert (opt.v[k] + 0.0).tobytes() == (dense.v[k] + 0.0).tobytes(), k
    # a zero beta1 decays an untouched row's negative m to -0.0, which only the dense m += ... clears
    assert decayed_to_negative_zero == (beta1 == 0.0)


# --- row-sparse embedding gradients -----------------------------------------


def repeated_row_docs(rng, n_docs=3):
    """Docs with a repeated event lemma, a repeated entity key, an unknown
    token and a zero-norm row ("c" / "z", zeroed by `repeated_row_tables`)."""
    docs = []
    for d in range(n_docs):
        pool = ["a", "b", "a", "c", "d", "a", "oov"]
        lemmas = pool[d:] + pool[:d]
        salient = {lemmas[0], lemmas[4]}
        events = tuple(
            EventMention(
                id=f"e{i}",
                head_lemma=lem,
                surface=lem,
                sentence_index=i // 2,
                salient=lem in salient,
            )
            for i, lem in enumerate(lemmas)
        )
        entities = tuple(
            EntityMention(id=f"n{j}", entity_key=key, sentence_index=int(rng.integers(0, 3)))
            for j, key in enumerate(["x", "y", "x", "z", "x"][: 3 + d])
        )
        docs.append(
            Document(
                doc_id=f"rep-{d}",
                num_sentences=3,
                events=events,
                entities=entities,
                abstract_lemmas=frozenset(salient),
            )
        )
    return docs


def repeated_row_tables(rng, dim=6):
    evt = toy_table(["a", "b", "c", "d", "e"], dim, rng)
    ent = toy_table(["x", "y", "z", "w"], dim, rng)
    evt.vectors[evt.vocabulary.lookup("c")] = 0.0
    ent.vectors[ent.vocabulary.lookup("z")] = 0.0
    return evt, ent


def spy_row_sparse(monkeypatch):
    """Record the (row groups, per-mention d_rows) every backward pass hands to the sparse sum."""
    calls = []
    real = training._row_sparse

    def spy(groups, d_rows):
        calls.append((groups, d_rows.copy()))
        return real(groups, d_rows)

    monkeypatch.setattr(training, "_row_sparse", spy)
    return calls


def assert_sparse_matches_dense(doc_grads, calls, mention_rows, tables, batch_dense, batch_sparse):
    """Scattered blocks equal the dense np.add.at tables, per document and summed."""
    assert len(calls) == len(tables) == len(mention_rows)
    for (groups, d_rows), rows, (name, table) in zip(calls, mention_rows, tables.items()):
        assert_groups_match_np_unique(groups, rows)
        dense = np.zeros_like(table.vectors)
        np.add.at(dense, rows, d_rows)
        got_rows, block = doc_grads[name]
        assert np.array_equal(got_rows, np.unique(rows))
        assert np.all(np.diff(got_rows) > 0)
        assert block.shape == (len(got_rows), table.dim)
        scattered = np.zeros_like(table.vectors)
        scattered[got_rows] += block
        assert scattered.tobytes() == dense.tobytes()
        batch_dense[name] += dense
        batch_sparse[name][got_rows] += block


@pytest.mark.parametrize("variant", KCE_VARIANTS)
def test_kce_backward_sparse_blocks_equal_dense_tables(monkeypatch, variant):
    rng = np.random.default_rng(21)
    docs = repeated_row_docs(rng)
    evt, ent = repeated_row_tables(rng)
    model = new_kce_model(default_bank(), evt, ent, fit_scaler(Corpus(tuple(docs)), evt, ent), variant=variant)
    for name in VARIANT_BLOCKS[variant]:
        setattr(model, name, rng.normal(0, 0.5, len(getattr(model, name))))
    tables = {"event_emb": evt, "entity_emb": ent}
    batch_dense = {k: np.zeros_like(t.vectors) for k, t in tables.items()}
    batch_sparse = {k: np.zeros_like(t.vectors) for k, t in tables.items()}
    calls = spy_row_sparse(monkeypatch)
    for doc in docs:
        calls.clear()
        plan = model_plan(model, doc)
        scores, cache = kce_forward(model, [plan])
        _, dscores = document_pair_loss(scores[0], salience_labels(doc))
        [grads] = kce_backward(model, [plan], cache, dscores[None], EMBEDDING_KEYS)
        assert_sparse_matches_dense(grads, calls, (plan.rows_v, plan.rows_e), tables, batch_dense, batch_sparse)
    for name in EMBEDDING_KEYS:
        assert batch_sparse[name].tobytes() == batch_dense[name].tobytes()
    assert batch_dense["event_emb"].any()
    assert batch_dense["entity_emb"].any() == (variant != "events_only")


def test_pagerank_backward_sparse_block_equals_dense_table(monkeypatch):
    rng = np.random.default_rng(22)
    docs = repeated_row_docs(rng)
    evt, _ = repeated_row_tables(rng)
    model = PageRankModel(temperature=0.4, combine_lambda=0.3, event_table=evt)
    tables = {"event_emb": evt}
    batch_dense = {"event_emb": np.zeros_like(evt.vectors)}
    batch_sparse = {"event_emb": np.zeros_like(evt.vectors)}
    calls = spy_row_sparse(monkeypatch)
    for doc in docs:
        calls.clear()
        plan = model_plan(model, doc)
        scores, cache = pagerank_forward(model, [plan])
        _, dscores = document_pair_loss(scores[0], salience_labels(doc))
        [grads] = pagerank_backward(model, [plan], cache, dscores[None], ("event_emb",))
        assert_sparse_matches_dense(grads, calls, (plan.rows_v,), tables, batch_dense, batch_sparse)
    assert batch_sparse["event_emb"].tobytes() == batch_dense["event_emb"].tobytes()
    assert batch_dense["event_emb"].any()


def test_kce_backward_differentiates_only_the_named_tables():
    rng = np.random.default_rng(23)
    docs = repeated_row_docs(rng)
    evt, ent = repeated_row_tables(rng)
    model = new_kce_model(default_bank(), evt, ent, fit_scaler(Corpus(tuple(docs)), evt, ent))
    for name in VARIANT_BLOCKS["full"]:
        setattr(model, name, rng.normal(0, 0.5, len(getattr(model, name))))
    # the same model without the entity kernels and the two entity-vote features
    no_entity_terms = dataclasses.replace(model, w_e=np.zeros_like(model.w_e), w_f=model.w_f * [1, 1, 1, 0, 0])
    weights = set(VARIANT_BLOCKS["full"])
    fed = 0
    for doc in docs:
        stack = [model_plan(model, doc)]
        scores = kce_forward(model, stack)[0]
        _, dscores = document_pair_loss(scores[0], salience_labels(doc))
        assert np.float64(dscores.sum()).tobytes() == POSITIVE_ZERO  # the bias's gradient, so it does not train

        def backward(model, tables):  # a cache serves one backward pass
            return kce_backward(model, stack, kce_forward(model, stack)[1], dscores[None], tables)[0]

        both = backward(model, EMBEDDING_KEYS)
        for tables in [(), ("event_emb",), ("entity_emb",)]:
            grads = backward(model, tables)
            assert grads.keys() == weights | set(tables)
            for name, grad in grads.items():
                if name in EMBEDDING_KEYS:
                    rows, block = grad
                    assert np.array_equal(rows, both[name][0])
                    assert block.tobytes() == both[name][1].tobytes()
                else:
                    assert grad.tobytes() == both[name].tobytes()
        # the entity cosines feed the event rows even when the entity table does not train
        _, alone = backward(no_entity_terms, ("event_emb",))["event_emb"]
        fed += not np.array_equal(both["event_emb"][1], alone)
    assert fed == len(docs)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n_events", [0, 1])
def test_pagerank_backward_of_fewer_than_two_events_is_zero(n_events):
    rng = np.random.default_rng(24)
    evt = toy_table(["a", "b"], 5, rng)
    events = tuple(
        EventMention(id=f"e{i}", head_lemma="a", surface="a", sentence_index=0) for i in range(n_events)
    )
    model = PageRankModel(temperature=0.4, combine_lambda=0.3, event_table=evt)
    plan = model_plan(model, Document(doc_id="small", num_sentences=1, events=events))
    _, cache = pagerank_forward(model, [plan])
    for dscores in (np.zeros(n_events), -np.ones(n_events), np.ones(n_events)):
        [grads] = pagerank_backward(model, [plan], cache, dscores[None], ("event_emb",))
        assert grads.keys() == {TEMPERATURE_KEY, "event_emb"}
        (d_temp,) = grads[TEMPERATURE_KEY]
        assert d_temp == 0.0 and not np.signbit(d_temp)
        rows, block = grads["event_emb"]
        assert np.array_equal(rows, np.unique(plan.rows_v))
        assert block.shape == (len(rows), evt.dim) and not block.any()


# --- gradient check ---------------------------------------------------------


def test_grad_check_full_model_small_batch():
    worst = 0.0
    for model, doc, seed in gradcheck_instances(10):
        worst = max(worst, grad_check(model, doc, step=1e-4, row_seed=seed))
    assert worst < 1e-4


def test_grad_check_linear_only_small_batch():
    worst = 0.0
    for model, doc, seed in gradcheck_instances(10):
        model.event_table.trainable = False
        model.entity_table.trainable = False
        worst = max(worst, grad_check(model, doc, step=1e-5, row_seed=seed))
    assert worst < 1e-7


def test_grad_check_samples_the_rows_of_a_large_document_by_seed(monkeypatch):
    """A document that references more table rows than ``GRAD_CHECK_ROWS`` has a seeded
    sample of them perturbed: two row seeds perturb different rows, and both checks stay
    under the usual tolerance."""
    model, doc, _seed = next(gradcheck_instances(1, n_events=18, n_entities=18, dim=16))
    plan = model_plan(model, doc)
    assert len(np.unique(plan.rows_v)) + len(np.unique(plan.rows_e)) > GRAD_CHECK_ROWS
    tables = {"event_emb": model.event_table.vectors, "entity_emb": model.entity_table.vectors}
    forward = training.kce_forward

    def checked_rows(row_seed):
        originals = {name: table.copy() for name, table in tables.items()}
        perturbed = set()

        def recording(model, stack):
            for name, table in tables.items():
                perturbed.update((name, int(r)) for r in np.flatnonzero((table != originals[name]).any(axis=1)))
            return forward(model, stack)

        monkeypatch.setattr(training, "kce_forward", recording)
        return grad_check(model, doc, step=1e-4, row_seed=row_seed), perturbed

    worst_a, rows_a = checked_rows(0)
    worst_b, rows_b = checked_rows(1)
    assert len(rows_a) == len(rows_b) == GRAD_CHECK_ROWS
    assert rows_a != rows_b
    assert max(worst_a, worst_b) < 1e-4


@pytest.mark.parametrize("step", [0.0, -1e-4, math.nan, math.inf])
def test_grad_check_refuses_a_step_that_is_not_finite_and_positive(step):
    model, doc, _seed = next(gradcheck_instances(1))
    with pytest.raises(DataError, match="step"):
        grad_check(model, doc, step=step)


def test_grad_check_reports_a_nan_error(monkeypatch):
    model, doc, seed = next(gradcheck_instances(1))
    pair_loss = training._pair_loss
    monkeypatch.setattr(training, "_pair_loss", lambda scores, pairs: (math.nan, pair_loss(scores, pairs)[1]))
    assert math.isnan(grad_check(model, doc, row_seed=seed))


def test_grad_check_refuses_features_only():
    model, corpus = small_training_setup(kind="letor")
    with pytest.raises(DataError, match="kernel centrality"):
        grad_check(model, corpus.documents[0])


def test_grad_check_single_class_doc_returns_zero():
    rng = np.random.default_rng(0)
    doc = doc_with_labels([1, 1, 1])
    evt = toy_table([f"l{i}" for i in range(3)], 4, rng)
    ent = toy_table(["pad"], 4, rng)
    scaler = fit_scaler(Corpus(documents=(doc,)), evt, ent)
    model = new_kce_model(default_bank(), evt, ent, scaler)
    assert grad_check(model, doc) == 0.0


# --- training loop ----------------------------------------------------------


def small_training_setup(seed=0, n_docs=12, kind="kce", variant="full"):
    rng = np.random.default_rng(seed)
    corpus = random_corpus(rng, n_docs=n_docs, n_events=6, n_entities=4, distinct_lemmas=False)
    ev_vocab = build_vocab(corpus, "event_lemma", min_count=1)
    en_vocab = build_vocab(corpus, "entity_key", min_count=1)
    evt = init_embeddings(ev_vocab, dim=12, seed=seed)
    ent = init_embeddings(en_vocab, dim=12, seed=seed + 1)
    if kind == "pagerank":
        return PageRankModel(temperature=1.0, combine_lambda=0.5, event_table=evt), corpus
    scaler = fit_scaler(corpus, evt, ent)
    if kind == "letor":
        return new_letor_model(evt, ent, scaler), corpus
    return new_kce_model(default_bank(), evt, ent, scaler, variant=variant), corpus


def test_train_refuses_an_object_that_is_not_a_model():
    _, corpus = small_training_setup()
    with pytest.raises(DataError, match="cannot train object of type dict"):
        train({"w_v": [0.0]}, corpus, corpus, TrainConfig(epochs=1, batch_docs=4, seed=1))


def test_train_returns_new_model_and_history():
    model, corpus = small_training_setup()
    cfg = TrainConfig(epochs=2, batch_docs=4, seed=1)
    trained, history = train(model, corpus, corpus, cfg)
    assert trained is not model
    assert not model.w_v.any()  # input untouched
    assert len(history.rows) == 2
    assert [r.epoch for r in history.rows] == [1, 2]
    assert all(np.isfinite(r.loss) for r in history.rows)
    assert trained.meta["trained_epochs"] == 2
    assert "best_epoch" in trained.meta and "best_dev_auc" in trained.meta


def test_train_identical_seeds_are_bitwise_identical():
    model, corpus = small_training_setup()
    cfg = TrainConfig(epochs=3, batch_docs=4, seed=7)
    t1, h1 = train(model, corpus, corpus, cfg)
    t2, h2 = train(model, corpus, corpus, cfg)
    assert np.array_equal(t1.w_v, t2.w_v)
    assert np.array_equal(t1.w_e, t2.w_e)
    assert np.array_equal(t1.w_f, t2.w_f)
    assert t1.bias == t2.bias
    assert np.array_equal(t1.event_table.vectors, t2.event_table.vectors)
    assert np.array_equal(t1.entity_table.vectors, t2.entity_table.vectors)
    assert h1 == h2


def test_train_different_seed_changes_result():
    model, corpus = small_training_setup()
    t1, _ = train(model, corpus, corpus, TrainConfig(epochs=2, batch_docs=4, seed=1))
    t2, _ = train(model, corpus, corpus, TrainConfig(epochs=2, batch_docs=4, seed=2))
    assert not np.array_equal(t1.w_v, t2.w_v)


def test_train_improves_loss_on_separable_data():
    model, corpus = small_training_setup(seed=3)
    cfg = TrainConfig(epochs=8, batch_docs=4, seed=0)
    trained, history = train(model, corpus, corpus, cfg)
    assert history.rows[-1].loss < history.rows[0].loss


def test_train_restores_best_dev_epoch():
    model, corpus = small_training_setup(seed=5)
    cfg = TrainConfig(epochs=5, batch_docs=4, seed=2)
    trained, history = train(model, corpus, corpus, cfg)
    best = max(history.rows, key=lambda r: (r.dev_auc, -r.epoch))
    assert trained.meta["best_epoch"] == best.epoch
    assert trained.meta["best_dev_auc"] == pytest.approx(best.dev_auc)


def test_train_freeze_embeddings():
    model, corpus = small_training_setup(seed=6)
    before = model.event_table.vectors.copy()
    cfg = TrainConfig(epochs=2, batch_docs=4, seed=0, freeze_embeddings=True)
    trained, _ = train(model, corpus, corpus, cfg)
    assert np.array_equal(trained.event_table.vectors, before)
    assert trained.w_v.any()  # linear weights still moved


def frozen_copy(model):
    """The model on ``trainable=False`` copies of its tables."""
    tables = ["event_table"] + (["entity_table"] if isinstance(model, KCEModel) else [])
    return dataclasses.replace(
        model, **{name: dataclasses.replace(getattr(model, name), trainable=False) for name in tables}
    )


def trained_bytes(model):
    """Every trained number of a KCE or PageRank model, as bytes."""
    if isinstance(model, PageRankModel):
        numbers = [np.array([model.temperature, model.combine_lambda]), model.event_table.vectors]
    else:
        tables = [model.event_table.vectors, model.entity_table.vectors]
        numbers = [model.w_v, model.w_e, model.w_f, np.array([model.bias]), *tables]
    return [a.tobytes() for a in numbers]


@pytest.mark.parametrize("kind", [*KCE_VARIANTS, "pagerank"])
def test_frozen_training_does_no_embedding_gradient_work(monkeypatch, kind):
    if kind == "pagerank":
        model, corpus = small_training_setup(seed=10, kind="pagerank")
    else:
        model, corpus = small_training_setup(seed=10, variant=kind)
    cfg = TrainConfig(epochs=2, batch_docs=4, seed=0, freeze_embeddings=True)
    calls = spy_row_sparse(monkeypatch)
    trained, history = train(model, corpus, corpus, cfg)
    unfrozen_cfg = dataclasses.replace(cfg, freeze_embeddings=False)
    want, want_history = train(frozen_copy(model), corpus, corpus, unfrozen_cfg)
    assert calls == []
    assert trained_bytes(trained) == trained_bytes(want)
    assert history == want_history
    assert trained_bytes(trained) != trained_bytes(model)  # the weights or the temperature moved
    assert trained.event_table.vectors.tobytes() == model.event_table.vectors.tobytes()


@pytest.mark.parametrize("kind", ["kce", "letor", "pagerank"])
def test_train_returns_the_best_epoch_model_bitwise(kind):
    model, corpus = small_training_setup(seed=0, kind=kind)
    cfg = TrainConfig(epochs=6, learning_rate=0.05, batch_docs=4)
    trained, _ = train(model, corpus, corpus, cfg)
    best = trained.meta["best_epoch"]
    assert best < cfg.epochs  # later epochs ran, and the restore undid them
    stopped, _ = train(model, corpus, corpus, dataclasses.replace(cfg, epochs=best))
    assert trained_bytes(trained) == trained_bytes(stopped)


@pytest.mark.parametrize("kind", ["kce", "letor", "pagerank"])
def test_train_on_an_empty_dev_corpus_keeps_the_last_epoch(monkeypatch, kind, tmp_path):
    model, corpus = small_training_setup(seed=0, kind=kind)
    cfg = TrainConfig(epochs=3, learning_rate=0.05, batch_docs=4)
    empty = Corpus(documents=(), split_tag="dev")
    trained, history = train(model, corpus, empty, cfg)
    assert trained.meta["best_epoch"] is None and trained.meta["best_dev_auc"] is None
    history.to_csv(tmp_path / "history.csv")
    rows = (tmp_path / "history.csv").read_text(encoding="utf-8").splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["1", "2", "3"]
    assert all(row.endswith(",,") for row in rows)  # blank dev_auc and dev_p1
    # a dev AUC that rises every epoch picks the last epoch: the same parameters, and the
    # improving epochs before it are the only ones copied
    rising = iter(range(1, cfg.epochs + 1))
    monkeypatch.setattr(training, "_dev_metrics", lambda model, dev, plans: (float(next(rising)), None))
    copied, shallow_copy = [], copy.copy
    monkeypatch.setattr(training.copy, "copy", lambda obj: copied.append(obj) or shallow_copy(obj))
    last, _ = train(model, corpus, empty, cfg)
    assert last.meta["best_epoch"] == cfg.epochs
    assert trained_bytes(trained) == trained_bytes(last)
    assert len(copied) == cfg.epochs - 1


@pytest.mark.parametrize("kind", ["kce", "letor", "pagerank"])
def test_train_for_zero_epochs_returns_an_unchanged_copy(kind):
    model, corpus = small_training_setup(seed=0, kind=kind)
    trained, history = train(model, corpus, corpus, TrainConfig(epochs=0))
    assert trained is not model
    assert trained_bytes(trained) == trained_bytes(model)
    assert history.rows == []
    assert trained.meta == {}


def relabeled(corpus, salient):
    """The corpus with every event's salient flag set to ``salient``."""
    return Corpus(
        documents=tuple(
            dataclasses.replace(doc, events=tuple(dataclasses.replace(ev, salient=salient) for ev in doc.events))
            for doc in corpus.documents
        )
    )


def first_trained_doc(corpus, cfg):
    """The first document with a hinge pair in the first epoch's order: the first one ``train`` scores."""
    order = np.random.default_rng(cfg.seed).permutation(len(corpus.documents))
    return next(corpus.documents[i] for i in order if len(make_pairs(corpus.documents[i], cfg)))


def test_train_kce_non_finite_training_score_raises_naming_the_document():
    model, corpus = small_training_setup(seed=0)
    model.w_v[:] = 1e308  # every score overflows to inf, and inf - inf margins are NaN
    cfg = TrainConfig(epochs=2, batch_docs=4, freeze_embeddings=True)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericError) as err:
        train(model, corpus, Corpus(()), cfg)
    assert str(err.value) == f"non-finite score while training on doc {first_trained_doc(corpus, cfg).doc_id!r}"


def test_train_pagerank_non_finite_training_score_raises_naming_the_document():
    model, corpus = small_training_setup(kind="pagerank")
    model = frozen_copy(model)
    cfg = TrainConfig(epochs=2, batch_docs=4)
    doc = first_trained_doc(corpus, cfg)
    model.event_table.vectors[model.event_table.vocabulary.token_to_index[doc.events[0].head_lemma]] = np.nan
    with np.errstate(invalid="ignore"), pytest.raises(NumericError) as err:
        train(model, corpus, Corpus(()), cfg)
    assert str(err.value) == f"non-finite score while training on doc {doc.doc_id!r}"


def test_train_kce_non_finite_dev_score_raises_naming_the_document():
    model, corpus = small_training_setup()
    model = frozen_copy(model)
    model.w_v[:] = 1e308  # every score overflows to inf
    no_pairs = relabeled(corpus, salient=True)  # so training scores nothing, and only the dev pass sees it
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericError) as err:
        train(model, no_pairs, corpus, TrainConfig(epochs=2, batch_docs=4))
    assert str(err.value) == f"non-finite score while evaluating doc {corpus.documents[0].doc_id!r}"


def test_train_pagerank_non_finite_dev_score_raises_naming_the_document():
    model, corpus = small_training_setup(kind="pagerank")
    model = frozen_copy(model)
    dev_doc = corpus.documents[-1]
    model.event_table.vectors[model.event_table.vocabulary.token_to_index[dev_doc.events[0].head_lemma]] = np.nan
    no_pairs = relabeled(corpus, salient=True)  # the temperature never moves
    with np.errstate(invalid="ignore"), pytest.raises(NumericError) as err:
        train(model, no_pairs, Corpus(documents=(dev_doc,)), TrainConfig(epochs=2, batch_docs=4))
    assert f"doc {dev_doc.doc_id!r}" in str(err.value)


def reach_setup(kind="full", seed=21):
    """A model whose tables hold the rows of 18 documents with lemma pools of their own, fitted on
    the first 10 (the fifth has no pairs) with the last 8 as dev: dev reaches event and entity
    rows that no fit document does, and no document reaches the unknown rows."""
    rng = np.random.default_rng(seed)
    docs = [
        random_document(
            rng,
            doc_id=f"doc-{d:03d}",
            n_events=6,
            n_entities=3 if d < 10 else 6,
            distinct_lemmas=False,
            lemma_pool=[f"ev{(3 * d + i) % 40}" for i in range(4)],
        )
        for d in range(18)
    ]
    docs[4] = relabeled(Corpus(documents=(docs[4],)), salient=True).documents[0]
    vocab_docs, fit, dev = Corpus(tuple(docs)), Corpus(tuple(docs[:10])), Corpus(tuple(docs[10:]))
    evt = init_embeddings(build_vocab(vocab_docs, "event_lemma", min_count=1), dim=8, seed=seed)
    ent = init_embeddings(build_vocab(vocab_docs, "entity_key", min_count=1), dim=8, seed=seed + 1)
    if kind == "pagerank":
        return PageRankModel(temperature=1.0, combine_lambda=0.5, event_table=evt), fit, dev
    if kind == "letor":
        return new_letor_model(evt, ent, fit_scaler(vocab_docs, evt, ent)), fit, dev
    return new_kce_model(default_bank(), evt, ent, fit_scaler(vocab_docs, evt, ent), variant=kind), fit, dev


# (events, entities) of mixed_setup's documents: the fit split's shapes recur, so batches of 3
# and of 50 train stacks of several documents and of several shapes
MIXED_FIT_SHAPES = [(6, 3), (4, 0), (6, 3), (1, 2), (3, 5), (4, 0), (6, 3), (3, 5), (4, 0), (6, 3), (1, 2), (3, 5)]
MIXED_DEV_SHAPES = [(6, 3), (4, 0), (3, 5), (6, 3), (5, 2), (4, 0)]


def mixed_setup(kind="full", seed=31):
    """``reach_setup``'s models over documents of mixed shapes: entity-free ones, one-event ones (no
    pairs), and an all-salient one (no pairs either) among same-shape documents that have pairs."""
    rng = np.random.default_rng(seed)
    docs = [
        random_document(
            rng,
            doc_id=f"doc-{d:03d}",
            n_events=n_events,
            n_entities=n_entities,
            distinct_lemmas=False,
            lemma_pool=[f"ev{(3 * d + i) % 40}" for i in range(4)],
        )
        for d, (n_events, n_entities) in enumerate(MIXED_FIT_SHAPES + MIXED_DEV_SHAPES)
    ]
    docs[2] = relabeled(Corpus(documents=(docs[2],)), salient=True).documents[0]
    fit, dev = Corpus(tuple(docs[: len(MIXED_FIT_SHAPES)])), Corpus(tuple(docs[len(MIXED_FIT_SHAPES) :]))
    evt = init_embeddings(build_vocab(Corpus(tuple(docs)), "event_lemma", min_count=1), dim=8, seed=seed)
    ent = init_embeddings(build_vocab(Corpus(tuple(docs)), "entity_key", min_count=1), dim=8, seed=seed + 1)
    if kind == "pagerank":
        return PageRankModel(temperature=1.0, combine_lambda=0.5, event_table=evt), fit, dev
    return new_kce_model(default_bank(), evt, ent, fit_scaler(Corpus(tuple(docs)), evt, ent), variant=kind), fit, dev


def test_mixed_setup_has_the_shapes_it_promises():
    model, fit, _ = mixed_setup()
    with_pairs = [k for k, doc in enumerate(fit.documents) if make_pairs(doc, TrainConfig()).size]
    assert {2, 3, 10}.isdisjoint(with_pairs)  # the all-salient document and the one-event ones
    plans = [model_plan(model, doc) for doc in fit.documents]
    stacks = training._shape_stacks(plans, with_pairs)
    assert sorted(len(plans[ks[0]].rows_v) for ks in stacks) == [3, 4, 6]  # one entity-free
    assert all(len(ks) >= 2 for ks in stacks) and not len(plans[stacks[1][0]].rows_e)


def assert_trains_as_dense_reference(model, fit, dev, cfg):
    trained, history = train(model, fit, dev, cfg)
    want, want_history = train_dense_reference(model, fit, dev, cfg)
    assert trained_bytes(trained) == trained_bytes(want)
    assert trained.meta == want.meta
    assert [repr(row) for row in history.rows] == [repr(row) for row in want_history.rows]
    return trained


def test_reach_setup_leaves_rows_unreached():
    model, fit, dev = reach_setup()
    assert not make_pairs(fit.documents[4], TrainConfig()).size
    for table, attr in ((model.event_table, "rows_v"), (model.entity_table, "rows_e")):
        fit_rows = {int(r) for doc in fit.documents for r in getattr(model_plan(model, doc), attr)}
        dev_rows = {int(r) for doc in dev.documents for r in getattr(model_plan(model, doc), attr)}
        assert dev_rows - fit_rows
        assert table.vocabulary.unknown_index not in fit_rows | dev_rows


# every model kind on reach_setup's documents of one shape, then on mixed_setup's
REFERENCE_CASES = [(kind, setup) for setup in (reach_setup, mixed_setup) for kind in (*KCE_VARIANTS, "pagerank")]
REFERENCE_IDS = [kind + ("-mixed-shapes" if setup is mixed_setup else "") for kind, setup in REFERENCE_CASES]


@pytest.mark.parametrize("betas", [(0.9, 0.999), (0.0, 0.0)], ids=["default-betas", "zero-betas"])
@pytest.mark.parametrize("batch_docs", [1, 3, 50])
@pytest.mark.parametrize("epochs", [1, 3])
@pytest.mark.parametrize("kind, setup", REFERENCE_CASES, ids=REFERENCE_IDS)
def test_train_equals_the_every_row_adam_reference_bitwise(kind, setup, epochs, batch_docs, betas):
    model, fit, dev = setup(kind)
    limit = 5 if batch_docs == 3 else None
    beta1, beta2 = betas  # zero betas decay the moments of the rows a batch does not touch to -0.0
    cfg = TrainConfig(
        epochs=epochs, batch_docs=batch_docs, seed=3, learning_rate=0.05, max_pairs_per_doc=limit,
        beta1=beta1, beta2=beta2,
    )
    trained = assert_trains_as_dense_reference(model, fit, dev, cfg)
    if epochs == 3 and kind in ("full", "pagerank") and setup is reach_setup:
        assert trained.meta["best_epoch"] < epochs  # the restore undid later epochs


@pytest.mark.parametrize("kind", ["letor", "full", "pagerank"])
def test_train_without_a_trained_table_equals_the_every_row_adam_reference_bitwise(kind):
    model, fit, dev = reach_setup(kind)
    cfg = TrainConfig(epochs=3, batch_docs=3, seed=3, learning_rate=0.05, freeze_embeddings=kind != "letor")
    assert_trains_as_dense_reference(model, fit, dev, cfg)


@pytest.mark.parametrize("kind", ["full", "letor", "pagerank"])
def test_train_shares_the_vocabularies_and_leaves_the_input_arrays(kind):
    model, fit, dev = reach_setup(kind)
    before = trained_bytes(model)
    trained, _ = train(model, fit, dev, TrainConfig(epochs=2, batch_docs=3, learning_rate=0.05))
    tables = ("event_table",) if kind == "pagerank" else ("event_table", "entity_table")
    for name in tables:
        assert getattr(trained, name) is not getattr(model, name)
        assert getattr(trained, name).vocabulary is getattr(model, name).vocabulary
    assert trained_bytes(model) == before
    assert trained_bytes(trained) != before


@pytest.mark.parametrize("kind", ["full", "pagerank"])
def test_train_numeric_error_mid_epoch_leaves_the_input_arrays(kind):
    model, fit, dev = reach_setup(kind)
    cfg = TrainConfig(epochs=2, batch_docs=3)
    order = np.random.default_rng(cfg.seed).permutation(len(fit.documents))
    first_batch = {ev.head_lemma for i in order[: cfg.batch_docs] for ev in fit.documents[i].events}
    later = {ev.head_lemma for i in order[cfg.batch_docs :] for ev in fit.documents[i].events}
    lemma = min(later - first_batch)  # so the first batch steps, and a later one raises
    model.event_table.vectors[model.event_table.vocabulary.lookup(lemma)] = np.nan
    before = trained_bytes(model)
    with np.errstate(invalid="ignore"), pytest.raises(NumericError, match="non-finite score while training"):
        train(model, fit, dev, cfg)
    assert trained_bytes(model) == before


def test_new_letor_model_leaves_the_caller_tables_trainable(tmp_path):
    model, corpus = small_training_setup(seed=11)
    evt, ent, scaler = model.event_table, model.entity_table, model.scaler
    letor = new_letor_model(evt, ent, scaler)
    assert evt.trainable and ent.trainable
    assert not letor.event_table.trainable and not letor.entity_table.trainable
    kce = new_kce_model(default_bank(), evt, ent, scaler)
    kce, _ = train(kce, corpus, corpus, TrainConfig(epochs=2, batch_docs=4))
    assert kce.event_table.vectors.tobytes() != evt.vectors.tobytes()
    # the file is the one a letor model built on frozen tables writes
    save_model(letor, tmp_path / "letor.json")
    frozen = frozen_copy(model)
    save_model(new_letor_model(frozen.event_table, frozen.entity_table, scaler), tmp_path / "want.json")
    text = (tmp_path / "letor.json").read_text(encoding="utf-8")
    assert text == (tmp_path / "want.json").read_text(encoding="utf-8")
    obj = json.loads(text)
    assert obj["event_table"]["trainable"] is False and obj["entity_table"]["trainable"] is False


def test_train_letor_moves_only_linear_weights():
    model, corpus = small_training_setup(kind="letor")
    before = model.event_table.vectors.copy()
    trained, _ = train(model, corpus, corpus, TrainConfig(epochs=2, batch_docs=4, seed=0))
    assert np.array_equal(trained.event_table.vectors, before)
    assert trained.w_f.any()
    assert not trained.w_v.any() and not trained.w_e.any()  # features_only has no kernel blocks
    assert trained.bias == 0.0  # the hinge cannot move the bias, so training leaves it alone


def test_features_only_matches_letor_reference_bitwise():
    """Scores and per-document training gradients equal the stand-alone LeToR formula bit for bit."""
    rng = np.random.default_rng(17)
    docs = [
        Document(doc_id="empty", num_sentences=1, events=()),
        random_document(rng, doc_id="single", n_events=1, n_entities=2),
        random_document(rng, doc_id="entity-free", n_events=6, n_entities=0, distinct_lemmas=False),
    ] + [random_document(rng, doc_id=f"d{k}", n_events=7, n_entities=4, distinct_lemmas=False) for k in range(12)]
    corpus = Corpus(documents=tuple(docs))
    evt = init_embeddings(build_vocab(corpus, "event_lemma", min_count=1), dim=6, seed=1)
    ent = init_embeddings(build_vocab(corpus, "entity_key", min_count=1), dim=6, seed=2)
    model = new_letor_model(evt, ent, fit_scaler(corpus, evt, ent))
    model.w_f[:] = rng.normal(size=5)
    model.bias = float(rng.normal())
    cfg = TrainConfig(seed=3)
    with_pairs = 0
    for doc in docs:
        want, scaled = letor_scores(model, doc)
        plan = model_plan(model, doc)
        assert np.array_equal(kce_forward(model, [plan])[0][0], want)
        assert np.array_equal(model_scores(model, doc), want)
        pairs = make_pairs(doc, cfg)
        tables = tuple(k for k in EMBEDDING_KEYS if k in training._param_arrays(model, False))
        [(loss, grads)] = training._batch_loss_and_grads(model, [(doc.doc_id, plan, pairs)], tables)
        if len(pairs) == 0:
            assert (loss, grads) == (0.0, None)
            continue
        with_pairs += 1
        want_loss, dscores = training._pair_loss(want, pairs)
        assert loss == want_loss
        want = letor_grads(scaled, dscores)
        assert want.pop("bias").tobytes() == POSITIVE_ZERO  # the reference's bias gradient: nothing to train
        assert grads.keys() == want.keys()  # only w_f; frozen tables: no embedding backward
        for name, value in want.items():
            assert np.array_equal(grads[name], value)
    assert with_pairs >= 6


@pytest.mark.parametrize("variant", VARIANT_BLOCKS)
@pytest.mark.parametrize("freeze", [False, True])
@pytest.mark.parametrize(
    "cfg",
    [
        TrainConfig(epochs=2, batch_docs=4, seed=3),
        TrainConfig(epochs=2, batch_docs=5, seed=4, beta1=0.0, beta2=0.0, max_pairs_per_doc=7),
    ],
)
def test_train_returns_the_bias_it_was_given_bitwise(variant, freeze, cfg):
    model, corpus = small_training_setup(variant=variant)
    for bias in (0.75, -0.0):
        model.bias = bias
        trained, _ = train(model, corpus, corpus, dataclasses.replace(cfg, freeze_embeddings=freeze))
        assert any(getattr(trained, name).any() for name in VARIANT_BLOCKS[variant])  # the weights did train
        assert np.float64(trained.bias).tobytes() == np.float64(bias).tobytes()


def test_train_pagerank_tunes_lambda_and_temperature():
    model, corpus = small_training_setup(kind="pagerank")
    trained, history = train(model, corpus, corpus, TrainConfig(epochs=2, batch_docs=4, seed=0))
    assert 0.0 <= trained.combine_lambda <= 1.0
    assert trained.temperature > 0.0
    assert trained.temperature != model.temperature  # gradient moved it
    assert len(history.rows) == 2


def test_train_pagerank_keeps_lambda_when_no_dev_document_has_both_classes():
    model, corpus = small_training_setup(kind="pagerank")
    model.combine_lambda = 0.37  # off the grid
    dev = relabeled(corpus, salient=True)
    trained, history = train(model, corpus, dev, TrainConfig(epochs=2, batch_docs=4, seed=0))
    assert trained.combine_lambda == 0.37
    assert [r.dev_auc for r in history.rows] == [None, None]
    assert all(r.dev_p1 is not None for r in history.rows)


def test_train_pagerank_lambda_ties_keep_the_smallest_grid_value():
    model, corpus = small_training_setup(kind="pagerank")
    model.combine_lambda = 0.37
    lemma = corpus.documents[0].events[0].head_lemma
    # one lemma throughout: equal frequencies and a uniform walk, so every mix scores every event alike
    events = tuple(EventMention(f"e{i}", lemma, "x", 0, salient=i < 2) for i in range(5))
    dev = Corpus(documents=(Document(doc_id="flat", num_sentences=1, events=events),))
    trained, history = train(model, corpus, dev, TrainConfig(epochs=2, batch_docs=4, seed=0))
    assert trained.combine_lambda == 0.0
    assert [r.dev_auc for r in history.rows] == [0.5, 0.5]


LAMBDA_CASES = ("random", "single-class documents mixed in", "all tied", "no two-class document", "nan walk")


def lambda_search_case(seed):
    """A PageRank model off the grid and a random dev corpus of the kind ``seed`` picks from ``LAMBDA_CASES``."""
    kind = LAMBDA_CASES[seed % len(LAMBDA_CASES)]
    rng = np.random.default_rng([seed, 31])
    pool = [f"ev{i}" for i in range(int(rng.integers(2, 7)))]
    docs = []
    for d in range(int(rng.integers(1, 9))):
        n = int(rng.integers(0, 10))
        if kind == "all tied":  # one lemma a document: equal frequencies and a uniform walk
            n, lemma = n % 5, pool[d % len(pool)]  # the walk of up to 4 events is exactly uniform
            events = tuple(EventMention(f"e{i}", lemma, "x", 0, salient=bool(rng.integers(0, 2))) for i in range(n))
            docs.append(Document(doc_id=f"doc-{d}", num_sentences=1, events=events))
        else:
            docs.append(random_document(rng, doc_id=f"doc-{d}", n_events=n, n_entities=0, lemma_pool=pool,
                                        distinct_lemmas=False))
    if kind in ("single-class documents mixed in", "no two-class document"):
        every = kind == "no two-class document"
        docs = [
            dataclasses.replace(doc, events=tuple(dataclasses.replace(ev, salient=bool(d % 2)) for ev in doc.events))
            if every or rng.random() < 0.5 else doc
            for d, doc in enumerate(docs)
        ]
    if kind == "nan walk":  # a two-class document with a NaN row: its walk is NaN
        events = (EventMention("e0", "nan-row", "x", 0, salient=True), EventMention("e1", pool[0], "x", 0, salient=False))
        docs.insert(int(rng.integers(0, len(docs) + 1)), Document(doc_id="nan", num_sentences=1, events=events))
    dev = Corpus(documents=tuple(docs))
    table = init_embeddings(build_vocab(dev, "event_lemma", min_count=1), dim=4, seed=seed)
    table.vectors[:] = np.round(table.vectors, 1)  # coarse vectors tie some cosines
    if kind == "nan walk":
        table.vectors[table.vocabulary.token_to_index["nan-row"]] = np.nan
    temperature = float(rng.choice([0.05, 0.5, 1.0, 3.0]))
    return kind, PageRankModel(temperature=temperature, combine_lambda=0.37, event_table=table), dev


def float_bits(value):
    return None if value is None else float(value).hex()


@pytest.mark.parametrize("seed", range(60))
def test_dev_lambda_search_matches_the_evaluate_reference_bitwise(seed):
    kind, model, dev = lambda_search_case(seed)
    got, want = copy.deepcopy(model), copy.deepcopy(model)
    plans = [model_plan(got, doc) for doc in dev.documents]
    with np.errstate(invalid="ignore"):
        want.combine_lambda = reference_lambda_search(want, dev)
    if kind == "nan walk":
        # every mix of a NaN walk scores NaN: the first grid value is taken, and the pass refuses it
        with np.errstate(invalid="ignore"), pytest.raises(NumericError, match="while evaluating doc 'nan'"):
            training._dev_metrics(got, dev, plans)
        assert got.combine_lambda == want.combine_lambda == LAMBDA_GRID[0]
        return
    dev_auc, dev_p1 = training._dev_metrics(got, dev, plans)
    report = evaluate([model_scores(want, doc) for doc in dev.documents], dev)
    assert got.combine_lambda == want.combine_lambda
    assert (float_bits(dev_auc), float_bits(dev_p1)) == (float_bits(report.auc), float_bits(report.p_at[1]))
    if kind == "no two-class document":
        assert dev_auc is None and got.combine_lambda == model.combine_lambda
    if kind == "all tied" and dev_auc is not None:
        assert dev_auc == 0.5 and got.combine_lambda == LAMBDA_GRID[0]


def test_train_unlabeled_doc_raises():
    model, corpus = small_training_setup()
    bad = random_document(np.random.default_rng(0), doc_id="bad", labeled=False)
    with_bad = Corpus(documents=corpus.documents + (bad,))
    with pytest.raises(DataError, match="bad"):
        train(model, with_bad, with_bad, TrainConfig(epochs=1, batch_docs=4))


def test_train_config_round_trip():
    cfg = TrainConfig(learning_rate=0.01, epochs=3, max_pairs_per_doc=9, seed=4)
    again = TrainConfig.from_json(json.loads(json.dumps(cfg.to_json())))
    assert again == cfg


@pytest.mark.parametrize(
    "bad",
    [
        {"epochs": "3"},
        {"epochs": True},
        {"epochs": 2.0},
        {"epochs": -1},
        {"batch_docs": 0},
        {"seed": -1},
        {"learning_rate": "0.1"},
        {"learning_rate": float("nan")},
        {"learning_rate": 0.0},
        {"learning_rate": 10**400},
        {"eps": float("inf")},
        {"beta1": 1.0},
        {"beta2": -0.1},
        {"beta1": False},
        {"max_pairs_per_doc": 0},
        {"max_pairs_per_doc": 2.5},
        {"freeze_embeddings": 1},
        {"momentum": 0.9},
        [["epochs", 3]],
    ],
)
def test_train_config_rejects_bad_fields(bad):
    with pytest.raises(DataError):
        TrainConfig.from_json(bad)


def test_train_config_accepts_edge_values():
    obj = {"learning_rate": 1, "epochs": 0, "beta1": 0.0, "max_pairs_per_doc": None, "freeze_embeddings": True}
    cfg = TrainConfig.from_json(obj)
    assert cfg == TrainConfig(learning_rate=1, epochs=0, beta1=0.0, freeze_embeddings=True)


def test_history_csv(tmp_path):
    model, corpus = small_training_setup()
    _, history = train(model, corpus, corpus, TrainConfig(epochs=2, batch_docs=4, seed=0))
    path = tmp_path / "h.csv"
    history.to_csv(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "epoch,loss,dev_auc,dev_p1"
    assert len(lines) == 3
    # floats round-trip exactly through repr
    loss_back = float(lines[1].split(",")[1])
    assert loss_back == history.rows[0].loss

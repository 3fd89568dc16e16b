import itertools
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import kstest

from helpers import random_corpus
from oracles import rank_sum_auc
from salience.corpus import Corpus, Document, EventMention, salience_labels
from salience.errors import DataError
from salience.metrics import (
    MetricsReport,
    auc,
    evaluate,
    permutation_test,
    precision_at_k,
    recall_at_k,
)
from salience.models import ranked_order


def pair_count_auc(scores, labels):
    """Exhaustive Mann-Whitney: wins + half ties over all (pos, neg) pairs."""
    pos = [s for s, y in zip(scores, labels) if y]
    neg = [s for s, y in zip(scores, labels) if not y]
    if not pos or not neg:
        return None
    wins = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1.0
            elif p == q:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def test_auc_matches_pair_counting_exactly():
    rng = np.random.default_rng(0)
    for _ in range(10_000):
        n = int(rng.integers(2, 21))
        labels = rng.integers(0, 2, size=n).astype(bool)
        # quantized scores force plenty of exact ties
        scores = np.round(rng.normal(size=n), 1)
        got = auc(scores, labels)
        want = pair_count_auc(scores, labels)
        if want is None:
            assert got is None
        else:
            assert got == want


def test_auc_single_class_is_none():
    assert auc(np.array([1.0, 2.0]), np.array([True, True])) is None
    assert auc(np.array([1.0, 2.0]), np.array([False, False])) is None


INF = math.inf


@pytest.mark.parametrize(
    "scores, labels",
    [
        ([INF, -INF, 1.0, INF, -INF, 0.0], [1, 0, 1, 0, 1, 0]),  # infinities, tied among themselves
        ([-INF, -INF, -INF], [1, 0, 0]),
        ([-0.0, 0.0, 0.0, -0.0, 1.0], [1, 0, 1, 0, 0]),  # signed zeros tie
        ([0.0, -0.0], [1, 0]),
        ([2.5] * 7, [1, 0, 0, 1, 1, 0, 1]),  # everything tied
        ([1e308, -1e308, 5e-324, -5e-324], [1, 0, 0, 1]),
    ],
)
def test_auc_edge_cases_equal_pair_count_bitwise(scores, labels):
    scores = np.array(scores, dtype=np.float64)
    labels = np.array(labels, dtype=bool)
    assert auc(scores, labels).hex() == pair_count_auc(scores, labels).hex()
    assert auc(scores, labels).hex() == rank_sum_auc(scores, labels).hex()


@pytest.mark.parametrize("where", [0, 1, 3])
def test_auc_nan_score_gives_nan_like_the_rank_sum(where):
    scores = np.array([0.3, 0.1, 0.7, 0.2])
    scores[where] = math.nan
    labels = np.array([True, False, True, False])
    assert math.isnan(auc(scores, labels))
    assert math.isnan(rank_sum_auc(scores, labels))


def test_auc_single_class_is_none_even_with_nan():
    assert auc(np.array([math.nan, 1.0]), np.array([True, True])) is None


def test_auc_shape_mismatch_raises():
    with pytest.raises(DataError, match="equal length"):
        auc(np.array([1.0, 2.0, 3.0]), np.array([True, False]))


def test_auc_matches_rank_sum_bitwise_under_heavy_ties():
    rng = np.random.default_rng(7)
    specials = np.array([math.inf, -math.inf, -0.0, 0.0])
    for _ in range(3000):
        n = int(rng.integers(2, 80))
        labels = rng.random(n) < rng.uniform(0.05, 0.95)
        scores = rng.integers(-3, 4, size=n).astype(np.float64)  # at most 7 distinct values
        swap = rng.random(n) < 0.1
        scores[swap] = rng.choice(specials, size=int(swap.sum()))
        got = auc(scores, labels)
        want = rank_sum_auc(scores, labels)
        if want is None:
            assert got is None
        else:
            assert got.hex() == want.hex()


def naive_p_at_k(order_scores, labels, k):
    order = np.argsort(-np.asarray(order_scores), kind="stable")
    top = order[:k]
    return sum(1 for i in top if labels[i]) / k


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 10**6), k=st.sampled_from([1, 3, 5, 10]))
def test_p_and_r_at_k_match_naive_counting(seed, k):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 15))
    labels = rng.integers(0, 2, size=n).astype(bool)
    scores = rng.normal(size=n)
    order = np.argsort(-scores, kind="stable")
    ranked_labels = labels[order]
    assert precision_at_k(ranked_labels, k) == naive_p_at_k(scores, labels, k)
    total = labels.sum()
    want_r = (ranked_labels[:k].sum() / total) if total else 0.0
    assert recall_at_k(ranked_labels, k) == want_r


def test_p_at_k_divides_by_k_even_when_short():
    # 2 events, 1 salient at rank 1: P@5 = 1/5, not 1/2
    assert precision_at_k(np.array([True, False]), 5) == pytest.approx(0.2)


def test_k_must_be_positive():
    with pytest.raises(DataError):
        precision_at_k(np.array([True]), 0)
    with pytest.raises(DataError):
        recall_at_k(np.array([True]), -1)


def labeled_doc(doc_id, labels, n_sentences=3):
    events = tuple(
        EventMention(
            id=f"e{i}",
            head_lemma=f"l{i}",
            surface=f"l{i}",
            sentence_index=min(i, n_sentences - 1),
            salient=bool(y),
        )
        for i, y in enumerate(labels)
    )
    return Document(
        doc_id=doc_id,
        num_sentences=n_sentences,
        events=events,
        abstract_lemmas=frozenset(f"l{i}" for i, y in enumerate(labels) if y),
    )


def test_evaluate_macro_averaging_and_eligibility():
    docs = (
        labeled_doc("a", [1, 0, 0]),  # auc-eligible, pr-eligible
        labeled_doc("b", [1, 1, 1]),  # all salient: pr-eligible, no auc
        labeled_doc("c", [0, 0]),  # no salient: auc ineligible, pr ineligible
    )
    corpus = Corpus(documents=docs)
    scores = [np.array([3.0, 2.0, 1.0]), np.array([1.0, 2.0, 3.0]), np.array([1.0, 2.0])]
    report = evaluate(scores, corpus, ks=(1, 2))
    assert report.n_docs == 3
    assert report.n_docs_auc == 1
    assert report.n_docs_pr == 2
    assert report.auc == 1.0
    # doc a: P@1 = 1; doc b: P@1 = 1 -> macro mean 1.0
    assert report.p_at[1] == 1.0
    # doc a: R@2 = 1/1; doc b: R@2 = 2/3
    assert report.r_at[2] == pytest.approx((1.0 + 2.0 / 3.0) / 2)


@pytest.mark.parametrize("tie_seed", [None, 3])
def test_evaluate_counts_hits_like_naive_slicing_bitwise(tie_seed):
    rng = np.random.default_rng(12)
    docs = [labeled_doc("empty", []), labeled_doc("none-salient", [0, 0, 0]), labeled_doc("all-salient", [1] * 5)]
    for d in range(20):
        docs.append(labeled_doc(f"d{d}", rng.integers(0, 2, size=int(rng.integers(1, 13))).tolist()))
    corpus = Corpus(documents=tuple(docs))
    scores = [np.round(rng.normal(size=len(doc.events)), 1) for doc in docs]  # with ties
    ks = (1, 3, 5, 10)  # below, equal to and above the event counts
    report = evaluate(scores, corpus, ks=ks, tie_seed=tie_seed)
    assert {d.n_events for d in report.per_doc} >= {0, 3, 5}
    for doc_idx, (doc, doc_scores, got) in enumerate(zip(docs, scores, report.per_doc)):
        if tie_seed is None:
            order = ranked_order(doc_scores, [ev.id for ev in doc.events])
        else:
            order = ranked_order(doc_scores, rng=np.random.default_rng([tie_seed, doc_idx]))
        ranked = [bool(x) for x in salience_labels(doc)[order]]
        total = sum(ranked)
        assert got.n_salient == total
        for k in ks:
            hits = sum(ranked[:k])
            assert type(got.p_at[k]) is float and got.p_at[k].hex() == (hits / k).hex()
            assert type(got.r_at[k]) is float and got.r_at[k].hex() == (hits / total if total else 0.0).hex()


def test_evaluate_refuses_k_below_one():
    corpus = Corpus(documents=(labeled_doc("a", [1, 0]),))
    with pytest.raises(DataError, match="k must be >= 1"):
        evaluate([np.array([1.0, 2.0])], corpus, ks=(0,))


def test_evaluate_requires_matching_lengths():
    corpus = Corpus(documents=(labeled_doc("a", [1, 0]),))
    with pytest.raises(DataError):
        evaluate([np.array([1.0])], corpus)
    with pytest.raises(DataError):
        evaluate([np.array([1.0, 2.0]), np.array([1.0])], corpus)


def test_evaluate_all_ineligible_auc_is_none():
    corpus = Corpus(documents=(labeled_doc("a", [1, 1]),))
    report = evaluate([np.array([1.0, 2.0])], corpus)
    assert report.auc is None
    assert report.n_docs_auc == 0


def test_evaluate_constant_shift_invariance():
    rng = np.random.default_rng(8)
    for trial in range(1000):
        n = int(rng.integers(2, 9))
        labels = rng.integers(0, 2, size=n)
        if labels.sum() == 0:
            labels[0] = 1
        doc = labeled_doc(f"d{trial}", labels.tolist())
        corpus = Corpus(documents=(doc,))
        scores = np.round(rng.normal(size=n), 1)
        base = evaluate([scores], corpus, ks=(1, 5))
        shifted = evaluate([scores + 17.25], corpus, ks=(1, 5))
        assert base.to_json() == shifted.to_json()


def test_evaluate_tie_seed_reproducible_and_score_independent():
    corpus = Corpus(documents=(labeled_doc("a", [1, 0, 0, 1]),))
    tied = [np.zeros(4)]
    r1 = evaluate(tied, corpus, tie_seed=5)
    r2 = evaluate(tied, corpus, tie_seed=5)
    assert r1.to_json() == r2.to_json()
    r3 = evaluate(tied, corpus, tie_seed=6)
    seen = {json.dumps(evaluate(tied, corpus, tie_seed=s).to_json()) for s in range(40)}
    assert len(seen) > 1  # jitter actually varies with the seed


def test_evaluate_refuses_a_negative_tie_seed_and_wraps_large_ones():
    corpus = Corpus(documents=(labeled_doc("a", [1, 0, 0, 1, 0, 1]),))
    tied = [np.zeros(6)]
    with pytest.raises(DataError, match="tie seed must be >= 0, got -1"):
        evaluate(tied, corpus, tie_seed=-1)
    # seeds of 2**32 and above keep the streams they have always drawn: their value mod 2**32
    wrapped, seed = evaluate(tied, corpus, tie_seed=2**32 + 7).to_json(), evaluate(tied, corpus, tie_seed=7).to_json()
    assert wrapped["per_doc"] == seed["per_doc"] and wrapped["tie_seed"] == 2**32 + 7


def test_evaluate_tie_seed_breaks_auc_ties_too():
    # with all scores tied, plain AUC is 0.5 by the tie convention; a tie seed
    # turns the metric into the AUC of one sampled strict order
    corpus = Corpus(documents=(labeled_doc("a", [1, 0]),))
    tied = [np.zeros(2)]
    plain = evaluate(tied, corpus)
    assert plain.auc == 0.5
    vals = {evaluate(tied, corpus, tie_seed=s).auc for s in range(30)}
    assert vals == {0.0, 1.0}


def test_report_round_trip(tmp_path):
    corpus = Corpus(documents=(labeled_doc("a", [1, 0]),))
    report = evaluate([np.array([2.0, 1.0])], corpus)
    path = tmp_path / "r.json"
    report.save(path)
    again = MetricsReport.load(path)
    assert again.to_json() == report.to_json()
    assert again.per_doc[0].doc_id == "a"


@pytest.mark.parametrize(
    "path, value, message",
    [
        (("ks",), None, "missing field ks"),
        (("n_docs",), "1", "field n_docs must be an integer >= 0"),
        (("p_at",), {"one": 0.5}, "field p_at must be an object of numbers keyed by k"),
        (("tie_seed",), 1.5, "field tie_seed must be an integer or null"),
        (("per_doc",), [1], "field per_doc must be a list of objects"),
        (("per_doc", 0, "auc"), "high", "field per_doc[0].auc must be a number or null"),
        (("per_doc", 0, "doc_id"), None, "missing field per_doc[0].doc_id"),
    ],
)
def test_report_from_json_names_the_bad_field(path, value, message):
    corpus = Corpus(documents=(labeled_doc("a", [1, 0]),))
    obj = evaluate([np.array([2.0, 1.0])], corpus).to_json()
    *parents, key = path
    owner = obj
    for step in parents:
        owner = owner[step]
    if value is None:
        del owner[key]
    else:
        owner[key] = value
    with pytest.raises(DataError, match=re.escape(message)):
        MetricsReport.from_json(obj)


def test_report_without_optional_fields_loads():
    corpus = Corpus(documents=(labeled_doc("a", [1, 0]),))
    obj = evaluate([np.array([2.0, 1.0])], corpus).to_json()
    del obj["tie_seed"], obj["per_doc"]
    again = MetricsReport.from_json(obj)
    assert again.tie_seed is None and again.per_doc == []


# --- permutation test ---------------------------------------------------


def exact_two_sided_p(a, b):
    d = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
    observed = abs(d.mean())
    n = len(d)
    count = 0
    total = 0
    for signs in itertools.product((-1.0, 1.0), repeat=n):
        total += 1
        if abs((d * signs).mean()) >= observed - 1e-12:
            count += 1
    return count / total


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**5))
def test_permutation_test_matches_exact_enumeration(seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=5)
    b = rng.normal(size=5)
    p = permutation_test(a, b, iterations=40_000, seed=3)
    want = exact_two_sided_p(a, b)
    assert p == pytest.approx(want, abs=0.015)


def test_permutation_test_known_case():
    a = [1.0] * 5
    b = [0.0] * 5
    p = permutation_test(a, b, iterations=10_000, seed=0)
    assert p == pytest.approx(2 * 0.5**5, abs=0.01)


def test_permutation_test_symmetry():
    rng = np.random.default_rng(4)
    a = rng.normal(size=12).tolist()
    b = rng.normal(size=12).tolist()
    assert permutation_test(a, b, iterations=2000, seed=9) == permutation_test(
        b, a, iterations=2000, seed=9
    )


def test_permutation_null_p_values_are_uniform():
    rng = np.random.default_rng(10)
    pvals = []
    for _ in range(1000):
        d = rng.normal(size=12)
        a = d
        b = np.zeros(12)
        pvals.append(permutation_test(a, b, iterations=200, seed=int(rng.integers(2**31))))
    stat, p = kstest(pvals, "uniform")
    assert p > 0.01


def test_permutation_test_validation():
    with pytest.raises(DataError):
        permutation_test([1.0], [1.0, 2.0])
    with pytest.raises(DataError):
        permutation_test([], [])
    with pytest.raises(DataError):
        permutation_test([1.0], [1.0], iterations=0)


def test_permutation_test_deterministic():
    a = [0.3, 0.1, 0.9]
    b = [0.2, 0.4, 0.5]
    assert permutation_test(a, b, seed=7) == permutation_test(a, b, seed=7)

"""Release gate: nine behavioral criteria with stated tolerances and budgets.

Each criterion is one test that prints a single ``[criterion N/9] PASS|FAIL``
line (visible with ``pytest -s``) and enforces its own runtime budget.  The
synthetic-separation experiment (criteria 5-7) trains real models once in a
module fixture and takes a few minutes; everything else is oracle checks.
"""
import math
import time

import numpy as np
import pytest
from scipy import stats

from helpers import document_pair_loss, gradcheck_instances
from oracles import cosine, kernel_features
from salience.annotate import FilterConfig, filter_candidates, label_salience
from salience.corpus import load_corpus, save_corpus
from salience.embeddings import build_vocab, init_embeddings
from salience.features import fit_scaler
from salience.intrusion import IntrusionConfig, run_study, run_study_with_scorer
from salience.kernels import default_bank
from salience.metrics import auc, evaluate, permutation_test, precision_at_k, recall_at_k
from salience.models import (
    frequency_scores,
    load_model,
    model_scores,
    new_kce_model,
    new_letor_model,
    save_model,
)
from salience.synth import SynthConfig, degrade_vectors, generate_corpus, measured_cosine_gap
from salience.training import TrainConfig, grad_check, train

EXPORT_NOISE = 0.25  # pretrained-vector degradation used by the separation run


def _verdict(num: int, title: str, ok: bool, detail: str, elapsed: float, budget: float) -> None:
    in_budget = elapsed < budget
    status = "PASS" if (ok and in_budget) else "FAIL"
    print(f"[criterion {num}/9] {status} {title}: {detail} ({elapsed:.1f}s, budget {budget:.0f}s)")
    assert ok, f"criterion {num} ({title}): {detail}"
    assert in_budget, f"criterion {num} ({title}) took {elapsed:.1f}s, budget {budget:.0f}s"


# --- criterion 1: kernel forward oracle --------------------------------------


def _kernel_oracle(bank, target, context):
    feats = [0.0] * bank.size
    for ctx in context:
        c = cosine(target, ctx)
        for k in range(bank.size):
            mu = float(bank.means[k])
            sigma = float(bank.sigmas[k])
            feats[k] += math.exp(-((c - mu) ** 2) / (2.0 * sigma * sigma))
    return np.array(feats)


def test_criterion_1_kernel_forward_oracle():
    started = time.time()
    bank = default_bank()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(1000):
        dim = int(rng.integers(1, 17))
        n_ctx = int(rng.integers(0, 9))
        scale = 10.0 ** rng.uniform(-2, 2)
        target = scale * rng.standard_normal(dim)
        context = [scale * rng.standard_normal(dim) for _ in range(n_ctx)]
        got = kernel_features(target, context, bank)
        want = _kernel_oracle(bank, target, context)
        worst = max(worst, float(np.max(np.abs(got - want))))
    _verdict(
        1,
        "kernel forward oracle",
        worst < 1e-12,
        f"max abs error {worst:.3e} over 1000 instances (tolerance 1e-12)",
        time.time() - started,
        budget=5.0,
    )


# --- criterion 2: gradient correctness ----------------------------------------


def test_criterion_2_gradient_correctness():
    started = time.time()
    instances = list(gradcheck_instances(100))
    worst_full = 0.0
    for model, doc, seed in instances:
        worst_full = max(worst_full, grad_check(model, doc, step=1e-4, row_seed=seed))
    worst_linear = 0.0
    for model, doc, seed in instances:
        model.event_table.trainable = False
        model.entity_table.trainable = False
        worst_linear = max(worst_linear, grad_check(model, doc, step=1e-5, row_seed=seed))
    ok = worst_full < 1e-4 and worst_linear < 1e-7
    _verdict(
        2,
        "gradient correctness",
        ok,
        f"full model max rel error {worst_full:.3e} (< 1e-4), "
        f"linear-only {worst_linear:.3e} (< 1e-7), 100 instances each",
        time.time() - started,
        budget=120.0,
    )


# --- criterion 3: metric oracles ----------------------------------------------


def _auc_pair_oracle(scores, labels):
    pos = [s for s, keep in zip(scores, labels) if keep]
    neg = [s for s, keep in zip(scores, labels) if not keep]
    if not pos or not neg:
        return None
    credit = 0.0
    for p in pos:
        for n in neg:
            credit += 1.0 if p > n else (0.5 if p == n else 0.0)
    return credit / (len(pos) * len(neg))


def test_criterion_3_metric_oracles():
    started = time.time()
    rng = np.random.default_rng(33)
    mismatches = 0
    for _ in range(10000):
        n = int(rng.integers(1, 21))
        if rng.random() < 0.5:
            scores = rng.integers(0, 6, size=n) / 2.0  # coarse grid -> plenty of ties
        else:
            scores = rng.standard_normal(n)
        labels = rng.random(n) < rng.uniform(0.1, 0.9)
        got = auc(scores, labels)
        want = _auc_pair_oracle(scores.tolist(), labels.tolist())
        if got != want:  # exact agreement, including the one-class None case
            mismatches += 1
        order = np.argsort(-scores, kind="stable")
        ranked = [bool(labels[i]) for i in order]
        total = sum(ranked)
        for k in (1, 3, 10):
            if precision_at_k(ranked, k) != sum(ranked[:k]) / k:
                mismatches += 1
            want_r = 0.0 if total == 0 else sum(ranked[:k]) / total
            if recall_at_k(ranked, k) != want_r:
                mismatches += 1
    _verdict(
        3,
        "metric oracles",
        mismatches == 0,
        f"{mismatches} mismatches vs exhaustive pair-count and naive counting "
        "oracles over 10000 lists",
        time.time() - started,
        budget=10.0,
    )


# --- criterion 4: loss properties ----------------------------------------------


def test_criterion_4_loss_properties():
    started = time.time()
    rng = np.random.default_rng(44)
    bad = []
    for i in range(1000):
        n = int(rng.integers(2, 21))
        labels = rng.random(n) < 0.4
        scores = rng.standard_normal(n)
        if rng.random() < 0.3:  # force some cleanly separated documents
            scores = scores * 0.1 + np.where(labels, rng.uniform(1.5, 3.0), 0.0)
        loss, dscores = document_pair_loss(scores, labels.astype(float))
        if loss < 0.0:
            bad.append(f"doc {i}: negative loss")
        margins = [
            scores[p] - scores[q]
            for p in range(n)
            for q in range(n)
            if labels[p] and not labels[q]
        ]
        separated = all(m >= 1.0 for m in margins)  # vacuously true with one class
        if (loss == 0.0) != separated:
            bad.append(f"doc {i}: loss {loss} vs unit-margin separation {separated}")
        if dscores.sum() != 0.0:
            bad.append(f"doc {i}: score-gradient sum {dscores.sum()}")
        shifted = scores + 17.25
        if auc(scores, labels) != auc(shifted, labels):
            bad.append(f"doc {i}: AUC moved under constant shift")
        order_a = np.argsort(-scores, kind="stable")
        order_b = np.argsort(-shifted, kind="stable")
        ranked_a = [bool(labels[j]) for j in order_a]
        ranked_b = [bool(labels[j]) for j in order_b]
        for k in (1, 5, 10):
            if precision_at_k(ranked_a, k) != precision_at_k(ranked_b, k) or recall_at_k(
                ranked_a, k
            ) != recall_at_k(ranked_b, k):
                bad.append(f"doc {i}: P@{k}/R@{k} moved under constant shift")
    _verdict(
        4,
        "loss properties",
        not bad,
        (bad[0] if bad else "nonnegative, zero iff unit-margin separation, "
         "zero-sum score gradients, shift-invariant metrics on 1000 documents"),
        time.time() - started,
        budget=10.0,
    )


# --- criteria 5-7: synthetic separation run ------------------------------------


@pytest.fixture(scope="module")
def synth_run():
    started = time.time()
    train_c, pools = generate_corpus(SynthConfig(docs=500, seed=1, split="train"))
    dev_c, _ = generate_corpus(SynthConfig(docs=100, seed=2, split="dev"))
    test_c, _ = generate_corpus(SynthConfig(docs=100, seed=3, split="test"))
    gap = measured_cosine_gap(pools)

    cfg = TrainConfig()  # defaults: 20 epochs
    ev_vocab = build_vocab(train_c, "event_lemma", min_count=2)
    en_vocab = build_vocab(train_c, "entity_key", min_count=2)
    event_vecs = degrade_vectors(pools.event_vectors, EXPORT_NOISE, 8)
    entity_vecs = degrade_vectors(pools.entity_vectors, EXPORT_NOISE, 9)

    def fresh_tables():
        evt = init_embeddings(ev_vocab, dim=128, seed=cfg.seed, pretrained=event_vecs)
        ent = init_embeddings(en_vocab, dim=128, seed=cfg.seed + 1, pretrained=entity_vecs)
        return evt, ent

    def test_auc(model):
        return evaluate([model_scores(model, d) for d in test_c.documents], test_c).auc

    models, aucs = {}, {}
    for name, build in (
        ("letor", lambda e, n, s: new_letor_model(e, n, s)),
        ("kce_full", lambda e, n, s: new_kce_model(default_bank(), e, n, s, variant="full")),
        (
            "kce_events_only",
            lambda e, n, s: new_kce_model(default_bank(), e, n, s, variant="events_only"),
        ),
    ):
        evt, ent = fresh_tables()
        scaler = fit_scaler(train_c, evt, ent)
        models[name], _ = train(build(evt, ent, scaler), train_c, dev_c, cfg)
        aucs[name] = test_auc(models[name])
    aucs["frequency"] = evaluate(
        [frequency_scores(d) for d in test_c.documents], test_c
    ).auc
    return {
        "models": models,
        "aucs": aucs,
        "gap": gap,
        "test_corpus": test_c,
        "epochs": cfg.epochs,
        "elapsed": time.time() - started,
    }


def test_criterion_5_synthetic_separation(synth_run):
    aucs = synth_run["aucs"]
    ok = (
        synth_run["gap"] >= 0.4
        and synth_run["epochs"] <= 20
        and aucs["kce_full"] >= 0.90
        and aucs["kce_full"] > aucs["letor"]
        and aucs["letor"] > aucs["frequency"]
    )
    _verdict(
        5,
        "synthetic separation",
        ok,
        f"planted gap {synth_run['gap']:.3f} (>= 0.4); test AUC "
        f"kce {aucs['kce_full']:.4f} (>= 0.90) > letor {aucs['letor']:.4f} "
        f"> frequency {aucs['frequency']:.4f}",
        synth_run["elapsed"],
        budget=600.0,
    )


def test_criterion_6_ablation_direction(synth_run):
    started = time.time()
    aucs = synth_run["aucs"]
    _verdict(
        6,
        "ablation direction",
        aucs["kce_full"] >= aucs["kce_events_only"],
        f"full {aucs['kce_full']:.4f} >= events-only {aucs['kce_events_only']:.4f} (same run)",
        time.time() - started,
        budget=600.0,
    )


def _oracle_scorer(instance):
    return np.array(
        [
            2.0 + (1.0 if sflag else 0.0) if flag else 0.0
            for flag, sflag in zip(instance.origin_flags, instance.salient_origin_flags)
        ]
    )


def test_criterion_7_intrusion_harness(synth_run):
    started = time.time()
    corpus = synth_run["test_corpus"]
    problems = []

    oracle_cfg = IntrusionConfig(num_pairs=100, intruder_kind="salient_only", seed=0)
    for row in run_study_with_scorer(corpus, _oracle_scorer, oracle_cfg).rows:
        if row.auc != 1.0 or row.sa_auc != 1.0:
            problems.append(f"oracle fraction {row.fraction}: AUC {row.auc}, SA-AUC {row.sa_auc}")

    rng = np.random.default_rng(7)
    random_cfg = IntrusionConfig(num_pairs=1000, intruder_kind="salient_only", seed=1, fractions=(1.0,))
    random_auc = run_study_with_scorer(
        corpus, lambda inst: rng.random(len(inst.mixed.events)), random_cfg
    ).rows[0].auc
    if abs(random_auc - 0.5) > 0.05:
        problems.append(f"random scorer AUC {random_auc:.4f} outside 0.5 +- 0.05")

    trained_cfg = IntrusionConfig(num_pairs=200, intruder_kind="nonsalient_only", seed=0)
    last = run_study(corpus, synth_run["models"]["kce_full"], trained_cfg).rows[-1]
    if not (last.fraction == 1.0 and last.sa_auc > last.auc):
        problems.append(
            f"trained model at fraction {last.fraction}: SA-AUC {last.sa_auc:.4f} "
            f"not above AUC {last.auc:.4f}"
        )
    _verdict(
        7,
        "intrusion harness",
        not problems,
        (problems[0] if problems else
         f"oracle pinned at 1.0 on all fractions; random AUC {random_auc:.4f}; "
         f"trained nonsalient SA-AUC {last.sa_auc:.4f} > AUC {last.auc:.4f} at full insertion"),
        time.time() - started,
        budget=120.0,
    )


# --- criterion 8: permutation test calibration ----------------------------------


def _exact_sign_flip_p(diff):
    diff = np.asarray(diff, dtype=np.float64)
    observed = abs(float(diff.mean()))
    count = 0
    total = 2 ** len(diff)
    for mask in range(total):
        signs = np.array([1.0 if mask & (1 << i) else -1.0 for i in range(len(diff))])
        if abs(float((signs * diff).mean())) >= observed:
            count += 1
    return count / total


def test_criterion_8_permutation_calibration():
    started = time.time()
    rng = np.random.default_rng(88)
    worst = 0.0
    for _ in range(20):
        a = rng.standard_normal(5)
        b = rng.standard_normal(5)
        exact = _exact_sign_flip_p(a - b)
        estimate = permutation_test(a, b, iterations=200000, seed=int(rng.integers(1 << 30)))
        worst = max(worst, abs(estimate - exact))

    pvals = []
    null_rng = np.random.default_rng(99)
    for trial in range(1000):
        a = null_rng.standard_normal(20)
        b = null_rng.standard_normal(20)
        pvals.append(permutation_test(a, b, iterations=200, seed=trial))
    ks_p = float(stats.kstest(pvals, "uniform").pvalue)
    ok = worst < 0.01 and ks_p > 0.01
    _verdict(
        8,
        "permutation test calibration",
        ok,
        f"max |MC - exact enumeration| {worst:.4f} on n=5 inputs (32 sign patterns); "
        f"null p-value KS uniformity p = {ks_p:.3f} over 1000 trials",
        time.time() - started,
        budget=30.0,
    )


# --- criterion 9: determinism and round-trips ------------------------------------


def test_criterion_9_determinism_and_round_trips(tmp_path):
    started = time.time()
    scfg = SynthConfig(docs=30, dim=16, seed=6, split="train")
    train_c, pools = generate_corpus(scfg)
    dev_c, _ = generate_corpus(SynthConfig(docs=10, dim=16, seed=7, split="dev"))
    cfg = TrainConfig(epochs=3, batch_docs=8)
    problems = []

    saved = []
    for run in range(2):
        evt = init_embeddings(
            build_vocab(train_c, "event_lemma"), dim=16, seed=cfg.seed, pretrained=pools.event_vectors
        )
        ent = init_embeddings(
            build_vocab(train_c, "entity_key"), dim=16, seed=cfg.seed + 1, pretrained=pools.entity_vectors
        )
        scaler = fit_scaler(train_c, evt, ent)
        model, _ = train(
            new_kce_model(default_bank(), evt, ent, scaler, variant="full"), train_c, dev_c, cfg
        )
        path = tmp_path / f"model-{run}.json"
        save_model(model, path)
        saved.append(path.read_bytes())
    if saved[0] != saved[1]:
        problems.append("identical seeds produced different trained model files")

    corpus_a = tmp_path / "corpus-a.jsonl"
    corpus_b = tmp_path / "corpus-b.jsonl"
    save_corpus(train_c, corpus_a)
    save_corpus(load_corpus(corpus_a, split_tag="train"), corpus_b)
    if corpus_a.read_bytes() != corpus_b.read_bytes():
        problems.append("corpus save/load/save changed bytes")

    model_b = tmp_path / "model-b.json"
    save_model(load_model(tmp_path / "model-0.json"), model_b)
    if model_b.read_bytes() != saved[0]:
        problems.append("model save/load/save changed bytes")

    fcfg = FilterConfig()
    for doc in train_c.documents[:10]:
        once = filter_candidates(doc, fcfg)
        if filter_candidates(once, fcfg) != once:
            problems.append(f"filter_candidates not idempotent on {doc.doc_id}")
        labeled = label_salience(once)
        if label_salience(labeled) != labeled:
            problems.append(f"label_salience not idempotent on {doc.doc_id}")
    _verdict(
        9,
        "determinism and round-trips",
        not problems,
        problems[0] if problems else "bitwise-identical retrains, exact file round-trips, idempotent ops",
        time.time() - started,
        budget=60.0,
    )

"""Command-line pipeline: annotate, build vocabularies, train, rank, evaluate,
significance-test, run intrusion studies, check gradients, export kernel
weights, and generate synthetic corpora.

Exit codes: 0 success, 1 usage error, 2 data/validation error, 3 numeric
failure (NaN/Inf).  Every command writes a ``<output>.manifest.json`` next to
its primary output (``gradcheck`` only with ``--out``).
"""
from __future__ import annotations

import argparse
import functools
import sys
import time
from typing import NamedTuple

import numpy as np

from . import __version__
from .annotate import FilterConfig, corpus_stats, filter_candidates, label_salience, load_filter_config
from .corpus import Corpus, load_corpus, salience_labels, save_corpus
from .embeddings import build_vocab, init_embeddings, save_word_vectors, vocab_to_json
from .errors import DataError, NumericError, SalienceError, read_json, write_csv, write_json, write_jsonl
from .features import fit_scaler
from .intrusion import IntrusionConfig, run_study
from .kernels import default_bank
from .manifest import write_manifest
from .metrics import DEFAULT_KS, MetricsReport, evaluate, permutation_test
from .models import (
    PageRankModel,
    frequency_scores,
    load_model,
    location_scores,
    model_scores,
    new_kce_model,
    ranked_order,
    save_model,
)
from .synth import SynthConfig, degrade_vectors, generate_corpus
from .training import TrainConfig, grad_check, train

# The variant each kce flavour trains; "pagerank" is the one other model to train.
MODEL_FLAVORS = {
    "letor": "features_only",
    "kce": "full",
    "kce-e": "events_features",
    "kce-ef": "events_only",
}
BASELINE_SCORERS = {"frequency": frequency_scores, "location": location_scores}


class Run(NamedTuple):
    """What a command read and wrote, and what it resolved beyond its flags, for its manifest."""

    inputs: list[str]
    outputs: list[str]
    resolved: dict = {}


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # usage problems exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="salience", description=__doc__)
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("annotate", help="filter candidate events and label salience")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--filter-config", default=None)
    p.add_argument("--skip-label", action="store_true", help="filter only; keep existing labels")

    p = sub.add_parser("build-vocab", help="count tokens and emit a vocabulary JSON")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--field", choices=("event", "entity"), required=True)
    p.add_argument("--min-count", type=int, default=2)

    p = sub.add_parser("train", help="train a ranking model")
    p.add_argument("--model", choices=sorted([*MODEL_FLAVORS, "pagerank"]), required=True)
    p.add_argument("--train", dest="train_path", required=True)
    p.add_argument("--dev", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None, help="TrainConfig JSON")
    p.add_argument("--dim", type=int, default=128)
    p.add_argument("--min-count", type=int, default=2)
    p.add_argument("--event-vectors", default=None, help="pretrained event vectors (text format)")
    p.add_argument("--entity-vectors", default=None, help="pretrained entity vectors (text format)")
    p.add_argument("--pagerank-temperature", type=float, default=1.0)
    p.add_argument("--pagerank-lambda", type=float, default=0.5)

    p = sub.add_parser("rank", help="write per-document event rankings")
    p.add_argument("--model", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("evaluate", help="ranking metrics for a model or baseline")
    p.add_argument("--model", required=True, help="model file, or 'frequency' / 'location'")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--tie-seed", type=int, default=None)

    p = sub.add_parser("sigtest", help="paired randomization test between two reports")
    p.add_argument("--a", dest="report_a", required=True)
    p.add_argument("--b", dest="report_b", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--metric", default="auc", help="auc or p@K / r@K (e.g. p@1)")
    p.add_argument("--iterations", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("intrude", help="event intrusion study; writes per-fraction curves")
    p.add_argument("--model", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--kind", choices=("salient", "nonsalient"), required=True)
    p.add_argument("--pairs", type=int, default=500)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--fractions", default=None, help="comma-separated, e.g. 0.2,0.6,1.0")

    p = sub.add_parser("gradcheck", help="verify analytic gradients with finite differences")
    p.add_argument("--model", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--step", type=float, default=1e-4)
    p.add_argument("--max-docs", type=int, default=5)

    p = sub.add_parser("export-kernel-weights", help="dump kernel weights as CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("synth", help="generate a synthetic planted-topic corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None, help="SynthConfig JSON")
    p.add_argument("--docs", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--split", choices=("train", "dev", "test", "unsplit"), default=None)
    p.add_argument("--event-vectors-out", default=None)
    p.add_argument("--entity-vectors-out", default=None)
    return parser


def _check_utf8(args: argparse.Namespace) -> None:
    """Refuse an argument that UTF-8 cannot hold, such as a path of bytes that are not UTF-8, which
    Python decodes with surrogate escapes: the manifest records every argument in UTF-8 JSON."""
    for value in vars(args).values():
        if isinstance(value, str):
            try:
                value.encode()
            except UnicodeEncodeError:
                raise DataError(f"argument {ascii(value)} is not valid UTF-8") from None


def _at_least_one(value: int, flag: str) -> None:
    if value < 1:
        raise DataError(f"{flag} must be >= 1, got {value}")


def _scored_corpus(model_arg: str, corpus_path: str) -> tuple[Corpus, list[np.ndarray]]:
    """The corpus and each document's scores, every one checked finite before any output is opened."""
    if model_arg in BASELINE_SCORERS:
        scorer = BASELINE_SCORERS[model_arg]
    else:
        scorer = functools.partial(model_scores, load_model(model_arg))
    corpus = load_corpus(corpus_path)
    scores = []
    for doc in corpus.documents:
        doc_scores = np.asarray(scorer(doc), dtype=np.float64)
        if not np.all(np.isfinite(doc_scores)):
            raise NumericError(f"non-finite score for doc {doc.doc_id!r}")
        scores.append(doc_scores)
    return corpus, scores


def _cmd_annotate(args) -> Run:
    cfg = load_filter_config(args.filter_config) if args.filter_config else FilterConfig()
    corpus = load_corpus(args.corpus)
    docs = []
    for doc in corpus.documents:
        doc = filter_candidates(doc, cfg)
        if not args.skip_label:
            doc = label_salience(doc)
        docs.append(doc)
    out = Corpus(documents=tuple(docs), split_tag=corpus.split_tag)
    save_corpus(out, args.out)
    stats = corpus_stats(out)
    print(
        f"annotated {stats.n_docs} docs: {stats.events_per_doc:.2f} events/doc, "
        f"salience rate {stats.salience_rate:.3f}, {stats.distinct_event_lemmas} distinct lemmas"
    )
    return Run([args.corpus], [args.out])


def _cmd_build_vocab(args) -> Run:
    _at_least_one(args.min_count, "--min-count")
    corpus = load_corpus(args.corpus)
    field = "event_lemma" if args.field == "event" else "entity_key"
    vocab = build_vocab(corpus, field, min_count=args.min_count)
    write_json({"field": field, "min_count": args.min_count, **vocab_to_json(vocab)}, args.out)
    print(f"vocabulary: {vocab.size} rows ({vocab.size - 1} tokens + unknown)")
    return Run([args.corpus], [args.out])


def _cmd_train(args) -> Run:
    _at_least_one(args.min_count, "--min-count")
    cfg = TrainConfig.from_json(read_json(args.config, "train config")) if args.config else TrainConfig()
    train_corpus = load_corpus(args.train_path, split_tag="train")
    dev_corpus = load_corpus(args.dev, split_tag="dev")

    event_vocab = build_vocab(train_corpus, "event_lemma", min_count=args.min_count)
    entity_vocab = build_vocab(train_corpus, "entity_key", min_count=args.min_count)
    event_table = init_embeddings(event_vocab, dim=args.dim, seed=cfg.seed, pretrained=args.event_vectors)
    entity_table = init_embeddings(
        entity_vocab, dim=args.dim, seed=cfg.seed + 1, pretrained=args.entity_vectors
    )

    if args.model == "pagerank":
        model = PageRankModel(
            temperature=args.pagerank_temperature,
            combine_lambda=args.pagerank_lambda,
            event_table=event_table,
        )
    else:
        scaler = fit_scaler(train_corpus, event_table, entity_table)
        variant = MODEL_FLAVORS[args.model]
        model = new_kce_model(default_bank(), event_table, entity_table, scaler, variant=variant)

    model, history = train(model, train_corpus, dev_corpus, cfg)
    save_model(model, args.out)
    history_path = args.out + ".history.csv"
    history.to_csv(history_path)
    best = model.meta.get("best_dev_auc")
    print(
        f"trained {args.model} for {cfg.epochs} epochs; "
        f"best dev AUC {best if best is not None else 'n/a'} at epoch {model.meta.get('best_epoch')}"
    )
    return Run(
        [args.train_path, args.dev] + [p for p in (args.event_vectors, args.entity_vectors) if p],
        [args.out, history_path],
        {"train_config": cfg.to_json()},
    )


def _cmd_rank(args) -> Run:
    corpus, scores_per_doc = _scored_corpus(args.model, args.corpus)

    def rows():
        for doc, scores in zip(corpus.documents, scores_per_doc):
            order = ranked_order(scores, [ev.id for ev in doc.events])
            ranking = [{"event_id": doc.events[i].id, "score": float(scores[i])} for i in order]
            yield {"doc_id": doc.doc_id, "ranking": ranking}

    write_jsonl(rows(), args.out)
    print(f"ranked {len(corpus.documents)} documents")
    return Run([args.model, args.corpus], [args.out])


def _cmd_evaluate(args) -> Run:
    corpus, scores = _scored_corpus(args.model, args.corpus)
    report = evaluate(scores, corpus, tie_seed=args.tie_seed)
    report.save(args.out)
    auc_str = "n/a" if report.auc is None else f"{report.auc:.4f}"
    print(
        f"{args.model}: AUC {auc_str}, P@1 {report.p_at[1]:.4f}, "
        f"P@5 {report.p_at[5]:.4f}, R@10 {report.r_at[10]:.4f} over {report.n_docs} docs"
    )
    return Run([args.model, args.corpus], [args.out])


_METRIC_KEYS = {"auc"} | {f"{m}@{k}" for m in ("p", "r") for k in DEFAULT_KS}


def _doc_metric(doc, metric: str):
    if metric == "auc":
        return doc.auc
    kind, k = metric.split("@")
    table = doc.p_at if kind == "p" else doc.r_at
    if doc.n_salient == 0:
        return None
    return table.get(int(k))


def _cmd_sigtest(args) -> Run:
    _at_least_one(args.iterations, "--iterations")
    metric = args.metric.lower()
    if metric not in _METRIC_KEYS:
        raise DataError(f"unknown metric {args.metric!r}; choose from {sorted(_METRIC_KEYS)}")
    rep_a = MetricsReport.load(args.report_a)
    rep_b = MetricsReport.load(args.report_b)
    by_id_a = {d.doc_id: d for d in rep_a.per_doc}
    by_id_b = {d.doc_id: d for d in rep_b.per_doc}
    if set(by_id_a) != set(by_id_b):
        raise DataError("reports cover different document sets; cannot pair")
    a_vals, b_vals = [], []
    for doc_id in sorted(by_id_a):
        va = _doc_metric(by_id_a[doc_id], metric)
        vb = _doc_metric(by_id_b[doc_id], metric)
        if va is None or vb is None:
            continue
        a_vals.append(va)
        b_vals.append(vb)
    if not a_vals:
        raise DataError(f"no documents are eligible for metric {metric!r} in both reports")
    p_value = permutation_test(a_vals, b_vals, iterations=args.iterations, seed=args.seed)
    result = {
        "metric": metric,
        "n_pairs": len(a_vals),
        "mean_a": float(np.mean(a_vals)),
        "mean_b": float(np.mean(b_vals)),
        "iterations": args.iterations,
        "seed": args.seed,
        "p_value": p_value,
    }
    write_json(result, args.out)
    print(
        f"{metric}: mean_a {result['mean_a']:.4f} vs mean_b {result['mean_b']:.4f} "
        f"over {result['n_pairs']} docs -> p = {p_value:.5f}"
    )
    return Run([args.report_a, args.report_b], [args.out])


def _cmd_intrude(args) -> Run:
    _at_least_one(args.pairs, "--pairs")
    kind = "salient_only" if args.kind == "salient" else "nonsalient_only"
    fractions = IntrusionConfig().fractions
    if args.fractions:
        try:
            fractions = tuple(float(x) for x in args.fractions.split(","))
        except ValueError:
            raise DataError(f"--fractions must be comma-separated numbers, got {args.fractions!r}") from None
    cfg = IntrusionConfig(
        num_pairs=args.pairs, intruder_kind=kind, seed=args.seed, fractions=fractions
    )
    model = load_model(args.model, expect="kce")
    corpus = load_corpus(args.corpus)
    result = run_study(corpus, model, cfg)
    result.to_csv(args.out)
    last = result.rows[-1]
    print(
        f"intrusion ({args.kind}): at fraction {last.fraction} "
        f"AUC {last.auc:.4f}, SA-AUC {last.sa_auc:.4f}, frequency SA-AUC {last.frequency_sa_auc:.4f}"
    )
    return Run([args.model, args.corpus], [args.out])


def _cmd_gradcheck(args) -> Run | None:
    _at_least_one(args.max_docs, "--max-docs")
    model = load_model(args.model, expect="kce")
    corpus = load_corpus(args.corpus)
    worst = 0.0
    checked = 0
    for doc in corpus.documents[: args.max_docs]:
        try:
            labels = salience_labels(doc)
        except DataError:  # unlabeled: skipped, as are single-class documents
            continue
        if labels.all() or not labels.any():
            continue
        # np.maximum keeps a NaN error, where max() would drop it
        worst = float(np.maximum(worst, grad_check(model, doc, step=args.step)))
        checked += 1
    if checked == 0:
        raise DataError("no document offered both salient and non-salient events")
    if not np.isfinite(worst):
        raise NumericError("gradient check produced a non-finite error")
    print(f"gradcheck: max relative error {worst:.3e} over {checked} documents (step {args.step})")
    if not args.out:
        return None
    write_json({"max_relative_error": worst, "documents": checked, "step": args.step}, args.out)
    return Run([args.model, args.corpus], [args.out])


def _cmd_export_kernel_weights(args) -> Run:
    model = load_model(args.model, expect="kce")
    write_csv(["mu", "sigma", "w_v", "w_e"], zip(model.bank.means, model.bank.sigmas, model.w_v, model.w_e), args.out)
    print(f"wrote {model.bank.size} kernel rows")
    return Run([args.model], [args.out])


def _cmd_synth(args) -> Run:
    cfg = SynthConfig.load(args.config) if args.config else SynthConfig()
    # command-line overrides pass the same field rules as the config file
    overrides = {k: getattr(args, k) for k in ("docs", "seed", "split") if getattr(args, k) is not None}
    cfg = SynthConfig.from_json({**cfg.to_json(), **overrides})
    corpus, pools = generate_corpus(cfg)
    kinds = ((args.event_vectors_out, pools.event_vectors), (args.entity_vectors_out, pools.entity_vectors))
    # all degraded before anything is written, so a refused vector leaves no file
    noisy = [(path, degrade_vectors(vecs, cfg.vector_noise, cfg.pool_seed + k))
             for k, (path, vecs) in enumerate(kinds, 1) if path]
    save_corpus(corpus, args.out)
    for path, vecs in noisy:
        save_word_vectors(vecs, path)
    outputs = [args.out, *(path for path, _ in noisy)]
    print(f"generated {cfg.docs} documents (seed {cfg.seed}, split {cfg.split})")
    return Run([args.config] if args.config else [], outputs, {"synth_config": cfg.to_json()})


_HANDLERS = {
    "annotate": _cmd_annotate,
    "build-vocab": _cmd_build_vocab,
    "train": _cmd_train,
    "rank": _cmd_rank,
    "evaluate": _cmd_evaluate,
    "sigtest": _cmd_sigtest,
    "intrude": _cmd_intrude,
    "gradcheck": _cmd_gradcheck,
    "export-kernel-weights": _cmd_export_kernel_weights,
    "synth": _cmd_synth,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    started = time.time()
    try:
        _check_utf8(args)
        with np.errstate(over="ignore", invalid="ignore"):  # the finiteness checks report each failure
            run = _HANDLERS[args.command](args)
        if run is not None:
            write_manifest(
                args.command, args.out, {**vars(args), **run.resolved}, run.inputs, run.outputs, started
            )
        return 0
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except (SalienceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()

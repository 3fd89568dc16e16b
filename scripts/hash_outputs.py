#!/usr/bin/env python3
"""Fingerprint the toolkit's byte-stable outputs on a small fixed-seed corpus.

Synthesizes train/dev/test splits, then trains every model type (kce in its
three variants, letor, pagerank) twice through the CLI: once with trainable
embeddings and once with ``freeze_embeddings``.  Prints a Markdown table of
the sha256 of each model file, of its training history CSV, and of each
model's rank JSONL and evaluate report, of the same two files for the
``frequency`` and ``location`` baselines, of evaluate reports with ``--tie-seed`` (both baselines and the
trainable kce model), and of the trainable kce model's ``intrude`` CSV.
Then come the inputs the commands wrote on the way: the three synthesized
corpora and both vector files, the ``annotate`` output of the test split
with its labels stripped and a filter config that drops some of its event
lemmas, and the ``sigtest`` JSON of the trainable kce model against
``frequency``.  Last come the rank JSONL of the trainable kce model saved
again with its kernel bank, ``w_v`` and ``w_e`` cut to the one and to the
two kernels whose means lie nearest 0: a lone kernel is where numpy changes
how it sums.  Those kernels pool most of the mass of this corpus's
cosines; the exact-match kernel's activations are almost all exactly 0.0,
and a far kernel's are too small to reach a score's bits, so a bank cut to
either would hash the same whatever order the sums take.
Then come the content hashes of kce (``full``) and pagerank trained through
the library for 3 epochs in batches of 4 on the first half of the train
split, with tables built from the whole split at ``min_count=1``: rows that
no fit document reaches stay in the tables, as they do when the fit corpus
is not the one the vocabulary was built from.
Then come the ``build-vocab`` JSON of the train split for each field, and
the trainable kce model's ``export-kernel-weights`` CSV and ``gradcheck``
JSON over the first two test documents.  Last of all comes the content hash of
the half-split kce fit again, started from a bias of -0.0: the hinge sees only
score differences, so the bias must come back with its sign bit whether or not
training steps it.  After it come two more ``intrude`` CSVs: the trainable kce
model with salient intruders at the default fractions, where short intruder
pools make fractions repeat their intruder counts, and the trainable kce-ef
model, whose plans have no entity side, with the nonsalient arguments above.
Then come rows for branches that nothing above reaches: the model content and
history CSV of kce trained with ``max_pairs_per_doc`` (a document's pairs
subsampled), the ``sigtest`` JSON of the trainable kce model against
``frequency`` on ``p@1``, and the content of kce and pagerank trained and
selected on splits that each gain two edge documents, one with a single event
(a document without pairs, and a lone-event PageRank walk) and one whose events
are all salient.  The last row hashes the trainable kce model saved again
with event tokens that JSON escapes (a quote, a backslash, a tab and a
control character) or writes as non-ASCII UTF-8, and with nested, empty and
int-keyed dicts added to its ``meta``: the synthetic corpora are ASCII.
After it comes the rank JSONL of the trainable kce model on a test split of
documents with twice the default events and entities: each pools 4,000
cosines in one kernel pass, several of its tile-length chunks, where a
default-size document pools 1,000, less than one.
Then come the model content and history CSV of kce trained with ``beta1`` and
``beta2`` of 0.0, where Adam decays the moments of the rows a batch does not
touch to -0.0.
Last come the model content and history CSV of kce (``full``), letor and
pagerank trained on train and dev splits whose documents are cut to
``MIXED_SHAPES``, so that each batch trains stacks of several shapes, among
them entity-free documents and documents without pairs.
Each model also gets a content hash: sha256 over the
reloaded model's fields (header values, and every array's dtype, shape and
``tobytes()``), which does not depend on the model file format, so checkouts
that write different model file versions still agree on it.  Two checkouts
that should behave identically print the same table:

    PYTHONPATH=src python3 scripts/hash_outputs.py

Runs in a few seconds on one core; all files go to a temporary directory.
"""
import contextlib
import dataclasses
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from salience.cli import main
from salience.corpus import Corpus, load_corpus
from salience.embeddings import Vocabulary, build_vocab, init_embeddings
from salience.features import fit_scaler
from salience.kernels import KernelBank, default_bank
from salience.models import PageRankModel, load_model, new_kce_model, save_model
from salience.training import TrainConfig, train

SYNTH_CFG = {
    "docs": 40,
    "dim": 16,
    "seed": 11,
    "background_event_pool": 200,
    "background_entity_pool": 150,
    "vector_noise": 0.25,
}
SPLITS = (("train", 40, 1), ("dev", 15, 2), ("test", 15, 3))
TRAIN_CFG = {"epochs": 3, "batch_docs": 8, "seed": 5}
MODELS = ("kce", "kce-e", "kce-ef", "letor", "pagerank")
BASELINES = ("frequency", "location")
TIE_SEED = 13
INTRUDE_ARGS = ["--kind", "nonsalient", "--pairs", "20", "--seed", "4", "--fractions", "0.5,1.0"]
SALIENT_INTRUDE_ARGS = ["--kind", "salient", "--pairs", "20", "--seed", "4"]  # at the default fractions
CUT_BANKS = (1, 2)
HALF_FIT_CFG = {"epochs": 3, "batch_docs": 4, "seed": 5}
MAX_PAIRS = 7
EDGE_MODELS = ("kce", "pagerank")
ODD_TOKENS = ('quote"d', "back\\slash", "tab\there", "ctl\x01", "café", "→")
ODD_META = {"nested": {"a": {"b": [1, {"c": None}]}}, "empty": {}, 7: {"int key": {}}}
LARGE_DOCS_CFG = {**SYNTH_CFG, "events_per_doc": 40, "entities_per_doc": 60}  # n * (n + m) = 4,000 cosines
ZERO_BETAS = {"beta1": 0.0, "beta2": 0.0}  # the moments of rows a batch does not touch decay to -0.0
# (events, entities) kept from the front of the i-th synthetic document, cycled: each batch of 8
# mixes shapes, most shapes recur within a batch, and some documents have no entities, one event
# (so no pair), or too few events to hold both classes
MIXED_SHAPES = ((20, 30), (12, 30), (12, 0), (5, 8), (12, 30), (20, 0), (1, 4), (5, 8))
MIXED_MODELS = ("kce", "letor", "pagerank")


def _run(argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    if code != 0:
        raise SystemExit(f"salience {' '.join(argv)} exited {code}")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _content_sha256(path: Path) -> str:
    digest = hashlib.sha256()

    def feed(name, value):
        if dataclasses.is_dataclass(value):
            for f in dataclasses.fields(value):
                feed(f"{name}.{f.name}", getattr(value, f.name))
        elif isinstance(value, np.ndarray):
            digest.update(f"{name}:{value.dtype.str}{value.shape}\n".encode())
            digest.update(value.tobytes())
        else:
            digest.update(f"{name}={json.dumps(value, sort_keys=True)}\n".encode())

    model = load_model(path)
    feed(type(model).__name__, model)
    return digest.hexdigest()


def _ranked_rows(stem: Path, label: str, model: str, test: Path, tie_seed: bool) -> list[tuple[str, str]]:
    """Hashes of the rank JSONL and evaluate report (and the tie-seeded report if asked)."""
    ranks, report, seeded = (Path(f"{stem}.{s}") for s in ("ranks.jsonl", "report.json", "seeded.json"))
    _run(["rank", "--model", model, "--corpus", str(test), "--out", str(ranks)])
    _run(["evaluate", "--model", model, "--corpus", str(test), "--out", str(report)])
    rows = [(f"{label} rank JSONL", _sha256(ranks)), (f"{label} evaluate report", _sha256(report))]
    if tie_seed:
        _run(["evaluate", "--model", model, "--corpus", str(test), "--out", str(seeded),
              "--tie-seed", str(TIE_SEED)])
        rows.append((f"{label} evaluate report, tie seed {TIE_SEED}", _sha256(seeded)))
    return rows


def _cut_bank(model_path: Path, size: int, out: Path) -> None:
    """The kce model saved again with its bank, ``w_v`` and ``w_e`` cut to the ``size`` kernels
    whose means lie nearest 0, in bank order."""
    model = load_model(model_path)
    keep = np.sort(np.argsort(np.abs(model.bank.means), kind="stable")[:size])
    bank = KernelBank(means=model.bank.means[keep], sigmas=model.bank.sigmas[keep])
    save_model(dataclasses.replace(model, bank=bank, w_v=model.w_v[keep], w_e=model.w_e[keep]), out)


def _half_split_fits(corpora: dict[str, Path], root: Path) -> list[tuple[str, str]]:
    """Content hashes of kce (full) and pagerank fitted on the first half of the train split,
    with tables built from all of it at min_count=1 as ``salience train`` builds them, then of
    the same kce fit started from a bias of -0.0."""
    whole = load_corpus(corpora["train"], split_tag="train")
    fit = Corpus(whole.documents[: len(whole.documents) // 2], split_tag="train")
    dev = load_corpus(corpora["dev"], split_tag="dev")
    cfg = TrainConfig(**HALF_FIT_CFG)
    dim = SYNTH_CFG["dim"]
    events = init_embeddings(build_vocab(whole, "event_lemma", min_count=1), dim=dim, seed=cfg.seed,
                             pretrained=str(root / "events.vec"))
    entities = init_embeddings(build_vocab(whole, "entity_key", min_count=1), dim=dim, seed=cfg.seed + 1,
                               pretrained=str(root / "entities.vec"))
    kce = new_kce_model(default_bank(), events, entities, fit_scaler(whole, events, entities))
    fitted = {
        "kce (trainable)": kce,
        "pagerank (trainable)": PageRankModel(temperature=1.0, combine_lambda=0.5, event_table=events),
        "kce (trainable) from a bias of -0.0": dataclasses.replace(kce, bias=-0.0),
    }
    rows = []
    for k, (label, model) in enumerate(fitted.items()):
        path = root / f"half-fit-{k}.model.json"
        save_model(train(model, fit, dev, cfg)[0], path)
        rows.append((f"{label}, fit on half the train split, model content", _content_sha256(path)))
    return rows


def _unlabeled_with_filter(test: Path, root: Path) -> tuple[Path, Path]:
    """The test split with every salient flag set to null, and a filter config whose light
    verbs are the lemmas of the first document's first salient and first non-salient event."""
    docs = [json.loads(line) for line in test.read_text(encoding="utf-8").splitlines()]
    for doc in docs:
        for ev in doc["events"]:
            ev["salient"] = None
    unlabeled, filter_cfg = root / "test.unlabeled.jsonl", root / "filter.json"
    unlabeled.write_text("".join(json.dumps(doc) + "\n" for doc in docs), encoding="utf-8")
    first = json.loads(test.read_text(encoding="utf-8").splitlines()[0])["events"]
    dropped = [next(ev["head_lemma"] for ev in first if ev["salient"] is flag) for flag in (True, False)]
    filter_cfg.write_text(json.dumps({"light_verbs": dropped}), encoding="utf-8")
    return unlabeled, filter_cfg


def _with_edge_documents(corpus: Path, out: Path) -> Path:
    """``corpus`` followed by two documents cut from its first: one keeps only its first event,
    one only its salient events."""
    lines = corpus.read_text(encoding="utf-8").splitlines()
    first = json.loads(lines[0])
    edges = [
        {**first, "doc_id": f"{first['doc_id']}-single-event", "events": first["events"][:1]},
        {**first, "doc_id": f"{first['doc_id']}-all-salient",
         "events": [ev for ev in first["events"] if ev["salient"]]},
    ]
    out.write_text("".join(line + "\n" for line in lines) + "".join(json.dumps(doc) + "\n" for doc in edges),
                   encoding="utf-8")
    return out


def _train(name: str, corpora: dict[str, Path], root: Path, cfg: Path, out: Path) -> None:
    _run(["train", "--model", name, "--train", str(corpora["train"]),
          "--dev", str(corpora["dev"]), "--out", str(out), "--config", str(cfg),
          "--dim", str(SYNTH_CFG["dim"]), "--min-count", "1",
          "--event-vectors", str(root / "events.vec"),
          "--entity-vectors", str(root / "entities.vec")])


def _odd_tokens(model_path: Path, out: Path) -> None:
    """The model saved again with its first event tokens replaced by ``ODD_TOKENS`` and ``ODD_META``
    added to its meta."""
    model = load_model(model_path)
    table = model.event_table
    tokens = [*ODD_TOKENS, *table.vocabulary.tokens_by_index()[len(ODD_TOKENS):]]
    vocab = Vocabulary({t: i for i, t in enumerate(tokens)}, len(tokens), len(tokens) + 1)
    save_model(dataclasses.replace(model, event_table=dataclasses.replace(table, vocabulary=vocab),
                                   meta={**model.meta, **ODD_META}), out)


def _unreached_branches(corpora: dict[str, Path], root: Path) -> list[tuple[str, str]]:
    """Hashes of the outputs that reach the branches the rows before them do not."""
    rows = []
    capped_cfg, capped = root / "train-capped.json", root / "kce-capped.model.json"
    capped_cfg.write_text(json.dumps({**TRAIN_CFG, "max_pairs_per_doc": MAX_PAIRS}), encoding="utf-8")
    _train("kce", corpora, root, capped_cfg, capped)
    label = f"kce (trainable), max_pairs_per_doc {MAX_PAIRS}"
    rows.append((f"{label} model content", _content_sha256(capped)))
    rows.append((f"{label} history CSV", _sha256(Path(f"{capped}.history.csv"))))
    sigtest = root / "sigtest-p1.json"
    _run(["sigtest", "--a", str(root / "kce-trainable.report.json"), "--b", str(root / "frequency.report.json"),
          "--metric", "p@1", "--out", str(sigtest)])
    rows.append(("kce (trainable) vs frequency sigtest JSON, --metric p@1", _sha256(sigtest)))
    edged = {split: _with_edge_documents(corpora[split], root / f"{split}.edged.jsonl") for split in ("train", "dev")}
    for name in EDGE_MODELS:
        model = root / f"{name}-edged.model.json"
        _train(name, edged, root, root / "train-trainable.json", model)
        rows.append((f"{name} (trainable), train and dev with two edge documents, model content",
                     _content_sha256(model)))
    odd = root / "kce-trainable-odd-tokens.model.json"
    _odd_tokens(root / "kce-trainable.model.json", odd)
    rows.append(("kce (trainable) model with escaped and non-ASCII event tokens", _sha256(odd)))
    large_cfg, large, ranks = root / "synth-large.json", root / "test-large.jsonl", root / "kce-large.ranks.jsonl"
    large_cfg.write_text(json.dumps(LARGE_DOCS_CFG), encoding="utf-8")
    _run(["synth", "--out", str(large), "--config", str(large_cfg), "--docs", "8", "--seed", "3", "--split", "test"])
    _run(["rank", "--model", str(root / "kce-trainable.model.json"), "--corpus", str(large), "--out", str(ranks)])
    rows.append(("kce (trainable) rank JSONL, documents of 40 events and 60 entities", _sha256(ranks)))
    zero_cfg, zero = root / "train-zero-betas.json", root / "kce-zero-betas.model.json"
    zero_cfg.write_text(json.dumps({**TRAIN_CFG, **ZERO_BETAS}), encoding="utf-8")
    _train("kce", corpora, root, zero_cfg, zero)
    rows.append(("kce (trainable), beta1 and beta2 0.0, model content", _content_sha256(zero)))
    rows.append(("kce (trainable), beta1 and beta2 0.0, history CSV", _sha256(Path(f"{zero}.history.csv"))))
    return rows


def _mixed_shapes(corpus: Path, out: Path) -> Path:
    """``corpus`` with its i-th document cut to the first events and entities ``MIXED_SHAPES`` gives it."""
    docs = [json.loads(line) for line in corpus.read_text(encoding="utf-8").splitlines()]
    for i, doc in enumerate(docs):
        n_events, n_entities = MIXED_SHAPES[i % len(MIXED_SHAPES)]
        doc["events"], doc["entities"] = doc["events"][:n_events], doc["entities"][:n_entities]
    out.write_text("".join(json.dumps(doc) + "\n" for doc in docs), encoding="utf-8")
    return out


def _mixed_shape_fits(corpora: dict[str, Path], root: Path) -> list[tuple[str, str]]:
    """Model content and history CSV of kce (full), letor and pagerank trained on train and dev
    splits of mixed document shapes: batches whose documents train in stacks of several shapes."""
    mixed = {split: _mixed_shapes(corpora[split], root / f"{split}.mixed.jsonl") for split in ("train", "dev")}
    rows = []
    for name in MIXED_MODELS:
        model = root / f"{name}-mixed.model.json"
        _train(name, mixed, root, root / "train-trainable.json", model)
        label = f"{name} (trainable), train and dev of mixed document shapes"
        rows.append((f"{label}, model content", _content_sha256(model)))
        rows.append((f"{label}, history CSV", _sha256(Path(f"{model}.history.csv"))))
    return rows


def hash_outputs(root: Path) -> list[tuple[str, str]]:
    synth_cfg = root / "synth.json"
    synth_cfg.write_text(json.dumps(SYNTH_CFG), encoding="utf-8")
    corpora = {}
    for split, docs, seed in SPLITS:
        corpora[split] = root / f"{split}.jsonl"
        argv = ["synth", "--out", str(corpora[split]), "--config", str(synth_cfg),
                "--docs", str(docs), "--seed", str(seed), "--split", split]
        if split == "train":
            argv += ["--event-vectors-out", str(root / "events.vec"),
                     "--entity-vectors-out", str(root / "entities.vec")]
        _run(argv)

    test = corpora["test"]
    rows = []
    for name in BASELINES:
        rows += _ranked_rows(root / name, name, name, test, tie_seed=True)
    for mode, freeze in (("trainable", False), ("frozen", True)):
        train_cfg = root / f"train-{mode}.json"
        train_cfg.write_text(json.dumps({**TRAIN_CFG, "freeze_embeddings": freeze}), encoding="utf-8")
        for name in MODELS:
            model = root / f"{name}-{mode}.model.json"
            _train(name, corpora, root, train_cfg, model)
            rows.append((f"{name} ({mode}) model", _sha256(model)))
            rows.append((f"{name} ({mode}) model content", _content_sha256(model)))
            rows.append((f"{name} ({mode}) history CSV", _sha256(Path(f"{model}.history.csv"))))
            seeded = name == "kce" and not freeze
            rows += _ranked_rows(root / f"{name}-{mode}", f"{name} ({mode})", str(model), test, seeded)
            if seeded:
                curves = root / "kce-intrusion.csv"
                _run(["intrude", "--model", str(model), "--corpus", str(test), "--out", str(curves)]
                     + INTRUDE_ARGS)
                rows.append((f"{name} ({mode}) intrusion CSV", _sha256(curves)))

    rows += [(f"{split} corpus JSONL", _sha256(path)) for split, path in corpora.items()]
    rows += [(f"{kind} vector file", _sha256(root / f"{kind}.vec")) for kind in ("events", "entities")]
    annotated, sigtest = root / "test.annotated.jsonl", root / "sigtest.json"
    unlabeled, filter_cfg = _unlabeled_with_filter(test, root)
    _run(["annotate", "--corpus", str(unlabeled), "--out", str(annotated), "--filter-config", str(filter_cfg)])
    rows.append(("test annotate JSONL", _sha256(annotated)))
    _run(["sigtest", "--a", str(root / "kce-trainable.report.json"), "--b", str(root / "frequency.report.json"),
          "--out", str(sigtest)])
    rows.append(("kce (trainable) vs frequency sigtest JSON", _sha256(sigtest)))
    for size in CUT_BANKS:
        cut = root / f"kce-trainable-{size}k.model.json"
        _cut_bank(root / "kce-trainable.model.json", size, cut)
        ranks = root / f"kce-trainable-{size}k.ranks.jsonl"
        _run(["rank", "--model", str(cut), "--corpus", str(test), "--out", str(ranks)])
        rows.append((f"kce (trainable), {size}-kernel bank rank JSONL", _sha256(ranks)))
    *half_fits, negative_zero_bias_fit = _half_split_fits(corpora, root)
    rows += half_fits
    for field in ("event", "entity"):
        vocab = root / f"{field}.vocab.json"
        _run(["build-vocab", "--corpus", str(corpora["train"]), "--out", str(vocab), "--field", field])
        rows.append((f"train {field} build-vocab JSON", _sha256(vocab)))
    kernels, grads = root / "kce-trainable.kernels.csv", root / "kce-trainable.gradcheck.json"
    _run(["export-kernel-weights", "--model", str(root / "kce-trainable.model.json"), "--out", str(kernels)])
    rows.append(("kce (trainable) export-kernel-weights CSV", _sha256(kernels)))
    _run(["gradcheck", "--model", str(root / "kce-trainable.model.json"), "--corpus", str(test),
          "--max-docs", "2", "--out", str(grads)])
    rows.append(("kce (trainable) gradcheck JSON", _sha256(grads)))
    rows.append(negative_zero_bias_fit)  # after the rows above, so they line up with older tables
    for name, args in (("kce", SALIENT_INTRUDE_ARGS), ("kce-ef", INTRUDE_ARGS)):
        curves = root / f"{name}-trainable.intrusion.csv"
        _run(["intrude", "--model", str(root / f"{name}-trainable.model.json"), "--corpus", str(test),
              "--out", str(curves)] + args)
        rows.append((f"{name} (trainable) intrusion CSV, {' '.join(args)}", _sha256(curves)))
    return rows + _unreached_branches(corpora, root) + _mixed_shape_fits(corpora, root)


def run() -> int:
    with tempfile.TemporaryDirectory(prefix="salience-hash-") as tmp:
        rows = hash_outputs(Path(tmp))
    print("| output | sha256 |")
    print("|---|---|")
    for label, digest in rows:
        print(f"| {label} | `{digest}` |")
    return 0


if __name__ == "__main__":
    sys.exit(run())

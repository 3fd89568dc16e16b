#!/usr/bin/env python3
"""Fingerprint the toolkit's byte-stable outputs on a small fixed-seed corpus.

Synthesizes train/dev/test splits, then trains every model type (kce in its
three variants, letor, pagerank) twice through the CLI: once with trainable
embeddings and once with ``freeze_embeddings``.  Prints a Markdown table of
the sha256 of each model file, of its training history CSV, and of each
model's rank JSONL and evaluate report, of the same two files for the
``frequency`` and ``location`` baselines, of evaluate reports with ``--tie-seed`` (both baselines and the
trainable kce model), and of the trainable kce model's ``intrude`` CSV.
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
from salience.models import load_model

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
            _run(["train", "--model", name, "--train", str(corpora["train"]),
                  "--dev", str(corpora["dev"]), "--out", str(model), "--config", str(train_cfg),
                  "--dim", str(SYNTH_CFG["dim"]), "--min-count", "1",
                  "--event-vectors", str(root / "events.vec"),
                  "--entity-vectors", str(root / "entities.vec")])
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
    return rows


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

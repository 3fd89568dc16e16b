#!/usr/bin/env python3
"""Full synthetic-separation experiment: plant topical structure, hand every
model the same degraded pretrained vectors, and compare test rankings.

Drives the ``salience`` CLI through synth, train, evaluate, sigtest and
intrude.  Writes into --out-dir a ``<name>.report.json`` per model and
baseline, each trained ``<name>.model.json`` with its ``.history.csv``,
``summary.csv``, ``run.json`` and the two intrusion CSVs, beside the corpora,
vector files, configs, ``sigtest.json`` and every command's manifest.  With
the defaults this reproduces the ordering the acceptance suite checks (kernel
model > feature LeToR > frequency) in a few minutes.
"""
import argparse
import sys
from pathlib import Path

from salience.cli import main as salience
from salience.errors import read_json, write_csv, write_json
from salience.metrics import DEFAULT_KS, MetricsReport
from salience.synth import SynthConfig, build_pools, measured_cosine_gap

# the artifact name of each trained model, and its ``salience train --model``
MODELS = {"letor": "letor", "pagerank": "pagerank", "kce_full": "kce",
          "kce_events_features": "kce-e", "kce_events_only": "kce-ef"}
BASELINES = ("frequency", "location")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", default="synth-experiment", help="artifact directory")
    for flag, default in (("--train-docs", 500), ("--dev-docs", 100), ("--test-docs", 100), ("--dim", 128)):
        ap.add_argument(flag, type=int, default=default)
    ap.add_argument("--cosine-gap", type=float, default=0.4)
    ap.add_argument("--vector-noise", type=float, default=0.25,
                    help="degradation of the exported pretrained vectors; frozen-embedding "
                    "models feel this directly, embedding-training models can recover")
    ap.add_argument("--epochs", type=int, default=20)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--skip-intrusion", action="store_true")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    def run(*argv) -> None:
        if (code := salience([str(a) for a in argv])) != 0:
            raise SystemExit(code)

    synth_cfg, train_cfg, test = out / "synth.json", out / "train.json", out / "test.jsonl"
    write_json({"dim": args.dim, "cosine_gap": args.cosine_gap, "vector_noise": args.vector_noise}, synth_cfg)
    write_json({"epochs": args.epochs, "seed": args.seed}, train_cfg)
    events, entities = out / "events.vec", out / "entities.vec"
    splits = (("train", args.train_docs, 1), ("dev", args.dev_docs, 2), ("test", args.test_docs, 3))
    for split, docs, seed in splits:
        vectors = ["--event-vectors-out", events, "--entity-vectors-out", entities] if split == "train" else []
        run("synth", "--out", out / f"{split}.jsonl", "--config", synth_cfg, "--docs", docs, "--seed", seed,
            "--split", split, *vectors)
    gap = measured_cosine_gap(build_pools(SynthConfig.load(synth_cfg)))
    print(f"planted cosine gap {gap:.3f} over {args.train_docs}/{args.dev_docs}/{args.test_docs} docs")

    for name in BASELINES:
        run("evaluate", "--model", name, "--corpus", test, "--out", out / f"{name}.report.json")
    for name, flavor in MODELS.items():
        model = out / f"{name}.model.json"
        run("train", "--model", flavor, "--train", out / "train.jsonl", "--dev", out / "dev.jsonl",
            "--out", model, "--config", train_cfg, "--dim", args.dim,
            "--event-vectors", events, "--entity-vectors", entities)
        run("evaluate", "--model", model, "--corpus", test, "--out", out / f"{name}.report.json")
    # paired significance: does the kernel model beat the feature model?
    run("sigtest", "--a", out / "kce_full.report.json", "--b", out / "letor.report.json",
        "--out", out / "sigtest.json", "--seed", args.seed)

    reports = {name: MetricsReport.load(out / f"{name}.report.json") for name in sorted([*BASELINES, *MODELS])}
    write_csv(["model", "auc", *(f"{m}@{k}" for m in "pr" for k in DEFAULT_KS)],
              ([name, repr(r.auc), *(repr(at[k]) for at in (r.p_at, r.r_at) for k in DEFAULT_KS)]
               for name, r in reports.items()), out / "summary.csv")
    p_value = read_json(out / "sigtest.json", "sigtest result")["p_value"]
    train_config = read_json(out / "kce_full.model.json.manifest.json", "manifest")["args"]["train_config"]
    write_json({"args": vars(args), "measured_cosine_gap": gap, "sigtest_kce_vs_letor_p": p_value,
                "train_config": train_config}, out / "run.json")

    if not args.skip_intrusion:
        for kind in ("salient", "nonsalient"):
            run("intrude", "--model", out / "kce_full.model.json", "--corpus", test, "--kind", kind,
                "--pairs", 200, "--seed", args.seed, "--out", out / f"intrusion.{kind}_only.csv")
    print(f"artifacts in {out}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())

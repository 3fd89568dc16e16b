"""Smoke test of ``scripts/run_synth_experiment.py``, the CLI-driven separation experiment."""
import csv
import importlib.util
import json
from pathlib import Path

from salience.embeddings import load_word_vectors
from salience.metrics import DEFAULT_KS, MetricsReport

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_synth_experiment.py"
SIZES = ["--train-docs", "20", "--dev-docs", "8", "--test-docs", "8", "--dim", "8", "--epochs", "1"]


def _script():
    spec = importlib.util.spec_from_file_location("run_synth_experiment", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_experiment_writes_every_artifact_from_the_cli_outputs(tmp_path, capsys):
    script = _script()
    out = tmp_path / "experiment"
    assert script.main([*SIZES, "--out-dir", str(out)]) == 0

    models = list(script.MODELS)
    names = [*script.BASELINES, *models]
    outputs = (
        [f"{split}.jsonl" for split in ("train", "dev", "test")]
        + [f"{name}.report.json" for name in names]
        + [f"{name}.model.json" for name in models]
        + ["sigtest.json", "intrusion.salient_only.csv", "intrusion.nonsalient_only.csv"]
    )
    expected = (
        {"synth.json", "train.json", "events.vec", "entities.vec", "summary.csv", "run.json"}
        | {f"{name}.model.json.history.csv" for name in models}
        | set(outputs)
        | {f"{name}.manifest.json" for name in outputs}
    )
    assert {p.name for p in out.iterdir()} == expected
    assert len(load_word_vectors(out / "events.vec")) > 0 and len(load_word_vectors(out / "entities.vec")) > 0

    with open(out / "summary.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["model", "auc", *(f"p@{k}" for k in DEFAULT_KS), *(f"r@{k}" for k in DEFAULT_KS)]
    assert [row[0] for row in rows[1:]] == sorted(names)
    for name, *values in rows[1:]:
        report = MetricsReport.load(out / f"{name}.report.json")
        expected_values = [report.auc, *(report.p_at[k] for k in DEFAULT_KS), *(report.r_at[k] for k in DEFAULT_KS)]
        assert values == [repr(v) for v in expected_values]

    run = json.loads((out / "run.json").read_text(encoding="utf-8"))
    sigtest = json.loads((out / "sigtest.json").read_text(encoding="utf-8"))
    assert run["sigtest_kce_vs_letor_p"] == sigtest["p_value"]
    assert run["train_config"]["epochs"] == 1 and run["args"]["out_dir"] == str(out)

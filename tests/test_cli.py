"""End-to-end checks of the command-line pipeline via ``main(argv)``."""
import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from oracles import write_jsonl_reference
from salience import cli
from salience.cli import main
from salience.corpus import Corpus, Document, EventMention, document_to_json, load_corpus, save_corpus
from salience.embeddings import build_vocab
from salience.metrics import DEFAULT_KS, MetricsReport
from salience.models import KCEModel, load_model

SYNTH_CFG = {
    "docs": 24,
    "dim": 16,
    "seed": 5,
    "events_per_doc": 12,
    "entities_per_doc": 10,
    "background_event_pool": 60,
    "background_entity_pool": 50,
    "sentences_per_doc": 8,
}
TRAIN_CFG = {"epochs": 3, "batch_docs": 16, "seed": 0}


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Run synth -> train -> rank -> evaluate once; individual tests inspect the artifacts."""
    root = tmp_path_factory.mktemp("cli")
    scfg = root / "synth.json"
    scfg.write_text(json.dumps(SYNTH_CFG), encoding="utf-8")
    tcfg = root / "train.json"
    tcfg.write_text(json.dumps(TRAIN_CFG), encoding="utf-8")

    paths = {"root": root, "synth_cfg": scfg, "train_cfg": tcfg}
    for split, seed in (("train", 1), ("dev", 2), ("test", 3)):
        out = root / f"{split}.jsonl"
        code = main(
            [
                "synth",
                "--out",
                str(out),
                "--config",
                str(scfg),
                "--seed",
                str(seed),
                "--split",
                split,
            ]
        )
        assert code == 0
        paths[split] = out

    model_out = root / "letor.model.json"
    code = main(
        [
            "train",
            "--model",
            "letor",
            "--train",
            str(paths["train"]),
            "--dev",
            str(paths["dev"]),
            "--out",
            str(model_out),
            "--config",
            str(tcfg),
            "--dim",
            "16",
        ]
    )
    assert code == 0
    paths["model"] = model_out

    ranks = root / "ranks.jsonl"
    assert main(["rank", "--model", str(model_out), "--corpus", str(paths["test"]), "--out", str(ranks)]) == 0
    paths["ranks"] = ranks

    report = root / "letor.report.json"
    assert main(["evaluate", "--model", str(model_out), "--corpus", str(paths["test"]), "--out", str(report)]) == 0
    paths["report"] = report
    return paths


def test_synth_outputs_load_and_carry_split_tags(pipeline):
    corpus = load_corpus(pipeline["train"], split_tag="train")
    assert len(corpus.documents) == SYNTH_CFG["docs"]
    train_ids = {d.doc_id for d in corpus.documents}
    test_ids = {d.doc_id for d in load_corpus(pipeline["test"]).documents}
    assert train_ids.isdisjoint(test_ids)


def test_trained_model_loads_with_history(pipeline):
    assert json.loads(pipeline["model"].read_text(encoding="utf-8"))["model_type"] == "letor"
    model = load_model(pipeline["model"])
    assert isinstance(model, KCEModel) and model.variant == "features_only"
    history = Path(str(pipeline["model"]) + ".history.csv").read_text(encoding="utf-8")
    lines = history.strip().splitlines()
    assert lines[0] == "epoch,loss,dev_auc,dev_p1"
    assert len(lines) == 1 + TRAIN_CFG["epochs"]


def test_rank_output_is_sorted_jsonl(pipeline):
    rows = [json.loads(line) for line in pipeline["ranks"].read_text(encoding="utf-8").splitlines()]
    assert len(rows) == SYNTH_CFG["docs"]
    for row in rows:
        assert set(row) == {"doc_id", "ranking"}
        scores = [item["score"] for item in row["ranking"]]
        assert scores == sorted(scores, reverse=True)
        assert len({item["event_id"] for item in row["ranking"]}) == len(row["ranking"])


def test_rank_output_is_the_one_dumps_lines_of_its_rows(pipeline, tmp_path):
    """Each rank row reads back to the values it was written from, so the reference writer must
    write the same bytes."""
    rows = [json.loads(line) for line in pipeline["ranks"].read_text(encoding="utf-8").splitlines()]
    write_jsonl_reference(rows, tmp_path / "ranks.jsonl")
    assert (tmp_path / "ranks.jsonl").read_bytes() == pipeline["ranks"].read_bytes()


def test_rank_output_is_byte_deterministic(pipeline, tmp_path):
    again = tmp_path / "ranks2.jsonl"
    assert main(["rank", "--model", str(pipeline["model"]), "--corpus", str(pipeline["test"]), "--out", str(again)]) == 0
    assert again.read_bytes() == pipeline["ranks"].read_bytes()


def test_synth_is_byte_deterministic(pipeline, tmp_path):
    again = tmp_path / "again.jsonl"
    code = main(
        ["synth", "--out", str(again), "--config", str(pipeline["synth_cfg"]), "--seed", "3", "--split", "test"]
    )
    assert code == 0
    assert again.read_bytes() == pipeline["test"].read_bytes()


def test_every_command_writes_a_manifest(pipeline, kce_model, tmp_path, monkeypatch):
    sig, curve, grad = tmp_path / "sig.json", tmp_path / "curve.csv", tmp_path / "grad.json"
    for argv in (
        ["sigtest", "--a", pipeline["report"], "--b", pipeline["report"], "--iterations", "10", "--out", sig],
        ["intrude", "--model", kce_model, "--corpus", pipeline["test"], "--kind", "salient", "--pairs", "5",
         "--out", curve],
        ["gradcheck", "--model", kce_model, "--corpus", pipeline["dev"], "--max-docs", "2", "--out", grad],
    ):
        assert main(list(map(str, argv))) == 0
    outputs = {
        pipeline["train"]: "synth",
        pipeline["model"]: "train",
        pipeline["ranks"]: "rank",
        pipeline["report"]: "evaluate",
        sig: "sigtest",
        curve: "intrude",
        grad: "gradcheck",
    }
    manifest_args = {}
    for out, command in outputs.items():
        manifest = Path(str(out) + ".manifest.json")
        assert manifest.exists(), f"missing manifest for {command}"
        payload = json.loads(manifest.read_text(encoding="utf-8"))
        assert {"command", "args", "inputs", "outputs", "toolkit_version"} <= set(payload)
        assert payload["command"] == command and str(out) in payload["outputs"]
        manifest_args[command] = payload["args"]
    assert manifest_args["synth"]["synth_config"]["docs"] == SYNTH_CFG["docs"]
    assert manifest_args["train"]["train_config"]["epochs"] == TRAIN_CFG["epochs"]

    def no_manifest(*args, **kwargs):
        raise AssertionError("gradcheck without --out wrote a manifest")

    monkeypatch.setattr(cli, "write_manifest", no_manifest)
    assert main(["gradcheck", "--model", str(kce_model), "--corpus", str(pipeline["dev"]), "--max-docs", "2"]) == 0


def test_a_manifest_names_the_numeric_build_and_the_dispatch_level_it_ran_at(pipeline, tmp_path):
    """numpy's version, CPU baseline, enabled SIMD dispatch targets and BLAS build; a run with every
    dispatch target switched off records none."""
    try:
        from numpy._core._multiarray_umath import __cpu_baseline__, __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_baseline__, __cpu_dispatch__, __cpu_features__
    enabled = [t for t in __cpu_dispatch__ if __cpu_features__.get(t)]
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    argv = ["build-vocab", "--corpus", str(pipeline["train"]), "--field", "event"]
    out, baseline_out = tmp_path / "v.json", tmp_path / "v-baseline.json"
    assert main([*argv, "--out", str(out)]) == 0
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src, "NPY_DISABLE_CPU_FEATURES": " ".join(enabled)}
    argv_baseline = [sys.executable, "-m", "salience.cli", *argv, "--out", str(baseline_out)]
    subprocess.run(argv_baseline, env=env, capture_output=True, check=True, timeout=120)
    want = {"numpy": np.__version__, "cpu_baseline": list(__cpu_baseline__), "cpu_dispatch": enabled, "blas": blas}
    got = json.loads(Path(f"{out}.manifest.json").read_text(encoding="utf-8"))["numeric_build"]
    assert got == json.loads(json.dumps(want))
    baseline = json.loads(Path(f"{baseline_out}.manifest.json").read_text(encoding="utf-8"))["numeric_build"]
    assert baseline == {**got, "cpu_dispatch": []}
    assert baseline_out.read_bytes() == out.read_bytes()


def test_evaluate_supports_named_baselines(pipeline, tmp_path):
    out = tmp_path / "freq.report.json"
    assert main(["evaluate", "--model", "frequency", "--corpus", str(pipeline["test"]), "--out", str(out)]) == 0
    report = MetricsReport.load(out)
    assert report.n_docs == SYNTH_CFG["docs"]
    assert report.auc is not None and 0.0 <= report.auc <= 1.0


def test_sigtest_pairs_reports(pipeline, tmp_path):
    freq = tmp_path / "freq.report.json"
    assert main(["evaluate", "--model", "frequency", "--corpus", str(pipeline["test"]), "--out", str(freq)]) == 0
    out = tmp_path / "sig.json"
    code = main(
        [
            "sigtest",
            "--a",
            str(pipeline["report"]),
            "--b",
            str(freq),
            "--metric",
            "auc",
            "--iterations",
            "500",
            "--seed",
            "1",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    result = json.loads(out.read_text(encoding="utf-8"))
    assert result["metric"] == "auc"
    assert result["n_pairs"] == SYNTH_CFG["docs"]
    assert 0.0 <= result["p_value"] <= 1.0


def test_sigtest_rejects_mismatched_document_sets(pipeline, tmp_path):
    other = tmp_path / "other.report.json"
    assert main(["evaluate", "--model", "frequency", "--corpus", str(pipeline["dev"]), "--out", str(other)]) == 0
    code = main(
        [
            "sigtest",
            "--a",
            str(pipeline["report"]),
            "--b",
            str(other),
            "--out",
            str(tmp_path / "sig.json"),
        ]
    )
    assert code == 2


def test_sigtest_rejects_unknown_metric(pipeline, tmp_path):
    code = main(
        [
            "sigtest",
            "--a",
            str(pipeline["report"]),
            "--b",
            str(pipeline["report"]),
            "--metric",
            "f1",
            "--out",
            str(tmp_path / "sig.json"),
        ]
    )
    assert code == 2


def test_build_vocab_writes_counts(pipeline, tmp_path):
    out = tmp_path / "vocab.json"
    assert main(["build-vocab", "--corpus", str(pipeline["train"]), "--field", "event", "--out", str(out)]) == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["field"] == "event_lemma"
    assert payload["unknown_index"] == len(payload["tokens"])
    assert len(payload["tokens"]) > 0


def test_annotate_round_trips_labels(pipeline, tmp_path):
    out = tmp_path / "relabeled.jsonl"
    assert main(["annotate", "--corpus", str(pipeline["test"]), "--out", str(out)]) == 0
    before = load_corpus(pipeline["test"])
    after = load_corpus(out)
    # synth labels already come from lemma matching, so relabeling is a no-op
    assert [[e.salient for e in d.events] for d in after.documents] == [
        [e.salient for e in d.events] for d in before.documents
    ]


def test_export_kernel_weights_requires_kce(pipeline, tmp_path):
    code = main(
        ["export-kernel-weights", "--model", str(pipeline["model"]), "--out", str(tmp_path / "k.csv")]
    )
    assert code == 2  # letor model: kind mismatch is a data error


@pytest.mark.parametrize("command", ["intrude", "gradcheck"])
def test_kernel_commands_refuse_a_letor_model(pipeline, tmp_path, capsys, command):
    argv = [command, "--model", str(pipeline["model"]), "--corpus", str(pipeline["test"]),
            "--out", str(tmp_path / "o")]
    if command == "intrude":
        argv += ["--kind", "salient"]
    _exits_two_with_one_line_error(argv, capsys, "expected a kce model")


@pytest.fixture(scope="module")
def kce_model(pipeline):
    """A kce model trained through the CLI on the pipeline's corpora."""
    model_out = pipeline["root"] / "kce.model.json"
    code = main(
        [
            "train",
            "--model",
            "kce",
            "--train",
            str(pipeline["train"]),
            "--dev",
            str(pipeline["dev"]),
            "--out",
            str(model_out),
            "--config",
            str(pipeline["train_cfg"]),
            "--dim",
            "16",
        ]
    )
    assert code == 0
    return model_out


def test_kce_train_gradcheck_and_kernel_export(pipeline, kce_model, tmp_path):
    model_out = kce_model
    assert isinstance(load_model(model_out), KCEModel)

    csv_out = tmp_path / "kernels.csv"
    assert main(["export-kernel-weights", "--model", str(model_out), "--out", str(csv_out)]) == 0
    lines = csv_out.read_text(encoding="utf-8").strip().splitlines()
    assert lines[0] == "mu,sigma,w_v,w_e"
    assert len(lines) == 1 + 11
    first = lines[1].split(",")
    assert float(first[0]) == 1.0  # exact-match kernel row comes first

    grad_out = tmp_path / "grad.json"
    code = main(
        [
            "gradcheck",
            "--model",
            str(model_out),
            "--corpus",
            str(pipeline["dev"]),
            "--max-docs",
            "2",
            "--out",
            str(grad_out),
        ]
    )
    assert code == 0
    payload = json.loads(grad_out.read_text(encoding="utf-8"))
    assert payload["documents"] == 2


def test_intrude_writes_curve(pipeline, kce_model, tmp_path):
    model_out = kce_model
    out = tmp_path / "intrusion.csv"
    code = main(
        [
            "intrude",
            "--model",
            str(model_out),
            "--corpus",
            str(pipeline["test"]),
            "--kind",
            "salient",
            "--pairs",
            "20",
            "--fractions",
            "0.5,1.0",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    lines = out.read_text(encoding="utf-8").strip().splitlines()
    assert lines[0] == "fraction,auc,sa_auc,frequency_sa_auc,n_pairs"
    assert len(lines) == 3


@pytest.mark.parametrize("step", ["nan", "0"])
def test_gradcheck_refuses_a_step_that_is_not_finite_and_positive(pipeline, kce_model, capsys, step):
    argv = ["gradcheck", "--model", str(kce_model), "--corpus", str(pipeline["dev"]), "--step", step]
    _exits_two_with_one_line_error(argv, capsys, "step")


@pytest.mark.parametrize("max_docs", ["-1", "0"])
def test_gradcheck_refuses_max_docs_below_one(pipeline, kce_model, capsys, max_docs):
    argv = ["gradcheck", "--model", str(kce_model), "--corpus", str(pipeline["dev"]), "--max-docs", max_docs]
    _exits_two_with_one_line_error(argv, capsys, "--max-docs")


def test_gradcheck_skips_unlabeled_and_single_class_documents(pipeline, kce_model, tmp_path, capsys):
    """Only a document with both salient and non-salient events is checked and counted."""
    both = next(d for d in load_corpus(pipeline["dev"]).documents if len({ev.salient for ev in d.events}) == 2)

    def relabeled(doc_id, salient):
        return replace(both, doc_id=doc_id, events=tuple(replace(ev, salient=salient) for ev in both.events))

    corpus, out = tmp_path / "mixed-labels.jsonl", tmp_path / "grad.json"
    save_corpus(Corpus((relabeled("unlabeled", None), relabeled("one-class", True), both)), corpus)
    assert main(["gradcheck", "--model", str(kce_model), "--corpus", str(corpus), "--out", str(out)]) == 0
    assert json.loads(out.read_text(encoding="utf-8"))["documents"] == 1
    assert capsys.readouterr().out.endswith(" over 1 documents (step 0.0001)\n")


def test_gradcheck_nan_error_on_a_later_document_exits_three(pipeline, kce_model, capsys, monkeypatch):
    errors = iter([0.5, float("nan")])
    monkeypatch.setattr(cli, "grad_check", lambda *args, **kwargs: next(errors))
    code = main(["gradcheck", "--model", str(kce_model), "--corpus", str(pipeline["dev"]), "--max-docs", "2"])
    err = capsys.readouterr().err
    assert code == 3
    assert "non-finite" in err and "Traceback" not in err


def test_train_pagerank_nan_temperature_exits_two_before_training(pipeline, tmp_path, capsys, monkeypatch):
    def no_training(*args, **kwargs):
        raise AssertionError("train ran")

    monkeypatch.setattr(cli, "train", no_training)
    out = tmp_path / "pr.json"
    argv = ["train", "--model", "pagerank", "--train", str(pipeline["train"]), "--dev", str(pipeline["dev"]),
            "--out", str(out), "--dim", "16", "--pagerank-temperature", "nan"]
    _exits_two_with_one_line_error(argv, capsys, "temperature")
    assert not out.exists()


def test_train_on_non_finite_training_scores_exits_three(pipeline, tmp_path, capsys):
    """A temperature of 1e-310 passes the model's check, but cosines over it overflow the walk to NaN."""
    out = tmp_path / "pr.json"
    argv = ["train", "--model", "pagerank", "--train", str(pipeline["train"]), "--dev", str(pipeline["dev"]),
            "--out", str(out), "--config", str(pipeline["train_cfg"]), "--dim", "16",
            "--pagerank-temperature", "1e-310"]
    code = main(argv)
    err = capsys.readouterr().err
    train_ids = {doc.doc_id for doc in load_corpus(pipeline["train"]).documents}
    assert code == 3
    assert err.startswith("numeric failure: non-finite score while training on doc ") and err.count("\n") == 1
    assert err.split(" doc ", 1)[1].strip() in {repr(doc_id) for doc_id in train_ids}
    assert not out.exists()


_BLOCK_OVERFLOW = "parameter block 'event_emb' became non-finite during training"
_SCORE_OVERFLOW = "non-finite score while training on doc 'synth-1-00000'"


@pytest.mark.parametrize(
    "model, cfg, pattern",
    [
        # Adam steps of 1e300 overflow the event table in the first epoch; the check after it names the block
        pytest.param("kce", {"learning_rate": 1e300}, _BLOCK_OVERFLOW, id="kce-1e300"),
        pytest.param("kce-e", {"learning_rate": 1e300}, _BLOCK_OVERFLOW, id="kce-e-1e300"),
        # steps of 1e308 overflow the weights, and the next document's scores with them
        pytest.param("kce", {"learning_rate": 1e308}, _SCORE_OVERFLOW, id="kce-1e308"),
        pytest.param("kce-e", {"learning_rate": 1e308}, _SCORE_OVERFLOW, id="kce-e-1e308"),
        pytest.param("pagerank", {"learning_rate": 1e308}, _SCORE_OVERFLOW, id="pagerank-1e308"),
        # with this seed Adam pushes the walk temperature to about 5.6e299, whose square overflows a float
        pytest.param(
            "pagerank", {"learning_rate": 1e300, "seed": 5}, r"walk temperature \S+e\+299 overflowed while training",
            id="pagerank-1e300",
        ),
    ],
)
def test_train_whose_parameters_overflow_exits_three(pipeline, tmp_path, capsys, model, cfg, pattern):
    train_corpus, cfg_path, out = tmp_path / "train.jsonl", tmp_path / "train.json", tmp_path / "model.json"
    cfg_path.write_text(json.dumps({**cfg, "batch_docs": 6}), encoding="utf-8")
    assert main(["synth", "--out", str(train_corpus), "--config", str(pipeline["synth_cfg"]), "--docs", "12",
                 "--seed", "1", "--split", "train"]) == 0
    capsys.readouterr()
    code = main(["train", "--model", model, "--train", str(train_corpus), "--dev", str(pipeline["dev"]),
                 "--out", str(out), "--config", str(cfg_path), "--dim", "16"])
    err = capsys.readouterr().err
    assert code == 3
    assert re.fullmatch(f"numeric failure: {pattern}\n", err)
    assert not out.exists()


@pytest.mark.parametrize("noise", [1e300, 1e308])
def test_synth_whose_vector_noise_overflows_exits_three_without_files(tmp_path, capsys, noise):
    # at 1e300 every norm overflows to inf, which would write zero rows; at 1e308 the rows hold nan
    cfg = tmp_path / "synth.json"
    cfg.write_text(json.dumps({"docs": 3, "vector_noise": noise}), encoding="utf-8")
    out, events, entities = tmp_path / "c.jsonl", tmp_path / "events.vec", tmp_path / "entities.vec"
    code = main(["synth", "--out", str(out), "--config", str(cfg),
                 "--event-vectors-out", str(events), "--entity-vectors-out", str(entities)])
    err = capsys.readouterr().err
    assert code == 3
    assert err == f"numeric failure: vector noise {noise!r} gives token 'bg_ev0' a non-finite norm\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["synth.json"]


def test_usage_errors_exit_one():
    assert main([]) == 1
    assert main(["train", "--model", "nope"]) == 1
    assert main(["rank"]) == 1


def test_missing_files_exit_two(tmp_path):
    code = main(["rank", "--model", "no.model", "--corpus", "no.jsonl", "--out", str(tmp_path / "o")])
    assert code == 2


def test_malformed_corpus_exits_two(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"doc_id": 1}\n', encoding="utf-8")
    code = main(["build-vocab", "--corpus", str(bad), "--field", "event", "--out", str(tmp_path / "v.json")])
    assert code == 2


def test_bad_train_config_exits_two_without_traceback(pipeline, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"epochs": "3"}), encoding="utf-8")
    out = tmp_path / "m.json"
    code = main(
        [
            "train",
            "--model",
            "kce",
            "--train",
            str(pipeline["train"]),
            "--dev",
            str(pipeline["dev"]),
            "--out",
            str(out),
            "--config",
            str(bad),
        ]
    )
    err = capsys.readouterr().err
    assert code == 2
    assert "epochs" in err and "Traceback" not in err
    assert not out.exists()


def test_version_exits_zero(capsys):
    assert main(["--version"]) == 0
    assert "salience" in capsys.readouterr().out


def _exits_two_with_one_line_error(argv, capsys, *needles):
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    assert all(needle in err for needle in needles)


def test_intrude_exits_two_when_a_prefixed_intruder_id_equals_an_origin_id(kce_model, tmp_path, capsys):
    def events(n, salient=True):
        return tuple(EventMention(f"e{i}", f"l{i}", "x", 0, salient=salient) for i in range(n))

    origin = Document("a", 1, events(5) + (EventMention("b::e0", "l9", "x", 0, salient=False),), (), frozenset())
    intruder = Document("b", 1, events(2), (), frozenset())  # too few salient events to be an origin
    corpus = tmp_path / "clash.jsonl"
    save_corpus(Corpus((origin, intruder)), corpus)
    argv = ["intrude", "--model", str(kce_model), "--corpus", str(corpus), "--kind", "salient",
            "--out", str(tmp_path / "i.csv")]
    _exits_two_with_one_line_error(argv, capsys, "event 'b::e0': duplicate mention id")


def test_synth_config_with_mistyped_field_exits_two(tmp_path, capsys):
    cfg = tmp_path / "synth.json"
    cfg.write_text(json.dumps({"docs": "3"}), encoding="utf-8")
    argv = ["synth", "--out", str(tmp_path / "c.jsonl"), "--config", str(cfg)]
    _exits_two_with_one_line_error(argv, capsys, "'docs'")


def test_sigtest_on_report_without_ks_exits_two(tmp_path, capsys):
    report = tmp_path / "r.json"
    report.write_text(json.dumps({"per_doc": [1]}), encoding="utf-8")
    argv = ["sigtest", "--a", str(report), "--b", str(report), "--out", str(tmp_path / "o.json")]
    _exits_two_with_one_line_error(argv, capsys, str(report), "ks")


def _edited_report(pipeline, tmp_path, edit):
    obj = json.loads(pipeline["report"].read_text(encoding="utf-8"))
    edit(obj)
    path = tmp_path / "edited.report.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    return path


@pytest.mark.parametrize(
    "edit, field",
    [
        pytest.param(lambda o: o["per_doc"][0].__setitem__("auc", float("nan")), "per_doc[0].auc", id="doc-auc-nan"),
        pytest.param(lambda o: o["per_doc"][1]["r_at"].__setitem__("5", float("inf")), "per_doc[1].r_at",
                     id="doc-recall-infinity"),
        pytest.param(lambda o: o.__setitem__("auc", float("-inf")), "field auc", id="auc-infinity"),
        pytest.param(lambda o: o["p_at"].__setitem__("1", float("nan")), "field p_at", id="precision-nan"),
    ],
)
def test_sigtest_on_non_finite_report_exits_three(pipeline, tmp_path, capsys, edit, field):
    report = _edited_report(pipeline, tmp_path, edit)
    out = tmp_path / "sig.json"
    code = main(["sigtest", "--a", str(report), "--b", str(pipeline["report"]), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 3
    assert str(report) in err and field in err and "Traceback" not in err
    assert not out.exists()


def test_sigtest_on_a_report_with_a_negative_tie_seed_exits_two(pipeline, tmp_path, capsys):
    report = _edited_report(pipeline, tmp_path, lambda o: o.__setitem__("tie_seed", -1))
    out = tmp_path / "out"
    out.mkdir()
    argv = ["sigtest", "--a", str(report), "--b", str(pipeline["report"]), "--out", str(out / "sig.json")]
    _exits_two_with_one_line_error(argv, capsys, str(report), "field tie_seed must be an integer >= 0 or null")
    assert list(out.iterdir()) == []  # neither the output nor its manifest


@pytest.mark.parametrize("tie_seed", [None, 7])
def test_cli_written_report_round_trips_byte_for_byte(pipeline, tmp_path, tie_seed):
    report, again = tmp_path / "written.report.json", tmp_path / "again.report.json"
    argv = ["evaluate", "--model", str(pipeline["model"]), "--corpus", str(pipeline["test"]), "--out", str(report)]
    assert main(argv + ([] if tie_seed is None else ["--tie-seed", str(tie_seed)])) == 0
    MetricsReport.load(report).save(again)
    assert again.read_bytes() == report.read_bytes()


def test_sigtest_ignores_unknown_report_and_document_keys(pipeline, tmp_path, capsys):
    def add_unknown_keys(obj):
        obj["comment"] = "written by hand"
        obj["per_doc"][0]["note"] = {"reviewed": True}

    report = _edited_report(pipeline, tmp_path, add_unknown_keys)
    out = tmp_path / "sig.json"
    code = main(["sigtest", "--a", str(report), "--b", str(pipeline["report"]), "--iterations", "50",
                 "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 0 and "Traceback" not in err, err
    result = json.loads(out.read_text(encoding="utf-8"))
    assert result["mean_a"] == result["mean_b"] and result["p_value"] == 1.0


def test_sigtest_on_repeated_doc_id_exits_two(pipeline, tmp_path, capsys):
    def repeat_first(obj):
        obj["per_doc"][1]["doc_id"] = obj["per_doc"][0]["doc_id"]

    report = _edited_report(pipeline, tmp_path, repeat_first)
    repeated = json.loads(report.read_text(encoding="utf-8"))["per_doc"][0]["doc_id"]
    out = tmp_path / "sig.json"
    argv = ["sigtest", "--a", str(report), "--b", str(report), "--out", str(out)]
    _exits_two_with_one_line_error(argv, capsys, str(report), "per_doc[1].doc_id", repr(repeated))
    assert not out.exists()


def test_rank_with_a_directory_as_model_exits_two(pipeline, tmp_path, capsys):
    argv = ["rank", "--model", str(tmp_path), "--corpus", str(pipeline["test"]),
            "--out", str(tmp_path / "r.jsonl")]
    _exits_two_with_one_line_error(argv, capsys)


@pytest.mark.parametrize("command", ["rank", "evaluate"])
def test_non_finite_score_exits_three_before_the_output_is_opened(pipeline, kce_model, tmp_path, capsys, command):
    obj = json.loads(kce_model.read_text(encoding="utf-8"))
    obj["w_v"] = [1e308] * len(obj["w_v"])  # finite, so the file loads; every score overflows
    model = tmp_path / "overflow.model.json"
    model.write_text(json.dumps(obj), encoding="utf-8")
    out = tmp_path / "out"
    out.write_bytes(b"earlier output\n")
    code = main([command, "--model", str(model), "--corpus", str(pipeline["test"]), "--out", str(out)])
    err = capsys.readouterr().err
    first = load_corpus(pipeline["test"]).documents[0].doc_id
    assert code == 3
    assert err.startswith("numeric failure: ") and f"doc {first!r}" in err and err.count("\n") == 1
    assert out.read_bytes() == b"earlier output\n"


def test_intrude_on_non_finite_scores_exits_three_without_curves(pipeline, kce_model, tmp_path, capsys):
    # every score is +-inf: ties would give each AUC half credit and write 0.5 rows
    obj = json.loads(kce_model.read_text(encoding="utf-8"))
    obj["w_v"] = [1e308] * len(obj["w_v"])
    model = tmp_path / "overflow.model.json"
    model.write_text(json.dumps(obj), encoding="utf-8")
    out = tmp_path / "curve.csv"
    argv = ["intrude", "--model", str(model), "--corpus", str(pipeline["test"]), "--out", str(out),
            "--kind", "salient", "--pairs", "5"]
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("numeric failure: non-finite score for intrusion instance ") and err.count("\n") == 1
    assert "+" in err and "at fraction 0.1 (" in err and " scores)" in err
    assert not out.exists() and not Path(f"{out}.manifest.json").exists()


def _baseline_reports(pipeline, tmp_path, unsalient_docs):
    """Frequency and location reports on the test corpus after its first ``unsalient_docs``
    documents lose every salient label; also returns the relabeled documents."""
    docs = [
        replace(doc, events=tuple(replace(ev, salient=False) for ev in doc.events)) if i < unsalient_docs else doc
        for i, doc in enumerate(load_corpus(pipeline["test"]).documents)
    ]
    corpus = tmp_path / "relabeled.jsonl"
    save_corpus(Corpus(tuple(docs)), corpus)
    reports = []
    for baseline in ("frequency", "location"):
        out = tmp_path / f"{baseline}.report.json"
        assert main(["evaluate", "--model", baseline, "--corpus", str(corpus), "--out", str(out)]) == 0
        reports.append(out)
    return docs, reports


@pytest.mark.parametrize("metric", ["p@1", "R@10"])
def test_sigtest_on_precision_or_recall_pairs_the_documents_with_salient_events(pipeline, tmp_path, metric):
    docs, (freq, loc) = _baseline_reports(pipeline, tmp_path, unsalient_docs=3)
    out = tmp_path / "sig.json"
    argv = ["sigtest", "--a", str(freq), "--b", str(loc), "--metric", metric, "--iterations", "200",
            "--out", str(out)]
    assert main(argv) == 0
    result = json.loads(out.read_text(encoding="utf-8"))
    assert result["metric"] == metric.lower()
    assert result["n_pairs"] == sum(any(ev.salient for ev in doc.events) for doc in docs) == len(docs) - 3


def test_sigtest_on_an_unknown_cutoff_lists_the_choices(pipeline, tmp_path, capsys):
    argv = ["sigtest", "--a", str(pipeline["report"]), "--b", str(pipeline["report"]), "--metric", "p@2",
            "--out", str(tmp_path / "sig.json")]
    choices = ["'auc'"] + [f"'{kind}@{k}'" for kind in "pr" for k in DEFAULT_KS]
    _exits_two_with_one_line_error(argv, capsys, "'p@2'", *choices)


def test_sigtest_without_eligible_documents_exits_two(pipeline, tmp_path, capsys):
    _, (freq, loc) = _baseline_reports(pipeline, tmp_path, unsalient_docs=SYNTH_CFG["docs"])
    argv = ["sigtest", "--a", str(freq), "--b", str(loc), "--metric", "p@1", "--out", str(tmp_path / "sig.json")]
    _exits_two_with_one_line_error(argv, capsys, "no documents are eligible")


@pytest.mark.parametrize(
    "flags, field",
    [(["--docs", "2", "--seed", "-1"], "'seed'"), (["--docs", "-3"], "'docs'")],
)
def test_synth_overrides_pass_the_config_rules(tmp_path, capsys, flags, field):
    out = tmp_path / "c.jsonl"
    _exits_two_with_one_line_error(["synth", "--out", str(out), *flags], capsys, field, "must be an integer >= 0")
    assert not out.exists()


# one command per kind of input file; "{bad}" is the file that is not UTF-8
_ARGV_READING = {
    "synth config": ["synth", "--out", "{out}", "--config", "{bad}"],
    "metrics report": ["sigtest", "--a", "{bad}", "--b", "{report}", "--out", "{out}"],
    "filter config": ["annotate", "--corpus", "{test}", "--out", "{out}", "--filter-config", "{bad}"],
    "train config": ["train", "--model", "letor", "--train", "{train}", "--dev", "{dev}", "--out", "{out}",
                     "--config", "{bad}"],
    "corpus": ["build-vocab", "--corpus", "{bad}", "--field", "event", "--out", "{out}"],
    "word vectors": ["train", "--model", "letor", "--train", "{train}", "--dev", "{dev}", "--out", "{out}",
                     "--dim", "16", "--event-vectors", "{bad}"],
    "model file": ["rank", "--model", "{bad}", "--corpus", "{test}", "--out", "{out}"],
}


@pytest.mark.parametrize("what", list(_ARGV_READING), ids=lambda what: what.replace(" ", "-"))
def test_input_file_that_is_not_utf8_exits_two(pipeline, tmp_path, capsys, monkeypatch, what):
    def no_training(*args, **kwargs):
        raise AssertionError("train ran")

    monkeypatch.setattr(cli, "train", no_training)
    bad = tmp_path / "bad"
    bad.write_bytes(b"\xff\xfe")
    paths = {"bad": bad, "out": tmp_path / "out", **{k: pipeline[k] for k in ("train", "dev", "test", "report")}}
    argv = [arg.format(**paths) for arg in _ARGV_READING[what]]
    _exits_two_with_one_line_error(argv, capsys, str(bad), f"malformed {what}")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["train", "annotate", "rank"])
def test_corpus_with_an_unpaired_surrogate_escape_exits_two(pipeline, kce_model, tmp_path, capsys, command):
    """A \\ud800 escape loads as a str that UTF-8 cannot encode: refused at load, before any output."""
    lines = pipeline["train"].read_text(encoding="utf-8").splitlines()
    obj = json.loads(lines[2])
    obj["events"][0]["head_lemma"] = "\ud800"
    lines[2] = json.dumps(obj)
    bad, out = tmp_path / "bad.jsonl", tmp_path / "out"
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    argv = {
        "train": ["train", "--model", "kce", "--train", str(bad), "--dev", str(pipeline["dev"]),
                  "--config", str(pipeline["train_cfg"]), "--dim", "8", "--min-count", "1"],
        "annotate": ["annotate", "--corpus", str(bad)],
        "rank": ["rank", "--model", str(kce_model), "--corpus", str(bad)],
    }[command]
    _exits_two_with_one_line_error(argv + ["--out", str(out)], capsys,
                                   f"{bad}: line 3: a string holds an unpaired surrogate escape")
    assert list(tmp_path.iterdir()) == [bad]


_INTRUDE = ["intrude", "--model", "{model}", "--corpus", "{test}", "--kind", "salient"]


@pytest.mark.parametrize(
    "argv, needle",
    [
        pytest.param(["sigtest", "--a", "{report}", "--b", "{report}", "--seed", "-1"], "seed", id="sigtest-seed"),
        pytest.param(_INTRUDE + ["--seed", "-1"], "seed", id="intrude-seed"),
        pytest.param(_INTRUDE + ["--fractions", "x"], "--fractions", id="intrude-fractions"),
        pytest.param(_INTRUDE + ["--fractions", "0.5,0.5,1.0"], "strictly ascending", id="intrude-repeated-fraction"),
        pytest.param(  # a baseline: the refusal comes after scoring, and no model is loaded
            ["evaluate", "--model", "frequency", "--corpus", "{test}", "--tie-seed", "-1"],
            "tie seed must be >= 0",
            id="evaluate-tie-seed",
        ),
    ],
)
def test_bad_seed_or_fractions_flag_exits_two(pipeline, kce_model, tmp_path, capsys, monkeypatch, argv, needle):
    def no_loading(*args, **kwargs):
        raise AssertionError("model loaded")

    monkeypatch.setattr(cli, "load_model", no_loading)
    out = tmp_path / "out"
    paths = {"model": kce_model, "test": pipeline["test"], "report": pipeline["report"]}
    _exits_two_with_one_line_error([arg.format(**paths) for arg in argv] + ["--out", str(out)], capsys, needle)
    assert list(tmp_path.iterdir()) == []  # neither the output nor its manifest


def _corpus_text(*flags_per_doc: tuple[bool, ...]) -> str:
    """JSONL of one-sentence documents, one per tuple, with an event per salience flag."""
    docs = (
        Document(f"d{k}", 1, tuple(EventMention(f"e{i}", f"l{i}", "x", 0, salient=f) for i, f in enumerate(flags)))
        for k, flags in enumerate(flags_per_doc)
    )
    return "".join(json.dumps(document_to_json(doc)) + "\n" for doc in docs)


_TRAIN = ["train", "--model", "letor", "--train", "{train}", "--dev", "{dev}", "--out", "{out}"]

# (argv, the content of "{bad}", a needle of the one-line error)
_REFUSED = {
    "filter-config-not-an-object": (
        ["annotate", "--corpus", "{test}", "--out", "{out}", "--filter-config", "{bad}"],
        "[]",
        "filter config must be a JSON object",
    ),
    "filter-config-with-an-unknown-key": (
        ["annotate", "--corpus", "{test}", "--out", "{out}", "--filter-config", "{bad}"],
        '{"light_verb": ["make"], "light_verbs": ["be"]}',
        "unknown filter config field 'light_verb'",
    ),
    "gradcheck-without-a-two-class-document": (
        ["gradcheck", "--model", "{model}", "--corpus", "{bad}", "--out", "{out}"],
        _corpus_text((True, True), (False,)),
        "no document offered both salient and non-salient events",
    ),
    "corpus-line-not-an-object": (
        ["build-vocab", "--corpus", "{bad}", "--field", "event", "--out", "{out}"],
        _corpus_text((True, False)) + "[1]\n",
        "line 2: expected a JSON object",
    ),
    "build-vocab-of-an-empty-corpus": (
        ["build-vocab", "--corpus", "{bad}", "--field", "event", "--out", "{out}"],
        "",
        "empty corpus",
    ),
    "train-dim-zero": (_TRAIN + ["--dim", "0"], None, "embedding dim must be >= 1, got 0"),
    "word-vector-header-not-integers": (
        _TRAIN + ["--dim", "16", "--event-vectors", "{bad}"],
        "two 16\n",
        "line 1: expected integer header fields",
    ),
    "word-vector-header-dim-zero": (
        _TRAIN + ["--dim", "16", "--event-vectors", "{bad}"],
        "0 0\n",
        "line 1: dim must be >= 1",
    ),
    "intrude-without-an-origin": (
        ["intrude", "--model", "{model}", "--corpus", "{bad}", "--kind", "salient", "--out", "{out}"],
        _corpus_text((True,) * 4 + (False,) * 3, (True, False)),
        "no documents with >= 5 salient events among 2",
    ),
    "intrude-without-an-intruder": (
        ["intrude", "--model", "{model}", "--corpus", "{bad}", "--kind", "nonsalient", "--out", "{out}"],
        _corpus_text((True,) * 5, (True,) * 6),
        "no documents offer nonsalient_only intruder events",
    ),
    # evaluate refuses an unlabeled document, and so does intrude, whether some or all are unlabeled
    "intrude-on-a-half-unlabeled-corpus": (
        ["intrude", "--model", "{model}", "--corpus", "{bad}", "--kind", "salient", "--out", "{out}"],
        _corpus_text(*[(True,) * 5 + (False,) * 2] * 2, *[(None,) * 7] * 2),
        "doc 'd2' is not salience-labeled",
    ),
    "intrude-on-an-unlabeled-corpus": (
        ["intrude", "--model", "{model}", "--corpus", "{bad}", "--kind", "nonsalient", "--out", "{out}"],
        _corpus_text(*[(None,) * 7] * 4),
        "doc 'd0' is not salience-labeled",
    ),
    "sigtest-report-not-an-object": (
        ["sigtest", "--a", "{bad}", "--b", "{report}", "--out", "{out}"],
        "[]",
        "a metrics report must be a JSON object",
    ),
    # Python decodes a path argument of non-UTF-8 bytes with surrogate escapes, which no manifest can hold
    "synth-out-path-not-utf-8": (
        ["synth", "--out", "{out}\udcff.jsonl", "--docs", "2"],
        None,
        "\\udcff.jsonl' is not valid UTF-8",
    ),
    "rank-corpus-path-with-a-lone-surrogate": (
        ["rank", "--model", "{model}", "--corpus", "{test}\ud800", "--out", "{out}"],
        None,
        "\\ud800' is not valid UTF-8",
    ),
}


@pytest.mark.parametrize("case", list(_REFUSED))
def test_refused_input_exits_two_without_output(pipeline, kce_model, tmp_path, capsys, case):
    argv, content, needle = _REFUSED[case]
    inputs = tmp_path / "in"
    inputs.mkdir()
    bad = inputs / "bad"
    if content is not None:
        bad.write_text(content, encoding="utf-8")
    out = tmp_path / "out"
    out.mkdir()
    paths = {"bad": bad, "out": out / "out", "model": kce_model}
    paths.update((k, pipeline[k]) for k in ("train", "dev", "test", "report"))
    _exits_two_with_one_line_error([arg.format(**paths) for arg in argv], capsys, needle)
    assert list(out.iterdir()) == []  # neither the output nor its manifest


def test_cli_import_does_not_load_scipy():
    code = "import sys, salience.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_train_nan_in_a_kept_vector_row_exits_two_naming_the_line(pipeline, tmp_path, capsys, monkeypatch):
    def no_training(*args, **kwargs):
        raise AssertionError("train ran")

    monkeypatch.setattr(cli, "train", no_training)
    kept = build_vocab(load_corpus(pipeline["train"]), "event_lemma").tokens_by_index()[0]
    vectors = tmp_path / "event.vectors.txt"
    # the unused row's NaN is never parsed; the kept row's is refused
    vectors.write_text(
        "2 16\nnot-a-train-lemma " + " ".join(["nan"] * 16) + f"\n{kept} " + " ".join(["0.5"] * 15 + ["nan"]) + "\n",
        encoding="utf-8",
    )
    out = tmp_path / "m.json"
    argv = ["train", "--model", "kce", "--train", str(pipeline["train"]), "--dev", str(pipeline["dev"]),
            "--out", str(out), "--dim", "16", "--event-vectors", str(vectors)]
    _exits_two_with_one_line_error(argv, capsys, f"{vectors}: line 3: non-finite vector entry")
    assert not out.exists()


_REFUSED_COUNT_FLAGS = [
    pytest.param(["build-vocab", "--corpus", "{test}", "--field", "event", "--min-count", "0"], "--min-count",
                 id="build-vocab-min-count-0"),
    pytest.param(["build-vocab", "--corpus", "{test}", "--field", "entity", "--min-count", "-3"], "--min-count",
                 id="build-vocab-min-count-neg"),
    pytest.param(["train", "--model", "kce", "--train", "{train}", "--dev", "{dev}", "--min-count", "0"],
                 "--min-count", id="train-min-count-0"),
    pytest.param(_INTRUDE + ["--pairs", "0"], "--pairs", id="intrude-pairs-0"),
    pytest.param(["sigtest", "--a", "{report}", "--b", "{report}", "--iterations", "0"], "--iterations",
                 id="sigtest-iterations-0"),
]


@pytest.mark.parametrize("argv, flag", _REFUSED_COUNT_FLAGS)
def test_count_flag_below_one_exits_two_naming_it_before_any_work(
    pipeline, kce_model, tmp_path, capsys, monkeypatch, argv, flag
):
    def no_work(*args, **kwargs):
        raise AssertionError("an input was read")

    for name in ("load_corpus", "load_model", "read_json"):
        monkeypatch.setattr(cli, name, no_work)
    monkeypatch.setattr(cli.MetricsReport, "load", no_work)
    out = tmp_path / "out"
    paths = {"model": kce_model, **{k: pipeline[k] for k in ("train", "dev", "test", "report")}}
    argv = [arg.format(**paths) for arg in argv] + ["--out", str(out)]
    _exits_two_with_one_line_error(argv, capsys, f"{flag} must be >= 1, got {argv[argv.index(flag) + 1]}")
    assert not out.exists()


def test_a_path_of_bytes_that_are_not_utf_8_exits_two_before_any_work(tmp_path):
    out = os.fsencode(tmp_path) + b"/x\xff.jsonl"
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    argv = [sys.executable, "-m", "salience.cli", "synth", "--out", out, "--docs", "2"]
    done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 2
    assert done.stderr == "error: argument " + ascii(os.fsdecode(out)) + " is not valid UTF-8\n"
    assert list(tmp_path.iterdir()) == []  # neither the corpus nor its manifest


def test_python_dash_m_runs_the_cli(tmp_path):
    out = tmp_path / "c.jsonl"
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    argv = [sys.executable, "-m", "salience.cli", "synth", "--out", str(out), "--docs", "3"]
    done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "generated 3 documents" in done.stdout
    assert len(load_corpus(out).documents) == 3

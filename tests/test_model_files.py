"""Model file version 2, and the loader's schema checks.

Version 2 stores each embedding table's vectors as base64 of little-endian
float64 bytes.  A file must load bitwise-equal to the saved model, and a
malformed file, or one of any other version, must fail ``rank`` with exit 2
(3 for a non-finite number) and a message naming the field, never with a
traceback.
"""
import base64
import copy
import dataclasses
import json

import numpy as np
import pytest

from helpers import random_corpus, toy_table, toy_vocab
from oracles import write_jsonl_reference
from salience.cli import main
from salience.corpus import save_corpus
from salience.features import fit_scaler
from salience.kernels import default_bank
from salience.models import PageRankModel, _model_to_json, load_model, new_kce_model, new_letor_model, save_model

KCE_KINDS = {"kce": "full", "kce-e": "events_features", "kce-ef": "events_only"}
KINDS = (*KCE_KINDS, "letor", "pagerank")


def build_model(kind: str, seed: int = 5, edge_values: bool = False):
    rng = np.random.default_rng(seed)
    corpus = random_corpus(rng, n_docs=3, n_events=5, n_entities=3)
    evt = toy_table([f"ev{i}" for i in range(5)] + ["ünïcode"], 6, rng)
    ent = toy_table([f"en{j}" for j in range(3)], 6, rng)
    ent.trainable = False
    if edge_values:
        # signed zero, the smallest subnormal, the largest float and a non-dyadic
        # decimal: each must survive the file bit for bit
        evt.vectors[0, :4] = [-0.0, 5e-324, 1.7976931348623157e308, 0.1]
    scaler = fit_scaler(corpus, evt, ent)
    if kind == "pagerank":
        return PageRankModel(temperature=0.7, combine_lambda=0.25, event_table=evt, meta={"note": "ü"})
    if kind == "letor":
        model = new_letor_model(evt, ent, scaler)
    else:
        model = new_kce_model(default_bank(), evt, ent, scaler, variant=KCE_KINDS[kind])
        model.w_v[:] = rng.normal(size=model.bank.size)
        if model.variant == "full":
            model.w_e[:] = rng.normal(size=model.bank.size)
    if kind != "kce-ef":
        model.w_f[:] = rng.normal(size=5)
    model.bias = float(rng.normal())
    model.meta = {"epochs": 3, "note": "ü"}
    return model


def model_fields(model) -> dict:
    """Every field of a model, arrays as (dtype, shape, bytes) and floats as hex."""
    out = {}

    def walk(name, value):
        if dataclasses.is_dataclass(value):
            for f in dataclasses.fields(value):
                walk(f"{name}.{f.name}", getattr(value, f.name))
        elif isinstance(value, np.ndarray):
            out[name] = (value.dtype.str, value.shape, value.tobytes())
        elif isinstance(value, float):
            out[name] = value.hex()
        else:
            out[name] = value

    walk(type(model).__name__, model)
    return out


def tables_of(model):
    return [model.event_table] + ([] if isinstance(model, PageRankModel) else [model.entity_table])


def assert_native_tables(model):
    for table in tables_of(model):
        vectors = table.vectors
        assert vectors.dtype == np.float64 and vectors.dtype.isnative
        assert vectors.flags.c_contiguous and vectors.flags.writeable


@pytest.mark.parametrize("kind", KINDS)
def test_model_file_loads_bitwise_and_resaves_identically(tmp_path, kind):
    model = build_model(kind, edge_values=True)
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    save_model(model, first)
    loaded = load_model(first)
    assert model_fields(loaded) == model_fields(model)
    assert_native_tables(loaded)
    save_model(loaded, second)
    assert second.read_bytes() == first.read_bytes()


# event tokens that JSON escapes, and non-ASCII ones, written raw under ensure_ascii=False
ODD_TOKENS = ['quote"d', "back\\slash", "tab\there", "ctl\x01", "café", "→"]
ODD_META = {"note": "ü", "nested": {"a": {"b": [1, {"c": None}]}}, "empty": {}, 3: {"int": {}}}


@pytest.mark.parametrize("frozen", (False, True), ids=("trainable", "frozen"))
@pytest.mark.parametrize("kind", KINDS)
def test_model_file_is_the_one_dumps_line(tmp_path, kind, frozen):
    """save_model writes the bytes that one json.dumps of the record writes, with each table's
    base64 vectors as a string; the record's own ``vectors`` are those base64 bytes."""
    model = build_model(kind, edge_values=True)
    model.event_table.vocabulary = toy_vocab(ODD_TOKENS)
    model.meta = ODD_META
    if frozen:
        for table in tables_of(model):
            table.trainable = False
    record = _model_to_json(model)
    assert all(isinstance(record[name]["vectors"], bytes) for name in ("event_table", "entity_table")
               if name in record)
    path, reference = tmp_path / "m.json", tmp_path / "r.json"
    save_model(model, path)
    write_jsonl_reference([record], reference)
    assert path.read_bytes() == reference.read_bytes()
    assert load_model(path).event_table.vocabulary == model.event_table.vocabulary


def test_model_that_cannot_be_encoded_leaves_no_file(tmp_path):
    model = build_model("kce")
    model.event_table.vocabulary = toy_vocab(ODD_TOKENS[:-1] + ["\ud800"])
    with pytest.raises(UnicodeEncodeError):
        save_model(model, tmp_path / "m.json")
    assert not (tmp_path / "m.json").exists()


HEADS = {
    "kce": ["variant", "bank", "w_v", "w_e", "w_f", "bias", "scaler"],
    "letor": ["w_f", "bias", "scaler"],
    "pagerank": ["temperature", "combine_lambda"],
}


@pytest.mark.parametrize("kind", KINDS)
def test_version_2_layout(tmp_path, kind):
    """Plain JSON fields in a fixed order; each table's vectors are base64 of '<f8' row-major bytes."""
    model = build_model(kind, edge_values=True)
    save_model(model, tmp_path / "m.json")
    text = (tmp_path / "m.json").read_text(encoding="utf-8")
    assert text.endswith("}\n") and "ünïcode" in text
    obj = json.loads(text)
    model_type = "kce" if kind in KCE_KINDS else kind
    tables = tables_of(model)
    table_names = ["event_table", "entity_table"][: len(tables)]
    assert list(obj) == ["version", "model_type", *HEADS[model_type], *table_names, "meta"]
    assert obj["version"] == 2 and obj["model_type"] == model_type and obj["meta"] == model.meta
    for key in HEADS[model_type]:
        value = getattr(model, key)
        if isinstance(value, (np.ndarray, str, float)):  # the bank and the scaler round-trip above
            assert obj[key] == (value.tolist() if isinstance(value, np.ndarray) else value)
    for name, table in zip(table_names, tables):
        assert list(obj[name]) == ["vocab", "dim", "trainable", "vectors"]
        assert obj[name]["vocab"]["tokens"] == table.vocabulary.tokens_by_index()
        assert (obj[name]["dim"], obj[name]["trainable"]) == (table.dim, table.trainable)
        raw = base64.b64decode(obj[name]["vectors"], validate=True)
        assert raw == table.vectors.astype("<f8").tobytes(order="C")


def test_letor_is_stored_as_the_letor_record(tmp_path):
    """features_only writes the LeToR record: no variant, bank or kernel weights."""
    model = build_model("letor")
    assert model.variant == "features_only"
    save_model(model, tmp_path / "m.json")
    obj = json.loads((tmp_path / "m.json").read_text(encoding="utf-8"))
    assert list(obj) == ["version", "model_type", "w_f", "bias", "scaler", "event_table", "entity_table", "meta"]
    assert obj["model_type"] == "letor"
    again = load_model(tmp_path / "m.json", expect="letor")
    assert again.variant == "features_only" and not again.w_v.any() and not again.w_e.any()
    assert not again.event_table.trainable and not again.entity_table.trainable


def test_save_model_writes_non_contiguous_tables(tmp_path):
    model = build_model("kce")
    expected = model_fields(model)
    model.event_table.vectors = np.asfortranarray(model.event_table.vectors)
    save_model(model, tmp_path / "m.json")
    again = load_model(tmp_path / "m.json")
    assert model_fields(again) == expected
    assert_native_tables(again)


@pytest.mark.parametrize("kind", ("kce", "letor", "pagerank"))
def test_rank_reads_every_model_type(tmp_path, capsys, kind):
    corpus_path = tmp_path / "c.jsonl"
    save_corpus(random_corpus(np.random.default_rng(3), n_docs=3, n_events=5, n_entities=3), corpus_path)
    save_model(build_model(kind), tmp_path / "m.json")
    code = main(["rank", "--model", str(tmp_path / "m.json"), "--corpus", str(corpus_path),
                 "--out", str(tmp_path / "r.jsonl")])
    assert code == 0, capsys.readouterr().err


def _set(*keys_and_value):
    *keys, value = keys_and_value

    def mutate(obj):
        target = obj
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = value

    return mutate


def _delete(*keys):
    def mutate(obj):
        target = obj
        for key in keys[:-1]:
            target = target[key]
        del target[keys[-1]]

    return mutate


def _shorten_vectors(obj):
    raw = base64.b64decode(obj["event_table"]["vectors"])
    obj["event_table"]["vectors"] = base64.b64encode(raw[:-8]).decode("ascii")


def _nan_vector(obj):
    """Overwrite the second float64 of the event table's vectors with a NaN, in place in the base64 bytes."""
    raw = bytearray(base64.b64decode(obj["event_table"]["vectors"]))
    raw[8:16] = np.array([np.nan], dtype="<f8").tobytes()
    obj["event_table"]["vectors"] = base64.b64encode(bytes(raw)).decode("ascii")


def _version_1(mutate):
    """The retired version-1 layout (each table's vectors as nested JSON lists), then ``mutate``."""

    def to_version_1(obj):
        obj["version"] = 1
        for name in ("event_table", "entity_table"):
            if name in obj:
                table = obj[name]
                raw = base64.b64decode(table["vectors"])
                table["vectors"] = np.frombuffer(raw, dtype="<f8").reshape(-1, table["dim"]).tolist()
        mutate(obj)

    return to_version_1


def _put(*keys_and_index_and_value):
    *keys, index, value = keys_and_index_and_value

    def mutate(obj):
        target = obj
        for key in keys:
            target = target[key]
        target[index] = value

    return mutate


WEIGHTED = ("kce", "letor")
INF, NAN = float("inf"), float("nan")
# (id, model kinds it applies to, mutation, field the error names
#  [, exit code: 2 unless given, 3 for a non-finite number])
CASES = [
    ("missing-table", None, _delete("event_table"), "missing field event_table"),
    ("missing-vocab", None, _delete("event_table", "vocab"), "event_table.vocab"),
    ("missing-tokens", None, _delete("event_table", "vocab", "tokens"), "event_table.vocab.tokens"),
    ("token-not-string", None, lambda o: o["event_table"]["vocab"]["tokens"].__setitem__(0, 1),
     "event_table.vocab.tokens"),
    ("table-not-object", None, _set("event_table", [1, 2]), "event_table must be an object"),
    ("dim-zero", None, _set("event_table", "dim", 0), "event_table.dim"),
    ("dim-string", None, _set("event_table", "dim", "6"), "event_table.dim"),
    ("trainable-string", None, _set("event_table", "trainable", "true"), "event_table.trainable"),
    ("temperature-string", ("pagerank",), _set("temperature", "x"), "field temperature"),
    ("lambda-bool", ("pagerank",), _set("combine_lambda", True), "field combine_lambda"),
    ("missing-temperature", ("pagerank",), _delete("temperature"), "missing field temperature"),
    ("bias-string", WEIGHTED, _set("bias", "x"), "field bias"),
    ("bias-bool", WEIGHTED, _set("bias", True), "field bias"),
    ("bias-huge-int", WEIGHTED, _set("bias", 10**400), "field bias"),
    ("missing-bias", WEIGHTED, _delete("bias"), "missing field bias"),
    ("weights-not-list", WEIGHTED, _set("w_f", 1.0), "field w_f"),
    ("weight-string", WEIGHTED, lambda o: o["w_f"].__setitem__(0, "1"), "field w_f"),
    ("weight-bool", WEIGHTED, lambda o: o["w_f"].__setitem__(0, False), "field w_f"),
    ("missing-scaler", WEIGHTED, _delete("scaler"), "missing field scaler"),
    ("scaler-strings", WEIGHTED, _set("scaler", "means", ["a"] * 5), "field scaler.means"),
    ("missing-bank", ("kce",), _delete("bank"), "missing field bank"),
    ("bank-sigmas-string", ("kce",), _set("bank", "sigmas", "0.1"), "field bank.sigmas"),
    ("variant-list", ("kce",), _set("variant", ["full"]), "field variant"),
    ("variant-features-only", ("kce",), _set("variant", "features_only"), "field variant"),
    ("meta-list", None, _set("meta", []), "field meta"),
    ("model-type-list", None, _set("model_type", ["kce"]), "model_type"),
    ("invalid-base64", None, _set("event_table", "vectors", "@@not base64@@"), "event_table.vectors"),
    ("vectors-not-string", None, _set("event_table", "vectors", [[0.0] * 6]), "event_table.vectors"),
    ("short-bytes", None, _shorten_vectors, "event_table.vectors"),
    ("version-1", None, _set("version", 1), "version 1"),
    ("version-3", None, _set("version", 3), "version"),
    ("version-string", None, _set("version", "2"), "version"),
    ("version-bool", None, _set("version", True), "version"),
    # a version-1 file is refused by its version, whatever its vectors hold
    ("v1-ragged-vectors", None, _version_1(lambda o: o["event_table"]["vectors"][1].pop()), "version 1"),
    ("v1-missing-row", None, _version_1(lambda o: o["event_table"]["vectors"].pop()), "version 1"),
    ("v1-string-entry", None, _version_1(lambda o: o["event_table"]["vectors"][0].__setitem__(0, "0.5")),
     "version 1"),
    ("v1-base64-vectors", None, _version_1(_set("event_table", "vectors", "AAAA")), "version 1"),
    # values of the right type but out of range: the constructors refuse them, the message names file and field
    ("temperature-zero", ("pagerank",), _set("temperature", 0.0), "m.json: field temperature"),
    ("temperature-negative", ("pagerank",), _set("temperature", -1), "m.json: field temperature"),
    ("lambda-above-one", ("pagerank",), _set("combine_lambda", 1.5), "m.json: field combine_lambda"),
    ("lambda-negative", ("pagerank",), _set("combine_lambda", -0.1), "m.json: field combine_lambda"),
    ("sigma-zero", ("kce",), lambda o: o["bank"]["sigmas"].__setitem__(0, 0.0), "m.json: field bank"),
    ("empty-bank", ("kce",), _set("bank", {"means": [], "sigmas": []}), "m.json: field bank"),
    ("scaler-four-means", WEIGHTED, lambda o: o["scaler"]["means"].pop(), "m.json: field scaler"),
    ("unknown-index-off", None, _set("event_table", "vocab", "unknown_index", 99),
     "m.json: field event_table.vocab"),
    ("w_f-four-weights", WEIGHTED, lambda o: o["w_f"].pop(), "m.json: field w_f"),
    ("w_v-short", ("kce",), lambda o: o["w_v"].pop(), "m.json: fields w_v and w_e"),
    ("scaler-std-zero", WEIGHTED, _put("scaler", "stds", 2, 0.0), "m.json: field scaler"),
    ("scaler-std-negative", WEIGHTED, _put("scaler", "stds", 2, -1.0), "m.json: field scaler"),
    # non-finite numbers are refused at load with exit 3, before any range check reads them;
    # the message names file and field
    ("bank-mean-infinity", ("kce",), _put("bank", "means", 3, INF), "m.json: model field bank.means", 3),
    ("bank-mean-nan", ("kce",), _put("bank", "means", 3, NAN), "m.json: model field bank.means", 3),
    ("bank-sigma-infinity", ("kce",), _put("bank", "sigmas", 3, INF), "m.json: model field bank.sigmas", 3),
    ("bank-sigma-nan", ("kce",), _put("bank", "sigmas", 3, NAN), "m.json: model field bank.sigmas", 3),
    ("scaler-mean-nan", WEIGHTED, _put("scaler", "means", 1, NAN), "m.json: model field scaler.means", 3),
    ("scaler-mean-infinity", WEIGHTED, _put("scaler", "means", 1, -INF), "m.json: model field scaler.means", 3),
    ("scaler-std-infinity", WEIGHTED, _put("scaler", "stds", 1, INF), "m.json: model field scaler.stds", 3),
    ("scaler-std-nan", WEIGHTED, _put("scaler", "stds", 1, NAN), "m.json: model field scaler.stds", 3),
    ("w_f-nan", WEIGHTED, _put("w_f", 2, NAN), "m.json: model field w_f", 3),
    ("w_v-infinity", ("kce",), _put("w_v", 4, INF), "m.json: model field w_v", 3),
    ("w_e-nan", ("kce",), _put("w_e", 0, NAN), "m.json: model field w_e", 3),
    ("bias-infinity", WEIGHTED, _set("bias", -INF), "m.json: model field bias", 3),
    ("temperature-nan", ("pagerank",), _set("temperature", NAN), "m.json: model field temperature", 3),
    ("lambda-infinity", ("pagerank",), _set("combine_lambda", INF), "m.json: model field combine_lambda", 3),
    ("vectors-nan-bytes", None, _nan_vector, "m.json: model field event_table", 3),
]


@pytest.mark.parametrize(
    "kind,case",
    [(kind, case) for case in CASES for kind in ("kce", "letor", "pagerank") if case[1] is None or kind in case[1]],
    ids=lambda v: v if isinstance(v, str) else v[0],
)
def test_malformed_model_file_exits_naming_the_field(tmp_path, capsys, kind, case):
    _id, _kinds, mutate, field_text, *exit_code = case
    corpus_path = tmp_path / "c.jsonl"
    save_corpus(random_corpus(np.random.default_rng(3), n_docs=3, n_events=5, n_entities=3), corpus_path)
    path = tmp_path / "m.json"
    save_model(build_model(kind), path)
    obj = json.loads(path.read_text(encoding="utf-8"))
    mutated = copy.deepcopy(obj)
    mutate(mutated)
    assert mutated != obj
    path.write_text(json.dumps(mutated), encoding="utf-8")
    code = main(["rank", "--model", str(path), "--corpus", str(corpus_path), "--out", str(tmp_path / "r.jsonl")])
    err = capsys.readouterr().err
    assert code == (exit_code[0] if exit_code else 2)
    assert "Traceback" not in err
    assert field_text in err


def test_model_file_not_utf8_exits_2(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_bytes(b'{"version": 2, "model_type": "\xff"}')
    code = main(["rank", "--model", str(path), "--corpus", str(path), "--out", str(tmp_path / "r.jsonl")])
    err = capsys.readouterr().err
    assert code == 2
    assert "not valid JSON" in err

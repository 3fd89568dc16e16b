#!/usr/bin/env python3
"""Benchmark of the salience pipeline on files, the way the CLI runs it.

For one workload it generates inputs from the seed with the toolkit's own
``synth`` (untimed), then repeats passes of: set-up (load corpora and vector
files, build vocabularies, init embeddings, fit the scaler), ``train`` for
kce (full), letor and pagerank, save and reload the kce model, score and
evaluate the test split in memory, the ``evaluate`` (kce and frequency),
``sigtest`` and ``rank`` commands (in the first two passes), and an
intrusion study.  Every pass checks its outputs, and every pass must hash to
the same bytes.  Stage times are scaled to a reference host speed measured
around each stage (hostspeed.py), because the host's speed drifts.

    python3 perfbench/run.py --workload short-docs --seed 1 --seconds 56 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # each workload in its own process

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
perfbench/README.md describes the workloads and every metric.
"""
import os

# Pin BLAS to one thread before numpy is imported, so that timings do not
# depend on how many cores happen to be free.
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import copy  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext, redirect_stdout  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench_work"

# The package is imported from this checkout's src/ and from nowhere else.
sys.path.insert(0, str(SRC))
try:
    import numpy as np  # noqa: E402
    import salience  # noqa: E402
    import scipy  # noqa: E402
    from salience import (  # noqa: E402
        cli,
        corpus,
        embeddings,
        features,
        intrusion,
        kernels,
        metrics,
        models,
        synth,
        training,
    )
except ImportError as exc:
    raise SystemExit(f"perfbench: cannot import salience from {SRC}: {exc}")
if not Path(salience.__file__).resolve().is_relative_to(SRC.resolve()):
    raise SystemExit(f"perfbench: salience resolved to {salience.__file__}, outside {SRC}")

import hostspeed  # noqa: E402
from tracing import Tracer  # noqa: E402

DIM = 128
VECTOR_NOISE = 0.25  # degraded pretrained vectors, as in scripts/run_synth_experiment.py
EPOCHS = 1
INTRUDER_KIND = "nonsalient_only"
FRACTIONS = (0.2, 0.6, 1.0)
SIGTEST_ITERATIONS = 10000
MIN_PASSES = 2  # the output hashes of two passes are compared
CHECK_PASSES = 2  # passes that also run the CLI commands and check their files
MIN_SETUPS = 3  # setup_s is the median of at least this many set-ups


@dataclass(frozen=True)
class Workload:
    synth: dict  # SynthConfig overrides shared by the three splits
    train_docs: int  # the vocabulary and the scaler are built from all of them
    fit_docs: int  # the models are trained on the first fit_docs of them
    dev_docs: int
    test_docs: int
    min_count: int
    batch_docs: int  # small enough that one epoch trains kce past the frequency baseline
    intrude_pairs: int


# Why each workload exists is in perfbench/README.md and BENCHMARK.json.
WORKLOADS = {
    # SynthConfig shape and pools: per-call overhead dominates, vocabulary costs do not.
    "short-docs": Workload(
        synth={},
        train_docs=200,
        fit_docs=200,
        dev_docs=30,
        test_docs=100,
        min_count=2,
        batch_docs=16,
        intrude_pairs=50,
    ),
    # short-docs shape over a 6k background event pool with min_count=1: the
    # dense (V, d) tables dominate.  The event pool only is enlarged, because
    # synth pays O(pool) per entity drawn.  The tables span all 400 train
    # docs; fitting on 300 of them keeps a pass short.  Batches of 8 train
    # kce to a test AUC that varies little between seeds.
    "large-vocab": Workload(
        synth={"background_event_pool": 6000},
        train_docs=400,
        fit_docs=300,
        dev_docs=30,
        test_docs=100,
        min_count=1,
        batch_docs=8,
        intrude_pairs=50,
    ),
}

LAYER_MODULES = (
    "corpus",
    "embeddings",
    "features",
    "kernels",
    "models",
    "training",
    "metrics",
    "intrusion",
    "cli",
    "manifest",
)
# Per-layer metrics read off the spans of one traced pass.
SPAN_SECONDS = (
    "corpus.load_corpus",
    "embeddings.load_word_vectors",
    "embeddings.build_vocab",
    "embeddings.init_embeddings",
    "embeddings.table_to_json",
    "embeddings.table_from_json",
    "features.fit_scaler",
    "features.feature_matrix",
    "kernels.gaussian_pool",
    "models.save_model",
    "models.load_model",
    "training.kce_backward",
    "training.pagerank_backward",
    "training.Adam.step",
    "metrics.evaluate",
    "metrics.auc",
    "metrics.permutation_test",
    "intrusion.build_instance",
    "cli.evaluate",
    "cli.sigtest",
    "cli.rank",
    "manifest.write_manifest",
)
SPAN_SELF_SECONDS = (
    "models.kce_forward",
    "models.pagerank_forward",
    "training.train",
    "intrusion.run_study",
)
SPAN_CALLS = (
    "features.feature_matrix",
    "kernels.gaussian_pool",
    "models.kce_forward",
    "training.kce_backward",
    "training.Adam.step",
    "metrics.auc",
    "intrusion.build_instance",
)


class Ledger:
    """Stages and checks attempted and failed; failed / attempted is op_error_rate.

    It also keeps the reference-loop time measured around each timed stage.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reference_s: list[float] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"perfbench: check failed: {what}", file=sys.stderr)

    def timed(self, fn, *args, **kwargs):
        """Run one stage; return its result and its seconds scaled to the
        reference host speed.  An exception propagates and is counted by the
        caller."""
        self.attempted += 1
        result, seconds, ref = hostspeed.timed(fn, *args, **kwargs)
        self.reference_s.append(ref)
        return result, seconds


@dataclass
class Context:
    workload: Workload
    seed: int
    work: Path
    ledger: Ledger
    train_cfg: object
    files: dict = field(default_factory=dict)


def make_inputs(ctx: Context) -> None:
    """Corpora and degraded vector files, as ``salience synth`` writes them."""
    w = ctx.workload
    base = dict(w.synth, dim=DIM, vector_noise=VECTOR_NOISE, pool_seed=ctx.seed)
    splits = (("train", w.train_docs), ("dev", w.dev_docs), ("test", w.test_docs))
    for offset, (split, docs) in enumerate(splits, start=1):
        cfg = synth.SynthConfig(docs=docs, seed=3 * ctx.seed + offset, split=split, **base)
        generated, pools = synth.generate_corpus(cfg)
        ctx.files[split] = ctx.work / f"{split}.jsonl"
        corpus.save_corpus(generated, ctx.files[split])
    # pools depend only on pool_seed, so the last split's pools are everyone's
    for kind, offset in (("event", 1), ("entity", 2)):
        vectors = getattr(pools, f"{kind}_vectors")
        ctx.files[kind] = ctx.work / f"{kind}.vectors.txt"
        embeddings.save_word_vectors(
            synth.degrade_vectors(vectors, cfg.vector_noise, cfg.pool_seed + offset), ctx.files[kind]
        )


@dataclass
class Setup:
    train: object
    dev: object
    test: object
    event_table: object
    entity_table: object
    scaler: object


def set_up(ctx: Context) -> Setup:
    """What ``salience train`` does before its first step, plus loading the test split."""
    f = ctx.files
    train_c = corpus.load_corpus(f["train"], split_tag="train")
    dev_c = corpus.load_corpus(f["dev"], split_tag="dev")
    test_c = corpus.load_corpus(f["test"], split_tag="test")
    min_count = ctx.workload.min_count
    seed = ctx.train_cfg.seed
    event_table = embeddings.init_embeddings(
        embeddings.build_vocab(train_c, "event_lemma", min_count=min_count),
        dim=DIM,
        seed=seed,
        pretrained=str(f["event"]),
    )
    entity_table = embeddings.init_embeddings(
        embeddings.build_vocab(train_c, "entity_key", min_count=min_count),
        dim=DIM,
        seed=seed + 1,
        pretrained=str(f["entity"]),
    )
    scaler = features.fit_scaler(train_c, event_table, entity_table)
    return Setup(train_c, dev_c, test_c, event_table, entity_table, scaler)


def same_kce_model(a, b) -> bool:
    arrays = ("w_v", "w_e", "w_f")
    return (
        all(np.array_equal(getattr(a, n), getattr(b, n)) for n in arrays)
        and a.bias == b.bias
        and a.variant == b.variant
        and np.array_equal(a.scaler.means, b.scaler.means)
        and np.array_equal(a.scaler.stds, b.scaler.stds)
        and all(
            np.array_equal(ta.vectors, tb.vectors) and ta.vocabulary == tb.vocabulary
            for ta, tb in ((a.event_table, b.event_table), (a.entity_table, b.entity_table))
        )
    )


def ranking_matches(path: Path, test_corpus, scores) -> bool:
    """The rank JSONL orders each doc by (-score, event id) with the in-memory scores."""
    lines = path.read_text(encoding="utf-8").splitlines()
    if len(lines) != len(test_corpus.documents):
        return False
    for line, doc, doc_scores in zip(lines, test_corpus.documents, scores):
        row = json.loads(line)
        order = sorted(range(len(doc.events)), key=lambda i: (-doc_scores[i], doc.events[i].id))
        expected = [{"event_id": doc.events[i].id, "score": float(doc_scores[i])} for i in order]
        if row != {"doc_id": doc.doc_id, "ranking": expected}:
            return False
    return True


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_pass(ctx: Context, tracer, with_cli: bool) -> dict:
    """One pass of the pipeline; returns its measurements and output hashes.

    ``with_cli`` adds the ``evaluate``, ``sigtest`` and ``rank`` commands and
    the checks of their files.  No end-to-end metric times them.
    """
    ledger = ctx.ledger
    span = tracer.span if tracer is not None else (lambda name: nullcontext())
    work = ctx.work
    out: dict = {}

    def run_cli(command: str, *argv: str) -> None:
        with span(f"cli.{command}"), redirect_stdout(io.StringIO()):
            code = cli.main([command, *map(str, argv)])
        ledger.check(code == 0, f"salience {command} exited with {code}")

    # Start each pass from the same collector state, so that collections
    # fall at the same points of every pass instead of wherever the last
    # pass left the generation counters.
    gc.collect()
    started = perf_counter()
    s, out["setup_s"] = ledger.timed(set_up, ctx)
    cfg = ctx.train_cfg
    fit = corpus.Corpus(s.train.documents[: ctx.workload.fit_docs], split_tag="train")
    trained_docs = len(fit.documents) * cfg.epochs

    kce0 = models.new_kce_model(kernels.default_bank(), s.event_table, s.entity_table, s.scaler)
    (kce, history), t = ledger.timed(training.train, kce0, fit, s.dev, cfg)
    out["kce_train_docs_per_s"] = trained_docs / t
    letor0 = models.new_letor_model(
        copy.deepcopy(s.event_table), copy.deepcopy(s.entity_table), s.scaler
    )
    _, t = ledger.timed(training.train, letor0, fit, s.dev, cfg)
    out["letor_train_docs_per_s"] = trained_docs / t
    pagerank0 = models.PageRankModel(
        temperature=1.0, combine_lambda=0.5, event_table=copy.deepcopy(s.event_table)
    )
    _, t = ledger.timed(training.train, pagerank0, fit, s.dev, cfg)
    out["pagerank_train_docs_per_s"] = trained_docs / t

    model_path = work / "kce.model.json"
    _, out["model_save_s"] = ledger.timed(models.save_model, kce, model_path)
    out["model_file_mb"] = model_path.stat().st_size / 1e6
    loaded, out["model_load_s"] = ledger.timed(models.load_model, model_path, expect="kce")

    def score_test_split():
        latencies, scores = [], []
        for doc in s.test.documents:
            t1 = perf_counter()
            scores.append(models.model_scores(loaded, doc))
            latencies.append(perf_counter() - t1)
        return latencies, scores, metrics.evaluate(scores, s.test)

    (latencies, scores, report), t = ledger.timed(score_test_split)
    out["score_docs_per_s"] = len(s.test.documents) / t
    scale = hostspeed.REFERENCE_S / ledger.reference_s[-1]
    out["latencies"] = [x * scale for x in latencies]

    kce_report, freq_report = work / "kce.report.json", work / "frequency.report.json"
    rank_path, sig_path = work / "kce.rank.jsonl", work / "sigtest.json"
    if with_cli:
        run_cli("evaluate", "--model", model_path, "--corpus", ctx.files["test"], "--out", kce_report)
        run_cli("evaluate", "--model", "frequency", "--corpus", ctx.files["test"], "--out", freq_report)
        run_cli(
            "sigtest", "--a", kce_report, "--b", freq_report, "--out", sig_path,
            "--iterations", SIGTEST_ITERATIONS, "--seed", ctx.seed,
        )
        run_cli("rank", "--model", model_path, "--corpus", ctx.files["test"], "--out", rank_path)

    icfg = intrusion.IntrusionConfig(
        num_pairs=ctx.workload.intrude_pairs,
        intruder_kind=INTRUDER_KIND,
        seed=ctx.seed,
        fractions=FRACTIONS,
    )
    study, t = ledger.timed(intrusion.run_study, s.test, loaded, icfg)
    out["intrude_instances_per_s"] = icfg.num_pairs * len(icfg.fractions) / t
    intrusion_path = work / "intrusion.csv"
    study.to_csv(intrusion_path)
    out["pass_s"] = perf_counter() - started

    # output checks, outside the pass time
    ledger.check(
        len(history.rows) == cfg.epochs and all(math.isfinite(r.loss) for r in history.rows),
        "kce training history is incomplete or non-finite",
    )
    ledger.check(same_kce_model(kce, loaded), "the reloaded kce model differs from the trained one")
    out["kce_test_auc"] = report.auc
    out["hashes"] = {"kce_model": sha256(model_path)}
    if with_cli:
        kce_rep = json.loads(kce_report.read_text(encoding="utf-8"))
        freq_rep = json.loads(freq_report.read_text(encoding="utf-8"))
        ledger.check(kce_rep["auc"] == report.auc, "evaluate command and in-memory scoring disagree on AUC")
        ledger.check(
            isinstance(kce_rep["auc"], float) and kce_rep["auc"] > freq_rep["auc"],
            f"kce test AUC {kce_rep['auc']} does not beat the frequency baseline {freq_rep['auc']}",
        )
        ledger.check(ranking_matches(rank_path, s.test, scores), "rank output does not match the scores")
        sig = json.loads(sig_path.read_text(encoding="utf-8"))
        ledger.check(
            0.0 < sig["p_value"] <= 1.0 and sig["n_pairs"] == kce_rep["n_docs_auc"],
            f"sigtest result is out of range: {sig}",
        )
        out["hashes"].update(rank=sha256(rank_path), kce_report=sha256(kce_report))
    ledger.check(
        [r.fraction for r in study.rows] == list(FRACTIONS)
        and all(r.n_pairs > 0 and 0.0 <= min(r.auc, r.sa_auc) <= max(r.auc, r.sa_auc) <= 1.0 for r in study.rows),
        "intrusion study rows are incomplete or out of range",
    )
    out["hashes"]["intrusion"] = sha256(intrusion_path)
    out["rows"] = (s.event_table.vectors.shape[0], s.entity_table.vectors.shape[0])
    return out


def layer_metrics(tracer, pass_result: dict) -> dict:
    """Per-layer numbers of one traced pass, as {name: (value, unit)}."""
    spans, modules = tracer.summary()
    c = tracer.counters
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0}
    m = {}
    for name in SPAN_SECONDS:
        m[f"{name}.s"] = (spans.get(name, empty)["s"], "s")
    for name in SPAN_SELF_SECONDS:
        m[f"{name}.self_s"] = (spans.get(name, empty)["self_s"], "s")
    for name in SPAN_CALLS:
        m[f"{name}.calls"] = (spans.get(name, empty)["calls"], "count")
    # computed from array shapes at the call boundaries
    m["kernels.gaussian_pool.cosines"] = (c["kernels.gaussian_pool.cosines"], "count")
    m["kernels.gaussian_pool.act_mb"] = (c["kernels.gaussian_pool.act_bytes"] / 1e6, "MB")
    m["models.save_model.bytes"] = (c["models.save_model.bytes"], "B")
    m["training.Adam.step.elements"] = (c["training.Adam.step.elements"], "count")
    m["training.grad_table_mb"] = (c["training.grad_table_bytes"] / 1e6, "MB")
    allocated = c["training.grad_rows_allocated"]
    m["training.grad_rows_allocated"] = (allocated, "count")
    m["training.grad_rows_useful_ratio"] = (
        c["training.grad_rows_useful"] / allocated if allocated else 0.0,
        "ratio",
    )
    m["training.hinge_pairs"] = (c["training.hinge_pairs"], "count")
    m["embeddings.event_rows"] = (pass_result["rows"][0], "count")
    m["embeddings.entity_rows"] = (pass_result["rows"][1], "count")
    for module in LAYER_MODULES:
        m[f"{module}.self_s"] = (modules.get(module, 0.0), "s")
    m["trace.spans"] = (len(tracer.spans), "count")
    return m


def median_of(dicts: list[dict]) -> dict:
    return {
        name: (statistics.median(d[name][0] for d in dicts), unit)
        for name, (_, unit) in dicts[0].items()
    }


def end_to_end(passes: list[dict], setup_times: list[float]) -> tuple[dict, str]:
    """Medians over the passes of a run, of times scaled to the reference
    host speed (see hostspeed.py); the latency percentiles pool the scaled
    per-doc samples of all passes."""

    def med(key: str) -> float:
        return statistics.median(p[key] for p in passes)

    lat_ms = [1e3 * x for p in passes for x in p["latencies"]]
    p90 = statistics.quantiles(lat_ms, n=10, method="inclusive")[8]
    beyond = sum(1 for x in lat_ms if x > p90)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "kce_train_docs_per_s": (med("kce_train_docs_per_s"), "docs/s"),
        "letor_train_docs_per_s": (med("letor_train_docs_per_s"), "docs/s"),
        "pagerank_train_docs_per_s": (med("pagerank_train_docs_per_s"), "docs/s"),
        "model_save_s": (med("model_save_s"), "s"),
        "model_load_s": (med("model_load_s"), "s"),
        "model_file_mb": (med("model_file_mb"), "MB"),
        "score_docs_per_s": (med("score_docs_per_s"), "docs/s"),
        "score_doc_ms_p50": (statistics.median(lat_ms), "ms"),
        "score_doc_ms_p90": (p90, "ms"),
        "intrude_instances_per_s": (med("intrude_instances_per_s"), "inst/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "kce_test_auc": (med("kce_test_auc"), "auc"),
    }
    return metrics, f"{len(lat_ms)} samples, {beyond} beyond p90"


def git_rev() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas_version = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_version,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "git_rev": git_rev(),
    }


def declared_metric_names(trace: bool) -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_workload(args, ctx: Context) -> int:
    ledger = ctx.ledger
    layers_from_inputs = {}
    input_tracer = Tracer() if args.trace else None
    if input_tracer is not None:
        input_tracer.install()
    try:
        make_inputs(ctx)
    finally:
        if input_tracer is not None:
            input_tracer.uninstall()
    if input_tracer is not None:
        spans, _ = input_tracer.summary()
        for name in ("synth.generate_corpus", "corpus.save_corpus"):
            layers_from_inputs[f"{name}.s"] = (spans.get(name, {"s": 0.0})["s"], "s")

    passes: list[dict] = []
    iteration_s: list[float] = []
    measure_start = perf_counter()
    while True:
        # A traced run alternates U T U T ...; its first, untraced pass
        # warms up and is left out of the overhead.
        traced = bool(args.trace) and len(passes) % 2 == 1
        # Traced runs keep the commands in every pass, so that traced and
        # untraced passes do the same work and cli.* spans exist.
        with_cli = bool(args.trace) or len(passes) < CHECK_PASSES
        tracer = Tracer() if traced else None
        t0 = perf_counter()
        try:
            if tracer is not None:
                tracer.install()
            result = run_pass(ctx, tracer, with_cli)
        except Exception:
            ledger.failed += 1
            traceback.print_exc()
            break
        finally:
            if tracer is not None:
                tracer.uninstall()
        result["traced"] = traced
        if tracer is not None:
            result["layers"] = layer_metrics(tracer, result)
            self_total = sum(result["layers"][f"{m}.self_s"][0] for m in LAYER_MODULES)
            ledger.check(
                self_total <= result["pass_s"],
                f"layer self times sum to {self_total} s, beyond the pass wall time {result['pass_s']} s",
            )
        if passes:
            first = passes[0]["hashes"]
            ledger.check(
                all(first[name] == digest for name, digest in result["hashes"].items()),
                "outputs differ between two passes",
            )
        passes.append(result)
        iteration_s.append(perf_counter() - t0)
        elapsed = perf_counter() - measure_start
        min_passes = MIN_PASSES + 1 if args.trace else MIN_PASSES
        if len(passes) >= min_passes and elapsed + statistics.median(iteration_s) > args.seconds:
            break

    setup_times = [p["setup_s"] for p in passes if not p["traced"]]
    if not args.trace and passes:
        try:
            while len(setup_times) < MIN_SETUPS:
                setup_times.append(ledger.timed(set_up, ctx)[1])
        except Exception:
            ledger.failed += 1
            traceback.print_exc()

    print(f"# perfbench workload={args.workload} seed={args.seed} trace={args.trace} passes={len(passes)}")
    print("# env " + json.dumps(environment(), sort_keys=True))
    if passes:
        print("# hashes " + json.dumps(passes[0]["hashes"], sort_keys=True))
    if ledger.reference_s:
        print(
            f"# host reference loop: median {1e3 * statistics.median(ledger.reference_s):.4f} ms"
            f" over {len(ledger.reference_s)} stages, scaled to {1e3 * hostspeed.REFERENCE_S:.4f} ms"
        )
    if input_tracer is not None and input_tracer.missing:
        print("# not traced, no longer in salience: " + ", ".join(input_tracer.missing))

    metrics: dict = {}
    note = ""
    plain = [p for p in passes[1:] if not p["traced"]]
    traced_passes = [p for p in passes if p["traced"]]
    if not args.trace and passes:
        metrics, note = end_to_end(passes, setup_times)
    elif args.trace and plain and traced_passes:
        metrics = dict(layers_from_inputs)
        metrics.update(median_of([p["layers"] for p in traced_passes]))
        traced_s = statistics.median(p["pass_s"] for p in traced_passes)
        plain_s = statistics.median(p["pass_s"] for p in plain)
        metrics["trace.pass_s"] = (traced_s, "s")
        metrics["trace.untraced_pass_s"] = (plain_s, "s")
        metrics["trace.overhead_s"] = (traced_s - plain_s, "s")
        metrics["trace.overhead_ratio"] = ((traced_s - plain_s) / plain_s, "ratio")

    expected = declared_metric_names(bool(args.trace))
    if metrics:
        ledger.check(
            sorted(expected) == sorted(metrics),
            f"metrics differ from BENCHMARK.json: {sorted(set(expected) ^ set(metrics))}",
        )
    for name, (value, unit) in metrics.items():
        extra = f"  ({note})" if name == "score_doc_ms_p90" else ""
        print(f"{name:<40} {value:>16.6g} {unit}{extra}")
    rate = ledger.failed / ledger.attempted if ledger.attempted else 1.0
    print(f"{'op_error_rate':<40} {rate:>16.6g} ratio  ({ledger.failed} failed of {ledger.attempted} attempted)")

    correct = ledger.failed == 0 and bool(metrics)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": max(ledger.attempted, 1),
                "failed": ledger.failed if ledger.attempted else 1,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is per workload."""
    codes = []
    for name in WORKLOADS:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        codes.append(subprocess.run(cmd, check=False).returncode)
    return 0 if all(code == 0 for code in codes) else 1


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1, help="workload seed (>= 0); same seed, same inputs")
    ap.add_argument("--seconds", type=float, default=56.0, help="measure passes for about this long")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics from spans")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    work = WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    workload = WORKLOADS[args.workload]
    ctx = Context(
        workload=workload,
        seed=args.seed,
        work=work,
        ledger=Ledger(),
        train_cfg=training.TrainConfig(epochs=EPOCHS, batch_docs=workload.batch_docs, seed=args.seed),
    )
    try:
        return run_workload(args, ctx)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())

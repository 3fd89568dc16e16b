"""Event salience toolkit: corpus handling, salience annotation, kernel-based
centrality estimation, feature baselines, training, evaluation, and intrusion
studies."""

__version__ = "0.1.0"

from .annotate import FilterConfig, corpus_stats, filter_candidates, label_salience
from .corpus import Corpus, Document, EntityMention, EventMention, load_corpus, save_corpus, validate_document
from .embeddings import EmbeddingTable, Vocabulary, build_vocab, init_embeddings
from .errors import DataError, ModelFormatError, NumericError, SalienceError
from .features import FEATURE_NAMES, FeatureScaler, feature_matrix, fit_scaler
from .intrusion import IntrusionConfig, StudyResult, build_instance, run_study
from .kernels import KernelBank, default_bank
from .metrics import MetricsReport, auc, evaluate, permutation_test, precision_at_k, recall_at_k
from .models import (
    KCEModel,
    PageRankModel,
    frequency_scores,
    load_model,
    location_scores,
    model_scores,
    new_kce_model,
    new_letor_model,
    save_model,
)
from .synth import SynthConfig, degrade_vectors, generate_corpus, measured_cosine_gap
from .training import TrainConfig, TrainHistory, grad_check, train

__all__ = [
    "__version__",
    "Corpus",
    "DataError",
    "Document",
    "EmbeddingTable",
    "EntityMention",
    "EventMention",
    "FEATURE_NAMES",
    "FeatureScaler",
    "FilterConfig",
    "IntrusionConfig",
    "KCEModel",
    "KernelBank",
    "MetricsReport",
    "ModelFormatError",
    "NumericError",
    "PageRankModel",
    "SalienceError",
    "StudyResult",
    "SynthConfig",
    "TrainConfig",
    "TrainHistory",
    "Vocabulary",
    "auc",
    "build_instance",
    "build_vocab",
    "corpus_stats",
    "default_bank",
    "degrade_vectors",
    "evaluate",
    "feature_matrix",
    "filter_candidates",
    "fit_scaler",
    "frequency_scores",
    "generate_corpus",
    "grad_check",
    "init_embeddings",
    "label_salience",
    "load_corpus",
    "load_model",
    "location_scores",
    "measured_cosine_gap",
    "model_scores",
    "new_kce_model",
    "new_letor_model",
    "permutation_test",
    "precision_at_k",
    "recall_at_k",
    "run_study",
    "save_corpus",
    "save_model",
    "train",
    "validate_document",
]

"""The per-document kernel pass keeps the bits of its first formulation.

``kce_forward`` pools both kernel blocks in one call, over contiguous operands
in chunks of the bank's tiles, zeroes the event-event diagonal through a
strided view and sums the pooled features with einsum (``.sum`` for a lone
kernel); ``_kernel_cos_grads`` multiplies the activations by their kernel slopes in
place.  Each must
equal the formulation in ``oracles`` byte for byte, for banks of one kernel and
up, empty and one-mention sides, cosines of exactly -1, 0, 1 and each mean,
documents that pool less than one tile chunk and several, and one bank reused
over documents of growing and then shrinking size.
"""
import copy
import dataclasses
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from helpers import toy_table
from oracles import kce_forward_reference, kernel_cos_grad_reference
from salience.features import FeatureScaler, make_plan
from salience.kernels import _TILE, KernelBank, default_bank
from salience.models import kce_forward, new_kce_model
from salience.training import _kernel_cos_grads

DIM = 4
ROOT = Path(__file__).resolve().parent.parent


def _bank(size: int) -> KernelBank:
    """The default bank's soft kernels, then its exact-match one; a sharp kernel alone would pool
    mostly exact zeros and ones, whose sums do not depend on the order of the additions."""
    if size <= 11:
        bank = default_bank()
        return KernelBank(means=np.roll(bank.means, -1)[:size], sigmas=np.roll(bank.sigmas, -1)[:size])
    return KernelBank(means=np.linspace(-1.0, 1.0, size), sigmas=np.full(size, 0.07))


def _units(count: int, bank: KernelBank, rng: np.random.Generator) -> np.ndarray:
    """Rows whose products include exact cosines -1, 0, 1 and every kernel mean, then random unit rows."""
    e1, e2 = np.eye(DIM)[:2]
    exact = [e1, -e1, e2] + [mu * e1 for mu in bank.means]
    random = rng.normal(size=(count, DIM))
    random /= np.linalg.norm(random, axis=1, keepdims=True)
    return np.vstack([exact, random])[:count][rng.permutation(count)]


def _case(bank: KernelBank, n: int, m: int, seed: int):
    rng = np.random.default_rng(seed)
    events, entities = toy_table(["a", "b"], DIM, rng), toy_table(["x"], DIM, rng)
    scaler = FeatureScaler(means=rng.normal(size=5), stds=rng.uniform(0.5, 2.0, size=5))
    model = new_kce_model(bank, events, entities, scaler, variant="full")
    model.w_v, model.w_e, model.w_f = rng.normal(size=bank.size), rng.normal(size=bank.size), rng.normal(size=5)
    model.bias = float(rng.normal())
    unit_v, unit_e = _units(n, bank, rng), _units(m, bank, rng)
    units = (events, entities, unit_v, np.ones(n), unit_e, np.ones(m))
    plan = make_plan(
        rng.integers(0, 3, n), rng.integers(0, 2, m), np.sort(rng.integers(0, 6, n)),
        rng.integers(0, 6, m), rng.integers(1, 4, n).astype(np.float64), units,
    )
    return model, plan


def _same(got: np.ndarray, want: np.ndarray) -> bool:
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def _same_as_first_formulation(model, plan, where) -> None:
    """Scores, activations, pooled features and kernel cosine gradients of a stack of one
    byte-equal to ``oracles``."""
    scores, cache = kce_forward(model, [plan])
    want_scores, want = kce_forward_reference(model, plan)
    assert _same(scores[0], want_scores), where
    for name, value in want.items():
        assert _same(getattr(cache, name)[0], value), (name, *where)
    want_grads = {
        name: kernel_cos_grad_reference(acts[0], sims[0], model.bank, getattr(model, name))
        for name, acts, sims in (("w_v", cache.acts_vv, cache.sims_vv), ("w_e", cache.acts_ve, cache.sims_ve))
    }
    got = _kernel_cos_grads(model, cache)  # multiplies the cached activations by their slopes
    for name, want_grad in want_grads.items():
        assert _same(got[name][0], want_grad), (name, *where)


@pytest.mark.parametrize("n", [0, 1, 2, 20, 150])
@pytest.mark.parametrize("size", [1, 2, 3, 11, 16])
def test_kernel_pass_equals_first_formulation_bitwise(size, n):
    bank = _bank(size)
    for m in (0, 1, 30, 300):
        model, plan = _case(bank, n, m, seed=1000 * size + 10 * n + m)
        _same_as_first_formulation(model, plan, (size, n, m))


def test_cases_reach_the_exact_cosines():
    bank = _bank(3)
    model, plan = _case(bank, 20, 30, seed=7)
    _, cache = kce_forward(model, [plan])
    seen = set(cache.sims_ve.ravel().tolist()) | set(cache.sims_vv.ravel().tolist())
    assert {-1.0, 0.0, 1.0, *bank.means.tolist()} <= seen


@pytest.mark.parametrize("size", [1, 11])
def test_one_bank_reused_over_growing_then_shrinking_documents(size):
    """The bank's tiles, built on its first pass, serve every later document, whether it pools
    less than one tile chunk or several."""
    bank = _bank(size)
    sizes = [(2, 3), (20, 30), (40, 60), (70, 90), (40, 60), (20, 30), (2, 3)]
    assert min(n * (n + m) for n, m in sizes) < _TILE and max(n * (n + m) for n, m in sizes) > 10 * _TILE
    for k, (n, m) in enumerate(sizes):
        model, plan = _case(bank, n, m, seed=k)
        assert model.bank is bank
        _same_as_first_formulation(model, plan, (size, n, m))


def test_copies_of_a_model_whose_bank_holds_tiles_score_the_same():
    model, plan = _case(_bank(11), 40, 60, seed=3)
    scores = kce_forward(model, [plan])[0]
    assert "tiles" in vars(model.bank)
    tables = {id(t): t for t in (model.event_table, model.entity_table)}  # the plan holds their normalized rows
    rebuilt = dataclasses.replace(model, bank=dataclasses.replace(model.bank))
    for copied in (copy.deepcopy(model, tables), dataclasses.replace(model), rebuilt):
        assert _same(kce_forward(copied, [plan])[0], scores)


def test_the_hash_table_large_documents_cross_a_tile_chunk():
    spec = importlib.util.spec_from_file_location("hash_outputs", ROOT / "scripts" / "hash_outputs.py")
    hash_outputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(hash_outputs)
    n, m = (hash_outputs.LARGE_DOCS_CFG[k] for k in ("events_per_doc", "entities_per_doc"))
    assert n * (n + m) > _TILE

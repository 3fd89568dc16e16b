"""The per-document kernel pass keeps the bits of its first formulation.

``kce_forward`` pools in four passes, zeroes the event-event diagonal through a
strided view and sums the pooled features with einsum (``.sum`` for a lone
kernel); ``_kernel_cos_grad`` builds the kernel slope in one buffer.  Each must
equal the formulation in ``oracles`` byte for byte, for banks of one kernel and
up, empty and one-mention sides, and cosines of exactly -1, 0, 1 and each mean.
"""
import numpy as np
import pytest

from helpers import toy_table
from oracles import kce_forward_reference, kernel_cos_grad_reference
from salience.features import FeatureScaler, make_plan
from salience.kernels import KernelBank, default_bank
from salience.models import kce_forward, new_kce_model
from salience.training import _kernel_cos_grad

DIM = 4


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


@pytest.mark.parametrize("n", [0, 1, 2, 20, 150])
@pytest.mark.parametrize("size", [1, 2, 3, 11, 16])
def test_kernel_pass_equals_first_formulation_bitwise(size, n):
    bank = _bank(size)
    for m in (0, 1, 30, 300):
        model, plan = _case(bank, n, m, seed=1000 * size + 10 * n + m)
        scores, cache = kce_forward(model, plan)
        want_scores, want = kce_forward_reference(model, plan)
        assert _same(scores, want_scores), (size, n, m)
        for name, value in want.items():
            assert _same(getattr(cache, name), value), (name, size, n, m)
        for acts, sims, weights in ((cache.acts_vv, cache.sims_vv, model.w_v), (cache.acts_ve, cache.sims_ve, model.w_e)):
            got = _kernel_cos_grad(acts, sims, bank, weights)
            assert _same(got, kernel_cos_grad_reference(acts, sims, bank, weights)), (size, n, m)


def test_cases_reach_the_exact_cosines():
    bank = _bank(3)
    model, plan = _case(bank, 20, 30, seed=7)
    _, cache = kce_forward(model, plan)
    seen = set(cache.sims_ve.ravel().tolist()) | set(cache.sims_vv.ravel().tolist())
    assert {-1.0, 0.0, 1.0, *bank.means.tolist()} <= seen

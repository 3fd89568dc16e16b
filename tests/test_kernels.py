import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from oracles import (
    cosine,
    gaussian_pool_reference,
    kernel_backward,
    kernel_features,
    kernel_slopes_reference,
    pool_grad_wrt_cos,
)
from salience.errors import DataError
from salience.kernels import (
    _TILE,
    KernelBank,
    bank_from_json,
    bank_to_json,
    default_bank,
    gaussian_pool,
    kernel_slopes,
)


def brute_kernel_features(target, context, bank):
    """Per-pair, per-kernel python-loop summation."""
    out = np.zeros(bank.size)
    for vec in context:
        c = cosine(target, vec)
        for k in range(bank.size):
            mu, sigma = bank.means[k], bank.sigmas[k]
            out[k] += math.exp(-((c - mu) ** 2) / (2.0 * sigma**2))
    return out


def test_default_bank_layout():
    bank = default_bank()
    assert bank.size == 11
    assert bank.means[0] == 1.0 and bank.sigmas[0] == 1e-3
    assert bank.means[1:].tolist() == pytest.approx(
        [-0.9, -0.7, -0.5, -0.3, -0.1, 0.1, 0.3, 0.5, 0.7, 0.9]
    )
    assert np.all(bank.sigmas[1:] == 0.1)


def test_bank_validation():
    with pytest.raises(DataError):
        KernelBank(means=np.array([0.0]), sigmas=np.array([0.0]))
    with pytest.raises(DataError):
        KernelBank(means=np.array([0.0, 0.1]), sigmas=np.array([0.1]))


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 10**6), n_ctx=st.integers(0, 8), dim=st.integers(1, 16))
def test_kernel_features_matches_brute_force(seed, n_ctx, dim):
    rng = np.random.default_rng(seed)
    bank = default_bank()
    target = rng.normal(size=dim)
    context = rng.normal(size=(n_ctx, dim))
    got = kernel_features(target, context, bank)
    want = brute_kernel_features(target, context, bank)
    assert got == pytest.approx(want, abs=1e-12)


def test_kernel_features_empty_context_is_zero():
    bank = default_bank()
    assert kernel_features(np.ones(4), np.zeros((0, 4)), bank).tolist() == [0.0] * bank.size


def test_exact_match_kernel_fires_on_duplicates():
    bank = default_bank()
    v = np.array([1.0, 2.0, 3.0])
    phi = kernel_features(v, np.stack([v, -v]), bank)
    assert phi[0] == pytest.approx(1.0, abs=1e-12)


def test_gaussian_pool_shape_and_values():
    bank = KernelBank(means=np.array([0.0, 0.5]), sigmas=np.array([1.0, 0.5]))
    cos = np.array([[0.0, 0.5], [1.0, -1.0]])
    acts = gaussian_pool(cos, bank)
    assert acts.shape == (2, 2, 2)
    assert acts[0, 0, 0] == 1.0
    assert acts[0, 1, 1] == 1.0
    assert acts[1, 0, 0] == pytest.approx(math.exp(-0.5))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_pool_grad_matches_finite_differences(seed):
    rng = np.random.default_rng(seed)
    bank = default_bank()
    cos = rng.uniform(-0.8, 0.8, size=6)
    upstream = rng.normal(size=bank.size)
    grad = pool_grad_wrt_cos(cos, bank, upstream)
    step = 1e-6
    for i in range(6):
        bumped_p = cos.copy()
        bumped_m = cos.copy()
        bumped_p[i] += step
        bumped_m[i] -= step
        num = (
            gaussian_pool(bumped_p, bank) @ upstream - gaussian_pool(bumped_m, bank) @ upstream
        )[i] / (2 * step)
        # numerator above is a vector per element; difference only at i
        assert grad[i] == pytest.approx(num, rel=1e-5, abs=1e-9)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_kernel_backward_matches_finite_differences(seed):
    rng = np.random.default_rng(seed)
    bank = default_bank()
    dim = 5
    target = rng.normal(size=dim) * 2.0
    context = rng.normal(size=(3, dim)) * 2.0
    if max(abs(cosine(target, c)) for c in context) > 0.85:
        return
    upstream = rng.normal(size=bank.size)
    d_target, d_context = kernel_backward(target, context, bank, upstream)

    def scalar_loss(t, ctx):
        return float(kernel_features(t, ctx, bank) @ upstream)

    step = 1e-6
    for i in range(dim):
        e = np.zeros(dim)
        e[i] = step
        num = (scalar_loss(target + e, context) - scalar_loss(target - e, context)) / (2 * step)
        assert d_target[i] == pytest.approx(num, rel=1e-4, abs=1e-8)
    for j in range(3):
        for i in range(dim):
            bumped_p = context.copy()
            bumped_m = context.copy()
            bumped_p[j, i] += step
            bumped_m[j, i] -= step
            num = (scalar_loss(target, bumped_p) - scalar_loss(target, bumped_m)) / (2 * step)
            assert d_context[j][i] == pytest.approx(num, rel=1e-4, abs=1e-8)


def test_kernel_backward_upstream_shape_checked():
    bank = default_bank()
    with pytest.raises(ValueError):
        kernel_backward(np.ones(3), np.ones((2, 3)), bank, np.ones(bank.size + 1))


def test_bank_json_round_trip():
    bank = default_bank()
    again = bank_from_json(bank_to_json(bank))
    assert np.array_equal(again.means, bank.means)
    assert np.array_equal(again.sigmas, bank.sigmas)


@settings(max_examples=100, deadline=None)
@given(
    cos=hnp.arrays(
        np.float64,
        hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=5),
        elements=st.sampled_from([-1.0, -0.0, 0.0, 1.0, 0.9999]) | st.floats(-1.0, 1.0),
    ),
    means=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=4),
    sigmas=st.lists(st.sampled_from([1e-3, 0.1]) | st.floats(1e-4, 2.0), min_size=4, max_size=4),
)
def test_gaussian_pool_equals_reference_bitwise(cos, means, sigmas):
    bank = KernelBank(means=np.array(means), sigmas=np.array(sigmas[: len(means)]))
    want = gaussian_pool_reference(cos, bank)
    got = gaussian_pool(cos, bank)
    assert got.shape == want.shape == (*cos.shape, bank.size)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def _cosines_with_exact_values(count: int, bank: KernelBank, rng: np.random.Generator) -> np.ndarray:
    """``count`` cosines in [-1, 1]; the exact values -1, -0, 0, 1 and every kernel mean fill random
    places, the last place included, whenever ``count`` leaves room for them."""
    cos = rng.uniform(-1.0, 1.0, size=count)
    exact = np.array([-1.0, -0.0, 0.0, 1.0, *bank.means])[:count]
    cos[np.append(rng.choice(count - 1, size=len(exact) - 1, replace=False), count - 1)] = exact
    return cos


@pytest.mark.parametrize("count", [1, _TILE - 1, _TILE, _TILE + 1, 3 * _TILE + 7])
@pytest.mark.parametrize("size", [1, 2, 11])
def test_tiled_pass_equals_the_broadcast_across_chunk_boundaries(size, count):
    """Cosine arrays shorter than one tile chunk, exactly one, one more, and several."""
    bank = default_bank() if size == 11 else KernelBank(means=np.linspace(-0.6, 0.6, size), sigmas=np.full(size, 0.2))
    rng = np.random.default_rng(10 * count + size)
    for cos in (_cosines_with_exact_values(count, bank, rng), rng.uniform(-1.0, 1.0, size=(count, 2))):
        for got, want in (
            (gaussian_pool(cos, bank), gaussian_pool_reference(cos, bank)),
            (kernel_slopes(cos, bank), kernel_slopes_reference(cos, bank)),
        ):
            assert got.shape == want.shape == (*cos.shape, bank.size)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_bank_tiles_are_no_part_of_its_value():
    fresh = KernelBank(means=np.array([0.3]), sigmas=np.array([0.2]))
    used = KernelBank(means=np.array([0.3]), sigmas=np.array([0.2]))
    gaussian_pool(np.zeros(3), used)
    assert "tiles" in vars(used) and "tiles" not in vars(fresh)
    assert [f.name for f in dataclasses.fields(KernelBank)] == ["means", "sigmas"]
    assert repr(used) == repr(fresh)
    assert bank_to_json(used) == bank_to_json(fresh) == {"means": [0.3], "sigmas": [0.2]}


def test_bank_tiles_are_read_only_bounded_and_shared_by_equal_banks():
    tiles = default_bank().tiles
    assert all(not tile.flags.writeable for tile in tiles)
    assert [tile.shape for tile in tiles] == [(_TILE * 11,)] * 3
    assert sum(tile.nbytes for tile in tiles) <= 264 * 1024  # the bound the kernels module states
    assert all(a is b for a, b in zip(tiles, default_bank().tiles))
    assert KernelBank(means=default_bank().means, sigmas=np.full(11, 0.1)).tiles[0] is not tiles[0]

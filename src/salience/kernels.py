"""Gaussian kernel pooling over cosine similarities.

Each kernel k turns a bag of similarities into one soft-count feature

    phi_k(target, context) = sum_j exp(-(cos(target, c_j) - mu_k)^2 / (2 sigma_k^2))

The default bank has one sharp exact-match kernel at mu=1 (sigma=1e-3) and
ten soft kernels with means spread over (-1, 1) at sigma=0.1, so the pooled
vector is a differentiable histogram of the similarity distribution.

Outputs are bitwise stable, so the kernel pass's operation order is
load-bearing.  ``gaussian_pool`` divides ``d * d`` (``d = cos - mu``) by
``-(2 sigma sigma)``, as ``kernel_slopes`` divides ``d`` by
``-(sigma sigma)``: IEEE division is sign-symmetric, ``(-a) / b == a / (-b)``,
so this is the textbook ``-(d * d) / (2 sigma sigma)`` with one pass fewer.

Both run over contiguous 1-D operands.  ``np.repeat`` lays each cosine's K
copies side by side, and a bank holds its means, ``-(2 sigma sigma)`` and
``-(sigma sigma)`` tiled over ``_TILE`` cosines (264 KiB for the default
bank, in a memory mapping of their own, built on its first pass and shared
by equal banks).  Each step is then one elementwise ufunc over equal-length
buffers, worked through in chunks of ``_TILE`` cosines, where a broadcast of
the cosines against the K means runs numpy's inner loop once per cosine over
K elements.  Each element still meets the same operands in the same IEEE
operations (subtract, multiply, divide and exp, which numpy computes for
each element alone), so the activations and slopes keep their bits whatever
the chunking.
``pooled_sum`` is ``acts.sum(axis=1)``: for K >= 2 numpy adds each (i, k)'s
terms one after another and einsum does the same, while for K = 1 numpy sums
the contiguous context axis pairwise and einsum does not.
``tests/test_kernel_pass.py`` holds both to the first formulation.
"""
from __future__ import annotations

import mmap
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import DataError

_TILE = 1024  # cosines per chunk of the contiguous pass: a default-bank tile is 90 KB


@dataclass(frozen=True)
class KernelBank:
    means: np.ndarray  # (K,)
    sigmas: np.ndarray  # (K,) all > 0

    def __post_init__(self) -> None:
        means = np.asarray(self.means, dtype=np.float64)
        sigmas = np.asarray(self.sigmas, dtype=np.float64)
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "sigmas", sigmas)
        if means.ndim != 1 or means.shape != sigmas.shape:
            raise DataError("kernel means and sigmas must be 1-d arrays of equal length")
        if means.size == 0:
            raise DataError("kernel bank must contain at least one kernel")
        if not np.all(sigmas > 0.0):
            raise DataError("kernel sigmas must be strictly positive")

    @property
    def size(self) -> int:
        return int(self.means.size)

    @cached_property
    def tiles(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``_tiles`` of this bank's means and sigmas, cached on the instance outside the dataclass
        fields, so no part of ``==``, ``repr`` or the JSON."""
        return _tiles(self.means.tobytes(), self.sigmas.tobytes())


@lru_cache(maxsize=8)
def _tiles(means: bytes, sigmas: bytes) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The means, ``-(2 sigma sigma)`` and ``-(sigma sigma)`` of a bank's float64 bytes, each repeated
    over ``_TILE`` cosines and read-only: one set for every bank of the same kernels."""
    mu, sigma = np.frombuffer(means), np.frombuffer(sigmas)
    # An anonymous mapping of their own: in the heap, these long-lived blocks amid short-lived ones
    # kept freed space from merging, and the large-vocab benchmark's peak RSS rose by 1.3-2.7 MB,
    # where the tiles themselves take 0.26 MB.
    tiles = np.frombuffer(mmap.mmap(-1, 3 * _TILE * mu.nbytes)).reshape(3, _TILE, mu.size)
    tiles[:] = np.stack((mu, -(2.0 * sigma * sigma), -(sigma * sigma)))[:, None]
    tiles.flags.writeable = False
    return tuple(tiles.reshape(3, -1))


def default_bank() -> KernelBank:
    means = [1.0] + [round(-0.9 + 0.2 * i, 1) for i in range(10)]
    sigmas = [1e-3] + [0.1] * 10
    return KernelBank(means=np.array(means), sigmas=np.array(sigmas))


def _differences(cos_values: np.ndarray, bank: KernelBank) -> tuple[np.ndarray, list[tuple]]:
    """``cos - mu`` for every cosine and kernel in a fresh (..., K) buffer, and its contiguous chunks,
    each with the ``-(2 sigma sigma)`` and ``-(sigma sigma)`` tile slices that line up with it."""
    c = np.asarray(cos_values, dtype=np.float64)
    flat = np.repeat(c, bank.size)
    means, two_var, var = bank.tiles
    chunks = []
    for start in range(0, flat.size, means.size):
        d = flat[start : start + means.size]
        np.subtract(d, means[: d.size], out=d)
        chunks.append((d, two_var[: d.size], var[: d.size]))
    return flat.reshape(c.shape + (bank.size,)), chunks


def gaussian_pool(cos_values: np.ndarray, bank: KernelBank) -> np.ndarray:
    """Kernel activations for an array of cosines; shape (..., K)."""
    acts, chunks = _differences(cos_values, bank)
    for d, two_var, _ in chunks:  # in the differences' own buffer (module docstring)
        np.multiply(d, d, out=d)
        np.divide(d, two_var, out=d)
        np.exp(d, out=d)
    return acts


def kernel_slopes(cos_values: np.ndarray, bank: KernelBank) -> np.ndarray:
    """``-(cos - mu) / (sigma sigma)`` for an array of cosines, each activation's slope over the
    activation itself; shape (..., K)."""
    slopes, chunks = _differences(cos_values, bank)
    for d, _, var in chunks:
        np.divide(d, var, out=d)
    return slopes


def pooled_sum(acts: np.ndarray) -> np.ndarray:
    """``acts.sum(axis=1)`` of (n, m, K) activations, bit for bit: the (n, K) pooled features."""
    if acts.shape[-1] == 1:  # numpy sums a contiguous axis pairwise, einsum does not
        return acts.sum(axis=1)
    return np.einsum("ijk->ik", acts)


def bank_to_json(bank: KernelBank) -> dict:
    return {"means": bank.means.tolist(), "sigmas": bank.sigmas.tolist()}


def bank_from_json(obj: dict) -> KernelBank:
    return KernelBank(
        means=np.asarray(obj["means"], dtype=np.float64),
        sigmas=np.asarray(obj["sigmas"], dtype=np.float64),
    )

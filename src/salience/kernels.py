"""Gaussian kernel pooling over cosine similarities.

Each kernel k turns a bag of similarities into one soft-count feature

    phi_k(target, context) = sum_j exp(-(cos(target, c_j) - mu_k)^2 / (2 sigma_k^2))

The default bank has one sharp exact-match kernel at mu=1 (sigma=1e-3) and
ten soft kernels with means spread over (-1, 1) at sigma=0.1, so the pooled
vector is a differentiable histogram of the similarity distribution.

Outputs are bitwise stable, so the kernel pass's operation order is
load-bearing.  ``gaussian_pool`` divides ``d * d`` (``d = cos - mu``) by
``-(2 sigma sigma)``, as ``multiply_slopes`` divides ``d`` by
``-(sigma sigma)``: IEEE division is sign-symmetric, ``(-a) / b == a / (-b)``,
so this is the textbook ``-(d * d) / (2 sigma sigma)`` with one pass fewer.

Both run over contiguous 1-D operands.  ``np.repeat`` lays each cosine's K
copies side by side (``multiply_slopes`` repeats one tile chunk of cosines at
a time and multiplies the activations by it in place, so the backward pass
allocates no second buffer of the activations' size), and a bank holds its
means, ``-(2 sigma sigma)`` and
``-(sigma sigma)`` tiled over ``_TILE`` cosines (264 KiB for the default
bank, in a memory mapping of their own, built on its first pass and shared
by equal banks).  Each step is then one elementwise ufunc over equal-length
buffers, worked through in chunks of ``_TILE`` cosines, where a broadcast of
the cosines against the K means runs numpy's inner loop once per cosine over
K elements.  Each element still meets the same operands in the same IEEE
operations (subtract, multiply, divide and exp, which numpy computes for
each element alone), so the activations and slopes keep their bits whatever
the chunking.
``pooled_sum`` is ``acts.sum(axis=2)`` of a stack's (B, n, m, K) activations:
for K >= 2 numpy adds each (b, i, k)'s terms one after another, and einsum
over the B n targets as the rows of one (B n, m, K) block does the same,
while for K = 1 numpy sums the contiguous context axis pairwise and einsum
does not.  ``tests/test_kernel_pass.py`` holds both to the first formulation.
"""
from __future__ import annotations

import mmap
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import DataError

_TILE = 1024  # cosines per chunk of the contiguous pass: a default-bank tile is 90 KB


@dataclass(frozen=True, eq=False)
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
        fields, so no part of ``repr`` or the JSON."""
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
    size = bank.size
    flat = c.repeat(size)
    means, two_var, var = bank.tiles
    chunks = []
    for start in range(0, flat.size, means.size):
        d = flat[start : start + means.size]
        np.subtract(d, means[: d.size], out=d)
        chunks.append((d, two_var[: d.size], var[: d.size]))
    return flat.reshape(c.shape + (size,)), chunks


def gaussian_pool(cos_values: np.ndarray, bank: KernelBank) -> np.ndarray:
    """Kernel activations for an array of cosines; shape (..., K)."""
    acts, chunks = _differences(cos_values, bank)
    for d, two_var, _ in chunks:  # in the differences' own buffer (module docstring)
        np.multiply(d, d, out=d)
        np.divide(d, two_var, out=d)
        np.exp(d, out=d)
    return acts


def multiply_slopes(acts: np.ndarray, cos_values: np.ndarray, bank: KernelBank) -> np.ndarray:
    """Multiply the contiguous (..., K) activations of an array of cosines, in place, by their
    slopes over the activations themselves, ``-(cos - mu) / (sigma sigma)``, and return them.

    The slopes are built a tile chunk at a time, so no buffer of the activations' size is
    allocated; each product is the activation times its slope, which IEEE multiplication
    gives the bits of the slope times the activation.
    """
    c = np.asarray(cos_values, dtype=np.float64).ravel()
    flat = acts.reshape(-1)
    size = bank.size
    means, _, var = bank.tiles
    for start in range(0, c.size, _TILE):
        d = c[start : start + _TILE].repeat(size)
        np.subtract(d, means[: d.size], out=d)
        np.divide(d, var[: d.size], out=d)
        part = flat[start * size : start * size + d.size]
        np.multiply(part, d, out=part)
    return acts


def pooled_sum(acts: np.ndarray) -> np.ndarray:
    """``acts.sum(axis=2)`` of a stack's contiguous (B, n, m, K) activations, bit for bit: the
    (B, n, K) pooled features."""
    b, n, m, size = acts.shape
    if size == 1:  # numpy sums a contiguous axis pairwise, einsum does not
        return acts.sum(axis=2)
    # the stack's B * n targets as the rows of one (B n, m, K) block: the same sums, and faster
    # than a four-index einsum
    return np.einsum("ijk->ik", acts.reshape(b * n, m, size)).reshape(b, n, size)


def bank_to_json(bank: KernelBank) -> dict:
    return {"means": bank.means.tolist(), "sigmas": bank.sigmas.tolist()}


def bank_from_json(obj: dict) -> KernelBank:
    return KernelBank(
        means=np.asarray(obj["means"], dtype=np.float64),
        sigmas=np.asarray(obj["sigmas"], dtype=np.float64),
    )

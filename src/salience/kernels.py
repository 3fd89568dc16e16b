"""Gaussian kernel pooling over cosine similarities.

Each kernel k turns a bag of similarities into one soft-count feature

    phi_k(target, context) = sum_j exp(-(cos(target, c_j) - mu_k)^2 / (2 sigma_k^2))

The default bank has one sharp exact-match kernel at mu=1 (sigma=1e-3) and
ten soft kernels with means spread over (-1, 1) at sigma=0.1, so the pooled
vector is a differentiable histogram of the similarity distribution.

Outputs are bitwise stable, so the kernel pass's operation order is
load-bearing.  ``gaussian_pool`` divides ``d * d`` (``d = cos - mu``) by
``-(2 sigma sigma)``, as the kernel slope in training divides by
``-(sigma sigma)``: IEEE division is sign-symmetric, ``(-a) / b == a / (-b)``,
so this is the textbook ``-(d * d) / (2 sigma sigma)`` with one pass fewer.
``pooled_sum`` is ``acts.sum(axis=1)``: for K >= 2 numpy adds each (i, k)'s
terms one after another and einsum does the same, while for K = 1 numpy sums
the contiguous context axis pairwise and einsum does not.
``tests/test_kernel_pass.py`` holds both to the first formulation.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError


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


def default_bank() -> KernelBank:
    means = [1.0] + [round(-0.9 + 0.2 * i, 1) for i in range(10)]
    sigmas = [1e-3] + [0.1] * 10
    return KernelBank(means=np.array(means), sigmas=np.array(sigmas))


def gaussian_pool(cos_values: np.ndarray, bank: KernelBank) -> np.ndarray:
    """Kernel activations for an array of cosines; shape (..., K)."""
    c = np.asarray(cos_values, dtype=np.float64)
    diff = c[..., None] - bank.means
    # in diff's own buffer; the negated divisor keeps the bits (module docstring)
    np.multiply(diff, diff, out=diff)
    np.divide(diff, -(2.0 * bank.sigmas * bank.sigmas), out=diff)
    return np.exp(diff, out=diff)


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

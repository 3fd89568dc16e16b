"""How fast the host runs right now, gauged by a fixed reference loop.

The benchmark shares its CPU with other tenants of the host.  Their load
slows every instruction of ours, by up to about 1.8x, in spells that last
from seconds to minutes, and the guest cannot see it: CPU time equals wall
time.  A statistic inside one run cannot undo a spell that covers the run.
So every timed stage is bracketed by this reference loop, and its time is
scaled by ``REFERENCE_S / reference time``: seconds on a host where the loop
takes ``REFERENCE_S``.

The loop runs nothing of ``salience``, so a change to the package cannot
move it.  It mixes the kinds of work the package does (interpreted Python
over dicts and lists, small numpy element-wise ops, BLAS products, JSON
encoding and decoding), times each part once and takes their geometric mean,
so that no single kind dominates.  Each part runs three times around a
stage and counts with its median, so that one timer interrupt does not skew
the scale.
"""
from __future__ import annotations

import json
import math
from time import perf_counter

import numpy as np

# The geometric mean of the part times, in seconds, on an idle spell of the
# host described in README.md (Steadiness).  Only a unit: any fixed value
# gives the same comparisons.
REFERENCE_S = 0.0002

_rng = np.random.default_rng(0)
_FLOATS = [float(x) for x in _rng.standard_normal(1500)]
_A = _rng.standard_normal((64, 128))
_B = _rng.standard_normal((128, 96))
_DOC = _rng.standard_normal((20, 128))
_ENT = _rng.standard_normal((30, 128))
_MU = np.linspace(-0.9, 1.0, 11)
_TABLE = [[round(x, 6) for x in _FLOATS[i : i + 128]] for i in range(0, 512, 128)]


def _python() -> object:
    totals: dict[int, float] = {}
    for i, x in enumerate(_FLOATS):
        key = i % 97
        totals[key] = totals.get(key, 0.0) + x
    return sorted(totals.items(), key=lambda kv: (-kv[1], kv[0]))


def _numpy() -> float:
    acc = 0.0
    for _ in range(2):
        diff = (_DOC @ _ENT.T)[..., None] - _MU
        acc += float(np.log1p(np.exp(-50.0 * diff * diff).sum(axis=1)).sum())
    return acc


def _blas() -> float:
    return sum(float((_A @ _B).sum() + (_B.T @ _A.T).sum()) for _ in range(2))


def _json() -> int:
    return len(json.loads(json.dumps(_TABLE)))


PARTS = (_python, _numpy, _blas, _json)


def reference_parts(repeats: int = 3) -> list[float]:
    """Median seconds of each part of the reference loop, run now."""
    times: list[list[float]] = [[] for _ in PARTS]
    for _ in range(repeats):
        for part, samples in zip(PARTS, times):
            started = perf_counter()
            part()
            samples.append(perf_counter() - started)
    return [sorted(samples)[len(samples) // 2] for samples in times]


def reference_s(before: list[float], after: list[float]) -> float:
    """Reference time around a stage: each part's mean, then their geometric mean."""
    return math.exp(sum(math.log((b + a) / 2.0) for b, a in zip(before, after)) / len(before))


def timed(fn, *args, **kwargs):
    """Run ``fn``; return (result, scaled seconds, reference seconds)."""
    before = reference_parts()
    started = perf_counter()
    result = fn(*args, **kwargs)
    elapsed = perf_counter() - started
    ref = reference_s(before, reference_parts())
    return result, elapsed * REFERENCE_S / ref, ref

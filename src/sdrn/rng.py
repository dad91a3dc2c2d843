"""Deterministic, platform-stable random streams.

All randomness flows through counter-based Philox generators keyed by a
master seed plus a path of string/integer labels, so any component (data
draw, noise draw, evaluation design, replication r of a simulation) can
recreate its own stream independently of execution order.  Normal and
Laplace variates use explicit inverse-CDF sampling on top of the raw
uniforms, which keeps byte-identical output across platforms and numpy
versions (the builtin ziggurat samplers make no such promise).  The
normal inverse is the standard library's ``NormalDist.inv_cdf``
(Wichura's AS241), so the draws depend on Python's ``statistics``
module and on no other numeric library.  ``hashlib`` and ``statistics``
are imported where they are used, so that ``fit`` and ``predict``, which
draw nothing, do not load them.
"""

from __future__ import annotations

import numpy as np

_TINY = 2.0 ** -53


def stream(seed: int, *path) -> np.random.Generator:
    """Generator keyed by ``(seed, *path)`` via SHA-256 into a Philox key."""
    import hashlib

    tag = ":".join([str(int(seed))] + [str(p) for p in path])
    digest = hashlib.sha256(tag.encode("utf-8")).digest()
    key = int.from_bytes(digest[:16], "little")
    return np.random.Generator(np.random.Philox(key=key))


def _open_uniform(gen: np.random.Generator, size) -> np.ndarray:
    """Uniforms on the open interval (0, 1); exact zeros are nudged up."""
    u = gen.random(size)
    return np.where(u == 0.0, _TINY, u)


def standard_normal(gen: np.random.Generator, size) -> np.ndarray:
    """N(0, 1) variates by inversion of the normal CDF."""
    from statistics import NormalDist

    u = _open_uniform(gen, size)
    return np.fromiter(map(NormalDist().inv_cdf, u.ravel().tolist()), float, u.size).reshape(u.shape)


def standard_laplace(gen: np.random.Generator, size) -> np.ndarray:
    """Laplace(0, 1) variates (variance 2) by CDF inversion."""
    v = _open_uniform(gen, size) - 0.5
    return -np.sign(v) * np.log1p(-2.0 * np.abs(v))

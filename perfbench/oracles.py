"""Computations the benchmark checks sdrn against, written apart from the package.

Nothing here imports sdrn: Model 1's regression function, the (m, R)
schedule, the basis ids in their documented order, exact tensor hats,
the basis count by polynomial convolution, the penalised objectives
with their gradients, the exact ridge minimiser and an exact Huber
minimiser by Newton's method.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


def model1_truth(X: np.ndarray) -> np.ndarray:
    """f1(x) = x1^2 + x2^2 + 1.5 sin(sqrt(1.5) pi (x1 + x2)) + x3 / (x1^2 + x2^2 + 1) + 1."""
    x1, x2, x3 = X[:, 0], X[:, 1], X[:, 2]
    r2 = x1 * x1 + x2 * x2
    return r2 + 1.5 * np.sin(math.sqrt(1.5) * math.pi * (x1 + x2)) + x3 / (r2 + 1.0) + 1.0


def schedule(n: int, c: int) -> tuple[int, int]:
    """(m, R) with base = floor(0.2 log2 n), in integers: floor(log2 n) // 5."""
    base = (n.bit_length() - 1) // 5
    m = max(base + c, 0)
    return m, 3 * max(base, m)


def level_size(level: int) -> int:
    return 2 if level == 0 else 2 ** (level - 1)


def basis_count(d: int, m: int) -> int:
    """Ids with level sum <= m: coefficients of (sum_l size(l) x^l)^d up to x^m."""
    per_level = [level_size(l) for l in range(m + 1)]
    poly = [1] + [0] * m
    for _ in range(d):
        poly = [sum(poly[i] * per_level[k - i] for i in range(k + 1)) for k in range(m + 1)]
    return sum(poly)


def basis_ids(d: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Level and node arrays (p, d) in the order (level sum, level vector, node vector)."""
    ids = []
    for levels in itertools.product(range(m + 1), repeat=d):
        if sum(levels) <= m:
            nodes = [(0, 1) if l == 0 else range(1, 2 ** l, 2) for l in levels]
            ids.extend((sum(levels), levels, s) for s in itertools.product(*nodes))
    ids.sort()
    return np.array([i[1] for i in ids]), np.array([i[2] for i in ids])


def exact_hats(levels: np.ndarray, nodes: np.ndarray, X: np.ndarray, chunk: int = 2000):
    """Rows of prod_j max(0, 1 - |x_j 2^l_j - s_j|) for unit-cube points X."""
    scale = 2.0 ** levels
    out = np.empty((X.shape[0], levels.shape[0]))
    for lo in range(0, X.shape[0], chunk):
        x = X[lo : lo + chunk, None, :]
        out[lo : lo + chunk] = np.prod(np.maximum(0.0, 1.0 - np.abs(x * scale - nodes)), axis=2)
    return out


def minmax_scale(X_fit: np.ndarray, X: np.ndarray) -> np.ndarray:
    lo, hi = X_fit.min(axis=0), X_fit.max(axis=0)
    return np.clip((X - lo) / (hi - lo), 0.0, 1.0)


def huber_objective(gamma, Phi, y, delta, kappa):
    """sum_i huber_delta(y_i - Phi_i gamma) + kappa/2 |gamma|^2 and its gradient."""
    r = Phi @ gamma - y
    a = np.abs(r)
    value = np.where(a <= delta, 0.5 * r * r, delta * a - 0.5 * delta * delta).sum()
    grad = Phi.T @ np.clip(r, -delta, delta) + kappa * gamma
    return float(value + 0.5 * kappa * gamma @ gamma), grad


def quadratic_objective(gamma, Phi, y, kappa) -> float:
    r = Phi @ gamma - y
    return float(r @ r + 0.5 * kappa * gamma @ gamma)


def ridge_minimiser(Phi, y, kappa) -> np.ndarray:
    """The unique minimiser of |y - Phi g|^2 + kappa/2 |g|^2: (2 Phi'Phi + kappa I) g = 2 Phi'y."""
    A = 2.0 * Phi.T @ Phi
    A[np.diag_indices_from(A)] += kappa
    return np.linalg.solve(A, 2.0 * Phi.T @ y)


def huber_minimiser(Phi, y, delta, kappa, max_iter: int = 100) -> np.ndarray:
    """Damped Newton on the Huber-ridge objective; the Hessian on the
    quadratic residuals is exact, so it stops once the active set settles."""
    gamma = np.zeros(Phi.shape[1])
    value, grad = huber_objective(gamma, Phi, y, delta, kappa)
    for _ in range(max_iter):
        inner = np.abs(Phi @ gamma - y) <= delta
        H = Phi[inner].T @ Phi[inner]
        H[np.diag_indices_from(H)] += kappa
        step = np.linalg.solve(H, grad)
        t = 1.0
        while True:
            cand = gamma - t * step
            new_value, new_grad = huber_objective(cand, Phi, y, delta, kappa)
            if new_value <= value - 1e-4 * t * (grad @ step) or t < 1e-8:
                break
            t *= 0.5
        done = value - new_value <= 1e-15 * abs(value)
        gamma, value, grad = cand, new_value, new_grad
        if done:
            break
    return gamma

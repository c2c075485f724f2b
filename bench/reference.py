"""Closed-form reference payments for per-capita all-log instances.

With log gain curves ``s_j * ln(X)``, a power money curve ``t**q``, per-capita
semantics and no external budget, every type's optimum has a closed form:

    x_j = w_j s_j / W,    t = (W / (q w_money)) ** (1 / q),    W = sum_j w_j s_j

so the mechanism's payments can be recomputed with numpy in O(n), without
the engine's solver, its excluded-mean loop or its finite differences.  The
benchmark compares the engine's outputs against these values with the
tolerance ``usvcg check`` uses (1e-6 relative, absolute below 1).
"""

from __future__ import annotations

import numpy as np

CHECK_TOL = 1e-6


def close(a, b, tol: float = CHECK_TOL) -> np.ndarray:
    """Element-wise version of ``usvcg check``'s comparison."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return np.abs(a - b) <= tol * np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))


def optimum(w: np.ndarray, wm: np.ndarray, scales: np.ndarray, q: float):
    """Optimal (shares, tax) for each row of alloc weights ``w``."""
    ws = w * scales
    big_w = ws.sum(axis=-1)
    return ws / big_w[..., None], (big_w / (q * wm)) ** (1.0 / q)


def _value(w, wm, x, t, scales, q):
    """Valuation of types (w, wm) at decisions (x, t); zero weights skip
    their good, as in ``usvcg.model.valuation``."""
    with np.errstate(divide="ignore", invalid="ignore"):
        gains = np.where(w > 0.0, w * scales * np.log(x * t[..., None]), 0.0)
    return gains.sum(axis=-1) - wm * t**q


def _excluded_means(alloc: np.ndarray, money: np.ndarray):
    n = len(money)
    ex_w = (alloc.sum(axis=0) - alloc) / (n - 1)
    ex_w /= ex_w.sum(axis=1, keepdims=True)
    return ex_w, (money.sum() - money) / (n - 1)


def pivots(alloc, money, scales, q):
    """Decision of the mean type and every agent's raw pivot payment."""
    alloc = np.asarray(alloc, dtype=float)
    money = np.asarray(money, dtype=float)
    scales = np.asarray(scales, dtype=float)
    n = len(money)
    x_star, t_star = optimum(alloc.mean(axis=0), money.mean(), scales, q)
    ex_w, ex_m = _excluded_means(alloc, money)
    x_ex, t_ex = optimum(ex_w, ex_m, scales, q)
    at_own = _value(ex_w, ex_m, x_ex, t_ex, scales, q)
    at_all = _value(ex_w, ex_m, np.broadcast_to(x_star, x_ex.shape),
                    np.full(n, t_star), scales, q)
    return x_star, float(t_star), (n - 1) * (at_own - at_all), ex_w, ex_m


def _sensitive(p, t_star, money, q):
    return -t_star + (t_star**q + p / money) ** (1.0 / q)


def us_vcg(alloc, money, scales, q):
    """(allocation, tax, raw pivots, payments) of ``run_us_vcg``."""
    x, t, raw, _, _ = pivots(alloc, money, scales, q)
    return x, t, raw, _sensitive(raw, t, np.asarray(money, dtype=float), q)


def _tangent_basis(m: int) -> np.ndarray:
    """Orthonormal basis (as columns) of {z : sum z = 0}."""
    return np.linalg.svd(np.eye(m) - 1.0 / m)[0][:, : m - 1]


def decision_map_norms(ex_w, ex_m, scales, q) -> np.ndarray:
    """Spectral norm of the analytic Jacobian of the optimum's feature
    vector (theta_j(spend_j), -f(t)) along the simplex tangent directions
    and the money-weight axis, one per excluded mean."""
    n, m = ex_w.shape
    big_w = ex_w @ scales
    c = 1.0 / q - 1.0
    # d ln(x_j t) / d w_k = delta_jk / w_j + c s_k / W ;  d / d w_money = -1 / (q w_money)
    d_log = np.eye(m)[None] / ex_w[:, :, None] + c * scales[None, None, :] / big_w[:, None, None]
    jac = np.empty((n, m + 1, m + 1))
    jac[:, :m, :m] = scales[None, :, None] * d_log
    jac[:, :m, m] = -scales[None, :] / (q * ex_m[:, None])
    jac[:, m, :m] = -scales[None, :] / (q * ex_m[:, None])
    jac[:, m, m] = big_w / (q * ex_m**2)
    basis = np.zeros((m + 1, m))
    basis[:m, : m - 1] = _tangent_basis(m)
    basis[m, m - 1] = 1.0
    return np.linalg.norm(jac @ basis, ord=2, axis=(1, 2))


def non_positive(alloc, money, scales, q, gamma: float, r: float = 0.0) -> np.ndarray:
    """Payments of ``non_positive_payments`` with the rebate
    (gamma^2 / n) (||D|| + 1) + r / n."""
    money = np.asarray(money, dtype=float)
    scales = np.asarray(scales, dtype=float)
    n = len(money)
    _, t, raw, ex_w, ex_m = pivots(alloc, money, scales, q)
    rebate = (gamma**2 / n) * (decision_map_norms(ex_w, ex_m, scales, q) + 1.0) + r / n
    return _sensitive(raw - rebate, t, money, q)

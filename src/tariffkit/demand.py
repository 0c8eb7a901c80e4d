"""Linear price-responsive demand with quadratic gross benefit.

A customer in class i consumes

    D_i(pi, w) = sigma_i * (b0 - B pi) + w_i

per period, where w_i is the class disturbance realization.  The matching
gross benefit is the quadratic whose gradient inverts this demand,

    S_i(q) = (sigma_i b0 + w_i)^T (sigma_i B)^{-1} q - q^T (sigma_i B)^{-1} q / 2,

so argmax_q { S_i(q) - pi^T q } = D_i(pi, w) exactly (integration constant
fixed to zero).  Classes are scaled copies of one shape: doubling sigma_i
doubles both demand and the maximized surplus at fixed prices.

Evaluation API (``oracle`` keeps an independent route; ``tariff``'s closed
forms read the matrices directly): ``demand`` gives per-customer demand
(G, C, N) for G rows of C classes, ``gross_benefit`` their benefits (G, C),
``aggregate_demand`` the population total (N,).

Demand is never clamped inside optimization; ``oracle.settlement_resim``
counts the (scenario, class) pairs whose unclamped demand goes negative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .scenario import as_price_vector


SIGMA_RULES = ("constant", "linear")  # the class_sigmas rules


def class_sigmas(n_classes: int, sigma_rule: str, class_counts) -> np.ndarray:
    """Per-class scale multipliers, normalized to population mean one.

    ``constant`` gives identical customers; ``linear`` gives sigma_i
    proportional to the class index (class n_classes is the largest
    consumer), the heterogeneity used by the cross-subsidy study.
    """
    counts = np.asarray(class_counts, dtype=float)
    if counts.shape != (n_classes,) or np.any(counts <= 0):
        raise ValueError("class_counts must be positive with one entry per class")
    if sigma_rule not in SIGMA_RULES:
        raise ValueError(f"unknown sigma_rule {sigma_rule!r}")
    if sigma_rule == "constant":
        raw = np.ones(n_classes)
    else:
        raw = np.arange(1, n_classes + 1, dtype=float)
    return raw * (counts.sum() / (counts @ raw))


@dataclass(frozen=True)
class DemandModel:
    """Population of customer classes sharing one demand shape.

    sigma : (C,) class scale multipliers, all positive
    base : (N,) unit-sigma intercept b0, kWh (class i baseline at price
        pi is sigma_i * (b0 - B pi))
    slope : (N, N) symmetric positive definite price response B, kWh per $/kWh
    class_counts : (C,) customers per class
    """

    sigma: np.ndarray
    base: np.ndarray
    slope: np.ndarray
    class_counts: np.ndarray

    def __post_init__(self):
        sigma = np.atleast_1d(np.asarray(self.sigma, dtype=float))
        base = np.atleast_1d(np.asarray(self.base, dtype=float))
        slope = np.atleast_2d(np.asarray(self.slope, dtype=float))
        counts = np.atleast_1d(np.asarray(self.class_counts, dtype=float))
        n = base.size
        if slope.shape != (n, n):
            raise ValueError(f"slope has shape {slope.shape}, expected ({n}, {n})")
        for name, arr in (("base", base), ("slope", slope)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} entries must be finite")
        if not np.allclose(slope, slope.T, rtol=0.0, atol=1e-12):
            raise ValueError("slope matrix must be symmetric")
        # Assumption 1 (expected demand strictly decreasing in price) concerns the symmetric part,
        # certified once for every caller: it has a Cholesky factor only if positive definite
        symmetric = (slope + slope.T) / 2.0
        try:
            np.linalg.cholesky(symmetric)
        except np.linalg.LinAlgError:
            min_eig = np.linalg.eigvalsh(symmetric).min()
            raise ValueError(f"slope matrix must be positive definite, min eig {min_eig}") from None
        if np.any(sigma <= 0.0) or not np.all(np.isfinite(sigma)):
            raise ValueError("sigma entries must be positive and finite")
        if sigma.shape != counts.shape:
            raise ValueError("sigma and class_counts must have one entry per class")
        if np.any(counts <= 0.0) or counts.sum() < 1.0:
            raise ValueError("class_counts must be positive with at least one customer in total")
        for arr in (sigma, base, slope, counts):
            arr.setflags(write=False)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "slope", slope)
        object.__setattr__(self, "class_counts", counts)

    @property
    def n_classes(self) -> int:
        return self.sigma.size

    @property
    def horizon(self) -> int:
        return self.base.size

    @property
    def customers(self) -> float:
        return float(self.class_counts.sum())

    @cached_property
    def sigma_total(self) -> float:
        return float(self.class_counts @ self.sigma)

    @cached_property
    def slope_inverse(self) -> np.ndarray:
        inv = np.linalg.inv(self.slope)
        inv = (inv + inv.T) / 2.0
        inv.setflags(write=False)
        return inv


def demand(model: DemandModel, sigma: np.ndarray, prices, disturbances) -> np.ndarray:
    """Per-customer demand sigma_c (b0 - B pi) + w for every (row, class), kWh.

    ``prices`` is (N,) or one vector per row (G, N); ``disturbances`` is
    (G, C, N), or one (C, N) block with (N,) prices, with ``sigma`` the (C,)
    scales of its classes.  Unclamped.
    """
    shortfall = model.base - prices @ model.slope.T
    return sigma[:, None] * shortfall[..., None, :] + disturbances


def aggregate_demand(model: DemandModel, prices, disturbances=None) -> np.ndarray:
    """Population demand summed over classes, kWh.

    ``disturbances`` is the (C, N) per-customer disturbance block.
    """
    prices = as_price_vector(prices, model.horizon)
    q = model.sigma_total * (model.base - model.slope @ prices)
    if disturbances is not None:
        q = q + model.class_counts @ np.asarray(disturbances, dtype=float)
    return q


def gross_benefit(model: DemandModel, sigma: np.ndarray, q: np.ndarray, disturbances) -> np.ndarray:
    """Gross benefit S_c(q) (G, C) of bundles ``q`` (G, C, N) laid out as in :func:`demand`, $."""
    u = q @ model.slope_inverse
    shifted = np.einsum("gcn,gcn->gc", disturbances, u) + sigma * (u @ model.base)
    return (shifted - 0.5 * np.einsum("gcn,gcn->gc", q, u)) / sigma


def calibrate(
    target_sales,
    target_price,
    elasticity: float,
    n_classes: int = 1,
    sigma_rule: str = "constant",
    *,
    total_customers: float = 1.0,
    class_counts=None,
    slope=None,
) -> DemandModel:
    """Build a model matching aggregate sales and a daily-energy elasticity.

    Parameters
    ----------
    target_sales : (N,) aggregate sales per period at the calibration price, kWh
    target_price : scalar flat price or (N,) price vector, $/kWh
    elasticity : price elasticity of total daily energy at the calibration
        point, imposed on a uniform proportional price change; must be negative
    n_classes, sigma_rule : class structure passed to :func:`class_sigmas`
    total_customers : population size (split equally unless class_counts given)
    slope : optional (N, N) price response replacing the calibrated one; the
        intercept is refit so sales still match, the elasticity is not imposed

    The slope is diagonal with each period's entry proportional to that
    period's sales, which gives every period the same own-price elasticity.
    Reproduces ``target_sales`` exactly at the calibration price and the
    elasticity target exactly; as elasticity tends to zero from below the
    slope vanishes linearly.
    """
    y = np.atleast_1d(np.asarray(target_sales, dtype=float))
    if np.any(y <= 0.0):
        raise ValueError("target_sales must be positive in every period")
    n = y.size
    if np.isscalar(target_price) or np.ndim(target_price) == 0:
        cal = np.full(n, float(target_price))
    else:
        cal = np.asarray(target_price, dtype=float)
    cal = as_price_vector(cal, n)
    if np.any(cal <= 0.0):
        raise ValueError("calibration prices must be positive")
    if not (elasticity < 0.0 and math.isfinite(elasticity)):
        raise ValueError(f"elasticity must be negative, got {elasticity}")

    if class_counts is None:
        class_counts = np.full(n_classes, float(total_customers) / n_classes)
    sigma = class_sigmas(n_classes, sigma_rule, class_counts)
    s_tot = float(np.asarray(class_counts, dtype=float) @ sigma)

    if slope is None:
        slope = np.diag(-elasticity * y / (s_tot * cal))
    base = y / s_tot + np.asarray(slope, dtype=float) @ cal
    return DemandModel(
        sigma=sigma,
        base=base,
        slope=slope,
        class_counts=class_counts,
    )

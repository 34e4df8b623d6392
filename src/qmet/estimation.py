"""Classical estimation primitives: Fisher information, CRB, worked examples.

Covers the single-parameter toolkit used throughout the package: Fisher
information of a parametrized pmf, the Cramer-Rao bound, the error
propagation formula, the exactly enumerable biased-coin MLE, the separable
vs GHZ phase-estimation scalings, and the Gibbs-state thermometry QFI.
Finite differences follow the same step rule as the density-matrix module.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .dense import _central_diff, default_fd_step

_PROB_FLOOR = 1e-12


@dataclass(frozen=True)
class Pmf:
    """Outcome labels with probabilities as functions of the parameter."""

    outcomes: tuple[tuple[object, Callable[[float], float]], ...]

    def __init__(self, outcomes):
        object.__setattr__(self, "outcomes", tuple((label, fn) for label, fn in outcomes))

    def probs(self, theta: float) -> np.ndarray:
        """Probability vector at theta, validated."""
        p = np.array([fn(theta) for _, fn in self.outcomes], dtype=float)
        if np.any(p < -_PROB_FLOOR):
            raise ValueError("negative probability at theta=%r" % theta)
        if abs(p.sum() - 1.0) > 1e-10:
            raise ValueError("probabilities sum to %r at theta=%r" % (p.sum(), theta))
        return p

    def labels(self) -> list:
        return [label for label, _ in self.outcomes]


@dataclass(frozen=True)
class EstimatorStats:
    """First two moments of an estimator around the true parameter."""

    mean: float
    variance: float
    mse: float
    bias: float

    def __post_init__(self) -> None:
        if abs(self.mse - (self.variance + self.bias ** 2)) > 1e-12:
            raise ValueError("mse does not decompose into variance + bias^2")


def fisher_information(pmf: Pmf, theta: float) -> float:
    """Classical Fisher information sum (dp/dtheta)^2 / p.

    Outcomes with probability below the support floor are dropped; the
    derivative is the shared central-difference rule.
    """
    p = pmf.probs(theta)
    dp = _central_diff(pmf.probs, theta, default_fd_step(theta))
    mask = p > _PROB_FLOOR
    if not np.any(mask):
        return 0.0
    return float(np.sum(dp[mask] ** 2 / p[mask]))


def crb(fi: float, n_rounds: int) -> float:
    """Cramer-Rao bound 1/(N * FI)."""
    if fi <= 0.0:
        raise ValueError("Fisher information must be positive, got %r" % fi)
    if n_rounds < 1:
        raise ValueError("need at least one round")
    return 1.0 / (n_rounds * fi)


def error_propagation(var_o: float, slope: float, nu: int) -> float:
    """First-order variance of an inverted mean-value estimate."""
    if slope == 0.0:
        raise ValueError("zero slope: the estimate cannot be inverted")
    if var_o < 0.0:
        raise ValueError("variance must be non-negative")
    if nu < 1:
        raise ValueError("need at least one round")
    return var_o / (nu * slope * slope)


def coin_mle_stats(p_true: float, n_flips: int) -> EstimatorStats:
    """Exact moments of the biased-coin MLE h/N by binomial enumeration."""
    if not 0.0 < p_true < 1.0:
        raise ValueError("coin probability must lie strictly inside (0, 1)")
    if not 1 <= n_flips <= 25:
        raise ValueError("exact enumeration supports 1 <= N <= 25 flips")
    mean = m2 = 0.0
    for heads in range(n_flips + 1):
        weight = math.comb(n_flips, heads) * p_true ** heads \
            * (1.0 - p_true) ** (n_flips - heads)
        est = heads / n_flips
        mean += weight * est
        m2 += weight * est * est
    bias = mean - p_true
    variance = m2 - mean * mean
    return EstimatorStats(mean=mean, variance=variance,
                          mse=variance + bias * bias, bias=bias)


def local_estimator_stats(pmf: Pmf, theta: float, n_rounds: int) -> EstimatorStats:
    """Exact moments of the locally optimized estimator at theta_0 = theta.

    The estimator adds the score-weighted outcome counts to theta_0,
    normalized by N times the Fisher information; its MSE saturates the CRB
    at the expansion point.  Evaluated by full multinomial enumeration, so
    N and the alphabet stay small.
    """
    k = len(pmf.outcomes)
    if not 1 <= n_rounds <= 12:
        raise ValueError("exact enumeration supports 1 <= N <= 12 rounds")
    if k > 6:
        raise ValueError("exact enumeration supports alphabets of at most 6")
    p = pmf.probs(theta)
    dp = _central_diff(pmf.probs, theta, default_fd_step(theta))
    mask = p > _PROB_FLOOR
    fi = float(np.sum(dp[mask] ** 2 / p[mask]))
    if fi <= 0.0:
        raise ValueError("Fisher information vanishes at theta=%r" % theta)
    score = np.where(mask, dp / np.maximum(p, _PROB_FLOOR), 0.0)
    mean = m2 = 0.0
    log_p = np.log(np.maximum(p, 1e-300))
    for counts in itertools.product(range(n_rounds + 1), repeat=k - 1):
        rest = n_rounds - sum(counts)
        if rest < 0:
            continue
        full = np.array(counts + (rest,), dtype=float)
        if np.any((full > 0) & ~mask):
            continue
        log_w = math.lgamma(n_rounds + 1) + float(np.dot(full, log_p)) \
            - float(sum(math.lgamma(c + 1) for c in full))
        weight = math.exp(log_w)
        est = theta + float(np.dot(full, score)) / (n_rounds * fi)
        mean += weight * est
        m2 += weight * est * est
    bias = mean - theta
    variance = m2 - mean * mean
    return EstimatorStats(mean=mean, variance=variance,
                          mse=variance + bias * bias, bias=bias)


def phase_qfi(n: int, kind: str) -> float:
    """QFI of n-probe phase estimation: n separable, n^2 for GHZ input."""
    if n < 1:
        raise ValueError("need at least one probe")
    if kind == "separable":
        return float(n)
    if kind == "ghz":
        return float(n * n)
    raise ValueError("unknown kind %r" % kind)


def gibbs_weights(energies: Sequence[float], temperature: float) -> np.ndarray:
    """Normalized Boltzmann weights at k_B = 1, stable under energy shifts."""
    if temperature <= 0.0:
        raise ValueError("temperature must be positive")
    e = np.asarray(energies, dtype=float)
    if e.size < 1:
        raise ValueError("need at least one energy level")
    w = np.exp(-(e - e.min()) / temperature)
    return w / w.sum()


def thermometry_qfi(energies: Sequence[float], temperature: float) -> float:
    """QFI of a Gibbs state with respect to temperature: Var(H)/T^4."""
    e = np.asarray(energies, dtype=float)
    w = gibbs_weights(e, temperature)
    mean = float(np.dot(w, e))
    var = float(np.dot(w, (e - mean) ** 2))
    return var / temperature ** 4


def heat_capacity(energies: Sequence[float], temperature: float) -> float:
    """d<H>/dT of the Gibbs state, equal to Var(H)/T^2."""
    e = np.asarray(energies, dtype=float)
    w = gibbs_weights(e, temperature)
    mean = float(np.dot(w, e))
    var = float(np.dot(w, (e - mean) ** 2))
    return var / temperature ** 2

"""Estimation-layer tests: Fisher information, exact estimator statistics."""

import numpy as np
import pytest

from qmet import dense, estimation
from qfi_reference import qfi_pure, qfi_spectral


def coin_pmf():
    return estimation.Pmf([
        ("heads", lambda th: th),
        ("tails", lambda th: 1.0 - th),
    ])


def test_pmf_validation():
    pmf = coin_pmf()
    np.testing.assert_allclose(pmf.probs(0.3), [0.3, 0.7])
    assert pmf.labels() == ["heads", "tails"]
    with pytest.raises(ValueError):
        pmf.probs(1.5)
    bad = estimation.Pmf([("a", lambda th: th), ("b", lambda th: 1.0 - 2 * th)])
    with pytest.raises(ValueError):
        bad.probs(0.2)


def test_coin_fisher_information():
    pmf = coin_pmf()
    for p in (0.3, 0.5, 0.8):
        np.testing.assert_allclose(
            estimation.fisher_information(pmf, p), 1.0 / (p * (1 - p)), rtol=1e-7)


def test_crb_and_error_propagation():
    np.testing.assert_allclose(estimation.crb(4.0, 100), 1.0 / 400.0)
    with pytest.raises(ValueError):
        estimation.crb(0.0, 10)
    np.testing.assert_allclose(
        estimation.error_propagation(0.36, -2.0, 900), 0.36 / (4.0 * 900))


def test_coin_mle_exact():
    st = estimation.coin_mle_stats(0.5, 10)
    np.testing.assert_allclose(st.mean, 0.5, atol=1e-12)
    np.testing.assert_allclose(st.variance, 0.025, atol=1e-12)
    np.testing.assert_allclose(st.bias, 0.0, atol=1e-12)
    np.testing.assert_allclose(st.mse, st.variance + st.bias ** 2, atol=1e-12)
    # the empirical frequency is unbiased with variance p(1-p)/N at any N
    for p in (0.3, 0.42, 0.8):
        for n in (1, 7, 20):
            st = estimation.coin_mle_stats(p, n)
            np.testing.assert_allclose(st.mean, p, atol=1e-12)
            np.testing.assert_allclose(st.variance, p * (1 - p) / n, atol=1e-12)


def test_estimator_stats_consistency_enforced():
    with pytest.raises(ValueError):
        estimation.EstimatorStats(mean=0.5, variance=0.1, mse=0.3, bias=0.1)


def test_local_estimator_saturates_crb_for_coin():
    pmf = coin_pmf()
    theta = 0.37
    st = estimation.local_estimator_stats(pmf, theta, 8)
    fi = estimation.fisher_information(pmf, theta)
    np.testing.assert_allclose(st.mse, estimation.crb(fi, 8), rtol=1e-9)
    np.testing.assert_allclose(st.bias, 0.0, atol=1e-9)


def test_phase_qfi_scaling():
    for n in range(1, 7):
        assert estimation.phase_qfi(n, "separable") == n
        assert estimation.phase_qfi(n, "ghz") == n ** 2
    with pytest.raises(ValueError):
        estimation.phase_qfi(3, "cat")


def test_phase_qfi_matches_dense_state():
    n = 4
    psi0 = dense.ghz(n)
    weights = np.array([bin(i).count("1") for i in range(2 ** n)], dtype=float)

    def fun(theta):
        return np.exp(-0.5j * theta * (n - 2 * weights)) * psi0

    np.testing.assert_allclose(
        qfi_pure(fun, 0.3), estimation.phase_qfi(n, "ghz"), rtol=1e-7)


def test_parity_readout_reaches_heisenberg_mse():
    # cos^2 parity fringes on a GHZ probe: nu rounds give MSE 1/(nu n^2)
    nu = 10
    for n in range(2, 7):
        theta = 0.9 / n
        pmf = estimation.Pmf([
            ("even", lambda th, n=n: np.cos(n * th / 2) ** 2),
            ("odd", lambda th, n=n: np.sin(n * th / 2) ** 2),
        ])
        st = estimation.local_estimator_stats(pmf, theta, nu)
        np.testing.assert_allclose(st.mse, 1.0 / (nu * n ** 2), rtol=1e-7)


def test_gibbs_weights():
    w = estimation.gibbs_weights([0.0, 1.3], 0.6)
    np.testing.assert_allclose(w.sum(), 1.0, atol=1e-12)
    np.testing.assert_allclose(w[1] / w[0], np.exp(-1.3 / 0.6), rtol=1e-12)


def test_thermometry_two_level():
    np.testing.assert_allclose(
        estimation.thermometry_qfi([0.0, 1.3], 0.6), 1.2025532626930089, rtol=1e-10)


def test_thermometry_matches_spectral_qfi():
    energies = [0.0, 0.7, 1.9]
    temp = 0.8

    def family(t):
        w = estimation.gibbs_weights(energies, t)
        return np.diag(w).astype(complex)

    want = qfi_spectral(family, temp)
    np.testing.assert_allclose(
        estimation.thermometry_qfi(energies, temp), want, rtol=1e-6)


def test_heat_capacity_link():
    energies = [0.0, 0.7, 1.9]
    temp = 0.8
    c = estimation.heat_capacity(energies, temp)
    np.testing.assert_allclose(
        estimation.thermometry_qfi(energies, temp), c / temp ** 2, rtol=1e-12)

"""Corrected-GHZ sensing tests: closed forms against the amplitude oracle."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qmet import ecc


def test_params_validation():
    p = ecc.EccParams(3, 1.0, 0.2, 0.1, 0.5)
    assert p.rounds == 5
    with pytest.raises(ValueError):
        ecc.EccParams(3, 1.0, 0.2, 0.3, 0.4)
    with pytest.raises(ValueError):
        ecc.EccParams(3, 1.0, 0.2, -0.1, 0.2)
    with pytest.raises(ValueError):
        ecc.EccParams(3, 1.0, 0.2, 0.1, 0.2, p=1.2)


@given(st.sampled_from(["omega", "gamma", "tau", "t", "xi", "p"]),
       st.sampled_from([float("inf"), float("-inf"), float("nan")]))
def test_params_reject_non_finite(field, value):
    kw = dict(n=2, omega=1.0, gamma=0.1, tau=0.1, t=0.5, xi=0.0, p=0.0)
    kw[field] = value
    with pytest.raises(ValueError, match="finite"):
        ecc.EccParams(**kw)


def test_no_ecc_noiseless_is_heisenberg():
    np.testing.assert_allclose(ecc.qfi_no_ecc(5, 1.0, 0.0, 0.5), 6.25, rtol=1e-12)
    np.testing.assert_allclose(ecc.qfi_no_ecc(2, 1.0, 0.0, 1.0), 4.0, rtol=1e-12)


def test_no_ecc_frozen_point():
    np.testing.assert_allclose(
        ecc.qfi_no_ecc(3, 1.0, 0.25, 0.4), 1.22754785325, rtol=1e-10)


def test_parity_single_round():
    p = ecc.EccParams(3, 1.0, 0.25, 0.2, 0.2)
    np.testing.assert_allclose(ecc.qfi_parity_ideal(p), 0.33204566827, rtol=1e-9)
    fam, q = ecc.amplitude_oracle(p, code="parity")
    np.testing.assert_allclose(ecc.qfi_parity_ideal(p), q, rtol=1e-6)


def test_parity_general_reduces_to_special_cases():
    base = dict(n=3, omega=1.0, gamma=0.2, tau=0.1, t=0.5)
    ideal = ecc.EccParams(**base)
    np.testing.assert_allclose(
        ecc.qfi_parity(ideal), ecc.qfi_parity_ideal(ideal), rtol=1e-12)
    anc = ecc.EccParams(**base, xi=0.04)
    q2, g = ecc.qfi_parity_noisy_ancilla(anc)
    np.testing.assert_allclose(ecc.qfi_parity(anc), q2, rtol=1e-12)
    np.testing.assert_allclose(q2, 2.1168914574, rtol=1e-9)
    np.testing.assert_allclose(g, 0.4628, atol=5e-5)
    imp = ecc.EccParams(**base, p=0.05)
    np.testing.assert_allclose(
        ecc.qfi_parity(imp), ecc.qfi_parity_imperfect(imp), rtol=1e-12)
    np.testing.assert_allclose(ecc.qfi_parity_imperfect(imp), 1.8145569235, rtol=1e-9)


def test_parity_general_frozen_points():
    p = ecc.EccParams(2, 1.0, 0.2, 0.1, 0.2, xi=0.3, p=0.05)
    np.testing.assert_allclose(ecc.qfi_parity(p), 0.13888558427, rtol=1e-9)
    p = ecc.EccParams(3, 1.0, 0.2, 0.05, 0.25, xi=0.01, p=0.02)
    np.testing.assert_allclose(ecc.qfi_parity(p), 0.51724909892, rtol=1e-9)


def test_parity_matches_oracle_with_noise():
    p = ecc.EccParams(2, 0.8, 0.35, 0.07, 0.14, xi=0.1, p=0.02)
    fam, q = ecc.amplitude_oracle(p, code="parity")
    np.testing.assert_allclose(ecc.qfi_parity(p), q, rtol=1e-6)


def test_syndrome_error_half_destroys_signal():
    clean = ecc.EccParams(3, 1.0, 0.2, 0.1, 0.5)
    half = ecc.EccParams(3, 1.0, 0.2, 0.1, 0.5, p=0.5)
    assert ecc.qfi_parity_imperfect(half) < 0.15 * ecc.qfi_parity_ideal(clean)


def test_fast_correction_recovers_heisenberg_scaling():
    # shrinking tau at fixed t pushes Q3/(n t)^2 toward (1 - 2p)^2
    p = ecc.EccParams(25, 1.0, 1.0, 1e-5, 1e-2, p=0.01)
    ratio = ecc.qfi_parity_imperfect(p) / (25 * 1e-2) ** 2
    np.testing.assert_allclose(ratio, (1 - 2 * 0.01) ** 2, atol=1e-4)


def test_bitflip_value_and_oracle():
    p = ecc.EccParams(3, 1.0, 0.2, 0.1, 0.3)
    np.testing.assert_allclose(ecc.qfi_bitflip(p), 0.778131379373, rtol=1e-9)
    fam, q = ecc.amplitude_oracle(p, code="bitflip")
    np.testing.assert_allclose(ecc.qfi_bitflip(p), q, rtol=1e-6)


def test_bitflip_needs_odd_n():
    with pytest.raises(ValueError):
        ecc.qfi_bitflip(ecc.EccParams(4, 1.0, 0.2, 0.1, 0.3))


def test_amplitude_oracle_none_matches_closed_form():
    p = ecc.EccParams(2, 1.0, 0.3, 0.2, 0.4)
    fam, q = ecc.amplitude_oracle(p, code="none")
    np.testing.assert_allclose(q, ecc.qfi_no_ecc(2, 1.0, 0.3, 0.4), rtol=1e-9)


def test_optimal_time():
    t_star, q_star = ecc.optimal_time(ecc.EccParams(25, 1.0, 0.05, 0.01, 1.0))
    np.testing.assert_allclose(t_star, 12000.0, rtol=1e-9)
    np.testing.assert_allclose(q_star, 12009.24, rtol=1e-6)
    t_star, q_star = ecc.optimal_time(ecc.EccParams(4, 1.0, 0.1, 0.01, 1.0))
    np.testing.assert_allclose(t_star, 37500.0, rtol=1e-9)
    np.testing.assert_allclose(q_star, 37557.03, rtol=1e-6)


def test_fisher_alpha_peak_reaches_qfi():
    p = ecc.EccParams(3, 1.0, 0.2, 0.05, 0.25)
    q = ecc.qfi_parity_ideal(p)
    best = max(np.linspace(0.0, np.pi, 601), key=lambda a: ecc.fisher_alpha(p, a))
    np.testing.assert_allclose(ecc.fisher_alpha(p, best), q, rtol=1e-6)
    assert ecc.fisher_alpha(p, best + 0.4) < q


def test_factors_magnitudes():
    f = ecc.factors(1.0, 0.2, 0.1)
    np.testing.assert_allclose(f.r, 0.999870842, rtol=1e-8)
    np.testing.assert_allclose(f.phi, 0.098032699, rtol=1e-8)
    assert 0.0 < f.r <= 1.0


def test_propagate_amplitudes_shapes_and_norm():
    p = ecc.EccParams(2, 1.0, 0.2, 0.1, 0.2)
    st = ecc.propagate_amplitudes(p, "parity", 1.0)
    assert st.a_vec.shape == (8,)
    assert st.b_vec.shape == (8,)
    # weight in branches the code cannot correct is dropped, so the norm
    # sits just below one by O((gamma tau)^2) per round
    norm = np.sum(np.abs(st.a_vec) ** 2) + np.sum(np.abs(st.b_vec) ** 2)
    assert norm <= 1.0 + 1e-12
    assert 1.0 - norm < 10 * p.rounds * (p.gamma * p.tau) ** 2

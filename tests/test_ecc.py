"""Corrected-GHZ sensing tests: closed forms against the amplitude oracle."""

import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qmet import checks, dense, ecc
from qfi_reference import qfi_spectral


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


@pytest.mark.parametrize("n, gamma", [(3, 50.0), (4, 30.0)])
def test_no_ecc_overdamped_matches_lindblad_oracle(n, gamma):
    # gamma t >> 1: x_pm^w y^(n-w) alone grows like e^{n |delta| t}
    want = checks.lindblad_ghz_qfi(n, 1.0, gamma, 1.0)
    np.testing.assert_allclose(ecc.qfi_no_ecc(n, 1.0, gamma, 1.0), want, rtol=1e-9)


@pytest.mark.parametrize("gamma", [100.0, 200.0])
def test_no_ecc_overdamped_matches_amplitude_oracle(gamma):
    p = ecc.EccParams(5, 1.0, gamma, 1.0, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        q = ecc.qfi_no_ecc(5, 1.0, gamma, 1.0)
    np.testing.assert_allclose(q, ecc.amplitude_oracle(p, "none")[1], rtol=1e-9)


@given(st.integers(1, 30), st.floats(-3.0, np.log10(200.0)), st.floats(0.1, 3.0))
def test_no_ecc_finite_without_warnings_up_to_gamma_t_200(n, log_gt, omega):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        q = ecc.qfi_no_ecc(n, omega, 10.0 ** log_gt, 1.0)
    assert np.isfinite(q) and 0.0 <= q <= n * n * (1.0 + 1e-9)


def test_no_ecc_deep_overdamped_stays_finite_and_falls():
    # cosh(|delta| t) overflows past |delta| t = 710; the damped entries do not.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        q = [ecc.qfi_no_ecc(5, 1.0, gamma, 1.0) for gamma in (700.0, 800.0, 1000.0)]
    assert 0.0 < q[2] < q[1] < q[0]
    p = ecc.EccParams(5, 1.0, 800.0, 0.1, 1.0)
    np.testing.assert_allclose(q[1], ecc.amplitude_oracle(p, "none")[1], rtol=1e-9)


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
    w, _ = ecc._coherence_dot(1.0, 0.2, 0.1)
    np.testing.assert_allclose(abs(w), 0.999870842, rtol=1e-8)
    np.testing.assert_allclose(np.angle(w), 0.098032699, rtol=1e-8)
    assert 0.0 < abs(w) <= 1.0


@pytest.mark.parametrize("gamma,xi", [(1e4, 0.0), (0.5, 1e4), (1e4, 1e4)])
def test_parity_oracle_past_cosh_overflow(gamma, xi):
    # gamma * tau or xi * tau = 1e3 > 710, where cosh and sinh overflow.
    p = ecc.EccParams(3, 1.0, gamma, 0.1, 1.0, xi=xi)
    np.testing.assert_allclose(ecc.amplitude_oracle(p, "parity")[1], ecc.qfi_parity(p),
                               rtol=1e-9)
    assert np.all(np.isfinite(ecc._xy_dot(1.0, gamma, 0.1)))
    assert np.all(np.isfinite(ecc._damped_cosh_sinh(gamma * 0.1)))


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


def _one_point_maps(params, code):
    """(kept, (S_a, S_b, dS_b)) of one point: its entry of the batched round maps."""
    [(index, kept, maps)] = ecc._round_maps(code, ecc._oracle_points(code, [params]))
    assert index.tolist() == [0]
    return kept, tuple(mat[0] for mat in maps)


def _per_round(params, code):
    """(a, b, db) by the literal loop on the kept rows: one application of the round maps per round."""
    kept, (step_a, step_b, dstep_b) = _one_point_maps(params, code)
    size = step_a.shape[0]
    a = np.zeros(size)
    a[0] = a[-1] = 0.5
    b, db = a.astype(complex), np.zeros(size, dtype=complex)
    for _ in range(params.rounds):
        a = step_a @ a
        b, db = step_b @ b, step_b @ db + dstep_b @ b
    if kept is None:
        return a, b, db
    dim = 2 ** (params.n + (code == "parity"))
    full = tuple(np.zeros(dim, dtype=vec.dtype) for vec in (a, b, db))
    for out, vec in zip(full, (a, b, db)):
        out[kept] = vec
    return full


def _dense_loop(maps, rounds):
    """(a, b, db) by the literal loop over the full register, from full round maps."""
    step_a, step_b, dstep_b = maps
    dim = step_a.shape[0]
    a = np.zeros(dim)
    a[0] = a[dim - 1] = 0.5
    b, db = a.astype(complex), np.zeros(dim, dtype=complex)
    for _ in range(rounds):
        a = step_a @ a
        b, db = step_b @ b, step_b @ db + dstep_b @ b
    return a, b, db


def _kept_size(params, code):
    """K, the number of rows the oracle keeps."""
    kept = _one_point_maps(params, code)[0]
    return 2 ** (params.n + (code == "parity")) if kept is None else kept.size


@pytest.mark.parametrize("code", ["none", "parity", "bitflip"])
def test_powered_propagation_matches_per_round_loop(code):
    # No squaring happens below K rounds, where the loops must agree bit for bit.
    rng = np.random.default_rng(1401)
    parity = code == "parity"
    for n in (1, 3, 5, 7) if code == "bitflip" else (1, 3, 5):
        dim = 2 ** (n + 1 if parity else n)
        for rounds in (1, dim - 1, dim, dim + 1, 2 * dim + 3, 3 * dim):
            tau = float(rng.uniform(0.01, 0.1))
            params = ecc.EccParams(n=n, omega=float(rng.uniform(0.5, 2.0)),
                                   gamma=float(rng.uniform(0.0, 0.2)), tau=tau, t=rounds * tau,
                                   xi=float(rng.uniform(0.0, 0.3)) * parity,
                                   p=float(rng.uniform(0.0, 0.05)) * parity)
            got = ecc.propagate_amplitudes(params, code, params.omega)
            squared = rounds >= _kept_size(params, code)
            for vec, ref in zip((got.a_vec, got.b_vec, got.db_vec), _per_round(params, code)):
                scale = np.max(np.abs(ref))
                assert scale > 1e-250
                if not squared:
                    assert np.array_equal(vec, ref)
                else:
                    assert np.max(np.abs(vec - ref)) <= 1e-10 * scale


def _maps_with_zero_rows(rng, dim, live):
    """Random round maps, non-zero only on the rows ``live``.

    step_a is column-stochastic, so the oracle's normalisation check holds;
    step_b is scaled to spectral radius 1, so its powers neither vanish nor
    overflow.  One live row of step_a is zeroed when there are several: a
    row is live if any of the three maps writes it.
    """
    step_a = np.zeros((dim, dim))
    rows_a = live[1:] if live.size > 2 else live
    step_a[rows_a] = rng.uniform(0.0, 1.0, (rows_a.size, dim))
    step_a /= step_a.sum(axis=0)
    step_b, dstep_b = (np.zeros((dim, dim), dtype=complex) for _ in range(2))
    for mat in (step_b, dstep_b):
        mat[live] = rng.normal(size=(live.size, dim)) + 1j * rng.normal(size=(live.size, dim))
    step_b /= np.max(np.abs(np.linalg.eigvals(step_b)))
    return step_a, step_b, dstep_b


@pytest.mark.parametrize("pattern", ["no-zero-rows", "two-live-rows", "random-rows"])
def test_live_row_propagation_matches_dense_loop(monkeypatch, pattern):
    # The oracle finds the rows a round map writes from its entries: here they
    # are anywhere, and in the last two patterns never rows 0 and dim - 1,
    # which it keeps as well.  Below K kept rows no squaring happens, but the
    # float mat-vec of a K x K block need not round like the dense one:
    # OpenBLAS moves real entries by an ulp when K is not a multiple of 4.
    # Hence 1e-14, not array_equal; rows no map writes must come out exactly
    # zero either way.
    rng = np.random.default_rng(2404)
    for dim in (8, 16, 32):
        for _ in range(3):
            if pattern == "no-zero-rows":
                live = np.arange(dim)
            else:
                size = 2 if pattern == "two-live-rows" else int(rng.integers(1, dim - 2))
                live = np.sort(rng.choice(np.arange(1, dim - 1), size, replace=False))
            maps = _maps_with_zero_rows(rng, dim, live)
            stacked = tuple(mat[None] for mat in maps)
            [(index, kept, blocks)] = ecc._keep_written_rows(stacked)
            if pattern == "no-zero-rows":
                assert kept is None and all(block is mat for block, mat in zip(blocks, stacked))
            else:
                assert kept.tolist() == [0, *live.tolist(), dim - 1]
            monkeypatch.setattr(ecc, "_round_maps", lambda *args: [(index, kept, blocks)])
            for rounds in (1, 2, dim - 1, dim, dim + 1, 3 * dim + 5, 1000):
                params = ecc.EccParams(n=dim.bit_length() - 1, omega=1.0, gamma=0.1, tau=0.1,
                                       t=rounds * 0.1)
                got = ecc.propagate_amplitudes(params, "none", params.omega)
                for vec, ref in zip((got.a_vec, got.b_vec, got.db_vec), _dense_loop(maps, rounds)):
                    assert vec.shape == ref.shape == (dim,)
                    assert not np.any(np.delete(vec, live)) and not np.any(np.delete(ref, live))
                    tol = 1e-14 if rounds < blocks[0].shape[1] else 1e-10
                    assert np.max(np.abs(vec - ref)) <= tol * np.max(np.abs(ref))


def test_parity_with_p_one_matches_dense_loop():
    # p = 1 resets every sensing qubit to the wrong value: the maps write rows
    # 1 and dim - 2, and neither holds the GHZ start, so the oracle keeps four
    # rows.  The reference maps are np.kron products, whose entries round
    # apart from the oracle's by up to 1e-14, hence 1e-12.
    rng = np.random.default_rng(2601)
    for n in (2, 3, 4):
        dim = 2 ** (n + 1)
        for rounds in (1, 2, 3, 4, 5, 9, 40):
            tau = float(rng.uniform(0.02, 0.1))
            params = ecc.EccParams(n=n, omega=float(rng.uniform(0.5, 2.0)),
                                   gamma=float(rng.uniform(0.05, 0.3)), tau=tau,
                                   t=rounds * tau, xi=float(rng.uniform(0.0, 0.3)), p=1.0)
            maps = _round_maps_reference(params, "parity", params.omega)
            written = np.flatnonzero(np.any(np.stack(maps) != 0, axis=(0, 2)))
            assert written.tolist() == [1, dim - 2]
            assert _one_point_maps(params, "parity")[0].tolist() == [
                0, 1, dim - 2, dim - 1]
            got = ecc.propagate_amplitudes(params, "parity", params.omega)
            for vec, ref in zip((got.a_vec, got.b_vec, got.db_vec), _dense_loop(maps, rounds)):
                assert not np.any(np.delete(vec, written))
                assert np.max(np.abs(vec - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_oracle_at_many_rounds_matches_bitflip_closed_form():
    # 1e5 rounds at n = 7: the per-round loop needs seconds for this point.
    params = ecc.EccParams(n=7, omega=1.0, gamma=0.05, tau=1e-8, t=1e-3)
    np.testing.assert_allclose(ecc.amplitude_oracle(params, "bitflip")[1],
                               ecc.qfi_bitflip(params), rtol=1e-9)


@given(st.sampled_from([3, 5, 7, 25]),
       st.floats(-8.0, 0.0), st.floats(-6.0, 0.0), st.integers(1, 1000),
       st.floats(0.0, 0.5), st.floats(0.0, 0.1))
def test_corrected_codes_obey_heisenberg_bound(n, log_gt, log_tau, rounds, xi, p):
    tau = 10.0 ** log_tau
    base = dict(n=n, omega=1.0, gamma=10.0 ** log_gt / tau, tau=tau, t=rounds * tau)
    hl = (n * base["t"]) ** 2
    for q in (ecc.qfi_bitflip(ecc.EccParams(**base)),
              ecc.qfi_parity(ecc.EccParams(**base, xi=xi, p=p))):
        assert np.isfinite(q)
        assert 0.0 <= q <= hl * (1 + 1e-9)


def test_bitflip_noiseless_is_heisenberg():
    np.testing.assert_allclose(ecc.qfi_bitflip(ecc.EccParams(5, 1.0, 0.0, 0.1, 1.0)),
                               25.0, rtol=1e-12)


@pytest.mark.parametrize("omega", [0.9, 1.1])
@pytest.mark.parametrize("z_abs", [0.5 * ecc._SERIES_CUT, 2.0 * ecc._SERIES_CUT, 0.5, 3.0])
def test_xy_dot_matches_central_difference(omega, z_abs):
    # gamma = 1 puts omega on both sides of the critical point omega = gamma;
    # |delta| * duration = z_abs on both sides of the series cut
    duration = z_abs / abs(omega * omega - 1.0) ** 0.5
    h = 1e-3

    def entries(w):
        return np.array(ecc._xy_dot(w, 1.0, duration)[:3])

    want = (entries(omega - 2 * h) - 8 * entries(omega - h)
            + 8 * entries(omega + h) - entries(omega + 2 * h)) / (12 * h)
    got = np.array(ecc._xy_dot(omega, 1.0, duration)[3:])
    np.testing.assert_allclose(got, want, rtol=1e-8, atol=1e-8 * duration)


@pytest.mark.parametrize("code,params", [
    ("parity", ecc.EccParams(2, 0.8, 0.35, 0.07, 0.21, xi=0.1, p=0.02)),
    ("parity", ecc.EccParams(3, 1.1, 0.2, 0.1, 0.2, xi=0.3, p=0.05)),
    ("parity", ecc.EccParams(4, 1.0, 0.25, 0.05, 0.1, xi=0.2, p=0.08)),
    ("bitflip", ecc.EccParams(3, 1.0, 0.5, 0.1, 0.4)),
])
def test_tangent_oracle_matches_finite_difference_family(code, params):
    family, q = ecc.amplitude_oracle(params, code)
    np.testing.assert_allclose(q, qfi_spectral(family, params.omega), rtol=1e-6)


def test_small_gamma_tau_closed_forms_match_oracle():
    for n in (3, 5, 7):
        p = ecc.EccParams(n, 1.0, 0.05, 1e-5, 1e-2)
        q = ecc.qfi_bitflip(p)
        assert q <= (n * p.t) ** 2
        np.testing.assert_allclose(q, ecc.amplitude_oracle(p, "bitflip")[1], rtol=1e-8)
    p = ecc.EccParams(25, 1.0, 0.2, 1e-6, 1e-5, xi=0.05)
    assert 0.99 < ecc.qfi_parity(p) / (25 * p.t) ** 2 <= 1.0


def _round_maps_reference(params, code, omega):
    """The round maps as np.kron powers times a dense correction matrix C."""
    def kron_power(mat, k):
        out = np.array([[1.0]], dtype=mat.dtype)
        for _ in range(k):
            out = np.kron(out, mat)
        return out

    n, xi, p, tau = params.n, params.xi, params.p, params.tau
    xp, xm, y, dxp, dxm, dy = ecc._xy_dot(omega, params.gamma, tau)
    cg, sg = ecc._damped_cosh_sinh(params.gamma * tau)
    mat_a = kron_power(np.array([[cg, sg], [sg, cg]]), n)
    one_b, one_db = np.array([[xm, y], [y, xp]]), np.array([[dxm, dy], [dy, dxp]])
    mat_b, dmat_b = np.ones((1, 1), dtype=complex), np.zeros((1, 1), dtype=complex)
    for _ in range(n):
        mat_b, dmat_b = np.kron(mat_b, one_b), np.kron(dmat_b, one_b) + np.kron(mat_b, one_db)
    if code == "parity":
        cx, sx = ecc._damped_cosh_sinh(xi * tau)
        anc = np.array([[cx, sx], [sx, cx]])
        mat_a, mat_b, dmat_b = (np.kron(m, anc) for m in (mat_a, mat_b, dmat_b))
        reset0 = kron_power(np.array([[1.0 - p, 1.0 - p], [p, p]]), n)
        reset1 = kron_power(np.array([[p, p], [1.0 - p, 1.0 - p]]), n)
        corr = np.kron(reset0, np.diag([1.0, 0.0])) + np.kron(reset1, np.diag([0.0, 1.0]))
    elif code == "bitflip":
        dim = 2 ** n
        low = np.array([bin(j).count("1") for j in range(dim)]) < n / 2
        corr = np.zeros((dim, dim))
        corr[0, low] = 1.0
        corr[dim - 1, ~low] = 1.0
    else:
        corr = np.eye(2 ** n)
    return corr @ mat_a, corr @ mat_b, corr @ dmat_b


def _kron_power_dot_block_writes(one, done, n):
    """Reference for ecc._kron_power_dot: each step writes the four blocks one[r, c] P in place."""
    dtype = np.result_type(one, one if done is None else done)
    mats = [np.ones((1, 1), dtype=dtype)] + ([] if done is None else [np.zeros((1, 1), dtype)])
    for _ in range(n):
        k = mats[0].shape[0]
        nxt = [np.empty((2, k, 2, k), dtype=dtype) for _ in mats]
        for r, c in ((0, 0), (0, 1), (1, 0), (1, 1)):
            for new, mat in zip(nxt, mats):
                np.multiply(one[r, c], mat, out=new[r, :, c])
            if done is not None:
                nxt[1][r, :, c] += done[r, c] * mats[0]
        mats = [new.reshape(2 * k, 2 * k) for new in nxt]
    return mats


@pytest.mark.parametrize("kinds", [("real", None), ("real", "real"), ("complex", None),
                                   ("complex", "complex"), ("real", "complex")])
def test_kron_power_dot_matches_block_writes_bit_for_bit(kinds):
    rng = np.random.default_rng(2000)

    def draw(kind):
        if kind is None:
            return None
        return rng.normal(size=(2, 2)) + (1j * rng.normal(size=(2, 2)) if kind == "complex" else 0)

    for n in range(1, 9):
        one, done = draw(kinds[0]), draw(kinds[1])
        got = ecc._kron_power_dot(one, done, n)
        want = _kron_power_dot_block_writes(one, done, n)
        assert len(got) == len(want) == (1 if done is None else 2)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and np.array_equal(g, w), n


@pytest.mark.parametrize("code", ["none", "parity", "bitflip"])
def test_round_maps_match_dense_correction_product(code):
    # The kept block must be the reference's block at the kept rows and
    # columns, and the reference must write no other row.
    rng = np.random.default_rng(2001)
    parity = code == "parity"
    for n in range(1, 8):
        if code == "bitflip" and n % 2 == 0:
            continue
        for _ in range(3):
            tau = float(rng.uniform(0.01, 0.3))
            params = ecc.EccParams(n=n, omega=float(rng.uniform(0.5, 2.0)),
                                   gamma=float(rng.uniform(0.0, 1.0)), tau=tau, t=tau,
                                   xi=float(rng.uniform(0.0, 0.5)) * parity,
                                   p=float(rng.uniform(0.0, 0.1)) * parity)
            kept, got = _one_point_maps(params, code)
            ref = _round_maps_reference(params, code, params.omega)
            dim = ref[0].shape[0]
            if code == "bitflip":
                assert kept.tolist() == [0, dim - 1]
            else:
                assert kept is None
            rows = np.arange(dim) if kept is None else kept
            for mat, full in zip(got, ref):
                assert mat.shape == (rows.size, rows.size)
                np.testing.assert_allclose(mat, full[np.ix_(rows, rows)], rtol=0, atol=1e-14)
                assert not np.any(np.delete(full, rows, axis=0))


def _bitflip_maps_full(params, omega):
    """The bit-flip round maps on the full register: full Kronecker powers, then the vote's row sums.

    Each vote sum adds one column's rows as one contiguous array, pairwise, as the oracle does.
    """
    n = params.n
    xp, xm, y, dxp, dxm, dy = ecc._xy_dot(omega, params.gamma, params.tau)
    cg, sg = ecc._damped_cosh_sinh(params.gamma * params.tau)
    mats = (_kron_power_dot_block_writes(np.array([[cg, sg], [sg, cg]]), None, n)
            + _kron_power_dot_block_writes(np.array([[xm, y], [y, xp]]),
                                           np.array([[dxm, dy], [dy, dxp]]), n))
    low = np.array([bin(j).count("1") for j in range(2 ** n)]) < n / 2
    out = tuple(np.zeros(mat.shape, mat.dtype) for mat in mats)
    for step, mat in zip(out, mats):
        step[0], step[-1] = ([col[rows].sum() for col in mat.T] for rows in (low, ~low))
    return out


def test_bitflip_maps_are_the_full_construction_bit_for_bit():
    rng = np.random.default_rng(2602)
    for n in (1, 3, 5, 7, 9):
        for _ in range(4):
            tau = float(rng.uniform(0.001, 0.3))
            params = ecc.EccParams(n=n, omega=float(rng.uniform(0.5, 2.0)),
                                   gamma=float(rng.uniform(0.0, 1.0)), tau=tau, t=tau)
            kept, got = _one_point_maps(params, "bitflip")
            corners = np.ix_([0, 2 ** n - 1], [0, 2 ** n - 1])
            for mat, full in zip(got, _bitflip_maps_full(params, params.omega)):
                assert mat.dtype == full.dtype and np.array_equal(mat, full[corners])


def test_bitflip_maps_build_single_columns_only(monkeypatch):
    shapes = []
    kron_power_dot = ecc._kron_power_dot

    def recording(one, done, n):
        shapes.append((one.shape, None if done is None else done.shape))
        return kron_power_dot(one, done, n)

    monkeypatch.setattr(ecc, "_kron_power_dot", recording)
    for n in (1, 3, 7, 11):
        shapes.clear()
        params = ecc.EccParams(n=n, omega=1.0, gamma=0.3, tau=0.05, t=0.5)
        assert ecc.amplitude_oracle(params, "bitflip")[1] > 0
        # One call per sector, each over the batch axes (point, column): single columns only.
        assert shapes == [((1, 2, 2, 1), None), ((1, 2, 2, 1), (1, 2, 2, 1))]


@pytest.mark.parametrize("n", [9, 11, 13])
def test_bitflip_oracle_past_n8_matches_closed_form(n):
    for tau, rounds in ((0.01, 30), (0.05, 7), (0.002, 1000)):
        params = ecc.EccParams(n=n, omega=1.0, gamma=0.5, tau=tau, t=rounds * tau)
        np.testing.assert_allclose(ecc.amplitude_oracle(params, "bitflip")[1],
                                   ecc.qfi_bitflip(params), rtol=1e-8)


@pytest.mark.parametrize("code,cap", [("none", 8), ("parity", 8), ("bitflip", 15)])
def test_oracle_refuses_n_past_its_code_cap(monkeypatch, code, cap):
    def forbidden(*args):
        raise AssertionError("built a round map past the cap")

    n = cap + 2
    params = ecc.EccParams(n=n, omega=1.0, gamma=0.3, tau=0.05, t=0.1)
    monkeypatch.setattr(ecc, "_round_maps", forbidden)
    with pytest.raises(ValueError, match=r"%s oracle limited to n <= %d, got n = %d" % (code, cap, n)):
        ecc.propagate_amplitudes(params, code, 1.0)


def test_block_qfi_matches_dense_spectral_qfi():
    # gamma tau >= 0.005 keeps every block well away from a pure state.
    rng = np.random.default_rng(2002)
    for i in range(120):
        code = ("none", "parity", "bitflip")[i % 3]
        parity = code == "parity"
        n = int(rng.choice([1, 3, 5])) if code == "bitflip" else int(rng.integers(1, 6))
        tau = float(rng.uniform(0.05, 0.3))
        params = ecc.EccParams(n=n, omega=float(rng.uniform(0.5, 2.0)),
                               gamma=float(rng.uniform(0.1, 1.0)), tau=tau,
                               t=int(rng.integers(1, 20)) * tau,
                               xi=float(rng.uniform(0.0, 0.5)) * parity,
                               p=float(rng.uniform(0.0, 0.1)) * parity)
        st = ecc.propagate_amplitudes(params, code, params.omega)
        drho = replace(st, a_vec=np.zeros_like(st.a_vec), b_vec=st.db_vec).density()
        want = dense.sld_qfi(dense.as_density(st.density()), drho)
        assert want > 0
        np.testing.assert_allclose(dense.sld_qfi(*st.blocks()), want, rtol=1e-12)


def test_amplitude_oracle_shares_no_closed_form_path(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the amplitude oracle reached a closed-form or dense-state path")

    # ecc no longer binds as_density; dense.as_density is where any call would land.
    monkeypatch.setattr(dense, "as_density", forbidden)
    for name in ("_power_dot", "_z_recurrence", "_z_majority", "_qfi_of_amplitude",
                 "_qfi_from_logs", "_ideal_logs", "_coherence_dot", "_points", "_parity",
                 "_parity_ideal", "_parity_imperfect", "_parity_general", "_bitflip",
                 "_weight_classes", "_ordered_sum", "qfi_sweep", "qfi_no_ecc"):
        monkeypatch.setattr(ecc, name, forbidden)
    for code in ("none", "parity", "bitflip"):
        params = ecc.EccParams(3, 1.0, 0.2, 0.1, 0.5, xi=0.1 * (code == "parity"))
        assert ecc.amplitude_oracle(params, code)[1] > 0
        assert np.all(ecc.oracle_sweep(code, [params, replace(params, t=2.0)]) > 0)


def test_amplitude_oracle_rejects_negative_block_eigenvalue(monkeypatch):
    # Block [[0.5, 0.9], [0.9, 0.5]] has eigenvalue -0.4: not a state.
    bad = ecc.AmplitudeOracleState(np.array([0.5, 0.5]), np.array([0.9, 0.9], dtype=complex),
                                   np.zeros(2, dtype=complex))
    with pytest.raises(ValueError, match="negative eigenvalue"):
        dense.sld_qfi(*bad.blocks())
    monkeypatch.setattr(ecc, "_propagate", lambda *args: [
        (np.array([0]), None, bad.a_vec[None], bad.b_vec[None], bad.db_vec[None])])
    with pytest.raises(ValueError, match="negative eigenvalue"):
        ecc.amplitude_oracle(ecc.EccParams(1, 1.0, 0.2, 0.1, 0.1), "none")


def _sweep_points(rng, code, count):
    """Seeded points that share n; parity points mix its three routes (xi = 0 and p = 0 or not)."""
    n = int(rng.choice([1, 3, 5, 25])) if code == "bitflip" else int(rng.integers(1, 26))
    points = []
    for i in range(count):
        tau = float(10.0 ** rng.uniform(-6, -0.5))
        xi = float(rng.uniform(0.0, 0.5)) if code == "parity" and i % 3 == 2 else 0.0
        p = float(rng.uniform(0.0, 1.0)) if code == "parity" and i % 3 else 0.0
        points.append(ecc.EccParams(n, float(rng.uniform(0.2, 2.0)),
                                    float(10.0 ** rng.uniform(-3, 0.5)), tau,
                                    int(10.0 ** rng.uniform(0, 5)) * tau, xi=xi, p=p))
    return points


@pytest.mark.parametrize("code,one_point", [
    ("none", lambda q: ecc.qfi_no_ecc(q.n, q.omega, q.gamma, q.t)),
    ("parity", ecc.qfi_parity),
    ("bitflip", ecc.qfi_bitflip),
])
def test_qfi_sweep_is_its_one_point_function_bit_for_bit(code, one_point):
    rng = np.random.default_rng(2701)
    for _ in range(6):
        points = _sweep_points(rng, code, 30)
        got = ecc.qfi_sweep(code, points)
        assert got.shape == (30,)
        assert np.array_equal(got, [one_point(q) for q in points])
    q = points[0]
    assert np.array_equal(ecc.qfi_no_ecc(q.n, np.full((2, 3), q.omega), np.full((2, 3), q.gamma),
                                         np.full((2, 3), q.t)),
                          np.full((2, 3), ecc.qfi_no_ecc(q.n, q.omega, q.gamma, q.t)))


def test_qfi_sweep_rejects_mixed_n_and_unknown_codes():
    points = [ecc.EccParams(3, 1.0, 0.2, 0.1, 0.5), ecc.EccParams(5, 1.0, 0.2, 0.1, 0.5)]
    with pytest.raises(ValueError, match="share n"):
        ecc.qfi_sweep("none", points)
    with pytest.raises(ValueError, match="code must be one of"):
        ecc.qfi_sweep("steane", points[:1])


def test_power_dot_matches_matrix_power_per_point_bit_for_bit():
    rng = np.random.default_rng(2702)
    exponents = np.array([0, 1, 2, 3, 4, 5, 7, 8, 13, 64, 1000, 3], dtype=float)
    mats, dmats, heads, dheads = (rng.normal(size=shape) + 1j * rng.normal(size=shape)
                                  for shape in ((12, 2, 2), (12, 2, 2), (12, 2), (12, 2)))
    mats /= 2.0     # keeps the powers finite
    got, dgot = ecc._power_dot(mats, dmats, exponents, heads, dheads)
    for i, k in enumerate(exponents):
        block = np.block([[mats[i], dmats[i]], [np.zeros((2, 2)), mats[i]]])
        want = np.linalg.matrix_power(block, int(k)) @ np.concatenate([dheads[i], heads[i]])
        assert np.array_equal(got[i], want[2:]) and np.array_equal(dgot[i], want[:2])


def test_oracle_hands_sld_qfi_only_the_kept_blocks(monkeypatch):
    seen = []
    sld_qfi = ecc.sld_qfi

    def recording(rho, drho):
        seen.append(rho.shape[0])
        return sld_qfi(rho, drho)

    monkeypatch.setattr(ecc, "sld_qfi", recording)
    for code, n, p, blocks in (("bitflip", 7, 0.0, 1), ("bitflip", 13, 0.0, 1),
                               ("parity", 4, 0.0, 1), ("parity", 4, 1.0, 2),
                               ("parity", 3, 0.3, 8), ("none", 4, 0.0, 8)):
        seen.clear()
        params = ecc.EccParams(n, 1.0, 0.3, 0.05, 0.5, p=p)
        assert ecc.amplitude_oracle(params, code)[1] > 0
        assert seen == [blocks]


def test_kept_block_qfi_is_the_all_block_qfi_bit_for_bit():
    rng = np.random.default_rng(2703)
    for code, ns in (("none", (1, 2, 4)), ("parity", (1, 3, 5)), ("bitflip", (1, 3, 7))):
        for i in range(12):
            tau = float(rng.uniform(0.01, 0.3))
            p = (0.0, 1.0, float(rng.uniform(0.0, 0.2)))[i % 3] if code == "parity" else 0.0
            params = ecc.EccParams(int(rng.choice(ns)), float(rng.uniform(0.5, 2.0)),
                                   float(rng.uniform(0.05, 1.0)), tau,
                                   int(rng.integers(1, 40)) * tau, p=p,
                                   xi=float(rng.uniform(0.0, 0.5)) * (code == "parity"))
            state = ecc.propagate_amplitudes(params, code, params.omega)
            every = replace(state, kept=None).blocks()
            assert ecc.amplitude_oracle(params, code)[1] == dense.sld_qfi(*every)


def test_bitflip_vote_keeps_column_sums_at_one_to_n15():
    for n in (7, 11, 15):
        params = ecc.EccParams(n, 1.0, 0.5, 0.01, 0.01)
        _, (step_a, _, _) = _one_point_maps(params, "bitflip")
        assert np.abs(step_a.sum(axis=0) - 1.0).max() < 4e-15


@pytest.mark.parametrize("n,rounds", [(15, 1000), (11, 10 ** 4), (13, 10 ** 4)])
def test_bitflip_oracle_holds_normalisation_at_many_rounds(n, rounds):
    params = ecc.EccParams(n, 1.0, 0.5, 0.01, rounds * 0.01)
    np.testing.assert_allclose(ecc.amplitude_oracle(params, "bitflip")[1],
                               ecc.qfi_bitflip(params), rtol=1e-8)


def _oracle_sweep_points(rng, code, n, count):
    """Seeded points at n: parity mixes p = 0, 0 < p < 1 and p = 1.

    Round counts run from 1 (below every K) to 10^5, log-uniform, wherever
    the points keep few rows; where every row of a register of more than 32
    rows is kept, they stay below 20, but for one point just above K at
    code none.
    """
    dim = 2 ** (n + (code == "parity"))
    points = []
    for i in range(count):
        p = (0.0, float(rng.uniform(0.01, 0.3)), 1.0)[i % 3] if code == "parity" else 0.0
        every_row = code == "none" or 0.0 < p < 1.0
        if i == 0:
            rounds = 1
        elif not every_row or dim <= 32:
            rounds = 10 ** 5 if i == 1 else int(10.0 ** rng.uniform(0, 5))
        else:
            rounds = dim + 3 if i == 1 and code == "none" else int(rng.integers(1, 20))
        tau = float(10.0 ** rng.uniform(-3, -1))
        points.append(ecc.EccParams(n, float(rng.uniform(0.5, 2.0)),
                                    float(10.0 ** rng.uniform(-2, 0.5)), tau, rounds * tau,
                                    xi=float(rng.choice([0.0, rng.uniform(0.0, 0.5)])) * (
                                        code == "parity"), p=p))
    return points


@pytest.mark.parametrize("code,ns", [("none", (1, 4, 8)), ("parity", (1, 2, 4, 8)),
                                     ("bitflip", (1, 3, 7, 15))])
def test_oracle_sweep_is_amplitude_oracle_bit_for_bit(code, ns):
    # Each code runs to its n cap; a point's bits must not depend on which
    # other points share its batch, nor on their order.
    rng = np.random.default_rng(2801)
    for n in ns:
        points = _oracle_sweep_points(rng, code, n, 9)
        got = ecc.oracle_sweep(code, points)
        assert got.shape == (9,) and np.all(np.isfinite(got))
        assert np.array_equal(got, [ecc.amplitude_oracle(q, code)[1] for q in points])
        assert np.array_equal(ecc.oracle_sweep(code, points[::-1]), got[::-1])
        assert np.array_equal(ecc.oracle_sweep(code, points[1::3] + points[::3]),
                              np.concatenate([got[1::3], got[::3]]))


def test_oracle_sweep_groups_parity_points_by_kept_rows(monkeypatch):
    # p = 0, 0 < p < 1 and p = 1 keep 2, every and 4 rows: three groups of one batch.
    groups = []
    round_maps = ecc._round_maps

    def recording(code, pts):
        out = round_maps(code, pts)
        groups.extend((index.tolist(), None if kept is None else kept.size) for index, kept, _ in out)
        return out

    monkeypatch.setattr(ecc, "_round_maps", recording)
    points = [ecc.EccParams(3, 1.0, 0.3, 0.05, 0.5, xi=0.2, p=p) for p in (0.0, 0.4, 1.0, 0.0, 0.7)]
    ecc.oracle_sweep("parity", points)
    assert sorted(groups) == [([0, 3], 2), ([1, 4], None), ([2], 4)]


def test_oracle_sweep_names_the_point_that_lost_normalisation():
    # At n = 11 and gamma tau = 0.005 the vote sums leave the guard by 10^6
    # rounds: the middle point of the batch fails, and so does the last one.
    points = [ecc.EccParams(11, 1.0, 0.5, 0.01, rounds * 0.01) for rounds in (10, 10 ** 6, 100)]
    with pytest.raises(ArithmeticError, match=r"lost normalisation at n=11, omega=1\.0, "
                       r"gamma=0\.5, tau=0\.01, t=10000\.0, xi=0\.0, p=0\.0$"):
        ecc.oracle_sweep("bitflip", points + [replace(points[1], t=10 ** 7 * 0.01)])
    assert np.all(ecc.oracle_sweep("bitflip", points[::2]) > 0)


def test_parity_oracle_check_runs_one_batch_per_n_and_case(monkeypatch):
    def one_point(*args):
        raise AssertionError("ecc-parity-oracle ran a one-point oracle")

    sweeps = []
    real = ecc.oracle_sweep
    monkeypatch.setattr(ecc, "amplitude_oracle", one_point)
    monkeypatch.setattr(ecc, "oracle_sweep",
                        lambda code, params: sweeps.append((code, params)) or real(code, params))
    (r,) = checks.run_checks(names=["ecc-parity-oracle"])
    assert r.ok, r.detail
    assert len(sweeps) == 12 and sum(len(params) for _, params in sweeps) == 108
    for code, params in sweeps:
        assert code == "parity" and len({q.n for q in params}) == 1
        assert len({(q.xi == 0.0, q.p == 0.0) for q in params}) == 1


def test_oracle_sweep_rejects_mixed_n_and_unknown_codes():
    points = [ecc.EccParams(3, 1.0, 0.2, 0.1, 0.5), ecc.EccParams(5, 1.0, 0.2, 0.1, 0.5)]
    with pytest.raises(ValueError, match="share n"):
        ecc.oracle_sweep("none", points)
    with pytest.raises(ValueError, match="code must be one of"):
        ecc.oracle_sweep("steane", points[:1])
    with pytest.raises(ValueError, match="majority vote needs odd n"):
        ecc.oracle_sweep("bitflip", [ecc.EccParams(4, 1.0, 0.2, 0.1, 0.5)])


def _points_by_attributes(params):
    """The closed forms' point columns as they were built before: per point, with ``rounds``."""
    columns = np.array([(q.omega, q.gamma, q.tau, q.t, q.xi, q.p, q.rounds) for q in params],
                       dtype=float).T
    return ecc._Points(params[0].n, *columns)


def test_points_columns_are_the_attribute_columns_bit_for_bit():
    rng = np.random.default_rng(2802)
    points = _sweep_points(rng, "parity", 200)
    # t/tau above 2^53, where a float's value is already an integer; and at x.5, rounded to even.
    points += [ecc.EccParams(points[0].n, 1.0, 0.1, 1e-3, 1e-3 * 2.0 ** k * m)
               for k in (53, 54, 60, 200) for m in (1.0, 1.5, 1.75)]
    points += [ecc.EccParams(points[0].n, 1.0, 0.1, 0.5, 0.5 * m) for m in (1, 2, 3, 7)]
    got, want = ecc._points(points), _points_by_attributes(points)
    assert got.n == want.n
    for column, reference in zip(got[1:], want[1:]):
        assert column.dtype == reference.dtype and np.array_equal(column, reference)
    assert np.array_equal(got.rounds, [float(q.rounds) for q in points])

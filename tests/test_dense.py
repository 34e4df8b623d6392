"""Dense-backbone tests: states, channels, integrator, spectral QFI."""

import itertools

import numpy as np
import pytest

from qmet import checks, dense, ecc
from qfi_reference import qfi_fidelity_limit, qfi_pure, qfi_spectral


def test_ket_msb_convention():
    v = dense.ket([1, 0])
    assert v.shape == (4,)
    np.testing.assert_allclose(v, [0, 0, 1, 0])


def test_ghz_and_plus_state():
    g = dense.ghz(3)
    np.testing.assert_allclose(np.linalg.norm(g), 1.0)
    np.testing.assert_allclose(g[0], g[-1])
    assert np.count_nonzero(g) == 2
    p = dense.plus_state(2)
    np.testing.assert_allclose(p, np.full(4, 0.5))


def test_kron_all_matches_numpy():
    rng = np.random.default_rng(1)
    mats = [rng.normal(size=(2, 2)) for _ in range(3)]
    want = np.kron(np.kron(mats[0], mats[1]), mats[2])
    assert np.array_equal(dense.kron_all(mats), want)
    shapes = [(2, 2), (1, 3), (4, 4), (3, 1), (2, 2)]
    mats = [rng.normal(size=s) + 1j * rng.normal(size=s) for s in shapes]
    want = np.array([[1.0 + 0j]])
    for j, m in enumerate(mats):
        want = np.kron(want, m)
        assert np.array_equal(dense.kron_all(mats[:j + 1]), want)
    assert dense.kron_all([]).shape == (1, 1)


def _random_density(rng, dim, k=None):
    shape = (dim, dim) if k is None else (k, dim, dim)
    a = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    rho = a @ a.conj().swapaxes(-1, -2)
    return rho / np.trace(rho, axis1=-2, axis2=-1)[..., None, None]


@pytest.mark.parametrize("m", [1, 2, 3])
def test_local_product_sum_matches_literal_combination_sum(m):
    rng = np.random.default_rng(60 + m)
    counts = [3, 1, 4][:m]
    pairs = [tuple(rng.normal(size=(k, 2, 2)) + 1j * rng.normal(size=(k, 2, 2))
                   for _ in range(2)) for k in counts]
    for rho in (_random_density(rng, 1 << m), _random_density(rng, 1 << m, k=3)):
        want = np.zeros_like(rho)
        for combo in itertools.product(*(range(k) for k in counts)):
            left = dense.kron_all([pairs[j][0][i] for j, i in enumerate(combo)])
            right = dense.kron_all([pairs[j][1][i] for j, i in enumerate(combo)])
            want += left @ rho @ right
        got = dense.local_product_sum(rho, pairs)
        assert got.shape == rho.shape
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_pure_and_as_density():
    rho = dense.pure(dense.ghz(2))
    np.testing.assert_allclose(np.trace(rho), 1.0)
    np.testing.assert_allclose(rho, rho.conj().T)
    out = dense.as_density(rho)
    np.testing.assert_allclose(out, rho)
    with pytest.raises(ValueError):
        dense.as_density(2.0 * rho)
    with pytest.raises(ValueError):
        dense.as_density(np.diag([1.5, -0.5]).astype(complex))


def test_hermitian_eig_reconstructs():
    rng = np.random.default_rng(2)
    a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    h = a + a.conj().T
    vals, vecs = dense.hermitian_eig(h)
    np.testing.assert_allclose(vecs @ np.diag(vals) @ vecs.conj().T, h, atol=1e-12)


def test_hermitian_expm_is_unitary_rotation():
    sx = dense.SX
    u = dense.hermitian_expm(sx, -1j * np.pi / 2)
    np.testing.assert_allclose(u @ u.conj().T, np.eye(2), atol=1e-14)
    np.testing.assert_allclose(u, -1j * sx, atol=1e-14)


_BLOCK = np.array([[0.6, 0.2], [0.2, 0.4]], dtype=complex)


@pytest.mark.parametrize("rho, match", [
    (np.array([[0.5, 0.3], [0.0, 0.5]], dtype=complex), "non-hermitian"),
    # Within hermitian_eig's bound, outside the state check's stricter one.
    (np.array([[0.5, 1e-9], [0.0, 0.5]], dtype=complex), "non-hermitian"),
    (2 * _BLOCK, "trace"),
    (np.array([[1.5, 0.0], [0.0, -0.5]], dtype=complex), "negative eigenvalue"),
    (np.ones((2, 3), dtype=complex), "square"),
    (np.stack([0.5 * _BLOCK, np.diag([0.75, -0.25])]), "negative eigenvalue"),
], ids=["non-hermitian", "slightly-non-hermitian", "trace", "negative", "shape",
        "stack-negative"])
def test_sld_qfi_rejects_bad_states_with_value_error(rho, match):
    with pytest.raises(ValueError, match=match) as info:
        dense.sld_qfi(rho, np.zeros_like(rho))
    assert type(info.value) is ValueError


def test_sld_qfi_measures_hermiticity_once(monkeypatch):
    calls = []
    real = dense._hermiticity
    monkeypatch.setattr(dense, "_hermiticity", lambda m: calls.append(m) or real(m))
    drho = np.array([[0.0, 0.1j], [-0.1j, 0.0]])
    q = dense.sld_qfi(_BLOCK, drho)
    assert len(calls) == 1
    w, v = np.linalg.eigh(_BLOCK)
    a = v.conj().T @ drho @ v
    assert q == pytest.approx(2 * np.sum(np.abs(a) ** 2 / (w[:, None] + w[None, :])),
                              rel=1e-14)


def test_fidelity_and_trace_distance_extremes():
    zero = dense.pure(dense.ket([0]))
    one = dense.pure(dense.ket([1]))
    np.testing.assert_allclose(dense.fidelity(zero, zero), 1.0, atol=1e-12)
    np.testing.assert_allclose(dense.fidelity(zero, one), 0.0, atol=1e-12)
    np.testing.assert_allclose(dense.trace_distance(zero, one), 1.0, atol=1e-12)
    np.testing.assert_allclose(dense.trace_distance(zero, zero), 0.0, atol=1e-12)


def test_fidelity_pure_states_is_overlap():
    psi = dense.ket([0])
    phi = (dense.ket([0]) + dense.ket([1])) / np.sqrt(2)
    f = dense.fidelity(dense.pure(psi), dense.pure(phi))
    np.testing.assert_allclose(f, 0.5, atol=1e-12)


def test_partial_trace_product_and_ghz():
    rho_a = dense.pure(dense.ket([1]))
    rho_b = dense.pure((dense.ket([0]) + dense.ket([1])) / np.sqrt(2))
    joint = np.kron(rho_a, rho_b)
    np.testing.assert_allclose(dense.partial_trace(joint, [0]), rho_a, atol=1e-12)
    np.testing.assert_allclose(dense.partial_trace(joint, [1]), rho_b, atol=1e-12)
    red = dense.partial_trace(dense.pure(dense.ghz(3)), [0])
    np.testing.assert_allclose(red, np.diag([0.5, 0.5]), atol=1e-12)


def test_lindblad_pure_dephasing_rate():
    # a single qubit with a Z jump at rate g: coherences decay as exp(-2 g t)
    plus = dense.pure(dense.plus_state(1))
    g, t = 0.3, 0.7
    rho = dense.evolve_lindblad(plus, np.zeros((2, 2)), [(dense.SZ, g)], t, tol=1e-12)
    np.testing.assert_allclose(rho[0, 1], 0.5 * np.exp(-2 * g * t), rtol=1e-9)
    np.testing.assert_allclose(np.trace(rho), 1.0, atol=1e-12)


def test_lindblad_unitary_only_matches_expm():
    psi0 = dense.plus_state(1)
    ham = 0.4 * dense.SZ
    t = 1.3
    u = dense.hermitian_expm(ham, -1j * t)
    want = dense.pure(u @ psi0)
    got = dense.evolve_lindblad(dense.pure(psi0), ham, [], t, tol=1e-12)
    np.testing.assert_allclose(got, want, atol=1e-10)


def _phase_family(n):
    psi0 = dense.ghz(n)
    weights = np.array([bin(i).count("1") for i in range(2 ** n)], dtype=float)

    def fun(theta):
        return np.exp(-0.5j * theta * (n - 2 * weights)) * psi0

    return fun


def test_qfi_pure_single_qubit_and_ghz():
    np.testing.assert_allclose(qfi_pure(_phase_family(1), 0.2), 1.0, rtol=1e-7)
    np.testing.assert_allclose(qfi_pure(_phase_family(4), 0.3), 16.0, rtol=1e-7)


def test_qfi_pure_rejects_norm_drift():
    def bad(theta):
        return (1.0 + theta) * dense.ghz(2)

    with pytest.raises(ValueError):
        qfi_pure(bad, 0.5)


def test_qfi_spectral_matches_pure_case():
    fun = _phase_family(3)

    def family(theta):
        return dense.pure(fun(theta))

    q = qfi_spectral(family, 0.4)
    np.testing.assert_allclose(q, 9.0, rtol=1e-6)


def test_qfi_spectral_dephased_qubit():
    # rotation of a partially dephased qubit: QFI = r^2 for a Bloch vector
    # of length r orthogonal to the rotation axis
    r = 0.6

    def family(theta):
        rho = 0.5 * (np.eye(2) + r * (np.cos(theta) * dense.SX + np.sin(theta) * dense.SY))
        return rho

    q = qfi_spectral(family, 0.3)
    np.testing.assert_allclose(q, r ** 2, rtol=1e-6)
    qf = qfi_fidelity_limit(family, 0.3)
    np.testing.assert_allclose(qf, r ** 2, rtol=1e-4)


def test_default_fd_step_scales():
    assert dense.default_fd_step(0.0) == pytest.approx(1e-5)
    assert dense.default_fd_step(100.0) == pytest.approx(1e-3)


def _two_qubit_tangent_case():
    """H(w) = H0 + w H1 with [H0, H1] != 0, a sigma-minus jump, mixed rho0."""
    sm = np.array([[0, 1], [0, 0]], dtype=complex)
    h0 = np.kron(dense.SX, dense.SX) + 0.3 * np.kron(dense.SZ, dense.ID2)
    h1 = np.kron(dense.SZ, dense.ID2) + 0.5 * np.kron(dense.SY, dense.SX)
    jumps = [(np.kron(sm, dense.ID2), 0.4), (np.kron(dense.ID2, dense.SZ), 0.15)]
    rng = np.random.default_rng(11)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho0 = a @ a.conj().T
    rho0 /= np.trace(rho0).real
    return h0, h1, jumps, rho0


def test_central_diff_falls_back_to_richardson():
    # At h = 0.1 the estimates at h and h/2 differ by about 1e-3 and 2e-2, far
    # above 1e-6, so the Richardson extrapolation is returned: within 4e-6 of
    # the exact derivative, relative, where the estimate at h/2 is off by 2e-3.
    def fun(x):
        return np.array([np.sin(x), np.exp(2.0 * x)])

    exact = np.array([np.cos(0.3), 2.0 * np.exp(0.6)])
    got = dense._central_diff(fun, 0.3, 0.1)
    assert np.all(np.abs(got - exact) <= 4e-6 * exact)
    plain = (fun(0.35) - fun(0.25)) / 0.1
    assert np.max(np.abs(plain - exact) / exact) > 1e-3


def test_lindblad_tangent_matches_central_difference():
    h0, h1, jumps, rho0 = _two_qubit_tangent_case()
    assert np.abs(h0 @ h1 - h1 @ h0).max() > 0.1
    w, t, tol = 0.7, 0.9, 1e-12
    rho, drho = dense.evolve_lindblad_tangent(rho0, h0 + w * h1, h1, jumps, t, tol=tol)

    def evolve(x):
        return dense.evolve_lindblad(rho0, h0 + x * h1, jumps, t, tol=tol)

    h = 1e-3
    fd = (8 * (evolve(w + h) - evolve(w - h)) - (evolve(w + 2 * h) - evolve(w - 2 * h))) / (12 * h)
    assert np.abs(drho - fd).max() <= 1e-7 * np.abs(fd).max()
    assert np.abs(rho - evolve(w)).max() <= tol
    np.testing.assert_allclose(np.trace(drho), 0.0, atol=1e-12)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("gamma", [0.0, 0.2])
def test_lindblad_ghz_qfi_matches_closed_form(n, gamma):
    omega, t = 0.9, 0.3
    want = ecc.qfi_no_ecc(n, omega, gamma, t)
    assert abs(checks.lindblad_ghz_qfi(n, omega, gamma, t) - want) <= 1e-9 * want


def test_lindblad_zero_rate_jumps_are_dropped():
    h0, h1, jumps, rho0 = _two_qubit_tangent_case()
    idle = [(op, 0.0) for op, _ in jumps]
    assert np.array_equal(dense.evolve_lindblad(rho0, h0, jumps + idle, 0.5),
                          dense.evolve_lindblad(rho0, h0, jumps, 0.5))
    for a, b in zip(dense.evolve_lindblad_tangent(rho0, h0, h1, idle, 0.5),
                    dense.evolve_lindblad_tangent(rho0, h0, h1, [], 0.5)):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("dim, jumps", [(2, 1), (4, 3), (8, 2), (16, 6), (32, 5)])
def test_liouvillian_matches_literal_jump_loop_bit_for_bit(dim, jumps):
    rng = np.random.default_rng(dim + jumps)

    def draw():
        return rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))

    ham, dham = draw(), draw()
    ham, dham = ham + ham.conj().T, dham + dham.conj().T
    ops = [(draw(), rate) for rate in rng.uniform(0.05, 2.0, size=jumps)]
    for force in (None, dham):
        gen = dense._liouvillian(dim, ham, ops, force)
        s = _random_density(rng, dim, k=1 if force is None else 2)
        want = gen.a @ s
        want += want.conj().swapaxes(-1, -2)
        for k, kd in zip(gen.kops, gen.kdag):
            want += (k @ s) @ kd
        if force is not None:
            f = gen.force @ s[0]
            want[1] += f + f.conj().T
        assert np.array_equal(gen(s), want)
        rate = 2.0 * float(np.linalg.norm(gen.a, 2))
        rate += sum(float(np.linalg.norm(k, 2)) ** 2 for k in gen.kops)
        assert gen.rate() == rate


@pytest.mark.parametrize("field, value, match", [
    ("t", np.inf, "time must be finite"),
    ("t", np.nan, "time must be finite"),
    ("t", -0.1, "negative"),
    ("ham", np.nan, "ham has non-finite"),
    ("dham", np.inf, "dham has non-finite"),
    ("ham", 1j, "ham is not Hermitian"),
    ("dham", 1j, "dham is not Hermitian"),
    ("op", np.nan, "jump operator has non-finite"),
    ("rate", np.nan, "rates must be finite"),
    ("rate", np.inf, "rates must be finite"),
    ("rate", -0.2, "non-negative"),
])
def test_lindblad_rejects_bad_input_before_stepping(monkeypatch, field, value, match):
    h0, h1, jumps, rho0 = _two_qubit_tangent_case()
    args = {"t": 0.5, "ham": h0.copy(), "dham": h1.copy(), "op": jumps[0][0].copy(),
            "rate": jumps[0][1]}
    if field in ("ham", "dham", "op"):
        args[field][1, 2] = value
    else:
        args[field] = value
    bad = [(args["op"], args["rate"])] + jumps[1:]

    def no_steps(*_):
        raise AssertionError("integrator ran on invalid input")

    monkeypatch.setattr(dense, "_taylor_run", no_steps)
    if field != "dham":
        with pytest.raises(ValueError, match=match):
            dense.evolve_lindblad(rho0, args["ham"], bad, args["t"])
    with pytest.raises(ValueError, match=match):
        dense.evolve_lindblad_tangent(rho0, args["ham"], args["dham"], bad, args["t"])


def test_lindblad_piece_cap_raises_before_running(monkeypatch):
    h0, h1, jumps, rho0 = _two_qubit_tangent_case()

    def no_pieces(*_):
        raise AssertionError("runner called past the piece cap")

    monkeypatch.setattr(dense, "_taylor_run", no_pieces)
    with pytest.raises(ArithmeticError, match=r"t \* rate = .* Taylor pieces"):
        dense.evolve_lindblad(rho0, h0, jumps, 1e9)
    with pytest.raises(ArithmeticError, match=r"t \* rate"):
        dense.evolve_lindblad_tangent(rho0, h0, h1, jumps, 1e9)


def test_lindblad_unitary_many_pieces_matches_expm():
    # |H| t = 40: about 80 Taylor pieces, each error carried to the end
    rng = np.random.default_rng(5)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    ham = a + a.conj().T
    ham /= np.linalg.norm(ham, 2)
    psi0 = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0][:, 0]
    t = 40.0
    want = dense.pure(dense.hermitian_expm(ham, -1j * t) @ psi0)
    got = dense.evolve_lindblad(dense.pure(psi0), ham, [], t, tol=1e-12)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)


def test_lindblad_stiff_dephasing_keeps_relative_accuracy():
    # gamma t = 20: the coherence falls to exp(-40) / 2 ~ 2e-18
    plus = dense.pure(dense.plus_state(1))
    g, t = 20.0, 1.0
    rho = dense.evolve_lindblad(plus, np.zeros((2, 2)), [(dense.SZ, g)], t, tol=1e-12)
    np.testing.assert_allclose(rho[0, 1], 0.5 * np.exp(-2 * g * t), rtol=1e-9)
    np.testing.assert_allclose(np.diag(rho), [0.5, 0.5], atol=1e-12)


def test_lindblad_tangent_strong_force_matches_central_difference(monkeypatch):
    # 2 |dH| t ~ 45 against |L| t ~ 1: the force term sets the piece count
    h0, h1, jumps, rho0 = _two_qubit_tangent_case()
    h0, h1 = 0.1 * h0, 10.0 * h1
    jumps = [(op, 0.1 * rate) for op, rate in jumps]
    w, t, tol = 0.02, 2.0, 1e-12

    def evolve(x):
        return dense.evolve_lindblad(rho0, h0 + x * h1, jumps, t, tol=tol)

    pieces = []
    run = dense._taylor_run

    def spy(state0, gen, duration, count, *rest):
        pieces.append(count)
        return run(state0, gen, duration, count, *rest)

    monkeypatch.setattr(dense, "_taylor_run", spy)
    rho, drho = dense.evolve_lindblad_tangent(rho0, h0 + w * h1, h1, jumps, t, tol=tol)
    assert pieces[0] >= 2 * np.linalg.norm(h1, 2) * t
    h = 1e-4
    fd = (8 * (evolve(w + h) - evolve(w - h)) - (evolve(w + 2 * h) - evolve(w - 2 * h))) / (12 * h)
    assert np.abs(fd).max() > 1.0
    assert np.abs(drho - fd).max() <= 1e-7 * np.abs(fd).max()
    assert np.abs(rho - evolve(w)).max() <= 1e-10

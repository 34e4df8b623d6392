"""Pauli/Clifford tableau tests against explicit matrices."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qmet import dense, pauli


def test_label_roundtrip_basics():
    p = pauli.PauliString.from_label("-XIZ")
    assert p.label() == "-XIZ"
    assert p.n == 3
    assert p.weight == 2
    assert p.support == 0b101
    q = pauli.PauliString.from_label("iYY")
    assert q.label() == "iYY"
    with pytest.raises(ValueError):
        pauli.PauliString.from_label("XQ")


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from("IXYZ"), min_size=1, max_size=6),
       st.sampled_from(["", "-", "i", "-i"]))
def test_label_roundtrip_random(letters, sign):
    label = sign + "".join(letters)
    assert pauli.PauliString.from_label(label).label() == label


def _kron_reference(p):
    """phase * X^x Z^z as a Kronecker product of 1-qubit factors, qubit 0 leftmost."""
    out = np.array([[p.phase]])
    for j in range(p.n):
        fac = dense.ID2
        if (p.x >> j) & 1:
            fac = fac @ dense.SX
        if (p.z >> j) & 1:
            fac = fac @ dense.SZ
        out = np.kron(out, fac)
    return out


def test_to_matrix_equals_kronecker_product():
    for n in range(1, 5):
        for x in range(1 << n):
            for z in range(1 << n):
                for k in range(4):
                    p = pauli.PauliString(n, x, z, k)
                    assert np.array_equal(p.to_matrix(), _kron_reference(p)), p


def test_to_matrix_returns_fresh_arrays():
    p = pauli.PauliString.from_label("XY")
    a = p.to_matrix()
    a[:] = 0
    assert np.array_equal(p.to_matrix(), _kron_reference(p))


@pytest.mark.parametrize("m", [1, 2])
def test_clifford_to_matrix_whole_group(m):
    group = pauli.enumerate_clifford(m)
    assert len(group) == {1: 24, 2: 11520}[m]
    eye = np.eye(1 << m)
    gens = [pauli.PauliString(m, 1 << j, 0) for j in range(m)] + \
        [pauli.PauliString(m, 0, 1 << j) for j in range(m)]
    us = np.array([pauli.clifford_to_matrix(c) for c in group])
    assert np.abs(us @ us.conj().transpose(0, 2, 1) - eye).max() < 1e-12
    for i, g in enumerate(gens):
        got = us @ _kron_reference(g) @ us.conj().transpose(0, 2, 1)
        want = np.array([_kron_reference((c.x_images + c.z_images)[i]) for c in group])
        assert np.abs(got - want).max() < 1e-12
    for u in us.reshape(len(group), -1):
        first = u[np.flatnonzero(np.abs(u) > 1e-9)[0]]
        assert first.imag == 0.0 and first.real > 0


def test_clifford_to_matrix_cap():
    rng = np.random.default_rng(8)
    u = pauli.clifford_to_matrix(pauli.random_clifford(7, rng))
    np.testing.assert_allclose(u @ u.conj().T, np.eye(128), atol=1e-12)
    with pytest.raises(ValueError, match="m = 8"):
        pauli.clifford_to_matrix(pauli.random_clifford(8, rng))


def _literal_local_sum(q, qp, rho):
    """sum over all 24^m local Cliffords of (C q C^dag) rho (C q' C^dag), by tableau."""
    total = np.zeros_like(rho)
    for combo in itertools.product(pauli.enumerate_clifford(1), repeat=q.n):
        c = combo[0]
        for extra in combo[1:]:
            c = pauli.clifford_tensor(c, extra)
        total += pauli.clifford_apply(c, q).to_matrix() @ rho \
            @ pauli.clifford_apply(c, qp).to_matrix()
    return total


@pytest.mark.parametrize("m,labels", [
    (2, [("XY", "XY"), ("ZI", "ZI"), ("XI", "ZY"), ("YY", "IX")]),
    (3, [("XIY", "XIY"), ("ZXI", "YZZ")]),
])
def test_local_clifford_sum_matches_literal_group_sum(m, labels):
    rng = np.random.default_rng(30 + m)
    a = rng.normal(size=(1 << m, 1 << m)) + 1j * rng.normal(size=(1 << m, 1 << m))
    rho = a @ a.conj().T
    rho /= np.trace(rho).real
    for ql, qpl in labels:
        q = pauli.PauliString.from_label(ql)
        qp = pauli.PauliString.from_label(qpl)
        got = pauli._twirl_sum("local_clifford", q, qp, rho)
        want = _literal_local_sum(q, qp, rho)
        # Equal operators leave a nonzero sum, so the comparison can fail;
        # for distinct ones both vanish and the scale is that of the terms.
        scale = np.abs(want).max() if ql == qpl else 24 ** m * np.abs(rho).max()
        assert scale > 1.0
        assert np.abs(got - want).max() / scale < 1e-12, (ql, qpl)


def test_mul_and_commute_against_matrices():
    rng = np.random.default_rng(3)
    labels = ["XYZ", "ZZI", "IYX", "YIY", "XXZ"]
    for _ in range(10):
        a = pauli.PauliString.from_label(rng.choice(labels))
        b = pauli.PauliString.from_label(rng.choice(labels))
        prod = pauli.pauli_mul(a, b)
        np.testing.assert_allclose(
            prod.to_matrix(), a.to_matrix() @ b.to_matrix(), atol=1e-12)
        comm = a.to_matrix() @ b.to_matrix() - b.to_matrix() @ a.to_matrix()
        assert pauli.commutes(a, b) == (np.abs(comm).max() < 1e-12)


def test_all_paulis_counts():
    assert len(list(pauli.all_paulis(2))) == 16
    assert len(list(pauli.all_paulis(2, include_identity=False))) == 15
    on_first = list(pauli.paulis_on_support(2, 0b10))
    assert len(on_first) == 3
    assert all(p.support == 0b10 for p in on_first)


def test_clifford_identity_and_apply():
    ident = pauli.clifford_identity(2)
    p = pauli.PauliString.from_label("XZ")
    assert pauli.clifford_apply(ident, p) == p


def test_random_clifford_conjugation_matches_matrix():
    rng = np.random.default_rng(4)
    for _ in range(5):
        c = pauli.random_clifford(2, rng)
        u = pauli.clifford_to_matrix(c)
        np.testing.assert_allclose(u @ u.conj().T, np.eye(4), atol=1e-12)
        for label in ("XI", "IZ", "YX"):
            p = pauli.PauliString.from_label(label)
            q = pauli.clifford_apply(c, p)
            np.testing.assert_allclose(
                u @ p.to_matrix() @ u.conj().T, q.to_matrix(), atol=1e-12)


def test_compose_and_tensor_match_matrices():
    rng = np.random.default_rng(5)
    a = pauli.random_clifford(1, rng)
    b = pauli.random_clifford(1, rng)
    comp = pauli.clifford_compose(a, b)
    ua, ub = pauli.clifford_to_matrix(a), pauli.clifford_to_matrix(b)
    p = pauli.PauliString.from_label("Y")
    want = (ub @ ua) @ p.to_matrix() @ (ub @ ua).conj().T
    np.testing.assert_allclose(
        pauli.clifford_apply(comp, p).to_matrix(), want, atol=1e-12)
    tens = pauli.clifford_tensor(a, b)
    ut = pauli.clifford_to_matrix(tens)
    q = pauli.PauliString.from_label("XZ")
    np.testing.assert_allclose(
        ut @ q.to_matrix() @ ut.conj().T,
        pauli.clifford_apply(tens, q).to_matrix(), atol=1e-12)


def test_channel_pauli_coeffs_depolarizing():
    s = 0.3
    kraus = [np.sqrt(1 - 3 * s / 4) * dense.ID2,
             np.sqrt(s / 4) * dense.SX,
             np.sqrt(s / 4) * dense.SY,
             np.sqrt(s / 4) * dense.SZ]
    ch = pauli.channel_pauli_coeffs(kraus)
    weights = {}
    for term in ch.terms:
        for coeff, p in term:
            weights[p.label().lstrip("-i")] = weights.get(p.label().lstrip("-i"), 0.0) \
                + abs(coeff) ** 2
    np.testing.assert_allclose(weights["I"], 1 - 3 * s / 4, atol=1e-12)
    for ax in "XYZ":
        np.testing.assert_allclose(weights[ax], s / 4, atol=1e-12)


def test_verify_twirl_residuals_small():
    rng = np.random.default_rng(6)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = a @ a.conj().T
    rho /= np.trace(rho).real
    q = pauli.PauliString.from_label("XI")
    qp = pauli.PauliString.from_label("ZY")
    assert pauli.verify_twirl("pauli", q, qp, rho) < 1e-10
    assert pauli.verify_twirl("clifford", q, qp, rho) < 1e-10
    assert pauli.verify_twirl("local_clifford", q, qp, rho) < 1e-10


def test_verify_twirl_rejects_same_axes():
    rho = np.eye(4) / 4
    q = pauli.PauliString.from_label("XI")
    with pytest.raises(ValueError):
        pauli.verify_twirl("pauli", q, q, rho)

"""Pauli string and Clifford unitary tests against explicit matrices."""

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
    # Each unitary of the stack maps every X_j and Z_j to a Hermitian signed
    # Pauli, and no two share these images: a Clifford is fixed up to phase
    # by its action on the generators, so the stack has |C_m| distinct ones.
    us = pauli.enumerate_clifford(m)
    assert len(us) == {1: 24, 2: 11520}[m]
    assert not us.flags.writeable and pauli.enumerate_clifford(m) is us
    assert np.abs(us @ us.conj().transpose(0, 2, 1) - np.eye(1 << m)).max() < 1e-12
    gens = [pauli.PauliString(m, 1 << j, 0) for j in range(m)] + \
        [pauli.PauliString(m, 0, 1 << j) for j in range(m)]
    gen_mats = [_kron_reference(g) for g in gens]
    images = set()
    for u in us:
        image = tuple(_signed_pauli(u @ g @ u.conj().T) for g in gen_mats)
        assert all(p is not None and p.is_hermitian() for p in image)
        images.add(tuple(p.label() for p in image))
    assert len(images) == len(us)
    for u in us.reshape(len(us), -1):
        first = u[np.flatnonzero(np.abs(u) > 1e-9)[0]]
        assert first.imag == 0.0 and first.real > 0


def _gauge_keys(us):
    """Bytes of each u in a stack, its first nonzero entry made real and positive, to 9 digits."""
    flat = us.reshape(len(us), -1)
    first = flat[np.arange(len(us)), np.argmax(np.abs(flat) > 1e-9, axis=1)]
    keys = np.round(us * (np.abs(first) / first)[:, None, None], 9) + 0.0
    return [key.tobytes() for key in keys]


def _gauge_key(u):
    return _gauge_keys(u[None])[0]


@pytest.mark.parametrize("m", [1, 2])
def test_clifford_stack_is_the_whole_group(m):
    # Shares nothing with the coset construction: a set of unitaries modulo
    # phase that holds I and is closed under left multiplication by H_j, S_j
    # and CZ holds all of C_m; with exactly |C_m| distinct elements it is C_m.
    us = pauli.enumerate_clifford(m)
    order = 2 ** (m * m + 2 * m) * np.prod([4 ** j - 1 for j in range(1, m + 1)])
    keys = set(_gauge_keys(us))
    assert len(us) == len(keys) == order
    assert _gauge_key(np.eye(1 << m, dtype=complex)) in keys
    assert np.abs(us @ us.conj().transpose(0, 2, 1) - np.eye(1 << m)).max() < 1e-12
    hadamard = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    gens = [dense.kron_all([g if k == j else dense.ID2 for k in range(m)])
            for g in (hadamard, np.diag([1, 1j])) for j in range(m)]
    gens += [np.diag([1, 1, 1, -1])] * (m == 2)
    for g in gens:
        assert keys.issuperset(_gauge_keys(g @ us))


def test_coset_representatives_build_the_stack():
    # The coset sums of the twirls and key averages run over l . r with l in
    # C_1 x C_1 and r in R_2; row 576 r + 24 i + j of the validated stack
    # must be that element, so the two cannot drift apart.
    one, reps = pauli.enumerate_clifford(1), pauli._coset_representatives(2)
    stack = pauli.enumerate_clifford(2)
    assert len(reps) == 20 and not reps.flags.writeable
    assert np.array_equal(pauli._coset_representatives(1), np.eye(2)[None])
    got = _gauge_keys(stack)
    for r, rep in enumerate(reps):
        for i, j in itertools.product(range(24), repeat=2):
            want = _gauge_key(np.kron(one[i], one[j]) @ rep)
            assert got[576 * r + 24 * i + j] == want, (r, i, j)


def test_clifford_enumeration_capped_at_two_qubits():
    with pytest.raises(ValueError, match="m=3"):
        pauli.enumerate_clifford(3)


def test_random_clifford_cap():
    rng = np.random.default_rng(8)
    u = pauli.random_clifford(7, rng)
    np.testing.assert_allclose(u @ u.conj().T, np.eye(128), atol=1e-12)
    with pytest.raises(ValueError, match="m = 8"):
        pauli.random_clifford(8, rng)


def _literal_group(kind, m):
    """The twirl group as a list of matrices, one per element."""
    if kind == "pauli":
        return [p.to_matrix() for p in pauli.all_paulis(m)]
    if kind == "clifford":
        return list(pauli.enumerate_clifford(m))
    return [dense.kron_all(list(c))
            for c in itertools.product(pauli.enumerate_clifford(1), repeat=m)]


@pytest.mark.parametrize("m,labels", [
    (2, [("XY", "XY"), ("ZI", "ZI"), ("XI", "ZY"), ("YY", "IX")]),
])
def test_local_clifford_sum_matches_literal_group_sum(m, labels):
    rng = np.random.default_rng(30 + m)
    a = rng.normal(size=(1 << m, 1 << m)) + 1j * rng.normal(size=(1 << m, 1 << m))
    rho = a @ a.conj().T
    rho /= np.trace(rho).real
    group = _literal_group("local_clifford", m)
    for ql, qpl in labels:
        q = pauli.PauliString.from_label(ql)
        qp = pauli.PauliString.from_label(qpl)
        qm, qpm = q.to_matrix(), qp.to_matrix()
        want = sum((g @ qm @ g.conj().T) @ rho @ (g @ qpm @ g.conj().T) for g in group)
        got = pauli._twirl_sum("local_clifford", q, qp, rho)
        # Equal operators leave a nonzero sum, so the comparison can fail;
        # for distinct ones both vanish and the scale is that of the terms.
        scale = np.abs(want).max() if ql == qpl else 24 ** m * np.abs(rho).max()
        assert scale > 1.0
        assert np.abs(got - want).max() / scale < 1e-12, (ql, qpl)


@pytest.mark.parametrize("kind,m", [("pauli", 2), ("pauli", 3), ("clifford", 1),
                                    ("clifford", 2), ("local_clifford", 2),
                                    ("local_clifford", 3)])
def test_twirl_sum_matches_literal_stack_loop(kind, m):
    rng = np.random.default_rng(50 + m)
    a = rng.normal(size=(1 << m, 1 << m)) + 1j * rng.normal(size=(1 << m, 1 << m))
    rho = a @ a.conj().T
    rho /= np.trace(rho).real
    group = _literal_group(kind, m)
    elems = list(pauli.all_paulis(m))
    i, j = (int(v) for v in rng.choice(len(elems), size=2, replace=False))
    for i, j in ((i, i), (i, j), (j, i)):
        q, qp = elems[i], elems[j]
        qm, qpm = q.to_matrix(), qp.to_matrix()
        want = np.zeros_like(rho)
        for g in group:
            gd = g.conj().T
            want += (g @ qm @ gd) @ rho @ (g @ qpm @ gd)
        got = pauli._twirl_sum(kind, q, qp, rho)
        # Equal operators leave a nonzero sum, so the comparison can fail;
        # for distinct ones both vanish and the scale is that of the terms.
        scale = np.abs(want).max() if i == j else len(group) * np.abs(rho).max()
        assert np.abs(got - want).max() / scale < 1e-12, (kind, q.label(), qp.label())


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


@pytest.mark.parametrize("n", [1, 2, 3])
def test_paulis_on_empty_support_are_the_identity(n):
    assert list(pauli.paulis_on_support(n, 0)) == [pauli.PauliString.identity(n)]


def _signed_pauli(v):
    """The Pauli string equal to the matrix v, read off its action on basis states, or None."""
    m = v.shape[0].bit_length() - 1
    row = int(np.argmax(np.abs(v[:, 0])))  # P|0> = i^k |x> for P = i^k X^x Z^z
    k = int(np.rint(np.angle(v[row, 0]) / (np.pi / 2))) % 4
    x = z = 0
    for j in range(m):
        b = 1 << (m - 1 - j)  # qubit j's bit in the basis index
        x |= bool(row & b) << j
        # P|b> = i^k (-1)^{z_j} |b ^ x>
        z |= bool(np.real(v[row ^ b, b] / v[row, 0]) < 0) << j
    p = pauli.PauliString(m, x, z, k)
    return p if np.abs(p.to_matrix() - v).max() < 1e-12 else None


def test_random_clifford_conjugation_matches_matrix():
    # Sampled mode draws m = 3..7: each draw must be unitary and map every
    # X_j and Z_j to a Hermitian signed Pauli.
    rng = np.random.default_rng(4)
    for m in range(1, 8):
        for _ in range(3):
            u = pauli.random_clifford(m, rng)
            assert np.abs(u @ u.conj().T - np.eye(1 << m)).max() < 1e-12
            for j in range(m):
                for g in (pauli.PauliString(m, 1 << j, 0), pauli.PauliString(m, 0, 1 << j)):
                    image = _signed_pauli(u @ g.to_matrix() @ u.conj().T)
                    assert image is not None and image.is_hermitian(), (m, j, g.label())


class _Odometer:
    """Stand-in for Generator.integers that goes through every answer sequence once.

    A run replays the digits fixed so far and starts each new digit at the
    low end of its range; ``advance`` steps the last digit that is not at
    the high end of its range and drops the digits after it.
    """

    def __init__(self):
        self.digits = []  # [value, low, high] per value handed out
        self.pos = 0

    def integers(self, low, high, size=None):
        out = []
        for _ in range(1 if size is None else size):
            if self.pos == len(self.digits):
                self.digits.append([low, low, high])
            out.append(self.digits[self.pos][0])
            self.pos += 1
        return out[0] if size is None else np.array(out)

    def weight(self):
        """1 / probability of this run's answers under a uniform Generator."""
        return np.prod([high - low for _, low, high in self.digits])

    def advance(self):
        self.pos = 0
        while self.digits and self.digits[-1][0] + 1 == self.digits[-1][2]:
            self.digits.pop()
        if self.digits:
            self.digits[-1][0] += 1
        return bool(self.digits)


@pytest.mark.parametrize("m", [1, 2])
def test_random_clifford_covers_the_group_once(m):
    # Over its whole choice space the sampler gives each group element
    # exactly once, each with the same probability: it is uniform.
    group = pauli.enumerate_clifford(m)
    odometer = _Odometer()
    drawn = []
    while True:
        drawn.append((pauli.random_clifford(m, odometer) + 0.0).tobytes())
        assert odometer.weight() == len(group)
        if not odometer.advance():
            break
    assert len(drawn) == len(group) == {1: 24, 2: 11520}[m]
    assert sorted(drawn) == sorted((u + 0.0).tobytes() for u in group)


def test_channel_pauli_coeffs_depolarizing():
    s = 0.3
    kraus = [np.sqrt(1 - 3 * s / 4) * dense.ID2,
             np.sqrt(s / 4) * dense.SX,
             np.sqrt(s / 4) * dense.SY,
             np.sqrt(s / 4) * dense.SZ]
    weights = pauli.channel_pauli_weights(kraus)
    assert sorted(weights) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    np.testing.assert_allclose(weights[(0, 0)], 1 - 3 * s / 4, atol=1e-12)
    for key in ((1, 0), (1, 1), (0, 1)):  # X, Y, Z
        np.testing.assert_allclose(weights[key], s / 4, atol=1e-12)
    with pytest.raises(ValueError, match="trace preserving"):
        pauli.channel_pauli_weights([0.5 * dense.ID2])


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
    with pytest.raises(ValueError, match="distinct Pauli"):
        pauli.verify_twirl("pauli", q, q, rho)


def test_verify_twirl_checks_sizes_before_axes():
    xi, zi = pauli.PauliString.from_label("XI"), pauli.PauliString.from_label("ZI")
    # X and XI share their masks, but act on different registers.
    with pytest.raises(ValueError, match="dimension mismatch: 1 vs 2 qubits"):
        pauli.verify_twirl("pauli", pauli.PauliString.from_label("X"), xi, np.eye(4) / 4)
    with pytest.raises(ValueError, match="does not act on 2 qubits"):
        pauli.verify_twirl("pauli", xi, zi, np.eye(2) / 2)

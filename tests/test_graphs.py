"""Graph-state QFI tests: closed forms, noise reductions, measurement schemes."""

import tracemalloc

import numpy as np
import pytest

from qmet import checks, dense, graphs, pauli
from qfi_reference import qfi_spectral


def test_parse_and_format_roundtrip():
    text = "5\n# hub and spokes\n0 1\n0 2\n0 3\n0 4\n"
    g = graphs.parse_graph(text)
    assert g.n == 5
    assert g == graphs.star(5)
    assert graphs.parse_graph(graphs.format_graph(g)) == g


def test_parse_rejects_bad_input():
    with pytest.raises(ValueError):
        graphs.parse_graph("3\n0 3\n")
    with pytest.raises(ValueError):
        graphs.parse_graph("2\n0 0\n")
    with pytest.raises(ValueError):
        graphs.parse_graph("")


def test_constructors_edge_counts():
    assert len(graphs.star(6).edges) == 5
    assert len(graphs.cycle(6).edges) == 6
    assert len(graphs.path(6).edges) == 5
    assert len(graphs.complete(5).edges) == 10


def test_star_family_closed_form():
    for n in range(3, 9):
        assert graphs.qfi_x(graphs.star(n)) == (n - 1) ** 2 + 1


def test_named_graph_values():
    assert graphs.qfi_x(graphs.cycle(6)) == 6
    assert graphs.qfi_x(graphs.path(4)) == 4
    assert graphs.qfi_y(graphs.path(4)) == 4
    # all neighborhoods of a complete graph differ, so every class is a
    # singleton and the QFI degrades to the shot-noise value n
    assert graphs.qfi_x(graphs.complete(3)) == 3
    assert graphs.qfi_x(graphs.complete(4)) == 4


def test_partition_star():
    part = graphs.partition(graphs.star(5))
    sizes = sorted(len(members) for members, _ in part.classes)
    assert sizes == [1, 4]
    assert graphs.qfi_x(graphs.star(5)) == sum(
        len(members) ** 2 for members, _ in part.classes)


def test_qfi_matches_oracle_small():
    for g in (graphs.star(4), graphs.cycle(5), graphs.path(4)):
        np.testing.assert_allclose(
            graphs.qfi_x(g), graphs.oracle_graph_qfi(g, encoding="x"), rtol=1e-9)
        np.testing.assert_allclose(
            graphs.qfi_y(g), graphs.oracle_graph_qfi(g, encoding="y"), rtol=1e-9)


def test_isolated_vertex_rejected():
    g = graphs.Graph.from_edges(3, [(0, 1)])
    assert g.has_isolated_vertex()
    with pytest.raises(ValueError):
        graphs.qfi_x(g)


def test_bundle_triangle():
    b = graphs.bundle(graphs.complete(3), [3, 4, 3])
    assert b.n == 10
    assert graphs.qfi_x(b) == 34


def test_bundle_size_mismatch():
    with pytest.raises(ValueError):
        graphs.bundle(graphs.complete(3), [3, 4])
    with pytest.raises(ValueError):
        graphs.bundle(graphs.complete(3), [3, 0, 3])


def test_bundled_star_merges_leaf_bundles():
    # every leaf clone shares the hub bundle as its neighborhood, so the
    # leaves form a single class of n - n/k vertices
    n, k = 12, 3
    b = graphs.bundle(graphs.star(k), [n // k] * k)
    assert b.n == n
    assert graphs.qfi_x(b) == (n // k) ** 2 + (n - n // k) ** 2


def test_dephasing_values_and_limits():
    np.testing.assert_allclose(
        graphs.qfi_dephasing(graphs.star(5), 0.1), 8.411975670713, rtol=1e-10)
    np.testing.assert_allclose(
        graphs.qfi_dephasing(graphs.cycle(5), 0.1), 3.902439024390, rtol=1e-10)
    np.testing.assert_allclose(
        graphs.qfi_dephasing(graphs.path(4), 0.1), 2.840975609756, rtol=1e-10)
    g = graphs.star(5)
    np.testing.assert_allclose(graphs.qfi_dephasing(g, 0.0), graphs.qfi_x(g))
    np.testing.assert_allclose(graphs.qfi_dephasing(g, 0.5), 0.0, atol=1e-12)


def test_dephasing_matches_oracle_point():
    g = graphs.cycle(4)
    want = graphs.oracle_graph_qfi(g, noise=("dephasing", 0.15))
    np.testing.assert_allclose(graphs.qfi_dephasing(g, 0.15), want, atol=1e-8)


def test_erasure_values_and_oracle():
    c6 = graphs.cycle(6)
    np.testing.assert_allclose(graphs.qfi_erasure(c6, [0]), 5.0, atol=1e-12)
    np.testing.assert_allclose(graphs.qfi_erasure(c6, [0, 3]), 0.0, atol=1e-12)
    np.testing.assert_allclose(graphs.qfi_erasure(c6, [0, 1]), 4.0, atol=1e-12)
    want = graphs.oracle_graph_qfi(graphs.cycle(5), noise=("erasure", (1,)))
    np.testing.assert_allclose(graphs.qfi_erasure(graphs.cycle(5), [1]), want, atol=1e-8)


def test_mean_erasure():
    np.testing.assert_allclose(graphs.mean_qfi_erasure(graphs.cycle(6), 1), 5.0)
    np.testing.assert_allclose(graphs.mean_qfi_erasure(graphs.star(5), 1), 0.8)
    np.testing.assert_allclose(graphs.mean_qfi_erasure(graphs.cycle(6), 2), 2.4)


def test_light_cone():
    lc = graphs.light_cone(graphs.cycle(6), [0])
    assert lc.erased == (0,)
    assert set(lc.light_cone) == {0, 1, 5}


def test_stabilizers_and_expectations():
    g = graphs.star(4)
    gens = graphs.stabilizer_generators(g)
    assert len(gens) == 4
    state = graphs.graph_state(g)
    for s in gens:
        assert graphs.expval_pauli(g, s) == 1
        np.testing.assert_allclose(s.to_matrix() @ state, state, atol=1e-12)
    x0 = pauli.PauliString.from_label("XIII")
    assert graphs.expval_pauli(g, x0) == 0


def _lexmin_brute_force(rows, rhs, n):
    """Smallest solution over all 2^n assignments, variable 0 the most significant."""
    def solves(sol):
        return all((row & sol).bit_count() % 2 == b for row, b in zip(rows, rhs))

    solutions = [sol for sol in range(1 << n) if solves(sol)]
    return min(solutions, key=lambda sol: [(sol >> i) & 1 for i in range(n)], default=None)


def test_gf2_lexmin_matches_brute_force():
    rng = np.random.default_rng(17)
    inconsistent = 0
    for _ in range(600):
        n = int(rng.integers(1, 11))
        n_rows = int(rng.integers(1, n + 3))
        rows = [int(r) for r in rng.integers(0, 1 << n, size=n_rows)]
        rhs = [int(b) for b in rng.integers(0, 2, size=n_rows)]
        want = _lexmin_brute_force(rows, rhs, n)
        inconsistent += want is None
        assert graphs._gf2_solve_lexmin(rows, rhs) == want, (rows, rhs)
    assert inconsistent > 50


def test_yz_stabilizer_search():
    assert graphs.find_yz_stabilizer(graphs.star(5)).label() == "YZZZY"
    assert graphs.find_yz_stabilizer(graphs.complete(2)).label() == "YY"
    assert graphs.find_yz_stabilizer(graphs.bundle(graphs.cycle(6), [2] * 6)) is None
    got = graphs.find_yz_stabilizer(graphs.bundle(graphs.cycle(8), [2] * 8))
    assert got.label() == "ZZZZZYZYZZZZZYZY"


def test_extend_with_ancilla():
    ext = graphs.extend_with_ancilla(
        graphs.path(3), pauli.PauliString.from_label("XZI"))
    assert ext.n == 4
    assert graphs.find_yz_stabilizer(ext).label() == "ZZYY"


def test_measurement_variance_saturates_crb():
    np.testing.assert_allclose(
        graphs.measurement_variance(graphs.star(4), 1e-3), 0.1, rtol=1e-5)
    np.testing.assert_allclose(
        graphs.measurement_variance(graphs.complete(2), 1e-3), 0.5, rtol=1e-5)


def test_counting_bounds():
    assert graphs.heisenberg_count_bound(4, 1.0) == 880
    assert [graphs.stabilizer_count(m) for m in (1, 2, 3)] == [6, 60, 1080]


def _random_half_graph(n):
    rng = np.random.default_rng(n)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = rng.permutation(len(pairs))[:max(1, len(pairs) // 2)] if pairs else []
    return graphs.Graph.from_edges(n, [pairs[i] for i in chosen])


@pytest.mark.parametrize("g", [
    *(_random_half_graph(n) for n in (1, 2, 5, 9, 16)),
    graphs.Graph.from_edges(7, [(0, 2), (2, 3), (3, 5), (0, 5)]),  # 1, 4 and 6 isolated
    graphs.Graph(6, frozenset()),
], ids=["1", "2", "5", "9", "16", "isolated", "edgeless"])
def test_graph_state_matches_per_edge_sign_product(g):
    n = g.n
    idx = np.arange(1 << n)
    odd = np.zeros(1 << n, dtype=bool)
    for u, v in g.edges:
        odd ^= ((idx >> (n - 1 - u)) & (idx >> (n - 1 - v)) & 1).astype(bool)
    amp = 2 ** (-n / 2)
    want = np.where(odd, -amp, amp).astype(complex)  # imaginary parts +0.0
    got = graphs.graph_state(g)
    assert got.dtype == np.complex128 and got.shape == (1 << n,)
    assert got.tobytes() == want.tobytes()


def test_graph_state_peak_memory_near_its_output():
    # A whole-vector lookup would turn the uint8 parity into an intp index
    # copy (8 bytes an amplitude) and read about 1.5 here.
    g = graphs.cycle(20)
    tracemalloc.start()
    try:
        psi = graphs.graph_state(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.2 * psi.nbytes


@pytest.mark.parametrize("enc", ["x", "y", "z"])
def test_pauli_sum_matches_kronecker_sum(enc):
    # A density-matrix-shaped tensor: the sum acts on the first n of 2n axes.
    n = 3
    rng = np.random.default_rng(11)
    t = rng.normal(size=[2] * (2 * n)) + 1j * rng.normal(size=[2] * (2 * n))
    sigma = {"x": dense.SX, "y": dense.SY, "z": dense.SZ}[enc]
    want = sum(dense.kron_all([sigma if k == q else dense.ID2 for k in range(n)])
               for q in range(n)) @ t.reshape(1 << n, -1)
    got = graphs._pauli_sum(t, enc, n)
    np.testing.assert_allclose(got.reshape(1 << n, -1), want, rtol=0, atol=1e-14)
    # A strided view gives the same bits as its contiguous copy.
    view = t.transpose(list(range(n)) + list(range(2 * n - 1, n - 1, -1)))
    assert graphs._pauli_sum(view, enc, n).tobytes() == \
        graphs._pauli_sum(np.ascontiguousarray(view), enc, n).tobytes()


@pytest.mark.parametrize("g, theta", [(graphs.star(5), 0.3), (graphs.star(3), -0.7)])
def test_measurement_variance_has_no_step_bias(g, theta):
    # reference: Kronecker-built rotation, central difference with a tiny step
    s_mat = graphs.find_yz_stabilizer(g).to_matrix()
    psi0 = graphs.graph_state(g)

    def expval(th):
        u1 = np.cos(th / 2) * dense.ID2 - 1j * np.sin(th / 2) * dense.SX
        psi = dense.kron_all([u1] * g.n) @ psi0
        return np.vdot(psi, s_mat @ psi).real

    h = 1e-6
    slope = (expval(theta + h) - expval(theta - h)) / (2 * h)
    want = (1.0 - expval(theta) ** 2) / slope ** 2
    np.testing.assert_allclose(graphs.measurement_variance(g, theta), want, rtol=1e-7)


def _fd_oracle(g, enc, noise):
    """The finite-difference oracle: Kronecker-built U(theta) fed to qfi_spectral."""
    rho = dense.pure(graphs.graph_state(g))
    if noise is not None:
        p, qubits = ((noise[1], range(g.n)) if noise[0] == "dephasing"
                     else (0.5, graphs.light_cone(g, noise[1]).light_cone))
        for q in qubits:
            z_q = dense.kron_all([dense.SZ if k == q else dense.ID2 for k in range(g.n)])
            rho = (1 - p) * rho + p * z_q @ rho @ z_q
    pauli_1q = {"x": dense.SX, "y": dense.SY, "z": dense.SZ}[enc]

    def fam(theta):
        u = dense.kron_all([np.cos(theta / 2) * dense.ID2
                            - 1j * np.sin(theta / 2) * pauli_1q] * g.n)
        return u @ rho @ u.conj().T

    return qfi_spectral(fam, 0.0)


_FD_GRAPHS = [graphs.star(4), graphs.cycle(5), graphs.path(3), graphs.complete(4),
              graphs.Graph.from_edges(5, [(0, 1), (1, 2), (1, 3), (3, 4), (2, 4)])]


@pytest.mark.parametrize("enc", ["x", "y", "z"])
@pytest.mark.parametrize("noise", [None, ("dephasing", 0.1), ("erasure", (0,))])
def test_oracle_matches_finite_difference_reference(enc, noise):
    for g in _FD_GRAPHS:
        np.testing.assert_allclose(graphs.oracle_graph_qfi(g, enc, noise),
                                   _fd_oracle(g, enc, noise), rtol=1e-7, atol=1e-9)


@pytest.mark.parametrize("enc", ["x", "y", "z"])
def test_oracle_dense_branch_agrees_with_statevector(enc):
    for n in range(2, 7):
        for g in checks.seeded_connected_graphs(n, 3, seed=70 + n):
            np.testing.assert_allclose(graphs.oracle_graph_qfi(g, enc, ("dephasing", 0.0)),
                                       graphs.oracle_graph_qfi(g, enc), rtol=0, atol=1e-12)


def test_graph_oracles_build_no_kronecker_family(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("graph oracle reached a Kronecker or finite-difference path")

    for name in ("kron_all", "_central_diff"):
        monkeypatch.setattr(dense, name, forbidden)
    g = graphs.star(4)
    assert graphs.oracle_graph_qfi(g) == pytest.approx(10.0, rel=1e-12)
    assert graphs.oracle_graph_qfi(g, "y", ("dephasing", 0.1)) > 0
    assert graphs.oracle_graph_qfi(g, noise=("erasure", (1,))) == pytest.approx(
        graphs.qfi_erasure(g, (1,)), abs=1e-12)
    assert graphs.measurement_variance(g, 1e-3) == pytest.approx(0.1, rel=1e-5)


@pytest.mark.parametrize("g, noise", [(graphs.path(21), None),
                                      (graphs.path(9), ("dephasing", 0.1)),
                                      (graphs.path(9), ("erasure", (0,)))])
def test_oracle_caps_checked_before_building(monkeypatch, g, noise):
    def forbidden(_):
        raise AssertionError("graph_state built past the oracle cap")

    monkeypatch.setattr(graphs, "graph_state", forbidden)
    with pytest.raises(ValueError, match="capped"):
        graphs.oracle_graph_qfi(g, noise=noise)

"""Authenticated-channel tests: soundness, privacy, replay, integrity."""

import itertools
import json
import time
import tracemalloc

import numpy as np
import pytest

from qmet import cli, crypto, pauli
from qmet.dense import PAULI_1Q, kron_all


# The physical register layout: flags at their slots, data in the other slots in
# order.  The src rounds run in the logical register (data first, flags last) and
# apply a placement as part of the key; these functions are the literal reference.


def _physical_axes(flag_positions, m):
    """axes[q] = logical axis carried by physical slot q (data first, flags last)."""
    slots = [q for q in range(m) if q not in flag_positions] + sorted(flag_positions)
    return np.argsort(slots).tolist()


def _embed_with_flags(data_vec, flag_positions, m):
    """|psi> on the data slots, |0> flags at the given physical positions."""
    logical = np.zeros((len(data_vec), 1 << len(flag_positions)), dtype=complex)
    logical[:, 0] = data_vec
    return logical.reshape([2] * m).transpose(_physical_axes(flag_positions, m)).reshape(-1)


def _to_logical(rho_phys, flag_positions, m):
    """Permute a density matrix back to data-first, flags-last ordering."""
    inverse = list(np.argsort(_physical_axes(flag_positions, m)))
    both = inverse + [a + m for a in inverse]
    return rho_phys.reshape([2] * (2 * m)).transpose(both).reshape(1 << m, 1 << m)


def _to_physical(rho_l, flag_positions, m):
    """Inverse of ``_to_logical``: move the flags to their physical slots."""
    axes = _physical_axes(flag_positions, m)
    both = axes + [a + m for a in axes]
    return rho_l.reshape([2] * (2 * m)).transpose(both).reshape(1 << m, 1 << m)


@pytest.mark.parametrize("m", range(2, 6))
def test_placement_matches_reference_embedding(m):
    # P_f = I[:, perm] sends the logical start to the reference embedding and
    # conjugates a logical density matrix to the reference physical one.
    rng = np.random.default_rng(60 + m)
    for t in range(1, m):
        psi = _random_unitary(1 << (m - t), m)[:, 0]
        a = rng.normal(size=(1 << m, 1 << m)) + 1j * rng.normal(size=(1 << m, 1 << m))
        for flags in itertools.combinations(range(m), t):
            perm = crypto._placement(flags, m)
            assert sorted(perm.tolist()) == list(range(1 << m))
            place = np.eye(1 << m)[:, perm]
            assert np.array_equal(place @ crypto._logical_start(psi, t),
                                  _embed_with_flags(psi, flags, m))
            assert np.array_equal(place @ a @ place.T, _to_physical(a, flags, m))
            assert np.array_equal(_to_logical(_to_physical(a, flags, m), flags, m), a)


def test_parse_attack_variants():
    assert crypto.parse_attack("id").variant == "identity"
    a = crypto.parse_attack("pauli:-XIZ")
    assert a.variant == "pauli_mixture"
    assert [(w, q.label()) for w, q in a.mixture] == [(1.0, "-XIZ")]
    m = crypto.parse_attack("mix:0.9*III,0.1*ZII")
    assert m.variant == "pauli_mixture"
    np.testing.assert_allclose(sum(w for w, _ in m.mixture), 1.0)
    d = crypto.parse_attack("depol:0.3")
    assert d.variant == "depolarizing" and d.strength == 0.3
    dd = crypto.parse_attack("double:pauli:XI;depol:0.5")
    assert dd.variant == "double"
    assert dd.pair[0].variant == "pauli_mixture"


def test_parse_attack_rejections():
    for text in ("mix:0.5*II,0.6*XI", "depol:1.5", "pauli:XQ", "double:id", "junk"):
        with pytest.raises(ValueError):
            crypto.parse_attack(text)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_kraus_attack_rejects_non_finite_entries(bad):
    with pytest.raises(ValueError, match="non-finite entry"):
        crypto.AttackSpec.from_kraus([np.array([[1.0, 0.0], [0.0, bad]])])


def test_bounds():
    np.testing.assert_allclose(crypto.trap_bound(2, 1), 3.0)
    np.testing.assert_allclose(crypto.trap_bound(2, 2), 1.5)
    np.testing.assert_allclose(crypto.clifford_bound(2), 0.25)
    np.testing.assert_allclose(crypto.trap_double_bound(1, 1), 2.25)


def test_trap_single_fixed_pauli():
    r = crypto.soundness_trap_single(2, 1, crypto.parse_attack("pauli:XII"))
    np.testing.assert_allclose(r.lhs, 2.0 / 3.0, rtol=1e-12)
    np.testing.assert_allclose(r.accept_rate, 7.0 / 9.0, rtol=1e-12)
    assert r.mode == "exact"
    assert r.lhs <= r.bound
    r = crypto.soundness_trap_single(2, 1, crypto.parse_attack("pauli:XIZ"))
    np.testing.assert_allclose(r.lhs, 4.0 / 9.0, rtol=1e-12)
    np.testing.assert_allclose(r.accept_rate, 5.0 / 9.0, rtol=1e-12)


def test_identity_attack_is_harmless():
    for fn in (crypto.soundness_trap_single, crypto.soundness_clifford_single):
        r = fn(2, 1, crypto.AttackSpec.identity())
        np.testing.assert_allclose(r.lhs, 0.0, atol=1e-12)
        np.testing.assert_allclose(r.accept_rate, 1.0, atol=1e-12)


def test_worst_fixed_pauli():
    lhs, worst = crypto.worst_fixed_pauli("trap", 2, 2)
    np.testing.assert_allclose(lhs, 0.5, rtol=1e-12)
    assert worst.label() == "ZIII"
    assert lhs <= crypto.trap_bound(2, 2)


def test_clifford_full_depolarizing():
    r = crypto.soundness_clifford_single(2, 2, crypto.parse_attack("depol:1.0"))
    np.testing.assert_allclose(r.lhs, 0.1875, rtol=1e-12)
    np.testing.assert_allclose(r.accept_rate, 0.25, rtol=1e-12)
    np.testing.assert_allclose(r.trace_distance_budget(), np.sqrt(0.1875 / 0.25))


def test_depolarizing_identity_weight_in_closed_form():
    attack = crypto.parse_attack("depol:0.3")
    for m in range(1, 11):
        rest = sum(w for support, w in attack.support_weights(m).items() if support)
        np.testing.assert_allclose(attack.identity_weight(m), 1.0 - rest, rtol=1e-12)
    # The support enumeration would take 2^30 steps here.
    start = time.perf_counter()
    r = crypto.soundness_clifford_single(20, 10, attack)
    assert time.perf_counter() - start < 1.0
    np.testing.assert_allclose(r.accept_rate, 0.7 + 0.3 * (2 ** 50 - 1) / (4 ** 30 - 1),
                               rtol=1e-12)


def test_local_key_tables_match_conjugation():
    decrypt = crypto._local_key_tables()
    assert decrypt.shape == (24, 4) and not decrypt.flags.writeable
    paulis = [PAULI_1Q[a] for a in "IXZY"]  # by axis code
    for i, u in enumerate(pauli.enumerate_clifford(1)):
        for code, p in enumerate(paulis):
            # C^dag P C is the Pauli of axis decrypt[i, code], up to sign.
            back = u.conj().T @ p @ u
            assert min(np.abs(back - s * paulis[decrypt[i, code]]).max() for s in (1, -1)) < 1e-12


@pytest.mark.parametrize("n,t", [(2, 1), (1, 2)])
def test_demo_round_rule_matches_measured_statevector(n, t):
    # The demo reads each round off the decrypt table.  Here the same rounds
    # are measured on D|start>, D = C^dag P C built from literal 2x2 matrices:
    # the flags in Z read all +1 exactly on accepted rounds, and the data parity
    # X^n has mean s cos(n theta).
    m, theta = n + t, 0.4
    units = pauli.enumerate_clifford(1)
    paulis = [PAULI_1Q[a] for a in "IXZY"]  # by axis code
    rng = np.random.default_rng(23)
    seen = set()
    for flags in itertools.combinations(range(m), t):
        is_flag = np.array([q in flags for q in range(m)])
        start = _embed_with_flags(crypto._ghz_theta(n, theta), flags, m)
        parity = kron_all([PAULI_1Q["I"] if f else PAULI_1Q["X"] for f in is_flag])
        local = rng.integers(24, size=(200, m))
        codes = rng.integers(4, size=(200, m))  # attack term axes, all four on every slot
        decrypted = crypto._local_key_tables()[local, codes]
        accepted, s = crypto._delegated_rule(decrypted, is_flag)
        for k in range(200):
            out = kron_all([u.conj().T @ paulis[c] @ u
                            for u, c in zip(units[local[k]], codes[k])]) @ start
            flags_zero = np.abs(out.reshape([2] * m)[tuple(
                0 if f else slice(None) for f in is_flag)]) ** 2
            assert abs(flags_zero.sum() - accepted[k]) < 1e-12
            mean_parity = np.vdot(out, parity @ out).real
            assert abs(mean_parity - s[k] * np.cos(n * theta)) < 1e-12
            seen.add((bool(accepted[k]), int(s[k]), bool(np.any(decrypted[k, ~is_flag] & 1))))
    # Both flag outcomes and both signs came up, with and without an x bit on the data.
    assert seen == {(a, sign, x) for a in (False, True) for sign in (1, -1) for x in (False, True)}


def test_delegated_pads_against_bound():
    r = crypto.soundness_delegated(2, 2, crypto.parse_attack("pauli:XIII"))
    np.testing.assert_allclose(r.lhs, 0.5, rtol=1e-12)
    np.testing.assert_allclose(r.accept_rate, 2.0 / 3.0, rtol=1e-12)
    np.testing.assert_allclose(r.bound, 1.5)


def test_exact_reduction_matches_dense_enumeration():
    att = crypto.parse_attack("mix:0.7*III,0.3*ZXY")
    r = crypto.soundness_trap_single(2, 1, att)
    lhs, accept = crypto.dense_trap_single(2, 1, att)
    np.testing.assert_allclose(r.lhs, lhs, atol=1e-9)
    np.testing.assert_allclose(r.accept_rate, accept, atol=1e-9)
    att = crypto.parse_attack("depol:0.3")
    r = crypto.soundness_clifford_single(1, 1, att)
    np.testing.assert_allclose(r.lhs, 0.075, rtol=1e-12)
    lhs, accept = crypto.dense_clifford_single(1, 1, att)
    np.testing.assert_allclose(r.lhs, lhs, atol=1e-9)


def _amplitude_damping_on(slot, gamma=0.4, m=2):
    """Amplitude damping on one qubit of an m-qubit register (qubit 0 leftmost)."""
    k0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - gamma)]])
    k1 = np.array([[0.0, np.sqrt(gamma)], [0.0, 0.0]])
    return crypto.AttackSpec.from_kraus(
        [np.kron(np.kron(np.eye(1 << slot), k), np.eye(1 << (m - 1 - slot))) for k in (k0, k1)])


@pytest.mark.parametrize("slot", [0, 1])
def test_kraus_attack_dual_path(slot):
    # A non-Pauli CPTP attack: the exact casework reads its twirled weights
    # from channel_pauli_weights, the dense paths apply the Kraus operators to
    # every key, and sampled mode applies them to one random key per trial.
    # Qubit 0 is the Clifford code's data slot and qubit 1 its flag slot.
    att = _amplitude_damping_on(slot)
    exact = crypto.soundness_trap_single(1, 1, att)
    lhs, accept = crypto.dense_trap_single(1, 1, att)
    assert abs(exact.lhs - lhs) <= 1e-9
    assert abs(exact.accept_rate - accept) <= 1e-9
    np.testing.assert_allclose(exact.lhs, 0.0709005551264, rtol=1e-9)
    cliff = crypto.soundness_clifford_single(1, 1, att)
    lhs, accept = crypto.dense_clifford_single(1, 1, att)
    assert abs(cliff.lhs - lhs) <= 1e-9
    assert abs(cliff.accept_rate - accept) <= 1e-9
    np.testing.assert_allclose(cliff.lhs, 0.0567204441011, rtol=1e-9)
    for want, sample in ((exact, crypto.soundness_trap_single),
                         (cliff, crypto.soundness_clifford_single)):
        sampled = sample(1, 1, att, mode="sampled", trials=400)
        assert sampled.stderr > 0
        assert abs(sampled.lhs - want.lhs) <= 4 * sampled.stderr


def test_double_use():
    att = crypto.parse_attack("double:pauli:XI;pauli:ZY")
    r = crypto.soundness_double("trap", 1, 1, att)
    np.testing.assert_allclose(r.lhs, 7.0 / 27.0, rtol=1e-10)
    np.testing.assert_allclose(r.bound, 2.25)
    np.testing.assert_allclose(r.accept_rate, 4.0 / 9.0, rtol=1e-10)
    lhs, accept = crypto.dense_trap_double(1, 1, att)
    np.testing.assert_allclose(r.lhs, lhs, atol=1e-9)
    with pytest.raises(ValueError):
        crypto.soundness_double("trap", 1, 1, crypto.parse_attack("pauli:XI"))


def _single_use_attacks(m):
    """A fixed Pauli, a mixture, depolarizing noise and a Kraus attack on m qubits."""
    return [crypto.AttackSpec.fixed_pauli("XZYX"[:m]),
            crypto.AttackSpec.pauli_mixture([(0.7, "I" * m), (0.3, "ZXYZ"[:m])]),
            crypto.parse_attack("depol:0.3"),
            _amplitude_damping_on(0, m=m)]


@pytest.mark.parametrize("n,t", [(1, 1), (2, 1), (2, 2)])
def test_single_use_is_double_use_with_identity_second(n, t):
    ident = crypto.AttackSpec.identity()
    for att in _single_use_attacks(n + t):
        single = crypto.soundness_trap_single(n, t, att)
        double = crypto.soundness_double("trap", n, t, crypto.AttackSpec.double(att, ident))
        assert abs(single.lhs - double.lhs) <= 1e-12
        assert abs(single.accept_rate - double.accept_rate) <= 1e-12


def test_dense_single_use_is_double_use_with_identity_second():
    ident = crypto.AttackSpec.identity()
    for att in _single_use_attacks(2):
        both = crypto.AttackSpec.double(att, ident)
        np.testing.assert_allclose(crypto.dense_trap_double(1, 1, both),
                                   crypto.dense_trap_single(1, 1, att), rtol=0, atol=1e-9)
        np.testing.assert_allclose(crypto.dense_clifford_double(1, 1, both),
                                   crypto.dense_clifford_single(1, 1, att), rtol=0, atol=1e-9)


@pytest.mark.parametrize("dense", [crypto.dense_trap_double, crypto.dense_clifford_double])
def test_dense_double_use_rejects_a_single_use_attack(dense):
    with pytest.raises(ValueError, match="double-use soundness needs a double attack spec"):
        dense(1, 1, crypto.AttackSpec.fixed_pauli("XZ"))


_X2 = crypto.AttackSpec.fixed_pauli("XZ")


@pytest.mark.parametrize("call,name", [
    (lambda: crypto.dense_trap_single(0, 1, crypto.AttackSpec.fixed_pauli("X")), "n"),
    (lambda: crypto.soundness_trap_single(0, 1, crypto.AttackSpec.fixed_pauli("X")), "n"),
    (lambda: crypto.soundness_trap_single(1, 0, crypto.AttackSpec.fixed_pauli("X")), "t"),
    (lambda: crypto.soundness_clifford_single(1, 0, crypto.AttackSpec.fixed_pauli("X")), "t"),
    (lambda: crypto.replay_attack_demo(1, 0, 0.3), "t"),
    (lambda: crypto.replay_attack_demo(1, 0, 0.3, dense=True), "t"),
    (lambda: crypto.soundness_clifford_single(1, 1, _X2, data_state=[1, 1]), "data_state"),
    (lambda: crypto.soundness_trap_single(1, 1, _X2, data_state=[1, 1]), "data_state"),
    (lambda: crypto.dense_clifford_single(1, 1, _X2, data_state=[1, 1]), "data_state"),
    (lambda: crypto.soundness_trap_single(1, 1, _X2, data_state=[1, 0, 0, 0]), "data_state"),
    (lambda: crypto.dense_trap_single(1, 1, _X2, data_state=[1, 0, 0, 0]), "data_state"),
    (lambda: crypto.soundness_double("trap", 1, 1, crypto.parse_attack("double:id;id"),
                                     data_state=[[1], [0]]), "data_state"),
    (lambda: crypto.privacy_deviation("trap", 1, 1, data_state=[1, 1]), "data_state"),
], ids=["dense-n0", "trap-n0", "trap-t0", "cliff-t0", "replay-t0", "replay-dense-t0",
        "cliff-norm", "trap-norm", "dense-cliff-norm", "trap-shape", "dense-trap-shape",
        "double-shape", "privacy-norm"])
def test_sizes_and_data_states_are_checked(call, name):
    with pytest.raises(ValueError, match="^%s must" % name):
        call()


def _literal_twirl(rho, kraus, keys):
    """Average of U^dag Gamma(U rho U^dag) U, one key at a time."""
    total = np.zeros_like(rho)
    count = 0
    for u in keys:
        sigma = u @ rho @ u.conj().T
        total += u.conj().T @ sum(k @ sigma @ k.conj().T for k in kraus) @ u
        count += 1
    return total / count


@pytest.mark.parametrize("attack", _single_use_attacks(2), ids=["pauli", "mix", "depol", "ad"])
def test_twirl_matches_literal_key_loop(attack):
    rng = np.random.default_rng(41)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = a @ a.conj().T / np.trace(a @ a.conj().T).real
    kraus = attack.kraus_ops(2)
    local = (kron_all(list(c)) for c in itertools.product(pauli.enumerate_clifford(1), repeat=2))
    for protocol, keys in (("trap", local), ("clifford", iter(pauli.enumerate_clifford(2)))):
        want = _literal_twirl(rho, kraus, keys)
        reps = np.eye(4)[None] if protocol == "trap" else pauli._coset_representatives(2)
        assert np.abs(crypto._twirl(rho, kraus, reps) - want).max() <= 1e-12, protocol


@pytest.mark.parametrize("n,t,attack,dense", [
    (1, 2, crypto.parse_attack("depol:0.3"), crypto.dense_trap_single),
    (2, 1, _amplitude_damping_on(0, m=3), crypto.dense_trap_single),
    (2, 1, crypto.parse_attack("double:depol:0.4;mix:0.7*III,0.3*XZY"),
     crypto.dense_trap_double),
], ids=["single-depol", "single-ad", "double-mix"])
def test_dense_matches_casework_at_three_qubits(n, t, attack, dense):
    if attack.variant == "double":
        exact = crypto.soundness_double("trap", n, t, attack)
    else:
        exact = crypto.soundness_trap_single(n, t, attack)
    lhs, accept = dense(n, t, attack)
    assert abs(exact.lhs - lhs) <= 1e-9
    assert abs(exact.accept_rate - accept) <= 1e-9


def test_clifford_stack_sums_run_in_bounded_memory():
    # The Clifford sums run coset by coset and allocate no temporary the
    # size of the 11,520-element stack (2.9 MB), even when it is built.
    pauli.enumerate_clifford(2)
    q, qp = pauli.PauliString.from_label("XI"), pauli.PauliString.from_label("ZY")
    rho = np.eye(4, dtype=complex) / 4
    attack = crypto.parse_attack("double:mix:0.6*II,0.4*XZ;pauli:YX")
    for call in (lambda: crypto.dense_clifford_double(1, 1, attack),
                 lambda: pauli.verify_twirl("clifford", q, qp, rho)):
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20


def test_identity_attack_on_both_uses_is_exactly_zero():
    r = crypto.soundness_double("trap", 1, 1, crypto.parse_attack("double:id;id"))
    assert r.lhs == 0.0
    assert r.trace_distance_budget() == 0.0


def _random_unitary(dim, seed):
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


@pytest.mark.parametrize("text", ["double:pauli:XI;pauli:ZY",
                                  "double:mix:0.6*II,0.4*XZ;depol:0.5"])
def test_dense_double_use_with_encoding(text):
    att = crypto.parse_attack(text)
    for encode in (crypto._phase_unitary(1, 0.7), _random_unitary(2, 17)):
        for protocol, dense in (("trap", crypto.dense_trap_double),
                                ("clifford", crypto.dense_clifford_double)):
            exact = crypto.soundness_double(protocol, 1, 1, att, encode=encode)
            lhs, accept = dense(1, 1, att, encode=encode)
            assert abs(exact.lhs - lhs) <= 1e-9
            assert abs(exact.accept_rate - accept) <= 1e-9


def test_double_use_mixture_point():
    att = crypto.parse_attack("double:mix:0.6*IIII,0.4*XZYX;depol:0.5")
    r = crypto.soundness_double("trap", 2, 2, att)
    np.testing.assert_allclose(r.lhs, 0.10856481481, rtol=1e-9)
    assert r.lhs <= r.bound


def _apply_kraus(rho, kraus):
    out = np.zeros_like(rho)
    for k in kraus:
        out += k @ rho @ k.conj().T
    return out


def _seeded_stream(seed):
    return crypto._key_stream(np.random.SeedSequence(seed))


def _reference_trap_keys(m, t, stream, uses=1):
    """Flag slots, then per use the Kronecker product of the slots' drawn Cliffords."""
    flags, local = crypto._draw_trap_keys(stream, 1, m, t, uses)
    group = pauli.enumerate_clifford(1)
    return tuple(flags[0].tolist()), [kron_all(list(group[row])) for row in local[0]]


def _reference_trap_round_single(psi, t, flags, u_enc, attack):
    """One trap-code key as the rounds were written before ``crypto._round``.

    Returns (p_accept, normalized post-accept data state).
    """
    n = psi.size.bit_length() - 1
    m = n + t
    vec = _embed_with_flags(psi, flags, m)
    enc = u_enc @ vec
    rho = _apply_kraus(np.outer(enc, enc.conj()), attack.kraus_ops(m))
    rho = u_enc.conj().T @ rho @ u_enc
    rho_l = _to_logical(rho, flags, m)
    block = rho_l.reshape(1 << n, 1 << t, 1 << n, 1 << t)[:, 0, :, 0]
    p_acc = float(np.real(np.trace(block)))
    if p_acc < 1e-14:
        return p_acc, np.zeros_like(block)
    return p_acc, block / p_acc


def _reference_clifford_round(psi, vec, t, u_enc, kraus):
    """(accept, lhs term) of one Clifford key; vec is psi with t |0> flags last."""
    n = psi.size.bit_length() - 1
    enc = u_enc @ vec
    rho = _apply_kraus(np.outer(enc, enc.conj()), kraus)
    rho = u_enc.conj().T @ rho @ u_enc
    block = rho.reshape(1 << n, 1 << t, 1 << n, 1 << t)[:, 0, :, 0]
    p_acc = float(np.real(np.trace(block)))
    overlap = float(np.real(np.vdot(psi, block @ psi)))
    return p_acc, p_acc - overlap


def _reference_double_trial(protocol, n, t, kraus1, kraus2, psi, u_data, stream):
    """(accept, lhs term) of one double-use trial with two independent keys."""
    m = n + t
    u_full_l = np.kron(u_data, np.eye(1 << t, dtype=complex))
    ideal = u_data @ psi
    if protocol == "trap":
        flags, (u1, u2) = _reference_trap_keys(m, t, stream, uses=2)
    else:
        flags = tuple(range(n, m))
        u1 = pauli.random_clifford(m, stream[1])
        u2 = pauli.random_clifford(m, stream[1])
    vec = _embed_with_flags(psi, flags, m)
    rho = np.outer(vec, vec.conj())
    rho = u1.conj().T @ _apply_kraus(u1 @ rho @ u1.conj().T, kraus1) @ u1
    rho = _to_physical(u_full_l @ _to_logical(rho, flags, m) @ u_full_l.conj().T, flags, m)
    rho = u2.conj().T @ _apply_kraus(u2 @ rho @ u2.conj().T, kraus2) @ u2
    block = _to_logical(rho, flags, m).reshape(1 << n, 1 << t, 1 << n, 1 << t)[:, 0, :, 0]
    p_acc = float(np.real(np.trace(block)))
    return p_acc, p_acc - float(np.real(np.vdot(ideal, block @ ideal)))


def _reference_trial(protocol, n, t, attacks, psi, encode, stream):
    m = n + t
    if len(attacks) == 2:
        u_data = np.eye(1 << n, dtype=complex) if encode is None else encode
        return _reference_double_trial(protocol, n, t, attacks[0].kraus_ops(m),
                                       attacks[1].kraus_ops(m), psi, u_data, stream)
    if protocol == "trap":
        flags, (u_enc,) = _reference_trap_keys(m, t, stream)
        p_acc, cond = _reference_trap_round_single(psi, t, flags, u_enc, attacks[0])
        rho_id = np.outer(psi, psi.conj())
        return p_acc, p_acc * (1.0 - float(np.real(np.trace(rho_id @ cond))))
    u_enc = pauli.random_clifford(m, stream[1])
    vec = np.kron(psi, np.eye(1 << t)[0])
    return _reference_clifford_round(psi, vec, t, u_enc, attacks[0].kraus_ops(m))


@pytest.mark.parametrize("n,t", [(2, 1), (3, 2)])
@pytest.mark.parametrize("protocol", ["trap", "clifford"])
def test_sampled_round_matches_reference_rounds(n, t, protocol):
    # One seeded trial of _sample_keys reads the keys the reference rounds
    # draw from the same seeded stream, so each (p_accept, lhs) pair must
    # agree to rounding.
    m = n + t
    fixed = crypto.AttackSpec.fixed_pauli("XZYXZ"[:m])
    mix = crypto.AttackSpec.pauli_mixture([(0.7, "I" * m), (0.3, "ZXYZX"[:m])])
    damping = _amplitude_damping_on(0, gamma=0.4, m=m)
    rng = np.random.default_rng(5)
    psi = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    psi /= np.linalg.norm(psi)
    cases = [([fixed], None), ([mix], None), ([damping], None),
             ([mix, damping], crypto._phase_unitary(n, 0.7)), ([damping, fixed], None)]
    for attacks, encode in cases:
        for seed in range(20):
            lhs, accept, _ = crypto._sample_keys(protocol, n, t, attacks, psi, encode, 1, seed)
            stream = _seeded_stream(seed)
            want = _reference_trial(protocol, n, t, attacks, psi, encode, stream)
            assert abs(accept - want[0]) <= 1e-12
            assert abs(lhs - want[1]) <= 1e-12


@pytest.mark.parametrize("n,t", [(2, 1), (3, 2)])
def test_sampled_pauli_mixture_trial_matches_reference_round(n, t):
    # One seeded trial of the Pauli-mixture sampler reads its key off the
    # tables; the reference conjugates by the same key as a dense matrix.
    m = n + t
    mix = crypto.AttackSpec.pauli_mixture([(0.4, "I" * m), (0.3, "ZXYZX"[:m]),
                                           (0.2, "XIZYI"[:m]), (0.1, "YYXXZ"[:m])])
    rng = np.random.default_rng(8)
    psi = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    psi /= np.linalg.norm(psi)
    for seed in range(20):
        lhs, accept, _ = crypto._sample_trap_single(n, t, mix, psi, 1, seed)
        stream = _seeded_stream(seed)
        want = _reference_trial("trap", n, t, [mix], psi, None, stream)
        assert abs(accept - want[0]) <= 1e-12
        assert abs(lhs - want[1]) <= 1e-12


def _literal_trap_single(n, t, attack, psi, trials, seed):
    """The sampled trap path one trial at a time, each overlap computed afresh."""
    m = n + t
    terms = attack.pauli_terms(m)
    probs = np.array([p for p, _ in terms])
    codes = np.array([pauli._axis_codes(q) for _, q in terms])
    decrypt = crypto._local_key_tables()

    def overlap(data):
        x = sum(int(c & 1) << j for j, c in enumerate(data))
        z = sum(int(c >> 1) << j for j, c in enumerate(data))
        v = pauli.PauliString(n, x, z, (x & z).bit_count()).to_matrix()
        return 1.0 if x == z == 0 else abs(np.vdot(psi, v @ psi)) ** 2

    def one_trial(flags, local):
        is_flag = np.zeros(m, dtype=bool)
        is_flag[list(flags)] = True
        decrypted = decrypt[local, codes]
        alive = np.flatnonzero(crypto._delegated_rule(decrypted, is_flag)[0])
        p_acc = float(probs[alive].sum())
        return p_acc, p_acc - sum(probs[k] * overlap(decrypted[k, ~is_flag]) for k in alive)

    stream = _seeded_stream(seed)
    vals, accs = np.empty(trials), np.empty(trials)
    for i, (flags, (local,)) in enumerate(zip(*crypto._draw_trap_keys(stream, trials, m, t))):
        accs[i], vals[i] = one_trial(flags, local)
    err = float(np.std(vals, ddof=1) / np.sqrt(trials)) if trials > 1 else 0.0
    return float(np.mean(vals)), float(np.mean(accs)), err


@pytest.mark.parametrize("chunk_entries", [1 << 16, 7 * 14 * 5])
def test_sampled_trap_matches_literal_trial_loop(monkeypatch, chunk_entries):
    # 14 terms on m = 5 with one flag: about one trial in seven accepts 8 or
    # more terms, which numpy's sum adds pairwise.  One-trial runs compare
    # trials one by one; 7 * 14 * 5 entries make chunks of 7 trials.
    monkeypatch.setattr(crypto, "_CHUNK_ENTRIES", chunk_entries)
    rng = np.random.default_rng(21)
    labels = ["".join(rng.choice(list("IXYZ"), 5)) for _ in range(14)]
    mix = crypto.AttackSpec.pauli_mixture(list(zip(rng.dirichlet(np.ones(14)).tolist(),
                                                   labels)))
    psi = rng.normal(size=16) + 1j * rng.normal(size=16)
    psi /= np.linalg.norm(psi)
    for trials, seed in [(1, seed) for seed in range(80)] + [(2, 0), (300, 5)]:
        assert (crypto._sample_trap_single(4, 1, mix, psi, trials, seed)
                == _literal_trap_single(4, 1, mix, psi, trials, seed))


def test_drawn_placements_are_uniform():
    # 60,000 placements of t = 2 flags among m = 4 slots: each of the C(4, 2) = 6
    # sorted pairs within 4 sigma of 10,000.
    flags, _ = crypto._draw_trap_keys(_seeded_stream(31), 60_000, 4, 2)
    assert (np.diff(flags, axis=1) > 0).all() and ((0 <= flags) & (flags < 4)).all()
    pairs, counts = np.unique(flags, axis=0, return_counts=True)
    assert pairs.tolist() == [list(c) for c in itertools.combinations(range(4), 2)]
    sigma = np.sqrt(60_000 * (1 / 6) * (5 / 6))
    assert np.abs(counts - 10_000).max() <= 4 * sigma


def test_drawn_slot_indices_are_uniform():
    # 240,000 indices over the 24 single-qubit Cliffords, each within 4 sigma.
    _, local = crypto._draw_trap_keys(_seeded_stream(32), 30_000, 4, 2, uses=2)
    assert local.shape == (30_000, 2, 4)
    counts = np.bincount(local.ravel(), minlength=24)
    assert counts.size == 24
    sigma = np.sqrt(240_000 * (1 / 24) * (23 / 24))
    assert np.abs(counts - 10_000).max() <= 4 * sigma


def test_chunked_key_draws_equal_one_draw():
    whole = crypto._draw_trap_keys(_seeded_stream(33), 310, 7, 3, uses=2)
    stream = _seeded_stream(33)
    parts = [crypto._draw_trap_keys(stream, size, 7, 3, uses=2) for size in (1, 7, 300, 2)]
    for got, want in zip(zip(*parts), whole):
        assert np.array_equal(np.concatenate(got), want)


def test_sample_accepts_the_trials_cap_and_refuses_one_more():
    def run(stream, size):
        return np.zeros(size), np.zeros(size)

    assert crypto._sample(crypto._TRIALS_CAP, 0, run, 1 << 20) == (0.0, 0.0, 0.0)
    with pytest.raises(ValueError, match="^trials must be <= 1000000, got 1000001$"):
        crypto._sample(crypto._TRIALS_CAP + 1, 0, run, 1 << 20)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="^trials must be <= 1000000, got 1000000000000$"):
            crypto._sample(10 ** 12, 0, run, 1 << 20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_sampled_trap_report_is_pinned():
    report = json.loads(cli.crypto_json("trap1", 5, 2, "mix:0.9*IIIIIII,0.1*XZYXZYX",
                                        trials=1000, seed=7))
    assert report["mode"] == "sampled"
    assert report["lhs"] == 0.009899999999999997
    assert report["accept_rate"] == 0.9103000000000002
    assert report["stderr"] == 0.0009449248027662744


def test_sampled_trap_paths_build_no_tableau(monkeypatch):
    # Trap keys are indices into the single-qubit tables: no sampled trap
    # report at m = 7 and no demo round draws an m-qubit Clifford.
    def refuse(*args, **kwargs):
        raise AssertionError("random_clifford called on a sampled trap path")

    monkeypatch.setattr(pauli, "random_clifford", refuse)
    monkeypatch.setattr(crypto, "random_clifford", refuse)
    for text in ("mix:0.9*IIIIIII,0.1*XZYXZYX", "depol:0.3"):
        report = json.loads(cli.crypto_json("trap1", 5, 2, text, trials=3, seed=7))
        assert report["mode"] == "sampled"
    crypto.end_to_end_demo(2, 1, 50, crypto.parse_attack("mix:0.6*III,0.4*XZY"), seed=13)


@pytest.mark.parametrize("n,t", [(1, 1), (2, 1)])
@pytest.mark.parametrize("protocol", ["trap", "clifford"])
def test_sampled_double_use_matches_exact(n, t, protocol):
    m = n + t
    att = crypto.parse_attack("double:mix:0.6*%s,0.4*%s;depol:0.5" % ("I" * m, "XZY"[:m]))
    for encode in (None, crypto._phase_unitary(n, 0.7)):
        exact = crypto.soundness_double(protocol, n, t, att, encode=encode)
        sampled = crypto.soundness_double(protocol, n, t, att, encode=encode, mode="sampled",
                                          trials=400)
        assert sampled.mode == "sampled" and sampled.stderr > 0
        assert abs(sampled.lhs - exact.lhs) <= 4 * sampled.stderr + 1e-12


@pytest.mark.parametrize("m", [1, 2, 3])
def test_kraus_ops_are_scaled_pauli_kron_products(m):
    # Every non-Kraus attack lists sqrt(p) times the Kronecker product of
    # 2x2 Paulis for each of its Pauli terms, identity first for depol.
    labels = ["".join(axes) for axes in itertools.product("IXYZ", repeat=m)]

    def literal(prob, label, sign=1.0):
        return np.sqrt(prob) * sign * kron_all([PAULI_1Q[a] for a in label])

    s = 0.3
    cases = [
        (crypto.AttackSpec.identity(), [literal(1.0, "I" * m)]),
        (crypto.parse_attack("pauli:-" + "XZY"[:m]), [literal(1.0, "XZY"[:m], -1.0)]),
        (crypto.parse_attack("mix:0.7*%s,0.3*%s" % ("I" * m, "ZXY"[:m])),
         [literal(0.7, "I" * m), literal(0.3, "ZXY"[:m])]),
        (crypto.parse_attack("depol:%r" % s),
         [literal(1.0 - s + s / 4 ** m if lab == "I" * m else s / 4 ** m, lab)
          for lab in sorted(labels, key=_xz_order)]),
    ]
    for attack, want in cases:
        got = attack.kraus_ops(m)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert np.abs(a - b).max() <= 1e-15


def _xz_order(label):
    """The order of all_paulis, identity first: x mask, then z mask, qubit j as bit j."""
    x = sum(1 << j for j, a in enumerate(label) if a in "XY")
    z = sum(1 << j for j, a in enumerate(label) if a in "ZY")
    return x, z


def test_sampled_mixture_report_ignores_exact_casework_on_the_same_probe():
    # The exact casework and the sampled trap path share one overlap table per
    # probe, so a sampled report reads the same bytes from a fresh table and
    # from one the casework already filled.
    text = "mix:0.5*IIIIIII,0.3*XZYXZYX,0.2*ZZIIYXI"
    crypto._TABLE_CACHE.clear()
    fresh = cli.crypto_json("trap1", 5, 2, text, trials=500, seed=3)
    crypto._TABLE_CACHE.clear()
    crypto.soundness_trap_single(5, 2, crypto.parse_attack(text))
    assert crypto._TABLE_CACHE
    assert cli.crypto_json("trap1", 5, 2, text, trials=500, seed=3) == fresh


@pytest.mark.parametrize("n", range(1, 7))
def test_variant_table_vectors_match_pauli_matrices_bit_for_bit(n):
    # The table applies a data Pauli by its permutation and phases, never its
    # matrix: each entry is one of 1, -1, i, -i times one amplitude, so the
    # vectors equal the matrix products exactly, for every phase of the Pauli.
    rng = np.random.default_rng(2300 + n)
    psi = _random_unitary(2 ** n, n)[:, 0]
    for u_encode in (None, _random_unitary(2 ** n, 100 + n)):
        ideal = psi if u_encode is None else u_encode @ psi
        for _ in range(6):
            x, z = (int(v) for v in rng.integers(0, 2 ** n, size=2))
            for k in range(4):
                v = pauli.PauliString(n, x, z, k)
                table = crypto._VariantTable(psi, u_encode)
                pre = v.to_matrix() @ psi
                assert np.array_equal(table._pre_vec(v, True),
                                      pre if u_encode is None else u_encode @ pre)
                assert np.array_equal(table._post_vec(v), v.to_matrix() @ ideal)


def test_depolarizing_kraus_form_is_capped():
    # The Kraus form lists all 4^m Paulis (4.3 GB at m = 7); sampled rounds
    # apply depolarizing noise in closed form instead.
    with pytest.raises(ValueError, match="depolarizing Kraus form capped at m = 5"):
        crypto.AttackSpec.depolarizing(0.3).kraus_ops(6)


@pytest.mark.parametrize("trials,seed,message", [
    (0, 0, "trials must be >= 1, got 0"),
    (-2, 0, "trials must be >= 1, got -2"),
    (3, -1, "seed must be >= 0, got -1"),
    (10 ** 12, 0, "trials must be <= 1000000, got 1000000000000"),
], ids=["trials-zero", "trials-negative", "seed-negative", "trials-over-cap"])
@pytest.mark.parametrize("sample", [
    lambda **kw: crypto.soundness_trap_single(2, 1, crypto.parse_attack("pauli:XII"), **kw),
    lambda **kw: crypto.soundness_clifford_single(2, 1, crypto.parse_attack("pauli:XII"), **kw),
    lambda **kw: crypto.soundness_double("trap", 2, 1, crypto.parse_attack("double:pauli:XII;id"),
                                         **kw),
], ids=["trap", "clifford", "double"])
def test_sampled_trials_and_seed_are_checked(sample, trials, seed, message):
    with pytest.raises(ValueError, match="^%s$" % message):
        sample(mode="sampled", trials=trials, seed=seed)


def test_sampled_mode_agrees_with_bound():
    att = crypto.parse_attack("mix:0.9*IIIIIII,0.1*XZYXZYX")
    r = crypto.soundness_trap_single(5, 2, att, mode="sampled", trials=400, seed=7)
    assert r.mode == "sampled"
    assert r.trials == 400
    assert r.stderr > 0
    assert r.lhs <= r.bound
    again = crypto.soundness_trap_single(5, 2, att, mode="sampled", trials=400, seed=7)
    np.testing.assert_allclose(r.lhs, again.lhs, atol=0)


def test_report_rejects_exact_bound_violation():
    with pytest.raises(ArithmeticError):
        crypto.SoundnessReport(lhs=0.5, bound=0.25, accept_rate=0.5, mode="exact")


def test_report_dict_order():
    r = crypto.soundness_trap_single(2, 1, crypto.AttackSpec.identity())
    assert list(r.as_dict().keys()) == [
        "lhs", "bound", "accept_rate", "trace_distance_budget", "mode"]


def test_replay_breaks_reused_key():
    broken, honest, bound = crypto.replay_attack_demo(1, 4, np.pi / 2)
    np.testing.assert_allclose(broken, 2.0 / 3.0, rtol=1e-9)
    np.testing.assert_allclose(bound, 0.5625)
    assert broken > bound
    assert honest < bound
    np.testing.assert_allclose(honest, 0.042337719521, rtol=1e-8)


def test_replay_reduction_matches_dense():
    b1, h1, bd1 = crypto.replay_attack_demo(2, 1, 0.7)
    b2, h2, bd2 = crypto.replay_attack_demo(2, 1, 0.7, dense=True)
    np.testing.assert_allclose(b1, b2, atol=1e-9)
    np.testing.assert_allclose(h1, h2, atol=1e-9)
    np.testing.assert_allclose(bd1, bd2)


@pytest.mark.parametrize("call,message", [
    (lambda: crypto.dense_trap_single(2, 2, crypto.AttackSpec.identity()),
     "dense trap key enumeration capped at m = 3, got m = 4"),
    (lambda: crypto.dense_trap_double(3, 1, crypto.parse_attack("double:id;id")),
     "dense trap key enumeration capped at m = 3, got m = 4"),
    (lambda: crypto.dense_clifford_single(2, 1, crypto.AttackSpec.identity()),
     "dense Clifford key enumeration capped at m = 2, got m = 3"),
    (lambda: crypto.dense_clifford_double(1, 2, crypto.parse_attack("double:id;id")),
     "dense Clifford key enumeration capped at m = 2, got m = 3"),
    (lambda: crypto.privacy_deviation("trap", 3, 1),
     "dense trap key enumeration capped at m = 3, got m = 4"),
    (lambda: crypto.privacy_deviation("delegated", 2, 2),
     "dense trap key enumeration capped at m = 3, got m = 4"),
    (lambda: crypto.privacy_deviation("clifford", 1, 2),
     "dense Clifford key enumeration capped at m = 2, got m = 3"),
    (lambda: crypto.replay_attack_demo(2, 2, 0.7, dense=True),
     "replay enumeration capped at m = 3, got m = 4"),
], ids=["trap1", "trap2", "cliff1", "cliff2", "privacy-trap", "privacy-delegated",
        "privacy-clifford", "replay"])
def test_dense_enumerations_refuse_registers_past_their_caps(call, message):
    with pytest.raises(ValueError, match="^%s$" % message):
        call()


def test_privacy_of_all_protocols():
    assert crypto.privacy_deviation("trap", 1, 1) < 1e-10
    assert crypto.privacy_deviation("clifford", 1, 1) < 1e-10
    assert crypto.privacy_deviation("delegated", 2, 1) < 1e-10


def test_integrity_params():
    ip = crypto.IntegrityParams(o=1.0, dO_dtheta=-2.0, delta=0.02, alpha=0.8, nu=1000)
    np.testing.assert_allclose(ip.epsilon, np.sqrt(0.02 / 0.8))
    # the bias bound rescales as 2 |o| eps / |dO/dtheta|
    np.testing.assert_allclose(crypto.integrity_bias_bound(ip), ip.epsilon)
    wide = crypto.IntegrityParams(o=2.0, dO_dtheta=-2.0, delta=0.02, alpha=0.8, nu=1000)
    np.testing.assert_allclose(crypto.integrity_bias_bound(wide), 2.0 * ip.epsilon)
    steep = crypto.IntegrityParams(o=1.0, dO_dtheta=-4.0, delta=0.02, alpha=0.8, nu=1000)
    np.testing.assert_allclose(crypto.integrity_bias_bound(steep), 0.5 * ip.epsilon)
    assert crypto.integrity_mse_bound(ip) > crypto.integrity_bias_bound(ip) ** 2
    with pytest.raises(ValueError):
        crypto.IntegrityParams(o=1.0, dO_dtheta=0.0, delta=0.02, alpha=0.8, nu=10)


def test_flags_required():
    assert crypto.flags_required("trap", 2, 100, 0.5) == 600
    assert crypto.flags_required("clifford", 2, 100, 0.5) == 8
    assert crypto.flags_required("trap", 2, 10000, 0.9) == 33334
    assert crypto.flags_required("clifford", 2, 10000, 0.9) == 14


def test_end_to_end_demo_obeys_bounds():
    att = crypto.parse_attack("mix:0.99*III,0.01*ZII")
    res = crypto.end_to_end_demo(2, 1, 4000, att, seed=13)
    assert res.rounds_accepted == 3989
    np.testing.assert_allclose(res.accept_rate, 0.99725, atol=1e-5)
    assert abs(res.empirical_bias) <= res.bound_bias + 4 * res.bias_stderr
    excess = res.empirical_mse - res.ideal_mse
    assert excess <= res.bound_mse + 4 * res.mse_stderr


def test_end_to_end_demo_acceptance_matches_exact():
    # The demo samples delegated rounds one key and one attack term at a
    # time; its acceptance rate estimates the exact delegated accept rate.
    att = crypto.parse_attack("mix:0.6*III,0.4*XZY")
    rounds = 4000
    res = crypto.end_to_end_demo(2, 1, rounds, att, seed=13)
    exact = crypto.soundness_delegated(2, 1, att, theta=res.theta_true).accept_rate
    stderr = np.sqrt(exact * (1.0 - exact) / rounds)
    assert abs(res.accept_rate - exact) <= 4 * stderr


@pytest.mark.parametrize("sample", [
    lambda **kw: crypto.soundness_trap_single(4, 3, crypto.parse_attack("depol:0.37"), **kw),
    lambda **kw: crypto.soundness_delegated(4, 3, crypto.parse_attack("depol:0.37"), **kw),
], ids=["trap1", "delegated"])
def test_sampled_depolarizing_trap_equals_exact(sample):
    # Depolarizing noise commutes with every key, so each sampled trial at
    # m = 7 gives the exact casework value up to rounding.
    exact = sample()
    sampled = sample(mode="sampled", trials=2, seed=0)
    assert sampled.mode == "sampled"
    np.testing.assert_allclose(sampled.lhs, exact.lhs, rtol=1e-12)
    np.testing.assert_allclose(sampled.accept_rate, exact.accept_rate, rtol=1e-12)

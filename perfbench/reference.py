"""Reference computations for the output checks, written with numpy alone.

Nothing here imports qmet: each function rebuilds a quantity from its
definition (a graph state from its edge list, a Pauli expectation from the
bit masks, a GF(2) solve, a closed-form soundness value from the attack's
own description), so a check built on it does not share a reduction with
the code it checks.  Qubit 0 is the most significant bit of a basis index,
the convention of ``graphs.graph_state`` and ``PauliString.to_matrix``.
"""

from __future__ import annotations

import numpy as np


# Basis indices per block: the blocked helpers below hold a few arrays of
# this length at a time, so a check of a 2^20-amplitude state stays far
# below the memory of the state itself.
BLOCK = 1 << 14


def graph_statevector(n: int, edges, lo: int = 0, hi: int | None = None) -> np.ndarray:
    """Amplitudes <i| prod_{(u,v)} CZ_uv |+>^n for basis indices lo <= i < hi (all by default)."""
    hi = 1 << n if hi is None else hi
    idx = np.arange(lo, hi, dtype=np.int64)
    parity = np.zeros(hi - lo, dtype=np.int64)
    for u, v in edges:
        parity ^= (idx >> (n - 1 - u)) & (idx >> (n - 1 - v))
    return (1.0 - 2.0 * (parity & 1)) * 2.0 ** (-n / 2)


def apply_pauli(psi: np.ndarray, n: int, x: int, z: int, k: int = 0,
                lo: int = 0, hi: int | None = None) -> np.ndarray:
    """Entries lo..hi of i^k prod_j X_j^{x_j} Z_j^{z_j} psi (bit j of a mask is qubit j)."""
    hi = 1 << n if hi is None else hi
    xm = zm = 0
    for j in range(n):
        xm |= ((x >> j) & 1) << (n - 1 - j)
        zm |= ((z >> j) & 1) << (n - 1 - j)
    src = np.arange(lo, hi, dtype=np.int64) ^ xm
    sign = 1.0 - 2.0 * (np.bitwise_count(src & zm) & 1)
    return (1j ** k) * sign * psi[src]


def encoding_qfi(psi: np.ndarray, n: int, axis: str) -> float:
    """Pure-state QFI 4 Var(sum_i P_i / 2) for P = X or Y, summed block by block."""
    k = {"x": 0, "y": 1}[axis]
    z_of = (lambda j: 0) if axis == "x" else (lambda j: 1 << j)
    mean = square = 0.0
    for lo in range(0, 1 << n, BLOCK):
        hi = min(1 << n, lo + BLOCK)
        gen = sum(apply_pauli(psi, n, 1 << j, z_of(j), k, lo, hi) for j in range(n))
        mean += np.vdot(psi[lo:hi], gen).real
        square += np.vdot(gen, gen).real
    return float(square - mean ** 2)


def max_graph_state_error(psi: np.ndarray, n: int, edges) -> float:
    """Largest |psi_i - <i|G>| over all basis indices, block by block."""
    worst = 0.0
    for lo in range(0, 1 << n, BLOCK):
        hi = min(1 << n, lo + BLOCK)
        worst = max(worst, float(np.max(np.abs(psi[lo:hi] - graph_statevector(n, edges, lo, hi)))))
    return worst


def gf2_solvable(rows: list[int], rhs: list[int], n: int) -> bool:
    """Whether sum_k A[i][k] c_k = rhs_i (mod 2) has a solution; row i is a bit mask."""
    pivots: list[tuple[int, int, int]] = []
    for row, b in zip(rows, rhs):
        for col, prow, pb in pivots:
            if (row >> col) & 1:
                row ^= prow
                b ^= pb
        if row == 0:
            if b:
                return False
            continue
        col = row.bit_length() - 1
        pivots.append((col, row, b))
    return True


def clifford_lhs(m: int, t: int, a: float) -> float:
    """Single-use Clifford-code soundness 2^m (2^(m-t) - 1)(1 - a) / (4^m - 1)."""
    return 2.0 ** m * (2.0 ** (m - t) - 1.0) * (1.0 - a) / (4.0 ** m - 1.0)


def identity_weight(terms: list[tuple[float, str]], depolarizing: float | None, m: int) -> float:
    """Weight of the identity in an attack given as (probability, label) terms or a strength."""
    if depolarizing is not None:
        return 1.0 - depolarizing + depolarizing / 4.0 ** m
    return sum(p for p, label in terms if set(label.lstrip("-")) <= {"I"})


def random_density(m: int, rng: np.random.Generator) -> np.ndarray:
    dim = 1 << m
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real

"""Dense density-matrix workhorse: states, channels, and QFI evaluators.

Everything in here is brute force on purpose.  The closed-form modules
(graphs, ecc, crypto) are checked against these routines at small qubit
number, so this file avoids clever shortcuts: states are explicit complex
arrays, evolution is fixed-step RK4, and the quantum Fisher information
is evaluated straight from the spectral decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "ID2", "SX", "SY", "SZ", "PAULI_1Q",
    "ThetaFamily",
    "as_density", "pure", "ket", "ghz", "plus_state", "kron_all",
    "local_product_sum",
    "hermitian_eig", "hermitian_expm",
    "fidelity", "trace_distance", "partial_trace",
    "evolve_lindblad",
    "qfi_spectral", "qfi_pure", "qfi_fidelity_limit",
]

ID2 = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
PAULI_1Q = {"I": ID2, "X": SX, "Y": SY, "Z": SZ}

# Eigenvalues below this are treated as outside the support when dividing.
EIGEN_CUT = 1e-12
_HERM_TOL = 1e-8


@dataclass(frozen=True)
class ThetaFamily:
    """A one-parameter family of density matrices theta -> rho(theta).

    ``h`` optionally overrides the default finite-difference step used by
    the QFI evaluators.
    """

    fun: Callable[[float], np.ndarray]
    h: float | None = None

    def __call__(self, theta: float) -> np.ndarray:
        return self.fun(theta)


def kron_all(mats: Sequence[np.ndarray]) -> np.ndarray:
    out = np.array([[1.0 + 0j]])
    for m in mats:
        out = np.kron(out, m)
    return out


def local_product_sum(rho: np.ndarray,
                      pairs: Sequence[Sequence[tuple[np.ndarray, np.ndarray]]]) -> np.ndarray:
    """sum of (A_1 x ... x A_m) rho (B_1 x ... x B_m) over one pair per qubit.

    ``pairs[j]`` lists the 2x2 pairs (A_j, B_j) allowed on qubit j (qubit 0
    leftmost).  The sum over all prod_j len(pairs[j]) combinations is a
    tensor product of single-qubit maps, so each is applied in turn on row
    axis j and column axis m + j of rho as a [2] * 2m tensor: sum_j
    len(pairs[j]) small contractions and no Kronecker product.
    """
    m = len(pairs)
    t = np.asarray(rho, dtype=complex).reshape([2] * (2 * m))
    for j, options in enumerate(pairs):
        acc = np.zeros_like(t)
        for a, b in options:
            left = np.moveaxis(np.tensordot(a, t, axes=(1, j)), 0, j)
            acc += np.moveaxis(np.tensordot(left, b, axes=(m + j, 0)), -1, m + j)
        t = acc
    return t.reshape(1 << m, 1 << m)


def ket(bits: Sequence[int]) -> np.ndarray:
    """Computational basis ket for a bit tuple, qubit 0 leftmost."""
    n = len(bits)
    index = 0
    for b in bits:
        index = (index << 1) | int(b)
    v = np.zeros(2 ** n, dtype=complex)
    v[index] = 1.0
    return v


def ghz(n: int) -> np.ndarray:
    v = np.zeros(2 ** n, dtype=complex)
    v[0] = v[-1] = 1 / np.sqrt(2)
    return v


def plus_state(n: int) -> np.ndarray:
    return np.full(2 ** n, 2 ** (-n / 2), dtype=complex)


def pure(psi: np.ndarray) -> np.ndarray:
    psi = np.asarray(psi, dtype=complex)
    return np.outer(psi, psi.conj())


def as_density(rho: np.ndarray, *, atol: float = 1e-10) -> np.ndarray:
    """Validate and return a density matrix.

    Raises ValueError if rho is not square, not Hermitian within ``atol``,
    has trace away from 1 by more than ``atol``, or has an eigenvalue
    below -1e-9.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError("density matrix must be square, got shape %r" % (rho.shape,))
    herm_dev = np.max(np.abs(rho - rho.conj().T))
    if herm_dev > atol * max(1.0, float(np.max(np.abs(rho)))):
        raise ValueError("non-hermitian input: deviation %.3e" % herm_dev)
    tr = complex(np.trace(rho))
    if abs(tr - 1.0) > atol:
        raise ValueError("trace %.12f is not 1 within %.1e" % (tr.real, atol))
    wmin = float(np.linalg.eigvalsh(rho)[0])
    if wmin < -1e-9:
        raise ValueError("negative eigenvalue %.3e below tolerance" % wmin)
    return rho


def hermitian_eig(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending.

    Returns (w, V) with mat = V diag(w) V^dag and orthonormal columns.
    Raises ValueError for non-Hermitian input and ArithmeticError if the
    underlying iteration fails to converge.
    """
    mat = np.asarray(mat, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError("expected a square matrix, got shape %r" % (mat.shape,))
    scale = max(1.0, float(np.max(np.abs(mat))))
    if np.max(np.abs(mat - mat.conj().T)) > _HERM_TOL * scale:
        raise ValueError("non-hermitian input to hermitian_eig")
    try:
        w, v = np.linalg.eigh(mat)
    except np.linalg.LinAlgError as exc:
        raise ArithmeticError("eigensolver did not converge: %s" % exc) from exc
    return w, v


def hermitian_expm(ham: np.ndarray, coeff: complex) -> np.ndarray:
    """exp(coeff * ham) for Hermitian ham, via eigendecomposition."""
    w, v = hermitian_eig(ham)
    return (v * np.exp(coeff * w)) @ v.conj().T


def _sqrtm_psd(mat: np.ndarray) -> np.ndarray:
    w, v = hermitian_eig(mat)
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.conj().T


def fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Uhlmann fidelity F(rho, sigma) = (Tr sqrt(sqrt(rho) sigma sqrt(rho)))^2.

    Falls back to the overlap Tr(rho sigma) when either argument is pure,
    which is exact and avoids two matrix square roots.
    """
    rho = np.asarray(rho, dtype=complex)
    sigma = np.asarray(sigma, dtype=complex)
    if rho.shape != sigma.shape:
        raise ValueError("dimension mismatch: %r vs %r" % (rho.shape, sigma.shape))
    pr = float(np.trace(rho @ rho).real)
    ps = float(np.trace(sigma @ sigma).real)
    if pr > 1.0 - 1e-10 or ps > 1.0 - 1e-10:
        f = float(np.trace(rho @ sigma).real)
    else:
        root = _sqrtm_psd(rho)
        inner = root @ sigma @ root
        w = np.clip(np.linalg.eigvalsh(0.5 * (inner + inner.conj().T)), 0.0, None)
        f = float(np.sum(np.sqrt(w)) ** 2)
    return float(min(max(f, 0.0), 1.0))


def trace_distance(rho: np.ndarray, sigma: np.ndarray) -> float:
    """D(rho, sigma) = (1/2) Tr |rho - sigma|."""
    rho = np.asarray(rho, dtype=complex)
    sigma = np.asarray(sigma, dtype=complex)
    if rho.shape != sigma.shape:
        raise ValueError("dimension mismatch: %r vs %r" % (rho.shape, sigma.shape))
    w = np.linalg.eigvalsh(rho - sigma)
    return float(0.5 * np.sum(np.abs(w)))


def partial_trace(rho: np.ndarray, keep: Sequence[int]) -> np.ndarray:
    """Trace out all qubits not listed in ``keep`` (qubit 0 leftmost).

    The kept qubits stay in their original relative order.
    """
    rho = np.asarray(rho, dtype=complex)
    dim = rho.shape[0]
    n = dim.bit_length() - 1
    if 2 ** n != dim:
        raise ValueError("dimension %d is not a power of two" % dim)
    keep = sorted(set(int(k) for k in keep))
    if any(k < 0 or k >= n for k in keep):
        raise ValueError("keep indices out of range for %d qubits" % n)
    drop = [q for q in range(n) if q not in keep]
    t = rho.reshape([2] * (2 * n))
    for off, q in enumerate(drop):
        ax = q - off
        t = np.trace(t, axis1=ax, axis2=ax + t.ndim // 2)
    d_keep = 2 ** len(keep)
    return t.reshape(d_keep, d_keep)


def _lindblad_rhs(rho: np.ndarray, ham: np.ndarray,
                  jumps: Sequence[tuple[np.ndarray, float]]) -> np.ndarray:
    out = -1j * (ham @ rho - rho @ ham)
    for op, rate in jumps:
        ldag = op.conj().T
        anti = ldag @ op
        out += rate * (op @ rho @ ldag - 0.5 * (anti @ rho + rho @ anti))
    return out


def _rk4_run(rho0: np.ndarray, ham: np.ndarray,
             jumps: Sequence[tuple[np.ndarray, float]],
             t: float, steps: int) -> np.ndarray:
    dt = t / steps
    rho = rho0.copy()
    for _ in range(steps):
        k1 = _lindblad_rhs(rho, ham, jumps)
        k2 = _lindblad_rhs(rho + 0.5 * dt * k1, ham, jumps)
        k3 = _lindblad_rhs(rho + 0.5 * dt * k2, ham, jumps)
        k4 = _lindblad_rhs(rho + dt * k3, ham, jumps)
        rho = rho + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        rho = 0.5 * (rho + rho.conj().T)
        rho /= np.trace(rho).real
    return rho


def evolve_lindblad(rho0: np.ndarray, ham: np.ndarray,
                    jumps: Sequence[tuple[np.ndarray, float]],
                    t: float, *, tol: float = 1e-9,
                    max_steps: int = 1 << 22) -> np.ndarray:
    """Integrate drho/dt = -i[H, rho] + sum_j gamma_j D[L_j](rho) to time t.

    Fixed-step RK4 with step doubling: the run is repeated with twice the
    step count until two successive results agree to ``tol`` in max norm.
    The initial step is chosen so that (dominant rate) * dt <= 0.05.

    Parameters
    ----------
    rho0 : density matrix at time 0
    ham : Hermitian Hamiltonian
    jumps : sequence of (operator, rate) pairs
    t : evolution time, >= 0
    """
    rho0 = as_density(rho0)
    ham = np.asarray(ham, dtype=complex)
    if t < 0:
        raise ValueError("negative evolution time")
    if t == 0:
        return rho0.copy()
    jumps = [(np.asarray(op, dtype=complex), float(rate)) for op, rate in jumps]
    scale = float(np.linalg.norm(ham, 2))
    for op, rate in jumps:
        scale = max(scale, rate * float(np.linalg.norm(op, 2)) ** 2)
    steps = max(16, int(np.ceil(scale * t / 0.05)))
    prev = _rk4_run(rho0, ham, jumps, t, steps)
    while True:
        steps *= 2
        if steps > max_steps:
            raise ArithmeticError(
                "step too coarse: no convergence to %.1e within %d steps" % (tol, max_steps))
        cur = _rk4_run(rho0, ham, jumps, t, steps)
        if np.max(np.abs(cur - prev)) < tol:
            return cur
        prev = cur


def _central_diff(fun: Callable[[float], np.ndarray], x: float, h: float) -> np.ndarray:
    """Central difference with a built-in Richardson fallback.

    Compares the plain two-point estimate at step h with the one at h/2;
    if they disagree by more than 1e-6 in relative max norm the Richardson
    extrapolation of the pair (a five-point stencil overall) is returned.
    """
    d1 = (fun(x + h) - fun(x - h)) / (2 * h)
    d2 = (fun(x + h / 2) - fun(x - h / 2)) / h
    ref = max(1.0, float(np.max(np.abs(d2))))
    if np.max(np.abs(d1 - d2)) > 1e-6 * ref:
        return (4.0 * d2 - d1) / 3.0
    return d2


def default_fd_step(theta: float) -> float:
    return 1e-5 * max(1.0, abs(theta))


def qfi_spectral(family: ThetaFamily | Callable[[float], np.ndarray],
                 theta: float, *, h: float | None = None) -> float:
    """QFI of a density-matrix family from its spectral decomposition.

    Q = 2 sum_{jk} |<j| drho |k>|^2 / (lambda_j + lambda_k), restricted to
    pairs with lambda_j + lambda_k above the support cut.  The derivative
    is a central finite difference in theta.
    """
    if not isinstance(family, ThetaFamily):
        family = ThetaFamily(family)
    step = h if h is not None else (family.h if family.h is not None else default_fd_step(theta))
    rho = as_density(family(theta))
    drho = _central_diff(family.fun, theta, step)
    w, v = hermitian_eig(rho)
    a = v.conj().T @ drho @ v
    denom = w[:, None] + w[None, :]
    mask = denom > EIGEN_CUT
    q = 2.0 * np.sum((np.abs(a) ** 2)[mask] / denom[mask])
    return float(q.real)


def qfi_pure(psi_fun: Callable[[float], np.ndarray], theta: float, *,
             h: float | None = None) -> float:
    """QFI of a pure-state family, Q = 4 (<dpsi|dpsi> - |<psi|dpsi>|^2).

    The caller must keep psi(theta) normalized; a norm drift above 1e-8
    is rejected.
    """
    step = h if h is not None else default_fd_step(theta)
    psi = np.asarray(psi_fun(theta), dtype=complex)
    if abs(np.linalg.norm(psi) - 1.0) > 1e-8:
        raise ValueError("state family is not normalized at theta=%r" % theta)
    dpsi = _central_diff(lambda x: np.asarray(psi_fun(x), dtype=complex), theta, step)
    overlap = np.vdot(psi, dpsi)
    q = 4.0 * (np.vdot(dpsi, dpsi).real - abs(overlap) ** 2)
    return float(q)


def qfi_fidelity_limit(family: ThetaFamily | Callable[[float], np.ndarray],
                       theta: float, dtheta: float = 1e-4) -> float:
    """QFI from the fidelity drop between rho(theta) and rho(theta + dtheta).

    Uses Q ~= 8 (1 - sqrt(F)) / dtheta^2, valid for small dtheta.
    """
    if not (1e-6 <= dtheta <= 1e-2):
        raise ValueError("dtheta=%g outside the supported window [1e-6, 1e-2]" % dtheta)
    fun = family.fun if isinstance(family, ThetaFamily) else family
    f = fidelity(as_density(fun(theta)), as_density(fun(theta + dtheta)))
    return float(8.0 * (1.0 - np.sqrt(f)) / dtheta ** 2)

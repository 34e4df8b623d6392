"""Dense density-matrix workhorse: states, channels, and QFI evaluators.

Everything in here is brute force on purpose.  The closed-form modules
(graphs, ecc, crypto) are checked against these routines at small qubit
number, so this file avoids clever shortcuts: states are explicit complex
arrays, Lindblad evolution applies exp(t G) of the generator by a
truncated Taylor series with a proven remainder bound, and the quantum
Fisher information is evaluated straight from the spectral decomposition.
For a Lindblad family the derivative it needs is exact: the sensitivity
equation for d rho / d omega is evolved alongside rho, so no finite
difference of separate evolutions enters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "ID2", "SX", "SY", "SZ", "PAULI_1Q",
    "as_density", "pure", "ket", "ghz", "plus_state", "kron_all",
    "local_product_sum",
    "hermitian_eig", "hermitian_expm",
    "fidelity", "trace_distance", "partial_trace",
    "evolve_lindblad", "evolve_lindblad_tangent",
    "sld_qfi",
]

ID2 = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
PAULI_1Q = {"I": ID2, "X": SX, "Y": SY, "Z": SZ}

# Eigenvalues below this are treated as outside the support when dividing.
EIGEN_CUT = 1e-12
_HERM_TOL = 1e-8


def kron_all(mats: Sequence[np.ndarray]) -> np.ndarray:
    """mats[0] x mats[1] x ... as a complex matrix, one outer product per factor."""
    out = np.array([[1.0 + 0j]])
    for m in mats:
        out = np.multiply.outer(out, m).transpose(0, 2, 1, 3).reshape(len(out) * len(m), -1)
    return out


def local_product_sum(rho: np.ndarray,
                      pairs: Sequence[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """sum of (A_1 x ... x A_m) rho (B_1 x ... x B_m) over one pair per qubit.

    ``pairs[j]`` is one pair (A, B) of (k_j, 2, 2) stacks, the pairs
    (A[i], B[i]) allowed on qubit j (qubit 0 leftmost).  The sum over all
    prod_j k_j combinations is a tensor product of single-qubit maps.
    Qubit j's map is summed once into one [2, 2, 2, 2] tensor
    sum_i A[i][a, a'] B[i][b', b], which one contraction applies on row
    axis j and column axis m + j of rho as a [2] * 2m tensor: m
    contractions and no Kronecker product.  A stack of matrices, shape
    (..., 2^m, 2^m), is mapped one matrix at a time.
    """
    m, lead = len(pairs), np.ndim(rho) - 2
    t = np.asarray(rho, dtype=complex).reshape(np.shape(rho)[:lead] + (2,) * (2 * m))
    for j, (a, b) in enumerate(pairs):
        kernel = np.einsum("kac,kdb->acdb", a, b)
        axes = [lead + j, lead + m + j]
        t = np.moveaxis(np.tensordot(kernel, t, axes=([1, 2], axes)), [0, 1], axes)
    return t.reshape(np.shape(rho))


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
    _check_state(rho, np.linalg.eigvalsh(rho), atol)
    return rho


def _check_state(rho: np.ndarray, w: np.ndarray, atol: float) -> None:
    """as_density's checks of rho, with eigenvalues w; a stack of blocks counts as one state."""
    herm_dev, scale = _hermiticity(rho)
    if herm_dev > atol * scale:
        raise ValueError("non-hermitian input: deviation %.3e" % herm_dev)
    tr = complex(np.trace(rho, axis1=-2, axis2=-1).sum())
    if abs(tr - 1.0) > atol:
        raise ValueError("trace %.12f is not 1 within %.1e" % (tr.real, atol))
    wmin = float(np.min(w))
    if wmin < -1e-9:
        raise ValueError("negative eigenvalue %.3e below tolerance" % wmin)


def hermitian_eig(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending.

    Returns (w, V) with mat = V diag(w) V^dag and orthonormal columns; a
    stack (..., d, d) gives stacks (..., d) and (..., d, d), one per matrix.
    Raises ValueError for non-Hermitian input and ArithmeticError if the
    underlying iteration fails to converge.
    """
    mat = _square(mat)
    herm_dev, scale = _hermiticity(mat)
    if herm_dev > _HERM_TOL * scale:
        raise ValueError("non-hermitian input to hermitian_eig")
    return _eigh(mat)


def _square(mat) -> np.ndarray:
    mat = np.asarray(mat, dtype=complex)
    if mat.ndim < 2 or mat.shape[-2] != mat.shape[-1]:
        raise ValueError("expected a square matrix, got shape %r" % (mat.shape,))
    return mat


def _hermiticity(mat: np.ndarray) -> tuple[float, float]:
    """max |mat - mat^dag| and the scale it is judged against, max(1, max |mat|)."""
    herm_dev = float(np.max(np.abs(mat - mat.conj().swapaxes(-1, -2))))
    return herm_dev, max(1.0, float(np.max(np.abs(mat))))


def _eigh(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    try:
        w, v = np.linalg.eigh(mat)
    except np.linalg.LinAlgError as exc:
        raise ArithmeticError("eigensolver did not converge: %s" % exc) from exc
    return w, v


def hermitian_expm(ham: np.ndarray, coeff: complex) -> np.ndarray:
    """exp(coeff * ham) for Hermitian ham, via eigendecomposition."""
    w, v = hermitian_eig(ham)
    return (v * np.exp(coeff * w)) @ v.conj().T


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
        w, v = hermitian_eig(rho)
        root = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
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


def _finite_matrix(name: str, mat, dim: int) -> np.ndarray:
    mat = np.asarray(mat, dtype=complex)
    if mat.shape != (dim, dim):
        raise ValueError("%s must be %d x %d, got shape %r" % (name, dim, dim, mat.shape))
    if not np.all(np.isfinite(mat)):
        raise ValueError("%s has non-finite entries" % name)
    return mat


def _hermitian_matrix(name: str, mat, dim: int) -> np.ndarray:
    mat = _finite_matrix(name, mat, dim)
    scale = max(1.0, float(np.max(np.abs(mat))))
    if np.max(np.abs(mat - mat.conj().T)) > _HERM_TOL * scale:
        raise ValueError("%s is not Hermitian" % name)
    return mat


@dataclass(frozen=True)
class _Liouvillian:
    """The master equation's generator G, applied by the Taylor runner.

    L(rho) = A rho + rho A^dag + sum_j K_j rho K_j^dag with A = -i H_eff,
    H_eff = H - (i/2) sum_j K_j^dag K_j and K_j = sqrt(gamma_j) L_j (jumps
    of zero rate dropped).  ``force`` is -i dH: the tangent slice s[1]
    gains -i[dH, s[0]], the sensitivity equation's source term.
    """

    a: np.ndarray
    kops: np.ndarray | None
    kdag: np.ndarray | None
    force: np.ndarray | None

    def __call__(self, s: np.ndarray) -> np.ndarray:
        # Every slice of s is Hermitian, so rho A^dag = (A rho)^dag.
        out = self.a @ s
        out += out.conj().swapaxes(-1, -2)
        if self.kops is not None:
            # Added one jump at a time: a single sum over the stack rounds differently.
            for term in (self.kops[:, None] @ s) @ self.kdag[:, None]:
                out += term
        if self.force is not None:
            f = self.force @ s[0]
            out[1] += f + f.conj().T
        return out

    def rate(self) -> float:
        """2 |A| + sum_j |K_j|^2 in the spectral norm.

        This bounds L, and the tangent system's diagonal blocks, in every
        unitarily invariant norm, the trace norm included.  It leaves out the
        force term, which the runner adds as 2 |dH| for the tangent system.
        """
        out = 2.0 * float(np.linalg.norm(self.a, 2))
        if self.kops is not None:
            out += sum(float(v) ** 2 for v in np.linalg.norm(self.kops, 2, axis=(1, 2)))
        return out


def _liouvillian(dim: int, ham, jumps, dham=None) -> _Liouvillian:
    ham = _hermitian_matrix("ham", ham, dim)
    kops = []
    for op, rate in jumps:
        rate = float(rate)
        if not (np.isfinite(rate) and rate >= 0.0):
            raise ValueError("jump rates must be finite and non-negative, got %r" % rate)
        op = _finite_matrix("jump operator", op, dim)
        if rate > 0.0:
            kops.append(np.sqrt(rate) * op)
    a = -1j * ham
    stack = kdag = None
    if kops:
        stack = np.array(kops)
        kdag = stack.conj().swapaxes(-1, -2)
        a = a - 0.5 * (kdag @ stack).sum(axis=0)
    force = None if dham is None else -1j * _hermitian_matrix("dham", dham, dim)
    return _Liouvillian(a, stack, kdag, force)


# Past this many pieces (t * rate above it) a run would take hours.
_MAX_PIECES = 1 << 16


def _taylor_run(state0: np.ndarray, gen: _Liouvillian, t: float, pieces: int,
                rate: float, tol: float) -> np.ndarray:
    """exp(t G) applied to the stacked state (rho[, rho']), shape (k, d, d).

    ``rate`` bounds G in the norm |x| = largest trace norm over the slices,
    and t * rate <= ``pieces``, so each of the equal pieces has
    a = dt * rate <= 1.  A piece sums dt^j G^j x / j! for j <= k, the least k
    whose remainder bound a^(k+1) / (k+1)! e^a |x| is below tol / pieces
    (the caller scales tol for |x| > 1), never stopping on the size of the
    last term.  Then every slice is made Hermitian and divided by Tr rho.
    """
    dt = t / pieces
    a = dt * rate
    k, bound = 0, a * np.exp(a)
    while bound > tol / pieces:
        k += 1
        bound *= a / (k + 1)
    s = state0.copy()
    for _ in range(pieces):
        term = s
        for j in range(1, k + 1):
            term = (dt / j) * gen(term)
            s = s + term
        s = 0.5 * (s + s.conj().swapaxes(-1, -2))
        s /= np.trace(s[0]).real
    return s


def _evolve(rho0, ham, jumps, t, tol, dham=None) -> np.ndarray:
    """Validate, then apply exp(t G) to the stacked state by :func:`_taylor_run`."""
    rho0 = as_density(rho0)
    t = float(t)
    if not np.isfinite(t):
        raise ValueError("evolution time must be finite, got %r" % t)
    if t < 0:
        raise ValueError("negative evolution time")
    if not tol > 0:
        raise ValueError("tolerance must be positive, got %r" % tol)
    gen = _liouvillian(rho0.shape[0], ham, jumps, dham)
    state0 = np.zeros((1 if dham is None else 2,) + rho0.shape, dtype=complex)
    state0[0] = rho0
    if t == 0:
        return state0
    # 2 |dH| bounds the source term -i[dH, rho] of the tangent system.
    source = 0.0 if dham is None else 2.0 * float(np.linalg.norm(gen.force, 2))
    rate = gen.rate() + source
    if not t * rate <= _MAX_PIECES:
        raise ArithmeticError("t * rate = %.3e needs more than %d Taylor pieces"
                              % (t * rate, _MAX_PIECES))
    # exp(tau L) never grows a trace norm, so |rho| = 1 throughout and
    # |rho'| <= t * source; an error left in rho at one piece reaches rho'
    # at t grown by at most the same 1 + t * source.
    grow = 1.0 + t * source
    return _taylor_run(state0, gen, t, max(1, int(np.ceil(t * rate))), rate, tol / grow ** 2)


def evolve_lindblad(rho0: np.ndarray, ham: np.ndarray,
                    jumps: Sequence[tuple[np.ndarray, float]],
                    t: float, *, tol: float = 1e-9) -> np.ndarray:
    """Integrate drho/dt = -i[H, rho] + sum_j gamma_j D[L_j](rho) to time t.

    rho(t) = exp(t L) rho0 by a truncated Taylor series on ceil(t * rate)
    equal pieces, where rate bounds the norm of L; the number of terms
    comes from a proven remainder bound, so the result is within ``tol`` of
    the exact one in max norm (rounding aside).

    Parameters
    ----------
    rho0 : density matrix at time 0
    ham : Hermitian Hamiltonian
    jumps : sequence of (operator, rate) pairs
    t : evolution time, >= 0

    Raises ValueError, before any piece, for a non-finite or negative t, a
    ham that is not Hermitian or has non-finite entries, non-finite entries
    in a jump operator, a non-finite or negative rate, or a tol that is not
    positive; and ArithmeticError, also before any piece, when t * rate
    would need more than ``_MAX_PIECES`` pieces.
    """
    return _evolve(rho0, ham, jumps, t, tol)[0]


def evolve_lindblad_tangent(rho0: np.ndarray, ham: np.ndarray, dham: np.ndarray,
                            jumps: Sequence[tuple[np.ndarray, float]],
                            t: float, *, tol: float = 1e-9) -> tuple[np.ndarray, np.ndarray]:
    """(rho(t), rho'(t)) for a Hamiltonian H(w) with derivative dham = dH/dw.

    rho' = d rho / d w obeys the sensitivity equation
    d rho'/dt = L(rho') - i[dH, rho] with rho'(0) = 0 (rho0 and the jumps
    do not depend on w); it is evolved together with rho by the same
    Taylor runner as :func:`evolve_lindblad`.  The stacked generator's norm
    bound adds 2 |dH| for the source term, and both rho and rho' come out
    within ``tol`` in max norm.  The inputs are validated as in
    :func:`evolve_lindblad`, and dham must likewise be finite and Hermitian.
    """
    return tuple(_evolve(rho0, ham, jumps, t, tol, dham))


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


def sld_qfi(rho: np.ndarray, drho: np.ndarray) -> float:
    """SLD quantum Fisher information of a density matrix and its derivative.

    Q = 2 sum_{jk} |<j| drho |k>|^2 / (lambda_j + lambda_k) over the
    eigenbasis of rho, restricted to pairs with lambda_j + lambda_k above
    the support cut (Braunstein and Caves 1994).  A stack (..., d, d) of the
    diagonal blocks of a block-diagonal state, with drho's matching blocks,
    gives the sum over the blocks.  rho is checked as :func:`as_density`
    checks it, on the eigenvalues the formula uses; that Hermiticity bound
    is stricter than :func:`hermitian_eig`'s, so it is the only one applied.
    """
    rho = _square(rho)
    w, v = _eigh(rho)
    _check_state(rho, w, 1e-10)
    a = v.conj().swapaxes(-1, -2) @ drho @ v
    denom = w[..., :, None] + w[..., None, :]
    mask = denom > EIGEN_CUT
    q = 2.0 * np.sum((np.abs(a) ** 2)[mask] / denom[mask])
    return float(q.real)

"""Noisy GHZ frequency estimation with repeated error correction.

Closed-form quantum Fisher information for an n-qubit GHZ probe that picks
up phase at frequency ``omega`` while each qubit suffers transverse noise
at rate ``gamma``: the uncorrected spectral sum, the ancilla-assisted
parity-check code (ideal, noisy-ancilla and imperfect-syndrome variants),
the odd-n majority-vote repetition code, the optimal sensing time and the
Fisher information of the rotated transversal readout.  Every omega-derivative
is exact: the corrected codes differentiate their round matrix entry by entry
and take the derivative of its power from one block-triangular power (Van
Loan 1978).  Every closed form is cross-checked against
:func:`amplitude_oracle`, which propagates the exact diagonal/anti-diagonal
amplitude recursion together with the omega-derivative of the anti-diagonal
amplitudes on the register's kept rows, the rows some round map writes plus
the GHZ start rows, and sums :func:`qmet.dense.sld_qfi` over the 2x2 blocks of
the X-shaped state.  Its round map comes from Kronecker powers of 2x2 factors;
the bit-flip code keeps two rows and needs only two columns of each power, so
its oracle costs O(n 2^n) and runs to n = 15, the others to n = 8.  It applies
the map by repeated squaring, so once t/tau reaches the number of kept rows
its cost grows with log(t/tau), not with t/tau.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .dense import EIGEN_CUT, sld_qfi

_SERIES_CUT = 1e-4      # switch sin(delta*d)/delta over to its Taylor series


@dataclass(frozen=True)
class EccParams:
    """One sensing run: n qubits, total time t, correction period tau.

    ``xi`` is the ancilla noise rate of the parity-check code and ``p`` the
    probability that a syndrome round resets a sensing qubit to the wrong
    value.  ``t`` must be a positive integer multiple of ``tau``.
    """

    n: int
    omega: float
    gamma: float
    tau: float
    t: float
    xi: float = 0.0
    p: float = 0.0

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("need at least one sensing qubit")
        for name in ("omega", "gamma", "tau", "t", "xi", "p"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError("%s must be finite, got %r" % (name, getattr(self, name)))
        if self.gamma < 0 or self.xi < 0:
            raise ValueError("noise rates must be non-negative")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("syndrome error probability must lie in [0, 1]")
        if self.tau <= 0:
            raise ValueError("correction period tau must be positive")
        m = self.t / self.tau
        if m < 1.0 - 1e-9 or abs(m - round(m)) > 1e-9 * max(1.0, abs(m)):
            raise ValueError("t must be a positive integer multiple of tau")

    @property
    def rounds(self) -> int:
        return int(round(self.t / self.tau))


@dataclass(frozen=True)
class AmplitudeOracleState:
    """Diagonal (a) and anti-diagonal (b) density-matrix amplitudes, and db/domega."""

    a_vec: np.ndarray
    b_vec: np.ndarray
    db_vec: np.ndarray

    def density(self) -> np.ndarray:
        dim = self.a_vec.size
        idx = np.arange(dim)
        rho = np.zeros((dim, dim), dtype=complex)
        rho[idx, idx] = self.a_vec
        rho[idx, dim - 1 - idx] += self.b_vec
        return 0.5 * (rho + rho.conj().T)

    def blocks(self) -> tuple[np.ndarray, np.ndarray]:
        """(dim/2, 2, 2) stacks of the blocks of the X-state density() and of its derivative.

        Block J acts on the pair (J, dim-1-J), with the entries of density().
        """
        half = self.a_vec.size // 2
        out = []
        for a, b in ((self.a_vec, self.b_vec), (np.zeros_like(self.a_vec), self.db_vec)):
            off = 0.5 * (b[:half] + b[::-1][:half].conj())
            out.append(np.stack([a[:half], off, off.conj(), a[::-1][:half]], axis=-1))
        return tuple(block.reshape(half, 2, 2) for block in out)


def _xy_dot(omega: float, gamma: float, duration: float,
            ) -> tuple[complex, complex, complex, complex, complex, complex]:
    """e^{-gamma d} times x_pm, y of the anti-diagonal transfer matrix and their omega-derivatives.

    The entries are entire functions of q = omega^2 - gamma^2, so
    d/domega = 2*omega * d/dq, with series fallbacks where the closed forms
    lose digits to cancellation.  Central differences are useless here: near
    the overdamped axis d(ln r)/domega sits many orders below the resolution
    of a double-precision difference quotient, and the noise gets amplified
    by 1/(1 - R^2) in the rank-2 QFI.  Overdamped, the damped cosh and sinh
    of |delta| d come from e^{-(gamma -+ |delta|) d}, with gamma - |delta| =
    omega^2 / (gamma + |delta|): finite where cosh(|delta| d) overflows.
    Entries that overflow (omega^2 out of range) raise ValueError rather
    than return nan.
    """
    d = duration
    with np.errstate(all="ignore"):
        q = complex(omega * omega - gamma * gamma)
        delta = np.sqrt(q)
        z = delta * d
        v = z * z
        if q.real < 0 and z.imag > 1.0:     # |delta| d > 1: slow - fast keeps its digits
            a = delta.imag
            slow, fast = math.exp(-omega * omega / (gamma + a) * d), math.exp(-(gamma + a) * d)
            c, s, damp = 0.5 * (slow + fast), 0.5 * (slow - fast) / a, 1.0
        else:
            s = (d * (1.0 - v / 6.0 * (1.0 - v / 20.0 * (1.0 - v / 42.0)))
                 if abs(z) < _SERIES_CUT else np.sin(z) / delta)
            c, damp = np.cos(z), math.exp(-gamma * d)
        if abs(v) < 1e-3:
            ds_dq = -(d ** 3 / 6.0) * (1.0 - v / 10.0 * (1.0 - v / 28.0 * (1.0 - v / 54.0)))
        else:
            ds_dq = (d * c - s) / (2.0 * q)
        dc = -omega * d * s
        ds = 2.0 * omega * ds_dq
        swing = 1j * (s + omega * ds)
        out = tuple(damp * e for e in (c + 1j * omega * s, c - 1j * omega * s, gamma * s,
                                       dc + swing, dc - swing, gamma * ds))
    if not np.all(np.isfinite(out)):
        raise ValueError("transfer entries are not finite at omega=%r, gamma=%r, "
                         "duration=%r" % (omega, gamma, duration))
    return out


def _damped_cosh_sinh(x: float) -> tuple[float, float]:
    """(e^{-x} cosh x, e^{-x} sinh x) = ((1 + e^{-2x}) / 2, -expm1(-2x) / 2), finite for x >= 0."""
    return 0.5 * (1.0 + math.exp(-2.0 * x)), -0.5 * math.expm1(-2.0 * x)


def qfi_no_ecc(n: int, omega: float, gamma: float, t: float) -> float:
    """QFI of the bare GHZ probe after time t with no correction rounds.

    The final state is block diagonal over the pairs (J, complement of J),
    and the blocks depend on J only through its Hamming weight, so the
    2^n-dimensional spectral sum collapses to n + 1 weight classes with
    binomial multiplicities.  Frequency derivatives of the anti-diagonal
    amplitudes come from the exact derivatives of the transfer entries.
    """
    if not 1 <= n <= 30:
        raise ValueError("n out of range")
    if t < 0:
        raise ValueError("t must be non-negative")
    if t == 0:
        return 0.0
    weights = np.arange(n + 1)
    # The entries come damped by e^{-gamma t}, before the powers: x_pm^w
    # y^(n-w) alone grows like e^{n |delta| t} in the overdamped regime.
    xp, xm, y, dxp, dxm, dy = _xy_dot(omega, gamma, t)
    z0 = xp ** weights * y ** (n - weights) + xm ** (n - weights) * y ** weights
    # Clipped exponents keep 0 * y**-1 out of the product; every clipped
    # power is multiplied by a vanishing combinatorial coefficient.
    wm1 = np.maximum(weights - 1, 0)
    nwm1 = np.maximum(n - weights - 1, 0)
    zdot = (weights * xp ** wm1 * dxp * y ** (n - weights)
            + (n - weights) * xp ** weights * y ** nwm1 * dy
            + (n - weights) * xm ** nwm1 * dxm * y ** weights
            + weights * xm ** (n - weights) * y ** wm1 * dy)

    damp = math.exp(-gamma * t)
    cg, sg = 0.5 * (1.0 + damp * damp), -0.5 * math.expm1(-2.0 * gamma * t)  # damped cosh, sinh
    svec = cg ** (n - weights) * sg ** weights + cg ** weights * sg ** (n - weights)

    total = 0.0
    for h in range(n + 1):
        r, s = abs(z0[h]), svec[h]
        if r < 1e-150:
            continue
        inner = np.conj(z0[h]) * zdot[h]
        dlam = 0.5 * inner.real / r
        block = 0.0
        lam_p = 0.5 * (s + r)
        lam_m = 0.5 * (s - r)
        if lam_p > EIGEN_CUT:
            block += dlam * dlam / lam_p
        if lam_m > EIGEN_CUT:
            block += dlam * dlam / lam_m
        if s > EIGEN_CUT:
            block += (inner.imag / r) ** 2 / s
        total += math.comb(n, h) * block
    return 0.5 * total


def _coherence_dot(omega: float, gamma: float, tau: float) -> tuple[complex, complex]:
    """(w, dw/domega) for the per-round coherence multiplier, both exact."""
    x_plus, _, y, dx_plus, _, dy = _xy_dot(omega, gamma, tau)
    return x_plus + y, dx_plus + dy


def _qfi_from_logs(ln_big_r: float, dln_big_r: float, dtheta: float) -> float:
    """Rank-2 QFI evaluated from ln R, d(ln R)/domega and dtheta/domega.

    1 - R^2 comes from expm1, so the mixing term survives when R is within
    machine epsilon of 1; once the decay is below representable precision
    the term is provably negligible against R^2 dtheta^2 and is dropped.
    """
    big_r = math.exp(min(ln_big_r, 0.0))
    phase = big_r * big_r * dtheta * dtheta
    denom = -math.expm1(2.0 * min(ln_big_r, 0.0))
    if denom <= 1e-13:
        return phase
    return (big_r * dln_big_r) ** 2 / denom + phase


def _qfi_of_amplitude(z: complex, dz: complex, ln_scale: float = 0.0,
                      dln_scale: float = 0.0) -> float:
    """Rank-2 QFI of the coherence e^{ln_scale} z, given dz/domega and d(ln_scale)/domega.

    Returns 0 once |z| has decayed below 1e-150, where the QFI is below
    any representable fraction of (n t)^2.
    """
    r = abs(z)
    if r < 1e-150:
        return 0.0
    inner = np.conj(z) * dz / (r * r)
    return _qfi_from_logs(ln_scale + math.log(r), dln_scale + inner.real, inner.imag)


def _ideal_logs(params: EccParams) -> tuple[float, float, float, float]:
    """(ln r, dln r/domega, phi, dphi/domega) for one correction period."""
    w, wdot = _coherence_dot(params.omega, params.gamma, params.tau)
    r = abs(w)
    if r < 1e-300:
        return -math.inf, 0.0, 0.0, 0.0
    inner = np.conj(w) * wdot
    return math.log(r), inner.real / (r * r), float(np.angle(w)), inner.imag / (r * r)


def qfi_parity_ideal(params: EccParams) -> float:
    """Q1 = n^2 t^2 r^{2nt/tau} f for noiseless-ancilla, perfect-syndrome
    correction; evaluated in log space through the rank-2 form."""
    if params.xi != 0.0 or params.p != 0.0:
        raise ValueError("ideal parity code needs xi = 0 and p = 0")
    lnr, dlnr, _, dphi = _ideal_logs(params)
    if lnr == -math.inf:
        return 0.0
    k = params.n * params.rounds
    return _qfi_from_logs(k * lnr, k * dlnr, k * dphi)


def qfi_parity_imperfect(params: EccParams) -> float:
    """Q3: perfect ancilla but each syndrome misfires with probability p.

    The coherence gains a factor (q_minus e^{i phi})^{n (t/tau - 1)} on top
    of the ideal (r e^{-i phi})^{n t/tau}; both are handled in log space.
    """
    if params.xi != 0.0:
        raise ValueError("imperfect-syndrome variant needs xi = 0")
    n, m, p = params.n, params.rounds, params.p
    n_extra = n * (m - 1)
    w, wdot = _coherence_dot(params.omega, params.gamma, params.tau)
    r = abs(w)
    if r < 1e-300:
        return 0.0
    iw = np.conj(w) * wdot
    dphi = iw.imag / (r * r)
    phase2 = (w / r) ** 2
    g = (1.0 - p) + p * phase2
    absg = abs(g)
    if absg < 1e-300:
        return 0.0
    ig = np.conj(g) * (2j * p * phase2 * dphi)
    k = n * m
    return _qfi_from_logs(
        k * math.log(r) + n_extra * math.log(absg),
        k * iw.real / (r * r) + n_extra * ig.real / (absg * absg),
        k * dphi - n_extra * ig.imag / (absg * absg),
    )


def _power_dot(mat: np.ndarray, dmat: np.ndarray, k: int, head: np.ndarray,
               dhead: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(M^k h, d(M^k h)/domega) from one power of [[M, dM], [0, M]].

    The block-triangular power is [[M^k, d(M^k)], [0, M^k]] (Van Loan 1978),
    so one repeated-squaring power gives the amplitude and its exact
    derivative, with no eigen-decomposition and no degenerate-root branch.
    """
    dim = mat.shape[0]
    block = np.block([[mat, dmat], [np.zeros_like(mat), mat]])
    out = np.linalg.matrix_power(block, k) @ np.concatenate([dhead, head])
    return out[dim:], out[:dim]


def _z_recurrence(params: EccParams, phi: float, dphi: float) -> tuple[complex, complex]:
    """Coherence amplitude z of the corrected probe and dz/domega.

    The coherence is Z = r^{n t/tau} z, where r e^{i phi} is the per-round
    coherence multiplier.  After one round the anti-diagonal amplitudes live
    in a two-dimensional subspace spanned by the ancilla-conditional product
    vectors; the first round maps the GHZ start onto (upsilon_-, upsilon_+)
    and each later round applies the 2x2 matrix with top row
    (c q_-^n, s q_+^n) once: n syndrome factors per sensing round, one
    ancilla mixing.  The ancilla decay e^{-xi tau} is folded into
    c, s = (1 +- e^{-2 xi tau})/2, which keeps the powers bounded.
    """
    n, p = params.n, params.p
    keep = 0.5 * (1.0 + math.exp(-2.0 * params.xi * params.tau))
    flip = 1.0 - keep
    u = complex(math.cos(phi), math.sin(phi))
    q_m = (1.0 - p) * u.conjugate() + p * u
    q_p = (1.0 - p) * u + p * u.conjugate()
    dq_m = 1j * dphi * (p * u - (1.0 - p) * u.conjugate())
    dq_p = 1j * dphi * ((1.0 - p) * u - p * u.conjugate())
    qm_n, qp_n = q_m ** n, q_p ** n
    dqm_n, dqp_n = n * q_m ** (n - 1) * dq_m, n * q_p ** (n - 1) * dq_p
    mat = np.array([[keep * qm_n, flip * qp_n], [flip * qm_n, keep * qp_n]])
    dmat = np.array([[keep * dqm_n, flip * dqp_n], [flip * dqm_n, keep * dqp_n]])
    anc = u ** n
    head = np.array([keep * anc.conjugate() + flip * anc,
                     keep * anc + flip * anc.conjugate()])
    dhead = 1j * n * dphi * np.array([flip * anc - keep * anc.conjugate(),
                                      keep * anc - flip * anc.conjugate()])
    z, dz = _power_dot(mat, dmat, params.rounds - 1, head, dhead)
    return z[0], dz[0]


def qfi_parity(params: EccParams) -> float:
    """QFI of the parity-check-corrected probe for any xi >= 0, p in [0,1].

    The xi = 0 cases route through the log-space closed forms; otherwise
    the coherence and its exact omega-derivative come from the 2x2
    recurrence, with r^{n t/tau} kept in log space.
    """
    if params.xi == 0.0:
        if params.p == 0.0:
            return qfi_parity_ideal(params)
        return qfi_parity_imperfect(params)
    lnr, dlnr, phi, dphi = _ideal_logs(params)
    if lnr == -math.inf:
        return 0.0
    k = params.n * params.rounds
    return _qfi_of_amplitude(*_z_recurrence(params, phi, dphi), k * lnr, k * dlnr)


def qfi_parity_noisy_ancilla(params: EccParams) -> tuple[float, float]:
    """Q2 for a dephasing ancilla (p = 0), plus the loss coefficient g.

    g_estimate = (Q1 - Q2) / (xi n^2 t^2 r^{2nt/tau}) quantifies how fast
    ancilla noise eats the ideal-code QFI; it is nan if the ideal
    coherence has already collapsed to zero.
    """
    if params.p != 0.0:
        raise ValueError("noisy-ancilla variant needs p = 0")
    q2 = qfi_parity(params)
    if params.xi == 0.0:
        return q2, 0.0
    q1 = qfi_parity_ideal(replace(params, xi=0.0))
    lnr = _ideal_logs(params)[0]
    n, t = params.n, params.t
    ln_scale = math.log(params.xi * n * n * t * t) + 2 * n * params.rounds * lnr
    if ln_scale < -600.0:
        return q2, math.nan
    return q2, (q1 - q2) / math.exp(ln_scale)


def _z_majority(params: EccParams) -> tuple[complex, complex]:
    """Coherence amplitude under the odd-n majority-vote code and its omega-derivative."""
    n, half = params.n, params.n // 2
    xp, xm, y, dxp, dxm, dy = _xy_dot(params.omega, params.gamma, params.tau)

    def truncated(u, du, v, dv):
        """sum_{j <= n/2} C(n, j) u^{n-j} v^j and its derivative."""
        val = dval = 0j
        for j in range(half + 1):
            c = math.comb(n, j)
            val += c * u ** (n - j) * v ** j
            dval += c * ((n - j) * u ** (n - j - 1) * du * v ** j
                         + j * u ** (n - j) * v ** max(j - 1, 0) * dv)
        return val, dval

    eta_m, deta_m = truncated(xm, dxm, y, dy)
    eta_p, deta_p = truncated(xp, dxp, y, dy)
    zeta_m, dzeta_m = truncated(y, dy, xm, dxm)
    zeta_p, dzeta_p = truncated(y, dy, xp, dxp)
    mat = np.array([[eta_m, zeta_p], [zeta_m, eta_p]])
    dmat = np.array([[deta_m, dzeta_p], [dzeta_m, deta_p]])
    b, db = _power_dot(mat, dmat, params.rounds, np.ones(2), np.zeros(2))
    return b[0], db[0]


def qfi_bitflip(params: EccParams) -> float:
    """QFI under the majority-vote repetition code (odd n, xi = p = 0).

    Tracks only the two extreme anti-diagonal amplitudes; the correction
    funnels every round's amplitudes back onto them, giving a 2x2 map with
    truncated-binomial entries eta and zeta.
    """
    if params.xi != 0.0 or params.p != 0.0:
        raise ValueError("repetition-code variant needs xi = 0 and p = 0")
    if params.n % 2 == 0:
        raise ValueError("majority vote needs odd n")
    return _qfi_of_amplitude(*_z_majority(params))


def optimal_time(params: EccParams) -> tuple[float, float]:
    """Optimal total sensing time for the ideal parity code.

    Returns the small-(gamma tau) analytic estimate 3 / (2 n gamma omega^2
    tau^2) together with a golden-section maximisation of Q1 over t,
    snapped to an integer number of rounds.
    """
    if params.xi != 0.0 or params.p != 0.0:
        raise ValueError("optimal time is defined for the ideal code")
    n, om, ga, tau = params.n, params.omega, params.gamma, params.tau
    if om == 0.0 or ga <= 0.0:
        raise ValueError("need omega != 0 and gamma > 0")
    t_analytic = 1.0 / ((2.0 / 3.0) * n * ga * om * om * tau * tau)

    lnr, dlnr, _, dphi = _ideal_logs(params)

    def q1(t: float) -> float:
        k = n * t / tau
        return _qfi_from_logs(k * lnr, k * dlnr, k * dphi)

    lo, hi = tau, max(4.0 * t_analytic, 10.0 * tau)
    for _ in range(200):
        if q1(2.0 * hi) <= q1(hi):
            break
        hi *= 2.0
    else:
        raise ArithmeticError("no interior maximum found")
    invphi = 0.5 * (math.sqrt(5.0) - 1.0)
    a, b = lo, hi
    for _ in range(200):
        c = b - invphi * (b - a)
        d = a + invphi * (b - a)
        if q1(c) > q1(d):
            b = d
        else:
            a = c
    m_star = max(1, round(0.5 * (a + b) / tau))
    best = max((m for m in (m_star - 1, m_star, m_star + 1) if m >= 1),
               key=lambda m: q1(m * tau))
    return t_analytic, best * tau


def fisher_alpha(params: EccParams, alpha: float) -> float:
    """Fisher information of the transversal readout rotated by alpha.

    Outcome j (out of n+2 values with binomial multiplicity) occurs with
    probability (1 + (-1)^j R cos(theta - alpha)) / 2^{n+1}; the Fisher
    information is the plain sum (dp)^2 / p over that distribution.
    """
    if params.xi != 0.0 or params.p != 0.0:
        raise ValueError("readout analysis assumes the ideal code")
    lnr, dlnr, phi, dphi = _ideal_logs(params)
    k = params.n * params.rounds
    big_r = math.exp(min(k * lnr, 0.0))
    beta = k * phi - alpha
    dterm = big_r * k * (dlnr * math.cos(beta) - math.sin(beta) * dphi)
    m = params.n + 1
    total = 0.0
    for j in range(m + 1):
        pj = (1.0 + (-1) ** j * big_r * math.cos(beta)) / 2 ** m
        if pj < EIGEN_CUT:
            continue
        dpj = (-1) ** j * dterm / 2 ** m
        total += math.comb(m, j) * dpj * dpj / pj
    return total


def _kron_power_dot(one: np.ndarray, done: np.ndarray | None, n: int) -> list[np.ndarray]:
    """[one^{x n}, its derivative by the product rule, unless ``done`` = d one/domega is None].

    Each step forms the blocks one[r, c] P (and one[r, c] D + done[r, c] P), the 2x2
    factor on the left, as one broadcast product with axes (r, R, c, C), already in the
    order of rows rR and columns cC.  ``one`` may be a single column, one[:, [c]]: then
    the result is the column of the Kronecker power whose index has every bit c, in O(2^n).
    """
    dtype = np.result_type(one, one if done is None else done)
    mats = [np.ones((1, 1), dtype=dtype)] + ([] if done is None else [np.zeros((1, 1), dtype)])
    left = one[:, None, :, None]
    for _ in range(n):
        nxt = [left * mat[:, None, :] for mat in mats]
        if done is not None:
            nxt[1] += done[:, None, :, None] * mats[0][:, None, :]
        mats = [new.reshape(2 * len(mats[0]), -1) for new in nxt]
    return mats


def _keep_written_rows(maps: tuple[np.ndarray, ...]
                       ) -> tuple[np.ndarray | None, tuple[np.ndarray, ...]]:
    """(kept, the maps' blocks on the kept rows and columns); kept is None when it is every row.

    The kept rows are the rows some map writes, found from the maps' entries,
    plus the GHZ start rows 0 and dim - 1.  The amplitudes start on the kept
    rows and every round writes only kept rows, so the columns of the other
    rows only ever multiply zeros.
    """
    dim = maps[0].shape[0]
    written = np.any(maps[0], axis=1) | np.any(maps[1], axis=1) | np.any(maps[2], axis=1)
    if written.all():
        return None, maps
    written[[0, dim - 1]] = True
    kept = np.flatnonzero(written)
    return kept, tuple(mat[np.ix_(kept, kept)] for mat in maps)


def _round_maps(params: EccParams, code: str, omega: float
                ) -> tuple[np.ndarray | None, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """One correction round on its kept rows: (kept, (S_a, S_b, dS_b/domega)).

    The diagonal amplitudes a_J and anti-diagonal amplitudes b_J close
    under both the free evolution M (Kronecker powers of the single-qubit
    factors) and the correction map C, so the full density matrix never
    has to be formed.  S = C M for each sector, and dS_b = C dM_b, where
    dM_b is the product rule over the Kronecker factors.  C is never formed:
    ``bitflip`` votes rows into rows 0 and dim - 1, its kept rows, so its 2x2
    maps are the vote's two row sums of the powers of the factors' columns 0
    and 1; ``parity`` has C = sum_s R_s^{x n} x |s><s| (ancilla last), so
    C M = sum_s (R_s m)^{x n} x (|s><s| anc) by the mixed-product rule.
    ``kept`` lists the kept rows in order, None when every row is kept.
    """
    n, p, tau = params.n, params.p, params.tau
    xp, xm, y, dxp, dxm, dy = _xy_dot(omega, params.gamma, tau)
    cg, sg = _damped_cosh_sinh(params.gamma * tau)
    one_a, one_b = np.array([[cg, sg], [sg, cg]]), np.array([[xm, y], [y, xp]])
    one_db = np.array([[dxm, dy], [dy, dxp]])
    if code == "bitflip":
        low = np.indices((2,) * n).sum(axis=0).ravel() < n / 2     # Hamming weight < n/2
        cols = [_kron_power_dot(one_a[:, [c]], None, n)
                + _kron_power_dot(one_b[:, [c]], one_db[:, [c]], n) for c in (0, 1)]
        stacked = (np.hstack(parts) for parts in zip(*cols))
        return np.array([0, 2 ** n - 1]), tuple(
            np.stack([mat[low].sum(axis=0), mat[~low].sum(axis=0)]) for mat in stacked)
    if code == "parity":
        cx, sx = _damped_cosh_sinh(params.xi * tau)
        anc = np.array([[cx, sx], [sx, cx]])
        half = 2 ** n
        out = [np.empty((half, 2, half, 2), dtype=dt) for dt in (float, complex, complex)]
        for s, reset in enumerate(([[1.0 - p] * 2, [p] * 2], [[p] * 2, [1.0 - p] * 2])):
            mats = (_kron_power_dot(reset @ one_a, None, n)
                    + _kron_power_dot(reset @ one_b, reset @ one_db, n))
            for sector, mat in zip(out, mats):
                for e in range(2):  # |s><s| anc keeps row s of anc
                    np.multiply(mat, anc[s, e], out=sector[:, s, :, e])
        return _keep_written_rows(tuple(sector.reshape(2 * half, 2 * half) for sector in out))
    return _keep_written_rows(tuple(_kron_power_dot(one_a, None, n)
                                    + _kron_power_dot(one_b, one_db, n)))


# Largest n the amplitude oracle takes for each code.  The bit-flip maps cost
# O(n 2^n); the others are full 2^n- or 2^(n+1)-square matrices.
_ORACLE_MAX_N = {"none": 8, "parity": 8, "bitflip": 15}


def propagate_amplitudes(params: EccParams, code: str, omega: float) -> AmplitudeOracleState:
    """Exact amplitude-space propagation over t/tau correction rounds.

    Starts from the GHZ amplitudes and applies the round maps of
    :func:`_round_maps`, with db/domega carried alongside b.  The maps and
    the amplitudes live on the K kept rows: the rows some round map writes
    and the GHZ start rows 0 and dim - 1.  Amplitudes on the other rows stay
    zero, so each map is its K x K block, and the result is written back to
    the full register once, at the end.  The rounds are applied by binary
    powering of (S, dS), with d(S^2) = dS S + S dS, for as long as at least
    K rounds remain: squaring a K x K map costs about K mat-vecs, so it pays
    then.  The last k < K rounds apply the current power one at a time, so a
    run with fewer than K rounds applies the maps once per round.  K is 2 for
    the bit-flip code and for parity with p = 0, 4 for parity with p = 1, and
    the whole register otherwise: then the maps are used as they are.
    """
    if code not in _ORACLE_MAX_N:
        raise ValueError("code must be one of: none, parity, bitflip")
    if params.n > _ORACLE_MAX_N[code]:
        raise ValueError("%s oracle limited to n <= %d, got n = %d (caps: %s)"
                         % (code, _ORACLE_MAX_N[code], params.n,
                            ", ".join("%s n <= %d" % item for item in _ORACLE_MAX_N.items())))
    if code == "bitflip" and params.n % 2 == 0:
        raise ValueError("majority vote needs odd n")
    kept, (step_a, step_b, dstep_b) = _round_maps(params, code, omega)
    size = step_a.shape[0]
    a = np.zeros(size)
    a[0] = a[-1] = 0.5
    b, db = a.astype(complex), np.zeros(size, dtype=complex)
    k = params.rounds
    while k >= size:
        if k & 1:
            a = step_a @ a
            b, db = step_b @ b, step_b @ db + dstep_b @ b
        k >>= 1
        step_a, step_b, dstep_b = (step_a @ step_a, step_b @ step_b,
                                   dstep_b @ step_b + step_b @ dstep_b)
    for _ in range(k):
        a = step_a @ a
        b, db = step_b @ b, step_b @ db + dstep_b @ b
    if abs(a.sum() - 1.0) > 1e-10:
        raise ArithmeticError("amplitude propagation lost normalisation")
    if kept is not None:    # back to the full register, zero off the kept rows
        full = [np.zeros(2 ** (params.n + (code == "parity")), vec.dtype) for vec in (a, b, db)]
        for out, vec in zip(full, (a, b, db)):
            out[kept] = vec
        a, b, db = full
    return AmplitudeOracleState(a_vec=a, b_vec=b, db_vec=db)


def amplitude_oracle(params: EccParams, code: str = "parity"
                     ) -> tuple[Callable[[float], np.ndarray], float]:
    """Ground-truth QFI from the exact amplitude recursion.

    Returns the density-matrix family over omega and the SLD QFI at
    ``params.omega`` of its value and exact derivative there, summed by
    :func:`qmet.dense.sld_qfi` over the 2x2 blocks of the X-shaped state.
    This is the reference every closed form above is validated against.
    """
    def rho_of(omega: float) -> np.ndarray:
        return propagate_amplitudes(params, code, omega).density()

    return rho_of, sld_qfi(*propagate_amplitudes(params, code, params.omega).blocks())

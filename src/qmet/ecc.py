"""Noisy GHZ frequency estimation with repeated error correction.

Closed-form quantum Fisher information for an n-qubit GHZ probe that picks
up phase at frequency ``omega`` while each qubit suffers transverse noise
at rate ``gamma``: the uncorrected spectral sum, the ancilla-assisted
parity-check code (ideal, noisy-ancilla and imperfect-syndrome variants),
the odd-n majority-vote repetition code, the optimal sensing time and the
Fisher information of the rotated transversal readout.  Every closed form is
cross-checked against :func:`amplitude_oracle`, which propagates the exact
diagonal/anti-diagonal amplitude recursion and feeds the reconstructed
density matrix to :func:`qmet.dense.qfi_spectral`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .dense import EIGEN_CUT, default_fd_step, qfi_spectral

_SERIES_CUT = 1e-4      # switch sin(delta*d)/delta over to its Taylor series
_DEGENERATE_CUT = 1e-10  # Jordan fallback threshold for the 2x2 matrix power
_PURE_CUT = 1e-14


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
class EvolutionFactors:
    """Single-qubit transfer-matrix entries for one free-evolution stretch.

    The diagonal-amplitude sector evolves with ``exp(-gamma d) [[c, s], [s,
    c]]`` (c = cosh, s = sinh of gamma*d); the anti-diagonal sector with
    ``exp(-gamma d) [[x_minus, y], [y, x_plus]]``.  ``r`` and ``phi`` give
    the per-qubit coherence multiplier r*e^{i phi} = e^{-gamma d}(x_+ + y).
    """

    c_gamma: float
    s_gamma: float
    delta: complex
    x_plus: complex
    x_minus: complex
    y: complex
    r: float
    phi: float


@dataclass(frozen=True)
class Rank2State:
    """Rank-2 GHZ-like state (1 +- R)/2 with relative phase theta."""

    R: float
    theta: float
    dR_domega: float
    dtheta_domega: float


@dataclass(frozen=True)
class AmplitudeOracleState:
    """Diagonal (a) and anti-diagonal (b) density-matrix amplitudes."""

    a_vec: np.ndarray
    b_vec: np.ndarray

    def density(self) -> np.ndarray:
        dim = self.a_vec.size
        idx = np.arange(dim)
        rho = np.zeros((dim, dim), dtype=complex)
        rho[idx, idx] = self.a_vec
        rho[idx, dim - 1 - idx] += self.b_vec
        return 0.5 * (rho + rho.conj().T)


def _xy(omega: float, gamma: float, duration: float) -> tuple[complex, complex, complex]:
    """Entries x_plus, x_minus, y of the anti-diagonal transfer matrix."""
    delta = np.sqrt(complex(omega * omega - gamma * gamma))
    z = delta * duration
    if abs(z) < _SERIES_CUT:
        u = z * z
        s = duration * (1.0 - u / 6.0 * (1.0 - u / 20.0 * (1.0 - u / 42.0)))
    else:
        s = np.sin(z) / delta
    c = np.cos(z)
    return c + 1j * omega * s, c - 1j * omega * s, gamma * s


def _xy_dot(omega: float, gamma: float, duration: float,
            ) -> tuple[complex, complex, complex, complex, complex, complex]:
    """x_pm, y and their exact omega-derivatives.

    The entries are entire functions of q = omega^2 - gamma^2, so
    d/domega = 2*omega * d/dq, with series fallbacks where the closed forms
    lose digits to cancellation.  Central differences are useless here: near
    the overdamped axis d(ln r)/domega sits many orders below the resolution
    of a double-precision difference quotient, and the noise gets amplified
    by 1/(1 - R^2) in the rank-2 QFI.
    """
    d = duration
    q = complex(omega * omega - gamma * gamma)
    delta = np.sqrt(q)
    z = delta * d
    v = z * z
    if abs(z) < _SERIES_CUT:
        s = d * (1.0 - v / 6.0 * (1.0 - v / 20.0 * (1.0 - v / 42.0)))
    else:
        s = np.sin(z) / delta
    c = np.cos(z)
    if abs(v) < 1e-3:
        ds_dq = -(d ** 3 / 6.0) * (1.0 - v / 10.0 * (1.0 - v / 28.0 * (1.0 - v / 54.0)))
    else:
        ds_dq = (d * c - s) / (2.0 * q)
    dc = -omega * d * s
    ds = 2.0 * omega * ds_dq
    swing = 1j * (s + omega * ds)
    return (c + 1j * omega * s, c - 1j * omega * s, gamma * s,
            dc + swing, dc - swing, gamma * ds)


def factors(omega: float, gamma: float, duration: float) -> EvolutionFactors:
    """Evaluate the single-qubit evolution factors for one stretch.

    Works in complex arithmetic throughout, so the oscillatory
    (omega > gamma) and overdamped (gamma > omega) branches come out of the
    same expressions; near delta*duration = 0 the sin(z)/z factor switches
    to a four-term series.
    """
    if duration < 0:
        raise ValueError("duration must be non-negative")
    x_plus, x_minus, y = _xy(omega, gamma, duration)
    w = math.exp(-gamma * duration) * (x_plus + y)
    gd = gamma * duration
    return EvolutionFactors(
        c_gamma=math.cosh(gd),
        s_gamma=math.sinh(gd),
        delta=complex(np.sqrt(complex(omega * omega - gamma * gamma))),
        x_plus=complex(x_plus),
        x_minus=complex(x_minus),
        y=complex(y),
        r=float(abs(w)),
        phi=float(np.angle(w)),
    )


def rank2_qfi(state: Rank2State) -> float:
    """QFI of the rank-2 state with eigenvalues (1 +- R)/2 and phase theta.

    Q = (dR)^2 / (1 - R^2) + R^2 (dtheta)^2.  At R = 1 the first term is a
    0/0 limit: it vanishes when dR = 0 (the pure-state case) and diverges
    otherwise, which is reported as an error.
    """
    big_r, d_r, d_th = state.R, state.dR_domega, state.dtheta_domega
    if not 0.0 <= big_r <= 1.0 + 1e-12:
        raise ValueError("R must lie in [0, 1]")
    if big_r >= 1.0 - _PURE_CUT:
        if abs(d_r) > 1e-9:
            raise ArithmeticError("singular purity: R = 1 but dR/domega != 0")
        return d_th * d_th
    return d_r * d_r / (1.0 - big_r * big_r) + big_r * big_r * d_th * d_th


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

    cg, sg = math.cosh(gamma * t), math.sinh(gamma * t)
    svec = cg ** (n - weights) * sg ** weights + cg ** weights * sg ** (n - weights)
    pref = math.exp(-n * gamma * t)

    total = 0.0
    for h in range(n + 1):
        r, s = abs(z0[h]), svec[h]
        if r < 1e-150:
            continue
        inner = np.conj(z0[h]) * zdot[h]
        dlam = 0.5 * pref * inner.real / r
        block = 0.0
        lam_p = 0.5 * pref * (s + r)
        lam_m = 0.5 * pref * (s - r)
        if lam_p > EIGEN_CUT:
            block += dlam * dlam / lam_p
        if lam_m > EIGEN_CUT:
            block += dlam * dlam / lam_m
        if pref * s > EIGEN_CUT:
            block += pref * (inner.imag / r) ** 2 / s
        total += math.comb(n, h) * block
    return 0.5 * total


def _coherence_dot(omega: float, gamma: float, tau: float) -> tuple[complex, complex]:
    """(w, dw/domega) for the per-round coherence multiplier, both exact."""
    x_plus, _, y, dx_plus, _, dy = _xy_dot(omega, gamma, tau)
    damp = math.exp(-gamma * tau)
    return damp * (x_plus + y), damp * (dx_plus + dy)


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


def _ideal_logs(params: EccParams) -> tuple[float, float, float]:
    """(ln r, dln r/domega, dphi/domega) for one correction period."""
    w, wdot = _coherence_dot(params.omega, params.gamma, params.tau)
    r = abs(w)
    if r < 1e-300:
        return -math.inf, 0.0, 0.0
    inner = np.conj(w) * wdot
    return math.log(r), inner.real / (r * r), inner.imag / (r * r)


def _rank2_ideal(params: EccParams) -> Rank2State:
    """R, theta and their omega-derivatives for the ideal parity code.

    Uses log space (ln R = n*(t/tau)*ln r), which stays accurate when the
    number of rounds is large enough that r^{n t/tau} underflows.
    """
    w, _ = _coherence_dot(params.omega, params.gamma, params.tau)
    lnr, dlnr, dphi = _ideal_logs(params)
    if lnr == -math.inf:
        return Rank2State(0.0, 0.0, 0.0, 0.0)
    k = params.n * params.rounds
    big_r = math.exp(min(k * lnr, 0.0))
    return Rank2State(
        R=big_r,
        theta=k * float(np.angle(w)),
        dR_domega=big_r * k * dlnr,
        dtheta_domega=k * dphi,
    )


def qfi_parity_ideal(params: EccParams) -> float:
    """Q1 = n^2 t^2 r^{2nt/tau} f for noiseless-ancilla, perfect-syndrome
    correction; evaluated in log space through the rank-2 form."""
    if params.xi != 0.0 or params.p != 0.0:
        raise ValueError("ideal parity code needs xi = 0 and p = 0")
    lnr, dlnr, dphi = _ideal_logs(params)
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


def _mat_power_2x2(mat: np.ndarray, k: int) -> np.ndarray:
    """mat**k for a complex 2x2 matrix via its characteristic roots."""
    if k == 0:
        return np.eye(2, dtype=complex)
    tr = mat[0, 0] + mat[1, 1]
    det = mat[0, 0] * mat[1, 1] - mat[0, 1] * mat[1, 0]
    disc = np.sqrt(tr * tr - 4.0 * det + 0j)
    mu_p = 0.5 * (tr + disc)
    mu_m = 0.5 * (tr - disc)
    eye = np.eye(2, dtype=complex)
    if abs(mu_p - mu_m) > _DEGENERATE_CUT:
        return ((mat - mu_m * eye) * mu_p ** k
                - (mat - mu_p * eye) * mu_m ** k) / (mu_p - mu_m)
    mu = 0.5 * (mu_p + mu_m)
    return mu ** k * eye + k * mu ** (k - 1) * (mat - mu * eye)


def _z_recurrence(params: EccParams, omega: float) -> complex:
    """Coherence amplitude Z = R e^{-i theta} of the corrected probe.

    After one round the anti-diagonal amplitudes live in a two-dimensional
    subspace spanned by the ancilla-conditional product vectors; the first
    round maps the GHZ start onto (upsilon_-, upsilon_+) and each later
    round applies the 2x2 matrix with top row (c_xi q_-^n, s_xi q_+^n)
    once: n syndrome factors per sensing round, one ancilla mixing.
    """
    n, m = params.n, params.rounds
    fac = factors(omega, params.gamma, params.tau)
    phase = np.exp(1j * fac.phi)
    q_m = (1.0 - params.p) * np.conj(phase) + params.p * phase
    q_p = (1.0 - params.p) * phase + params.p * np.conj(phase)
    c_xi = math.cosh(params.xi * params.tau)
    s_xi = math.sinh(params.xi * params.tau)
    mat = np.array([[c_xi * q_m ** n, s_xi * q_p ** n],
                    [s_xi * q_m ** n, c_xi * q_p ** n]])
    anc = np.exp(1j * n * fac.phi)
    head = np.array([c_xi * np.conj(anc) + s_xi * anc,
                     c_xi * anc + s_xi * np.conj(anc)])
    amp = (_mat_power_2x2(mat, m - 1) @ head)[0]
    return fac.r ** (n * m) * math.exp(-params.xi * params.t) * amp


def qfi_parity(params: EccParams) -> float:
    """QFI of the parity-check-corrected probe for any xi >= 0, p in [0,1].

    The xi = 0 cases route through the log-space closed forms; otherwise
    the coherence comes from the 2x2 recurrence power and the derivatives
    from central differences in omega.
    """
    if params.xi == 0.0:
        if params.p == 0.0:
            return qfi_parity_ideal(params)
        return qfi_parity_imperfect(params)
    step = default_fd_step(params.omega)
    z0 = _z_recurrence(params, params.omega)
    zdot = (_z_recurrence(params, params.omega + step)
            - _z_recurrence(params, params.omega - step)) / (2.0 * step)
    big_r = abs(z0)
    if big_r < 1e-150:
        return 0.0
    inner = np.conj(z0) * zdot
    state = Rank2State(big_r, -float(np.angle(z0)),
                       inner.real / big_r, -inner.imag / (big_r * big_r))
    return rank2_qfi(state)


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
    r = factors(params.omega, params.gamma, params.tau).r
    if r <= 0.0:
        return q2, math.nan
    n, t = params.n, params.t
    ln_scale = math.log(params.xi * n * n * t * t) + 2 * n * params.rounds * math.log(r)
    if ln_scale < -600.0:
        return q2, math.nan
    return q2, (q1 - q2) / math.exp(ln_scale)


def _z_majority(params: EccParams, omega: float) -> complex:
    """Coherence amplitude under the odd-n majority-vote repetition code."""
    n, m = params.n, params.rounds
    xp, xm, y = _xy(omega, params.gamma, params.tau)
    pref = math.exp(-n * params.gamma * params.tau)
    half = n // 2
    eta_m = pref * sum(math.comb(n, j) * xm ** (n - j) * y ** j for j in range(half + 1))
    eta_p = pref * sum(math.comb(n, j) * xp ** (n - j) * y ** j for j in range(half + 1))
    zeta_m = pref * sum(math.comb(n, j) * y ** (n - j) * xm ** j for j in range(half + 1))
    zeta_p = pref * sum(math.comb(n, j) * y ** (n - j) * xp ** j for j in range(half + 1))
    mat = np.array([[eta_m, zeta_p],
                    [zeta_m, eta_p]])
    b = _mat_power_2x2(mat, m) @ np.array([0.5, 0.5])
    return 2.0 * b[0]


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
    step = default_fd_step(params.omega)
    z0 = _z_majority(params, params.omega)
    zdot = (_z_majority(params, params.omega + step)
            - _z_majority(params, params.omega - step)) / (2.0 * step)
    big_r = abs(z0)
    if big_r < 1e-150:
        return 0.0
    inner = np.conj(z0) * zdot
    state = Rank2State(big_r, -float(np.angle(z0)),
                       inner.real / big_r, -inner.imag / (big_r * big_r))
    return rank2_qfi(state)


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

    lnr, dlnr, dphi = _ideal_logs(params)

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
    st = _rank2_ideal(params)
    beta = st.theta - alpha
    dterm = st.dR_domega * math.cos(beta) - st.R * math.sin(beta) * st.dtheta_domega
    m = params.n + 1
    total = 0.0
    for j in range(m + 1):
        pj = (1.0 + (-1) ** j * st.R * math.cos(beta)) / 2 ** m
        if pj < EIGEN_CUT:
            continue
        dpj = (-1) ** j * dterm / 2 ** m
        total += math.comb(m, j) * dpj * dpj / pj
    return total


def _kron_power(mat: np.ndarray, k: int) -> np.ndarray:
    out = np.array([[1.0]], dtype=mat.dtype)
    for _ in range(k):
        out = np.kron(out, mat)
    return out


def propagate_amplitudes(params: EccParams, code: str, omega: float) -> AmplitudeOracleState:
    """Exact amplitude-space propagation over t/tau correction rounds.

    The diagonal amplitudes a_J and anti-diagonal amplitudes b_J close
    under both the free evolution (Kronecker powers of the single-qubit
    factors) and the correction map E, so the full density matrix never
    has to be formed until the end.  For the parity code the ancilla is
    the last tensor factor.
    """
    if code not in ("none", "parity", "bitflip"):
        raise ValueError("code must be one of: none, parity, bitflip")
    n = params.n
    if n > 8:
        raise ValueError("oracle limited to n <= 8")
    if code == "bitflip" and n % 2 == 0:
        raise ValueError("majority vote needs odd n")
    ga, xi, p, tau = params.gamma, params.xi, params.p, params.tau
    xp, xm, y = _xy(omega, ga, tau)
    eg = math.exp(-ga * tau)
    cg, sg = math.cosh(ga * tau), math.sinh(ga * tau)
    mat_a = _kron_power(eg * np.array([[cg, sg], [sg, cg]]), n)
    mat_b = _kron_power(eg * np.array([[xm, y], [y, xp]]), n)
    corr = None
    if code == "parity":
        exi = math.exp(-xi * tau)
        anc = exi * np.array([[math.cosh(xi * tau), math.sinh(xi * tau)],
                              [math.sinh(xi * tau), math.cosh(xi * tau)]])
        mat_a = np.kron(mat_a, anc)
        mat_b = np.kron(mat_b, anc)
        reset0 = _kron_power(np.array([[1.0 - p, 1.0 - p], [p, p]]), n)
        reset1 = _kron_power(np.array([[p, p], [1.0 - p, 1.0 - p]]), n)
        corr = (np.kron(reset0, np.diag([1.0, 0.0]))
                + np.kron(reset1, np.diag([0.0, 1.0])))
    elif code == "bitflip":
        dim = 2 ** n
        low = np.array([bin(j).count("1") for j in range(dim)]) < n / 2
        corr = np.zeros((dim, dim))
        corr[0, low] = 1.0
        corr[dim - 1, ~low] = 1.0

    dim = mat_a.shape[0]
    a = np.zeros(dim)
    b = np.zeros(dim, dtype=complex)
    a[0] = a[dim - 1] = 0.5
    b[0] = b[dim - 1] = 0.5
    for _ in range(params.rounds):
        a = mat_a @ a
        b = mat_b @ b
        if corr is not None:
            a = corr @ a
            b = corr @ b
    if abs(a.sum() - 1.0) > 1e-10:
        raise ArithmeticError("amplitude propagation lost normalisation")
    return AmplitudeOracleState(a_vec=a, b_vec=b)


def amplitude_oracle(params: EccParams, code: str = "parity"
                     ) -> tuple[Callable[[float], np.ndarray], float]:
    """Ground-truth QFI from the exact amplitude recursion.

    Returns the density-matrix family over omega and its spectral QFI at
    ``params.omega``.  This is the reference every closed form above is
    validated against.
    """
    def rho_of(omega: float) -> np.ndarray:
        return propagate_amplitudes(params, code, omega).density()

    return rho_of, qfi_spectral(rho_of, params.omega)

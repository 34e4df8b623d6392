"""Noisy GHZ frequency estimation with repeated error correction.

Closed-form quantum Fisher information for an n-qubit GHZ probe that picks
up phase at frequency ``omega`` while each qubit suffers transverse noise
at rate ``gamma``: the uncorrected spectral sum, the ancilla-assisted
parity-check code (ideal, noisy-ancilla and imperfect-syndrome variants),
the odd-n majority-vote repetition code, the optimal sensing time and the
Fisher information of the rotated transversal readout.  Every omega-derivative
is exact: the corrected codes differentiate their round matrix entry by entry
and take the derivative of its power from one block-triangular power (Van
Loan 1978).  The closed forms evaluate arrays of points: :func:`qfi_sweep`
computes a code's QFI at every point of a sweep in one array computation,
each kernel elementwise over the points, and each one-point function is the
one-point case of the same code, so a point gets the same bits alone or in a
sweep.  Every closed form is cross-checked against
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

import functools
import math
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .dense import EIGEN_CUT, sld_qfi

_SERIES_CUT = 1e-4      # switch sin(delta*d)/delta over to its Taylor series
_PLUS_MINUS_I = np.array([[1j], [-1j]])
_MINUS_PLUS = np.array([[-1.0], [1.0]])
_POWERS_OF_2 = 2.0 ** np.arange(1024)  # the bits of any float exponent, lowest first


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
    """Diagonal (a) and anti-diagonal (b) density-matrix amplitudes, and db/domega.

    ``kept`` lists the rows the propagation kept, None when it kept every
    row; the amplitudes on every other row are zero.
    """

    a_vec: np.ndarray
    b_vec: np.ndarray
    db_vec: np.ndarray
    kept: np.ndarray | None = None

    def density(self) -> np.ndarray:
        dim = self.a_vec.size
        idx = np.arange(dim)
        rho = np.zeros((dim, dim), dtype=complex)
        rho[idx, idx] = self.a_vec
        rho[idx, dim - 1 - idx] += self.b_vec
        return 0.5 * (rho + rho.conj().T)

    def blocks(self) -> tuple[np.ndarray, np.ndarray]:
        """(B, 2, 2) stacks of the blocks of the X-state density() and of its derivative.

        Block J acts on the pair (J, dim-1-J), with the entries of density().
        The stacks hold the blocks of the kept rows, in order of J, since
        every other block is zero; all dim/2 blocks when kept is None.
        """
        dim = self.a_vec.size
        if self.kept is None:
            lo, hi = slice(0, dim // 2), slice(dim - 1, dim // 2 - 1, -1)
        else:
            lo = np.unique(np.minimum(self.kept, dim - 1 - self.kept))
            hi = dim - 1 - lo
        out = []
        for a, b in ((self.a_vec, self.b_vec), (np.zeros_like(self.a_vec), self.db_vec)):
            off = 0.5 * (b[lo] + b[hi].conj())
            out.append(np.stack([a[lo], off, off.conj(), a[hi]], axis=-1).reshape(-1, 2, 2))
        return tuple(out)


class _Points(NamedTuple):
    """Points that share n, one array entry per point."""

    n: int
    omega: np.ndarray
    gamma: np.ndarray
    tau: np.ndarray
    t: np.ndarray
    xi: np.ndarray
    p: np.ndarray
    rounds: np.ndarray      # floats: t/tau rounded is a float's value, however large

    def take(self, mask: np.ndarray) -> "_Points":
        return _Points(self.n, *(column[mask] for column in self[1:]))


def _points(params: Sequence[EccParams]) -> _Points:
    n = params[0].n
    if any(point.n != n for point in params):
        raise ValueError("sweep points must share n")
    columns = np.array([(point.omega, point.gamma, point.tau, point.t, point.xi, point.p,
                         point.rounds) for point in params], dtype=float).T.copy()
    return _Points(n, *columns)


def _xy_dot(omega: float | np.ndarray, gamma: float | np.ndarray,
            duration: float | np.ndarray) -> np.ndarray:
    """e^{-gamma d} times x_pm, y of the anti-diagonal transfer matrix and their omega-derivatives.

    Takes floats or arrays of one shape S and returns a (6,) + S array:
    x_+, x_-, y, dx_+, dx_-, dy.  The entries are entire functions of
    q = omega^2 - gamma^2, so d/domega = 2*omega * d/dq, with series
    fallbacks where the closed forms lose digits to cancellation.  Central
    differences are useless here: near the overdamped axis d(ln r)/domega
    sits many orders below the resolution of a double-precision difference
    quotient, and the noise gets amplified by 1/(1 - R^2) in the rank-2 QFI.
    Overdamped, the damped cosh and sinh of |delta| d come from
    e^{-(gamma -+ |delta|) d}, with gamma - |delta| = omega^2 / (gamma + |delta|):
    finite where cosh(|delta| d) overflows.  The series and overdamped
    branches are evaluated only at the points that take them.  Entries that
    overflow (omega^2 out of range) raise ValueError, naming the first such
    point, rather than return nan.
    """
    shape = np.shape(duration)
    omega = np.asarray(omega, dtype=float).reshape(-1)
    gamma = np.asarray(gamma, dtype=float).reshape(-1)
    d = np.asarray(duration, dtype=float).reshape(-1)
    out = np.empty((6,) + d.shape, dtype=complex)
    with np.errstate(all="ignore"):
        q = np.subtract(omega * omega, gamma * gamma, dtype=complex)
        delta = np.sqrt(q)
        z = delta * d           # real, or imaginary when overdamped
        v = z * z               # q d^2, real
        c, s, damp = np.cos(z), np.sin(z) / delta, np.exp(-gamma * d)
        over = z.imag > 1.0     # |delta| d > 1: slow - fast keeps its digits
        if np.count_nonzero(over):
            a, do, go = delta.imag[over], d[over], gamma[over]
            slow, fast = np.exp(-omega[over] ** 2 / (go + a) * do), np.exp(-(go + a) * do)
            c[over], s[over], damp[over] = 0.5 * (slow + fast), 0.5 * (slow - fast) / a, 1.0
        small = np.abs(v.real) < 1e-3
        any_small = np.count_nonzero(small)
        if any_small:       # every point of the sin series is small
            series = np.abs(z) < _SERIES_CUT
            if np.count_nonzero(series):
                d_at, v_at = d[series], v.real[series]
                s[series] = d_at * (1.0 - v_at / 6.0 * (1.0 - v_at / 20.0 * (1.0 - v_at / 42.0)))
        ds_dq = (d * c - s) / (2.0 * q)
        if any_small:
            d_at, v_at = d[small], v.real[small]
            ds_dq[small] = (-(d_at ** 3 / 6.0)
                            * (1.0 - v_at / 10.0 * (1.0 - v_at / 28.0 * (1.0 - v_at / 54.0))))
        dc = -omega * d * s
        ds = 2.0 * omega * ds_dq
        swing = 1j * (s + omega * ds)
        ios = 1j * omega * s
        np.add(c, ios, out=out[0])
        np.subtract(c, ios, out=out[1])
        np.multiply(gamma, s, out=out[2])
        np.add(dc, swing, out=out[3])
        np.subtract(dc, swing, out=out[4])
        np.multiply(gamma, ds, out=out[5])
        out *= damp
    if not np.isfinite(out).all():
        i = np.argmin(np.isfinite(out).all(axis=0))
        raise ValueError("transfer entries are not finite at omega=%r, gamma=%r, "
                         "duration=%r" % (float(omega[i]), float(gamma[i]), float(d[i])))
    return out.reshape((6,) + shape)


def _damped_cosh_sinh(x: float) -> tuple[float, float]:
    """(e^{-x} cosh x, e^{-x} sinh x) = ((1 + e^{-2x}) / 2, -expm1(-2x) / 2), finite for x >= 0."""
    return 0.5 * (1.0 + math.exp(-2.0 * x)), -0.5 * math.expm1(-2.0 * x)


@functools.lru_cache(maxsize=None)
def _weight_classes(n: int) -> tuple[np.ndarray, ...]:
    """(w, n - w, max(w - 1, 0), max(n - w - 1, 0), C(n, w)) over the weights w = 0..n.

    The binomials are floats, exact for the n <= 30 used here.  Clipped
    exponents keep 0 * y**-1 out of a product; every clipped power is
    multiplied by a vanishing combinatorial coefficient.
    """
    w = np.arange(n + 1)
    return (w, n - w, np.maximum(w - 1, 0), np.maximum(n - w - 1, 0),
            np.array([math.comb(n, h) for h in w], dtype=float))


def _ordered_sum(terms: np.ndarray) -> np.ndarray:
    """Sum over the last axis strictly left to right, as a Python loop over the terms would."""
    return np.cumsum(terms, axis=-1)[..., -1]


def qfi_no_ecc(n: int, omega: float | np.ndarray, gamma: float | np.ndarray,
               t: float | np.ndarray) -> float | np.ndarray:
    """QFI of the bare GHZ probe after time t with no correction rounds.

    omega, gamma and t are floats, which give a float, or arrays of one
    shape, which give an array of QFIs.  The final state is block diagonal
    over the pairs (J, complement of J), and the blocks depend on J only
    through its Hamming weight, so the 2^n-dimensional spectral sum
    collapses to n + 1 weight classes with binomial multiplicities, summed
    in order of weight.  Frequency derivatives of the anti-diagonal
    amplitudes come from the exact derivatives of the transfer entries.
    """
    if not 1 <= n <= 30:
        raise ValueError("n out of range")
    shape = np.shape(t)
    gamma = np.asarray(gamma, dtype=float).reshape(-1)
    t = np.asarray(t, dtype=float).reshape(-1)
    if np.count_nonzero(t < 0):
        raise ValueError("t must be non-negative")
    w, nw, wm1, nwm1, comb = _weight_classes(n)
    # The entries come damped by e^{-gamma t}, before the powers: x_pm^w
    # y^(n-w) alone grows like e^{n |delta| t} in the overdamped regime.
    xp, xm, y, dxp, dxm, dy = _xy_dot(omega, gamma, t)[..., None]
    xp_w, xm_nw, y_w, y_nw = xp ** w, xm ** nw, y ** w, y ** nw
    z0 = xp_w * y_nw + xm_nw * y_w
    zdot = (w * xp ** wm1 * dxp * y_nw
            + nw * xp_w * y ** nwm1 * dy
            + nw * xm ** nwm1 * dxm * y_w
            + w * xm_nw * y ** wm1 * dy)

    damp = np.exp(-gamma * t)
    cg = (0.5 * (1.0 + damp * damp))[:, None]                  # damped cosh, sinh
    sg = (-0.5 * np.expm1(-2.0 * gamma * t))[:, None]
    svec = cg ** nw * sg ** w + cg ** w * sg ** nw

    r = np.abs(z0)
    inner = np.conj(z0) * zdot
    with np.errstate(all="ignore"):
        dlam2 = (0.5 * inner.real / r) ** 2
        lam_p, lam_m = 0.5 * (svec + r), 0.5 * (svec - r)
        block = (np.where(lam_p > EIGEN_CUT, dlam2 / lam_p, 0.0)
                 + np.where(lam_m > EIGEN_CUT, dlam2 / lam_m, 0.0)
                 + np.where(svec > EIGEN_CUT, (inner.imag / r) ** 2 / svec, 0.0))
    block[r < 1e-150] = 0.0
    total = 0.5 * _ordered_sum(comb * block)
    total[t == 0] = 0.0
    return total.reshape(shape)[()]


def _coherence_dot(omega: np.ndarray, gamma: np.ndarray, tau: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray]:
    """(w, dw/domega) for the per-round coherence multiplier, both exact."""
    x_plus, _, y, dx_plus, _, dy = _xy_dot(omega, gamma, tau)
    return x_plus + y, dx_plus + dy


def _qfi_from_logs(ln_big_r: np.ndarray, dln_big_r: np.ndarray, dtheta: np.ndarray) -> np.ndarray:
    """Rank-2 QFI evaluated from ln R, d(ln R)/domega and dtheta/domega, elementwise.

    1 - R^2 comes from expm1, so the mixing term survives when R is within
    machine epsilon of 1; once the decay is below representable precision
    the term is provably negligible against R^2 dtheta^2 and is dropped.
    """
    ln_big_r = np.minimum(ln_big_r, 0.0)
    big_r = np.exp(ln_big_r)
    phase = big_r * big_r * dtheta * dtheta
    denom = -np.expm1(2.0 * ln_big_r)
    with np.errstate(all="ignore"):
        return np.where(denom <= 1e-13, phase, (big_r * dln_big_r) ** 2 / denom + phase)


def _qfi_of_amplitude(z: np.ndarray, dz: np.ndarray, ln_scale: np.ndarray | float = 0.0,
                      dln_scale: np.ndarray | float = 0.0) -> np.ndarray:
    """Rank-2 QFI of the coherence e^{ln_scale} z, given dz/domega and d(ln_scale)/domega.

    Elementwise over arrays of points.  Gives 0 once |z| has decayed below
    1e-150, where the QFI is below any representable fraction of (n t)^2.
    """
    r = np.abs(z)
    with np.errstate(all="ignore"):
        inner = np.conj(z) * dz / (r * r)
        q = _qfi_from_logs(ln_scale + np.log(r), dln_scale + inner.real, inner.imag)
    q[r < 1e-150] = 0.0
    return q


def _ideal_logs(pts: _Points) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(ln r, dln r/domega, phi, dphi/domega) for one correction period, one entry per point.

    r e^{i phi} is the per-round coherence multiplier; once r < 1e-300 the
    entries are (-inf, 0, 0, 0).
    """
    w, wdot = _coherence_dot(pts.omega, pts.gamma, pts.tau)
    r = np.abs(w)
    with np.errstate(all="ignore"):
        inner = np.conj(w) * wdot / (r * r)
        logs = np.log(r), inner.real, np.angle(w), inner.imag
    dead = r < 1e-300
    if np.count_nonzero(dead):
        for log, value in zip(logs, (-np.inf, 0.0, 0.0, 0.0)):
            log[dead] = value
    return logs


def _parity_ideal(pts: _Points) -> np.ndarray:
    lnr, dlnr, _, dphi = _ideal_logs(pts)
    k = pts.n * pts.rounds
    return _qfi_from_logs(k * lnr, k * dlnr, k * dphi)


def qfi_parity_ideal(params: EccParams) -> float:
    """Q1 = n^2 t^2 r^{2nt/tau} f for noiseless-ancilla, perfect-syndrome
    correction; evaluated in log space through the rank-2 form."""
    if params.xi != 0.0 or params.p != 0.0:
        raise ValueError("ideal parity code needs xi = 0 and p = 0")
    return _parity_ideal(_points([params]))[0]


def _parity_imperfect(pts: _Points) -> np.ndarray:
    n, m, p = pts.n, pts.rounds, pts.p
    n_extra = n * (m - 1)
    w, wdot = _coherence_dot(pts.omega, pts.gamma, pts.tau)
    r = np.abs(w)
    with np.errstate(all="ignore"):
        iw = np.conj(w) * wdot
        dphi = iw.imag / (r * r)
        phase2 = (w / r) ** 2
        g = (1.0 - p) + p * phase2
        absg = np.abs(g)
        ig = np.conj(g) * (2j * p * phase2 * dphi)
        k = n * m
        q = _qfi_from_logs(
            k * np.log(r) + n_extra * np.log(absg),
            k * iw.real / (r * r) + n_extra * ig.real / (absg * absg),
            k * dphi - n_extra * ig.imag / (absg * absg),
        )
    q[(r < 1e-300) | (absg < 1e-300)] = 0.0
    return q


def qfi_parity_imperfect(params: EccParams) -> float:
    """Q3: perfect ancilla but each syndrome misfires with probability p.

    The coherence gains a factor (q_minus e^{i phi})^{n (t/tau - 1)} on top
    of the ideal (r e^{-i phi})^{n t/tau}; both are handled in log space.
    """
    if params.xi != 0.0:
        raise ValueError("imperfect-syndrome variant needs xi = 0")
    return _parity_imperfect(_points([params]))[0]


def _power_dot(mat: np.ndarray, dmat: np.ndarray, k: np.ndarray, head: np.ndarray,
               dhead: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(M^k h, d(M^k h)/domega) for each M of a (P, d, d) stack, from a power of [[M, dM], [0, M]].

    The block-triangular power is [[M^k, d(M^k)], [0, M^k]] (Van Loan 1978),
    so one repeated-squaring power gives the amplitude and its exact
    derivative, with no eigen-decomposition and no degenerate-root branch.
    Each point has its own exponent k[i] >= 0, an integer-valued float.
    The powers multiply the squarings in the order np.linalg.matrix_power
    does, including its (B B) B at k = 3.
    """
    dim = mat.shape[-1]
    block = np.zeros(mat.shape[:-2] + (2 * dim, 2 * dim), dtype=complex)
    block[:, :dim, :dim] = block[:, dim:, dim:] = mat
    block[:, :dim, dim:] = dmat
    bits = k[:, None] // _POWERS_OF_2[:int(k.max()).bit_length()] % 2 == 1
    power, square = None, block
    for level, take in enumerate(bits.T):
        if level:
            square = square @ square
        count = np.count_nonzero(take)
        if count:    # as matrix_power: the first squaring taken is the power so far
            product = square if power is None else power @ square
            power = product if count == take.size else np.where(
                take[:, None, None], product, np.eye(2 * dim) if power is None else power)
    if power is None:
        power = np.eye(2 * dim)
    three = k == 3
    if np.count_nonzero(three):
        power = np.where(three[:, None, None], block @ block @ block, power)
    out = (power @ np.concatenate([dhead, head], axis=-1)[..., None])[..., 0]
    return out[:, dim:], out[:, :dim]


def _z_recurrence(pts: _Points, phi: np.ndarray, dphi: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Coherence amplitude z of the corrected probe and dz/domega.

    The coherence is Z = r^{n t/tau} z, where r e^{i phi} is the per-round
    coherence multiplier.  After one round the anti-diagonal amplitudes live
    in a two-dimensional subspace spanned by the ancilla-conditional product
    vectors; the first round maps the GHZ start onto (upsilon_-, upsilon_+)
    and each later round applies the 2x2 matrix with top row
    (c q_-^n, s q_+^n) once: n syndrome factors per sensing round, one
    ancilla mixing.  The ancilla decay e^{-xi tau} is folded into
    c, s = (1 +- e^{-2 xi tau})/2, which keeps the powers bounded.  Pairs
    such as (q_-, q_+) are computed as one (2, P) array, from (u, u*) with
    u = e^{i phi}.
    """
    n, p = pts.n, pts.p
    keep = 0.5 * (1.0 + np.exp(-2.0 * pts.xi * pts.tau))
    flip = 1.0 - keep
    mix = np.array([keep, flip, flip, keep]).T.reshape(-1, 2, 2)          # [[c, s], [s, c]]
    uu = np.cos(phi) + _PLUS_MINUS_I * np.sin(phi)                         # (u, u*)
    stay, swap = (1.0 - p) * uu[::-1], p * uu
    q = stay + swap                                                        # (q_-, q_+)
    dq = _PLUS_MINUS_I * dphi * (swap - stay)                              # (dq_-, dq_+)
    q_n, dq_n = q ** n, n * q ** (n - 1) * dq
    anc = (uu ** n)[::-1]                                                  # (u*^n, u^n)
    head = mix * anc.T[:, None, :]
    dhead = mix * (anc * _MINUS_PLUS).T[:, None, :]
    z, dz = _power_dot(mix * q_n.T[:, None, :], mix * dq_n.T[:, None, :], pts.rounds - 1,
                       head[..., 0] + head[..., 1],
                       (1j * n * dphi)[:, None] * (dhead[..., 0] + dhead[..., 1]))
    return z[:, 0], dz[:, 0]


def _parity_general(pts: _Points) -> np.ndarray:
    lnr, dlnr, phi, dphi = _ideal_logs(pts)
    k = pts.n * pts.rounds
    q = _qfi_of_amplitude(*_z_recurrence(pts, phi, dphi), k * lnr, k * dlnr)
    q[lnr == -np.inf] = 0.0
    return q


def _parity(pts: _Points) -> np.ndarray:
    """Each point by its route: the log-space closed forms at xi = 0, the recurrence otherwise."""
    clean = pts.xi == 0.0
    ideal = clean & (pts.p == 0.0)
    out = np.empty(clean.shape)
    for route, mask in ((_parity_general, ~clean), (_parity_ideal, ideal),
                        (_parity_imperfect, clean & ~ideal)):
        count = np.count_nonzero(mask)
        if count == mask.size:
            return route(pts)
        if count:
            out[mask] = route(pts.take(mask))
    return out


def qfi_parity(params: EccParams) -> float:
    """QFI of the parity-check-corrected probe for any xi >= 0, p in [0,1].

    The xi = 0 cases route through the log-space closed forms; otherwise
    the coherence and its exact omega-derivative come from the 2x2
    recurrence, with r^{n t/tau} kept in log space.
    """
    return _parity(_points([params]))[0]


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
    lnr = _ideal_logs(_points([params]))[0][0]
    n, t = params.n, params.t
    ln_scale = math.log(params.xi * n * n * t * t) + 2 * n * params.rounds * lnr
    if ln_scale < -600.0:
        return q2, math.nan
    return q2, (q1 - q2) / math.exp(ln_scale)


def _z_majority(pts: _Points) -> tuple[np.ndarray, np.ndarray]:
    """Coherence amplitude under the odd-n majority-vote code and its omega-derivative.

    The four truncated binomial sums sum_{j <= n/2} C(n, j) u^{n-j} v^j,
    (u, v) = (x_-, y), (y, x_+), (y, x_-), (x_+, y) in the order of the 2x2
    map's entries, and their derivatives are evaluated as one array and
    summed in order of j.
    """
    n = pts.n
    j, nj, jm1, njm1, comb = (column[:n // 2 + 1] for column in _weight_classes(n))
    entries = _xy_dot(pts.omega, pts.gamma, pts.tau)     # x_+, x_-, y, dx_+, dx_-, dy
    picks = [1, 2, 2, 0, 2, 0, 1, 2, 4, 5, 5, 3, 5, 3, 4, 5]
    u, v, du, dv = entries[picks, :, None].reshape(4, 4, -1, 1)
    u_nj, v_j = u ** nj, v ** j
    val = _ordered_sum(comb * u_nj * v_j)
    dval = _ordered_sum(comb * (nj * u ** njm1 * du * v_j + j * u_nj * v ** jm1 * dv))
    b, db = _power_dot(val.T.reshape(-1, 2, 2), dval.T.reshape(-1, 2, 2), pts.rounds,
                       np.ones(2), np.zeros(2))
    return b[:, 0], db[:, 0]


def _bitflip(pts: _Points) -> np.ndarray:
    if np.count_nonzero(pts.xi) or np.count_nonzero(pts.p):
        raise ValueError("repetition-code variant needs xi = 0 and p = 0")
    if pts.n % 2 == 0:
        raise ValueError("majority vote needs odd n")
    return _qfi_of_amplitude(*_z_majority(pts))


def qfi_bitflip(params: EccParams) -> float:
    """QFI under the majority-vote repetition code (odd n, xi = p = 0).

    Tracks only the two extreme anti-diagonal amplitudes; the correction
    funnels every round's amplitudes back onto them, giving a 2x2 map with
    truncated-binomial entries eta and zeta.
    """
    return _bitflip(_points([params]))[0]


def qfi_sweep(code: str, params: Sequence[EccParams]) -> np.ndarray:
    """Closed-form QFI of ``code`` (none, parity, bitflip) at each point, as one array computation.

    The points must share n.  Each entry equals, bit for bit, what the
    code's one-point function (:func:`qfi_no_ecc`, :func:`qfi_parity`,
    :func:`qfi_bitflip`) gives that point: the kernels are elementwise over
    points.  A point that fails makes the whole call raise.
    """
    if code not in ("none", "parity", "bitflip"):
        raise ValueError("code must be one of: none, parity, bitflip")
    pts = _points(params)
    if code == "none":
        return qfi_no_ecc(pts.n, pts.omega, pts.gamma, pts.t)
    if code == "parity":
        return _parity(pts)
    return _bitflip(pts)


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

    lnr, dlnr, _, dphi = (v[0] for v in _ideal_logs(_points([params])))

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
    lnr, dlnr, phi, dphi = (v[0] for v in _ideal_logs(_points([params])))
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
        # Each vote sum is one contiguous array summed pairwise, which keeps
        # the maps' column sums within a few ulp of 1 up to n = 15.
        return np.array([0, 2 ** n - 1]), tuple(
            np.array([[col[rows].sum() for col in (c0[:, 0], c1[:, 0])] for rows in (low, ~low)])
            for c0, c1 in zip(*cols))
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
    return AmplitudeOracleState(a_vec=a, b_vec=b, db_vec=db, kept=kept)


def amplitude_oracle(params: EccParams, code: str = "parity"
                     ) -> tuple[Callable[[float], np.ndarray], float]:
    """Ground-truth QFI from the exact amplitude recursion.

    Returns the density-matrix family over omega and the SLD QFI at
    ``params.omega`` of its value and exact derivative there, summed by
    :func:`qmet.dense.sld_qfi` over the 2x2 blocks of the X-shaped state
    that hold kept rows (one block for the bit-flip code); the other blocks
    are zero and add no term.  This is the reference every closed form
    above is validated against.
    """
    def rho_of(omega: float) -> np.ndarray:
        return propagate_amplitudes(params, code, omega).density()

    return rho_of, sld_qfi(*propagate_amplitudes(params, code, params.omega).blocks())

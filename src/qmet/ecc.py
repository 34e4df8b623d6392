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
its cost grows with log(t/tau), not with t/tau.  :func:`oracle_sweep` runs the
oracle over all points of a sweep as one batch, each point with its own
exponent bits, and :func:`amplitude_oracle` is its one-point case, so a point
gets the same bits alone or in a sweep.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
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
        rho, drho = _x_blocks(self.a_vec[None], self.b_vec[None], self.db_vec[None], self.kept)
        return rho[0], drho[0]


def _x_blocks(a: np.ndarray, b: np.ndarray, db: np.ndarray, kept: np.ndarray | None
              ) -> tuple[np.ndarray, np.ndarray]:
    """(P, B, 2, 2): :meth:`AmplitudeOracleState.blocks` of P states, from (P, dim) amplitudes."""
    dim = a.shape[-1]
    if kept is None:
        lo, hi = slice(0, dim // 2), slice(dim - 1, dim // 2 - 1, -1)
    else:
        lo = np.unique(np.minimum(kept, dim - 1 - kept))
        hi = dim - 1 - lo
    rho, drho = (np.zeros(a[:, lo].shape + (2, 2), dtype=complex) for _ in range(2))
    rho[..., 0, 0], rho[..., 1, 1] = a[:, lo], a[:, hi]
    for block, anti in ((rho, b), (drho, db)):
        block[..., 0, 1] = off = 0.5 * (anti[:, lo] + anti[:, hi].conj())
        block[..., 1, 0] = off.conj()
    return rho, drho


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

    def take(self, which: np.ndarray | slice) -> "_Points":
        """The points at ``which``: a mask, indices or a slice."""
        return _Points(self.n, *(column[which] for column in self[1:]))


_POINT_FIELDS = operator.attrgetter("omega", "gamma", "tau", "t", "xi", "p")


def _points(params: Sequence[EccParams]) -> _Points:
    """The points' columns, read in one pass; rounds = t/tau rounded half to even, as ``rounds``."""
    if not params:
        raise ValueError("need at least one point")
    if len({point.n for point in params}) > 1:
        raise ValueError("sweep points must share n")
    fields = itertools.chain.from_iterable(map(_POINT_FIELDS, params))
    omega, gamma, tau, t, xi, p = np.fromiter(fields, float, 6 * len(params)).reshape(-1, 6).T.copy()
    return _Points(params[0].n, omega, gamma, tau, t, xi, p, np.round(t / tau))


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


# Output entries one pass of _kron_power_dot forms at most, over its batch
# entries: a pass that outgrows the cache runs slower than one pass per entry.
_KRON_PASS_ENTRIES = 2 ** 15


def _kron_power_dot(one: np.ndarray, done: np.ndarray | None, n: int) -> list[np.ndarray]:
    """[one^{x n}, its derivative by the product rule, unless ``done`` = d one/domega is None].

    Each step forms the blocks one[r, c] P (and one[r, c] D + done[r, c] P), the 2x2
    factor on the left, as one broadcast product with axes (r, R, c, C), already in the
    order of rows rR and columns cC.  ``one`` may be a single column, one[:, [c]]: then
    the result is the column of the Kronecker power whose index has every bit c, in O(2^n).
    ``one`` and ``done`` may carry leading batch axes, (..., 2, c): each batch entry gets
    its own power, with the same products as alone, in passes of at most
    _KRON_PASS_ENTRIES output entries (or one batch entry).
    """
    lead, cols = one.shape[:-2], one.shape[-1]
    # Each factor as (entries, r, 1, c, 1), broadcast against a power laid out as (R, C).
    factors = [np.reshape(x, (-1, 2, 1, cols, 1)) for x in (one, done) if x is not None]
    dtype = np.result_type(*factors)
    count, step = len(factors[0]), max(1, _KRON_PASS_ENTRIES // (2 ** n * cols ** n))
    out = [np.empty((count, 2 ** n, cols ** n), dtype) for _ in factors]
    for start in range(0, count, step):
        left, *dleft = (x[start:start + step] for x in factors)
        mats = [np.ones((1, 1), dtype=dtype)] + [np.zeros((1, 1), dtype)] * len(dleft)
        for k in range(n):     # the last step writes its products into out
            into = [whole[start:start + step].reshape(len(left), 2, 2 ** k, cols, -1)
                    if k == n - 1 else None for whole in out]
            nxt = [np.multiply(left, mat[..., None, :, None, :], out=dest)
                   for mat, dest in zip(mats, into)]
            if dleft:
                nxt[1] += dleft[0] * mats[0][..., None, :, None, :]
            mats = [new.reshape(len(left), 2 ** (k + 1), -1) for new in nxt]
    return [whole.reshape(lead + whole.shape[1:]) for whole in out]


@functools.lru_cache(maxsize=None)
def _vote_rows(n: int) -> np.ndarray:
    """(2, 2^(n-1)), read-only: the rows of Hamming weight below n/2, then the others (odd n)."""
    low = np.indices((2,) * n).sum(axis=0).ravel() < n / 2
    rows = np.stack([np.flatnonzero(low), np.flatnonzero(~low)])
    rows.setflags(write=False)
    return rows


# One group of oracle points: (their positions in the batch, their kept rows or
# None for every row, and their (S_a, S_b, dS_b/domega) stacks on those rows).
_MapGroup = tuple[np.ndarray, "np.ndarray | None", tuple[np.ndarray, np.ndarray, np.ndarray]]


def _keep_written_rows(maps: tuple[np.ndarray, ...]) -> list[_MapGroup]:
    """The points grouped by their kept rows, each group with its maps' blocks on them.

    ``maps`` are (P, dim, dim) stacks.  A point keeps the rows some map writes,
    found from the maps' entries, plus the GHZ start rows 0 and dim - 1.  The
    amplitudes start on the kept rows and every round writes only kept rows,
    so the columns of the other rows only ever multiply zeros.  kept is None
    when it is every row; then the group's maps are used as they are.
    """
    count, dim = maps[0].shape[:2]
    written = np.any(maps[0], axis=-1) | np.any(maps[1], axis=-1) | np.any(maps[2], axis=-1)
    written[:, 0] = written[:, -1] = True
    if count == 1 or (written == written[0]).all():
        patterns, inverse = written[:1], None
    else:
        patterns, inverse = np.unique(written, axis=0, return_inverse=True)
    groups = []
    for g, pattern in enumerate(patterns):
        index = np.arange(count) if inverse is None else np.flatnonzero(inverse == g)
        if not pattern.all():
            kept = np.flatnonzero(pattern)
            groups.append((index, kept, tuple(np.ascontiguousarray(mat[np.ix_(index, kept, kept)])
                                              for mat in maps)))
        else:
            groups.append((index, None, maps if inverse is None else
                           tuple(mat[index] for mat in maps)))
    return groups


def _round_maps(code: str, pts: _Points) -> list[_MapGroup]:
    """One correction round of each point on its kept rows, grouped by kept rows.

    The diagonal amplitudes a_J and anti-diagonal amplitudes b_J close
    under both the free evolution M (Kronecker powers of the single-qubit
    factors) and the correction map C, so the full density matrix never
    has to be formed.  S = C M for each sector, and dS_b = C dM_b, where
    dM_b is the product rule over the Kronecker factors.  C is never formed:
    ``bitflip`` votes rows into rows 0 and dim - 1, its kept rows, so its 2x2
    maps are the vote's two row sums of the powers of the factors' columns 0
    and 1; ``parity`` has C = sum_s R_s^{x n} x |s><s| (ancilla last), so
    C M = sum_s (R_s m)^{x n} x (|s><s| anc) by the mixed-product rule.
    Each Kronecker-power call serves every point of the batch, with the
    bit-flip code's two columns and the parity code's two syndromes as
    batch entries too.  Each point's maps are the bits it gets alone.
    """
    n, p, tau = pts.n, pts.p, pts.tau
    # Per point, the factors [[x_-, y], [y, x_+]] and their derivatives; the real
    # entries: the damped (cosh, sinh) of gamma tau, by math.exp as the scalar
    # function (np.exp does not always give its bits), and for parity that of
    # xi tau and (1 - p, p); and the factor [[c, s], [s, c]].
    one_b, one_db = (_xy_dot(pts.omega, pts.gamma, tau)[[1, 2, 2, 0, 4, 5, 5, 3]].T
                     .reshape(-1, 2, 2, 2).swapaxes(0, 1))
    gamma_tau = (pts.gamma * tau).tolist()
    if code == "parity":
        real = np.array([_damped_cosh_sinh(g) + _damped_cosh_sinh(x) + (1.0 - q, q)
                         for g, x, q in zip(gamma_tau, (pts.xi * tau).tolist(), p.tolist())])
    else:
        real = np.array([_damped_cosh_sinh(g) for g in gamma_tau])
    one_a = real[:, [0, 1, 1, 0]].reshape(-1, 2, 2)
    if code == "bitflip":
        # Batch axes (point, column c) of the factors' columns; each vote sum adds
        # one column's rows as one contiguous array, pairwise, which keeps the
        # maps' column sums within a few ulp of 1 up to n = 15.
        rows = _vote_rows(n)
        powers = (_kron_power_dot(one_a.swapaxes(-1, -2)[..., None], None, n)
                  + _kron_power_dot(one_b.swapaxes(-1, -2)[..., None],
                                    one_db.swapaxes(-1, -2)[..., None], n))
        return [(np.arange(p.size), np.array([0, 2 ** n - 1]), tuple(
            np.take(power[..., 0], rows, axis=-1).sum(axis=-1).swapaxes(-1, -2).copy()
            for power in powers))]
    if code == "parity":
        anc = real[:, [2, 3, 3, 2]].reshape(-1, 2, 2)
        # reset[s] = R_s: row r of R_s is 1 - p when r = s, else p, in both columns.
        reset = real[:, [4, 4, 5, 5, 5, 5, 4, 4]].reshape(-1, 2, 2, 2)
        mats = (_kron_power_dot(reset @ one_a[:, None], None, n)
                + _kron_power_dot(reset @ one_b[:, None], reset @ one_db[:, None], n))
        # |s><s| anc keeps row s of anc: entry (J s, K e) is R_s-power[J, K] anc[s, e].
        half = 2 ** n
        out = [np.empty((p.size, half, 2, half, 2), dtype=mat.dtype) for mat in mats]
        for sector, mat in zip(out, mats):
            for s, e in ((0, 0), (0, 1), (1, 0), (1, 1)):
                np.multiply(mat[:, s], anc[:, s, e, None, None], out=sector[:, :, s, :, e])
        return _keep_written_rows(tuple(sector.reshape(-1, 2 * half, 2 * half) for sector in out))
    return _keep_written_rows(tuple(_kron_power_dot(one_a, None, n)
                                    + _kron_power_dot(one_b, one_db, n)))


def _apply_rounds(maps: tuple[np.ndarray, np.ndarray, np.ndarray], rounds: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(a, b, db), each (P, K): the GHZ start after rounds[i] rounds of point i's K x K maps.

    Binary powering of (S, dS), with d(S^2) = dS S + S dS, for as long as at
    least K rounds remain: squaring a K x K map costs about K mat-vecs, so it
    pays then.  The last k < K rounds apply the current power one at a time,
    so a run with fewer than K rounds applies the maps once per round.  Each
    point takes its own exponent bits and its own tail: a product runs on the
    points whose bit or tail asks for it, so each point gets exactly its own
    sequence of products.  ``rounds`` holds integer-valued floats, exact at
    any size.
    """
    step_a, step_b, dstep_b = maps
    count, size = step_a.shape[:2]
    a = np.zeros((count, size, 1))
    a[:, 0] = a[:, -1] = 0.5
    b, db = a.astype(complex), np.zeros((count, size, 1), dtype=complex)

    def apply(i: np.ndarray | None) -> None:
        """One round at the points i, or at every point when i is None."""
        nonlocal a, b, db
        if i is None:
            a, b, db = step_a @ a, step_b @ b, step_b @ db + dstep_b @ b
        else:
            a[i] = step_a[i] @ a[i]
            b[i], db[i] = step_b[i] @ b[i], step_b[i] @ db[i] + dstep_b[i] @ b[i]

    counts = [int(k) for k in rounds.tolist()]          # exact: integer-valued floats
    squarings = [(k // size).bit_length() for k in counts]  # the levels with >= K rounds left
    fewest = min(squarings)
    for level in range(max(squarings)):
        take = [i for i, (k, s) in enumerate(zip(counts, squarings)) if level < s and k >> level & 1]
        if take:
            apply(None if len(take) == count else np.array(take))
        if level < fewest:
            step_a, step_b, dstep_b = (step_a @ step_a, step_b @ step_b,
                                       dstep_b @ step_b + step_b @ dstep_b)
            continue
        # The maps may be the caller's: write the squares into copies.
        i = np.array([j for j, s in enumerate(squarings) if level < s])
        squares = (step_a[i] @ step_a[i], step_b[i] @ step_b[i],
                   dstep_b[i] @ step_b[i] + step_b[i] @ dstep_b[i])
        step_a, step_b, dstep_b = (mat.copy() for mat in (step_a, step_b, dstep_b))
        for mat, square in zip((step_a, step_b, dstep_b), squares):
            mat[i] = square
    tails = [k >> s for k, s in zip(counts, squarings)]
    common = min(tails)
    for k in range(max(tails)):
        apply(None if k < common else np.array([i for i, tail in enumerate(tails) if tail > k]))
    return a[..., 0], b[..., 0], db[..., 0]


# Largest n the amplitude oracle takes for each code.  The bit-flip maps cost
# O(n 2^n); the others are full 2^n- or 2^(n+1)-square matrices.
_ORACLE_MAX_N = {"none": 8, "parity": 8, "bitflip": 15}
# Map entries one chunk of a batch builds at most: chunks bound the memory of
# a long sweep, and each point's bits do not depend on its chunk.
_CHUNK_ENTRIES = 2 ** 18


def _oracle_points(code: str, params: Sequence[EccParams]) -> _Points:
    """The oracle's own columns of points that share n, after its checks of code and n.

    It reads each point's ``rounds``, and shares no code with the closed
    forms' :func:`_points`.
    """
    if code not in _ORACLE_MAX_N:
        raise ValueError("code must be one of: none, parity, bitflip")
    if not params:
        raise ValueError("need at least one point")
    n = params[0].n
    if any(point.n != n for point in params):
        raise ValueError("sweep points must share n")
    if n > _ORACLE_MAX_N[code]:
        raise ValueError("%s oracle limited to n <= %d, got n = %d (caps: %s)"
                         % (code, _ORACLE_MAX_N[code], n,
                            ", ".join("%s n <= %d" % item for item in _ORACLE_MAX_N.items())))
    if code == "bitflip" and n % 2 == 0:
        raise ValueError("majority vote needs odd n")
    columns = np.array([(point.omega, point.gamma, point.tau, point.t, point.xi, point.p,
                         point.rounds) for point in params], dtype=float).T.copy()
    return _Points(n, *columns)


def _register_size(code: str, n: int) -> int:
    return 2 ** (n + (code == "parity"))


def _propagate(code: str, pts: _Points) -> list[tuple[np.ndarray, np.ndarray | None,
                                                     np.ndarray, np.ndarray, np.ndarray]]:
    """(index, kept, a, b, db) groups: each point's amplitudes after its rounds, on its kept rows.

    The points run in chunks of at most _CHUNK_ENTRIES map entries, and a
    chunk's points are grouped by their kept rows.  Each point's diagonal
    amplitudes must still sum to 1 within 1e-10; otherwise ArithmeticError
    names the first point, in batch order, that lost normalisation.
    """
    count, dim = pts.omega.size, _register_size(code, pts.n)
    per_point = 4 * dim if code == "bitflip" else dim * dim
    step = max(1, _CHUNK_ENTRIES // per_point)
    out = []
    for start in range(0, count, step):
        chunk = pts if step >= count else pts.take(slice(start, start + step))
        lost = []
        for index, kept, maps in _round_maps(code, chunk):
            a, b, db = _apply_rounds(maps, chunk.rounds[index])
            out.append((index + start if start else index, kept, a, b, db))
            lost += [start + int(i) for i, total in zip(index, a.sum(axis=-1).tolist())
                     if abs(total - 1.0) > 1e-10]
        if lost:
            i = min(lost)
            raise ArithmeticError(
                "amplitude propagation lost normalisation at n=%d, omega=%r, gamma=%r, tau=%r, "
                "t=%r, xi=%r, p=%r" % ((pts.n,) + tuple(float(column[i]) for column in pts[1:7])))
    return out


def _full_register(kept: np.ndarray | None, dim: int, vecs: Sequence[np.ndarray]
                   ) -> list[np.ndarray]:
    """(P, K) vectors on the kept rows written back to the full register, zero off them."""
    if kept is None:
        return list(vecs)
    full = [np.zeros((len(vec), dim), vec.dtype) for vec in vecs]
    for out, vec in zip(full, vecs):
        out[:, kept] = vec
    return full


def propagate_amplitudes(params: EccParams, code: str, omega: float) -> AmplitudeOracleState:
    """Exact amplitude-space propagation over t/tau correction rounds.

    Starts from the GHZ amplitudes and applies the round maps of
    :func:`_round_maps`, with db/domega carried alongside b.  The maps and
    the amplitudes live on the K kept rows: the rows some round map writes
    and the GHZ start rows 0 and dim - 1.  Amplitudes on the other rows stay
    zero, so each map is its K x K block, and the result is written back to
    the full register once, at the end.  The rounds are applied by
    :func:`_apply_rounds`: binary powering while at least K rounds remain,
    then one round at a time.  K is 2 for the bit-flip code and for parity
    with p = 0, 4 for parity with p = 1, and the whole register otherwise:
    then the maps are used as they are.  This is the one-point case of
    :func:`oracle_sweep`'s propagation, at frequency ``omega``.
    """
    pts = _oracle_points(code, [params])._replace(omega=np.array([float(omega)]))
    [(_, kept, *vecs)] = _propagate(code, pts)
    a, b, db = _full_register(kept, _register_size(code, params.n), vecs)
    return AmplitudeOracleState(a_vec=a[0], b_vec=b[0], db_vec=db[0], kept=kept)


def oracle_sweep(code: str, params: Sequence[EccParams]) -> np.ndarray:
    """Amplitude-oracle QFI of ``code`` (none, parity, bitflip) at each point, as one batch.

    The points must share n.  Every point is propagated as by
    :func:`propagate_amplitudes`, all points of a kept-row set together, and
    its QFI is :func:`qmet.dense.sld_qfi` of its own 2x2 blocks, those that
    hold kept rows (one block for the bit-flip code); the other blocks are
    zero and add no term.  Each entry is the bits :func:`amplitude_oracle`
    gives that point alone.  A point that fails makes the whole call raise.
    """
    pts = _oracle_points(code, params)
    dim = _register_size(code, pts.n)
    out = np.empty(pts.omega.size)
    for index, kept, *vecs in _propagate(code, pts):
        rho, drho = _x_blocks(*_full_register(kept, dim, vecs), kept)
        for i, rho_i, drho_i in zip(index.tolist(), rho, drho):
            out[i] = sld_qfi(rho_i, drho_i)
    return out


def oracle_work(code: str, params: Sequence[EccParams]) -> float:
    """Estimated cost of :func:`oracle_sweep` over ``params``, in multiply-adds, without building.

    Per point: 10^5 for its blocks, its SLD and its share of the batch's
    bookkeeping; 32 dim^2 to build its maps (8 n 2^n for the bit-flip
    columns); 4 K^3 for each of its s squarings and 3 K^2 for each of its
    s + k mat-vecs, where K is its kept-row count (2 for the bit-flip code,
    2 for parity at p = 0, 4 at p = 1, the whole register otherwise) and
    k < K its tail of single rounds.  On a 2-core machine the oracle does
    about 10^9 of these a second.  Raises ValueError as the oracle does for
    a code or n it does not take.
    """
    pts = _oracle_points(code, params)
    n, dim = pts.n, _register_size(code, pts.n)
    size = np.full(pts.p.shape, 2.0 if code == "bitflip" else float(dim))
    if code == "parity":
        size[pts.p == 0.0], size[pts.p == 1.0] = 2.0, 4.0
    build = 8.0 * n * 2 ** n if code == "bitflip" else 32.0 * dim * dim
    squarings = np.maximum(np.floor(np.log2(pts.rounds / size)) + 1.0, 0.0)
    tail = np.floor(np.ldexp(pts.rounds, -squarings.astype(int)))
    return float(np.sum(1e5 + build + 4.0 * squarings * size ** 3
                        + 3.0 * (squarings + tail) * size ** 2))


def amplitude_oracle(params: EccParams, code: str = "parity"
                     ) -> tuple[Callable[[float], np.ndarray], float]:
    """Ground-truth QFI from the exact amplitude recursion.

    Returns the density-matrix family over omega and the SLD QFI at
    ``params.omega`` of its value and exact derivative there: the one-point
    case of :func:`oracle_sweep`.  This is the reference every closed form
    above is validated against.
    """
    def rho_of(omega: float) -> np.ndarray:
        return propagate_amplitudes(params, code, omega).density()

    return rho_of, float(oracle_sweep(code, [params])[0])

"""Finite-difference QFI references the tests check exact derivatives against.

Each takes a state family theta -> rho(theta) (or psi(theta)) and
differentiates it numerically, so it shares no derivative with the library
paths it checks.
"""

from typing import Callable

import numpy as np

from qmet import dense


def qfi_spectral(family: Callable[[float], np.ndarray], theta: float) -> float:
    """QFI of a density-matrix family theta -> rho(theta) from its spectrum.

    The derivative is a central finite difference in theta; the spectral
    formula is :func:`qmet.dense.sld_qfi`.
    """
    rho = dense.as_density(family(theta))
    drho = dense._central_diff(family, theta, dense.default_fd_step(theta))
    return dense.sld_qfi(rho, drho)


def qfi_pure(psi_fun: Callable[[float], np.ndarray], theta: float) -> float:
    """QFI of a pure-state family, Q = 4 (<dpsi|dpsi> - |<psi|dpsi>|^2).

    The caller must keep psi(theta) normalized; a norm drift above 1e-8
    is rejected.
    """
    psi = np.asarray(psi_fun(theta), dtype=complex)
    if abs(np.linalg.norm(psi) - 1.0) > 1e-8:
        raise ValueError("state family is not normalized at theta=%r" % theta)
    dpsi = dense._central_diff(lambda x: np.asarray(psi_fun(x), dtype=complex), theta,
                               dense.default_fd_step(theta))
    overlap = np.vdot(psi, dpsi)
    q = 4.0 * (np.vdot(dpsi, dpsi).real - abs(overlap) ** 2)
    return float(q)


def qfi_fidelity_limit(family: Callable[[float], np.ndarray],
                       theta: float, dtheta: float = 1e-4) -> float:
    """QFI from the fidelity drop between rho(theta) and rho(theta + dtheta).

    Uses Q ~= 8 (1 - sqrt(F)) / dtheta^2, valid for small dtheta.
    """
    if not (1e-6 <= dtheta <= 1e-2):
        raise ValueError("dtheta=%g outside the supported window [1e-6, 1e-2]" % dtheta)
    f = dense.fidelity(dense.as_density(family(theta)), dense.as_density(family(theta + dtheta)))
    return float(8.0 * (1.0 - np.sqrt(f)) / dtheta ** 2)

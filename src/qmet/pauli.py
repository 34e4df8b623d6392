"""Bit-packed Pauli strings, Clifford unitaries, and twirl verification.

Pauli strings are stored as a pair of bit masks (x, z) plus a power of i,
with the operator convention phase * prod_j X_j^{x_j} Z_j^{z_j} and qubit 0
on the leftmost character of a literal like ``-XIZ``.  Clifford elements are
dense 2^m x 2^m unitaries, with global phase fixed by a gauge: the first
nonzero entry is real and positive.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Sequence

import numpy as np

# kron_all is no longer used here but stays bound as pauli.kron_all, which
# perfbench's tracer wraps and its self-test checks.
from .dense import ID2, PAULI_1Q, kron_all, local_product_sum  # noqa: F401

__all__ = [
    "PauliString",
    "pauli_mul", "commutes",
    "enumerate_clifford", "random_clifford",
    "verify_twirl", "channel_pauli_weights",
    "all_paulis", "paulis_on_support",
]

_PHASES = {0: 1.0 + 0j, 1: 1j, 2: -1.0 + 0j, 3: -1j}
# Widest register random_clifford builds a dense 2^m x 2^m unitary for.
_CLIFFORD_MATRIX_CAP = 7


@dataclass(frozen=True)
class PauliString:
    """phase * prod_j X_j^{x_j} Z_j^{z_j} with phase = i^k."""

    n: int
    x: int
    z: int
    k: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one qubit")
        mask = (1 << self.n) - 1
        if (self.x | self.z) & ~mask:
            raise ValueError("mask exceeds %d qubits" % self.n)
        object.__setattr__(self, "k", self.k % 4)

    @property
    def phase(self) -> complex:
        return _PHASES[self.k]

    @property
    def support(self) -> int:
        return self.x | self.z

    @property
    def weight(self) -> int:
        return self.support.bit_count()

    def is_hermitian(self) -> bool:
        return (self.k - (self.x & self.z).bit_count()) % 2 == 0

    def axes_key(self) -> tuple[int, int]:
        """Unsigned (x, z) masks: the string modulo its phase."""
        return (self.x, self.z)

    @classmethod
    def identity(cls, n: int) -> "PauliString":
        return cls(n, 0, 0, 0)

    @classmethod
    def from_label(cls, label: str) -> "PauliString":
        """Parse a literal like ``-XIZ``, ``iY`` or ``+ZZ`` (qubit 0 leftmost)."""
        s = label.strip()
        k = 0
        if s.startswith(("+", "-")):
            if s[0] == "-":
                k = 2
            s = s[1:]
        if s.startswith(("i", "j")):
            k += 1
            s = s[1:]
        if not s:
            raise ValueError("empty Pauli literal %r" % label)
        x = z = 0
        for pos, ch in enumerate(s.upper()):
            if ch == "I":
                continue
            if ch == "X":
                x |= 1 << pos
            elif ch == "Z":
                z |= 1 << pos
            elif ch == "Y":
                x |= 1 << pos
                z |= 1 << pos
                k += 1
            else:
                raise ValueError("bad character %r in Pauli literal %r" % (ch, label))
        return cls(len(s), x, z, k)

    def label(self) -> str:
        """Inverse of from_label for Hermitian strings."""
        chars = []
        n_y = 0
        for j in range(self.n):
            xb = (self.x >> j) & 1
            zb = (self.z >> j) & 1
            if xb and zb:
                chars.append("Y")
                n_y += 1
            elif xb:
                chars.append("X")
            elif zb:
                chars.append("Z")
            else:
                chars.append("I")
        head = {0: "", 1: "i", 2: "-", 3: "-i"}[(self.k - n_y) % 4]
        return head + "".join(chars)

    def to_matrix(self) -> np.ndarray:
        idx, _, rev = _basis_tables(self.n)
        perm, factor = _pauli_action(self.n, rev[self.x], rev[self.z], self.k)
        out = np.zeros((idx.size, idx.size), dtype=complex)
        out[idx, perm] = factor
        return out


_PHASE_ARRAY = np.array([_PHASES[k] for k in range(4)])


@lru_cache(maxsize=None)
def _basis_tables(n: int) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Basis indices 0..2^n-1, (-1)^popcount of each, and each index's n-bit reversal.

    The reversal maps a qubit mask (bit j = qubit j) to its mask in the
    basis index, where qubit 0 is the leftmost (most significant) bit.
    """
    idx = np.arange(1 << n)
    parity = np.zeros_like(idx)
    rev = np.zeros_like(idx)
    for j in range(n):
        bit = (idx >> j) & 1
        parity ^= bit
        rev |= bit << (n - 1 - j)
    signs = 1.0 - 2.0 * parity
    idx.flags.writeable = False
    signs.flags.writeable = False
    return idx, signs, rev.tolist()


def _pauli_action(n: int, x, z, k) -> tuple[np.ndarray, np.ndarray]:
    """(perm, factor) with (P v)[c] = factor[c] * v[perm[c]] for P = i^k X^x Z^z.

    x and z are index masks (see ``_basis_tables``).  P|b> = i^k
    (-1)^popcount(b & z) |b ^ x>, so perm[c] = c ^ x and factor[c] =
    i^k (-1)^popcount((c ^ x) & z).  Given equal-length arrays x, z, k,
    column j of both results describes the j-th Pauli.
    """
    idx, signs, _ = _basis_tables(n)
    if np.ndim(x):
        idx = idx[:, None]
    perm = idx ^ x
    return perm, _PHASE_ARRAY[k] * signs[perm & z]


def _apply_pauli(p: PauliString, vec: np.ndarray) -> np.ndarray:
    """p.to_matrix() @ vec in O(2^n), exactly: each entry is a phase times one entry of vec."""
    rev = _basis_tables(p.n)[2]
    perm, factor = _pauli_action(p.n, rev[p.x], rev[p.z], p.k)
    return factor * vec[perm]


def pauli_mul(p: PauliString, q: PauliString) -> PauliString:
    """Product PQ with exact phase tracking."""
    if p.n != q.n:
        raise ValueError("dimension mismatch: %d vs %d qubits" % (p.n, q.n))
    k = (p.k + q.k + 2 * (p.z & q.x).bit_count()) % 4
    return PauliString(p.n, p.x ^ q.x, p.z ^ q.z, k)


def commutes(p: PauliString, q: PauliString) -> bool:
    if p.n != q.n:
        raise ValueError("dimension mismatch: %d vs %d qubits" % (p.n, q.n))
    return ((p.x & q.z).bit_count() + (p.z & q.x).bit_count()) % 2 == 0


def all_paulis(n: int, *, include_identity: bool = True) -> Iterator[PauliString]:
    """All 4^n unsigned Hermitian Pauli strings on n qubits."""
    for x in range(1 << n):
        for z in range(1 << n):
            if not include_identity and x == 0 and z == 0:
                continue
            yield PauliString(n, x, z, (x & z).bit_count())


def paulis_on_support(n: int, support: int) -> Iterator[PauliString]:
    """The 3^|support| unsigned Paulis acting as X, Y or Z exactly on ``support``."""
    bits = [j for j in range(n) if (support >> j) & 1]
    for choice in itertools.product("XYZ", repeat=len(bits)):
        x = z = 0
        n_y = 0
        for j, ax in zip(bits, choice):
            if ax in ("X", "Y"):
                x |= 1 << j
            if ax in ("Z", "Y"):
                z |= 1 << j
            n_y += ax == "Y"
        yield PauliString(n, x, z, n_y)


def _symp_product(a: int, b: int, m: int) -> int:
    """Symplectic inner product of (x|z) packed vectors of length 2m."""
    mask = (1 << m) - 1
    ax, az = a & mask, a >> m
    bx, bz = b & mask, b >> m
    return ((ax & bz).bit_count() + (az & bx).bit_count()) % 2


def _complement_basis(pairs: list[tuple[int, int]], m: int) -> list[int]:
    """GF(2) basis of the symplectic complement of the chosen pairs."""
    basis: list[int] = []
    pivots: list[int] = []
    for e in range(2 * m):
        v = 1 << e
        for vi, wi in pairs:
            if _symp_product(v, wi, m):
                v ^= vi
            if _symp_product(v, vi, m):
                v ^= wi
        for bvec, piv in zip(basis, pivots):
            if (v >> piv) & 1:
                v ^= bvec
        if v:
            piv = v.bit_length() - 1
            basis.append(v)
            pivots.append(piv)
    return basis


def random_clifford(m: int, rng: np.random.Generator) -> np.ndarray:
    """Uniformly random m-qubit Clifford unitary (m <= 7), in the fixed phase gauge.

    Row-by-row anticommuting-pair construction: the image of X_j is drawn
    uniformly from the nonzero vectors of the symplectic complement of the
    pairs fixed so far, and the image of Z_j uniformly from the affine set
    with unit symplectic product against it.  Every partial choice extends
    to the same number of group elements, so the draw is uniform without
    rejection.  Signs are independent fair bits.

    The unitary is rebuilt from the signed images: its first column is the
    joint +1 eigenvector of the images of all Z_j, and column b is
    prod_j (image of X_j)^{b_j} applied to it.  The global phase is fixed by
    making the first nonzero entry real and positive.  Both steps use the
    Pauli action on basis states, O(4^m) in all.
    """
    if not 1 <= m <= _CLIFFORD_MATRIX_CAP:
        raise ValueError("random Clifford unitaries need 1 <= m <= %d qubits, got m = %d"
                         % (_CLIFFORD_MATRIX_CAP, m))
    pairs: list[tuple[int, int]] = []
    for _ in range(m):
        comp = _complement_basis(pairs, m)
        coeffs = int(rng.integers(1, 1 << len(comp)))
        v = 0
        for idx, bvec in enumerate(comp):
            if (coeffs >> idx) & 1:
                v ^= bvec
        anti = [u for u in comp if _symp_product(v, u, m) == 1]
        commuting = [u for u in comp if _symp_product(v, u, m) == 0]
        u0 = anti[0]
        kernel = [u ^ u0 for u in anti[1:]] + commuting
        kernel = [u for u in kernel if u]
        w = u0
        if kernel:
            coeffs = int(rng.integers(0, 1 << len(kernel)))
            for idx, bvec in enumerate(kernel):
                if (coeffs >> idx) & 1:
                    w ^= bvec
        pairs.append((v, w))
    sign_bits = rng.integers(0, 2, size=2 * m)
    dim = 1 << m
    rev = _basis_tables(m)[2]
    # Images of X_0..X_{m-1}, then of Z_0..Z_{m-1}, as (x, z, k) index masks (see
    # _basis_tables): Hermitian strings on the drawn axes, negated by their sign bits.
    images = []
    for vec, bit in zip([v for v, _ in pairs] + [w for _, w in pairs], sign_bits):
        x, z = vec & (dim - 1), vec >> m
        images.append((rev[x], rev[z], ((x & z).bit_count() + 2 * int(bit)) % 4))
    # The stabilizer projector is 2^-m times the sum over the group the Z
    # images generate.  Its first nonzero column is the first basis state t
    # that every diagonal group element fixes with eigenvalue +1; the column
    # is normalized below, so the factor 2^-m is left out.
    group = _subset_products(images[m:])
    diagonal = [(z, k) for x, z, k in group if x == 0]
    t = next(t for t in range(dim)
             if all((k + 2 * (t & z).bit_count()) % 4 == 0 for z, k in diagonal))
    col = np.zeros(dim, dtype=complex)
    for x, z, k in group:
        col[t ^ x] += _PHASES[(k + 2 * (t & z).bit_count()) % 4]
    col /= np.linalg.norm(col)
    # Qubit j is index bit m-1-j, so column b takes the X images in reverse order.
    xs, zs, ks = np.array(_subset_products(reversed(images[:m]))).T
    perm, factor = _pauli_action(m, xs, zs, ks)
    u = factor * col[perm]
    flat = u.reshape(-1)
    first = flat[np.argmax(np.abs(flat) > 1e-9)]
    u *= first.conjugate() / abs(first)
    return u


def _subset_products(gens) -> list[tuple[int, int, int]]:
    """(x, z, k) of the product of every subset of pairwise-commuting Paulis.

    ``gens`` are (x, z, k) triples; entry b multiplies the generators whose
    bit is set in b.
    """
    out = [(0, 0, 0)]
    for gx, gz, gk in gens:
        out += [(x ^ gx, z ^ gz, (k + gk + 2 * (z & gx).bit_count()) % 4) for x, z, k in out]
    return out


_HADAMARD = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
_SH = np.diag([1, 1j]) @ _HADAMARD
_AXIS_CYCLES = (ID2, _SH, _SH @ _SH)  # I, then SH: X -> Z -> Y -> X, then its square


@lru_cache(maxsize=2)
def _coset_representatives(m: int) -> np.ndarray:
    """Right-coset representatives R_m of C_1^{x m} in C_m (m <= 2), read-only, phase arbitrary.

    Every m-qubit Clifford is l . r modulo phase for one local l and one r.
    R_1 = {I}; R_2 = {I, SWAP, CNOT (A x B), iSWAP (A x B)}, A and B the axis
    cycles (Corcoles et al., PRA 87, 030301, 2013): 20 matrices.
    """
    if not 1 <= m <= 2:
        raise ValueError("Clifford enumeration supports m = 1 or 2, got m=%d" % m)
    if m == 1:
        reps = [ID2]
    else:
        swap = np.eye(4)[[0, 2, 1, 3]]
        entanglers = (np.eye(4)[[0, 1, 3, 2]], np.diag([1, 1j, 1j, 1]) @ swap)  # CNOT, iSWAP
        reps = [np.eye(4), swap] + [g @ np.kron(a, b) for g in entanglers
                                    for a in _AXIS_CYCLES for b in _AXIS_CYCLES]
    out = np.array(reps, dtype=complex)
    out.flags.writeable = False
    return out


@lru_cache(maxsize=2)
def enumerate_clifford(m: int) -> np.ndarray:
    """Every m-qubit Clifford unitary modulo phase (m <= 2), as one read-only stack.

    C_1 is the 4 Paulis times the 6 permutations of the axes X, Y, Z (I, SH
    and (SH)^2, each with or without H).  C_2 is (C_1 x C_1) . R_2 (see
    ``_coset_representatives``): row 576 r + 24 i + j is C_1[i] x C_1[j] .
    R_2[r], 11,520 matrices.  Each matrix is put in the phase gauge of
    ``random_clifford`` (first nonzero entry real and positive), and each
    real and imaginary part snapped to 0, +-1/2, +-1/sqrt(2) or +-1
    (ArithmeticError if more than 1e-9 off), so entries are exact and equal
    ``random_clifford``'s bit for bit.  Kept for the process (2.9 MB at
    m = 2).  Group averages sum by cosets instead; tests use the stack as
    their literal reference.
    """
    if m == 1:
        local = np.array(list(PAULI_1Q.values()))
        reps = [c @ h for h in (ID2, _HADAMARD) for c in _AXIS_CYCLES]
    else:
        reps = _coset_representatives(m)  # raises unless m = 2
        one = enumerate_clifford(1)
        local = np.einsum("iab,jcd->ijacbd", one, one).reshape(-1, 4, 4)
    # |real| and |imag| of every gauged entry, spelled as random_clifford computes them.
    levels = np.array([0.0, 0.5, 1 / np.sqrt(2), 1.0])
    parts = []
    for rep in reps:
        flat = (local @ rep).reshape(len(local), -1)
        first = flat[np.arange(len(flat)), np.argmax(np.abs(flat) > 1e-9, axis=1)]
        part = (flat * (first.conj() / np.abs(first))[:, None]).view(float)
        snapped = levels[np.searchsorted((levels[1:] + levels[:-1]) / 2, np.abs(part))]
        if np.max(np.abs(np.abs(part) - snapped)) > 1e-9:
            raise ArithmeticError("Clifford entry is not 0, 1/2, 1/sqrt(2) or 1 in magnitude")
        # + 0.0 turns -0.0 into 0.0, so that equal matrices have equal bytes.
        parts.append(np.copysign(snapped, part) + 0.0)
    out = np.concatenate(parts).view(complex).reshape(-1, 1 << m, 1 << m)
    out.flags.writeable = False
    return out


def _axis_codes(p: PauliString) -> np.ndarray:
    """Axis code x + 2 z of p on each qubit: 0 = I, 1 = X, 2 = Z, 3 = Y (a product XORs them)."""
    return np.array([((p.x >> q) & 1) + 2 * ((p.z >> q) & 1) for q in range(p.n)])


@lru_cache(maxsize=2)
def _conjugated_factors(kind: str) -> np.ndarray:
    """Read-only table[c, i] = u_i X^x Z^z u_i^dag, c = x + 2 z, u_i the units of a local twirl."""
    units = list(PAULI_1Q.values()) if kind == "pauli" else enumerate_clifford(1)
    factors = (ID2, PAULI_1Q["X"], PAULI_1Q["Z"], PAULI_1Q["X"] @ PAULI_1Q["Z"])
    out = np.array([[u @ f @ u.conj().T for u in units] for f in factors])
    out.flags.writeable = False
    return out


def _twirl_sum(kind: str, q: PauliString, qp: PauliString,
               rho: np.ndarray) -> np.ndarray:
    """sum_G (G q G^dag) rho (G q' G^dag) over the twirl group ``kind``.

    For ``pauli`` and ``local_clifford``, G = U_1 x ... x U_m and q = i^k q_1
    x ... x q_m, so the sum is a tensor product of single-qubit maps.  The
    Clifford group, closed under G -> G^dag, is summed as G^dag q G over
    G = l . r, r in R_m (``_coset_representatives``): the local-Clifford sum
    of r rho r^dag, conjugated back by r.  The local sums also take a stack
    of matrices, one sum per matrix, which is how the 20 r rho r^dag go in.
    """
    m = q.n
    rho = np.asarray(rho, dtype=complex)
    if kind == "clifford":
        if m > 2:
            raise ValueError("full Clifford enumeration capped at m = 2")
        reps = _coset_representatives(m)
        reps_dag = reps.conj().swapaxes(1, 2)
        twirled = _twirl_sum("local_clifford", q, qp, reps @ rho @ reps_dag)
        return (reps_dag @ twirled @ reps).sum(axis=0)
    if kind not in ("pauli", "local_clifford"):
        raise ValueError("unknown twirl kind %r" % kind)
    if m > 3:
        raise ValueError("%s twirl enumeration capped at m = 3" % kind)
    table = _conjugated_factors(kind)
    pairs = [(table[c], table[cp]) for c, cp in zip(_axis_codes(q), _axis_codes(qp))]
    return q.phase * qp.phase * local_product_sum(rho, pairs)


def verify_twirl(kind: str, q: PauliString, qp: PauliString,
                 rho: np.ndarray) -> float:
    """Max-norm residual of sum_G (G q G^dag) rho (G q' G^dag) over a twirl group.

    The three supported groups are the full Pauli group (kind ``pauli``),
    the full Clifford group (kind ``clifford``, m <= 2) and tensor products
    of single-qubit Cliffords (kind ``local_clifford``).  For q != q' each
    sum vanishes identically, so the residual is pure numerical noise.
    """
    if q.n != qp.n:
        raise ValueError("dimension mismatch: %d vs %d qubits" % (q.n, qp.n))
    if np.shape(rho) != (1 << q.n, 1 << q.n):
        raise ValueError("rho of shape %s does not act on %d qubits" % (np.shape(rho), q.n))
    if q.axes_key() == qp.axes_key():
        raise ValueError("twirl lemma requires distinct Pauli operators")
    return float(np.max(np.abs(_twirl_sum(kind, q, qp, rho))))


def channel_pauli_weights(kraus: Sequence[np.ndarray]) -> dict[tuple[int, int], float]:
    """Twirled weight sum_alpha |a_{alpha,P}|^2 of a channel per unsigned Pauli (x, z).

    a_{alpha,P} = Tr(P A_alpha) / 2^m over the Kraus operators A_alpha.
    """
    mats = [np.asarray(a, dtype=complex) for a in kraus]
    dim = mats[0].shape[0]
    m = dim.bit_length() - 1
    if 2 ** m != dim:
        raise ValueError("Kraus dimension %d is not a power of two" % dim)
    total = sum(a.conj().T @ a for a in mats)
    if np.max(np.abs(total - np.eye(dim))) > 1e-9:
        raise ValueError("channel is not trace preserving")
    paulis = list(all_paulis(m))
    pmats = [p.to_matrix() for p in paulis]
    out: dict[tuple[int, int], float] = {}
    for a in mats:
        for p, pm in zip(paulis, pmats):
            coeff = complex(np.trace(pm @ a)) / dim
            if abs(coeff) > 1e-14:
                key = p.axes_key()
                out[key] = out.get(key, 0.0) + abs(coeff) ** 2
    return out

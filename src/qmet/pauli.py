"""Bit-packed Pauli strings, Clifford tableaux, and twirl verification.

Pauli strings are stored as a pair of bit masks (x, z) plus a power of i,
with the operator convention phase * prod_j X_j^{x_j} Z_j^{z_j} and qubit 0
on the leftmost character of a literal like ``-XIZ``.  Clifford elements are
tableaux: signed Pauli images of each X_j and Z_j, with global phase
quotiented away.
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
    "PauliString", "CliffordElement", "PauliChannel",
    "pauli_mul", "commutes",
    "clifford_apply", "clifford_compose", "clifford_tensor", "clifford_identity",
    "enumerate_clifford", "random_clifford", "clifford_to_matrix",
    "local_clifford_unitaries",
    "verify_twirl", "channel_pauli_coeffs",
    "all_paulis", "paulis_on_support",
]

_PHASES = {0: 1.0 + 0j, 1: 1j, 2: -1.0 + 0j, 3: -1j}


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

    def is_identity_axis(self) -> bool:
        return self.support == 0

    def is_hermitian(self) -> bool:
        return (self.k - (self.x & self.z).bit_count()) % 2 == 0

    def sign(self) -> int:
        """+1 or -1 for a Hermitian string written over {I, X, Y, Z}."""
        if not self.is_hermitian():
            raise ValueError("sign is only defined for Hermitian strings")
        val = _PHASES[(self.k - (self.x & self.z).bit_count()) % 4]
        return int(round(val.real))

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


@dataclass(frozen=True)
class CliffordElement:
    """Tableau: signed Pauli images of the generators X_j and Z_j."""

    n: int
    x_images: tuple[PauliString, ...]
    z_images: tuple[PauliString, ...]

    def __post_init__(self):
        if len(self.x_images) != self.n or len(self.z_images) != self.n:
            raise ValueError("tableau needs one image per generator")
        for img in (*self.x_images, *self.z_images):
            if img.n != self.n:
                raise ValueError("image qubit count mismatch")
            if not img.is_hermitian():
                raise ValueError("tableau image signs must be +1 or -1")

    def key(self) -> tuple:
        return tuple((g.x, g.z, g.k) for g in (*self.x_images, *self.z_images))

    def is_symplectic(self) -> bool:
        """Check all pairwise (anti)commutation relations of the images."""
        gens = list(self.x_images) + list(self.z_images)
        for i, gi in enumerate(gens):
            for j in range(i + 1, len(gens)):
                want = not (j == i + self.n and j - self.n == i)
                if commutes(gi, gens[j]) != want:
                    return False
        return True


def clifford_identity(n: int) -> CliffordElement:
    xs = tuple(PauliString(n, 1 << j, 0, 0) for j in range(n))
    zs = tuple(PauliString(n, 0, 1 << j, 0) for j in range(n))
    return CliffordElement(n, xs, zs)


def clifford_apply(c: CliffordElement, p: PauliString) -> PauliString:
    """Conjugation C P C^dag via the tableau."""
    if c.n != p.n:
        raise ValueError("dimension mismatch: %d vs %d qubits" % (c.n, p.n))
    acc = PauliString(p.n, 0, 0, p.k)
    for j in range(p.n):
        if (p.x >> j) & 1:
            acc = pauli_mul(acc, c.x_images[j])
        if (p.z >> j) & 1:
            acc = pauli_mul(acc, c.z_images[j])
    return acc


def clifford_compose(first: CliffordElement, second: CliffordElement) -> CliffordElement:
    """Tableau of (second . first): apply ``first``, then ``second``."""
    xs = tuple(clifford_apply(second, g) for g in first.x_images)
    zs = tuple(clifford_apply(second, g) for g in first.z_images)
    return CliffordElement(first.n, xs, zs)


def clifford_tensor(a: CliffordElement, b: CliffordElement) -> CliffordElement:
    """Tensor product tableau, a on the low qubits, b appended after."""
    n = a.n + b.n

    def lift_a(p: PauliString) -> PauliString:
        return PauliString(n, p.x, p.z, p.k)

    def lift_b(p: PauliString) -> PauliString:
        return PauliString(n, p.x << a.n, p.z << a.n, p.k)

    xs = tuple(lift_a(g) for g in a.x_images) + tuple(lift_b(g) for g in b.x_images)
    zs = tuple(lift_a(g) for g in a.z_images) + tuple(lift_b(g) for g in b.z_images)
    return CliffordElement(n, xs, zs)


def _gen_hadamard(n: int, j: int) -> CliffordElement:
    base = clifford_identity(n)
    xs = list(base.x_images)
    zs = list(base.z_images)
    xs[j] = PauliString(n, 0, 1 << j, 0)
    zs[j] = PauliString(n, 1 << j, 0, 0)
    return CliffordElement(n, tuple(xs), tuple(zs))


def _gen_phase(n: int, j: int) -> CliffordElement:
    base = clifford_identity(n)
    xs = list(base.x_images)
    xs[j] = PauliString(n, 1 << j, 1 << j, 1)   # S X S^dag = Y
    return CliffordElement(n, tuple(xs), base.z_images)


def _gen_cz(n: int, i: int, j: int) -> CliffordElement:
    base = clifford_identity(n)
    xs = list(base.x_images)
    xs[i] = PauliString(n, 1 << i, 1 << j, 0)
    xs[j] = PauliString(n, 1 << j, 1 << i, 0)
    return CliffordElement(n, tuple(xs), base.z_images)


@lru_cache(maxsize=4)
def enumerate_clifford(m: int) -> tuple[CliffordElement, ...]:
    """All Clifford tableaux on m qubits (global phase quotiented), m <= 2.

    BFS closure over the generators {H_j, S_j, CZ_jk} starting from the
    identity.  Sizes follow the group order 2^{m^2+2m} prod_j (4^j - 1):
    24 at m = 1 and 11520 at m = 2.
    """
    if m > 2:
        raise ValueError("enumeration too large for m=%d (supported: m <= 2)" % m)
    gens = [_gen_hadamard(m, j) for j in range(m)]
    gens += [_gen_phase(m, j) for j in range(m)]
    gens += [_gen_cz(m, i, j) for i in range(m) for j in range(i + 1, m)]
    start = clifford_identity(m)
    seen = {start.key(): start}
    frontier = [start]
    while frontier:
        nxt = []
        for c in frontier:
            for g in gens:
                cand = clifford_compose(c, g)
                key = cand.key()
                if key not in seen:
                    seen[key] = cand
                    nxt.append(cand)
        frontier = nxt
    return tuple(seen.values())


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


def _vec_to_pauli(vec: int, m: int, sign_bit: int) -> PauliString:
    mask = (1 << m) - 1
    x, z = vec & mask, vec >> m
    return PauliString(m, x, z, ((x & z).bit_count() + 2 * sign_bit) % 4)


def random_clifford(m: int, rng: np.random.Generator) -> CliffordElement:
    """Uniformly random Clifford tableau on m qubits.

    Row-by-row anticommuting-pair construction: the image of X_j is drawn
    uniformly from the nonzero vectors of the symplectic complement of the
    pairs fixed so far, and the image of Z_j uniformly from the affine set
    with unit symplectic product against it.  Every partial choice extends
    to the same number of group elements, so the draw is uniform without
    rejection.  Signs are independent fair bits.
    """
    if m < 1:
        raise ValueError("m must be positive")
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
    xs = tuple(_vec_to_pauli(v, m, int(sign_bits[j])) for j, (v, w) in enumerate(pairs))
    zs = tuple(_vec_to_pauli(w, m, int(sign_bits[m + j])) for j, (v, w) in enumerate(pairs))
    return CliffordElement(m, xs, zs)


def _subset_products(gens) -> list[tuple[int, int, int]]:
    """(x, z, k) of the product of every subset of pairwise-commuting Paulis.

    ``gens`` are (x, z, k) triples; entry b multiplies the generators whose
    bit is set in b.
    """
    out = [(0, 0, 0)]
    for gx, gz, gk in gens:
        out += [(x ^ gx, z ^ gz, (k + gk + 2 * (z & gx).bit_count()) % 4) for x, z, k in out]
    return out


def clifford_to_matrix(c: CliffordElement, *, max_qubits: int = 7) -> np.ndarray:
    """Dense unitary realizing the tableau, unique up to the fixed phase gauge.

    The first column is the joint +1 eigenvector of the images of all Z_j;
    column b is then prod_j (image of X_j)^{b_j} applied to it.  The global
    phase is fixed by making the first nonzero entry real and positive.
    Both steps use the Pauli action on basis states, O(4^m) in all.
    """
    if c.n > max_qubits:
        raise ValueError("dense Clifford reconstruction capped at m = %d qubits, got m = %d"
                         % (max_qubits, c.n))
    m = c.n
    dim = 1 << m
    rev = _basis_tables(m)[2]

    def index_masks(images):
        return [(rev[g.x], rev[g.z], g.k) for g in images]

    # The stabilizer projector is 2^-m times the sum over the group the Z
    # images generate.  Its first nonzero column is the first basis state t
    # that every diagonal group element fixes with eigenvalue +1; the column
    # is normalized below, so the factor 2^-m is left out.
    group = _subset_products(index_masks(c.z_images))
    diagonal = [(z, k) for x, z, k in group if x == 0]
    t = next((t for t in range(dim)
              if all((k + 2 * (t & z).bit_count()) % 4 == 0 for z, k in diagonal)), None)
    if t is None:
        raise ArithmeticError("stabilizer projector vanished; tableau inconsistent")
    col = np.zeros(dim, dtype=complex)
    for x, z, k in group:
        col[t ^ x] += _PHASES[(k + 2 * (t & z).bit_count()) % 4]
    col /= np.linalg.norm(col)
    # Qubit j is index bit m-1-j, so column b takes the images in reverse order.
    xs, zs, ks = np.array(_subset_products(index_masks(reversed(c.x_images)))).T
    perm, factor = _pauli_action(m, xs, zs, ks)
    u = factor * col[perm]
    flat = u.reshape(-1)
    first = flat[np.argmax(np.abs(flat) > 1e-9)]
    u *= first.conjugate() / abs(first)
    return u


@lru_cache(maxsize=1)
def local_clifford_unitaries() -> tuple[np.ndarray, ...]:
    """The 24 single-qubit Clifford unitaries, in ``enumerate_clifford(1)`` order (read-only)."""
    mats = tuple(clifford_to_matrix(c) for c in enumerate_clifford(1))
    for u in mats:
        u.flags.writeable = False
    return mats


# X^x Z^z on one qubit, phase-free, keyed by (x, z).
_FACTORS_1Q = {(0, 0): ID2, (1, 0): PAULI_1Q["X"], (0, 1): PAULI_1Q["Z"],
               (1, 1): PAULI_1Q["X"] @ PAULI_1Q["Z"]}


def _factor(p: PauliString, j: int) -> np.ndarray:
    return _FACTORS_1Q[((p.x >> j) & 1, (p.z >> j) & 1)]


def _twirl_sum(kind: str, q: PauliString, qp: PauliString,
               rho: np.ndarray) -> np.ndarray:
    """sum_G (G q G^dag) rho (G q' G^dag) over the twirl group ``kind``.

    For ``local_clifford``, G = U_1 x ... x U_m and q = i^k q_1 x ... x q_m,
    so the sum is a tensor product of single-qubit maps, one per qubit; it
    still enumerates every single-qubit Clifford on every qubit.
    """
    m = q.n
    rho = np.asarray(rho, dtype=complex)
    if kind == "pauli":
        if m > 3:
            raise ValueError("pauli twirl enumeration capped at m = 3")
        qm, qpm = q.to_matrix(), qp.to_matrix()
        total = np.zeros_like(rho)
        for p in all_paulis(m):
            pm = p.to_matrix()
            total += (pm @ qm @ pm) @ rho @ (pm @ qpm @ pm)
        return total
    if kind == "clifford":
        if m > 2:
            raise ValueError("full Clifford enumeration capped at m = 2")
        total = np.zeros_like(rho)
        for c in enumerate_clifford(m):
            total += clifford_apply(c, q).to_matrix() @ rho @ clifford_apply(c, qp).to_matrix()
        return total
    if kind == "local_clifford":
        if m > 3:
            raise ValueError("local Clifford enumeration capped at m = 3")
        units = local_clifford_unitaries()
        pairs = []
        for j in range(m):
            a, b = _factor(q, j), _factor(qp, j)
            pairs.append([(u @ a @ u.conj().T, u @ b @ u.conj().T) for u in units])
        return q.phase * qp.phase * local_product_sum(rho, pairs)
    raise ValueError("unknown twirl kind %r" % kind)


def verify_twirl(kind: str, q: PauliString, qp: PauliString,
                 rho: np.ndarray) -> float:
    """Max-norm residual of sum_G (G q G^dag) rho (G q' G^dag) over a twirl group.

    The three supported groups are the full Pauli group (kind ``pauli``),
    the full Clifford group (kind ``clifford``, m <= 2) and tensor products
    of single-qubit Cliffords (kind ``local_clifford``).  For q != q' each
    sum vanishes identically, so the residual is pure numerical noise.
    """
    if q.axes_key() == qp.axes_key():
        raise ValueError("twirl lemma requires distinct Pauli operators")
    if q.n != qp.n:
        raise ValueError("dimension mismatch")
    return float(np.max(np.abs(_twirl_sum(kind, q, qp, rho))))


@dataclass(frozen=True)
class PauliChannel:
    """Pauli decomposition a_{alpha,P} of each Kraus operator of a channel."""

    n: int
    terms: tuple[tuple[tuple[complex, PauliString], ...], ...]

    def completeness(self) -> float:
        return float(sum(abs(a) ** 2 for kraus in self.terms for a, _ in kraus))

    def pauli_weights(self) -> dict[tuple[int, int], float]:
        """Total twirled weight sum_alpha |a_{alpha,P}|^2 per unsigned Pauli."""
        out: dict[tuple[int, int], float] = {}
        for kraus in self.terms:
            for a, p in kraus:
                key = p.axes_key()
                out[key] = out.get(key, 0.0) + abs(a) ** 2
        return out

    def identity_weight(self) -> float:
        return self.pauli_weights().get((0, 0), 0.0)


def channel_pauli_coeffs(kraus: Sequence[np.ndarray]) -> PauliChannel:
    """Expand Kraus operators over the Pauli basis, a_{alpha,P} = Tr(P A)/2^m."""
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
    terms = []
    for a in mats:
        row = []
        for p, pm in zip(paulis, pmats):
            coeff = complex(np.trace(pm @ a)) / dim
            if abs(coeff) > 1e-14:
                row.append((coeff, p))
        terms.append(tuple(row))
    return PauliChannel(m, tuple(terms))

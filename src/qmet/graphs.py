"""Graph-state metrology: QFI from topology, noise robustness, measurement.

A graph state carries phase information written by local generators; its
quantum Fisher information is a pure counting problem over the graph's
neighborhood structure.  This module implements those closed forms (X, Y
and Z local encodings, dephasing, erasure), the bundling construction that
boosts the QFI, a Y/Z-only stabilizer measurement scheme, and a cross-check
oracle on exact derivatives (statevector to n = 20, noisy rho to n = 8).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from . import dense
from .pauli import PauliString, _apply_pauli, pauli_mul

__all__ = [
    "Graph", "NeighborhoodPartition", "ErasurePattern",
    "star", "cycle", "path", "complete",
    "parse_graph", "format_graph",
    "partition", "qfi_x", "qfi_y", "bundle",
    "qfi_dephasing", "qfi_erasure", "mean_qfi_erasure",
    "stabilizer_generators", "expval_pauli",
    "find_yz_stabilizer", "extend_with_ancilla", "measurement_variance",
    "stabilizer_count", "heisenberg_count_bound",
    "graph_state", "oracle_graph_qfi",
]

# A vertex count of 10^6 took 2.5 s and 513 MiB before failing a later check.
_VERTEX_CAP = 10 ** 5
_BUNDLE_EDGE_CAP = 10 ** 6


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..n-1."""

    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("graph needs at least one vertex")
        for u, v in self.edges:
            if u == v:
                raise ValueError("self-loop at vertex %d" % u)
            if not (0 <= u < v < self.n):
                raise ValueError("edge (%d, %d) out of range or unordered" % (u, v))

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        norm = frozenset((min(u, v), max(u, v)) for u, v in edges)
        return cls(n, norm)

    def neighbors(self, v: int) -> frozenset[int]:
        return self.neighbor_sets()[v]

    @lru_cache(maxsize=None)
    def neighbor_sets(self) -> tuple[frozenset[int], ...]:
        sets: list[set[int]] = [set() for _ in range(self.n)]
        for u, v in self.edges:
            sets[u].add(v)
            sets[v].add(u)
        return tuple(frozenset(s) for s in sets)

    def has_isolated_vertex(self) -> bool:
        return any(not s for s in self.neighbor_sets())


def star(n: int) -> Graph:
    """Star with center 0 and n-1 leaves."""
    return Graph.from_edges(n, [(0, j) for j in range(1, n)])


def cycle(n: int) -> Graph:
    return Graph.from_edges(n, [(j, (j + 1) % n) for j in range(n)])


def path(n: int) -> Graph:
    return Graph.from_edges(n, [(j, j + 1) for j in range(n - 1)])


def complete(n: int) -> Graph:
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def parse_graph(text: str) -> Graph:
    """Parse the edge-list format: first line n, then `u v` lines, # comments."""
    n = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if n is None:
            if len(parts) != 1:
                raise ValueError("line %d: expected the vertex count first" % lineno)
            n = int(parts[0])
            if n > _VERTEX_CAP:
                raise ValueError("line %d: at most %d vertices, got %d" % (lineno, _VERTEX_CAP, n))
            continue
        if len(parts) != 2:
            raise ValueError("line %d: expected `u v`" % lineno)
        edges.append((int(parts[0]), int(parts[1])))
    if n is None:
        raise ValueError("empty graph file")
    return Graph.from_edges(n, edges)


def format_graph(g: Graph) -> str:
    lines = [str(g.n)]
    lines += ["%d %d" % e for e in sorted(g.edges)]
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class NeighborhoodPartition:
    """Vertices grouped by shared open neighborhood.

    Each class is a pair (U_l, M_l): the vertices U_l all having the same
    neighborhood M_l.  A vertex never belongs to its own neighborhood, so
    U_l and M_l are disjoint.
    """

    classes: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]


def partition(g: Graph) -> NeighborhoodPartition:
    by_nbhd: dict[frozenset[int], list[int]] = {}
    for v, nb in enumerate(g.neighbor_sets()):
        by_nbhd.setdefault(nb, []).append(v)
    classes = sorted(
        ((tuple(sorted(us)), tuple(sorted(m))) for m, us in by_nbhd.items()),
        key=lambda c: c[0][0],
    )
    return NeighborhoodPartition(tuple(classes))


def _require_no_isolated(g: Graph) -> None:
    if g.has_isolated_vertex():
        raise ValueError("graph has an isolated vertex; closed form does not apply")


def qfi_x(g: Graph) -> int:
    """QFI of the graph state under the local X encoding (H_i = X_i / 2).

    Equals the number of ordered vertex pairs with identical neighborhoods,
    i.e. sum_l u_l^2 over the neighborhood partition.
    """
    _require_no_isolated(g)
    return sum(len(u) ** 2 for u, _ in partition(g).classes)


def qfi_y(g: Graph) -> int:
    """QFI under the local Y encoding: ordered pairs of equal closed neighborhoods."""
    closed: dict[frozenset[int], int] = {}
    for v, nb in enumerate(g.neighbor_sets()):
        key = nb | {v}
        closed[key] = closed.get(key, 0) + 1
    return sum(c ** 2 for c in closed.values())


def bundle(g: Graph, sizes: Sequence[int]) -> Graph:
    """Replace vertex i by ``sizes[i]`` clones; clones inherit all base edges.

    Clones of one vertex are mutually unconnected and share the exact same
    neighborhood, so each bundle contributes at least sizes[i]^2 to qfi_x.
    """
    _require_no_isolated(g)
    if len(sizes) != g.n:
        raise ValueError("need one bundle size per vertex, got %d for n=%d" % (len(sizes), g.n))
    if any(s < 1 for s in sizes):
        raise ValueError("bundle sizes must be positive")
    count = sum(sizes[u] * sizes[v] for u, v in g.edges)
    if count > _BUNDLE_EDGE_CAP:
        raise ValueError("bundled graph needs at most %d edges, got %d"
                         % (_BUNDLE_EDGE_CAP, count))
    offsets = [0]
    for s in sizes:
        offsets.append(offsets[-1] + s)
    edges = []
    for u, v in g.edges:
        for a in range(offsets[u], offsets[u + 1]):
            for b in range(offsets[v], offsets[v + 1]):
                edges.append((a, b))
    return Graph.from_edges(offsets[-1], edges)


def qfi_dephasing(g: Graph, p: float) -> float:
    """Exact QFI under iid Z dephasing of strength p before the X encoding.

    Per neighborhood class the contribution factorizes into a piece from
    the class members, f = u^2 (1-2p)^2 + 4 u p (1-p), and a binomial sum
    over the m shared neighbors:

        gfac = (1/2) sum_j C(m,j) (A_j - B_j)^2 / (A_j + B_j),
        A_j = p^(m-j) (1-p)^j,  B_j = p^j (1-p)^(m-j).
    """
    _require_no_isolated(g)
    if not (0.0 <= p <= 1.0):
        raise ValueError("dephasing probability %r outside [0, 1]" % p)
    total = 0.0
    for us, ms in partition(g).classes:
        u, m = len(us), len(ms)
        f = u * u * (1 - 2 * p) ** 2 + 4 * u * p * (1 - p)
        gfac = 0.0
        for j in range(m + 1):
            a = p ** (m - j) * (1 - p) ** j
            b = p ** j * (1 - p) ** (m - j)
            if a + b > 0:
                gfac += math.comb(m, j) * (a - b) ** 2 / (a + b)
        total += f * 0.5 * gfac
    return total


def light_cone(g: Graph, erased: Iterable[int]) -> ErasurePattern:
    erased_t = tuple(sorted(set(int(v) for v in erased)))
    if any(v < 0 or v >= g.n for v in erased_t):
        raise ValueError("erased vertex out of range")
    cone: set[int] = set()
    for v in erased_t:
        cone.add(v)
        cone |= g.neighbors(v)
    return ErasurePattern(erased_t, tuple(sorted(cone)))


@dataclass(frozen=True)
class ErasurePattern:
    erased: tuple[int, ...]
    light_cone: tuple[int, ...]


def qfi_erasure(g: Graph, erased: Iterable[int]) -> float:
    """QFI after erasing the given qubits (X encoding).

    Erasure acts as complete dephasing of the light cone L = union of the
    erased vertices and their neighborhoods.  A class (U, M) contributes
    u^2 if neither M nor U is inside L, u if only U is swallowed, and 0
    once M lands fully inside L.
    """
    _require_no_isolated(g)
    cone = set(light_cone(g, erased).light_cone)
    total = 0.0
    for us, ms in partition(g).classes:
        m_in = set(ms) <= cone
        u_in = set(us) <= cone
        if m_in:
            continue
        total += len(us) if u_in else len(us) ** 2
    return total


def mean_qfi_erasure(g: Graph, e: int) -> float:
    """Average qfi_erasure over all C(n, e) erasure patterns of size e.

    Each qfi_erasure value is an integer, so the sum is exact in any order.
    """
    if not (0 <= e <= g.n):
        raise ValueError("erasure count %d out of range" % e)
    n_pat = math.comb(g.n, e)
    if n_pat > 10 ** 6:
        raise ValueError("too many erasure patterns: C(%d, %d) = %d" % (g.n, e, n_pat))
    return sum(qfi_erasure(g, pat) for pat in itertools.combinations(range(g.n), e)) / n_pat


def stabilizer_generators(g: Graph) -> list[PauliString]:
    """g_j = X_j prod_{k in N(j)} Z_k, one per vertex."""
    gens = []
    for v, nb in enumerate(g.neighbor_sets()):
        z = 0
        for k in nb:
            z |= 1 << k
        gens.append(PauliString(g.n, 1 << v, z, 0))
    return gens


def _generator_product(g: Graph, mask: int) -> PauliString:
    """The product of the generators g_j over the set bits j of ``mask``, in increasing j."""
    gens = stabilizer_generators(g)
    acc = PauliString.identity(g.n)
    for j in range(g.n):
        if (mask >> j) & 1:
            acc = pauli_mul(acc, gens[j])
    return acc


def expval_pauli(g: Graph, p: PauliString) -> int:
    """<G| P |G> for a signed Pauli string: +1, -1 or 0.

    A stabilizer product matching P must use exactly the generators indexed
    by P's X support (each generator is the only source of X on its vertex),
    so membership reduces to recomputing that product and comparing phases.
    """
    if p.n != g.n:
        raise ValueError("Pauli acts on %d qubits, graph has %d" % (p.n, g.n))
    if not p.is_hermitian():
        raise ValueError("expectation value needs a Hermitian string")
    acc = _generator_product(g, p.x)
    if (acc.x, acc.z) != (p.x, p.z):
        return 0
    return 1 if acc.k == p.k else -1


def _gf2_solve_lexmin(rows: list[int], rhs: list[int]) -> int | None:
    """Lexicographically smallest solution of a GF(2) linear system.

    Rows are bit masks over the variables.  Returns the solution as a bit
    mask (bit i = variable i), or None when inconsistent.  Lex order treats
    variable 0 as the most significant decision, preferring 0.

    One fully reduced elimination: each row pivots on its highest variable,
    and no pivot variable appears in another row.  A pivot then depends only
    on free variables below it, so free variables set to 0, lowest first, give
    the lexicographically smallest solution, each pivot equal to its rhs.
    """
    pivots: dict[int, tuple[int, int]] = {}
    for row, b in zip(rows, rhs):
        for piv, (prow, pb) in pivots.items():
            if row >> piv & 1:
                row, b = row ^ prow, b ^ pb
        if not row:
            if b:
                return None
            continue
        piv = row.bit_length() - 1
        for other, (prow, pb) in pivots.items():
            if prow >> piv & 1:
                pivots[other] = (prow ^ row, pb ^ b)
        pivots[piv] = (row, b)
    return sum(b << piv for piv, (_, b) in pivots.items())


def find_yz_stabilizer(g: Graph) -> PauliString | None:
    """A stabilizer whose every qubit factor is Y or Z, or None if none exists.

    The product of generators with exponent vector c has X mask c and Z mask
    A c (adjacency matrix over GF(2)), so demanding a Y or Z on every qubit
    is the linear system A c = 1.  Ties are broken by the lexicographically
    smallest exponent vector.
    """
    if g.n > 24:
        raise ValueError("Y/Z stabilizer search capped at 24 vertices")
    rows = []
    for v in range(g.n):
        row = 0
        for k in g.neighbors(v):
            row |= 1 << k
        rows.append(row)
    sol = _gf2_solve_lexmin(rows, [1] * g.n)
    if sol is None:
        return None
    return _generator_product(g, sol)


def extend_with_ancilla(g: Graph, partial: PauliString) -> Graph:
    """Attach one ancilla vertex to every qubit lacking a Y or Z factor.

    ``partial`` must be a stabilizer of g (ideally one maximizing the number
    of Y/Z factors).  Qubits where it acts as I or bare X get an edge to the
    new vertex n; the extended graph then admits a Y/Z-only stabilizer.
    """
    if expval_pauli(g, partial) != 1:
        raise ValueError("partial is not a stabilizer of the graph")
    bad = [j for j in range(g.n) if not (partial.z >> j) & 1]
    if not bad:
        raise ValueError("extension not needed: partial already has Y or Z everywhere")
    edges = set(g.edges)
    for j in bad:
        edges.add((j, g.n))
    return Graph.from_edges(g.n + 1, edges)


def measurement_variance(g: Graph, theta: float) -> float:
    """Variance-over-slope-squared of the Y/Z stabilizer measurement.

    Evaluates Var(S_M) / (d<S_M>/dtheta)^2 on the dense encoded state
    exp(-i theta H)|G>, H = sum_j X_j / 2, with the exact slope
    2 Im <S_M psi|H psi>.  At small theta this approaches 1 / qfi_x(G),
    i.e. the measurement saturates the QCRB per shot.
    """
    if g.n > 10:
        raise ValueError("dense evaluation capped at 10 vertices")
    stab = find_yz_stabilizer(g)
    if stab is None:
        raise ValueError("graph has no Y/Z-only stabilizer")
    psi = graph_state(g).reshape([2] * g.n)
    for q in range(g.n):
        psi = np.cos(theta / 2) * psi - 1j * np.sin(theta / 2) * np.flip(psi, axis=q)
    s_psi = _apply_pauli(stab, psi.reshape(-1))
    slope = np.vdot(s_psi, _pauli_sum(psi, "x", g.n)).imag  # 2 Im <S psi|H psi>
    if abs(slope) < 1e-12:
        raise ValueError("degenerate slope at theta=%r" % theta)
    mean = np.vdot(psi, s_psi).real
    return float((1.0 - mean ** 2) / slope ** 2)


def stabilizer_count(m: int) -> int:
    """Number of m-qubit stabilizer states: 2^m prod_{j=0}^{m-1} (2^{m-j} + 1)."""
    if not (0 <= m <= 64):
        raise ValueError("m out of supported range")
    out = 1 << m
    for j in range(m):
        out *= (1 << (m - j)) + 1
    return out


def heisenberg_count_bound(n: int, eps: float) -> int:
    """Lower bound on the number of near-Heisenberg graph states on n qubits.

    Sums C(n-1, k-1) 2^k s_{n-k} over k >= n^(1 - eps/2): families with a
    size-k identical-neighborhood core, times the stabilizer-state count of
    the rest.  Exact integer arithmetic.
    """
    if n < 1 or n > 64:
        raise ValueError("n out of supported range")
    if not (0 < eps <= 2):
        raise ValueError("eps must lie in (0, 2]")
    thr = n ** (1 - eps / 2)
    k_min = int(math.ceil(thr - 1e-9))
    k_min = max(k_min, 1)
    total = 0
    for k in range(k_min, n + 1):
        total += math.comb(n - 1, k - 1) * (1 << k) * stabilizer_count(n - k)
    return total


# Entries of one amplitude lookup: np.take copies its uint8 indices to intp
# (8 bytes an entry), so a whole-vector lookup would hold 8 MiB more at n = 20.
_LOOKUP_CHUNK = 1 << 16


def graph_state(g: Graph) -> np.ndarray:
    """Dense state vector: CZ on every edge applied to |+>^n (qubit 0 leftmost).

    The amplitude of basis state b is 2^(-n/2) (-1)^(number of edges with
    both ends set in b).  That parity is one uint8 vector built by doubling,
    from the last qubit to qubit 0: once the qubits after q are its h index
    bits, qubit q becomes the next high bit, and ``parity[h:2h]`` is
    ``parity[:h]`` xor the parity of q's later neighbours set in the lower
    bits.  That neighbour parity is doubled the same way, one later qubit at
    a time, in one reused half-size buffer.  The amplitudes are then looked
    up from the parity, +-2^(-n/2), in chunks of ``_LOOKUP_CHUNK`` entries.
    """
    n = g.n
    nbrs = g.neighbor_sets()
    parity = np.zeros(1 << n, dtype=np.uint8)
    later = np.zeros(1 << (n - 1), dtype=np.uint8)
    for k in range(1, n):
        q = n - 1 - k
        for j in range(k):
            s = 1 << j
            if n - 1 - j in nbrs[q]:
                np.bitwise_xor(later[:s], 1, out=later[s:2 * s])
            else:
                later[s:2 * s] = later[:s]
        h = 1 << k
        np.bitwise_xor(parity[:h], later[:h], out=parity[h:2 * h])
    del later
    amp = 2 ** (-n / 2)
    signs = np.array([amp, -amp], dtype=complex)
    psi = np.empty(1 << n, dtype=complex)
    for s in range(0, psi.size, _LOOKUP_CHUNK):
        np.take(signs, parity[s:s + _LOOKUP_CHUNK], out=psi[s:s + _LOOKUP_CHUNK], mode="clip")
    return psi


def _dephase_qubit(rho: np.ndarray, qubit: int, p: float, n: int) -> np.ndarray:
    idx = np.arange(rho.shape[0])
    sign = np.where((idx >> (n - 1 - qubit)) & 1, -1.0, 1.0)
    flip = np.outer(sign, sign)
    return (1 - p) * rho + p * flip * rho


def _pauli_sum(t: np.ndarray, enc: str, n: int) -> np.ndarray:
    """sum_j sigma_j (sigma = X, Y or Z) along the first n axes of a [2]*k tensor.

    X_j swaps the two halves of axis j, Z_j negates its second half, and
    Y_j = i X_j Z_j.  Each term is added into the halves of the output in
    place, qubit by qubit, through a (2^j, 2, rest) view.
    """
    t = np.ascontiguousarray(t)
    out = np.zeros_like(t)
    for q in range(n):
        lo, hi = np.moveaxis(t.reshape(1 << q, 2, -1), 1, 0)
        out_lo, out_hi = np.moveaxis(out.reshape(1 << q, 2, -1), 1, 0)
        if enc == "x":
            np.add(out_lo, hi, out=out_lo)
            np.add(out_hi, lo, out=out_hi)
        elif enc == "z":
            np.add(out_lo, lo, out=out_lo)
            np.subtract(out_hi, hi, out=out_hi)
        else:  # (Y t)_0 = -i t_1, (Y t)_1 = i t_0
            np.add(out_lo.real, hi.imag, out=out_lo.real)
            np.subtract(out_lo.imag, hi.real, out=out_lo.imag)
            np.subtract(out_hi.real, lo.imag, out=out_hi.real)
            np.add(out_hi.imag, lo.real, out=out_hi.imag)
    return out


def oracle_graph_qfi(g: Graph, encoding: str = "x",
                     noise: tuple | None = None) -> float:
    """Dense ground-truth QFI for any graph, encoding and supported noise.

    noise is None, ("dephasing", p) or ("erasure", vertex-iterable).
    Erasure is evaluated as complete dephasing of the light cone, which
    leaves the same spectrum as physically discarding those qubits.  With
    H = sum_j sigma_j / 2 the derivative is exact: a pure state (n <= 20)
    gives 4 Var(H), a noisy one (n <= 8) the SLD QFI with drho = -i[H, rho].
    The 1e-12 support cut of dense.sld_qfi cannot bite: a dropped eigenpair
    adds 2 (lambda_j - lambda_k)^2 |H_jk|^2 / (lambda_j + lambda_k) <= 2e-12 ||H||^2.
    """
    cap = 20 if noise is None else 8
    if g.n > cap:
        raise ValueError("dense oracle capped at %d vertices" % cap)
    enc = encoding.lower()
    if enc not in ("x", "y", "z"):
        raise ValueError("unknown encoding %r" % encoding)
    psi = graph_state(g)
    if noise is None:
        sig = _pauli_sum(psi.reshape([2] * g.n), enc, g.n)
        return float(np.vdot(sig, sig).real - np.vdot(psi, sig).real ** 2)
    if noise[0] == "dephasing":
        p, qubits = float(noise[1]), range(g.n)
        if not (0.0 <= p <= 1.0):
            raise ValueError("dephasing probability outside [0, 1]")
    elif noise[0] == "erasure":
        p, qubits = 0.5, light_cone(g, noise[1]).light_cone
    else:
        raise ValueError("unknown noise kind %r" % (noise[0],))
    rho = dense.pure(psi)
    for q in qubits:
        rho = _dephase_qubit(rho, q, p, g.n)
    h_rho = 0.5 * _pauli_sum(rho.reshape([2] * (2 * g.n)), enc, g.n).reshape(rho.shape)
    return dense.sld_qfi(rho, -1j * (h_rho - h_rho.conj().T))

"""Authenticated-channel and delegated-measurement protocols for estimation.

Implements the trap-code and Clifford-code encryption schemes for sending a
probe state across an untrusted channel (single and double use) and for
delegating Pauli-basis measurements, together with their figures of merit:

* soundness: key-averaged p_accept * (1 - fidelity to the ideal output),
  evaluated exactly by Pauli casework after the twirling reduction, or by
  sampling random keys, and always compared against the closed-form bounds
  3(m-t)/(2t), 9(m-t)/(4t) and 2^{-t};
* privacy: max-norm distance of the key-averaged encrypted state from the
  maximally mixed state;
* integrity: bias and mean-squared-error penalties that a soundness/
  significance pair (delta, alpha) induces on a phase estimate, plus the
  flag-count formulas that keep the estimation problem functional.

Attacks are CPTP maps given either as structured `AttackSpec` values or in a
small text language (``id``, ``pauli:-XIZ``, ``mix:0.9*II,0.1*ZI``,
``depol:0.3``, ``double:<spec>;<spec>``).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .dense import kron_all, local_product_sum
from .pauli import (
    CliffordElement,
    PauliString,
    all_paulis,
    channel_pauli_coeffs,
    clifford_apply,
    clifford_to_matrix,
    enumerate_clifford,
    local_clifford_unitaries,
    paulis_on_support,
    random_clifford,
)

_DENSE_QUBIT_CAP = 7
_DEPOL_KRAUS_CAP = 5


# --------------------------------------------------------------------------
# attack specifications


@dataclass(frozen=True)
class AttackSpec:
    """A CPTP attack on the encrypted register.

    ``variant`` selects the interpretation: ``identity``, ``fixed_pauli``,
    ``pauli_mixture``, ``depolarizing``, ``kraus`` or ``double`` (a pair of
    attacks for the two uses of the channel).  Specs are symbolic where
    possible; Kraus matrices are materialized per qubit count on demand.
    """

    variant: str
    pauli: PauliString | None = None
    mixture: tuple[tuple[float, PauliString], ...] = ()
    strength: float = 0.0
    kraus_mats: tuple[np.ndarray, ...] = ()
    pair: tuple["AttackSpec", "AttackSpec"] | None = None

    def __post_init__(self) -> None:
        if self.variant == "pauli_mixture":
            total = sum(p for p, _ in self.mixture)
            if abs(total - 1.0) > 1e-12:
                raise ValueError("mixture probabilities sum to %r, not 1" % total)
            if any(p < -1e-12 for p, _ in self.mixture):
                raise ValueError("negative probability in Pauli mixture")
        elif self.variant == "depolarizing":
            if not 0.0 <= self.strength <= 1.0:
                raise ValueError("depolarizing strength %r outside [0, 1]" % self.strength)
        elif self.variant == "kraus":
            dim = self.kraus_mats[0].shape[0]
            total = sum(a.conj().T @ a for a in self.kraus_mats)
            if np.max(np.abs(total - np.eye(dim))) > 1e-9:
                raise ValueError("Kraus operators are not complete")
        elif self.variant == "double":
            if self.pair is None or any(g.variant == "double" for g in self.pair):
                raise ValueError("double attack needs exactly two single-use specs")
        elif self.variant not in ("identity", "fixed_pauli"):
            raise ValueError("unknown attack variant %r" % self.variant)

    @classmethod
    def identity(cls) -> "AttackSpec":
        return cls("identity")

    @classmethod
    def fixed_pauli(cls, p: PauliString | str) -> "AttackSpec":
        if isinstance(p, str):
            p = PauliString.from_label(p)
        return cls("fixed_pauli", pauli=p)

    @classmethod
    def pauli_mixture(cls, terms) -> "AttackSpec":
        packed = tuple((float(p), q if isinstance(q, PauliString)
                        else PauliString.from_label(q)) for p, q in terms)
        return cls("pauli_mixture", mixture=packed)

    @classmethod
    def depolarizing(cls, strength: float) -> "AttackSpec":
        return cls("depolarizing", strength=float(strength))

    @classmethod
    def from_kraus(cls, mats) -> "AttackSpec":
        return cls("kraus", kraus_mats=tuple(np.asarray(a, dtype=complex) for a in mats))

    @classmethod
    def double(cls, first: "AttackSpec", second: "AttackSpec") -> "AttackSpec":
        return cls("double", pair=(first, second))

    def _check_width(self, m: int) -> None:
        if self.variant == "fixed_pauli" and self.pauli.n != m:
            raise ValueError("attack Pauli acts on %d qubits, register has %d"
                             % (self.pauli.n, m))
        if self.variant == "pauli_mixture" and any(q.n != m for _, q in self.mixture):
            raise ValueError("mixture Pauli width mismatch")
        if self.variant == "kraus" and self.kraus_mats[0].shape[0] != 1 << m:
            raise ValueError("Kraus dimension mismatch")

    def kraus_ops(self, m: int) -> list[np.ndarray]:
        """Materialize Kraus operators on m qubits."""
        self._check_width(m)
        if self.variant == "identity":
            return [np.eye(1 << m, dtype=complex)]
        if self.variant == "fixed_pauli":
            return [self.pauli.to_matrix()]
        if self.variant == "pauli_mixture":
            return [math.sqrt(max(p, 0.0)) * q.to_matrix() for p, q in self.mixture if p > 0]
        if self.variant == "depolarizing":
            # One 2^m x 2^m matrix per Pauli: 16^m entries in all (4.3 GB at m = 7).
            if m > _DEPOL_KRAUS_CAP:
                raise ValueError("depolarizing Kraus form capped at m = %d qubits "
                                 "(it lists all 4^m Pauli operators), got m = %d"
                                 % (_DEPOL_KRAUS_CAP, m))
            dim4 = 4 ** m
            c_id = 1.0 - self.strength + self.strength / dim4
            ops = []
            for p in all_paulis(m):
                c = c_id if p.is_identity_axis() else self.strength / dim4
                if c > 0:
                    ops.append(math.sqrt(c) * p.to_matrix())
            return ops
        if self.variant == "kraus":
            return [a.copy() for a in self.kraus_mats]
        raise ValueError("double attacks have no single Kraus form")

    def pauli_terms(self, m: int) -> list[tuple[float, PauliString]]:
        """The attack as a Pauli mixture, when it is one."""
        self._check_width(m)
        if self.variant == "identity":
            return [(1.0, PauliString.identity(m))]
        if self.variant == "fixed_pauli":
            return [(1.0, self.pauli)]
        if self.variant == "pauli_mixture":
            return [(p, q) for p, q in self.mixture if p > 0]
        if self.variant == "depolarizing":
            dim4 = 4 ** m
            out = [(1.0 - self.strength + self.strength / dim4, PauliString.identity(m))]
            out += [(self.strength / dim4, p) for p in all_paulis(m, include_identity=False)]
            return out
        raise ValueError("attack %r is not a Pauli mixture" % self.variant)

    def support_weights(self, m: int) -> dict[int, float]:
        """Twirled Pauli weight per support mask: T[S] = sum |a_{alpha,P}|^2.

        Cross-Pauli Kraus terms do not appear: the encryption twirl removes
        them exactly, so the diagonal weights determine the soundness.
        """
        self._check_width(m)
        if self.variant == "kraus":
            weights = channel_pauli_coeffs(self.kraus_mats).pauli_weights()
            out: dict[int, float] = {}
            for (x, z), w in weights.items():
                out[x | z] = out.get(x | z, 0.0) + w
            return out
        if self.variant == "depolarizing":
            dim4 = 4 ** m
            out = {0: 1.0 - self.strength + self.strength / dim4}
            for support in range(1, 1 << m):
                d = support.bit_count()
                out[support] = out.get(support, 0.0) + (3 ** d) * self.strength / dim4
            return out
        out = {}
        for p, q in self.pauli_terms(m):
            out[q.support] = out.get(q.support, 0.0) + p
        return out

    def identity_weight(self, m: int) -> float:
        return self.support_weights(m).get(0, 0.0)


def parse_attack(text: str) -> AttackSpec:
    """Parse the attack mini-language.

    ``id`` | ``pauli:-XIZ`` | ``mix:0.9*III,0.1*ZII`` | ``depol:0.3`` |
    ``double:<spec>;<spec>``
    """
    s = text.strip()
    if s == "id":
        return AttackSpec.identity()
    if s.startswith("double:"):
        body = s[len("double:"):]
        parts = body.split(";")
        if len(parts) != 2:
            raise ValueError("double attack needs exactly two `;`-separated specs")
        return AttackSpec.double(parse_attack(parts[0]), parse_attack(parts[1]))
    if s.startswith("pauli:"):
        return AttackSpec.fixed_pauli(s[len("pauli:"):])
    if s.startswith("depol:"):
        return AttackSpec.depolarizing(float(s[len("depol:"):]))
    if s.startswith("mix:"):
        terms = []
        for chunk in s[len("mix:"):].split(","):
            prob, _, label = chunk.partition("*")
            if not label:
                raise ValueError("mixture term %r needs the form PROB*PAULI" % chunk)
            terms.append((float(prob), label.strip()))
        return AttackSpec.pauli_mixture(terms)
    raise ValueError("cannot parse attack spec %r" % text)


# --------------------------------------------------------------------------
# keys and register plumbing


@dataclass(frozen=True)
class TrapKey:
    """Flag placement plus one single-qubit Clifford per register slot."""

    flag_positions: tuple[int, ...]
    local_cliffords: tuple[CliffordElement, ...]

    def __post_init__(self) -> None:
        m = len(self.local_cliffords)
        flags = self.flag_positions
        if len(set(flags)) != len(flags):
            raise ValueError("flag positions repeat")
        if any(not 0 <= f < m for f in flags):
            raise ValueError("flag position outside the register")
        if any(c.n != 1 for c in self.local_cliffords):
            raise ValueError("trap key needs single-qubit Cliffords")

    @property
    def m(self) -> int:
        return len(self.local_cliffords)

    @property
    def t(self) -> int:
        return len(self.flag_positions)


@dataclass(frozen=True)
class CliffordKey:
    """A single m-qubit Clifford encryption."""

    clifford: CliffordElement

    def __post_init__(self) -> None:
        if not self.clifford.is_symplectic():
            raise ValueError("key tableau violates the symplectic condition")


def random_trap_key(n: int, t: int, rng: np.random.Generator) -> TrapKey:
    m = n + t
    flags = tuple(sorted(int(v) for v in rng.choice(m, size=t, replace=False)))
    singles = tuple(random_clifford(1, rng) for _ in range(m))
    return TrapKey(flags, singles)


def _physical_axes(flag_positions, m: int) -> list[int]:
    """axes[q] = logical axis carried by physical slot q (data first, flags last)."""
    flags = set(flag_positions)
    n = m - len(flags)
    axes = []
    data_seen = flag_seen = 0
    for q in range(m):
        if q in flags:
            axes.append(n + flag_seen)
            flag_seen += 1
        else:
            axes.append(data_seen)
            data_seen += 1
    return axes


def _embed_with_flags(data_vec: np.ndarray, flag_positions, m: int) -> np.ndarray:
    """|psi> on the data slots, |0> flags at the given physical positions."""
    t = len(flag_positions)
    flag_part = np.zeros(1 << t, dtype=complex) if t else np.ones(1, dtype=complex)
    if t:
        flag_part[0] = 1.0
    logical = np.kron(np.asarray(data_vec, dtype=complex), flag_part)
    axes = _physical_axes(flag_positions, m)
    return logical.reshape([2] * m).transpose(axes).reshape(-1)


def _to_logical(rho_phys: np.ndarray, flag_positions, m: int) -> np.ndarray:
    """Permute a density matrix back to data-first, flags-last ordering."""
    axes = _physical_axes(flag_positions, m)
    inverse = list(np.argsort(axes))
    both = inverse + [a + m for a in inverse]
    return rho_phys.reshape([2] * (2 * m)).transpose(both).reshape(1 << m, 1 << m)


def _apply_channel(rho: np.ndarray, kraus: list[np.ndarray]) -> np.ndarray:
    out = np.zeros_like(rho)
    for k in kraus:
        out += k @ rho @ k.conj().T
    return out


def trap_round_single(data_state: np.ndarray, t: int, key: TrapKey,
                      attack: AttackSpec) -> tuple[float, np.ndarray]:
    """One trap-code transmission: encrypt, attack, decrypt, project flags.

    Returns the exact acceptance probability and the normalized post-accept
    data state.
    """
    psi = np.asarray(data_state, dtype=complex).reshape(-1)
    n = psi.size.bit_length() - 1
    m = n + t
    if m > _DENSE_QUBIT_CAP:
        raise ValueError("dense evaluation capped at %d qubits" % _DENSE_QUBIT_CAP)
    if key.m != m or key.t != t:
        raise ValueError("key is for m=%d, t=%d" % (key.m, key.t))
    vec = _embed_with_flags(psi, key.flag_positions, m)
    u_enc = kron_all([clifford_to_matrix(c) for c in key.local_cliffords])
    enc = u_enc @ vec
    rho = _apply_channel(np.outer(enc, enc.conj()), attack.kraus_ops(m))
    rho = u_enc.conj().T @ rho @ u_enc
    rho_l = _to_logical(rho, key.flag_positions, m)
    block = rho_l.reshape(1 << n, 1 << t, 1 << n, 1 << t)[:, 0, :, 0]
    p_acc = float(np.real(np.trace(block)))
    if p_acc < 1e-14:
        return p_acc, np.zeros_like(block)
    return p_acc, block / p_acc


# --------------------------------------------------------------------------
# soundness reports


@dataclass(frozen=True)
class SoundnessReport:
    """Key-averaged p_accept*(1 - fidelity) against its closed-form bound."""

    lhs: float
    bound: float
    accept_rate: float
    mode: str
    trials: int = 0
    seed: int | None = None
    stderr: float = 0.0

    def __post_init__(self) -> None:
        if self.lhs < -1e-9:
            raise ValueError("soundness lhs is negative: %r" % self.lhs)
        if not -1e-9 <= self.accept_rate <= 1.0 + 1e-9:
            raise ValueError("acceptance rate %r outside [0, 1]" % self.accept_rate)
        if self.mode == "exact" and self.lhs > self.bound + 1e-9:
            raise ArithmeticError("exact soundness %r exceeds the bound %r"
                                  % (self.lhs, self.bound))

    def trace_distance_budget(self) -> float:
        """Per-round average trace distance implied by the lhs.

        The lhs is an expected-fidelity quantity; strong convexity of the
        trace distance turns it into the budget sqrt(lhs / accept_rate) for
        the accepted ensemble, which is the form the integrity bounds use.
        """
        if self.accept_rate <= 0.0:
            return 0.0
        return math.sqrt(max(self.lhs, 0.0) / self.accept_rate)

    def as_dict(self) -> dict:
        out = {
            "lhs": self.lhs,
            "bound": self.bound,
            "accept_rate": self.accept_rate,
            "trace_distance_budget": self.trace_distance_budget(),
            "mode": self.mode,
        }
        if self.mode == "sampled":
            out["trials"] = self.trials
            out["seed"] = self.seed
            out["stderr"] = self.stderr
        return out


def _ghz_theta(n: int, theta: float) -> np.ndarray:
    """GHZ probe with an encoded relative phase exp(i n theta)."""
    vec = np.zeros(1 << n, dtype=complex)
    vec[0] = 1.0 / math.sqrt(2.0)
    vec[-1] = np.exp(1j * n * theta) / math.sqrt(2.0)
    return vec


def _default_data(n: int) -> np.ndarray:
    return _ghz_theta(n, 0.0)


class _VariantTable:
    """Averages of 1 - |<psi| V |psi>|^2 over Pauli variants on index subsets.

    V runs over {X, Y, Z}^S for a subset S of data qubits; the table caches
    the mean per subset, which is all the twirled soundness casework needs.
    Amplitudes reduce to dot products of cached vectors: each pre-Pauli is
    applied to psi once (with the encoding), each post-Pauli to the ideal
    state once.
    """

    def __init__(self, psi: np.ndarray, u_encode: np.ndarray | None = None):
        self.psi = np.asarray(psi, dtype=complex).reshape(-1)
        self.n = self.psi.size.bit_length() - 1
        self.u_encode = u_encode
        self.ideal = self.psi if u_encode is None else u_encode @ self.psi
        self._pre: dict[tuple[int, int], np.ndarray] = {}
        self._post: dict[tuple[int, int], np.ndarray] = {}
        self._single: dict[frozenset, float] = {}
        self._double: dict[tuple[frozenset, frozenset], float] = {}

    def _pre_vec(self, v: PauliString) -> np.ndarray:
        key = v.axes_key()
        if key not in self._pre:
            vec = v.to_matrix() @ self.psi
            if self.u_encode is not None:
                vec = self.u_encode @ vec
            self._pre[key] = vec
        return self._pre[key]

    def _post_vec(self, v: PauliString) -> np.ndarray:
        key = v.axes_key()
        if key not in self._post:
            self._post[key] = v.to_matrix() @ self.ideal
        return self._post[key]

    @staticmethod
    def _mask(subset: frozenset) -> int:
        return sum(1 << j for j in subset)

    def single(self, subset: frozenset) -> float:
        if subset not in self._single:
            if not subset:
                self._single[subset] = 0.0
            else:
                vals = [1.0 - abs(np.vdot(self.psi, v.to_matrix() @ self.psi)) ** 2
                        for v in paulis_on_support(self.n, self._mask(subset))]
                self._single[subset] = float(np.mean(vals))
        return self._single[subset]

    def double(self, pre_set: frozenset, post_set: frozenset) -> float:
        key = (pre_set, post_set)
        if key not in self._double:
            ident = PauliString.identity(self.n)
            pres = ([ident] if not pre_set else
                    list(paulis_on_support(self.n, self._mask(pre_set))))
            posts = ([ident] if not post_set else
                     list(paulis_on_support(self.n, self._mask(post_set))))
            vals = [1.0 - abs(np.vdot(self._post_vec(vq), self._pre_vec(vp))) ** 2
                    for vp in pres for vq in posts]
            self._double[key] = float(np.mean(vals))
        return self._double[key]


_TABLE_CACHE: dict[tuple, _VariantTable] = {}


def _get_table(psi: np.ndarray, u_encode: np.ndarray | None = None) -> _VariantTable:
    key = (psi.tobytes(), None if u_encode is None else u_encode.tobytes())
    if key not in _TABLE_CACHE:
        if len(_TABLE_CACHE) > 64:
            _TABLE_CACHE.clear()
        _TABLE_CACHE[key] = _VariantTable(psi, u_encode)
    return _TABLE_CACHE[key]


def _data_subset(support: int, flag_set: set, m: int) -> frozenset:
    """Map the non-flag slots of a support mask to data-qubit indices."""
    data_slots = [q for q in range(m) if q not in flag_set]
    rank = {q: i for i, q in enumerate(data_slots)}
    return frozenset(rank[q] for q in range(m) if (support >> q) & 1 and q not in flag_set)


def trap_bound(n: int, t: int) -> float:
    return 1.5 * n / t


def trap_double_bound(n: int, t: int) -> float:
    return 2.25 * n / t


def clifford_bound(t: int) -> float:
    return 2.0 ** (-t)


def _trap_casework(n: int, t: int, attack: AttackSpec,
                   table: _VariantTable) -> tuple[float, float]:
    """Exact (lhs, accept_rate) for single-use trap-style protocols.

    After the local-Clifford twirl each Pauli of weight w contributes
    w * 3^{-s} per flag placement, with s support slots on flags (forced to
    Z) and the remaining support slots averaged over {X, Y, Z} on the data.
    """
    m = n + t
    weights = attack.support_weights(m)
    lhs = accept = 0.0
    placements = list(itertools.combinations(range(m), t))
    for flags in placements:
        flag_set = set(flags)
        flag_mask = sum(1 << f for f in flags)
        for support, w in weights.items():
            s = (support & flag_mask).bit_count()
            factor = w * 3.0 ** (-s)
            accept += factor
            lhs += factor * table.single(_data_subset(support, flag_set, m))
    k = float(len(placements))
    return lhs / k, accept / k


def _trap_double_casework(n: int, t: int, first: AttackSpec, second: AttackSpec,
                          table: _VariantTable) -> tuple[float, float]:
    """Exact (lhs, accept_rate) for the double-use trap code.

    Support slots on flags accept 1/3 of variants when only one attack
    touches them and 5/9 when both do (products ZZ, XX, YY, XY, YX fix |0>).
    """
    m = n + t
    w1 = first.support_weights(m)
    w2 = second.support_weights(m)
    lhs = accept = 0.0
    placements = list(itertools.combinations(range(m), t))
    for flags in placements:
        flag_set = set(flags)
        flag_mask = sum(1 << f for f in flags)
        for sup_p, wp in w1.items():
            p_flags = sup_p & flag_mask
            pre = _data_subset(sup_p, flag_set, m)
            for sup_q, wq in w2.items():
                q_flags = sup_q & flag_mask
                both = (p_flags & q_flags).bit_count()
                lone = (p_flags ^ q_flags).bit_count()
                factor = wp * wq * (5.0 / 9.0) ** both * 3.0 ** (-lone)
                accept += factor
                lhs += factor * table.double(pre, _data_subset(sup_q, flag_set, m))
    k = float(len(placements))
    return lhs / k, accept / k


def soundness_trap_single(n: int, t: int, attack: AttackSpec, mode: str = "exact",
                          *, data_state: np.ndarray | None = None,
                          trials: int = 2000, seed: int = 0) -> SoundnessReport:
    """Soundness of the single-use trap code against one attack."""
    m = n + t
    psi = _default_data(n) if data_state is None else np.asarray(data_state, complex)
    if mode == "exact":
        if m > 4 and attack.variant == "kraus":
            raise ValueError("exact Kraus decomposition capped at m = 4")
        table = _get_table(psi)
        lhs, accept = _trap_casework(n, t, attack, table)
        return SoundnessReport(lhs, trap_bound(n, t), accept, "exact")
    if mode == "sampled":
        if m > 10:
            raise ValueError("sampled soundness capped at m = 10")
        lhs, accept, err = _sample_trap_single(n, t, attack, psi, trials, seed)
        return SoundnessReport(lhs, trap_bound(n, t), accept, "sampled",
                               trials=trials, seed=seed, stderr=err)
    raise ValueError("unknown mode %r" % mode)


_AXES_1Q = {
    "X": PauliString.from_label("X"),
    "Y": PauliString.from_label("Y"),
    "Z": PauliString.from_label("Z"),
}


def _decrypted_axis(c: CliffordElement, axes: tuple[int, int]) -> tuple[int, int]:
    """Axes of C^dag Q C found by inverting the 1-qubit tableau action."""
    for cand in _AXES_1Q.values():
        if clifford_apply(c, cand).axes_key() == axes:
            return cand.axes_key()
    raise ArithmeticError("tableau does not permute the Pauli axes")


def _trap_key_value(psi: np.ndarray, n: int, key: TrapKey,
                    terms: list[tuple[float, PauliString]]) -> tuple[float, float]:
    """Exact per-key (p_accept, lhs) for a Pauli-mixture attack.

    Works on the tableau: a flag survives a component exactly when the
    decrypted operator there is I or Z, and the signs of the decrypted data
    operator drop out of |<psi|V|psi>|^2, so only axes matter.
    """
    m = key.m
    flag_set = set(key.flag_positions)
    data_rank = {}
    for q in range(m):
        if q not in flag_set:
            data_rank[q] = len(data_rank)
    p_acc = overlap = 0.0
    for prob, q_pauli in terms:
        if prob <= 0.0:
            continue
        x = z = 0
        alive = True
        for q in range(m):
            xb = (q_pauli.x >> q) & 1
            zb = (q_pauli.z >> q) & 1
            if not (xb or zb):
                continue
            dx, dz = _decrypted_axis(key.local_cliffords[q], (xb, zb))
            if q in flag_set:
                if dx:
                    alive = False
                    break
            else:
                x |= dx << data_rank[q]
                z |= dz << data_rank[q]
        if not alive:
            continue
        p_acc += prob
        if x == 0 and z == 0:
            overlap += prob
        else:
            v = PauliString(n, x, z, (x & z).bit_count())
            overlap += prob * abs(np.vdot(psi, v.to_matrix() @ psi)) ** 2
    return p_acc, p_acc - overlap


def _sample_trap_single(n, t, attack, psi, trials, seed):
    m = n + t
    try:
        terms = attack.pauli_terms(m)
    except ValueError:
        terms = None
    if terms is None and m > _DENSE_QUBIT_CAP:
        raise ValueError("sampled Kraus attacks capped at %d qubits" % _DENSE_QUBIT_CAP)
    rho_id = np.outer(psi, psi.conj())
    master = np.random.SeedSequence(seed)
    vals = np.empty(trials)
    accs = np.empty(trials)
    for i, child in enumerate(master.spawn(trials)):
        rng = np.random.default_rng(child)
        key = random_trap_key(n, t, rng)
        if terms is not None:
            accs[i], vals[i] = _trap_key_value(psi, n, key, terms)
        else:
            p_acc, cond = trap_round_single(psi, t, key, attack)
            accs[i] = p_acc
            vals[i] = p_acc * (1.0 - float(np.real(np.trace(rho_id @ cond))))
    err = float(np.std(vals, ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return float(np.mean(vals)), float(np.mean(accs)), err


def soundness_clifford_single(n: int, t: int, attack: AttackSpec,
                              mode: str = "exact", *, trials: int = 2000,
                              seed: int = 0,
                              data_state: np.ndarray | None = None) -> SoundnessReport:
    """Soundness of the single-use Clifford code.

    Exact mode uses the closed form 2^m (2^{m-t}-1) (1-a) / (4^m-1), where a
    is the attack's identity weight; sampling draws uniform m-qubit Cliffords.
    """
    m = n + t
    if mode == "exact":
        a = attack.identity_weight(m)
        lhs = (1 << m) * ((1 << (m - t)) - 1) * (1.0 - a) / (4 ** m - 1)
        accept = a + (1.0 - a) * (2 ** (m + n) - 1) / (4 ** m - 1)
        return SoundnessReport(lhs, clifford_bound(t), accept, "exact")
    if mode == "sampled":
        psi = _default_data(n) if data_state is None else np.asarray(data_state, complex)
        lhs, accept, err = _sample_clifford_single(n, t, attack, psi, trials, seed)
        return SoundnessReport(lhs, clifford_bound(t), accept, "sampled",
                               trials=trials, seed=seed, stderr=err)
    raise ValueError("unknown mode %r" % mode)


def _clifford_round(psi, t, u_enc, kraus):
    n = psi.size.bit_length() - 1
    m = n + t
    flag_part = np.zeros(1 << t, dtype=complex)
    flag_part[0] = 1.0
    vec = np.kron(psi, flag_part)
    enc = u_enc @ vec
    rho = _apply_channel(np.outer(enc, enc.conj()), kraus)
    rho = u_enc.conj().T @ rho @ u_enc
    block = rho.reshape(1 << n, 1 << t, 1 << n, 1 << t)[:, 0, :, 0]
    p_acc = float(np.real(np.trace(block)))
    overlap = float(np.real(np.vdot(psi, block @ psi)))
    return p_acc, p_acc - overlap


def _sample_clifford_single(n, t, attack, psi, trials, seed):
    m = n + t
    if m > _DENSE_QUBIT_CAP:
        raise ValueError("sampled Clifford code capped at m = %d qubits, got m = %d"
                         % (_DENSE_QUBIT_CAP, m))
    kraus = attack.kraus_ops(m)
    master = np.random.SeedSequence(seed)
    vals = np.empty(trials)
    accs = np.empty(trials)
    for i, child in enumerate(master.spawn(trials)):
        rng = np.random.default_rng(child)
        u_enc = clifford_to_matrix(random_clifford(m, rng))
        accs[i], vals[i] = _clifford_round(psi, t, u_enc, kraus)
    err = float(np.std(vals, ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return float(np.mean(vals)), float(np.mean(accs)), err


def soundness_double(protocol: str, n: int, t: int, attack: AttackSpec,
                     *, encode: np.ndarray | None = None,
                     data_state: np.ndarray | None = None, mode: str = "exact",
                     trials: int = 2000, seed: int = 0) -> SoundnessReport:
    """Soundness for the double use of the channel.

    ``attack`` must be a ``double`` spec; ``encode`` is the unitary applied
    to the data qubits between the two transmissions (identity if omitted).
    The flag placement is shared between the uses, the Clifford layers are
    drawn independently.
    """
    if attack.variant != "double":
        raise ValueError("double-use soundness needs a double attack spec")
    first, second = attack.pair
    m = n + t
    psi = _default_data(n) if data_state is None else np.asarray(data_state, complex)
    if mode == "sampled":
        lhs, accept, err = _sample_double(protocol, n, t, first, second,
                                          psi, encode, trials, seed)
        bound = trap_double_bound(n, t) if protocol == "trap" else clifford_bound(t)
        return SoundnessReport(lhs, bound, accept, "sampled",
                               trials=trials, seed=seed, stderr=err)
    if mode != "exact":
        raise ValueError("unknown mode %r" % mode)
    if protocol == "trap":
        if m > 4 and (first.variant == "kraus" or second.variant == "kraus"):
            raise ValueError("exact Kraus decomposition capped at m = 4")
        table = _get_table(psi, encode)
        lhs, accept = _trap_double_casework(n, t, first, second, table)
        return SoundnessReport(lhs, trap_double_bound(n, t), accept, "exact")
    if protocol == "clifford":
        a = first.identity_weight(m)
        b = second.identity_weight(m)
        dim4 = 4 ** m
        c1 = a - (1.0 - a) / (dim4 - 1)
        c2 = b - (1.0 - b) / (dim4 - 1)
        # The fully-scrambled component of the first twirl survives the
        # second twirl, so (1-a)(1-b) feeds the identity term as well.
        coeff = c1 * (1.0 - b) + (1.0 - a)
        lhs = coeff * (1 << m) * ((1 << (m - t)) - 1) / (dim4 - 1)
        accept = c1 * c2 + coeff * 2 ** (m + n) / (dim4 - 1)
        return SoundnessReport(lhs, clifford_bound(t), accept, "exact")
    raise ValueError("unknown protocol %r" % protocol)


def _double_round(psi, n, t, u1, u2, kraus1, kraus2, flags, u_full_l):
    """One double-use round for explicit keys in the physical frame."""
    m = n + t
    axes = _physical_axes(flags, m)
    both = axes + [a + m for a in axes]
    inv = list(np.argsort(axes))
    inv_both = inv + [a + m for a in inv]
    vec = _embed_with_flags(psi, flags, m)
    rho = _apply_channel(u1 @ np.outer(vec, vec.conj()) @ u1.conj().T, kraus1)
    rho = u1.conj().T @ rho @ u1
    rho_l = rho.reshape([2] * (2 * m)).transpose(inv_both).reshape(1 << m, 1 << m)
    rho_l = u_full_l @ rho_l @ u_full_l.conj().T
    rho_p = rho_l.reshape([2] * (2 * m)).transpose(both).reshape(1 << m, 1 << m)
    rho_p = _apply_channel(u2 @ rho_p @ u2.conj().T, kraus2)
    rho_p = u2.conj().T @ rho_p @ u2
    out_l = rho_p.reshape([2] * (2 * m)).transpose(inv_both).reshape(1 << m, 1 << m)
    return out_l.reshape(1 << n, 1 << t, 1 << n, 1 << t)[:, 0, :, 0]


def _sample_double(protocol, n, t, first, second, psi, encode, trials, seed):
    m = n + t
    if m > _DENSE_QUBIT_CAP:
        raise ValueError("sampled double use capped at %d qubits" % _DENSE_QUBIT_CAP)
    kraus1 = first.kraus_ops(m)
    kraus2 = second.kraus_ops(m)
    u_data = np.eye(1 << n, dtype=complex) if encode is None else encode
    u_full_l = np.kron(u_data, np.eye(1 << t, dtype=complex))
    ideal = u_data @ psi
    master = np.random.SeedSequence(seed)
    vals = np.empty(trials)
    accs = np.empty(trials)
    for i, child in enumerate(master.spawn(trials)):
        rng = np.random.default_rng(child)
        if protocol == "trap":
            flags = tuple(sorted(int(v) for v in rng.choice(m, size=t, replace=False)))
            u1 = kron_all([clifford_to_matrix(random_clifford(1, rng)) for _ in range(m)])
            u2 = kron_all([clifford_to_matrix(random_clifford(1, rng)) for _ in range(m)])
        elif protocol == "clifford":
            flags = tuple(range(n, m))
            u1 = clifford_to_matrix(random_clifford(m, rng))
            u2 = clifford_to_matrix(random_clifford(m, rng))
        else:
            raise ValueError("unknown protocol %r" % protocol)
        block = _double_round(psi, n, t, u1, u2, kraus1, kraus2, flags, u_full_l)
        p_acc = float(np.real(np.trace(block)))
        accs[i] = p_acc
        vals[i] = p_acc - float(np.real(np.vdot(ideal, block @ ideal)))
    err = float(np.std(vals, ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return float(np.mean(vals)), float(np.mean(accs)), err


def soundness_delegated(n: int, t: int, attack: AttackSpec, *, theta: float = 0.0,
                        mode: str = "exact", trials: int = 2000,
                        seed: int = 0) -> SoundnessReport:
    """Soundness of the delegated-measurement protocol.

    The final ensemble and acceptance projector coincide with the single-use
    trap code applied to the encoded probe, so the same casework runs with
    the bound written as 3n/(2t).
    """
    psi = _ghz_theta(n, theta)
    return soundness_trap_single(n, t, attack, mode, data_state=psi,
                                 trials=trials, seed=seed)


def worst_fixed_pauli(protocol: str, n: int, t: int) -> tuple[float, PauliString]:
    """Scan all non-identity Pauli attacks, return the largest exact lhs."""
    m = n + t
    best = (-1.0, None)
    for p in all_paulis(m, include_identity=False):
        attack = AttackSpec.fixed_pauli(p)
        if protocol == "trap":
            rep = soundness_trap_single(n, t, attack)
        elif protocol == "clifford":
            rep = soundness_clifford_single(n, t, attack)
        elif protocol == "delegated":
            rep = soundness_delegated(n, t, attack, theta=0.35)
        else:
            raise ValueError("unknown protocol %r" % protocol)
        if rep.lhs > best[0]:
            best = (rep.lhs, p)
    return best


# --------------------------------------------------------------------------
# dense key enumeration (independent cross-check path)


def _twirl_local(rho: np.ndarray, kraus: list[np.ndarray], m: int,
                 singles: list[np.ndarray]) -> np.ndarray:
    """Average of U^dag Gamma(U rho U^dag) U over all local-Clifford U."""
    total = np.zeros_like(rho)
    for combo in itertools.product(singles, repeat=m):
        u = kron_all(list(combo))
        mid = _apply_channel(u @ rho @ u.conj().T, kraus)
        total += u.conj().T @ mid @ u
    return total / (len(singles) ** m)


def dense_trap_single(n: int, t: int, attack: AttackSpec,
                      data_state: np.ndarray | None = None) -> tuple[float, float]:
    """(lhs, accept_rate) by literal enumeration of every trap key."""
    m = n + t
    if m > 3:
        raise ValueError("dense key enumeration capped at m = 3")
    psi = _default_data(n) if data_state is None else np.asarray(data_state, complex)
    kraus = attack.kraus_ops(m)
    singles = local_clifford_unitaries()
    rho_id = np.outer(psi, psi.conj())
    lhs = accept = 0.0
    placements = list(itertools.combinations(range(m), t))
    for flags in placements:
        vec = _embed_with_flags(psi, flags, m)
        avg = _twirl_local(np.outer(vec, vec.conj()), kraus, m, singles)
        rho_l = _to_logical(avg, flags, m)
        block = rho_l.reshape(1 << n, 1 << t, 1 << n, 1 << t)[:, 0, :, 0]
        p_acc = float(np.real(np.trace(block)))
        accept += p_acc
        lhs += p_acc - float(np.real(np.trace(rho_id @ block)))
    k = float(len(placements))
    return lhs / k, accept / k


def dense_clifford_single(n: int, t: int, attack: AttackSpec,
                          data_state: np.ndarray | None = None) -> tuple[float, float]:
    """(lhs, accept_rate) by enumerating the full Clifford group (m <= 2)."""
    m = n + t
    psi = _default_data(n) if data_state is None else np.asarray(data_state, complex)
    kraus = attack.kraus_ops(m)
    lhs = accept = 0.0
    group = enumerate_clifford(m)
    for c in group:
        u = clifford_to_matrix(c)
        p_acc, val = _clifford_round(psi, t, u, kraus)
        accept += p_acc
        lhs += val
    return lhs / len(group), accept / len(group)


def dense_trap_double(n: int, t: int, attack: AttackSpec,
                      encode: np.ndarray | None = None,
                      data_state: np.ndarray | None = None) -> tuple[float, float]:
    """(lhs, accept_rate) for the double-use trap code by nested twirls.

    The two key draws are independent, so the key average factors into one
    local-Clifford twirl per use with the encoding map in between.
    """
    m = n + t
    if m > 3:
        raise ValueError("dense key enumeration capped at m = 3")
    first, second = attack.pair
    psi = _default_data(n) if data_state is None else np.asarray(data_state, complex)
    kraus1 = first.kraus_ops(m)
    kraus2 = second.kraus_ops(m)
    singles = local_clifford_unitaries()
    lhs = accept = 0.0
    placements = list(itertools.combinations(range(m), t))
    u_data = np.eye(1 << n, dtype=complex) if encode is None else encode
    for flags in placements:
        vec = _embed_with_flags(psi, flags, m)
        mid = _twirl_local(np.outer(vec, vec.conj()), kraus1, m, singles)
        mid_l = _to_logical(mid, flags, m)
        u_full = np.kron(u_data, np.eye(1 << t, dtype=complex))
        enc_l = u_full @ mid_l @ u_full.conj().T
        axes = _physical_axes(flags, m)
        both = axes + [a + m for a in axes]
        enc_p = enc_l.reshape([2] * (2 * m)).transpose(both).reshape(1 << m, 1 << m)
        final = _twirl_local(enc_p, kraus2, m, singles)
        rho_l = _to_logical(final, flags, m)
        block = rho_l.reshape(1 << n, 1 << t, 1 << n, 1 << t)[:, 0, :, 0]
        ideal = u_data @ psi
        p_acc = float(np.real(np.trace(block)))
        accept += p_acc
        lhs += p_acc - float(np.real(np.vdot(ideal, block @ ideal)))
    k = float(len(placements))
    return lhs / k, accept / k


def dense_clifford_double(n: int, t: int, attack: AttackSpec,
                          encode: np.ndarray | None = None,
                          data_state: np.ndarray | None = None) -> tuple[float, float]:
    """(lhs, accept_rate) for the double-use Clifford code, m <= 2."""
    m = n + t
    first, second = attack.pair
    psi = _default_data(n) if data_state is None else np.asarray(data_state, complex)
    kraus1 = first.kraus_ops(m)
    kraus2 = second.kraus_ops(m)
    flag_part = np.zeros(1 << t, dtype=complex)
    flag_part[0] = 1.0
    vec = np.kron(psi, flag_part)
    rho0 = np.outer(vec, vec.conj())
    group = [clifford_to_matrix(c) for c in enumerate_clifford(m)]

    def twirl(rho, kraus):
        total = np.zeros_like(rho)
        for u in group:
            total += u.conj().T @ _apply_channel(u @ rho @ u.conj().T, kraus) @ u
        return total / len(group)

    u_data = np.eye(1 << n, dtype=complex) if encode is None else encode
    u_full = np.kron(u_data, np.eye(1 << t, dtype=complex))
    mid = twirl(rho0, kraus1)
    final = twirl(u_full @ mid @ u_full.conj().T, kraus2)
    block = final.reshape(1 << n, 1 << t, 1 << n, 1 << t)[:, 0, :, 0]
    ideal = u_data @ psi
    p_acc = float(np.real(np.trace(block)))
    lhs = p_acc - float(np.real(np.vdot(ideal, block @ ideal)))
    return lhs, p_acc


def replay_attack_demo(n: int, t: int, theta: float, *,
                       dense: bool = False) -> tuple[float, float, float]:
    """Why two keys: lhs of single-key reuse vs the honest double-use code.

    The eavesdropper applies X on every register slot on the way in and
    undoes it on the way out.  With one shared key the conjugated Pauli hits
    each flag twice and cancels, so every round is accepted while the data
    picks up an undetected frame flip; the honest two-key protocol keeps the
    same attack under its bound.  Returns (broken_lhs, honest_lhs, bound).

    With ``dense`` the broken value comes from literal enumeration of all
    shared keys (m <= 3) instead of the per-slot axis average the shared-key
    twirl reduces to.
    """
    m = n + t
    psi = _default_data(n)
    u_data = _phase_unitary(n, theta)
    ideal = u_data @ psi
    p_attack = PauliString(m, (1 << m) - 1, 0, 0)
    attack = AttackSpec.double(AttackSpec.fixed_pauli(p_attack),
                               AttackSpec.fixed_pauli(p_attack))
    honest = soundness_double("trap", n, t, attack, encode=u_data)
    if not dense:
        # Same key on both uses: the decrypted attack operator is the same
        # uniformly-relabeled Pauli before and after the encoding, the flag
        # factors square to identity, and only the data axes survive.
        vals = [1.0 - abs(np.vdot(ideal, vm @ u_data @ vm @ psi)) ** 2
                for v in paulis_on_support(n, (1 << n) - 1)
                for vm in (v.to_matrix(),)]
        broken = float(np.mean(vals))
        return broken, honest.lhs, honest.bound
    if m > 3:
        raise ValueError("replay enumeration capped at m = 3")
    pm = p_attack.to_matrix()
    singles = local_clifford_unitaries()
    kraus_in = [pm]
    kraus_out = [pm.conj().T]
    u_full_l = np.kron(u_data, np.eye(1 << t, dtype=complex))
    lhs = 0.0
    count = 0
    for flags in itertools.combinations(range(m), t):
        for combo in itertools.product(singles, repeat=m):
            u = kron_all(list(combo))
            block = _double_round(psi, n, t, u, u, kraus_in, kraus_out,
                                  flags, u_full_l)
            p_acc = float(np.real(np.trace(block)))
            lhs += p_acc - float(np.real(np.vdot(ideal, block @ ideal)))
            count += 1
    return lhs / count, honest.lhs, honest.bound


# --------------------------------------------------------------------------
# privacy


def privacy_deviation(protocol: str, n: int, t: int, *,
                      data_state: np.ndarray | None = None) -> float:
    """Max-norm distance of the key-averaged encrypted state from I/2^m."""
    m = n + t
    psi = _default_data(n) if data_state is None else np.asarray(data_state, complex)
    if protocol in ("trap", "delegated"):
        if m > 3:
            raise ValueError("trap privacy enumeration capped at m = 3")
        # Every local-Clifford key U = U_1 x ... x U_m, summed one qubit at a time.
        pairs = [[(u, u.conj().T) for u in local_clifford_unitaries()]] * m
        total = np.zeros((1 << m, 1 << m), dtype=complex)
        count = 0
        for flags in itertools.combinations(range(m), t):
            vec = _embed_with_flags(psi, flags, m)
            total += local_product_sum(np.outer(vec, vec.conj()), pairs)
            count += len(pairs[0]) ** m
        avg = total / count
    elif protocol == "clifford":
        if m > 2:
            raise ValueError("Clifford privacy enumeration capped at m = 2")
        flag_part = np.zeros(1 << t, dtype=complex)
        flag_part[0] = 1.0
        vec = np.kron(psi, flag_part)
        rho = np.outer(vec, vec.conj())
        group = enumerate_clifford(m)
        total = np.zeros_like(rho)
        for c in group:
            u = clifford_to_matrix(c)
            total += u @ rho @ u.conj().T
        avg = total / len(group)
    else:
        raise ValueError("unknown protocol %r" % protocol)
    return float(np.max(np.abs(avg - np.eye(1 << m) / (1 << m))))


# --------------------------------------------------------------------------
# delegated measurement rounds


_EIGENBASES = {
    (1, 0): np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2.0),
    (1, 1): np.array([[1, 1], [1j, -1j]], dtype=complex) / math.sqrt(2.0),
    (0, 1): np.eye(2, dtype=complex),
}


def delegated_measurement_round(rho_theta: np.ndarray, t: int,
                                basis: PauliString | str, key: TrapKey,
                                attack: AttackSpec,
                                ) -> tuple[float, dict[tuple[int, ...], float]]:
    """One delegated measurement: returns (accept prob, outcome distribution).

    The data qubits are measured in the basis of the single-qubit Pauli
    ``basis`` and the flags in Z; the server sees only the permuted and
    encrypted register, and the outcome bits are decrypted classically.
    The distribution is over tuples of +-1 data outcomes, conditioned on all
    flags reading +1, and sums to 1 when the acceptance probability is
    nonzero.
    """
    if isinstance(basis, str):
        basis = PauliString.from_label(basis)
    if basis.n != 1 or basis.is_identity_axis():
        raise ValueError("measurement basis must be a non-identity single-qubit Pauli")
    rho_in = np.asarray(rho_theta, dtype=complex)
    if rho_in.ndim == 1:
        rho_in = np.outer(rho_in, rho_in.conj())
    n = rho_in.shape[0].bit_length() - 1
    m = n + t
    if m > _DENSE_QUBIT_CAP:
        raise ValueError("dense evaluation capped at %d qubits" % _DENSE_QUBIT_CAP)
    if key.m != m or key.t != t:
        raise ValueError("key is for m=%d, t=%d" % (key.m, key.t))
    flag_set = set(key.flag_positions)
    axes = _physical_axes(key.flag_positions, m)
    flag_vec = np.zeros(1 << t, dtype=complex)
    flag_vec[0] = 1.0
    rho_l = np.kron(rho_in, np.outer(flag_vec, flag_vec))
    both = axes + [a + m for a in axes]
    rho_p = rho_l.reshape([2] * (2 * m)).transpose(both).reshape(1 << m, 1 << m)
    u_enc = kron_all([clifford_to_matrix(c) for c in key.local_cliffords])
    rho_att = _apply_channel(u_enc @ rho_p @ u_enc.conj().T, attack.kraus_ops(m))

    z1 = PauliString.from_label("Z")
    rotations = []
    signs = []
    for q in range(m):
        want = z1 if q in flag_set else basis
        img = clifford_apply(key.local_cliffords[q], want)
        signs.append(img.sign())
        rotations.append(_EIGENBASES[img.axes_key()])
    v = kron_all(rotations)
    probs = np.real(np.diag(v.conj().T @ rho_att @ v))

    data_slots = [q for q in range(m) if q not in flag_set]
    dist: dict[tuple[int, ...], float] = {}
    accept = 0.0
    for idx in range(1 << m):
        p = float(probs[idx])
        if p <= 0.0:
            continue
        vals = [signs[q] * (1 if not (idx >> (m - 1 - q)) & 1 else -1)
                for q in range(m)]
        if any(vals[q] != 1 for q in flag_set):
            continue
        accept += p
        outcome = tuple(vals[q] for q in data_slots)
        dist[outcome] = dist.get(outcome, 0.0) + p
    if accept > 1e-14:
        dist = {k_: v_ / accept for k_, v_ in sorted(dist.items())}
    return accept, dist


# --------------------------------------------------------------------------
# integrity bounds and the end-to-end demonstration


@dataclass(frozen=True)
class IntegrityParams:
    """Inputs to the bias/MSE penalty bounds for a cryptographic estimate."""

    o: float
    dO_dtheta: float
    delta: float
    alpha: float
    nu: int

    def __post_init__(self) -> None:
        if self.o < 0:
            raise ValueError("observable norm must be non-negative")
        if self.dO_dtheta == 0:
            raise ValueError("zero slope: the estimate cannot be inverted")
        if self.delta < 0:
            raise ValueError("soundness must be non-negative")
        if not 0 < self.alpha <= 1:
            raise ValueError("statistical significance must lie in (0, 1]")
        if self.nu < 1:
            raise ValueError("need at least one round")

    @property
    def epsilon(self) -> float:
        """Trace-distance budget sqrt(delta/alpha)."""
        return math.sqrt(self.delta / self.alpha)


def integrity_bias_bound(ip: IntegrityParams) -> float:
    """Largest bias the accepted rounds can carry: 2 o eps / |slope|."""
    return 2.0 * ip.o * ip.epsilon / abs(ip.dO_dtheta)


def integrity_mse_bound(ip: IntegrityParams) -> float:
    """Largest MSE increase: (4 o^2 / slope^2) (2 eps / nu + eps^2)."""
    eps = ip.epsilon
    return 4.0 * ip.o ** 2 * (2.0 * eps / ip.nu + eps * eps) / ip.dO_dtheta ** 2


def functionality_ok(ip: IntegrityParams) -> bool:
    """Whether the MSE penalty scales no worse than the ideal MSE."""
    return ip.delta / ip.alpha <= 1.0 / ip.nu


def flags_required(protocol: str, n: int, nu: int, alpha: float) -> int:
    """Flag count that keeps delta/alpha <= 1/nu, floored at one flag."""
    if not 0 < alpha <= 1:
        raise ValueError("statistical significance must lie in (0, 1]")
    if nu < 1:
        raise ValueError("need at least one round")
    if protocol in ("trap", "delegated"):
        t = math.ceil(1.5 * n * nu / alpha)
    elif protocol == "clifford":
        t = math.ceil(math.log2(nu / alpha))
    else:
        raise ValueError("unknown protocol %r" % protocol)
    return max(t, 1)


def _phase_unitary(n: int, theta: float) -> np.ndarray:
    """exp(-i theta/2 sum_j Z_j) on n qubits."""
    phases = np.empty(1 << n, dtype=complex)
    for idx in range(1 << n):
        weight = idx.bit_count()
        phases[idx] = np.exp(-0.5j * theta * (n - 2 * weight))
    return np.diag(phases)


@dataclass(frozen=True)
class DemoResult:
    """Outcome of the end-to-end delegated estimation run."""

    empirical_bias: float
    empirical_mse: float
    bound_bias: float
    bound_mse: float
    accept_rate: float
    ideal_mse: float
    bias_stderr: float
    mse_stderr: float
    theta_true: float
    rounds_accepted: int


def _apply_single(vec: np.ndarray, mat: np.ndarray, q: int, m: int) -> np.ndarray:
    shaped = vec.reshape(1 << q, 2, -1)
    return np.einsum("ij,ajb->aib", mat, shaped).reshape(-1)


def end_to_end_demo(n: int, t: int, nu: int, attack: AttackSpec,
                    seed: int = 0) -> DemoResult:
    """Delegated GHZ phase estimation under attack, with integrity bounds.

    Runs ``nu`` delegated parity-measurement rounds at a seeded phase, keeps
    the accepted ones, inverts the mean parity through the first-order
    expansion around theta_0 = theta_true, and reports the empirical bias
    and MSE next to the bounds derived from the attack's exact soundness and
    acceptance rate.
    """
    m = n + t
    if m > 6:
        raise ValueError("demo register capped at 6 qubits")
    if nu > 10 ** 5:
        raise ValueError("demo round count capped at 1e5")
    master = np.random.SeedSequence(seed)
    setup = np.random.default_rng(master.spawn(1)[0])
    theta0 = (0.5 * math.pi + float(setup.uniform(-0.5, 0.5))) / n
    psi_theta = _ghz_theta(n, theta0)

    mean_o = math.cos(n * theta0)
    slope = -n * math.sin(n * theta0)
    var_ideal = 1.0 - mean_o * mean_o

    report = soundness_delegated(n, t, attack, theta=theta0)
    ip = IntegrityParams(o=1.0, dO_dtheta=slope, delta=report.lhs,
                         alpha=report.accept_rate, nu=nu)

    terms = attack.pauli_terms(m)
    term_probs = np.array([max(p, 0.0) for p, _ in terms])
    term_probs = term_probs / term_probs.sum()
    z1 = PauliString.from_label("Z")
    x1 = PauliString.from_label("X")

    outcomes = []
    for child in master.spawn(nu):
        rng = np.random.default_rng(child)
        key = random_trap_key(n, t, rng)
        flag_set = set(key.flag_positions)
        vec = _embed_with_flags(psi_theta, key.flag_positions, m)
        for q in range(m):
            vec = _apply_single(vec, clifford_to_matrix(key.local_cliffords[q]), q, m)
        chosen = terms[int(rng.choice(len(terms), p=term_probs))][1]
        signs = []
        for q in range(m):
            xb = (chosen.x >> q) & 1
            zb = (chosen.z >> q) & 1
            if xb or zb:
                single = PauliString(1, xb, zb)
                vec = _apply_single(vec, single.to_matrix(), q, m)
            want = z1 if q in flag_set else x1
            img = clifford_apply(key.local_cliffords[q], want)
            signs.append(img.sign())
            vec = _apply_single(vec, _EIGENBASES[img.axes_key()].conj().T, q, m)
        probs = np.abs(vec) ** 2
        probs = probs / probs.sum()
        idx = int(rng.choice(probs.size, p=probs))
        vals = [signs[q] * (1 if not (idx >> (m - 1 - q)) & 1 else -1)
                for q in range(m)]
        if any(vals[q] != 1 for q in flag_set):
            continue
        parity = 1
        for q in range(m):
            if q not in flag_set:
                parity *= vals[q]
        outcomes.append(parity)

    n_acc = len(outcomes)
    if n_acc < 2:
        raise ArithmeticError("attack rejected essentially every round")
    arr = np.asarray(outcomes, dtype=float)
    f_hat = float(arr.mean())
    theta_hat = theta0 + (f_hat - mean_o) / slope
    var_hat = float(arr.var(ddof=1))
    bias = abs(theta_hat - theta0)
    bias_err = math.sqrt(var_hat / n_acc) / abs(slope)
    mse_emp = var_hat / (n_acc * slope * slope) + bias * bias
    mse_ideal = var_ideal / (n_acc * slope * slope)
    var_err = 2.0 * abs(f_hat) * math.sqrt(var_hat / n_acc) + var_hat / n_acc
    mse_err = var_err / (n_acc * slope * slope) \
        + 2.0 * bias * bias_err + bias_err * bias_err
    return DemoResult(
        empirical_bias=bias,
        empirical_mse=mse_emp,
        bound_bias=integrity_bias_bound(ip),
        bound_mse=integrity_mse_bound(ip),
        accept_rate=n_acc / nu,
        ideal_mse=mse_ideal,
        bias_stderr=bias_err,
        mse_stderr=mse_err,
        theta_true=theta0,
        rounds_accepted=n_acc,
    )

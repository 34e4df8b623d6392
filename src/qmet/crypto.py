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
``depol:0.3``, ``double:<spec>;<spec>``).  Every attack but a Kraus one is a
Pauli mixture, its terms listed by ``AttackSpec.pauli_terms``; a fixed Pauli
is the one-term mixture.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .dense import PAULI_1Q, kron_all, local_product_sum
from .pauli import (
    PauliString,
    _apply_pauli,
    _axis_codes,
    _coset_representatives,
    all_paulis,
    channel_pauli_weights,
    enumerate_clifford,
    paulis_on_support,
    random_clifford,
)

_DENSE_QUBIT_CAP = 7
_GHZ_QUBIT_CAP = 20     # a 16 MiB probe, graphs.oracle_graph_qfi's largest statevector
_DEPOL_KRAUS_CAP = 5
# (trial, term, slot) entries per chunk of the sampled paths: bounded memory at any trials.
_CHUNK_ENTRIES = 1 << 16
_TRIALS_CAP = 10 ** 6  # per report; at m = 7 ~1 s of Pauli-mixture trap trials, 1-2 h of dense


# --------------------------------------------------------------------------
# attack specifications


@dataclass(frozen=True)
class AttackSpec:
    """A CPTP attack on the encrypted register.

    ``variant`` selects the interpretation: ``identity``, ``pauli_mixture``
    (a fixed Pauli is the one-term mixture), ``depolarizing``, ``kraus`` or
    ``double`` (a pair of attacks for the two uses of the channel).  Specs are
    symbolic where possible; Kraus matrices are materialized per qubit count
    on demand, sqrt(p) P for each Pauli term (p, P) unless the attack is ``kraus``.
    """

    variant: str
    mixture: tuple[tuple[float, PauliString], ...] = ()
    strength: float = 0.0
    kraus_mats: tuple[np.ndarray, ...] = ()
    pair: tuple["AttackSpec", "AttackSpec"] | None = None

    def __post_init__(self) -> None:
        if self.variant == "pauli_mixture":
            if not all(math.isfinite(p) for p, _ in self.mixture):
                raise ValueError("non-finite probability in Pauli mixture")
            total = sum(p for p, _ in self.mixture)
            if abs(total - 1.0) > 1e-12:
                raise ValueError("mixture probabilities sum to %r, not 1" % total)
            if any(p < -1e-12 for p, _ in self.mixture):
                raise ValueError("negative probability in Pauli mixture")
        elif self.variant == "depolarizing":
            if not 0.0 <= self.strength <= 1.0:
                raise ValueError("depolarizing strength %r outside [0, 1]" % self.strength)
        elif self.variant == "kraus":
            if not all(np.isfinite(a).all() for a in self.kraus_mats):
                raise ValueError("non-finite entry in a Kraus operator")
            dim = self.kraus_mats[0].shape[0]
            total = sum(a.conj().T @ a for a in self.kraus_mats)
            if np.max(np.abs(total - np.eye(dim))) > 1e-9:
                raise ValueError("Kraus operators are not complete")
        elif self.variant == "double":
            if self.pair is None or any(g.variant == "double" for g in self.pair):
                raise ValueError("double attack needs exactly two single-use specs")
        elif self.variant != "identity":
            raise ValueError("unknown attack variant %r" % self.variant)

    @classmethod
    def identity(cls) -> "AttackSpec":
        return cls("identity")

    @classmethod
    def fixed_pauli(cls, p: PauliString | str) -> "AttackSpec":
        return cls.pauli_mixture([(1.0, p)])

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
        width = next((q.n for _, q in self.mixture if q.n != m), m)
        if width != m:
            raise ValueError("attack Pauli acts on %d qubits, register has %d" % (width, m))
        if self.variant == "kraus" and self.kraus_mats[0].shape[0] != 1 << m:
            raise ValueError("Kraus dimension mismatch")

    def kraus_ops(self, m: int) -> list[np.ndarray]:
        """Materialize Kraus operators on m qubits: sqrt(p) P per Pauli term (p, P) with p > 0."""
        self._check_width(m)
        if self.variant == "kraus":
            return [a.copy() for a in self.kraus_mats]
        # Depolarizing has one 2^m x 2^m matrix per Pauli: 16^m entries in all (4.3 GB at m = 7).
        if self.variant == "depolarizing" and m > _DEPOL_KRAUS_CAP:
            raise ValueError("depolarizing Kraus form capped at m = %d qubits "
                             "(it lists all 4^m Pauli operators), got m = %d"
                             % (_DEPOL_KRAUS_CAP, m))
        return [math.sqrt(p) * q.to_matrix() for p, q in self.pauli_terms(m) if p > 0]

    def pauli_terms(self, m: int) -> list[tuple[float, PauliString]]:
        """The attack as a Pauli mixture, when it is one."""
        self._check_width(m)
        if self.variant == "identity":
            return [(1.0, PauliString.identity(m))]
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
            weights = channel_pauli_weights(self.kraus_mats)
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
        """T[0], the twirled weight of the identity; for ``depol:s`` it is 1 - s + s/4^m."""
        if self.variant == "depolarizing":
            return 1.0 - self.strength + self.strength / 4 ** m
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


# The Pauli of each axis code of ``_axis_codes``: I, X, Z, Y.
_PAULI_BY_CODE = np.array([PAULI_1Q[a] for a in "IXZY"])


@lru_cache(maxsize=1)
def _local_key_tables() -> np.ndarray:
    """decrypt[i, a], the axis code of C_i^dag P C_i for P of axis code a.

    C_i = enumerate_clifford(1)[i].  Each C_i^dag P C_i is a signed Pauli,
    so exactly one of its coefficients Tr(Q C_i^dag P C_i) / 2 over the
    Paulis Q is +-1.  A trap key is a flag placement plus one index i per
    register slot.
    """
    us = enumerate_clifford(1)
    backs = us.conj().swapaxes(1, 2)[:, None] @ _PAULI_BY_CODE @ us[:, None]
    coeffs = np.einsum("iacd,bdc->iab", backs, _PAULI_BY_CODE).real / 2
    decrypt = np.abs(coeffs).argmax(axis=2)
    decrypt.flags.writeable = False
    return decrypt


def _key_stream(seq: np.random.SeedSequence) -> tuple[np.random.Generator, ...]:
    """The (placements, slots) generators of one sampled run: the next two children of ``seq``."""
    return tuple(np.random.default_rng(child) for child in seq.spawn(2))


def _draw_trap_keys(rngs, size: int, m: int, t: int,
                    uses: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """``size`` trap keys: (size, t) sorted flag slots and (size, uses, m) indices in 0..23.

    ``rngs`` is a ``_key_stream`` pair, each generator read in order, so draws of
    sizes a and b equal one of size a + b.  A placement is the first t slots of the
    argsort of m uniforms; an index picks one of the 24 of ``enumerate_clifford(1)``.
    """
    flags = np.sort(rngs[0].random((size, m)).argsort(axis=1)[:, :t], axis=1)
    return flags, rngs[1].integers(24, size=(size, uses, m))


def _placement(flags, m: int) -> np.ndarray:
    """perm[j], the physical index of logical basis state j under the flag slots ``flags``.

    The logical register holds the data qubits first and the t flags last.
    The placement P_f = I[:, perm] moves logical qubit l to its slot: the l-th
    of the other slots for data, the (l - n)-th of the sorted ``flags`` for a flag.
    """
    slots = [q for q in range(m) if q not in flags] + sorted(flags)
    return np.arange(1 << m).reshape([2] * m).transpose(slots).reshape(-1)


def _logical_start(psi: np.ndarray, t: int) -> np.ndarray:
    """psi on the data qubits, then t flags in |0>."""
    vec = np.zeros(psi.size << t, dtype=complex)
    vec[::1 << t] = psi
    return vec


def _channel(attack: AttackSpec, m: int):
    """The attack as a map on m-qubit density matrices.

    A depolarizing attack acts in closed form, (1 - s) rho + s Tr(rho) I / 2^m,
    so that its 4^m Kraus matrices are never listed; any other is a Kraus sum.
    """
    if attack.variant == "depolarizing":
        s, dim = attack.strength, 1 << m
        return lambda rho: (1.0 - s) * rho + (s * np.trace(rho) / dim) * np.eye(dim)
    kraus = attack.kraus_ops(m)

    def apply(rho):
        out = np.zeros_like(rho)
        for k in kraus:
            out += k @ rho @ k.conj().T
        return out

    return apply


def _round(psi: np.ndarray, t: int, uses, encode: np.ndarray | None = None) -> tuple[float, float]:
    """(p_accept, p_accept - <ideal|block|ideal>) of one round over the given uses.

    The round runs in the logical register: the data ``psi``, then t flags in
    |0>.  Each use maps the register state: the first receives the pure start
    as a vector, the later ones a density matrix, and ``encode`` (skipped when
    None) acts on the data between uses.  ``ideal`` is psi after every encoding.
    """
    state, ideal = _logical_start(psi, t), psi
    u_full = None if encode is None else np.kron(encode, np.eye(1 << t, dtype=complex))
    for use_index, use in enumerate(uses):
        if use_index and u_full is not None:
            state = u_full @ state @ u_full.conj().T
            ideal = encode @ ideal
        state = use(state)
    return _accept(state, t, ideal)


def _accept(rho: np.ndarray, t: int, ideal: np.ndarray) -> tuple[float, float]:
    """(p_accept, p_accept - <ideal|block|ideal>), block the data block of rho with |0> flags.

    ``rho`` is a logical register state, its t flags last; ``ideal`` is the
    expected data state.
    """
    n = ideal.size.bit_length() - 1
    block = rho.reshape(1 << n, 1 << t, 1 << n, 1 << t)[:, 0, :, 0]
    p_acc = float(np.real(np.trace(block)))
    return p_acc, p_acc - float(np.real(np.vdot(ideal, block @ ideal)))


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


def _check_sampled_cap(protocol: str, mode: str, m: int) -> None:
    """A sampled run's cap on m = n + t, checked before any 2^n probe is built.

    Single-use trap trials (``trap1``) run to m = 10; the dense keyed rounds of
    ``_sample_keys`` (``trap``, ``clifford``) run to _DENSE_QUBIT_CAP.
    """
    if mode == "sampled" and protocol == "trap1" and m > 10:
        raise ValueError("sampled soundness capped at m = 10")
    if mode == "sampled" and protocol != "trap1" and m > _DENSE_QUBIT_CAP:
        raise ValueError("sampled %s code capped at m = %d qubits, got m = %d"
                         % ("trap" if protocol == "trap" else "Clifford", _DENSE_QUBIT_CAP, m))


def _ghz_theta(n: int, theta: float) -> np.ndarray:
    """GHZ probe with an encoded relative phase exp(i n theta), for n <= _GHZ_QUBIT_CAP."""
    if n > _GHZ_QUBIT_CAP:
        raise ValueError("GHZ probe capped at n = %d qubits, got n = %d" % (_GHZ_QUBIT_CAP, n))
    vec = np.zeros(1 << n, dtype=complex)
    vec[0] = 1.0 / math.sqrt(2.0)
    vec[-1] = np.exp(1j * n * theta) / math.sqrt(2.0)
    return vec


def _data_state(n: int, t: int, data_state, default: bool = True) -> np.ndarray | None:
    """Check n, t >= 1 and the state (unit norm, shape (2^n,)); return it, GHZ or None."""
    for name, value in (("n", n), ("t", t)):
        if value < 1:
            raise ValueError("%s must be >= 1, got %r" % (name, value))
    if data_state is None:
        return _ghz_theta(n, 0.0) if default else None
    shape, norm = np.shape(data_state), float(np.linalg.norm(data_state))
    if shape != (1 << n,) or abs(norm - 1.0) > 1e-9:
        raise ValueError("data_state must be a unit vector of shape (%d,), got shape %r, "
                         "norm %r" % (1 << n, shape, norm))
    return np.asarray(data_state, dtype=complex)


class _VariantTable:
    """Overlaps |<ideal| Q U P |psi>|^2 of data Paulis P, Q and their averages per support.

    U is the encoding between the uses.  ``double`` caches the mean of
    1 - overlap over P in {X, Y, Z}^S and Q in {X, Y, Z}^S', per pair of data
    bit masks (S, S'); the empty mask holds the identity alone.  Each post-Pauli
    is applied to the ideal state once.
    """

    def __init__(self, psi: np.ndarray, u_encode: np.ndarray | None = None):
        self.psi = np.asarray(psi, dtype=complex).reshape(-1)
        self.n = self.psi.size.bit_length() - 1
        self.u_encode = u_encode
        self.ideal = self.psi if u_encode is None else u_encode @ self.psi
        self._pre: dict[tuple[int, int], np.ndarray] = {}
        self._post: dict[tuple[int, int], np.ndarray] = {}
        self._single: dict[tuple[int, int], float] = {}
        self._double: dict[tuple[int, int], float] = {}

    def _pre_vec(self, v: PauliString, keep: bool) -> np.ndarray:
        key = v.axes_key()
        vec = self._pre.get(key)
        if vec is None:
            vec = _apply_pauli(v, self.psi)
            if self.u_encode is not None:
                vec = self.u_encode @ vec
            if keep:
                self._pre[key] = vec
        return vec

    def _post_vec(self, v: PauliString) -> np.ndarray:
        key = v.axes_key()
        if key not in self._post:
            self._post[key] = _apply_pauli(v, self.ideal)
        return self._post[key]

    def overlap(self, pre: PauliString, post: PauliString) -> float:
        """|<ideal| post U pre |psi>|^2, exactly 1 when both are the identity.

        Against the identity post the value is kept per pre axes and U pre |psi>
        is not: a sampled report meets up to 4^n data Paulis, at n <= 9.  Against
        any other post the vector U pre |psi> is kept, since the double-use
        casework pairs it with every post support.
        """
        if post.support:
            return abs(np.vdot(self._post_vec(post), self._pre_vec(pre, True))) ** 2
        key = pre.axes_key()
        if key not in self._single:
            # Untouched data: 1, not the rounding residue of |<ideal|ideal>|^2.
            self._single[key] = (abs(np.vdot(self._post_vec(post), self._pre_vec(pre, False))) ** 2
                                 if pre.support else 1.0)
        return self._single[key]

    def double(self, pre_mask: int, post_mask: int) -> float:
        key = (pre_mask, post_mask)
        if key not in self._double:
            posts = list(paulis_on_support(self.n, post_mask))
            vals = [1.0 - self.overlap(vp, vq)
                    for vp in paulis_on_support(self.n, pre_mask) for vq in posts]
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


def trap_bound(n: int, t: int) -> float:
    return 1.5 * n / t


def trap_double_bound(n: int, t: int) -> float:
    return 2.25 * n / t


def clifford_bound(t: int) -> float:
    return 2.0 ** (-t)


def _trap_double_casework(n: int, t: int, first: AttackSpec, second: AttackSpec,
                          table: _VariantTable) -> tuple[float, float]:
    """Exact (lhs, accept_rate) for the trap code over two uses.

    Support slots on flags accept 1/3 of variants when only one attack
    touches them and 5/9 when both do (products ZZ, XX, YY, XY, YX fix |0>).
    Single use is the case of an identity second attack.
    """
    m = n + t
    if m > 4 and "kraus" in (first.variant, second.variant):
        raise ValueError("exact Kraus decomposition capped at m = 4")
    w1 = first.support_weights(m)
    w2 = second.support_weights(m)
    lhs = accept = 0.0
    placements = list(itertools.combinations(range(m), t))
    for flags in placements:
        flag_mask = sum(1 << f for f in flags)
        data_slots = [q for q in range(m) if q not in flags]
        # support -> data bit mask: bit i for the i-th data slot in the support
        data = {sup: sum(1 << i for i, q in enumerate(data_slots) if sup >> q & 1)
                for sup in w1.keys() | w2.keys()}
        for sup_p, wp in w1.items():
            p_flags = sup_p & flag_mask
            for sup_q, wq in w2.items():
                q_flags = sup_q & flag_mask
                both = (p_flags & q_flags).bit_count()
                lone = (p_flags ^ q_flags).bit_count()
                factor = wp * wq * (5.0 / 9.0) ** both * 3.0 ** (-lone)
                accept += factor
                lhs += factor * table.double(data[sup_p], data[sup_q])
    k = float(len(placements))
    return lhs / k, accept / k


def soundness_trap_single(n: int, t: int, attack: AttackSpec, mode: str = "exact",
                          *, data_state: np.ndarray | None = None,
                          trials: int = 2000, seed: int = 0) -> SoundnessReport:
    """Soundness of the single-use trap code against one attack."""
    _check_sampled_cap("trap1", mode, n + t)
    psi = _data_state(n, t, data_state)
    if mode == "exact":
        lhs, accept = _trap_double_casework(n, t, attack, AttackSpec.identity(),
                                            _get_table(psi))
        return SoundnessReport(lhs, trap_bound(n, t), accept, "exact")
    if mode == "sampled":
        lhs, accept, err = _sample_trap_single(n, t, attack, psi, trials, seed)
        return SoundnessReport(lhs, trap_bound(n, t), accept, "sampled",
                               trials=trials, seed=seed, stderr=err)
    raise ValueError("unknown mode %r" % mode)


def _sample(trials, seed, run, chunk):
    """(mean lhs, mean accept, stderr of lhs) over independent trials from one seeded stream.

    The run's keys come from ``stream = _key_stream(SeedSequence(seed))``, read in
    trial order: ``run(stream, size)`` draws the next ``size`` <= ``chunk`` trials'
    keys from it and returns their p_accept and lhs, so no result depends on ``chunk``.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1, got %r" % trials)
    if trials > _TRIALS_CAP:
        raise ValueError("trials must be <= %d, got %r" % (_TRIALS_CAP, trials))
    if seed < 0:
        raise ValueError("seed must be >= 0, got %r" % seed)
    stream = _key_stream(np.random.SeedSequence(seed))
    accs, vals = np.empty(trials), np.empty(trials)
    for start in range(0, trials, chunk):
        part = slice(start, start + chunk)
        accs[part], vals[part] = run(stream, len(accs[part]))
    err = float(np.std(vals, ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return float(np.mean(vals)), float(np.mean(accs)), err


def _sample_trap_single(n, t, attack, psi, trials, seed):
    """Trap keys read off the key tables for a listed Pauli mixture, else ``_sample_keys``.

    A flag survives a term exactly when the decrypted operator there is I or
    Z (the flag rule of ``_delegated_rule``), and the signs of the decrypted
    data operator drop out of |<psi|V|psi>|^2, so only axes matter; that
    overlap comes from the probe's ``_get_table``, shared with the exact
    casework.  A chunk of trials draws its keys with one ``_draw_trap_keys``
    call and reads them off the decrypt table at once.  A depolarizing attack
    takes ``_sample_keys``, whose closed-form channel never lists the 4^m
    Pauli terms.
    """
    if attack.variant not in ("identity", "pauli_mixture"):
        return _sample_keys("trap", n, t, [attack], psi, None, trials, seed)
    m = n + t
    terms = attack.pauli_terms(m)
    probs = np.array([p for p, _ in terms])
    codes = np.array([_axis_codes(q) for _, q in terms])
    decrypt = _local_key_tables()
    bits = 1 << np.arange(n)
    table, ident = _get_table(psi), PauliString.identity(n)

    def overlap(key: int) -> float:
        """|<psi|V|psi>|^2 for the data Pauli V with x mask key % 2^n and z mask key >> n."""
        x, z = key & ((1 << n) - 1), key >> n
        return table.overlap(PauliString(n, x, z, (x & z).bit_count()), ident)

    def run(stream, size):
        flags, local = _draw_trap_keys(stream, size, m, t)
        is_flag = (flags[:, :, None] == np.arange(m)).any(axis=1)
        decrypted = decrypt[local, codes]
        alive = _delegated_rule(decrypted, is_flag[:, None, :])[0]
        data_slots = np.argsort(is_flag, axis=1, kind="stable")[:, None, :n]  # in slot order
        data = np.take_along_axis(decrypted, data_slots, axis=2)
        packed = ((data & 1) @ bits) | (((data >> 1) @ bits) << n)
        uniq, inverse = np.unique(packed[alive], return_inverse=True)
        ov = np.zeros(alive.shape)
        ov[alive] = np.array([overlap(int(key)) for key in uniq])[inverse]
        # A trial's sums equal sums over its accepted terms alone: numpy adds fewer
        # than eight numbers one by one, as cumsum does, and eight or more pairwise.
        p_acc = np.cumsum(np.where(alive, probs, 0.0), axis=1)[:, -1]
        for i in np.flatnonzero(alive.sum(axis=1) >= 8):
            p_acc[i] = probs[alive[i]].sum()
        return p_acc, p_acc - np.cumsum(np.where(alive, probs * ov, 0.0), axis=1)[:, -1]

    return _sample(trials, seed, run, max(1, _CHUNK_ENTRIES // (len(terms) * m)))


def _keyed_use(key: np.ndarray, channel):
    """The use U^dag Gamma(U rho U^dag) U of one key U; a vector input is the pure start."""
    key_dag = key.conj().T

    def use(state):
        rho = np.outer(state, state.conj()) if state.ndim == 1 else state
        return key_dag @ channel(key @ rho @ key_dag) @ key

    return use


def _sample_keys(protocol, n, t, attacks, psi, encode, trials, seed):
    """(mean lhs, mean accept, stderr) of ``_round`` with a fresh random key per use.

    Every key is one m-qubit unitary U on the logical register.  A trap key is
    L P_f, L the Kronecker product of the slots' single-qubit Cliffords and P_f
    the trial's ``_placement``, read off one ``_draw_trap_keys`` call per chunk
    of trials; a Clifford-code key is one ``random_clifford`` from the slot
    generator per trial and use.
    """
    m = n + t
    _check_sampled_cap(protocol, "sampled", m)
    channels = [_channel(attack, m) for attack in attacks]
    units = enumerate_clifford(1)

    def run(stream, size):
        if protocol == "trap":
            flags, local = _draw_trap_keys(stream, size, m, t, len(channels))
            keys = ([kron_all(units[row])[:, perm] for row in rows]
                    for perm, rows in zip((_placement(f, m) for f in flags.tolist()), local))
        else:
            keys = ([random_clifford(m, stream[1]) for _ in channels] for _ in range(size))
        return zip(*(_round(psi, t, list(map(_keyed_use, ks, channels)), encode) for ks in keys))

    return _sample(trials, seed, run, max(1, _CHUNK_ENTRIES // (len(channels) * m)))


def soundness_clifford_single(n: int, t: int, attack: AttackSpec,
                              mode: str = "exact", *, trials: int = 2000,
                              seed: int = 0,
                              data_state: np.ndarray | None = None) -> SoundnessReport:
    """Soundness of the single-use Clifford code.

    Exact mode uses the closed form 2^m (2^{m-t}-1) (1-a) / (4^m-1), where a
    is the attack's identity weight; sampling draws uniform m-qubit Cliffords.
    """
    m = n + t
    _check_sampled_cap("clifford", mode, m)
    psi = _data_state(n, t, data_state, default=mode == "sampled")
    if mode == "exact":
        a = attack.identity_weight(m)
        lhs = (1 << m) * ((1 << (m - t)) - 1) * (1.0 - a) / (4 ** m - 1)
        accept = a + (1.0 - a) * (2 ** (m + n) - 1) / (4 ** m - 1)
        return SoundnessReport(lhs, clifford_bound(t), accept, "exact")
    if mode == "sampled":
        lhs, accept, err = _sample_keys("clifford", n, t, [attack], psi, None, trials, seed)
        return SoundnessReport(lhs, clifford_bound(t), accept, "sampled",
                               trials=trials, seed=seed, stderr=err)
    raise ValueError("unknown mode %r" % mode)


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
    if protocol not in ("trap", "clifford"):
        raise ValueError("unknown protocol %r" % protocol)
    m = n + t
    _check_sampled_cap(protocol, mode, m)
    psi = _data_state(n, t, data_state, default=protocol == "trap" or mode == "sampled")
    if mode == "sampled":
        lhs, accept, err = _sample_keys(protocol, n, t, attack.pair, psi, encode, trials, seed)
        bound = trap_double_bound(n, t) if protocol == "trap" else clifford_bound(t)
        return SoundnessReport(lhs, bound, accept, "sampled",
                               trials=trials, seed=seed, stderr=err)
    if mode != "exact":
        raise ValueError("unknown mode %r" % mode)
    if protocol == "trap":
        table = _get_table(psi, encode)
        lhs, accept = _trap_double_casework(n, t, first, second, table)
        return SoundnessReport(lhs, trap_double_bound(n, t), accept, "exact")
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


def soundness_delegated(n: int, t: int, attack: AttackSpec, *, theta: float = 0.0,
                        mode: str = "exact", trials: int = 2000,
                        seed: int = 0) -> SoundnessReport:
    """Soundness of the delegated-measurement protocol.

    The final ensemble and acceptance projector coincide with the single-use
    trap code applied to the encoded probe, so the same casework runs with
    the bound written as 3n/(2t).
    """
    _check_sampled_cap("trap1", mode, n + t)
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
# dense key enumeration: the cross-check of the casework above, over the literal
# key set (local keys one qubit at a time, Clifford keys one coset at a time).


@lru_cache(maxsize=1)
def _local_twirl_map() -> np.ndarray:
    """[a, b, c, d, a', b', c', d'] = mean_u conj(u)[a', a] u[b', b] u[c', c] conj(u)[d', d]."""
    u = enumerate_clifford(1)
    out = np.einsum("upa,uqb,urc,usd->abcdpqrs", u.conj(), u, u, u.conj()) / len(u)
    out.flags.writeable = False
    return out


def _twirl(rho: np.ndarray, kraus: list[np.ndarray], reps: np.ndarray) -> np.ndarray:
    """Average of U^dag Gamma(U rho U^dag) U over every key U = l . r, r in the stack ``reps``.

    l = U_1 x ... x U_m runs over the local Clifford layers, and ``reps`` is
    one key set of ``_dense_reps``.  The average over l is one superoperator,
    S = sum_K K x conj(K) averaged on each qubit's four axes as a [2] * 4m
    tensor, applied to each r rho r^dag and conjugated back by r.
    """
    m = rho.shape[0].bit_length() - 1
    s = sum(kron_all([k, k.conj()]) for k in kraus).reshape([2] * (4 * m))
    for q in range(m):
        axes = [q, q + m, q + 2 * m, q + 3 * m]
        s = np.moveaxis(np.tensordot(_local_twirl_map(), s, axes=([4, 5, 6, 7], axes)),
                        [0, 1, 2, 3], axes)
    reps_dag = reps.conj().swapaxes(1, 2)
    out = (reps @ rho @ reps_dag).reshape(len(reps), -1) @ s.reshape(rho.size, rho.size).T
    return (reps_dag @ out.reshape(reps.shape) @ reps).mean(axis=0)


def _dense_reps(protocol: str, n: int, t: int) -> list[np.ndarray]:
    """The representatives r of a dense key set, one stack per round.

    Every key is l . r modulo phase, l a local Clifford layer, on the logical
    register.  A trap round (m <= 3) keeps its flag placement for every use,
    so each of the C(m, t) rounds gets one placement matrix P_f; the Clifford
    code (m <= 2) has one round, each use drawing r from R_m
    (``_coset_representatives``).  ``delegated`` keys are trap keys.
    """
    m = n + t
    if protocol in ("trap", "delegated"):
        if m > 3:
            raise ValueError("dense trap key enumeration capped at m = 3, got m = %d" % m)
        eye = np.eye(1 << m)
        return [eye[:, _placement(flags, m)][None]
                for flags in itertools.combinations(range(m), t)]
    if protocol == "clifford":
        if m > 2:
            raise ValueError("dense Clifford key enumeration capped at m = 2, got m = %d" % m)
        return [_coset_representatives(m)]
    raise ValueError("unknown protocol %r" % protocol)


def _dense_average(protocol: str, n: int, t: int, attacks,
                   encode: np.ndarray | None = None,
                   data_state: np.ndarray | None = None) -> tuple[float, float]:
    """(lhs, accept_rate) by literal enumeration of every key, one use per attack.

    Trap keys are every flag placement times every local-Clifford layer
    (m <= 3), Clifford keys the m-qubit Clifford group (m <= 2), both listed
    by ``_dense_reps``.  Each use draws its own key, so its key average is one
    ``_twirl`` inside ``_round``; the rounds are averaged over placements.
    This path uses no Pauli weight, no support and no twirl lemma; the
    per-qubit map uses only the fact that a local layer's per-qubit draws
    are independent, and the Clifford sum only that the group is the union
    of the cosets (C_1 x ... x C_1) . r.
    """
    if attacks is None:  # the pair of a spec that is not a double one
        raise ValueError("double-use soundness needs a double attack spec")
    psi = _data_state(n, t, data_state)
    key_sets = _dense_reps(protocol, n, t)
    kraus = [attack.kraus_ops(n + t) for attack in attacks]

    def twirled(ops, reps):
        return lambda state: _twirl(state if state.ndim == 2 else np.outer(state, state.conj()),
                                    ops, reps)

    rounds = [_round(psi, t, [twirled(k, reps) for k in kraus], encode) for reps in key_sets]
    accept, lhs = (sum(column) / len(rounds) for column in zip(*rounds))
    return lhs, accept


def dense_trap_single(n: int, t: int, attack: AttackSpec,
                      data_state: np.ndarray | None = None) -> tuple[float, float]:
    """(lhs, accept_rate) by literal enumeration of every trap key (m <= 3)."""
    return _dense_average("trap", n, t, [attack], data_state=data_state)


def dense_clifford_single(n: int, t: int, attack: AttackSpec,
                          data_state: np.ndarray | None = None) -> tuple[float, float]:
    """(lhs, accept_rate) by summing the full Clifford group coset by coset (m <= 2)."""
    return _dense_average("clifford", n, t, [attack], data_state=data_state)


def dense_trap_double(n: int, t: int, attack: AttackSpec,
                      encode: np.ndarray | None = None,
                      data_state: np.ndarray | None = None) -> tuple[float, float]:
    """(lhs, accept_rate) for the double-use trap code by nested twirls (m <= 3)."""
    return _dense_average("trap", n, t, attack.pair, encode, data_state)


def dense_clifford_double(n: int, t: int, attack: AttackSpec,
                          encode: np.ndarray | None = None,
                          data_state: np.ndarray | None = None) -> tuple[float, float]:
    """(lhs, accept_rate) for the double-use Clifford code, m <= 2."""
    return _dense_average("clifford", n, t, attack.pair, encode, data_state)


def replay_attack_demo(n: int, t: int, theta: float, *,
                       dense: bool = False) -> tuple[float, float, float]:
    """Why two keys: lhs of single-key reuse vs the honest double-use code.

    The eavesdropper applies X on every register slot on the way in and
    undoes it on the way out.  With one shared key the conjugated Pauli hits
    each flag twice and cancels, so every round is accepted while the data
    picks up an undetected frame flip; the honest two-key protocol keeps the
    same attack under its bound.  Returns (broken_lhs, honest_lhs, bound).

    Without ``dense`` the broken value is the per-slot axis average the
    shared-key twirl reduces to, read off the probe's overlap table.  With
    ``dense`` it comes from literal enumeration of all shared local layers
    (m <= 3) in the logical register.
    """
    psi = _data_state(n, t, None)
    m = n + t
    u_data = _phase_unitary(n, theta)
    p_attack = PauliString(m, (1 << m) - 1, 0, 0)
    attack = AttackSpec.double(AttackSpec.fixed_pauli(p_attack),
                               AttackSpec.fixed_pauli(p_attack))
    honest = soundness_double("trap", n, t, attack, encode=u_data)
    if not dense:
        # Same key on both uses: the decrypted attack operator is the same
        # uniformly-relabeled Pauli V before and after the encoding, the flag
        # factors square to identity, and only the data axes survive.
        table = _get_table(psi, u_data)
        broken = float(np.mean([1.0 - table.overlap(v, v)
                                for v in paulis_on_support(n, (1 << n) - 1)]))
        return broken, honest.lhs, honest.bound
    if m > 3:
        raise ValueError("replay enumeration capped at m = 3, got m = %d" % m)
    # Shared key U = L P_f, L = u_1 x ... x u_m: with P = X on every slot and E the
    # encoding, U^dag P U E U^dag P U = P_f^dag A P_f, A one 2x2 factor
    # (u^dag X u) e (u^dag X u) per slot, e = exp(-i theta Z / 2) on data slots and
    # I on flags.  P_f carries each slot's factor to its logical qubit, so every
    # placement gives the same sum: data factors on the first n qubits, flag
    # factors on the last t.
    flips = [u.conj().T @ PAULI_1Q["X"] @ u for u in enumerate_clifford(1)]
    flag, data = [(a, a.conj().swapaxes(1, 2))
                  for a in (flips @ e @ flips for e in (np.eye(2), _phase_unitary(1, theta)))]
    vec = _logical_start(psi, t)
    rho = local_product_sum(np.outer(vec, vec.conj()), [data] * n + [flag] * t)
    return _accept(rho, t, u_data @ psi)[1] / 24 ** m, honest.lhs, honest.bound


# --------------------------------------------------------------------------
# privacy


def privacy_deviation(protocol: str, n: int, t: int, *,
                      data_state: np.ndarray | None = None) -> float:
    """Max-norm distance of the key-averaged encrypted state from I/2^m.

    Every key is l . r modulo phase, l = U_1 x ... x U_m a local Clifford
    layer and r one of ``_dense_reps``: a flag placement for trap and
    delegated keys (m <= 3), R_m for Clifford keys (m <= 2).  The exact key
    average is the local-Clifford sum of the mixture of the r |v><v| r^dag,
    v the logical start.
    """
    psi = _data_state(n, t, data_state)
    m = n + t
    reps = np.concatenate(_dense_reps(protocol, n, t))
    states = np.einsum("rab,b->ra", reps, _logical_start(psi, t))
    units = enumerate_clifford(1)
    pairs = [(units, units.conj().swapaxes(1, 2))] * m
    avg = local_product_sum(states.T @ states.conj(), pairs) / (24 ** m * len(states))
    return float(np.max(np.abs(avg - np.eye(1 << m) / (1 << m))))


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


def _delegated_rule(decrypted: np.ndarray, is_flag: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(accepted, s) of delegated rounds whose attack term decrypts to ``decrypted``.

    ``decrypted[..., q]`` is the axis code of C_q^dag P_q C_q on slot q.  The
    server's measurement of C X C^dag (data) or C Z C^dag (flags) on the attacked
    register reads X or Z on D|start>, D the decrypted attack.  A flag starts
    in |0>, so it reads +1 exactly when D has no x bit there; the data parity
    X^n of GHZ_theta reads +-1 with mean s cos(n theta), s = (-1)^(number of
    data slots where D has a z bit), since the signs of D cancel.  ``is_flag``
    is boolean, so ``decrypted & is_flag`` is the x bit on the flag slots.
    """
    accepted = ~(decrypted & is_flag).any(axis=-1)
    parity = np.bitwise_xor.reduce((decrypted >> 1) & ~is_flag, axis=-1)
    return accepted, 1 - 2 * parity


def end_to_end_demo(n: int, t: int, nu: int, attack: AttackSpec,
                    seed: int = 0) -> DemoResult:
    """Delegated GHZ phase estimation under attack, with integrity bounds.

    Runs ``nu`` delegated parity-measurement rounds at a seeded phase, keeps
    the accepted ones, inverts the mean parity through the first-order
    expansion around theta_0 = theta_true, and reports the empirical bias
    and MSE next to the bounds derived from the attack's exact soundness and
    acceptance rate.  The phase comes from child 0 of ``SeedSequence(seed)``, all
    keys from one ``_draw_trap_keys`` call on children 1 and 2, then the term and
    outcome uniforms from the slot generator; the decrypt table is read once.
    """
    m = n + t
    if m > 6:
        raise ValueError("demo register capped at 6 qubits")
    if nu > 10 ** 5:
        raise ValueError("demo round count capped at 1e5")
    master = np.random.SeedSequence(seed)
    setup = np.random.default_rng(master.spawn(1)[0])
    theta0 = (0.5 * math.pi + float(setup.uniform(-0.5, 0.5))) / n

    mean_o = math.cos(n * theta0)
    slope = -n * math.sin(n * theta0)
    var_ideal = 1.0 - mean_o * mean_o

    report = soundness_delegated(n, t, attack, theta=theta0)
    ip = IntegrityParams(o=1.0, dO_dtheta=slope, delta=report.lhs,
                         alpha=report.accept_rate, nu=nu)

    terms = attack.pauli_terms(m)
    cum = np.cumsum([max(p, 0.0) for p, _ in terms])
    codes = np.array([_axis_codes(q) for _, q in terms])

    stream = _key_stream(master)
    flags, local = _draw_trap_keys(stream, nu, m, t)
    u_term, u_out = stream[1].random((2, nu))
    term = np.minimum(np.searchsorted(cum, u_term * cum[-1], side="right"), len(terms) - 1)
    is_flag = (flags[:, :, None] == np.arange(m)).any(axis=1)
    accepted, s = _delegated_rule(_local_key_tables()[local[:, 0], codes[term]], is_flag)
    arr = np.where(u_out < (1.0 + s * mean_o) / 2, 1.0, -1.0)[accepted]
    n_acc = arr.size
    if n_acc < 2:
        raise ArithmeticError("attack rejected essentially every round")
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

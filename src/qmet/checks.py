"""Closed-form-vs-oracle cross-check suite shared by the CLI and the tests.

Every check recomputes a closed form and an independent reference (dense
oracle, exact enumeration, or a printed constant) and returns its measures
with a one-line summary.  A measure is ``(label, value, lo, hi)``: a
deviation, a fitted constant or a count of mismatches, with the bounds it
must meet.  ``run_checks`` reaches every verdict by one rule: a check passes
when each of its measures satisfies ``lo <= value <= hi``.  A NaN satisfies
no bound, so a closed form that returns NaN fails its check; worst-case
deviations are taken with ``np.max``, which keeps a NaN where a running
Python ``max`` would drop it.  A check that raises fails with the
exception's message.  A passing check reports its summary; a failing one
lists each failing measure with its value and bounds.  Check output
contains no timing or other run-local state, so two runs with the same
build produce byte-identical reports.

Setting the environment variable QMET_VERIFY_PERTURB to a non-empty value
biases one constant inside the star-graph check; the suite must then fail.
That is the negative control for the harness itself.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass, replace
from typing import Callable, Iterable

import numpy as np

from . import crypto, dense, ecc, estimation, graphs, pauli

# (label, value, lo, hi); the measure holds when lo <= value <= hi.
Measure = tuple[str, float, float, float]


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str
    measures: tuple[Measure, ...]


_REGISTRY: list[tuple[str, bool, Callable[[], tuple[list[Measure], str]]]] = []


def _register(name: str, *, quick: bool):
    def deco(fn):
        _REGISTRY.append((name, quick, fn))
        return fn
    return deco


def _at_most(label: str, value: float, hi: float) -> Measure:
    return (label, value, -math.inf, hi)


def check_names(*, quick: bool = False) -> list[str]:
    return [name for name, q, _ in _REGISTRY if q or not quick]


def run_checks(*, quick: bool = False,
               names: Iterable[str] | None = None) -> list[CheckResult]:
    wanted = set(names) if names is not None else None
    results = []
    for name, is_quick, fn in _REGISTRY:
        if wanted is not None and name not in wanted:
            continue
        if wanted is None and quick and not is_quick:
            continue
        try:
            measures, summary = fn()
        except Exception as exc:  # a crash is a failed check, not a crashed suite
            results.append(CheckResult(name, False, "%s: %s" % (type(exc).__name__, exc), ()))
            continue
        failing = [m for m in measures if not m[2] <= m[1] <= m[3]]
        detail = "; ".join("%s %.6g outside [%.6g, %.6g]" % m for m in failing)
        results.append(CheckResult(name, not failing, detail or summary, tuple(measures)))
    return results


# graph helpers


def _is_connected(n: int, edges: list[tuple[int, int]]) -> bool:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {0}
    stack = [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def connected_graphs_upto_iso(n: int) -> list[graphs.Graph]:
    """All connected graphs on n vertices, one representative per isomorphism class."""
    pairs = list(itertools.combinations(range(n), 2))
    perms = list(itertools.permutations(range(n)))
    seen: set[tuple] = set()
    out = []
    for mask in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if (mask >> i) & 1]
        if not _is_connected(n, edges):
            continue
        canon = min(
            tuple(sorted(tuple(sorted((p[u], p[v]))) for u, v in edges))
            for p in perms
        )
        if canon in seen:
            continue
        seen.add(canon)
        out.append(graphs.Graph.from_edges(n, edges))
    return out


def seeded_connected_graphs(n: int, count: int, seed: int) -> list[graphs.Graph]:
    rng = np.random.default_rng(seed)
    pairs = list(itertools.combinations(range(n), 2))
    out = []
    while len(out) < count:
        edges = [e for e in pairs if rng.random() < 0.5]
        if _is_connected(n, edges):
            out.append(graphs.Graph.from_edges(n, edges))
    return out


def _bundled_star(n: int, k: int) -> graphs.Graph:
    return graphs.bundle(graphs.star(k), [n // k] * k)


def _rel(a: float, b: float) -> float:
    return abs(a - b) / b


def _dev(got: float, ref: float) -> float:
    """Deviation relative to max(1, |ref|), for references that may be near 0."""
    return abs(got - ref) / max(1.0, abs(ref))


@_register("graph-closed-forms", quick=True)
def _check_graph_closed_forms() -> tuple[list[Measure], str]:
    bias = 1 if os.environ.get("QMET_VERIFY_PERTURB") else 0
    mismatches = sum(graphs.qfi_x(graphs.star(n)) != (n - 1) ** 2 + 1 + bias
                     for n in range(3, 9))
    mismatches += graphs.qfi_x(graphs.bundle(graphs.complete(3), [3, 4, 3])) != 34
    # the hub bundle (b = n/k vertices) and the merged leaf clones are the
    # only two neighborhood classes
    paper = [(12, 3), (12, 4), (20, 5)]
    small = [(n, k) for n in range(2, 9) for k in range(2, n + 1) if n % k == 0]
    vals = []
    deltas = []
    for n, k in paper + small:
        g = _bundled_star(n, k)
        got = graphs.qfi_x(g)
        mismatches += got != (n // k) ** 2 + (n - n // k) ** 2
        vals.append(got)
        deltas.append(abs(got - graphs.oracle_graph_qfi(g)))
    delta = np.max(deltas)
    hook = " (perturbation hook active)" if bias else ""
    return ([("integer qfi mismatches" + hook, mismatches, 0, 0),
             _at_most("bundled star oracle delta", delta, 1e-6)],
            "stars n=3..8 exact; bundled stars %d/%d/%d; oracle delta "
            "%.1e at %d sizes n<=20" % (*vals[:len(paper)], delta, len(vals)))


@_register("graph-oracle-quick", quick=True)
def _check_graph_oracle_quick() -> tuple[list[Measure], str]:
    cases = [graphs.star(5), graphs.cycle(5), graphs.cycle(6), graphs.path(4),
             graphs.complete(4), graphs.bundle(graphs.star(3), [2, 2, 2])]
    worst = np.max([_rel(graphs.qfi_x(g), graphs.oracle_graph_qfi(g)) for g in cases])
    worst_y = np.max([_rel(graphs.qfi_y(g), graphs.oracle_graph_qfi(g, "y"))
                      for g in (graphs.star(5), graphs.complete(3))])
    g = graphs.star(5)
    d_deph = _dev(graphs.qfi_dephasing(g, 0.1),
                  graphs.oracle_graph_qfi(g, noise=("dephasing", 0.1)))
    g = graphs.star(4)
    worst_e = np.max([_dev(graphs.qfi_erasure(g, pat),
                           graphs.oracle_graph_qfi(g, noise=("erasure", pat)))
                      for pat in ((0,), (1, 2))])
    return ([_at_most("qfi_x vs oracle worst rel", worst, 1e-6),
             _at_most("qfi_y vs oracle worst rel", worst_y, 1e-6),
             _at_most("dephasing p=0.1 star5 delta", d_deph, 1e-8),
             _at_most("erasure star4 worst delta", worst_e, 1e-8)],
            "x/y rel %.1e/%.1e, dephasing %.1e, erasure %.1e"
            % (worst, worst_y, d_deph, worst_e))


@_register("graph-oracle-exhaustive", quick=False)
def _check_graph_oracle_exhaustive() -> tuple[list[Measure], str]:
    pool = []
    for n in range(2, 6):
        pool.extend(connected_graphs_upto_iso(n))
    pool.extend(seeded_connected_graphs(6, 20, seed=601))
    rel_x, dev_d, dev_e = [], [], []
    for n in range(9, 15):  # noiseless only: statevector sizes past the dense cap
        for g in seeded_connected_graphs(n, 5, seed=900 + n):
            for enc, want in (("x", graphs.qfi_x(g)), ("y", graphs.qfi_y(g)), ("z", n)):
                rel_x.append(_rel(graphs.oracle_graph_qfi(g, enc), want))
    for g in pool:
        rel_x.append(_rel(graphs.qfi_x(g), graphs.oracle_graph_qfi(g)))
        dev_d += [_dev(graphs.qfi_dephasing(g, p),
                       graphs.oracle_graph_qfi(g, noise=("dephasing", p)))
                  for p in (0.05, 0.1, 0.25)]
        patterns = [(v,) for v in range(g.n)]
        patterns += list(itertools.combinations(range(g.n), 2))
        dev_e += [_dev(graphs.qfi_erasure(g, pat),
                       graphs.oracle_graph_qfi(g, noise=("erasure", pat)))
                  for pat in patterns]
    worst_x, worst_d, worst_e = np.max(rel_x), np.max(dev_d), np.max(dev_e)
    return ([_at_most("noiseless worst rel", worst_x, 1e-6),
             _at_most("dephasing worst delta", worst_d, 1e-8),
             _at_most("erasure worst delta", worst_e, 1e-8)],
            "%d graphs n<=6, 30 at n=9..14 (x/y/z); worst rel noiseless %.1e, "
            "dephasing %.1e, erasure %.1e" % (len(pool), worst_x, worst_d, worst_e))


@_register("graph-z-encoding", quick=True)
def _check_graph_z_encoding() -> tuple[list[Measure], str]:
    rng = np.random.default_rng(401)
    rels = []
    for _ in range(20):
        n = int(rng.integers(2, 7))
        g = seeded_connected_graphs(n, 1, seed=int(rng.integers(1 << 30)))[0]
        rels.append(_rel(graphs.oracle_graph_qfi(g, "z"), n))
    worst = np.max(rels)
    return ([_at_most("worst rel deviation from n", worst, 1e-6)],
            "20 graphs n<=6: worst rel deviation from n: %.1e" % worst)


# ecc helpers


def lindblad_ghz_qfi(n: int, omega: float, gamma: float, t: float) -> float:
    """Dense Lindblad QFI of the uncorrected GHZ probe (transverse noise)."""
    ham_ops = []
    jump_ops = []
    for j in range(n):
        ops = [dense.ID2] * n
        ops[j] = dense.SZ
        ham_ops.append(dense.kron_all(ops))
        ops[j] = dense.SX
        jump_ops.append(dense.kron_all(ops))
    # H = (omega / 2) sum_j Z_j, so dH / domega = H / omega.
    dham = 0.5 * sum(ham_ops)
    rho, drho = dense.evolve_lindblad_tangent(
        dense.pure(dense.ghz(n)), omega * dham, dham,
        [(op, gamma) for op in jump_ops], t, tol=1e-12)
    return dense.sld_qfi(rho, drho)


_FREE_POINTS = [(1.0, 0.10, 0.15), (1.0, 0.25, 0.15), (0.7, 0.20, 0.2),
                (1.3, 0.05, 0.25), (0.5, 0.15, 0.25), (1.0, 0.20, 0.1),
                (0.8, 0.10, 0.225), (1.2, 0.15, 0.125), (0.6, 0.25, 0.175)]


@_register("ecc-free-decay", quick=False)
def _check_ecc_free_decay() -> tuple[list[Measure], str]:
    points = [(n,) + p for n in range(2, 7) for p in _FREE_POINTS]
    worst = np.max([_rel(ecc.qfi_no_ecc(n, omega, gamma, t),
                         lindblad_ghz_qfi(n, omega, gamma, t))
                    for n, omega, gamma, t in points])
    measures = [_at_most("closed form vs Lindblad oracle worst rel", worst, 1e-6)]
    coefs = []
    for n in (5, 10):
        gamma = 1.0
        ts = np.array([0.004, 0.008, 0.012, 0.016, 0.020])
        vals = np.array([ecc.qfi_no_ecc(n, gamma, gamma, t) for t in ts])
        coef = np.polyfit(ts, 1.0 - vals / (n * ts) ** 2, 2)[1]
        target = 2.0 - 4.0 / (3.0 * n)
        coefs.append((coef, target))
        measures.append(_at_most("short-time coefficient n=%d rel" % n,
                                 _rel(coef, target), 0.01))
    return measures, ("%d points worst rel %.1e; decay coefficients %.4f/%.4f "
                      "vs 2-4/(3n) %.4f/%.4f"
                      % (len(points), worst, coefs[0][0], coefs[1][0], coefs[0][1],
                         coefs[1][1]))


_PARITY_POINTS = [(1.0, 0.2, 0.1, 0.3, 0.05), (0.8, 0.35, 0.07, 0.1, 0.02),
                  (1.2, 0.1, 0.12, 0.5, 0.08)]


@_register("ecc-parity-oracle", quick=False)
def _check_ecc_parity_oracle() -> tuple[list[Measure], str]:
    # Each case is the general point with the noise it leaves out set to 0.
    cases = {"ideal": ({"xi": 0.0, "p": 0.0}, ecc.qfi_parity_ideal),
             "noisy_ancilla": ({"p": 0.0}, lambda q: ecc.qfi_parity_noisy_ancilla(q)[0]),
             "imperfect": ({"xi": 0.0}, ecc.qfi_parity_imperfect),
             "general": ({}, ecc.qfi_parity)}
    rels = {label: [] for label in cases}
    for n in (2, 3, 4):
        general = [ecc.EccParams(n=n, omega=omega, gamma=gamma, tau=tau, t=rounds * tau,
                                 xi=xi, p=p)
                   for rounds in (1, 2, 5) for omega, gamma, tau, xi, p in _PARITY_POINTS]
        for label, (zeroed, fn) in cases.items():
            points = [replace(q, **zeroed) for q in general]
            refs = ecc.oracle_sweep("parity", points).tolist()
            rels[label] += [_rel(fn(q), ref) for q, ref in zip(points, refs)]
    worst = sorted((label, np.max(v)) for label, v in rels.items())
    limit = ecc.qfi_parity_imperfect(
        ecc.EccParams(n=25, omega=1.0, gamma=1.0, tau=1e-5, t=1e-2, p=0.01))
    norm = limit / (25 * 1e-2) ** 2
    target = (1.0 - 2 * 0.01) ** 2
    measures = [_at_most("%s closed form vs amplitude oracle rel" % label, v, 1e-6)
                for label, v in worst]
    measures.append(_at_most("tau->0 limit deviation", abs(norm - target), 1e-4))
    return measures, ("108 cases worst rel " + ", ".join("%s %.1e" % kv for kv in worst)
                      + "; tau->0 limit %.6f vs %.4f" % (norm, target))


@_register("ecc-bitflip", quick=False)
def _check_ecc_bitflip() -> tuple[list[Measure], str]:
    measures = []
    ratios_all = []
    for n in (3, 5):
        gaps = []
        for rounds in (10, 20, 40):
            params = ecc.EccParams(n=n, omega=1.0, gamma=1.0, tau=0.8 / rounds,
                                   t=0.8)
            gaps.append(abs(ecc.qfi_bitflip(params) - ecc.qfi_parity_ideal(params)))
        ratios = [gaps[0] / gaps[1], gaps[1] / gaps[2]]
        ratios_all.append(ratios)
        lo, hi = 2 ** ((n - 1) / 2 - 0.5), 2 ** ((n - 1) / 2 + 0.5)
        measures += [("halving ratio n=%d rounds %s" % (n, pair), r, lo, hi)
                     for pair, r in zip(("10/20", "20/40"), ratios)]
    params = ecc.EccParams(n=3, omega=1.0, gamma=0.2, tau=0.1, t=0.3)
    _, ref = ecc.amplitude_oracle(params, "bitflip")
    rel = _rel(ecc.qfi_bitflip(params), ref)
    measures.append(_at_most("bitflip vs amplitude oracle n=3 rel", rel, 1e-6))
    return measures, ("halving ratios n=3: %.2f/%.2f, n=5: %.2f/%.2f; "
                      "oracle rel %.1e" % (*ratios_all[0], *ratios_all[1], rel))


@_register("ecc-plateau-collapse", quick=True)
def _check_ecc_plateau() -> tuple[list[Measure], str]:
    n = 25
    measures = []
    onsets = []
    for ratio in (20.0, 1.0 / 20.0):
        omega = 1.0
        gamma = omega / ratio
        for rounds in (10 ** 3, 10 ** 6):
            taus = np.geomspace(1e-7, 1.0, 71)

            def norm_qfi(tau: float) -> float:
                t = rounds * tau
                params = ecc.EccParams(n=n, omega=omega, gamma=gamma, tau=tau, t=t)
                return ecc.qfi_parity_ideal(params) / (n * t) ** 2

            curve = np.array([norm_qfi(tau) for tau in taus])
            case = "ratio %.3g rounds 1e%d" % (ratio, int(math.log10(rounds)))
            measures += [(case + " plateau", curve[0], 0.9, math.inf),
                         _at_most(case + " tail", curve[-1], 0.1),
                         _at_most(case + " largest rise", np.max(np.diff(curve)), 1e-6)]
            if ratio > 1.0:
                idx = int(np.searchsorted(-curve, -0.5))
                lo, hi = taus[idx - 1], taus[idx]
                for _ in range(60):
                    mid = math.sqrt(lo * hi)
                    if norm_qfi(mid) > 0.5:
                        lo = mid
                    else:
                        hi = mid
                tau_star = math.sqrt(lo * hi)
                onset = (4.0 / 3.0) * n * omega ** 2 * tau_star ** 2 * gamma \
                    * (rounds * tau_star)
                onsets.append(onset)
                measures.append((case + " collapse onset", onset, 0.3, 3.0))
    return measures, ("plateau/collapse shape holds; onsets %.3f/%.3f in [0.3, 3]"
                      % tuple(onsets))


def _random_density(m: int, rng: np.random.Generator) -> np.ndarray:
    dim = 1 << m
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


@_register("twirl-lemmas", quick=False)
def _check_twirl_lemmas() -> tuple[list[Measure], str]:
    res_p = []
    for m in (1, 2, 3):
        rng = np.random.default_rng(70 + m)
        rho = _random_density(m, rng)
        elems = list(pauli.all_paulis(m))
        res_p += [pauli.verify_twirl("pauli", q, qp, rho)
                  for q, qp in itertools.permutations(elems, 2)]
    res_c = []
    rng = np.random.default_rng(81)
    elems2 = list(pauli.all_paulis(2))
    for _ in range(40):
        q, qp = rng.choice(len(elems2), size=2, replace=False)
        q, qp = elems2[int(q)], elems2[int(qp)]
        rho = _random_density(2, rng)
        res_c.append(pauli.verify_twirl("clifford", q, qp, rho))
    res_l = []
    rng = np.random.default_rng(82)
    for _ in range(40):
        m = int(rng.integers(1, 4))
        elems = list(pauli.all_paulis(m))
        q, qp = rng.choice(len(elems), size=2, replace=False)
        q, qp = elems[int(q)], elems[int(qp)]
        rho = _random_density(m, rng)
        res_l.append(pauli.verify_twirl("local_clifford", q, qp, rho))
    worst_p, worst_c, worst_l = np.max(res_p), np.max(res_c), np.max(res_l)
    return ([_at_most("pauli twirl worst residual", worst_p, 1e-10),
             _at_most("clifford twirl worst residual", worst_c, 1e-10),
             _at_most("local clifford twirl worst residual", worst_l, 1e-10)],
            "residuals: pauli %.1e, clifford %.1e, local %.1e"
            % (worst_p, worst_c, worst_l))


# soundness battery


def battery_attacks(m: int, seed: int = 90) -> list[crypto.AttackSpec]:
    """Identity, every fixed Pauli, 20 seeded mixtures, depolarizing at 4 strengths."""
    rng = np.random.default_rng(seed + m)
    specs = [crypto.AttackSpec.identity()]
    for p in pauli.all_paulis(m, include_identity=False):
        specs.append(crypto.AttackSpec.fixed_pauli(p))
    axes = "IXYZ"
    for _ in range(20):
        k = int(rng.integers(2, 5))
        labels = ["".join(rng.choice(list(axes), size=m)) for _ in range(k)]
        w = rng.dirichlet(np.ones(k))
        terms = [(float(w[i]), pauli.PauliString.from_label(labels[i]))
                 for i in range(k)]
        specs.append(crypto.AttackSpec.pauli_mixture(terms))
    for s in (0.1, 0.4, 0.7, 1.0):
        specs.append(crypto.AttackSpec.depolarizing(s))
    return specs


_BATTERY_SIZES = [(1, 1), (2, 1), (2, 2), (3, 1)]


@_register("soundness-exact-battery", quick=False)
def _check_soundness_battery() -> tuple[list[Measure], str]:
    count = 0
    rng = np.random.default_rng(91)
    for n, t in _BATTERY_SIZES:
        m = n + t
        specs = battery_attacks(m)
        for spec in specs:
            # SoundnessReport raises if an exact lhs exceeds its bound
            crypto.soundness_trap_single(n, t, spec)
            crypto.soundness_clifford_single(n, t, spec)
            crypto.soundness_delegated(n, t, spec, theta=0.3)
            count += 3
        pair_idx = rng.choice(len(specs), size=(10, 2))
        pairs = [(specs[int(i)], specs[int(j)]) for i, j in pair_idx]
        pairs += [(specs[0], specs[0]), (specs[1], specs[1]),
                  (specs[-1], specs[-1])]
        for first, second in pairs:
            spec2 = crypto.AttackSpec.double(first, second)
            crypto.soundness_double("trap", n, t, spec2)
            crypto.soundness_double("clifford", n, t, spec2)
            count += 2
    lhs, worst = crypto.worst_fixed_pauli("trap", 2, 2)
    return ([_at_most("worst fixed Pauli lhs at (2,2)", lhs, 0.75)],
            "%d exact reports within bounds at sizes %s; worst (2,2) "
            "Pauli %s lhs %.4f" % (count, _BATTERY_SIZES, worst.label(), lhs))


@_register("soundness-dual-path", quick=False)
def _check_soundness_dual_path() -> tuple[list[Measure], str]:
    def delta(report, dense_pair):
        return np.max(np.abs(np.subtract((report.lhs, report.accept_rate), dense_pair)))

    cases = []
    for label in ("XI", "-YZ", "ZZ"):
        cases.append((1, 1, crypto.AttackSpec.fixed_pauli(label)))
    cases.append((1, 1, crypto.AttackSpec.depolarizing(0.3)))
    cases.append((1, 1, crypto.AttackSpec.depolarizing(1.0)))
    cases.append((1, 1, crypto.AttackSpec.pauli_mixture(
        [(0.6, pauli.PauliString.from_label("IX")),
         (0.4, pauli.PauliString.from_label("ZY"))])))
    for label in ("XIZ", "YYX"):
        cases.append((2, 1, crypto.AttackSpec.fixed_pauli(label)))
    cases.append((2, 1, crypto.AttackSpec.pauli_mixture(
        [(0.5, pauli.PauliString.from_label("III")),
         (0.3, pauli.PauliString.from_label("ZXI")),
         (0.2, pauli.PauliString.from_label("XYZ"))])))
    cases.append((1, 2, crypto.AttackSpec.fixed_pauli("XZY")))
    trap = [delta(crypto.soundness_trap_single(n, t, spec),
                  crypto.dense_trap_single(n, t, spec)) for n, t, spec in cases]
    cliff_cases = [crypto.AttackSpec.identity(),
                   crypto.AttackSpec.depolarizing(0.6),
                   crypto.AttackSpec.fixed_pauli("XZ"),
                   crypto.AttackSpec.fixed_pauli("-IY"),
                   crypto.AttackSpec.pauli_mixture(
                       [(0.7, pauli.PauliString.from_label("II")),
                        (0.3, pauli.PauliString.from_label("XY"))])]
    cliff = [delta(crypto.soundness_clifford_single(1, 1, spec),
                   crypto.dense_clifford_single(1, 1, spec)) for spec in cliff_cases]
    dbl_cases = [
        (1, 1, crypto.AttackSpec.double(crypto.AttackSpec.fixed_pauli("XI"),
                                        crypto.AttackSpec.fixed_pauli("ZY"))),
        (1, 1, crypto.AttackSpec.double(crypto.AttackSpec.depolarizing(0.5),
                                        crypto.AttackSpec.pauli_mixture(
                                            [(0.8, pauli.PauliString.from_label("II")),
                                             (0.2, pauli.PauliString.from_label("XX"))]))),
        (2, 1, crypto.AttackSpec.double(crypto.AttackSpec.fixed_pauli("XIZ"),
                                        crypto.AttackSpec.fixed_pauli("IYI"))),
    ]
    dbl = [delta(crypto.soundness_double("trap", n, t, spec),
                 crypto.dense_trap_double(n, t, spec)) for n, t, spec in dbl_cases]
    spec = crypto.AttackSpec.double(crypto.AttackSpec.fixed_pauli("XY"),
                                    crypto.AttackSpec.fixed_pauli("XY"))
    cliff_dbl = delta(crypto.soundness_double("clifford", 1, 1, spec),
                      crypto.dense_clifford_double(1, 1, spec))
    broken, honest, bound = crypto.replay_attack_demo(2, 1, 0.7)
    broken_d, honest_d, _ = crypto.replay_attack_demo(2, 1, 0.7, dense=True)
    replay = np.max(np.abs(np.subtract((broken, honest), (broken_d, honest_d))))
    worst = np.max(trap + cliff + dbl + [cliff_dbl, replay])
    broken, honest, bound = crypto.replay_attack_demo(1, 4, 0.5 * math.pi)
    return ([_at_most("trap single casework vs dense worst delta", np.max(trap), 1e-9),
             _at_most("clifford single (1,1) casework vs dense worst delta",
                      np.max(cliff), 1e-9),
             _at_most("trap double casework vs dense worst delta", np.max(dbl), 1e-9),
             _at_most("clifford double (1,1) casework vs dense delta", cliff_dbl, 1e-9),
             _at_most("replay demo two-path delta", replay, 1e-9),
             ("replay (1,4) broken", broken, math.nextafter(bound, math.inf), math.inf),
             _at_most("replay (1,4) honest", honest, bound + 1e-9)],
            "casework vs dense enumeration: worst delta %.1e; replay "
            "broken %.4f > bound %.4f > honest %.4f" % (worst, broken, bound, honest))


@_register("sampled-vs-exact", quick=False)
def _check_sampled_vs_exact() -> tuple[list[Measure], str]:
    # z = |sampled - exact| / stderr at seed 0; a stderr at rounding level
    # (the attack commutes with every key) asks for equality to 1e-12 instead.
    mix3 = crypto.parse_attack("mix:0.6*III,0.4*XZY")
    pair3 = crypto.parse_attack("double:mix:0.6*III,0.4*XZY;depol:0.5")
    encode = crypto._phase_unitary(2, 0.7)
    cases = [
        ("trap1 (2,1)", lambda **kw: crypto.soundness_trap_single(2, 1, mix3, **kw), 2000),
        ("trap1 (5,2)", lambda **kw: crypto.soundness_trap_single(
            5, 2, crypto.parse_attack("mix:0.9*IIIIIII,0.1*XZYXZYX"), **kw), 2000),
        ("trap1 (4,3) depol", lambda **kw: crypto.soundness_trap_single(
            4, 3, crypto.parse_attack("depol:0.37"), **kw), 2),
        ("trap2 (2,1)", lambda **kw: crypto.soundness_double("trap", 2, 1, pair3,
                                                            encode=encode, **kw), 200),
        ("cliff1 (2,1)", lambda **kw: crypto.soundness_clifford_single(2, 1, mix3, **kw), 200),
        ("cliff2 (2,1)", lambda **kw: crypto.soundness_double("clifford", 2, 1, pair3,
                                                             encode=encode, **kw), 200),
    ]
    measures, zs = [], []
    for label, report, trials in cases:
        exact = report()
        sampled = report(mode="sampled", trials=trials, seed=0)
        delta = abs(sampled.lhs - exact.lhs)
        if sampled.stderr > 1e-12:
            zs.append(delta / sampled.stderr)
            measures.append(_at_most("%s z" % label, zs[-1], 4.0))
        else:
            measures.append(_at_most("%s |delta| at zero stderr" % label, delta, 1e-12))
    return (measures, "%d sampled reports vs exact (m = 3 and 7): worst z %.2f, "
            "%d at zero stderr" % (len(cases), np.max(zs), len(cases) - len(zs)))


@_register("privacy", quick=True)
def _check_privacy() -> tuple[list[Measure], str]:
    measures = [_at_most("%s (%d,%d) deviation" % case, crypto.privacy_deviation(*case), 1e-10)
                for case in (("trap", 1, 1), ("trap", 2, 1), ("trap", 1, 2),
                             ("clifford", 1, 1), ("delegated", 2, 1))]
    return measures, ("key-averaged deviation from I/2^m: worst %.1e"
                      % np.max([m[1] for m in measures]))


@_register("integrity-demo", quick=False)
def _check_integrity_demo() -> tuple[list[Measure], str]:
    attack = crypto.parse_attack("mix:0.99*III,0.01*ZII")
    r = crypto.end_to_end_demo(2, 1, 10 ** 4, attack, seed=13)
    bias_hi = r.bound_bias + 4 * r.bias_stderr
    excess = r.empirical_mse - r.ideal_mse
    mse_hi = r.bound_mse + 4 * r.mse_stderr
    return ([_at_most("|bias|", abs(r.empirical_bias), bias_hi),
             _at_most("mse excess", excess, mse_hi)],
            "bias %.4e <= %.4e, mse excess %.4e <= %.4e (accept rate %.3f, "
            "%d rounds kept)" % (abs(r.empirical_bias), bias_hi, excess, mse_hi,
                                 r.accept_rate, r.rounds_accepted))


@_register("estimation-primitives", quick=True)
def _check_estimation() -> tuple[list[Measure], str]:
    bias_devs, var_devs = [], []
    for p_true in (0.3, 0.42, 0.5, 0.8):
        for n_flips in range(1, 21):
            s = estimation.coin_mle_stats(p_true, n_flips)
            bias_devs.append(abs(s.bias))
            var_devs.append(abs(s.variance - p_true * (1 - p_true) / n_flips))
    phase_mismatches = sum((estimation.phase_qfi(n, "ghz") != n * n)
                           + (estimation.phase_qfi(n, "separable") != n)
                           for n in range(1, 7))
    mse_rels = []
    for n in range(2, 7):
        theta = 0.9 / n
        pmf = estimation.Pmf([
            ("+", lambda th, n=n: (1 + math.cos(n * th)) / 2),
            ("-", lambda th, n=n: (1 - math.cos(n * th)) / 2)])
        stats = estimation.local_estimator_stats(pmf, theta, 10)
        mse_rels.append(_rel(stats.mse, 1.0 / (10 * n * n)))
    rng = np.random.default_rng(55)
    heat_rels, links = [], []
    for _ in range(5):
        levels = np.sort(rng.uniform(0.0, 3.0, size=4))
        temp = float(rng.uniform(0.4, 2.0))
        h = 1e-5 * temp

        def mean_energy(tt: float) -> float:
            w = estimation.gibbs_weights(levels, tt)
            return float(np.dot(w, levels))

        fd = (mean_energy(temp + h) - mean_energy(temp - h)) / (2 * h)
        hc = estimation.heat_capacity(levels, temp)
        heat_rels.append(abs(fd - hc) / max(abs(hc), 1e-12))
        links.append(abs(estimation.thermometry_qfi(levels, temp) - hc / temp ** 2))
    worst_mse, worst_t = np.max(mse_rels), np.max(heat_rels)
    return ([_at_most("coin worst |bias|", np.max(bias_devs), 1e-12),
             _at_most("coin worst variance delta", np.max(var_devs), 1e-12),
             ("phase qfi mismatches", phase_mismatches, 0, 0),
             _at_most("parity estimator mse vs 1/(nu n^2) worst rel", worst_mse, 1e-8),
             _at_most("thermometry qfi vs C/T^2 worst delta", np.max(links), 1e-12),
             _at_most("heat capacity identity worst rel", worst_t, 1e-6)],
            "coin exact to 1e-12 (N<=20); phase qfi n/n^2; parity mse "
            "rel %.1e; heat capacity rel %.1e" % (worst_mse, worst_t))


@_register("output-determinism", quick=True)
def _check_output_determinism() -> tuple[list[Measure], str]:
    from . import cli

    csv = [cli.ecc_csv("parity", n=3, omega=1.0, gamma=0.2, xi=0.05, p=0.02,
                       tau=0.1, t=0.5, sweep=("tau", 0.05, 0.25, 5, "lin"))
           for _ in range(2)]
    exact = [cli.crypto_json("trap1", 2, 1, "mix:0.9*III,0.1*XZY", trials=400, seed=7)
             for _ in range(2)]
    sampled = [cli.crypto_json("trap1", 5, 2, "mix:0.9*IIIIIII,0.1*XZYXZYX",
                               trials=400, seed=7)
               for _ in range(2)]
    differing = sum(a != b for a, b in (csv, exact, sampled))
    return ([("CSV/JSON reruns that differ", differing, 0, 0),
             ("sampled-mode reports in another mode",
              int('"mode": "sampled"' not in sampled[0]), 0, 0)],
            "%d CSV rows, exact and sampled JSON reports reproduced exactly"
            % (len(csv[0].splitlines()) - 1))

"""Spans around calls into qmet's modules, for the traced run.

The tracer wraps qmet's functions from outside the package: every public
function of a module, plus the private entry points of the sampled crypto
path, is replaced by a wrapper in every qmet module that binds it (so
``kron_all`` is traced as ``dense.kron_all``, ``crypto.kron_all`` and
``pauli.kron_all`` alike), and a few methods are wrapped on their class.
Each call records one span: name, start, end and parent.  Spans stay in
memory (four flat arrays) until the run ends.

Spans nest on one thread, so the children of a span are disjoint intervals
inside it and its self time is its duration minus the sum of theirs.
"""

from __future__ import annotations

import functools
import statistics
import time
from array import array

MODULES = ("cli", "checks", "graphs", "ecc", "crypto", "estimation", "dense", "pauli")

# Label of the span the benchmark opens around each op.
OP_SPAN = "bench.op"

# Private functions that carry a named per-layer metric.
_PRIVATE = {
    "crypto": ("_sample_trap_single", "_sample_clifford_single", "_sample_double"),
}

# Methods wrapped on their class: (module, class, method).
_METHODS = (
    ("pauli", "PauliString", "to_matrix"),
    ("crypto", "AttackSpec", "pauli_terms"),
    ("crypto", "AttackSpec", "kraus_ops"),
)

_DENSE_ENUM = ("crypto.dense_trap_single", "crypto.dense_trap_double",
               "crypto.dense_clifford_single", "crypto.dense_clifford_double",
               "crypto.replay_attack_demo")
_SAMPLED = tuple("crypto." + name for name in _PRIVATE["crypto"])
_ECC_ORACLE = ("ecc.amplitude_oracle", "ecc.propagate_amplitudes")
_GRAPH_ORACLE = ("graphs.graph_state", "graphs.oracle_graph_qfi")

# Every per-layer metric the traced run reports, in output order.
PER_LAYER = tuple(
    ["%s.%s" % (mod, kind) for mod in MODULES for kind in ("calls", "self_s")]
    + ["dense.kron_all.calls", "dense.kron_all.self_s", "dense.kron_all.out_mib",
       "pauli.to_matrix.calls", "pauli.to_matrix.self_s", "pauli.to_matrix_per_twirl",
       "pauli.clifford_to_matrix.calls", "pauli.clifford_to_matrix.self_s",
       "crypto.dense_enum.self_s",
       "dense.evolve_lindblad.calls", "dense.evolve_lindblad.self_s",
       "dense.qfi_spectral.self_s", "dense.evolve_per_qfi",
       "ecc.amplitude_oracle.self_s",
       "graphs.graph_state.calls", "graphs.graph_state.self_s",
       "crypto.sampled.self_s", "crypto.pauli_terms.calls",
       "ecc.closed_form.self_s", "graphs.closed_form.self_s",
       "trace.overhead_s"])

UNITS = {"calls": "count", "self_s": "s", "out_mib": "MiB",
         "to_matrix_per_twirl": "ratio", "evolve_per_qfi": "ratio", "overhead_s": "s"}


def unit_of(metric: str) -> str:
    return UNITS[metric.rsplit(".", 1)[1]]


class Tracer:
    """Collects spans from wrapped qmet functions while installed."""

    def __init__(self) -> None:
        self.labels: list[str] = []
        self._label_ids: dict[str, int] = {}
        self.label_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        # Output bytes of each kron_all call, by span index.
        self.kron_out_bytes: dict[int, int] = {}
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    def _id(self, label: str) -> int:
        if label not in self._label_ids:
            self._label_ids[label] = len(self.labels)
            self.labels.append(label)
        return self._label_ids[label]

    def wrap(self, label: str, fn):
        """Return ``fn`` wrapped so that each call records a span named ``label``."""
        lid = self._id(label)
        stack = self._stack
        label_ids, parents, starts, ends = self.label_id, self.parent, self.start, self.end
        clock = time.perf_counter
        is_kron = label == "dense.kron_all"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            label_ids.append(lid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if is_kron:
                self.kron_out_bytes[idx] = out.nbytes
            return out

        return traced

    def span(self, label: str, fn, *args):
        """Call ``fn(*args)`` inside a span of its own (the benchmark's op span)."""
        return self.wrap(label, fn)(*args)

    def install(self, modules: dict[str, object]) -> None:
        """Wrap the functions of ``modules`` (short name -> module) everywhere they are bound."""
        wrapped: dict[int, object] = {}
        for short, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (callable(obj) and not isinstance(obj, type)
                        and getattr(obj, "__module__", None) == mod.__name__
                        and (not attr.startswith("_") or attr in _PRIVATE.get(short, ()))):
                    wrapped[id(obj)] = (obj, self.wrap("%s.%s" % (short, attr), obj))
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._undo.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])
        for short, cls_name, meth in _METHODS:
            cls = getattr(modules[short], cls_name)
            orig = cls.__dict__[meth]
            self._undo.append((cls, meth, orig))
            setattr(cls, meth, self.wrap("%s.%s" % (short, meth), orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def reset(self) -> None:
        """Drop the recorded spans (the wrappers stay installed)."""
        for arr in (self.label_id, self.parent, self.start, self.end):
            del arr[:]
        self.kron_out_bytes.clear()

    def spans(self) -> list[tuple[str, float, float, int]]:
        return [(self.labels[self.label_id[i]], self.start[i], self.end[i], self.parent[i])
                for i in range(len(self.start))]


def self_times(start, end, parent) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    out = [e - s for s, e in zip(start, end)]
    for i, p in enumerate(parent):
        if p >= 0:
            out[p] -= end[i] - start[i]
    return out


def inside_ops(labels, parent) -> list[bool]:
    """Whether each span is an op span or lies under one.

    Calls the benchmark makes outside an op (an output check, say) record
    spans too; they are not qmet's work on the workload and are left out.
    A parent is recorded before its children, so one pass suffices.
    """
    inside: list[bool] = []
    for label, p in zip(labels, parent):
        inside.append(label == OP_SPAN or (p >= 0 and inside[p]))
    return inside


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of the spans under op spans since the last reset (overhead excluded)."""
    labels = [tracer.labels[i] for i in tracer.label_id]
    selfs = self_times(tracer.start, tracer.end, tracer.parent)
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    inside = inside_ops(labels, tracer.parent)
    for label, s, keep in zip(labels, selfs, inside):
        if keep:
            calls[label] = calls.get(label, 0) + 1
            self_s[label] = self_s.get(label, 0.0) + s

    def total(names, table):
        return sum(table.get(n, 0) for n in names)

    out: dict[str, float] = {}
    for mod in MODULES:
        names = [n for n in calls if n.split(".", 1)[0] == mod]
        out[mod + ".calls"] = total(names, calls)
        out[mod + ".self_s"] = total(names, self_s)
    for name in ("dense.kron_all", "pauli.to_matrix", "pauli.clifford_to_matrix",
                 "dense.evolve_lindblad", "graphs.graph_state"):
        out[name + ".calls"] = calls.get(name, 0)
        out[name + ".self_s"] = self_s.get(name, 0.0)
    out["dense.qfi_spectral.self_s"] = self_s.get("dense.qfi_spectral", 0.0)
    out["ecc.amplitude_oracle.self_s"] = total(_ECC_ORACLE, self_s)
    out["dense.kron_all.out_mib"] = sum(
        b for i, b in tracer.kron_out_bytes.items() if inside[i]) / 2 ** 20
    twirls = calls.get("pauli.verify_twirl", 0)
    out["pauli.to_matrix_per_twirl"] = (
        _calls_under(labels, tracer.parent, "pauli.to_matrix", "pauli.verify_twirl") / twirls
        if twirls else 0.0)
    evolves, qfis = _per_ancestor(labels, tracer.parent, "dense.evolve_lindblad",
                                  "dense.qfi_spectral")
    out["dense.evolve_per_qfi"] = evolves / qfis if qfis else 0.0
    out["crypto.dense_enum.self_s"] = total(_DENSE_ENUM, self_s)
    out["crypto.sampled.self_s"] = total(_SAMPLED, self_s)
    out["crypto.pauli_terms.calls"] = calls.get("crypto.pauli_terms", 0)
    out["ecc.closed_form.self_s"] = out["ecc.self_s"] - total(_ECC_ORACLE, self_s)
    out["graphs.closed_form.self_s"] = out["graphs.self_s"] - total(_GRAPH_ORACLE, self_s)
    return out


def _ancestor(labels, parent, i, name):
    p = parent[i]
    while p >= 0 and labels[p] != name:
        p = parent[p]
    return p


def _calls_under(labels, parent, child, ancestor) -> int:
    return sum(1 for i, lab in enumerate(labels)
               if lab == child and _ancestor(labels, parent, i, ancestor) >= 0)


def _per_ancestor(labels, parent, child, ancestor) -> tuple[int, int]:
    """(calls of ``child`` under an ``ancestor`` span, distinct such ancestors)."""
    seen = set()
    count = 0
    for i, lab in enumerate(labels):
        if lab == child:
            a = _ancestor(labels, parent, i, ancestor)
            if a >= 0:
                seen.add(a)
                count += 1
    return count, len(seen)


def median_metrics(rounds: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(r[k] for r in rounds) for k in rounds[0]}

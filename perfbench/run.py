"""Run one qmet benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a qmet source tree.  The workload's op list (see
workloads.py) is drawn from the seed and issued back to back by one caller;
whole rounds of it repeat while the next round is expected to end within S
seconds of measured time (at least one round runs).  Every op's output is
checked after its timer stops, in every round.  The last line of stdout is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics, or with ``--trace 1`` the per-layer metrics of a traced
run).  ``attempted`` is the length of the op list and ``failed`` the number
of its ops that failed in any round, so neither depends on how many rounds
fit in S seconds.  Raw timings and spans go to perfbench/runs/.
"""

import os

# One OpenBLAS thread, set before numpy loads, so that on a small machine the
# numbers measure qmet and not the scheduler.  Child processes inherit it.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = HERE / "runs"
# Set-up is timed in fresh processes, this many per run, one before each round
# while any are left and the rest after the last; setup_s is their median.
SETUP_PROBES = 5
# Candidate percentiles for the tail latency; the highest with >= 10 ops beyond it is printed.
TAIL_PERCENTILES = (99.9, 99, 95, 90, 75)

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}


def _exit(message: str) -> None:
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def import_qmet() -> None:
    """Import qmet from this tree's src/, never from an installed copy."""
    src = ROOT / "src"
    if not (src / "qmet" / "__init__.py").is_file():
        _exit("no qmet sources under %s; run from a qmet source tree" % src)
    sys.path[:0] = [str(src), str(HERE)]
    import qmet

    if Path(qmet.__file__).resolve().parent != (src / "qmet").resolve():
        _exit("imported qmet from %s, not from %s" % (qmet.__file__, src))


def set_up(workload: str, seed: int, in_process: bool):
    """Everything before the first timed op: inputs and warm-up."""
    import workloads

    ops = workloads.build(workload, seed, ROOT, in_process=in_process)
    workloads.warm_up(workload)
    return ops


def probe_setup(workload: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter until its set-up is done."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(Path(__file__).resolve()), "--setup-probe",
                             "--workload", workload, "--seed", str(seed)],
                            cwd=ROOT, stdout=subprocess.PIPE)
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - t0
    proc.stdout.close()
    if proc.wait() != 0 or line.strip() != b"ready":
        _exit("set-up probe failed")
    return elapsed


class Round:
    """Timings and failures of one pass over the op list."""

    def __init__(self) -> None:
        self.wall = 0.0
        self.latencies: list[float] = []
        # (index of the op in the list, reason, whether the op is a known fault)
        self.failures: list[tuple[int, str, bool]] = []
        self.child_rss_kib: list[int] = []


def run_round(ops, call=lambda fn: fn()) -> Round:
    """Issue every op once, back to back; ``call`` runs an op's call (the traced run wraps it)."""
    r = Round()
    clock = time.perf_counter
    for slot, op in enumerate(ops):
        t0 = clock()
        try:
            out = call(op.call)
            problem = None
        except Exception as exc:  # an op that raises is a failed op
            problem = "%s: %s" % (type(exc).__name__, exc)
        dt = clock() - t0
        r.wall += dt
        r.latencies.append(dt)
        if problem is None:
            try:
                problem = op.check(out)
            except Exception as exc:  # a check that cannot read the output fails the op
                problem = "check raised %s: %s" % (type(exc).__name__, exc)
        if problem is not None:
            r.failures.append((slot, problem, op.known_fault))
        if op.child_maxrss_kib is not None:
            r.child_rss_kib.append(op.child_maxrss_kib)
            op.child_maxrss_kib = None
    return r


def run_rounds(seconds: float, one_round, between=lambda: None) -> list:
    """Whole rounds, at least one, as long as the next is expected to end within ``seconds``.

    ``between`` runs before each round; its time is not counted.
    """
    done = []
    measured = last = 0.0
    while not done or measured + last <= seconds:
        between()
        t0 = time.perf_counter()
        done.append(one_round())
        last = time.perf_counter() - t0
        measured += last
    return done


def tail_percentile(n_ops: int):
    for p in TAIL_PERCENTILES:
        if n_ops * (1 - p / 100) >= 10:
            return p
    return None


def percentile(values: list[float], p: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(len(ordered) * p / 100))]


def summarize(rounds: list[Round], ops) -> tuple[bool, int, int, list[str]]:
    """(correct, attempted, failed, notes) over the op list.

    Every round issues the same ops; an op counts once, as failed if it failed
    in any round.  The run is correct unless an op outside the known-fault
    group failed.
    """
    failed_slots = {slot for r in rounds for slot, _, _ in r.failures}
    correct = all(ops[slot].known_fault for slot in failed_slots)
    notes = []
    seen = set()
    for r in rounds:
        for slot, problem, _ in r.failures:
            op = ops[slot]
            if (op.kind, problem) not in seen:
                seen.add((op.kind, problem))
                notes.append("%s op %s: %s" % ("known-fault" if op.known_fault else "FAILED",
                                               op.kind, problem))
    return correct, len(ops), len(failed_slots), notes


def timed_run(args, ops) -> tuple[dict, dict]:
    probes: list[float] = []

    def probe():
        if len(probes) < SETUP_PROBES:
            probes.append(probe_setup(args.workload, args.seed))

    rounds = run_rounds(args.seconds, lambda: run_round(ops), probe)
    while len(probes) < SETUP_PROBES:
        probe()
    latencies = [x for r in rounds for x in r.latencies]
    child_rss = [kib for r in rounds for kib in r.child_rss_kib]
    rss_kib = statistics.median(child_rss) if child_rss else \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        # One pass over the op list, averaged over the rounds.  The machine's
        # speed drifts in stretches of tens of seconds; a mean weighs each
        # stretch by its length, where a median per op jumps to whichever
        # stretch holds most of the run (see the README).
        "wall_s": statistics.fmean(r.wall for r in rounds),
        "setup_s": statistics.median(probes),
        "peak_rss_mib": rss_kib / 1024,
    }
    # Printed for reading, not gated: on a shared 2-core machine the median
    # latency of sub-millisecond ops spreads further between runs of the same
    # code than any bound a gate could hold (see the README).
    print("op_p50_ms = %.6g ms (%d ops)" % (statistics.median(latencies) * 1e3, len(latencies)))
    p = tail_percentile(len(latencies))
    if p is not None:
        print("op_p%g_ms = %.6g ms (%d ops)" % (p, percentile(latencies, p) * 1e3, len(latencies)))
    raw = {"round_wall_s": [r.wall for r in rounds],
           "op_latency_s": [[op.kind, r.latencies[i]] for r in rounds for i, op in enumerate(ops)],
           "setup_probe_s": probes}
    return metrics, {"rounds": rounds, "raw": raw}


def traced_run(args, ops) -> tuple[dict, dict]:
    """Alternate one untraced and one traced round; report per-layer medians.

    One round runs first, untimed, so that caches filled on first use (the
    Clifford-group enumeration, the casework tables) are full in both the
    untraced and the traced rounds and the overhead compares like with like.
    """
    import numpy as np

    import tracing
    from qmet import checks, cli, crypto, dense, ecc, estimation, graphs, pauli

    modules = {"cli": cli, "checks": checks, "graphs": graphs, "ecc": ecc, "crypto": crypto,
               "estimation": estimation, "dense": dense, "pauli": pauli}
    tracer = tracing.Tracer()
    plain, traced, per_round = [], [], []

    def pair():
        plain.append(run_round(ops))
        tracer.install(modules)
        tracer.reset()
        try:
            traced.append(run_round(ops, lambda fn: tracer.span(tracing.OP_SPAN, fn)))
        finally:
            tracer.uninstall()
        per_round.append(tracing.layer_metrics(tracer))
        return plain[-1], traced[-1]

    warm = run_round(ops)
    pairs = run_rounds(args.seconds, pair)
    metrics = tracing.median_metrics(per_round)
    metrics["trace.overhead_s"] = (statistics.median(r.wall for r in traced)
                                   - statistics.median(r.wall for r in plain))
    RUNS.mkdir(exist_ok=True)
    np.savez_compressed(RUNS / ("spans-%s-seed%d.npz" % (args.workload, args.seed)),
                        labels=np.array(tracer.labels), label_id=np.asarray(tracer.label_id),
                        parent=np.asarray(tracer.parent), start=np.asarray(tracer.start),
                        end=np.asarray(tracer.end))
    rounds = [warm] + [r for p in pairs for r in p]
    raw = {"untraced_wall_s": [r.wall for r in plain], "traced_wall_s": [r.wall for r in traced],
           "per_round": per_round}
    return {k: metrics[k] for k in tracing.PER_LAYER}, {"rounds": rounds, "raw": raw}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    import_qmet()
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        _exit("unknown workload %r; choose from %s" % (args.workload, ", ".join(workloads.WORKLOADS)))
    if args.setup_probe:
        set_up(args.workload, args.seed, in_process=False)
        print("ready", flush=True)
        return 0
    if args.trace:
        ops = set_up(args.workload, args.seed, in_process=True)
        metrics, detail = traced_run(args, ops)
        units = {k: tracing.unit_of(k) for k in metrics}
    else:
        ops = set_up(args.workload, args.seed, in_process=False)
        metrics, detail = timed_run(args, ops)
        units = END_TO_END
    correct, attempted, failed, notes = summarize(detail["rounds"], ops)
    RUNS.mkdir(exist_ok=True)
    with open(RUNS / ("%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)), "w") as fh:
        json.dump(dict(detail["raw"], notes=notes), fh)
    print("workload %s seed %d: %d rounds of %d ops, ops_attempted %d, ops_failed %d"
          % (args.workload, args.seed, len(detail["rounds"]), len(ops), attempted, failed))
    for note in notes:
        print(note)
    for name, value in metrics.items():
        print("%s = %.6g %s" % (name, value, units[name]))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

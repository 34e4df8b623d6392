"""Command-line front end: seeded, file-emitting metrology calculators.

Exit codes: 0 success, 1 verification failure (a cross-check or an exact
bound failed), 2 usage or parse error, 3 domain precondition violated.
CSV output uses 17-significant-digit floats, '.' decimals, ',' separators
and LF line endings; JSON uses snake_case keys in a fixed order.  All
computation runs single-threaded in index order, so identical flags and seed
give byte-identical files.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
from typing import Callable

import numpy as np

from . import crypto, ecc, graphs, pauli

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3


class CliError(Exception):
    """Carries the process exit code alongside the message."""

    def __init__(self, code: int, message: str) -> None:
        super().__init__(message)
        self.code = code


def _fmt17(value: float) -> str:
    return format(float(value), ".17g")


def _fmt_value(value: float) -> str:
    """Integers print bare (qfi=17); everything else gets 12 significant digits."""
    if abs(value - round(value)) < 1e-9:
        return str(int(round(value)))
    return format(float(value), ".12g")


def _write_out(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise CliError(EXIT_USAGE, "cannot write %s: %s" % (path, exc))


# graph subcommand


def _read_graph(path: str) -> graphs.Graph:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise CliError(EXIT_USAGE, "cannot read edge file: %s" % exc)
    try:
        return graphs.parse_graph(text)
    except ValueError as exc:
        raise CliError(EXIT_USAGE, "bad edge file %s: %s" % (path, exc))


def _parse_vertex_list(raw: str, n: int) -> tuple[int, ...]:
    try:
        verts = tuple(int(v) for v in raw.split(","))
    except ValueError:
        raise CliError(EXIT_USAGE, "vertex list must be comma-separated integers")
    if any(v < 0 or v >= n for v in verts):
        raise CliError(EXIT_USAGE, "vertex out of range for n=%d" % n)
    return verts


def _mean_erasure_oracle(g: graphs.Graph, e: int) -> float:
    vals = [graphs.oracle_graph_qfi(g, noise=("erasure", pat))
            for pat in itertools.combinations(range(g.n), e)]
    return float(np.mean(vals))


def cmd_graph(args: argparse.Namespace) -> int:
    g = _read_graph(args.edges)
    enc = args.encoding
    noise = None
    if args.dephasing is not None:
        noise = ("dephasing", args.dephasing)
    elif args.erase is not None:
        noise = ("erasure", _parse_vertex_list(args.erase, g.n))
    if (noise is not None or args.mean_erase is not None) and enc != "x":
        raise CliError(EXIT_USAGE, "noise models are defined for the x encoding")
    if args.mean_erase is not None and not 0 <= args.mean_erase <= g.n:
        raise CliError(EXIT_DOMAIN, "erasure count %d out of range" % args.mean_erase)
    closed = None
    closed_err = None
    try:
        if enc == "y":
            closed = float(graphs.qfi_y(g))
        elif args.mean_erase is not None:
            closed = graphs.mean_qfi_erasure(g, args.mean_erase)
        elif noise is None:
            closed = float(graphs.qfi_x(g))
        elif noise[0] == "dephasing":
            closed = graphs.qfi_dephasing(g, noise[1])
        else:
            closed = graphs.qfi_erasure(g, noise[1])
    except ValueError as exc:
        if not args.oracle:
            raise CliError(EXIT_DOMAIN, str(exc))
        closed_err = str(exc)
    oracle = None
    if args.oracle:
        try:
            if args.mean_erase is not None:
                oracle = _mean_erasure_oracle(g, args.mean_erase)
            else:
                oracle = graphs.oracle_graph_qfi(g, enc, noise)
        except ValueError as exc:
            raise CliError(EXIT_DOMAIN, str(exc))
    q = closed if closed is not None else oracle
    print("qfi=%s" % _fmt_value(q))
    for i, (us, ms) in enumerate(graphs.partition(g).classes):
        print("class %d: u=%d m=%d" % (i, len(us), len(ms)))
    if oracle is not None:
        print("oracle=%s" % _fmt_value(oracle))
        if closed is not None:
            print("delta=%.3e" % abs(closed - oracle))
        else:
            print("note=closed form unavailable (%s); oracle value reported"
                  % closed_err)
    if args.yz_stabilizer:
        try:
            stab = graphs.find_yz_stabilizer(g)
        except ValueError as exc:
            raise CliError(EXIT_DOMAIN, str(exc))
        print("yz_stabilizer=%s" % (stab.label() if stab is not None else "absent"))
    return EXIT_OK


def cmd_bundle(args: argparse.Namespace) -> int:
    g = _read_graph(args.edges)
    try:
        sizes = [int(s) for s in args.sizes.split(",")]
    except ValueError:
        raise CliError(EXIT_USAGE, "sizes must be comma-separated integers")
    if len(sizes) != g.n:
        raise CliError(EXIT_USAGE,
                       "got %d sizes for a graph on %d vertices" % (len(sizes), g.n))
    if any(s < 1 for s in sizes):
        raise CliError(EXIT_USAGE, "bundle sizes must be positive")
    try:
        bundled = graphs.bundle(g, sizes)
    except ValueError as exc:
        raise CliError(EXIT_DOMAIN, str(exc))
    text = graphs.format_graph(bundled)
    _write_out(args.out, text)
    print("n=%d" % bundled.n)
    print("qfi=%s" % _fmt_value(float(graphs.qfi_x(bundled))))
    print("wrote %s" % args.out)
    return EXIT_OK


# ecc subcommand


_ECC_HEADER = "param,omega,gamma,xi,p,tau,t,n,qfi,qfi_over_HL"
# One point costs 0.15-0.3 ms for an n = 25 closed form.
_SWEEP_STEPS_CAP = 10_000
# Budget of one --oracle call, in the multiply-adds of ecc.oracle_work: about a minute.
_ORACLE_WORK_CAP = 1e11


def _parse_sweep(raw: str) -> tuple[str, float, float, int, str]:
    parts = raw.split(":")
    if len(parts) != 5:
        raise CliError(EXIT_USAGE,
                       "sweep must be PARAM:START:STOP:STEPS:lin|log, got %r" % raw)
    param, start_s, stop_s, steps_s, spacing = parts
    if param not in ("tau", "t", "p", "xi"):
        raise CliError(EXIT_USAGE, "sweep parameter must be tau, t, p or xi")
    if spacing not in ("lin", "log"):
        raise CliError(EXIT_USAGE, "sweep spacing must be lin or log")
    try:
        start, stop, steps = float(start_s), float(stop_s), int(steps_s)
    except ValueError:
        raise CliError(EXIT_USAGE, "bad sweep numbers in %r" % raw)
    if not math.isfinite(stop - start):     # an inf or nan endpoint, or a span past 1.8e308
        raise CliError(EXIT_USAGE, "sweep endpoints and their span must be finite in %r" % raw)
    if steps < 1:
        raise CliError(EXIT_USAGE, "sweep needs at least one step")
    if steps > _SWEEP_STEPS_CAP:
        raise CliError(EXIT_USAGE, "sweep needs at most %d steps, got %d"
                       % (_SWEEP_STEPS_CAP, steps))
    if spacing == "log" and (start <= 0 or stop <= 0):
        raise CliError(EXIT_USAGE, "log spacing needs positive endpoints")
    return param, start, stop, steps, spacing


def _sweep_values(start: float, stop: float, steps: int, spacing: str) -> np.ndarray:
    if steps == 1:
        return np.array([start])
    if spacing == "log":
        return np.geomspace(start, stop, steps)
    return np.linspace(start, stop, steps)


def _by_point(sweep: Callable[[str, list[ecc.EccParams]], np.ndarray], code: str,
              params: list[ecc.EccParams], errors: tuple[type[Exception], ...]
              ) -> tuple[np.ndarray, Exception | None]:
    """sweep's column up to the first failing point, and that point's error.

    One call evaluates every point.  If it raises, the points run one at a
    time, in sweep order, to find the first failing point and its message.
    """
    try:
        return (sweep(code, params) if params else np.empty(0)), None
    except errors:
        values = []
        for one in params:
            try:
                values.append(sweep(code, [one])[0])
            except errors as exc:
                return np.array(values), exc
        return np.array(values), None


def _ecc_qfi(code: str, params: list[ecc.EccParams]
             ) -> tuple[np.ndarray, Exception | None]:
    """The qfi column up to the first point whose closed form fails, and that point's error."""
    qfi, failure = _by_point(ecc.qfi_sweep, code, params, (ValueError, OverflowError))
    if failure is not None:
        return qfi, failure
    for i, (q, point) in enumerate(zip(qfi, params)):
        hl = (point.n * point.t) * (point.n * point.t)
        if not (math.isfinite(q) and math.isfinite(hl)):
            return qfi[:i], ValueError("QFI %g and (n t)^2 %g must be finite" % (q, hl))
        if hl <= 0.0:       # n t below about 1.6e-162 squares to 0
            return qfi[:i], ValueError("(n t)^2 must be positive, got %g" % hl)
    return qfi, None


def _ecc_oracle(code: str, params: list[ecc.EccParams]) -> np.ndarray:
    """The qfi_oracle column, after the oracle's caps; the first failing point exits 3."""
    try:
        work = ecc.oracle_work(code, params)
    except ValueError as exc:
        raise CliError(EXIT_DOMAIN, str(exc))
    if work > _ORACLE_WORK_CAP:
        raise CliError(EXIT_DOMAIN, "oracle work estimate %.3g multiply-adds is above the budget "
                       "%.3g; use fewer points, fewer rounds or a smaller n"
                       % (work, _ORACLE_WORK_CAP))
    column, failure = _by_point(ecc.oracle_sweep, code, params, (ValueError, ArithmeticError))
    if failure is not None:
        raise CliError(EXIT_DOMAIN, str(failure))
    return column


def ecc_csv(code: str, *, n: int, omega: float, gamma: float, xi: float = 0.0,
            p: float = 0.0, tau: float, t: float,
            sweep: tuple[str, float, float, int, str] | None = None,
            oracle: bool = False) -> str:
    """Render the QFI sweep table; sweeping tau keeps the round count fixed.

    The closed forms run over all points in one array computation, and the
    oracle over all points in one batch.  A sweep that fails reports its
    first failing point in sweep order, whether that point fails
    validation, its closed form or the oracle.
    """
    base = dict(n=n, omega=omega, gamma=gamma, xi=xi, p=p, tau=tau, t=t)
    points = []
    if sweep is None:
        points.append((0.0, dict(base)))
    else:
        param, start, stop, steps, spacing = sweep
        rounds = t / tau
        for v in _sweep_values(start, stop, steps, spacing):
            point = dict(base)
            point[param] = float(v)
            if param == "tau":
                point["t"] = float(v) * rounds
            points.append((float(v), point))
    params, failure = [], None
    for _, point in points:
        try:
            params.append(ecc.EccParams(n=point["n"], omega=point["omega"],
                                        gamma=point["gamma"], tau=point["tau"],
                                        t=point["t"], xi=point["xi"], p=point["p"]))
        except (ValueError, OverflowError) as exc:
            failure = exc
            break
    qfi, closed_form_failure = _ecc_qfi(code, params)
    failure = closed_form_failure or failure
    params = params[:len(qfi)]
    # The oracle runs on the rows only, which all come before a failing point.
    columns = [qfi] + ([_ecc_oracle(code, params)] if oracle and params else [])
    lines = [_ECC_HEADER + (",qfi_oracle" if oracle else "")]
    for (swept, point), params_i, q, *ref in zip(points, params, *columns):
        hl = (params_i.n * params_i.t) * (params_i.n * params_i.t)
        row = [swept, point["omega"], point["gamma"], point["xi"], point["p"],
               point["tau"], point["t"], point["n"], q, q / hl] + ref
        lines.append(",".join(_fmt17(v) for v in row))
    if failure is not None:
        raise CliError(EXIT_DOMAIN, str(failure))
    return "\n".join(lines) + "\n"


def cmd_ecc(args: argparse.Namespace) -> int:
    if args.preset == "fig54":
        if args.gamma is None:
            args.gamma = 1e6
        if args.tau is None:
            args.tau = 1e-6
        if args.xi is None:
            args.xi = 2e3
        if args.p is None:
            args.p = 0.06
    missing = [name for name in ("n", "omega", "gamma", "tau", "t")
               if getattr(args, name) is None]
    if missing:
        raise CliError(EXIT_USAGE, "missing required flags: " +
                       ", ".join("--" + m for m in missing))
    sweep = _parse_sweep(args.sweep) if args.sweep else None
    text = ecc_csv(args.code, n=args.n, omega=args.omega, gamma=args.gamma,
                   xi=args.xi or 0.0, p=args.p or 0.0, tau=args.tau, t=args.t,
                   sweep=sweep, oracle=args.oracle)
    _write_out(args.out, text)
    print("wrote %s (%d rows)" % (args.out, text.count("\n") - 1))
    return EXIT_OK


# crypto subcommand


_PROTOCOLS = ("trap1", "trap2", "cliff1", "cliff2", "delegated")


def _pad_attack(attack: crypto.AttackSpec, m: int) -> crypto.AttackSpec:
    """Extend a narrower Pauli attack with identities on the trailing qubits."""
    if attack.variant == "double":
        return crypto.AttackSpec.double(_pad_attack(attack.pair[0], m),
                                        _pad_attack(attack.pair[1], m))
    width = attack.mixture[0][1].n if attack.variant == "pauli_mixture" else m
    if width == m:
        return attack
    if width > m:
        raise CliError(EXIT_USAGE,
                       "attack acts on %d qubits but the register has %d"
                       % (width, m))
    pad = "I" * (m - width)
    return crypto.AttackSpec.pauli_mixture(
        [(w, pauli.PauliString.from_label(p.label() + pad))
         for w, p in attack.mixture])


def _crypto_report(protocol: str, n: int, t: int, attack: crypto.AttackSpec,
                   trials: int, seed: int) -> crypto.SoundnessReport:
    is_double = protocol in ("trap2", "cliff2")
    if is_double and attack.variant != "double":
        raise CliError(EXIT_USAGE,
                       "%s needs a double:<spec>;<spec> attack" % protocol)
    if not is_double and attack.variant == "double":
        raise CliError(EXIT_USAGE,
                       "double attacks apply to trap2/cliff2 only")
    m = n + t
    attack = _pad_attack(attack, m)
    mode = "exact" if m <= 6 else "sampled"
    if protocol == "trap1":
        return crypto.soundness_trap_single(n, t, attack, mode,
                                            trials=trials, seed=seed)
    if protocol == "cliff1":
        return crypto.soundness_clifford_single(n, t, attack, mode,
                                                trials=trials, seed=seed)
    if protocol == "delegated":
        return crypto.soundness_delegated(n, t, attack, mode=mode,
                                          trials=trials, seed=seed)
    kind = "trap" if protocol == "trap2" else "clifford"
    return crypto.soundness_double(kind, n, t, attack, mode=mode,
                                   trials=trials, seed=seed)


def crypto_json(protocol: str, n: int, t: int, attack_text: str,
                trials: int, seed: int) -> str:
    for name, value in (("n", n), ("t", t), ("trials", trials)):
        if value < 1:
            raise CliError(EXIT_USAGE, "--%s must be >= 1, got %d" % (name, value))
    if trials > crypto._TRIALS_CAP:
        raise CliError(EXIT_USAGE, "--trials must be <= %d, got %d" % (crypto._TRIALS_CAP, trials))
    if seed < 0:
        raise CliError(EXIT_USAGE, "--seed must be >= 0, got %d" % seed)
    try:
        attack = crypto.parse_attack(attack_text)
    except ValueError as exc:
        raise CliError(EXIT_USAGE, "bad attack spec: %s" % exc)
    try:
        report = _crypto_report(protocol, n, t, attack, trials, seed)
    except ValueError as exc:
        raise CliError(EXIT_DOMAIN, str(exc))
    except ArithmeticError as exc:
        raise CliError(EXIT_VERIFY, "soundness bound violated: %s" % exc)
    payload = {"protocol": protocol, "n": n, "t": t, "attack": attack_text}
    payload.update(report.as_dict())
    return json.dumps(payload, indent=2) + "\n"


def cmd_crypto(args: argparse.Namespace) -> int:
    text = crypto_json(args.protocol, args.n, args.t, args.attack,
                       args.trials, args.seed)
    _write_out(args.out, text)
    report = json.loads(text)
    print("lhs=%s bound=%s accept_rate=%s mode=%s"
          % (report["lhs"], report["bound"], report["accept_rate"], report["mode"]))
    print("wrote %s" % args.out)
    return EXIT_OK


# verify subcommand


def cmd_verify(args: argparse.Namespace) -> int:
    from .checks import run_checks

    results = run_checks(quick=args.quick)
    for r in results:
        print("%s %s: %s" % ("ok  " if r.ok else "FAIL", r.name, r.detail))
    failed = [r.name for r in results if not r.ok]
    if failed:
        print("verification failed: %s" % ", ".join(failed), file=sys.stderr)
        return EXIT_VERIFY
    print("all %d checks passed" % len(results))
    return EXIT_OK


# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmet",
        description="Metrology calculators: graph-state QFI from the "
                    "shared-neighborhood partition, error-corrected GHZ "
                    "frequency estimation, and authenticated-channel "
                    "soundness/privacy/integrity, each with oracle cross-checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    pg = sub.add_parser(
        "graph",
        help="graph-state QFI from the vertex partition",
        description="QFI of a graph state under local X or Y phase encoding, "
                    "computed as sum_l u_l^2 over classes of vertices sharing "
                    "a neighborhood, with closed-form dephasing (sum_l f_l g_l) "
                    "and erasure (light-cone) reductions, against an optional "
                    "exact-derivative oracle (statevector, or dense rho under noise).")
    pg.add_argument("--edges", required=True,
                    help="edge-list file: first line n (at most %d), then 'u v' lines"
                         % graphs._VERTEX_CAP)
    pg.add_argument("--encoding", choices=("x", "y"), default="x")
    noise = pg.add_mutually_exclusive_group()
    noise.add_argument("--dephasing", type=float, metavar="P",
                       help="per-qubit dephasing probability")
    noise.add_argument("--erase", metavar="V,V",
                       help="comma-separated erased vertices")
    noise.add_argument("--mean-erase", type=int, metavar="E",
                       help="average QFI over all erasure patterns of size E")
    pg.add_argument("--oracle", action="store_true",
                    help="also run the exact-derivative oracle and report the delta")
    pg.add_argument("--yz-stabilizer", action="store_true",
                    help="report a stabilizer with no X factor, if one exists")
    pg.set_defaults(fn=cmd_graph)

    pb = sub.add_parser(
        "bundle",
        help="replace vertices by clone bundles",
        description="Replace vertex i by sizes[i] unconnected clones that "
                    "inherit its edges, write the bundled edge list, and "
                    "report its QFI (at least sum_i sizes_i^2).")
    pb.add_argument("--edges", required=True)
    pb.add_argument("--sizes", required=True, help="comma-separated, one per vertex")
    pb.add_argument("--out", required=True)
    pb.set_defaults(fn=cmd_bundle)

    pe = sub.add_parser(
        "ecc",
        help="error-corrected GHZ frequency estimation",
        description="QFI of an n-qubit GHZ probe sensing omega under "
                    "transverse noise gamma with a correction step every tau: "
                    "closed forms for the uncorrected probe, the parity-check "
                    "code (ancilla noise xi, syndrome error p), and the "
                    "bit-flip code, normalized against the n^2 t^2 limit. "
                    "Sweeping tau keeps the round count t/tau fixed.")
    pe.add_argument("--n", type=int)
    pe.add_argument("--omega", type=float)
    pe.add_argument("--gamma", type=float)
    pe.add_argument("--xi", type=float)
    pe.add_argument("--p", type=float)
    pe.add_argument("--tau", type=float)
    pe.add_argument("--t", type=float)
    pe.add_argument("--code", choices=("none", "parity", "bitflip"), required=True)
    pe.add_argument("--sweep", metavar="PARAM:START:STOP:STEPS:lin|log",
                    help="grid over tau, t, p or xi, at most %d steps" % _SWEEP_STEPS_CAP)
    pe.add_argument("--preset", choices=("fig54",),
                    help="gamma=1e6, tau=1e-6, xi=2e3, p=0.06 unless overridden")
    pe.add_argument("--oracle", action="store_true",
                    help="append an exact amplitude-propagation column")
    pe.add_argument("--out", required=True, help="CSV output path")
    pe.set_defaults(fn=cmd_ecc)

    pc = sub.add_parser(
        "crypto",
        help="authentication soundness reports",
        description="Key-averaged soundness lhs = E[p_acc (1 - F)] for the "
                    "trap code (bound 3(m-t)/(2t) single use, 9(m-t)/(4t) "
                    "double), the Clifford code (bound 2^-t), and the "
                    "delegated-measurement protocol (bound 3n/(2t)); exact "
                    "casework when the register is small, seeded sampling "
                    "otherwise.")
    pc.add_argument("--protocol", choices=_PROTOCOLS, required=True)
    pc.add_argument("--n", type=int, required=True, help="data qubits")
    pc.add_argument("--t", type=int, required=True, help="trap/flag qubits")
    pc.add_argument("--attack", required=True,
                    help="id | pauli:-XIZ | mix:0.9*III,0.1*ZII | depol:0.3 "
                         "| double:<spec>;<spec>")
    pc.add_argument("--trials", type=int, default=2000,
                    help="rounds in sampled mode, at most %d" % crypto._TRIALS_CAP)
    pc.add_argument("--seed", type=int, default=0)
    pc.add_argument("--out", required=True, help="JSON output path")
    pc.set_defaults(fn=cmd_crypto)

    pv = sub.add_parser(
        "verify",
        help="run the cross-check suite",
        description="Recompute every closed form against its independent "
                    "oracle (dense simulation, exact enumeration, or exact "
                    "combinatorics) and report measured deviations.")
    pv.add_argument("--quick", action="store_true",
                    help="fast subset (under a minute)")
    pv.set_defaults(fn=cmd_verify)
    return parser


def _is_negative_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return text.startswith("-")


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # argparse reads a value like -1e-3 as an option of its own (it knows only
    # -1 and -.5 as negative numbers), so "--flag -1e-3" is passed as "--flag=-1e-3".
    for i in range(len(argv) - 1, 0, -1):
        if argv[i - 1].startswith("--") and "=" not in argv[i - 1] \
                and _is_negative_number(argv[i]):
            argv[i - 1:i + 1] = [argv[i - 1] + "=" + argv[i]]
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except CliError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())

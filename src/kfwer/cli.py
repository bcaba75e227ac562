"""Command-line frontend: apply a procedure to a p-value file, estimate
error rates by simulation, or run the randomized theorem checks.

Exit codes: 0 success, 1 verification counterexample, 2 malformed input
data, 3 invalid flags or flag combinations.
"""

from __future__ import annotations

import argparse
import csv
import errno
import functools
import json
import os
import sys
from dataclasses import asdict
from typing import Optional, Sequence, TextIO

from .core import (
    ConfigError,
    CriticalSchedule,
    KfwerError,
    LocalTestFamily,
    OutOfRangeError,
    PValueVector,
    order_pvalues,
    validate_family,
    validate_schedule,
)
from .procedures import (
    EXHAUSTIVE_LIMIT,
    FAMILY_PROCEDURES,
    PROCEDURES,
    SCHEDULES,
    ProcedureResult,
    bind_procedure,
    check_procedure,
    critical_values,
    rescales_base,
)
from .simulation import DEPENDENCE, SimulationConfig, estimate_kfwer
from .verify import THEOREMS, run_theorem_trials

EXIT_OK = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_BAD_DATA = 2
EXIT_BAD_FLAGS = 3


class InputDataError(Exception):
    """Malformed input file or stream; maps to exit code 2."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; the exit-code contract
    # reserves 2 for bad data, so route flag errors to 3 instead.
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(EXIT_BAD_FLAGS)


def _read_pvalues(stream: TextIO, name: str) -> tuple[list[float], list[int]]:
    """Parse p-values: one float per line, or CSV with header id,p.

    Returns the numbers and the line each came from. The range check is
    :func:`order_pvalues`'s; :func:`cmd_test` maps its position to a line.
    """
    lines = stream.read().splitlines()
    numbered = [(idx, line.strip()) for idx, line in enumerate(lines, start=1)]
    numbered = [(idx, line) for idx, line in numbered if line]
    if not numbered:
        raise InputDataError(f"{name}: no p-values found")
    values: list[float] = []
    if numbered[0][1].lower().replace(" ", "") == "id,p":
        numbered = numbered[1:]
        for idx, line in numbered:
            row = next(csv.reader([line]))
            if len(row) != 2:
                raise InputDataError(f"{name}: line {idx}: expected two fields 'id,p', got {line!r}")
            values.append(_parse_pvalue(row[1], name, idx))
        if not values:
            raise InputDataError(f"{name}: no p-values found after header")
    else:
        for idx, line in numbered:
            values.append(_parse_pvalue(line, name, idx))
    return values, [idx for idx, _ in numbered]


def _parse_pvalue(token: str, name: str, idx: int) -> float:
    try:
        return float(token)
    except ValueError:
        raise InputDataError(f"{name}: line {idx}: {token!r} is not a number") from None


def _read_schedule_file(path: str, k: int, n: int) -> CriticalSchedule:
    """One critical value per line; must supply exactly n-k+1 values."""
    try:
        with open(path) as fh:
            lines = [(idx, line.strip()) for idx, line in enumerate(fh, start=1)]
    except OSError as exc:
        raise InputDataError(f"{path}: {exc.strerror}") from None
    vals = []
    for idx, line in lines:
        if not line:
            continue
        try:
            vals.append(float(line))
        except ValueError:
            raise InputDataError(f"{path}: line {idx}: {line!r} is not a number") from None
    try:
        return validate_schedule(k, n, vals)
    except KfwerError as exc:
        raise InputDataError(f"{path}: {exc}") from None


def _read_family_file(path: str, k: int, n: int) -> LocalTestFamily:
    """CSV with header m,i,alpha, one row per triangular entry."""
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            rows = [(idx, row) for idx, row in enumerate(reader, start=1) if row and any(f.strip() for f in row)]
    except OSError as exc:
        raise InputDataError(f"{path}: {exc.strerror}") from None
    if not rows or [f.strip().lower() for f in rows[0][1]] != ["m", "i", "alpha"]:
        raise InputDataError(f"{path}: expected CSV header 'm,i,alpha'")
    entries: dict[tuple[int, int], float] = {}
    for idx, row in rows[1:]:
        if len(row) != 3:
            raise InputDataError(f"{path}: line {idx}: expected three fields 'm,i,alpha'")
        try:
            m, i, a = int(row[0]), int(row[1]), float(row[2])
        except ValueError:
            raise InputDataError(f"{path}: line {idx}: could not parse 'm,i,alpha' from {row!r}") from None
        if (i, m) in entries:
            raise InputDataError(f"{path}: line {idx}: duplicate entry for i={i}, m={m}")
        entries[(i, m)] = a
    expected = {(i, m) for m in range(k, n + 1) for i in range(k, m + 1)}
    missing = expected - set(entries)
    extra = set(entries) - expected
    if missing or extra:
        raise InputDataError(
            f"{path}: family table must cover exactly i=k..m, m=k..n for k={k}, n={n}; "
            f"missing {sorted(missing)}, unexpected {sorted(extra)}"
        )
    table = [[entries[(i, m)] for i in range(k, m + 1)] for m in range(k, n + 1)]
    try:
        return validate_family(k, n, table)
    except KfwerError as exc:
        raise InputDataError(f"{path}: {exc}") from None


def _resolve_seed(seed: Optional[int]) -> int:
    """Explicit flag wins; KFWER_SEED is the fallback; default 0."""
    if seed is not None:
        return seed
    env = os.environ.get("KFWER_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ConfigError(f"KFWER_SEED={env!r} is not an integer") from None
    return 0


def _check_output(output: Optional[str]) -> None:
    """Refuse an ``--output`` path that cannot be written before any work
    runs: a directory, a missing parent directory, or no write access.
    :func:`_emit` still reports a path that goes bad in the meantime."""
    if not output:
        return
    parent = os.path.dirname(output) or "."
    if os.path.isdir(output):
        problem = errno.EISDIR
    elif not os.path.isdir(parent):
        problem = errno.ENOENT
    elif not os.access(output if os.path.exists(output) else parent, os.W_OK):
        problem = errno.EACCES
    else:
        return
    raise ConfigError(f"{output}: {os.strerror(problem)}")


def _emit(payload: dict, output: Optional[str]) -> None:
    text = json.dumps(payload, indent=2) + "\n"
    if output:
        try:
            with open(output, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"{output}: {exc.strerror}") from None
    else:
        sys.stdout.write(text)


def _run_procedure(args, p: PValueVector) -> ProcedureResult:
    """Check the flags, read any ``file:`` or ``--base-schedule`` file, and
    run the procedure; names resolve in :mod:`kfwer.procedures`."""
    proc, spec, k, n, alpha = args.procedure, args.schedule, args.k, p.n, args.alpha
    path = spec[len("file:"):] if spec.startswith("file:") else None
    check_procedure(proc, None if path else spec, k, n, alpha)
    if rescales_base(spec) and not args.base_schedule:
        raise ConfigError(f"--schedule {spec} requires --base-schedule PATH")
    if args.base_schedule and not rescales_base(spec):
        raise ConfigError(f"--base-schedule applies only to --schedule romano-shaikh, not --schedule {spec}")
    if path is None:
        critical = critical_values(proc, spec, k, n, alpha,
                                   base=lambda: _read_schedule_file(args.base_schedule, k, n))
    elif proc in FAMILY_PROCEDURES:
        critical = _read_family_file(path, k, n)
    else:
        critical = _read_schedule_file(path, k, n)
    return bind_procedure(proc, critical)(p)


def cmd_test(args) -> int:
    _check_output(args.output)
    if args.input and args.input != "-":
        name = args.input
        try:
            with open(name) as fh:
                values, lines = _read_pvalues(fh, name)
        except OSError as exc:
            raise InputDataError(f"{name}: {exc.strerror}") from None
    else:
        name = "stdin"
        values, lines = _read_pvalues(sys.stdin, name)
    try:
        p = order_pvalues(values)
    except OutOfRangeError as exc:
        raise InputDataError(f"{name}: line {lines[exc.position - 1]}: p-value {exc.value!r} outside [0, 1]") from None
    result = _run_procedure(args, p)
    if result.schedule is not None:
        critical = list(result.schedule.alphas)
    else:
        critical = [list(row) for row in result.family.rows]
    payload = {
        "n": p.n,
        "k": args.k,
        "alpha": args.alpha,
        "procedure": args.procedure,
        "critical_values": critical,
        "rejected": [j + 1 for j in result.rejected_indices()],
        "detail": None if args.procedure == "closed" else result.detail,
    }
    _emit(payload, args.output)
    return EXIT_OK


def cmd_simulate(args) -> int:
    _check_output(args.output)
    config = SimulationConfig(
        n=args.n,
        n_true=args.true_nulls,
        k=args.k,
        alpha=args.alpha,
        procedure=args.procedure,
        schedule=args.schedule,
        reps=args.reps,
        dependence=args.dependence,
        rho=args.rho,
        delta=args.delta,
        seed=_resolve_seed(args.seed),
    )
    result = estimate_kfwer(config)
    payload = {
        "kfwer_estimate": result.kfwer_estimate,
        "std_error": result.std_error,
        "avg_power": result.avg_power,
        "config_echo": asdict(config),
    }
    _emit(payload, args.output)
    return EXIT_OK


def _self_test(theorems: Sequence[str]) -> int:
    """Confirm the harness rejects hypothesis-violating inputs instead of
    treating them as counterexamples: a non-monotone family must be
    refused by validation before any comparison runs."""
    bad_in_i = [[0.2], [0.3, 0.1], [0.05, 0.05, 0.05]]
    bad_in_m = [[0.1], [0.2, 0.3], [0.05, 0.05, 0.05]]
    for table in (bad_in_i, bad_in_m):
        try:
            validate_family(1, 3, table)
        except KfwerError as exc:
            print(f"self-test: family rejected before comparison ({exc})")
        else:
            print("self-test: FAILED, invalid family was accepted", file=sys.stderr)
            return EXIT_COUNTEREXAMPLE
    print(f"self-test: ok for theorem(s) {', '.join(theorems)}")
    return EXIT_OK


def cmd_verify(args) -> int:
    theorems = list(THEOREMS) if args.theorem == "all" else [args.theorem]
    if not 2 <= args.n_max <= EXHAUSTIVE_LIMIT:
        raise ConfigError(f"--n-max must lie in 2..{EXHAUSTIVE_LIMIT}")
    if args.trials < 1:
        raise ConfigError("--trials must be >= 1")
    if args.self_test:
        return _self_test(theorems)
    seed = _resolve_seed(args.seed)
    if seed < 0:
        raise ConfigError(f"seed must be a nonnegative integer, got {seed}")
    failed = False
    for theorem in theorems:
        report = run_theorem_trials(theorem, args.trials, args.n_max, seed)
        print(report.summary())
        for failure in report.failures:
            failed = True
            print(failure.describe())
    return EXIT_COUNTEREXAMPLE if failed else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="kfwer", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    t = sub.add_parser("test", help="apply a procedure to p-values from a file or stdin")
    t.add_argument("--k", type=int, required=True, help="tolerated false rejections minus one, 1 <= k <= n")
    t.add_argument("--alpha", type=float, required=True, help="target error level in (0, 1)")
    t.add_argument("--procedure", required=True, choices=PROCEDURES)
    t.add_argument(
        "--schedule",
        required=True,
        help=" | ".join(SCHEDULES + ("file:PATH",))
        + " (schedule file: one value per line; family file: CSV m,i,alpha)",
    )
    t.add_argument("--input", help="p-value file (one per line, or CSV id,p); stdin when omitted or '-'")
    t.add_argument("--base-schedule", help="base schedule file for romano-shaikh, and only for it (one value per line)")
    t.add_argument("--output", help="write the JSON report here instead of stdout")
    t.set_defaults(fn=cmd_test)

    s = sub.add_parser("simulate", help="Monte Carlo k-FWER and power estimation")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--true-nulls", type=int, required=True)
    s.add_argument("--k", type=int, required=True)
    s.add_argument("--alpha", type=float, required=True)
    s.add_argument("--procedure", default="stepdown", choices=PROCEDURES)
    s.add_argument("--schedule", default="lehmann-romano", choices=SCHEDULES,
                   help="romano-shaikh rescales the lehmann-romano values")
    s.add_argument("--reps", type=int, default=10_000)
    s.add_argument("--dependence", default="independent", choices=DEPENDENCE)
    s.add_argument("--rho", type=float, default=0.0)
    s.add_argument("--delta", type=float, default=0.0)
    s.add_argument("--seed", type=int, help="defaults to KFWER_SEED, then 0")
    s.add_argument("--output", help="write the JSON report here instead of stdout")
    s.set_defaults(fn=cmd_simulate)

    v = sub.add_parser("verify", help="randomized equivalence/dominance checks of the procedures")
    v.add_argument("--theorem", default="all", choices=list(THEOREMS) + ["all"])
    v.add_argument("--trials", type=int, default=1000)
    v.add_argument("--n-max", type=int, default=12, help="largest random problem size (capped by the closed-testing limit)")
    v.add_argument("--seed", type=int, help="defaults to KFWER_SEED, then 0")
    v.add_argument("--self-test", action="store_true", help="check that invalid inputs are refused, then exit")
    v.set_defaults(fn=cmd_verify)
    return parser


# One parser per process: building a new one on every call grew the peak
# RSS of a process that calls main many times.
_shared_parser = functools.cache(build_parser)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _shared_parser().parse_args(argv)
    try:
        return args.fn(args)
    except InputDataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_DATA
    except KfwerError as exc:
        # ConfigError and the errors raised while building schedules or
        # families from flags are flag problems; file-sourced problems
        # were wrapped as InputDataError.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_FLAGS


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()

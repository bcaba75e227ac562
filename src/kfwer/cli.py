"""Command-line frontend: apply a procedure to a p-value file, estimate
error rates by simulation, or run the randomized theorem checks.

Input files are read as UTF-8; a file or stream that cannot be opened,
read or decoded is bad input data. A p-value file, and a schedule file,
is read in one pass into a float64 array: its text is split into lines,
a block at a time, and every line converted by ``float()``, which strips
surrounding whitespace as ``str.strip`` does. Only when a line fails to
convert (a blank line, the ``id,p`` header of a CSV p-value file, or a
bad token) are the lines walked one at a time, and a bad token is
reported with its line number. The range check is
:func:`kfwer.core.order_pvalues`'s, which keeps the array as the
vector's values; its position is mapped back to a line.

The reports of ``test`` and ``simulate`` are stable byte for byte: each is
``json.dumps(report, indent=2)`` followed by a newline, streamed to stdout
or to ``--output`` in pieces rather than built as one string. The
critical values of ``test`` are written from the invariants of their
schedule or family rather than checked entry by entry (see
:func:`_json_chunks`): a constant row repeats one repr, a stepup form
(``romano-shaikh``) formats each value of its schedule once, and a
schedule is formatted from its array a slice at a time. A family report,
all n(n+1)/2 entries, is refused above ``MAX_FAMILY_ENTRIES`` before any
file is read. A report written to ``--output``
replaces a regular file only once it is complete, so a failed write
leaves the old file as it was (see :func:`_write_report`).

Exit codes: 0 success, 1 verification counterexample, 2 malformed input
data, 3 invalid flags or flag combinations, or a report that could not be
written (``error: stdout: ...`` or ``error: PATH: ...``).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import errno
import functools
import itertools
import json
import os
import stat
import sys
from dataclasses import asdict
from typing import Iterator, Optional, Sequence, TextIO

import numpy as np

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
    check_family_size,
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


@contextlib.contextmanager
def _reading(name: str) -> Iterator[None]:
    """Report a file or stream that cannot be opened, read or decoded as
    bad input data naming it (exit 2)."""
    try:
        yield
    except OSError as exc:
        raise InputDataError(f"{name}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise InputDataError(f"{name}: not valid {exc.encoding} text: {exc.reason}") from None


# Characters of text converted per block by the reader's one pass.
_BLOCK = 1 << 16


def _read_numbers(text: str, name: str, header: Optional[str] = None) -> tuple[np.ndarray, Optional[list[int]]]:
    """The numbers of ``text``, one per line, as a float64 array, and the
    line each came from.

    Every line goes through ``float()`` in one pass, which strips the same
    whitespace ``str.strip`` does, straight into the array: the text is cut
    into blocks of about ``_BLOCK`` characters, each right after a
    ``\\n``. That is never inside a line break (``\\r\\n`` ends with it),
    so the blocks' lines are the text's. Only when that raises, on a blank
    line, a header or a bad token, are the lines walked one at a time:
    blank lines are skipped, a first line equal to ``header`` (case and
    spaces aside) makes the rest CSV rows whose second field is the
    number, and a bad token is named with its line. The line list is None
    when number j came from line j.
    """
    try:
        numbers = itertools.chain.from_iterable(map(float, block.splitlines()) for block in _blocks(text))
        return np.fromiter(numbers, np.float64), None
    except ValueError:
        pass
    numbered = [(idx, line.strip()) for idx, line in enumerate(text.splitlines(), start=1)]
    numbered = [(idx, line) for idx, line in numbered if line]
    if header and numbered and numbered[0][1].lower().replace(" ", "") == header:
        numbered = numbered[1:]
        values = []
        for idx, line in numbered:
            row = next(csv.reader([line]))
            if len(row) != 2:
                raise InputDataError(f"{name}: line {idx}: expected two fields {header!r}, got {line!r}")
            values.append(_parse_number(row[1], name, idx))
        if not values:
            raise InputDataError(f"{name}: no p-values found after header")
    else:
        values = [_parse_number(line, name, idx) for idx, line in numbered]
    return np.array(values, dtype=np.float64), [idx for idx, _ in numbered]


def _blocks(text: str) -> Iterator[str]:
    """``text`` in pieces of at least ``_BLOCK`` characters, each but the
    last ending with a ``\\n``."""
    start = 0
    while start < len(text):
        cut = text.find("\n", start + _BLOCK) + 1 or len(text)
        yield text[start:cut]
        start = cut


def _parse_number(token: str, name: str, idx: int) -> float:
    try:
        return float(token)
    except ValueError:
        raise InputDataError(f"{name}: line {idx}: {token!r} is not a number") from None


def _read_pvalues(stream: TextIO, name: str) -> tuple[np.ndarray, Optional[list[int]]]:
    """Parse p-values: one float per line, or CSV with header id,p.

    Returns the numbers and the line each came from, as
    :func:`_read_numbers` does. The range check is :func:`order_pvalues`'s;
    :func:`cmd_test` maps its position to a line.
    """
    values, lines = _read_numbers(stream.read(), name, header="id,p")
    if not values.size:
        raise InputDataError(f"{name}: no p-values found")
    return values, lines


def _read_schedule_file(path: str, k: int, n: int) -> CriticalSchedule:
    """One critical value per line; must supply exactly n-k+1 values."""
    with _reading(path), open(path, encoding="utf-8") as fh:
        text = fh.read()
    try:
        return validate_schedule(k, n, _read_numbers(text, path)[0])
    except KfwerError as exc:
        raise InputDataError(f"{path}: {exc}") from None


def _read_family_file(path: str, k: int, n: int) -> LocalTestFamily:
    """CSV with header m,i,alpha, one row per triangular entry."""
    with _reading(path), open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        rows = [(idx, row) for idx, row in enumerate(reader, start=1) if row and any(f.strip() for f in row)]
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
            f"{path}: family table must cover exactly i=k..m, m=k..n for k={k}, n={n}; (i, m) pairs "
            f"missing {len(missing)}, first {sorted(missing)[:5]}; unexpected {len(extra)}, first {sorted(extra)[:5]}"
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


# The report is ``json.dumps(payload, indent=2)`` plus a newline, byte for
# byte, written in pieces. The critical values reach the writer as the
# CriticalSchedule or LocalTestFamily itself, and its invariants spare
# most of json's per-number work: every entry is an exact finite float in
# [0, 1], whose JSON text is its repr, and every row is nondecreasing.
# - A row whose first and last entries are equal and nonzero holds one
#   value, bits and all: its text repeats one repr. Every row of a
#   stepdown form (``constant``) is one value.
# - A stepup form's row m is the tail alpha_{n-m+k..n} of its schedule:
#   each of the schedule's values is formatted once.
# - A schedule is written from its array, ``_SLICE`` values per piece, so
#   the texts of at most that many values are held at once.
_INDENT = "  "
_SLICE = 1 << 13


def _json_chunks(value, depth: int = 0) -> Iterator[str]:
    """The text of ``json.dumps(value, indent=2)``, in pieces: one for each
    row of a family."""
    inner = "\n" + _INDENT * (depth + 1)
    if isinstance(value, dict):
        if not value:
            yield "{}"
            return
        sep = "{" + inner
        for key, item in value.items():
            # json quotes the text of a number, bool or None key.
            yield f"{sep}{json.dumps(key if isinstance(key, str) else json.dumps(key))}: "
            yield from _json_chunks(item, depth + 1)
            sep = "," + inner
        yield "\n" + _INDENT * depth + "}"
    elif isinstance(value, (list, tuple)):
        if not value:
            yield "[]"
            return
        # Exact ints, such as the rejected indices, print as their repr;
        # subclasses such as bool do not.
        if set(map(type, value)) == {int}:
            yield "[" + inner + ("," + inner).join(map(int.__repr__, value)) + "\n" + _INDENT * depth + "]"
            return
        sep = "[" + inner
        for item in value:
            yield sep
            yield from _json_chunks(item, depth + 1)
            sep = "," + inner
        yield "\n" + _INDENT * depth + "]"
    elif isinstance(value, LocalTestFamily):
        k, n, row_inner = value.k, value.n, inner + _INDENT
        sep = "," + row_inner
        if value._form == "stepup":
            texts = list(map(float.__repr__, value._schedule._array.tolist()))
            bodies = (sep.join(texts[n - m :]) for m in range(k, n + 1))
        else:
            bodies = (_joined(value.row(m), sep) for m in range(k, n + 1))
        lead = "[" + inner
        for body in bodies:
            yield lead + "[" + row_inner + body + inner + "]"
            lead = "," + inner
        yield "\n" + _INDENT * depth + "]"
    elif isinstance(value, CriticalSchedule):
        yield from _schedule_chunks(value._array, depth)
    else:
        yield json.dumps(value)


def _schedule_chunks(array: np.ndarray, depth: int) -> Iterator[str]:
    """The text of ``json.dumps(list(array), indent=2)`` at ``depth`` for a
    schedule's values, in one piece per ``_SLICE`` values."""
    inner = "\n" + _INDENT * (depth + 1)
    sep = "," + inner
    lead = "[" + inner
    for start in range(0, array.size, _SLICE):
        yield lead + _joined(array[start : start + _SLICE].tolist(), sep)
        lead = sep
    yield "\n" + _INDENT * depth + "]"


def _joined(values: Sequence[float], sep: str) -> str:
    """The reprs of ``values`` joined by ``sep``: nonempty, nondecreasing,
    and every entry an exact float in [0, 1]. Where the first and last
    are equal and nonzero, that is one text repeated."""
    first, last = values[0], values[-1]
    if first and first == last:
        one = float.__repr__(first)
        return (one + sep) * (len(values) - 1) + one
    return sep.join(map(float.__repr__, values))


# Bytes buffered per write call to an ``--output`` file. A Hommel report of
# 14.7 MB takes about 1,800 writes with the default 8 KB buffer and 15 at
# 1 MB; the fewer calls more than pay for the new file and the rename.
_WRITE_BUFFER = 1 << 20


def _write_report(path: str, chunks: Iterator[str]) -> None:
    """Write ``chunks`` to ``path``, all of them or none.

    A regular file, or a path with no file yet, is replaced only once the
    whole report is written: the text goes to a new file beside it, with
    the file's mode if it has one, and ``os.replace`` moves it over the
    path. A failed write removes the new file and leaves ``path`` as it
    was. A device, a FIFO or anything else that is not a regular file is
    written in place, as is a file in a directory that admits no new file.
    A symbolic link is followed, so the file it names is replaced; a link
    to anything else, such as ``/dev/stdout`` on a pipe, is opened as the
    kernel resolves it.
    """
    try:
        mode = os.stat(path).st_mode
    except FileNotFoundError:
        mode = None
    tmp = None
    if mode is None or stat.S_ISREG(mode):
        if os.path.islink(path):
            path = os.path.realpath(path)
        try:
            fd, tmp = _new_sibling(path)
        except PermissionError:
            if mode is None:  # no file to write in place either
                raise
    if tmp is None:
        with open(path, "w", buffering=_WRITE_BUFFER) as fh:
            fh.writelines(chunks)
        return
    try:
        with open(fd, "w", buffering=_WRITE_BUFFER) as fh:
            if mode is not None:
                os.fchmod(fh.fileno(), stat.S_IMODE(mode))
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def _new_sibling(path: str) -> tuple[int, str]:
    """A new empty file in ``path``'s directory, open for writing, with
    the mode the umask leaves of 0o666: its descriptor and its path."""
    head = os.path.dirname(path)
    while True:
        name = os.path.join(head, f".kfwer-{os.urandom(6).hex()}.tmp")
        try:
            return os.open(name, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666), name
        except FileExistsError:
            continue


def _emit(payload: dict, output: Optional[str]) -> None:
    """Write the report to ``output`` (see :func:`_write_report`), or to
    stdout without one. A failed write, also one partway through, raises
    :class:`ConfigError` naming the destination."""
    chunks = itertools.chain(_json_chunks(payload), "\n")
    if output:
        try:
            _write_report(output, chunks)
        except OSError as exc:
            raise ConfigError(f"{output}: {exc.strerror}") from None
    else:
        try:
            sys.stdout.writelines(chunks)
            sys.stdout.flush()
        except OSError as exc:
            raise ConfigError(f"stdout: {exc.strerror}") from None


def _run_procedure(args, p: PValueVector) -> ProcedureResult:
    """Check the flags, read any ``file:`` or ``--base-schedule`` file, and
    run the procedure; names resolve in :mod:`kfwer.procedures`."""
    proc, spec, k, n, alpha = args.procedure, args.schedule, args.k, p.n, args.alpha
    path = spec[len("file:"):] if spec.startswith("file:") else None
    check_procedure(proc, None if path else spec, k, n, alpha)
    if proc in FAMILY_PROCEDURES:
        check_family_size(k, n)  # the report writes every entry of the family
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
        with _reading(name), open(name, encoding="utf-8") as fh:
            values, lines = _read_pvalues(fh, name)
    else:
        name = "stdin"
        with _reading(name):
            values, lines = _read_pvalues(sys.stdin, name)
    try:
        p = order_pvalues(values)
    except OutOfRangeError as exc:
        line = lines[exc.position - 1] if lines else exc.position
        raise InputDataError(f"{name}: line {line}: p-value {exc.value!r} outside [0, 1]") from None
    del values, lines  # p holds its own copy; at 10^6 this is 8 MB off the peak
    result = _run_procedure(args, p)
    payload = {
        "n": p.n,
        "k": args.k,
        "alpha": args.alpha,
        "procedure": args.procedure,
        "critical_values": result.schedule if result.schedule is not None else result.family,
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
    code = main()
    # A report that failed to reach stdout can leave bytes in its buffer;
    # the interpreter's flush at exit would fail on them again and exit
    # 120. Send what is left to the null device so main's code stands.
    try:
        sys.stdout.flush()
    except OSError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    entry()

"""Command-line frontend: apply a procedure to a p-value file, estimate
error rates by simulation, or run the randomized theorem checks.

Input files are read as UTF-8, a leading byte order mark skipped; a
file or stream that cannot be opened, read or decoded is bad input data.
A p-value or schedule file is read in one pass into a float64 array
(:func:`_read_numbers`); a family file, CSV ``m,i,alpha``, is read in one
pass into columns that one lexsort places (:func:`_read_family_file`). A
bad line is named by its number; the range check of p-values is
:func:`kfwer.core.order_pvalues`'s, whose position maps back to a line.

The reports of ``test`` and ``simulate``, one-level dicts with string
keys, are ``json.dumps(report, indent=2)`` and a newline, byte for byte,
streamed in pieces and written from the invariants of the schedule or
family (:func:`_json_chunks`); a schedule's values are formatted in
numpy, a slice at a time, as ``float.__repr__`` writes them
(:func:`_reprs`). A family report, all (n-k+1)(n-k+2)/2 entries, is
refused above ``MAX_FAMILY_ENTRIES`` before any file is read. A report
written to ``--output`` replaces a regular file only once it is complete
(:func:`_write_report`).

The exit codes are listed in ``kfwer --help`` (``_EXIT_CODES``).
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
from array import array
from dataclasses import asdict, fields
from typing import Callable, Iterator, Optional, Sequence, TextIO

import numpy as np

from .core import (
    ConfigError,
    CriticalSchedule,
    KfwerError,
    LocalTestFamily,
    NotMonotoneError,
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

# What ``kfwer --help`` tells a user; the module docstring is for developers.
_DESCRIPTION = (
    "k-FWER multiple testing: apply a stepdown, stepup, generalized Hommel or "
    "closed testing procedure to p-values, estimate error rates and power by "
    "simulation, or check the procedures' theorems on random inputs."
)
_EXIT_CODES = (
    "exit codes: 0 success, 1 verification counterexample, 2 malformed input "
    "data, 3 invalid flags or flag combinations, a size too large to allocate "
    "(error: not enough memory: ...), or a report that could not be written "
    "(error: stdout: ... or error: PATH: ...)"
)


class InputDataError(Exception):
    """Malformed input file or stream; maps to exit code 2."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; the exit-code contract
    # reserves 2 for bad data, so route flag errors to 3 instead.
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(EXIT_BAD_FLAGS)


@contextlib.contextmanager
def _reading(name: str, line: Optional[Callable[[], int]] = None) -> Iterator[None]:
    """Report a file or stream that cannot be opened, read or decoded, or
    that holds a row ``csv`` cannot read, as bad input data naming it
    (exit 2). ``line`` gives the line of such a row, where it is known."""
    try:
        yield
    except OSError as exc:
        raise InputDataError(f"{name}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise InputDataError(f"{name}: not valid {exc.encoding} text: {exc.reason}") from None
    except csv.Error as exc:
        raise InputDataError(f"{name}: line {line()}: {exc}" if line else f"{name}: {exc}") from None


# Characters of text converted per block by the reader's one pass.
_BLOCK = 1 << 16


def _read_numbers(text: str, name: str, header: Optional[str] = None) -> tuple[np.ndarray, Optional[list[int]]]:
    """The numbers of ``text``, one per line, as a float64 array, and the
    line each came from (None when number j came from line j).

    Every line goes through ``float()``, which strips whitespace as
    ``str.strip`` does, in blocks of about ``_BLOCK`` characters, each cut
    right after a ``\\n`` and so never inside a line break. Only when that
    raises are the lines walked one at a time: blank lines are skipped, a
    first line equal to ``header`` (case and spaces aside) makes the rest
    CSV rows whose second field is the number, and a bad token is named.
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
        with _reading(name, lambda: idx):
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


def _at_line(name: str, lines: Optional[list[int]], position: int, fault: str) -> InputDataError:
    """``fault`` in number ``position`` of a file :func:`_read_numbers` read, named by its line."""
    return InputDataError(f"{name}: line {lines[position - 1] if lines else position}: {fault}")


def _read_schedule_file(path: str, k: int, n: int) -> CriticalSchedule:
    """One critical value per line; must supply exactly n-k+1 values. A
    value out of range or below the one before it is named by its line."""
    with _reading(path), open(path, encoding="utf-8-sig") as fh:
        text = fh.read()
    values, lines = _read_numbers(text, path)
    try:
        return validate_schedule(k, n, values)
    except OutOfRangeError as exc:
        raise _at_line(path, lines, exc.position, f"critical value {exc.value!r} outside [0, 1]") from None
    except NotMonotoneError as exc:
        fault = f"critical value {values.item(exc.position - 1)!r} is smaller than the one before it"
        raise _at_line(path, lines, exc.position, fault) from None
    except KfwerError as exc:
        raise InputDataError(f"{path}: {exc}") from None


def _read_family_file(path: str, k: int, n: int) -> LocalTestFamily:
    """CSV with header m,i,alpha, one row per triangular entry.

    The rows are parsed in one pass into columns, and one stable lexsort
    by (m, i) finds a repeated pair and places the entries row after row.
    The fault named is the first a walk down the file meets, and only once
    the whole file is read: text that cannot be decoded is named first. A
    row is named by the line it ends on, as a row ``csv`` cannot read is,
    so a quoted field over several lines does not shift the lines after it.
    """
    lines, ms, is_, alphas = array("q"), [], [], array("d")
    fault = None
    with _reading(path, lambda: reader.line_num), open(path, encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        header = next((row for row in reader if any(f.strip() for f in row)), None)
        records = reader
        if header is None or [f.strip().lower() for f in header] != ["m", "i", "alpha"]:
            fault, records = "expected CSV header 'm,i,alpha'", ()
        for row in records:
            try:
                m, i, a = row
                m, i, a = int(m), int(i), float(a)
            except ValueError:
                if not any(f.strip() for f in row):
                    continue  # a blank row
                fault = (f"line {reader.line_num}: expected three fields 'm,i,alpha'" if len(row) != 3
                         else f"line {reader.line_num}: could not parse 'm,i,alpha' from {row!r}")
                break
            lines.append(reader.line_num)  # the last line of the row, as csv.Error names it
            ms.append(m)
            is_.append(i)
            alphas.append(a)
        fh.read()  # to the end: text past a fault that cannot be decoded is named instead
    # int64 columns, or Python ints where one does not fit (such a pair is unexpected)
    m, i = (np.array(c, dtype=np.int64 if max(map(abs, c), default=0) < 2**63 else object) for c in (ms, is_))
    del ms, is_
    order = np.lexsort((i, m))
    m, i = m[order], i[order]
    repeats = np.flatnonzero((m[1:] == m[:-1]) & (i[1:] == i[:-1])) + 1
    if repeats.size:
        first = repeats[order[repeats].argmin()]  # the repeat on the earliest line
        fault = f"line {lines[order[first]]}: duplicate entry for i={i[first]}, m={m[first]}"
    if fault is not None:
        raise InputDataError(f"{path}: {fault}")
    width = n - k + 1
    inside = (k <= i) & (i <= m) & (m <= n)
    if order.size != width * (width + 1) // 2 or not inside.all():
        absent = np.tri(width, dtype=bool)  # [m - k, i - k] for every pair expected
        absent[(m[inside] - k).astype(np.intp), (i[inside] - k).astype(np.intp)] = False
        gap_i, gap_m = np.nonzero(absent.T)  # sorted by (i, m), as the extra pairs are next
        extra = np.lexsort((m[~inside], i[~inside]))
        missing = zip((gap_i[:5] + k).tolist(), (gap_m[:5] + k).tolist())
        unexpected = zip(i[~inside][extra[:5]].tolist(), m[~inside][extra[:5]].tolist())
        raise InputDataError(
            f"{path}: family table must cover exactly i=k..m, m=k..n for k={k}, n={n}; (i, m) pairs "
            f"missing {gap_i.size}, first {list(missing)}; unexpected {extra.size}, first {list(unexpected)}"
        )
    flat = np.frombuffer(alphas)[order].tolist()
    try:
        return validate_family(k, n, [flat[j * (j + 1) // 2 : (j + 1) * (j + 2) // 2] for j in range(width)])
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


# A report, a nonempty dict with string keys, is ``json.dumps(report,
# indent=2)`` plus a newline, byte for byte, written in pieces. The
# critical values reach the writer as the CriticalSchedule or
# LocalTestFamily itself, whose invariants spare most of json's per-number
# work: every entry is an exact finite float in [0, 1], whose JSON text is
# its repr, and every row is nondecreasing. So a row whose first and last
# entries are equal and nonzero (every row of a stepdown form) repeats one
# repr; a stepup form's row m is the tail alpha_{n-m+k..n} of its
# schedule, whose values are each formatted once; and a schedule is
# written from its array, ``_SLICE`` values per piece. The schedule's
# values are formatted by _reprs, which computes in numpy the digits
# float.__repr__ writes and leaves to it what it cannot settle. Other
# table rows stay on float.__repr__: a call per row would not repay the
# kernel's fixed cost. A nonempty list of exact ints is joined; any other
# value is json.dumps's text, indented one level.
_SLICE = 1 << 13


def _json_chunks(report: dict) -> Iterator[str]:
    """The text of ``json.dumps(report, indent=2)``, in pieces: one for
    each row of a family."""
    sep = "{\n  "
    for key, value in report.items():
        yield f"{sep}{json.dumps(key)}: "
        sep = ",\n  "
        if isinstance(value, LocalTestFamily):
            if value._form == "stepup":
                # Row m is the tail of the schedule from value n - m. Under
                # MAX_FAMILY_ENTRIES the schedule is shorter than one _SLICE.
                text, starts = _reprs(value._schedule._array, ",\n      ")
                bodies = (text[start:] for start in reversed(starts.tolist()))
            else:
                bodies = (_joined(value.row(m), ",\n      ") for m in range(value.k, value.n + 1))
            lead = "[\n    "
            for body in bodies:
                yield lead + "[\n      " + body + "\n    ]"
                lead = ",\n    "
            yield "\n  ]"
        elif isinstance(value, CriticalSchedule):
            lead = "[\n    "
            for start in range(0, value._array.size, _SLICE):
                yield lead + _joined(value._array[start : start + _SLICE], ",\n    ")
                lead = ",\n    "
            yield "\n  ]"
        elif isinstance(value, list) and value and set(map(type, value)) == {int}:
            # Exact ints print as their repr; subclasses such as bool do not.
            yield "[\n    " + ",\n    ".join(map(int.__repr__, value)) + "\n  ]"
        else:
            # json escapes a newline in a string: each one it writes breaks a line.
            yield json.dumps(value, indent=2).replace("\n", "\n  ")
    yield "\n}"


def _joined(values: Sequence[float], sep: str) -> str:
    """The reprs of ``values`` joined by ``sep``: nonempty, nondecreasing,
    and every entry an exact float in [0, 1]. Where the first and last
    are equal and nonzero, that is one text repeated; a float64 array is
    otherwise written by :func:`_reprs`."""
    first, last = values[0], values[-1]
    if first and first == last:
        one = float.__repr__(first)
        return (one + sep) * (len(values) - 1) + one
    if isinstance(values, np.ndarray):
        return _reprs(values, sep)[0]
    return sep.join(map(float.__repr__, values))


# Tables of the shortest-repr kernel: 10^s rounded to a float and the
# error of that rounding, also rounded, for s = 0..57; and 10^0..10^18.
_TENS = np.array([float(10**s) for s in range(58)])
_TENS_ERROR = np.array([float(10**s - int(float(10**s))) for s in range(58)])
_POW10 = 10 ** np.arange(19, dtype=np.int64)
_VELTKAMP = 2.0**27 + 1.0
_MARGIN = 2.0**-30


def _shortest(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The decimal ``repr(x)`` writes for each float64 x, as q * 10^power
    with q an int64 of no trailing zero, and whether that entry was
    settled. Where it was not, q and power are meaningless and the text
    is ``float.__repr__``'s.

    Python's repr is the shortest decimal that reads back to the float,
    and of those the nearest (Gay 1990; Adams, Ryu, PLDI 2018). Here it
    is screened in numpy, then confirmed, as :func:`kfwer.bounds.d1` is.

    *Domain.* x normal in [1e-40, 1) with a significand other than 1/2
    (frexp x = m * 2^e, m in (1/2, 1)): its round-trip interval is then
    x +- 2^(e-54), as wide on both sides. Scaled by 10^s, s = 16 -
    floor(log10 x), and kept only when fl(x * 10^s) lies in [1e16, 1e17),
    x becomes y with half-width h = y * 2^(e-54) / x in (0.55, 11.2).

    *Screen.* y = Y + f, Y an int64 and |f| <= 1/2: P = fl(10^s) and E =
    fl(10^s - P) come from the tables; Dekker's product (Veltkamp split;
    no partial product underflows for x >= 1e-40) gives hi + lo_d = x * P
    exactly; lo = fl(lo_d + fl(x * E)); Y = hi + rint(lo) and f = lo -
    rint(lo), exact by Sterbenz. The 17-digit decimals that read back to
    x are the integers A..B strictly inside Y + f +- h, h = 2^(e-54) * P;
    t is the largest power of ten with a multiple in [A, B], and q * 10^t
    the multiple of 10^t nearest y. q has no trailing zero (t is largest)
    and at most 17 digits (2h > 10 where y nears 1e17); power = t - s.

    *Bound.* With u = 2^-53: |10^s - P - E| <= u^2 * P, and x * u^2 * P <
    1.3e-15; |x * E| <= u * x * P < 11.2, rounded within 1.3e-15; |lo_d|
    <= 8, half an ulp of hi < 2^57, so |lo| < 19.2 is rounded within
    2.2e-15. So f is within 4.8e-15 of y - Y. h errs by 2^(e-54) * |10^s -
    P| <= u * h < 1.3e-15 and f +- h is rounded within 1.3e-15: each
    interval end is within 7.4e-15 of its computed value.

    *Confirm.* An entry is not settled when an interval end lies within
    ``_MARGIN`` = 2^-30 of an integer (an end on an integer is a 17-digit
    decimal that reads back by the parity of m), or when y lies within it
    of a midpoint between two multiples of 10^t (a tie). The margin is
    five orders of magnitude above the bound, and no float of the domain
    needs it. For s <= 22, P is exact and E = 0, so f is exact and each end
    is one rounding of exact operands, which cannot cross an integer (a
    float). For s >= 23 a misjudged comparison changes a digit only where
    y lies within the bound of a half-integer or of an odd multiple of 5
    (t <= 1: as h < 11.2, a multiple of 100 in [A, B] is far from its
    midpoints), or an interval end within it of a multiple of 10. Those
    floats can be listed by Euclid's descent on M * 5^s mod 2^(53-s-e),
    x = M * 2^(e-53): within 8e-15 there are 10,700, and the strict
    comparisons alone judge each one right (the tests check those within
    1e-15, with and without the margin). Last, q * 10^t must lie in
    [A, B]. On an interval symmetric about y the nearer of two multiples
    is inside whenever the farther is, so this confirms the derivation;
    it does not fire on the domain.
    """
    ok = (values >= 1e-40) & (values < 1.0)
    x = np.where(ok, values, 0.5)  # the others are not settled
    mantissa, e = np.frexp(x)
    ok &= mantissa != 0.5
    s = 16 - np.floor(np.log10(x)).astype(np.intp)
    tens = _TENS[s]
    hi = x * tens
    ok &= (hi >= 1e16) & (hi < 1e17)
    x_hi, x_lo = _split(x)
    t_hi, t_lo = _split(tens)
    lo = ((x_hi * t_hi - hi) + x_hi * t_lo + x_lo * t_hi) + x_lo * t_lo
    lo += x * _TENS_ERROR[s]
    whole = np.rint(lo)
    f = lo - whole
    y = hi.astype(np.int64) + whole.astype(np.int64)
    half = np.ldexp(tens, e - 54)
    low, high = f - half, f + half
    low_up, high_down = np.ceil(low), np.floor(high)
    ok &= (low_up - low > _MARGIN) & (high - high_down > _MARGIN)
    a, b = y + low_up.astype(np.int64), y + high_down.astype(np.int64)

    # t, by dividing B and A - 1 by ten until they agree
    t = np.zeros(values.size, np.intp)
    live = np.flatnonzero(ok)
    b_div, a_div = b[live], a[live] - 1
    for power in range(1, 19):
        b_div //= 10
        a_div //= 10
        more = b_div > a_div
        live, b_div, a_div = live[more], b_div[more], a_div[more]
        if not live.size:
            break
        t[live] = power
    step = _POW10[t]
    rest = y % step
    # y lies rest + f above a multiple of 10^t; its midpoint is step / 2 above
    above = rest - step // 2
    up = (t > 0) & (above + f > 0)
    tie = np.where(t > 0, (above == 0) & (np.abs(f) <= _MARGIN), np.abs(f) >= 0.5 - _MARGIN)
    multiple = y - rest + np.where(up, step, 0)
    ok &= ~tie & (a <= multiple) & (multiple <= b)
    return np.where(ok, multiple // step, 1), t - s, ok


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split of each float into two halves that sum to it exactly."""
    c = _VELTKAMP * a
    high = c - (c - a)
    return high, a - high


def _layouts() -> tuple[np.ndarray, np.ndarray]:
    """The byte templates of :func:`_reprs`: for each layout, the source
    column of each character, and the text's length.

    A value's source row holds the 18 digits of q, zero-padded (columns
    0..17), then ``0``, ``.``, ``e``, ``-`` (18..21) and the two digits of
    1 - decpt (22, 23). Layout 17*z + nd - 1 is ``0.``, z zeros and the nd
    digits of q, for decpt = -z, z = 0..3; layout 68 + nd - 1 is q's first
    digit, ``.`` and the rest where nd > 1, then ``e-`` and the exponent.
    """
    fixed = [[18, 19] + [18] * z + list(range(18 - nd, 18)) for z in range(4) for nd in range(1, 18)]
    exponent = [[18 - nd] + ([19] + list(range(19 - nd, 18)) if nd > 1 else []) + [20, 21, 22, 23]
                for nd in range(1, 18)]
    layouts = fixed + exponent
    table = np.zeros((len(layouts), 22), np.intp)
    for row, columns in zip(table, layouts):
        row[: len(columns)] = columns
    return table, np.array([len(columns) for columns in layouts])


_LAYOUT_COLUMNS, _LAYOUT_LENGTHS = _layouts()
_CONSTANTS = np.frombuffer(b"0.e-", np.uint8)
# Widest text: a fallback such as -2.2250738585072014e-308 has 24 characters.
_TEXT_WIDTH = 24


def _reprs(values: np.ndarray, sep: str) -> tuple[str, np.ndarray]:
    """``sep.join(map(float.__repr__, values.tolist()))`` for a nonempty
    float64 array, and the offset in that text where each value's starts.

    Each value settled by :func:`_shortest` is laid out by Python's repr
    rules, fixed notation for decpt > -4 and ``d.ddde-XX`` below, through
    one byte template per layout; every other value is written by
    ``float.__repr__``. One boolean compaction and one decode make the text.
    """
    size = values.size
    q, power, settled = _shortest(values)
    digit_count = np.searchsorted(_POW10, q, side="right")
    decpt = digit_count + power  # the repr is 0.<digits of q> * 10^decpt
    layout = np.where(settled, np.where(decpt > -4, -17 * decpt, 68) + digit_count - 1, 0)
    width = _TEXT_WIDTH + len(sep)
    columns = 24  # of a source row: 18 digits, 4 constants, 2 exponent digits
    source = np.empty((size, columns), np.uint8)
    halves = np.empty((size, 2))
    halves[:, 0] = q // 10**9
    halves[:, 1] = q - halves[:, 0].astype(np.int64) * 10**9
    digits = np.empty((size, 2, 9), np.uint8)  # each half's nine digits
    for column in range(8, -1, -1):  # floor(v * 0.1) is v // 10 for integers v < 2^53
        tenth = np.floor(halves * 0.1)
        digits[:, :, column] = halves - 10.0 * tenth + 48.0  # as ASCII
        halves = tenth
    source[:, :18] = digits.reshape(size, 18)
    source[:, 18:22] = _CONSTANTS
    exponent = 1 - decpt
    source[:, 22] = exponent // 10 + 48
    source[:, 23] = exponent % 10 + 48
    index = _LAYOUT_COLUMNS[layout]
    index += np.arange(0, size * columns, columns)[:, None]
    chars = np.empty((size, width), np.uint8)
    chars[:, :22] = source.ravel().take(index)
    lengths = _LAYOUT_LENGTHS[layout]

    fallback = np.flatnonzero(~settled)
    if fallback.size:
        texts = list(map(float.__repr__, values[fallback].tolist()))
        counts = np.fromiter(map(len, texts), np.intp, fallback.size)
        rows = np.repeat(fallback * width - np.cumsum(counts) + counts, counts)
        chars.ravel()[rows + np.arange(rows.size)] = np.frombuffer("".join(texts).encode("ascii"), np.uint8)
        lengths[fallback] = counts
    ends = np.arange(0, size * width, width) + lengths
    for offset, char in enumerate(sep.encode("ascii")):
        chars.ravel()[ends + offset] = char
    lengths += len(sep)
    lengths[-1] -= len(sep)
    text = chars[np.arange(width) < lengths[:, None]].tobytes().decode("ascii")
    return text, np.cumsum(lengths) - lengths


# Bytes buffered per write call to an ``--output`` file. A Hommel report of
# 14.7 MB takes about 1,800 writes with the default 8 KB buffer and 15 at
# 1 MB; the fewer calls more than pay for the new file and the rename.
_WRITE_BUFFER = 1 << 20


def _write_report(path: str, chunks: Iterator[str]) -> None:
    """Write ``chunks`` to ``path``, all of them or none.

    A regular file, or a path with no file yet, is replaced only once the
    whole report is in a new file beside it, with the file's mode if it has
    one, by ``os.replace``; a failed write removes the new file. A symbolic
    link to a regular file is followed. Anything else, such as a FIFO or
    ``/dev/stdout`` on a pipe, is written in place, as is a file in a
    directory that admits no new file.
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
        try:
            critical = critical_values(proc, spec, k, n, alpha,
                                       base=lambda: _read_schedule_file(args.base_schedule, k, n))
        except KfwerError as exc:  # the request was checked: only rescaling the base file's values fails
            raise InputDataError(f"{args.base_schedule}: {exc}") from None
    elif proc in FAMILY_PROCEDURES:
        critical = _read_family_file(path, k, n)
    else:
        critical = _read_schedule_file(path, k, n)
    return bind_procedure(proc, critical)(p)


def cmd_test(args) -> int:
    _check_output(args.output)
    path = args.input if args.input != "-" else None
    name = path or "stdin"
    with _reading(name), (open(path, encoding="utf-8-sig") if path else contextlib.nullcontext(sys.stdin)) as fh:
        values, lines = _read_pvalues(fh, name)
    try:
        p = order_pvalues(values)
    except OutOfRangeError as exc:
        raise _at_line(name, lines, exc.position, f"p-value {exc.value!r} outside [0, 1]") from None
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
    flags = {field.name: getattr(args, field.name) for field in fields(SimulationConfig) if field.name in args}
    flags["seed"] = _resolve_seed(flags.get("seed"))
    config = SimulationConfig(**flags)
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
    failed = False
    for theorem in theorems:
        report = run_theorem_trials(theorem, args.trials, args.n_max, seed)
        print(report.summary())
        for failure in report.failures:
            failed = True
            print(failure.describe())
    return EXIT_COUNTEREXAMPLE if failed else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="kfwer", description=_DESCRIPTION, epilog=_EXIT_CODES)
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

    # Dests are SimulationConfig's fields; a flag not given takes its default.
    s = sub.add_parser("simulate", help="Monte Carlo k-FWER and power estimation", argument_default=argparse.SUPPRESS)
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--true-nulls", dest="n_true", metavar="TRUE_NULLS", type=int, required=True)
    s.add_argument("--k", type=int, required=True)
    s.add_argument("--alpha", type=float, required=True)
    s.add_argument("--procedure", choices=PROCEDURES)
    s.add_argument("--schedule", choices=SCHEDULES, help="romano-shaikh rescales the lehmann-romano values")
    s.add_argument("--reps", type=int)
    s.add_argument("--dependence", choices=DEPENDENCE)
    s.add_argument("--rho", type=float)
    s.add_argument("--delta", type=float)
    s.add_argument("--seed", type=int, help="defaults to KFWER_SEED, then 0")
    s.add_argument("--output", default=None, help="write the JSON report here instead of stdout")
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
    except MemoryError as exc:
        # A size too large to allocate came from the flags, as numpy reports it.
        print(f"error: not enough memory: {str(exc) or 'an allocation failed'}", file=sys.stderr)
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

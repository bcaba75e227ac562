"""The JSON report writer: a report's text equals ``json.dumps(report,
indent=2)`` byte for byte, every report of ``kfwer test`` and ``kfwer
simulate`` is that text plus a newline on stdout and in ``--output``
alike, and a failed write exits 3 naming where it went."""

import errno
import io
import json
import math
import os
import subprocess
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kfwer
from kfwer import (
    CriticalSchedule,
    LocalTestFamily,
    cli,
    constant_family,
    lehmann_romano_schedule,
    romano_shaikh_schedule,
    scaled_family,
    simes_family,
    stepdown_as_family,
    stepup_as_family,
    validate_family,
    validate_schedule,
)
from kfwer.cli import EXIT_BAD_FLAGS, EXIT_OK, main
from kfwer.procedures import FAMILY_PROCEDURES, PROCEDURES, SCHEDULES, critical_values


def written(value):
    return "".join(cli._json_chunks(value))


# Distinct float objects of one value, so that no shortcut can lean on
# object identity.
def copies(x, count):
    return [float.fromhex(x.hex()) for _ in range(count)]


floats = st.floats(allow_nan=True, allow_infinity=True)
strings = st.text(alphabet=st.characters(), max_size=8) | st.sampled_from(['"', "\\", "é", "🎲", "\n\t", "</x>"])
scalars = st.one_of(st.none(), st.booleans(), st.integers(), floats, strings, floats.map(np.float64))
keys = st.one_of(st.text(max_size=6), st.integers(), floats, st.booleans(), st.none(), floats.map(np.float64))
rows = st.one_of(
    st.tuples(floats, st.integers(1, 6)).map(lambda a: [a[0]] * a[1]),
    st.tuples(floats, st.integers(1, 6)).map(lambda a: copies(*a)),
    st.tuples(floats, st.integers(1, 6)).map(lambda a: tuple([a[0]] * a[1])),
    st.lists(st.sampled_from([0.0, -0.0]), min_size=1, max_size=6),
    st.lists(st.sampled_from([5e-324, -5e-324, 0.0]), min_size=1, max_size=6),
    # A float first, then items equal to it of other types or other signs.
    st.lists(st.sampled_from([1, True, 1.0, np.float64(1.0)]), max_size=5).map(lambda t: [1.0, *t]),
    st.lists(st.sampled_from([0, False, 0.0, -0.0, np.float64(0.0)]), max_size=5).map(lambda t: [0.0, *t]),
    st.lists(st.sampled_from([0.1, 1e300, 1e300, float("inf"), float("nan"), -1e-300]), min_size=1, max_size=6),
    st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=6),
    # Empty and nonempty lists of exact ints, which the writer joins itself,
    # and of ints mixed with bools, an int subclass it must leave to json.
    st.lists(st.integers(), max_size=6),
    st.lists(st.integers(), max_size=6).map(tuple),
    st.lists(st.sampled_from([0, 1, 2**70, True, False]), max_size=6),
)
# A value nested in a report: lists, tuples and dicts, whose keys may be
# numbers, bools or None (json quotes their text).
nested = st.recursive(
    scalars | rows,
    lambda children: st.lists(children, max_size=3)
    | st.lists(children, max_size=3).map(tuple)
    | st.dictionaries(keys, children, max_size=3),
    max_leaves=12,
)
# A report: a nonempty dict with string keys, one level deep, whose values
# may also be a schedule or a family (defined below), written from their
# invariants.
reports = st.dictionaries(strings, nested | st.deferred(lambda: families() | schedules()), min_size=1, max_size=6)


def as_json(report):
    """``json.dumps``'s text of a report, with each schedule or family as its values."""
    return json.dumps({key: plain(value) if isinstance(value, (CriticalSchedule, LocalTestFamily)) else value
                       for key, value in report.items()}, indent=2)


@settings(max_examples=400, deadline=None)
@given(reports)
def test_writer_matches_json_dumps(report):
    assert written(report) == as_json(report)


@pytest.mark.parametrize("value", [
    [], {}, [[]], {"a": {}}, [0.0, -0.0], [-0.0, 0.0], [5e-324] * 3, [1.0, 1, True],
    [np.float64(0.5), 0.5], [0.5, np.float64(0.5)], [float("nan")] * 2, [float("inf")] * 2,
    [1e308, 1e308], [2**70, 3], ((0.05,) * 3, (0.025,) * 2), "é\"", {"x": [1.5, 2.5], "y": None},
    [1, True], [True], (1, 2), {1: [3], None: {"z": [4, 5]}, 0.5: "a\nb"}, [[1, 2], [3]], "a\nb", "",
    float("nan"), -0.0, np.float64(1e-300), 2**70, None, False,
    constant_family(1, 1, 0.05), validate_schedule(1, 1, [-0.0]),
])
def test_writer_matches_json_dumps_on_edge_cases(value):
    """Each value as a report's one entry, after and before other entries."""
    for report in ({"value": value}, {"a": 1, "value": value, "z": [1]}):
        assert written(report) == as_json(report)


# Critical values reach the writer as the schedule or family itself,
# which it writes from their invariants; the text must be json's for the
# plain values. Zeros, which can only lead a row, come as 0.0 or -0.0 at
# random, so rows and whole zero rows mix the two.
units = st.one_of(st.sampled_from([0.0, 5e-324, 1e-300, 0.01, 0.05, 0.5, 1.0]), st.floats(0.0, 1.0))


def signed_zeros(rnd, values):
    return [v if v else rnd.choice((0.0, -0.0)) for v in values]


@st.composite
def sizes(draw):
    k = draw(st.integers(1, 4))
    return k, draw(st.integers(k, k + 10))


@st.composite
def schedules(draw, size=sizes()):
    k, n = draw(size)
    kind = draw(st.sampled_from(["drawn", "lehmann-romano", "romano-shaikh", "constant"]))
    alpha = draw(st.floats(0.001, 0.999))
    if kind == "lehmann-romano":
        return lehmann_romano_schedule(k, n, alpha)
    if kind == "romano-shaikh":
        return romano_shaikh_schedule(lehmann_romano_schedule(k, n, alpha), alpha)
    if kind == "constant":
        return critical_values("stepdown", "constant", k, n, alpha, base=None)
    values = sorted(draw(st.lists(units, min_size=n - k + 1, max_size=n - k + 1)))
    return validate_schedule(k, n, signed_zeros(draw(st.randoms(use_true_random=False)), values))


@st.composite
def families(draw):
    """Constant, the stepdown and stepup forms of a schedule, Simes and
    random doubly monotone families, as validated or as built."""
    k, n = draw(sizes())
    kind = draw(st.sampled_from(["constant", "stepdown", "stepup", "simes", "product"]))
    if kind == "simes":
        return simes_family(k, n, draw(st.floats(0.001, 0.999)))
    if kind == "stepdown":
        return stepdown_as_family(draw(schedules(st.just((k, n)))))
    if kind == "stepup":
        return stepup_as_family(draw(schedules(st.just((k, n)))))
    width = n - k + 1
    if kind == "constant":
        levels = sorted(draw(st.lists(units, min_size=width, max_size=width)), reverse=True)
        table = [[levels[m - k]] * (m - k + 1) for m in range(k, n + 1)]
    else:
        # value(i, m) = f_i * h_m rounded, f rising and h falling: rounding
        # is monotone, so rows rise, columns fall, and values repeat.
        f = sorted(draw(st.lists(units, min_size=width, max_size=width)))
        h = sorted(draw(st.lists(units, min_size=width, max_size=width)), reverse=True)
        digits = draw(st.integers(1, 17))
        table = [[round(f[i - k] * h[m - k], digits) for i in range(k, m + 1)] for m in range(k, n + 1)]
    rnd = draw(st.randoms(use_true_random=False))
    return validate_family(k, n, [signed_zeros(rnd, row) for row in table])


def plain(critical):
    return critical.rows if isinstance(critical, LocalTestFamily) else critical.alphas


def assert_written_as_json(critical):
    report = {"critical_values": critical}
    assert written(report) == as_json(report)


@settings(max_examples=400, deadline=None)
@given(families() | schedules())
def test_table_writer_matches_json_dumps(critical):
    assert_written_as_json(critical)


@pytest.mark.parametrize("critical", [
    validate_family(1, 2, [[0.0], [-0.0, 0.0]]),
    validate_family(1, 2, [[-0.0], [0.0, -0.0]]),
    validate_family(2, 4, [[0.03], [-0.0, 0.02], [0.0, -0.0, 0.01]]),
    validate_family(1, 3, [[0.5], [0.0, 0.5], [-0.0, 0.0, 0.5]]),
    stepup_as_family(validate_schedule(1, 4, [0.0, -0.0, 0.0, 0.05])),
    stepup_as_family(validate_schedule(1, 4, [-0.0, 0.0, 0.01, 0.05])),
    stepdown_as_family(validate_schedule(1, 4, [-0.0, 0.0, 0.01, 0.05])),
    stepdown_as_family(validate_schedule(2, 5, [-0.0, 0.0, -0.0, 0.0])),
    validate_family(3, 3, [[0.05]]),
    validate_family(1, 1, [[-0.0]]),
    constant_family(1, 1, 0.05),
    constant_family(1, 6, 0.05),
    scaled_family(lehmann_romano_schedule(1, 6, 0.05), 0.05),
    simes_family(1, 6, 0.05),
    validate_schedule(1, 1, [-0.0]),
    validate_schedule(2, 5, [-0.0, 0.0, -0.0, 0.0]),
    validate_schedule(2, 5, [0.0, 0.0, 0.01, 0.01]),
    validate_schedule(1, 3, [0.02, 0.02, 0.02]),
], ids=lambda critical: type(critical).__name__)
def test_table_writer_on_zeros_and_single_rows(critical):
    """Zero rows and zero prefixes of either sign, in one row and across
    rows, n = k, k = 1 and single values: the stepdown and stepup forms
    of a schedule led by -0.0 and 0.0 keep each zero's sign in every row."""
    assert_written_as_json(critical)


def test_romano_shaikh_hommel_report_is_json_dumps(tmp_path, capsys):
    """A Romano-Shaikh family's rows are tails of its schedule, so the
    writer formats each value once; the report is still json's text."""
    k, n, alpha = 2, 300, 0.05
    pfile = tmp_path / "p.txt"
    pfile.write_text("".join(f"{v!r}\n" for v in np.random.default_rng(3).uniform(size=n).tolist()))
    base = lehmann_romano_schedule(k, n, alpha)
    bfile = tmp_path / "base.txt"
    bfile.write_text("".join(f"{v!r}\n" for v in base.alphas))
    assert main(["test", "--k", str(k), "--alpha", str(alpha), "--procedure", "hommel",
                 "--schedule", "romano-shaikh", "--base-schedule", str(bfile), "--input", str(pfile)]) == EXIT_OK
    out = capsys.readouterr().out
    report = json.loads(out)
    assert out == json.dumps(report, indent=2) + "\n"
    assert report["critical_values"] == [list(row) for row in scaled_family(base, alpha).rows]


def schedule_report_case(tmp_path, kind, length):
    """The ``kfwer test`` flags for a schedule of ``length`` values, k = 2,
    and those values as a list, computed here from their formula or file."""
    k, alpha = 2, 0.05
    n = length + k - 1
    pfile = tmp_path / "p.txt"
    pfile.write_text("".join(f"{v!r}\n" for v in np.random.default_rng(n).uniform(size=n).tolist()))
    argv = ["test", "--k", str(k), "--alpha", str(alpha), "--input", str(pfile), "--procedure", "stepdown"]
    lehmann_romano = [k * alpha / (n - i + k) for i in range(k, n + 1)]
    if kind == "lehmann-romano":
        return argv + ["--schedule", kind], lehmann_romano
    if kind == "constant":
        return argv + ["--schedule", kind], [k * alpha / n] * length
    path = tmp_path / "values.txt"
    if kind == "romano-shaikh":
        path.write_text("".join(f"{v!r}\n" for v in lehmann_romano))
        d = kfwer.d1(validate_schedule(k, n, lehmann_romano))
        return argv + ["--schedule", kind, "--base-schedule", str(path)], [alpha * a / d for a in lehmann_romano]
    # A file schedule led by zeros of both signs, then rising values.
    values = [(-0.0, 0.0)[i % 2] for i in range(length // 3)]
    values += sorted(np.random.default_rng(length).uniform(0.0, alpha, length - len(values)).tolist())
    path.write_text("".join(f"{v!r}\n" for v in values))
    return argv + ["--schedule", f"file:{path}"], values


@pytest.mark.parametrize("kind", ["lehmann-romano", "romano-shaikh", "constant", "file"])
@pytest.mark.parametrize("length", [cli._SLICE - 1, cli._SLICE, cli._SLICE + 1, 2 * cli._SLICE + 1])
def test_schedule_reports_across_slices_are_json_dumps(kind, length, tmp_path, capsys):
    """A schedule is written from its array a slice at a time; at and
    around the slice boundaries the report is json's text of the same
    report with the values as a list, signed zeros and all."""
    argv, values = schedule_report_case(tmp_path, kind, length)
    assert main(argv) == EXIT_OK
    out = capsys.readouterr().out
    report = json.loads(out)
    assert len(report["critical_values"]) == length
    assert out == json.dumps(dict(report, critical_values=values), indent=2) + "\n"


# The vectorized repr: its text and offsets must be the plain join's for
# any float64, on the values its fast path settles and on those it leaves
# to float.__repr__ alike.
SEPS = [",", ",\n    ", ",\n      ", ", "]


def assert_reprs(values, sep=",\n    "):
    values = np.asarray(values, dtype=np.float64)
    texts = list(map(float.__repr__, values.tolist()))
    text, starts = cli._reprs(values, sep)
    assert text == sep.join(texts)
    lengths = [len(t) + len(sep) for t in texts]
    assert starts.tolist() == (np.cumsum(lengths) - lengths).tolist()


ONE_BITS = 0x3FF0000000000000
unit_bits = st.one_of(
    st.integers(0, ONE_BITS),  # any bit pattern in [0, 1]: mostly below 1e-40
    st.builds(lambda exponent, mantissa: (exponent << 52) | mantissa,
              st.integers(1023 - 140, 1022), st.integers(0, (1 << 52) - 1)),  # normal, 1e-42 to 1
    st.builds(lambda exponent: exponent << 52, st.integers(0, 1023)),  # 0.0, powers of two and 1.0
    st.just(0x8000000000000000),  # -0.0
)


@settings(max_examples=300, deadline=None)
@given(st.lists(unit_bits, min_size=1, max_size=60), st.sampled_from(SEPS))
def test_reprs_of_unit_bit_patterns(bits, sep):
    assert_reprs(np.array(bits, dtype=np.uint64).view(np.float64), sep)


def neighbours(values):
    values = np.asarray(values, dtype=np.float64)
    return np.concatenate([np.nextafter(values, 0.0), values, np.nextafter(values, 1.0)])


def test_reprs_of_powers_of_two_and_their_neighbours():
    powers = np.ldexp(1.0, -np.arange(1, 1075))
    assert_reprs(np.concatenate([[1.0], neighbours(powers)]))


def test_reprs_of_short_decimals_and_their_neighbours():
    """d * 10^-j for d up to three digits, the floats just below and above."""
    decimals = [float(f"{d}e-{j}") for j in range(1, 45) for d in range(1, 1000, 7)]
    assert_reprs(neighbours([v for v in decimals if v < 1.0]))


def test_reprs_of_decimals_ending_in_five():
    """17-digit decimals ending in 5 and their neighbours, and the floats
    c / 2^j, c odd, whose exact decimals end in 5: at j = 17 in [1/2, 1)
    each lies midway between two 16-digit decimals that both read back."""
    rng = np.random.default_rng(17)
    decimals = [float(f"0.{m}5e-{j}") for j in range(0, 40) for m in rng.integers(10**15, 10**16, 40).tolist()]
    dyadic = [c / 2.0**j for j in range(17, 40) for c in rng.integers(2 ** (j - 1), 2**j, 60).tolist() if c % 2]
    assert_reprs(neighbours(decimals + dyadic + [c / 2.0**17 for c in range(2**16 + 1, 2**16 + 2001, 2)]))


@pytest.mark.parametrize("k", [1, 2, 5])
@pytest.mark.parametrize("alpha", [0.01, 0.05, 0.1])
def test_reprs_of_schedules(k, alpha):
    for n in (k, 7, 1000, 100_000):
        schedule = lehmann_romano_schedule(k, n, alpha)
        assert_reprs(schedule._array)
        assert_reprs(romano_shaikh_schedule(schedule, alpha)._array)


def test_fast_path_settles_the_large_schedule():
    """At least 99% of the n = 10^5 Lehmann-Romano schedule, the size the
    benchmark writes, is settled without float.__repr__."""
    _, _, settled = cli._shortest(lehmann_romano_schedule(2, 100_000, 0.05)._array)
    assert settled.mean() >= 0.99


def first_in_range(a, m, lo, hi):
    """The least x >= 0 with lo <= a*x mod m <= hi, for 0 <= lo <= hi < m,
    or None: Euclid's descent on the modular range problem."""
    a %= m
    if lo == 0:
        return 0
    if a == 0:
        return None
    x = -(-lo // a)
    if a * x <= hi:
        return x
    y = first_in_range(m % a, a, (-hi) % a, (-lo) % a)
    if y is None:
        return None
    x = -(-(lo + m * y) // a)
    return x if a * x - m * y <= hi else None


def near(a, b, m, start, stop, centre, width):
    """Every M in [start, stop) with a*M + b within ``width`` of ``centre``,
    mod m, for 2 * width < m."""
    found = set()
    while start < stop:
        c = (a * start + b - centre + width) % m  # in [0, 2 * width] when near
        step = 0 if c <= 2 * width else first_in_range(a, m, m - c, m - c + 2 * width)
        if step is None or start + step >= stop:
            break
        found.add(start + step)
        start += step + 1
    return found


@pytest.fixture(scope="module")
def boundary_floats():
    """Every float x in [1e-40, 1e-6), where 10^s is not a float (s >= 23),
    whose y = x * 10^s lies within 1e-15 of a half-integer or of an odd
    multiple of 5 (a tie for t = 0 or 1), or whose interval end y +- h
    lies within 1e-15 of a multiple of 10 (a shorter candidate): the
    places where a misjudged comparison of ``_shortest`` changes a digit.
    x = M * 2^(e-53) with M in [2^52, 2^53), so y = M * 5^s / 2^(53-s-e)."""
    distance = Fraction(1, 10**15)
    xs = set()
    for s in range(23, 57):
        low, high = Fraction(10) ** (16 - s), Fraction(10) ** (17 - s)
        for e in range(-140, 1):
            unit = Fraction(2) ** (e - 53)
            start = max(2**52, math.ceil(max(low, unit * 2**52) / unit))
            stop = min(2**53, math.ceil(high / unit))
            if start >= stop:
                continue
            bits = 53 - s - e
            ties = near(5**s, 0, 2**bits, start, stop, 2 ** (bits - 1), int(2**bits * distance))
            ties |= near(5 ** (s - 1), 0, 2 ** (bits + 1), start, stop, 2**bits, int(2**bits * distance / 5))
            # the ends (2M +- 1) * 5^(s-1) / 2^(bits+2) are (y +- h) / 10
            for sign in (-1, 1):
                ties |= near(2 * 5 ** (s - 1), sign * 5 ** (s - 1), 2 ** (bits + 2), start, stop, 0,
                             int(2 ** (bits + 2) * distance / 10))
            xs |= {float(M * unit) for M in ties}
    return np.array(sorted(xs))


def test_near_search_finds_what_a_scan_finds():
    rnd = np.random.default_rng(5)
    for _ in range(400):
        m = 2 ** int(rnd.integers(2, 12))
        a, b, centre = (int(v) for v in rnd.integers(0, m, 3))
        start = int(rnd.integers(0, 3 * m))
        stop, width = start + int(rnd.integers(0, 3 * m)), int(rnd.integers(0, m // 2))
        want = {M for M in range(start, stop) if min((a * M + b - centre) % m, (centre - a * M - b) % m) <= width}
        assert near(a, b, m, start, stop, centre, width) == want


@pytest.mark.parametrize("margin", [cli._MARGIN, 0.0])
def test_reprs_next_to_every_decision_boundary(boundary_floats, margin, monkeypatch):
    """The floats nearest the kernel's decision boundaries, at its margin
    and with none: the strict comparisons alone already judge each of
    them right, as ``_shortest``'s docstring says of the whole domain."""
    assert boundary_floats.size > 1000
    monkeypatch.setattr(cli, "_MARGIN", margin)
    assert_reprs(boundary_floats)


PVALUES = [0.2, 0.015, 0.8, 0.001, 0.03, 0.004, 0.015, 0.6]


def family_with_repeats_and_negative_zero(tmp_path, k, n):
    """A family CSV whose rows repeat one value, with -0.0 and 0.0 entries."""
    rows = {m: [-0.0] * (m - k) + [0.0] if m == n else [0.01 * (n - m + 1)] * (m - k + 1) for m in range(k, n + 1)}
    path = tmp_path / "family.csv"
    path.write_text("m,i,alpha\n" + "".join(
        f"{m},{i},{rows[m][i - k]!r}\n" for m in range(k, n + 1) for i in range(k, m + 1)))
    return path


def report_calls(tmp_path):
    """Every procedure and schedule pair of ``kfwer test``, ``file:``
    schedules and families, and ``kfwer simulate``."""
    k, n, alpha = 2, len(PVALUES), 0.05
    pfile = tmp_path / "p.txt"
    pfile.write_text("".join(f"{v!r}\n" for v in PVALUES))
    base = tmp_path / "base.txt"
    base.write_text("".join(f"{v!r}\n" for v in lehmann_romano_schedule(k, n, alpha).alphas))
    sched = tmp_path / "schedule.txt"
    sched.write_text("".join(f"{v!r}\n" for v in [0.01, 0.01, 0.02, 0.02, 0.02, 0.04, 0.05]))
    family = family_with_repeats_and_negative_zero(tmp_path, k, n)
    common = ["test", "--k", str(k), "--alpha", str(alpha), "--input", str(pfile)]
    calls = []
    for procedure in PROCEDURES:
        family_proc = procedure in FAMILY_PROCEDURES
        for schedule in SCHEDULES:
            if schedule == "lehmann-romano" and family_proc:
                continue
            argv = common + ["--procedure", procedure, "--schedule", schedule]
            if schedule == "romano-shaikh":
                argv += ["--base-schedule", str(base)]
            calls.append(argv)
        calls.append(common + ["--procedure", procedure, "--schedule", f"file:{family if family_proc else sched}"])
    for procedure, schedule in (("stepdown", "lehmann-romano"), ("hommel", "constant")):
        calls.append(["simulate", "--n", "6", "--true-nulls", "3", "--k", "2", "--alpha", "0.05",
                      "--procedure", procedure, "--schedule", schedule, "--reps", "40", "--seed", "5",
                      "--delta", "1.5"])
    return calls


def test_every_report_is_indented_json_on_stdout_and_in_output(tmp_path, capsys):
    calls = report_calls(tmp_path)
    assert len(calls) == 16
    for argv in calls:
        assert main(argv) == EXIT_OK
        out = capsys.readouterr().out
        assert out == json.dumps(json.loads(out), indent=2) + "\n"
        target = tmp_path / "report.json"
        assert main(argv + ["--output", str(target)]) == EXIT_OK
        assert capsys.readouterr().out == ""
        assert target.read_bytes() == out.encode()


def test_family_report_keeps_negative_zero(tmp_path, capsys):
    family = family_with_repeats_and_negative_zero(tmp_path, 2, 4)
    pfile = tmp_path / "p4.txt"
    pfile.write_text("0.5\n0.5\n0.5\n0.5\n")
    assert main(["test", "--k", "2", "--alpha", "0.05", "--procedure", "hommel",
                 "--schedule", f"file:{family}", "--input", str(pfile)]) == EXIT_OK
    out = capsys.readouterr().out
    assert json.loads(out)["critical_values"] == [[0.03], [0.02, 0.02], [-0.0, -0.0, 0.0]]
    assert '"critical_values": [\n    [\n      0.03\n    ],' in out
    assert "      -0.0,\n      -0.0,\n      0.0\n" in out


class FullStream(io.StringIO):
    """A text stream that takes ``room`` writes, then fails each one as a
    full disk does."""

    def __init__(self, room):
        super().__init__()
        self.room = room

    def write(self, text):
        if self.room == 0:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        self.room -= 1
        return super().write(text)


HOMMEL = ["test", "--k", "2", "--alpha", "0.05", "--procedure", "hommel", "--schedule", "constant"]


@pytest.mark.parametrize("room", [0, 1, 5])
def test_failed_stdout_write_exits_3(room, tmp_path, capsys, monkeypatch):
    pfile = tmp_path / "p.txt"
    pfile.write_text("".join(f"{v!r}\n" for v in PVALUES))
    monkeypatch.setattr(sys, "stdout", FullStream(room))
    assert main(HOMMEL + ["--input", str(pfile)]) == EXIT_BAD_FLAGS
    assert capsys.readouterr().err == "error: stdout: No space left on device\n"


class FullFile:
    """A file opened for writing that takes ``room`` writes, then fails
    each one as a full disk does."""

    def __init__(self, fh, room):
        self.fh, self.room, self.writes = fh, room, 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def fileno(self):
        return self.fh.fileno()

    def write(self, text):
        if self.room == 0:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        self.room -= 1
        self.writes += 1
        return self.fh.write(text)

    def writelines(self, lines):
        for line in lines:
            self.write(line)


def fill_disk_after(room, monkeypatch):
    """Make every file the cli module opens for writing a :class:`FullFile`,
    and return the list they are added to."""
    made = []

    def opener(file, mode="r", **kw):
        fh = open(file, mode, **kw)
        if "w" not in mode:
            return fh
        made.append(FullFile(fh, room))
        return made[-1]
    monkeypatch.setattr(cli, "open", opener, raising=False)
    return made


@pytest.mark.parametrize("room", [0, 1, 5])
def test_failed_output_write_exits_3(room, tmp_path, capsys, monkeypatch):
    pfile = tmp_path / "p.txt"
    pfile.write_text("".join(f"{v!r}\n" for v in PVALUES))
    target = tmp_path / "report.json"
    fill_disk_after(room, monkeypatch)
    assert main(HOMMEL + ["--input", str(pfile), "--output", str(target)]) == EXIT_BAD_FLAGS
    assert capsys.readouterr().err == f"error: {target}: No space left on device\n"
    assert sorted(os.listdir(tmp_path)) == ["p.txt"]


@pytest.mark.parametrize("room", [0, 1, 5, "last"])
def test_failed_output_write_keeps_the_old_report(room, tmp_path, capsys, monkeypatch):
    """A disk that fills partway leaves an existing report byte for byte
    as it was, and no partial file beside it. At ``last`` the disk takes
    every write of the report but its last, counted on a successful write
    of the same call."""
    pfile = tmp_path / "p.txt"
    pfile.write_text("".join(f"{v!r}\n" for v in PVALUES))
    target = tmp_path / "report.json"
    if room == "last":
        made = fill_disk_after(10**9, monkeypatch)
        assert main(HOMMEL + ["--input", str(pfile), "--output", str(target)]) == EXIT_OK
        [counted] = made
        assert counted.writes > 5
        room = counted.writes - 1
    assert main(HOMMEL + ["--input", str(pfile), "--alpha", "0.1", "--output", str(target)]) == EXIT_OK
    before = target.read_bytes()
    fill_disk_after(room, monkeypatch)
    assert main(HOMMEL + ["--input", str(pfile), "--output", str(target)]) == EXIT_BAD_FLAGS
    assert capsys.readouterr().err == f"error: {target}: No space left on device\n"
    assert target.read_bytes() == before
    assert sorted(os.listdir(tmp_path)) == ["p.txt", "report.json"]


def test_output_replaces_the_file_and_keeps_its_mode(tmp_path, capsys):
    pfile = tmp_path / "p.txt"
    pfile.write_text("".join(f"{v!r}\n" for v in PVALUES))
    target = tmp_path / "report.json"
    target.write_text("old")
    target.chmod(0o640)
    assert main(HOMMEL + ["--input", str(pfile), "--output", str(target)]) == EXIT_OK
    assert main(HOMMEL + ["--input", str(pfile)]) == EXIT_OK
    assert target.read_text() == capsys.readouterr().out
    assert oct(target.stat().st_mode & 0o777) == oct(0o640)
    assert sorted(os.listdir(tmp_path)) == ["p.txt", "report.json"]


def test_new_output_file_gets_the_umask_mode(tmp_path):
    pfile = tmp_path / "p.txt"
    pfile.write_text("".join(f"{v!r}\n" for v in PVALUES))
    target = tmp_path / "report.json"
    umask = os.umask(0o027)
    try:
        assert main(HOMMEL + ["--input", str(pfile), "--output", str(target)]) == EXIT_OK
    finally:
        os.umask(umask)
    assert oct(target.stat().st_mode & 0o777) == oct(0o640)


def test_output_through_a_symlink_replaces_the_file_it_names(tmp_path, capsys):
    pfile = tmp_path / "p.txt"
    pfile.write_text("".join(f"{v!r}\n" for v in PVALUES))
    (tmp_path / "reports").mkdir()
    real = tmp_path / "reports" / "report.json"
    real.write_text("old")
    link = tmp_path / "latest.json"
    link.symlink_to(real)
    assert main(HOMMEL + ["--input", str(pfile), "--output", str(link)]) == EXIT_OK
    assert main(HOMMEL + ["--input", str(pfile)]) == EXIT_OK
    assert link.is_symlink() and real.read_text() == capsys.readouterr().out
    assert sorted(os.listdir(real.parent)) == ["report.json"]


def test_output_in_a_read_only_directory_is_written_in_place(tmp_path, capsys, monkeypatch):
    """A writable report in a directory that admits no new file is still
    written, in place, as before; a new report there is refused."""
    pfile = tmp_path / "p.txt"
    pfile.write_text("".join(f"{v!r}\n" for v in PVALUES))
    target = tmp_path / "report.json"

    def no_new_file(path):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES))
    monkeypatch.setattr(cli, "_new_sibling", no_new_file)
    assert main(HOMMEL + ["--input", str(pfile), "--output", str(target)]) == EXIT_BAD_FLAGS
    assert capsys.readouterr().err == f"error: {target}: Permission denied\n"
    target.write_text("old")
    assert main(HOMMEL + ["--input", str(pfile), "--output", str(target)]) == EXIT_OK
    assert main(HOMMEL + ["--input", str(pfile)]) == EXIT_OK
    assert target.read_text() == capsys.readouterr().out


def test_output_with_a_long_name(tmp_path, capsys):
    """The new file beside the target has a name of its own fixed length,
    so any name the directory admits can take a report."""
    pfile = tmp_path / "p.txt"
    pfile.write_text("".join(f"{v!r}\n" for v in PVALUES))
    target = tmp_path / ("r" * 250 + ".json")
    assert main(HOMMEL + ["--input", str(pfile), "--output", str(target)]) == EXIT_OK
    assert main(HOMMEL + ["--input", str(pfile)]) == EXIT_OK
    assert target.read_text() == capsys.readouterr().out
    assert sorted(os.listdir(tmp_path)) == sorted(["p.txt", target.name])


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_output_to_a_fifo_is_written_in_place(tmp_path, capsys):
    pfile = tmp_path / "p.txt"
    pfile.write_text("".join(f"{v!r}\n" for v in PVALUES))
    fifo = tmp_path / "report.fifo"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_text()))
    reader.start()
    try:
        assert main(HOMMEL + ["--input", str(pfile), "--output", str(fifo)]) == EXIT_OK
    finally:
        reader.join(timeout=30)
    assert main(HOMMEL + ["--input", str(pfile)]) == EXIT_OK
    assert received == [capsys.readouterr().out]
    assert sorted(os.listdir(tmp_path)) == ["p.txt", "report.fifo"]


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="needs /dev/stdout")
def test_output_to_dev_stdout_on_a_pipe(tmp_path):
    """``--output /dev/stdout`` with stdout on a pipe writes the report to
    the pipe: the link names no regular file, so nothing is renamed."""
    pfile = tmp_path / "p.txt"
    pfile.write_text("".join(f"{v!r}\n" for v in PVALUES))
    src = os.path.dirname(os.path.dirname(os.path.abspath(kfwer.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = [sys.executable, "-m", "kfwer", *HOMMEL, "--input", str(pfile)]
    plain = subprocess.run(argv, capture_output=True, text=True, env=env)
    proc = subprocess.run(argv + ["--output", "/dev/stdout"], capture_output=True, text=True, env=env)
    assert (plain.returncode, plain.stderr) == (EXIT_OK, "")
    assert (proc.returncode, proc.stderr, proc.stdout) == (EXIT_OK, "", plain.stdout)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
@pytest.mark.parametrize("n, unbuffered", [(5, False), (5, True), (300, False)])
def test_full_device_exits_3(n, unbuffered, tmp_path):
    """Through the console entry, a report on a full stdout exits 3 with
    one line on stderr, whether the write fails at once (unbuffered, or a
    report larger than the buffer) or only when flushed; so does --output."""
    pfile = tmp_path / "p.txt"
    pfile.write_text("".join(f"{v!r}\n" for v in np.random.default_rng(n).uniform(size=n).tolist()))
    src = os.path.dirname(os.path.dirname(os.path.abspath(kfwer.__file__)))
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    argv = [sys.executable, "-m", "kfwer", *HOMMEL, "--input", str(pfile)]
    with open("/dev/full", "w") as full:
        proc = subprocess.run(argv, stdout=full, stderr=subprocess.PIPE, text=True, env=env)
    assert (proc.returncode, proc.stderr) == (EXIT_BAD_FLAGS, "error: stdout: No space left on device\n")
    proc = subprocess.run(argv + ["--output", "/dev/full"], capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stdout) == (EXIT_BAD_FLAGS, "")
    assert proc.stderr == "error: /dev/full: No space left on device\n"

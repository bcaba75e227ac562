"""The array-native input half of ``kfwer test``: the p-value reader, the
ordering and its range check, and the Lehmann-Romano schedule each equal
the plain form they replaced, on adversarial input as on clean input."""

import contextlib
import io
import os
import subprocess
import sys
import tempfile
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kfwer
from kfwer import KfwerError, OutOfRangeError, lehmann_romano_schedule, order_pvalues
from kfwer import cli
from kfwer.cli import InputDataError
from oracles import order_pvalues_reference, read_pvalues_reference

# Tokens float() takes, in range or not, and tokens it refuses, blanks,
# two tokens on a line and CSV rows among them.
NUMBERS = [
    "0.5", "0", "1", "1.0", "0.0", "-0.0", "0.25", "1e-300", "5e-324", "0.9999999999999999",
    "1_0", "0_5", "0.1_5", "infinity", "-Infinity", "nan", "NaN", "1.5", "-0.1", "\u0660.\u0665", "\u0661",
]
OTHERS = ["abc", "", "", "0.1 0.2", "a,0.2", "b, 0.3", "1,2,3", "id,p", "0x1p-1", "1__0"]
# NBSP, em space, ideographic space and form feed pad as str.strip sees them.
PADDING = ["", " ", "\t", "\xa0", "\u2003", "\u3000", "\x0c"]
# Every line break str.splitlines sees, \n and \r\n most often: the
# reader cuts its text into blocks only right after a \n.
BREAKS = ["\n", "\n", "\r\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]

tokens = st.one_of(st.floats(0, 1).map(repr), st.sampled_from(NUMBERS), st.sampled_from(NUMBERS), st.sampled_from(OTHERS))
lines = st.tuples(st.sampled_from(PADDING), tokens,
                  st.sampled_from(PADDING), st.sampled_from(BREAKS)).map("".join)


@st.composite
def texts(draw):
    """Lines of tokens, padding and breaks, maybe after a header or a
    blank line, and maybe with the last line unterminated."""
    body = draw(st.sampled_from(["", "", "id,p\n", "ID, P\r\n", "\n"])) + "".join(draw(st.lists(lines, max_size=12)))
    return body.rstrip("\n") if draw(st.booleans()) else body


def outcome(reader, text):
    """``reader``'s numbers (as hex, so NaN and -0.0 compare), their lines,
    or its error message. The package's reader returns a float64 array,
    the reference a list of floats."""
    try:
        values, where = reader(io.StringIO(text), "in")
    except InputDataError as exc:
        return str(exc)
    if reader is cli._read_pvalues:
        assert type(values) is np.ndarray and values.dtype == np.float64 and values.ndim == 1
        values = values.tolist()
    assert all(type(v) is float for v in values)
    return [v.hex() for v in values], where if where is not None else list(range(1, len(values) + 1))


def run_test(path):
    """Exit code, stdout and stderr of one ``kfwer test`` on ``path``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["test", "--k", "1", "--alpha", "0.05", "--procedure", "stepdown",
                         "--schedule", "lehmann-romano", "--input", path])
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=400, deadline=None)
@given(texts())
def test_reader_equals_the_line_by_line_reference(text):
    assert outcome(cli._read_pvalues, text) == outcome(read_pvalues_reference, text)


@settings(max_examples=300, deadline=None)
@given(texts(), st.integers(0, 8))
def test_reader_cut_into_small_blocks_equals_the_reference(text, block):
    """With blocks of a few characters every line break, blank line,
    header and bad token lands at or next to a cut: the numbers, their
    lines, the exit code and the message stay the reference's."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "p.txt")
        with open(path, "w", newline="") as fh:
            fh.write(text)
        want = reference_error(path)
        if want is None:
            with mock.patch.object(cli, "_read_pvalues", read_pvalues_reference):
                want = run_test(path)
        with mock.patch.object(cli, "_BLOCK", block):
            assert outcome(cli._read_pvalues, text) == outcome(read_pvalues_reference, text)
            assert run_test(path) == want


def reference_error(path):
    """Exit code, stdout and stderr for a bad input as the line-by-line
    reader and the key sort report it, or None for a good input."""
    try:
        with open(path) as fh:
            values, where = read_pvalues_reference(fh, path)
        order_pvalues_reference(values)
    except InputDataError as exc:
        return cli.EXIT_BAD_DATA, "", f"error: {exc}\n"
    except OutOfRangeError as exc:
        line = where[exc.position - 1]
        return cli.EXIT_BAD_DATA, "", f"error: {path}: line {line}: p-value {exc.value!r} outside [0, 1]\n"
    return None


@settings(max_examples=150, deadline=None)
@given(texts())
def test_kfwer_test_answers_as_with_the_reference_reader(text):
    """Same exit code, report and message: the range error's line too."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "p.txt")
        with open(path, "w", newline="") as fh:
            fh.write(text)
        got = run_test(path)
        want = reference_error(path)
        if want is None:
            with mock.patch.object(cli, "_read_pvalues", read_pvalues_reference):
                want = run_test(path)
    assert got == want


def test_schedule_file_shares_the_reader(tmp_path, capsys):
    pfile = tmp_path / "p.txt"
    pfile.write_text("0.2\n0.015\n0.8\n0.001\n0.03\n")
    sched = tmp_path / "sched.txt"
    argv = ["test", "--k", "2", "--alpha", "0.05", "--procedure", "stepdown",
            "--schedule", f"file:{sched}", "--input", str(pfile)]
    sched.write_bytes(b"\r\n 0.02\r\n0.025\t\r\n\r\n0.033333\r\n0.05")
    assert cli.main(argv) == cli.EXIT_OK
    assert '"rejected": [\n    2,\n    4\n  ]' in capsys.readouterr().out
    sched.write_text("0.02\n\n0.025\n1_x\n0.05\n")
    assert cli.main(argv) == cli.EXIT_BAD_DATA
    assert capsys.readouterr().err == f"error: {sched}: line 4: '1_x' is not a number\n"


def test_stepdown_at_1e5_traces_under_10_mb(tmp_path):
    """Each value is held once, as an array, from the reader to the
    writer, which formats the schedule a slice at a time: the allocations
    of a whole ``kfwer test`` call at n = 10^5, the file's 1.6 MB of text
    included, peak under 10 MB."""
    rng = np.random.default_rng(5)
    p = rng.uniform(size=10**5)
    rounded = rng.random(p.size) < 0.2
    p[rounded] = np.round(p[rounded], 4)
    pfile = tmp_path / "p.txt"
    pfile.write_text("".join(f"{v!r}\n" for v in p.tolist()))
    argv = ["test", "--k", "2", "--alpha", "0.05", "--procedure", "stepdown", "--schedule", "lehmann-romano",
            "--input", str(pfile), "--output", str(tmp_path / "out.json")]
    tracemalloc.start()
    try:
        code = cli.main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == cli.EXIT_OK
    assert peak < 10 * 2**20, f"traced peak {peak / 2**20:.1f} MB"


def outcome_of_order(order, values):
    try:
        p = order(values)
    except KfwerError as exc:
        return type(exc), getattr(exc, "position", None), str(exc)
    values, order = p if isinstance(p, tuple) else (p.values, p.order)
    return tuple(map(repr, values)), order


unit = st.one_of(st.floats(0, 1), st.sampled_from([0.0, -0.0, 1.0, 0.5, 0.25, 5e-324]))
entries = st.one_of(
    unit, unit, unit,
    st.sampled_from([0, 1, True, False, np.bool_(True), "0.5", None, float("nan"), float("inf"), -0.1, 1.5, 2]),
    unit.map(np.float64), unit.map(np.float32), st.integers(0, 1).map(np.int64),
)


@settings(max_examples=500, deadline=None)
@given(st.one_of(st.lists(unit, max_size=30), st.lists(entries, max_size=30)))
def test_order_equals_the_key_sort(values):
    """Ties, exact 0s and 1s, -0.0, bools, numpy scalars and strings: the
    same values and order, or the same error at the same position."""
    got = outcome_of_order(order_pvalues, values)
    assert got == outcome_of_order(order_pvalues_reference, values)
    if not isinstance(got[0], type):  # not an error
        p = order_pvalues(values)
        assert all(type(v) is float for v in p.values)
        assert p._order_array.tolist() == list(p.order)
        assert p._sorted_array.tolist() == list(p.sorted_values())


@pytest.mark.parametrize("n", [1, 2, 3, 7, 100, 4097])
@pytest.mark.parametrize("alpha", [0.05, 0.1, 1e-8, 1 / 3, 0.999999, 5e-324])
def test_lehmann_romano_equals_the_formula(n, alpha):
    for k in sorted({1, 2, n // 2, n - 1, n} & set(range(1, n + 1))):
        alphas = lehmann_romano_schedule(k, n, alpha).alphas
        assert type(alphas) is tuple and all(type(a) is float for a in alphas)
        assert alphas == tuple(k * alpha / (n - i + k) for i in range(k, n + 1))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3000).flatmap(lambda n: st.tuples(st.integers(1, n), st.just(n))),
       st.floats(0, 1, exclude_min=True, exclude_max=True))
def test_lehmann_romano_equals_the_formula_anywhere(kn, alpha):
    k, n = kn
    assert lehmann_romano_schedule(k, n, alpha).alphas == tuple(k * alpha / (n - i + k) for i in range(k, n + 1))


def test_test_and_verify_do_not_import_scipy(tmp_path):
    """Only simulation draws need scipy; importing the package, the CLI
    and the verify harness leaves it unloaded, and so does a Romano-Shaikh
    stepup call, whose d1 uses numpy.fft."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(kfwer.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, kfwer, kfwer.cli, kfwer.verify; sys.exit('scipy' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
    n = 50
    base, pvalues, out = tmp_path / "base.txt", tmp_path / "p.txt", tmp_path / "out.json"
    base.write_text("\n".join(map(repr, lehmann_romano_schedule(2, n, 0.05).alphas)) + "\n")
    pvalues.write_text("\n".join(repr((j + 0.5) / n) for j in range(n)) + "\n")
    argv = ["test", "--k", "2", "--alpha", "0.05", "--procedure", "stepup", "--schedule", "romano-shaikh",
            "--base-schedule", str(base), "--input", str(pvalues), "--output", str(out)]
    code = f"import sys; from kfwer.cli import main; sys.exit(main({argv!r}) or 10 * ('scipy' in sys.modules))"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
    assert out.exists()

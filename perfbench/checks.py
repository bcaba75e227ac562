"""Output checks, run in the parent after the worker has finished.

Each check looks at the first output of one op; the worker has already
required every repeat of that op to be byte-identical to it. A check
returns a list of problems, empty when the output is right. Deciders
come from ``tests/oracles.py`` (itertools and Fraction machinery that
shares no code with kfwer); critical values are recomputed here.
"""

from __future__ import annotations

import json
import math
from decimal import Decimal
from pathlib import Path

import numpy as np
from scipy.special import ndtr

import workloads as W

HERE = Path(__file__).resolve().parent


def d1_float(k: int, alphas: list[float]) -> float:
    """The D1 normalization summed strictly left to right per cardinality,
    as kfwer documents, but written with numpy cumulative sums."""
    a = np.asarray(alphas, dtype=np.float64)
    n = k + len(a) - 1
    best = -math.inf
    for m in range(k, n + 1):
        lo = n - m  # index of alpha_{n-m+k}
        steps = m * np.diff(a[lo:lo + m - k + 1]) / np.arange(k + 1, m + 1)
        term = float(np.cumsum(np.concatenate(([m * a[lo] / k], steps)))[-1])
        best = max(best, term)
    return best


def romano_shaikh_values(k: int, n: int, alpha: float) -> list[float]:
    base = W.lehmann_romano_values(k, n, alpha)
    d = d1_float(k, base)
    return [alpha * b / d for b in base]


def constant_rows(k: int, n: int, alpha: float) -> list[list[float]]:
    return [[k * alpha / m] * (m - k + 1) for m in range(k, n + 1)]


def check_d1_reference() -> list[str]:
    """The float D1 used above must agree with the stored exact value."""
    ref = json.loads((HERE / "d1_reference.json").read_text())
    if (ref["k"], ref["n"], ref["alpha"]) != (W.RS_K, W.RS_N, W.RS_ALPHA):
        return ["d1_reference.json is for another (k, n, alpha); rerun make_d1_reference.py"]
    got = d1_float(W.RS_K, W.lehmann_romano_values(W.RS_K, W.RS_N, W.RS_ALPHA))
    exact = Decimal(ref["d1"])
    if abs(Decimal(got) - exact) > exact * Decimal("1e-12"):
        return [f"float D1 {got!r} disagrees with the exact reference {ref['d1']}"]
    return []


def _read_values(path: str) -> list[float]:
    return [float(line) for line in Path(path).read_text().split()]


def check_test(op: dict, oracles) -> list[str]:
    argv = op["argv"]
    flag = {argv[i]: argv[i + 1] for i in range(1, len(argv) - 1, 2)}
    report = json.loads(Path(op["output"]).read_text())
    values = _read_values(flag["--input"])
    n, k, alpha, proc = len(values), int(flag["--k"]), float(flag["--alpha"]), flag["--procedure"]
    problems = []
    for key, want in (("n", n), ("k", k), ("alpha", alpha), ("procedure", proc)):
        if report.get(key) != want:
            problems.append(f"{op['ident']}: {key} is {report.get(key)!r}, expected {want!r}")
    emitted = report["critical_values"]
    if flag["--schedule"] == "lehmann-romano":
        want_cv = W.lehmann_romano_values(k, n, alpha)
    elif flag["--schedule"] == "romano-shaikh":
        want_cv = romano_shaikh_values(k, n, alpha)
    else:
        want_cv = constant_rows(k, n, alpha)
    if emitted != want_cv:
        problems.append(f"{op['ident']}: critical values differ from the reference")
    if proc == "hommel":
        rejected, j_hat = oracles.hommel_oracle(values, k, emitted)
        want_detail = {"j_hat": j_hat}
    else:
        decide = oracles.stepdown_oracle if proc == "stepdown" else oracles.stepup_oracle
        rejected = decide(values, k, emitted)
        want_detail = {"r": len(rejected) if len(rejected) >= k else None}
    if report["rejected"] != sorted(j + 1 for j in rejected):
        problems.append(f"{op['ident']}: rejection set differs from the oracle's")
    if report["detail"] != want_detail:
        problems.append(f"{op['ident']}: detail {report['detail']} differs from {want_detail}")
    return problems


def check_simulate(op: dict, oracles) -> list[str]:
    """Recompute the estimate with fresh Philox streams keyed (seed, rep)
    and the oracle deciders; floats must match exactly."""
    argv = op["argv"]
    flag = {argv[i]: argv[i + 1] for i in range(1, len(argv) - 1, 2)}
    n, n_true, k = int(flag["--n"]), int(flag["--true-nulls"]), int(flag["--k"])
    alpha, reps, seed = float(flag["--alpha"]), int(flag["--reps"]), int(flag["--seed"])
    rho, delta = float(flag["--rho"]), float(flag["--delta"])
    proc, sched = flag["--procedure"], flag["--schedule"]
    if (proc, sched) == ("stepdown", "lehmann-romano"):
        alphas = W.lehmann_romano_values(k, n, alpha)
        decide = lambda p: oracles.stepdown_oracle(p, k, alphas)  # noqa: E731
    elif (proc, sched) == ("stepup", "romano-shaikh"):
        alphas = romano_shaikh_values(k, n, alpha)
        decide = lambda p: oracles.stepup_oracle(p, k, alphas)  # noqa: E731
    elif (proc, sched) == ("hommel", "constant"):
        rows = constant_rows(k, n, alpha)
        decide = lambda p: oracles.hommel_oracle(p, k, rows)[0]  # noqa: E731
    else:
        rows = constant_rows(k, n, alpha)
        decide = lambda p: oracles.closed_testing_oracle(p, k, rows)  # noqa: E731
    n_false = n - n_true
    exceed, power_sum = 0, 0.0
    for rep in range(reps):
        draws = np.random.Generator(np.random.Philox(key=(seed << 64) | rep)).standard_normal(n + 1)
        z = math.sqrt(rho) * draws[0] + math.sqrt(1.0 - rho) * draws[1:]
        z[n_true:] += delta
        rejected = decide(ndtr(-z).tolist())
        if sum(1 for j in rejected if j < n_true) >= k:
            exceed += 1
        power_sum += sum(1 for j in rejected if j >= n_true) / n_false
    estimate = exceed / reps
    want = {"kfwer_estimate": estimate, "std_error": math.sqrt(estimate * (1.0 - estimate) / reps),
            "avg_power": power_sum / reps}
    report = json.loads(Path(op["output"]).read_text())
    got = {key: report.get(key) for key in want}
    return [] if got == want else [f"{op['ident']}: estimates {got} differ from the recomputed {want}"]


def check_verify(op: dict, stdout: str) -> list[str]:
    """Exactly one summary line per theorem, each reporting no
    counterexample for the requested number of trials."""
    lines = stdout.splitlines()
    want = [f"theorem {t}: {op['units']} trials, ok" for t in ("4.1", "4.2", "4.3", "4.4", "5.1")]
    if len(lines) == len(want) and all(line.startswith(w) for line, w in zip(lines, want)):
        return []
    return [f"{op['ident']}: {line}" for line in lines if line.startswith("theorem ") and ", ok" not in line][:5] \
        or [f"{op['ident']}: unexpected report {lines[:5]!r}"]

"""Workload definitions: the generated inputs and the list of CLI calls
each workload makes.

Everything here is derived from the benchmark seed. The program under
test only ever sees the files written here and the argument lists built
here. This module runs in the parent process only; the measuring worker
reads the plan it writes, so it never imports numpy before ``kfwer``.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

K = 2
ALPHA = 0.05

# test-large sizes. The Hommel report is an O(n^2) table of critical
# values (14.7 MB of JSON at n = 1000), which is why that call is smaller.
STEPWISE_N = 100_000
RS_K, RS_N, RS_ALPHA = K, 2_000, ALPHA
HOMMEL_N = 1_000
SIGNAL_SHARE = 0.05
ROUNDED_SHARE = 0.2

# simulate-small: (name, kind, n, procedure, schedule, reps). Reps are
# sized so every call takes roughly the same 50-60 ms on this commit.
SIM_CONFIGS = (
    ("sim-stepdown-lr", "stepwise", 10, "stepdown", "lehmann-romano", 2000),
    ("sim-stepup-rs", "stepwise", 10, "stepup", "romano-shaikh", 2000),
    ("sim-hommel-constant", "hommel", 10, "hommel", "constant", 2000),
    ("sim-closed-constant", "heavy", 8, "closed", "constant", 200),
)
SIM_RHO = 0.5
SIM_DELTA = 2.0

# verify-closure: trials per theorem per call, and how many distinct
# seeds the stream can draw on before it wraps around.
VERIFY_N_MAX = 14
VERIFY_TRIALS = 40
VERIFY_STREAM = 1000

WORKLOADS = ("test-large", "simulate-small", "verify-closure")

# Which op kinds feed the three per-kind end-to-end metrics.
KIND_METRICS = {"stepwise": "stepwise_s", "hommel": "hommel_s", "heavy": "heavy_s"}


def sub_seed(seed: int, *tag: int) -> int:
    """A 63-bit seed derived from the benchmark seed and a tag."""
    return int(np.random.SeedSequence([seed, *tag]).generate_state(1, np.uint64)[0] >> np.uint64(1))


def lehmann_romano_values(k: int, n: int, alpha: float) -> list[float]:
    """k*alpha/(n - i + k) for i = k..n, written out independently of kfwer."""
    return [k * alpha / (n - i + k) for i in range(k, n + 1)]


def _pvalues(rng: np.random.Generator, n: int) -> list[float]:
    """Uniform nulls, about 5% strong signals, and a share of values
    rounded to four decimals so that many p-values tie."""
    p = rng.uniform(0.0, 1.0, n)
    signal = rng.random(n) < SIGNAL_SHARE
    p[signal] = 10.0 ** -rng.uniform(4.0, 12.0, int(signal.sum()))
    rounded = rng.random(n) < ROUNDED_SHARE
    p[rounded] = np.round(p[rounded], 4)
    return p.tolist()


def _write_lines(path: Path, values: list[float]) -> None:
    path.write_text("".join(f"{v!r}\n" for v in values))


def _op(ident: str, kind: str, argv: list[str], units: int, output: str | None, inputs: list[str]) -> dict:
    return {"ident": ident, "kind": kind, "argv": argv, "units": units, "output": output, "inputs": inputs}


def _test_large(seed: int, work: Path) -> dict:
    rng = np.random.default_rng(sub_seed(seed, 1))
    files = {}
    for name, n in (("stepwise", STEPWISE_N), ("rs", RS_N), ("hommel", HOMMEL_N)):
        path = work / f"p_{name}.txt"
        _write_lines(path, _pvalues(rng, n))
        files[name] = str(path)
    base = work / "base_rs.txt"
    _write_lines(base, lehmann_romano_values(RS_K, RS_N, RS_ALPHA))
    common = ["--k", str(K), "--alpha", str(ALPHA)]
    ops = []
    for proc in ("stepdown", "stepup"):
        out = str(work / f"out_{proc}.json")
        argv = ["test", *common, "--procedure", proc, "--schedule", "lehmann-romano",
                "--input", files["stepwise"], "--output", out]
        ops.append(_op(f"test-{proc}-lr", "stepwise", argv, 1, out, [files["stepwise"]]))
    out = str(work / "out_rs.json")
    argv = ["test", *common, "--procedure", "stepup", "--schedule", "romano-shaikh",
            "--base-schedule", str(base), "--input", files["rs"], "--output", out]
    ops.append(_op("test-stepup-rs", "heavy", argv, 1, out, [files["rs"], str(base)]))
    out = str(work / "out_hommel.json")
    argv = ["test", *common, "--procedure", "hommel", "--schedule", "constant",
            "--input", files["hommel"], "--output", out]
    ops.append(_op("test-hommel-constant", "hommel", argv, 1, out, [files["hommel"]]))
    return {"cycle": ops, "stream": None}


def _simulate_small(seed: int, work: Path) -> dict:
    ops = []
    for tag, (name, kind, n, proc, sched, reps) in enumerate(SIM_CONFIGS):
        out = str(work / f"out_{name}.json")
        argv = ["simulate", "--n", str(n), "--true-nulls", str(n // 2), "--k", str(K),
                "--alpha", str(ALPHA), "--procedure", proc, "--schedule", sched,
                "--reps", str(reps), "--dependence", "equicorrelated", "--rho", str(SIM_RHO),
                "--delta", str(SIM_DELTA), "--seed", str(sub_seed(seed, 2, tag)), "--output", out]
        ops.append(_op(name, kind, argv, reps, out, []))
    return {"cycle": ops, "stream": None}


def _verify_op(seed: int, j: int) -> dict:
    argv = ["verify", "--theorem", "all", "--n-max", str(VERIFY_N_MAX),
            "--trials", str(VERIFY_TRIALS), "--seed", str(sub_seed(seed, 3, j))]
    return _op(f"verify-{j}", "verify", argv, VERIFY_TRIALS, None, [])


def _verify_closure(seed: int, work: Path) -> dict:
    # Problem sizes are drawn inside the CLI, so the cost of one call
    # varies by about 12% between seeds. Untraced runs therefore stream
    # through distinct seeds and pool their trials; the traced run
    # repeats the first call so its per-cycle counts are exact.
    stream = [_verify_op(seed, j) for j in range(VERIFY_STREAM)]
    return {"cycle": stream[:1], "stream": stream}


_BUILDERS = {"test-large": _test_large, "simulate-small": _simulate_small, "verify-closure": _verify_closure}


def write_plan(workload: str, seed: int, seconds: float, trace: bool, root: Path, work: Path) -> Path:
    """Generate the workload's inputs under ``work`` and write the plan
    the worker executes. Returns the plan's path."""
    plan = _BUILDERS[workload](seed, work)
    plan.update({"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
                 "src": str(root / "src"), "work": str(work)})
    path = work / "plan.json"
    path.write_text(json.dumps(plan))
    return path

"""kfwer benchmark: run one workload with one seed and print its metrics.

Usage, from the repository root:
    python3 perfbench/run.py --workload test-large --seed 1 --seconds 25 --trace 0

Workloads (see perfbench/README.md): test-large, simulate-small,
verify-closure. With ``--trace 0`` the last line of standard output is a
JSON object holding the end-to-end metrics; with ``--trace 1`` it holds
the per-layer metrics and the tracing overhead. Lines before it give the
same figures by name, with units and sample counts.

The parent (this process) writes the inputs, starts fresh worker
processes for the set-up samples and for the measurement, one at a
time, and checks the outputs against independent references afterwards.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

# Extra fresh processes for set-up samples, half before and half after
# the measurement so that the median spans more of the machine's drift.
SETUP_PROBES = 2
PROBE_TIMEOUT_S = 40
MEASURE_MARGIN_S = 60

END_TO_END_UNITS = {"stepwise_s": "s", "hommel_s": "s", "heavy_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# The names the workloads' figures go by in the human-readable report:
# metric kind -> (name, unit, whether the name reports the inverse rate).
REPORT_NAMES = {
    "test-large": {"stepwise": ("test_stepwise_s", "s/call", False),
                   "heavy": ("test_rs_stepup_s", "s/call", False),
                   "hommel": ("test_hommel_s", "s/call", False)},
    "simulate-small": {"stepwise": ("sim_stepwise_reps_per_s", "reps/s", True),
                       "hommel": ("sim_hommel_reps_per_s", "reps/s", True),
                       "heavy": ("sim_closed_reps_per_s", "reps/s", True)},
    "verify-closure": {"stepwise": ("verify_stepwise_trials_per_s", "trials/s", True),
                       "hommel": ("verify_hommel_trials_per_s", "trials/s", True),
                       "heavy": ("verify_trials_per_s", "trials/s", True)},
}

PER_LAYER = [
    ("cli.main.self_s", "s"), ("cli.input_bytes", "B"), ("cli.output_bytes", "B"), ("cli.errors", "count"),
    ("core.order_pvalues.calls", "count"), ("core.order_pvalues.self_s", "s"),
    ("core.order_pvalues.values", "count"), ("core.validate_schedule.self_s", "s"),
    ("core.validate_family.self_s", "s"), ("core.errors", "count"),
    ("bounds.d1.calls", "count"), ("bounds.d1.self_s", "s"), ("bounds.d1.terms", "count"),
    ("bounds.errors", "count"),
    ("procedures.schedule.self_s", "s"), ("procedures.family.self_s", "s"),
    ("procedures.family.entries", "count"),
    ("procedures.stepdown.calls", "count"), ("procedures.stepdown.self_s", "s"),
    ("procedures.stepup.calls", "count"), ("procedures.stepup.self_s", "s"),
    ("procedures.generalized_hommel.calls", "count"), ("procedures.generalized_hommel.self_s", "s"),
    ("procedures.closed_testing.calls", "count"), ("procedures.closed_testing.self_s", "s"),
    ("procedures.closed_testing.masks", "count"), ("procedures.rejected", "count"),
    ("procedures.errors", "count"),
    ("simulation.generate_pvalues.self_s", "s"), ("simulation.draws", "count"),
    ("simulation.estimate_kfwer.self_s", "s"), ("simulation.build_procedure.self_s", "s"),
    ("simulation.errors", "count"),
    ("verify.generate.self_s", "s"), ("verify.run_theorem_trials.self_s", "s"),
    ("verify.candidate_accept_ratio", "ratio"), ("verify.errors", "count"),
    ("trace.overhead_pct", "%"), ("trace.spans", "count"),
]


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def high_percentile(values: list[float]):
    """The highest of p90/p95/p99/p99.9 with at least ten samples beyond
    it, as (label, value), or None when the run is too short for one."""
    n = len(values)
    for p in (99.9, 99.0, 95.0, 90.0):
        if n * (1 - p / 100) >= 10:
            ordered = sorted(values)
            return f"p{p:g}", ordered[min(n - 1, math.ceil(p / 100 * n) - 1)]
    return None


def summarize(workload: str, samples: list) -> dict:
    """Per metric kind: scaled seconds per unit, and the report line.

    Within a kind, each op's median is taken first and the kind's value
    is their mean: the median of a mix of two ops with different costs
    would jump between them."""
    out = {}
    for kind, (name, unit, inverse) in REPORT_NAMES[workload].items():
        mine = [(ident, raw, scaled, units) for k, ident, raw, scaled, units in samples if k == kind]
        if not mine:
            continue
        show = (lambda v: 1.0 / v) if inverse else (lambda v: v)
        if workload == "verify-closure":
            # Every call draws different problems: pool them.
            total = sum(u for *_, u in mine)
            per_unit = sum(s for _, _, s, _ in mine) / total
            raw = sum(r for _, r, _, _ in mine) / total
            line = f"{name} = {show(per_unit):.6g} {unit} (pooled over n={len(mine)} calls"
        else:
            idents = sorted({i for i, *_ in mine})
            per_unit = statistics.fmean(statistics.median(s / u for i, _, s, u in mine if i == ident)
                                        for ident in idents)
            raw = statistics.fmean(statistics.median(r / u for i, r, _, u in mine if i == ident)
                                   for ident in idents)
            how = "median" if len(idents) == 1 else f"mean of the medians of {len(idents)} ops"
            line = f"{name} = {show(per_unit):.6g} {unit} ({how}, n={len(mine)} calls"
            spread = high_percentile([s / u for _, _, s, u in mine])
            if spread:
                line += f", {spread[0]} = {show(spread[1]):.6g}"
        out[kind] = (per_unit, line + f"; unscaled wall clock {show(raw):.6g})")
    return out


def run_worker(plan: Path, result: Path, setup_only: bool, timeout: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), str(plan), str(result)]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.run(cmd, cwd=ROOT, timeout=timeout, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(result.read_text())


def check_outputs(plan: dict, result: dict) -> tuple[list[str], int]:
    """Check each op's first output; return problems and failed op runs."""
    import checks

    spec = importlib.util.spec_from_file_location("oracles", ROOT / "tests" / "oracles.py")
    oracles = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracles)
    problems = list(result["failures"])
    failed = sum(result["fail_counts"].values())
    ops = {op["ident"]: op for op in plan["cycle"] + (plan["stream"] or [])}
    if plan["workload"] == "test-large":
        problems += checks.check_d1_reference()
    for ident, runs in result["runs"].items():
        op = ops[ident]
        if plan["workload"] == "verify-closure":
            found = checks.check_verify(op, result["first_stdout"].get(ident, ""))
        elif result["fail_counts"].get(ident, 0) == runs:
            continue  # no trustworthy output to check; already counted as failed
        elif plan["workload"] == "test-large":
            found = checks.check_test(op, oracles)
        else:
            found = checks.check_simulate(op, oracles)
        if found:
            problems += found
            failed += runs - result["fail_counts"].get(ident, 0)
    return problems, failed


def per_layer_metrics(plan: dict, result: dict) -> tuple[dict, list[str]]:
    trace = result["trace"]
    lines = []
    values: dict[str, float] = {name: 0.0 for name, _ in PER_LAYER}
    counters = trace["counters"]
    if not counters:
        raise RuntimeError("the run was too short for a traced cycle")
    if any(c != counters[0] for c in counters[1:]):
        lines.append("warning: counters differ between traced cycles; reporting the first")
    first = counters[0]
    for name in values:
        if name.endswith((".calls", ".errors")) or name in first:
            values[name] = float(first.get(name, 0))
    for group in trace["self_times"][0]:
        name = group + ".self_s"
        if name in values:
            values[name] = statistics.median(cycle[group] for cycle in trace["self_times"])
    accepted, filtered = first.get("verify.t43.accepted", 0), first.get("verify.t43.filtered", 0)
    if accepted:
        values["verify.candidate_accept_ratio"] = accepted / (accepted + filtered)
    cycle = plan["cycle"]
    values["cli.input_bytes"] = float(sum(Path(p).stat().st_size for op in cycle for p in op["inputs"]))
    values["cli.output_bytes"] = float(sum(result["output_bytes"].get(op["ident"], 0) for op in cycle))
    walls = trace["cycle_walls"]
    untraced, traced = statistics.median(walls["untraced"]), statistics.median(walls["traced"])
    values["trace.overhead_pct"] = 100.0 * (traced / untraced - 1.0)
    values["trace.spans"] = float(statistics.median(trace["spans_per_cycle"]))
    lines.append(f"per-layer figures are per cycle of {len(cycle)} call(s); "
                 f"{len(walls['traced'])} traced and {len(walls['untraced'])} untraced cycles")
    lines.append(f"tracing overhead: traced cycle {traced:.6g} s vs untraced {untraced:.6g} s "
                 f"({values['trace.overhead_pct']:+.2f}%)")
    for name, unit in PER_LAYER:
        lines.append(f"{name} = {values[name]:.6g} {unit}")
    return values, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import workloads as W

    if args.workload not in W.WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; choose one of {', '.join(W.WORKLOADS)}")
    if args.seed < 0 or args.seconds <= 0:
        return fail("--seed must be >= 0 and --seconds > 0")
    for needed in ("src/kfwer/__init__.py", "src/kfwer/cli.py", "tests/oracles.py"):
        if not (ROOT / needed).is_file():
            return fail(f"{needed} not found under {ROOT}: run from a checkout of the kfwer repository")

    work = HERE / ".work" / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return measure(args, work, W)
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        return fail(str(exc))
    finally:
        spans = work / "spans.npz"
        if spans.exists():
            shutil.copy(spans, HERE / ".work" / f"spans-{args.workload}-{args.seed}.npz")
        shutil.rmtree(work, ignore_errors=True)


def measure(args, work: Path, W) -> int:
    plan_path = W.write_plan(args.workload, args.seed, args.seconds, bool(args.trace), ROOT, work)
    plan = json.loads(plan_path.read_text())

    def probe(i: int) -> dict:
        return run_worker(plan_path, work / f"probe{i}.json", True, PROBE_TIMEOUT_S)

    setups = [probe(i) for i in range(SETUP_PROBES // 2)]
    result = run_worker(plan_path, work / "result.json", False, args.seconds + MEASURE_MARGIN_S)
    setups += [result] + [probe(i) for i in range(SETUP_PROBES // 2, SETUP_PROBES)]
    problems, failed = check_outputs(plan, result)

    if args.trace:
        metrics, lines = per_layer_metrics(plan, result)
        units = dict(PER_LAYER)
    else:
        summary = summarize(args.workload, result["samples"])
        missing = [k for k in W.KIND_METRICS if k not in summary]
        if missing:
            return fail(f"no successful samples for {', '.join(missing)}")
        op_unit = {"test-large": "call", "simulate-small": "replication", "verify-closure": "trial"}[args.workload]
        metrics = {W.KIND_METRICS[kind]: per_unit for kind, (per_unit, _) in summary.items()}
        metrics["setup_s"] = statistics.median(p["setup_s"] * p["setup_scale"] for p in setups)
        metrics["peak_rss_mb"] = result["peak_rss_mb"]
        units = END_TO_END_UNITS
        lines = [line for _, line in summary.values()]
        lines += [f"{W.KIND_METRICS[kind]} = {summary[kind][0]:.6g} s per {op_unit}" for kind in W.KIND_METRICS]
        lines.append(f"setup_s = {metrics['setup_s']:.6g} s (median, n={len(setups)} fresh processes; "
                     f"unscaled wall clock {statistics.median(p['setup_s'] for p in setups):.6g})")
        lines.append("setup samples (wall clock s x scale): "
                     + ", ".join(f"{p['setup_s']:.4g} x {p['setup_scale']:.4g}" for p in setups))
        lines.append(f"peak_rss_mb = {metrics['peak_rss_mb']:.6g} MB (measuring process)")

    attempted = result["attempted"]
    correct = not problems
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    for problem in problems[:20]:
        print(f"FAILED: {problem}")
    print(f"error_rate = {failed / attempted:.6g} ({failed} failed of {attempted} ops)")
    print(f"correct = {str(correct).lower()}")
    for line in lines:
        print(line)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

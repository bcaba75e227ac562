"""Measuring process: runs one workload's plan in a fresh interpreter.

Usage (started by run.py, not by hand):
    python3 worker.py PLAN RESULT [--setup-only]

The process imports nothing heavy before ``kfwer``, so ``setup_s``
covers the whole import plus one cold run of every op in the cycle.
Then it calls ``kfwer.cli.main`` in a closed loop (one caller, the next
call starts when the previous one returns) until the plan's time is up.
With tracing on, cycles alternate untraced and traced so the two can be
compared for the tracing overhead.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import resource
import sys
import time
from pathlib import Path

clock = time.perf_counter

# Machine-speed calibration. The shared host's speed drifts by tens of
# percent within a minute, so every timing is also reported scaled by
# CAL_REF_S / (the latest calibration). The calibration is fixed Python
# work of the kinds kfwer does: an interpreter loop, a sort and a JSON
# encode, taken as the median of three repeats. Each op is scaled by the
# mean of the calibrations just before and just after it; one older than
# CAL_MAX_AGE_S is taken afresh.
CAL_REF_S = 0.010
CAL_MAX_AGE_S = 0.5
CAL_DATA = [((i * 7919) % 10007) / 10007.0 for i in range(10000)]


def calibrate() -> float:
    """Seconds one calibration unit takes right now (median of three)."""
    times = []
    for _ in range(3):
        t0 = clock()
        acc = 0
        for i in range(30_000):
            acc += i * i
        json.dumps(sorted(CAL_DATA))
        times.append(clock() - t0)
    return sorted(times)[1]


class Calibrator:
    """Latest calibration, refreshed when stale."""

    def __init__(self):
        self.taken = -1e9
        self.seconds = CAL_REF_S

    def current(self) -> float:
        if clock() - self.taken > CAL_MAX_AGE_S:
            self.seconds = calibrate()
            self.taken = clock()
        return self.seconds

    def scale_for(self, before: float) -> float:
        """Scale for an op that started with calibration ``before``: an op
        that outlived the calibration is bracketed by a fresh one, which
        also serves the next op."""
        return 2.0 * CAL_REF_S / (before + self.current())


class Runner:
    """Executes ops, times them and checks that repeats agree."""

    def __init__(self):
        self.digests: dict[str, str] = {}
        self.attempted = 0
        self.failures: list[str] = []
        self.fail_counts: dict[str, int] = {}
        self.runs: dict[str, int] = {}
        self.theorem_times: dict[str, float] = {}
        self.output_bytes: dict[str, int] = {}
        self.first_stdout: dict[str, str] = {}

    def time_theorems(self, kfwer_cli, kfwer_verify) -> None:
        """Time each theorem inside ``verify --theorem all``: two clock
        reads per theorem, and the lookup stays dynamic so a tracer that
        patches ``kfwer.verify`` still sees the call."""
        times = self.theorem_times

        def timed(theorem, *args, **kwargs):
            t0 = clock()
            try:
                return kfwer_verify.run_theorem_trials(theorem, *args, **kwargs)
            finally:
                times[theorem] = clock() - t0

        kfwer_cli.run_theorem_trials = timed

    def run(self, op: dict, cli):
        """Run one op; return its wall time, or None when it raised. A
        nonzero exit code or an output that differs from the op's first
        run is recorded as a failure, but the op is still timed."""
        self.attempted += 1
        ident = op["ident"]
        self.runs[ident] = self.runs.get(ident, 0) + 1
        self.theorem_times.clear()
        stdout = io.StringIO()
        try:
            with contextlib.redirect_stdout(stdout):
                t0 = clock()
                code = cli.main(op["argv"])
                elapsed = clock() - t0
        except Exception as exc:  # one failed op must not end the run
            self._fail(ident, f"{ident}: raised {type(exc).__name__}: {exc}")
            return None
        if op["output"] is None:
            self.first_stdout.setdefault(ident, stdout.getvalue())
        if code != 0:
            self._fail(ident, f"{ident}: exit code {code}")
            return elapsed
        data = Path(op["output"]).read_bytes() if op["output"] else stdout.getvalue().encode()
        self.output_bytes[ident] = len(data)
        digest = hashlib.sha256(data).hexdigest()
        if digest != self.digests.setdefault(ident, digest):
            self._fail(ident, f"{ident}: output differs from its first run")
        return elapsed

    def _fail(self, ident: str, message: str) -> None:
        self.failures.append(message)
        self.fail_counts[ident] = self.fail_counts.get(ident, 0) + 1


def samples_of(op: dict, elapsed: float, scale: float, theorem_times: dict) -> list:
    """(metric kind, op ident, seconds, scaled seconds, units) samples of
    one successful op."""
    if op["kind"] != "verify":
        parts = [(op["kind"], elapsed, op["units"])]
    else:
        trials = op["units"]
        stepwise = sum(theorem_times[t] for t in ("4.1", "4.2", "4.3", "4.4"))
        parts = [("stepwise", stepwise, 4 * trials), ("hommel", theorem_times["5.1"], trials),
                 ("heavy", elapsed, 5 * trials)]
    return [(kind, op["ident"], s, s * scale, units) for kind, s, units in parts]


def main(argv: list[str]) -> int:
    plan_path, result_path = argv[0], argv[1]
    setup_only = "--setup-only" in argv[2:]
    plan = json.loads(Path(plan_path).read_text())
    src = plan["src"]
    sys.path.insert(0, src)

    cal_before = calibrate()
    t_start = clock()
    import kfwer.cli  # noqa: E402  (timed: part of setup)
    import kfwer.verify  # noqa: E402

    if not Path(kfwer.__file__).resolve().is_relative_to(Path(src).resolve()):
        print(f"kfwer was imported from {kfwer.__file__}, not from {src}", file=sys.stderr)
        return 2
    runner = Runner()
    runner.time_theorems(kfwer.cli, kfwer.verify)
    cli = kfwer.cli
    cycle, stream = plan["cycle"], plan["stream"]
    for op in cycle:
        runner.run(op, cli)
    setup_s = clock() - t_start
    setup_scale = 2.0 * CAL_REF_S / (cal_before + calibrate())
    if setup_only:
        Path(result_path).write_text(json.dumps({"setup_s": setup_s, "setup_scale": setup_scale}))
        return 0

    trace = plan["trace"]
    deadline = clock() + plan["seconds"]
    samples = []
    tracer = None
    cycle_walls = {False: [], True: []}
    cycle_marks = []
    cycle_counters = []
    if trace:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from tracer import Tracer

        tracer = Tracer()
    calibrator = Calibrator()
    if stream and not trace:
        ops = itertools.cycle(stream[1:] + stream[:1])
        while clock() < deadline:
            op = next(ops)
            before = calibrator.current()
            elapsed = runner.run(op, cli)
            scale = calibrator.scale_for(before)
            if elapsed is not None:
                samples.extend(samples_of(op, elapsed, scale, runner.theorem_times))
        # Stream ops ran once each; repeat the first two to check that
        # repeats agree.
        for op in stream[:2]:
            runner.run(op, cli)
    else:
        index = 0
        while clock() < deadline:
            traced = trace and index % 2 == 1
            if traced:
                tracer.install()
                lo = tracer.mark()
                counted = tracer.counters.copy()
            wall = 0.0
            for op in cycle:
                before = calibrator.current()
                elapsed = runner.run(op, cli)
                scale = calibrator.scale_for(before)
                if elapsed is not None:
                    wall += elapsed * scale
                    if not trace:
                        samples.extend(samples_of(op, elapsed, scale, runner.theorem_times))
            if traced:
                tracer.uninstall()
                cycle_marks.append((lo, tracer.mark()))
                delta = tracer.counters.copy()
                delta.subtract(counted)
                cycle_counters.append({k: v for k, v in delta.items() if v})
            if trace:
                cycle_walls[traced].append(wall)
            index += 1

    result = {
        "setup_s": setup_s,
        "setup_scale": setup_scale,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": runner.attempted,
        "failures": runner.failures,
        "fail_counts": runner.fail_counts,
        "runs": runner.runs,
        "samples": samples,
        "output_bytes": runner.output_bytes,
        "first_stdout": runner.first_stdout,
    }
    if trace:
        result["trace"] = {
            "cycle_walls": {"untraced": cycle_walls[False], "traced": cycle_walls[True]},
            "self_times": [tracer.self_times(lo, hi) for lo, hi in cycle_marks],
            "counters": cycle_counters,
            "spans_per_cycle": [hi - lo for lo, hi in cycle_marks],
        }
        tracer.write(os.path.join(plan["work"], "spans.npz"))
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

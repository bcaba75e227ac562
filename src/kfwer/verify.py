"""Randomized equivalence and dominance checking between procedures.

Each theorem has a trial that draws one random instance (sizes, p-values
with and without ties, schedules, critical-value families satisfying
the relevant hypotheses) and decides it with the theorem's shortcut:
stepdown, stepup or generalized Hommel. :func:`run_theorem_trials` runs
one loop for every theorem: it decides the same instance by closed
testing, which as an exhaustive enumeration serves as the oracle, and
compares the two rejection sets exactly, for equality or inclusion. A
failed trial is returned with everything needed to replay it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import (
    ConfigError,
    CriticalSchedule,
    LocalTestFamily,
    PValueVector,
    _integer,
    _steps,
    check_theorem43_condition,
    order_pvalues,
    validate_family,
    validate_schedule,
)
from .procedures import (
    EXHAUSTIVE_LIMIT,
    ProcedureResult,
    closed_testing,
    constant_family,
    generalized_hommel,
    stepdown,
    stepdown_as_family,
    stepup,
    stepup_as_family,
)


@dataclass
class TrialFailure:
    """One counterexample: the instance plus both rejection sets."""

    theorem: str
    trial: int
    relation: str  # "equality" or "inclusion"
    k: int
    pvalues: tuple[float, ...]
    schedule: Optional[tuple[float, ...]]
    family_rows: Optional[tuple[tuple[float, ...], ...]]
    left_name: str
    left_rejected: tuple[int, ...]
    right_name: str
    right_rejected: tuple[int, ...]

    def describe(self) -> str:
        lines = [
            f"theorem {self.theorem}, trial {self.trial}: {self.left_name} vs {self.right_name} "
            f"violated {self.relation}",
            f"  k = {self.k}",
            f"  p-values = {list(self.pvalues)}",
        ]
        if self.schedule is not None:
            lines.append(f"  schedule = {list(self.schedule)}")
        if self.family_rows is not None:
            lines.append(f"  family rows (m = k..n) = {[list(r) for r in self.family_rows]}")
        lines.append(f"  {self.left_name} rejected (1-based) = {[j + 1 for j in self.left_rejected]}")
        lines.append(f"  {self.right_name} rejected (1-based) = {[j + 1 for j in self.right_rejected]}")
        return "\n".join(lines)


@dataclass
class TheoremReport:
    """Outcome of a batch of randomized trials for one theorem."""

    theorem: str
    trials: int
    failures: list[TrialFailure] = field(default_factory=list)
    notes: dict[str, int] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        status = "ok" if self.passed else f"{len(self.failures)} counterexample(s)"
        extras = "".join(f", {k}={v}" for k, v in sorted(self.notes.items()))
        return f"theorem {self.theorem}: {self.trials} trials, {status}{extras}"


def random_pvalues(rng: np.random.Generator, n: int, pool: Optional[list[float]] = None) -> PValueVector:
    """Random p-values mixing continuous draws, heavy ties, and exact
    hits on critical values (boundary cases where <= vs < matters).

    Every value is a draw on [0, 1), such a draw rounded, or an entry of
    ``pool``, the critical values of a validated schedule or family, so
    all lie in [0, 1] as drawn."""
    style = rng.integers(0, 4)
    if style == 0:
        vals = rng.uniform(0.0, 1.0, n)
    elif style == 1:
        vals = np.round(rng.uniform(0.0, 1.0, n), 1)  # many ties
    elif style == 2:
        vals = rng.uniform(0.0, 0.3, n)  # dense near rejection region
    else:
        vals = rng.uniform(0.0, 1.0, n)
        if pool:
            hits = rng.integers(1, n + 1)
            for pos in rng.choice(n, size=hits, replace=False):
                vals[pos] = pool[rng.integers(0, len(pool))]
    return order_pvalues(vals)


# The scales the generators draw from, by index: Generator.choice(seq)
# draws integers(0, len(seq)), so the same streams at a fifth of the cost.
_SCHEDULE_SCALES = (0.05, 0.3, 1.0)
_FAMILY_SCALES = (0.05, 0.2, 1.0)


def random_schedule(rng: np.random.Generator, k: int, n: int) -> CriticalSchedule:
    """Random nondecreasing critical values, sometimes with flat spots."""
    scale = _SCHEDULE_SCALES[rng.integers(0, 3)]
    vals = np.sort(rng.uniform(0.0, scale, n - k + 1))
    if rng.random() < 0.3:
        vals = np.round(vals, 2)
    return validate_schedule(k, n, vals)


def random_family(rng: np.random.Generator, k: int, n: int, constant_rows: bool = False) -> LocalTestFamily:
    """Random family, nondecreasing in i and nonincreasing in m.

    Built upward from the largest cardinality: each smaller cardinality
    adds a nondecreasing nonnegative bump, which preserves both
    monotonicity directions. ``constant_rows`` collapses each row to its
    first entry (the shape under which closed testing reduces to a
    stepdown scan).
    """
    scale = _FAMILY_SCALES[rng.integers(0, 3)]
    rows = [np.sort(rng.uniform(0.0, scale, n - k + 1))]  # m = n, n - 1, ..., k
    for m in range(n - 1, k - 1, -1):
        if rng.random() < 0.25:
            bump = np.zeros(m - k + 1)  # keep equalities in play
        else:
            bump = np.sort(rng.uniform(0.0, scale / 2.0, m - k + 1))
        rows.append(np.minimum(rows[-1][: m - k + 1] + bump, 1.0))
    if constant_rows:
        rows = [np.full(row.size, row[0]) for row in rows]
    return validate_family(k, n, [row.tolist() for row in reversed(rows)])


def random_diagonal_family(rng: np.random.Generator, k: int, n: int) -> LocalTestFamily:
    """Random family additionally satisfying the diagonal condition of
    the stepup reduction.

    Product families f(i) * g(m - i) with f nondecreasing and g
    nonincreasing satisfy all three monotonicity requirements; stepup
    transforms of random schedules give the constant-diagonal edge case.
    """
    if rng.random() < 0.4:
        return stepup_as_family(random_schedule(rng, k, n))
    f = np.sort(rng.uniform(0.0, 1.0, n - k + 1))  # indexed by i = k..n
    g = np.sort(rng.uniform(0.0, 1.0, n - k + 1))[::-1]  # indexed by d = 0..n-k
    table = [[float(f[i - k] * g[m - i]) for i in range(k, m + 1)] for m in range(k, n + 1)]
    fam = validate_family(k, n, table)
    if not check_theorem43_condition(fam):
        raise AssertionError("product construction must satisfy the diagonal condition")
    return fam


def schedule_from_family(f: LocalTestFamily) -> CriticalSchedule:
    """The stepwise schedule a family induces: value at rank k of the
    worst-case subset containing the i-th ordered p-value: the first
    value of row (n - i) + k, for i = k..n."""
    return validate_schedule(f.k, f.n, f._array[np.arange(f.n - f.k + 1).cumsum()[::-1]])


def _draw_size(rng: np.random.Generator, n_max: int) -> tuple[int, int]:
    n = int(rng.integers(2, n_max + 1))
    k = int(rng.integers(1, n + 1))
    return n, k


# A trial draws one instance, decides it with the theorem's shortcut and
# returns (p-values, the family closed testing runs with, the shortcut's
# result, the relation to check, the increment of the theorem's note).
Trial = tuple[PValueVector, LocalTestFamily, ProcedureResult, str, int]


def _trial_41(rng: np.random.Generator, t: int, n_max: int) -> Trial:
    """Closed testing dominates the induced stepdown; equality when rows
    are constant."""
    n, k = _draw_size(rng, n_max)
    kind = rng.integers(0, 3)
    if kind == 0:
        fam = random_family(rng, k, n)
    elif kind == 1:
        fam = random_family(rng, k, n, constant_rows=True)
    else:
        fam = constant_family(k, n, float(rng.uniform(0.005, 0.5)))
    sched = schedule_from_family(fam)
    p = random_pvalues(rng, n, fam._array.tolist())
    at = _steps(n - k + 1)
    rows_constant = bool((fam._array[at + 1] == fam._array[at]).all())
    return p, fam, stepdown(p, sched), "equality" if rows_constant else "inclusion", int(rows_constant)


def _trial_form(rule: str, rng: np.random.Generator, t: int, n_max: int) -> Trial:
    """Any stepdown (Theorem 4.2) or stepup (4.4) procedure equals closed
    testing with its form. The rule and its form are looked up by name at
    call time, so a rebound module name, a tracer's included, takes effect."""
    n, k = _draw_size(rng, n_max)
    sched = random_schedule(rng, k, n)
    p = random_pvalues(rng, n, list(sched.alphas))
    return p, globals()[f"{rule}_as_family"](sched), globals()[rule](p, sched), "equality", 0


def _trial_43(rng: np.random.Generator, t: int, n_max: int) -> Trial:
    """Closed testing dominates the induced stepup when the diagonal
    condition holds. Candidate families not satisfying the condition are
    regenerated, never compared; the note counts them."""
    filtered = 0
    fam = None
    while fam is None:
        n, k = _draw_size(rng, n_max)
        if rng.random() < 0.2:
            candidate = random_family(rng, k, n)  # rarely satisfies the condition
            if check_theorem43_condition(candidate):
                fam = candidate
            else:
                filtered += 1
        else:
            fam = random_diagonal_family(rng, k, n)
    sched = schedule_from_family(fam)
    p = random_pvalues(rng, fam.n, fam._array.tolist())
    return p, fam, stepup(p, sched), "inclusion", filtered


def _trial_51(rng: np.random.Generator, t: int, n_max: int) -> Trial:
    """The generalized Hommel shortcut equals closed testing for every
    doubly monotone family, including the reject-all branch."""
    n, k = _draw_size(rng, n_max)
    fam = random_family(rng, k, n)
    if t % 5 == 0:
        # Aim p-values below the smallest thresholds, the rank-k value of
        # size n, to exercise the branch where no cardinality survives.
        floor = max(fam.value(k, n), 1e-6)
        p = order_pvalues(rng.uniform(0.0, floor, n))
    else:
        p = random_pvalues(rng, n, fam._array.tolist())
    hommel = generalized_hommel(p, fam)
    return p, fam, hommel, "equality", int(hommel.detail["j_hat"] is None)


# theorem id -> (trial, name of the note its increments add up to)
_TRIALS = {
    "4.1": (_trial_41, "equality_trials"),
    "4.2": (functools.partial(_trial_form, "stepdown"), None),
    "4.3": (_trial_43, "condition_filtered"),
    "4.4": (functools.partial(_trial_form, "stepup"), None),
    "5.1": (_trial_51, "reject_all_branch"),
}
THEOREMS = tuple(_TRIALS)


def run_theorem_trials(theorem: str, trials: int, n_max: int, seed: int) -> TheoremReport:
    """Run randomized trials for one theorem id from THEOREMS: each trial's
    shortcut is compared with exhaustive closed testing on its family.
    Sizes are drawn from 2..``n_max`` <= ``EXHAUSTIVE_LIMIT``; ``trials``
    is >= 1 and ``seed`` >= 0, and all three are integers."""
    try:
        trial, note = _TRIALS[theorem]
    except KeyError:
        raise ValueError(f"unknown theorem {theorem!r}, expected one of {THEOREMS}") from None
    trials, n_max, seed = _integer("trials", trials), _integer("n_max", n_max), _integer("seed", seed)
    if trials < 1:
        raise ConfigError(f"trials must be >= 1, got {trials}")
    if not 2 <= n_max <= EXHAUSTIVE_LIMIT:
        raise ConfigError(f"n_max must lie in 2..{EXHAUSTIVE_LIMIT}, got {n_max}")
    if seed < 0:
        raise ConfigError(f"seed must be a nonnegative integer, got {seed}")
    rng = np.random.default_rng(seed)
    report = TheoremReport(theorem, trials)
    hits = 0
    for t in range(trials):
        p, fam, shortcut, relation, increment = trial(rng, t, n_max)
        hits += increment
        closed = closed_testing(p, fam)
        left, right = shortcut.rejected_indices(), closed.rejected_indices()
        held = left == right if relation == "equality" else set(left) <= set(right)
        if not held:
            report.failures.append(TrialFailure(
                theorem=theorem, trial=t, relation=relation, k=fam.k, pvalues=p.values,
                schedule=shortcut.schedule.alphas if shortcut.schedule is not None else None,
                family_rows=fam.rows, left_name=shortcut.procedure, left_rejected=left,
                right_name=closed.procedure, right_rejected=right,
            ))
    if note is not None:
        report.notes[note] = hits
    return report

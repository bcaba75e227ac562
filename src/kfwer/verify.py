"""Randomized equivalence and dominance checking between procedures.

Each checker draws random problem instances (sizes, p-values with and
without ties, schedules, critical-value families satisfying the relevant
hypotheses) and compares rejection sets exactly: closed testing, being
an exhaustive enumeration, serves as the oracle for the stepwise and
Hommel shortcuts. A failed trial is returned with everything needed to
replay it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import (
    CriticalSchedule,
    LocalTestFamily,
    PValueVector,
    check_theorem43_condition,
    order_pvalues,
    validate_family,
    validate_schedule,
)
from .procedures import (
    closed_testing,
    constant_family,
    generalized_hommel,
    lehmann_romano_schedule,
    simes_family,
    stepdown,
    stepdown_as_family,
    stepup,
    stepup_as_family,
)

THEOREMS = ("4.1", "4.2", "4.3", "4.4", "5.1")


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
    hits on critical values (boundary cases where <= vs < matters)."""
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
    return order_pvalues(np.clip(vals, 0.0, 1.0).tolist())


def random_schedule(rng: np.random.Generator, k: int, n: int) -> CriticalSchedule:
    """Random nondecreasing critical values, sometimes with flat spots."""
    scale = float(rng.choice([0.05, 0.3, 1.0]))
    vals = np.sort(rng.uniform(0.0, scale, n - k + 1))
    if rng.random() < 0.3:
        vals = np.round(vals, 2)
    return validate_schedule(k, n, np.clip(vals, 0.0, 1.0).tolist())


def random_family(rng: np.random.Generator, k: int, n: int, constant_rows: bool = False) -> LocalTestFamily:
    """Random family, nondecreasing in i and nonincreasing in m.

    Built upward from the largest cardinality: each smaller cardinality
    adds a nondecreasing nonnegative bump, which preserves both
    monotonicity directions. ``constant_rows`` collapses each row to its
    first entry (the shape under which closed testing reduces to a
    stepdown scan).
    """
    scale = float(rng.choice([0.05, 0.2, 1.0]))
    rows: dict[int, np.ndarray] = {}
    rows[n] = np.sort(rng.uniform(0.0, scale, n - k + 1))
    for m in range(n - 1, k - 1, -1):
        if rng.random() < 0.25:
            bump = np.zeros(m - k + 1)  # keep equalities in play
        else:
            bump = np.sort(rng.uniform(0.0, scale / 2.0, m - k + 1))
        rows[m] = np.minimum(rows[m + 1][: m - k + 1] + bump, 1.0)
    table = []
    for m in range(k, n + 1):
        row = rows[m]
        if constant_rows:
            row = np.full(m - k + 1, row[0])
        table.append(row.tolist())
    return validate_family(k, n, table)


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
    worst-case subset containing the i-th ordered p-value."""
    k, n = f.k, f.n
    return validate_schedule(k, n, [f.value(k, (n - i) + k) for i in range(k, n + 1)])


def _draw_size(rng: np.random.Generator, n_min: int, n_max: int) -> tuple[int, int]:
    n = int(rng.integers(n_min, n_max + 1))
    k = int(rng.integers(1, n + 1))
    return n, k


def _record(
    failures: list[TrialFailure],
    theorem: str,
    trial: int,
    relation: str,
    p: PValueVector,
    schedule: Optional[CriticalSchedule],
    family: Optional[LocalTestFamily],
    left_name: str,
    left: tuple[int, ...],
    right_name: str,
    right: tuple[int, ...],
) -> None:
    failures.append(
        TrialFailure(
            theorem=theorem,
            trial=trial,
            relation=relation,
            k=schedule.k if schedule is not None else family.k,
            pvalues=p.values,
            schedule=schedule.alphas if schedule is not None else None,
            family_rows=family.rows if family is not None else None,
            left_name=left_name,
            left_rejected=left,
            right_name=right_name,
            right_rejected=right,
        )
    )


def check_theorem_41(trials: int, n_max: int, seed: int, n_min: int = 2) -> TheoremReport:
    """Closed testing dominates the induced stepdown; equality when rows
    are constant."""
    rng = np.random.default_rng(seed)
    report = TheoremReport("4.1", trials)
    equalities = 0
    for t in range(trials):
        n, k = _draw_size(rng, n_min, n_max)
        kind = rng.integers(0, 3)
        if kind == 0:
            fam = random_family(rng, k, n)
        elif kind == 1:
            fam = random_family(rng, k, n, constant_rows=True)
        else:
            fam = constant_family(k, n, float(rng.uniform(0.005, 0.5)))
        sched = schedule_from_family(fam)
        pool = [v for row in fam.rows for v in row]
        p = random_pvalues(rng, n, pool)
        down = set(stepdown(p, sched).rejected_indices())
        closed = set(closed_testing(p, fam).rejected_indices())
        rows_constant = all(all(v == row[0] for v in row) for row in fam.rows)
        if rows_constant:
            equalities += 1
            if down != closed:
                _record(report.failures, "4.1", t, "equality", p, sched, fam,
                        "stepdown", tuple(sorted(down)), "closed_testing", tuple(sorted(closed)))
        elif not down <= closed:
            _record(report.failures, "4.1", t, "inclusion", p, sched, fam,
                    "stepdown", tuple(sorted(down)), "closed_testing", tuple(sorted(closed)))
    report.notes["equality_trials"] = equalities
    return report


def check_theorem_42(trials: int, n_max: int, seed: int, n_min: int = 2) -> TheoremReport:
    """Any stepdown procedure equals closed testing with its induced family."""
    rng = np.random.default_rng(seed)
    report = TheoremReport("4.2", trials)
    for t in range(trials):
        n, k = _draw_size(rng, n_min, n_max)
        sched = random_schedule(rng, k, n)
        p = random_pvalues(rng, n, list(sched.alphas))
        down = stepdown(p, sched).rejected_indices()
        closed = closed_testing(p, stepdown_as_family(sched)).rejected_indices()
        if down != closed:
            _record(report.failures, "4.2", t, "equality", p, sched, stepdown_as_family(sched),
                    "stepdown", down, "closed_testing", closed)
    return report


def check_theorem_43(trials: int, n_max: int, seed: int, n_min: int = 2) -> TheoremReport:
    """Closed testing dominates the induced stepup when the diagonal
    condition holds. Candidate families not satisfying the condition are
    regenerated, never compared."""
    rng = np.random.default_rng(seed)
    report = TheoremReport("4.3", trials)
    filtered = 0
    for t in range(trials):
        fam = None
        while fam is None:
            n, k = _draw_size(rng, n_min, n_max)
            if rng.random() < 0.2:
                candidate = random_family(rng, k, n)  # rarely satisfies the condition
                if check_theorem43_condition(candidate):
                    fam = candidate
                else:
                    filtered += 1
            else:
                fam = random_diagonal_family(rng, k, n)
        sched = schedule_from_family(fam)
        pool = [v for row in fam.rows for v in row]
        p = random_pvalues(rng, fam.n, pool)
        up = set(stepup(p, sched).rejected_indices())
        closed = set(closed_testing(p, fam).rejected_indices())
        if not up <= closed:
            _record(report.failures, "4.3", t, "inclusion", p, sched, fam,
                    "stepup", tuple(sorted(up)), "closed_testing", tuple(sorted(closed)))
    report.notes["condition_filtered"] = filtered
    return report


def check_theorem_44(trials: int, n_max: int, seed: int, n_min: int = 2) -> TheoremReport:
    """Any stepup procedure equals closed testing with its induced family."""
    rng = np.random.default_rng(seed)
    report = TheoremReport("4.4", trials)
    for t in range(trials):
        n, k = _draw_size(rng, n_min, n_max)
        sched = random_schedule(rng, k, n)
        p = random_pvalues(rng, n, list(sched.alphas))
        up = stepup(p, sched).rejected_indices()
        closed = closed_testing(p, stepup_as_family(sched)).rejected_indices()
        if up != closed:
            _record(report.failures, "4.4", t, "equality", p, sched, stepup_as_family(sched),
                    "stepup", up, "closed_testing", closed)
    return report


def check_theorem_51(trials: int, n_max: int, seed: int, n_min: int = 2) -> TheoremReport:
    """The generalized Hommel shortcut equals closed testing for every
    doubly monotone family, including the reject-all branch."""
    rng = np.random.default_rng(seed)
    report = TheoremReport("5.1", trials)
    reject_all_hits = 0
    for t in range(trials):
        n, k = _draw_size(rng, n_min, n_max)
        fam = random_family(rng, k, n)
        pool = [v for row in fam.rows for v in row]
        if t % 5 == 0:
            # Aim p-values below the smallest thresholds to exercise the
            # branch where no cardinality survives.
            floor = max(min(row[0] for row in fam.rows), 1e-6)
            p = order_pvalues(rng.uniform(0.0, floor, n).tolist())
        else:
            p = random_pvalues(rng, n, pool)
        hommel = generalized_hommel(p, fam)
        closed = closed_testing(p, fam)
        if hommel.detail["j_hat"] is None:
            reject_all_hits += 1
        if hommel.rejected_indices() != closed.rejected_indices():
            _record(report.failures, "5.1", t, "equality", p, None, fam,
                    "generalized_hommel", hommel.rejected_indices(), "closed_testing", closed.rejected_indices())
    report.notes["reject_all_branch"] = reject_all_hits
    return report


def check_hommel_dominates_hochberg(trials: int, n_max: int, seed: int, n_min: int = 2) -> TheoremReport:
    """At k = 1, Hommel with Simes values rejects everything Hochberg's
    stepup with alpha/(n-i+1) rejects."""
    rng = np.random.default_rng(seed)
    report = TheoremReport("hommel-hochberg", trials)
    for t in range(trials):
        n = int(rng.integers(n_min, n_max + 1))
        alpha = float(rng.uniform(0.005, 0.5))
        fam = simes_family(1, n, alpha)
        hochberg = validate_schedule(1, n, [alpha / (n - i + 1) for i in range(1, n + 1)])
        # Continuous p-values only: the two critical-value tables are
        # rounded independently, so a p-value planted exactly on a shared
        # boundary can flip one table's comparison by one ulp. That is a
        # float artifact, not a power ordering violation.
        p = random_pvalues(rng, n, None)
        up = set(stepup(p, hochberg).rejected_indices())
        hommel = set(generalized_hommel(p, fam).rejected_indices())
        if not up <= hommel:
            _record(report.failures, "hommel-hochberg", t, "inclusion", p, hochberg, fam,
                    "stepup", tuple(sorted(up)), "generalized_hommel", tuple(sorted(hommel)))
    return report


_CHECKERS = {
    "4.1": check_theorem_41,
    "4.2": check_theorem_42,
    "4.3": check_theorem_43,
    "4.4": check_theorem_44,
    "5.1": check_theorem_51,
}


def run_theorem_trials(theorem: str, trials: int, n_max: int, seed: int, n_min: int = 2) -> TheoremReport:
    """Run randomized trials for one theorem id from THEOREMS."""
    try:
        checker = _CHECKERS[theorem]
    except KeyError:
        raise ValueError(f"unknown theorem {theorem!r}, expected one of {THEOREMS}") from None
    return checker(trials, n_max, seed, n_min=n_min)

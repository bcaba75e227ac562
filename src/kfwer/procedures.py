"""Decision procedures controlling the k-FWER from marginal p-values.

Four procedures share one convention: the k-1 most significant
hypotheses are always rejected, since fewer than k false rejections can
never violate the error criterion. Stepdown and stepup consume a
single-indexed critical schedule; closed testing and the generalized
Hommel shortcut consume a double-indexed local test family. By Theorem
5.1 the shortcut rejects exactly what closed testing rejects for every
admissible family, so the named procedure ``closed`` decides through it
at any n. ``closed_testing`` enumerates every subset exhaustively and
stays the reference the shortcuts are checked against.

Stepdown, stepup and Hommel each have one implementation: a batch kernel
that decides a matrix of sorted p-values, one row per replication, which
``kfwer simulate`` runs over chunks of replications and the public
functions over the one row of a p-value vector. Hommel on a stepdown or
stepup form runs the form's stepwise kernel (Theorems 4.2, 4.4 and 5.1).
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Any, Callable, Optional, Union

import numpy as np

from .bounds import d1
from .core import (
    AlphaOutOfRangeError,
    ConfigError,
    CriticalSchedule,
    DegenerateScheduleError,
    FamilyTooLargeError,
    KOutOfRangeError,
    LengthMismatchError,
    LocalTestFamily,
    OutOfRangeError,
    PValueVector,
    TooLargeError,
    _integer,
    _real,
    _unvalidated,
)

# Exhaustive subset enumeration is exponential in n; closed_testing and the
# verify harness refuse beyond this.
EXHAUSTIVE_LIMIT = 18

# Entries of a materialized local-test family table, (n-k+1)(n-k+2)/2, which
# is n(n+1)/2 at k = 1; at k = 1 the cap admits n <= 7745. A stored table
# takes 8 bytes per entry, 240 MB at the cap; its ``rows`` view, once read,
# about 32 more (a float and its slot in a row tuple). simes_family and
# `kfwer test`'s family report refuse a larger table.
MAX_FAMILY_ENTRIES = 30_000_000


@dataclass(frozen=True)
class ProcedureResult:
    """Per-hypothesis decisions of one procedure, its audit value, and the
    critical values it ran with.

    ``rejected`` is indexed by original hypothesis position. ``detail``
    carries the stepwise cutoff index (``{"r": ...}``), the Hommel
    true-null estimate (``{"j_hat": ...}``, ``None`` marking the
    reject-all branch), or the accepted intersection cardinalities for
    closed testing.
    """

    rejected: tuple[bool, ...]
    detail: dict[str, Any]
    procedure: str
    schedule: Optional[CriticalSchedule] = None
    family: Optional[LocalTestFamily] = None

    @property
    def num_rejected(self) -> int:
        return sum(self.rejected)

    def rejected_indices(self) -> tuple[int, ...]:
        """0-based original positions of rejected hypotheses, ascending."""
        return tuple(itertools.compress(range(len(self.rejected)), self.rejected))


def _prefix_flags(p: PValueVector, count: int) -> tuple[bool, ...]:
    """Flags rejecting the ``count`` most significant hypotheses (tie-broken order)."""
    flags = np.zeros(p.n, dtype=bool)
    flags[p._order_array[:count]] = True
    return tuple(flags.tolist())


def _require_same_n(p: PValueVector, n: int, what: str) -> None:
    if p.n != n:
        raise LengthMismatchError(f"{what} is sized for n={n} but got {p.n} p-values")


def stepdown(p: PValueVector, s: CriticalSchedule) -> ProcedureResult:
    """Stepdown procedure: scan upward from the k-th smallest p-value.

    Rejects the hypotheses of the r smallest p-values, where r is the
    largest index such that every ordered p-value from rank k through r
    is at or below its critical value. If already the k-th smallest
    exceeds its critical value, only the automatic k-1 are rejected and
    the cutoff is recorded as absent.
    """
    return _stepwise("stepdown", p, s)


def stepup(p: PValueVector, s: CriticalSchedule) -> ProcedureResult:
    """Stepup procedure: scan downward from the least significant p-value.

    Rejects the hypotheses of the r smallest p-values with
    r = max{i >= k : P_(i) <= alpha_i}; when every comparison fails only
    the automatic k-1 are rejected. Rejecting everything when the largest
    p-value clears its critical value is the r = n case.
    """
    return _stepwise("stepup", p, s)


def _stepwise(rule: str, p: PValueVector, s: CriticalSchedule) -> ProcedureResult:
    """The named stepwise rule's result, from its kernel (:func:`bind_batch`)."""
    _require_same_n(p, s.n, "schedule")
    count = int(bind_batch(rule, s)(p._sorted_array[None])[0])
    return ProcedureResult(_prefix_flags(p, count), {"r": count if count >= s.k else None}, rule, schedule=s)


# Closure tables: ``_tables(n, m)`` is ``(passes, holders)``, two rows of
# ints per rank r of the size-m subsets of the n sorted positions, bit j
# standing for the j-th subset as itertools.combinations lists them.
# ``passes[r - 1][x]`` (x = 0..n) holds the subsets whose rank-r member sits
# at position x or beyond, ``holders[r - 1][x]`` (x < n) those that hold x
# at rank r or beyond. They are built from the n - 1 tables by Pascal's
# rule: the C(n-1, m-1) subsets holding 0 come first, as 0 followed by a
# size-(m-1) subset moved up one position; the size-m subsets moved up one
# position follow, in the higher bits. Each is built once per (n, m); all
# tables for n <= 14 take about 0.6 MB, those for n <= 18 about 10 MB.
@functools.cache
def _tables(n: int, m: int) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
    if m == 0 or m > n:  # the empty subset, or no subset
        return ((0,) * (n + 1),) * m, ((0,) * n,) * m
    shift = math.comb(n - 1, m - 1)
    head, tail = (1 << shift) - 1, (1 << math.comb(n - 1, m)) - 1
    (a_passes, a_holders), (b_passes, b_holders) = _tables(n - 1, m - 1), _tables(n - 1, m)
    passes, holders, seen = [], [], {}  # equal bitsets share one int
    for i in range(m):
        # A head subset's rank-1 member is 0; its rank-(i+1) member is the
        # rank-i member of its size-(m-1) subset, moved up one.
        head_passes = (head, *(a_passes[i - 1] if i else (0,) * n))
        head_holders = (0, *a_holders[i - 1]) if i else (head, *(a_holders[0] if m > 1 else (0,) * (n - 1)))
        passes.append(tuple(seen.setdefault(v := a | b << shift, v) for a, b in zip(head_passes, (tail, *b_passes[i]))))
        holders.append(tuple(seen.setdefault(v := a | b << shift, v) for a, b in zip(head_holders, (0, *b_holders[i]))))
    return tuple(passes), tuple(holders)


def closed_testing(p: PValueVector, f: LocalTestFamily) -> ProcedureResult:
    """Generalized closed testing by exhaustive subset enumeration.

    A hypothesis is rejected iff every subset that contains it at rank k
    or beyond (in the tie-broken order) has its intersection hypothesis
    rejected by the local test; subsets where it sits among the first
    k-1 members impose no constraint, which also makes the k-1 globally
    most significant hypotheses automatic rejections. Enumeration is
    deliberately unpruned: this is the reference the shortcuts are checked
    against. ``kfwer test`` and ``simulate`` never call it; their
    ``closed`` is :func:`generalized_hommel`, which Theorem 5.1 makes equal.

    All 2**n - 1 intersection hypotheses are decided, C(n, m) at a time:
    the accepted size-m subsets are one AND of the rows of :func:`_tables`
    that pass each rank-k..m member's value, an int with one bit per
    subset, and a sorted position is blocked when that int meets the row
    of subsets holding it at rank k or beyond. n above
    ``EXHAUSTIVE_LIMIT`` raises :class:`TooLargeError`.
    """
    _require_same_n(p, f.n, "family")
    n, k = f.n, f.k
    if n > EXHAUSTIVE_LIMIT:
        raise TooLargeError(n, EXHAUSTIVE_LIMIT)
    # h yields, row after row of the family, how many sorted p-values lie at
    # or below the rank-r value of a size-m test, so the member at sorted
    # position x clears that value iff x < h.
    h = iter(np.searchsorted(p._sorted_array, f._array, side="right").tolist())
    rejected = [True] * n
    order = p._order_array.tolist()
    accepted_cardinalities = []
    for m in range(k, n + 1):
        passes, holders = _tables(n, m)
        # The accepted size-m subsets: those where none of the rank-k..m
        # members clears its value. Each of these members is blocked. map
        # stops at the last rank, so it takes size m's m - k + 1 from h.
        accepted = functools.reduce(operator.and_, map(tuple.__getitem__, passes[k - 1 :], h))
        if accepted:
            accepted_cardinalities.append(m)
            for x, held in enumerate(holders[k - 1]):
                if accepted & held:
                    rejected[order[x]] = False
    detail = {"accepted_cardinalities": tuple(accepted_cardinalities)}
    return ProcedureResult(tuple(rejected), detail, "closed_testing", family=f)


def generalized_hommel(p: PValueVector, f: LocalTestFamily) -> ProcedureResult:
    """Generalized Hommel shortcut for closed testing.

    First estimates the number of true nulls as the largest cardinality
    j whose top-j p-values all clear the size-j local test; then rejects
    every hypothesis with p-value at or below the rank-k critical value
    of the size-j test. When no cardinality survives, everything is
    rejected and the estimate is recorded as absent. A stepdown or stepup
    form runs its stepwise kernel, which rejects the same (:func:`_hommel`).
    """
    _require_same_n(p, f.n, "family")
    count, j_hat = (int(column[0]) for column in _hommel(p._sorted_array[None], f))
    return ProcedureResult(_prefix_flags(p, count), {"j_hat": j_hat or None}, "generalized_hommel", family=f)


def _check_level(k: int, n: int, alpha: float) -> tuple[int, int, float]:
    """k and n as ints and alpha as a float, once each is checked."""
    k, n, alpha = _integer("k", k), _integer("n", n), _real("alpha", alpha)
    if not 1 <= k <= n:
        raise KOutOfRangeError(k, n)
    if not 0.0 < alpha < 1.0:
        raise AlphaOutOfRangeError(alpha)
    return k, n, alpha


def lehmann_romano_schedule(k: int, n: int, alpha: float) -> CriticalSchedule:
    """Stepdown critical values k*alpha/(n - i + k) for i = k..n.

    At k = 1 this is Holm's schedule alpha/(n - i + 1). The values lie in
    (0, alpha] and rise with i, so the schedule skips CriticalSchedule's
    checks. One array division of k*alpha by the float denominators
    n, n-1, ..., k, each exact below 2**53, rounds as the scalar quotients
    do, float for float.
    """
    k, n, alpha = _check_level(k, n, alpha)
    alphas = k * alpha / np.arange(n, k - 1, -1, dtype=np.float64)
    return _unvalidated(CriticalSchedule, k=k, n=n, _array=alphas)


def romano_shaikh_schedule(base: CriticalSchedule, alpha: float) -> CriticalSchedule:
    """Stepup critical values alpha * alpha_i / D1 from any base schedule.

    The normalization makes the stepup procedure level-alpha under
    arbitrary p-value dependence, whatever the base. The values are one
    array expression, rounded as the scalar ``alpha * a / d`` is, entry
    for entry. Correctly rounded products and quotients are monotone, so
    the values stay nondecreasing and nonnegative; only the last needs a
    range check, because with alpha near 1 it can round above 1. Then the
    first value above 1 is refused.
    """
    alpha = _check_level(base.k, base.n, alpha)[2]
    # D1 is 0 exactly when every value is; the last is the largest. Checked
    # first, because every cardinality of a zero schedule ties for D1's
    # maximum and d1 would sum them all.
    if base._array[-1] == 0.0:
        raise DegenerateScheduleError("base schedule is identically zero")
    d = d1(base)
    array = alpha * base._array / d
    if array[-1] > 1.0:
        pos = int(np.argmax(array > 1.0))
        raise OutOfRangeError(pos + 1, float(array[pos]), "critical value")
    return _unvalidated(CriticalSchedule, k=base.k, n=base.n, _array=array)


def check_family_size(k: int, n: int) -> None:
    """Refuse a family table above ``MAX_FAMILY_ENTRIES`` before building
    or reading it."""
    width = n - k + 1
    entries = width * (width + 1) // 2
    if entries > MAX_FAMILY_ENTRIES:
        raise FamilyTooLargeError(n, entries, MAX_FAMILY_ENTRIES)


# The family constructors below skip LocalTestFamily's checks; their
# families are valid by construction. The stepdown and stepup forms read a
# validated schedule, which never decreases, at alpha_{n-m+k} or
# alpha_{n-m+i}: rising with i, falling with m. Simes' i*alpha/m divides
# nonnegative values checked by _check_level, and correctly rounded
# division is monotone in each operand.


def constant_family(k: int, n: int, alpha: float) -> LocalTestFamily:
    """Local tests with constant row values k*alpha/m for cardinality m:
    the stepdown form of the Lehmann-Romano schedule."""
    return stepdown_as_family(lehmann_romano_schedule(k, n, alpha))


def simes_family(k: int, n: int, alpha: float) -> LocalTestFamily:
    """Local tests with values i*alpha/m, each rounded as the scalar is; at
    k = 1 these are Simes' critical values, turning the Hommel shortcut
    into the classical Hommel procedure."""
    k, n, alpha = _check_level(k, n, alpha)
    check_family_size(k, n)
    m, i = np.tril_indices(n - k + 1)  # m - k and i - k, row after row
    return _unvalidated(LocalTestFamily, k=k, n=n, _array=(i + k) * alpha / (m + k))


def scaled_family(base: CriticalSchedule, alpha: float) -> LocalTestFamily:
    """Local tests alpha * alpha_{n-m+i} / D1 built from a base schedule.

    It is the stepup form of :func:`romano_shaikh_schedule`, so row m = n
    reproduces that schedule exactly; every row's Type-I bound is at most
    alpha by construction of D1.
    """
    return stepup_as_family(romano_shaikh_schedule(base, alpha))


def stepdown_as_family(s: CriticalSchedule) -> LocalTestFamily:
    """The family whose closed testing procedure equals stepdown with s.

    Row m is constant at alpha_{n-m+k}: a size-m subset is tested against
    the schedule value its rank-k member would face globally in the worst
    case. The family holds s only; ``rows`` is built on first read.
    """
    return _unvalidated(LocalTestFamily, k=s.k, n=s.n, _schedule=s, _form="stepdown")


def stepup_as_family(s: CriticalSchedule) -> LocalTestFamily:
    """The family whose closed testing procedure equals stepup with s.

    Row m holds alpha_{n-m+i} for i = k..m; diagonals i -> (i, (n-j)+i)
    are constant, which is exactly the condition under which closed
    testing collapses to a stepup scan. The family holds s only; ``rows``
    is built on first read.
    """
    return _unvalidated(LocalTestFamily, k=s.k, n=s.n, _schedule=s, _form="stepup")


# The resolver: the one place that maps the procedure and schedule names of
# `kfwer test` and `kfwer simulate` to critical values and a decision rule.
# Stepdown and stepup take a single-indexed schedule; Hommel and closed
# testing take a local-test family, which Lehmann-Romano does not have.
# Constructors and deciders are looked up by name at call time, never
# captured at import, so a rebound module name takes effect.
PROCEDURES = ("stepdown", "stepup", "hommel", "closed")
SCHEDULES = ("lehmann-romano", "romano-shaikh", "constant")
FAMILY_PROCEDURES = ("hommel", "closed")

CriticalValues = Union[CriticalSchedule, LocalTestFamily]


def check_procedure(procedure: str, schedule: Optional[str], k: int, n: int, alpha: float) -> None:
    """Refuse a request before anything is built or read: k and alpha out
    of range, an unknown name, or a schedule with no form for the
    procedure. No procedure has a size limit of its own here: a family
    table is capped where it is built (:func:`simes_family`) or written
    (``kfwer test``'s report). ``schedule`` is None when the caller
    supplies the critical values itself."""
    _check_level(k, n, alpha)
    if procedure not in PROCEDURES:
        raise ConfigError(f"unknown procedure {procedure!r}, expected one of {PROCEDURES}")
    if schedule is not None and schedule not in SCHEDULES:
        raise ConfigError(f"unknown schedule {schedule!r}, expected one of {SCHEDULES}")
    if schedule == "lehmann-romano" and procedure in FAMILY_PROCEDURES:
        raise ConfigError(
            f"schedule 'lehmann-romano' is single-indexed and has no local-test family form; "
            f"{procedure!r} needs 'constant' or 'romano-shaikh'"
        )


def rescales_base(schedule: str) -> bool:
    """Whether the named schedule is a rescaled base schedule (Romano-Shaikh)."""
    return schedule == "romano-shaikh"


def critical_values(
    procedure: str, schedule: str, k: int, n: int, alpha: float, base: Callable[[], CriticalSchedule]
) -> CriticalValues:
    """The schedule or family that ``schedule`` names for ``procedure``, for
    a request :func:`check_procedure` accepted.

    ``base`` supplies the schedule that Romano-Shaikh rescales by ``d1``
    and is called for that schedule only. ``constant`` is the single-step
    value k*alpha/n for stepdown and stepup, and rows k*alpha/m as a family.
    """
    k, n, alpha = _check_level(k, n, alpha)
    family = procedure in FAMILY_PROCEDURES
    if rescales_base(schedule):
        return scaled_family(base(), alpha) if family else romano_shaikh_schedule(base(), alpha)
    if schedule == "lehmann-romano" and not family:
        return lehmann_romano_schedule(k, n, alpha)
    if schedule == "constant":
        if family:
            return constant_family(k, n, alpha)
        # One value in (0, 1), repeated: valid by construction, so no re-check.
        return _unvalidated(CriticalSchedule, k=k, n=n, _array=np.full(n - k + 1, k * alpha / n))
    raise ConfigError(f"no {'family' if family else 'schedule'} named {schedule!r} for {procedure!r}")


# Batch kernels: each maps a matrix of sorted p-values, one replication per
# row, to each row's count of rejected most significant hypotheses. argmin
# and argmax along rows are much cheaper than a boolean accumulate, all()
# or any() over many short rows. Where a row has no miss (stepdown) or no
# hit (stepup) they return 0, which the row's first or last entry tells
# apart.


def _stepdown_counts(sorted_p: np.ndarray, k: int, values: np.ndarray) -> np.ndarray:
    """k - 1 plus each row's leading run of ranks k.. at or below their value."""
    hits = sorted_p[:, k - 1:] <= values
    first = hits.argmin(axis=1)  # the first miss
    return k - 1 + np.where(hits[:, 0] & (first == 0), hits.shape[1], first)


def _stepup_counts(sorted_p: np.ndarray, k: int, values: np.ndarray) -> np.ndarray:
    """Each row's last rank at or below its value, or k - 1 without one."""
    hits = sorted_p[:, k - 1:] <= values
    after = hits[:, ::-1].argmax(axis=1)  # ranks after the last hit
    return np.where(hits[:, -1] | (after > 0), sorted_p.shape[1] - after, k - 1)


def _hommel(sorted_p: np.ndarray, f: LocalTestFamily) -> tuple[np.ndarray, np.ndarray]:
    """Each row's Hommel count and ``j_hat`` (0 where no size survives).

    Size j survives when the top j p-values clear row j; ``j_hat`` is the
    largest survivor. The count is n if none survives, else at least k - 1
    and every p-value at or below the size-``j_hat`` row's rank-k value.

    A form runs its stepwise kernel: that rule is closed testing with the
    form (Theorems 4.2 and 4.4), which this shortcut equals (Theorem 5.1),
    so both count r. Row j starts at rank t = n - j + k and holds alpha_t
    (stepdown) or alpha_t..alpha_n (stepup), so size j survives iff p_(t) >
    alpha_t (stepdown) or every rank from t on exceeds its value (stepup).
    The least such t, r + 1 either way (the stepdown scan's first miss, the
    rank past the stepup scan's last hit), gives ``j_hat`` = n - r + k - 1
    for r < n; r = n leaves no survivor. A table runs :func:`_table_hommel`.
    """
    kernel = bind_batch("hommel", f)
    if kernel.func is _table_counts:
        return _table_hommel(sorted_p, **kernel.keywords)
    counts = kernel(sorted_p)
    return counts, np.where(counts < f.n, f.n - counts + f.k - 1, 0)


def _table_hommel(sorted_p: np.ndarray, k: int, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_hommel` on the table whose triangle, row after row, is ``values``.
    Sizes are scanned downward over the rows still open; sizes whose rank-k
    value no row clears are skipped without comparing a row."""
    n = sorted_p.shape[1]
    # thresholds[j]: size j's rank-k value, first in its row; inf at 0, where it admits every p-value.
    thresholds = np.full(n + 1, np.inf)
    thresholds[k:] = values[np.arange(n - k + 1).cumsum()]
    # Size j's rank-k member is column n - j + k - 1, so the reversed column
    # maxima line up with thresholds[k:]. ``initial`` admits a batch of no rows.
    reachable = sorted_p[:, k - 1:].max(axis=0, initial=-np.inf)[::-1] > thresholds[k:]
    j_hat = np.zeros(len(sorted_p), dtype=np.intp)
    open_rows = np.arange(len(sorted_p))
    for j in (np.flatnonzero(reachable)[::-1] + k).tolist():
        start = (j - k) * (j - k + 1) // 2  # row j's offset in the triangle
        survives = (sorted_p[open_rows, n - j + k - 1:] > values[start : start + j - k + 1]).all(axis=1)
        j_hat[open_rows[survives]] = j
        open_rows = open_rows[~survives]
        if open_rows.size == 0:
            break
    return np.maximum(k - 1, (sorted_p <= thresholds[j_hat, None]).sum(axis=1)), j_hat


def _table_counts(sorted_p: np.ndarray, k: int, values: np.ndarray) -> np.ndarray:
    """A table's batch kernel: :func:`_table_hommel`'s counts."""
    return _table_hommel(sorted_p, k, values)[0]


# Rule or form name -> stepwise kernel, read by bind_batch alone.
_STEPWISE = {"stepdown": _stepdown_counts, "stepup": _stepup_counts}


def bind_procedure(procedure: str, critical: CriticalValues) -> Callable[[PValueVector], ProcedureResult]:
    """The named decision rule with its critical values bound. ``hommel``
    and ``closed`` bind generalized Hommel, which Theorem 5.1 makes equal
    to closed testing for every family the package admits. The rule is
    looked up by name when bound, like the resolver's constructors, so a
    rebound module name takes effect."""
    rule = globals()["generalized_hommel" if procedure in FAMILY_PROCEDURES else procedure]
    return lambda p: rule(p, critical)


def bind_batch(procedure: str, critical: CriticalValues) -> functools.partial:
    """The named rule's batch kernel, a ``functools.partial`` with ``k`` and
    ``values`` bound: it maps a ``(rows, n)`` array of p-values, each row
    sorted ascending, to each row's number of rejected hypotheses, which
    are that row's most significant ones. Counts equal
    :func:`bind_procedure`'s ``num_rejected`` row by row.

    A count never rises when any entry of a sorted row rises: a stepwise
    hit sp_i <= alpha_i can only turn into a miss, and a family's local
    tests reject no more subsets, so closed testing, which the Hommel
    kernel equals (Theorem 5.1), rejects no more hypotheses. ``kfwer
    simulate`` brackets a row's exact count between the counts on a lower
    and an upper bound of the row.

    ``values`` is the schedule's array, a table's triangle row after row, or
    a stepdown or stepup form's schedule's array, bound with that form's
    stepwise kernel (see :func:`_hommel`). Rebound to another array ``a`` of
    the same length, ``functools.partial(kernel, values=a)`` decides against ``a``."""
    if procedure in FAMILY_PROCEDURES:
        if critical._form is None:
            return functools.partial(_table_counts, k=critical.k, values=critical._array)
        procedure, critical = critical._form, critical._schedule
    return functools.partial(_STEPWISE[procedure], k=critical.k, values=critical._array)

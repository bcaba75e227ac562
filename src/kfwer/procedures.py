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
that decides a matrix of sorted p-values, one row per replication.
``kfwer simulate`` runs it over chunks of replications; the public
functions :func:`stepdown`, :func:`stepup` and :func:`generalized_hommel`
run it over the one row of a single p-value vector.
"""

from __future__ import annotations

import functools
import itertools
import math
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
    _unvalidated,
)

# Exhaustive subset enumeration is exponential in n; closed_testing and the
# verify harness refuse beyond this.
EXHAUSTIVE_LIMIT = 18

# Entries of a materialized local-test family table, (n-k+1)(n-k+2)/2, which
# is n(n+1)/2 at k = 1. At up to about 32 bytes per entry (a float and its
# slot in a row tuple) the cap keeps a table under 1 GB; at k = 1 it admits
# n <= 7745. The family constructors refuse a larger table before building it.
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
    _require_same_n(p, s.n, "schedule")
    count = int(_stepdown_counts(_one_row(p), s)[0])
    return ProcedureResult(_prefix_flags(p, count), {"r": count if count >= s.k else None}, "stepdown", schedule=s)


def stepup(p: PValueVector, s: CriticalSchedule) -> ProcedureResult:
    """Stepup procedure: scan downward from the least significant p-value.

    Rejects the hypotheses of the r smallest p-values with
    r = max{i >= k : P_(i) <= alpha_i}; when every comparison fails only
    the automatic k-1 are rejected. Rejecting everything when the largest
    p-value clears its critical value is the r = n case.
    """
    _require_same_n(p, s.n, "schedule")
    count = int(_stepup_counts(_one_row(p), s)[0])
    return ProcedureResult(_prefix_flags(p, count), {"r": count if count >= s.k else None}, "stepup", schedule=s)


# Closure tables: ``_members(n, m)`` lists every size-m subset of the n
# sorted positions, one column per subset, row r - 1 holding its rank-r
# member. Each is built once per (n, m) and kept read-only; the set for one n
# takes n * 2**(n-1) bytes, about 2.4 MB at n = EXHAUSTIVE_LIMIT.
@functools.cache
def _members(n: int, m: int) -> np.ndarray:
    count = math.comb(n, m)
    flat = np.fromiter(itertools.chain.from_iterable(itertools.combinations(range(n), m)), np.uint8, m * count)
    table = flat.reshape(count, m).T.copy()
    table.setflags(write=False)
    return table


def closed_testing(p: PValueVector, f: LocalTestFamily) -> ProcedureResult:
    """Generalized closed testing by exhaustive subset enumeration.

    A hypothesis is rejected iff every subset that contains it at rank k
    or beyond (in the tie-broken order) has its intersection hypothesis
    rejected by the local test; subsets where it sits among the first
    k-1 members impose no constraint, which also makes the k-1 globally
    most significant hypotheses automatic rejections. Enumeration is
    deliberately unpruned: this function is the reference the shortcut
    procedures are validated against. ``kfwer test`` and ``kfwer
    simulate`` never call it; their ``closed`` procedure is
    :func:`generalized_hommel`, which Theorem 5.1 makes equal to it.

    Every one of the 2**n - 1 intersection hypotheses is decided by array
    operations, one comparison per subset size, on cached read-only tables
    of the member positions of every size-m subset of the n sorted
    positions, built once per (n, m) from :func:`itertools.combinations`.
    The tables for one n take about 2.4 MB at n = ``EXHAUSTIVE_LIMIT`` = 18;
    a larger n raises :class:`TooLargeError`.
    """
    _require_same_n(p, f.n, "family")
    n, k = f.n, f.k
    if n > EXHAUSTIVE_LIMIT:
        raise TooLargeError(n, EXHAUSTIVE_LIMIT)
    # h[offset of (m, r)]: how many sorted p-values lie at or below the
    # rank-r value of a size-m test. The sorted values never decrease, so
    # the member at sorted position pos clears that value iff pos < h.
    values = np.fromiter(itertools.chain.from_iterable(f.rows), dtype=np.float64)
    h = np.searchsorted(p._sorted_array, values, side="right").astype(np.uint8)[:, None]
    blocked = np.zeros(n, dtype=bool)
    accepted_cardinalities = []
    start = 0
    for m in range(k, n + 1):
        h_m = h[start : start + m - k + 1]
        start += h_m.size
        ranked = _members(n, m)[k - 1 :]
        # The rank-k..m members of the accepted size-m subsets: those where
        # none of these members clears its value. Each one is blocked.
        accepted = ranked.compress((ranked >= h_m).all(axis=0), axis=1)
        if accepted.size:
            accepted_cardinalities.append(m)
            blocked[accepted] = True
    rejected = np.ones(n, dtype=bool)
    rejected[p._order_array[blocked]] = False
    detail = {"accepted_cardinalities": tuple(accepted_cardinalities)}
    return ProcedureResult(tuple(rejected.tolist()), detail, "closed_testing", family=f)


def generalized_hommel(p: PValueVector, f: LocalTestFamily) -> ProcedureResult:
    """Generalized Hommel shortcut for closed testing.

    First estimates the number of true nulls as the largest cardinality
    j whose top-j p-values all clear the size-j local test; then rejects
    every hypothesis with p-value at or below the rank-k critical value
    of the size-j test. When no cardinality survives, everything is
    rejected and the estimate is recorded as absent.
    """
    _require_same_n(p, f.n, "family")
    sorted_p = _one_row(p)
    j_hat = _hommel_j_hats(sorted_p, f)
    count = int(_hommel_counts(sorted_p, f, j_hat)[0])
    return ProcedureResult(_prefix_flags(p, count), {"j_hat": int(j_hat[0]) or None}, "generalized_hommel", family=f)


def _check_level(k: int, n: int, alpha: float) -> None:
    if not 1 <= k <= n:
        raise KOutOfRangeError(k, n)
    if not 0.0 < alpha < 1.0:
        raise AlphaOutOfRangeError(alpha)


def lehmann_romano_schedule(k: int, n: int, alpha: float) -> CriticalSchedule:
    """Stepdown critical values k*alpha/(n - i + k) for i = k..n.

    At k = 1 this is Holm's schedule alpha/(n - i + 1). The values lie in
    (0, alpha] and rise with i, so the schedule skips CriticalSchedule's
    checks. One array division of k*alpha by the float denominators
    n, n-1, ..., k, each exact below 2**53, rounds as the scalar quotients
    do, float for float.
    """
    _check_level(k, n, alpha)
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
    if not 0.0 < alpha < 1.0:
        raise AlphaOutOfRangeError(alpha)
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


# The family constructors below skip LocalTestFamily's O(n^2) checks. Their
# tables are valid by construction: each starts from a validated schedule or
# from (k, n, alpha) checked by _check_level, and every entry is a product or
# quotient of nonnegative values whose operands move monotonically with i and
# m. Correctly rounded arithmetic is monotone in each operand, so rows stay
# nondecreasing in i and columns nonincreasing in m.


def constant_family(k: int, n: int, alpha: float) -> LocalTestFamily:
    """Local tests with constant row values k*alpha/m for cardinality m:
    the stepdown form of the Lehmann-Romano schedule."""
    _check_level(k, n, alpha)
    check_family_size(k, n)
    return stepdown_as_family(lehmann_romano_schedule(k, n, alpha))


def simes_family(k: int, n: int, alpha: float) -> LocalTestFamily:
    """Local tests with values i*alpha/m; at k = 1 these are Simes'
    critical values, turning the Hommel shortcut into the classical
    Hommel procedure."""
    _check_level(k, n, alpha)
    check_family_size(k, n)
    rows = tuple(tuple(i * alpha / m for i in range(k, m + 1)) for m in range(k, n + 1))
    return _unvalidated(LocalTestFamily, k=k, n=n, rows=rows)


def scaled_family(base: CriticalSchedule, alpha: float) -> LocalTestFamily:
    """Local tests alpha * alpha_{n-m+i} / D1 built from a base schedule.

    It is the stepup form of :func:`romano_shaikh_schedule`, so row m = n
    reproduces that schedule exactly; every row's Type-I bound is at most
    alpha by construction of D1.
    """
    check_family_size(base.k, base.n)
    return stepup_as_family(romano_shaikh_schedule(base, alpha))


def stepdown_as_family(s: CriticalSchedule) -> LocalTestFamily:
    """The family whose closed testing procedure equals stepdown with s.

    Row m is constant at alpha_{n-m+k}: a size-m subset is tested against
    the schedule value its rank-k member would face globally in the worst
    case. Materialized as a full table so it exercises the same
    closed-testing path as user-supplied families.
    """
    k, n = s.k, s.n
    check_family_size(k, n)
    rows = tuple((s.alphas[n - m],) * (m - k + 1) for m in range(k, n + 1))
    return _unvalidated(LocalTestFamily, k=k, n=n, rows=rows)


def stepup_as_family(s: CriticalSchedule) -> LocalTestFamily:
    """The family whose closed testing procedure equals stepup with s.

    Row m holds alpha_{n-m+i} for i = k..m; diagonals i -> (i, (n-j)+i)
    are constant, which is exactly the condition under which closed
    testing collapses to a stepup scan.
    """
    k, n = s.k, s.n
    check_family_size(k, n)
    rows = tuple(s.alphas[n - m :] for m in range(k, n + 1))
    return _unvalidated(LocalTestFamily, k=k, n=n, rows=rows)


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
    procedure. No procedure has a size limit of its own here; a family's
    table size is checked by its constructor, or by :func:`check_family_size`
    before a family file is read. ``schedule`` is None when the caller
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


# Batch kernels: the one implementation of the stepwise and Hommel rules.
# Each takes a matrix of sorted p-values, one replication per row, and
# returns each row's count of rejected most significant hypotheses.
# `kfwer simulate` runs them over chunks of replications; the public rules
# above run them over the one row of a single p-value vector.


def _one_row(p: PValueVector) -> np.ndarray:
    """The sorted p-values as a one-row matrix for the batch kernels."""
    return p._sorted_array[None]


def _stepdown_counts(sorted_p: np.ndarray, s: CriticalSchedule) -> np.ndarray:
    """k - 1 plus each row's leading run of ranks k.. at or below their value."""
    hits = sorted_p[:, s.k - 1:] <= s._array
    return s.k - 1 + np.logical_and.accumulate(hits, axis=1).sum(axis=1)


def _stepup_counts(sorted_p: np.ndarray, s: CriticalSchedule) -> np.ndarray:
    """Each row's last rank at or below its value, or k - 1 without one."""
    hits = sorted_p[:, s.k - 1:] <= s._array
    return np.where(hits.any(axis=1), s.n - hits[:, ::-1].argmax(axis=1), s.k - 1)


def _hommel_j_hats(sorted_p: np.ndarray, f: LocalTestFamily) -> np.ndarray:
    """Each row's Hommel ``j_hat``, 0 where no cardinality survives.

    Size i survives when the top i p-values clear row i of the family.
    Sizes are scanned downward over the rows still open, and the scan
    stops once every row has its survivor. Sizes whose rank-k value (the
    first of the size's row) no row clears are skipped without comparing
    the row; one comparison finds them for all sizes.
    """
    n, k = f.n, f.k
    # The rank-k member of the top i is column n - i + k - 1; reversed,
    # entry i - k belongs to size i. ``initial`` admits a batch of no rows.
    reachable = sorted_p[:, k - 1:].max(axis=0, initial=-np.inf)[::-1] > _rank_k_values(f)
    j_hat = np.zeros(len(sorted_p), dtype=np.intp)
    open_rows = np.arange(len(sorted_p))
    for i in (np.flatnonzero(reachable)[::-1] + k).tolist():
        survives = (sorted_p[open_rows, n - i + k - 1:] > np.asarray(f.row(i))).all(axis=1)
        j_hat[open_rows[survives]] = i
        open_rows = open_rows[~survives]
        if open_rows.size == 0:
            break
    return j_hat


def _rank_k_values(f: LocalTestFamily) -> np.ndarray:
    """Index i - k holds the rank-k value of the size-i test."""
    return np.array([row[0] for row in f.rows])


def _hommel_counts(sorted_p: np.ndarray, f: LocalTestFamily, j_hat: np.ndarray) -> np.ndarray:
    """At least k - 1, and every p-value at or below the rank-k value of
    the size-``j_hat`` test; n where no cardinality survives (``j_hat`` 0)."""
    # Index j holds the rank-k value of the size-j test; inf at 0 admits every p-value.
    thresholds = np.full(f.n + 1, np.inf)
    thresholds[f.k:] = _rank_k_values(f)
    below = (sorted_p <= thresholds[j_hat, None]).sum(axis=1)
    return np.maximum(f.k - 1, below)


def _hommel_kernel(sorted_p: np.ndarray, f: LocalTestFamily) -> np.ndarray:
    return _hommel_counts(sorted_p, f, _hommel_j_hats(sorted_p, f))


# Procedure name -> (name of its public rule, batch kernel). ``closed`` maps
# to generalized Hommel: every family the package admits is nondecreasing
# in i and nonincreasing in m, and for such a family Theorem 5.1 makes the
# shortcut reject exactly what closed testing rejects, at any n and without
# enumerating subsets. :func:`closed_testing` stays the exhaustive
# reference. The public rule is looked up by name when bound, like the
# resolver's constructors, so a rebound module name takes effect.
_RULES = {
    "stepdown": ("stepdown", _stepdown_counts),
    "stepup": ("stepup", _stepup_counts),
    "hommel": ("generalized_hommel", _hommel_kernel),
    "closed": ("generalized_hommel", _hommel_kernel),
}


def bind_procedure(procedure: str, critical: CriticalValues) -> Callable[[PValueVector], ProcedureResult]:
    """The named decision rule with its critical values bound."""
    rule = globals()[_RULES[procedure][0]]
    return lambda p: rule(p, critical)


def bind_batch(procedure: str, critical: CriticalValues) -> Callable[[np.ndarray], np.ndarray]:
    """The named rule's batch kernel with its critical values bound: it
    maps a ``(rows, n)`` array of p-values, each row sorted ascending, to
    each row's number of rejected hypotheses, which are that row's most
    significant ones. Counts equal :func:`bind_procedure`'s
    ``num_rejected`` row by row."""
    kernel = _RULES[procedure][1]
    return lambda sorted_p: kernel(sorted_p, critical)

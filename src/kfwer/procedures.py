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
        return tuple(j for j, flag in enumerate(self.rejected) if flag)


def _prefix_flags(p: PValueVector, count: int) -> tuple[bool, ...]:
    """Flags rejecting the ``count`` most significant hypotheses (tie-broken order)."""
    flags = [False] * p.n
    for j in p.order[:count]:
        flags[j] = True
    return tuple(flags)


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


# Closure tables over every nonempty subset (bitmask) of the sorted
# positions, one row per mask. The tables for a smaller n are the leading
# rows and columns, because a member's rank never depends on the positions
# above it; so one read-only set, rebuilt only when a larger n arrives,
# serves every call. At n = EXHAUSTIVE_LIMIT the three take about 24 MB.
_closure_tables: Optional[tuple[np.ndarray, np.ndarray, np.ndarray]] = None


def _build_closure_tables(width: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(card, rank, idx)`` for masks 1..2**width - 1.

    ``card[mask - 1]`` is the popcount; ``rank[mask - 1, pos]`` the 1-based
    rank of member ``pos`` (0 for a non-member); ``idx[mask - 1, pos]`` the
    flat index ``(card * (width + 1) + rank) * width + pos`` into a
    ``(width + 1, width + 1, width)`` table of per-call comparisons.
    """
    masks = np.arange(1, 1 << width, dtype=np.uint32)
    rank = np.empty((masks.size, width), dtype=np.uint8)
    running = np.zeros(masks.size, dtype=np.uint8)
    for pos in range(width):
        bit = ((masks >> np.uint32(pos)) & np.uint32(1)).astype(np.uint8)
        running += bit
        np.multiply(running, bit, out=rank[:, pos])
    card = running.astype(np.int32)
    idx = rank.astype(np.int32)
    idx += (card * np.int32(width + 1))[:, None]
    idx *= np.int32(width)
    idx += np.arange(width, dtype=np.int32)
    for table in (card, rank, idx):
        table.setflags(write=False)
    return card, rank, idx


def _tables_for(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Views of the cached tables for n positions, plus the cached width."""
    global _closure_tables
    if _closure_tables is None or _closure_tables[1].shape[1] < n:
        _closure_tables = _build_closure_tables(n)
    card, rank, idx = _closure_tables
    rows = (1 << n) - 1
    return card[:rows], rank[:rows, :n], idx[:rows, :n], rank.shape[1]


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

    Every one of the 2**n - 1 intersection hypotheses is decided at once
    by array operations on precomputed tables of subset cardinalities and
    member ranks over the sorted positions. One read-only table set, sized
    for the largest n seen so far in the process, is kept and sliced for
    smaller n. It takes about 24 MB at n = ``EXHAUSTIVE_LIMIT`` = 18; a
    larger n raises :class:`TooLargeError`.
    """
    _require_same_n(p, f.n, "family")
    n, k = f.n, f.k
    if n > EXHAUSTIVE_LIMIT:
        raise TooLargeError(n, EXHAUSTIVE_LIMIT)
    card, rank, idx, width = _tables_for(n)
    # hit[m, r, pos]: the sorted p-value at pos clears the rank-r value of
    # a size-m local test. Ranks below k compare against -inf, so they
    # never fire, and non-members (rank 0) never do either.
    thresholds = np.full((width + 1, width + 1), -np.inf)
    for m in range(k, n + 1):
        thresholds[m, k : m + 1] = f.row(m)
    sorted_vals = np.full(width, np.inf)
    sorted_vals[:n] = p.sorted_values()
    hit = sorted_vals <= thresholds[:, :, None]
    accepted = ~hit.ravel()[idx].any(axis=1)
    accepted &= card >= k
    blocked = (rank[accepted] >= k).any(axis=0)
    rejected = [True] * n
    for pos in np.flatnonzero(blocked).tolist():
        rejected[p.order[pos]] = False
    detail = {"accepted_cardinalities": tuple(np.unique(card[accepted]).tolist())}
    return ProcedureResult(tuple(rejected), detail, "closed_testing", family=f)


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
    checks.
    """
    _check_level(k, n, alpha)
    alphas = tuple(k * alpha / (n - i + k) for i in range(k, n + 1))
    return _unvalidated(CriticalSchedule, k=k, n=n, alphas=alphas)


def romano_shaikh_schedule(base: CriticalSchedule, alpha: float) -> CriticalSchedule:
    """Stepup critical values alpha * alpha_i / D1 from any base schedule.

    The normalization makes the stepup procedure level-alpha under
    arbitrary p-value dependence, whatever the base.
    """
    if not 0.0 < alpha < 1.0:
        raise AlphaOutOfRangeError(alpha)
    d = d1(base)
    if d == 0.0:
        raise DegenerateScheduleError("base schedule is identically zero")
    return CriticalSchedule(
        k=base.k,
        n=base.n,
        alphas=tuple(alpha * a / d for a in base.alphas),
    )


def _check_family_size(k: int, n: int) -> None:
    """Refuse a family table above ``MAX_FAMILY_ENTRIES`` before building it."""
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
    _check_family_size(k, n)
    return stepdown_as_family(lehmann_romano_schedule(k, n, alpha))


def simes_family(k: int, n: int, alpha: float) -> LocalTestFamily:
    """Local tests with values i*alpha/m; at k = 1 these are Simes'
    critical values, turning the Hommel shortcut into the classical
    Hommel procedure."""
    _check_level(k, n, alpha)
    _check_family_size(k, n)
    rows = tuple(tuple(i * alpha / m for i in range(k, m + 1)) for m in range(k, n + 1))
    return _unvalidated(LocalTestFamily, k=k, n=n, rows=rows)


def scaled_family(base: CriticalSchedule, alpha: float) -> LocalTestFamily:
    """Local tests alpha * alpha_{n-m+i} / D1 built from a base schedule.

    It is the stepup form of :func:`romano_shaikh_schedule`, so row m = n
    reproduces that schedule exactly; every row's Type-I bound is at most
    alpha by construction of D1.
    """
    _check_family_size(base.k, base.n)
    return stepup_as_family(romano_shaikh_schedule(base, alpha))


def stepdown_as_family(s: CriticalSchedule) -> LocalTestFamily:
    """The family whose closed testing procedure equals stepdown with s.

    Row m is constant at alpha_{n-m+k}: a size-m subset is tested against
    the schedule value its rank-k member would face globally in the worst
    case. Materialized as a full table so it exercises the same
    closed-testing path as user-supplied families.
    """
    k, n = s.k, s.n
    _check_family_size(k, n)
    rows = tuple((s.alpha(n - m + k),) * (m - k + 1) for m in range(k, n + 1))
    return _unvalidated(LocalTestFamily, k=k, n=n, rows=rows)


def stepup_as_family(s: CriticalSchedule) -> LocalTestFamily:
    """The family whose closed testing procedure equals stepup with s.

    Row m holds alpha_{n-m+i} for i = k..m; diagonals i -> (i, (n-j)+i)
    are constant, which is exactly the condition under which closed
    testing collapses to a stepup scan.
    """
    k, n = s.k, s.n
    _check_family_size(k, n)
    rows = tuple(tuple(s.alpha(n - m + i) for i in range(k, m + 1)) for m in range(k, n + 1))
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
    table size is checked by its constructor. ``schedule`` is None when
    the caller supplies the critical values itself."""
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
        return _unvalidated(CriticalSchedule, k=k, n=n, alphas=(k * alpha / n,) * (n - k + 1))
    raise ConfigError(f"no {'family' if family else 'schedule'} named {schedule!r} for {procedure!r}")


# Batch kernels: the one implementation of the stepwise and Hommel rules.
# Each takes a matrix of sorted p-values, one replication per row, and
# returns each row's count of rejected most significant hypotheses.
# `kfwer simulate` runs them over chunks of replications; the public rules
# above run them over the one row of a single p-value vector.


def _one_row(p: PValueVector) -> np.ndarray:
    """The sorted p-values as a one-row matrix for the batch kernels."""
    return np.take(p.values, p.order)[None]


def _stepdown_counts(sorted_p: np.ndarray, s: CriticalSchedule) -> np.ndarray:
    """k - 1 plus each row's leading run of ranks k.. at or below their value."""
    hits = sorted_p[:, s.k - 1:] <= np.asarray(s.alphas)
    return s.k - 1 + np.logical_and.accumulate(hits, axis=1).sum(axis=1)


def _stepup_counts(sorted_p: np.ndarray, s: CriticalSchedule) -> np.ndarray:
    """Each row's last rank at or below its value, or k - 1 without one."""
    hits = sorted_p[:, s.k - 1:] <= np.asarray(s.alphas)
    return np.where(hits.any(axis=1), s.n - hits[:, ::-1].argmax(axis=1), s.k - 1)


def _hommel_j_hats(sorted_p: np.ndarray, f: LocalTestFamily) -> np.ndarray:
    """Each row's Hommel ``j_hat``, 0 where no cardinality survives.

    Cardinalities are scanned downward over the rows still open only,
    and the scan stops once every row has its survivor.
    """
    n, k = f.n, f.k
    j_hat = np.zeros(len(sorted_p), dtype=np.intp)
    open_rows = np.arange(len(sorted_p))
    for i in range(n, k - 1, -1):
        survives = (sorted_p[open_rows, n - i + k - 1:] > np.asarray(f.row(i))).all(axis=1)
        j_hat[open_rows[survives]] = i
        open_rows = open_rows[~survives]
        if open_rows.size == 0:
            break
    return j_hat


def _hommel_counts(sorted_p: np.ndarray, f: LocalTestFamily, j_hat: np.ndarray) -> np.ndarray:
    """At least k - 1, and every p-value at or below the rank-k value of
    the size-``j_hat`` test; n where no cardinality survives (``j_hat`` 0)."""
    # Index j holds the rank-k value of the size-j test; inf at 0 admits every p-value.
    thresholds = np.full(f.n + 1, np.inf)
    thresholds[f.k:] = [row[0] for row in f.rows]
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

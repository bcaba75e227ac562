"""Domain types for k-FWER multiple testing: p-value vectors, critical
value schedules and local test families.

All types are immutable and validated at construction. A caller's
numbers are converted and range-checked in one place,
:func:`_check_unit_interval`, which takes a float64 array whole, without
a type scan; only ``order_pvalues``, the Lehmann-Romano,
Romano-Shaikh and single-step constant schedules and the package's
family constructors, whose output is otherwise valid by construction,
skip the repeat checks.

Arrays inside, tuples at the edge: a :class:`PValueVector` and a
:class:`CriticalSchedule` hold each value once, in the arrays the
decision rules and ``d1`` read: private arrays that no caller's later
writes can reach. Their tuple fields, ``values``,
``order`` and ``alphas``, are built from those arrays on first read and
then kept, and ``==``, ``hash`` and ``repr`` are those of a frozen
dataclass with these tuple fields. ``n`` and ``alpha(i)`` read the
arrays. :class:`LocalTestFamily` stores its triangle as tuples.

Indices follow the statistical convention: hypotheses are 1-based in
user-facing messages and in the CLI, while ``PValueVector.order`` stores
0-based positions for direct indexing.
"""

from __future__ import annotations

import functools
from dataclasses import FrozenInstanceError, dataclass
from typing import Any, Iterable

import numpy as np


class KfwerError(ValueError):
    """Base class for all validation and usage errors in this package."""


class EmptyInputError(KfwerError):
    """Raised when a p-value collection is empty."""


class OutOfRangeError(KfwerError):
    """A value lies outside [0, 1] or is not finite.

    ``position`` is the 1-based position of the offending entry.
    """

    def __init__(self, position: int, value: float, what: str = "value"):
        self.position = position
        self.value = value
        super().__init__(f"{what} at position {position} is {value!r}, expected a finite number in [0, 1]")


class BadShapeError(KfwerError):
    """A schedule or family table has the wrong length or row structure."""


class NotMonotoneError(KfwerError):
    """A critical schedule decreases. ``position`` is the 1-based entry where it drops."""

    def __init__(self, position: int):
        self.position = position
        super().__init__(f"critical values must be nondecreasing; entry {position} is smaller than its predecessor")


class NotMonotoneInIError(KfwerError):
    """A family row decreases in i. Carries the offending (i, m)."""

    def __init__(self, i: int, m: int):
        self.i, self.m = i, m
        super().__init__(f"family values must be nondecreasing in i: entry (i={i}, m={m}) is smaller than (i={i - 1}, m={m})")


class NotMonotoneInMError(KfwerError):
    """A family column increases in m. Carries the offending (i, m)."""

    def __init__(self, i: int, m: int):
        self.i, self.m = i, m
        super().__init__(f"family values must be nonincreasing in m: entry (i={i}, m={m}) is larger than (i={i}, m={m - 1})")


class KOutOfRangeError(KfwerError):
    """k is not in {1, ..., n}."""

    def __init__(self, k: int, n: int):
        self.k, self.n = k, n
        super().__init__(f"k must satisfy 1 <= k <= n, got k={k} with n={n}")


class AlphaOutOfRangeError(KfwerError):
    """A target level alpha is outside (0, 1)."""

    def __init__(self, alpha: float):
        self.alpha = alpha
        super().__init__(f"alpha must lie strictly between 0 and 1, got {alpha!r}")


class CardinalityOutOfRangeError(KfwerError):
    """A subset cardinality m is outside {k, ..., n}."""

    def __init__(self, m: int, k: int, n: int):
        self.m, self.k, self.n = m, k, n
        super().__init__(f"cardinality m={m} must satisfy k={k} <= m <= n={n}")


class LengthMismatchError(KfwerError):
    """Two inputs that must agree in length do not."""


class TooLargeError(KfwerError):
    """The problem size exceeds the exhaustive-enumeration limit."""

    def __init__(self, n: int, limit: int):
        self.n, self.limit = n, limit
        super().__init__(f"exhaustive closed testing supports at most n={limit} hypotheses, got n={n}")


class FamilyTooLargeError(KfwerError):
    """A materialized local-test family would exceed the entry cap."""

    def __init__(self, n: int, entries: int, cap: int):
        self.n, self.entries, self.cap = n, entries, cap
        super().__init__(
            f"a local-test family for n={n} hypotheses needs {entries} table entries, "
            f"above the cap of {cap}; use stepdown or stepup at this size"
        )


class DegenerateScheduleError(KfwerError):
    """A schedule normalization constant is zero (all-zero critical values)."""


class ConfigError(KfwerError):
    """An invalid request: an unknown procedure or schedule name, a pairing
    of the two that has no meaning, a simulation setting out of range, or a
    command-line flag the CLI refuses (exit code 3)."""


def _unvalidated(cls, **fields):
    """An instance of ``cls`` with ``fields`` set and its checks not run.
    Only for values that are valid by construction: :func:`order_pvalues`
    and the package's own schedule and family constructors. Callers pass
    every field the class's own constructor would set, as the arrays it
    stores, which no one else holds. Everything built from a caller's data
    goes through the class itself."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)  # frozen: fill the instance dict directly
    return obj


def _check_unit_interval(values: Iterable[Any], what: str) -> np.ndarray:
    """``values`` as a float64 array, each a finite number in [0, 1].

    The one acceptance rule for a caller's numbers: Python ints and floats
    and numpy real scalars (a float32 array's elements, say) are taken and
    converted to float. Anything else is refused with
    :class:`OutOfRangeError` naming the first bad entry: strings, and
    ``bool`` and ``np.bool_``, which the range check alone would take as
    0 or 1. A one-dimensional float64 array holds exact floats already: it
    is copied without a type scan, so a caller's later writes to it reach
    nothing built from it. Python floats are checked as one array, by its
    minimum and maximum (a NaN makes both NaN, which fails the
    comparison); any other input, and any that fails, is checked entry by
    entry.
    """
    if type(values) is np.ndarray and values.dtype == np.float64 and values.ndim == 1:
        array = values.copy()
    else:
        values = tuple(values)
        array = np.array(values) if set(map(type, values)) == {float} else None
    if array is not None and array.size:
        if 0.0 <= np.minimum.reduce(array) and np.maximum.reduce(array) <= 1.0:
            return array
    out = []
    for pos, v in enumerate(values, start=1):
        if isinstance(v, (np.floating, np.integer)):
            v = float(v)
        if isinstance(v, bool) or not isinstance(v, (int, float)) or not 0 <= v <= 1:
            raise OutOfRangeError(pos, v, what)
        out.append(float(v))
    return np.array(out, dtype=np.float64)


def _first_drop(array: np.ndarray) -> int:
    """The 1-based position of the first entry smaller than its
    predecessor, or 0 when ``array`` never decreases."""
    drops = array[1:] < array[:-1]
    return int(drops.argmax()) + 2 if drops.any() else 0


class _Frozen:
    """Immutable instances with the ``==``, ``hash`` and ``repr`` of a
    frozen dataclass whose fields are ``_fields``, in that order."""

    _fields: tuple[str, ...] = ()

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")


class PValueVector(_Frozen):
    """Raw p-values with their deterministic ordering permutation.

    ``order`` holds 0-based original positions such that
    ``values[order[0]] <= values[order[1]] <= ...``; ties are broken by
    ascending original position, so the permutation is unique. Use
    :func:`order_pvalues` to construct one. Each is stored once, as an
    array: ``_values``, ``_order_array`` and ``_sorted_array`` (the order
    statistics) serve the decision rules, and no code writes to them.
    ``values`` and ``order`` are tuples built from them on first read.
    """

    _fields = ("values", "order")

    def __init__(self, values: Iterable[float], order: Iterable[int]):
        # The one valid order is the stable sort order_pvalues computes.
        array, stable = _ordered(values)
        order = tuple(order)
        if sorted(order) != list(range(array.size)):
            raise BadShapeError(f"order must be a permutation of 0..{array.size - 1}")
        if order != tuple(stable.tolist()):
            raise BadShapeError("order must sort values nondecreasingly with ties by ascending index")
        self.__dict__.update(_values=array, _order_array=stable, _sorted_array=array[stable])

    # Built on first read and kept in the instance dict, where every later
    # read finds them.
    @functools.cached_property
    def values(self) -> tuple[float, ...]:
        return tuple(self._values.tolist())

    @functools.cached_property
    def order(self) -> tuple[int, ...]:
        return tuple(self._order_array.tolist())

    @property
    def n(self) -> int:
        return len(self._values)

    def sorted_values(self) -> tuple[float, ...]:
        """P-values in nondecreasing order (the order statistics)."""
        return tuple(self._sorted_array.tolist())


class CriticalSchedule(_Frozen):
    """Nondecreasing critical values for a stepwise procedure.

    ``alphas[i - k]`` is the critical value compared against the i-th
    smallest p-value, for i = k..n. Values for i < k are never stored:
    the k-1 most significant hypotheses are rejected unconditionally.
    The values are stored once, as the array ``_array`` that ``d1`` and
    the decision rules read and no code writes to; ``alphas`` is their
    tuple, built on first read.
    """

    _fields = ("k", "n", "alphas")

    def __init__(self, k: int, n: int, alphas: Iterable[float]):
        if not 1 <= k <= n:
            raise KOutOfRangeError(k, n)
        if len(alphas) != n - k + 1:
            raise BadShapeError(f"schedule for k={k}, n={n} needs {n - k + 1} values, got {len(alphas)}")
        array = _check_unit_interval(alphas, "critical value")
        drop = _first_drop(array)
        if drop:
            raise NotMonotoneError(drop)
        self.__dict__.update(k=k, n=n, _array=array)

    @functools.cached_property
    def alphas(self) -> tuple[float, ...]:
        return tuple(self._array.tolist())

    def alpha(self, i: int) -> float:
        """Critical value for ordered index i (k <= i <= n)."""
        return self._array.item(i - self.k)


@dataclass(frozen=True)
class LocalTestFamily:
    """Symmetric family of local tests as a triangular critical-value table.

    ``rows[m - k]`` holds the values compared against the k-th through m-th
    smallest p-values of a size-m subset. Validity requires each row to be
    nondecreasing left to right and each column nonincreasing as the
    subset grows; both are enforced here, and a violating table is
    rejected at construction.
    """

    k: int
    n: int
    rows: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        k, n = self.k, self.n
        if not 1 <= k <= n:
            raise KOutOfRangeError(k, n)
        if len(self.rows) != n - k + 1:
            raise BadShapeError(f"family for k={k}, n={n} needs {n - k + 1} rows, got {len(self.rows)}")
        # One range check over the whole table. Only when it fails does each
        # row get its own, so the first fault is named where the row-by-row
        # walk meets it: shape, range and order in i for each row in turn.
        rows = tuple(map(tuple, self.rows))
        try:
            flat = tuple(_check_unit_interval([v for row in rows for v in row], "family value").tolist())
        except OutOfRangeError:
            flat = None
        checked, start = [], 0
        for m, row in enumerate(rows, start=k):
            if len(row) != m - k + 1:
                raise BadShapeError(f"row for cardinality m={m} needs {m - k + 1} values, got {len(row)}")
            if flat is None:
                row = tuple(_check_unit_interval(row, f"family value in row m={m}").tolist())
            else:
                row, start = flat[start : start + len(row)], start + len(row)
            for i in range(k + 1, m + 1):
                if row[i - k] < row[i - k - 1]:
                    raise NotMonotoneInIError(i, m)
            checked.append(row)
        object.__setattr__(self, "rows", tuple(checked))
        for i in range(k, n + 1):
            for m in range(max(i, k) + 1, n + 1):
                if self.value(i, m) > self.value(i, m - 1):
                    raise NotMonotoneInMError(i, m)

    def value(self, i: int, m: int) -> float:
        """Critical value for the i-th smallest p-value of a size-m subset."""
        return self.rows[m - self.k][i - self.k]

    def row(self, m: int) -> tuple[float, ...]:
        """Critical values for subsets of cardinality m."""
        return self.rows[m - self.k]


def _ordered(values: Iterable[float]) -> tuple[np.ndarray, np.ndarray]:
    """The checked p-values as an array and their stable ordering
    permutation."""
    array = _check_unit_interval(values, "p-value")
    if not array.size:
        raise EmptyInputError("need at least one p-value")
    return array, array.argsort(kind="stable")  # stable: ties keep index order


def order_pvalues(values: Iterable[float]) -> PValueVector:
    """Attach the stable ordering permutation to raw p-values.

    Ties are broken by ascending original position, which makes every
    downstream procedure deterministic. Input values are not modified.
    The range check here,
    :func:`_check_unit_interval`'s, is the only one: the order is a stable
    sort, so the result does not go through :class:`PValueVector`'s checks
    again.
    """
    array, order = _ordered(values)
    return _unvalidated(PValueVector, _values=array, _order_array=order, _sorted_array=array[order])


def validate_schedule(k: int, n: int, alphas: Iterable[float]) -> CriticalSchedule:
    """Build a :class:`CriticalSchedule`, rejecting ill-shaped or decreasing
    input. An array is passed on as it is, so that a float64 one is
    range-checked whole."""
    return CriticalSchedule(k=k, n=n, alphas=alphas if isinstance(alphas, np.ndarray) else tuple(alphas))


def validate_family(k: int, n: int, table: Iterable[Iterable[float]]) -> LocalTestFamily:
    """Build a :class:`LocalTestFamily` from a triangular table of rows m = k..n."""
    return LocalTestFamily(k=k, n=n, rows=tuple(table))


def check_theorem43_condition(family: LocalTestFamily) -> bool:
    """Check the diagonal monotonicity condition for stepup reductions.

    For each i >= k, the values along the diagonal l -> (l, (n - i) + l)
    must be nondecreasing in l over the entries that exist in the
    triangular table (l = k..i). Families derived from a single schedule
    by the stepup transform have constant diagonals and always pass.
    """
    k, n = family.k, family.n
    for i in range(k, n + 1):
        prev = None
        for l in range(k, i + 1):
            v = family.value(l, (n - i) + l)
            if prev is not None and v < prev:
                return False
            prev = v
    return True

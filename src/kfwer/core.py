"""Domain types for k-FWER multiple testing: p-value vectors, critical
value schedules and local test families.

All types are immutable and validated at construction. A caller's
numbers are converted and range-checked in one place,
:func:`_check_unit_interval`; only ``order_pvalues`` and the package's
schedule and family constructors, valid by construction, skip the checks.
A family table is checked whole; only a refused one is walked, to name its fault.

Arrays inside, tuples at the edge: a :class:`PValueVector`, a
:class:`CriticalSchedule` and a table :class:`LocalTestFamily` hold each
value once, in private float64 arrays that the decision rules and ``d1``
read and no caller's later writes can reach; a family's holds its
triangle row after row. Their tuple fields, ``values``, ``order``,
``alphas`` and ``rows``, are built on first read and then kept, and
``==``, ``hash`` and ``repr`` are a frozen dataclass's with those fields,
except that a family's ``==`` and ``hash`` read its schedule or table, so
that only ``repr`` builds ``rows``.

Indices follow the statistical convention: hypotheses are 1-based in
user-facing messages and in the CLI, while ``PValueVector.order`` stores
0-based positions for direct indexing.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import FrozenInstanceError
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
    """A subset cardinality m, or an ordered index i, is outside {k, ..., n}
    (for i of a size-m test, {k, ..., m}); ``n`` holds the upper bound."""

    def __init__(self, m: int, k: int, n: int, what: str = "cardinality m", top: str = "n"):
        self.m, self.k, self.n = m, k, n
        super().__init__(f"{what}={m} must satisfy k={k} <= {what[-1]} <= {top}={n}")


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
    of the two that has no meaning, a simulation or verification setting
    out of range, or a command-line flag the CLI refuses (exit code 3)."""


def _integer(name: str, value: Any) -> int:
    """``value`` as an int. A float or bool would pass a range check and
    fail later, mid-run, or run as another number; numpy integers pass.
    An index reaches this only when it is not an exact ``int``, so a
    caller's loop over valid indices pays one type test."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _unvalidated(cls, **fields):
    """An instance of ``cls`` with ``fields`` set and its checks not run,
    for values valid by construction. Callers pass every field the class's
    constructor would set, as arrays no one else holds, or, for a stepdown
    or stepup family, the schedule and the form its values derive from."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)  # frozen: fill the instance dict directly
    return obj


def _check_unit_interval(values: Iterable[Any], what: str) -> np.ndarray:
    """``values`` as a float64 array, each a finite number in [0, 1].

    The one acceptance rule for a caller's numbers: Python ints and floats
    and numpy real scalars are taken as floats; anything else, ``bool``
    and ``np.bool_`` included, is refused with :class:`OutOfRangeError`
    naming the first bad entry. A one-dimensional float64 array is copied
    without a type scan. Python floats are checked as one array by its
    minimum and maximum (a NaN fails both); any other input, and any that
    fails, is checked entry by entry.
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
    :func:`order_pvalues` to construct one. The arrays ``_values``,
    ``_order_array`` and ``_sorted_array`` (the order statistics) hold them.
    """

    _fields = ("values", "order")

    def __init__(self, values: Iterable[float], order: Iterable[int]):
        # The one valid order is the stable sort order_pvalues computes. An
        # order numpy does not find equal to it is walked in Python, to
        # name its fault (or accept numbers numpy holds only as objects).
        array, stable = _ordered(values)
        if not _is_order(order, stable):
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

    ``alphas[i - k]``, held in the array ``_array``, is the critical value
    compared against the i-th smallest p-value, for i = k..n. Values for
    i < k are never stored: the k-1 most significant hypotheses are
    rejected unconditionally.
    """

    _fields = ("k", "n", "alphas")

    def __init__(self, k: int, n: int, alphas: Iterable[float]):
        k, n = _integer("k", k), _integer("n", n)
        if not 1 <= k <= n:
            raise KOutOfRangeError(k, n)
        if not isinstance(alphas, np.ndarray):  # a float64 array is range-checked whole
            alphas = tuple(alphas)
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
        if type(i) is not int:
            i = _integer("index i", i)
        if not self.k <= i <= self.n:
            raise CardinalityOutOfRangeError(i, self.k, self.n, "index i")
        return self._array.item(i - self.k)


class LocalTestFamily(_Frozen):
    """Symmetric family of local tests as a triangular critical-value table.

    ``rows[m - k]`` holds the values compared against the k-th through m-th
    smallest p-values of a size-m subset. Each row must be nondecreasing
    and each column nonincreasing as the subset grows. A table is checked
    whole; only one that fails is walked row by row, to name its first fault.

    A table is stored as the float64 array ``_array``, the triangle row
    after row, row m at offset (m-k)(m-k+1)/2. A stepdown or stepup form
    holds only ``_schedule`` and ``_form``: value(i, m) is alpha_{n-m+k} or
    alpha_{n-m+i}, and its ``_array`` is gathered from the schedule on first
    read. ``rows`` is built on first read for every family.

    ``==`` holds when every value is equal, as for ``rows``, so a form equals
    its table: two forms of one kind compare their schedules, a stepdown and
    a stepup form are equal only when both schedules are one constant, and
    a pair with a table compares the two ``_array``s. ``hash`` is that of
    (k, n, row(n)). ``repr`` prints ``rows``.
    """

    _fields = ("k", "n", "rows")
    _schedule = _form = None  # a table's; a form sets both

    def __init__(self, k: int, n: int, rows: Iterable[Iterable[float]]):
        k, n = _integer("k", k), _integer("n", n)
        if not 1 <= k <= n:
            raise KOutOfRangeError(k, n)
        table = []
        for m, row in enumerate(rows, start=k):
            try:
                table.append(tuple(row))
            except TypeError:
                raise BadShapeError(f"row for cardinality m={m} must be a sequence of values, got {row!r}") from None
        if len(table) != n - k + 1:
            raise BadShapeError(f"family for k={k}, n={n} needs {n - k + 1} rows, got {len(table)}")
        array = _triangle(table)
        if array is None:
            _first_fault(k, table)
        self.__dict__.update(k=k, n=n, _array=array)

    # A table's array sits in the instance dict, so this runs for a form only.
    # Entry (i, m) is the schedule array's entry n - m, plus i - k for stepup.
    @functools.cached_property
    def _array(self) -> np.ndarray:
        widths = np.arange(1, self.n - self.k + 2)
        at = np.repeat(widths[::-1] - 1, widths)  # n - m, row after row
        if self._form == "stepup":
            at += np.arange(at.size) - np.repeat(widths.cumsum() - widths, widths)
        return self._schedule._array[at]

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        if (self.k, self.n) != (other.k, other.n):
            return False
        if self._form is None or other._form is None:
            return bool(np.array_equal(self._array, other._array))
        mine = self._schedule._array
        # Row n of a stepdown form is constant, and of a stepup form its schedule.
        same_rows = self._form == other._form or mine.min() == mine.max()
        return same_rows and bool(np.array_equal(mine, other._schedule._array))

    def __hash__(self):
        return hash((self.k, self.n, self.row(self.n)))

    @functools.cached_property
    def rows(self) -> tuple[tuple[float, ...], ...]:
        return tuple(map(self.row, range(self.k, self.n + 1)))

    def value(self, i: int, m: int) -> float:
        """Critical value for the i-th smallest p-value of a size-m subset, k <= i <= m <= n."""
        if type(i) is not int or type(m) is not int:
            i, m = _integer("index i", i), _integer("cardinality m", m)
        if not self.k <= m <= self.n:
            raise CardinalityOutOfRangeError(m, self.k, self.n)
        if not self.k <= i <= m:
            raise CardinalityOutOfRangeError(i, self.k, m, "index i", "m")
        if self._form is None:
            return self._array.item((m - self.k) * (m - self.k + 1) // 2 + i - self.k)
        return self._schedule.alpha(self.n - m + (self.k if self._form == "stepdown" else i))

    def row(self, m: int) -> tuple[float, ...]:
        """Critical values for subsets of cardinality m (k <= m <= n)."""
        if type(m) is not int:
            m = _integer("cardinality m", m)
        if not self.k <= m <= self.n:
            raise CardinalityOutOfRangeError(m, self.k, self.n)
        width = m - self.k + 1
        if self._form is None:
            start = (width - 1) * width // 2
            return tuple(self._array[start : start + width].tolist())
        if self._form == "stepdown":
            return (self._schedule.alpha(self.n - m + self.k),) * width
        return self._schedule.alphas[self.n - m :]


def _steps(width: int) -> np.ndarray:
    """The offset ``at`` of each entry (i, m), i < m, of a triangle of
    ``width`` rows stored row after row. ``array[at]`` and
    ``array[at + 1]`` are each row without its last and without its first
    entry: each lays out row m as ``array[:at.size]`` lays out row m - 1."""
    rows = np.arange(width)
    return np.repeat(rows, rows) + np.arange(width * (width - 1) // 2)


def _triangle(table: list[tuple]) -> np.ndarray | None:
    """The rows of ``table`` as one float64 array, row after row, or None
    when a row has the wrong length, a value is not in [0, 1], or the
    values fall in i or rise in m. Each check runs on the whole array."""
    if any(len(row) != j + 1 for j, row in enumerate(table)):
        return None
    try:
        array = _check_unit_interval(itertools.chain.from_iterable(table), "family value")
    except OutOfRangeError:
        return None
    at = _steps(len(table))
    before = array[at]
    return None if (array[at + 1] < before).any() or (before > array[: at.size]).any() else array


def _first_fault(k: int, table: list[tuple]) -> None:
    """Raise the first fault of a row-by-row walk: each row in turn for
    shape, range and order in i, then each column i over m for order in m.
    Runs only for a table :func:`_triangle` refused, to name its fault."""
    checked = []
    for m, row in enumerate(table, start=k):
        if len(row) != m - k + 1:
            raise BadShapeError(f"row for cardinality m={m} needs {m - k + 1} values, got {len(row)}")
        checked.append(_check_unit_interval(row, f"family value in row m={m}"))
        drop = _first_drop(checked[-1])
        if drop:
            raise NotMonotoneInIError(k + drop - 1, m)
    for i, j in itertools.combinations(range(len(checked)), 2):  # over i, then m
        if checked[j][i] > checked[j - 1][i]:
            raise NotMonotoneInMError(k + i, k + j)


# From this many p-values up, :func:`_ordered` sorts with numpy's default
# argsort and repairs the ties; below it, with the stable argsort, which
# is faster there (measured in :func:`order_pvalues`).
_QUICKSORT_MIN = 1500


def _ordered(values: Iterable[float]) -> tuple[np.ndarray, np.ndarray]:
    """The checked p-values as an array and their stable ordering
    permutation: ascending, ties by ascending index."""
    array = _check_unit_interval(values, "p-value")
    n = array.size
    if not n:
        raise EmptyInputError("need at least one p-value")
    if n < _QUICKSORT_MIN:
        return array, array.argsort(kind="stable")
    order = array.argsort()  # ascending, ties in no set order
    ordered = array[order]
    starts = np.empty(n, dtype=bool)  # where a new value begins; -0.0 == 0.0
    starts[0] = False
    np.not_equal(ordered[1:], ordered[:-1], out=starts[1:])
    del ordered
    keys = np.cumsum(starts, dtype=np.int64)  # the run of equal values each is in
    del starts
    keys *= n
    keys += order  # run * n + position: unique, ascending by run, then position
    del order
    keys.sort()
    keys %= n
    return array, keys


def _is_order(order: Any, stable: np.ndarray) -> bool:
    """Whether ``order``, as a numpy array of bools, integers or floats,
    equals ``stable`` entry for entry. Such an order is one the Python walk
    in :class:`PValueVector` accepts: its entries compare as numbers, and
    equal to 0..n-1. Any other input, one numpy cannot convert included,
    is left to that walk."""
    try:
        given = np.asarray(order)
    except (TypeError, ValueError, OverflowError):
        return False
    return given.dtype.kind in "biuf" and given.shape == stable.shape and bool((given == stable).all())


def order_pvalues(values: Iterable[float]) -> PValueVector:
    """Attach the stable ordering permutation to raw p-values.

    Ties are broken by ascending original position, which makes every
    downstream procedure deterministic. Input values are not modified.
    The range check here,
    :func:`_check_unit_interval`'s, is the only one: the order is a stable
    sort, so the result does not go through :class:`PValueVector`'s checks
    again.

    Below ``_QUICKSORT_MIN`` values (1,500) the order is
    ``argsort(kind="stable")``, numpy's timsort for float64. From there up
    it is numpy's default argsort (introsort, or its SIMD sort), whose
    ties come out in no set order, repaired: each value gets the number of
    its run of equal values in the sorted array (``!=`` between
    neighbours, so -0.0 ties with 0.0, as in a comparison sort), and the
    int64 keys ``run * n + position`` are sorted. The keys are distinct
    and order by run, which is by value, then by position, which is the
    index tie-break; so ``key % n`` is the stable order, whatever order
    the first sort left each run in. With the range check, the stable
    argsort takes 22 µs at 1,000 values against 41 µs for the repaired
    quicksort, but 90 against 69 µs at 1,500, 13.1 against 6.0 ms at 10^5
    and 166 against 77 ms at 10^6 (best of 7, of 3 at 10^6; 5% strong
    signals and a fifth of the values rounded to four decimals; one x86-64
    host with AVX-512, numpy 2.4).
    """
    array, order = _ordered(values)
    return _unvalidated(PValueVector, _values=array, _order_array=order, _sorted_array=array[order])


def validate_schedule(k: int, n: int, alphas: Iterable[float]) -> CriticalSchedule:
    """Build a :class:`CriticalSchedule`, rejecting ill-shaped or decreasing
    input."""
    return CriticalSchedule(k=k, n=n, alphas=alphas)


def validate_family(k: int, n: int, table: Iterable[Iterable[float]]) -> LocalTestFamily:
    """Build a :class:`LocalTestFamily` from a triangular table of rows m = k..n."""
    return LocalTestFamily(k=k, n=n, rows=table)


def check_theorem43_condition(family: LocalTestFamily) -> bool:
    """Check the diagonal monotonicity condition for stepup reductions.

    For each i >= k, the values along the diagonal l -> (l, (n - i) + l)
    must be nondecreasing in l over the entries that exist in the
    triangular table (l = k..i). Families derived from a single schedule
    by the stepup transform have constant diagonals and always pass. Every
    diagonal step, from (l, m) to (l + 1, m + 1), is compared at once.
    """
    array = family._array
    at = _steps(family.n - family.k + 1)
    return bool((array[at + 1] >= array[: at.size]).all())

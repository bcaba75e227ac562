"""Core type validation, ordering, the tuple views of the array-backed
types, and the diagonal condition check."""

import dataclasses
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kfwer import (
    BadShapeError,
    BoundInput,
    CardinalityOutOfRangeError,
    ConfigError,
    CriticalSchedule,
    EmptyInputError,
    KfwerError,
    KOutOfRangeError,
    LocalTestFamily,
    NotMonotoneError,
    NotMonotoneInIError,
    NotMonotoneInMError,
    OutOfRangeError,
    PValueVector,
    check_theorem43_condition,
    constant_family,
    lehmann_romano_schedule,
    order_pvalues,
    scaled_family,
    simes_family,
    stepdown_as_family,
    stepup_as_family,
    validate_family,
    validate_schedule,
)
from kfwer import cli, core
from kfwer.procedures import check_procedure, critical_values, romano_shaikh_schedule
from kfwer.verify import random_family, random_schedule
from oracles import (
    order_pvalues_reference,
    theorem43_reference,
    unit_interval_reference,
    validate_family_reference,
)

pvals = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
TIED_PVALS = st.sampled_from([0.0, 0.01, 0.05, 0.5, 1.0]) | pvals
# Values that tie in a comparison but not bit for bit (0.0 and -0.0), the
# ends of the range and subnormals, the smallest and the largest.
ZERO_ONE_SUBNORMAL = [0.0, -0.0, 1.0, 5e-324, 1e-320, 2.225073858507201e-308]

# Every kind of iterable a caller may pass for a schedule or a row.
ITERABLES = {
    "list": list,
    "tuple": tuple,
    "generator": lambda xs: (x for x in xs),
    "map": lambda xs: map(float, xs),
    "array": np.array,
}


class TestOrderPValues:
    def test_single_element(self):
        assert order_pvalues([0.5]).order == (0,)

    def test_tie_broken_by_index(self):
        assert order_pvalues([0.3, 0.1, 0.3]).order == (1, 0, 2)

    def test_five_values_stable_sort(self):
        p = order_pvalues([0.04, 0.001, 0.2, 0.015, 0.8])
        assert p.order == (1, 3, 0, 2, 4)
        assert p.sorted_values() == (0.001, 0.015, 0.04, 0.2, 0.8)

    def test_values_untouched(self):
        raw = [0.9, 0.1, 0.5]
        p = order_pvalues(raw)
        assert p.values == (0.9, 0.1, 0.5)
        assert raw == [0.9, 0.1, 0.5]

    def test_empty_input(self):
        with pytest.raises(EmptyInputError):
            order_pvalues([])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -0.01, 1.01])
    def test_out_of_range(self, bad):
        with pytest.raises(OutOfRangeError) as exc:
            order_pvalues([0.5, bad, 0.2])
        assert exc.value.position == 2

    @given(st.lists(pvals, min_size=1, max_size=30))
    @settings(max_examples=100)
    def test_ordering_idempotent(self, values):
        p = order_pvalues(values)
        reordered = order_pvalues(p.sorted_values())
        assert reordered.order == tuple(range(len(values)))

    @given(st.lists(pvals, min_size=1, max_size=20), st.randoms(use_true_random=False))
    @settings(max_examples=100)
    def test_permutation_keeps_sorted_multiset(self, values, rnd):
        shuffled = list(values)
        rnd.shuffle(shuffled)
        assert order_pvalues(shuffled).sorted_values() == order_pvalues(values).sorted_values()

    @given(st.lists(TIED_PVALS, min_size=1, max_size=30))
    @settings(max_examples=100)
    def test_result_passes_pvalue_vector_checks(self, values):
        """order_pvalues skips PValueVector's checks; rebuilding through
        them must succeed, ties included."""
        p = order_pvalues(values)
        assert PValueVector(values=p.values, order=p.order) == p

    def test_rejects_unsorted_order(self):
        with pytest.raises(BadShapeError):
            PValueVector(values=(0.2, 0.1), order=(0, 1))
        with pytest.raises(BadShapeError):
            PValueVector(values=(0.5, 0.5), order=(1, 0))  # ties must keep index order

    # The stable order of TIED_ROW is (1, 0, 2).
    TIED_ROW = (0.4, 0.1, 0.4)

    @pytest.mark.parametrize("order", [
        (1, 0, 2), [1, 0, 2], np.array([1, 0, 2]), np.array([1, 0, 2], dtype=np.uint8),
        (1.0, 0.0, 2.0), np.array([1.0, 0.0, 2.0]), (np.int64(1), 0, 2.0), (True, False, 2),
        (Fraction(1), Fraction(0), Fraction(2)),  # not a numpy number: walked, and accepted
    ])
    def test_accepts_the_stable_order_as_any_equal_numbers(self, order):
        p = PValueVector(self.TIED_ROW, order)
        assert p == order_pvalues(self.TIED_ROW)
        assert p.order == (1, 0, 2)

    def test_bool_orders_count_as_zero_and_one(self):
        assert PValueVector((0.2, 0.1), (True, False)).order == (1, 0)
        assert PValueVector((0.1, 0.2), np.array([False, True])).order == (0, 1)
        with pytest.raises(BadShapeError, match=re.escape("order must sort values")):
            PValueVector((0.2, 0.1), (False, True))
        with pytest.raises(BadShapeError, match=re.escape("order must be a permutation of 0..1")):
            PValueVector((0.2, 0.1), (True, True))

    @pytest.mark.parametrize("order", [
        (1, 0), (1, 0, 2, 3), np.array([1, 0]),  # the wrong length
        (1, 1, 2), (0, 0, 0), np.array([1, 1, 2]),  # repeated indices
        (1.5, 0, 2), np.array([1.0, 0.0, 2.5]), (1, 0, 3), (-1, 0, 2),  # not the numbers 0..2
    ])
    def test_refuses_a_non_permutation(self, order):
        with pytest.raises(BadShapeError, match=re.escape("order must be a permutation of 0..2")):
            PValueVector(self.TIED_ROW, order)

    @pytest.mark.parametrize("order", [(0, 1, 2), (1, 2, 0), np.array([2.0, 0.0, 1.0])])
    def test_refuses_a_permutation_that_is_not_the_stable_order(self, order):
        with pytest.raises(BadShapeError, match=re.escape("order must sort values nondecreasingly with ties by ascending index")):
            PValueVector(self.TIED_ROW, order)

    @given(
        n=st.integers(1, 5000) | st.sampled_from([core._QUICKSORT_MIN - 1, core._QUICKSORT_MIN, core._QUICKSORT_MIN + 1]),
        kind=st.sampled_from(["pool", "all equal", "distinct"]),
        pool=st.lists(st.sampled_from(ZERO_ONE_SUBNORMAL) | pvals, min_size=1, max_size=6),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=core._QUICKSORT_MIN, kind="pool", pool=[0.0, -0.0], seed=1)
    @example(n=5000, kind="pool", pool=ZERO_ONE_SUBNORMAL + [0.5], seed=2)
    @example(n=5000, kind="all equal", pool=[-0.0], seed=3)
    @settings(max_examples=150, deadline=None)
    def test_order_is_the_references_on_both_sides_of_the_cutoff(self, n, kind, pool, seed):
        """From ``_QUICKSORT_MIN`` values up the order is a quicksort with its
        ties repaired: it must still be the stable sort, -0.0 tied with 0.0."""
        rng = np.random.default_rng(seed)
        if kind == "pool":
            values = np.array(pool)[rng.integers(len(pool), size=n)]
        elif kind == "all equal":
            values = np.full(n, pool[0])
        else:
            values = rng.permutation(n) / n
        want_values, want_order = order_pvalues_reference(values.tolist())
        p = order_pvalues(values)
        assert p.order == want_order
        assert p.values == want_values
        assert p._sorted_array.tobytes() == p._values[list(want_order)].tobytes()
        assert PValueVector(values, want_order) == p


class TestValidateSchedule:
    def test_accepts_valid(self):
        s = validate_schedule(1, 3, (0.01, 0.02, 0.05))
        assert s.alphas == (0.01, 0.02, 0.05)
        assert s.alpha(2) == 0.02

    def test_not_monotone_position(self):
        with pytest.raises(NotMonotoneError) as exc:
            validate_schedule(2, 5, (0.02, 0.025, 0.05, 0.03))
        assert exc.value.position == 4

    @given(st.lists(st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, -0.0, 0.5])), min_size=1, max_size=40))
    @settings(max_examples=300)
    def test_not_monotone_position_is_the_first_drop(self, alphas):
        """The array check reports the entry the old pairwise loop did:
        the first one below its predecessor, -0.0 and 0.0 counting as equal."""
        first_drop = next((pos + 1 for pos in range(1, len(alphas)) if alphas[pos] < alphas[pos - 1]), None)
        if first_drop is None:
            assert validate_schedule(1, len(alphas), alphas).alphas == tuple(alphas)
        else:
            with pytest.raises(NotMonotoneError) as exc:
                validate_schedule(1, len(alphas), alphas)
            assert exc.value.position == first_drop

    @pytest.mark.parametrize("alphas, position", [
        ((0.1, math.nan, 0.2), 2), ((0.3, 0.2, 1.5), 3), ((-0.1, 0.2), 1), ((0.1, 0.2, math.inf), 3),
    ])
    def test_range_checked_before_order(self, alphas, position):
        """The first entry out of range is named even where the values also
        drop, and a NaN between ordered values is refused."""
        with pytest.raises(OutOfRangeError) as exc:
            validate_schedule(1, len(alphas), alphas)
        assert exc.value.position == position

    def test_signed_zeros_are_nondecreasing(self):
        for alphas in [(0.0, -0.0), (-0.0, 0.0, -0.0, 0.1), (-0.0,) * 3]:
            assert validate_schedule(1, len(alphas), alphas).alphas == alphas
        with pytest.raises(NotMonotoneError) as exc:
            validate_schedule(1, 4, (0.0, -0.0, 0.1, -0.0))
        assert exc.value.position == 4

    def test_k_out_of_range(self):
        with pytest.raises(KOutOfRangeError):
            validate_schedule(3, 2, ())
        with pytest.raises(KOutOfRangeError):
            validate_schedule(0, 2, (0.1, 0.2, 0.3))

    def test_bad_shape(self):
        with pytest.raises(BadShapeError):
            validate_schedule(2, 5, (0.02, 0.025, 0.05))

    def test_out_of_range_entry(self):
        with pytest.raises(OutOfRangeError) as exc:
            validate_schedule(1, 3, (0.01, 0.02, 1.5))
        assert exc.value.position == 3

    def test_equalities_allowed(self):
        validate_schedule(1, 4, (0.0, 0.1, 0.1, 0.1))

    def test_numpy_float32_entries_accepted(self):
        s = validate_schedule(1, 2, np.array([0.1, 0.2], dtype=np.float32))
        assert s.alphas == (float(np.float32(0.1)), float(np.float32(0.2)))
        assert all(type(a) is float for a in s.alphas)

    @pytest.mark.parametrize("flag", [True, np.True_])
    def test_bool_entries_refused(self, flag):
        with pytest.raises(OutOfRangeError) as exc:
            validate_schedule(1, 2, [0.1, flag])
        assert exc.value.position == 2

    @pytest.mark.parametrize("form", ITERABLES)
    def test_any_iterable_of_values(self, form):
        """A generator or map of values used to fail with TypeError on len()."""
        s = CriticalSchedule(k=1, n=2, alphas=ITERABLES[form]([0.05, 0.1]))
        assert s == validate_schedule(1, 2, (0.05, 0.1))
        with pytest.raises(BadShapeError, match="needs 2 values, got 3"):
            CriticalSchedule(k=1, n=2, alphas=ITERABLES[form]([0.05, 0.1, 0.2]))


class TestValidateFamily:
    def test_constant_family_shape(self):
        fam = validate_family(2, 4, [[0.05], [0.1 / 3, 0.1 / 3], [0.025, 0.025, 0.025]])
        assert fam.value(2, 2) == 0.05
        assert fam.value(3, 4) == 0.025
        assert fam.row(3) == (0.1 / 3, 0.1 / 3)

    def test_matches_constant_constructor(self):
        fam = constant_family(2, 4, 0.05)
        for m in range(2, 5):
            for i in range(2, m + 1):
                assert math.isclose(fam.value(i, m), 2 * 0.05 / m, rel_tol=1e-12)

    def test_not_monotone_in_i(self):
        with pytest.raises(NotMonotoneInIError) as exc:
            validate_family(2, 4, [[0.05], [0.04, 0.03], [0.02, 0.02, 0.02]])
        assert (exc.value.i, exc.value.m) == (3, 3)

    def test_not_monotone_in_m(self):
        with pytest.raises(NotMonotoneInMError) as exc:
            validate_family(2, 3, [[0.03], [0.04, 0.04]])
        assert (exc.value.i, exc.value.m) == (2, 3)

    def test_bad_shape_row_length(self):
        with pytest.raises(BadShapeError):
            validate_family(2, 3, [[0.03], [0.04]])

    def test_bad_shape_row_count(self):
        with pytest.raises(BadShapeError):
            validate_family(2, 3, [[0.03]])

    def test_k_out_of_range(self):
        with pytest.raises(KOutOfRangeError):
            validate_family(4, 3, [])

    def test_numpy_float32_rows_accepted(self):
        table = [np.array(row, dtype=np.float32) for row in ([0.05], [0.04, 0.04])]
        fam = validate_family(2, 3, table)
        assert fam.rows == ((float(np.float32(0.05)),), (float(np.float32(0.04)),) * 2)

    @pytest.mark.parametrize("flag", [False, np.False_])
    def test_bool_entries_refused(self, flag):
        with pytest.raises(OutOfRangeError, match="row m=3") as exc:
            validate_family(2, 3, [[0.05], [flag, 0.04]])
        assert exc.value.position == 1

    @pytest.mark.parametrize("outer", ["list", "tuple", "generator"])
    @pytest.mark.parametrize("inner", ITERABLES)
    def test_any_iterable_of_rows(self, outer, inner):
        """A generator of rows used to fail with TypeError on len()."""
        table = [[0.1], [0.05, 0.1]]
        rows = ITERABLES[outer](map(ITERABLES[inner], table))
        fam = LocalTestFamily(k=1, n=2, rows=rows)
        assert fam == validate_family(1, 2, table) and fam.rows == ((0.1,), (0.05, 0.1))

    @pytest.mark.parametrize("row", [0.5, None, 1, np.float64(0.1)])
    def test_a_row_that_is_no_sequence_is_a_shape_error(self, row):
        """A number in place of a row used to fail with TypeError."""
        with pytest.raises(BadShapeError, match=re.escape(f"row for cardinality m=2 must be a sequence of values, got {row!r}")):
            validate_family(1, 2, [[0.1], row])

    # Tables with faults in several rows, and the first error each raises:
    # rows in turn (shape, range, then order in i), then order in m.
    SEVERAL_FAULTS = {
        "order-in-i-before-range-and-shape": (
            [[0.05], [0.04, 0.03], [0.02, 1.5, 0.03], [0.01, 0.01]],
            NotMonotoneInIError, "entry (i=2, m=2) is smaller than (i=1, m=2)"),
        "range-before-order-in-i-and-shape": (
            [[0.05], [0.04, np.float32(1.5)], [0.03, 0.02, 0.02], [True, 0.01]],
            OutOfRangeError, "family value in row m=2 at position 2 is 1.5,"),
        "shape-before-a-later-range": (
            [[0.05], [0.04, 0.04], [0.03, 0.03], [0.02, math.nan, 0.02, 0.02]],
            BadShapeError, "row for cardinality m=3 needs 3 values, got 2"),
        "range-in-the-last-row-before-order-in-m": (
            [[0.01], [0.04, 0.04], [0.03, 0.03, 0.03], [0.02, 0.02, "0.02", 0.02]],
            OutOfRangeError, "family value in row m=4 at position 3 is '0.02',"),
        "order-in-i-in-a-later-row-before-order-in-m": (
            [[0.05], [0.04, 0.04], [0.03, 0.05, 0.05], [0.02, 0.01, 0.02, 0.02]],
            NotMonotoneInIError, "entry (i=2, m=4) is smaller than (i=1, m=4)"),
        "order-in-m": (
            [[0.05], [0.04, 0.04], [0.03, 0.05, 0.05], [0.02, 0.02, 0.02, 0.02]],
            NotMonotoneInMError, "entry (i=2, m=3) is larger than (i=2, m=2)"),
    }

    @pytest.mark.parametrize("case", SEVERAL_FAULTS)
    def test_first_of_several_faults(self, case):
        table, error, message = self.SEVERAL_FAULTS[case]
        with pytest.raises(error) as exc:
            validate_family(1, 4, table)
        assert message in str(exc.value)


# The five numeric entry points, each given a whole list of entries (and,
# for PValueVector, their order): one acceptance rule holds at all of
# them. A family takes the list as its last row, under rows of ones.
ENTRY_POINTS = {
    "order_pvalues": lambda xs, order=None: order_pvalues(xs).values,
    "PValueVector": lambda xs, order=None: PValueVector(values=tuple(xs), order=order or tuple(range(len(xs)))).values,
    "CriticalSchedule": lambda xs, order=None: CriticalSchedule(k=1, n=len(xs), alphas=tuple(xs)).alphas,
    "LocalTestFamily": lambda xs, order=None: LocalTestFamily(
        k=1, n=len(xs), rows=tuple((1.0,) * m for m in range(1, len(xs))) + (tuple(xs),)
    ).rows[-1],
    "BoundInput": lambda xs, order=None: BoundInput(t=len(xs), betas=tuple(xs)).betas,
}

# Each entry point's label for a range error in a list of n entries, and
# the error it raises for a drop at a 1-based position (None: any order
# is taken).
ENTRY_POINT_RULES = {
    "order_pvalues": ("p-value", None),
    "PValueVector": ("p-value", None),
    "CriticalSchedule": ("critical value", lambda pos, n: NotMonotoneError(pos)),
    "LocalTestFamily": ("family value in row m={n}", lambda pos, n: NotMonotoneInIError(pos, n)),
    "BoundInput": ("beta", lambda pos, n: NotMonotoneError(pos)),
}

# Entries of every kind a caller may pass: floats in and out of [0, 1],
# NaN, +-inf and -0.0, ints, numpy scalars, bools and strings.
NUMERIC_ENTRIES = st.one_of(
    st.floats(0.0, 1.0),
    st.sampled_from([0.0, -0.0, 1.0, 0.5, 0, 1]),
    st.floats(),
    st.integers(-2, 3),
    st.floats(width=32).map(np.float32),
    st.floats(0.0, 1.0).map(np.float64),
    st.integers(-1, 2).map(np.int64),
    st.sampled_from([True, False, np.True_, np.False_, "0.5", None, math.inf, -math.inf, math.nan, 1.5, -1e-300, 10**400]),
)


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@given(entries=st.lists(NUMERIC_ENTRIES, min_size=1, max_size=6), sort=st.booleans())
@settings(max_examples=200)
def test_every_entry_point_follows_the_entry_by_entry_reference(entry, entries, sort):
    """The entry point stores the reference's plain floats, zero signs
    included, or raises its OutOfRangeError, position, value and message;
    a list the reference takes but that drops raises the entry point's
    own order error at the first drop."""
    label, drop_error = ENTRY_POINT_RULES[entry]
    n = len(entries)
    try:
        floats = unit_interval_reference(entries, label.format(n=n))
    except OutOfRangeError as want:
        with pytest.raises(OutOfRangeError) as got:
            ENTRY_POINTS[entry](entries)
        assert (got.value.position, str(got.value)) == (want.position, str(want))
        return
    if sort:  # nondecreasing input, entries keeping their own types
        entries, floats = map(list, zip(*sorted(zip(entries, floats), key=lambda pair: pair[1])))
    order = tuple(sorted(range(n), key=floats.__getitem__))
    drop = next((pos + 1 for pos in range(1, n) if floats[pos] < floats[pos - 1]), 0)
    if drop and drop_error:
        want = drop_error(drop, n)
        with pytest.raises(type(want)) as got:
            ENTRY_POINTS[entry](entries, order)
        assert str(got.value) == str(want)
        return
    stored = ENTRY_POINTS[entry](entries, order)
    assert [repr(v) for v in stored] == [repr(v) for v in floats]
    assert all(type(v) is float for v in stored)


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("bad", [True, False, np.True_, np.False_, "0.3", 0.3j, None],
                         ids=["True", "False", "np.True_", "np.False_", "str", "complex", "None"])
def test_every_entry_point_refuses_non_real_entries(entry, bad):
    with pytest.raises(OutOfRangeError) as exc:
        ENTRY_POINTS[entry]((0.1, bad))
    assert exc.value.position == 2


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("good", [np.float32(0.3), np.float64(0.3), np.int64(1), 1],
                         ids=["np.float32", "np.float64", "np.int64", "int"])
def test_every_entry_point_stores_plain_floats(entry, good):
    stored = ENTRY_POINTS[entry]((0.1, good))
    assert stored == (0.1, float(good))
    assert all(type(v) is float for v in stored)


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("bad", [np.float32("nan"), np.float32(1.5), 10**400],
                         ids=["np.float32-nan", "np.float32-1.5", "huge-int"])
def test_every_entry_point_range_checks_converted_entries(entry, bad):
    with pytest.raises(OutOfRangeError):
        ENTRY_POINTS[entry]((0.1, bad))


# A float64 array takes the array path of the acceptance rule, with no
# type scan and no copy; whatever it holds, the outcome is the list's.
ARRAY_ENTRY_POINTS = {
    "order_pvalues": lambda xs: order_pvalues(xs).values,
    "validate_schedule": lambda xs: validate_schedule(1, len(xs), xs).alphas,
}


@pytest.mark.parametrize("entry", ARRAY_ENTRY_POINTS)
@given(st.lists(st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, -0.0, 1.0]), st.floats()), max_size=6),
       st.booleans())
@settings(max_examples=200)
def test_float64_arrays_are_taken_as_their_lists(entry, floats, sort):
    if sort:
        floats.sort()

    def outcome(values):
        try:
            return tuple(map(repr, ARRAY_ENTRY_POINTS[entry](values)))
        except KfwerError as exc:
            return type(exc), str(exc)
    assert outcome(np.array(floats, dtype=np.float64)) == outcome(floats)


@given(
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=0, max_value=7),
    st.floats(min_value=0.001, max_value=1.0, exclude_max=True),
    st.data(),
)
@settings(max_examples=100)
def test_constructors_produce_valid_families(k, extra, alpha, data):
    """Every named constructor yields a table that passes validation. The
    constructors skip LocalTestFamily's checks, so rebuilding each table
    through it must succeed, over Lehmann-Romano and random bases with
    ties and zeros. The same holds for the Lehmann-Romano and single-step
    constant schedules, which skip CriticalSchedule's checks."""
    n = k + extra
    single_step = critical_values("stepdown", "constant", k, n, alpha, base=None)
    assert single_step.alphas == (k * alpha / n,) * (n - k + 1)
    for sched in (lehmann_romano_schedule(k, n, alpha), single_step):
        assert CriticalSchedule(k=sched.k, n=sched.n, alphas=sched.alphas) == sched
    raw = data.draw(st.lists(TIED_PVALS, min_size=n - k + 1, max_size=n - k + 1))
    families = [constant_family(k, n, alpha), simes_family(k, n, alpha)]
    for base in (lehmann_romano_schedule(k, n, alpha), validate_schedule(k, n, sorted(raw))):
        families += [stepdown_as_family(base), stepup_as_family(base)]
        if base.alphas[-1] > 0.0:
            families.append(scaled_family(base, alpha))
    for fam in families:
        assert LocalTestFamily(k=fam.k, n=fam.n, rows=fam.rows) == fam


LR_2_5 = lehmann_romano_schedule(2, 5, 0.05)
INDEXED = {
    "schedule": LR_2_5,
    "table": validate_family(2, 5, [LR_2_5.alphas[5 - m :] for m in range(2, 6)]),
    "stepdown form": constant_family(2, 5, 0.05),
    "stepup form": stepup_as_family(LR_2_5),
}


@pytest.mark.parametrize("name", sorted(INDEXED))
def test_indices_outside_their_range_raise(name):
    """``alpha(i)`` needs k <= i <= n, ``row(m)`` k <= m <= n and
    ``value(i, m)`` k <= i <= m <= n: a negative index no longer wraps
    around and an m past n no longer returns a short row."""
    critical = INDEXED[name]
    if name == "schedule":
        assert [critical.alpha(i) for i in range(2, 6)] == list(critical.alphas)
        bad = [(critical.alpha, (i,)) for i in (-1, 0, 1, 6)]
    else:
        assert [critical.row(m) for m in range(2, 6)] == list(critical.rows)
        assert [critical.value(i, 5) for i in range(2, 6)] == list(critical.rows[-1])
        bad = [(critical.row, (m,)) for m in (-1, 0, 1, 6, 7)]
        bad += [(critical.value, im) for im in ((1, 3), (0, 5), (-1, 5), (4, 3), (2, 1), (2, 6), (6, 6))]
    for method, args in bad:
        with pytest.raises(CardinalityOutOfRangeError):
            method(*args)
    if name != "schedule":
        with pytest.raises(CardinalityOutOfRangeError, match=re.escape("index i=4 must satisfy k=2 <= i <= m=3")):
            critical.value(4, 3)
        with pytest.raises(CardinalityOutOfRangeError, match=re.escape("cardinality m=6 must satisfy k=2 <= m <= n=5")):
            critical.value(2, 6)


@pytest.mark.parametrize("name", sorted(INDEXED))
@pytest.mark.parametrize("bad", [3.0, np.float64(3.0), True, np.bool_(True), "3", None])
def test_non_integer_indices_refused(name, bad):
    """An index that is not an integer used to raise a bare TypeError
    (``alpha(3.0)``), return a value (``value(2.0, 3)``) or be refused as
    out of range (``alpha(True)``)."""
    critical = INDEXED[name]
    if name == "schedule":
        calls = [("index i", critical.alpha, (bad,))]
    else:
        calls = [("cardinality m", critical.row, (bad,)), ("index i", critical.value, (bad, 3)),
                 ("cardinality m", critical.value, (2, bad))]
    for what, method, args in calls:
        with pytest.raises(ConfigError, match=re.escape(f"{what} must be an integer, got {bad!r}")):
            method(*args)


@pytest.mark.parametrize("name", sorted(INDEXED))
def test_numpy_integer_indices_are_read_as_int(name):
    critical = INDEXED[name]
    if name == "schedule":
        assert critical.alpha(np.int64(3)) == critical.alpha(3)
    else:
        assert critical.row(np.uint8(3)) == critical.row(3)
        assert critical.value(np.int32(2), np.int64(4)) == critical.value(2, 4)


# Where k and n enter. A float or bool k or n used to build and then fail
# mid-run (a slice index in stepdown, ``alpha(i)``, generalized_hommel) or
# run as another number (k = 1.5 stored, True taken as 1).
SIZED = {
    "CriticalSchedule": lambda k, n: CriticalSchedule(k=k, n=n, alphas=[0.01] * 5),
    "LocalTestFamily": lambda k, n: LocalTestFamily(k=k, n=n, rows=[[0.01] * j for j in range(1, 6)]),
    "validate_family": lambda k, n: validate_family(k, n, [[0.01] * j for j in range(1, 6)]),
    "lehmann_romano_schedule": lambda k, n: lehmann_romano_schedule(k, n, 0.05),
    "simes_family": lambda k, n: simes_family(k, n, 0.05),
    "constant_family": lambda k, n: constant_family(k, n, 0.05),
    "constant schedule": lambda k, n: constant_schedule(k, n),
}


def constant_schedule(k, n):
    """The resolver's constant schedule, for a request it accepts."""
    check_procedure("stepup", "constant", k, n, 0.05)
    return critical_values("stepup", "constant", k, n, 0.05, base=None)


@pytest.mark.parametrize("entry", sorted(SIZED))
@pytest.mark.parametrize("name, k, n", [
    ("k", 2.0, 6), ("k", 1.5, 6), ("k", True, 6), ("k", np.bool_(True), 6), ("k", "2", 6), ("k", None, 6),
    ("n", 2, 6.0), ("n", 2, np.float64(6.0)), ("n", 2, False),
])
def test_non_integer_sizes_refused(entry, name, k, n):
    value = k if name == "k" else n
    with pytest.raises(KfwerError, match=re.escape(f"{name} must be an integer, got {value!r}")):
        SIZED[entry](k, n)


@pytest.mark.parametrize("entry", sorted(SIZED))
def test_numpy_integer_sizes_are_stored_as_int(entry):
    built, plain = SIZED[entry](np.int64(2), np.uint16(6)), SIZED[entry](2, 6)
    assert type(built.k) is int and type(built.n) is int
    assert repr(built) == repr(plain) and built == plain


class TestTheorem43Condition:
    def test_stepup_family_constant_diagonals(self):
        base = validate_schedule(1, 4, (0.01, 0.02, 0.03, 0.5))
        assert check_theorem43_condition(stepup_as_family(base)) is True

    def test_hand_built_counterexample(self):
        fam = validate_family(2, 4, [[0.04], [0.03, 0.03], [0.02, 0.02, 0.05]])
        # diagonal for i=3 runs (l=2, m=3) -> 0.03, (l=3, m=4) -> 0.02: decreasing
        assert check_theorem43_condition(fam) is False

    def test_single_point_diagonals(self):
        fam = validate_family(2, 2, [[0.05]])
        assert check_theorem43_condition(fam) is True

    def test_constant_family_fails_beyond_trivial(self):
        # rows k*alpha/m give diagonals k*alpha/((n-i)+l), decreasing in l
        assert check_theorem43_condition(constant_family(2, 4, 0.05)) is False
        assert check_theorem43_condition(constant_family(1, 2, 0.05)) is False
        assert check_theorem43_condition(constant_family(3, 3, 0.05)) is True


# Entries a planted range fault puts in a table: out of range, NaN, or no
# real number at all.
BAD_ENTRIES = st.sampled_from([1.5, -0.25, math.nan, math.inf, "0.1", True, np.False_, None, np.float32(1.5), 10**400])
# Fault kinds, repeated by weight: a fault in the row structure hides the rest.
FAULTS = ("shape",) * 2 + ("range", "order-in-i") * 3 + ("order-in-m",) * 4 + ("row-count", "not-a-row")


@st.composite
def planted_tables(draw):
    """(k, n, rows): a doubly monotone product table f(i) * g(m), with ties
    and zeros, and up to four faults planted in it in any rows, in any
    order: a row one entry short or long, a bad entry, an entry below its
    left neighbour, a column rising with m, a row too many or too few, or
    a row that is no sequence."""
    k = draw(st.integers(1, 3))
    n = draw(st.integers(k, k + 5))
    width = n - k + 1
    unit = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0]), st.floats(0.0, 1.0))
    f = sorted(draw(st.lists(unit, min_size=width, max_size=width)))
    g = sorted(draw(st.lists(unit, min_size=width, max_size=width)), reverse=True)
    rows = [[f[c] * g[j] for c in range(j + 1)] for j in range(width)]
    for kind in draw(st.lists(st.sampled_from(FAULTS), max_size=4)):
        j = draw(st.integers(0, len(rows) - 1)) if rows else 0
        row = rows[j] if rows and isinstance(rows[j], list) else None
        if kind == "row-count":
            if rows and draw(st.booleans()):
                rows.pop()
            else:
                rows.append([0.0] * (len(rows) + 1))
        elif row is None:
            continue
        elif kind == "not-a-row":
            rows[j] = draw(st.sampled_from([0.5, None, np.float64(0.1)]))
        elif kind == "shape":
            if row and draw(st.booleans()):
                row.pop()
            else:
                row.append(row[-1] if row else 0.0)
        elif not row:
            continue
        elif kind == "range":
            row[draw(st.integers(0, len(row) - 1))] = draw(BAD_ENTRIES)
        elif kind == "order-in-i" and len(row) > 1:
            c = draw(st.integers(1, len(row) - 1))
            row[c - 1], row[c] = 0.75, 0.25
        elif kind == "order-in-m":  # 1 from entry c on: above row m - 1 there, unless it holds 1
            c = draw(st.integers(0, len(row) - 1))
            row[c:] = [1.0] * (len(row) - c)
    return k, n, rows


@given(planted_tables())
@example((1, 4, [[0.5], [0.25, 0.5], [0.25, 1.0, 1.0], [1.0, 1.0, 1.0, 1.0]]))  # order in m: (1, 4) before (2, 3)
@example((1, 3, [[0.5], [0.25, "0.5"], [0.1, 0.1]]))  # a range fault in a row before a shape fault
@example((2, 4, [[0.5], [0.5, 0.25], [0.1, math.nan, 0.1]]))  # order in i in a row before a range fault
@settings(max_examples=400)
def test_first_fault_is_the_row_by_row_walks(case):
    """``validate_family`` raises the error of the walk the triangle array
    replaced, type and message alike, or keeps the walk's floats."""
    k, n, rows = case
    try:
        want = validate_family_reference(k, n, rows)
    except KfwerError as exc:
        with pytest.raises(KfwerError) as got:
            validate_family(k, n, rows)
        assert (type(got.value), str(got.value)) == (type(exc), str(exc))
        return
    assert [list(map(repr, row)) for row in validate_family(k, n, rows).rows] == [list(map(repr, row)) for row in want]


def test_valid_tables_never_reach_the_walk(monkeypatch, tmp_path):
    """The row-by-row walk runs only to name a fault: with it replaced by
    one that raises, every valid table still builds."""
    def walk(k, table):
        raise AssertionError("the walk ran")

    monkeypatch.setattr(core, "_first_fault", walk)
    with pytest.raises(AssertionError, match="the walk ran"):
        validate_family(1, 2, [[0.5], [0.75, 0.75]])  # rises in m: the patched walk is the one called
    rng = np.random.default_rng(5)
    for n in (1, 2, 5, 14):
        for k in sorted({1, 2, n} & set(range(1, n + 1))):
            simes = simes_family(k, n, 0.05)
            assert validate_family(k, n, simes.rows) == simes
            random_family(rng, k, n)
            random_family(rng, k, n, constant_rows=True)
    simes = simes_family(1, 30, 0.05)
    path = tmp_path / "simes.csv"
    path.write_text("m,i,alpha\n" + "".join(
        f"{m},{i},{v!r}\n" for m, row in enumerate(simes.rows, start=1) for i, v in enumerate(row, start=1)))
    assert cli._read_family_file(str(path), 1, 30) == simes


def product_table(rng, k, n):
    """f(i) * g(m - i) with f nondecreasing and g nonincreasing: doubly
    monotone, with diagonals that never decrease."""
    f = np.sort(rng.uniform(0.0, 1.0, n - k + 1))
    g = np.sort(rng.uniform(0.0, 1.0, n - k + 1))[::-1]
    return validate_family(k, n, [[float(f[i - k] * g[m - i]) for i in range(k, m + 1)] for m in range(k, n + 1)])


FAMILY_KINDS = {
    "random table": random_family,
    "product table": product_table,
    "stepup form": lambda rng, k, n: stepup_as_family(random_schedule(rng, k, n)),
    "table of a stepup form": lambda rng, k, n: validate_family(k, n, stepup_as_family(random_schedule(rng, k, n)).rows),
    "stepdown form": lambda rng, k, n: stepdown_as_family(random_schedule(rng, k, n)),
    "constant": lambda rng, k, n: constant_family(k, n, float(rng.uniform(0.005, 0.5))),
}


@pytest.mark.parametrize("kind", FAMILY_KINDS)
@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=100)
def test_theorem43_condition_is_the_loops(kind, seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 15))
    k = int(rng.integers(1, n + 1))
    fam = FAMILY_KINDS[kind](rng, k, n)
    assert check_theorem43_condition(fam) is theorem43_reference(k, n, fam.rows)


# The types as frozen dataclasses with tuple fields, as they were before
# they stored arrays: their ==, hash and repr are the reference.
TupleVector = dataclasses.make_dataclass("PValueVector", [("values", tuple), ("order", tuple)], frozen=True)
TupleSchedule = dataclasses.make_dataclass("CriticalSchedule", [("k", int), ("n", int), ("alphas", tuple)], frozen=True)

# Ties, signed zeros, exact 0 and 1 and ints.
MIXED = [0.5, 0, 1, -0.0, 0.5, 0.25, 1.0, 0.0, np.float32(0.25), 0.5]


class TestTupleViews:
    """``values``, ``order`` and ``alphas`` are tuples of Python floats and
    ints built from the stored arrays on first read, then kept."""

    def test_vector_views_equal_the_reference(self):
        p = order_pvalues(MIXED)
        values, order = order_pvalues_reference(MIXED)
        assert type(p.values) is tuple and type(p.order) is tuple
        assert list(map(repr, p.values)) == list(map(repr, values))
        assert all(type(v) is float for v in p.values) and all(type(j) is int for j in p.order)
        assert p.order == order
        assert p.sorted_values() == tuple(values[j] for j in order)
        assert p.values is p.values and p.order is p.order

    def test_vector_eq_hash_repr_are_the_dataclass_ones(self):
        p = order_pvalues(MIXED)
        values, order = order_pvalues_reference(MIXED)
        ref = TupleVector(values=values, order=order)
        assert repr(p) == repr(ref)
        assert hash(p) == hash(ref)
        same = PValueVector(values=MIXED, order=order)
        assert p == same and hash(p) == hash(same) and not p != same
        assert p != order_pvalues([0.5, 0.1])
        assert p.__eq__(ref) is NotImplemented
        assert p == order_pvalues(np.array(values))

    @pytest.mark.parametrize("build", [
        lambda: validate_schedule(2, 6, [0, -0.0, 0.0, 0.01, 1]),
        lambda: validate_schedule(2, 6, np.array([0.0, -0.0, 0.0, 0.01, 1.0])),
        lambda: lehmann_romano_schedule(2, 6, 0.05),
        lambda: romano_shaikh_schedule(lehmann_romano_schedule(2, 6, 0.05), 0.05),
        lambda: critical_values("stepdown", "constant", 2, 6, 0.05, base=None),
    ], ids=["ints-and-zeros", "array", "lehmann-romano", "romano-shaikh", "constant"])
    def test_schedule_views(self, build):
        s = build()
        assert type(s.alphas) is tuple and all(type(a) is float for a in s.alphas)
        assert s.alphas == tuple(s._array.tolist())
        assert [s.alpha(i) for i in range(2, 7)] == list(s.alphas)
        assert s.alphas is s.alphas
        ref = TupleSchedule(k=2, n=6, alphas=s.alphas)
        assert (repr(s), hash(s)) == (repr(ref), hash(ref))
        again = validate_schedule(2, 6, list(s.alphas))
        assert s == again and hash(s) == hash(again)

    def test_signed_zeros_and_ints_are_kept_as_floats(self):
        s = validate_schedule(2, 6, [0, -0.0, 0.0, 0.01, 1])
        assert list(map(repr, s.alphas)) == ["0.0", "-0.0", "0.0", "0.01", "1.0"]
        assert repr(s) == "CriticalSchedule(k=2, n=6, alphas=(0.0, -0.0, 0.0, 0.01, 1.0))"
        assert repr(order_pvalues([1, -0.0])) == "PValueVector(values=(1.0, -0.0), order=(1, 0))"

    def test_n_and_alpha_build_no_tuple(self):
        p = order_pvalues([0.3, 0.1])
        s = lehmann_romano_schedule(1, 2, 0.05)
        assert (p.n, s.alpha(2)) == (2, 0.05)
        assert "values" not in vars(p) and "order" not in vars(p) and "alphas" not in vars(s)

    def test_instances_are_frozen(self):
        p = order_pvalues([0.3, 0.1])
        s = lehmann_romano_schedule(1, 2, 0.05)
        for obj, name in ((p, "values"), (p, "order"), (s, "alphas"), (s, "k")):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(obj, name, ())
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(obj, name)
        assert p.values == (0.3, 0.1) and s.alphas == (0.025, 0.05)

    def test_writing_to_the_callers_array_changes_nothing(self):
        """The caller's array is copied: refilling it, as a loop that reuses
        one buffer does, leaves the vector, the schedule and a decision
        built from them as they were."""
        from kfwer.procedures import stepdown

        pvalues, alphas = [0.001, 0.02, 0.3, 0.004], [0.01, 0.02, 0.03, 0.04]
        buf, sbuf = np.array(pvalues), np.array(alphas)
        p, s = order_pvalues(buf), validate_schedule(1, 4, sbuf)
        buf[:] = [0.9, 2.0, 0.0, 0.5]
        sbuf[:] = [5.0, 0.0, 1.0, 0.5]
        ref_p, ref_s = order_pvalues(pvalues), validate_schedule(1, 4, alphas)
        assert (p.values, p.order, s.alphas) == (ref_p.values, ref_p.order, ref_s.alphas)
        assert (hash(p), repr(p), hash(s), repr(s)) == (hash(ref_p), repr(ref_p), hash(ref_s), repr(ref_s))
        assert stepdown(p, s).rejected == stepdown(ref_p, ref_s).rejected == (True, True, False, True)

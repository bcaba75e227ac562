"""Core type validation, ordering, the tuple views of the array-backed
types, and the diagonal condition check."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kfwer import (
    BadShapeError,
    BoundInput,
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
from kfwer.procedures import critical_values, romano_shaikh_schedule
from oracles import order_pvalues_reference, unit_interval_reference

pvals = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
TIED_PVALS = st.sampled_from([0.0, 0.01, 0.05, 0.5, 1.0]) | pvals


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

"""Decision procedures: worked examples, constructor values, and the
equivalence/dominance relations that tie the shortcuts to the
exhaustive closed-testing engine."""

import itertools
import math
import re
import time
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kfwer import (
    MAX_FAMILY_ENTRIES,
    ConfigError,
    DegenerateScheduleError,
    FamilyTooLargeError,
    LengthMismatchError,
    OutOfRangeError,
    ProcedureResult,
    TooLargeError,
    closed_testing,
    constant_family,
    d1,
    generalized_hommel,
    lehmann_romano_schedule,
    order_pvalues,
    romano_shaikh_schedule,
    scaled_family,
    simes_family,
    stepdown,
    stepdown_as_family,
    stepup,
    stepup_as_family,
    validate_family,
    validate_schedule,
)
from kfwer import procedures
from kfwer.procedures import FAMILY_PROCEDURES
from kfwer.verify import random_family, random_pvalues, random_schedule
from oracles import (
    closed_testing_detail_oracle,
    closed_testing_oracle,
    hommel_oracle,
    stepdown_oracle,
    stepup_oracle,
)

LR_2_5 = lehmann_romano_schedule(2, 5, 0.05)


def stepdown_table(s):
    """The stepdown form of s as a table: row m repeats alpha_{n-m+k}."""
    return [(s.alphas[s.n - m],) * (m - s.k + 1) for m in range(s.k, s.n + 1)]


def stepup_table(s):
    """The stepup form of s as a table: row m holds alpha_{n-m+i}, i = k..m."""
    return [s.alphas[s.n - m :] for m in range(s.k, s.n + 1)]


def rejected_set(result):
    return set(result.rejected_indices())


class TestProcedureResult:
    def test_indices_ascend(self):
        res = ProcedureResult((True, False, True), {"r": 2}, "stepdown")
        assert res.rejected_indices() == (0, 2)
        assert res.num_rejected == 2


class TestStepdown:
    def test_nothing_significant_keeps_automatic_rejections(self):
        p = order_pvalues([1.0, 1.0, 1.0, 1.0])
        s = validate_schedule(2, 4, (0.1, 0.2, 0.3))
        res = stepdown(p, s)
        assert rejected_set(res) == {0}  # k-1 = 1, tie broken toward index 0
        assert res.detail == {"r": None}

    def test_stops_at_r_equals_two(self):
        res = stepdown(order_pvalues([0.001, 0.015, 0.03, 0.2, 0.8]), LR_2_5)
        assert res.detail == {"r": 2}
        assert rejected_set(res) == {0, 1}

    def test_stops_at_r_equals_four(self):
        res = stepdown(order_pvalues([0.001, 0.019, 0.024, 0.03, 0.06]), LR_2_5)
        assert res.detail == {"r": 4}
        assert rejected_set(res) == {0, 1, 2, 3}

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            stepdown(order_pvalues([0.1, 0.2]), LR_2_5)

    def test_matches_oracle_on_random_inputs(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            n = int(rng.integers(1, 9))
            k = int(rng.integers(1, n + 1))
            s = random_schedule(rng, k, n)
            p = random_pvalues(rng, n, list(s.alphas))
            assert rejected_set(stepdown(p, s)) == stepdown_oracle(p.values, k, s.alphas)


class TestStepup:
    def test_rejects_all_when_top_clears(self):
        p = order_pvalues([0.0, 0.0, 0.0])
        s = validate_schedule(1, 3, (0.01, 0.02, 0.05))
        res = stepup(p, s)
        assert rejected_set(res) == {0, 1, 2}
        assert res.detail == {"r": 3}

    def test_breaks_chain_at_r_equals_three(self):
        res = stepup(order_pvalues([0.001, 0.01, 0.02, 0.04, 0.2]), LR_2_5)
        assert res.detail == {"r": 3}
        assert rejected_set(res) == {0, 1, 2}

    def test_all_fail_keeps_automatic_rejections(self):
        p = order_pvalues([0.1, 0.2, 0.9])
        s = validate_schedule(3, 3, (0.05,))
        res = stepup(p, s)
        assert rejected_set(res) == {0, 1}
        assert res.detail == {"r": None}

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            stepup(order_pvalues([0.1, 0.2]), LR_2_5)

    def test_matches_oracle_on_random_inputs(self):
        rng = np.random.default_rng(13)
        for _ in range(300):
            n = int(rng.integers(1, 9))
            k = int(rng.integers(1, n + 1))
            s = random_schedule(rng, k, n)
            p = random_pvalues(rng, n, list(s.alphas))
            assert rejected_set(stepup(p, s)) == stepup_oracle(p.values, k, s.alphas)


class TestClosedTesting:
    def test_three_hypotheses_worked_example(self):
        res = closed_testing(order_pvalues([0.01, 0.04, 0.5]), constant_family(2, 3, 0.05))
        assert rejected_set(res) == {0}
        assert res.detail["accepted_cardinalities"] == (2, 3)

    def test_all_zero_rejects_everything(self):
        res = closed_testing(order_pvalues([0.0, 0.0, 0.0, 0.0]), constant_family(2, 4, 0.05))
        assert rejected_set(res) == {0, 1, 2, 3}

    def test_k_equals_n_single_subset(self):
        fam = validate_family(3, 3, [[0.2]])
        res = closed_testing(order_pvalues([0.15, 0.5, 0.6]), fam)
        # only the full set is tested: P_(3) = 0.6 > 0.2, so just the n-1 automatics
        assert rejected_set(res) == {0, 1}
        res2 = closed_testing(order_pvalues([0.15, 0.2, 0.19]), fam)
        assert rejected_set(res2) == {0, 1, 2}

    def test_too_large(self):
        n = 19
        with pytest.raises(TooLargeError):
            closed_testing(order_pvalues([0.5] * n), constant_family(1, n, 0.05))

    def test_respects_custom_limit(self, monkeypatch):
        """The limit is read when closed_testing runs, not when it is defined."""
        with pytest.raises(TooLargeError) as exc:
            closed_testing(order_pvalues([0.5] * 19), constant_family(1, 19, 0.05))
        assert (exc.value.n, exc.value.limit) == (19, procedures.EXHAUSTIVE_LIMIT)
        monkeypatch.setattr(procedures, "EXHAUSTIVE_LIMIT", 4)
        with pytest.raises(TooLargeError, match="at most n=4"):
            closed_testing(order_pvalues([0.5] * 5), constant_family(1, 5, 0.05))

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            closed_testing(order_pvalues([0.1, 0.2]), constant_family(2, 3, 0.05))

    @staticmethod
    def _random_case(rng, trial, n):
        """A (p, family) pair at size n, cycling k through 1, n and a random
        value, and the family through random, stepdown-as and stepup-as."""
        k = (1, n, int(rng.integers(1, n + 1)))[trial % 3]
        if trial % 4 == 0:
            fam = stepdown_as_family(random_schedule(rng, k, n))
        elif trial % 4 == 1:
            fam = stepup_as_family(random_schedule(rng, k, n))
        else:
            fam = random_family(rng, k, n)
        return random_pvalues(rng, n, [v for row in fam.rows for v in row]), fam

    def test_matches_combinations_oracle(self):
        rng = np.random.default_rng(17)
        for trial in range(300):
            p, fam = self._random_case(rng, trial, int(rng.integers(1, 10)))
            got = rejected_set(closed_testing(p, fam))
            want = closed_testing_oracle(p.values, fam.k, fam.rows)
            assert got == want

    def test_equals_hommel_beyond_ten(self):
        """Theorem 5.1 at n = 15..18: the exhaustive engine and the Hommel
        shortcut reject the same sets."""
        rng = np.random.default_rng(37)
        for n in range(15, 19):
            for trial in range(6):
                p, fam = self._random_case(rng, trial, n)
                assert closed_testing(p, fam).rejected == generalized_hommel(p, fam).rejected

    @pytest.mark.parametrize(
        "values, k, rows, want_set, want_cards",
        [
            # n = 1: the one hypothesis is its own subset
            ([0.05], 1, [[0.05]], {0}, ()),
            ([math.nextafter(0.05, 1.0)], 1, [[0.05]], set(), (1,)),
            # k = n: only the full set is tested, on its largest p-value
            ([0.15, 0.5, 0.6, 0.1, 0.3], 5, [[0.6]], {0, 1, 2, 3, 4}, ()),
            ([0.15, 0.5, 0.6, 0.1, 0.3], 5, [[0.59]], {0, 1, 3, 4}, (5,)),
            # all-zero p-values clear every value, even a zero one
            ([0.0] * 4, 2, [[0.0], [0.0, 0.0], [0.0, 0.0, 0.0]], {0, 1, 2, 3}, ()),
            # p-values exactly on Holm's values 0.3/m reject everything ...
            ([0.3, 0.1, 0.15], 1, [[0.3], [0.15, 0.15], [0.1, 0.1, 0.1]], {0, 1, 2}, ()),
            # ... and one ulp above the last value keeps the largest
            ([math.nextafter(0.3, 1.0), 0.1, 0.15], 1, [[0.3], [0.15, 0.15], [0.1, 0.1, 0.1]], {1, 2}, (1,)),
            # zero family values reject only zero p-values, of either sign
            ([0.0, 0.5, -0.0, 0.2], 1, [[0.0], [0.0, 0.0], [0.0] * 3, [0.0] * 4], {0, 2}, (1, 2)),
            ([-0.0, -0.0, 0.4], 2, [[0.0], [0.0, 0.0]], {0, 1}, (2,)),
        ],
    )
    def test_edge_cases(self, values, k, rows, want_set, want_cards):
        fam = validate_family(k, len(values), rows)
        res = closed_testing(order_pvalues(values), fam)
        assert closed_testing_detail_oracle(values, k, fam.rows) == (want_set, want_cards)
        assert rejected_set(res) == want_set
        assert res.detail == {"accepted_cardinalities": want_cards}

    @staticmethod
    def _bits(row, count):
        """Bits 0..count-1 of the int ``row`` as a bool array."""
        data = np.frombuffer(row.to_bytes(count // 8 + 1, "little"), np.uint8)
        return np.unpackbits(data, count=count, bitorder="little").astype(bool)

    def test_tables_hold_each_rank_of_the_combinations(self):
        """_tables(n, m) holds m rows of n + 1 passes and m rows of n
        holders, and bit j of each stands for the j-th size-m subset as
        itertools.combinations lists them: passes[r - 1][x] are the subsets
        whose rank-r member is at x or beyond, holders[r - 1][x] those
        holding x at rank r or beyond, and no int has a bit past the last
        subset. Every subset for n <= 12, every 97th at n = 18."""
        for n in (*range(13), 18):
            step = 97 if n == 18 else 1
            for m in range(n + 1):
                count = math.comb(n, m)
                subsets = list(itertools.islice(itertools.combinations(range(n), m), 0, None, step))
                members = np.array(subsets, dtype=int).reshape(len(subsets), m)
                passes, holders = procedures._tables(n, m)
                assert len(passes) == len(holders) == m
                for r in range(1, m + 1):
                    assert len(passes[r - 1]) == n + 1 and len(holders[r - 1]) == n
                    for x, row in enumerate(passes[r - 1]):
                        assert row >> count == 0
                        assert np.array_equal(self._bits(row, count)[::step], members[:, r - 1] >= x)
                    for x, row in enumerate(holders[r - 1]):
                        assert row >> count == 0
                        assert np.array_equal(self._bits(row, count)[::step], (members[:, r - 1 :] == x).any(axis=1))

    def test_tables_built_in_any_order_decide_as_the_oracle(self):
        """Sizes 10, 6, 12, 18, 1 in turn, from an empty table cache, so
        some tables are built by Pascal's rule on the way up and others
        read back from it. Up to n = 12 the decisions are checked against
        the subset oracle, at 18 against the Hommel shortcut (Theorem 5.1)."""
        procedures._tables.cache_clear()
        rng = np.random.default_rng(29)
        for n in (10, 6, 12, 18, 1):
            # quadratically spaced p-values under Simes rows reject part of the set
            k = min(2, n)
            cases = [(order_pvalues([0.003 * i * i for i in range(n, 0, -1)]), simes_family(k, n, 0.3))]
            cases += [self._random_case(rng, trial, n) for trial in range(3)]
            for p, fam in cases:
                res = closed_testing(p, fam)
                if n <= 12:
                    want_set, want_cards = closed_testing_detail_oracle(p.values, fam.k, fam.rows)
                    assert rejected_set(res) == want_set
                    assert res.detail == {"accepted_cardinalities": want_cards}
                else:
                    assert res.rejected == generalized_hommel(p, fam).rejected

    def test_tables_memory(self):
        """Built from an empty cache, the tables of all n <= 14 take under
        1 MB and those of all n <= 18 under 16 MB, as tracemalloc counts
        what they keep allocated."""
        procedures._tables.cache_clear()
        tracemalloc.start()
        try:
            for limit, bound in ((14, 1_000_000), (18, 16_000_000)):
                for n in range(limit + 1):
                    for m in range(n + 1):
                        procedures._tables(n, m)
                assert tracemalloc.get_traced_memory()[0] < bound
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("n", range(1, 19))
    def test_accept_all_and_reject_all(self, n):
        """Every p-value above every value accepts every subset, so only the
        k - 1 automatic rejections stand and every size is accepted; every
        p-value 0.0 rejects everything. For k in {1, 2, n}, on the constant
        and the Simes family, against the subset oracle up to n = 12 and the
        Hommel shortcut (Theorem 5.1) above."""
        rng = np.random.default_rng(n)
        high = order_pvalues(1.0 - rng.permutation(n) / 1000)
        zero = order_pvalues([0.0] * n)
        for k in sorted({1, min(2, n), n}):
            for fam in (constant_family(k, n, 0.05), simes_family(k, n, 0.3)):
                automatic = set(high.order[: k - 1])
                for p, want_set, want_cards in ((high, automatic, tuple(range(k, n + 1))), (zero, set(range(n)), ())):
                    res = closed_testing(p, fam)
                    assert rejected_set(res) == want_set
                    assert res.detail == {"accepted_cardinalities": want_cards}
                    if n <= 12:
                        assert closed_testing_detail_oracle(p.values, k, fam.rows) == (want_set, want_cards)
                    else:
                        assert res.rejected == generalized_hommel(p, fam).rejected

    def test_subset_decisions_agree_with_evaluate_local_test(self):
        """The engine's per-subset decision is the one evaluate_local_test
        makes on the materialized subset, and the cardinalities it accepts
        are the ones reported: rejected set and ``detail`` against the
        subset-by-subset oracle at every n up to 10, Simes rows included."""
        rng = np.random.default_rng(31)
        for trial in range(240):
            n = trial % 10 + 1
            if trial % 5 == 4:
                fam = simes_family(int(rng.integers(1, n + 1)), n, float(rng.choice([0.05, 0.3, 0.9])))
                p = random_pvalues(rng, n, [v for row in fam.rows for v in row])
            else:
                p, fam = self._random_case(rng, trial, n)
            res = closed_testing(p, fam)
            want_set, want_cards = closed_testing_detail_oracle(p.values, fam.k, fam.rows)
            assert rejected_set(res) == want_set
            assert res.detail == {"accepted_cardinalities": want_cards}


class TestGeneralizedHommel:
    SIMES_1_4 = simes_family(1, 4, 0.05)

    def test_no_surviving_cardinality_rejects_all(self):
        res = generalized_hommel(order_pvalues([0.01, 0.02, 0.03, 0.04]), self.SIMES_1_4)
        assert res.detail == {"j_hat": None}
        assert rejected_set(res) == {0, 1, 2, 3}

    def test_survivor_at_three(self):
        res = generalized_hommel(order_pvalues([0.01, 0.02, 0.06, 0.2]), self.SIMES_1_4)
        assert res.detail == {"j_hat": 3}
        assert rejected_set(res) == {0}

    def test_all_ones_keeps_automatic_rejections(self):
        fam = constant_family(3, 5, 0.05)
        res = generalized_hommel(order_pvalues([1.0] * 5), fam)
        assert res.detail == {"j_hat": 5}
        assert rejected_set(res) == {0, 1}

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            generalized_hommel(order_pvalues([0.1, 0.2]), self.SIMES_1_4)

    def test_matches_oracle_on_random_inputs(self):
        rng = np.random.default_rng(19)
        for _ in range(300):
            n = int(rng.integers(1, 9))
            k = int(rng.integers(1, n + 1))
            fam = random_family(rng, k, n)
            p = random_pvalues(rng, n, [v for row in fam.rows for v in row])
            got = generalized_hommel(p, fam)
            want_set, want_j = hommel_oracle(p.values, k, fam.rows)
            assert rejected_set(got) == want_set
            assert got.detail["j_hat"] == want_j


def j_hat(p, f):
    return generalized_hommel(p, f).detail["j_hat"]


class TestEstimateTrueNulls:
    def test_all_ones_estimates_n(self):
        assert j_hat(order_pvalues([1.0] * 4), constant_family(2, 4, 0.05)) == 4

    def test_all_zeros_gives_marker(self):
        assert j_hat(order_pvalues([0.0] * 4), constant_family(2, 4, 0.05)) is None

    def test_simes_worked_example(self):
        fam = simes_family(1, 4, 0.05)
        assert j_hat(order_pvalues([0.01, 0.02, 0.06, 0.2]), fam) == 3

    def test_constant_family_closed_form(self):
        """With constant rows the estimate is n - j~ + k, where j~ is the
        first rank whose p-value exceeds the stepdown schedule value."""
        rng = np.random.default_rng(23)
        for _ in range(200):
            n = int(rng.integers(1, 10))
            k = int(rng.integers(1, n + 1))
            alpha = float(rng.uniform(0.01, 0.5))
            p = random_pvalues(rng, n, list(lehmann_romano_schedule(k, n, alpha).alphas))
            estimate = j_hat(p, constant_family(k, n, alpha))
            sorted_vals = p.sorted_values()
            j_tilde = next(
                (j for j in range(k, n + 1) if sorted_vals[j - 1] > k * alpha / (n - j + k)), None
            )
            assert estimate == (n - j_tilde + k if j_tilde is not None else None)


class TestScheduleConstructors:
    def test_lehmann_romano_holm_at_k1(self):
        s = lehmann_romano_schedule(1, 4, 0.05)
        assert s.alphas == tuple(0.05 / (4 - i + 1) for i in range(1, 5))

    def test_lehmann_romano_k_equals_n(self):
        assert lehmann_romano_schedule(4, 4, 0.1).alphas == (0.1,)

    def test_lehmann_romano_hand_values(self):
        assert LR_2_5.alphas == (0.02, 0.025, 0.1 / 3, 0.05)

    def test_romano_shaikh_constant_base_collapses(self):
        base = validate_schedule(1, 4, (0.25, 0.25, 0.25, 0.25))
        s = romano_shaikh_schedule(base, 0.05)  # d1 = 4*0.25 = 1 exactly
        assert s.alphas == (0.05 / 4,) * 4

    def test_romano_shaikh_hand_values(self):
        base = validate_schedule(1, 4, (0.25, 0.5, 0.75, 1.0))
        s = romano_shaikh_schedule(base, 0.05)
        want = [0.05 * a / 2.125 for a in base.alphas]  # normalization constant checked in test_bounds
        assert all(math.isclose(g, w, rel_tol=1e-15) for g, w in zip(s.alphas, want))
        assert math.isclose(s.alphas[0], 0.005882352941176471, rel_tol=1e-12)
        assert math.isclose(s.alphas[3], 0.023529411764705882, rel_tol=1e-12)

    def test_romano_shaikh_single_point(self):
        base = validate_schedule(1, 1, (0.5,))
        assert math.isclose(romano_shaikh_schedule(base, 0.05).alphas[0], 0.05, rel_tol=1e-15)

    @given(
        st.integers(1, 40).flatmap(lambda n: st.tuples(st.integers(1, n), st.just(n))).flatmap(
            lambda kn: st.tuples(
                st.just(kn),
                st.lists(st.floats(0.0, 1.0), min_size=kn[1] - kn[0] + 1, max_size=kn[1] - kn[0] + 1).map(sorted),
            )
        ),
        st.one_of(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), st.just(math.nextafter(1.0, 0.0))),
    )
    @settings(max_examples=200, deadline=None)
    def test_romano_shaikh_equals_the_scalar_formula(self, case, alpha):
        """One array expression, float for float the scalar alpha * a / d."""
        (k, n), alphas = case
        base = validate_schedule(k, n, alphas)
        if max(alphas) == 0.0:
            return
        s = romano_shaikh_schedule(base, alpha)
        d = d1(base)
        assert s.alphas == tuple(alpha * a / d for a in base.alphas)
        assert all(type(a) is float for a in s.alphas)
        assert s._array.tolist() == list(s.alphas)

    def test_romano_shaikh_value_above_one_is_refused(self, monkeypatch):
        """The range check stays: a value rounded above 1 is refused with
        its position, as CriticalSchedule would."""
        monkeypatch.setattr(procedures, "d1", lambda base: 0.5)
        with pytest.raises(OutOfRangeError) as exc:
            romano_shaikh_schedule(validate_schedule(1, 3, (0.1, 0.3, 0.9)), 0.9)
        assert exc.value.position == 3 and exc.value.value == 0.9 * 0.9 / 0.5

    def test_degenerate_base(self):
        with pytest.raises(DegenerateScheduleError):
            romano_shaikh_schedule(validate_schedule(1, 3, (0.0, 0.0, 0.0)), 0.05)
        with pytest.raises(DegenerateScheduleError):
            romano_shaikh_schedule(validate_schedule(1, 3, (-0.0, 0.0, -0.0)), 0.05)
        with pytest.raises(DegenerateScheduleError):
            scaled_family(validate_schedule(1, 3, (0.0, 0.0, 0.0)), 0.05)

    @pytest.mark.parametrize(
        "procedure, schedule", [("hommel", "lehmann-romano"), ("closed", "simes"), ("stepdown", None)]
    )
    def test_resolver_builds_only_named_pairs(self, procedure, schedule):
        """critical_values never falls back to another schedule for a pair
        check_procedure would refuse or a schedule it was not given."""
        with pytest.raises(ConfigError, match=repr(schedule)):
            procedures.critical_values(procedure, schedule, 1, 4, 0.05, base=None)


def resolved(procedure, schedule):
    """critical_values for the pair at k = 2, n = 6, as a function of alpha."""
    base = lambda: lehmann_romano_schedule(2, 6, 0.05)  # noqa: E731
    return lambda alpha: procedures.critical_values(procedure, schedule, 2, 6, alpha, base=base)


# Every constructor that takes alpha, named, and critical_values for every
# procedure/schedule pair it resolves.
ALPHA_TAKERS = {
    "lehmann_romano_schedule": lambda a: lehmann_romano_schedule(2, 6, a),
    "romano_shaikh_schedule": lambda a: romano_shaikh_schedule(lehmann_romano_schedule(2, 6, 0.05), a),
    "constant_family": lambda a: constant_family(2, 6, a),
    "simes_family": lambda a: simes_family(2, 6, a),
    "scaled_family": lambda a: scaled_family(lehmann_romano_schedule(2, 6, 0.05), a),
    **{f"critical_values-{procedure}-{schedule}": resolved(procedure, schedule)
       for procedure in procedures.PROCEDURES for schedule in procedures.SCHEDULES
       if not (procedure in FAMILY_PROCEDURES and schedule == "lehmann-romano")},
}


@pytest.mark.parametrize("name", ALPHA_TAKERS)
@pytest.mark.parametrize("alpha", [np.float32(0.05), np.float64(0.3), Fraction(1, 20), Decimal("0.05"), "0.05", None,
                                   True], ids=["float32", "float64", "Fraction", "Decimal", "str", "None", "bool"])
def test_alpha_is_a_float_or_refused(name, alpha):
    """A numpy float alpha builds the float64 values of float(alpha); a
    Fraction, a Decimal, a string, None or a bool is refused, naming alpha.
    A float32 alpha used to build a float32 schedule, a Fraction an object
    array, and the others raised TypeError."""
    build = ALPHA_TAKERS[name]
    if not isinstance(alpha, np.floating):
        with pytest.raises(ConfigError, match=re.escape(f"alpha must be a real number, got {alpha!r}")):
            build(alpha)
        return
    got, want = build(alpha), build(float(alpha))
    assert got._array.dtype == np.float64 and np.array_equal(got._array, want._array) and got == want


class TestFamilyConstructors:
    def test_constant_family_small(self):
        fam = constant_family(1, 2, 0.05)
        assert fam.rows == ((0.05,), (0.025, 0.025))

    def test_constant_family_k_equals_n(self):
        assert constant_family(3, 3, 0.25).rows == ((0.25,),)
        assert math.isclose(constant_family(3, 3, 0.2).value(3, 3), 0.2, rel_tol=1e-15)

    def test_scaled_family_constant_base_collapses(self):
        base = validate_schedule(2, 4, (0.25, 0.25, 0.25))
        fam = scaled_family(base, 0.05)  # d1 = 4*0.25/2 = 0.5 exactly
        for m in range(2, 5):
            for i in range(2, m + 1):
                assert fam.value(i, m) == 0.05 * 0.25 / 0.5

    def test_scaled_family_top_row_is_romano_shaikh(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            k = int(rng.integers(1, 5))
            n = k + int(rng.integers(0, 6))
            alpha = float(rng.uniform(0.01, 0.5))
            base = random_schedule(rng, k, n)
            if max(base.alphas) == 0.0:
                continue
            fam = scaled_family(base, alpha)
            sched = romano_shaikh_schedule(base, alpha)
            assert fam.row(n) == sched.alphas  # bitwise: the family is built from the schedule

    def test_stepdown_as_family_rows_constant(self):
        fam = stepdown_as_family(LR_2_5)
        assert fam.row(5) == (LR_2_5.alpha(2),) * 4
        assert fam.row(2) == (LR_2_5.alpha(5),)
        assert fam.row(4) == (LR_2_5.alpha(3),) * 3  # alpha_3 = 0.025

    def test_stepup_as_family_rows(self):
        s = validate_schedule(1, 3, (0.1, 0.2, 0.3))
        fam = stepup_as_family(s)
        assert fam.rows == ((0.3,), (0.2, 0.3), (0.1, 0.2, 0.3))
        # diagonals (l, (n-i)+l) are constant in l
        assert fam.value(1, 2) == fam.value(2, 3)

    def test_formed_families_equal_their_tables(self):
        """Each formed constructor's family equals its table twin, the
        triangle it stood for when it was built as one, in ==, hash and repr,
        and its row(m) and value(i, m) are the twin's, bit for bit, read
        from the schedule before any row tuple is built."""
        rng = np.random.default_rng(18)
        for trial in range(90):
            n = int(rng.integers(1, 40))
            k = (1, n, int(rng.integers(1, n + 1)))[trial % 3]
            alpha = float(rng.uniform(0.001, 0.999))
            s = random_schedule(rng, k, n)
            lehmann_romano = lehmann_romano_schedule(k, n, alpha)
            cases = [
                (stepdown_as_family(s), stepdown_table(s)),
                (stepup_as_family(s), stepup_table(s)),
                (constant_family(k, n, alpha), stepdown_table(lehmann_romano)),
                (scaled_family(lehmann_romano, alpha), stepup_table(romano_shaikh_schedule(lehmann_romano, alpha))),
            ]
            if s.alphas[-1] > 0.0:
                cases.append((scaled_family(s, alpha), stepup_table(romano_shaikh_schedule(s, alpha))))
            for fam, table in cases:
                twin = validate_family(k, n, table)
                for m in range(k, n + 1):
                    assert list(map(repr, fam.row(m))) == list(map(repr, twin.row(m)))
                    assert [repr(fam.value(i, m)) for i in range(k, m + 1)] == list(map(repr, twin.row(m)))
                assert "rows" not in vars(fam)
                assert fam == twin and twin == fam and hash(fam) == hash(twin) and repr(fam) == repr(twin)
                assert fam == validate_family(k, n, fam.rows)
                assert fam.rows is fam.rows

    def test_formed_and_table_families_decide_alike(self):
        """generalized_hommel and bind_batch reject the same hypotheses with
        a formed family as with its table twin, on p-values with ties and
        values planted on the schedule, and on p-values one ulp above every
        schedule value, the top one on its value or above it; at n <= 60,
        n = 1 and k = n included, without building a row tuple; so does
        closed_testing, at n <= 12."""
        rng = np.random.default_rng(60)
        sizes = [(1, 1), (5, 5), (60, 60), (60, 1), (60, 2)]
        for trial in range(150):
            n = int(rng.integers(1, 61))
            sizes.append((n, (1, n, int(rng.integers(1, n + 1)))[trial % 3]))
        for n, k in sizes:
            s = random_schedule(rng, k, n)
            for fam, table in ((stepdown_as_family(s), stepdown_table(s)), (stepup_as_family(s), stepup_table(s))):
                twin = validate_family(k, n, table)
                batch = [random_pvalues(rng, n, pool=list(s.alphas)) for _ in range(4)]
                batch += [order_pvalues(one_ulp_above(s, top_on_value)) for top_on_value in (True, False)]
                for p in batch:
                    got, want = generalized_hommel(p, fam), generalized_hommel(p, twin)
                    assert (got.rejected, got.detail) == (want.rejected, want.detail)
                sorted_p = np.array([p.sorted_values() for p in batch])
                for procedure in FAMILY_PROCEDURES:
                    counts = procedures.bind_batch(procedure, fam)(sorted_p)
                    assert counts.tolist() == procedures.bind_batch(procedure, twin)(sorted_p).tolist()
                assert "rows" not in vars(fam)
                if n <= 12:
                    assert closed_testing(batch[0], fam).rejected == closed_testing(batch[0], twin).rejected

    def test_stepwise_family_rows_equal_their_per_entry_definition(self):
        """Every row of the stepdown and stepup forms holds, entry for entry,
        alpha_{n-m+k} and alpha_{n-m+i}, on schedules with ties and zeros."""
        rng = np.random.default_rng(43)
        for trial in range(60):
            n = int(rng.integers(1, 30))
            k = (1, n, int(rng.integers(1, n + 1)))[trial % 3]
            s = random_schedule(rng, k, n)
            down, up = stepdown_as_family(s), stepup_as_family(s)
            for m in range(k, n + 1):
                assert down.row(m) == tuple(s.alpha(n - m + k) for i in range(k, m + 1))
                assert up.row(m) == tuple(s.alpha(n - m + i) for i in range(k, m + 1))

    def test_simes_family_values(self):
        fam = simes_family(1, 4, 0.04)
        assert fam.row(4) == (0.01, 0.02, 0.03, 0.04)

    TABLE_BUILDERS = {"simes": lambda base: simes_family(base.k, base.n, 0.05)}

    @pytest.mark.parametrize("name", sorted(TABLE_BUILDERS))
    def test_oversized_table_refused_before_building(self, name, monkeypatch):
        """With the cap lowered to 100,000 entries, n = 447 (100,128 entries,
        about 3 MB if built) is refused before any row runs, and n = 446
        (99,681 entries) is built."""
        build = self.TABLE_BUILDERS[name]
        monkeypatch.setattr(procedures, "MAX_FAMILY_ENTRIES", 100_000)
        over = lehmann_romano_schedule(1, 447, 0.05)
        tracemalloc.start()
        try:
            with pytest.raises(FamilyTooLargeError) as exc:
                build(over)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (exc.value.n, exc.value.entries, exc.value.cap) == (447, 100_128, 100_000)
        assert "n=447" in str(exc.value) and "100000" in str(exc.value)
        assert peak < 64_000
        assert build(lehmann_romano_schedule(1, 446, 0.05)).n == 446

    FORMED_BUILDERS = {
        "constant": lambda base: constant_family(base.k, base.n, 0.05),
        "scaled": lambda base: scaled_family(base, 0.05),
        "stepdown-as": stepdown_as_family,
        "stepup-as": stepup_as_family,
    }

    @pytest.mark.parametrize("name", sorted(FORMED_BUILDERS))
    def test_formed_family_builds_no_table(self, name):
        """A stepdown or stepup form holds its schedule only: at n = 10^5,
        where the table would hold 5 * 10^9 entries, building it and
        deciding Hommel with it peak under 16 MB (d1's transforms are most
        of that for ``scaled``), and no row tuple is built."""
        n = 10**5
        values = np.random.default_rng(5).uniform(size=n)
        values[: n // 100] = 1e-12
        p = order_pvalues(values)
        base = lehmann_romano_schedule(1, n, 0.05)
        tracemalloc.start()
        try:
            fam = self.FORMED_BUILDERS[name](base)
            result = generalized_hommel(p, fam)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        assert (fam.k, fam.n, fam._form) == (1, n, "stepup" if name in ("scaled", "stepup-as") else "stepdown")
        assert "rows" not in vars(fam)
        assert result.num_rejected >= n // 100 and result.detail["j_hat"] is not None

    def test_entry_cap_sizing(self):
        """About 32 bytes per entry keeps the largest table under 1 GB; at
        k = 1 the cap admits n = 7745, far above n = 1000."""
        assert MAX_FAMILY_ENTRIES * 32 < 2**30
        assert 7745 * 7746 // 2 <= MAX_FAMILY_ENTRIES < 7746 * 7747 // 2


size_and_k = st.integers(min_value=1, max_value=8).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(min_value=1, max_value=n))
)
open_unit = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)


@given(size_and_k, open_unit, st.data())
@settings(max_examples=150, deadline=None)
def test_composed_families_match_closed_forms(nk, alpha, data):
    """constant_family has rows k*alpha/m and scaled_family entries
    alpha * base_{n-m+i} / d1(base), float for float."""
    n, k = nk
    fam = constant_family(k, n, alpha)
    assert fam.rows == tuple((k * alpha / m,) * (m - k + 1) for m in range(k, n + 1))
    base_values = sorted(data.draw(st.lists(st.floats(0.0, 1.0), min_size=n - k + 1, max_size=n - k + 1)))
    if base_values[-1] == 0.0:
        return  # a zero base has no Romano-Shaikh rescaling
    base = validate_schedule(k, n, base_values)
    d = d1(base)
    want = tuple(tuple(alpha * base.alpha(n - m + i) / d for i in range(k, m + 1)) for m in range(k, n + 1))
    assert scaled_family(base, alpha).rows == want


# Schedule entries: ties, both zeros and the ends of [0, 1] are common.
schedule_entry = st.sampled_from([0.0, -0.0, 0.05, 0.3, 1.0]) | st.floats(0.0, 1.0)


def schedule_values(width):
    """Nondecreasing values, or one value repeated: a constant schedule."""
    return st.one_of(
        schedule_entry.map(lambda v: [v] * width),
        st.lists(schedule_entry, min_size=width, max_size=width).map(sorted),
    )


def flip_zeros(values):
    """The same values with 0.0 and -0.0 swapped: equal under ==, not in repr."""
    return [-v if v == 0.0 else v for v in values]


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_family_eq_and_hash_follow_rows(data):
    """For two schedules of one size, n <= 60 with k = 1 and k = n often,
    the second often the first with its zeros' signs flipped or constant,
    every pair among their stepdown and stepup forms and the tables of
    those compares with == exactly as their ``rows`` do, and equal pairs
    hash equal. A form builds no ``rows`` for either."""
    n = data.draw(st.integers(1, 60))
    k = data.draw(st.sampled_from([1, n]) | st.integers(1, n))
    first = data.draw(schedule_values(n - k + 1))
    second = data.draw(st.one_of(st.just(first), st.just(flip_zeros(first)), schedule_values(n - k + 1)))
    families = []
    for values in (first, second):
        s = validate_schedule(k, n, values)
        families += [stepdown_as_family(s), stepup_as_family(s)]
        families += [validate_family(k, n, form(s).rows) for form in (stepdown_as_family, stepup_as_family)]
    pairs = list(itertools.product(range(len(families)), repeat=2))
    equal = [families[a] == families[b] for a, b in pairs]
    assert [families[a] != families[b] for a, b in pairs] == [not e for e in equal]
    hashes = [hash(fam) for fam in families]
    assert not any("rows" in vars(fam) for fam in families if fam._form is not None)
    assert equal == [families[a].rows == families[b].rows for a, b in pairs]
    assert all(hashes[a] == hashes[b] for (a, b), e in zip(pairs, equal) if e)


def test_family_eq_needs_the_same_class_and_size():
    """A family never equals another type, and two tables with one array,
    here the values of k = 1, n = 2 and of k = 2, n = 3, differ by size."""
    fam = constant_family(1, 3, 0.05)
    assert fam.__eq__(fam.rows) is NotImplemented and fam != fam.rows
    assert fam.__eq__(lehmann_romano_schedule(1, 3, 0.05)) is NotImplemented
    rows = [[0.05], [0.05, 0.05]]
    small, shifted = validate_family(1, 2, rows), validate_family(2, 3, rows)
    assert np.array_equal(small._array, shifted._array) and small != shifted


def test_family_values_compare_and_hash_at_scale():
    """At n = 10^5, where a form's table would hold 5 * 10^9 entries, two
    generalized Hommel results with the constant family compare equal, the
    Romano-Shaikh family differs from the constant one, and both hash:
    all within 1 s and a 100 MB tracemalloc peak."""
    n = 10**5
    values = np.random.default_rng(8).uniform(size=n)
    values[: n // 100] = 1e-12
    p = order_pvalues(values)
    start = time.perf_counter()
    tracemalloc.start()
    try:
        constant = constant_family(2, n, 0.05)
        results = [generalized_hommel(p, constant_family(2, n, 0.05)) for _ in range(2)]
        assert results[0] == results[1]
        scaled = scaled_family(lehmann_romano_schedule(2, n, 0.05), 0.05)
        assert scaled != constant and constant != scaled
        hash(constant), hash(scaled)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 1.0
    assert peak < 100 * 2**20
    assert not any("rows" in vars(fam) for fam in (constant, scaled, results[0].family, results[1].family))


def test_form_array_is_its_rows_flattened():
    """A form's ``_array``, gathered from its schedule, is its rows read
    one after another, repr for repr (-0.0 included), for both forms at
    n <= 60 with k = 1 and k = n; reading it builds no ``rows``."""
    rng = np.random.default_rng(30)
    sizes = [(1, 1), (60, 60), (60, 1)]
    for trial in range(90):
        n = int(rng.integers(1, 61))
        sizes.append((n, (1, n, int(rng.integers(1, n + 1)))[trial % 3]))
    for n, k in sizes:
        s = random_schedule(rng, k, n)
        for values in (s._array, np.where(s._array == 0.0, -0.0, s._array)):
            signed = validate_schedule(k, n, values)
            for form in (stepdown_as_family, stepup_as_family):
                fam = form(signed)
                gathered = fam._array
                assert "rows" not in vars(fam)
                want = [repr(v) for row in form(signed).rows for v in row]
                assert list(map(repr, gathered.tolist())) == want


@given(
    size_and_k,
    st.data(),
)
@settings(max_examples=120, deadline=None)
def test_automatic_rejections_and_stepwise_dominance(nk, data):
    """Every procedure rejects the k-1 most significant hypotheses, and
    stepup rejects a superset of stepdown under the same schedule."""
    n, k = nk
    values = data.draw(
        st.lists(st.floats(0.0, 1.0, allow_nan=False), min_size=n, max_size=n)
    )
    alphas = sorted(data.draw(st.lists(st.floats(0.0, 1.0, allow_nan=False), min_size=n - k + 1, max_size=n - k + 1)))
    p = order_pvalues(values)
    s = validate_schedule(k, n, alphas)
    down = stepdown(p, s)
    up = stepup(p, s)
    fam = stepdown_as_family(s)
    closed = closed_testing(p, fam)
    hommel = generalized_hommel(p, fam)
    automatic = set(p.order[: k - 1])
    for res in (down, up, closed, hommel):
        assert automatic <= rejected_set(res)
        assert res.num_rejected >= k - 1
    assert rejected_set(down) <= rejected_set(up)


def test_monotone_in_pvalues():
    """Lowering one p-value never shrinks a rule's rejection count: stepdown
    and stepup with a schedule, generalized Hommel and closed testing with
    a random table and with the schedule's stepdown and stepup forms,
    sometimes onto one of their critical values. The batch kernels keep
    the contract bind_batch states: raising the entries of sorted rows one
    by one, each to at most the entry after it, never raises a count."""
    rng = np.random.default_rng(31)
    for _ in range(200):
        n = int(rng.integers(1, 9))
        k = int(rng.integers(1, n + 1))
        s = random_schedule(rng, k, n)
        table = random_family(rng, k, n)
        families = (table, stepdown_as_family(s), stepup_as_family(s))
        pool = np.concatenate((s.alphas, table._array))
        values = rng.uniform(0.0, 1.0, n).tolist()
        pos = int(rng.integers(0, n))
        lowered = list(values)
        onto = min(values[pos], float(rng.choice(pool)))
        lowered[pos] = onto if rng.random() < 0.5 else values[pos] * rng.uniform()
        rules = [(stepdown, s), (stepup, s)]
        rules += [(rule, f) for rule in (generalized_hommel, closed_testing) for f in families]
        for rule, critical in rules:
            before = rule(order_pvalues(values), critical).num_rejected
            after = rule(order_pvalues(lowered), critical).num_rejected
            assert after >= before

        kernels = [procedures.bind_batch(name, s) for name in ("stepdown", "stepup")]
        kernels += [procedures.bind_batch(name, f) for name in FAMILY_PROCEDURES for f in families]
        raised = np.array([random_pvalues(rng, n, pool.tolist())._sorted_array for _ in range(20)])
        counts = [kernel(raised) for kernel in kernels]
        for i in range(n - 1, -1, -1):
            low, high = raised[:, i], raised[:, i + 1] if i + 1 < n else np.ones(len(raised))
            # The next entry itself, a critical value between, or a uniform draw between.
            raised[:, i] = np.select(
                [rng.random(len(raised)) < 1 / 3, rng.random(len(raised)) < 1 / 2],
                [high, np.clip(rng.choice(pool, len(raised)), low, high)],
                rng.uniform(low, high),
            )
            for j, kernel in enumerate(kernels):
                now = kernel(raised)
                assert (now <= counts[j]).all()
                counts[j] = now


def test_permutation_equivariance_distinct_values():
    """With all-distinct p-values, relabeling hypotheses relabels the
    rejections identically for all four procedures; with ties, the count
    is still invariant."""
    rng = np.random.default_rng(37)
    for _ in range(60):
        n = int(rng.integers(2, 8))
        k = int(rng.integers(1, n + 1))
        s = random_schedule(rng, k, n)
        fam = random_family(rng, k, n)
        values = rng.permutation(np.linspace(0.01, 0.99, n)).tolist()
        perm = rng.permutation(n)
        permuted = [values[perm[j]] for j in range(n)]
        for run in (
            lambda q: stepdown(q, s),
            lambda q: stepup(q, s),
            lambda q: closed_testing(q, fam),
            lambda q: generalized_hommel(q, fam),
        ):
            base = run(order_pvalues(values)).rejected
            moved = run(order_pvalues(permuted)).rejected
            assert all(moved[j] == base[perm[j]] for j in range(n))
        # tied inputs: only cardinality is promised
        tied = [round(v, 1) for v in values]
        tied_perm = [tied[perm[j]] for j in range(n)]
        assert (
            stepdown(order_pvalues(tied), s).num_rejected
            == stepdown(order_pvalues(tied_perm), s).num_rejected
        )


def test_saturated_boundary_inputs_agree_with_oracles():
    """P-values and critical values pinned at exactly 0.0 and 1.0 (plus
    heavy ties) are the harshest comparisons; all procedures must still
    match the brute-force oracles and each other."""
    rng = np.random.default_rng(4242)

    def edge_pvalues(n):
        vals = rng.uniform(0.0, 1.0, n)
        for j in range(n):
            r = rng.random()
            if r < 0.25:
                vals[j] = 0.0
            elif r < 0.4:
                vals[j] = 1.0
            elif r < 0.55:
                vals[j] = round(vals[j], 1)
        return order_pvalues(vals.tolist())

    def edge_family(k, n):
        last = np.sort(rng.uniform(0.0, 1.0, n - k + 1))
        mask = rng.random(n - k + 1)
        last = np.sort(np.where(mask < 0.3, 0.0, np.where(mask > 0.85, 1.0, last)))
        rows = {n: last}
        for m in range(n - 1, k - 1, -1):
            bump = np.sort(rng.uniform(0.0, 0.5, m - k + 1)) * (rng.random() > 0.3)
            rows[m] = np.minimum(rows[m + 1][: m - k + 1] + bump, 1.0)
        return validate_family(k, n, [rows[m].tolist() for m in range(k, n + 1)])

    for _ in range(400):
        n = int(rng.integers(1, 8))
        k = int(rng.integers(1, n + 1))
        fam = edge_family(k, n)
        p = edge_pvalues(n)
        closed = rejected_set(closed_testing(p, fam))
        assert closed == closed_testing_oracle(p.values, k, fam.rows)
        hommel = generalized_hommel(p, fam)
        want_set, want_j = hommel_oracle(p.values, k, fam.rows)
        assert rejected_set(hommel) == want_set == closed
        assert hommel.detail["j_hat"] == want_j
        raw = np.sort(rng.uniform(0.0, 1.0, n - k + 1))
        raw = np.sort(np.where(rng.random(n - k + 1) < 0.3, 0.0, raw))
        s = validate_schedule(k, n, raw.tolist())
        assert rejected_set(stepdown(p, s)) == stepdown_oracle(p.values, k, s.alphas)
        assert rejected_set(stepup(p, s)) == stepup_oracle(p.values, k, s.alphas)
        assert rejected_set(stepdown(p, s)) == rejected_set(closed_testing(p, stepdown_as_family(s)))
        assert rejected_set(stepup(p, s)) == rejected_set(closed_testing(p, stepup_as_family(s)))


def test_constant_family_three_way_equivalence():
    """Hommel, closed testing (both with constant rows), and stepdown
    with the induced schedule coincide."""
    rng = np.random.default_rng(41)
    for _ in range(150):
        n = int(rng.integers(1, 9))
        k = int(rng.integers(1, n + 1))
        alpha = float(rng.uniform(0.01, 0.5))
        fam = constant_family(k, n, alpha)
        sched = lehmann_romano_schedule(k, n, alpha)
        p = random_pvalues(rng, n, list(sched.alphas))
        a = rejected_set(stepdown(p, sched))
        b = rejected_set(closed_testing(p, fam))
        c = rejected_set(generalized_hommel(p, fam))
        assert a == b == c


def sorted_pvalue_rows(rng, rows, n, pool):
    """Rows of sorted p-values with ties, exact zeros and ones, and exact
    hits on the critical values in ``pool``."""
    p = rng.uniform(0.0, 1.0, (rows, n)) * rng.choice([1.0, 0.3, 0.05], size=(rows, 1))
    tied = rng.random(rows) < 0.3
    p[tied] = np.round(p[tied], 1)
    p[rng.random((rows, n)) < 0.15] = 0.0
    p[rng.random((rows, n)) < 0.05] = 1.0
    hits = rng.random((rows, n)) < 0.2
    p[hits] = rng.choice(pool, size=int(hits.sum()))
    p[0], p[1] = 0.0, 1.0
    return np.sort(p, axis=1)


def check_against_oracle(name, critical, sorted_p):
    """Each row of ``sorted_p`` through the batch kernel and through the
    public rule, against the independent oracle: the rejection set, the
    count, stepwise ``r`` (the count unless only the automatic k - 1 are
    rejected) and Hommel's ``j_hat`` (the kernel's 0 standing for None)."""
    family = name in procedures.FAMILY_PROCEDURES
    k = critical.k
    counts = procedures.bind_batch(name, critical)(sorted_p).tolist()
    j_hats = procedures._hommel(sorted_p, critical)[1].tolist() if family else None
    rule = procedures.bind_procedure(name, critical)
    for row, values in enumerate(sorted_p.tolist()):
        if family:
            expected, j_hat = hommel_oracle(values, k, critical.rows)
        else:
            oracle = stepdown_oracle if name == "stepdown" else stepup_oracle
            expected = oracle(values, k, critical.alphas)
        count = len(expected)
        assert expected == set(range(count))  # the most significant, in sorted order
        assert counts[row] == count
        result = rule(order_pvalues(values))
        assert rejected_set(result) == expected
        if family:
            assert (j_hats[row] or None) == j_hat == result.detail["j_hat"]
        else:
            assert result.detail["r"] == (count if count >= k else None)


@pytest.mark.parametrize("seed", range(5))
def test_kernels_and_rules_match_oracles(seed):
    """Every batch kernel, and the public rule that runs it on one row,
    against the oracles on random sorted rows with ties, exact zeros and
    ones and exact hits on the critical values, at n from 1 to 12 and k
    up to n."""
    rng = np.random.default_rng(seed)
    for _ in range(12):
        n = int(rng.integers(1, 13))
        k = int(rng.integers(1, n + 1))
        alpha = float(rng.uniform(0.01, 0.5))
        lr = lehmann_romano_schedule(k, n, alpha)
        cases = [("stepdown", lr), ("stepup", romano_shaikh_schedule(lr, alpha)),
                 ("stepdown", validate_schedule(k, n, [k * alpha / n] * (n - k + 1))),
                 ("stepup", random_schedule(rng, k, n)), ("stepdown", random_schedule(rng, k, n)),
                 ("hommel", constant_family(k, n, alpha)), ("closed", scaled_family(lr, alpha)),
                 ("hommel", random_family(rng, k, n)), ("closed", random_family(rng, k, n, constant_rows=True))]
        for name, critical in cases:
            family = name in procedures.FAMILY_PROCEDURES
            pool = [v for row in critical.rows for v in row] if family else list(critical.alphas)
            check_against_oracle(name, critical, sorted_pvalue_rows(rng, 30, n, pool))


@pytest.mark.parametrize("name, n", [("stepdown", 100_000), ("stepup", 3_000), ("hommel", 1_000)])
def test_kernels_and_rules_match_oracles_at_test_size(name, n):
    """One row the size of a ``kfwer test`` call (the quadratic stepup
    oracle limits its n): uniform p-values with a share of strong signals,
    ties from rounding, and exact hits on the critical values."""
    rng = np.random.default_rng(n)
    critical = constant_family(2, n, 0.05) if name == "hommel" else lehmann_romano_schedule(2, n, 0.05)
    pool = [row[0] for row in critical.rows] if name == "hommel" else list(critical.alphas)
    p = rng.uniform(0.0, 1.0, n)
    signal = rng.random(n) < 0.05
    p[signal] = 10.0 ** -rng.uniform(4.0, 12.0, int(signal.sum()))
    rounded = rng.random(n) < 0.2
    p[rounded] = np.round(p[rounded], 4)
    hits = rng.random(n) < 0.01
    p[hits] = rng.choice(pool, size=int(hits.sum()))
    check_against_oracle(name, critical, np.sort(p)[None])


@pytest.mark.parametrize("seed", range(3))
def test_hommel_j_hats_against_oracle_and_closure_up_to_enumeration_limit(seed):
    """The Hommel kernel skips sizes whose rank-k comparison fails for
    every row. Check it against the oracle and exhaustive closed testing
    at n up to 18, on rows where no size survives (everything rejected),
    where every size survives (only the automatic k - 1 rejected), and
    where rank k clears but a later rank does not."""
    rng = np.random.default_rng(seed)
    for n in (1, 2, 5, 9, 13, 18):
        k = int(rng.integers(1, n + 1))
        alpha = float(rng.uniform(0.01, 0.5))
        for fam in (constant_family(k, n, alpha), simes_family(k, n, alpha), random_family(rng, k, n)):
            pool = [v for row in fam.rows for v in row]
            top = fam.rows[-1]
            rows = [
                [0.0] * n,
                [min(pool) / 2] * n,
                [1.0] * n,
                # Rank k clears the largest size's first value, the rank
                # above it sits on the largest size's last value.
                sorted([0.0] * (k - 1) + [1.0] + [top[-1]] * (n - k)),
                *rng.choice(pool + [0.0, 1.0], size=(4, n)).tolist(),
            ]
            sorted_p = np.sort(np.array(rows), axis=1)
            j_hats = procedures._hommel(sorted_p, fam)[1].tolist()
            for values, got in zip(sorted_p.tolist(), j_hats):
                want_set, want_j = hommel_oracle(values, k, fam.rows)
                assert (got or None) == want_j
                p = order_pvalues(values)
                assert rejected_set(generalized_hommel(p, fam)) == want_set == rejected_set(closed_testing(p, fam))
            assert j_hats[0] == 0 and j_hats[2] == n


def test_hommel_compares_rows_only_where_rank_k_clears(monkeypatch):
    """With no size whose rank-k value is cleared the kernel compares no
    full row of a table, so a no-survivor input costs one comparison per
    size. The kernel reads row j as a slice of the family's array, and
    ``calls`` records the size of each row it slices."""
    fam = simes_family(2, 300, 0.05)
    calls = []

    class Rows(np.ndarray):
        def __getitem__(self, key):
            if isinstance(key, slice):
                calls.append(key.stop - key.start + fam.k - 1)
            return super().__getitem__(key)

    monkeypatch.setitem(fam.__dict__, "_array", fam._array.view(Rows))
    res = generalized_hommel(order_pvalues([1e-12] * 300), fam)
    assert res.detail == {"j_hat": None} and res.num_rejected == 300
    assert calls == []
    values = [1e-12] * 200 + [0.9] * 100
    res = generalized_hommel(order_pvalues(values), fam)
    assert res.detail == {"j_hat": 101} and calls == [101]


def one_ulp_above(s, top_on_value):
    """Sorted p-values with p_(t) one ulp above alpha_t for t = k..n, zeros
    before rank k, and p_(n) on alpha_n when ``top_on_value``: the input on
    which a row-by-row Hommel scan of a stepup form compares every row."""
    p = np.concatenate((np.zeros(s.k - 1), np.nextafter(s._array, 1.0)))
    if top_on_value:
        p[-1] = s._array[-1]
    return p


@pytest.mark.parametrize("top_on_value", [True, False])
def test_stepup_form_decides_as_stepup_at_scale(top_on_value):
    """At n = 2*10^4, on p-values one ulp above a Romano-Shaikh schedule,
    Hommel on its stepup form rejects what stepup rejects, with ``j_hat``
    n - r + k - 1 (absent at r = n)."""
    n, k = 20_000, 2
    lr = lehmann_romano_schedule(k, n, 0.05)
    s = romano_shaikh_schedule(lr, 0.05)
    p = order_pvalues(one_ulp_above(s, top_on_value))
    want = stepup(p, s)
    r = want.num_rejected
    assert r == (n if top_on_value else k - 1)
    got = generalized_hommel(p, scaled_family(lr, 0.05))
    assert got.rejected == want.rejected
    assert got.detail == {"j_hat": n - r + k - 1 if r < n else None}

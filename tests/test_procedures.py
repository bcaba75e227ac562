"""Decision procedures: worked examples, constructor values, and the
equivalence/dominance relations that tie the shortcuts to the
exhaustive closed-testing engine."""

import math
import tracemalloc

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
from kfwer.verify import random_family, random_pvalues, random_schedule
from oracles import closed_testing_oracle, evaluate_local_test, hommel_oracle, stepdown_oracle, stepup_oracle

LR_2_5 = lehmann_romano_schedule(2, 5, 0.05)


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

    def test_sliced_and_grown_tables_match_oracle(self, monkeypatch):
        """Sizes 10, 6, 12 in turn: the first builds the tables, the second
        reads a slice of them, the third rebuilds them larger."""
        import kfwer.procedures as procedures

        monkeypatch.setattr(procedures, "_closure_tables", None)
        rng = np.random.default_rng(29)
        for n in (10, 6, 12):
            # quadratically spaced p-values under Simes rows reject part of the set
            cases = [(order_pvalues([0.004 * i * i for i in range(n, 0, -1)]), simes_family(2, n, 0.3))]
            cases += [self._random_case(rng, trial, n) for trial in range(3)]
            for p, fam in cases:
                assert rejected_set(closed_testing(p, fam)) == closed_testing_oracle(p.values, fam.k, fam.rows)
            assert procedures._closure_tables[1].shape[1] == max(10, n)

    def test_subset_decisions_agree_with_evaluate_local_test(self):
        """The engine's per-subset decision is the one evaluate_local_test
        makes on the materialized subset, and the cardinalities it accepts
        are the ones reported."""
        import itertools

        rng = np.random.default_rng(43)
        for _ in range(60):
            n = int(rng.integers(1, 7))
            k = int(rng.integers(1, n + 1))
            fam = random_family(rng, k, n)
            p = random_pvalues(rng, n, [v for row in fam.rows for v in row])
            rejected = [True] * n
            accepted_cards = set()
            ranked = sorted(range(n), key=lambda j: (p.values[j], j))
            for m in range(k, n + 1):
                for subset in itertools.combinations(ranked, m):
                    members = [j for j in ranked if j in subset]
                    subset_p = [p.values[j] for j in members]
                    if not evaluate_local_test(subset_p, fam.row(m)):
                        accepted_cards.add(m)
                        for j in members[k - 1 :]:
                            rejected[j] = False
            res = closed_testing(p, fam)
            assert tuple(rejected) == res.rejected
            assert res.detail["accepted_cardinalities"] == tuple(sorted(accepted_cards))


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

    def test_degenerate_base(self):
        with pytest.raises(DegenerateScheduleError):
            romano_shaikh_schedule(validate_schedule(1, 3, (0.0, 0.0, 0.0)), 0.05)
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

    def test_simes_family_values(self):
        fam = simes_family(1, 4, 0.04)
        assert fam.row(4) == (0.01, 0.02, 0.03, 0.04)

    FAMILY_BUILDERS = {
        "constant": lambda base: constant_family(base.k, base.n, 0.05),
        "simes": lambda base: simes_family(base.k, base.n, 0.05),
        "scaled": lambda base: scaled_family(base, 0.05),
        "stepdown-as": stepdown_as_family,
        "stepup-as": stepup_as_family,
    }

    @pytest.mark.parametrize("name", sorted(FAMILY_BUILDERS))
    def test_oversized_table_refused_before_building(self, name, monkeypatch):
        """With the cap lowered to 100,000 entries, n = 447 (100,128 entries,
        about 3 MB if built) is refused before d1 or any row runs, and
        n = 446 (99,681 entries) is built."""
        build = self.FAMILY_BUILDERS[name]
        d1_calls = []
        real_d1 = procedures.d1
        monkeypatch.setattr(procedures, "MAX_FAMILY_ENTRIES", 100_000)
        monkeypatch.setattr(procedures, "d1", lambda s: d1_calls.append(s.n) or real_d1(s))
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
        assert d1_calls == [] and peak < 64_000
        assert build(lehmann_romano_schedule(1, 446, 0.05)).n == 446

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
    """Lowering one p-value never shrinks the stepwise rejection count."""
    rng = np.random.default_rng(31)
    for _ in range(200):
        n = int(rng.integers(1, 9))
        k = int(rng.integers(1, n + 1))
        s = random_schedule(rng, k, n)
        values = rng.uniform(0.0, 1.0, n).tolist()
        pos = int(rng.integers(0, n))
        lowered = list(values)
        lowered[pos] = values[pos] * float(rng.uniform(0.0, 1.0))
        for proc in (stepdown, stepup):
            before = proc(order_pvalues(values), s).num_rejected
            after = proc(order_pvalues(lowered), s).num_rejected
            assert after >= before


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
    j_hats = procedures._hommel_j_hats(sorted_p, critical).tolist() if family else None
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

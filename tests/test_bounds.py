"""Bound evaluation: ordered-p-value bound, Type-I row bounds, the
stepup normalization constant, and local test decisions."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kfwer import (
    BadShapeError,
    BoundInput,
    CardinalityOutOfRangeError,
    LengthMismatchError,
    NotMonotoneError,
    constant_family,
    d1,
    evaluate_local_test,
    lehmann_romano_schedule,
    lemma31_bound,
    scaled_family,
    type1_bound,
    validate_family,
    validate_schedule,
)
from oracles import d1_float_reference, d1_oracle, lemma31_oracle, type1_oracle


def sorted_betas(min_size=1, max_size=10):
    return st.lists(
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False), min_size=min_size, max_size=max_size
    ).map(sorted)


class TestBoundInput:
    def test_rejects_decreasing(self):
        with pytest.raises(NotMonotoneError):
            BoundInput(t=3, betas=(0.2, 0.1))

    def test_rejects_m_above_t(self):
        with pytest.raises(BadShapeError):
            BoundInput(t=2, betas=(0.1, 0.2, 0.3))

    def test_rejects_empty(self):
        with pytest.raises(BadShapeError):
            BoundInput(t=2, betas=())


class TestLemma31Bound:
    def test_single_pvalue(self):
        assert lemma31_bound(BoundInput(t=1, betas=(0.37,))) == 0.37

    def test_constant_telescopes(self):
        assert math.isclose(lemma31_bound(BoundInput(t=4, betas=(0.1, 0.1, 0.1, 0.1))), 0.4, rel_tol=1e-15)

    def test_hand_evaluated_sum(self):
        got = lemma31_bound(BoundInput(t=4, betas=(0.01, 0.02, 0.03, 0.04)))
        expected = lemma31_oracle(4, (0.01, 0.02, 0.03, 0.04))
        assert math.isclose(got, float(expected), rel_tol=1e-13)
        assert math.isclose(got, 0.25 / 3, rel_tol=1e-12)  # 4*(0.01 + 0.005 + 0.01/3 + 0.0025)

    def test_can_exceed_one(self):
        assert lemma31_bound(BoundInput(t=10, betas=(0.5, 0.5))) > 1.0

    @given(sorted_betas(min_size=1, max_size=8), st.integers(min_value=0, max_value=5), st.data())
    @settings(max_examples=100)
    def test_monotone_in_each_beta_and_t(self, betas, extra_t, data):
        t = len(betas) + extra_t
        base = lemma31_bound(BoundInput(t=t, betas=tuple(betas)))
        assert base >= 0.0
        # raising one beta (keeping the sequence sorted) cannot lower the bound
        pos = data.draw(st.integers(min_value=0, max_value=len(betas) - 1))
        ceiling = betas[pos + 1] if pos + 1 < len(betas) else 1.0
        raised = list(betas)
        raised[pos] = data.draw(st.floats(min_value=betas[pos], max_value=ceiling, allow_nan=False))
        assert lemma31_bound(BoundInput(t=t, betas=tuple(raised))) >= base - 1e-12
        # and a larger t scales the bound up
        assert lemma31_bound(BoundInput(t=t + 1, betas=tuple(betas))) >= base

    @given(sorted_betas(min_size=1, max_size=6), st.integers(min_value=0, max_value=4))
    @settings(max_examples=80)
    def test_matches_exact_rational_oracle(self, betas, extra_t):
        t = len(betas) + extra_t
        got = lemma31_bound(BoundInput(t=t, betas=tuple(betas)))
        want = float(lemma31_oracle(t, betas))
        assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-15)


def random_families(rng, count):
    for _ in range(count):
        k = int(rng.integers(1, 6))
        n = k + int(rng.integers(0, 5))
        rows = {n: np.sort(rng.uniform(0.0, 1.0, n - k + 1))}
        for m in range(n - 1, k - 1, -1):
            bump = np.sort(rng.uniform(0.0, 0.2, m - k + 1))
            rows[m] = np.minimum(rows[m + 1][: m - k + 1] + bump, 1.0)
        yield validate_family(k, n, [rows[m].tolist() for m in range(k, n + 1)])


class TestType1Bound:
    def test_constant_row_hits_alpha(self):
        fam = constant_family(3, 7, 0.05)
        for m in range(3, 8):
            assert math.isclose(type1_bound(fam, m), 0.05, rel_tol=1e-12)

    def test_single_entry_row(self):
        fam = validate_family(3, 3, [[0.123]])
        assert math.isclose(type1_bound(fam, 3), 0.123, rel_tol=1e-12)

    def test_hand_evaluated_row(self):
        fam = validate_family(1, 3, [[0.01], [0.01, 0.02], [0.01, 0.02, 0.05]])
        assert math.isclose(type1_bound(fam, 3), 0.075, rel_tol=1e-12)

    def test_cardinality_out_of_range(self):
        fam = constant_family(2, 4, 0.05)
        with pytest.raises(CardinalityOutOfRangeError):
            type1_bound(fam, 1)
        with pytest.raises(CardinalityOutOfRangeError):
            type1_bound(fam, 5)

    def test_bitwise_equal_to_direct_row_evaluation(self):
        """The zero-padded reduction and a direct left-to-right evaluation
        of the row bound must agree exactly, not just approximately."""
        rng = np.random.default_rng(2024)
        for fam in random_families(rng, 200):
            for m in range(fam.k, fam.n + 1):
                row = fam.row(m)
                total = 0.0
                prev = 0.0
                for i in range(1, fam.k):
                    total += (0.0 - prev) / i
                total += (row[0] - prev) / fam.k
                prev = row[0]
                for i in range(fam.k + 1, m + 1):
                    total += (row[i - fam.k] - prev) / i
                    prev = row[i - fam.k]
                assert type1_bound(fam, m) == m * total

    def test_matches_rational_oracle(self):
        rng = np.random.default_rng(7)
        for fam in random_families(rng, 50):
            for m in range(fam.k, fam.n + 1):
                want = float(type1_oracle(fam.k, m, fam.row(m)))
                assert math.isclose(type1_bound(fam, m), want, rel_tol=1e-12, abs_tol=1e-15)


class TestD1:
    def test_constant_schedule_exact(self):
        for k, n, c in [(1, 4, 0.3), (2, 5, 0.07), (3, 3, 0.9), (2, 9, 0.0)]:
            s = validate_schedule(k, n, (c,) * (n - k + 1))
            assert d1(s) == n * c / k

    def test_single_point(self):
        assert d1(validate_schedule(1, 1, (0.42,))) == 0.42

    def test_known_maximum(self):
        s = validate_schedule(1, 4, (0.25, 0.5, 0.75, 1.0))
        value, argmax = d1_oracle(1, 4, (0.25, 0.5, 0.75, 1.0))
        assert value == Fraction(17, 8) and argmax == 3
        assert d1(s) == 2.125

    def test_positive_when_top_value_positive(self):
        s = validate_schedule(2, 6, (0.0, 0.0, 0.0, 0.0, 0.01))
        assert d1(s) > 0.0

    def test_matches_rational_oracle_on_random_schedules(self):
        rng = np.random.default_rng(99)
        for _ in range(200):
            k = int(rng.integers(1, 6))
            n = k + int(rng.integers(0, 7))
            alphas = np.sort(rng.uniform(0.0, 1.0, n - k + 1)).tolist()
            s = validate_schedule(k, n, alphas)
            want, _ = d1_oracle(k, n, alphas)
            assert math.isclose(d1(s), float(want), rel_tol=1e-12, abs_tol=1e-15)

    def test_bitwise_equal_to_float_loop(self):
        """The per-cardinality cumsum returns the plain loop's float exactly,
        with ties, runs of zeros, k = 1, k = n and n = 1 among the cases."""
        rng = np.random.default_rng(20061)
        for trial in range(300):
            n = 1 if trial % 25 == 0 else int(rng.integers(1, 61))
            k = (1, n, int(rng.integers(1, n + 1)))[trial % 3]
            alphas = np.sort(rng.uniform(0.0, 1.0, n - k + 1))
            if trial % 4 == 1:
                alphas = np.round(alphas, 2)
            if trial % 5 == 2:
                alphas[: int(rng.integers(0, alphas.size + 1))] = 0.0
            alphas = alphas.tolist()
            assert d1(validate_schedule(k, n, alphas)) == d1_float_reference(k, n, alphas)

    def test_bitwise_equal_to_float_loop_at_n_2000(self):
        s = lehmann_romano_schedule(2, 2000, 0.05)
        assert d1(s) == d1_float_reference(s.k, s.n, s.alphas)


class TestScaledFamilyCertification:
    def test_type1_bound_at_most_alpha(self):
        """Rescaling by the normalization constant caps every row's
        Type-I bound at alpha, up to float rounding."""
        rng = np.random.default_rng(5150)
        for _ in range(60):
            k = int(rng.integers(1, 5))
            n = k + int(rng.integers(0, 7))
            alpha = float(rng.uniform(0.005, 0.5))
            alphas = np.sort(rng.uniform(1e-6, 1.0, n - k + 1)).tolist()
            fam = scaled_family(validate_schedule(k, n, alphas), alpha)
            for m in range(k, n + 1):
                assert type1_bound(fam, m) <= alpha * (1 + 1e-12)

    def test_lr_based_family_certified(self):
        fam = scaled_family(lehmann_romano_schedule(2, 8, 0.05), 0.05)
        assert max(type1_bound(fam, m) for m in range(2, 9)) <= 0.05 * (1 + 1e-12)


class TestEvaluateLocalTest:
    def test_all_zero_pvalues_reject(self):
        assert evaluate_local_test([0.0, 0.0, 0.0], [0.0, 0.0, 0.0]) is True

    def test_all_one_pvalues_accept(self):
        assert evaluate_local_test([1.0, 1.0, 1.0], [0.3, 0.4, 0.5]) is False

    def test_middle_rank_triggers(self):
        assert evaluate_local_test([0.01, 0.03, 0.5], [0.0333, 0.0333]) is True

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            evaluate_local_test([0.1, 0.2], [0.1, 0.2, 0.3])
        with pytest.raises(LengthMismatchError):
            evaluate_local_test([0.1, 0.2], [])

    @given(
        st.lists(st.floats(min_value=0.0, max_value=1.0, allow_nan=False), min_size=1, max_size=8).map(sorted),
        st.data(),
    )
    @settings(max_examples=100)
    def test_monotone_in_pvalues_and_critical_values(self, pvalues, data):
        m = len(pvalues)
        width = data.draw(st.integers(min_value=1, max_value=m))
        row = sorted(data.draw(st.lists(st.floats(0.0, 1.0, allow_nan=False), min_size=width, max_size=width)))
        before = evaluate_local_test(pvalues, row)
        # lowering any p-value keeps (or gains) the rejection
        pos = data.draw(st.integers(min_value=0, max_value=m - 1))
        lowered = sorted(pvalues[:pos] + [pvalues[pos] * 0.5] + pvalues[pos + 1 :])
        if before:
            assert evaluate_local_test(lowered, row) is True
        # raising every critical value to 1 always rejects unless all p above
        raised = [1.0] * width
        assert evaluate_local_test(pvalues, raised) is True


class TestLemma31Empirical:
    def test_monte_carlo_never_beats_bound(self):
        """Smaller-scale version of the acceptance check: the chance all
        m smallest of t uniforms fall under their thresholds stays within
        three standard errors of the bound."""
        rng = np.random.default_rng(31)
        reps = 20_000
        for _ in range(12):
            t = int(rng.integers(1, 11))
            m = int(rng.integers(1, t + 1))
            betas = np.sort(rng.uniform(0.0, rng.uniform(0.05, 1.0), m))
            bound = lemma31_bound(BoundInput(t=t, betas=tuple(betas.tolist())))
            if bound > 1.0:
                betas = betas * (0.95 / bound)
                bound = lemma31_bound(BoundInput(t=t, betas=tuple(betas.tolist())))
            draws = np.sort(rng.uniform(0.0, 1.0, (reps, t)), axis=1)
            hits = np.all(draws[:, :m] <= betas, axis=1)
            estimate = hits.mean()
            se = math.sqrt(estimate * (1 - estimate) / reps)
            assert estimate <= bound + 3 * se

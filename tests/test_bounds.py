"""Bound evaluation: ordered-p-value bound, Type-I row bounds, the
stepup normalization constant, and local test decisions."""

import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kfwer import (
    BadShapeError,
    BoundInput,
    CardinalityOutOfRangeError,
    KfwerError,
    LengthMismatchError,
    NotMonotoneError,
    constant_family,
    d1,
    lehmann_romano_schedule,
    lemma31_bound,
    scaled_family,
    type1_bound,
    validate_family,
    validate_schedule,
)
from kfwer.bounds import _d1_with_argmax, _screen
from oracles import (
    d1_cumsum_reference,
    d1_float_reference,
    d1_oracle,
    d1_terms_oracle,
    evaluate_local_test,
    lemma31_oracle,
    type1_oracle,
)


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

    @pytest.mark.parametrize("t", [2.5, 2.0, np.float64(3.0), True, np.bool_(True), "2", None])
    def test_rejects_non_integer_t(self, t):
        """t = 2.5 used to give a bound for 2.5 p-values."""
        with pytest.raises(KfwerError, match=re.escape(f"t must be an integer, got {t!r}")):
            BoundInput(t=t, betas=(0.1,))

    def test_numpy_integer_t_is_stored_as_int(self):
        bound_input = BoundInput(t=np.int64(3), betas=(0.1, 0.2))
        assert type(bound_input.t) is int
        assert repr(bound_input) == repr(BoundInput(t=3, betas=(0.1, 0.2)))
        assert lemma31_bound(bound_input) == lemma31_bound(BoundInput(t=3, betas=(0.1, 0.2)))


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


def same_float(a, b):
    """Equal as floats, and zeros of the same sign."""
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def check_d1(k, n, alphas):
    """d1 is the plain loop's float, zero signs included."""
    alphas = [float(a) for a in alphas]
    got = d1(validate_schedule(k, n, alphas))
    want = d1_float_reference(k, n, alphas)
    assert same_float(got, want), (k, n, got, want)


class TestD1Screen:
    """The screen keeps the loop's maximum on the inputs that strain it:
    flat profiles, zeros, ties, extreme magnitudes and tiny sizes."""

    @pytest.mark.parametrize("k, n, c", [(1, 50, 0.3), (2, 77, 0.07), (5, 5, 0.9), (3, 200, 1.0), (1, 64, 1e-300)])
    def test_constant_schedule(self, k, n, c):
        check_d1(k, n, [c] * (n - k + 1))

    @pytest.mark.parametrize("k, n", [(1, 1), (1, 40), (3, 90), (7, 7)])
    def test_all_zero_schedule(self, k, n):
        check_d1(k, n, [0.0] * (n - k + 1))

    @pytest.mark.parametrize("k, n", [(1, 1), (1, 30), (4, 60), (6, 6)])
    def test_negative_zeros(self, k, n):
        width = n - k + 1
        check_d1(k, n, [-0.0] * width)
        rng = np.random.default_rng(n)
        for _ in range(20):
            # nondecreasing as floats: -0.0 and 0.0 compare equal
            check_d1(k, n, rng.choice([-0.0, 0.0], width).tolist())
        assert math.copysign(1.0, d1(validate_schedule(k, n, [-0.0] * width))) == -1.0

    @pytest.mark.parametrize("k, n", [(1, 1), (1, 25), (2, 40), (5, 33)])
    def test_one_step_anywhere(self, k, n):
        width = n - k + 1
        for pos in range(width):
            check_d1(k, n, [0.0] * pos + [0.03] * (width - pos))
            check_d1(k, n, [0.2] * pos + [0.7] * (width - pos))

    def test_flat_profile_keeps_every_cardinality(self, monkeypatch):
        """Zeros with one step at the end: every sum is nearly the same,
        so every cardinality is summed exactly, each over its nonzero
        steps only: one term, or two where the step is its own."""
        sizes = []
        cumsum = np.cumsum
        monkeypatch.setattr(np, "cumsum", lambda terms: sizes.append(terms.size) or cumsum(terms))
        for k, n in [(1, 400), (2, 399), (9, 300)]:
            for alphas in ([0.0] * (n - k) + [0.05], [1e-300] * (n - k) + [1.0]):
                sizes.clear()
                check_d1(k, n, alphas)
                assert len(sizes) == n - k + 1 and set(sizes) == {1, 2}

    @pytest.mark.parametrize("k, n", [(1, 2000), (3, 2000)])
    def test_sparse_steps_against_the_cumsum_reference(self, k, n):
        """Schedules flat but for a step or two, whose terms the exact pass
        skips for every zero step: the same float and argmax as summing
        every term, including terms that underflow to subnormals."""
        width = n - k + 1
        mid = width // 2
        cases = [
            [0.0] * (width - 1) + [0.05],  # one step at the end
            [0.0] * mid + [0.05] * (width - mid),  # one step in the middle
            [0.0] * mid + [0.01] * (width - mid - 1) + [0.05],  # two steps
            [0.0] * mid + [5e-324] * (width - mid - 1) + [1e-320],  # subnormal terms
        ]
        for alphas in cases:
            value, argmax = _d1_with_argmax(validate_schedule(k, n, alphas))
            want_value, want_argmax = d1_cumsum_reference(k, n, alphas)
            assert same_float(value, want_value) and argmax == want_argmax

    def test_ties(self):
        rng = np.random.default_rng(8)
        for _ in range(60):
            n = int(rng.integers(1, 120))
            k = int(rng.integers(1, n + 1))
            check_d1(k, n, np.sort(np.round(rng.uniform(0.0, 1.0, n - k + 1), int(rng.integers(0, 3)))))

    @pytest.mark.parametrize("n", [1, 2, 3, 10, 500])
    def test_k_equals_n(self, n):
        for c in (0.0, -0.0, 1e-300, 0.3, 1.0):
            check_d1(n, n, [c])

    def test_single_hypothesis(self):
        for c in (0.0, -0.0, 5e-324, 0.42, 1.0):
            check_d1(1, 1, [c])

    def test_values_spanning_1e_300_to_1(self):
        rng = np.random.default_rng(300)
        for _ in range(40):
            n = int(rng.integers(1, 300))
            k = int(rng.integers(1, n + 1))
            check_d1(k, n, np.sort(10.0 ** rng.uniform(-300.0, 0.0, n - k + 1)))
        check_d1(1, 5, [5e-324, 1e-310, 1e-300, 1e-100, 1.0])

    @given(
        st.integers(1, 60).flatmap(lambda n: st.tuples(st.integers(1, n), st.just(n))).flatmap(
            lambda kn: st.tuples(
                st.just(kn),
                st.lists(
                    st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 0.5, 1.0])),
                    min_size=kn[1] - kn[0] + 1,
                    max_size=kn[1] - kn[0] + 1,
                ).map(sorted),
            )
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_any_schedule(self, case):
        (k, n), alphas = case
        check_d1(k, n, alphas)

    @pytest.mark.parametrize("n", [10_000, 20_000])
    def test_lehmann_romano_at_scale(self, n):
        s = lehmann_romano_schedule(2, n, 0.05)
        assert _d1_with_argmax(s) == d1_cumsum_reference(s.k, s.n, s.alphas)

    @pytest.mark.parametrize("k, n", [(1, 10), (2, 2000), (2, 20_000), (40, 20_000)])
    def test_lehmann_romano_sums_one_cardinality(self, k, n, monkeypatch):
        """The screen is sharp enough that only the argmax is summed exactly."""
        calls = []
        cumsum = np.cumsum
        monkeypatch.setattr(np, "cumsum", lambda terms: calls.append(terms.size) or cumsum(terms))
        value, argmax = _d1_with_argmax(lehmann_romano_schedule(k, n, 0.05))
        assert calls == [argmax - k + 1]

    def test_argmax_matches_rational_oracle(self):
        """Where one cardinality's exact sum clearly beats every other, the
        returned cardinality is the rational oracle's."""
        rng = np.random.default_rng(11)
        checked = 0
        for _ in range(200):
            k = int(rng.integers(1, 5))
            n = k + int(rng.integers(0, 8))
            alphas = np.sort(rng.uniform(0.0, 1.0, n - k + 1)).tolist()
            terms = d1_terms_oracle(k, n, alphas)
            value, argmax = d1_oracle(k, n, alphas)
            if all(t < value * (1 - Fraction(1, 10**9)) for m, t in enumerate(terms, start=k) if m != argmax):
                assert _d1_with_argmax(validate_schedule(k, n, alphas)) == (d1_float_reference(k, n, alphas), argmax)
                checked += 1
        assert checked > 150

    def test_bound_holds_at_every_cardinality(self):
        """Ghat(m) - E(m) <= R(m) <= Ghat(m) + E(m) for every m, not just the
        kept ones, R(m) being the loop's float for cardinality m."""
        rng = np.random.default_rng(2401)
        cases = [lehmann_romano_schedule(2, 3000, 0.05), lehmann_romano_schedule(1, 777, 0.3)]
        for trial in range(60):
            n = int(rng.integers(1, 700))
            k = int(rng.integers(1, n + 1))
            width = n - k + 1
            alphas = (np.sort(rng.uniform(0.0, 1.0, width)), np.sort(10.0 ** rng.uniform(-300.0, 0.0, width)),
                      np.sort(rng.uniform(0.0, 1.0, width) ** 16), np.r_[np.zeros(width - 1), 0.05])[trial % 4]
            cases.append(validate_schedule(k, n, alphas.tolist()))
        for s in cases:
            k, n, alphas = s.k, s.n, s._array
            steps, divisors = np.diff(alphas), np.arange(k + 1, n + 1, dtype=np.float64)
            lower, upper = _screen(k, alphas, steps, divisors)
            for lo in range(n - k + 1):
                m = n - lo
                terms = np.r_[m * alphas[lo] / k, steps[lo:] * m / divisors[: n - k - lo]]
                assert lower[lo] <= np.cumsum(terms)[-1] <= upper[lo], (k, n, m)

    def test_guard_falls_back_when_the_screen_is_wrong(self, monkeypatch):
        """A screen off by far more than its bound puts the kept sums
        outside their intervals; d1 then sums every cardinality."""
        irfft = np.fft.irfft
        monkeypatch.setattr(np.fft, "irfft", lambda *args: irfft(*args) + 1.0)
        for s in (lehmann_romano_schedule(2, 300, 0.05), validate_schedule(1, 3, (0.25, 0.5, 1.0))):
            assert _d1_with_argmax(s) == d1_cumsum_reference(s.k, s.n, s.alphas)


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

"""Acceptance suite.

One test per criterion; each prints a single PASS/FAIL line (run with
``pytest tests/test_acceptance.py -v -s`` to watch them). Tolerances are
pinned here: rejection-set relations are exact, bound comparisons allow
1e-12 relative rounding, Monte Carlo comparisons allow three standard
errors.
"""

import math
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np

from kfwer import (
    BoundInput,
    SimulationConfig,
    closed_testing,
    constant_family,
    d1,
    estimate_kfwer,
    generalized_hommel,
    lehmann_romano_schedule,
    lemma31_bound,
    order_pvalues,
    scaled_family,
    simes_family,
    stepdown,
    stepup,
    type1_bound,
    validate_schedule,
)
from kfwer.verify import random_pvalues, run_theorem_trials, schedule_from_family
from oracles import (
    check_hommel_dominates_hochberg,
    closed_testing_oracle,
    d1_oracle,
    hommel_oracle,
    stepdown_oracle,
    stepup_oracle,
)

TRIALS = 1000
N_MAX = 10


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {description}")
        raise
    print(f"ACCEPTANCE {number}: PASS - {description}")


def rejected(result):
    return set(result.rejected_indices())


def test_criterion_1_constant_family_equals_stepdown():
    with criterion(1, "constant-row closed testing equals the induced stepdown (1000 trials)"):
        rng = np.random.default_rng(101)
        start = time.monotonic()
        for _ in range(TRIALS):
            n = int(rng.integers(2, N_MAX + 1))
            k = int(rng.integers(1, n + 1))
            alpha = float(rng.uniform(0.01, 0.5))
            fam = constant_family(k, n, alpha)
            sched = lehmann_romano_schedule(k, n, alpha)
            # the family's induced schedule is the same floats
            assert sched.alphas == schedule_from_family(fam).alphas
            p = random_pvalues(rng, n, [v for row in fam.rows for v in row])
            assert rejected(stepdown(p, sched)) == rejected(closed_testing(p, fam))
        elapsed = time.monotonic() - start
        assert elapsed < 10.0, f"took {elapsed:.1f}s, budget 10s"


def test_criterion_2_stepwise_closed_testing_equivalences():
    with criterion(2, "stepdown and stepup equal closed testing with their induced families (1000 trials each)"):
        down = run_theorem_trials("4.2", TRIALS, N_MAX, 202)
        assert down.passed, down.failures[0].describe()
        up = run_theorem_trials("4.4", TRIALS, N_MAX, 203)
        assert up.passed, up.failures[0].describe()


def test_criterion_3_hommel_equals_closed_testing():
    with criterion(3, "generalized Hommel equals closed testing, reject-all branch included (1000 trials)"):
        report = run_theorem_trials("5.1", TRIALS, N_MAX, 303)
        assert report.passed, report.failures[0].describe()
        assert report.notes["reject_all_branch"] >= 1, "reject-all branch never exercised"


def test_criterion_4_dominance_relations():
    with criterion(4, "closed testing dominates induced stepdown and (diagonal condition) stepup (1000 trials each)"):
        down = run_theorem_trials("4.1", TRIALS, N_MAX, 404)
        assert down.passed, down.failures[0].describe()
        up = run_theorem_trials("4.3", TRIALS, N_MAX, 405)
        assert up.passed, up.failures[0].describe()


LEVEL_GRID = [
    (procedure, schedule, k, rho)
    for (procedure, schedule) in (
        ("stepdown", "lehmann-romano"),
        ("stepup", "romano-shaikh"),
        ("hommel", "constant"),
    )
    for k in (1, 2, 3)
    for rho in (0.0, 0.5)
]


def test_criterion_5_kfwer_level_control():
    with criterion(5, "estimated k-FWER within 3 SE of the 0.05 target on every configuration (1e5 reps each)"):
        for procedure, schedule, k, rho in LEVEL_GRID:
            cfg = SimulationConfig(
                n=10,
                n_true=10,
                k=k,
                alpha=0.05,
                procedure=procedure,
                schedule=schedule,
                reps=100_000,
                dependence="independent" if rho == 0.0 else "equicorrelated",
                rho=rho,
                seed=55_000 + k,
            )
            start = time.monotonic()
            res = estimate_kfwer(cfg)
            elapsed = time.monotonic() - start
            label = f"{procedure}/{schedule} k={k} rho={rho}"
            print(f"  criterion 5 config {label}: estimate={res.kfwer_estimate:.5f} se={res.std_error:.5f} ({elapsed:.1f}s)")
            assert res.std_error <= 0.0007 + 1e-12 or res.kfwer_estimate > 0.06
            assert res.kfwer_estimate <= 0.05 + 3 * res.std_error, label
            assert elapsed < 60.0, f"{label} took {elapsed:.1f}s, budget 60s"


def test_criterion_6_ordered_pvalue_bound_empirical_validity():
    with criterion(6, "Monte Carlo joint-order-statistic probability never beats the bound (50 cases, 1e5 reps)"):
        rng = np.random.default_rng(606)
        reps = 100_000
        for _ in range(50):
            t = int(rng.integers(1, 11))
            m = int(rng.integers(1, t + 1))
            betas = np.sort(rng.uniform(0.0, rng.uniform(0.05, 1.0), m))
            bound = lemma31_bound(BoundInput(t=t, betas=tuple(betas.tolist())))
            if bound > 1.0:
                betas = betas * (0.95 / bound)  # the bound is linear in the thresholds
                bound = lemma31_bound(BoundInput(t=t, betas=tuple(betas.tolist())))
            assert bound <= 1.0
            draws = np.sort(rng.uniform(0.0, 1.0, (reps, t)), axis=1)
            estimate = np.all(draws[:, :m] <= betas, axis=1).mean()
            se = math.sqrt(estimate * (1.0 - estimate) / reps)
            assert estimate <= bound + 3 * se, (t, m, betas.tolist(), bound, estimate)


def test_criterion_7_normalization_certifies_level():
    with criterion(7, "rescaled families are level-alpha by the exhaustive constant; constant-schedule value exact"):
        rng = np.random.default_rng(707)
        for _ in range(100):
            k = int(rng.integers(1, 6))
            n = k + int(rng.integers(0, 10))
            alpha = float(rng.uniform(0.005, 0.5))
            base = validate_schedule(k, n, np.sort(rng.uniform(1e-6, 1.0, n - k + 1)).tolist())
            fam = scaled_family(base, alpha)
            for m in range(k, n + 1):
                assert type1_bound(fam, m) <= alpha * (1 + 1e-12), (k, n, m, alpha)
        for _ in range(100):
            k = int(rng.integers(1, 6))
            n = k + int(rng.integers(0, 10))
            c = float(rng.uniform(0.0, 1.0))
            s = validate_schedule(k, n, (c,) * (n - k + 1))
            assert d1(s) == n * c / k


def test_criterion_8_hand_traced_fixtures():
    with criterion(8, "worked fixtures recomputed by independent oracles and matched exactly"):
        # stepdown stopping at r = 2
        values = (0.2, 0.015, 0.8, 0.001, 0.03)
        sched = lehmann_romano_schedule(2, 5, 0.05)
        frozen = {1, 3}
        assert stepdown_oracle(values, 2, sched.alphas) == frozen
        res = stepdown(order_pvalues(values), sched)
        assert rejected(res) == frozen and res.detail == {"r": 2}

        # stepup breaking the failure chain at r = 3
        values = (0.2, 0.01, 0.04, 0.001, 0.02)
        frozen = {1, 3, 4}
        assert stepup_oracle(values, 2, sched.alphas) == frozen
        res = stepup(order_pvalues(values), sched)
        assert rejected(res) == frozen and res.detail == {"r": 3}

        # Hommel reject-all branch
        fam = simes_family(1, 4, 0.05)
        values = (0.01, 0.02, 0.03, 0.04)
        oracle_set, oracle_j = hommel_oracle(values, 1, fam.rows)
        assert (oracle_set, oracle_j) == ({0, 1, 2, 3}, None)
        res = generalized_hommel(order_pvalues(values), fam)
        assert rejected(res) == {0, 1, 2, 3} and res.detail == {"j_hat": None}

        # Hommel surviving cardinality 3
        values = (0.01, 0.02, 0.06, 0.2)
        oracle_set, oracle_j = hommel_oracle(values, 1, fam.rows)
        assert (oracle_set, oracle_j) == ({0}, 3)
        res = generalized_hommel(order_pvalues(values), fam)
        assert rejected(res) == {0} and res.detail == {"j_hat": 3}

        # closed testing on three hypotheses
        fam3 = constant_family(2, 3, 0.05)
        values = (0.01, 0.04, 0.5)
        assert closed_testing_oracle(values, 2, fam3.rows) == {0}
        assert rejected(closed_testing(order_pvalues(values), fam3)) == {0}

        # normalization constant attained strictly inside the range
        base = (0.25, 0.5, 0.75, 1.0)
        exact, argmax = d1_oracle(1, 4, base)
        assert exact == Fraction(17, 8) and argmax == 3
        got = d1(validate_schedule(1, 4, base))
        assert math.isclose(got, float(exact), rel_tol=1e-12)
        assert got == 2.125  # dyadic inputs: exact in floats


def test_criterion_9_hommel_dominates_hochberg():
    with criterion(9, "Simes-family Hommel rejects a superset of Hochberg's stepup at k=1 (1000 trials)"):
        report = check_hommel_dominates_hochberg(TRIALS, N_MAX, seed=909)
        assert report.passed, report.failures[0].describe()

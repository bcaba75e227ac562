"""The randomized theorem-checking harness itself: generators produce
valid instances, checkers pass on correct code, and failures carry a
replayable counterexample."""

import numpy as np
import pytest

from kfwer import check_theorem43_condition, stepdown, validate_family
from kfwer.verify import (
    THEOREMS,
    TrialFailure,
    random_diagonal_family,
    random_family,
    random_pvalues,
    random_schedule,
    run_theorem_trials,
    schedule_from_family,
)
from oracles import check_hommel_dominates_hochberg


def test_generators_produce_valid_objects():
    rng = np.random.default_rng(1)
    for _ in range(100):
        n = int(rng.integers(1, 9))
        k = int(rng.integers(1, n + 1))
        fam = random_family(rng, k, n)
        validate_family(fam.k, fam.n, fam.rows)  # would raise on a bad table
        sched = random_schedule(rng, k, n)
        assert len(sched.alphas) == n - k + 1
        p = random_pvalues(rng, n, list(sched.alphas))
        assert p.n == n


def test_diagonal_generator_satisfies_condition():
    rng = np.random.default_rng(2)
    for _ in range(100):
        n = int(rng.integers(1, 9))
        k = int(rng.integers(1, n + 1))
        fam = random_diagonal_family(rng, k, n)
        assert check_theorem43_condition(fam)


def test_constant_row_generator_rows_constant():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(1, 9))
        k = int(rng.integers(1, n + 1))
        fam = random_family(rng, k, n, constant_rows=True)
        assert all(all(v == row[0] for v in row) for row in fam.rows)


def test_schedule_from_family_is_worst_case_rank_k_value():
    rng = np.random.default_rng(4)
    fam = random_family(rng, 2, 6)
    sched = schedule_from_family(fam)
    assert sched.alphas == tuple(fam.value(2, (6 - i) + 2) for i in range(2, 7))


@pytest.mark.parametrize("theorem", THEOREMS)
def test_checkers_pass(theorem):
    report = run_theorem_trials(theorem, trials=150, n_max=8, seed=606)
    assert report.passed, report.failures[0].describe()
    assert report.trials == 150


def test_hommel_hochberg_checker_passes():
    report = check_hommel_dominates_hochberg(trials=150, n_max=8, seed=607)
    assert report.passed


def test_reject_all_branch_exercised():
    report = run_theorem_trials("5.1", trials=200, n_max=8, seed=11)
    assert report.notes["reject_all_branch"] >= 1


def test_unknown_theorem_rejected():
    with pytest.raises(ValueError):
        run_theorem_trials("9.9", trials=10, n_max=6, seed=0)


def test_failure_description_is_replayable():
    failure = TrialFailure(
        theorem="4.2",
        trial=7,
        relation="equality",
        k=2,
        pvalues=(0.1, 0.2),
        schedule=(0.05,),
        family_rows=((0.05,),),
        left_name="stepdown",
        left_rejected=(0,),
        right_name="closed_testing",
        right_rejected=(0, 1),
    )
    text = failure.describe()
    assert "trial 7" in text and "p-values" in text and "[1]" in text and "[1, 2]" in text


def test_reports_catch_an_injected_defect():
    """Sanity-check the harness has teeth: an off-by-one schedule breaks
    the 4.2 equality and the checker must notice."""
    rng = np.random.default_rng(21)
    from kfwer import closed_testing, stepdown_as_family, validate_schedule

    found = 0
    for _ in range(200):
        n = int(rng.integers(2, 8))
        k = int(rng.integers(1, n))
        sched = random_schedule(rng, k, n)
        skewed = validate_schedule(k, n, [min(1.0, a + 0.2) for a in sched.alphas])
        p = random_pvalues(rng, n, list(sched.alphas))
        down = stepdown(p, skewed).rejected
        closed = closed_testing(p, stepdown_as_family(sched)).rejected
        if down != closed:
            found += 1
    assert found > 0

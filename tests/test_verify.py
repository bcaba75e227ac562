"""The randomized theorem-checking harness itself: generators produce
valid instances, checkers pass on correct code, and failures carry a
replayable counterexample."""

import dataclasses

import numpy as np
import pytest

import kfwer.verify
from kfwer import (
    ConfigError,
    check_theorem43_condition,
    closed_testing,
    generalized_hommel,
    order_pvalues,
    stepdown,
    stepup,
    validate_family,
    validate_schedule,
)
from kfwer.cli import main
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


def choice_schedule(rng, k, n):
    """random_schedule's values, its scale drawn with Generator.choice."""
    vals = np.sort(rng.uniform(0.0, float(rng.choice([0.05, 0.3, 1.0])), n - k + 1))
    return np.round(vals, 2) if rng.random() < 0.3 else vals


def choice_family(rng, k, n, constant_rows):
    """random_family's rows, m = k..n, its scale drawn with Generator.choice."""
    scale = float(rng.choice([0.05, 0.2, 1.0]))
    rows = [np.sort(rng.uniform(0.0, scale, n - k + 1))]
    for m in range(n - 1, k - 1, -1):
        bump = np.zeros(m - k + 1) if rng.random() < 0.25 else np.sort(rng.uniform(0.0, scale / 2.0, m - k + 1))
        rows.append(np.minimum(rows[-1][: m - k + 1] + bump, 1.0))
    if constant_rows:
        rows = [np.full(row.size, row[0]) for row in rows]
    return [tuple(row.tolist()) for row in reversed(rows)]


def test_scale_draws_follow_the_choice_stream():
    """The generators draw their scale by index; for many seeds their
    schedules and families are float for float those of Generator.choice,
    and the stream goes on with the same next draw."""
    for seed in range(300):
        rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
        for trial in range(4):
            n = int(rng.integers(1, 15))
            k = int(rng.integers(1, n + 1))
            assert (reference.integers(1, 15), reference.integers(1, n + 1)) == (n, k)
            assert random_schedule(rng, k, n).alphas == tuple(choice_schedule(reference, k, n).tolist())
            constant_rows = trial % 2 == 1
            assert random_family(rng, k, n, constant_rows).rows == tuple(choice_family(reference, k, n, constant_rows))
        assert rng.random() == reference.random()


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


@pytest.mark.parametrize("n_max, seed, message", [
    (25, 0, "n_max must lie in 2..18, got 25"),
    (1, 0, "n_max must lie in 2..18, got 1"),
    (14, -1, "seed must be a nonnegative integer, got -1"),
])
def test_bad_size_or_seed_refused_before_any_trial(n_max, seed, message, monkeypatch):
    """An ``n_max`` past the enumeration limit or below 2, or a negative
    seed, is a ConfigError naming it, raised before the first trial."""
    def trial(*args):
        raise AssertionError("a trial ran")

    monkeypatch.setitem(kfwer.verify._TRIALS, "4.2", (trial, None))
    with pytest.raises(ConfigError) as exc:
        run_theorem_trials("4.2", 200, n_max, seed)
    assert str(exc.value) == message


@pytest.mark.parametrize("trials, n_max, seed, message", [
    (-5, 10, 0, "trials must be >= 1, got -5"),
    (0, 10, 0, "trials must be >= 1, got 0"),
    (True, 10, 0, "trials must be an integer, got True"),
    (2.5, 10, 0, "trials must be an integer, got 2.5"),
    (np.float64(3.0), 10, 0, f"trials must be an integer, got {np.float64(3.0)!r}"),
    (200, 10.0, 0, "n_max must be an integer, got 10.0"),
    (200, True, 0, "n_max must be an integer, got True"),
    (200, 10, 1.5, "seed must be an integer, got 1.5"),
    (200, 10, "1", "seed must be an integer, got '1'"),
])
def test_bad_trial_count_or_non_integer_refused_before_any_trial(trials, n_max, seed, message, monkeypatch):
    """A trial count that is not an integer of at least 1, or an ``n_max``
    or seed that is not an integer, is a ConfigError naming it, raised
    before the first trial. A count of -5 or 0 used to report "ok" on no
    trials, and True one trial."""
    def trial(*args):
        raise AssertionError("a trial ran")

    monkeypatch.setitem(kfwer.verify._TRIALS, "4.2", (trial, None))
    with pytest.raises(ConfigError) as exc:
        run_theorem_trials("4.2", trials, n_max, seed)
    assert str(exc.value) == message


def test_numpy_integer_arguments_run_as_ints():
    report = run_theorem_trials("4.2", np.int64(20), np.int32(8), np.uint64(5))
    assert report == run_theorem_trials("4.2", 20, 8, 5)
    assert type(report.trials) is int


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


def test_draw_order_is_pinned(capsys):
    """The instances each theorem draws for a seed are part of the
    harness's output: these notes count branches of the draws, so a
    change in draw order shows here."""
    assert main(["verify", "--theorem", "all", "--n-max", "10", "--trials", "200", "--seed", "7"]) == 0
    assert capsys.readouterr().out == (
        "theorem 4.1: 200 trials, ok, equality_trials=163\n"
        "theorem 4.2: 200 trials, ok\n"
        "theorem 4.3: 200 trials, ok, condition_filtered=24\n"
        "theorem 4.4: 200 trials, ok\n"
        "theorem 5.1: 200 trials, ok, reject_all_branch=66\n"
    )


SHORTCUTS = {"4.1": "stepdown", "4.2": "stepdown", "4.3": "stepup", "4.4": "stepup",
             "5.1": "generalized_hommel"}


@pytest.mark.parametrize("theorem", THEOREMS)
def test_counterexamples_name_the_relation_and_replay(theorem, monkeypatch):
    """A closure that drops its last rejection must be caught, and each
    counterexample must carry what it takes to replay both sides."""
    def drop_last(p, fam):
        result = closed_testing(p, fam)
        flags = list(result.rejected)
        if any(flags):
            flags[result.rejected_indices()[-1]] = False
        return dataclasses.replace(result, rejected=tuple(flags))

    monkeypatch.setattr(kfwer.verify, "closed_testing", drop_last)
    report = run_theorem_trials(theorem, trials=60, n_max=8, seed=31)
    assert not report.passed
    for f in report.failures:
        rows_constant = all(all(v == row[0] for v in row) for row in f.family_rows)
        relation = {"4.1": "equality" if rows_constant else "inclusion", "4.3": "inclusion"}
        assert f.relation == relation.get(theorem, "equality")
        assert (f.left_name, f.right_name) == (SHORTCUTS[theorem], "closed_testing")
        assert (f.schedule is None) == (theorem == "5.1")
        p = order_pvalues(f.pvalues)
        fam = validate_family(f.k, len(f.pvalues), f.family_rows)
        assert f.right_rejected == closed_testing(p, fam).rejected_indices()[:-1]
        if f.schedule is None:
            left = generalized_hommel(p, fam)
        else:
            decide = stepdown if f.left_name == "stepdown" else stepup
            left = decide(p, validate_schedule(f.k, len(f.pvalues), f.schedule))
        assert f.left_rejected == left.rejected_indices()
        assert f"theorem {theorem}, trial {f.trial}" in f.describe()

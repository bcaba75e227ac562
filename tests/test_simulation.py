"""Monte Carlo machinery: stream determinism, generator distribution,
error-rate counting, and level control at reduced replication counts."""

import math
import re
from statistics import NormalDist

import numpy as np
import pytest
from scipy import stats
from scipy.special import ndtr

from kfwer import (
    ConfigError,
    LengthMismatchError,
    ProcedureResult,
    SimulationConfig,
    closed_testing,
    constant_family,
    estimate_kfwer,
    generate_pvalues,
    lehmann_romano_schedule,
    order_pvalues,
    romano_shaikh_schedule,
    scaled_family,
    simes_family,
    simulation,
)
from kfwer.procedures import FAMILY_PROCEDURES, bind_procedure
from kfwer.simulation import (
    _FLOOR,
    _MU,
    _REACH,
    CHUNK_ELEMENTS,
    _count_rejections,
    _critical_values,
    _kernels,
    _quantile,
    _ReplicationRng,
    _screened_rejections,
    _thresholds,
    build_procedure,
)
from oracles import estimate_kfwer_oracle


def config(**overrides):
    base = dict(n=5, n_true=5, k=2, alpha=0.05, reps=100, seed=42)
    base.update(overrides)
    return SimulationConfig(**base)


class TestConfigValidation:
    def test_accepts_valid(self):
        cfg = config(dependence="equicorrelated", rho=0.5, delta=1.0)
        assert cfg.effective_rho == 0.5

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(n_true=6),
            dict(n_true=-1),
            dict(reps=0),
            dict(rho=1.0),
            dict(rho=-0.1),
            dict(delta=-0.5),
            dict(procedure="bonferroni"),
            dict(schedule="simes"),
            dict(dependence="arbitrary"),
            dict(seed=-1),
        ],
    )
    def test_rejects_invalid(self, overrides):
        with pytest.raises(ConfigError):
            config(**overrides)

    @pytest.mark.parametrize("field", ["n", "n_true", "k", "reps", "seed"])
    @pytest.mark.parametrize("value", [1.5, 1.9, 2.0, True, np.bool_(True), "3", None])
    def test_rejects_non_integral_counts(self, field, value):
        """A float seed used to run the truncated seed's stream, and a
        float n, k, n_true or reps failed mid-run with TypeError."""
        with pytest.raises(ConfigError, match=f"^{field} must be an integer"):
            config(**{field: value})

    @pytest.mark.parametrize("field", ["alpha", "rho", "delta"])
    @pytest.mark.parametrize("value", ["0.5", True, np.bool_(False), None, 0.5j])
    def test_rejects_non_real_levels(self, field, value):
        """A string alpha, rho or delta used to fail with a bare TypeError,
        and a bool passed the range checks as 0 or 1."""
        with pytest.raises(ConfigError, match=re.escape(f"{field} must be a real number, got {value!r}")):
            config(**{field: value})

    def test_numpy_integers_are_stored_as_int(self):
        cfg = config(n=np.int64(5), n_true=np.int32(3), k=np.int16(2), reps=np.uint64(50), seed=np.uint64(2**64 - 1))
        assert all(type(getattr(cfg, name)) is int for name in ("n", "n_true", "k", "reps", "seed"))
        assert estimate_kfwer(cfg) == estimate_kfwer(config(n=5, n_true=3, k=2, reps=50, seed=2**64 - 1))

    @pytest.mark.parametrize("delta", [math.nan, math.inf])
    def test_rejects_non_finite_delta(self, delta):
        with pytest.raises(ConfigError, match="delta"):
            config(delta=delta)

    def test_rho_ignored_when_independent(self):
        cfg = config(dependence="independent", rho=0.7)
        assert cfg.effective_rho == 0.0

    def test_family_procedures_need_family_schedule(self):
        with pytest.raises(ConfigError):
            build_procedure(config(procedure="hommel", schedule="lehmann-romano"))


class TestGeneratePValues:
    def test_deterministic_per_replication(self):
        cfg = config(n=3, n_true=3, dependence="equicorrelated", rho=0.5)
        assert generate_pvalues(cfg, 7) == generate_pvalues(cfg, 7)

    def test_replications_differ(self):
        cfg = config()
        assert generate_pvalues(cfg, 0) != generate_pvalues(cfg, 1)

    def test_seeds_differ(self):
        assert generate_pvalues(config(seed=1), 0) != generate_pvalues(config(seed=2), 0)

    def test_independent_equals_rho_zero(self):
        a = generate_pvalues(config(dependence="independent", rho=0.9), 3)
        b = generate_pvalues(config(dependence="equicorrelated", rho=0.0), 3)
        assert a == b

    def test_reusable_stream_matches_fresh_construction(self):
        """The re-keyed stream must be indistinguishable from building a
        fresh counter-based generator keyed by (seed, replication)."""
        rng = _ReplicationRng()
        reused = np.empty((3, 8))
        for seed, rep in [(0, 0), (3, 91), (2**63, 5), (12345, 2**40), (2**64 - 1, 2**64 - 3)]:
            rng.fill(seed, rep, reused)
            for row in range(3):
                fresh = np.random.Generator(np.random.Philox(key=(seed << 64) | (rep + row)))
                assert np.array_equal(fresh.standard_normal(8), reused[row])

    def test_large_shift_drives_false_null_pvalues_to_zero(self):
        cfg = config(n=6, n_true=2, delta=12.0)
        p = generate_pvalues(cfg, 0)
        assert all(v < 1e-8 for v in p.values[2:])

    def test_true_nulls_uniform(self):
        """Pooled true-null p-values pass a goodness-of-fit check."""
        cfg = config(n=5, n_true=5, reps=10_000, dependence="independent")
        pooled = np.concatenate([generate_pvalues(cfg, rep).values for rep in range(cfg.reps)])
        assert stats.kstest(pooled, "uniform").pvalue > 1e-3

    def test_correlated_nulls_still_uniform_marginally(self):
        cfg = config(n=4, n_true=4, dependence="equicorrelated", rho=0.8)
        pooled = np.concatenate([generate_pvalues(cfg, rep).values for rep in range(2_000)])
        assert stats.kstest(pooled, "uniform").pvalue > 1e-3

    def test_negative_replication_rejected(self):
        with pytest.raises(ConfigError):
            generate_pvalues(config(), -1)

    @pytest.mark.parametrize("index", [True, False, 1.5, 2.0, np.float64(1.0), np.bool_(True), "1", None])
    def test_non_integer_replication_index_rejected(self, index):
        """True used to draw replication 1, and 1.5 or 2.0 failed inside
        the stream's fill with TypeError."""
        with pytest.raises(ConfigError, match=re.escape(f"replication_index must be an integer, got {index!r}")):
            generate_pvalues(config(), index)

    def test_numpy_integer_replication_index_draws_that_replication(self):
        cfg = config()
        assert generate_pvalues(cfg, np.uint64(3)) == generate_pvalues(cfg, 3)

    def test_replication_index_beyond_64_bits_rejected(self):
        """The stream key holds the index in 64 bits; 2**64 must not wrap
        around to replication 0."""
        cfg = config()
        with pytest.raises(ConfigError, match="replication_index"):
            generate_pvalues(cfg, 2**64)
        last = np.random.Generator(np.random.Philox(key=(cfg.seed << 64) | (2**64 - 1))).standard_normal(6)
        assert generate_pvalues(cfg, 2**64 - 1).values == tuple(ndtr(-last[1:]).tolist())


def reject_first(count):
    """A procedure stub rejecting the `count` most significant hypotheses."""

    def run(p):
        flags = [False] * p.n
        for j in p.order[:count]:
            flags[j] = True
        return ProcedureResult(tuple(flags), {}, "reject_first")

    return run


class TestEstimateKfwer:
    def test_automatic_rejections_alone_never_count(self):
        """Rejecting only the k-1 most significant keeps V below k."""
        cfg = config(reps=300)
        res = estimate_kfwer(cfg, procedure=reject_first(cfg.k - 1))
        assert res.kfwer_estimate == 0.0
        assert res.std_error == 0.0

    def test_reject_all_hits_every_replication(self):
        cfg = config(reps=300)
        res = estimate_kfwer(cfg, procedure=reject_first(cfg.n))
        assert res.kfwer_estimate == 1.0

    def test_rejecting_exactly_k_true_nulls_counts(self):
        cfg = config(reps=50)
        res = estimate_kfwer(cfg, procedure=reject_first(cfg.k))
        assert res.kfwer_estimate == 1.0

    @pytest.mark.parametrize("extra, bad_rep", [(1, 0), (-1, 0), (1, 3), (-1, 4)])
    def test_a_rule_flagging_the_wrong_count_is_refused(self, extra, bad_rep):
        """A decider whose result flags n + 1 or n - 1 hypotheses, in the
        first replication or a later one, raises LengthMismatchError naming
        the replication and both lengths. With n + 1 flags in every
        replication it once returned an estimate with power 1.5."""
        cfg = config(n=4, n_true=2, delta=2.0, reps=5)
        calls = []

        def decide(p):
            width = p.n + (extra if len(calls) == bad_rep else 0)
            calls.append(width)
            return ProcedureResult((True,) * width, {}, "wrong_length")

        with pytest.raises(LengthMismatchError) as exc:
            estimate_kfwer(cfg, procedure=decide)
        assert str(exc.value) == f"replication {bad_rep}: procedure flagged {4 + extra} hypotheses, expected n=4"

    def test_single_replication_is_binary(self):
        res = estimate_kfwer(config(reps=1))
        assert res.kfwer_estimate in (0.0, 1.0)
        assert res.reps_run == 1

    def test_deterministic(self):
        cfg = config(n=6, n_true=4, reps=500, delta=1.5, dependence="equicorrelated", rho=0.3)
        assert estimate_kfwer(cfg) == estimate_kfwer(cfg)

    def test_power_none_when_all_null(self):
        assert estimate_kfwer(config(reps=50)).avg_power is None

    def test_power_approaches_one_with_huge_shift(self):
        cfg = config(n=6, n_true=3, k=1, delta=15.0, reps=400)
        res = estimate_kfwer(cfg)
        assert res.avg_power is not None and res.avg_power > 0.99

    def test_no_true_nulls_never_exceeds(self):
        cfg = config(n=4, n_true=0, k=1, delta=3.0, reps=200)
        assert estimate_kfwer(cfg).kfwer_estimate == 0.0

    def test_std_error_formula(self):
        cfg = config(n=6, n_true=6, k=1, alpha=0.2, reps=2_000)
        res = estimate_kfwer(cfg)
        assert math.isclose(
            res.std_error, math.sqrt(res.kfwer_estimate * (1 - res.kfwer_estimate) / res.reps_run)
        )


LEVEL_CONFIGS = [
    dict(procedure="stepdown", schedule="lehmann-romano"),
    dict(procedure="stepup", schedule="romano-shaikh"),
    dict(procedure="hommel", schedule="constant"),
    dict(procedure="closed", schedule="constant"),
    dict(procedure="closed", schedule="romano-shaikh"),
    dict(procedure="hommel", schedule="constant", dependence="equicorrelated", rho=0.5),
    dict(procedure="stepdown", schedule="lehmann-romano", n_true=6, delta=2.0),
    dict(procedure="stepup", schedule="romano-shaikh", dependence="equicorrelated", rho=0.9),
]


@pytest.mark.parametrize("overrides", LEVEL_CONFIGS)
def test_level_control_quick(overrides):
    """Reduced-replication version of the acceptance level check: every
    built-in procedure keeps the estimated error rate within Monte Carlo
    noise of alpha."""
    settings = dict(n=8, n_true=8, k=2, reps=20_000, seed=1234)
    settings.update(overrides)
    cfg = config(**settings)
    res = estimate_kfwer(cfg)
    assert res.kfwer_estimate <= cfg.alpha + 3 * max(res.std_error, 1e-4)


@pytest.mark.parametrize("signal", [dict(), dict(n_true=5, delta=2.0, reps=5_000)])
@pytest.mark.parametrize("overrides", [c for c in LEVEL_CONFIGS if c["procedure"] == "closed"])
def test_closed_estimates_equal_exhaustive_closure(overrides, signal):
    """`closed` decides through the Hommel shortcut (Theorem 5.1); its seeded
    estimates are float for float those of the exhaustive closure engine."""
    settings = dict(n=8, n_true=8, k=2, reps=20_000, seed=1234)
    settings.update(overrides, **signal)
    cfg = config(**settings)
    k, n, alpha = cfg.k, cfg.n, cfg.alpha
    if cfg.schedule == "constant":
        fam = constant_family(k, n, alpha)
    else:
        fam = scaled_family(lehmann_romano_schedule(k, n, alpha), alpha)
    assert estimate_kfwer(cfg) == estimate_kfwer(cfg, procedure=lambda p: closed_testing(p, fam))


def oracle_estimate(cfg, normals=None):
    critical = _critical_values(cfg)
    table = critical.rows if cfg.procedure in FAMILY_PROCEDURES else critical.alphas
    return estimate_kfwer_oracle(cfg, table, normals=normals)


@pytest.mark.parametrize("overrides", LEVEL_CONFIGS)
def test_chunked_estimates_equal_one_replication_loop(overrides):
    """The chunked engine reproduces the one-replication-at-a-time
    reference float for float; 6,000 replications at n = 8 span four chunks."""
    settings = dict(n=8, n_true=8, k=2, reps=6_000, seed=1234)
    settings.update(overrides)
    cfg = config(**settings)
    assert estimate_kfwer(cfg) == oracle_estimate(cfg)


CHUNK_ROWS_N10 = CHUNK_ELEMENTS // 11
EDGE_CONFIGS = [
    dict(n=5, n_true=3, k=2, reps=1, delta=1.0),
    *(dict(n=10, n_true=5, k=2, procedure="hommel", schedule="constant", reps=reps, delta=2.0,
           dependence="equicorrelated", rho=0.5) for reps in (CHUNK_ROWS_N10 - 1, CHUNK_ROWS_N10,
                                                               CHUNK_ROWS_N10 + 1)),
    dict(n=1, n_true=1, k=1, reps=300),
    dict(n=1, n_true=0, k=1, procedure="closed", schedule="romano-shaikh", reps=300, delta=1.0),
    dict(n=6, n_true=3, k=6, procedure="stepup", schedule="romano-shaikh", reps=400, delta=2.0),
    dict(n=6, n_true=0, k=2, procedure="stepup", schedule="constant", reps=400, delta=1.0),
    dict(n=6, n_true=6, k=1, procedure="hommel", schedule="romano-shaikh", reps=400, alpha=0.3),
    dict(n=7, n_true=4, k=2, procedure="closed", schedule="constant", reps=400, delta=1.0,
         dependence="equicorrelated", rho=0.9),
    # k = n with only false or only true nulls, false nulls at delta = 40,
    # where ndtr returns exactly 0.0 for many of them, for every procedure.
    *(dict(n=5, n_true=n_true, k=5, procedure=procedure, schedule=schedule, reps=200, delta=40.0)
      for procedure, schedule in (("stepdown", "lehmann-romano"), ("stepup", "romano-shaikh"),
                                  ("hommel", "constant"), ("closed", "romano-shaikh"))
      for n_true in (0, 5)),
    *(dict(n=6, n_true=3, k=k, procedure=procedure, schedule=schedule, reps=300, delta=40.0)
      for procedure, schedule, k in (("stepdown", "constant", 1), ("stepup", "lehmann-romano", 2),
                                     ("hommel", "romano-shaikh", 1), ("closed", "constant", 2))),
    dict(n=6, n_true=2, k=2, procedure="hommel", schedule="constant", reps=300, delta=45.0),
    dict(n=6, n_true=2, k=3, procedure="stepdown", schedule="constant", reps=300, delta=40.0),
    dict(n=CHUNK_ELEMENTS // 2, n_true=CHUNK_ELEMENTS // 4, k=3, reps=3, delta=3.0),
]


@pytest.mark.parametrize("settings", EDGE_CONFIGS)
def test_chunked_estimates_equal_one_replication_loop_at_edges(settings):
    """One replication, chunk boundaries, n = 1, k = n, no or only true
    nulls, strong correlation, false-null p-values underflowing to tied
    zeros, and a chunk of a single row. The default path, which counts V
    from sorted values, also equals the override path, which flags each
    replication's rejections through the public rule."""
    cfg = config(seed=77, **settings)
    result = estimate_kfwer(cfg)
    assert result == oracle_estimate(cfg)
    assert result == estimate_kfwer(cfg, procedure=build_procedure(cfg))


def test_edge_configs_reach_their_edges():
    assert CHUNK_ELEMENTS // (EDGE_CONFIGS[-1]["n"] + 1) == 1
    zeros = generate_pvalues(config(**EDGE_CONFIGS[-3], seed=77), 0).values[2:]
    assert zeros == (0.0,) * 4


def flagged_true_nulls(p, c, n_true):
    """Reference for V: flag each row's first c ranks in the stable order,
    then sum the flags of the true nulls, positions 0..n_true-1."""
    v = []
    for row, count in zip(p, c):
        flags = np.zeros(row.size, dtype=bool)
        flags[np.argsort(row, kind="stable")[:count]] = True
        v.append(int(flags[:n_true].sum()))
    return v


PLANTED_ROWS = [
    [0.2, 0.1, 0.2, 0.2, 0.05, 0.2],  # a run of 0.2 on both sides of the true/false boundary
    [0.4, 0.3, 0.4, 0.3, 0.4, 0.3],  # two interleaved runs
    [0.3] * 6,
    [0.0] * 6,
    [1.0] * 6,
    [0.0, -0.0, 0.5, -0.0, 0.0, 0.1],  # -0.0 ties with 0.0
    [-0.0, 0.0, -0.0, 0.0, -0.0, 0.0],
    [0.6, 0.5, 0.4, 0.3, 0.2, 0.1],
]


@pytest.mark.parametrize("n_true", range(7))
def test_count_rejections_equals_flagged_reference(n_true):
    """Every planted row with every count c = 0..n, and random rows drawn
    from a few values so that ties cross the cut, against the flag-based
    reference; the counts reach the kernel sorted and come back as given."""
    rng = np.random.default_rng(n_true)
    pool = rng.choice([0.0, -0.0, 0.1, 0.5, 1.0], size=(300, 6))
    rows = np.array(PLANTED_ROWS + pool.tolist())
    p = np.repeat(rows, 7, axis=0)
    c = np.tile(np.arange(7), len(rows))

    def counts(sp):
        assert np.array_equal(sp, np.sort(p, axis=1))
        return c

    got_c, v = _count_rejections(p, counts, n_true)
    assert got_c is c
    assert v.tolist() == flagged_true_nulls(p, c, n_true)


def test_quantile_and_thresholds_are_within_their_bounds_of_ndtr(monkeypatch):
    """The normal quantile and the thresholds mapped from it, against
    scipy's ndtr: alpha log-uniform over [1e-300, 1), alpha = 0, 5e-324
    and 1 - 2^-53, and the Lehmann-Romano and Romano-Shaikh schedules at
    n = 10^4. Each inverse reads within 2^-39 of its target a (1 -+ 2 mu),
    as the derivation in _thresholds gives; the strict threshold is -inf
    and the loose one -R where the target lies beyond the reach, and the
    loose one is +inf where a (1 + 2 mu) reaches 1. Both rise with a."""
    rng = np.random.default_rng(2027)
    base = lehmann_romano_schedule(2, 10**4, 0.05)
    alphas = np.concatenate([10.0 ** rng.uniform(-300.0, 0.0, 10**5), [0.0, 5e-324, 1.0 - 2.0**-53, 0.5],
                             base.alphas, romano_shaikh_schedule(base, 0.05).alphas])
    strict, loose = _thresholds(alphas)
    for threshold, target, beyond in ((strict, alphas * (1.0 - 2.0 * _MU), -np.inf),
                                      (loose, alphas * (1.0 + 2.0 * _MU), -_REACH)):
        inside = (target >= _FLOOR) & (target < 1.0)
        assert np.max(np.abs(ndtr(threshold[inside]) / target[inside] - 1.0)) <= 2.0**-39
        assert (threshold[target < _FLOOR] == beyond).all()
    assert (loose[alphas * (1.0 + 2.0 * _MU) >= 1.0] == np.inf).all() and np.isfinite(strict[alphas > 0.0]).any()
    for threshold in (strict, loose):
        rising = threshold[np.argsort(alphas)]
        assert (rising[1:] >= rising[:-1]).all()
    assert (strict < loose).all()
    q = np.concatenate([10.0 ** rng.uniform(np.log10(_FLOOR), 0.0, 10**4), 1.0 - 10.0 ** rng.uniform(-16.0, -0.3, 10**4),
                        [_FLOOR, 0.5, 1.0 - 2.0**-53]])
    assert np.max(np.abs(ndtr([_quantile(x) for x in q.tolist()]) / q - 1.0)) <= 2.0**-39
    # An inverse that misses the check raises instead of returning.
    monkeypatch.setattr(simulation, "_inverse_cdf", lambda x: NormalDist().inv_cdf(x) + 1e-6)
    for x in (_FLOOR, 0.05, 0.5, 0.9):
        with pytest.raises(ArithmeticError, match="failed its check"):
            _quantile(x)
    # Below the reach, ndtr is relied on only to stay at or under the floor.
    beyond = np.array([_REACH, np.nextafter(_REACH, np.inf), 9.0, 40.0, 1e300])
    assert (ndtr(-beyond) <= _FLOOR * (1.0 + 1e-13)).all()


def count_fallback_rows(cfg, monkeypatch):
    """The default path's estimate and the number of rows it counted again
    from ndtr."""
    rows = []

    def exact_tail(z):
        rows.append(len(z))
        return ndtr(-z)

    with monkeypatch.context() as patch:
        patch.setattr(simulation, "_exact_tail", exact_tail)
        result = estimate_kfwer(cfg)
    return result, sum(rows)


PROCEDURE_SCHEDULES = [("stepdown", "lehmann-romano"), ("stepup", "romano-shaikh"),
                       ("hommel", "constant"), ("closed", "romano-shaikh")]
FALLBACK_CONFIGS = [
    # rho = 1 - 2^-52: the scores of each group differ by about 2^-26, so
    # neighbouring p-values meet at the cut within the bracket's margin.
    *(dict(n=10, n_true=5, k=2, procedure=procedure, schedule=schedule, reps=2_000, delta=2.0,
           dependence="equicorrelated", rho=1.0 - 2.0**-52) for procedure, schedule in PROCEDURE_SCHEDULES),
    # delta = 40, where ndtr returns exactly 0.0 for the false nulls, with
    # critical values below Q(8.5), beyond the thresholds' reach. At k = 1
    # the strict thresholds, all -inf, reject nothing, and the test at the
    # cut does not look at c = 0, so only the loose thresholds' clamp at
    # the reach sends the rows back.
    *(dict(n=6, n_true=3, k=k, procedure=procedure, schedule=schedule, reps=300, delta=40.0, alpha=1e-300)
      for k in (2, 1) for procedure, schedule in PROCEDURE_SCHEDULES),
]


@pytest.mark.parametrize("settings", FALLBACK_CONFIGS)
def test_rows_the_screen_leaves_are_counted_from_ndtr(settings, monkeypatch):
    """Where the bracket cannot prove a row, the row is counted again from
    ndtr: the default path still equals the override path and the
    one-replication reference, field for field."""
    cfg = config(seed=5, **settings)
    result, fallback = count_fallback_rows(cfg, monkeypatch)
    assert result == estimate_kfwer(cfg, procedure=build_procedure(cfg)) == oracle_estimate(cfg)
    assert fallback >= 1


@pytest.mark.parametrize("n_true", (1, 3, 5))
@pytest.mark.parametrize("procedure, schedule", PROCEDURE_SCHEDULES)
def test_tied_scores_at_the_cut_are_counted_from_ndtr(procedure, schedule, n_true, monkeypatch):
    """Rows of exactly tied negated scores y, the planted rows mapped by
    4p - 2 and random rows drawn from a few values, through the screen with
    each procedure's kernels. A kept row's V counts the true nulls at or
    below its cut, which is exact only without a tie there, so every row
    whose tie runs across the cut, some of them across the true/false
    boundary, must be counted again from ndtr; c and V equal those counted
    from ndtr and those of the public rule's rejection flags."""
    critical = _critical_values(config(n=6, n_true=n_true, alpha=0.5, procedure=procedure, schedule=schedule))
    kernels = _kernels(procedure, critical)
    rng = np.random.default_rng(n_true)
    y = np.concatenate([4.0 * np.array(PLANTED_ROWS) - 2.0, rng.choice([-2.0, -1.0, -0.5, 0.0, 1.0], size=(300, 6))])
    recounted = set()

    def exact_tail(z):
        recounted.update(map(tuple, z.tolist()))
        return ndtr(-z)

    monkeypatch.setattr(simulation, "_exact_tail", exact_tail)
    c, v = _screened_rejections(y, kernels, n_true)
    want_c, want_v = _count_rejections(ndtr(y), kernels[0], n_true)
    assert c.tolist() == want_c.tolist() and v.tolist() == want_v.tolist()
    rule = bind_procedure(procedure, critical)
    flags = np.array([rule(order_pvalues(row)).rejected for row in ndtr(y)])
    assert c.tolist() == flags.sum(axis=1).tolist() and v.tolist() == flags[:, :n_true].sum(axis=1).tolist()
    rows, sy = np.arange(len(y)), np.sort(y, axis=1)
    t = sy[rows, c - 1]
    tied = (c > 0) & (c < 6) & (t == sy[rows, np.minimum(c, 5)])
    across = tied & (y[:, :n_true] == t[:, None]).any(axis=1) & (y[:, n_true:] == t[:, None]).any(axis=1)
    assert across.any()
    assert set(map(tuple, (-y[tied]).tolist())) <= recounted


def first_z(start, accept):
    """The first float from ``start`` up that ``accept`` takes, with the
    float after it."""
    z = start
    for _ in range(10_000):
        after = np.nextafter(z, np.inf)
        if accept(z, after):
            return z, after
        z = after
    raise AssertionError("no such float")


def hand_built_cases():
    """Rows of scores (rho = 0, so each score is its normal) whose
    thresholds or order alone would count them wrong.

    - A tie at the cut: two neighbouring scores whose ndtr values are
      equal, the larger score on the true null. k = 2 rejects the smaller
      p by default and the second value misses; the scores' order rejects
      the false null, ndtr's stable order the true null.
    - A false null's ndtr value equal to the constant critical value
      alpha / 2 at rank 2 (k = 2, n = 4), under each of the four
      procedures: stepdown and stepup read the value in the constant
      schedule, Hommel and closed testing in the constant family, whose
      rank-2 value is the same. Its score lies between the mapped strict
      and loose thresholds of that value.
    - The mirror: the ndtr value one float above the critical value, which
      it misses, where its score lies between the same two thresholds.
    """
    tie, after = first_z(0.3, lambda a, b: ndtr(-a) == ndtr(-b))
    value = ndtr(-0.5)
    return [
        (dict(n=2, n_true=1, k=2, procedure="stepdown", schedule="constant"), [0.0, tie, after]),
        *((dict(n=4, n_true=2, k=2, procedure=procedure, schedule="constant", alpha=2.0 * critical),
           [0.0, 3.0, -1.0, 0.5, -1.0])
          for critical in (value, np.nextafter(value, 0.0))
          for procedure in ("stepdown", "stepup", "hommel", "closed")),
    ]


@pytest.mark.parametrize("case", range(9))
def test_hand_built_rows_are_counted_from_ndtr(case, monkeypatch):
    """Each hand-built row falls back to ndtr, and the default path equals
    the override and the reference on it. With no margin in the
    thresholds, with every threshold moved by 2^-28 of its value either
    way, or without the test at the cut, the bracket would pass one of
    these rows and count it from the scores."""
    settings, row = hand_built_cases()[case]
    cfg = config(reps=3, seed=0, **settings)

    def fill(self, seed, first, rows):
        for out in rows:
            out[:] = row

    monkeypatch.setattr(_ReplicationRng, "fill", fill)
    result, fallback = count_fallback_rows(cfg, monkeypatch)
    assert result == estimate_kfwer(cfg, procedure=build_procedure(cfg))
    assert result == oracle_estimate(cfg, normals=lambda rep: row)
    assert fallback == cfg.reps


@pytest.mark.parametrize("rho", [0.5, 1.0 - 2.0**-52])
def test_a_table_family_is_bracketed_through_its_kernel(rho, monkeypatch):
    """The bracket reads a family only through the procedure's kernel, so
    a table serves as well as a form: with Simes' table in place of the
    configured family, Hommel's default path equals the override and the
    one-replication reference on the table's rows. At rho = 1 - 2^-52 the
    true nulls meet at the cut and rows are counted again from ndtr."""
    cfg = config(n=10, n_true=5, k=2, alpha=0.3, procedure="hommel", schedule="constant", reps=2_000,
                 delta=2.0, dependence="equicorrelated", rho=rho, seed=5)
    simes = simes_family(cfg.k, cfg.n, cfg.alpha)
    monkeypatch.setattr(simulation, "_critical_values", lambda config: simes)
    result, fallback = count_fallback_rows(cfg, monkeypatch)
    assert result == estimate_kfwer(cfg, procedure=build_procedure(cfg))
    assert result == estimate_kfwer_oracle(cfg, simes.rows)
    assert rho == 0.5 or fallback >= 1

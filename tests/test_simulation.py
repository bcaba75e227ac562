"""Monte Carlo machinery: stream determinism, generator distribution,
error-rate counting, and level control at reduced replication counts."""

import math

import numpy as np
import pytest
from scipy import stats
from scipy.special import ndtr

from kfwer import (
    ConfigError,
    ProcedureResult,
    SimulationConfig,
    closed_testing,
    constant_family,
    estimate_kfwer,
    generate_pvalues,
    lehmann_romano_schedule,
    order_pvalues,
    scaled_family,
)
from kfwer.procedures import FAMILY_PROCEDURES
from kfwer.simulation import CHUNK_ELEMENTS, _critical_values, _ReplicationRng, build_procedure
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


def oracle_estimate(cfg):
    critical = _critical_values(cfg)
    return estimate_kfwer_oracle(cfg, critical.rows if cfg.procedure in FAMILY_PROCEDURES else critical.alphas)


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
    dict(n=6, n_true=2, k=2, procedure="hommel", schedule="constant", reps=300, delta=45.0),
    dict(n=6, n_true=2, k=3, procedure="stepdown", schedule="constant", reps=300, delta=40.0),
    dict(n=CHUNK_ELEMENTS // 2, n_true=CHUNK_ELEMENTS // 4, k=3, reps=3, delta=3.0),
]


@pytest.mark.parametrize("settings", EDGE_CONFIGS)
def test_chunked_estimates_equal_one_replication_loop_at_edges(settings):
    """One replication, chunk boundaries, n = 1, k = n, no or only true
    nulls, strong correlation, false-null p-values underflowing to tied
    zeros, and a chunk of a single row."""
    cfg = config(seed=77, **settings)
    assert estimate_kfwer(cfg) == oracle_estimate(cfg)


def test_edge_configs_reach_their_edges():
    assert CHUNK_ELEMENTS // (EDGE_CONFIGS[-1]["n"] + 1) == 1
    zeros = generate_pvalues(config(**EDGE_CONFIGS[-3], seed=77), 0).values[2:]
    assert zeros == (0.0,) * 4

"""Monte Carlo estimation of the realized k-FWER and average power.

The data-generating model is a Gaussian copula with equicorrelation:
latent scores share a common factor with weight sqrt(rho), false nulls
get a mean shift, and p-values are one-sided normal tails. True-null
p-values are exactly Uniform(0,1) marginally, so validity holds with
equality and estimated error rates probe the procedures' guarantees as
tightly as the model allows.

Each replication draws from its own counter-based random stream keyed by
(seed, replication_index), so results are bit-identical whether
replications run serially or are split across workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.special import ndtr

from .core import ConfigError, PValueVector, order_pvalues
from .procedures import (
    ProcedureResult,
    bind_procedure,
    check_procedure,
    critical_values,
    lehmann_romano_schedule,
)

DEPENDENCE = ("independent", "equicorrelated")


@dataclass(frozen=True)
class SimulationConfig:
    """Data-generating model plus the procedure under test.

    True nulls occupy positions 1..n_true; the remaining hypotheses are
    false nulls whose latent scores are shifted by ``delta``. ``rho`` is
    the pairwise latent correlation (ignored when ``dependence`` is
    "independent").
    """

    n: int
    n_true: int
    k: int
    alpha: float
    procedure: str = "stepdown"
    schedule: str = "lehmann-romano"
    reps: int = 10_000
    dependence: str = "independent"
    rho: float = 0.0
    delta: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ConfigError(f"n must be >= 1, got {self.n}")
        if not 0 <= self.n_true <= self.n:
            raise ConfigError(f"n_true must lie in 0..n={self.n}, got {self.n_true}")
        check_procedure(self.procedure, self.schedule, self.k, self.n, self.alpha)
        if self.reps < 1:
            raise ConfigError(f"reps must be >= 1, got {self.reps}")
        if self.dependence not in DEPENDENCE:
            raise ConfigError(f"unknown dependence {self.dependence!r}, expected one of {DEPENDENCE}")
        if not 0.0 <= self.rho < 1.0:
            raise ConfigError(f"rho must lie in [0, 1), got {self.rho}")
        if not (math.isfinite(self.delta) and self.delta >= 0.0):
            raise ConfigError(f"delta must be a finite number >= 0, got {self.delta}")
        if not 0 <= self.seed < 2**64:
            raise ConfigError(f"seed must be a 64-bit unsigned integer, got {self.seed}")

    @property
    def effective_rho(self) -> float:
        return self.rho if self.dependence == "equicorrelated" else 0.0


@dataclass(frozen=True)
class SimulationResult:
    """Estimated k-FWER with its binomial standard error and the mean
    fraction of false nulls rejected (None when every null is true)."""

    kfwer_estimate: float
    std_error: float
    avg_power: Optional[float]
    reps_run: int

    def __post_init__(self):
        if not 0.0 <= self.kfwer_estimate <= 1.0:
            raise ConfigError(f"estimate {self.kfwer_estimate} outside [0, 1]")


class _ReplicationRng:
    """Reusable counter-based stream, re-keyed per replication.

    Re-keying an existing Philox generator with key (seed, rep) produces
    the same outputs as constructing a fresh one (pinned by a test) but
    skips the expensive key-validation path, which matters at 1e5
    replications.
    """

    def __init__(self):
        self._bg = np.random.Philox(key=0)
        self._gen = np.random.Generator(self._bg)

    def standard_normal(self, seed: int, rep: int, size: int) -> np.ndarray:
        state = self._bg.state
        state["state"]["key"][0] = rep & 0xFFFFFFFFFFFFFFFF
        state["state"]["key"][1] = seed
        state["state"]["counter"][:] = 0
        state["buffer_pos"] = 4
        self._bg.state = state
        return self._gen.standard_normal(size)


def generate_pvalues(
    config: SimulationConfig, replication_index: int, _rng: Optional[_ReplicationRng] = None
) -> PValueVector:
    """Draw one replication's p-values, deterministically from
    (config.seed, replication_index).

    Latent scores are sqrt(rho)*W + sqrt(1-rho)*E_i with W and E_i
    independent standard normals; false nulls add delta; the p-value is
    the upper normal tail of the score.
    """
    if replication_index < 0:
        raise ConfigError(f"replication_index must be >= 0, got {replication_index}")
    rng = _rng if _rng is not None else _ReplicationRng()
    draws = rng.standard_normal(config.seed, replication_index, config.n + 1)
    rho = config.effective_rho
    z = math.sqrt(rho) * draws[0] + math.sqrt(1.0 - rho) * draws[1:]
    if config.n_true < config.n and config.delta != 0.0:
        z[config.n_true:] += config.delta
    pvals = ndtr(-z)
    return order_pvalues(pvals.tolist())


def build_procedure(config: SimulationConfig) -> Callable[[PValueVector], ProcedureResult]:
    """The configured decision rule bound to its critical values (see
    :func:`kfwer.procedures.critical_values`). Romano-Shaikh rescales the
    Lehmann-Romano schedule."""
    proc, k, n, alpha = config.procedure, config.k, config.n, config.alpha
    return bind_procedure(proc, critical_values(proc, config.schedule, k, n, alpha,
                                                base=lambda: lehmann_romano_schedule(k, n, alpha)))


def estimate_kfwer(
    config: SimulationConfig,
    procedure: Optional[Callable[[PValueVector], ProcedureResult]] = None,
) -> SimulationResult:
    """Estimate P{V >= k} where V counts rejected true nulls.

    Any true null swept into the automatic k-1 rejections counts toward
    V; the error-rate definition makes no exemption for them. Power is
    accumulated over false nulls whenever there are any. ``procedure``
    overrides the configured one (useful for testing the counting logic
    with trivial deciders).
    """
    runner = procedure if procedure is not None else build_procedure(config)
    n_true, n, k = config.n_true, config.n, config.k
    n_false = n - n_true
    rng = _ReplicationRng()
    exceedances = 0
    power_sum = 0.0
    for rep in range(config.reps):
        p = generate_pvalues(config, rep, _rng=rng)
        rejected = runner(p).rejected
        v = sum(rejected[:n_true])
        if v >= k:
            exceedances += 1
        if n_false:
            power_sum += sum(rejected[n_true:]) / n_false
    estimate = exceedances / config.reps
    std_error = math.sqrt(estimate * (1.0 - estimate) / config.reps)
    avg_power = power_sum / config.reps if n_false else None
    return SimulationResult(
        kfwer_estimate=estimate,
        std_error=std_error,
        avg_power=avg_power,
        reps_run=config.reps,
    )

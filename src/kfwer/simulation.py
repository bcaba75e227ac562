"""Monte Carlo estimation of the realized k-FWER and average power.

The data-generating model is a Gaussian copula with equicorrelation:
latent scores share a common factor with weight sqrt(rho), false nulls
get a mean shift, and p-values are one-sided normal tails. True-null
p-values are exactly Uniform(0,1) marginally, so validity holds with
equality and estimated error rates probe the procedures' guarantees as
tightly as the model allows.

Each replication draws from its own counter-based random stream keyed by
(seed, replication_index), so results are bit-identical however
replications are grouped: in chunks of any size, serially, or split
across workers.

``estimate_kfwer`` runs one loop over chunks of replications. A chunk's
draws fill one array, a row per replication, and the chunk is
transformed to p-values and its rows sorted, as whole arrays. The
procedure's batch kernel (see :func:`kfwer.procedures.bind_batch`) counts
each row's rejections c from its sorted values, and the number V of
rejected true nulls follows from those values and c alone, since the
true nulls hold the lowest positions; no ordering permutation or
per-hypothesis flag is formed. A chunk holds
``max(1, CHUNK_ELEMENTS // (n + 1))`` replications, so memory stays
bounded at any n and any number of replications. The power
fractions are still added one replication at a time, left to right, so
the estimates equal those of a one-replication-at-a-time loop float for
float.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import ConfigError, PValueVector, _integer, order_pvalues
from .procedures import (
    CriticalValues,
    ProcedureResult,
    bind_batch,
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

    This is the one statement of ``kfwer simulate``'s parameters and their
    defaults: each flag sets one field (``--true-nulls`` sets ``n_true``),
    and a flag not given leaves the field's default.
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
        for name in ("n", "n_true", "k", "reps", "seed"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        # A string would fail the range checks below with TypeError, a bool pass.
        for name in ("alpha", "rho", "delta"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
                raise ConfigError(f"{name} must be a real number, got {value!r}")
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


# Floats per draw array in one chunk of replications: a chunk holds
# max(1, CHUNK_ELEMENTS // (n + 1)) replications, so its arrays stay near
# 128 KB each at any n.
CHUNK_ELEMENTS = 1 << 14


class _ReplicationRng:
    """Reusable counter-based stream, re-keyed per replication.

    Re-keying an existing Philox generator with key (seed, rep) produces
    the same outputs as constructing a fresh one (pinned by a test) but
    skips the expensive key-validation path, which matters at 1e5
    replications. One state dict is kept and only its key is changed;
    its counter and buffer position stay at a fresh stream's values.
    """

    def __init__(self):
        self._bg = np.random.Philox(key=0)
        self._gen = np.random.Generator(self._bg)
        # The setter reads the state entry by entry; from Python lists that
        # is much cheaper than from the numpy arrays the getter returns.
        # An empty buffer (position 4) makes the next draw start at counter 0.
        self._state = self._bg.state
        self._state.update(state={"counter": [0, 0, 0, 0], "key": [0, 0]}, buffer=[0, 0, 0, 0], buffer_pos=4)
        self._key = self._state["state"]["key"]

    def fill(self, seed: int, first: int, out: np.ndarray) -> None:
        """Fill row r of ``out`` with the standard normals of stream
        (seed, first + r)."""
        key, bg, state, standard_normal = self._key, self._bg, self._state, self._gen.standard_normal
        key[1] = seed
        for rep, row in enumerate(out, start=first):
            key[0] = rep
            bg.state = state
            standard_normal(out=row)


def _draw_pvalues(config: SimulationConfig, rng: _ReplicationRng, first: int, draws: np.ndarray) -> np.ndarray:
    """P-values of replications ``first``, ``first + 1``, ..., one row each
    by original position; ``draws`` holds ``n + 1`` floats per row and is
    overwritten.

    Latent scores are sqrt(rho)*W + sqrt(1-rho)*E_i with W and E_i
    independent standard normals; false nulls add delta; the p-value is
    the upper normal tail of the score.
    """
    # scipy is imported here, on the first draw, so that `kfwer test` and
    # `kfwer verify`, which never draw, do not pay for importing it.
    from scipy.special import ndtr

    rng.fill(config.seed, first, draws)
    rho = config.effective_rho
    z = math.sqrt(rho) * draws[:, :1] + math.sqrt(1.0 - rho) * draws[:, 1:]
    if config.n_true < config.n and config.delta != 0.0:
        z[:, config.n_true:] += config.delta
    return ndtr(-z)


def generate_pvalues(config: SimulationConfig, replication_index: int) -> PValueVector:
    """Draw one replication's p-values, deterministically from
    (config.seed, replication_index), as :func:`estimate_kfwer` draws them."""
    replication_index = _integer("replication_index", replication_index)
    if not 0 <= replication_index < 2**64:
        raise ConfigError(f"replication_index must lie in 0..2**64-1, got {replication_index}")
    draws = np.empty((1, config.n + 1))
    return order_pvalues(_draw_pvalues(config, _ReplicationRng(), replication_index, draws)[0])


def _critical_values(config: SimulationConfig) -> CriticalValues:
    """The configured schedule or family (see
    :func:`kfwer.procedures.critical_values`). Romano-Shaikh rescales the
    Lehmann-Romano schedule."""
    proc, k, n, alpha = config.procedure, config.k, config.n, config.alpha
    return critical_values(proc, config.schedule, k, n, alpha, base=lambda: lehmann_romano_schedule(k, n, alpha))


def build_procedure(config: SimulationConfig) -> Callable[[PValueVector], ProcedureResult]:
    """The configured decision rule bound to its critical values."""
    return bind_procedure(config.procedure, _critical_values(config))


def _count_rejections(
    p: np.ndarray, counts: Callable[[np.ndarray], np.ndarray], n_true: int
) -> tuple[np.ndarray, np.ndarray]:
    """Each row's number of rejections c and of rejected true nulls V.

    ``counts`` maps the rows of ``p``, sorted, to c. A row rejects its c
    smallest p-values in the stable order, so its largest rejected value
    is t = sp[c - 1] (t = -1, below every p-value, when c = 0): every
    p-value below t is rejected, and of those tied at t, the first
    c - #{p < t} in the stable order. That order breaks ties by position,
    and the true nulls hold the lowest positions, 0..n_true-1, so tied
    true nulls come first: V = #{true nulls < t} +
    min(#{true nulls == t}, c - #{p < t}). Where the value after the cut,
    sp[c], differs from t, every tie at t is rejected and V is
    #{true nulls <= t}; only rows whose tie runs past the cut count the rest.
    """
    sp = np.sort(p, axis=1)
    c = counts(sp)
    rows, n = np.arange(len(sp)), sp.shape[1]
    t = np.where(c > 0, sp[rows, c - 1], -1.0)[:, None]
    nulls = p[:, :n_true]
    v = np.count_nonzero(nulls <= t, axis=1)
    split = np.flatnonzero((c < n) & (sp[rows, np.minimum(c, n - 1)] == t[:, 0]))
    if split.size:
        tie = t[split]
        below = np.count_nonzero(nulls[split] < tie, axis=1)
        v[split] = below + np.minimum(v[split] - below, c[split] - np.count_nonzero(sp[split] < tie, axis=1))
    return c, v


def estimate_kfwer(
    config: SimulationConfig,
    procedure: Optional[Callable[[PValueVector], ProcedureResult]] = None,
) -> SimulationResult:
    """Estimate P{V >= k} where V counts rejected true nulls.

    Any true null swept into the automatic k-1 rejections counts toward
    V; the error-rate definition makes no exemption for them. Power, the
    mean of (c - V) / n_false over replications for c rejections, is
    accumulated whenever there are false nulls.

    By default each chunk's rows are sorted, the procedure's batch kernel
    counts each row's rejections c, and V is counted from the sorted
    values and c alone (see :func:`_count_rejections`). ``procedure``
    overrides the configured rule: the reference the default path is
    tested against, and a way to test the counting with trivial deciders.
    It is applied to one replication's :class:`PValueVector` at a time,
    and c and V are summed from its rejection flags.
    """
    n_true, n, k, reps = config.n_true, config.n, config.k, config.reps
    n_false = n - n_true
    if procedure is None:
        counts = bind_batch(config.procedure, _critical_values(config))
    rng = _ReplicationRng()
    draws = np.empty((min(reps, max(1, CHUNK_ELEMENTS // (n + 1))), n + 1))
    exceedances = 0
    power_sum = 0.0
    for first in range(0, reps, len(draws)):
        p = _draw_pvalues(config, rng, first, draws[: reps - first])
        if procedure is None:
            c, v = _count_rejections(p, counts, n_true)
        else:
            flags = np.array([procedure(order_pvalues(row)).rejected for row in p], dtype=bool)
            c, v = flags.sum(axis=1), flags[:, :n_true].sum(axis=1)
        exceedances += int(np.count_nonzero(v >= k))
        if n_false:
            # A running sum, left to right, as a one-replication loop adds;
            # np.sum's pairwise order could change the last bits.
            fractions = (c - v) / n_false
            power_sum = float(np.add.accumulate(np.concatenate(([power_sum], fractions)))[-1])
    estimate = exceedances / reps
    std_error = math.sqrt(estimate * (1.0 - estimate) / reps)
    avg_power = power_sum / reps if n_false else None
    return SimulationResult(
        kfwer_estimate=estimate,
        std_error=std_error,
        avg_power=avg_power,
        reps_run=reps,
    )

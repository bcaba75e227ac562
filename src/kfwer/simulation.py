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

The p-values are scipy's ``ndtr(-z)``: :func:`generate_pvalues` and the
``procedure=`` override compute them so. The default path of
``estimate_kfwer`` reads them from a numpy normal tail instead
(:func:`_upper_tail`): each row's exact count is bracketed between the
kernel's counts on a lower and an upper bound of its values (see
:func:`_screened_rejections`), and the rows the bracket cannot prove are
counted again from ``ndtr``. So scipy is imported on the first call that
needs ``ndtr``: ``generate_pvalues``, the override, or a row the bracket
leaves, which draws of ordinary size practically never meet.
``kfwer test`` and ``kfwer verify`` never import it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .core import ConfigError, LengthMismatchError, PValueVector, _integer, order_pvalues
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

    def fill(self, seed: int, first: int, rows: Sequence[np.ndarray]) -> None:
        """Fill ``rows[r]`` with the standard normals of stream
        (seed, first + r). Iterating a list of row views made once, rather
        than a 2-D array, makes no new view per replication."""
        key, bg, state, standard_normal = self._key, self._bg, self._state, self._gen.standard_normal
        key[1] = seed
        for rep, row in enumerate(rows, start=first):
            key[0] = rep
            bg.state = state
            standard_normal(out=row)


def _scores(config: SimulationConfig, draws: np.ndarray) -> np.ndarray:
    """Latent scores, one row per replication by original position, from
    rows of ``n + 1`` standard normals: sqrt(rho)*W + sqrt(1-rho)*E_i with
    W and E_i independent, plus delta for the false nulls. A score's
    p-value is its upper normal tail."""
    rho = config.effective_rho
    z = math.sqrt(rho) * draws[:, :1] + math.sqrt(1.0 - rho) * draws[:, 1:]
    if config.n_true < config.n and config.delta != 0.0:
        z[:, config.n_true:] += config.delta
    return z


def _exact_tail(z: np.ndarray) -> np.ndarray:
    """scipy's ``ndtr(-z)``, the p-values every estimate equals."""
    # scipy is imported here, on the first call, so that `kfwer test`,
    # `kfwer verify` and draws the bracket settles do not pay for importing it.
    from scipy.special import ndtr

    return ndtr(-z)


# The numpy tail: a Taylor series of Q(z) = ndtr(-z) with terms j = 0..4
# about the nearest point of a grid of step 1/_GRID on [-_REACH, _REACH],
# and the bracket's relative margin, cli._MARGIN's constant.
_GRID = 1024
_REACH = 8.5
_LAST = int(_REACH * _GRID)
_MU = 2.0**-30


@functools.cache
def _tail_table() -> np.ndarray:
    """Row j holds Q^(j)(x) / j! / _GRID^j at the grid points x = i /
    _GRID, i = -_LAST.._LAST: Q(x) = erfc(x / sqrt(2)) / 2, then -phi(x),
    x phi(x) / 2, (1 - x^2) phi(x) / 6 and (x^3 - 3x) phi(x) / 24, the
    signed Hermite polynomials He_0..He_3 times phi, each scaled exactly
    by a power of two so that the series runs in units of the grid step.
    Built on first use."""
    x = np.arange(-_LAST, _LAST + 1) / _GRID
    grid = x.tolist()
    q = np.array([0.5 * math.erfc(t / math.sqrt(2.0)) for t in grid])
    phi = np.array([math.exp(-0.5 * t * t) for t in grid]) / math.sqrt(2.0 * math.pi)
    x2 = x * x
    table = np.stack((q, -phi, 0.5 * x * phi, (1.0 - x2) * phi / 6.0, x * (x2 - 3.0) * phi / 24.0))
    table /= (float(_GRID) ** np.arange(5))[:, None]
    table.flags.writeable = False
    return table


def _upper_tail(z: np.ndarray) -> np.ndarray:
    """Q(z) = ndtr(-z) for each score: within 1e-13 of ``ndtr``
    relatively where |z| <= _REACH, and Q(+-_REACH) beyond.

    *Series.* x = z * _GRID is exact (a power of two), z0 = rint(x) /
    _GRID is the grid point nearest z, and h = x - rint(x) = (z - z0) *
    _GRID is exact by Sterbenz's lemma, since x lies within a factor of two
    of rint(x) or rint(x) is 0. As Q' = -phi and Q^(j) = (-1)^j He_(j-1)
    phi (He the Hermite polynomials), Taylor's terms j = 0..4 about z0 are
    the table's rows at z0 times h^j, summed by Horner's rule.

    *Error, relative to Q(z).* The remainder is He_4(xi) phi(xi) (z -
    z0)^5 / 5! for some xi between z0 and z, and |z - z0| <= 2^-11. For
    xi >= 0, |He_4(xi)| < 4,791 (its value at 8.5 + 2^-11), phi(xi) /
    Q(xi) < xi + 1 (Mills' ratio) and Q(xi) / Q(z) < exp(9.51 * 2^-11),
    so it is under 1.1e-14; for xi < 0, Q(z) > 0.49 and it is far
    smaller. The table's Q(z0) is ``math.erfc`` at z0 / sqrt(2) rounded,
    which moves it by up to about z0^2 * 2^-53 (1.6e-14 at 8.5); the other
    entries and Horner's steps add a few units of 2^-53. scipy's ``ndtr``
    also evaluates erfc at a rounded argument; Cephes, where it comes
    from, gives its relative error as at most 3.4e-14 on [-13, 0]. So the
    two differ by under 1e-13, four orders of magnitude below the
    bracket's margin _MU (see :func:`_screened_rejections`). Measured with
    numpy 2.4 and scipy 1.17 on x86-64: at most 2.8e-14 from ``ndtr`` over
    2*10^6 uniform scores and every grid midpoint, and at most 1.9e-14
    from Q computed to 120 bits, where ``ndtr`` was within 1.5e-14 of it.

    *Beyond _REACH* a score reads as +-_REACH. For z > _REACH, Q(z) lies
    in [0, Q(_REACH)], Q(_REACH) = 9.5e-18: the value reads the table's
    Q(_REACH), and the bracket takes it as anywhere in that range. For z <
    -_REACH, Q(z) lies within 9.5e-18 of 1, and the value reads 1.0.
    """
    table = _tail_table()
    h = z * _GRID
    np.minimum(h, _LAST, out=h)
    np.maximum(h, -_LAST, out=h)
    grid = np.rint(h)
    h -= grid
    index = grid.astype(np.intp)
    index += _LAST
    p = table[4].take(index)
    for row in table[3::-1]:
        p *= h
        p += row.take(index)
    return p


def generate_pvalues(config: SimulationConfig, replication_index: int) -> PValueVector:
    """Draw one replication's p-values, deterministically from
    (config.seed, replication_index), as :func:`estimate_kfwer` draws them."""
    replication_index = _integer("replication_index", replication_index)
    if not 0 <= replication_index < 2**64:
        raise ConfigError(f"replication_index must lie in 0..2**64-1, got {replication_index}")
    draws = np.empty((1, config.n + 1))
    _ReplicationRng().fill(config.seed, replication_index, draws)
    return order_pvalues(_exact_tail(_scores(config, draws))[0])


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
    """Each row's number of rejections c and of rejected true nulls V;
    ``counts`` maps the rows of ``p``, sorted, to c."""
    sp = np.sort(p, axis=1)
    c = counts(sp)
    return c, _rejected_true_nulls(p, sp, c, n_true, *_cut(sp, c))


def _cut(sp: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's largest rejected value t = sp[c - 1], -1 (below every
    p-value) when c = 0, and the value after the cut, sp[c], read as
    sp[n - 1] when c = n."""
    rows, n = np.arange(len(sp)), sp.shape[1]
    return np.where(c > 0, sp[rows, c - 1], -1.0), sp[rows, np.minimum(c, n - 1)]


def _rejected_true_nulls(
    p: np.ndarray, sp: np.ndarray, c: np.ndarray, n_true: int, t: np.ndarray, after: np.ndarray
) -> np.ndarray:
    """Each row's number V of rejected true nulls, from its values ``p``,
    their sorted rows ``sp``, its count c and the values ``t`` and
    ``after`` at its cut (see :func:`_cut`).

    A row rejects its c smallest p-values in the stable order, so its
    largest rejected value is t: every p-value below t is rejected, and of
    those tied at t, the first c - #{p < t} in the stable order. That order
    breaks ties by position, and the true nulls hold the lowest positions,
    0..n_true-1, so tied true nulls come first: V = #{true nulls < t} +
    min(#{true nulls == t}, c - #{p < t}). Where c = n or the value after
    the cut differs from t, every tie at t is rejected and V is
    #{true nulls <= t}; only rows whose tie runs past the cut count the rest.
    """
    nulls = p[:, :n_true]
    v = np.count_nonzero(nulls <= t[:, None], axis=1)
    split = np.flatnonzero((c < sp.shape[1]) & (after == t))
    if split.size:
        tie = t[split, None]
        below = np.count_nonzero(nulls[split] < tie, axis=1)
        v[split] = below + np.minimum(v[split] - below, c[split] - np.count_nonzero(sp[split] < tie, axis=1))
    return v


def _screened_rejections(
    z: np.ndarray, counts: Callable[[np.ndarray], np.ndarray], n_true: int
) -> tuple[np.ndarray, np.ndarray]:
    """c and V for each row of scores ``z``: from :func:`_upper_tail`'s
    values where they provably equal those of the exact values, and from
    ``ndtr`` of the other rows alone.

    Let p be a row's exact values, sp the tail's sorted, and eps < 1e-13
    their relative distance (see :func:`_upper_tail`), except that a score
    beyond _REACH, sp_i = Q(_REACH) = ``floor``, is only known to lie in
    [0, floor (1 + eps)].

    - *Rank-wise bounds.* Each exact value lies between l(s) and u(s) for
      its tail value s, with l(s) = 0 for s <= floor, s (1 - 2 mu) above,
      and u(s) = s (1 + 2 mu). Both rise with s, so the rows l(sp) and
      u(sp) stay sorted and bound the sorted exact row rank by rank.
    - *Monotone counts.* A kernel's count never rises when an entry of a
      sorted row rises (see :func:`kfwer.procedures.bind_batch`), so the
      exact count lies between the counts of u(sp) and l(sp); where the
      two are equal, it is c.
    - *Cut.* For 0 < c < n, when sp_(c+1) > floor and sp_c (1 + 3 mu) <
      sp_(c+1), every exact value at ranks 1..c is smaller than every one
      at ranks c+1..n. So the c smallest, the rejected ones, are the same
      positions for both rows, with no tie at the cut, and V counted from
      the tail is exact. For c = 0 or c = n, V is 0 or n_true.

    mu = _MU = 2^-30 is four orders of magnitude above eps, so the
    products' own rounding, 2^-53, does not matter. A row is counted again
    only when a value lies within about 2 mu of a critical value it
    decides, or two values within 3 mu of each other meet at the cut.
    """
    p = _upper_tail(z)
    sp = np.sort(p, axis=1)
    floor = _tail_table()[0, -1]
    c = counts(np.where(sp <= floor, 0.0, sp * (1.0 - 2.0 * _MU)))
    t, after = _cut(sp, c)
    v = _rejected_true_nulls(p, sp, c, n_true, t, after)
    cut = (after <= np.maximum(t * (1.0 + 3.0 * _MU), floor)) & (c > 0) & (c < sp.shape[1])
    redo = np.flatnonzero(cut | (counts(sp * (1.0 + 2.0 * _MU)) != c))
    if redo.size:
        c[redo], v[redo] = _count_rejections(_exact_tail(z[redo]), counts, n_true)
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

    By default each chunk's p-values come from the numpy tail, its rows
    are sorted, the procedure's batch kernel brackets each row's
    rejections c, and V is counted from the sorted values and c alone;
    rows the bracket cannot prove are counted again from ``ndtr`` (see
    :func:`_screened_rejections`).
    ``procedure`` overrides the configured rule: the reference the default
    path is tested against, and a way to test the counting with trivial
    deciders. It is applied to one replication's :class:`PValueVector`,
    from ``ndtr``, at a time, and c and V are summed from its rejection
    flags; a result that does not flag exactly n hypotheses raises
    :class:`LengthMismatchError` before it is counted.
    """
    n_true, n, k, reps = config.n_true, config.n, config.k, config.reps
    n_false = n - n_true
    if procedure is None:
        counts = bind_batch(config.procedure, _critical_values(config))
    rng = _ReplicationRng()
    draws = np.empty((min(reps, max(1, CHUNK_ELEMENTS // (n + 1))), n + 1))
    rows = list(draws)
    exceedances = 0
    power_sum = 0.0
    for first in range(0, reps, len(rows)):
        chunk = rows[: reps - first]
        rng.fill(config.seed, first, chunk)
        z = _scores(config, draws[: len(chunk)])
        if procedure is None:
            c, v = _screened_rejections(z, counts, n_true)
        else:
            rejected = [procedure(order_pvalues(row)).rejected for row in _exact_tail(z)]
            for rep, row in enumerate(rejected, start=first):
                if len(row) != n:
                    raise LengthMismatchError(f"replication {rep}: procedure flagged {len(row)} hypotheses, expected n={n}")
            flags = np.array(rejected, dtype=bool)
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

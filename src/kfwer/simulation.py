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
draws fill one array, a row per replication, and the chunk's scores are
negated and its rows sorted, as whole arrays. The procedure's batch
kernel (see :func:`kfwer.procedures.bind_batch`) counts each row's
rejections c from its sorted values, and the number V of rejected true
nulls is the number of true nulls at or below the c-th value; no
ordering permutation or per-hypothesis flag is formed. A chunk holds
``max(1, CHUNK_ELEMENTS // (n + 1))`` replications, so memory stays
bounded at any n and any number of replications. The power fractions
are still added one replication at a time, left to right, so the
estimates equal those of a one-replication-at-a-time loop float for
float.

The p-values are scipy's ``ndtr(-z)``: :func:`generate_pvalues` and the
``procedure=`` override compute them so. The default path of
``estimate_kfwer`` decides on the scores instead: every rule reads the
p-values only through their order and the side of each critical value
they fall on, both of which -z shows, since ``ndtr`` rises. Each row's
exact count is bracketed between the kernel's counts on two sets of
thresholds mapped from the critical values once per call by the standard
library's normal inverse, each checked against ``math.erfc``
(:func:`_thresholds`); rows the bracket cannot prove, among them every
row with a tie at its cut, are counted again from ``ndtr``
(:func:`_screened_rejections`). So scipy is imported only
by ``generate_pvalues``, the override, or such a row, which draws of
ordinary size practically never meet; never by ``kfwer test`` or ``verify``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .core import ConfigError, LengthMismatchError, PValueVector, _integer, _real, order_pvalues
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
    the pairwise latent correlation; it must be 0 when ``dependence`` is
    "independent".

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
        for name in ("alpha", "rho", "delta"):
            object.__setattr__(self, name, _real(name, getattr(self, name)))
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
        if self.rho != 0.0 and self.dependence == "independent":
            raise ConfigError(f"rho={self.rho} needs dependence 'equicorrelated'; dependence 'independent' takes rho=0")
        if not (math.isfinite(self.delta) and self.delta >= 0.0):
            raise ConfigError(f"delta must be a finite number >= 0, got {self.delta}")
        if not 0 <= self.seed < 2**64:
            raise ConfigError(f"seed must be a 64-bit unsigned integer, got {self.seed}")


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
    rho = config.rho
    z = math.sqrt(rho) * draws[:, :1] + math.sqrt(1.0 - rho) * draws[:, 1:]
    if config.n_true < config.n and config.delta != 0.0:
        z[:, config.n_true:] += config.delta
    return z


def _exact_tail(z: np.ndarray) -> np.ndarray:
    """scipy's ``ndtr(-z)``, the p-values every estimate equals, importing
    scipy on first use: `kfwer test`, `verify` and settled draws never pay."""
    from scipy.special import ndtr

    return ndtr(-z)


# The reach R (see _thresholds) and Phi(-R); the bracket's relative margin
# mu, cli._MARGIN's constant; the quantile's check.
_SQRT_2, _SQRT_2PI = math.sqrt(2.0), math.sqrt(2.0 * math.pi)
_REACH = 8.5
_FLOOR = 0.5 * math.erfc(_REACH / _SQRT_2)
_MU = 2.0**-30
_CHECK = 2.0**-40
# NormalDist().inv_cdf, bound on first use: importing statistics, and with
# it fractions and decimal, would cost every command, not just simulate.
_inverse_cdf = None


def _quantile(q: float) -> float:
    """Phi^-1(q) for q in [_FLOOR, 1): a t with |E(t) - q| <= _CHECK q,
    where E(t) = ``math.erfc(-t / sqrt(2)) / 2`` is Phi(t) as computed here.
    The standard library's ``NormalDist.inv_cdf`` (Wichura's AS241, 1988)
    gives t; it met the check with a worst relative error of 4.2e-14 on
    4 * 10^5 values of q tried. A t that misses raises ArithmeticError."""
    global _inverse_cdf
    if _inverse_cdf is None:
        from statistics import NormalDist

        _inverse_cdf = NormalDist().inv_cdf
    t = _inverse_cdf(q)
    if abs(0.5 * math.erfc(t / -_SQRT_2) - q) <= _CHECK * q:
        return t
    raise ArithmeticError(f"the normal quantile of {q!r} failed its check")


def _thresholds(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The strict and the loose threshold on y = -z for each critical value
    a in ``values``, in their shape.

    A score's p-value P = ``ndtr(y)`` is within eps = 3.4e-14 of Phi(y)
    relatively on [-13, 0] by Cephes, where scipy's ``ndtr`` comes from,
    and within a few units of 2^-53 on [0, inf), where it lies in [1/2, 1].
    Below the reach -R = -_REACH, inside [-13, 0], P is relied on only to
    lie in [0, F (1 + eps)], F = Phi(-R) = _FLOOR = 9.5e-18. So U(y) =
    Phi(max(y, -R)) (1 + eps) and L(y) = Phi(y) (1 - eps), 0 for y <= -R,
    bound P and rise with y.

    - *Strict*, Phi^-1(a (1 - 2 mu)), or -inf where a (1 - 2 mu) < F: y <=
      strict(a) implies U(y) <= a.
    - *Loose*, Phi^-1(a (1 + 2 mu)) but at least -R, or +inf where a (1 +
      2 mu) >= 1: y > loose(a) implies L(y) > a.

    *Bound.* The products a (1 -+ 2 mu) round by at most 2^-53 relatively
    (below 2^-1022 they lie under F and are not inverted). E is within eta
    < 1e-13 of Phi for |t| <= 8.5: rounding -t / sqrt(2) moves erfc by at
    most t^2 2^-52 < 1.7e-14, and ``math.erfc`` errs by a few units of
    2^-53. With :func:`_quantile`'s check, Phi(strict) <= a (1 - 2 mu) (1 +
    2^-39) < a / (1 + eps), and as a finite strict has a (1 - 2 mu) >= F >
    Phi(-R) (1 - eta), U(y) < a also for y <= -R. Phi(loose) >= a (1 + 2
    mu) (1 - 2^-39) > a / (1 - eps); a loose -R for a (1 + 2 mu) < F has
    Phi(y) > F (1 - eta) > a (1 + mu) for y > -R. Running minima (strict,
    from the largest a down) and maxima (loose) then move each further to
    its own side only, so a mapped schedule or form still rises and a
    mapped table keeps its shape.
    """
    keys, at = np.unique(values, return_inverse=True)
    strict, loose = [], []
    for a in keys.tolist():
        q = a * (1.0 - 2.0 * _MU)
        strict.append(_quantile(q) if q >= _FLOOR else -math.inf)
        q = a * (1.0 + 2.0 * _MU)
        loose.append(math.inf if q >= 1.0 else max(_quantile(q), -_REACH) if q >= _FLOOR else -_REACH)
    return np.minimum.accumulate(strict[::-1])[::-1][at], np.maximum.accumulate(loose)[at]


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
    ``counts`` maps the rows of ``p``, sorted, to c. A row rejects its
    first c positions in the stable order, and V counts the true nulls,
    positions 0..n_true-1, among them."""
    order = np.argsort(p, axis=1, kind="stable")
    c = counts(np.take_along_axis(p, order, axis=1))
    first = np.arange(p.shape[1]) < c[:, None]
    return c, np.count_nonzero(first & (order < n_true), axis=1)


def _kernels(procedure: str, critical: CriticalValues) -> tuple[functools.partial, ...]:
    """The batch kernel, and it rebound to the strict and the loose thresholds."""
    exact = bind_batch(procedure, critical)
    return (exact, *(functools.partial(exact, values=a) for a in _thresholds(exact.keywords["values"])))


def _screened_rejections(y: np.ndarray, kernels: tuple, n_true: int) -> tuple[np.ndarray, np.ndarray]:
    """c and V for each row of negated scores y = -z from the sorted y,
    where they provably equal those of P = ``ndtr(y)``, and for the other
    rows alone from ``ndtr``; ``kernels`` are the exact, strict and loose ones.

    - *Counts.* A kernel reads a sorted row only through whether each entry
      is at most a critical value, and its count never rises when an entry
      rises (see :func:`kfwer.procedures.bind_batch`). On the strict
      thresholds it counts y as it would count h(y), the least critical
      value a with y <= strict(a) (+inf if none), on the critical values. h
      rises with y, as strict rises with a, and h(y) >= U(y) >= P (see
      :func:`_thresholds`), so the strict count is at most the exact one.
      Likewise the loose count is that of min(L(y), the least a with y <=
      loose(a)) <= P, at least the exact one. Where they agree, that is c.
    - *Cut.* For 0 < c < n, with t' = max(y_(c), -R) and u = y_(c+1), ranks
      1..c have P <= Phi(t') (1 + eps) and ranks c+1..n P >= L(u). As phi /
      Phi falls, ln Phi(u) - ln Phi(t') >= (u - t') m(u), m(u) = phi(0) /
      Phi(0) for u <= 0 and phi(u) above. Where that exceeds 3 mu, which
      dwarfs 2 eps and its rounding, every rejected exact value lies below
      every other: the rejected positions are the same in both orders. The
      test fails where u <= -R or u = y_(c), so a kept row has no tie at
      the cut, and V is the number of true nulls with y <= y_(c), also for
      c = 0 (y_(0) = -inf, V = 0) and c = n (V = n_true).

    So a row goes to ``ndtr`` only when a value lies within about 2 mu of a
    critical value it decides, or two within about 3 mu meet at the cut.
    """
    exact, strict, loose = kernels
    sy = np.sort(y, axis=1)
    c = loose(sy)
    # t = y_(c), -inf when c = 0, and after = y_(c+1), read as y_(n) when c = n.
    rows, n = np.arange(len(sy)), sy.shape[1]
    t = np.where(c > 0, sy[rows, c - 1], -np.inf)
    after = sy[rows, np.minimum(c, n - 1)]
    v = np.count_nonzero(y[:, :n_true] <= t[:, None], axis=1)
    mills = np.where(after > 0.0, np.exp(-0.5 * after * after), 2.0) / _SQRT_2PI
    cut = ((after - np.maximum(t, -_REACH)) * mills <= 3.0 * _MU) & (c > 0) & (c < n)
    redo = np.flatnonzero(cut | (strict(sy) != c))
    if redo.size:
        c[redo], v[redo] = _count_rejections(_exact_tail(-y[redo]), exact, n_true)
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

    By default each chunk's -z are sorted row by row, the procedure's
    batch kernel brackets each row's rejections c between its counts on
    two sets of thresholds mapped from the critical values once per call,
    and V is counted from the sorted scores and c alone; rows the bracket
    cannot prove are counted again from ``ndtr`` (see
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
        kernels = _kernels(config.procedure, _critical_values(config))
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
            # Negated in place: a new y per chunk would fault in fresh heap pages.
            c, v = _screened_rejections(np.negative(z, out=z), kernels, n_true)
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

"""Probability bounds certifying local tests as level-alpha.

The central inequality bounds the chance that the first m order
statistics of t p-values all fall below a nondecreasing threshold
sequence; everything else here is a reparameterization of it. Sums are
accumulated strictly left to right so that the different entry points
produce bitwise-identical floats; where numpy does the summing
(``d1``), it is ``np.cumsum``, which also adds left to right. ``d1``
first screens every cardinality at once with an FFT of proven error
bound, then sums only the cardinalities that can hold the maximum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

from .core import (
    BadShapeError,
    CardinalityOutOfRangeError,
    CriticalSchedule,
    LocalTestFamily,
    NotMonotoneError,
    _check_unit_interval,
    _first_drop,
)


@dataclass(frozen=True)
class BoundInput:
    """Threshold sequence for the ordered-p-value bound.

    ``t`` is the number of p-values; ``betas`` holds beta_1 <= ... <=
    beta_m with m <= t. beta_0 is fixed at zero.
    """

    t: int
    betas: tuple[float, ...]

    def __post_init__(self):
        if self.t < 1:
            raise BadShapeError(f"t must be >= 1, got {self.t}")
        m = len(self.betas)
        if m < 1 or m > self.t:
            raise BadShapeError(f"need 1 <= m <= t={self.t} thresholds, got {m}")
        array = _check_unit_interval(self.betas, "beta")
        drop = _first_drop(array)
        if drop:
            raise NotMonotoneError(drop)
        object.__setattr__(self, "betas", tuple(array.tolist()))


def lemma31_bound(bound_input: BoundInput) -> float:
    """Upper bound on P{P_(1) <= beta_1, ..., P_(m) <= beta_m}.

    Returns ``t * sum_i (beta_i - beta_{i-1}) / i`` with beta_0 = 0. The
    result is a bound, not a probability: it is nonnegative and may
    exceed 1.
    """
    total = 0.0
    prev = 0.0
    for i, b in enumerate(bound_input.betas, start=1):
        total += (b - prev) / i
        prev = b
    return bound_input.t * total


def type1_bound(family: LocalTestFamily, m: int) -> float:
    """Bound on the Type-I error of the size-m local test of a family.

    Evaluates the ordered-p-value bound with t = m and thresholds equal
    to row m of the family padded with k-1 leading zeros.
    """
    if not family.k <= m <= family.n:
        raise CardinalityOutOfRangeError(m, family.k, family.n)
    betas = (0.0,) * (family.k - 1) + family.row(m)
    return lemma31_bound(BoundInput(t=m, betas=betas))


def d1(schedule: CriticalSchedule) -> float:
    """Normalization constant making a scaled stepup schedule level-alpha.

    D1 is the largest over the subset cardinalities m = k..n of

        T(m) = m*alpha_{n-m+k}/k + sum_{j=k+1..m} m*(alpha_{n-m+j} - alpha_{n-m+j-1})/j,

    and the float returned is bitwise that of the plain loop which forms
    each term as ``m * step / j`` and adds them strictly left to right,
    keeping the first largest sum (``np.sum`` and ``math.fsum`` round
    differently and are not used). Only a few cardinalities are summed
    that way; a screen picks them.

    *Screen.* Write a_0..a_w for the schedule (w = n - k), s_i = a_i -
    a_{i-1} for its float steps and lo = n - m. Then T(m) = m*(a_lo/k +
    S(lo)) with S(lo) = sum_{q>=0} s_{lo+1+q} / (k+1+q): S is one
    correlation of the steps with 1/j, which ``numpy.fft`` evaluates for
    every lo at once with real transforms of a power-of-two size N >=
    2w - 1, so nothing wraps around. That gives a float Ghat(m) for each
    cardinality in O(n log n).

    *Bound.* E(m) bounds |Ghat(m) - R(m)|, R(m) the loop's float:

    - FFT. Higham (*Accuracy and Stability of Numerical Algorithms*,
      2nd ed., Thm. 24.2) bounds a radix-2 transform's error by
      eps*||y||_2, eps = t*eta / (1 - t*eta), t = log2 N, eta = mu +
      gamma_4*(sqrt(2) + mu), mu the twiddle factors' error (taken as
      u). With ||X||_2 = sqrt(N)*||x||_2, ||X||_inf <= ||x||_1, the
      product's rounding sqrt(2)*gamma_2 and the inverse transform's
      1/sqrt(N), the max norm of the correlation's error is at most
      e_S = (rho*(1 + eps) + eps) * max(||s||_2*||h||_1, ||s||_1*||h||_2),
      rho = 2*eps + eps^2 + sqrt(2)*gamma_2*(1 + eps)^2 and h_q =
      1/(k+1+q). numpy's pocketfft uses radix-4 and real-input passes,
      not the theorem's radix-2 ones, so e_S carries a safety factor of
      ``_FFT_SAFETY``, and a floor for roundings that underflow.
    - Screen assembly. Rounding 1/j, a_lo/k, the sum and the product by
      m adds at most (1 + gamma_2)*m*e_S + gamma_4*G(m), G the exact
      sum of the float steps. So G(m) <= Gup(m) = |Ghat(m)|*(1 +
      2*gamma_4) + 2*m*e_S.
    - The loop's own rounding. Every term is nonnegative, because a
      schedule is nondecreasing, so the left-to-right sum of the
      m - k + 1 terms, each rounded twice, is within gamma_{m-k+2}*G(m)
      of G(m) (Higham, Lemma 3.1), plus 2*2**-1074 per term where a
      product or quotient underflows.

    Together |Ghat(m) - R(m)| <= m*2*e_S + gamma_{m-k+6}*Gup(m) +
    4*m*2**-1074, and E(m) is twice that, which also covers the rounding
    of E's own evaluation.

    *Exact pass.* The cardinalities kept are those with Ghat(m) + E(m) >=
    max(Ghat - E). That set holds every m with the largest R(m), so the
    loop's first maximum is among them; the loop runs over just those, in
    increasing m. Rounding is monotone and R(m) is a float, so the
    rounded bounds keep every m the real ones keep. Should any kept m
    come out of its interval Ghat(m) +- E(m), the bound failed on that
    input and every cardinality is summed instead. A kept sum forms only
    the terms of the nonzero steps it spans, so a flat profile, such as
    zeros with one step at the end, keeps every cardinality but sums one
    term for each. Memory is O(n).
    """
    return _d1_with_argmax(schedule)[0]


# Unit roundoff of float64, and the smallest subnormal: a rounding that
# underflows errs by at most half of it.
_U = 2.0**-53
_TINY = 2.0**-1074
# Margin on the radix-2 FFT error bound for numpy's mixed-radix transforms.
_FFT_SAFETY = 4.0


def _gamma(count: int) -> float:
    """Higham's gamma_count = count*u / (1 - count*u)."""
    return count * _U / (1.0 - count * _U)


def _d1_with_argmax(schedule: CriticalSchedule) -> tuple[float, int]:
    """:func:`d1` and the first cardinality m that attains it."""
    k, n = schedule.k, schedule.n
    w = n - k
    alphas = schedule._array
    steps = np.diff(alphas)
    divisors = np.arange(k + 1, n + 1, dtype=np.float64)
    lower, upper = _screen(k, alphas, steps, divisors)
    nonzero = np.flatnonzero(steps)

    def exact(lo: int) -> float:
        # Only the nonzero steps j >= lo: a zero step's term is +-0.0, which
        # leaves a nonnegative sum as it was (a sum still at -0.0 becomes
        # +0.0; it is the maximum only if all are zero, and then m = k is).
        m = n - lo
        at = nonzero[np.searchsorted(nonzero, lo) :]
        terms = np.empty(at.size + 1)
        terms[0] = m * alphas[lo] / k
        tail = terms[1:]
        np.multiply(steps[at], m, out=tail)
        np.divide(tail, divisors[at - lo], out=tail)
        return float(np.cumsum(terms)[-1])

    # Exact pass over the kept cardinalities in increasing m (decreasing lo).
    kept = np.flatnonzero(upper >= lower.max())[::-1]
    sums = np.array([exact(lo) for lo in kept.tolist()])
    if not ((lower[kept] <= sums) & (sums <= upper[kept])).all():
        kept = np.arange(w, -1, -1)  # the bound failed on this input: sum every m
        sums = np.array([exact(lo) for lo in kept.tolist()])
    first = int(sums.argmax())  # the first largest, as the loop keeps
    return float(sums[first]), n - int(kept[first])


def _screen(k: int, alphas: np.ndarray, steps: np.ndarray, divisors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ghat(m) - E(m) and Ghat(m) + E(m) for every cardinality, indexed by
    lo = n - m, as derived in :func:`d1`'s docstring."""
    w = steps.size
    n = k + w
    kernel = 1.0 / divisors
    # S(lo) for lo < w is entry lo + w - 1 of the linear convolution of the
    # steps with the reversed kernel; S(w) = 0.
    size = 1 << max(2 * w - 2, 0).bit_length()
    product = np.fft.rfft(steps, size) * np.fft.rfft(kernel[::-1], size)
    corr = np.zeros(w + 1)
    corr[:w] = np.fft.irfft(product, size)[w - 1 : 2 * w - 1]
    ms = np.arange(n, k - 1, -1, dtype=np.float64)
    screen = ms * (alphas / k + corr)

    levels = size.bit_length() - 1
    eta = _U + _gamma(4) * (math.sqrt(2.0) + _U)
    eps = levels * eta / (1.0 - levels * eta)
    rho = 2.0 * eps + eps * eps + math.sqrt(2.0) * _gamma(2) * (1.0 + eps) ** 2
    norms = max(math.sqrt(steps @ steps) * kernel.sum(), steps.sum() * math.sqrt(kernel @ kernel))
    e_s = _FFT_SAFETY * (rho * (1.0 + eps) + eps) * norms + 256.0 * size * (levels + 1) * _TINY
    slack = ms * (4.0 * e_s + 8.0 * _TINY)  # twice 2*m*e_S + 4*m*2**-1074
    g_up = np.abs(screen) * (1.0 + 2.0 * _gamma(4)) + 0.5 * slack
    # gamma_{m-k+6} is at most (m-k+6) * u / (1 - (w+6)*u), one scale for every m.
    err = slack + (ms - (k - 6)) * (2.0 * _U / (1.0 - (w + 6) * _U)) * g_up
    return screen - err, screen + err

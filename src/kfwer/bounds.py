"""Probability bounds certifying local tests as level-alpha.

The central inequality bounds the chance that the first m order
statistics of t p-values all fall below a nondecreasing threshold
sequence; everything else here is a reparameterization of it. Sums are
accumulated strictly left to right so that the different entry points
produce bitwise-identical floats; where numpy does the summing
(``d1``), it is ``np.cumsum``, which also adds left to right.
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
        object.__setattr__(self, "betas", _check_unit_interval(self.betas, "beta"))
        for pos in range(1, m):
            if self.betas[pos] < self.betas[pos - 1]:
                raise NotMonotoneError(pos + 1)


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

    Computed by exhaustively scanning every subset cardinality m = k..n;
    the scan is the definition, so there is no shortcut to get out of
    sync with. Each cardinality's terms ``m*alpha_{n-m+k}/k`` and
    ``m*(alpha_{n-m+j} - alpha_{n-m+j-1})/j`` for j = k+1..m are formed as
    one array and summed with ``np.cumsum``, which adds strictly left to
    right, so the result is bitwise the float of a plain running sum
    (``np.sum`` and ``math.fsum`` round differently and are not used).
    Memory is O(n): one cardinality's terms at a time.
    """
    k, n = schedule.k, schedule.n
    alphas = np.asarray(schedule.alphas, dtype=np.float64)
    steps = np.diff(alphas)
    divisors = np.arange(k + 1, n + 1, dtype=np.float64)
    terms = np.empty(n - k + 1)
    best = -math.inf
    for m in range(k, n + 1):
        lo, width = n - m, m - k  # alphas[lo] is alpha_{n-m+k}
        terms[0] = m * alphas[lo] / k
        tail = terms[1 : width + 1]
        np.multiply(steps[lo : lo + width], m, out=tail)
        np.divide(tail, divisors[:width], out=tail)
        term = float(np.cumsum(terms[: width + 1])[-1])
        if term > best:
            best = term
    return best


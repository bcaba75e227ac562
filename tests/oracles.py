"""Independent brute-force oracles used to cross-check the package.

Everything here is deliberately written with different machinery than
the library (itertools.combinations instead of bitmasks, Fraction
arithmetic instead of floats, forward scans instead of backward ones) so
that agreement between the two is meaningful. The one float reference,
``d1_float_reference``, is the plain loop that the vectorized ``d1`` must
reproduce bit for bit. Two helpers only the tests use live here too:
``evaluate_local_test``, one intersection hypothesis decided on its
materialized subset, and ``check_hommel_dominates_hochberg``, a power
ordering checked with the library's own verify harness. They import
``kfwer`` when called, so loading this module never needs it.
"""

import itertools
import math
from fractions import Fraction


def lemma31_oracle(t, betas):
    """Exact rational evaluation of t * sum_i (beta_i - beta_{i-1}) / i."""
    acc = Fraction(0)
    prev = Fraction(0)
    for i, b in enumerate(betas, start=1):
        acc += (Fraction(b) - prev) / i
        prev = Fraction(b)
    return Fraction(t) * acc


def type1_oracle(k, m, row):
    """Exact rational evaluation of the row-m Type-I error bound."""
    acc = Fraction(row[0]) / k
    for i in range(k + 1, m + 1):
        acc += (Fraction(row[i - k]) - Fraction(row[i - k - 1])) / i
    return Fraction(m) * acc


def d1_oracle(k, n, alphas):
    """Exact rational max over all cardinalities; returns (value, argmax m)."""

    def alpha(i):
        return Fraction(alphas[i - k])

    best, best_m = None, None
    for m in range(k, n + 1):
        term = Fraction(m) * alpha(n - m + k) / k
        for j in range(k + 1, m + 1):
            term += Fraction(m) * (alpha(n - m + j) - alpha(n - m + j - 1)) / j
        if best is None or term > best:
            best, best_m = term, m
    return best, best_m


def d1_float_reference(k, n, alphas):
    """The D1 normalization as a plain float loop: each cardinality's terms
    added one at a time, left to right. ``kfwer.bounds.d1`` must return
    this float bit for bit."""
    best = -math.inf
    for m in range(k, n + 1):
        term = m * alphas[n - m] / k
        for j in range(k + 1, m + 1):
            term += m * (alphas[n - m + j - k] - alphas[n - m + j - k - 1]) / j
        if term > best:
            best = term
    return best


def stepdown_oracle(values, k, alphas):
    """Rejected original indices (0-based set) of the stepdown scan.

    Walks ranks k..n forward and stops at the first failure; the survivors
    are the prefix of the tie-broken order.
    """
    n = len(values)
    ranked = sorted(range(n), key=lambda j: (values[j], j))
    r = k - 1
    for i in range(k, n + 1):
        if values[ranked[i - 1]] <= alphas[i - k]:
            r = i
        else:
            break
    return set(ranked[:r])


def stepup_oracle(values, k, alphas):
    """Rejected original indices of the stepup scan, via the dual
    formulation: find the least r >= k such that every larger rank fails
    its comparison."""
    n = len(values)
    ranked = sorted(range(n), key=lambda j: (values[j], j))
    if values[ranked[n - 1]] <= alphas[n - k]:
        return set(ranked)
    if all(values[ranked[i - 1]] > alphas[i - k] for i in range(k, n + 1)):
        return set(ranked[: k - 1])
    r = None
    for cand in range(k, n + 1):
        if all(values[ranked[j - 1]] > alphas[j - k] for j in range(cand + 1, n + 1)):
            r = cand
            break
    return set(ranked[:r])


def closed_testing_oracle(values, k, rows):
    """Rejected original indices under exhaustive closed testing.

    For each hypothesis, every subset containing it with its tie-broken
    rank at least k must reject; subsets are enumerated with
    itertools.combinations, ranks recomputed per subset from scratch.
    """
    n = len(values)
    ranked_key = lambda j: (values[j], j)
    rejected = set()
    for i in range(n):
        constrained_ok = True
        for m in range(k, n + 1):
            row = rows[m - k]
            for subset in itertools.combinations(range(n), m):
                if i not in subset:
                    continue
                members = sorted(subset, key=ranked_key)
                if members.index(i) + 1 < k:
                    continue
                subset_p = sorted(values[j] for j in subset)
                if not any(subset_p[j - 1] <= row[j - k] for j in range(k, m + 1)):
                    constrained_ok = False
                    break
            if not constrained_ok:
                break
        if constrained_ok:
            rejected.add(i)
    return rejected


def hommel_oracle(values, k, rows):
    """Rejected original indices and the surviving cardinality (or None),
    scanning cardinalities forward and keeping the largest survivor."""
    n = len(values)
    ranked = sorted(range(n), key=lambda j: (values[j], j))
    ordered = [values[j] for j in ranked]
    j_hat = None
    for i in range(k, n + 1):
        survives = True
        for l in range(k, i + 1):
            if ordered[n - i + l - 1] <= rows[i - k][l - k]:
                survives = False
                break
        if survives:
            j_hat = i
    if j_hat is None:
        return set(range(n)), None
    threshold = rows[j_hat - k][0]
    rejected = {j for j in range(n) if values[j] <= threshold}
    rejected.update(ranked[: k - 1])
    return rejected, j_hat


def evaluate_local_test(subset_pvalues, family_row):
    """Decide one intersection hypothesis from its sorted subset p-values.

    ``subset_pvalues`` must be sorted ascending (length m); ``family_row``
    holds the critical values for ranks k..m of a size-m subset. Returns
    True (reject) iff some rank-j p-value with j >= k is at or below its
    critical value.
    """
    m = len(subset_pvalues)
    width = len(family_row)
    if width < 1 or width > m:
        from kfwer import LengthMismatchError

        raise LengthMismatchError(f"family row of length {width} does not fit {m} subset p-values")
    k = m - width + 1
    return any(subset_pvalues[j - 1] <= family_row[j - k] for j in range(k, m + 1))


def check_hommel_dominates_hochberg(trials, n_max, seed, n_min=2):
    """At k = 1, Hommel with Simes values rejects everything Hochberg's
    stepup with alpha/(n-i+1) rejects. Returns a ``kfwer.verify.TheoremReport``."""
    import numpy as np

    from kfwer import generalized_hommel, simes_family, stepup, validate_schedule
    from kfwer.verify import TheoremReport, _record, random_pvalues

    rng = np.random.default_rng(seed)
    report = TheoremReport("hommel-hochberg", trials)
    for t in range(trials):
        n = int(rng.integers(n_min, n_max + 1))
        alpha = float(rng.uniform(0.005, 0.5))
        fam = simes_family(1, n, alpha)
        hochberg = validate_schedule(1, n, [alpha / (n - i + 1) for i in range(1, n + 1)])
        # Continuous p-values only: the two critical-value tables are
        # rounded independently, so a p-value planted exactly on a shared
        # boundary can flip one table's comparison by one ulp. That is a
        # float artifact, not a power ordering violation.
        p = random_pvalues(rng, n, None)
        up = set(stepup(p, hochberg).rejected_indices())
        hommel = set(generalized_hommel(p, fam).rejected_indices())
        if not up <= hommel:
            _record(report.failures, "hommel-hochberg", t, "inclusion", p, hochberg, fam,
                    "stepup", tuple(sorted(up)), "generalized_hommel", tuple(sorted(hommel)))
    return report

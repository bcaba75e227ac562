"""Independent brute-force oracles used to cross-check the package.

Everything here is deliberately written with different machinery than
the library (itertools.combinations instead of bitmasks, Fraction
arithmetic instead of floats, forward scans instead of backward ones) so
that agreement between the two is meaningful. Two float references are
plain loops the library must reproduce bit for bit: ``d1_float_reference``
for the screened ``d1``, and ``estimate_kfwer_oracle``, one replication
at a time over fresh random streams and the oracle deciders, for the
chunked ``estimate_kfwer``. ``d1_cumsum_reference`` is the same loop with
each cardinality's sum in one ``np.cumsum``, fast enough for n = 2*10^4.
Two helpers only the tests use live here too: ``evaluate_local_test``,
one intersection hypothesis decided on its materialized subset, and
``check_hommel_dominates_hochberg``, a power ordering checked with the
library's own verify harness. Two input-path
references are the plain forms the array-native ones replaced:
``read_pvalues_reference``, the line-by-line p-value file reader, and
``order_pvalues_reference``, a key sort behind
``unit_interval_reference``, the entry-by-entry acceptance rule every
numeric entry point must follow. Two family references are plain
loops: ``validate_family_reference``, the row-by-row walk whose first
fault the library must name for a table it refuses, and
``theorem43_reference``, the diagonal condition entry by entry. They
import ``kfwer`` when called, so loading this module never needs it.
"""

import csv
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


def d1_terms_oracle(k, n, alphas):
    """Exact rational sum of each cardinality m = k..n, in that order."""

    def alpha(i):
        return Fraction(alphas[i - k])

    terms = []
    for m in range(k, n + 1):
        term = Fraction(m) * alpha(n - m + k) / k
        for j in range(k + 1, m + 1):
            term += Fraction(m) * (alpha(n - m + j) - alpha(n - m + j - 1)) / j
        terms.append(term)
    return terms


def d1_oracle(k, n, alphas):
    """Exact rational max over all cardinalities; returns (value, argmax m)."""
    terms = d1_terms_oracle(k, n, alphas)
    best = max(terms)
    return best, k + terms.index(best)


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


def d1_cumsum_reference(k, n, alphas):
    """``d1_float_reference`` with each cardinality's terms summed by
    ``np.cumsum``, which adds left to right, so the float is the same;
    every cardinality is still summed. Returns (value, first argmax m)."""
    import numpy as np

    a = np.asarray(alphas, dtype=np.float64)
    steps = np.diff(a)
    divisors = np.arange(k + 1, n + 1, dtype=np.float64)
    best, best_m = -math.inf, None
    for m in range(k, n + 1):
        lo, width = n - m, m - k  # a[lo] is alpha_{n-m+k}
        terms = np.empty(width + 1)
        terms[0] = m * a[lo] / k
        terms[1:] = steps[lo : lo + width] * m / divisors[:width]
        term = float(np.cumsum(terms)[-1])
        if term > best:
            best, best_m = term, m
    return best, best_m


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


def closed_testing_detail_oracle(values, k, rows):
    """Rejected original indices and the accepted cardinalities, in
    ascending order, under exhaustive closed testing.

    Subset by subset rather than hypothesis by hypothesis: every size-m
    subset (m >= k) of the tie-broken ranking is decided by
    ``evaluate_local_test`` on its own p-values; an accepted one records m
    and keeps its members at rank k or beyond from rejection.
    """
    n = len(values)
    ranked = sorted(range(n), key=lambda j: (values[j], j))
    kept, cardinalities = set(), set()
    for m in range(k, n + 1):
        # combinations of the ranking keep its order, so members are ranked
        for members in itertools.combinations(ranked, m):
            if not evaluate_local_test([values[j] for j in members], rows[m - k]):
                cardinalities.add(m)
                kept.update(members[k - 1 :])
    return set(range(n)) - kept, tuple(sorted(cardinalities))


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


def estimate_kfwer_oracle(config, table, normals=None):
    """Reference for ``kfwer.estimate_kfwer``: one replication at a time.

    Each replication draws from a freshly constructed Philox stream keyed
    (seed, rep), or takes ``normals(rep)`` when given, applies the
    Gaussian-copula model, and is decided by the
    oracle rules above with ``table``: the schedule's critical values for
    stepdown and stepup, the family's rows for hommel and closed. V and
    the power fraction are accumulated replication by replication, power
    as a running float sum. Returns a ``kfwer.SimulationResult``.
    """
    import numpy as np
    from scipy.special import ndtr

    from kfwer import SimulationResult

    decide = {
        "stepdown": stepdown_oracle,
        "stepup": stepup_oracle,
        "hommel": lambda values, k, rows: hommel_oracle(values, k, rows)[0],
        "closed": lambda values, k, rows: hommel_oracle(values, k, rows)[0],
    }[config.procedure]
    n, n_true, k, reps = config.n, config.n_true, config.k, config.reps
    n_false = n - n_true
    rho = config.rho
    exceed, power_sum = 0, 0.0
    for rep in range(reps):
        if normals is None:
            draws = np.random.Generator(np.random.Philox(key=(config.seed << 64) | rep)).standard_normal(n + 1)
        else:
            draws = np.asarray(normals(rep), dtype=float)
        z = math.sqrt(rho) * draws[0] + math.sqrt(1.0 - rho) * draws[1:]
        if n_true < n and config.delta != 0.0:
            z[n_true:] += config.delta
        rejected = decide(ndtr(-z).tolist(), k, table)
        v = sum(1 for j in rejected if j < n_true)
        if v >= k:
            exceed += 1
        if n_false:
            power_sum += (len(rejected) - v) / n_false
    estimate = exceed / reps
    return SimulationResult(
        kfwer_estimate=estimate,
        std_error=math.sqrt(estimate * (1.0 - estimate) / reps),
        avg_power=power_sum / reps if n_false else None,
        reps_run=reps,
    )


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


def check_hommel_dominates_hochberg(trials, n_max, seed):
    """At k = 1, Hommel with Simes values rejects everything Hochberg's
    stepup with alpha/(n-i+1) rejects. Returns a ``kfwer.verify.TheoremReport``."""
    import numpy as np

    from kfwer import generalized_hommel, simes_family, stepup, validate_schedule
    from kfwer.verify import TheoremReport, TrialFailure, random_pvalues

    rng = np.random.default_rng(seed)
    report = TheoremReport("hommel-hochberg", trials)
    for t in range(trials):
        n = int(rng.integers(2, n_max + 1))
        alpha = float(rng.uniform(0.005, 0.5))
        fam = simes_family(1, n, alpha)
        hochberg = validate_schedule(1, n, [alpha / (n - i + 1) for i in range(1, n + 1)])
        # Continuous p-values only: the two critical-value tables are
        # rounded independently, so a p-value planted exactly on a shared
        # boundary can flip one table's comparison by one ulp. That is a
        # float artifact, not a power ordering violation.
        p = random_pvalues(rng, n, None)
        up = stepup(p, hochberg).rejected_indices()
        hommel = generalized_hommel(p, fam).rejected_indices()
        if not set(up) <= set(hommel):
            report.failures.append(TrialFailure(
                theorem="hommel-hochberg", trial=t, relation="inclusion", k=1, pvalues=p.values,
                schedule=hochberg.alphas, family_rows=fam.rows, left_name="stepup", left_rejected=up,
                right_name="generalized_hommel", right_rejected=hommel,
            ))
    return report


def read_pvalues_reference(stream, name):
    """Reference for ``kfwer.cli._read_pvalues``: every line on its own.

    One float per line, or CSV rows ``id,p`` after a header ``id,p`` on
    the first non-blank line; blank lines are skipped. Returns the numbers
    and the line each came from; malformed input raises
    ``kfwer.cli.InputDataError`` naming the line.
    """
    from kfwer.cli import InputDataError

    def parse(token, idx):
        try:
            return float(token)
        except ValueError:
            raise InputDataError(f"{name}: line {idx}: {token!r} is not a number") from None

    numbered = [(idx, line.strip()) for idx, line in enumerate(stream.read().splitlines(), start=1)]
    numbered = [(idx, line) for idx, line in numbered if line]
    if not numbered:
        raise InputDataError(f"{name}: no p-values found")
    values = []
    if numbered[0][1].lower().replace(" ", "") == "id,p":
        numbered = numbered[1:]
        for idx, line in numbered:
            row = next(csv.reader([line]))
            if len(row) != 2:
                raise InputDataError(f"{name}: line {idx}: expected two fields 'id,p', got {line!r}")
            values.append(parse(row[1], idx))
        if not values:
            raise InputDataError(f"{name}: no p-values found after header")
    else:
        for idx, line in numbered:
            values.append(parse(line, idx))
    return values, [idx for idx, _ in numbered]


def unit_interval_reference(values, what):
    """Reference for ``kfwer.core._check_unit_interval``: the plain floats.

    Each entry is checked in turn: numpy real scalars become floats, ints
    and floats in [0, 1] are taken as floats, and anything else (bools,
    strings, NaN, values out of range) raises ``kfwer.OutOfRangeError``
    at its 1-based position, labelled ``what``.
    """
    import numpy as np

    from kfwer import OutOfRangeError

    vals = []
    for pos, v in enumerate(values, start=1):
        if isinstance(v, (np.floating, np.integer)):
            v = float(v)
        if isinstance(v, bool) or not isinstance(v, (int, float)) or not 0 <= v <= 1:
            raise OutOfRangeError(pos, v, what)
        vals.append(float(v))
    return tuple(vals)


def order_pvalues_reference(values):
    """Reference for ``kfwer.order_pvalues``: ``(values, order)``.

    The values are ``unit_interval_reference``'s. The order is a key sort
    of the positions, which is stable, so ties keep their index order.
    """
    from kfwer import EmptyInputError

    vals = unit_interval_reference(values, "p-value")
    if not vals:
        raise EmptyInputError("need at least one p-value")
    return vals, tuple(sorted(range(len(vals)), key=lambda j: vals[j]))


def validate_family_reference(k, n, rows):
    """Reference for ``kfwer.validate_family``: the rows as tuples of plain
    floats, or the first fault of a row-by-row walk.

    Each row in turn is checked for shape, then by
    ``unit_interval_reference``, then for order in i; then each column i in
    turn, over m, for order in m.
    """
    from kfwer import BadShapeError, KOutOfRangeError, NotMonotoneInIError, NotMonotoneInMError

    if not 1 <= k <= n:
        raise KOutOfRangeError(k, n)
    table = []
    for m, row in enumerate(rows, start=k):
        try:
            table.append(tuple(row))
        except TypeError:
            raise BadShapeError(f"row for cardinality m={m} must be a sequence of values, got {row!r}") from None
    if len(table) != n - k + 1:
        raise BadShapeError(f"family for k={k}, n={n} needs {n - k + 1} rows, got {len(table)}")
    checked = []
    for m, row in enumerate(table, start=k):
        if len(row) != m - k + 1:
            raise BadShapeError(f"row for cardinality m={m} needs {m - k + 1} values, got {len(row)}")
        row = unit_interval_reference(row, f"family value in row m={m}")
        for i in range(k + 1, m + 1):
            if row[i - k] < row[i - k - 1]:
                raise NotMonotoneInIError(i, m)
        checked.append(row)
    for i in range(k, n + 1):
        for m in range(i + 1, n + 1):
            if checked[m - k][i - k] > checked[m - k - 1][i - k]:
                raise NotMonotoneInMError(i, m)
    return tuple(checked)


def theorem43_reference(k, n, rows):
    """Reference for ``kfwer.check_theorem43_condition`` on the rows m = k..n:
    every diagonal l -> (l, (n - i) + l), l = k..i, is nondecreasing."""
    for i in range(k, n + 1):
        diagonal = [rows[(n - i) + l - k][l - k] for l in range(k, i + 1)]
        if any(later < earlier for earlier, later in zip(diagonal, diagonal[1:])):
            return False
    return True

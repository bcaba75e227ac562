"""Regenerate d1_reference.json, the exact-arithmetic reference for the
Romano-Shaikh normalization that the test-large workload checks against.

The base schedule of that call is the Lehmann-Romano schedule for fixed
(k, n, alpha), so the reference does not depend on the benchmark seed.
``tests/oracles.d1_oracle`` evaluates it in Fraction arithmetic, which
takes tens of seconds at n = 2000; hence it is computed once and stored.

Run from the repository root: ``python3 perfbench/make_d1_reference.py``.
"""

import json
import sys
from decimal import Decimal, localcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "tests"))
sys.path.insert(0, str(HERE))

from oracles import d1_oracle  # noqa: E402
from workloads import RS_ALPHA, RS_K, RS_N, lehmann_romano_values  # noqa: E402


def main() -> None:
    value, argmax_m = d1_oracle(RS_K, RS_N, lehmann_romano_values(RS_K, RS_N, RS_ALPHA))
    with localcontext() as ctx:
        ctx.prec = 40
        digits = str(Decimal(value.numerator) / Decimal(value.denominator))
    out = {"k": RS_K, "n": RS_N, "alpha": RS_ALPHA, "d1": digits, "argmax_m": argmax_m}
    (HERE / "d1_reference.json").write_text(json.dumps(out, indent=2) + "\n")
    print(json.dumps(out))


if __name__ == "__main__":
    main()

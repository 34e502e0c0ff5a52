"""Self-test of the oracle, with numpy alone (popuc is not imported).

    python3 bench/selftest.py

* The CMV eigen oracle reproduces the closed-form nodes and weights of
  every family at n = 64, among them free and single_moment.
* Every closed form has positive weights summing to one.
* The self-dual generator's output equals its own mirror dual.
"""

import sys

import numpy as np

import oracle

TOL = 1e-13


def main() -> int:
    ok = True
    for name in oracle.FAMILIES:
        a, omega, theta, w = oracle.family(name, 64)
        node_err, weight_err = oracle.match_error(*oracle.quadrature(a, omega), theta, w)
        sum_err = abs(float(w.sum()) - 1.0)
        good = node_err <= TOL and weight_err <= TOL and sum_err <= TOL and np.all(w > 0)
        ok = ok and good
        print(
            f"selftest oracle {name:27s} n=64: nodes {node_err:.1e}, weights {weight_err:.1e}, "
            f"sum-1 {sum_err:.1e} {'ok' if good else 'FAIL'}"
        )
    rng = np.random.default_rng(0)
    worst = 0.0
    for n in range(1, 65):
        a, arg = oracle.self_dual(rng, n)
        worst = max(worst, float(np.max(np.abs(oracle.mirror_dual(a, np.exp(1j * arg)) - a))))
    good = worst <= 1e-15
    ok = ok and good
    print(f"selftest self-dual generator n=1..64: mirror defect {worst:.1e} {'ok' if good else 'FAIL'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

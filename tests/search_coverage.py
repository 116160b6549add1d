"""Search coverage: which feasible (n, b, c) backtracking finds.

Runs `backtrack_search(n, (b, c), budget=BUDGET, max_results=1)` on every
(b, c) that `_check_feasible` accepts at n = 2..N_MAX, and prints one line
per cell (found or not, and the nodes used), then the count found.  From
the root of a checkout:

    PYTHONPATH=src python tests/search_coverage.py [N_MAX [BUDGET]]

The defaults are N_MAX = 12 and BUDGET = 10**6 (about a minute).  pytest
does not collect this file; `tests/test_search.py` pins the cells found at
n <= 10 under a budget of 10**5.
"""
import sys
import time

from boolcube import ParameterMatrix
from boolcube.search import Infeasible, _check_feasible, backtrack_search


def feasible_cells(n_max):
    """Every (n, b, c) with 2 <= n <= n_max that `_check_feasible` accepts."""
    for n in range(2, n_max + 1):
        for b in range(1, n + 1):
            for c in range(1, n + 1):
                try:
                    _check_feasible(n, ParameterMatrix(n, b, c))
                except Infeasible:
                    continue
                yield n, b, c


def coverage(n_max, budget):
    """(n, b, c) -> the first-coloring search's result, for every cell."""
    return {(n, b, c): backtrack_search(n, ParameterMatrix(n, b, c),
                                        budget=budget, max_results=1)
            for n, b, c in feasible_cells(n_max)}


def main(argv):
    n_max = int(argv[0]) if argv else 12
    budget = int(argv[1]) if len(argv) > 1 else 10 ** 6
    t0 = time.perf_counter()
    results = coverage(n_max, budget)
    for (n, b, c), r in results.items():
        print("n=%-2d b=%-2d c=%-2d %-5s nodes=%d" % (
            n, b, c, "found" if r.found else "miss", r.nodes))
    found = sum(bool(r.found) for r in results.values())
    print("found %d of %d cells at n <= %d, budget %d, in %.1f s"
          % (found, len(results), n_max, budget, time.perf_counter() - t0))


if __name__ == "__main__":
    main(sys.argv[1:])

#!/usr/bin/env python3
"""Survey every built-in code: parameters, distance, and erasure structure.

For each code and each subset size, counts correctable subsets by class and
reports the entanglement-assisted descriptions of the best (largest-C)
subset found.  This is the quickest way to see which erasure patterns a
code tolerates and what sharing them costs.

Usage:
    python3 scripts/survey_fixtures.py
    python3 scripts/survey_fixtures.py --fixtures five_qubit steane --max-size 2
"""

import argparse
import time

from eaqec import analysis, codes, structure


def survey(name: str, max_size: int) -> None:
    code = codes.fixture(name)
    t0 = time.perf_counter()
    d = codes.min_distance(code)
    dt = time.perf_counter() - t0
    print(f"\n=== {name}: n={code.n}, K={code.k_dim}, distance {d} "
          f"(found in {dt:.2f}s) ===")
    for size in range(1, max_size + 1):
        if size > code.n:
            break
        tallies = {analysis.PURE: 0, analysis.IMPURE_NONDEGENERATE: 0,
                   analysis.DEGENERATE: 0}
        total = 0
        best = None
        for report in analysis.scan_subsets(code, size):
            total += 1
            if not report.correctable:
                continue
            tallies[report.trichotomy] += 1
            if best is None or report.marginal_rank > best[1].marginal_rank:
                best = (report.split.erased, report)
        correctable = sum(tallies.values())
        parts = ", ".join(f"{cls}: {cnt}" for cls, cnt in tallies.items() if cnt)
        print(f"  size {size}: {correctable}/{total} correctable"
              + (f" ({parts})" if parts else ""))
        if best is not None:
            subset, report = best
            dec = structure.decompose(code, subset)
            unc = structure.ea_from_structure(dec)
            cmp_ = structure.compress(dec)
            tag = "" if cmp_.receiver_dim == unc.receiver_dim else \
                f" -> compressed {structure.ea_parameters(dec, cmp_, d)[0]}"
            print(f"    e.g. B={set(subset)}: {report.trichotomy}, "
                  f"C={report.marginal_rank}, "
                  f"{structure.ea_parameters(dec, unc, d)[0]} at {unc.ebit_cost} ebits{tag}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--fixtures", nargs="*", default=list(codes.FIXTURE_NAMES),
                        choices=codes.FIXTURE_NAMES, metavar="NAME")
    parser.add_argument("--max-size", type=int, default=3,
                        help="largest erased-subset size to scan (default 3)")
    args = parser.parse_args()
    for name in args.fixtures:
        survey(name, args.max_size)


if __name__ == "__main__":
    main()

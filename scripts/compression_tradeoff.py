#!/usr/bin/env python3
"""Measure what compressing the receiver's share costs under noise.

For degenerate erasure patterns the receiver's share can be shrunk from the
erased dimension 2^b down to the Schmidt rank C.  That is free when the
shared qubits are noiseless, and this script quantifies the price when they
are not: it verifies the uncompressed description under weight-1 noise
(exact recovery), then reruns the compressed description in exploratory
mode, where errors also hit the carrier qubits of the compressed share.
Fidelity losses concentrated on share-carrier errors are expected and show
exactly which protection the compression trades away.

Usage:
    python3 scripts/compression_tradeoff.py
    python3 scripts/compression_tradeoff.py --cases steane:4,5,6,7
"""

import argparse

from eaqec import codes, simulate, structure

DEFAULT_CASES = ["steane:4,5,6,7", "pi_7_2_3:6,7"]


def parse_case(text: str):
    name, _, subset_text = text.partition(":")
    subset = tuple(int(q) for q in subset_text.split(",") if q.strip())
    return name, subset


def run_case(name: str, subset) -> None:
    code = codes.fixture(name)
    d = codes.min_distance(code)
    dec = structure.decompose(code, subset)
    unc = structure.ea_from_structure(dec)
    cmp_ = structure.compress(dec)
    print(f"\n=== {name}, erased B={set(subset)} ===")
    print(f"uncompressed: {structure.ea_parameters(dec, unc, d)[0]}, receiver dim "
          f"{unc.receiver_dim}, {unc.ebit_cost} ebits")
    print(f"compressed:   {structure.ea_parameters(dec, cmp_, d)[0]}, receiver dim "
          f"{cmp_.receiver_dim}, {cmp_.ebit_cost} ebits")
    if d < 3:
        # every weight-1 error set is correctable only at distance 3 or more
        print(f"weight-1 recovery does not apply at distance {d}: "
              f"verifications skipped")
        return

    rep = simulate.verify_ea(unc, dec, code, simulate.NOISY, 1)
    print(f"uncompressed, noisy weight 1: min fidelity {rep.min_fidelity:.9f} "
          f"({rep.cases_run} cases) -> {'exact' if rep.passed else 'LOSSY'}")

    rep = simulate.verify_ea(cmp_, dec, code, simulate.NOISELESS, 1)
    print(f"compressed, noiseless weight 1: min fidelity {rep.min_fidelity:.9f} "
          f"({rep.cases_run} cases) -> {'exact' if rep.passed else 'LOSSY'}")

    rep = simulate.verify_ea(cmp_, dec, code, simulate.NOISY, 1, exploratory=True)
    print(f"compressed, noisy weight 1 (exploratory, errors may hit the "
          f"share carriers): min fidelity {rep.min_fidelity:.6f} "
          f"({rep.cases_run} cases)")
    if rep.failures:
        kept_width = rep.failures[0][0].index("|")
        share_hits = [f for f in rep.failures
                      if set(f[0][kept_width + 1:]) != {"I"}]
        print(f"  {len(rep.failures)} failing error patterns, "
              f"{len(share_hits)} of them touch the share carriers")
        for label, fid in rep.failures[:6]:
            print(f"    {label}: fidelity {fid:.6f}")
        if len(rep.failures) > 6:
            print(f"    ... and {len(rep.failures) - 6} more")
    else:
        print("  no failures (nothing was traded away for this pattern)")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cases", nargs="*", default=DEFAULT_CASES,
                        metavar="NAME:Q1,Q2,...",
                        help="code and erased subset, e.g. steane:4,5,6,7")
    args = parser.parse_args()
    for case in args.cases:
        run_case(*parse_case(case))


if __name__ == "__main__":
    main()

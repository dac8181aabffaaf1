"""Command-line front end.

Commands: analyze, decompose, verify, distance, scan, fixtures.  Codes come
from a built-in fixture, a code JSON file, inline stabilizer strings, or a
stabilizer JSON file; reports go to stdout (or --output) as text or as one
compact JSON object on one line.  A stabilizer input keeps its group:
analyze, scan, the correctability gate of decompose and verify, and the
distance are read off it over GF(2), and its codewords are built only by
analyze --full, decompose and verify, after the gate.

Exit codes: 0 ok, 1 input error, 2 not correctable, 3 structure violation
(also used for a failed verification), 4 model mismatch.  Qubit indices are
1-based on the command line, qubit 1 leftmost in Pauli strings.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

from . import analysis, codes, qla, simulate, stab, structure
from .config import FIDELITY_SLACK, RANK_TOL, RESIDUAL_TOL
from .errors import (ConsistencyError, ContractError, EaqecError,
                     ModelMismatchError, NotCorrectableError,
                     StructureViolationError)

def _tolerances(args) -> tuple[float, float]:
    rank = RANK_TOL if args.tol_rank is None else args.tol_rank
    residual = RESIDUAL_TOL if args.tol_residual is None else args.tol_residual
    if not (rank > 0 and residual > 0):     # NaN fails this too
        raise ContractError("tolerances must be positive")
    if math.inf in (rank, residual):
        raise ContractError("tolerances must be finite")
    if rank >= 1:       # the cutoff is that fraction of the largest eigenvalue
        raise ContractError("tolerances must keep --tol-rank below 1, or every rank is 0")
    return rank, residual


def _load_source(args) -> codes.QuantumCode | stab.StabilizerGroup:
    """The input code: an explicit basis, or a stabilizer group made abelian."""
    sources = [("--fixture", args.fixture), ("--code", args.code),
               ("--stabilizers", args.stabilizers), ("--stab-json", args.stab_json)]
    given = [(name, val) for name, val in sources if val is not None]
    if len(given) != 1:
        raise ContractError(
            "exactly one input source required: --fixture, --code, "
            "--stabilizers, or --stab-json")
    name, value = given[0]
    if args.phases is not None and name != "--stabilizers":
        raise ContractError(f"--phases applies only to --stabilizers, not {name}")
    if name == "--fixture":
        return codes.fixture(value)
    if name == "--code":
        data = json.loads(Path(value).read_text())
        return codes.code_from_json(data)
    if name == "--stabilizers":
        gens = [s.strip() for s in value.split(",") if s.strip()]
        phases = None
        if args.phases is not None:
            phases = [p.strip() for p in args.phases.split(",")]
        group = stab.StabilizerGroup.from_strings(gens, phases=phases)
    else:
        group = stab.group_from_json(json.loads(Path(value).read_text()))
    if not group.is_abelian:
        # one fresh qubit per anticommuting pair, appended after qubit n
        group = stab.ea_extend(stab.symplectic_gram_schmidt(group))
    return group


def _as_code(source) -> codes.QuantumCode:
    """The source's codeword basis, built from the group for stabilizer inputs."""
    return stab.codewords(source) if isinstance(source, stab.StabilizerGroup) else source


def _parse_subset(text: str, n: int) -> tuple[int, ...]:
    parts = [p.strip() for p in text.split(",") if p.strip()]
    try:
        subset = tuple(int(p) for p in parts)
    except ValueError:
        raise ContractError(f"subset must be a comma list of integers, got {text!r}") from None
    for q in subset:
        if not 1 <= q <= n:
            raise ContractError(f"qubit index {q} outside 1..{n}")
    if len(set(subset)) != len(subset):
        raise ContractError("subset has repeated qubit indices")
    return subset


def _emit(args, text: str | None, payload: dict) -> None:
    """Print or write the text, or the payload as one compact JSON line."""
    out = json.dumps(payload) if text is None or args.format == "json" else text
    if args.output:
        Path(args.output).write_text(out + "\n")
    else:
        print(out)


def _fmt_floats(values, digits=12) -> str:
    return ", ".join(f"{float(v):.{digits}g}" for v in values)


def _subset_str(subset) -> str:
    return "{" + ",".join(str(q) for q in subset) + "}"


def _report_json(report: analysis.KLReport, rank_tol: float, residual_tol: float) -> dict:
    data = {
        "n": report.split.n,
        "subset": list(report.split.erased),
        "verdict": "correctable" if report.correctable else "not_correctable",
        "correctable": report.correctable,
        "trichotomy": report.trichotomy,
        "C": report.marginal_rank,
        "marginal_spectrum": [float(x) for x in report.marginal_spectrum],
        "kept_marginal_ranks": list(report.kept_marginal_ranks),
        "matrix_rank": report.matrix_rank,
        "matrix_dim": report.matrix_dim,
        "residual_max": report.residual_max,
        "method": report.method,
    }
    # the GF(2) route reads neither tolerance
    gf2 = report.method == analysis.GF2
    data["tol_residual"] = None if gf2 else residual_tol
    data["tol_rank"] = None if gf2 else rank_tol
    if report.marginal is not None:
        data["marginal"] = qla.array_to_json(report.marginal)
        data["null_vectors"] = qla.array_to_json(report.null_vectors)
    return data


def cmd_analyze(args) -> int:
    rank_tol, residual_tol = _tolerances(args)
    source = _load_source(args)
    subset = _parse_subset(args.subset, source.n)
    if args.full:
        report = analysis.kl_matrix(_as_code(source), subset,
                                    residual_tol=residual_tol, rank_tol=rank_tol)
    else:
        report = analysis.analyze_subset(source, subset,
                                         residual_tol=residual_tol, rank_tol=rank_tol)
    lines = [
        f"subset: {_subset_str(subset)}",
        f"correctable: {'yes' if report.correctable else 'no'}",
    ]
    if report.trichotomy is not None:
        lines.append(f"class: {report.trichotomy}")
    lines += [
        f"C: {report.marginal_rank}",
        f"marginal spectrum: {_fmt_floats(report.marginal_spectrum)}",
        f"coefficient matrix rank: {report.matrix_rank} of {report.matrix_dim}",
        f"max residual: {report.residual_max:.3e}",
    ]
    _emit(args, "\n".join(lines), _report_json(report, rank_tol, residual_tol))
    return 0 if report.correctable else 2


def _distance_for(source, args, residual_tol) -> int:
    if args.distance is not None:
        d = int(args.distance)
        if d < 1:
            raise ContractError("distance must be >= 1")
        if d > source.n:
            raise ContractError(f"distance {d} outside 1..{source.n}")
        return d
    d = codes.min_distance(source, residual_tol=residual_tol)
    if d is None:
        raise ContractError("could not determine the distance; pass --distance")
    return d


def _ea_line(label: str, dec: structure.StructureDecomposition,
             ea: structure.EACode, d: int) -> str:
    forms = " = ".join(f for f in structure.ea_parameters(dec, ea, d) if f is not None)
    models = ("noiseless only" if ea.model_validity == structure.NOISELESS_ONLY
              else "noiseless+noisy")
    return f"{label} {forms}, ebit cost {ea.ebit_cost}, {models}"


def _gated_decomposition(args):
    """(source, code, certified factorization across --subset, rank_tol,
    residual_tol), once the input's own verdict admits the set."""
    rank_tol, residual_tol = _tolerances(args)
    source = _load_source(args)
    subset = _parse_subset(args.subset, source.n)
    analysis.require_correctable(source, subset, residual_tol=residual_tol)
    code = _as_code(source)
    dec = structure.decompose(code, subset, rank_tol=rank_tol,
                              certify_tol=residual_tol)
    return source, code, dec, rank_tol, residual_tol


def _ea_code(strategy: str, dec: structure.StructureDecomposition,
             code: codes.QuantumCode) -> structure.EACode:
    """The EA description that the strategy builds from the decomposition."""
    if strategy == structure.PRESEND:
        return structure.presend_from_decomposition(dec, code)
    if strategy == structure.COMPRESSED:
        return structure.compress(dec)
    return structure.ea_from_structure(dec)


def cmd_decompose(args) -> int:
    source, code, dec, _, residual_tol = _gated_decomposition(args)
    d = _distance_for(source, args, residual_tol)
    eas = {strategy: _ea_code(strategy, dec, code)
           for strategy in (structure.PRESEND, structure.STRUCTURE, structure.COMPRESSED)}
    lines = [
        f"subset: {_subset_str(dec.split.erased)}",
        f"kept qubits: {len(dec.split.kept)}",
        f"K: {dec.k_dim}",
        f"dim_A: {dec.ancilla_dim}",
        f"ancilla spectrum: {_fmt_floats(dec.ancilla_spectrum)}",
        f"reconstruction residual: {dec.residual:.3e}",
        f"isometry defect: {dec.isometry_defect:.3e}",
        f"distance: {d}",
    ] + [_ea_line(label, dec, ea, d) for label, ea in zip(
        ("presend:     ", "uncompressed:", "compressed:  "), eas.values())]
    payload = {
        "decomposition": structure.decomposition_to_json(dec),
        "distance": d,
        "ea": {strategy: structure.eacode_to_json(dec, ea, d) for strategy, ea in eas.items()},
    }
    _emit(args, "\n".join(lines), payload)
    return 0


def cmd_verify(args) -> int:
    _, code, dec, rank_tol, residual_tol = _gated_decomposition(args)
    ea = _ea_code(args.strategy, dec, code)
    report = simulate.verify_ea(ea, dec, code, args.model, args.weight,
                                exploratory=args.exploratory,
                                residual_tol=residual_tol, rank_tol=rank_tol)
    lines = [
        f"strategy: {report.strategy}",
        f"model: {report.model}",
        f"weight: {report.error_weight}",
        f"cases: {report.cases_run}",
        f"min fidelity: {report.min_fidelity:.12f}",
    ]
    if report.exploratory:
        lines.append("exploratory: results reported without guarantee")
    if report.failures:
        worst = ", ".join(f"{p} ({f:.6f})" for p, f in report.failures[:8])
        lines.append(f"failures: {worst}")
    else:
        lines.append("failures: none")
    lines.append(f"verdict: {'pass' if report.passed else 'fail'}")
    payload = {
        "strategy": report.strategy,
        "model": report.model,
        "weight": report.error_weight,
        "cases_run": report.cases_run,
        "min_fidelity": report.min_fidelity,
        "failures": [{"error": p, "fidelity": f} for p, f in report.failures],
        "exploratory": report.exploratory,
        "passed": report.passed,
        "tol_residual": residual_tol, "tol_rank": rank_tol, "fidelity_slack": FIDELITY_SLACK,
        "recovery_residual": report.recovery_residual,
        "recovery_gram_defect": report.recovery_gram_defect,
    }
    _emit(args, "\n".join(lines), payload)
    if report.exploratory:
        return 0
    return 0 if report.passed else 3


def cmd_distance(args) -> int:
    _, residual_tol = _tolerances(args)
    source = _load_source(args)
    d = codes.min_distance(source, args.max_weight, residual_tol)
    if d is None:
        bound = (source.n if args.max_weight is None else args.max_weight) + 1
        text = f">= {bound}"
        payload = {"distance": None, "lower_bound": bound, "exact": False}
    else:
        text = str(d)
        payload = {"distance": d, "exact": True}
    _emit(args, text, payload)
    return 0


def cmd_scan(args) -> int:
    rank_tol, residual_tol = _tolerances(args)
    source = _load_source(args)
    size = args.size
    if not 1 <= size <= source.n:
        raise ContractError(f"scan size must be within 1..{source.n}")
    rows = [(r.split.erased, r.correctable, r.trichotomy, r.marginal_rank)
            for r in analysis.scan_subsets(source, size, residual_tol=residual_tol,
                                           rank_tol=rank_tol)]
    correctable_count = sum(ok for _, ok, _, _ in rows)
    lines = []
    for subset, ok, cls, c in rows:
        if ok:
            lines.append(f"{_subset_str(subset)}: correctable, {cls}, C={c}")
        else:
            lines.append(f"{_subset_str(subset)}: not correctable")
    lines.append(f"{correctable_count} of {len(rows)} subsets correctable")
    payload = {
        "n": source.n,
        "size": size,
        "correctable_count": correctable_count,
        "subsets": [
            {"subset": list(s), "correctable": ok, "trichotomy": cls, "C": c}
            for s, ok, cls, c in rows
        ],
    }
    _emit(args, "\n".join(lines), payload)
    return 0


def cmd_fixtures(args) -> int:
    if args.list == (args.emit is not None):
        raise ContractError("pass exactly one of --list or --emit NAME")
    if args.list:
        text = "\n".join(codes.FIXTURE_NAMES)
        payload = {"fixtures": list(codes.FIXTURE_NAMES)}
        _emit(args, text, payload)
        return 0
    # a code has no text form: it is emitted as JSON under either --format
    _emit(args, None, codes.code_to_json(codes.fixture(args.emit)))
    return 0


def _add_input_options(p: argparse.ArgumentParser) -> None:
    g = p.add_argument_group("input (exactly one)")
    g.add_argument("--fixture", choices=codes.FIXTURE_NAMES,
                   help="built-in code by name")
    g.add_argument("--code", metavar="PATH", help="code JSON file")
    g.add_argument("--stabilizers", metavar="GENS",
                   help='inline generators, e.g. "XZZXI,ZXZZX,..."')
    g.add_argument("--phases", metavar="PHASES",
                   help='optional phases for --stabilizers, e.g. "+,-,+i,+"')
    g.add_argument("--stab-json", metavar="PATH", dest="stab_json",
                   help="stabilizer JSON file")


def _add_common_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tol-rank", type=float, default=None, dest="tol_rank",
                   metavar="T", help="relative numerical-rank cutoff")
    p.add_argument("--tol-residual", type=float, default=None, dest="tol_residual",
                   metavar="T", help="correctability residual threshold")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--output", metavar="PATH", help="write the report to a file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eaqec",
        description="Erasure analysis and entanglement-assisted descriptions "
                    "of quantum codes, given as an explicit codeword basis or "
                    "as a stabilizer group.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="correctability and degeneracy of a subset")
    _add_input_options(p)
    _add_common_options(p)
    p.add_argument("--subset", required=True, metavar="Q1,Q2,...",
                   help="erased qubits, 1-based")
    p.add_argument("--full", action="store_true",
                   help="include the erased marginal and its null vectors in JSON")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("decompose",
                       help="factor the code and emit EA descriptions")
    _add_input_options(p)
    _add_common_options(p)
    p.add_argument("--subset", required=True, metavar="Q1,Q2,...")
    p.add_argument("--distance", type=int, default=None,
                   help="skip the distance search and use this value")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("verify", help="simulate errors and canonical recovery")
    _add_input_options(p)
    _add_common_options(p)
    p.add_argument("--subset", required=True, metavar="Q1,Q2,...")
    p.add_argument("--model", choices=(simulate.NOISELESS, simulate.NOISY),
                   default=simulate.NOISELESS)
    p.add_argument("--weight", type=int, default=1)
    p.add_argument("--strategy",
                   choices=(structure.STRUCTURE, structure.PRESEND,
                            structure.COMPRESSED),
                   default=structure.STRUCTURE)
    p.add_argument("--exploratory", action="store_true",
                   help="run unsupported model/strategy combinations anyway")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("distance", help="brute-force minimum distance")
    _add_input_options(p)
    _add_common_options(p)
    p.add_argument("--max-weight", type=int, default=None, dest="max_weight",
                   help="stop after this weight and report a bound")
    p.set_defaults(func=cmd_distance)

    p = sub.add_parser("scan", help="classify every subset of a given size")
    _add_input_options(p)
    _add_common_options(p)
    p.add_argument("--size", type=int, required=True, metavar="B")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("fixtures", help="list or emit built-in codes")
    p.add_argument("--list", action="store_true")
    p.add_argument("--emit", metavar="NAME", choices=codes.FIXTURE_NAMES)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--output", metavar="PATH")
    p.set_defaults(func=cmd_fixtures)

    return parser


# parse_args builds a fresh namespace per call, so one parser serves them all
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except NotCorrectableError as exc:
        print(f"not correctable: {exc}", file=sys.stderr)
        return 2
    except (StructureViolationError, ConsistencyError) as exc:
        print(f"structure violation: {exc}", file=sys.stderr)
        return 3
    except ModelMismatchError as exc:
        print(f"model mismatch: {exc}", file=sys.stderr)
        return 4
    except (EaqecError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

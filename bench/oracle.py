"""Independent checks of every benchmark job's exit code and JSON report.

Stabilizer inputs are checked over GF(2): correctability with
`stab.is_correctable_stab` and C = 2^(b - s), s the number of generators
of `stab.subgroup_on`.  Explicit-basis fixtures are checked against the
`structure.decompose` certificate and the rank of the erased marginal,
computed here with plain numpy.  Guaranteed `verify` runs must pass with
unit fidelity; `decompose` parameters and exploratory `verify` results are
compared with the reference table in reference.json.  Runs outside every
timed region.
"""

from __future__ import annotations

import itertools
import json
import math
from pathlib import Path

import numpy as np

from workloads import STABILIZER_CODES, Job

REFERENCE_PATH = Path(__file__).with_name("reference.json")

FIDELITY_FLOOR = 1.0 - 1e-9
MARGINAL_RANK_TOL = 1e-9   # relative to the largest eigenvalue
EXPLORATORY_FIDELITY_ATOL = 1e-9


def marginal_rank(basis: np.ndarray, n: int, subset) -> int:
    """Rank of the erased set's marginal of the normalized code projector."""
    k = basis.shape[0]
    kept = [q for q in range(1, n + 1) if q not in subset]
    # axis 0 is the codeword index; axis q is qubit q (qubit 1 most significant)
    t = basis.reshape((k,) + (2,) * n).transpose([0] + kept + list(subset))
    m = t.reshape(k, 1 << len(kept), 1 << len(subset))
    rho = np.einsum("kia,kib->ab", m, m.conj()) / k
    eigs = np.linalg.eigvalsh(rho)
    return int(np.count_nonzero(eigs > MARGINAL_RANK_TOL * eigs.max()))


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def _params(n_sent: int, k: int, d: int, receiver: int) -> str:
    return f"(({n_sent},{k},{d};{receiver}))"


class Oracle:
    """Expected outcomes per job, computed once and reused for every run of it."""

    def __init__(self, mods):
        self.ref = load_reference()
        self.stab = mods.stab
        self.structure = mods.structure
        self.codes = mods.codes
        self._groups = {}
        self._bases = {}
        self._subset_cache = {}

    # ------------------------------------------------------------ per subset

    def _group(self, name):
        if name not in self._groups:
            self._groups[name] = self.stab.StabilizerGroup.from_strings(STABILIZER_CODES[name])
        return self._groups[name]

    def _basis(self, name):
        if name not in self._bases:
            self._bases[name] = self.codes.fixture(name)
        return self._bases[name]

    def k_dim(self, job: Job) -> int:
        if job.is_stabilizer:
            return 1 << (job.n - self._group(job.code).num_generators)
        return self.ref["k_dim"][job.code]

    def subset_facts(self, code: str, subset) -> tuple[bool, int]:
        """(correctable, C) for one erased set, by the route for its input kind."""
        key = (code, tuple(subset))
        if key not in self._subset_cache:
            if code in STABILIZER_CODES:
                group = self._group(code)
                ok = bool(self.stab.is_correctable_stab(group, subset))
                s = self.stab.subgroup_on(group, subset).num_generators
                c = 1 << (len(subset) - s)
            else:
                code_obj = self._basis(code)
                try:
                    self.structure.decompose(code_obj, subset)
                    ok = True
                except self.structure.StructureViolationError:
                    ok = False
                c = marginal_rank(np.asarray(code_obj.basis), code_obj.n, subset)
            self._subset_cache[key] = (ok, c)
        return self._subset_cache[key]

    # --------------------------------------------------------------- checks

    def check(self, job: Job, rc, output: str) -> str | None:
        """None when the run agrees with the oracle, else the reason it does not."""
        try:
            data = json.loads(output)
        except ValueError:
            return f"exit {rc}, output is not JSON"
        try:
            return getattr(self, "_check_" + job.command)(job, rc, data)
        except (KeyError, TypeError) as exc:
            return f"exit {rc}, report lacks {exc}"

    def _check_subset_entry(self, job, subset, correctable, c, trichotomy):
        ok, c_exp = self.subset_facts(job.code, subset)
        if correctable != ok:
            return f"{set(subset)}: correctable={correctable}, oracle says {ok}"
        if c != c_exp:
            return f"{set(subset)}: C={c}, oracle says {c_exp}"
        if ok and (trichotomy == "degenerate") != (c_exp < 1 << len(subset)):
            return f"{set(subset)}: class {trichotomy} with C={c_exp}"
        return None

    def _check_analyze(self, job, rc, data):
        ok, _ = self.subset_facts(job.code, job.subset)
        if rc != (0 if ok else 2):
            return f"exit {rc} for correctable={ok}"
        return self._check_subset_entry(job, job.subset, data.get("correctable"),
                                        data.get("C"), data.get("trichotomy"))

    def _check_scan(self, job, rc, data):
        if rc != 0:
            return f"exit {rc}"
        expected = list(itertools.combinations(range(1, job.n + 1), job.size))
        rows = data.get("subsets", [])
        if [tuple(r["subset"]) for r in rows] != expected:
            return "scan does not list every subset once, in order"
        for row in rows:
            why = self._check_subset_entry(job, tuple(row["subset"]), row["correctable"],
                                           row["C"], row["trichotomy"])
            if why:
                return why
        count = sum(self.subset_facts(job.code, s)[0] for s in expected)
        if data.get("correctable_count") != count:
            return f"correctable_count {data.get('correctable_count')}, oracle says {count}"
        return None

    def _check_distance(self, job, rc, data):
        d = self.ref["distance"][job.code]
        if rc != 0 or data.get("distance") != d or data.get("exact") is not True:
            return f"exit {rc}, distance {data.get('distance')}, reference {d}"
        return None

    def expected_ea(self, job: Job) -> dict:
        """Reference decompose outcome for a fixture, or the GF(2) one for a stabilizer code."""
        if not job.is_stabilizer:
            return self.ref["decompose"][f"{job.code}:{','.join(map(str, job.subset))}"]
        _, c = self.subset_facts(job.code, job.subset)
        n, b, k = job.n, len(job.subset), self.k_dim(job)
        d = self.ref["distance"][job.code]
        return {"distance": d, "dim_A": c,
                "presend": _params(n - b, k, d, 1 << b),
                "structure": _params(n - b, k, d, 1 << b),
                "compressed": _params(n - b, k, d, c)}

    def _check_decompose(self, job, rc, data):
        if rc != 0:
            return f"exit {rc}"
        ref = self.expected_ea(job)
        got = {"distance": data["distance"], "dim_A": data["decomposition"]["dim_A"]}
        got.update({s: data["ea"][s]["parameters"]
                    for s in ("presend", "structure", "compressed")})
        if got != ref:
            return f"got {got}, reference {ref}"
        return None

    def expected_cases(self, job: Job) -> int:
        """Error patterns of exactly the job's weight, times the test states."""
        erased = len(job.subset)
        sites = job.n if job.model == "noisy" else job.n - erased
        k = self.k_dim(job)
        states = k + 1 if k > 1 else k
        return 3 ** job.weight * math.comb(sites, job.weight) * states

    def _check_verify(self, job, rc, data):
        if rc != 0:
            return f"exit {rc}"
        if job.exploratory:
            key = (f"{job.code}:{','.join(map(str, job.subset))}:{job.strategy}:"
                   f"{job.model}:{job.weight}")
            ref = self.ref["exploratory_verify"][key]
            got = {"cases_run": data["cases_run"], "passed": data["passed"],
                   "failures": len(data["failures"])}
            want = {k: ref[k] for k in got}
            if got != want or abs(data["min_fidelity"] - ref["min_fidelity"]) > \
                    EXPLORATORY_FIDELITY_ATOL:
                return (f"got {got} min_fidelity {data['min_fidelity']}, "
                        f"reference {ref}")
            return None
        if data.get("passed") is not True or data.get("min_fidelity", 0.0) < FIDELITY_FLOOR:
            return f"verification failed: min fidelity {data.get('min_fidelity')}"
        cases = self.expected_cases(job)
        if data.get("cases_run") != cases:
            return f"cases_run {data.get('cases_run')}, expected {cases}"
        return None

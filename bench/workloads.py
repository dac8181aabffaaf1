"""Job lists for the three benchmark workloads, generated from a seed.

A job is one `eaqec` CLI command.  The seed chooses only which qubits a
job erases; how many jobs of each (code, erased-set size, command) a pass
holds is fixed, so every seed puts the same load on the program.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

# Shor [[9,1,3]] in its usual three-block form.
SHOR = ("XXXXXXIII", "IIIXXXXXX", "ZZIIIIIII", "IZZIIIIII",
        "IIIZZIIII", "IIIIZZIII", "IIIIIIZZI", "IIIIIIIZZ")

# All eleven cyclic shifts of XXZZXXIXIXI: rank 10 and commuting, so
# K = 2 on n = 11 qubits, with distance 3.
_CYCLIC_SEED = "XXZZXXIXIXI"
CYCLIC11 = tuple(_CYCLIC_SEED[-i:] + _CYCLIC_SEED[:-i] if i else _CYCLIC_SEED
                 for i in range(len(_CYCLIC_SEED)))

STABILIZER_CODES = {"shor": SHOR, "cyclic11": CYCLIC11}
FIXTURE_QUBITS = {"five_qubit": 5, "steane": 7, "pi_7_2_3": 7, "xp_7_8_2": 7}

WORKLOADS = ("erasure_scan", "ea_verify", "stab_codes")


@dataclass(frozen=True)
class Job:
    """One CLI command: a code, an erased set or scan size, and options."""

    command: str               # analyze, scan, decompose, verify, distance
    code: str                  # a fixture name or a key of STABILIZER_CODES
    subset: tuple[int, ...] = ()
    size: int = 0              # scan only
    model: str = "noiseless"   # verify only, as are the next three
    strategy: str = "structure"
    exploratory: bool = False
    weight: int = 1

    @property
    def is_stabilizer(self) -> bool:
        return self.code in STABILIZER_CODES

    @property
    def n(self) -> int:
        if self.is_stabilizer:
            return len(STABILIZER_CODES[self.code][0])
        return FIXTURE_QUBITS[self.code]

    def argv(self) -> list[str]:
        """The command line, without the `--format json` the runner appends."""
        if self.is_stabilizer:
            out = [self.command, "--stabilizers", ",".join(STABILIZER_CODES[self.code])]
        else:
            out = [self.command, "--fixture", self.code]
        if self.command == "scan":
            return out + ["--size", str(self.size)]
        if self.command == "distance":
            return out
        out += ["--subset", ",".join(map(str, self.subset))]
        if self.command == "verify":
            out += ["--model", self.model, "--strategy", self.strategy,
                    "--weight", str(self.weight)]
            if self.exploratory:
                out.append("--exploratory")
        return out

    def label(self) -> str:
        parts = [self.command, self.code]
        if self.subset:
            parts.append("{" + ",".join(map(str, self.subset)) + "}")
        if self.command == "scan":
            parts.append(f"size={self.size}")
        if self.command == "verify":
            parts += [self.model, self.strategy, f"w={self.weight}"]
            if self.exploratory:
                parts.append("exploratory")
        return " ".join(parts)


def _subsets(rng: random.Random, n: int, b: int, count: int) -> list[tuple[int, ...]]:
    return rng.sample(list(itertools.combinations(range(1, n + 1), b)), count)


def erasure_scan(rng: random.Random) -> list[Job]:
    """analyze at b = 3 (4 per fixture), b = 4 (1) and b = 2 (1), plus a scan.

    b = 4 is one job in seven, so the 16^b growth of the dense
    correctability check sets job_p90_ms while job_p50_ms stays on b = 3.
    A short pass lets a run spread over several worker processes.
    """
    jobs = []
    for name, n in FIXTURE_QUBITS.items():
        for b, count in ((3, 4), (4, 1), (2, 1)):
            jobs += [Job("analyze", name, s) for s in _subsets(rng, n, b, count)]
        jobs.append(Job("scan", name, size=2))
    return jobs


# The paper's entanglement-assisted examples, each with its decompose, and
# how often each runs in one pass.  The weights put job_p50_ms in the middle
# of the cluster of the two ~100 ms pi_7_2_3 verifications, with as many
# cheaper jobs below it as dearer ones above, instead of on a cluster edge.
EA_FIXTURE_JOBS = (
    (Job("verify", "five_qubit", (4, 5), model="noisy"), 1),
    (Job("verify", "five_qubit", (4, 5)), 1),
    (Job("verify", "steane", (4, 5, 6, 7), strategy="compressed"), 1),
    (Job("verify", "steane", (5, 6, 7), model="noisy"), 1),
    (Job("verify", "pi_7_2_3", (6, 7), model="noisy"), 10),
    (Job("verify", "pi_7_2_3", (6, 7), model="noisy", strategy="compressed",
         exploratory=True), 10),
    (Job("verify", "xp_7_8_2", (7,), weight=0), 1),
    (Job("decompose", "five_qubit", (4, 5)), 1),
    (Job("decompose", "steane", (4, 5, 6, 7)), 1),
    (Job("decompose", "steane", (5, 6, 7)), 1),
    (Job("decompose", "pi_7_2_3", (6, 7)), 1),
    (Job("decompose", "xp_7_8_2", (7,)), 1),
)


def ea_verify(rng: random.Random, is_correctable) -> list[Job]:
    """The fixture examples, plus verify on Shor at b = 3 under both models.

    Shor's dense 4^9 recovery makes its four jobs the most expensive ones;
    at more than one job in ten they set job_p90_ms.
    `is_correctable(generators, subset)` is the GF(2) test used to keep
    only correctable Shor subsets.
    """
    ok = [s for s in itertools.combinations(range(1, 10), 3) if is_correctable(SHOR, s)]
    chosen = rng.sample(ok, 4)
    return ([job for job, weight in EA_FIXTURE_JOBS for _ in range(weight)]
            + [Job("verify", "shor", s, model=m)
               for s, m in zip(chosen, ("noiseless", "noisy") * 2)])


def stab_codes(rng: random.Random) -> list[Job]:
    """Shor and the n = 11 cyclic code given as --stabilizers.

    One job of each kind on n = 11, where rebuilding the dense 2^n x 2^n
    projector dominates and sets job_p90_ms.  Shor decompose jobs fill the
    middle of the latency order, so job_p50_ms sits inside their cluster.
    """
    jobs = [Job("analyze", "shor", s) for s in _subsets(rng, 9, 2, 2)]
    jobs += [Job("decompose", "shor", s) for s in _subsets(rng, 9, 2, 24)]
    jobs += [Job("distance", "shor")] * 3 + [Job("scan", "shor", size=2)]
    jobs += [Job("analyze", "cyclic11", _subsets(rng, 11, 2, 1)[0]),
             Job("decompose", "cyclic11", _subsets(rng, 11, 2, 1)[0]),
             Job("distance", "cyclic11"),
             Job("scan", "cyclic11", size=1)]
    return jobs


# One cheap untimed job per command kind, run during set-up.
WARMUP = {
    "erasure_scan": (Job("analyze", "five_qubit", (1, 2)),
                     Job("scan", "five_qubit", size=1)),
    "ea_verify": (Job("verify", "five_qubit", (4, 5)),
                  Job("decompose", "five_qubit", (4, 5))),
    "stab_codes": (Job("analyze", "shor", (1, 2)),
                   Job("decompose", "shor", (1, 2)),
                   Job("distance", "shor"),
                   Job("scan", "shor", size=1)),
}


def job_list(workload: str, seed: int, is_correctable) -> list[Job]:
    """One pass of the workload, in a seeded order."""
    rng = random.Random(seed)
    if workload == "erasure_scan":
        jobs = erasure_scan(rng)
    elif workload == "ea_verify":
        jobs = ea_verify(rng, is_correctable)
    elif workload == "stab_codes":
        jobs = stab_codes(rng)
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng.shuffle(jobs)
    return jobs

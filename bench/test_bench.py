"""Tests of the benchmark itself.

    PYTHONPATH=src python -m pytest bench -q
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import layertrace  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
from workloads import SHOR, WORKLOADS, Job, job_list  # noqa: E402

FIVE_QUBIT = ("XZZXI", "ZYYZI", "ZZXIX", "YYZIZ")
STEANE = ("IIIXXXX", "XIXIXIX", "IXXIIXX", "IIIZZZZ", "ZIZIZIZ", "IZZIIZZ")


@pytest.fixture(scope="module")
def mods():
    return run.import_package()


def _gf2(mods):
    def is_correctable(generators, subset):
        group = mods.stab.StabilizerGroup.from_strings(generators)
        return mods.stab.is_correctable_stab(group, subset)
    return is_correctable


def _load(job: Job):
    """What decides the cost of a job: everything but which qubits it erases."""
    return (job.command, job.code, len(job.subset), job.size, job.model, job.strategy,
            job.exploratory, job.weight)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_same_jobs_and_every_seed_the_same_load(mods, workload):
    gf2 = _gf2(mods)
    first = job_list(workload, 11, gf2)
    assert job_list(workload, 11, gf2) == first
    other = job_list(workload, 12, gf2)
    assert other != first
    assert Counter(map(_load, other)) == Counter(map(_load, first))


def test_every_verify_subset_is_gf2_correctable(mods):
    group = mods.stab.StabilizerGroup.from_strings(SHOR)
    for seed in range(20):
        jobs = [j for j in job_list("ea_verify", seed, _gf2(mods)) if j.code == "shor"]
        assert {j.model for j in jobs} == {"noiseless", "noisy"}
        for job in jobs:
            assert job.command == "verify" and len(job.subset) == 3
            assert mods.stab.is_correctable_stab(group, job.subset)


def _run(mods, job):
    rc, out, exc = run.run_job(mods, job.argv() + ["--format", "json"])
    assert exc is None
    return rc, out


@pytest.mark.parametrize("job", [Job("analyze", "steane", (1, 2, 3)),
                                 Job("analyze", "steane", (1, 2)),
                                 Job("analyze", "shor", (1, 2))])
def test_oracle_flags_a_corrupted_verdict(mods, job):
    check = oracle.Oracle(mods)
    rc, out = _run(mods, job)
    assert check.check(job, rc, out) is None   # exit 2 on a non-correctable set passes
    data = json.loads(out)
    data["correctable"] = not data["correctable"]
    assert check.check(job, rc, json.dumps(data)) is not None
    data = json.loads(out)
    data["C"] += 1
    assert check.check(job, rc, json.dumps(data)) is not None
    assert check.check(job, 2 - rc, out) is not None


def test_oracle_flags_corrupted_ea_reports(mods):
    check = oracle.Oracle(mods)
    job = Job("decompose", "pi_7_2_3", (6, 7))
    rc, out = _run(mods, job)
    assert check.check(job, rc, out) is None
    data = json.loads(out)
    data["ea"]["compressed"]["parameters"] = "((5,2,3;4))"
    assert check.check(job, rc, json.dumps(data)) is not None

    job = Job("verify", "five_qubit", (4, 5), model="noisy")
    rc, out = _run(mods, job)
    assert check.check(job, rc, out) is None
    data = json.loads(out)
    data["min_fidelity"] = 1.0 - 1e-6
    assert check.check(job, rc, json.dumps(data)) is not None
    del data["cases_run"]
    assert check.check(job, rc, json.dumps(data)) is not None
    assert check.check(job, rc, "not json") is not None


def test_reference_receiver_dims_match_gf2(mods):
    stab = mods.stab
    for name, gens in (("five_qubit", FIVE_QUBIT), ("steane", STEANE)):
        group = stab.StabilizerGroup.from_strings(gens)
        for key, ref in oracle.load_reference()["decompose"].items():
            code, subset = key.split(":")
            if code != name:
                continue
            subset = tuple(int(q) for q in subset.split(","))
            c = 1 << (len(subset) - stab.subgroup_on(group, subset).num_generators)
            assert ref["compressed"].endswith(f";{c}))") and ref["dim_A"] == c


def _small_env(mods):
    jobs = [Job("analyze", "five_qubit", (1, 2)), Job("decompose", "five_qubit", (4, 5)),
            Job("verify", "five_qubit", (4, 5)), Job("distance", "shor")]
    return SimpleNamespace(mods=mods, jobs=jobs,
                           argvs=[j.argv() + ["--format", "json"] for j in jobs])


def test_untraced_run_leaves_every_wrapped_attribute_original(mods):
    env = _small_env(mods)
    before = layertrace.current_targets(mods)
    aliased = mods.stab.min_distance
    run.run_pass(env)
    after = layertrace.current_targets(mods)
    assert all(after[name] is before[name] for name in before)

    spans = layertrace.SpanTracer()
    with layertrace.installed(spans, mods):
        assert mods.stab.min_distance is not aliased   # imported names are wrapped too
        _, _, results = run.run_pass(env, spans)
    after = layertrace.current_targets(mods)
    assert all(after[name] is before[name] for name in before)
    assert mods.stab.min_distance is aliased
    assert run.check_results(env, oracle.Oracle(mods), results) == []

    metrics = spans.metrics(len(env.jobs))
    assert metrics["analysis.kl_matrix.calls"] == 3      # analyze, and the two gates
    assert metrics["analysis.kl_matrix.pauli_pairs"] == 3 * 16 ** 2
    assert metrics["simulate.kl_recovery.calls"] == 1
    assert metrics["simulate.verify_ea.cases"] == 27
    assert metrics["codes.min_distance.paulis_tested"] > 0
    assert sum(metrics[f"{layer}.self_share"] for layer in layertrace.LAYERS) <= 1.0


def test_alloc_tracer_sees_the_largest_layer_allocation(mods):
    import tracemalloc
    env = _small_env(mods)
    alloc = layertrace.AllocTracer()
    tracemalloc.start()
    try:
        with layertrace.installed(alloc, mods):
            run.run_pass(env, alloc)
    finally:
        tracemalloc.stop()
    peaks = alloc.metrics()
    # cli.main encloses every other span, so its peak bounds the rest
    assert peaks["cli.peak_alloc_mb"] == max(peaks.values()) > 0
    assert peaks["simulate.peak_alloc_mb"] > 0


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layertrace.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)

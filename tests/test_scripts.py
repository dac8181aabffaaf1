"""Smoke tests: each script under scripts/ runs to completion on the source
tree, and every function the benchmark's layer tracer wraps still exists."""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script", sorted((ROOT / "scripts").glob("*.py")),
                         ids=lambda p: p.name)
def test_script_exits_zero(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(script)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_compression_tradeoff_skips_distance_two():
    # xp_7_8_2 has distance 2, so no weight-1 error set is correctable: the
    # case is reported and its verifications are skipped
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "compression_tradeoff.py"),
         "--cases", "xp_7_8_2:7"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stdout + proc.stderr
    assert "weight-1 recovery does not apply at distance 2" in proc.stdout


def _run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_parameter_lines_of_the_degenerate_pair():
    # pi_7_2_3 erased on a pair: the uncompressed share keeps 2^2 dimensions,
    # the compressed one the Schmidt rank 3 (the survey reports the first
    # largest-C pair, {1,2}, whose parameters every pair of this code shares)
    lines = _run_script("compression_tradeoff.py", "--cases", "pi_7_2_3:6,7")
    assert "uncompressed: ((5,2,3;4)), receiver dim 4, 2 ebits" in lines
    assert "compressed:   ((5,2,3;3)), receiver dim 3, 2 ebits" in lines
    lines = _run_script("survey_fixtures.py", "--fixtures", "pi_7_2_3", "--max-size", "2")
    assert ("    e.g. B={1, 2}: degenerate, C=3, ((5,2,3;4)) at 2 ebits"
            " -> compressed ((5,2,3;3))") in lines


def test_layertrace_targets_resolve():
    # bench/layertrace.py wraps these functions by name; a rename or
    # deletion in src/ would otherwise surface only in the bench suite
    spec = importlib.util.spec_from_file_location("layertrace", ROOT / "bench" / "layertrace.py")
    layertrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layertrace)
    mods = SimpleNamespace(**{layer: importlib.import_module(f"eaqec.{layer}")
                              for layer in layertrace.LAYERS})
    targets = layertrace.current_targets(mods)
    assert len(targets) == len(layertrace.TARGETS)
    for name, raw in targets.items():
        fn = raw.__func__ if isinstance(raw, classmethod) else raw
        assert callable(fn), name

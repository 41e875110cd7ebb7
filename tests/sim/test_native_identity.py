"""Pure×native identity matrix: the compiled DES core changes nothing.

The contract of ``repro.des._speedups`` is *bit identity*: every workload
must produce byte-for-byte the same output on the compiled kernel as on
the pure-Python one, under every hash seed.  These tests run each
scenario in subprocesses across the full ``core × PYTHONHASHSEED``
matrix and require a single distinct output.

Each subprocess also asserts (without printing, so the comparison stays
meaningful) that the kernel it *actually* selected matches the one the
matrix requested — a silently wrong selection seam would otherwise make
the identity check vacuous.

On hosts without a compiler the native legs are skipped; the pure legs
of these workloads are covered by ``test_hashseed_determinism.py``.
"""

import itertools
import os
import pathlib
import subprocess
import sys

import pytest

from repro.des.engine import NATIVE_ENV, native_available

HASH_SEEDS = ("0", "1", "31337")
CORES = ("pure", "native")

_SRC = str(pathlib.Path(__file__).resolve().parents[2] / "src")

requires_native = pytest.mark.skipif(
    not native_available(),
    reason="repro.des._speedups not built (python setup.py build_ext --inplace)",
)

#: Prepended to every snippet: fail the subprocess outright if the
#: requested kernel is not the one make_environment() would build.
_CORE_GUARD = f"""
import os
from repro.des.engine import selected_core
assert selected_core() == os.environ["{NATIVE_ENV}"], (
    "selection seam picked %r, matrix requested %r"
    % (selected_core(), os.environ["{NATIVE_ENV}"])
)
"""


def _run_snippet(snippet: str, core: str, hash_seed: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
    env["PYTHONHASHSEED"] = hash_seed
    env[NATIVE_ENV] = core
    proc = subprocess.run(
        [sys.executable, "-c", _CORE_GUARD + snippet],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _assert_core_matrix_identical(snippet: str) -> None:
    outputs = {
        (core, seed): _run_snippet(snippet, core, seed)
        for core, seed in itertools.product(CORES, HASH_SEEDS)
    }
    assert all(outputs.values()), "workload printed nothing"
    distinct = set(outputs.values())
    assert len(distinct) == 1, (
        "output differs across core/hash-seed matrix:\n"
        + "\n---\n".join(sorted(distinct))
    )


@requires_native
def test_twocell_bit_identical_pure_vs_native():
    """Figure 6 two-cell run: stats and in-kernel event tally agree."""
    _assert_core_matrix_identical(
        """
import dataclasses
from repro.des.engine import events_processed_total
from repro.sim import TwoCellSimulator, figure6_config

before = events_processed_total()
result = TwoCellSimulator(
    figure6_config(policy="probabilistic", horizon=60.0, seed=11)
).run()
print((dataclasses.astuple(result.stats), events_processed_total() - before))
"""
    )


@requires_native
def test_campus_day_bit_identical_pure_vs_native():
    """Campus day-in-the-life: every cell class, handoffs, upgrades."""
    _assert_core_matrix_identical(
        """
import dataclasses
from repro.sim.scenarios import run_campus_day

result = run_campus_day(seed=11, day_length=3600.0, walkers=3, patrons=8)
print((
    dataclasses.astuple(result.stats),
    result.handoffs,
    result.static_upgrades,
    sorted((str(k), repr(v)) for k, v in result.final_rates.items()),
))
"""
    )


@requires_native
def test_fault_injection_sweep_bit_identical_pure_vs_native():
    """A fault-tolerant sweep (retries + partial failures) merges the same
    surviving results and counts the same in-kernel events on both cores."""
    _assert_core_matrix_identical(
        """
import dataclasses
from repro.runtime import ExperimentRunner, FailedResult
from repro.sim import TwoCellSimulator, figure6_config


def _worker(config):
    if config["seed"] == 3:
        raise ValueError("injected fault for seed 3")
    return dataclasses.astuple(
        TwoCellSimulator(
            figure6_config(policy="plain", horizon=30.0, seed=config["seed"])
        ).run().stats
    )


runner = ExperimentRunner(jobs=1, max_retries=1, partial=True, sleep=lambda s: None)
results = runner.run_many(_worker, [{"seed": s} for s in (1, 2, 3, 4)])
canon = [
    ("failed", r.error) if isinstance(r, FailedResult) else ("ok", r)
    for r in results
]
t = runner.telemetry
print((canon, t.replications, t.retries, t.failures, t.des_events))
"""
    )

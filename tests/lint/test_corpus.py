"""Repo-corpus and regression tests for the whole-program engine.

Three contracts live here:

* the repository's own sources lint clean under the full rule set (with
  the checked-in baseline), and the output is byte-identical across
  serial, ``--jobs auto``, warm-cache, and different ``PYTHONHASHSEED``
  values — the determinism promise CI relies on;
* the REP404 finding this engine surfaced in ``src/`` stays fixed:
  dropping the justified suppression in ``connection.py`` brings it back;
* the incremental cache and SARIF output work end-to-end through the CLI.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.lint.config import LintConfig
from repro.lint.runner import lint_paths

REPO = pathlib.Path(__file__).resolve().parents[2]
_SRC = str(REPO / "src")

CONFIG = LintConfig(baseline=None)


def run_lint(args, cwd, hashseed="1"):
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
    env["PYTHONHASHSEED"] = hashseed
    return subprocess.run(
        [sys.executable, "-m", "repro.lint", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
    )


# -- the repository is its own corpus ----------------------------------------


def test_repo_corpus_is_clean_and_mode_independent(tmp_path):
    """One full-repo lint per execution mode; all byte-identical, all clean.

    The four runs cover the whole determinism matrix: cold cache, warm
    cache, ``--jobs auto``, and a different hash seed.  ``findings`` must
    be empty — anything new in ``src/`` either gets fixed or explicitly
    baselined, never silently accumulated.
    """
    cache_dir = str(tmp_path / "cache")
    base = ["--format", "json", "src", "tests"]

    cold = run_lint(["--cache-dir", cache_dir, *base], cwd=REPO)
    assert cold.returncode == 0, cold.stdout + cold.stderr
    payload = json.loads(cold.stdout)
    assert payload["findings"] == []
    assert payload["baselined"] == 1  # the floorplan.py REP004 exception

    warm = run_lint(["--cache-dir", cache_dir, *base], cwd=REPO)
    jobs = run_lint(["--jobs", "auto", *base], cwd=REPO)
    reseeded = run_lint(base, cwd=REPO, hashseed="7")

    assert warm.stdout == cold.stdout
    assert jobs.stdout == cold.stdout
    assert reseeded.stdout == cold.stdout
    for proc in (warm, jobs, reseeded):
        assert proc.returncode == 0


# -- the real findings stay fixed --------------------------------------------

def _lint_tree(root):
    cwd = os.getcwd()
    os.chdir(root)
    try:
        return lint_paths(["src"], config=CONFIG)
    finally:
        os.chdir(cwd)


def test_connection_reset_suppression_is_load_bearing(tmp_path):
    """reset_conn_ids mutates module state by design (documented, and
    suppressed with a justification); removing the suppression brings the
    REP404 finding back."""
    for rel in ("src/repro/runtime/runner.py", "src/repro/traffic/connection.py"):
        target = tmp_path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text((REPO / rel).read_text())

    intact = _lint_tree(tmp_path)
    assert [f for f in intact.findings if f.rule == "REP404"] == []

    conn = tmp_path / "src/repro/traffic/connection.py"
    stripped = conn.read_text().replace("  # repro-lint: ignore[REP404]", "")
    assert "ignore[REP404]" not in stripped
    conn.write_text(stripped)
    regressed = _lint_tree(tmp_path)
    rep404 = [f for f in regressed.findings if f.rule == "REP404"]
    assert len(rep404) == 1
    assert "reset_conn_ids" in rep404[0].message


# -- fixture-tree CLI matrix (fast: ~10 files) -------------------------------

FIXTURE = {
    "src/repro/core/rngsrc.py": (
        "import random\n\n\ndef make_rng(seed):\n"
        "    return random.Random(seed)\n"
    ),
    "src/repro/core/groups.py": (
        "def active_ids(rows):\n    return set(rows)\n"
    ),
    "src/repro/sim/setup.py": (
        "from ..core.rngsrc import make_rng\n\nSHARED = make_rng(7)\n"
    ),
    "src/repro/sim/decide.py": (
        "from ..core.groups import active_ids\n\n\ndef admit(rows):\n"
        "    return [r for r in active_ids(rows)]\n"
    ),
}


@pytest.fixture
def fixture_tree(tmp_path):
    for rel, source in FIXTURE.items():
        target = tmp_path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source)
    return tmp_path


def test_cli_mode_matrix_on_fixture(fixture_tree):
    base = ["--format", "json", "src"]
    cache_dir = str(fixture_tree / ".lint-cache")

    serial = run_lint(base, cwd=fixture_tree)
    assert serial.returncode == 1
    payload = json.loads(serial.stdout)
    assert payload["counts"] == {"REP401": 1, "REP402": 1}

    variants = [
        run_lint(["--jobs", "2", *base], cwd=fixture_tree),
        run_lint(["--cache-dir", cache_dir, *base], cwd=fixture_tree),
        run_lint(["--cache-dir", cache_dir, *base], cwd=fixture_tree),
        run_lint(base, cwd=fixture_tree, hashseed="42"),
    ]
    for proc in variants:
        assert proc.returncode == 1
        assert proc.stdout == serial.stdout


def test_cache_dir_is_never_linted(fixture_tree):
    cache_dir = str(fixture_tree / ".lint-cache")
    run_lint(["--cache-dir", cache_dir, "--format", "json", "src"],
             cwd=fixture_tree)
    # The cache lives under the linted root in real checkouts; discovery
    # must skip it or warm runs would lint their own cache entries.
    proc = run_lint(["--format", "json", "."], cwd=fixture_tree)
    payload = json.loads(proc.stdout)
    assert payload["files_checked"] == len(FIXTURE)

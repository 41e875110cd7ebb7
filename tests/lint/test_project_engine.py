"""Whole-program engine tests: REP4xx rules, golden summaries, cache, jobs.

Every REP4xx fixture here encodes a violation that only exists *across* a
function or module boundary — each test therefore asserts two things: the
project pass reports it, and the per-file rule families (REP0xx–REP3xx) stay
silent on the same tree.  That pairing is the contract that separates the
whole-program rules from the single-module ones.
"""

import json
import pathlib

import pytest

from repro.lint.baseline import Baseline
from repro.lint.cache import LintCache
from repro.lint.config import LintConfig
from repro.lint.context import ProjectContext
from repro.lint.registry import all_rules
from repro.lint.runner import lint_paths, lint_source, resolve_jobs

GOLDEN_DIR = pathlib.Path(__file__).parent / "goldens"

#: No baseline: fixtures must stand on their own findings.
CONFIG = LintConfig(baseline=None)

ALL_RULES = tuple(CONFIG.enabled_rules([r.id for r in all_rules()]))
PER_FILE_RULES = tuple(r for r in ALL_RULES if not r.startswith("REP4"))


def write_tree(tmp_path, files):
    """Materialize ``{relpath: source}`` under ``tmp_path`` and return it."""
    for relpath, source in files.items():
        target = tmp_path / relpath
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source)
    return tmp_path


def lint_tree(tmp_path, monkeypatch, enabled=ALL_RULES, **kwargs):
    monkeypatch.chdir(tmp_path)
    return lint_paths(["src"], config=CONFIG, enabled=enabled, **kwargs)


def assert_per_file_silent(tmp_path, monkeypatch, files):
    """The same tree produces zero findings from the per-file families —
    both in a project run restricted to them and module-by-module."""
    result = lint_tree(tmp_path, monkeypatch, enabled=PER_FILE_RULES)
    assert result.findings == [], [f.render() for f in result.findings]
    for relpath, source in files.items():
        found = lint_source(source, relpath, config=CONFIG,
                            enabled=PER_FILE_RULES)
        assert found == [], [f.render() for f in found]


# -- REP401: rng escape ------------------------------------------------------

RNG_FACTORY = """\
import random


def make_rng(seed):
    return random.Random(seed)
"""

RNG_MODULE_GLOBAL = {
    "src/repro/core/rngsrc.py": RNG_FACTORY,
    "src/repro/sim/setup.py": (
        "from ..core.rngsrc import make_rng\n"
        "\n"
        "SHARED = make_rng(7)\n"
    ),
}


def test_rep401_rng_reaching_module_global(tmp_path, monkeypatch):
    write_tree(tmp_path, RNG_MODULE_GLOBAL)
    result = lint_tree(tmp_path, monkeypatch)
    rules = [f.rule for f in result.findings]
    assert rules == ["REP401"]
    finding = result.findings[0]
    assert finding.path == "src/repro/sim/setup.py"
    assert "SHARED" in finding.message
    # Provenance crosses the module boundary back to the factory.
    assert "repro.core.rngsrc.make_rng" in finding.message


def test_rep401_needs_the_project_view(tmp_path, monkeypatch):
    write_tree(tmp_path, RNG_MODULE_GLOBAL)
    assert_per_file_silent(tmp_path, monkeypatch, RNG_MODULE_GLOBAL)


RNG_DISPATCH = {
    "src/repro/core/rngsrc.py": RNG_FACTORY,
    "src/repro/sim/fanout.py": (
        "from ..core.rngsrc import make_rng\n"
        "\n"
        "\n"
        "def step(rng):\n"
        "    return rng.random()\n"
        "\n"
        "\n"
        "def fan_out(pool, seeds):\n"
        "    rng = make_rng(3)\n"
        "    return pool.map(step, rng)\n"
        "\n"
        "\n"
        "def fan_out_lambda(pool, seeds):\n"
        "    rng = make_rng(5)\n"
        "    return pool.map(lambda s: rng.random() + s, seeds)\n"
    ),
}


def test_rep401_rng_crossing_the_pool_boundary(tmp_path, monkeypatch):
    write_tree(tmp_path, RNG_DISPATCH)
    result = lint_tree(tmp_path, monkeypatch)
    messages = [f.message for f in result.findings]
    assert [f.rule for f in result.findings] == ["REP401", "REP401"]
    assert any("passed to .map()" in m for m in messages)
    assert any("captures 'rng'" in m for m in messages)
    assert_per_file_silent(tmp_path, monkeypatch, RNG_DISPATCH)


def test_rep401_default_argument(tmp_path, monkeypatch):
    files = {
        "src/repro/core/rngsrc.py": RNG_FACTORY,
        "src/repro/sim/draw.py": (
            "from ..core.rngsrc import make_rng\n"
            "\n"
            "\n"
            "def draw(rng=make_rng(11)):\n"
            "    return rng.random()\n"
        ),
    }
    write_tree(tmp_path, files)
    result = lint_tree(tmp_path, monkeypatch)
    assert [f.rule for f in result.findings] == ["REP401"]
    assert "defaults evaluate once at import" in result.findings[0].message
    assert_per_file_silent(tmp_path, monkeypatch, files)


def test_rep401_unseeded_factory_is_clean(tmp_path, monkeypatch):
    # random.Random() without arguments is not a *seeded* stream; parking
    # it in a global is a style question, not a replication bug.
    files = {
        "src/repro/core/rngsrc.py": (
            "import random\n"
            "\n"
            "\n"
            "def fresh_rng():\n"
            "    return random.Random()\n"
        ),
        "src/repro/sim/setup.py": (
            "from ..core.rngsrc import fresh_rng\n"
            "\n"
            "SHARED = fresh_rng()\n"
        ),
    }
    write_tree(tmp_path, files)
    result = lint_tree(tmp_path, monkeypatch)
    # The per-file REP001 still dislikes the entropy-seeded constructor,
    # but no cross-module *escape* is reported.
    assert [f.rule for f in result.findings] == ["REP001"]


# -- REP402: hash-order taint ------------------------------------------------

SET_PRODUCER = """\
def active_ids(rows):
    ids = set()
    for row in rows:
        ids.add(row)
    return ids
"""

SET_CONSUMER = {
    "src/repro/core/groups.py": SET_PRODUCER,
    "src/repro/sim/decide.py": (
        "from ..core.groups import active_ids\n"
        "\n"
        "\n"
        "def admit(rows):\n"
        "    total = 0\n"
        "    for ident in active_ids(rows):\n"
        "        total += ident\n"
        "    return total\n"
    ),
}


def test_rep402_set_crossing_module_boundary(tmp_path, monkeypatch):
    write_tree(tmp_path, SET_CONSUMER)
    result = lint_tree(tmp_path, monkeypatch)
    assert [f.rule for f in result.findings] == ["REP402"]
    finding = result.findings[0]
    assert finding.path == "src/repro/sim/decide.py"
    assert "repro.core.groups.active_ids" in finding.message
    assert_per_file_silent(tmp_path, monkeypatch, SET_CONSUMER)


def test_rep402_sorted_sanitizer_kills_the_taint(tmp_path, monkeypatch):
    files = dict(SET_CONSUMER)
    files["src/repro/sim/decide.py"] = files["src/repro/sim/decide.py"].replace(
        "for ident in active_ids(rows):",
        "for ident in sorted(active_ids(rows)):",
    )
    write_tree(tmp_path, files)
    result = lint_tree(tmp_path, monkeypatch)
    assert result.findings == [], [f.render() for f in result.findings]


def test_rep402_outside_decision_packages_is_clean(tmp_path, monkeypatch):
    # The same flow in a reporting package is allowed: output formatting
    # may iterate sets, only simulation decisions must not.
    files = {
        "src/repro/core/groups.py": SET_PRODUCER,
        "src/repro/report/table.py": (
            "from ..core.groups import active_ids\n"
            "\n"
            "\n"
            "def render(rows):\n"
            "    return [str(i) for i in active_ids(rows)]\n"
        ),
    }
    write_tree(tmp_path, files)
    result = lint_tree(tmp_path, monkeypatch)
    assert result.findings == [], [f.render() for f in result.findings]


# -- REP404: plugin state ----------------------------------------------------

PLUGIN_TREE = {
    "src/repro/sim/plugreg.py": (
        "_PLUGINS = []\n"
        "\n"
        "\n"
        "def register_policy(plugin):\n"
        "    _PLUGINS.append(plugin)\n"
        "    return plugin\n"
    ),
    "src/repro/sim/policy.py": (
        "from .plugreg import register_policy\n"
        "\n"
        "_CACHE = {}\n"
        "\n"
        "\n"
        "@register_policy\n"
        "class StickyPolicy:\n"
        "    def apply(self, key, value):\n"
        "        _CACHE[key] = value\n"
        "        return value\n"
        "\n"
        "\n"
        "class InstancePolicy:\n"
        "    def __init__(self):\n"
        "        self.cache = {}\n"
        "\n"
        "    def apply(self, key, value):\n"
        "        self.cache[key] = value\n"
        "        return value\n"
        "\n"
        "\n"
        "register_policy(InstancePolicy)\n"
    ),
}


def test_rep404_registered_plugin_mutating_module_state(tmp_path, monkeypatch):
    write_tree(tmp_path, PLUGIN_TREE)
    result = lint_tree(tmp_path, monkeypatch)
    assert [f.rule for f in result.findings] == ["REP404"]
    finding = result.findings[0]
    # The decorator-registered plugin writing a module dict is flagged;
    # the call-registered plugin keeping state on the instance is not.
    assert "'StickyPolicy'" in finding.message
    assert "_CACHE" in finding.message
    assert_per_file_silent(tmp_path, monkeypatch, PLUGIN_TREE)


def test_rep404_unregistered_class_is_clean(tmp_path, monkeypatch):
    files = {
        path: source.replace("@register_policy\n", "")
        for path, source in PLUGIN_TREE.items()
    }
    write_tree(tmp_path, files)
    result = lint_tree(tmp_path, monkeypatch)
    assert result.findings == [], [f.render() for f in result.findings]


# -- REP101 across modules (project facts in a per-file rule) ----------------

DES_TREE = {
    "src/repro/sim/work.py": (
        "def step(env):\n"
        "    return env\n"
    ),
    "src/repro/sim/driver.py": (
        "from .work import step\n"
        "\n"
        "\n"
        "def drive(env):\n"
        "    env.process(step(env))\n"
    ),
}


def test_rep101_sees_yield_free_imports_with_facts(tmp_path, monkeypatch):
    write_tree(tmp_path, DES_TREE)
    result = lint_tree(tmp_path, monkeypatch)
    assert [f.rule for f in result.findings] == ["REP101"]
    assert "repro.sim.work.step" in result.findings[0].message
    assert "project index" in result.findings[0].message
    # Without the project pass (single-module lint) the import stays
    # trusted, exactly as before the whole-program engine existed.
    found = lint_source(DES_TREE["src/repro/sim/driver.py"],
                        "src/repro/sim/driver.py", config=CONFIG)
    assert found == []


# -- golden files: call graph and dataflow summaries -------------------------

GOLDEN_FIXTURE = [
    ("src/repro/core/rngsrc.py", RNG_FACTORY),
    ("src/repro/core/groups.py", SET_PRODUCER),
    (
        "src/repro/sim/decide.py",
        SET_CONSUMER["src/repro/sim/decide.py"],
    ),
    (
        "src/repro/sim/seeded.py",
        "from ..core.rngsrc import make_rng\n"
        "\n"
        "\n"
        "def draw(seed):\n"
        "    rng = make_rng(seed)\n"
        "    return rng.random()\n",
    ),
]


@pytest.fixture(scope="module")
def golden_project():
    return ProjectContext.build(GOLDEN_FIXTURE, CONFIG)


def _load_golden(name):
    return json.loads((GOLDEN_DIR / name).read_text())


def test_call_graph_matches_golden(golden_project):
    assert golden_project.graph.to_dict() == _load_golden("callgraph.json")


def test_dataflow_summaries_match_golden(golden_project):
    assert (
        golden_project.dataflow.summaries_dict()
        == _load_golden("summaries.json")
    )


# -- execution modes: jobs, cache, determinism -------------------------------

MIXED_TREE = {**RNG_MODULE_GLOBAL, **SET_CONSUMER, **PLUGIN_TREE}


def _rendered(result):
    return [f.render() for f in result.sorted_findings()]


def test_parallel_run_matches_serial(tmp_path, monkeypatch):
    write_tree(tmp_path, MIXED_TREE)
    serial = lint_tree(tmp_path, monkeypatch, jobs=1)
    parallel = lint_tree(tmp_path, monkeypatch, jobs=2)
    assert _rendered(serial) == _rendered(parallel)
    assert serial.files_checked == parallel.files_checked
    assert serial.suppressed == parallel.suppressed


def test_warm_cache_matches_cold(tmp_path, monkeypatch):
    write_tree(tmp_path, MIXED_TREE)
    cache = LintCache(tmp_path / ".lint-cache")
    cold = lint_tree(tmp_path, monkeypatch, cache=cache)
    assert cold.cache_hits == 0
    assert cold.cache_misses == len(MIXED_TREE) + 1  # files + project pass

    warm_cache = LintCache(tmp_path / ".lint-cache")
    warm = lint_tree(tmp_path, monkeypatch, cache=warm_cache)
    assert warm.cache_misses == 0
    assert warm.cache_hits == len(MIXED_TREE) + 1
    assert _rendered(cold) == _rendered(warm)
    assert warm.suppressed == cold.suppressed


def test_editing_one_file_invalidates_only_it(tmp_path, monkeypatch):
    write_tree(tmp_path, MIXED_TREE)
    cache = LintCache(tmp_path / ".lint-cache")
    lint_tree(tmp_path, monkeypatch, cache=cache)

    target = tmp_path / "src/repro/sim/decide.py"
    target.write_text(target.read_text() + "\n# trailing comment\n")
    second = lint_tree(
        tmp_path, monkeypatch, cache=LintCache(tmp_path / ".lint-cache")
    )
    # Every unchanged file hits; the edited file and the (whole-program)
    # project pass miss.
    assert second.cache_misses == 2
    assert second.cache_hits == len(MIXED_TREE) - 1


def test_corrupt_cache_entry_heals(tmp_path, monkeypatch):
    write_tree(tmp_path, MIXED_TREE)
    cache_dir = tmp_path / ".lint-cache"
    cold = lint_tree(tmp_path, monkeypatch, cache=LintCache(cache_dir))
    for entry in cache_dir.rglob("*.json"):
        entry.write_text("{corrupt")
    healed = lint_tree(tmp_path, monkeypatch, cache=LintCache(cache_dir))
    assert healed.cache_hits == 0
    assert _rendered(healed) == _rendered(cold)


def test_resolve_jobs():
    assert resolve_jobs(None) == 1
    assert resolve_jobs("3") == 3
    assert resolve_jobs("auto") >= 1
    with pytest.raises(ValueError):
        resolve_jobs("0")
    with pytest.raises(ValueError):
        resolve_jobs("many")


# -- baseline occurrence counting --------------------------------------------


def _baseline_from_rows(tmp_path, rows):
    payload = {"version": 1, "entries": rows}
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps(payload))
    return Baseline.load(path)


ROW = {
    "rule": "REP401",
    "path": "src/repro/sim/setup.py",
    "code": "SHARED = make_rng(7)",
}


class _Fake:
    rule = "REP401"
    path = "src/repro/sim/setup.py"


def test_baseline_budget_is_occurrence_counted(tmp_path):
    # Two identical rows grandfather exactly two identical findings —
    # the third occurrence of the very same (rule, path, code) still fails.
    baseline = _baseline_from_rows(tmp_path, [ROW, ROW])
    assert len(baseline) == 2
    assert baseline.matches(_Fake, ROW["code"])
    assert baseline.matches(_Fake, ROW["code"])
    assert not baseline.matches(_Fake, ROW["code"])
    assert baseline.stale_entries() == []


def test_baseline_single_row_matches_once(tmp_path):
    baseline = _baseline_from_rows(tmp_path, [ROW])
    assert baseline.matches(_Fake, ROW["code"])
    assert not baseline.matches(_Fake, ROW["code"])


def test_baseline_unused_budget_reported_stale(tmp_path):
    baseline = _baseline_from_rows(tmp_path, [ROW, ROW])
    assert baseline.matches(_Fake, ROW["code"])
    stale = baseline.stale_entries()
    assert len(stale) == 1
    assert stale[0].count == 1  # one of the two occurrences was fixed


def test_baseline_explicit_count_field(tmp_path):
    baseline = _baseline_from_rows(tmp_path, [{**ROW, "count": 3}])
    assert len(baseline) == 3
    for _ in range(3):
        assert baseline.matches(_Fake, ROW["code"])
    assert not baseline.matches(_Fake, ROW["code"])

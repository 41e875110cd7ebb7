"""Tests for the on-disk result cache: keying, hit/miss, invalidation,
corruption recovery, and LRU size management."""

import dataclasses
import os

import pytest

from repro.runtime import (
    ExperimentRunner,
    ResultCache,
    config_key,
    default_cache_dir,
    parse_size,
)
from repro.runtime.cache import CACHE_DIR_ENV
from repro.sim import figure6_config


def _double(x):
    return 2 * x


COUNTER_FILE = "calls.txt"


def _counting_worker_factory(tmp_path):
    """A worker that tallies real invocations via the filesystem (so tallies
    survive process-pool dispatch too, though these tests run serial)."""
    counter = tmp_path / COUNTER_FILE
    counter.write_text("")

    def count_calls(x):
        with open(counter, "a") as fh:
            fh.write("x\n")
        return 2 * x

    return count_calls, counter


# -- config keying ---------------------------------------------------------


def test_config_key_is_content_stable():
    a = figure6_config(seed=1, p_qos=0.01)
    b = figure6_config(seed=1, p_qos=0.01)
    assert a is not b
    assert config_key(a) == config_key(b)


def test_config_key_changes_with_any_field():
    base = figure6_config(seed=1)
    assert config_key(base) != config_key(figure6_config(seed=2))
    assert config_key(base) != config_key(figure6_config(seed=1, p_qos=0.02))
    assert config_key(base) != config_key(figure6_config(seed=1, horizon=99.0))


def test_config_key_distinguishes_dataclass_types():
    @dataclasses.dataclass(frozen=True)
    class Other:
        seed: int = 1

    assert config_key(Other()) != config_key(figure6_config(seed=1))


def test_config_key_handles_plain_values():
    assert config_key(3) == config_key(3)
    assert config_key(3) != config_key("3")
    assert config_key((1.0, 2.0)) != config_key((1.0, 2.5))


def test_config_key_set_values_are_content_keyed():
    """Equal sets key equally regardless of construction order, and a set
    is not confused with a list of the same elements."""
    forward = set()
    backward = set()
    for name in ["alpha", "beta", "gamma", "delta"]:
        forward.add(name)
    for name in ["delta", "gamma", "beta", "alpha"]:
        backward.add(name)
    assert config_key(forward) == config_key(backward)
    assert config_key(frozenset(forward)) == config_key(frozenset(backward))
    assert config_key(forward) != config_key(sorted(forward))
    assert config_key({1, 2}) != config_key({1, 3})


def test_config_key_sets_stable_across_hash_seeds(tmp_path):
    """Regression: ``_canonical`` used to fall back to ``repr`` for sets, so
    a set-valued config hashed differently under each PYTHONHASHSEED and
    every cross-run cache lookup missed."""
    import subprocess
    import sys

    snippet = (
        "from repro.runtime import config_key;"
        "print(config_key({'office_a', 'office_b', 'hall', 'cafeteria'}))"
    )
    keys = set()
    for hash_seed in ("0", "1", "4242"):
        proc = subprocess.run(
            [sys.executable, "-c", snippet],
            capture_output=True,
            text=True,
            env={**_child_env(), "PYTHONHASHSEED": hash_seed},
        )
        assert proc.returncode == 0, proc.stderr
        keys.add(proc.stdout.strip())
    assert len(keys) == 1, f"cache key depends on PYTHONHASHSEED: {keys}"


def _child_env():
    import os

    env = dict(os.environ)
    src = str(
        __import__("pathlib").Path(__file__).resolve().parents[2] / "src"
    )
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


# -- hit / miss / invalidation --------------------------------------------


def test_cache_miss_then_hit(tmp_path):
    cache = ResultCache(root=tmp_path)
    config = figure6_config(seed=3)
    hit, _ = cache.get(_double, config)
    assert not hit
    cache.put(_double, config, 42)
    hit, value = cache.get(_double, config)
    assert hit and value == 42
    assert cache.hits == 1 and cache.misses == 1
    assert len(cache) == 1


def test_cache_version_bump_invalidates(tmp_path):
    old = ResultCache(root=tmp_path, version=1)
    config = figure6_config(seed=3)
    old.put(_double, config, 42)
    new = ResultCache(root=tmp_path, version=2)
    hit, _ = new.get(_double, config)
    assert not hit


def test_cache_namespaced_per_worker_function(tmp_path):
    cache = ResultCache(root=tmp_path)
    config = figure6_config(seed=3)
    cache.put(_double, config, 42)
    hit, _ = cache.get("some.other.worker", config)
    assert not hit


def test_cache_clear_reports_count(tmp_path):
    cache = ResultCache(root=tmp_path)
    cache.put(_double, 1, 2)
    cache.put(_double, 2, 4)
    assert len(cache) == 2
    assert cache.clear() == 2
    assert len(cache) == 0
    hit, _ = cache.get(_double, 1)
    assert not hit
    assert cache.clear() == 0


@pytest.mark.parametrize(
    "junk",
    [
        b"not a pickle",  # UnpicklingError
        b"garbage\n",     # 'g' is a valid opcode whose arg raises ValueError
        b"",              # EOFError
    ],
)
def test_corrupt_entry_counts_as_miss(tmp_path, junk):
    cache = ResultCache(root=tmp_path)
    path = cache.put(_double, 5, 10)
    path.write_bytes(junk)
    hit, _ = cache.get(_double, 5)
    assert not hit
    # The dead entry is unlinked on detection so the store never
    # accumulates unreadable files.
    assert not path.exists()


@pytest.mark.parametrize(
    "junk",
    [
        b"not a pickle",
        b"garbage\n",
        b"",
    ],
)
def test_corrupt_entry_is_resimulated_and_overwritten(tmp_path, junk):
    """Regression: a truncated/garbage entry must not poison the sweep —
    the runner treats it as a miss, recomputes, and overwrites it."""
    worker, counter = _counting_worker_factory(tmp_path)
    cache = ResultCache(root=tmp_path / "cache")
    runner = ExperimentRunner(jobs=1, cache=cache)

    assert runner.run_many(worker, [7]) == [14]
    assert counter.read_text().count("x") == 1
    path = cache.path_for(worker, 7)
    path.write_bytes(junk)

    # Corrupt entry: re-simulated (one more real call), result correct.
    assert runner.run_many(worker, [7]) == [14]
    assert counter.read_text().count("x") == 2

    # The overwrite healed the store: next run is a pure hit.
    assert runner.run_many(worker, [7]) == [14]
    assert counter.read_text().count("x") == 2
    hit, value = cache.get(worker, 7)
    assert hit and value == 14


def test_default_cache_dir_env_override(monkeypatch, tmp_path):
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "alt"))
    assert default_cache_dir() == tmp_path / "alt"
    monkeypatch.delenv(CACHE_DIR_ENV)
    assert default_cache_dir().name == ".cache"
    assert default_cache_dir().parent.name == "benchmarks"


# -- runner integration ----------------------------------------------------


def test_runner_skips_cached_configs(tmp_path):
    worker, counter = _counting_worker_factory(tmp_path)
    cache = ResultCache(root=tmp_path / "cache")
    runner = ExperimentRunner(jobs=1, cache=cache)

    assert runner.run_many(worker, [1, 2, 3]) == [2, 4, 6]
    assert counter.read_text().count("x") == 3

    # Second run: all hits, no new simulations.
    assert runner.run_many(worker, [1, 2, 3]) == [2, 4, 6]
    assert counter.read_text().count("x") == 3

    # A partially-new sweep only simulates the new points, and results
    # still come back in submission order.
    assert runner.run_many(worker, [4, 1, 5, 2]) == [8, 2, 10, 4]
    assert counter.read_text().count("x") == 5


def test_runner_without_cache_always_computes(tmp_path):
    worker, counter = _counting_worker_factory(tmp_path)
    runner = ExperimentRunner(jobs=1)
    runner.run_many(worker, [1, 2])
    runner.run_many(worker, [1, 2])
    assert counter.read_text().count("x") == 4


# -- size parsing -----------------------------------------------------------


@pytest.mark.parametrize(
    "text,expected",
    [
        ("2048", 2048),
        ("500M", 500 * 1024**2),
        ("500MB", 500 * 1024**2),
        ("1.5G", int(1.5 * 1024**3)),
        ("16k", 16 * 1024),
        ("3T", 3 * 1024**4),
        ("0", 0),
        ("7B", 7),
        (4096, 4096),
    ],
)
def test_parse_size_accepts_human_sizes(text, expected):
    assert parse_size(text) == expected


@pytest.mark.parametrize("text", ["", "lots", "-5", "1.5.5G", "12Q", -1])
def test_parse_size_rejects_garbage(text):
    with pytest.raises(ValueError):
        parse_size(text)


# -- LRU eviction -----------------------------------------------------------


def _put_with_age(cache, config, value, age_rank):
    """Insert an entry and pin its recency: higher rank = more recent."""
    path = cache.put(_double, config, value)
    stamp = 1_000_000_000 + age_rank * 60
    os.utime(path, (stamp, stamp))
    return path


def test_entries_sorted_least_recently_used_first(tmp_path):
    cache = ResultCache(root=tmp_path)
    _put_with_age(cache, 3, 6, age_rank=2)
    _put_with_age(cache, 1, 2, age_rank=0)
    _put_with_age(cache, 2, 4, age_rank=1)
    order = [entry.key for entry in cache.entries()]
    expected = [config_key(c) for c in (1, 2, 3)]
    assert order == expected
    assert all(entry.size > 0 for entry in cache.entries())


def test_prune_max_entries_evicts_lru_first(tmp_path):
    cache = ResultCache(root=tmp_path)
    oldest = _put_with_age(cache, 1, 2, age_rank=0)
    middle = _put_with_age(cache, 2, 4, age_rank=1)
    newest = _put_with_age(cache, 3, 6, age_rank=2)

    evicted, freed = cache.prune(max_entries=1)
    assert evicted == 2 and freed > 0
    assert not oldest.exists() and not middle.exists()
    assert newest.exists()
    hit, value = cache.get(_double, 3)
    assert hit and value == 6


def test_prune_max_bytes_evicts_until_under_cap(tmp_path):
    cache = ResultCache(root=tmp_path)
    for rank, config in enumerate([1, 2, 3, 4]):
        _put_with_age(cache, config, 2 * config, age_rank=rank)
    entry_size = cache.entries()[0].size
    evicted, freed = cache.prune(max_bytes=2 * entry_size)
    assert evicted == 2 and freed == 2 * entry_size
    assert cache.total_bytes() <= 2 * entry_size
    survivors = [entry.key for entry in cache.entries()]
    assert survivors == [config_key(3), config_key(4)]


def test_prune_without_caps_is_noop(tmp_path):
    cache = ResultCache(root=tmp_path)
    cache.put(_double, 1, 2)
    assert cache.prune() == (0, 0)
    assert len(cache) == 1


def test_get_refreshes_recency_for_lru(tmp_path):
    """A hit must touch the entry so hot results survive a prune."""
    cache = ResultCache(root=tmp_path)
    _put_with_age(cache, 1, 2, age_rank=0)
    _put_with_age(cache, 2, 4, age_rank=1)
    hit, _ = cache.get(_double, 1)  # now the most recently used
    assert hit
    cache.prune(max_entries=1)
    assert [entry.key for entry in cache.entries()] == [config_key(1)]


def test_put_enforces_caps_automatically(tmp_path):
    cache = ResultCache(root=tmp_path, max_entries=2)
    _put_with_age(cache, 1, 2, age_rank=0)
    _put_with_age(cache, 2, 4, age_rank=1)
    cache.put(_double, 3, 6)  # pushes the store over the cap
    assert len(cache) == 2
    hit, _ = cache.get(_double, 1)
    assert not hit  # the oldest entry made room


def test_cap_validation():
    with pytest.raises(ValueError):
        ResultCache(max_bytes=-1)
    with pytest.raises(ValueError):
        ResultCache(max_entries=-1)
    with pytest.raises(ValueError):
        ResultCache(max_bytes=float("nan"))
    with pytest.raises(ValueError):
        ResultCache(max_entries=float("nan"))


def test_stats_snapshot(tmp_path):
    cache = ResultCache(root=tmp_path)
    cache.put(_double, 1, 2)
    cache.put(_double, 2, 4)
    cache.put("other.worker", 1, 99)
    cache.get(_double, 1)
    cache.get(_double, 77)
    stats = cache.stats()
    assert stats.root == str(tmp_path)
    assert stats.entries == 3
    assert stats.total_bytes == cache.total_bytes() > 0
    assert stats.hits == 1 and stats.misses == 1
    by_name = dict(
        (name, (count, size)) for name, count, size in stats.by_namespace
    )
    assert by_name["other.worker"][0] == 1
    assert sum(count for count, _size in by_name.values()) == 3


# -- concurrent-writer tolerance --------------------------------------------
#
# Distributed node workers share one cache directory: several processes
# get/put/prune concurrently with no lock.  The store tolerates that
# instead of locking — these regressions pin the three races that used to
# lose live entries (or crash) under concurrency.


@pytest.mark.parametrize("text", ["inf", "-inf", "nan", "1e309", "infB"])
def test_parse_size_rejects_non_finite(text):
    """float() happily parses "inf"/"nan"/overflowing exponents; as cache
    caps they would poison every comparison (or crash int())."""
    with pytest.raises(ValueError):
        parse_size(text)


def test_prune_skips_entries_touched_after_snapshot(tmp_path, monkeypatch):
    """An entry another process touched between our LRU snapshot and the
    unlink is *live*: prune must re-stat and skip it, not evict a
    concurrent reader's working set."""
    cache = ResultCache(root=tmp_path)
    touched = _put_with_age(cache, 1, 2, age_rank=0)
    victim = _put_with_age(cache, 2, 4, age_rank=1)
    stale = cache.entries()  # snapshot: `touched` ranks oldest

    # Concurrent reader refreshes `touched` after the snapshot was taken.
    stamp = 2_000_000_000
    os.utime(touched, (stamp, stamp))
    monkeypatch.setattr(cache, "entries", lambda: stale)

    evicted, _freed = cache.prune(max_entries=1)
    assert evicted == 1
    assert touched.exists()  # the live entry survived
    assert not victim.exists()  # eviction fell through to the next LRU


def test_prune_tolerates_concurrently_removed_entries(tmp_path, monkeypatch):
    """Entries that vanish between snapshot and unlink were evicted by the
    other process: prune adjusts its totals instead of crashing."""
    cache = ResultCache(root=tmp_path)
    gone = _put_with_age(cache, 1, 2, age_rank=0)
    keep = _put_with_age(cache, 2, 4, age_rank=1)
    stale = cache.entries()
    gone.unlink()  # another node pruned it first
    monkeypatch.setattr(cache, "entries", lambda: stale)

    evicted, freed = cache.prune(max_entries=1)
    # The vanished entry already satisfied the cap; nothing else evicted.
    assert (evicted, freed) == (0, 0)
    assert keep.exists()


def test_corrupt_get_does_not_unlink_concurrent_republish(tmp_path, monkeypatch):
    """get() opened a corrupt entry, but a writer atomically republished a
    good result at the same path before the unlink: the *new* file must
    survive (inode guard), and the next read hits it."""
    import pickle as real_pickle
    import types

    from repro.runtime import cache as cache_module

    cache = ResultCache(root=tmp_path)
    path = cache.put(_double, 1, 2)
    path.write_bytes(b"corrupt garbage")

    def load_with_concurrent_republish(fh):
        tmp = path.with_name(".republished.tmp")
        with open(tmp, "wb") as out:
            real_pickle.dump(99, out, protocol=real_pickle.HIGHEST_PROTOCOL)
        os.replace(tmp, path)  # a node's atomic publish, new inode
        raise ValueError("corrupt stream")

    monkeypatch.setattr(
        cache_module,
        "pickle",
        types.SimpleNamespace(
            load=load_with_concurrent_republish,
            dump=real_pickle.dump,
            HIGHEST_PROTOCOL=real_pickle.HIGHEST_PROTOCOL,
        ),
    )
    hit, value = cache.get(_double, 1)
    assert (hit, value) == (False, None)  # the corrupt read is still a miss
    assert path.exists()  # but the republished entry was NOT unlinked

    monkeypatch.setattr(cache_module, "pickle", real_pickle)
    assert cache.get(_double, 1) == (True, 99)


def test_corrupt_get_still_unlinks_when_no_republish(tmp_path):
    """Sanity check for the guard's other arm: with no concurrent writer
    the corrupt entry is dropped on detection, as before."""
    cache = ResultCache(root=tmp_path)
    path = cache.put(_double, 1, 2)
    path.write_bytes(b"corrupt garbage")
    assert cache.get(_double, 1) == (False, None)
    assert not path.exists()

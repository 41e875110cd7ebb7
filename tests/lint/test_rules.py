"""Positive and negative fixtures for every lint rule.

Each rule gets at least one snippet that must trigger it (at a known line)
and one semantically-adjacent snippet that must stay clean — the negative
fixtures are the real spec, pinning where each rule's reach ends.
"""

import textwrap

import pytest

from repro.lint import LintConfig, all_rules, lint_source

SIM_PATH = "src/repro/sim/fixture_module.py"
ENGINE_PATH = "src/repro/des/fixture_module.py"
PLAIN_PATH = "src/repro/experiments/fixture_module.py"
TOOL_PATH = "tools/fixture_module.py"


def findings_for(source, path=SIM_PATH, rule=None, config=None):
    found = lint_source(
        textwrap.dedent(source), path, config=config or LintConfig()
    )
    if rule is not None:
        found = [f for f in found if f.rule == rule]
    return found


def assert_triggers(rule, source, path=SIM_PATH, line=None, count=1):
    found = findings_for(source, path=path, rule=rule)
    assert len(found) == count, (
        f"expected {count} {rule} finding(s), got "
        f"{[f.render() for f in found]}"
    )
    if line is not None:
        assert found[0].line == line, found[0].render()


def assert_clean(rule, source, path=SIM_PATH):
    found = findings_for(source, path=path, rule=rule)
    assert not found, [f.render() for f in found]


# -- REP001: no global RNG --------------------------------------------------


def test_rep001_positive_module_random():
    assert_triggers("REP001", """
        import random

        def jitter():
            return random.random() * 2.0
    """, line=5)


def test_rep001_positive_alias_and_from_import():
    assert_triggers("REP001", """
        from random import choice

        def pick(xs):
            return choice(xs)
    """, line=5)
    assert_triggers("REP001", """
        import numpy as np

        def noise(n):
            return np.random.normal(size=n)
    """, line=5)


def test_rep001_positive_unseeded_instances():
    assert_triggers("REP001", """
        import random
        rng = random.Random()
    """, line=3)
    assert_triggers("REP001", """
        import numpy as np
        rng = np.random.default_rng()
    """, line=3)


def test_rep001_negative_seeded_instance():
    assert_clean("REP001", """
        import random

        def make_rng(seed):
            return random.Random(seed)

        def draw(rng):
            return rng.random() + rng.expovariate(2.0)
    """)
    assert_clean("REP001", """
        import numpy as np

        def make_rng(seed):
            return np.random.default_rng(seed)
    """)


# -- REP002: seed only in entry points --------------------------------------


def test_rep002_positive_seed_in_library_code():
    assert_triggers("REP002", """
        import random

        def setup():
            random.seed(42)
    """, line=5)


def test_rep002_negative_seed_in_entry_point():
    assert_clean("REP002", """
        import random

        def main():
            random.seed(42)
    """)
    assert_clean("REP002", """
        import random

        if __name__ == "__main__":
            random.seed(42)
    """)


# -- REP003: no wall clock in sim packages ----------------------------------


def test_rep003_positive_wall_clock_reads():
    assert_triggers("REP003", """
        import time

        def stamp():
            return time.time()
    """, line=5)
    assert_triggers("REP003", """
        from datetime import datetime

        def stamp():
            return datetime.now()
    """, line=5)
    assert_triggers("REP003", """
        import os

        def token():
            return os.urandom(8)
    """, line=5)


def test_rep003_negative_outside_sim_packages():
    # Wall-clock reads are fine in tooling (benchmark timers, report
    # generators) — the rule is scoped to simulation packages.
    assert_clean("REP003", """
        import time

        def stamp():
            return time.time()
    """, path=TOOL_PATH)


def test_rep003_negative_sim_clock():
    assert_clean("REP003", """
        def stamp(env):
            return env.now
    """)


# -- REP004: no set iteration in sim packages -------------------------------


def test_rep004_positive_evident_set():
    assert_triggers("REP004", """
        def spread(cells):
            for cell in set(cells):
                cell.allocate(1.0)
    """, line=3)


def test_rep004_positive_local_inference():
    assert_triggers("REP004", """
        def spread(cells):
            pending = {c for c in cells if c.active}
            for cell in pending:
                cell.allocate(1.0)
    """, line=4)


def test_rep004_positive_configured_attribute():
    assert_triggers("REP004", """
        def spread(cell):
            return [n for n in cell.neighbors]
    """, line=3)


def test_rep004_negative_sorted_wrapper():
    assert_clean("REP004", """
        def spread(cell, cells):
            for n in sorted(cell.neighbors, key=repr):
                n.allocate(1.0)
            for c in sorted(set(cells), key=repr):
                c.allocate(1.0)
    """)


def test_rep004_negative_outside_sim_packages():
    assert_clean("REP004", """
        def dedupe(xs):
            return [x for x in set(xs)]
    """, path=TOOL_PATH)


def test_rep004_negative_membership_and_mutation():
    # Membership tests and set algebra are order-free; only iteration is
    # flagged.
    assert_clean("REP004", """
        def touch(cell, x):
            if x in cell.neighbors:
                cell.occupants |= {x}
            return len(cell.neighbors)
    """)


# -- REP005: no population scans in library code -----------------------------


def test_rep005_positive_manager_portables_loop():
    assert_triggers("REP005", """
        def audit(manager):
            for pid, portable in manager.portables.items():
                portable.refresh()
    """, line=3)


def test_rep005_positive_private_table_and_views():
    assert_triggers("REP005", """
        class Manager:
            def sweep(self):
                for portable in self._portables.values():
                    portable.refresh()
    """, line=4)
    assert_triggers("REP005", """
        def rates(mgr):
            return [p.rate for p in mgr.portables]
    """, line=3)


def test_rep005_positive_manager_cells():
    assert_triggers("REP005", """
        def repool(sim):
            for cell_id in sim.manager.cells:
                sim.manager.update_pools([cell_id])
    """, line=3)


def test_rep005_positive_sorted_wrapper_still_scans():
    # sorted() fixes iteration *order*, not iteration *cost*; the scan is
    # the problem, so the wrapper earns no exemption.
    assert_triggers("REP005", """
        def audit(manager):
            for pid in sorted(manager.portables, key=repr):
                manager.touch(pid)
    """, line=3)
    assert_triggers("REP005", """
        def audit(manager):
            return list(manager.portables.values())[:5]
    """, count=0)  # materialization without iteration syntax is out of reach


def test_rep005_negative_floorplan_cells():
    # Floorplans legitimately enumerate their cells (construction is a
    # one-time cost); only manager-owned tables are population-sized.
    assert_clean("REP005", """
        def build(plan):
            return [plan.cells[0] for _ in plan.cells]
    """)


def test_rep005_negative_subscript_and_membership():
    assert_clean("REP005", """
        def lookup(manager, pid):
            if pid in manager.portables:
                return manager.portables[pid]
            return None
    """)


def test_rep005_negative_outside_library():
    assert_clean("REP005", """
        def audit(manager):
            for pid in manager.portables:
                manager.touch(pid)
    """, path=TOOL_PATH)
    assert_clean("REP005", """
        def audit(manager):
            for pid in manager.portables:
                manager.touch(pid)
    """, path="tests/sim/fixture_module.py")


def test_rep005_negative_suppressed_cold_path():
    assert_clean("REP005", """
        def full_scan(manager):
            for pid in manager.portables:  # repro-lint: ignore[REP005]
                manager.touch(pid)
    """)


# -- REP101: env.process() takes a generator --------------------------------


def test_rep101_positive_lambda():
    assert_triggers("REP101", """
        def start(env):
            env.process(lambda: None)
    """, line=3)


def test_rep101_positive_uncalled_function():
    assert_triggers("REP101", """
        def ticker(env):
            yield env.timeout(1.0)

        def start(env):
            env.process(ticker)
    """, line=6)


def test_rep101_positive_non_generator_call():
    assert_triggers("REP101", """
        def not_a_process(env):
            return None

        def start(env):
            env.process(not_a_process(env))
    """, line=6)


def test_rep101_negative_generator_call():
    assert_clean("REP101", """
        def ticker(env):
            yield env.timeout(1.0)

        class Sim:
            def run(self):
                yield self.env.timeout(1.0)

            def start(self):
                self.env.process(self.run())

        def start(env):
            env.process(ticker(env))
    """)


def test_rep101_negative_unresolvable_call_is_trusted():
    # A call into another module may well return a generator; only
    # same-module resolution is judged.
    assert_clean("REP101", """
        def start(env, machinery):
            env.process(machinery.run())
    """)


# -- REP102: processes yield events only ------------------------------------


def test_rep102_positive_constant_yield():
    assert_triggers("REP102", """
        def proc(env):
            yield env.timeout(1.0)
            yield 5
    """, line=4)


def test_rep102_positive_bare_yield():
    assert_triggers("REP102", """
        def proc(env):
            yield env.timeout(1.0)
            yield
    """, line=4)


def test_rep102_negative_event_yields():
    assert_clean("REP102", """
        def proc(env, other):
            yield env.timeout(1.0)
            yield env.event()
            result = yield env.process(other)
            return result
    """)


def test_rep102_negative_data_generator_left_alone():
    # A trace-replay generator yields data, not events; it is not a DES
    # process (never passed to env.process, no event-factory yields).
    assert_clean("REP102", """
        def arrival_times(rng, n):
            for _ in range(n):
                yield rng.expovariate(1.0)
    """)


# -- REP103: no blocking sleep ----------------------------------------------


def test_rep103_positive_sleep_in_sim():
    assert_triggers("REP103", """
        import time

        def proc(env):
            yield env.timeout(1.0)
            time.sleep(0.5)
    """, line=6)


def test_rep103_negative_outside_sim_packages():
    assert_clean("REP103", """
        import time

        def backoff():
            time.sleep(0.5)
    """, path=TOOL_PATH)


# -- REP201: pool callables must be picklable -------------------------------


def test_rep201_positive_lambda_dispatch():
    assert_triggers("REP201", """
        def sweep(runner, configs):
            return runner.run_many(lambda c: c * 2, configs)
    """, path=PLAIN_PATH, line=3)


def test_rep201_positive_nested_function_dispatch():
    assert_triggers("REP201", """
        def sweep(runner, configs):
            def worker(config):
                return config * 2
            return runner.run_many(worker, configs)
    """, path=PLAIN_PATH, line=5)


def test_rep201_negative_module_level_worker():
    assert_clean("REP201", """
        def worker(config):
            return config * 2

        def sweep(runner, configs):
            return runner.run_many(worker, configs)
    """, path=PLAIN_PATH)


# -- REP202: no module-global rebinding -------------------------------------


def test_rep202_positive_global_rebinding():
    assert_triggers("REP202", """
        _CACHE = {}
        _COUNT = 0

        def record(x):
            global _COUNT
            _COUNT += 1
    """, line=6)


def test_rep202_negative_read_only_global():
    assert_clean("REP202", """
        _LIMIT = 10

        def check(x):
            return x < _LIMIT
    """)


def test_rep202_negative_outside_sim_and_engine():
    assert_clean("REP202", """
        _COUNT = 0

        def record():
            global _COUNT
            _COUNT += 1
    """, path=TOOL_PATH)


# -- REP301: no float clock equality ----------------------------------------


def test_rep301_positive_env_now_equality():
    assert_triggers("REP301", """
        def fired(env, deadline):
            return env.now == deadline
    """, line=3)


def test_rep301_positive_time_named_operand():
    assert_triggers("REP301", """
        def same_slot(start_time, end_time):
            if start_time != end_time:
                return False
            return True
    """, line=3)


def test_rep301_negative_ordering_comparisons():
    assert_clean("REP301", """
        def overdue(env, deadline):
            return env.now >= deadline
    """)


def test_rep301_negative_assert_exemption():
    # Tests pinning an exact engine timestamp state intent; asserts are
    # exempt.
    assert_clean("REP301", """
        def check(env):
            assert env.now == 100.0
    """)


# -- REP302: no bare except in engine code ----------------------------------


def test_rep302_positive_bare_except():
    assert_triggers("REP302", """
        def step(queue):
            try:
                return queue.pop()
            except:
                return None
    """, path=ENGINE_PATH, line=5)


def test_rep302_negative_typed_except():
    assert_clean("REP302", """
        def step(queue):
            try:
                return queue.pop()
            except IndexError:
                return None
    """, path=ENGINE_PATH)


def test_rep302_negative_outside_engine_packages():
    assert_clean("REP302", """
        def step(queue):
            try:
                return queue.pop()
            except:
                return None
    """, path=TOOL_PATH)


# -- REP303: no print() in library code --------------------------------------


def test_rep303_positive_print_in_library_module():
    assert_triggers("REP303", """
        def report(stats):
            print(f"admitted {stats.admitted}")
    """, path=PLAIN_PATH, line=3)


def test_rep303_positive_print_in_sim_package():
    assert_triggers("REP303", """
        def on_handoff(outcome, now):
            print("handoff", outcome.portable_id, now)
    """, path=SIM_PATH, line=3)


def test_rep303_negative_cli_module_exempt():
    assert_clean("REP303", """
        def report(stats):
            print(f"admitted {stats.admitted}")
    """, path="src/repro/lint/cli.py")


def test_rep303_negative_main_module_exempt():
    assert_clean("REP303", """
        def report(stats):
            print(f"admitted {stats.admitted}")
    """, path="src/repro/__main__.py")


def test_rep303_negative_entry_point_function_exempt():
    assert_clean("REP303", """
        def main():
            print("hello from the CLI")
    """, path=PLAIN_PATH)


def test_rep303_negative_name_main_block_exempt():
    assert_clean("REP303", """
        if __name__ == "__main__":
            print("ad-hoc driver output")
    """, path=PLAIN_PATH)


def test_rep303_negative_outside_repro_package():
    assert_clean("REP303", """
        def report():
            print("tool output")
    """, path=TOOL_PATH)


def test_rep303_negative_shadowed_print_is_still_flagged_only_for_builtin():
    # A local helper named differently does not trip the rule.
    assert_clean("REP303", """
        def report(emit):
            emit("admitted")
    """, path=PLAIN_PATH)


# -- REP304: no wall-clock durations in engine/obs code ---------------------


RUNTIME_PATH = "src/repro/runtime/fixture_module.py"
OBS_PATH = "src/repro/obs/fixture_module.py"


def test_rep304_positive_direct_subtraction():
    assert_triggers("REP304", """
        import time

        def elapsed(start):
            return time.time() - start
    """, path=RUNTIME_PATH, line=5)


def test_rep304_positive_tracked_stamp_name():
    assert_triggers("REP304", """
        import time

        def age(doc):
            now = time.time()
            return now - doc["updated_at"]
    """, path=OBS_PATH, line=6)


def test_rep304_positive_comparison_with_deadline():
    assert_triggers("REP304", """
        import time

        def expired(deadline):
            return time.time() > deadline
    """, path=RUNTIME_PATH, line=5)


def test_rep304_positive_datetime_now():
    assert_triggers("REP304", """
        import datetime

        def spent(started):
            return datetime.datetime.now() - started
    """, path=RUNTIME_PATH, line=5)


def test_rep304_negative_monotonic_duration():
    assert_clean("REP304", """
        import time

        def elapsed(start):
            return time.monotonic() - start
    """, path=RUNTIME_PATH)
    assert_clean("REP304", """
        import time

        def elapsed(start):
            return time.perf_counter() - start
    """, path=RUNTIME_PATH)


def test_rep304_negative_stamping_without_arithmetic():
    assert_clean("REP304", """
        import time

        def heartbeat(doc):
            doc["updated_at"] = time.time()
            return doc
    """, path=RUNTIME_PATH)


def test_rep304_negative_reassigned_name_not_tracked():
    assert_clean("REP304", """
        import time

        def elapsed(flag):
            now = time.time()
            if flag:
                now = 0.0
            return now - 1.0
    """, path=RUNTIME_PATH)


def test_rep304_negative_sim_package_is_rep003_territory():
    source = """
        import time

        def elapsed(start):
            return time.time() - start
    """
    assert_clean("REP304", source, path=SIM_PATH)
    assert_triggers("REP003", source, path=SIM_PATH)


def test_rep304_negative_outside_engine_and_obs():
    assert_clean("REP304", """
        import time

        def elapsed(start):
            return time.time() - start
    """, path=PLAIN_PATH)


# -- cross-cutting ----------------------------------------------------------


ALL_RULE_IDS = [
    "REP001", "REP002", "REP003", "REP004", "REP005",
    "REP101", "REP102", "REP103",
    "REP201", "REP202",
    "REP301", "REP302", "REP303", "REP304",
    "REP401", "REP402", "REP404",
]


def test_rule_catalogue_is_complete():
    assert [r.id for r in all_rules()] == ALL_RULE_IDS


@pytest.mark.parametrize("rule_id", ALL_RULE_IDS)
def test_every_rule_has_name_and_summary(rule_id):
    from repro.lint import get_rule

    rule = get_rule(rule_id)
    assert rule.name
    assert len(rule.summary) > 20


def test_suppression_comment_silences_one_rule():
    source = """
        import random

        def jitter():
            return random.random()  # repro-lint: ignore[REP001]
    """
    assert_clean("REP001", source)


def test_suppression_comment_is_rule_specific():
    source = """
        import time

        def stamp():
            return time.time()  # repro-lint: ignore[REP001]
    """
    assert_triggers("REP003", source)


def test_bare_suppression_silences_everything():
    source = """
        import time

        def stamp():
            return time.time()  # repro-lint: ignore
    """
    assert_clean("REP003", source)

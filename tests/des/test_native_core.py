"""The compiled-core selection seam and its fallback rules.

``make_environment()`` is the only sanctioned way to pick a kernel; these
tests pin every edge of that seam — env-var parsing, the explicit-native
failure mode when the extension is missing, the silent ``auto`` fallback
for tracing — plus the per-core event accounting that
telemetry uses to refuse mixed-kernel sweeps.

Tests marked ``requires_native`` exercise the real extension and skip on
pure-only installs; everything else runs everywhere (extension absence is
simulated through the probe cache, not the import system).
"""

import collections

import pytest

from repro.des import (
    NATIVE_ENV,
    Environment,
    Event,
    events_processed_by_core,
    events_processed_total,
    make_environment,
    native_available,
    native_import_error,
    resolve_des_core,
    selected_core,
)
from repro.des import engine as engine_mod
from repro.obs import RingBufferSink, RunTelemetry, Tracer, use_tracer
from repro.runtime import ExperimentRunner

requires_native = pytest.mark.skipif(
    not native_available(),
    reason="repro.des._speedups not built (python setup.py build_ext --inplace)",
)


@pytest.fixture
def clean_env(monkeypatch):
    monkeypatch.delenv(NATIVE_ENV, raising=False)
    return monkeypatch


@pytest.fixture
def no_native(clean_env):
    """Simulate a pure-only install by poisoning the probe cache."""
    clean_env.setattr(
        engine_mod,
        "_NATIVE_STATE",
        {"module": None, "error": "ImportError: simulated missing extension"},
    )
    return clean_env


# -- resolve_des_core: request normalization --------------------------------


def test_resolve_defaults_to_auto(clean_env):
    assert resolve_des_core() == "auto"
    clean_env.setenv(NATIVE_ENV, "auto")
    assert resolve_des_core() == "auto"


@pytest.mark.parametrize("raw,expected", [
    ("1", "native"), ("true", "native"), ("on", "native"), ("native", "native"),
    ("0", "pure"), ("false", "pure"), ("off", "pure"), ("pure", "pure"),
    (" Native ", "native"), ("PURE", "pure"),
])
def test_resolve_env_var_spellings(clean_env, raw, expected):
    clean_env.setenv(NATIVE_ENV, raw)
    assert resolve_des_core() == expected


def test_resolve_explicit_argument_overrides_env(clean_env):
    clean_env.setenv(NATIVE_ENV, "native")
    assert resolve_des_core("pure") == "pure"
    assert resolve_des_core("AUTO") == "auto"


def test_resolve_rejects_junk(clean_env):
    clean_env.setenv(NATIVE_ENV, "fast")
    with pytest.raises(ValueError, match="unrecognized"):
        resolve_des_core()
    with pytest.raises(ValueError, match="unrecognized"):
        resolve_des_core("compiled")


# -- extension-missing fallbacks --------------------------------------------


def test_missing_extension_reports_unavailable(no_native):
    assert not native_available()
    assert "simulated missing extension" in native_import_error()


def test_auto_falls_back_to_pure_when_extension_missing(no_native):
    assert selected_core() == "pure"
    env = make_environment()
    assert type(env) is Environment
    assert env.core == "pure"


def test_explicit_native_raises_when_extension_missing(no_native):
    with pytest.raises(RuntimeError, match="build_ext --inplace"):
        selected_core("native")
    with pytest.raises(RuntimeError, match="not.*importable"):
        make_environment(core="native")
    no_native.setenv(NATIVE_ENV, "native")
    with pytest.raises(RuntimeError):
        make_environment()


def test_make_environment_passes_initial_time(clean_env):
    env = make_environment(5.0)
    assert env.now == 5.0


def test_native_available_reports_no_error_when_importable(clean_env):
    if not native_available():
        pytest.skip("extension genuinely absent; covered by no_native tests")
    assert native_import_error() is None


# -- tracing vetoes the compiled pump ----------------------------------------


@requires_native
def test_tracer_forces_pure_selection(clean_env):
    assert selected_core() == "native"
    with use_tracer(Tracer(RingBufferSink())):
        assert selected_core() == "pure"
        assert selected_core("native") == "pure"  # even an explicit request
        assert type(make_environment()) is Environment
    assert selected_core() == "native"


@requires_native
def test_set_tracer_rebinds_pure_pump_and_back(clean_env):
    """Attaching a tracer mid-life swaps a NativeEnvironment onto the pure
    pump (so every schedule is recorded); detaching restores the compiled
    one.  The simulated timeline is identical either way."""
    from repro.des.native import NativeEnvironment

    def timeline(env):
        fired = []

        def note(event):
            fired.append((env.now, event.value))

        for delay in (3.0, 1.0, 2.0):
            t = env.timeout(delay, value=delay)
            t.callbacks.append(note)
        env.run(until=10.0)
        return fired

    env = make_environment(core="native")
    assert type(env) is NativeEnvironment
    assert env._pump is not None

    sink = RingBufferSink()
    env.set_tracer(Tracer(sink))
    assert env._pump is None  # traced: compiled pump is off
    traced = timeline(env)
    assert sink.records(), "tracer saw no events despite pure rebinding"

    env.set_tracer(None)
    assert env._pump is not None  # compiled pump restored

    assert traced == timeline(make_environment(core="pure"))


# -- pump semantics at the seams --------------------------------------------


@requires_native
def test_callbacks_can_reschedule_from_inside_native_pump(clean_env):
    """An Event subclass whose callbacks re-enter ``schedule`` while the
    compiled pump is draining the heap: the chain grows the queue it is
    being popped from, on both kernels identically."""

    class ChainEvent(Event):
        pass

    def run_chain(env):
        fired = []

        def extend(event):
            fired.append((env.now, event.value))
            if event.value < 5:
                nxt = ChainEvent(env)
                nxt._ok = True
                nxt._value = event.value + 1
                nxt.callbacks.append(extend)
                env.schedule(nxt, delay=0.5 * (event.value + 1))

        first = ChainEvent(env)
        first._ok = True
        first._value = 0
        first.callbacks.append(extend)
        env.schedule(first, delay=1.0)
        env.run(until=30.0)
        return fired

    native = run_chain(make_environment(core="native"))
    pure = run_chain(make_environment(core="pure"))
    assert native == pure
    assert len(native) == 6


@requires_native
def test_non_list_callbacks_container(clean_env):
    """The pump's list fan-out falls back to plain iteration for events
    whose ``callbacks`` was swapped for another iterable."""

    def run_deque(env):
        fired = []
        event = env.timeout(1.0, value="v")
        event.callbacks = collections.deque(
            [lambda e: fired.append(("a", env.now, e.value)),
             lambda e: fired.append(("b", env.now, e.value))]
        )
        env.run(until=2.0)
        return fired

    assert run_deque(make_environment(core="native")) == run_deque(
        make_environment(core="pure")
    )


# -- per-core event accounting ----------------------------------------------


def _pump_events(env, n=7):
    for i in range(n):
        env.timeout(float(i + 1))
    env.run(until=float(n + 1))


@requires_native
def test_event_tally_lands_on_the_right_core(clean_env):
    before = events_processed_by_core()
    _pump_events(make_environment(core="pure"))
    after_pure = events_processed_by_core()
    per_run = after_pure["pure"] - before["pure"]
    assert per_run > 0
    assert after_pure["native"] == before["native"]

    _pump_events(make_environment(core="native"))
    after_native = events_processed_by_core()
    # The same workload tallies the same number of events on either core.
    assert after_native["native"] - after_pure["native"] == per_run
    assert after_native["pure"] == after_pure["pure"]

    assert events_processed_total() == sum(after_native.values())


# -- telemetry: one kernel per sweep ----------------------------------------


def test_telemetry_records_single_core():
    t = RunTelemetry()
    t.record_replication(1.0, events=5, cores={"pure": 5})
    t.record_core_events({"pure": 3, "native": 0})  # zero counts ignored
    assert t.des_cores == {"pure": 8}
    assert t.des_core == "pure"
    assert "[pure core]" in t.summary()


def test_telemetry_refuses_mixed_cores():
    t = RunTelemetry()
    t.record_core_events({"native": 10})
    with pytest.raises(RuntimeError, match="mixed DES cores"):
        t.record_core_events({"pure": 10})


def test_telemetry_merge_folds_and_refuses_mixed_cores():
    a, b = RunTelemetry(), RunTelemetry()
    a.record_core_events({"native": 4})
    b.record_core_events({"native": 6})
    a.merge(b)
    assert a.des_cores == {"native": 10}
    c = RunTelemetry()
    c.record_core_events({"pure": 1})
    with pytest.raises(RuntimeError, match="mixed DES cores"):
        a.merge(c)


def test_to_dict_surfaces_core(clean_env):
    t = RunTelemetry()
    t.record_replication(1.0, events=20, cores={"native": 20})
    data = t.to_dict()
    assert data["des"]["core"] == "native"
    assert data["des"]["cores"] == {"native": 20}


# -- serial == pool pinning --------------------------------------------------


def _sim_worker(seed):
    from repro.sim import TwoCellSimulator, figure6_config

    return TwoCellSimulator(
        figure6_config(policy="plain", horizon=30.0, seed=seed)
    ).run().stats.new_requests


@pytest.mark.parametrize("core", ["pure", "native"])
def test_serial_and_pool_report_same_core(clean_env, core):
    if core == "native" and not native_available():
        pytest.skip("extension not built")
    clean_env.setenv(NATIVE_ENV, core)
    serial = ExperimentRunner(jobs=1)
    serial.run_many(_sim_worker, [1, 2])
    assert serial.telemetry.des_core == core
    assert serial.telemetry.des_cores[core] == serial.telemetry.des_events > 0

    pool = ExperimentRunner(jobs=2)
    pool.run_many(_sim_worker, [1, 2])
    assert pool.telemetry.des_core == core
    assert pool.telemetry.des_cores == serial.telemetry.des_cores

"""Fault-plan unit tests: spec grammar, triggers, determinism, activation."""

import numpy as np
import pytest

from repro import faults
from repro.errors import InjectedFaultError, ReproError
from repro.faults.plan import FaultPlan, FaultRule, WorkerDeathError
from repro.service.cache import waveform_checksum
from repro.waveform.plane import WaveformPlane
from repro.waveform.waveform import Waveform


def make_plane(slots=2, nets=2):
    return WaveformPlane.from_waveforms([
        {f"n{j}": Waveform.trusted(0, np.array([1e-9 * (i + j + 1), 2e-9],
                                               dtype=np.float64))
         for j in range(nets)}
        for i in range(slots)
    ])


class TestSpecGrammar:
    def test_round_trip(self):
        spec = ("seed=11; backend.run_levels:raise@n=3; "
                "cache.get:corrupt@p=0.25; service.demux:delay@p=0.1,ms=5")
        plan = FaultPlan.from_spec(spec)
        assert plan.seed == 11
        assert len(plan.rules) == 3
        assert FaultPlan.from_spec(plan.to_spec()).to_spec() == plan.to_spec()

    def test_empty_spec_is_empty_plan(self):
        plan = FaultPlan.from_spec("")
        assert plan.rules == ()
        assert plan.enact("cache.get") is None

    def test_count_and_ms_round_trip(self):
        rule = FaultRule(site="service.demux", kind="delay", nth=2, count=3,
                         ms=7.5)
        again = FaultPlan.from_spec(rule.to_spec()).rules[0]
        assert again == rule

    @pytest.mark.parametrize("bad", [
        "nonsense",                          # no site:kind shape
        "bogus.site:raise@n=1",              # unknown site
        "cache.get:explode@n=1",             # unknown kind
        "cache.get:raise@n=1,zz=2",          # unknown parameter
        "cache.get:raise",                   # no trigger at all
        "cache.get:raise@n=1,p=0.5",         # two triggers
        "cache.get:raise@p=0",               # probability out of range
        "cache.get:raise@n=0",               # nth is 1-based
    ])
    def test_rejects_malformed_specs(self, bad):
        with pytest.raises(ReproError):
            FaultPlan.from_spec(bad)


class TestTriggers:
    def test_nth_call_is_exact(self):
        plan = FaultPlan.from_spec("service.demux:raise@n=3")
        assert plan.enact("service.demux") is None
        assert plan.enact("service.demux") is None
        with pytest.raises(InjectedFaultError) as info:
            plan.enact("service.demux")
        assert info.value.site == "service.demux"
        for _ in range(10):
            assert plan.enact("service.demux") is None
        assert plan.calls("service.demux") == 13

    def test_nth_count_covers_consecutive_calls(self):
        plan = FaultPlan.from_spec("engine.alloc:raise@n=2,count=2")
        assert plan.enact("engine.alloc") is None
        for _ in range(2):
            with pytest.raises(InjectedFaultError):
                plan.enact("engine.alloc")
        assert plan.enact("engine.alloc") is None

    def test_sites_count_independently(self):
        plan = FaultPlan.from_spec("cache.get:raise@n=1")
        assert plan.enact("service.demux") is None
        with pytest.raises(InjectedFaultError):
            plan.enact("cache.get")
        assert plan.stats()["calls"] == {"service.demux": 1, "cache.get": 1}

    def test_probability_is_seeded_deterministic(self):
        def firing_pattern(seed):
            plan = FaultPlan.from_spec(f"seed={seed}; cache.get:raise@p=0.3")
            fired = []
            for index in range(200):
                try:
                    plan.enact("cache.get")
                except InjectedFaultError:
                    fired.append(index)
            return fired

        first = firing_pattern(7)
        assert first, "p=0.3 over 200 calls must fire at least once"
        assert firing_pattern(7) == first
        assert firing_pattern(8) != first

    def test_die_raises_worker_death(self):
        plan = FaultPlan.from_spec("backend.run_levels:die@n=1")
        with pytest.raises(WorkerDeathError):
            plan.enact("backend.run_levels")
        # Deliberately not an Exception: hardening layers that isolate
        # job failures with `except Exception` must never absorb it.
        assert not issubclass(WorkerDeathError, Exception)

    def test_delay_sleeps_and_reports_rule(self):
        plan = FaultPlan.from_spec("service.demux:delay@n=1,ms=1")
        rule = plan.enact("service.demux")
        assert rule is not None and rule.kind == "delay"
        assert plan.stats()["fired"] == {"service.demux:delay": 1}


class TestCorruption:
    def test_corrupt_flips_exactly_one_bit(self):
        plane = make_plane()
        before = waveform_checksum(plane)
        pristine = plane.times.copy()
        plan = FaultPlan.from_spec("seed=3; cache.get:corrupt@n=1")
        plan.enact("cache.get", corruptible=plane)
        assert waveform_checksum(plane) != before
        flipped = plane.times.view(np.int64) ^ pristine.view(np.int64)
        assert sorted(flipped.tolist()) == [0] * (plane.times.size - 1) + [1]

    def test_corrupt_quiet_result_inverts_initial(self):
        plane = WaveformPlane.from_waveforms([{"q": Waveform.trusted(
            0, np.array([], dtype=np.float64))}])
        plan = FaultPlan.from_spec("cache.get:corrupt@n=1")
        plan.enact("cache.get", corruptible=plane)
        assert plane[0]["q"].initial == 1

    def test_corrupt_without_target_is_noop(self):
        plan = FaultPlan.from_spec("cache.get:corrupt@n=1")
        assert plan.enact("cache.get", corruptible=None).kind == "corrupt"


class TestActivation:
    def test_trip_is_noop_without_plan(self):
        assert faults.active_plan() is None
        assert faults.trip("service.demux") is None

    def test_injected_scopes_activation(self):
        with faults.injected("cache.get:raise@n=1") as plan:
            assert faults.active_plan() is plan
            with pytest.raises(InjectedFaultError):
                faults.trip("cache.get")
        assert faults.active_plan() is None

    def test_activation_stack_restores_shadowed_plan(self):
        outer = faults.activate("cache.get:raise@n=1")
        inner = faults.activate("service.demux:raise@n=1")
        assert faults.active_plan() is inner
        faults.deactivate()
        assert faults.active_plan() is outer
        faults.deactivate()
        assert faults.active_plan() is None

    def test_env_plan_resolves_lazily(self, monkeypatch):
        monkeypatch.setenv(faults.ENV_VAR, "cache.get:raise@n=1")
        faults.reset()
        with pytest.raises(InjectedFaultError):
            faults.trip("cache.get")
        # An explicit activation shadows the env plan...
        with faults.injected(""):
            assert faults.trip("cache.get") is None
        # ...and popping it restores the env-resolved plan (call counts
        # intact: the next crossing is the 2nd, past n=1).
        assert faults.trip("cache.get") is None

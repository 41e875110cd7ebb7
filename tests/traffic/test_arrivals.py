"""Tests for TypeSpec, Figure 6's per-type workload parameters."""

import pytest

from repro.traffic import TypeSpec


def test_typespec_validation():
    with pytest.raises(ValueError):
        TypeSpec(bandwidth=0, arrival_rate=1, holding_mean=1)
    with pytest.raises(ValueError):
        TypeSpec(bandwidth=1, arrival_rate=-1, holding_mean=1)
    with pytest.raises(ValueError):
        TypeSpec(bandwidth=1, arrival_rate=1, holding_mean=0)
    with pytest.raises(ValueError):
        TypeSpec(bandwidth=1, arrival_rate=1, holding_mean=1, handoff_prob=1.5)


def test_typespec_derived_quantities():
    spec = TypeSpec(bandwidth=4.0, arrival_rate=1.0, holding_mean=0.25)
    assert spec.mu == pytest.approx(4.0)
    assert spec.offered_load == pytest.approx(1.0)

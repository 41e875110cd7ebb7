"""Tests for QoS bounds and requests."""

import pytest

from repro.core import QoSBounds, QoSRequest, ServiceClass, audio_request, video_request
from repro.traffic import FlowSpec


def test_bounds_validation():
    with pytest.raises(ValueError):
        QoSBounds(0.0, 10.0)
    with pytest.raises(ValueError):
        QoSBounds(10.0, 5.0)
    assert QoSBounds(16.0, float("inf")).span == float("inf")  # unbounded b_max


@pytest.mark.parametrize(
    "b_min, b_max",
    [(float("nan"), 64.0), (16.0, float("nan")), (float("nan"), float("nan"))],
)
def test_bounds_reject_nan(b_min, b_max):
    with pytest.raises(ValueError):
        QoSBounds(b_min, b_max)


def test_bounds_span_and_fixed():
    bounds = QoSBounds(16.0, 64.0)
    assert bounds.span == 48.0
    assert not bounds.is_fixed
    assert QoSBounds(16.0, 16.0).is_fixed


def test_bounds_clamp():
    bounds = QoSBounds(16.0, 64.0)
    assert bounds.clamp(5.0) == 16.0
    assert bounds.clamp(40.0) == 40.0
    assert bounds.clamp(100.0) == 64.0


def test_bounds_contains():
    bounds = QoSBounds(16.0, 64.0)
    assert bounds.contains(16.0)
    assert bounds.contains(64.0)
    assert not bounds.contains(15.9)
    assert not bounds.contains(64.1)


def test_request_validation():
    spec = FlowSpec(sigma=1.0, rho=10.0)
    with pytest.raises(ValueError):
        QoSRequest(flowspec=spec, bounds=None, delay_bound=0.0)
    with pytest.raises(ValueError):
        QoSRequest(flowspec=spec, bounds=None, jitter_bound=-1.0)
    with pytest.raises(ValueError):
        QoSRequest(flowspec=spec, bounds=None, loss_bound=0.0)
    with pytest.raises(ValueError):
        QoSRequest(flowspec=spec, bounds=None, loss_bound=1.5)


def test_best_effort_request():
    request = QoSRequest(flowspec=FlowSpec(sigma=1.0, rho=10.0), bounds=None)
    assert request.service_class == ServiceClass.BEST_EFFORT
    with pytest.raises(ValueError):
        _ = request.b_min
    with pytest.raises(ValueError):
        _ = request.b_max


def test_guaranteed_request_accessors():
    request = audio_request()
    assert request.service_class == ServiceClass.GUARANTEED
    assert request.b_min == 16.0
    assert request.b_max == 64.0
    assert request.flowspec.rho == 16.0


def test_presets_match_paper_ranges():
    """Section 3.2: audio 16-64ish kbps adaptivity, video 60-600 kbps."""
    video = video_request()
    assert video.b_min == 60.0
    assert video.b_max == 600.0
    audio = audio_request(b_min=32.0, b_max=128.0)
    assert audio.bounds.span == 96.0


def test_preset_bounds_internally_consistent():
    """Default jitter/delay bounds must admit the request on one fast hop."""
    from repro.network import cumulative_jitter, e2e_delay_lower_bound

    for request in (audio_request(), video_request()):
        sigma = request.flowspec.sigma
        l_max = request.flowspec.l_max
        jitter = cumulative_jitter(sigma, request.b_min, l_max, hop_index=3)
        assert jitter <= request.jitter_bound
        d_min = e2e_delay_lower_bound(
            sigma, request.b_min, l_max, [1600.0, 10_000.0, 100_000.0]
        )
        assert d_min <= request.delay_bound

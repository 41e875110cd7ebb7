"""Tests for packet sources and the adaptive video encoder."""

import pytest

from repro.traffic import AdaptiveVideoSource, cbr_packets


def test_cbr_spacing_and_count():
    packets = list(cbr_packets(rate=10.0, packet_size=2.0, duration=1.0))
    # interval = 0.2 -> packets at 0, .2, .4, .6, .8
    assert len(packets) == 5
    times = [t for t, _ in packets]
    gaps = [b - a for a, b in zip(times, times[1:])]
    assert all(g == pytest.approx(0.2) for g in gaps)


def test_cbr_respects_start_offset():
    packets = list(cbr_packets(rate=10.0, packet_size=1.0, duration=0.5, start=3.0))
    assert packets[0][0] == 3.0
    assert all(3.0 <= t < 3.5 for t, _ in packets)


def test_cbr_validation():
    with pytest.raises(ValueError):
        list(cbr_packets(rate=0, packet_size=1, duration=1))


def test_video_source_snaps_to_ladder():
    source = AdaptiveVideoSource(ladder=[60, 120, 240, 400, 600])
    assert source.rate == 60
    assert source.on_rate_granted(300.0) == 240
    assert source.on_rate_granted(600.0) == 600
    assert source.on_rate_granted(59.0) == 60  # never below the bottom layer
    assert source.b_min == 60 and source.b_max == 600


def test_video_source_records_switches():
    source = AdaptiveVideoSource(ladder=[60, 600])
    source.on_rate_granted(700.0, now=1.0)
    source.on_rate_granted(700.0, now=2.0)  # no change, no record
    source.on_rate_granted(60.0, now=3.0)
    assert source.switches == [(1.0, 600), (3.0, 60)]


def test_video_source_flowspec_reserves_bottom_layer():
    source = AdaptiveVideoSource(ladder=[60, 600], packet_size=8.0)
    spec = source.flowspec()
    assert spec.rho == 60
    assert spec.l_max == 8.0


def test_video_source_validation():
    with pytest.raises(ValueError):
        AdaptiveVideoSource(ladder=[])
    with pytest.raises(ValueError):
        AdaptiveVideoSource(ladder=[0.0, 10.0])


def test_video_source_packets_track_current_layer():
    source = AdaptiveVideoSource(ladder=[100.0], packet_size=10.0)
    packets = list(source.packets(duration=1.0))
    assert len(packets) == 10

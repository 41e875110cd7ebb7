"""Measurement substrate: counters, binned series, Erlang-B/Kaufman–Roberts."""

from .counters import TeletrafficStats
from .erlang import erlang_b, kaufman_roberts, multirate_blocking
from .timeseries import BinnedSeries

__all__ = [
    "TeletrafficStats",
    "erlang_b",
    "kaufman_roberts",
    "multirate_blocking",
    "BinnedSeries",
]

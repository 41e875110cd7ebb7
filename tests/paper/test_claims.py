"""The numbers EXPERIMENTS.md and README quote, recomputed from their source.

Each test runs one fast artifact at its defaults, formats the figures the
documents quote exactly as they print them, and compares the strings with
the literals below.  It then checks that each document contains every
literal.  A change to the output fails the first comparison, and a change
to the text fails the second, so neither side can move alone.
"""

from pathlib import Path

import pytest

from repro.experiments import mlist_overhead, run_adaptation_value

ROOT = Path(__file__).resolve().parents[2]

#: The M(l) ablation row (EXPERIMENTS.md) and README's §5.3 row.
MLIST_QUOTES = (
    "549 vs 873, 459 vs 459 and 729 vs 1,440 messages",
    "(37 %, 0 % and 49 % fewer)",
)

#: The adaptation-value ablation row (EXPERIMENTS.md).
ADAPTATION_QUOTES = (
    "mean delay ≈ 15.1 s, p95 ≈ 47 s",
    "(57 layer switches)",
    "mean delay ≈ 9.9 ms",
    "a loss of 0.48 % against 0.57 %",
)


def _document(name):
    return (ROOT / name).read_text(encoding="utf-8")


@pytest.fixture(scope="module")
def mlist_rows():
    return mlist_overhead()


def test_mlist_ablation_reaches_the_same_fixed_point(mlist_rows):
    assert [row[0] for row in mlist_rows] == [3, 4, 5]
    assert all(row[3] == 0 and row[4] == 0 for row in mlist_rows)


def test_mlist_ablation_message_counts_as_quoted(mlist_rows):
    pairs = [(refined, flooding) for _, refined, flooding, _, _ in mlist_rows]
    counts = [f"{refined:,} vs {flooding:,}" for refined, flooding in pairs]
    fewer = [round(100 * (1 - refined / flooding)) for refined, flooding in pairs]
    quoted = (
        "{}, {} and {} messages".format(*counts),
        "({} %, {} % and {} % fewer)".format(*fewer),
    )
    assert quoted == MLIST_QUOTES
    for name in ("EXPERIMENTS.md", "README.md"):
        text = _document(name)
        for quote in MLIST_QUOTES:
            assert quote in text, (name, quote)


def test_adaptation_value_as_quoted():
    fixed, adaptive = run_adaptation_value()
    assert (fixed.policy, adaptive.policy) == ("fixed", "adaptive")
    quoted = (
        f"mean delay ≈ {fixed.mean_delay:.1f} s, p95 ≈ {fixed.p95_delay:.0f} s",
        f"({adaptive.layer_switches} layer switches)",
        f"mean delay ≈ {adaptive.mean_delay * 1000:.1f} ms",
        f"a loss of {adaptive.loss_rate * 100:.2f} % against "
        f"{fixed.loss_rate * 100:.2f} %",
    )
    assert quoted == ADAPTATION_QUOTES
    text = _document("EXPERIMENTS.md")
    for quote in ADAPTATION_QUOTES:
        assert quote in text, quote

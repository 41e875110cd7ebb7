"""Tests for the zone profile server."""

from repro.profiles import CellClass, ProfileServer


def test_register_cell_symmetric_neighbors():
    server = ProfileServer()
    server.register_cell("D", CellClass.CORRIDOR, neighbors=["A", "C"])
    assert "A" in server.cell_profile("D").neighbors
    assert "D" in server.cell_profile("A").neighbors


def test_register_cell_upgrades_unknown_class():
    server = ProfileServer()
    server.register_cell("A")  # auto-created as UNKNOWN
    assert server.cell_profile("A").cell_class is CellClass.UNKNOWN
    server.register_cell("A", CellClass.OFFICE)
    assert server.cell_profile("A").cell_class is CellClass.OFFICE


def test_report_handoff_updates_both_histories():
    server = ProfileServer()
    server.seed_presence("p", "C")
    server.report_handoff("p", "C", "D")
    server.report_handoff("p", "D", "A")
    # Portable triplet: (C, D) -> A
    assert server.portable_profile("p").next_predicted("C", "D") == "A"
    # Cell D aggregate knows about the D -> A move.
    assert server.cell_profile("D").predict_next("C") == "A"
    assert server.handoffs_recorded == 2


def test_context_tracking():
    server = ProfileServer()
    server.seed_presence("p", "C")
    assert server.context_of("p") == (None, "C")
    server.report_handoff("p", "C", "D")
    assert server.context_of("p") == ("C", "D")


def test_context_reset_on_discontinuity():
    """A handoff from an unexpected cell must not fabricate a triplet."""
    server = ProfileServer()
    server.seed_presence("p", "C")
    server.report_handoff("p", "X", "Y")  # we thought p was in C
    profile = server.portable_profile("p")
    # The recorded triplet has previous=None, not previous=C.
    assert profile.next_predicted("C", "X") is None
    assert profile.next_predicted(None, "X") == "Y"


def test_windows_propagate_to_profiles():
    server = ProfileServer(portable_window=5, cell_window=7)
    server.register_portable("p")
    server.register_cell("c")
    assert server.portable_profile("p").history.window == 5
    assert server.cell_profile("c").history.window == 7

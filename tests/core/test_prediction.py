"""Tests for next-cell prediction and the lounge count predictors."""

import pytest
from hypothesis import given, strategies as st

from repro.core import (
    PredictionLevel,
    ProfileAwarePredictor,
    linear_ls_fit,
    linear_ls_predict,
    one_step_memory_predict,
    paper_printed_predict,
)
from repro.profiles import CellClass, ProfileServer


# -- the level cascade ---------------------------------------------------------------


def build_server():
    server = ProfileServer()
    server.register_cell("D", CellClass.CORRIDOR, neighbors=["A", "C", "E"])
    server.register_cell("A", CellClass.OFFICE)
    server.cell_profile("A").occupants.add("faculty")
    return server


def test_level1_portable_triplet_wins():
    server = build_server()
    predictor = ProfileAwarePredictor(server)
    server.seed_presence("p", "C")
    server.report_handoff("p", "C", "D")
    server.report_handoff("p", "D", "E")
    server.report_handoff("p", "E", "D")  # context now (E, D)... rebuild:
    server.report_handoff("p", "D", "E")
    # (C, D) -> E learned for this portable.
    prediction = predictor.predict_for("p", "D", previous_cell="C")
    assert prediction.level is PredictionLevel.PORTABLE_PROFILE
    assert prediction.cell == "E"


def test_level2_occupant_rule():
    server = build_server()
    predictor = ProfileAwarePredictor(server)
    # Faculty has no history, but office A is a neighbor and faculty is a
    # regular occupant of A.
    prediction = predictor.predict_for("faculty", "D", previous_cell="C")
    assert prediction.level is PredictionLevel.CELL_PROFILE
    assert prediction.cell == "A"


def test_level2_aggregate_history():
    server = build_server()
    predictor = ProfileAwarePredictor(server)
    for i in range(5):
        server.report_handoff(f"u{i}", "D", "E")
    prediction = predictor.predict_for("stranger", "D", previous_cell=None)
    assert prediction.level is PredictionLevel.CELL_PROFILE
    assert prediction.cell == "E"


def test_level3_default_when_nothing_known():
    server = ProfileServer()
    server.register_cell("X", CellClass.DEFAULT)
    predictor = ProfileAwarePredictor(server)
    prediction = predictor.predict_for("stranger", "X")
    assert prediction.level is PredictionLevel.DEFAULT
    assert prediction.cell is None


def test_levels_parameter_disables_stages():
    server = build_server()
    predictor = ProfileAwarePredictor(server)
    server.seed_presence("p", "C")
    server.report_handoff("p", "C", "D")
    server.report_handoff("p", "D", "E")
    with_l1 = predictor.predict_for("p", "D", "C")
    without_l1 = predictor.predict_for("p", "D", "C", levels=(2,))
    assert with_l1.level is PredictionLevel.PORTABLE_PROFILE
    assert without_l1.level is not PredictionLevel.PORTABLE_PROFILE


def test_context_pulled_from_server_when_missing():
    server = build_server()
    predictor = ProfileAwarePredictor(server)
    server.seed_presence("p", "C")
    server.report_handoff("p", "C", "D")
    server.report_handoff("p", "D", "E")
    server.report_handoff("p", "E", "D")
    # previous_cell omitted: the server knows the context is (E, D).
    prediction = predictor.predict_for("p", "D")
    assert prediction.cell is not None


def _server_where_faculty_is(known_as):
    """``build_server`` plus an aggregate-history corridor H and a default
    cell X; "faculty" never handed off, and the server either has no
    profile for it, an empty registered one, or an empty one seeded at D."""
    server = build_server()
    server.register_cell("H", CellClass.CORRIDOR, neighbors=["E"])
    server.register_cell("X", CellClass.DEFAULT)
    for i in range(3):
        server.report_handoff(f"u{i}", "H", "E")
    if known_as == "registered":
        server.register_portable("faculty")
    elif known_as == "seeded":
        server.seed_presence("faculty", "D")
    return server


@pytest.mark.parametrize("levels", [(1, 2), (1,), (2,)])
@pytest.mark.parametrize("cell", ["D", "H", "X"])
def test_missing_profile_predicts_like_an_empty_one(cell, levels):
    """A portable's profile appears at its first reported handoff, so the
    cascade now meets "no profile" where it used to meet an empty window.
    Both must give the same prediction, whatever the levels: on a corridor
    next to the portable's office (occupant rule), one with aggregate
    history, and a default cell."""
    predictions = [
        ProfileAwarePredictor(_server_where_faculty_is(known_as)).predict_for(
            "faculty", cell, levels=levels
        )
        for known_as in ("missing", "registered", "seeded")
    ]
    assert predictions[0] == predictions[1] == predictions[2]
    assert predictions[0].level is not PredictionLevel.PORTABLE_PROFILE
    expected = {"D": "A", "H": "E", "X": None}[cell] if 2 in levels else None
    assert predictions[0].cell == expected


# -- the least-squares predictor (cafeteria) ----------------------------------------------


def test_ls_fit_slope_matches_paper():
    a, _ = linear_ls_fit([2.0, 5.0, 8.0], t=0.0)
    assert a == pytest.approx((8.0 - 2.0) / 2)


def test_ls_predict_extends_a_perfect_line():
    # Points on n = 3x + 1 at x = -2, -1, 0 -> predict 4 at x = 1.
    assert linear_ls_predict([-5.0, -2.0, 1.0], t=0.0) == pytest.approx(4.0)


def test_ls_predict_constant_series():
    assert linear_ls_predict([7.0, 7.0, 7.0]) == pytest.approx(7.0)


def test_ls_predict_clamps_negative():
    assert linear_ls_predict([9.0, 5.0, 1.0]) == 0.0  # trend hits -3


def test_ls_predict_requires_three_samples():
    with pytest.raises(ValueError):
        linear_ls_predict([1.0, 2.0])


def test_printed_formula_collapses_to_mean():
    """The paper's printed intercept makes the 'prediction' the 3-point
    mean — the erratum documented in DESIGN.md."""
    samples = [2.0, 11.0, 14.0]
    assert paper_printed_predict(samples, t=5.0) == pytest.approx(
        sum(samples) / 3
    )
    # Our corrected fit genuinely extrapolates.
    assert linear_ls_predict(samples, t=5.0) > max(samples) - 6.0


@given(
    st.floats(min_value=0.0, max_value=1e4),
    st.floats(min_value=-100.0, max_value=100.0),
    st.floats(min_value=-1e3, max_value=1e3),
)
def test_property_ls_exact_on_lines(intercept, slope, t):
    """An exact linear series is predicted exactly (up to clamping)."""
    samples = [intercept + slope * (t - k) for k in (2, 1, 0)]
    expected = intercept + slope * (t + 1)
    predicted = linear_ls_predict(samples, t=t)
    assert predicted == pytest.approx(max(0.0, expected), abs=1e-6 * (1 + abs(expected)))


def test_one_step_memory():
    assert one_step_memory_predict(13.0) == 13.0
    with pytest.raises(ValueError):
        one_step_memory_predict(-1.0)

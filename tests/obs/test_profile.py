"""Cost-model accountability: relative errors, aggregates, rendering."""

import math

from repro.obs import QueryProfile, UnitProfile, relative_error


class TestRelativeError:
    def test_signed(self):
        assert relative_error(110.0, 100.0) == 0.1
        assert relative_error(90.0, 100.0) == -0.1

    def test_none_propagates(self):
        assert relative_error(None, 1.0) is None
        assert relative_error(1.0, None) is None

    def test_both_zero(self):
        assert relative_error(0.0, 0.0) == 0.0

    def test_predicted_work_measured_none_is_undefined(self):
        # a nonzero claim against a zero measurement has no honest ratio —
        # the old +/-inf answer leaked into means and JSON
        assert relative_error(1.0, 0.0) is None
        assert relative_error(-1.0, 0.0) is None

    def test_zero_prediction_makes_no_claim(self):
        assert relative_error(0.0, 2.0) is None

    def test_non_finite_inputs_are_undefined(self):
        assert relative_error(math.inf, 1.0) is None
        assert relative_error(math.nan, 1.0) is None
        assert relative_error(1.0, math.inf) is None


def _unit(index=0, predicted=1.0, measured=1.0, **kwargs):
    return UnitProfile(
        index=index,
        kind="cfo",
        label=f"u{index}",
        predicted_seconds=predicted,
        measured_seconds=measured,
        **kwargs,
    )


class TestUnitProfile:
    def test_error_fields(self):
        unit = _unit(
            predicted=2.0, measured=1.0,
            predicted_net_bytes=100.0, measured_comm_bytes=200.0,
            predicted_flops=50.0, measured_flops=50.0,
        )
        assert unit.seconds_error == 1.0
        assert unit.net_bytes_error == -0.5
        assert unit.flops_error == 0.0

    def test_no_estimate_gives_none_errors(self):
        unit = UnitProfile(index=0, kind="cell", label="c", measured_seconds=1.0)
        assert unit.seconds_error is None
        assert unit.net_bytes_error is None

    def test_to_dict_carries_errors(self):
        doc = _unit(predicted=1.5, measured=1.0).to_dict()
        assert doc["seconds_error"] == 0.5
        assert doc["label"] == "u0"


class TestQueryProfile:
    def test_aggregates(self):
        profile = QueryProfile(
            engine="e",
            units=(
                _unit(0, predicted=1.0, measured=2.0),
                _unit(1, predicted=3.0, measured=2.0),
                UnitProfile(index=2, kind="cell", label="c", measured_seconds=1.0),
            ),
            totals={"elapsed_seconds": 5.0, "num_stages": 4},
        )
        assert profile.measured_seconds == 5.0
        assert profile.predicted_seconds == 4.0
        # whole-query error compares only units carrying an estimate:
        # (1+3) vs (2+2)
        assert profile.seconds_error == 0.0
        assert profile.mean_abs_seconds_error == 0.5

    def test_no_estimates_means_no_error_claim(self):
        profile = QueryProfile(
            engine="e",
            units=(UnitProfile(index=0, kind="cell", label="c"),),
        )
        assert profile.predicted_seconds is None
        assert profile.seconds_error is None
        assert profile.mean_abs_seconds_error is None

    def test_render_is_deterministic_and_wall_free(self):
        profile = QueryProfile(
            engine="e",
            units=(_unit(0, predicted=1.0, measured=2.0,
                         measured_wall_seconds=123.456),),
            totals={"elapsed_seconds": 2.0, "num_stages": 1},
            counters={"b": 2, "a": 1},
        )
        text = profile.render()
        assert text == profile.render()
        assert "123.456" not in text  # wall-clock stays out of the report
        assert "counters: a=1, b=2" in text
        assert "[0]" in text and "-50.0%" in text

    def test_undefined_error_renders_as_dash(self):
        profile = QueryProfile(
            engine="e",
            units=(_unit(0, predicted=1.0, measured=0.0),),
            totals={"elapsed_seconds": 0.0},
        )
        assert profile.units[0].seconds_error is None
        assert "inf" not in profile.render()
        assert profile.mean_abs_seconds_error is None  # undefined excluded

    def test_wall_seconds_carried_to_dict(self):
        doc = _unit(measured_wall_seconds=0.25).to_dict()
        assert doc["measured_wall_seconds"] == 0.25

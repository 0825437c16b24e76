"""Tests for the text plotting utilities."""

from repro.analysis import format_table, panel, render_panels, resample


class TestResample:
    def test_short_series_unchanged(self):
        assert resample([1, 2, 3], 10) == [1, 2, 3]

    def test_downsampling_preserves_endpoints_roughly(self):
        values = list(range(100))
        out = resample(values, 10)
        assert len(out) == 10
        assert out[0] == 0

    def test_empty(self):
        assert resample([], 10) == []
        assert resample([1], 0) == []


class TestPanel:
    def test_contains_name_and_range(self):
        text = panel("AM Result", [0, 0, 1, 1, 2])
        assert "AM Result" in text
        assert "min=0" in text and "max=2" in text

    def test_no_data(self):
        assert "(no data)" in panel("X", [])

    def test_step_change_rendered(self):
        text = panel("step", [0] * 10 + [10] * 10, height=4)
        assert "•" in text

    def test_render_panels_stacked(self):
        text = render_panels(
            {"a": [1, 2, 3], "b": [3, 2, 1]}, title="Figure 5"
        )
        assert "=== Figure 5 ===" in text
        assert "a " in text and "b " in text


class TestFormatTable:
    def test_basic_rows(self):
        text = format_table([
            {"name": "x", "value": 1},
            {"name": "longer", "value": 2},
        ])
        lines = text.splitlines()
        assert "name" in lines[0] and "value" in lines[0]
        assert len(lines) == 4  # header + rule + 2 rows

    def test_empty(self):
        assert format_table([]) == "(empty table)"

    def test_none_rendered_as_dash(self):
        text = format_table([{"a": None}])
        assert "-" in text.splitlines()[-1]

    def test_float_formatting(self):
        text = format_table([{"a": 0.123456}])
        assert "0.123" in text

    def test_column_selection(self):
        text = format_table([{"a": 1, "b": 2}], columns=["b"])
        assert "a" not in text.splitlines()[0]

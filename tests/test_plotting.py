from xml.etree import ElementTree

from geohpi.plotting import render_line_chart

_SVG = "{http://www.w3.org/2000/svg}"


def polyline_points(svg):
    root = ElementTree.fromstring(svg)
    return [[tuple(map(float, pair.split(","))) for pair in line.get("points").split()]
            for line in root.iter(f"{_SVG}polyline")]


def test_flat_series_is_drawn_across_the_middle():
    # a flat series has no value range, so the axis spans its value +-1
    svg = render_line_chart(["2015-01", "2015-02", "2015-03"], [("flat", [100.0] * 3)])
    assert polyline_points(svg) == [[(64.0, 224.0), (504.0, 224.0), (944.0, 224.0)]]
    ticks = [el.text for el in ElementTree.fromstring(svg).iter(f"{_SVG}text")]
    assert "99.0" in ticks and "101.0" in ticks


def test_one_month_is_drawn_at_the_centre():
    svg = render_line_chart(["2015-01"], [("a", [100.0]), ("b", [120.0])])
    assert polyline_points(svg) == [[(504.0, 424.0)], [(504.0, 24.0)]]

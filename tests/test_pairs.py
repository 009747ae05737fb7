"""The summary of tools/pairs.py on canned benchmark result lines; no
benchmark run is started."""
import importlib.util
import json
from pathlib import Path

import pytest

spec = importlib.util.spec_from_file_location(
    "pairs", Path(__file__).resolve().parent.parent / "tools" / "pairs.py")
pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(pairs)

METRICS = {"wall_s": {"better": "lower", "bound": 0.25},
           "peak_rss_mib": {"better": "lower", "bound": 0.1}}


def line(wall, rss=40.0):
    """A result line as bench/run.py prints it last."""
    return json.dumps({"correct": True, "attempted": 12, "failed": 0, "metrics": {
        "wall_s": {"value": wall, "unit": "s"}, "peak_rss_mib": {"value": rss, "unit": "MiB"}}})


def canned(parent_walls, change_walls, change_rss=40.0):
    return [(pairs.last_result(f"noise\n{line(p)}\n"), pairs.last_result(line(c, change_rss)))
            for p, c in zip(parent_walls, change_walls)]


def test_a_clear_gain_holds():
    parent = [0.80, 0.78, 0.82, 0.79, 0.81, 0.77, 0.83, 0.80, 0.79, 0.81]
    change = [0.52, 0.50, 0.55, 0.51, 0.53, 0.49, 0.54, 0.52, 0.50, 0.53]
    (wall, rss) = pairs.summarize(canned(parent, change), METRICS)
    assert wall["metric"] == "wall_s" and wall["pairs"] == 10 and wall["wins"] == 10
    assert wall["parent"][1] == pytest.approx(0.80) and wall["change"][1] == pytest.approx(0.52)
    assert wall["relative"] == pytest.approx(-0.35)
    assert wall["gain_holds"] and wall["within_bound"]
    assert rss["wins"] == 0 and not rss["gain_holds"] and rss["within_bound"]


def test_eight_wins_of_ten_claim_nothing():
    parent = [0.80] * 10
    change = [0.50] * 8 + [0.90, 0.90]
    (wall, _) = pairs.summarize(canned(parent, change), METRICS)
    assert wall["wins"] == 8 and not wall["gain_holds"]


def test_a_gain_inside_the_parents_spread_claims_nothing():
    parent = [0.60, 1.00, 0.60, 1.00, 0.60, 1.00, 0.60, 1.00, 0.60, 1.00]
    change = [p - 0.05 for p in parent]
    (wall, _) = pairs.summarize(canned(parent, change), METRICS)
    assert wall["wins"] == 10 and not wall["gain_holds"]


def test_ties_count_for_neither_side_and_bounds_are_read():
    (wall, rss) = pairs.summarize(canned([0.5] * 10, [0.5] * 10, change_rss=45.0), METRICS)
    assert wall["wins"] == 0 and wall["within_bound"] and not wall["gain_holds"]
    assert rss["relative"] == pytest.approx(0.125) and not rss["within_bound"]
    text = pairs.render("verify-certificates", [wall, rss])
    assert "verify-certificates" in text and "NO" in text


def test_seed_lists():
    assert pairs.seeds_of("41-45") == [41, 42, 43, 44, 45]
    assert pairs.seeds_of("3,5,9-10") == [3, 5, 9, 10]

"""The CLI's JSON writer: its text is exactly json.dumps(doc, sort_keys=True,
indent=2), on generated documents, on documents holding the lists made from
per-axis fragments (cli.Listing: class lists, the tables' points and rank-2
grids) against the per-class dicts they stand for, and on every kind of
--json output."""
import json
from fractions import Fraction
from itertools import product
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cherednik.cli as cli
from cherednik.modules import Block
from cherednik.weights import Axis


def dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2)


TRICKY = st.sampled_from(['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "/", "é", "€",
                          " ", "\U0001f600", "\U00010000", "﻿"])
STRINGS = st.lists(TRICKY | st.characters(), max_size=8).map("".join)
SCALARS = (st.none() | st.booleans() | st.integers()
           | st.integers(-10 ** 60, 10 ** 60) | STRINGS)
DOCS = st.recursive(
    SCALARS,
    lambda children: (st.lists(children, max_size=5)
                      | st.lists(children, max_size=4).map(tuple)
                      | st.dictionaries(STRINGS, children, max_size=5)),
    max_leaves=40)


@settings(max_examples=200, deadline=None)
@given(DOCS)
def test_writer_equals_json_dumps(doc):
    assert cli._json(doc) == dumps(doc)


@pytest.mark.parametrize("doc", [
    {}, [], (), "", {"": []}, {"a": {}}, [[], {}, [[]]], [True, False, None, 1, 0, -1],
    {"b": True, "a": False, "c": None, "d": 0, "e": 1},
    ["a", 1], [1, "a"], [["x", "y"], ["z"]], {"k": ["1/2", "-3"]},
    10 ** 100, -(10 ** 100), "\ud800", ["\udfff", "x"],
])
def test_writer_on_edge_documents(doc):
    assert cli._json(doc) == dumps(doc)


def test_bools_and_none_are_not_numbers():
    assert cli._json([True, False, None]) == '[\n  true,\n  false,\n  null\n]'
    assert cli._json({"x": True}) == '{\n  "x": true\n}'


@pytest.mark.parametrize("value", [Fraction(1, 2), 1.5, {1: "a"}, {"a": {1, 2}}, b"x",
                                   iter(["a"]), range(2), {"a": [object()]}])
def test_writer_refuses_what_it_does_not_handle(value):
    with pytest.raises(TypeError):
        cli._json(value)


# Axes of 1-5 coordinates, each top a Fraction of denominator 1, 2, 3 or 7,
# negative or not, each axis of 1 or more values; few values at high rank.
@st.composite
def axes(draw, ranks=(1, 5)):
    n = draw(st.integers(*ranks))
    most = 5 if n <= 2 else 3
    return [Axis(Fraction(draw(st.integers(-40, 40)), draw(st.sampled_from((1, 2, 3, 7)))),
                 draw(st.integers(1, most))) for _ in range(n)]


@st.composite
def blocks(draw):
    """A Block whose multiplicities hold zeros, or are all zero."""
    block_axes = draw(axes())
    size = prod(a.count for a in block_axes)
    multiplicities = draw(st.one_of(st.just([0] * size),
                                    st.lists(st.integers(0, 4), min_size=size, max_size=size)))
    return Block(block_axes, multiplicities)


def strings(block_axes: list[Axis]) -> list[list[str]]:
    return [[str(v) for v in a.values()] for a in block_axes]


def reference_classes(block: Block) -> list[dict]:
    """The per-class dicts a class list stands for, from the axes' Fractions."""
    n = len(block.axes)
    rho = [Fraction(n - 1 - 2 * i, 2) for i in range(n)]
    return [{"multiplicity": m, "weight": [str(c) for c in w],
             "weight_plus_rho": [str(c + r) for c, r in zip(w, rho)]}
            for w, m in zip(product(*(a.values() for a in block.axes)), block.multiplicities)
            if m]


# Where a list sits: at the top level, where classify and dirac put a class
# list (the "entries" of a block under its key), or deeper.
PLACES = [
    lambda x: x,
    lambda x: {"L": {"dimension": 7, "entries": x}, "nu": [1, 2]},
    lambda x: {"a": [{"b": [0, x, "c"]}, {}], "z": None},
]


@settings(max_examples=150, deadline=None)
@given(blocks(), st.sampled_from(PLACES))
def test_class_list_equals_the_per_class_dicts(block, place):
    reference = reference_classes(block)
    assert cli._json(place(cli._classes(block, False))) == dumps(place(reference))
    # The text's rows are the same classes, from the same strings.
    assert [(m, list(w), list(s)) for m, w, s in cli._classes(block, False)] == [
        (c["multiplicity"], c["weight"], c["weight_plus_rho"]) for c in reference]
    if not any(block.multiplicities):
        assert cli._json({"entries": cli._classes(block, False)}) == '{\n  "entries": []\n}'


@settings(max_examples=100, deadline=None)
@given(st.sampled_from((1, 3, 4)).flatmap(lambda n: axes((n, n))), st.data(),
       st.sampled_from(PLACES))
def test_points_equal_the_per_point_dicts(point_axes, data, place):
    size = prod(a.count for a in point_axes)
    values = data.draw(st.lists(STRINGS, min_size=size, max_size=size))
    multiplicities = data.draw(st.lists(st.integers(0, 8), min_size=size, max_size=size))
    reference = [{"P": v, "multiplicity": m, "weight_plus_rho": list(point)}
                 for point, v, m in zip(product(*strings(point_axes)), values, multiplicities)]
    listing = cli._points(strings(point_axes), iter(values), multiplicities)
    assert cli._json(place(listing)) == dumps(place(reference))
    rows = cli._points(strings(point_axes), iter(values), multiplicities)
    assert [(v, m, list(p)) for v, m, p in rows] == [
        (c["P"], c["multiplicity"], c["weight_plus_rho"]) for c in reference]


@settings(max_examples=100, deadline=None)
@given(axes((2, 2)), st.data(), st.sampled_from(PLACES))
def test_rank_two_grids_equal_the_nested_lists(grid_axes, data, place):
    xs, ys = strings(grid_axes)
    rows = data.draw(st.lists(st.lists(st.integers(0, 10 ** 20), min_size=len(xs),
                                       max_size=len(xs)), min_size=len(ys), max_size=len(ys)))
    doc = {"weight_plus_rho": cli._pair_grid(xs, ys), "multiplicity": cli._int_grid(rows)}
    reference = {"weight_plus_rho": [[[x, y] for x in xs] for y in ys], "multiplicity": rows}
    assert cli._json(place(doc)) == dumps(place(reference))
    assert list(doc["weight_plus_rho"]) == [xs, ys] and list(doc["multiplicity"]) == rows


EXAMPLE = ["--n", "2", "--P-h", "0,18,-9/2,-2,1/2", "--lambda-plus-rho", "3,0"]
OUTPUTS = {
    "classify": ["classify", *EXAMPLE],
    "dirac": ["dirac", *EXAMPLE],
    "dirac-sixths": ["dirac", "--n", "2", "--P-h", "0,0,1", "--lambda-plus-rho", "7/3,1/3"],
    "tables-n1": ["tables", "--n", "1", "--P-h", "0,0,1", "--lambda", "3/2"],
    "tables-n2": ["tables", "--n", "2", "--P-h", "0,0,1", "--lambda", "19/6,7/6"],
    "tables-n3": ["tables", "--n", "3", "--P-h", "0,0,1", "--lambda", "13/4,9/4,5/4"],
    "transform": ["transform", "--n", "3", "--xi", "1,-2/3,0,5"],
    "verify": ["verify", "--suite", "clifford", "--max-n", "2"],
    "rejection": ["classify", "--n", "1", "--P-h", "0,1", "--lambda", "0"],
    "not-dominant": ["classify", "--n", "2", "--P-h", "0,1", "--lambda", "0,1"],
    "box-too-large": ["dirac", "--n", "1", "--P-h=0,20000001,1", "--lambda=0"],
}


@pytest.mark.parametrize("name", OUTPUTS)
def test_every_json_output_reserializes_to_itself(capsys, name):
    cli.main([*OUTPUTS[name], "--json"])
    out = capsys.readouterr().out
    assert out == dumps(json.loads(out)) + "\n"
    if name in ("rejection", "not-dominant", "box-too-large"):
        assert json.loads(out)["error"]["code"] == ("not-classified" if name == "rejection"
                                                    else name)


def test_cli_writes_json_without_json_dumps(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("json.dumps called")

    monkeypatch.setattr(json, "dumps", refuse)
    monkeypatch.setattr(json.JSONEncoder, "encode", refuse)
    assert cli.main(["dirac", *EXAMPLE, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["nu"] == [2, 2]

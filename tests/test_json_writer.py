"""The CLI's JSON writer: its text is exactly json.dumps(doc, sort_keys=True,
indent=2), on generated documents and on every kind of --json output."""
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cherednik.cli as cli


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


@pytest.mark.parametrize("value", [Fraction(1, 2), 1.5, {1: "a"}, {"a": {1, 2}}, b"x"])
def test_writer_refuses_what_it_does_not_handle(value):
    with pytest.raises(TypeError):
        cli._json(value)


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

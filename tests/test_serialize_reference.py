"""The report writer against the branch-per-type writer kept in ``_oracles``:
the same text, or the same ``ValidationError``, on every document, whether a
list renders as a float block or by the recursion."""

import enum
import json
import math
import random
import sys

import numpy as np
import pytest

import _oracles as reference
from credalkit import serialize
from credalkit.errors import ValidationError
from credalkit.serialize import format_number, parse, render

EDGE_FLOATS = [
    0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
    1e-5, -1e-5, 9.99999999999e-6, 9.999999999995e-6, 1.00000000000049e-5, 1e-4,
    0.1, 1 / 3, 2 / 3, 0.5, 2.5, 1.0000000000005, 1.0000000000015, 0.1234567890125,
    1e11, 99999999999.5, 1e12, 999999999999.0, 999999999999.5, 1234567890123.0,
    1e15, 1e16, 9007199254740993.0, 1e17, -1e17, 1e20, 1e308, 1.7976931348623157e308,
    -1.7976931348623157e308, math.inf, -math.inf, math.nan,
]
EDGE_INTS = [0, 1, -1, 2**53 + 1, 2**63 - 1, -(2**63), 10**19 + 1, 10**20, -(10**20)]
STRINGS = ["", "a", 'quote"', "back\\slash", "line\nbreak", "tab\t", "\x00\x1f\x7f",
           "é", "日本", "😀", " ", "inf", "nan", "-0", "1e5"]
NUMPY_SCALARS = [np.float16(0.1), np.float16(-0.0), np.float16(np.inf), np.float32(1 / 3),
                 np.float32(1e-5), np.float32(3e38), np.float64(1234567890123.0),
                 np.float64(np.nan), np.int8(-128), np.int16(7), np.int32(-1),
                 np.int64(2**63 - 1), np.uint8(255), np.uint64(2**64 - 1),
                 np.bool_(True), np.bool_(False), np.str_("ns")]


def outcome(writer, doc):
    try:
        return writer(doc)
    except ValidationError as exc:
        return f"ValidationError: {exc}"


def scalar(rng):
    kind = rng.random()
    if kind < 0.3:
        return rng.choice(EDGE_FLOATS[:-1] if rng.random() < 0.97 else EDGE_FLOATS)
    if kind < 0.5:
        return rng.choice([-1, 1]) * rng.random() * 10.0 ** rng.randint(-25, 25)
    if kind < 0.6:
        return rng.choice(EDGE_INTS + [rng.randint(-(10**20), 10**20)])
    if kind < 0.75:
        return rng.choice(STRINGS)
    if kind < 0.9:
        return rng.choice(NUMPY_SCALARS[:7] + NUMPY_SCALARS[8:])
    if kind < 0.995:
        return rng.choice([None, True, False])
    return rng.choice([NUMPY_SCALARS[7], {1, 2}, object()])


def document(rng, depth):
    if depth == 0 or rng.random() < 0.45:
        return scalar(rng)
    n = rng.choice([0, 1, 2, 3, 5])
    kind = rng.random()
    if kind < 0.45:
        items = [document(rng, depth - 1) for _ in range(n)]
        return items if rng.random() < 0.8 else tuple(items)
    if kind < 0.47:
        return {i: document(rng, depth - 1) for i in range(1, n + 2)}
    return {rng.choice(STRINGS): document(rng, depth - 1) for _ in range(n)}


class TestAgainstReference:
    def test_random_nested_documents(self):
        rng = random.Random(11)
        refused = 0
        for _ in range(3000):
            doc = document(rng, 5)
            expected = outcome(reference.render, doc)
            assert outcome(render, doc) == expected, doc
            refused += expected.startswith("ValidationError")
        assert 0 < refused < 600  # both paths are exercised

    @pytest.mark.parametrize("x", EDGE_FLOATS + EDGE_INTS[:7])
    def test_edge_numbers(self, x):
        assert outcome(format_number, x) == outcome(reference.format_number, x)

    @pytest.mark.parametrize("x", NUMPY_SCALARS, ids=lambda x: f"{type(x).__name__}-{x}")
    def test_numpy_scalars(self, x):
        assert outcome(render, x) == outcome(reference.render, x)
        assert outcome(render, [x, {"k": x}]) == outcome(reference.render, [x, {"k": x}])

    def test_empty_containers_and_layout(self):
        doc = {"a": [], "b": {}, "c": ({"d": (1, None)},)}
        assert render(doc) == reference.render(doc)
        assert render(doc) == ('{\n  "a": [],\n  "b": {},\n  "c": [\n    {\n      "d": [\n'
                               '        1,\n        null\n      ]\n    }\n  ]\n}\n')


def nest(rng, depth, leaf):
    """Lists nested ``depth`` deep, each 1-5 long, around leaves drawn by ``leaf(rng)``."""
    if depth == 0:
        return leaf(rng)
    return [nest(rng, depth - 1, leaf) for _ in range(rng.randint(1, 5))]


def spoil(rng, doc):
    """``doc`` with one item of one of its lists replaced by something a block must not
    take, or ``doc`` itself, half the time."""
    if rng.random() < 0.5 or not isinstance(doc, list):
        return doc
    rows = [doc]
    while isinstance(rows[-1][0], list) and rng.random() < 0.7:
        rows.append(rng.choice(rows[-1]))
    row = rows[-1]
    row[rng.randrange(len(row))] = rng.choice(
        [1, 0, True, np.float64(0.5), "x", None, math.nan, [], [0.5], [[0.5]], (0.25, 0.5),
         [0.5, [0.5]], {"k": 0.5}, -0.0, math.inf])
    return doc


def blocks(monkeypatch):
    """Count the lists rendered as one block."""
    taken = []
    block = serialize._float_block

    def counted(doc, inner):
        out = block(doc, inner)
        taken.append(out is not None)
        return out

    monkeypatch.setattr(serialize, "_float_block", counted)
    return taken


class TestFloatBlocks:
    @pytest.mark.parametrize("depth", [1, 2, 3, 4])
    def test_float_nests(self, depth, monkeypatch):
        taken, rng = blocks(monkeypatch), random.Random(depth)
        for _ in range(50):
            doc = nest(rng, depth, lambda r: r.uniform(-1, 1) * 10.0 ** r.randint(-8, 8))
            assert render(doc) == reference.render(doc)
            assert render({"k": [doc]}) == reference.render({"k": [doc]})
        assert sum(taken) >= 50

    @pytest.mark.parametrize("doc", [
        [[0.5, 0.25], [0.125]], [[0.5], [0.25, 0.125, 1.5, 2.5]],
        [[[0.5, 0.25]], [[0.125], [1.5, 2.5]]], [[0.5, 0.25], []], [[], [0.5, 0.25]],
        [[[0.5]], [[]]], [[0.5, 0.25], [0.5, [0.25]]], [[0.5, 0.25], 0.5],
        [0.5, 0.25, 0.125, [0.5]], [[[0.5]], [0.5]],
    ], ids=repr)
    def test_ragged_rows_and_empty_lists(self, doc):
        assert render(doc) == reference.render(doc)
        assert render([doc, doc]) == reference.render([doc, doc])

    @pytest.mark.parametrize("other", [1, 0, -3, True, False, np.float64(0.5), np.float32(0.5),
                                       None, "0.5", (0.5, 0.25)], ids=repr)
    def test_mixed_leaves_take_the_recursion(self, other):
        for doc in ([0.5, 0.25, 0.125, other], [other, 0.5, 0.25, 0.125],
                    [[0.5, 0.25], [0.125, other]], [[0.5, other]] * 3):
            assert render(doc) == reference.render(doc)
        doc = (0.5, 0.25, 0.125, 1.0)
        assert render(doc) == reference.render(doc) == reference.render(list(doc))
        assert render([doc, doc]) == reference.render([list(doc), list(doc)])

    @pytest.mark.parametrize("x", EDGE_FLOATS, ids=repr)
    def test_edge_floats_inside_blocks(self, x, monkeypatch):
        taken = blocks(monkeypatch)
        for doc in ([x, 0.5, 1.0, 0.25], [0.5, 0.25, 1e-5, x], [[x, 0.5], [2.0, 1e16]],
                    [[[x]], [[x, -0.0]]]):
            assert outcome(render, doc) == outcome(reference.render, doc)
        assert taken == ([] if math.isnan(x) else [True] * 4)  # NaN ends the block by raising

    def test_leaves_without_a_point(self):
        doc = [0.9999999999999, -0.0, 1e16, 5e-324, math.inf, -math.inf, 3.0, -2.0, 1e11]
        assert render(doc) == reference.render(doc)
        assert render(doc).split()[1:-1] == ["1.0,", "0.0,", "1e+16,", "4.94065645841e-324,",
                                             '"inf",', '"-inf",', "3.0,", "-2.0,", "100000000000.0"]

    def test_nan_in_a_block_is_refused(self):
        for doc in ([0.5, 0.25, 0.125, math.nan], [[0.5, 0.25], [math.nan, 0.125]]):
            with pytest.raises(ValidationError, match="reports never contain NaN"):
                render(doc)

    def test_random_float_documents(self, monkeypatch):
        taken, rng = blocks(monkeypatch), random.Random(22)
        refused = 0
        for _ in range(2000):
            leaf = rng.choice([lambda r: r.random(), lambda r: r.choice(EDGE_FLOATS[:-1]),
                               lambda r: float(r.randint(-3, 3)), lambda r: scalar(r)])
            doc = spoil(rng, nest(rng, rng.randint(1, 4), leaf))
            if rng.random() < 0.3:
                doc = {"a": doc, "b": [doc, doc]}
            expected = outcome(reference.render, doc)
            assert outcome(render, doc) == expected, doc
            refused += expected.startswith("ValidationError")
        assert 0 < refused < 400
        assert 1000 < sum(taken) < len(taken)  # both paths are exercised


class Label(str):
    pass


class Count(enum.IntEnum):
    ONE = 1


class TestScalarsAndStringLists:
    """Scalars are written as ``json.dumps(..., ensure_ascii=True)`` writes them, and a list
    of strings as one join of their quoted forms."""

    @pytest.mark.parametrize("x", [*EDGE_INTS, *STRINGS, None, True, False, Label('l"1'),
                                   Count.ONE], ids=repr)
    def test_scalars_are_json_text(self, x):
        assert render(x) == json.dumps(x, ensure_ascii=True) + "\n"
        assert render([x, {"k": x}]) == reference.render([x, {"k": x}])

    def test_string_lists(self):
        rng = random.Random(23)
        paths = [f"p{i}" for i in range(729)]
        assert render({"labels": paths}) == reference.render({"labels": paths})
        for _ in range(500):
            doc = [rng.choice(STRINGS) for _ in range(rng.randint(1, 8))]
            if rng.random() < 0.4:  # one item a string list must not join
                doc[rng.randrange(len(doc))] = rng.choice(
                    [np.str_("ns"), Label("sub"), 1, None, True, 0.5, ["a"], ("a",), {"k": "a"}])
            for wrapped in (doc, tuple(doc), {"k": doc}, [doc, [doc]]):
                assert render(wrapped) == reference.render(wrapped), wrapped


class TestRefusals:
    def test_mixed_keys_are_a_validation_error(self):
        with pytest.raises(ValidationError, match="document keys must be strings"):
            render({1: "x", "a": 2})

    def test_over_deep_document_is_a_validation_error(self):
        for leaf in ([], 0.5):  # a float nest is a block only up to 32 levels
            doc = leaf
            for _ in range(sys.getrecursionlimit()):
                doc = [doc]
            with pytest.raises(ValidationError, match="nested too deeply"):
                render(doc)
        assert render([[]]) == "[\n  []\n]\n"
        assert render([[0.5]]) == "[\n  [\n    0.5\n  ]\n]\n"

    @pytest.mark.parametrize("text", ["9" * 5000, "[" * 100_000 + "]" * 100_000])
    def test_parse_refuses_huge_integers_and_deep_nesting(self, text):
        with pytest.raises(ValidationError, match="^malformed document: "):
            parse(text)

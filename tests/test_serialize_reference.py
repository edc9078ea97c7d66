"""The report writer against the branch-per-type writer kept in ``_oracles``:
the same text, or the same ``ValidationError``, on every document."""

import math
import random
import sys

import numpy as np
import pytest

import _oracles as reference
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


class TestRefusals:
    def test_mixed_keys_are_a_validation_error(self):
        with pytest.raises(ValidationError, match="document keys must be strings"):
            render({1: "x", "a": 2})

    def test_over_deep_document_is_a_validation_error(self):
        doc = []
        for _ in range(sys.getrecursionlimit()):
            doc = [doc]
        with pytest.raises(ValidationError, match="nested too deeply"):
            render(doc)
        assert render([[]]) == "[\n  []\n]\n"

    @pytest.mark.parametrize("text", ["9" * 5000, "[" * 100_000 + "]" * 100_000])
    def test_parse_refuses_huge_integers_and_deep_nesting(self, text):
        with pytest.raises(ValidationError, match="^malformed document: "):
            parse(text)

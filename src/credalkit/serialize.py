"""Canonical JSON rendering for scenarios and reports.

Documents are plain maps/lists/numbers/strings.  Rendering is byte
deterministic: keys are sorted, floats carry twelve significant digits
(with a trailing ``.0`` so they stay floats on re-parse), infinities
become the strings ``"inf"`` / ``"-inf"`` (JSON has no literal for them),
and every other scalar is written as ``json.dumps(..., ensure_ascii=True)``
writes it.  Twelve-digit decimals re-parse to the same twelve digits, so
render -> parse -> render is the identity.  Float nests render by rows, one
``%`` each, and string lists by one join, in the same bytes as value by value.
"""

from __future__ import annotations

import json
from itertools import chain, islice
from json.encoder import encode_basestring_ascii as _quoted  # json.dumps of a str
from typing import Any

import numpy as np

from .errors import ValidationError

_LITERALS = {None: "null", True: "true", False: "false"}


def format_number(x: float) -> str:
    s = format(x, ".12g")
    if s == "nan":
        raise ValidationError("reports never contain NaN")
    if s in ("inf", "-inf"):
        return f'"{s}"'
    if s == "-0":
        return "0.0"
    return s if "." in s or "e" in s else s + ".0"


def render(doc: Any) -> str:
    """Serialize a document to canonical JSON text (trailing newline)."""
    try:
        return _render(doc, "\n") + "\n"
    except RecursionError:
        raise ValidationError("document nested too deeply to render") from None


def _render(doc: Any, nl: str) -> str:
    if isinstance(doc, np.generic):
        doc = doc.item()
    if isinstance(doc, float):
        return format_number(doc)
    if isinstance(doc, str):
        return _quoted(doc)
    if doc is None or isinstance(doc, bool):
        return _LITERALS[doc]
    if isinstance(doc, int):
        return int.__repr__(doc)  # as json writes an int
    inner = nl + "  "
    if isinstance(doc, (list, tuple)):
        head = type(doc) is list and doc and type(doc[0])  # under 4 floats, recursion is faster
        block = (head is list or head is float and len(doc) > 3) and _float_block(doc, inner)
        if head is str and set(map(type, doc)) == {str}:
            block = list(map(_quoted, doc))
        brackets, items = "[]", block or [_render(item, inner) for item in doc]
    elif isinstance(doc, dict):
        if not all(isinstance(k, str) for k in doc):
            raise ValidationError("document keys must be strings")
        brackets, items = "{}", [_quoted(k) + ": " + _render(doc[k], inner) for k in sorted(doc)]
    else:
        raise ValidationError(f"cannot serialize value of type {type(doc).__name__}")
    if not items:
        return brackets
    return brackets[0] + inner + ("," + inner).join(items) + nl + brackets[1]


def _float_block(doc: list, inner: str) -> list[str] | None:
    """The recursion's item texts for a nest of floats, one ``%`` per innermost list, or None."""
    sizes, rows, parts, forms = [], [doc], [], {}
    while type(rows[0][0]) is list:  # past 32 levels the recursion renders, or refuses, the rest
        rows = tuple(chain.from_iterable(rows))
        if len(sizes) == 32 or set(map(type, rows)) != {list} or not all(rows):
            return None
        sizes.append(list(map(len, rows)))
    if type(rows[0][0]) is not float or set(map(type, chain.from_iterable(rows))) != {float}:
        return None
    pad = inner + "  " * len(sizes)
    head, sep, close = ("[" + pad, "," + pad, pad[:-2] + "]") if sizes else ("", "," + pad, "")
    for row in rows:
        form = forms.get(len(row)) or forms.setdefault(len(row), sep.join(["%.12g"] * len(row)))
        if (text := form % tuple(row)).count(".") < len(row):  # a leaf lacks the "." of a float
            text = sep.join([s if "." in s or "e" in s else s + ".0" if s.isdigit() else
                             format_number(float(s)) for s in text.split(sep)])
        parts.append(head + text + close)
    for d in range(len(sizes) - 1, 0, -1):
        pad, close, parts = inner + "  " * d, inner + "  " * (d - 1) + "]", iter(parts)
        parts = ["[" + pad + ("," + pad).join(islice(parts, k)) + close for k in sizes[d - 1]]
    return parts


def parse(text: str) -> Any:
    """Parse a document, mapping malformed input to a validation error."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ValidationError(f"malformed document: {exc}") from None

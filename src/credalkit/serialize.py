"""Canonical JSON rendering for scenarios and reports.

Documents are plain maps/lists/numbers/strings.  Rendering is byte
deterministic: keys are sorted, floats carry twelve significant digits
(with a trailing ``.0`` so they stay floats on re-parse), infinities
become the strings ``"inf"`` / ``"-inf"`` (JSON has no literal for them),
and ``json`` encodes every other scalar.  Twelve-digit decimals re-parse
to the same twelve digits, so render -> parse -> render is the identity.
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np

from .errors import ValidationError


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
    if doc is None or isinstance(doc, (bool, int, str)):
        return json.dumps(doc, ensure_ascii=True)
    inner = nl + "  "
    if isinstance(doc, (list, tuple)):
        brackets = "[]"
        items = [_render(item, inner) for item in doc]
    elif isinstance(doc, dict):
        if not all(isinstance(k, str) for k in doc):
            raise ValidationError("document keys must be strings")
        brackets = "{}"
        items = [json.dumps(k) + ": " + _render(doc[k], inner) for k in sorted(doc)]
    else:
        raise ValidationError(f"cannot serialize value of type {type(doc).__name__}")
    if not items:
        return brackets
    return brackets[0] + inner + ("," + inner).join(items) + nl + brackets[1]


def parse(text: str) -> Any:
    """Parse a document, mapping malformed input to a validation error."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ValidationError(f"malformed document: {exc}") from None

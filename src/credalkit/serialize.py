"""Canonical JSON rendering for scenarios and reports.

Documents are plain maps/lists/numbers/strings.  Rendering is byte
deterministic: keys are sorted, floats carry twelve significant digits
(with a trailing ``.0`` so they stay floats on re-parse), and infinities
become the strings ``"inf"`` / ``"-inf"`` since JSON has no literal for
them.  Twelve-digit decimals re-parse to a double that renders to the
same twelve digits, so render -> parse -> render is the identity.
"""

from __future__ import annotations

import json
import math
from typing import Any

import numpy as np

from .errors import ValidationError


def format_number(x: float) -> str:
    if isinstance(x, bool):  # pragma: no cover - callers dispatch on type first
        raise TypeError("booleans are not numbers here")
    if math.isnan(x):
        raise ValidationError("reports never contain NaN")
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    s = format(float(x), ".12g")
    if s == "-0":
        s = "0.0"
    if not any(ch in s for ch in ".eE"):
        s += ".0"
    return s


def render(doc: Any) -> str:
    """Serialize a document to canonical JSON text (trailing newline)."""
    return _render(doc, 0) + "\n"


def _render(doc: Any, depth: int) -> str:
    pad = "  " * depth
    inner = "  " * (depth + 1)
    if isinstance(doc, np.bool_):
        doc = bool(doc)
    elif isinstance(doc, np.integer):
        doc = int(doc)
    elif isinstance(doc, np.floating):
        doc = float(doc)
    if doc is None:
        return "null"
    if isinstance(doc, bool):
        return "true" if doc else "false"
    if isinstance(doc, int):
        return str(doc)
    if isinstance(doc, float):
        return format_number(doc)
    if isinstance(doc, str):
        return json.dumps(doc, ensure_ascii=True)
    if isinstance(doc, (list, tuple)):
        if not doc:
            return "[]"
        parts = [_render(item, depth + 1) for item in doc]
        return "[\n" + ",\n".join(inner + p for p in parts) + "\n" + pad + "]"
    if isinstance(doc, dict):
        if not doc:
            return "{}"
        keys = sorted(doc.keys())
        if any(not isinstance(k, str) for k in keys):
            raise ValidationError("document keys must be strings")
        parts = [
            inner + json.dumps(k, ensure_ascii=True) + ": " + _render(doc[k], depth + 1)
            for k in keys
        ]
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    raise ValidationError(f"cannot serialize value of type {type(doc).__name__}")


def parse(text: str) -> Any:
    """Parse a document, mapping malformed input to a validation error."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"malformed document: {exc}") from None

"""Canonical JSON serialization and lightweight schema checks.

All pipeline artifacts are written through ``dump_json`` so reruns with the
same seed produce byte-identical files: floats are rounded to 12 significant
digits, keys keep insertion order, and the layout is fixed.
"""

from __future__ import annotations

import json
import math
from pathlib import Path


def format_number(x: float) -> str:
    """Render a float with up to 12 significant digits."""
    if x != x or math.isinf(x):
        raise ValueError(f"non-finite number in output: {x}")
    if float(x) == int(x) and abs(x) < 1e15:
        return str(int(x))
    return format(float(x), ".12g")


def round_floats(obj):
    """Recursively round floats to 12 significant digits (JSON-safe copy)."""
    if isinstance(obj, float):
        return float(format_number(obj))
    if isinstance(obj, dict):
        return {k: round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [round_floats(v) for v in obj]
    if hasattr(obj, "item") and not isinstance(obj, (str, bytes)):  # numpy scalar
        return round_floats(obj.item())
    return obj


def dumps_json(obj) -> str:
    return json.dumps(round_floats(obj), indent=2) + "\n"


def dump_json(obj, path: str | Path) -> None:
    Path(path).write_text(dumps_json(obj), encoding="utf-8")


def load_json(path: str | Path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


class SchemaError(ValueError):
    pass


def validate_schema(obj, schema: dict, where: str = "$") -> None:
    """Check a JSON value against a small JSON-Schema subset.

    Supports: type (string or list of strings), properties, required, items.
    Enough to pin the shapes of every artifact this package writes.
    """
    expected = schema.get("type")
    if expected is not None:
        types = expected if isinstance(expected, list) else [expected]
        if not any(_type_ok(obj, t) for t in types):
            raise SchemaError(f"{where}: expected type {expected}, got {type(obj).__name__}")
    if isinstance(obj, dict):
        for key in schema.get("required", []):
            if key not in obj:
                raise SchemaError(f"{where}: missing required key {key!r}")
        for key, sub in schema.get("properties", {}).items():
            if key in obj:
                validate_schema(obj[key], sub, f"{where}.{key}")
    if isinstance(obj, list) and "items" in schema:
        for i, item in enumerate(obj):
            validate_schema(item, schema["items"], f"{where}[{i}]")


def _type_ok(obj, type_name: str) -> bool:
    if type_name == "object":
        return isinstance(obj, dict)
    if type_name == "array":
        return isinstance(obj, list)
    if type_name == "string":
        return isinstance(obj, str)
    if type_name == "number":
        return isinstance(obj, (int, float)) and not isinstance(obj, bool)
    if type_name == "integer":
        return isinstance(obj, int) and not isinstance(obj, bool)
    if type_name == "null":
        return obj is None
    if type_name == "boolean":
        return isinstance(obj, bool)
    raise SchemaError(f"unknown schema type {type_name!r}")


def load_schema(name: str) -> dict:
    """Load one of the schemas shipped next to this module."""
    path = Path(__file__).parent / "schemas" / f"{name}.json"
    return json.loads(path.read_text(encoding="utf-8"))

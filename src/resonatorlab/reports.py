"""Structured run reports: one self-describing JSON document per CLI run.

Reports are deterministic (sorted keys, shortest-roundtrip float repr, no
timestamp unless explicitly requested) and validate against
:data:`REPORT_SCHEMA`. Non-finite numbers are serialized as ``null``. The
validator is built in and covers the JSON Schema keywords the two schemas
use: ``type``, ``const``, ``required``, ``properties``,
``additionalProperties`` and ``items``.
"""

from __future__ import annotations

import json
import math
import numbers
from collections.abc import Mapping
from json.encoder import encode_basestring_ascii
from typing import Any

from . import __version__
from .errors import ConvergenceError, DomainError, ReportSchemaError

__all__ = [
    "SCHEMA_VERSION",
    "REPORT_SCHEMA",
    "ERROR_SCHEMA",
    "make_report",
    "error_report",
    "exit_code_for",
    "dump_report",
    "validate_report",
]

SCHEMA_VERSION = "1.0.0"

#: The schema of a plot value, which :func:`_validate` checks a whole array
#: against at once.
_NUMBER_OR_NULL = {"type": ["number", "null"]}

_AXIS_SCHEMA = {
    "type": "object",
    "required": ["label", "values"],
    "additionalProperties": False,
    "properties": {
        "label": {"type": "string"},
        "values": {"type": "array", "items": _NUMBER_OR_NULL},
    },
}

REPORT_SCHEMA: dict = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "resonatorlab run report",
    "type": "object",
    "required": ["schema_version", "tool", "subcommand", "inputs", "results", "plot_data"],
    "additionalProperties": False,
    "properties": {
        "schema_version": {"const": SCHEMA_VERSION},
        "tool": {
            "type": "object",
            "required": ["name", "version"],
            "additionalProperties": False,
            "properties": {
                "name": {"type": "string"},
                "version": {"type": "string"},
            },
        },
        "subcommand": {"type": "string"},
        "generated_at": {"type": "string"},
        "inputs": {"type": "object"},
        "results": {"type": "object"},
        "warnings": {"type": "array", "items": {"type": "string"}},
        "plot_data": {
            "type": "object",
            "additionalProperties": {
                "type": "object",
                "required": ["x", "series"],
                "additionalProperties": False,
                "properties": {
                    "x": _AXIS_SCHEMA,
                    "series": {"type": "array", "items": _AXIS_SCHEMA},
                },
            },
        },
    },
}

ERROR_SCHEMA: dict = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "resonatorlab error report",
    "type": "object",
    "required": ["schema_version", "tool", "error"],
    "additionalProperties": False,
    "properties": {
        "schema_version": {"const": SCHEMA_VERSION},
        "tool": REPORT_SCHEMA["properties"]["tool"],
        "subcommand": {"type": "string"},
        "error": {
            "type": "object",
            "required": ["type", "message", "exit_code"],
            "additionalProperties": False,
            "properties": {
                "type": {"type": "string"},
                "message": {"type": "string"},
                "exit_code": {"type": "integer"},
            },
        },
    },
}

EXIT_OK = 0
EXIT_DATA = 2
EXIT_CONVERGENCE = 3
EXIT_DOMAIN = 4


def exit_code_for(exc: BaseException) -> int:
    """Map an exception onto the CLI exit-code contract."""
    if isinstance(exc, DomainError):
        return EXIT_DOMAIN
    if isinstance(exc, ConvergenceError):
        return EXIT_CONVERGENCE
    return EXIT_DATA


def jsonify(value: Any) -> Any:
    """Recursively convert to JSON-safe plain types; non-finite floats -> null.

    Other values with ``.tolist()`` (numpy arrays and scalars) go through it.
    """
    if isinstance(value, Mapping):
        return {str(k): jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonify(v) for v in value]
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        return int(value)
    if isinstance(value, float):
        f = float(value)
        return f if math.isfinite(f) else None
    if value is None or isinstance(value, str):
        return value
    if hasattr(value, "tolist"):
        return jsonify(value.tolist())
    raise TypeError(f"cannot serialize {type(value).__name__} into a report")


def make_report(
    subcommand: str,
    inputs: Mapping[str, Any],
    results: Mapping[str, Any],
    plot_data: Mapping[str, Any] | None = None,
    warnings: list[str] | None = None,
    timestamp: str | None = None,
) -> dict:
    """The validated report of one run.

    ``inputs`` and ``results`` are converted with :func:`jsonify`;
    ``plot_data`` holds :func:`plot_group` groups, whose values
    :func:`series` has converted already.
    """
    doc = {
        "schema_version": SCHEMA_VERSION,
        "tool": {"name": "resonatorlab", "version": __version__},
        "subcommand": subcommand,
        "inputs": jsonify(inputs),
        "results": jsonify(results),
        "plot_data": dict(plot_data or {}),
    }
    if warnings:
        doc["warnings"] = [str(w) for w in warnings]
    if timestamp is not None:
        doc["generated_at"] = timestamp
    validate_report(doc)
    return doc


def error_report(exc: BaseException, subcommand: str | None = None) -> dict:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "tool": {"name": "resonatorlab", "version": __version__},
        "error": {
            "type": type(exc).__name__,
            "message": str(exc),
            "exit_code": exit_code_for(exc),
        },
    }
    if subcommand:
        doc["subcommand"] = subcommand
    validate_report(doc, ERROR_SCHEMA)
    return doc


#: JSON Schema types as draft 2020-12 defines them on parsed JSON.
_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "number": lambda v: isinstance(v, numbers.Number) and not isinstance(v, bool),
    "integer": lambda v: (isinstance(v, int) and not isinstance(v, bool))
    or (isinstance(v, float) and v.is_integer()),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
}


def validate_report(doc: Any, schema: Mapping[str, Any] = REPORT_SCHEMA) -> None:
    """Raise :class:`ReportSchemaError`, naming the JSON path, where ``doc`` breaks ``schema``."""
    _validate(doc, schema, "$")


def _validate(doc: Any, schema: Mapping[str, Any], path: str) -> None:
    kinds = schema.get("type")
    if kinds is not None:
        kinds = [kinds] if isinstance(kinds, str) else kinds
        if not any(_TYPES[kind](doc) for kind in kinds):
            raise ReportSchemaError(
                f"{path}: expected {' or '.join(kinds)}, got {type(doc).__name__}"
            )
    if "const" in schema:
        const = schema["const"]
        if isinstance(doc, bool) != isinstance(const, bool) or doc != const:
            raise ReportSchemaError(f"{path}: expected {const!r}, got {doc!r}")
    if isinstance(doc, dict):
        for key in schema.get("required", ()):
            if key not in doc:
                raise ReportSchemaError(f"{path}: required key {key!r} is missing")
        properties = schema.get("properties", {})
        extra = schema.get("additionalProperties", True)
        for key, value in doc.items():
            if key in properties:
                _validate(value, properties[key], f"{path}.{key}")
            elif extra is False:
                raise ReportSchemaError(f"{path}: unexpected key {key!r}")
            elif extra is not True:
                _validate(value, extra, f"{path}.{key}")
    elif isinstance(doc, list) and "items" in schema:
        items = schema["items"]
        # a plot array passes in one C-level pass when every value is exactly
        # a float or None; any other array is checked value by value
        if items == _NUMBER_OR_NULL and set(map(type, doc)) <= {float, type(None)}:
            return
        for i, value in enumerate(doc):
            _validate(value, items, f"{path}[{i}]")


def series(label: str, values) -> dict:
    """One labelled value array for a plot-data group, converted to JSON types
    once: an array through ``.tolist()``, and non-finite numbers to ``null``."""
    if hasattr(values, "tolist"):
        values = values.tolist()
        if not all(map(math.isfinite, values)):
            values = [v if math.isfinite(v) else None for v in values]
    else:
        values = [jsonify(v) for v in values]
    return {"label": label, "values": values}


def plot_group(x_label: str, x_values, *series_items: dict) -> dict:
    return {"x": series(x_label, x_values), "series": list(series_items)}


def dump_report(doc: Mapping[str, Any]) -> str:
    """``json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\\n"``,
    byte for byte. With ``indent`` json runs its pure-Python encoder, one call
    per value; here each array of finite floats is written in one join."""
    out: list[str] = []
    _dump(doc, "\n", out)
    out.append("\n")
    return "".join(out)


def _dump(value: Any, newline: str, out: list[str]) -> None:
    """Append ``value`` to ``out`` as json writes it at the indent that
    ``newline`` ("\\n" and the indent) starts. Non-empty arrays and objects
    with str keys are written here; the rest goes to json, which raises its own
    errors, re-indented: json escapes newlines inside strings, so each one it
    writes starts a line."""
    inner = newline + "  "
    if isinstance(value, (list, tuple)) and value:
        if set(map(type, value)) == {float} and all(map(math.isfinite, value)):
            out.append(f"[{inner}{(',' + inner).join(map(float.__repr__, value))}{newline}]")
            return
        separator = "[" + inner
        for item in value:
            out.append(separator)
            _dump(item, inner, out)
            separator = "," + inner
        out.append(newline + "]")
    elif isinstance(value, dict) and value and all(isinstance(key, str) for key in value):
        separator = "{" + inner
        for key, item in sorted(value.items()):
            out.append(f"{separator}{encode_basestring_ascii(key)}: ")
            _dump(item, inner, out)
            separator = "," + inner
        out.append(newline + "}")
    else:
        text = json.dumps(value, sort_keys=True, indent=2, allow_nan=False)
        out.append(text.replace("\n", newline))

"""Shared exception types and the JSON-file reader whose errors name the file."""

import json
from pathlib import Path


class MedrankError(Exception):
    """Base class for all package-specific errors."""


class SchemaError(MedrankError):
    """A file, record, or value does not match its declared schema."""


class DimensionError(MedrankError):
    """Array shapes or layout dimensions are inconsistent with the configuration."""


class ConfigError(MedrankError):
    """A run configuration is missing keys or contains invalid values."""


def read_json_object(path: str | Path) -> dict:
    """The JSON object in ``path``; a file that does not parse, or whose top
    level is not an object, raises a ``SchemaError`` naming the file."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise SchemaError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise SchemaError(f"{path}: expected a JSON object, got {type(payload).__name__}")
    return payload

"""Shared exception types and the three file readers every input goes through:
JSON, JSONL and plain text. Their errors name the file (and, for JSONL and
text, the line)."""

import json
from pathlib import Path
from typing import Iterator


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


def read_lines(
    path: str | Path, undecodable: str = "not UTF-8"
) -> Iterator[tuple[str, str]]:
    """``("path:line", text)`` for each non-blank line of the text file
    ``path``, in file order, with its line ending; lines end at a newline
    only, and blank lines are skipped but still counted. A line that is not
    UTF-8 raises a ``SchemaError`` naming ``path:line``, then ``undecodable``."""
    path = Path(path)
    with path.open("rb") as handle:
        for lineno, raw in enumerate(handle, start=1):
            where = f"{path}:{lineno}"
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise SchemaError(f"{where}: {undecodable}: {exc}") from exc
            if line.strip():
                yield where, line


def read_jsonl(path: str | Path, required: tuple[str, ...]) -> Iterator[tuple[str, dict]]:
    """``("path:line", record)`` for each non-blank line of the JSONL file
    ``path``, read by ``read_lines``. A line that is not UTF-8, does not parse,
    is not a JSON object, or lacks a ``required`` field raises a
    ``SchemaError`` naming ``path:line``."""
    for where, line in read_lines(path, undecodable="invalid JSON"):
        try:
            record = json.loads(line)
        except ValueError as exc:
            raise SchemaError(f"{where}: invalid JSON: {exc}") from exc
        if not isinstance(record, dict):
            raise SchemaError(f"{where}: expected a JSON object, got {type(record).__name__}")
        for key in required:
            if key not in record:
                raise SchemaError(f"{where}: missing field {key!r}")
        yield where, record

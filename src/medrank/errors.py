"""Shared exception types, the three file readers every input goes through
(JSON, JSONL and plain text) and the one reader of stored settings. Their
errors name the file (and, for JSONL and text, the line; for settings, the
key)."""

import dataclasses
import functools
import json
import sys
import types
import typing
from pathlib import Path
from typing import Iterator

import numpy as np


class MedrankError(Exception):
    """Base class for all package-specific errors."""


class SchemaError(MedrankError):
    """A file, record, or value does not match its declared schema."""


class DimensionError(MedrankError):
    """Array shapes or layout dimensions are inconsistent with the configuration."""


class ConfigError(MedrankError):
    """A run configuration is missing keys or contains invalid values."""


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object's key-value pairs as a dict; a key given twice raises
    ``ValueError`` naming it, so neither value is silently dropped."""
    record = dict(pairs)
    if len(record) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ValueError(f"duplicate key {key!r}")
            seen.add(key)
    return record


def read_json_object(path: str | Path) -> dict:
    """The JSON object in ``path``; a file that does not parse, repeats a key
    in an object, or whose top level is not an object, raises a
    ``SchemaError`` naming the file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
        payload = json.loads(text, object_pairs_hook=_unique_keys)
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
    repeats a key in an object, is not a JSON object, or lacks a ``required``
    field raises a ``SchemaError`` naming ``path:line``."""
    for where, line in read_lines(path, undecodable="invalid JSON"):
        try:
            record = json.loads(line, object_pairs_hook=_unique_keys)
        except ValueError as exc:
            raise SchemaError(f"{where}: invalid JSON: {exc}") from exc
        if not isinstance(record, dict):
            raise SchemaError(f"{where}: expected a JSON object, got {type(record).__name__}")
        for key in required:
            if key not in record:
                raise SchemaError(f"{where}: missing field {key!r}")
        yield where, record


def read_record(
    cls: type, payload, where: str, optional: tuple[str, ...] = (), key: str = "", prefix: str = ""
):
    """The settings dataclass ``cls`` stored as the JSON object ``payload``, found
    at dotted ``key`` ("" for the top level) of the file ``where``. Field f is
    stored as ``prefix + f`` and must match its type: ``int`` an integer (not a
    bool), ``float`` a finite number, ``bool`` true or false, ``str`` a string,
    ``X | None`` also null, ``tuple[T, ...]``, ``list[T]`` and ``np.ndarray`` (of
    floats) a list, ``tuple[T, U]`` a list of two, a dataclass an object read the
    same way. A missing field fails unless ``optional`` names it (its default
    applies); undeclared keys are ignored. Every failure, and a ``SchemaError`` or
    ``DimensionError`` from ``cls``, raises a ``SchemaError`` "where: key: ..."."""
    if not isinstance(payload, dict):
        _mismatch("an object", payload, where, key)
    hints = _type_hints(cls)
    values = {}
    for f in dataclasses.fields(cls):
        if not f.init:
            continue
        name = prefix + f.name
        if name in payload:
            values[f.name] = _read_value(hints[f.name], payload[name], where, _join(key, name))
        elif f.name not in optional:
            raise SchemaError(f"{where}: missing field {_join(key, name)!r}")
    try:
        return cls(**values)
    except (SchemaError, DimensionError) as exc:
        raise SchemaError(f"{_join(where, key, ': ')}: {exc}") from exc


def _join(head: str, tail: str, sep: str = ".") -> str:
    return f"{head}{sep}{tail}" if head and tail else head or tail


def _mismatch(expected: str, value, where: str, key: str) -> typing.NoReturn:
    got = {dict: "an object", list: "a list"}.get(type(value)) or json.dumps(value)
    raise SchemaError(f"{_join(where, key, ': ')}: expected {expected}, got {got}")


_EXPECTED = {int: "an integer", float: "a finite number", bool: "true or false", str: "a string"}
_type_hints = functools.cache(typing.get_type_hints)  # a dataclass's resolved field types


def _read_value(hint, value, where: str, key: str):
    """``value`` read as the type ``hint`` (see ``read_record``)."""
    if hint in _EXPECTED:
        kind = type(value)
        if hint is float and kind in (int, float) and abs(value) <= sys.float_info.max:
            return float(value)
        if hint is not float and kind is hint:
            return value
        _mismatch(_EXPECTED[hint], value, where, key)
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        if value is None:
            return None
        (hint,) = [a for a in args if a is not type(None)]
        return _read_value(hint, value, where, key)
    if dataclasses.is_dataclass(hint):
        return read_record(hint, value, where, key=key)
    if not isinstance(value, (list, tuple)):  # a tuple is what json writes as a list
        _mismatch("a list", value, where, key)
    if origin is tuple and args[-1] is not ...:
        if len(value) != len(args):
            _mismatch(f"a list of {len(args)}", value, where, key)
    else:  # tuple[T, ...], list[T] or np.ndarray
        args = (float if hint is np.ndarray else args[0],) * len(value)
    items = [_read_value(a, v, where, f"{key}[{i}]") for i, (a, v) in enumerate(zip(args, value))]
    return np.array(items, dtype=np.float64) if hint is np.ndarray else origin(items)

"""The shared JSONL and text-line readers and the stored-settings reader."""

import re
from dataclasses import dataclass

import pytest

from medrank.errors import SchemaError, read_json_object, read_jsonl, read_lines, read_record


def _write(tmp_path, data: bytes):
    path = tmp_path / "records.jsonl"
    path.write_bytes(data)
    return path


class TestReadJsonl:
    def test_blank_lines_skipped_but_counted(self, tmp_path):
        path = _write(tmp_path, b'\n{"a": 1}\n  \n\t\n{"a": 2}\r\n\n')
        assert list(read_jsonl(path, ("a",))) == [
            (f"{path}:2", {"a": 1}),
            (f"{path}:5", {"a": 2}),
        ]

    def test_last_line_needs_no_newline(self, tmp_path):
        path = _write(tmp_path, b'{"a": 1}\n{"a": "\xc3\xa9"}')
        assert [record["a"] for _, record in read_jsonl(path, ())] == [1, "é"]

    @pytest.mark.parametrize(
        "line, message",
        [
            (b'{"a": ', "invalid JSON"),
            (b'{"a": "\xff"}', "invalid JSON: 'utf-8' codec can't decode byte 0xff"),
            (b"5", "expected a JSON object, got int"),
            (b'["a"]', "expected a JSON object, got list"),
            (b'{"b": 1}', "missing field 'a'"),
            (b'{"a": 1, "a": 2}', "invalid JSON: duplicate key 'a'"),
            (b'{"a": {"b": 1, "c": 2, "b": 3}}', "invalid JSON: duplicate key 'b'"),
        ],
    )
    def test_bad_line_names_path_and_line(self, tmp_path, line, message):
        path = _write(tmp_path, b'{"a": 1}\n\n' + line + b"\n")
        records = read_jsonl(path, ("a",))
        assert next(records) == (f"{path}:1", {"a": 1})
        with pytest.raises(SchemaError) as info:
            next(records)
        assert str(info.value).startswith(f"{path}:3: {message}")

    def test_required_fields_checked_in_order(self, tmp_path):
        path = _write(tmp_path, b"{}\n")
        with pytest.raises(SchemaError, match="missing field 'b'$"):
            list(read_jsonl(path, ("b", "a")))


class TestReadJsonObject:
    def test_reads_nested_objects(self, tmp_path):
        path = tmp_path / "meta.json"
        path.write_text('{"meta": {"a": 1, "b": {"a": 2}}, "a": 3}', encoding="utf-8")
        assert read_json_object(path) == {"meta": {"a": 1, "b": {"a": 2}}, "a": 3}

    @pytest.mark.parametrize(
        "text, key",
        [
            ('{"a": 1, "a": 1}', "a"),
            ('{"meta": {"rqe_dim": 999, "V": 2, "rqe_dim": 8}}', "rqe_dim"),
        ],
    )
    def test_duplicate_key_names_path_and_key(self, tmp_path, text, key):
        path = tmp_path / "meta.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(SchemaError) as info:
            read_json_object(path)
        assert str(info.value) == f"{path}: invalid JSON: duplicate key {key!r}"


class TestReadLines:
    def test_blank_lines_skipped_but_counted(self, tmp_path):
        path = _write(tmp_path, b"a\n\n  \nb c\r\nd")
        assert list(read_lines(path)) == [
            (f"{path}:1", "a\n"),
            (f"{path}:4", "b c\r\n"),
            (f"{path}:5", "d"),
        ]

    @pytest.mark.parametrize("undecodable", [None, "invalid entry"])
    def test_undecodable_line_names_path_and_line(self, tmp_path, undecodable):
        path = _write(tmp_path, b"a\n\n\xff b\n")
        lines = read_lines(path) if undecodable is None else read_lines(path, undecodable)
        assert next(lines) == (f"{path}:1", "a\n")
        with pytest.raises(SchemaError) as info:
            next(lines)
        label = undecodable or "not UTF-8"
        assert str(info.value).startswith(f"{path}:3: {label}: 'utf-8' codec can't decode")


@dataclass(frozen=True)
class _Layer:
    size: tuple[int, int]
    on: bool


@dataclass(frozen=True)
class _Settings:
    name: str
    rate: float
    count: int
    layers: tuple[_Layer, ...]
    tags: list[str]
    path: str | None = None

    def __post_init__(self):
        if self.count < 0:
            raise SchemaError(f"count must be >= 0, got {self.count}")


_STORED = {
    "name": "a",
    "rate": 1,
    "count": 2,
    "layers": [{"size": [1, 2], "on": True}],
    "tags": ["x"],
    "path": None,
}


class TestReadRecord:
    def test_reads_the_stored_object(self):
        settings = read_record(_Settings, {**_STORED, "unread": [1]}, "s.json")
        assert settings == _Settings("a", 1.0, 2, (_Layer((1, 2), True),), ["x"])
        assert type(settings.rate) is float

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("name", 5, "name: expected a string, got 5"),
            ("rate", "x", 'rate: expected a finite number, got "x"'),
            ("rate", float("nan"), "rate: expected a finite number, got NaN"),
            ("rate", 10**400, "rate: expected a finite number, got 1000"),
            ("count", True, "count: expected an integer, got true"),
            ("count", 2.0, "count: expected an integer, got 2.0"),
            ("layers", 3, "layers: expected a list, got 3"),
            ("layers", [[1]], "layers[0]: expected an object, got a list"),
            ("layers", [{"size": [1], "on": True}], "layers[0].size: expected a list of 2"),
            ("layers", [{"size": [1, 2], "on": "no"}],
             'layers[0].on: expected true or false, got "no"'),
            ("tags", [None], "tags[0]: expected a string, got null"),
            ("path", 5, "path: expected a string, got 5"),
        ],
    )
    def test_wrong_type_names_file_and_key(self, key, value, message):
        with pytest.raises(SchemaError, match="^" + re.escape(f"s.json: {message}")):
            read_record(_Settings, {**_STORED, key: value}, "s.json")

    def test_missing_field_fails_unless_optional(self):
        stored = {k: v for k, v in _STORED.items() if k not in ("path", "count")}
        with pytest.raises(SchemaError, match="^s.json: missing field 'count'$"):
            read_record(_Settings, stored, "s.json", ("path",))
        settings = read_record(_Settings, {**stored, "count": 0}, "s.json", ("path",))
        assert settings.path is None
        with pytest.raises(SchemaError, match="^s.json: missing field 'path'$"):
            read_record(_Settings, {**stored, "count": 0}, "s.json")
        layers = [{"size": [1, 2]}]
        with pytest.raises(SchemaError, match=r"^s.json: missing field 'layers\[0\].on'$"):
            read_record(_Settings, {**_STORED, "layers": layers}, "s.json", ("on",))

    def test_key_and_prefix_name_the_stored_keys(self):
        stored = {f"my_{k}": v for k, v in _STORED.items()}
        assert read_record(_Settings, stored, "s.json", key="top", prefix="my_").count == 2
        with pytest.raises(SchemaError, match="^s.json: top.my_count: expected an integer"):
            read_record(_Settings, {**stored, "my_count": "2"}, "s.json", key="top", prefix="my_")
        with pytest.raises(SchemaError, match="^s.json: top: expected an object, got null"):
            read_record(_Settings, None, "s.json", key="top")

    def test_class_errors_name_file_and_key(self):
        with pytest.raises(SchemaError, match="^s.json: top: count must be >= 0, got -1$"):
            read_record(_Settings, {**_STORED, "count": -1}, "s.json", key="top")

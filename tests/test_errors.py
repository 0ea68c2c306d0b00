"""The shared JSONL and text-line readers."""

import pytest

from medrank.errors import SchemaError, read_jsonl, read_lines


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

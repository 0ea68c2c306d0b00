"""Dataset and QA-corpus loading, validation, and label derivation."""

import json

import pytest

from medrank.corpus import (
    Dataset,
    derive_label,
    load_dataset,
    load_qa_corpus,
    save_dataset,
    save_qa_corpus,
)
from medrank.errors import SchemaError

from conftest import make_candidate, make_question


def _write_question(path, **overrides):
    candidate = {
        "answer_id": "a1",
        "text": "An answer.",
        "source": "web",
        "system_rank": 1,
        "reference_rank": 1,
        "reference_score": 4,
    }
    candidate.update(overrides.pop("candidate", {}))
    record = {"question_id": "q1", "text": "Why?", "candidates": [candidate]}
    record.update(overrides)
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")


class TestLoadDataset:
    def test_roundtrip(self, tmp_path):
        questions = tuple(
            make_question(
                f"q{i}",
                f"question {i}",
                candidates=(
                    make_candidate("a1", "First.", "web", 1, 1, 4),
                    make_candidate("a2", "Second.", "nih", 2, 2, 1),
                ),
            )
            for i in range(5)
        )
        dataset = Dataset(split="train", questions=questions)
        path = tmp_path / "d.jsonl"
        save_dataset(dataset, path)
        assert load_dataset(path, "train") == dataset
        # and a second bounce is byte-stable
        path2 = tmp_path / "d2.jsonl"
        save_dataset(load_dataset(path, "train"), path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_full_size_file(self, tmp_path):
        path = tmp_path / "big.jsonl"
        with path.open("w", encoding="utf-8") as handle:
            for i in range(208):
                record = {
                    "question_id": f"q{i}",
                    "text": "t",
                    "candidates": [
                        {
                            "answer_id": "a",
                            "text": "x",
                            "source": "s",
                            "system_rank": 1,
                            "reference_rank": 1,
                            "reference_score": 3,
                        }
                    ],
                }
                handle.write(json.dumps(record) + "\n")
        assert len(load_dataset(path, "train")) == 208

    @pytest.mark.parametrize(
        "field, value",
        [
            ("reference_score", 5),
            ("reference_score", True),
            ("reference_score", 3.0),
            ("reference_rank", True),
            ("system_rank", True),
        ],
    )
    def test_out_of_range_score(self, tmp_path, field, value):
        path = tmp_path / "d.jsonl"
        _write_question(path, candidate={field: value})
        with pytest.raises(SchemaError, match=field):
            load_dataset(path, "train")

    def test_empty_candidates(self, tmp_path):
        path = tmp_path / "d.jsonl"
        _write_question(path, candidates=[])
        with pytest.raises(SchemaError, match="empty candidates"):
            load_dataset(path, "train")

    def test_parse_error_carries_line_number(self, tmp_path):
        path = tmp_path / "d.jsonl"
        _write_question(path)
        with path.open("a", encoding="utf-8") as handle:
            handle.write("{not json\n")
        with pytest.raises(SchemaError, match=r":2"):
            load_dataset(path, "train")

    def test_invariant_error_names_question(self, tmp_path):
        path = tmp_path / "d.jsonl"
        record = {
            "question_id": "qx",
            "text": "t",
            "candidates": [
                {"answer_id": "a", "text": "x", "source": "s", "system_rank": 1,
                 "reference_rank": 1, "reference_score": 4},
                {"answer_id": "a", "text": "y", "source": "s", "system_rank": 2,
                 "reference_rank": 2, "reference_score": 1},
            ],
        }
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        with pytest.raises(SchemaError, match="qx"):
            load_dataset(path, "train")

    def test_missing_reference_fails_outside_test_split(self, tmp_path):
        path = tmp_path / "d.jsonl"
        _write_question(path, candidate={"reference_score": None})
        with pytest.raises(SchemaError, match="reference_score"):
            load_dataset(path, "train")

    def test_test_split_allows_missing_reference(self, tmp_path):
        path = tmp_path / "d.jsonl"
        record = {
            "question_id": "q1",
            "text": "t",
            "candidates": [
                {"answer_id": "a", "text": "x", "source": "s", "system_rank": 1}
            ],
        }
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        dataset = load_dataset(path, "test")
        assert dataset.questions[0].candidates[0].reference_score is None

    @pytest.mark.parametrize("blank", ["", "   ", " \n\t "])
    def test_blank_candidate_text_rejected(self, tmp_path, blank):
        # A blank answer has no sentence to score; it must fail when loaded.
        path = tmp_path / "d.jsonl"
        _write_question(path, candidate={"answer_id": "a7", "text": blank})
        with pytest.raises(SchemaError, match="'a7': blank text"):
            load_dataset(path, "train")

    @pytest.mark.parametrize(
        "where, field, value",
        [
            ("question", "question_id", 12),
            ("question", "text", {"q": 1}),
            ("candidate", "answer_id", 7),
            ("candidate", "text", ["An answer."]),
            ("candidate", "source", None),
        ],
    )
    def test_non_string_field_rejected(self, tmp_path, where, field, value):
        # A non-string is rejected, not written back as its str() form.
        path = tmp_path / "d.jsonl"
        if where == "question":
            _write_question(path, **{field: value})
        else:
            _write_question(path, candidate={field: value})
        with pytest.raises(SchemaError, match=rf"d\.jsonl:1: .*{field} must be a string"):
            load_dataset(path, "train")

    def test_unknown_field_rejected(self, tmp_path):
        path = tmp_path / "d.jsonl"
        _write_question(path, extra_field=1)
        with pytest.raises(SchemaError, match="extra_field"):
            load_dataset(path, "train")

    def test_duplicate_reference_rank_rejected(self):
        with pytest.raises(SchemaError, match="reference_rank"):
            make_question(
                candidates=(
                    make_candidate("a1", reference_rank=1),
                    make_candidate("a2", system_rank=2, reference_rank=1),
                )
            )

    def test_more_than_ten_candidates_rejected(self):
        with pytest.raises(SchemaError, match="more than 10"):
            make_question(
                candidates=tuple(
                    make_candidate(f"a{i}", system_rank=i + 1, reference_rank=i + 1)
                    for i in range(11)
                )
            )


class TestLoadCorpus:
    def test_preserves_file_order(self, tmp_path, qa_pairs):
        path = tmp_path / "c.jsonl"
        save_qa_corpus(qa_pairs, path)
        loaded = load_qa_corpus(path)
        assert [p.pair_id for p in loaded] == ["p1", "p2", "p3"]
        assert loaded == qa_pairs

    def test_duplicate_pair_id(self, tmp_path):
        path = tmp_path / "c.jsonl"
        row = {"pair_id": "p", "question_text": "q", "answer_text": "a", "source": "s"}
        path.write_text(json.dumps(row) + "\n" + json.dumps(row) + "\n")
        with pytest.raises(SchemaError, match="duplicate pair_id"):
            load_qa_corpus(path)

    def test_missing_answer_text(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(
            json.dumps({"pair_id": "p", "question_text": "q", "source": "s"}) + "\n"
        )
        with pytest.raises(SchemaError, match="answer_text"):
            load_qa_corpus(path)

    def test_parse_error_line_number(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text("}{\n")
        with pytest.raises(SchemaError, match=r":1"):
            load_qa_corpus(path)

    @pytest.mark.parametrize(
        "field, value",
        [("pair_id", 3), ("question_text", ["q"]), ("answer_text", {"a": 1}), ("source", None)],
    )
    def test_non_string_field_rejected(self, tmp_path, field, value):
        path = tmp_path / "c.jsonl"
        row = {"pair_id": "p", "question_text": "q", "answer_text": "a", "source": "s"}
        path.write_text(json.dumps(dict(row, **{field: value})) + "\n")
        with pytest.raises(SchemaError, match=rf"c\.jsonl:1: {field} must be a string"):
            load_qa_corpus(path)

    @pytest.mark.parametrize("field", ["question_text", "answer_text"])
    @pytest.mark.parametrize("blank", ["", "   ", "\n\t"])
    def test_blank_text_rejected(self, tmp_path, field, blank):
        path = tmp_path / "c.jsonl"
        row = {"pair_id": "p", "question_text": "q", "answer_text": "a", "source": "s"}
        path.write_text(json.dumps(dict(row, **{field: blank})) + "\n")
        with pytest.raises(SchemaError, match=f"'p': blank {field}"):
            load_qa_corpus(path)


class TestDeriveLabel:
    @pytest.mark.parametrize("score,label", [(1, 0), (2, 0), (3, 1), (4, 1)])
    def test_mapping(self, score, label):
        assert derive_label(score) == label

    def test_monotone(self):
        labels = [derive_label(s) for s in (1, 2, 3, 4)]
        assert labels == sorted(labels)

    @pytest.mark.parametrize("bad", [0, 5, -1])
    def test_out_of_range(self, bad):
        with pytest.raises(SchemaError):
            derive_label(bad)

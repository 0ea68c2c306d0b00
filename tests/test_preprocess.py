"""Sentence splitting, trailer stripping, abbreviation expansion."""

import pytest

from medrank.errors import SchemaError
from medrank.preprocess import (
    AbbreviationDict,
    expand_abbreviations,
    load_guard_list,
    normalize_answer,
    split_sentences,
    strip_trailing_updated_by,
)


class TestSplitSentences:
    def test_two_terminators(self):
        assert split_sentences("A b. C d.") == ["A b.", "C d."]

    def test_empty(self):
        assert split_sentences("") == []

    def test_guarded_abbreviation(self):
        assert split_sentences("See Dr. Smith today.") == ["See Dr. Smith today."]

    def test_guard_inside_parenthesis(self):
        assert split_sentences("Common (e.g. Daily) habits.") == [
            "Common (e.g. Daily) habits."
        ]

    def test_question_and_exclamation(self):
        assert split_sentences("Really? Yes! Fine.") == ["Really?", "Yes!", "Fine."]

    def test_no_split_without_capital(self):
        assert split_sentences("pH 7.4 is normal.") == ["pH 7.4 is normal."]

    def test_no_split_without_whitespace(self):
        assert split_sentences("A.B. rules here.") == ["A.B. rules here."]

    def test_trailing_text_without_terminator(self):
        assert split_sentences("First. then nothing") == ["First. then nothing"]

    def test_custom_guard_file(self, tmp_path):
        path = tmp_path / "guards.txt"
        path.write_text("Conf.\n\n", encoding="utf-8")
        guards = load_guard_list(path)
        assert split_sentences("At Conf. We met.", guards) == ["At Conf. We met."]
        assert split_sentences("At Conf. We met.") == ["At Conf.", "We met."]

    def test_join_reconstructs_tokens(self):
        texts = [
            "One two. Three four! Five?",
            "  spaced   out.  Next one.",
            "No terminator at all",
        ]
        for text in texts:
            joined = " ".join(split_sentences(text))
            assert joined.split() == text.split()

    def test_never_produces_empty_sentences(self):
        for text in ["...", ". . .", "a. B. c."]:
            assert all(s for s in split_sentences(text))


class TestStripTrailingUpdatedBy:
    def test_removes_trailer(self):
        assert strip_trailing_updated_by(["Ans.", "Updated by: J."]) == ["Ans."]

    def test_keeps_interior_match(self):
        sentences = ["Updated by: J.", "Ans."]
        assert strip_trailing_updated_by(sentences) == sentences

    def test_empty(self):
        assert strip_trailing_updated_by([]) == []

    def test_case_insensitive_and_maximal(self):
        sentences = ["Keep.", "UPDATED BY: a.", "updated by: b."]
        assert strip_trailing_updated_by(sentences) == ["Keep."]

    def test_idempotent(self):
        sentences = ["Keep.", "Updated by: x."]
        once = strip_trailing_updated_by(sentences)
        assert strip_trailing_updated_by(once) == once


class TestExpandAbbreviations:
    def test_direct_lookup(self):
        d = AbbreviationDict({"MI": "myocardial infarction"})
        assert expand_abbreviations("MI risk", d) == "myocardial infarction risk"

    def test_only_curated_keys_expand(self):
        d = AbbreviationDict({"MI": "myocardial infarction"})
        assert expand_abbreviations("is this it", d) == "is this it"

    def test_empty_text(self):
        d = AbbreviationDict({"MI": "x"})
        assert expand_abbreviations("", d) == ""

    def test_whole_token_only(self):
        d = AbbreviationDict({"MI": "heart attack"})
        assert expand_abbreviations("MIX and AMI", d) == "MIX and AMI"

    def test_case_sensitive(self):
        d = AbbreviationDict({"MI": "heart attack"})
        assert expand_abbreviations("mi risk", d) == "mi risk"

    def test_longest_key_wins(self):
        d = AbbreviationDict({"BP": "blood pressure", "BPD": "borderline disorder"})
        assert expand_abbreviations("BPD case", d) == "borderline disorder case"

    def test_no_reexpansion(self):
        d = AbbreviationDict({"A": "B", "B": "C"})
        assert expand_abbreviations("A", d) == "B"

    def test_idempotent_when_expansions_lack_keys(self):
        d = AbbreviationDict({"MI": "myocardial infarction", "BP": "blood pressure"})
        text = "MI and BP history"
        once = expand_abbreviations(text, d)
        assert expand_abbreviations(once, d) == once

    def test_empty_key_rejected(self):
        with pytest.raises(SchemaError):
            AbbreviationDict({"": "x"})

    def test_tsv_loading(self, tmp_path):
        path = tmp_path / "abbrev.tsv"
        path.write_text("MI\tmyocardial infarction\nBP\tblood pressure\n")
        d = AbbreviationDict.from_tsv(path)
        assert d.entries == {"MI": "myocardial infarction", "BP": "blood pressure"}

    def test_tsv_bad_column_count(self, tmp_path):
        path = tmp_path / "abbrev.tsv"
        path.write_text("MI myocardial\n")
        with pytest.raises(SchemaError, match=r":1"):
            AbbreviationDict.from_tsv(path)


class TestNormalizeAnswer:
    def test_pipeline(self):
        d = AbbreviationDict({"MI": "myocardial infarction"})
        text = "MI is serious. See a doctor. Updated by: staff."
        assert (
            normalize_answer(text, d)
            == "myocardial infarction is serious. See a doctor."
        )

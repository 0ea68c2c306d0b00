"""Dotted-key run configuration parsing and round-trips."""

import dataclasses
import re

import pytest

from medrank.config import RunConfig
from medrank.errors import ConfigError, SchemaError
from medrank.joint import PAPER_SIZES, SCALED_SIZES


def _format(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def to_text(config: RunConfig) -> str:
    """Every key as sorted ``section.key=value`` lines, which ``from_text`` reads."""
    lines = [f"scaled_down={_format(config.scaled_down)}"]
    for section_name, section in config._sections().items():
        for f in dataclasses.fields(section):
            lines.append(f"{section_name}.{f.name}={_format(getattr(section, f.name))}")
    return "\n".join(sorted(lines)) + "\n"


def from_text(text: str, where: str = "<config>") -> RunConfig:
    """The config of ``text``'s lines, as ``RunConfig.from_file`` reads a file;
    an error names ``where`` and the line number."""
    return RunConfig._from_lines(
        (f"{where}:{lineno}", line) for lineno, line in enumerate(text.splitlines(), 1)
    )


class TestRunConfig:
    def test_defaults_mirror_best_setting(self):
        config = RunConfig()
        assert config.retrieval.N == 3
        assert config.retrieval.T == 0.7
        assert config.train.alpha == 2.0

    def test_set_and_types(self):
        config = RunConfig()
        config.set_value("retrieval.N", "5")
        config.set_value("retrieval.T", "0.9")
        config.set_value("train.augmentation", "false")
        config.set_value("paths.abbreviations", "/tmp/x.tsv")
        config.set_value("scaled_down", "true")
        assert config.retrieval.N == 5
        assert config.retrieval.T == 0.9
        assert config.train.augmentation is False
        assert config.paths.abbreviations == "/tmp/x.tsv"
        assert config.scaled_down is True

    def test_empty_clears_optional_path(self):
        config = RunConfig()
        config.set_value("paths.guard_list", "/tmp/x")
        config.set_value("paths.guard_list", "")
        assert config.paths.guard_list is None

    def test_unknown_keys_rejected(self):
        config = RunConfig()
        with pytest.raises(ConfigError):
            config.set_value("nonsense.key", "1")
        with pytest.raises(ConfigError):
            config.set_value("retrieval.bogus", "1")
        with pytest.raises(ConfigError):
            config.set_value("plainkey", "1")
        # TrainConfig's retrieval record is filled from the retrieval section
        with pytest.raises(ConfigError):
            config.set_value("train.retrieval", "1")

    def test_bad_values_rejected(self):
        config = RunConfig()
        with pytest.raises(ConfigError):
            config.set_value("retrieval.N", "three")
        with pytest.raises(ConfigError):
            config.set_value("train.augmentation", "maybe")

    @pytest.mark.parametrize("key", ["lr", "alpha"])
    @pytest.mark.parametrize("raw", ["inf", "nan"])
    def test_non_finite_train_rates_rejected(self, key, raw):
        # The CLI builds its TrainConfig through this view, so a --set value
        # fails before any data is read.
        config = RunConfig()
        config.set_value(f"train.{key}", raw)
        with pytest.raises(SchemaError, match=f"{key} must be finite, got {raw}"):
            config.train_config()

    def test_text_roundtrip(self):
        config = RunConfig()
        config.set_value("retrieval.T", "0.65")
        config.set_value("train.lr", "0.0005")
        config.set_value("paths.guard_list", "guards.txt")
        config.set_value("synth.questions", "42")
        text = to_text(config)
        reparsed = from_text(text)
        assert reparsed == config
        assert to_text(reparsed) == text

    def test_file_roundtrip_with_comments(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_text(
            "# a comment\nretrieval.N=4\ntrain.epochs=7  # trailing comment\n\n",
            encoding="utf-8",
        )
        config = RunConfig.from_file(path)
        assert config.retrieval.N == 4
        assert config.train.epochs == 7

    @pytest.mark.parametrize(
        "line", ["just words", "train.epochz=3", "synth.questions=four"],
        ids=["no-equals", "unknown-key", "bad-value"],
    )
    def test_malformed_line_rejected(self, tmp_path, line):
        path = tmp_path / "run.conf"
        path.write_text(f"{line}\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}:1: "):
            RunConfig.from_file(path)

    def test_scaled_down_views(self):
        config = RunConfig()
        config.scaled_down = True
        assert config.provider_config().D == 8
        assert config.metadata_vocab_size() == 16
        config.scaled_down = False
        assert config.provider_config().D == 768
        assert config.metadata_vocab_size() == 2000

    def test_typed_views(self):
        config = RunConfig()
        config.set_value("synth.questions", "10")
        assert config.synth_config().questions == 10
        assert config.retrieval_config().N == 3

    @pytest.mark.parametrize(
        "key, view",
        [("provider.D", "provider_config"), ("tfidf.V", "metadata_vocab_size"),
         ("provider.D", "model_sizes"), ("tfidf.V", "model_sizes")],
    )
    @pytest.mark.parametrize("value", ["0", "32", "768"])
    def test_scaled_down_rejects_an_explicit_size(self, key, view, value):
        # --set, before scaled_down is switched on, and a config file, with
        # the key on either side of scaled_down=true
        set_config = RunConfig()
        set_config.set_value(key, value)
        set_config.scaled_down = True
        configs = [set_config]
        for lines in ([f"{key}={value}", "scaled_down=true"],
                      ["scaled_down=true", f"{key}={value}"]):
            configs.append(from_text("\n".join(lines), where="run.conf"))
        for config in configs:
            with pytest.raises(ConfigError, match=key.replace(".", r"\.")):
                getattr(config, view)()

    def test_explicit_size_used_without_scaled_down(self):
        config = RunConfig()
        config.set_value("provider.D", "32")
        config.set_value("tfidf.V", "500")
        assert config.provider_config().D == 32
        assert config.metadata_vocab_size() == 500
        assert config.model_sizes() == dataclasses.replace(PAPER_SIZES, D=32, V=500)

    def test_model_sizes_resolve_the_preset(self):
        assert RunConfig().model_sizes() == dataclasses.replace(PAPER_SIZES, D=768, V=2000)
        assert RunConfig(scaled_down=True).model_sizes() == SCALED_SIZES

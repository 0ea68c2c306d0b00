"""Dotted-key run configuration parsing and round-trips."""

import dataclasses

import pytest

from medrank.config import RunConfig
from medrank.errors import ConfigError


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

    def test_bad_values_rejected(self):
        config = RunConfig()
        with pytest.raises(ConfigError):
            config.set_value("retrieval.N", "three")
        with pytest.raises(ConfigError):
            config.set_value("train.augmentation", "maybe")

    def test_text_roundtrip(self):
        config = RunConfig()
        config.set_value("retrieval.T", "0.65")
        config.set_value("train.lr", "0.0005")
        config.set_value("paths.guard_list", "guards.txt")
        config.set_value("synth.questions", "42")
        text = to_text(config)
        reparsed = RunConfig.from_text(text)
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

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_text("just words\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=":1"):
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
        "key, view", [("provider.D", "provider_config"), ("tfidf.V", "metadata_vocab_size")]
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
            configs.append(RunConfig.from_text("\n".join(lines), where="run.conf"))
        for config in configs:
            with pytest.raises(ConfigError, match=key.replace(".", r"\.")):
                getattr(config, view)()

    def test_explicit_size_used_without_scaled_down(self):
        config = RunConfig()
        config.set_value("provider.D", "32")
        config.set_value("tfidf.V", "500")
        assert config.provider_config().D == 32
        assert config.metadata_vocab_size() == 500

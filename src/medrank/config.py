"""Run configuration: flat dotted-key text files with CLI overrides.

Config files hold one ``section.key=value`` pair per line ('#' starts a
comment). Values are coerced by the target field's type; empty values clear
optional paths.

Each record the pipeline builds holds the only copy of its defaults: the
``provider``, ``retrieval``, ``train``, ``baseline`` and ``synth`` sections are
unchecked copies of its fields (``_section``), and a view such as
``provider_config()`` builds the record, which checks the values.
"""

from __future__ import annotations

import dataclasses
import types
import typing
from dataclasses import dataclass, field
from pathlib import Path

from .baseline import BaselineConfig
from .errors import ConfigError, SchemaError, read_lines
from .joint import PAPER_SIZES, SCALED_SIZES, ModelSizes, TrainConfig
from .providers import ProviderConfig, TfidfModel
from .retrieval import RetrievalConfig
from .synth import SynthConfig


def _section(record: type, *omit: str) -> type:
    """A mutable dataclass with ``record``'s fields, types and defaults, less
    ``omit``; it checks nothing, so a value is checked when a view builds the
    record from it."""
    hints = typing.get_type_hints(record)
    return dataclasses.make_dataclass(
        record.__name__.replace("Config", "Section"),
        [
            (f.name, hints[f.name],
             field(default=f.default, default_factory=f.default_factory))
            for f in dataclasses.fields(record) if f.name not in omit
        ],
        namespace={"__module__": __name__},
    )


ProviderSection = _section(ProviderConfig)
RetrievalSection = _section(RetrievalConfig)
TrainSection = _section(TrainConfig, "retrieval")
BaselineSection = _section(BaselineConfig)
SynthSection = _section(SynthConfig)


@dataclass
class TfidfSection:
    V: int = 2000


@dataclass
class PathsSection:
    """Default ``ingest`` inputs; ``--abbrev`` and ``--guard`` win."""

    abbreviations: str | None = None
    guard_list: str | None = None


@dataclass
class RunConfig:
    scaled_down: bool = False
    provider: ProviderSection = field(default_factory=ProviderSection)
    retrieval: RetrievalSection = field(default_factory=RetrievalSection)
    train: TrainSection = field(default_factory=TrainSection)
    baseline: BaselineSection = field(default_factory=BaselineSection)
    synth: SynthSection = field(default_factory=SynthSection)
    tfidf: TfidfSection = field(default_factory=TfidfSection)
    paths: PathsSection = field(default_factory=PathsSection)
    # the dotted keys given a value by a config file or --set
    explicit: set[str] = field(default_factory=set, init=False, repr=False, compare=False)

    # -- typed views consumed by the pipeline modules --------------------

    def _preset(self) -> ModelSizes:
        return SCALED_SIZES if self.scaled_down else PAPER_SIZES

    def _sized(self, dotted: str, value: int, fixed: int | None) -> int:
        """``value``, or the preset's ``fixed`` size when it has one; a file
        or ``--set`` that also sets ``dotted`` contradicts it and fails."""
        if fixed is None:
            return value
        if dotted in self.explicit:
            raise ConfigError(f"{dotted} is set, but --scaled-down fixes it at {fixed}")
        return fixed

    def provider_config(self) -> ProviderConfig:
        D = self._sized("provider.D", self.provider.D, self._preset().D)
        return ProviderConfig(**{**dataclasses.asdict(self.provider), "D": D})

    def retrieval_config(self) -> RetrievalConfig:
        return RetrievalConfig(**dataclasses.asdict(self.retrieval))

    def train_config(self) -> TrainConfig:
        return TrainConfig(**dataclasses.asdict(self.train), retrieval=self.retrieval_config())

    def baseline_config(self) -> BaselineConfig:
        return BaselineConfig(**dataclasses.asdict(self.baseline))

    def metadata_vocab_size(self) -> int:
        return self._sized("tfidf.V", self.tfidf.V, self._preset().V)

    def model_sizes(self) -> ModelSizes:
        """The joint model's preset with the run's D and V filled in."""
        sizes = self._preset()
        return dataclasses.replace(sizes, D=self.provider_config().D, V=self.metadata_vocab_size())

    def check_stored(self, where: str, retrieval: RetrievalConfig | None = None,
                     provider: ProviderConfig | None = None, tfidf: TfidfModel | None = None):
        """Fail when a file or ``--set`` gives a ``retrieval.*``, ``provider.*``
        or ``tfidf.V`` key a value other than the one the checkpoint, layout or
        TF-IDF file ``where`` stores (``provider.cache`` is not stored)."""
        for section, stored in (("retrieval", retrieval), ("provider", provider), ("tfidf", tfidf)):
            if stored is None:
                continue
            for key, given in vars(getattr(self, section)).items():
                dotted, value = f"{section}.{key}", getattr(stored, key)
                if dotted in self.explicit and dotted != "provider.cache" and given != value:
                    raise SchemaError(f"{where}: {dotted}={given!r} contradicts stored {value!r}")

    def synth_config(self) -> SynthConfig:
        return SynthConfig(**dataclasses.asdict(self.synth))

    # -- dotted-key plumbing ---------------------------------------------

    def _sections(self) -> dict[str, object]:
        return {k: v for k, v in vars(self).items() if dataclasses.is_dataclass(v)}

    def set_value(self, dotted: str, raw: str) -> None:
        if dotted == "scaled_down":
            self.scaled_down = _coerce(raw, bool, dotted)
            return
        if "." not in dotted:
            raise ConfigError(f"unknown config key {dotted!r}")
        section_name, key = dotted.split(".", 1)
        section = self._sections().get(section_name)
        if section is None:
            raise ConfigError(f"unknown config section {section_name!r}")
        hints = typing.get_type_hints(type(section))
        if key not in hints:
            raise ConfigError(f"unknown config key {dotted!r}")
        setattr(section, key, _coerce(raw, hints[key], dotted))
        self.explicit.add(dotted)

    @classmethod
    def _from_lines(cls, lines: typing.Iterable[tuple[str, str]]) -> "RunConfig":
        """The config of ``(where, "key=value")`` lines; ``#`` starts a comment."""
        config = cls()
        for where, line in lines:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{where}: expected key=value")
            dotted, raw = line.split("=", 1)
            try:
                config.set_value(dotted.strip(), raw.strip())
            except ConfigError as exc:
                raise ConfigError(f"{where}: {exc}") from exc
        return config

    @classmethod
    def from_file(cls, path: str | Path) -> "RunConfig":
        return cls._from_lines(read_lines(path))


def _coerce(raw: str, hint, dotted: str):
    optional = typing.get_origin(hint) in (typing.Union, types.UnionType)
    if optional:
        args = [a for a in typing.get_args(hint) if a is not type(None)]
        if raw == "":
            return None
        hint = args[0]
    if hint is bool:
        lowered = raw.lower()
        if lowered in ("true", "1", "yes"):
            return True
        if lowered in ("false", "0", "no"):
            return False
        raise ConfigError(f"{dotted}: expected a boolean, got {raw!r}")
    try:
        if hint is int:
            return int(raw)
        if hint is float:
            return float(raw)
    except ValueError as exc:
        raise ConfigError(f"{dotted}: {exc}") from exc
    return raw


"""Run configuration: flat dotted-key text files with CLI overrides.

Config files hold one ``section.key=value`` pair per line ('#' starts a
comment). Values are coerced by the target field's type; empty values clear
optional paths.
"""

from __future__ import annotations

import types
import typing
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigError
from .providers import ProviderConfig
from .retrieval import RetrievalConfig
from .synth import SynthConfig


@dataclass
class ProviderSection:
    kind: str = "tfidf_cosine"
    D: int = 768
    seed: int = 0
    vocab_size: int = 4096
    path: str | None = None
    fallback_zero: bool = False
    cache: bool = True


@dataclass
class RetrievalSection:
    N: int = 3
    T: float = 0.7
    swap_direction: bool = False


@dataclass
class TrainSection:
    alpha: float = 2.0
    epochs: int = 30
    lr: float = 1e-3
    optimizer: str = "adam"
    seed: int = 0
    augmentation: bool = True


@dataclass
class BaselineSection:
    lr: float = 0.5
    steps: int = 500
    weight_decay: float = 1e-4
    hinge_lr: float = 0.01
    hinge_steps: int = 500
    ranker: str = "logreg"


@dataclass
class SynthSection:
    questions: int = 200
    val_questions: int = 50
    topics: int = 3
    candidates: int = 5
    seed: int = 0


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
    _explicit: set[str] = field(default_factory=set, init=False, repr=False, compare=False)

    # -- typed views consumed by the pipeline modules --------------------

    def _sized(self, dotted: str, value: int, scaled: int) -> int:
        """``value``, or ``scaled`` under ``scaled_down``; a file or ``--set``
        that also sets ``dotted`` contradicts it and fails."""
        if not self.scaled_down:
            return value
        if dotted in self._explicit:
            raise ConfigError(f"{dotted} is set, but --scaled-down fixes it at {scaled}")
        return scaled

    def provider_config(self) -> ProviderConfig:
        return ProviderConfig(
            kind=self.provider.kind,
            D=self._sized("provider.D", self.provider.D, 8),
            seed=self.provider.seed,
            vocab_size=self.provider.vocab_size,
            path=self.provider.path,
            fallback_zero=self.provider.fallback_zero,
            cache=self.provider.cache,
        )

    def retrieval_config(self) -> RetrievalConfig:
        return RetrievalConfig(
            N=self.retrieval.N,
            T=self.retrieval.T,
            swap_direction=self.retrieval.swap_direction,
        )

    def synth_config(self) -> SynthConfig:
        return SynthConfig(
            questions=self.synth.questions,
            val_questions=self.synth.val_questions,
            topics=self.synth.topics,
            candidates=self.synth.candidates,
            seed=self.synth.seed,
        )

    def metadata_vocab_size(self) -> int:
        return self._sized("tfidf.V", self.tfidf.V, 16)

    # -- dotted-key plumbing ---------------------------------------------

    def _sections(self) -> dict[str, object]:
        return {
            "provider": self.provider,
            "retrieval": self.retrieval,
            "train": self.train,
            "baseline": self.baseline,
            "synth": self.synth,
            "tfidf": self.tfidf,
            "paths": self.paths,
        }

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
        self._explicit.add(dotted)

    @classmethod
    def from_text(cls, text: str, where: str = "<config>") -> "RunConfig":
        config = cls()
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{where}:{lineno}: expected key=value")
            dotted, raw = line.split("=", 1)
            config.set_value(dotted.strip(), raw.strip())
        return config

    @classmethod
    def from_file(cls, path: str | Path) -> "RunConfig":
        return cls.from_text(Path(path).read_text(encoding="utf-8"), where=str(path))


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


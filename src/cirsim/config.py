"""Experiment configuration: a single JSON file with a versioned schema.

Key paths mirror module option names (generator.n, buffer.size,
train.lr, ...) so configs stay grep-able, and every one of them can be
overridden from the command line with --set key.path=value.
"""

import copy
import hashlib
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

from .buffers import POLICIES
from .distributions import PARAMETRIC_KINDS, PmfSpec
from .learner import ACTIVATIONS, TrainConfig
from .sampling_generator import BimodalSpec, SamplingConfig, bimodal_class_split, make_bimodal_config
from .slot_generator import SlotConfig

SCHEMA_VERSION = 1
STRATEGIES = ("naive", "er", *(f"er-{p}" for p in POLICIES))


class ConfigError(ValueError):
    """Invalid experiment config; the message names the violated constraint."""


_REQUIRED = object()  # a ``_get`` default: the key must be present
_NUMBER = (int, float)  # a ``_get`` kind: a JSON number, kept as written
_KIND_NAMES = {int: "an integer", float: "a finite number", _NUMBER: "a finite number",
               bool: "true or false", str: "a string", dict: "an object"}


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


def _get(d: dict, key: str, default, kind, where: str = ""):
    """``d[key]`` checked to be of JSON type ``kind``, or ``default`` when
    absent. ``int`` refuses bools and fractions and reads ``2.0`` as ``2``;
    ``float`` converts ints; ``[kind]`` is a list, returned as a tuple.
    The key is taken out of ``d``, the reader's copy of its section, so
    that ``_refuse_unread`` can name what no reader took."""
    name = f"{where}.{key}".lstrip(".")
    if key not in d:
        _require(default is not _REQUIRED, f"missing required config key: {name}")
        return default
    return _typed(d.pop(key), kind, name)


def _refuse_unread(d: dict, where: str = "") -> None:
    """Refuse a key that the reader of section ``d`` left unread: a typo
    or a key of another generator would change the digest and nothing else."""
    if d:
        name = f"{where}.{next(iter(d))}".lstrip(".")
        raise ConfigError(f"unused config key: {name}")


def _typed(value, kind, name: str):
    if isinstance(kind, list):
        if not isinstance(value, list):
            raise ConfigError(f"{name} must be a list, got {value!r}")
        return tuple(_typed(v, kind[0], f"{name}[{i}]") for i, v in enumerate(value))
    if kind is int and isinstance(value, float) and value.is_integer():
        value = int(value)
    numeric = kind in (float, _NUMBER)
    if not (  # not _require: the message's repr is built only for a bad value
        isinstance(value, _NUMBER if numeric else kind)
        and isinstance(value, bool) == (kind is bool)
        and (not numeric or abs(value) <= sys.float_info.max)
    ):
        raise ConfigError(f"{name} must be {_KIND_NAMES[kind]}, got {value!r}")
    return float(value) if kind is float else value


def _validated(where: str, spec):
    """``spec`` after its own ``validate()``, whose ValueError names ``where``."""
    try:
        spec.validate()
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    return spec


@dataclass(frozen=True)
class DatasetSpec:
    kind: str  # "synthetic" | "csv"
    num_classes: int = 10
    per_class: int = 100
    dim: int = 16
    spread: float = 0.5
    test_fraction: float = 0.1
    seed: int = 0
    train_path: str | None = None
    test_path: str | None = None

    @classmethod
    def from_dict(cls, d: dict) -> "DatasetSpec":
        kind = _get(d, "kind", _REQUIRED, str, "dataset")
        _require(kind in ("synthetic", "csv"), f"dataset.kind must be synthetic or csv, got {kind!r}")
        if kind == "csv":
            train_path = _get(d, "train_path", _REQUIRED, str, "dataset")
            test_path = _get(d, "test_path", _REQUIRED, str, "dataset")
            _refuse_unread(d, "dataset")
            return cls(kind=kind, train_path=train_path, test_path=test_path)
        spec = cls(
            kind=kind,
            num_classes=_get(d, "num_classes", cls.num_classes, int, "dataset"),
            per_class=_get(d, "per_class", cls.per_class, int, "dataset"),
            dim=_get(d, "dim", cls.dim, int, "dataset"),
            spread=_get(d, "spread", cls.spread, float, "dataset"),
            test_fraction=_get(d, "test_fraction", cls.test_fraction, float, "dataset"),
            seed=_get(d, "seed", cls.seed, int, "dataset"),
        )
        _refuse_unread(d, "dataset")
        _require(spec.num_classes >= 2, "dataset.num_classes must be >= 2")
        _require(spec.per_class >= 1, "dataset.per_class must be >= 1")
        _require(spec.dim >= 2, "dataset.dim must be >= 2")
        _require(spec.spread > 0, "dataset.spread must be > 0")
        _require(spec.test_fraction >= 0, "dataset.test_fraction must be >= 0")
        _require(spec.seed >= 0, "dataset.seed must be >= 0")
        return spec


@dataclass(frozen=True)
class GeneratorSpec:
    kind: str  # "slot" | "sampling"
    n: int
    k: int | None = None  # the slot generator's; the rest are the sampling generator's
    s: int | None = None
    first_occurrence: PmfSpec | None = None
    repetition: float | tuple[float, ...] | BimodalSpec | None = None  # all, per class, split

    @classmethod
    def from_dict(cls, d: dict) -> "GeneratorSpec":
        kind = _get(d, "kind", _REQUIRED, str, "generator")
        _require(kind in ("slot", "sampling"), f"generator.kind must be slot or sampling, got {kind!r}")
        n = _get(d, "n", _REQUIRED, int, "generator")
        _require(n >= 1, "generator.n must be >= 1")
        if kind == "slot":
            k = _get(d, "k", _REQUIRED, int, "generator")
            _require(k >= 1, "generator.k must be >= 1")
            _refuse_unread(d, "generator")
            return cls(kind=kind, n=n, k=k)
        s = _get(d, "s", _REQUIRED, int, "generator")
        _require(s >= 1, "generator.s must be >= 1")
        fo = _get(d, "first_occurrence", _REQUIRED, dict, "generator")
        where = "generator.first_occurrence"
        support_len = _get(fo, "support_len", n, int, where)
        _require(support_len == n, f"{where}.support_len must equal generator.n")
        pmf_kind = _get(fo, "kind", _REQUIRED, str, where)
        param, weights = PmfSpec.param, PmfSpec.weights  # a key its kind does not take stays unread
        if pmf_kind in PARAMETRIC_KINDS:
            param = _get(fo, "param", param, _NUMBER, where)
        elif pmf_kind == "custom":
            weights = _get(fo, "weights", weights, [_NUMBER], where)
        pmf = _validated(where, PmfSpec(pmf_kind, n, param, weights))
        _refuse_unread(fo, where)
        rep = _get(d, "repetition", _REQUIRED, dict, "generator")
        where = "generator.repetition"
        mode = _get(rep, "mode", _REQUIRED, str, where)
        if mode == "constant":
            repetition = _get(rep, "value", _REQUIRED, float, where)
            _require(0.0 <= repetition <= 1.0, f"{where}.value must lie in [0, 1]")
        elif mode == "list":
            repetition = _get(rep, "values", _REQUIRED, [float], where)
            _require(all(0.0 <= v <= 1.0 for v in repetition), f"{where}.values must lie in [0, 1]")
        else:
            _require(mode == "bimodal",
                     f"{where}.mode must be constant, list or bimodal, got {mode!r}")
            repetition = _validated(where, BimodalSpec(
                fraction_infrequent=_get(rep, "fraction_infrequent", _REQUIRED, float, where),
                p_low=_get(rep, "p_low", _REQUIRED, float, where),
                p_high=_get(rep, "p_high", _REQUIRED, float, where),
                assignment_seed=_get(rep, "assignment_seed", BimodalSpec.assignment_seed, int, where),
            ))
            _require(repetition.assignment_seed >= 0, f"{where}.assignment_seed must be >= 0")
        _refuse_unread(rep, where)
        _refuse_unread(d, "generator")
        return cls(kind=kind, n=n, s=s, first_occurrence=pmf, repetition=repetition)

    def slot_config(self, seed: int) -> SlotConfig:
        return SlotConfig(n_experiences=self.n, slots_per_experience=self.k, seed=seed)

    def sampling_config(self, num_classes: int, seed: int) -> SamplingConfig:
        rep = self.repetition
        if isinstance(rep, BimodalSpec):
            base = SamplingConfig(self.n, self.s, self.first_occurrence, (), seed)
            return make_bimodal_config(num_classes, rep, base)
        if isinstance(rep, float):
            rep = (rep,) * num_classes
        return SamplingConfig(self.n, self.s, self.first_occurrence, rep, seed)

    def infrequent_classes(self, num_classes: int) -> frozenset[int] | None:
        if not isinstance(self.repetition, BimodalSpec):
            return None
        return frozenset(bimodal_class_split(num_classes, self.repetition)[0])


@dataclass(frozen=True)
class ModelSpec:
    hidden: tuple[int, ...] = (32,)
    activation: str = "relu"

    @classmethod
    def from_dict(cls, d: dict) -> "ModelSpec":
        hidden = _get(d, "hidden", cls.hidden, [int], "model")
        _require(all(h >= 1 for h in hidden), "model.hidden sizes must be >= 1")
        activation = _get(d, "activation", cls.activation, str, "model")
        _require(
            activation in ACTIVATIONS,
            f"model.activation must be one of {ACTIVATIONS}, got {activation!r}",
        )
        _refuse_unread(d, "model")
        return cls(hidden=hidden, activation=activation)


@dataclass(frozen=True)
class AnalysisSpec:
    interpolation: bool = False
    interpolation_points: int = 10
    block_distance: bool = False
    cka: bool = False
    cka_probe_size: int = 512
    cka_probe_seed: int = 0

    @classmethod
    def from_dict(cls, d: dict) -> "AnalysisSpec":
        interp = _get(d, "interpolation", {}, dict, "analysis")
        bd = _get(d, "block_distance", {}, dict, "analysis")
        cka = _get(d, "cka", {}, dict, "analysis")
        spec = cls(
            interpolation=_get(interp, "enabled", cls.interpolation, bool, "analysis.interpolation"),
            interpolation_points=_get(
                interp, "n_points", cls.interpolation_points, int, "analysis.interpolation"
            ),
            block_distance=_get(bd, "enabled", cls.block_distance, bool, "analysis.block_distance"),
            cka=_get(cka, "enabled", cls.cka, bool, "analysis.cka"),
            cka_probe_size=_get(cka, "probe_size", cls.cka_probe_size, int, "analysis.cka"),
            cka_probe_seed=_get(cka, "probe_seed", cls.cka_probe_seed, int, "analysis.cka"),
        )
        _refuse_unread(interp, "analysis.interpolation")
        _refuse_unread(bd, "analysis.block_distance")
        _refuse_unread(cka, "analysis.cka")
        _refuse_unread(d, "analysis")
        _require(spec.interpolation_points >= 2, "analysis.interpolation.n_points must be >= 2")
        _require(spec.cka_probe_size >= 2, "analysis.cka.probe_size must be >= 2")
        _require(spec.cka_probe_seed >= 0, "analysis.cka.probe_seed must be >= 0")
        return spec


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: DatasetSpec
    generator: GeneratorSpec
    strategies: tuple[str, ...]
    buffer_size: int
    buffer_policy: str  # default policy for the bare "er" strategy
    train: TrainConfig
    model: ModelSpec
    seeds: tuple[int, ...]
    output_dir: str
    checkpoint_every: int
    analysis: AnalysisSpec
    raw: dict = field(repr=False, default_factory=dict)

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        _require(isinstance(raw, dict), "config must be a JSON object")
        d = copy.deepcopy(raw)  # the readers' copy, which ``_get`` empties
        version = _get(d, "schema_version", None, int)
        _require(
            version == SCHEMA_VERSION,
            f"config schema_version must be {SCHEMA_VERSION}, got {version!r}",
        )
        dataset = DatasetSpec.from_dict(_get(d, "dataset", _REQUIRED, dict))
        generator = GeneratorSpec.from_dict(_get(d, "generator", _REQUIRED, dict))
        strategies = _get(d, "strategies", _REQUIRED, [str])
        _require(len(strategies) >= 1, "strategies must list at least one strategy")
        for s in strategies:
            _require(s in STRATEGIES, f"unknown strategy {s!r}; expected one of {STRATEGIES}")
        _require(len(set(strategies)) == len(strategies), "strategies must be unique")
        buffer = _get(d, "buffer", {}, dict)
        buffer_size = _get(buffer, "size", 200, int, "buffer")
        buffer_policy = _get(buffer, "policy", "rs", str, "buffer")
        _require(buffer_policy in POLICIES, f"buffer.policy must be one of {POLICIES}")
        _refuse_unread(buffer, "buffer")
        needs_buffer = any(s.startswith("er") for s in strategies)
        if needs_buffer:
            _require(buffer_size >= 1, "buffer.size must be >= 1 for replay strategies")
        train_d = _get(d, "train", {}, dict)
        train = _validated("train", TrainConfig(
            lr=_get(train_d, "lr", TrainConfig.lr, float, "train"),
            epochs_per_experience=_get(
                train_d, "epochs_per_experience", TrainConfig.epochs_per_experience, int, "train"
            ),
            batch_size=_get(train_d, "batch_size", TrainConfig.batch_size, int, "train"),
            replay_mix=_get(train_d, "replay_mix", TrainConfig.replay_mix, float, "train"),
        ))
        _refuse_unread(train_d, "train")
        _require(train.lr > 0, "train.lr must be > 0")
        model = ModelSpec.from_dict(_get(d, "model", {}, dict))
        seeds = _get(d, "seeds", _REQUIRED, [int])
        _require(len(seeds) >= 1, "seeds must list at least one seed")
        _require(len(set(seeds)) == len(seeds), "seeds must be unique")
        output_dir = _get(d, "output_dir", _REQUIRED, str)
        checkpoint_every = _get(d, "checkpoint_every", 0, int)
        _require(checkpoint_every >= 0, "checkpoint_every must be >= 0")
        analysis = AnalysisSpec.from_dict(_get(d, "analysis", {}, dict))
        # a run's own config.json records its digest; the digest is of the rest
        _get(d, "config_digest", None, str)
        _refuse_unread(d)
        return cls(
            dataset=dataset,
            generator=generator,
            strategies=strategies,
            buffer_size=buffer_size,
            buffer_policy=buffer_policy,
            train=train,
            model=model,
            seeds=seeds,
            output_dir=output_dir,
            checkpoint_every=checkpoint_every,
            analysis=analysis,
            raw={k: copy.deepcopy(v) for k, v in raw.items() if k != "config_digest"},
        )

    def digest(self) -> str:
        """Content digest over everything except where outputs land."""
        content = copy.deepcopy(self.raw)
        content.pop("output_dir", None)
        payload = json.dumps(content, sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    def resolve_policy(self, strategy: str) -> str | None:
        if strategy == "naive":
            return None
        if strategy == "er":
            return self.buffer_policy
        return strategy.split("-", 1)[1]


def read_config_file(path) -> dict:
    """The JSON object in the config file at ``path``."""
    try:
        with open(path, encoding="utf-8") as f:
            raw = json.load(f)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except (OSError, ValueError) as exc:  # a directory, bad UTF-8, bad JSON
        raise ConfigError(f"unreadable {path}: {exc}") from exc
    _require(isinstance(raw, dict), f"config must be a JSON object: {path}")
    return raw


def load_config(path, overrides=()) -> ExperimentConfig:
    raw = read_config_file(path)
    for ov in overrides:
        apply_override(raw, ov)
    return ExperimentConfig.from_dict(raw)


def apply_override(raw: dict, override: str) -> None:
    """Apply a 'key.path=value' override in place; values parse as JSON when
    possible, else as strings."""
    if "=" not in override:
        raise ConfigError(f"override must look like key.path=value, got {override!r}")
    path, _, value = override.partition("=")
    keys = [k for k in path.strip().split(".") if k]
    if not keys:
        raise ConfigError(f"override has an empty key path: {override!r}")
    try:
        parsed = json.loads(value)
    except json.JSONDecodeError:
        parsed = value
    node = raw
    for key in keys[:-1]:
        node = node.setdefault(key, {})
        if not isinstance(node, dict):
            raise ConfigError(f"override path {path!r} crosses a non-object value")
    node[keys[-1]] = parsed


def default_config(output_dir: str = "runs/default") -> dict:
    """A complete, runnable example config (also used by `cirsim init`)."""
    return {
        "schema_version": SCHEMA_VERSION,
        "dataset": {
            "kind": "synthetic",
            "num_classes": 10,
            "per_class": 100,
            "dim": 16,
            "spread": 0.5,
            "test_fraction": 0.1,
            "seed": 0,
        },
        "generator": {
            "kind": "sampling",
            "n": 50,
            "s": 100,
            "first_occurrence": {"kind": "geometric", "param": 0.1},
            "repetition": {"mode": "constant", "value": 0.2},
        },
        "strategies": ["naive", "er-rs"],
        "buffer": {"size": 200, "policy": "rs"},
        "train": {"lr": 0.1, "epochs_per_experience": 2, "batch_size": 32, "replay_mix": 0.5},
        "model": {"hidden": [32], "activation": "relu"},
        "seeds": [0, 1, 2],
        "output_dir": output_dir,
        "checkpoint_every": 0,
        "analysis": {
            "interpolation": {"enabled": False, "n_points": 10},
            "block_distance": {"enabled": False},
            "cka": {"enabled": False, "probe_size": 512},
        },
    }


def resolve_output_dir(cfg: ExperimentConfig, env: dict) -> Path:
    """CIRSIM_OUT_ROOT reroots relative output dirs without editing configs."""
    out = Path(cfg.output_dir)
    root = env.get("CIRSIM_OUT_ROOT")
    if root and not out.is_absolute():
        return Path(root) / out
    return out

"""Experiment configuration: a single JSON file with a versioned schema.

Key paths mirror module option names (generator.n, buffer.size,
train.lr, ...) so configs stay grep-able, and every one of them can be
overridden from the command line with --set key.path=value.
"""

import copy
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

from .distributions import PmfSpec
from .learner import ACTIVATIONS, TrainConfig
from .sampling_generator import BimodalSpec, SamplingConfig, bimodal_class_split, make_bimodal_config
from .slot_generator import SlotConfig

SCHEMA_VERSION = 1
STRATEGIES = ("naive", "er", "er-rs", "er-cb", "er-fa")


class ConfigError(ValueError):
    """Invalid experiment config; the message names the violated constraint."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


def _get(d: dict, key: str, default=None, required: bool = False, where: str = ""):
    if key not in d:
        if required:
            raise ConfigError(f"missing required config key: {where}{key}")
        return default
    return d[key]


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
        kind = _get(d, "kind", required=True, where="dataset.")
        _require(kind in ("synthetic", "csv"), f"dataset.kind must be synthetic or csv, got {kind!r}")
        if kind == "csv":
            train_path = _get(d, "train_path", required=True, where="dataset.")
            test_path = _get(d, "test_path", required=True, where="dataset.")
            return cls(kind=kind, train_path=train_path, test_path=test_path)
        spec = cls(
            kind=kind,
            num_classes=int(_get(d, "num_classes", 10)),
            per_class=int(_get(d, "per_class", 100)),
            dim=int(_get(d, "dim", 16)),
            spread=float(_get(d, "spread", 0.5)),
            test_fraction=float(_get(d, "test_fraction", 0.1)),
            seed=int(_get(d, "seed", 0)),
        )
        _require(spec.num_classes >= 2, "dataset.num_classes must be >= 2")
        _require(spec.per_class >= 1, "dataset.per_class must be >= 1")
        _require(spec.dim >= 2, "dataset.dim must be >= 2")
        _require(spec.spread > 0, "dataset.spread must be > 0")
        return spec


@dataclass(frozen=True)
class GeneratorSpec:
    kind: str  # "slot" | "sampling"
    n: int = 5
    k: int = 2
    s: int = 100
    first_occurrence: dict = field(default_factory=lambda: {"kind": "geometric", "param": 0.1})
    repetition: dict = field(default_factory=lambda: {"mode": "constant", "value": 0.2})

    @classmethod
    def from_dict(cls, d: dict) -> "GeneratorSpec":
        kind = _get(d, "kind", required=True, where="generator.")
        _require(kind in ("slot", "sampling"), f"generator.kind must be slot or sampling, got {kind!r}")
        n = int(_get(d, "n", required=True, where="generator."))
        _require(n >= 1, "generator.n must be >= 1")
        if kind == "slot":
            k = int(_get(d, "k", required=True, where="generator."))
            _require(k >= 1, "generator.k must be >= 1")
            return cls(kind=kind, n=n, k=k)
        s = int(_get(d, "s", required=True, where="generator."))
        _require(s >= 1, "generator.s must be >= 1")
        fo = _get(d, "first_occurrence", required=True, where="generator.")
        rep = _get(d, "repetition", required=True, where="generator.")
        mode = _get(rep, "mode", required=True, where="generator.repetition.")
        _require(
            mode in ("constant", "list", "bimodal"),
            f"generator.repetition.mode must be constant, list or bimodal, got {mode!r}",
        )
        if mode == "constant":
            value = float(_get(rep, "value", required=True, where="generator.repetition."))
            _require(0.0 <= value <= 1.0, "generator.repetition.value must lie in [0, 1]")
        elif mode == "list":
            values = _get(rep, "values", required=True, where="generator.repetition.")
            _require(
                all(0.0 <= float(v) <= 1.0 for v in values),
                "generator.repetition.values must lie in [0, 1]",
            )
        else:
            spec = BimodalSpec(
                fraction_infrequent=float(_get(rep, "fraction_infrequent", required=True, where="generator.repetition.")),
                p_low=float(_get(rep, "p_low", required=True, where="generator.repetition.")),
                p_high=float(_get(rep, "p_high", required=True, where="generator.repetition.")),
                assignment_seed=int(_get(rep, "assignment_seed", 0)),
            )
            try:
                spec.validate()
            except ValueError as exc:
                raise ConfigError(f"generator.repetition: {exc}") from exc
        return cls(kind=kind, n=n, s=s, first_occurrence=dict(fo), repetition=dict(rep))

    def slot_config(self, seed: int) -> SlotConfig:
        return SlotConfig(n_experiences=self.n, slots_per_experience=self.k, seed=seed)

    def sampling_config(self, num_classes: int, seed: int) -> SamplingConfig:
        try:
            fo = PmfSpec.from_config(self.first_occurrence, support_len=self.n)
        except ValueError as exc:
            raise ConfigError(f"generator.first_occurrence: {exc}") from exc
        mode = self.repetition["mode"]
        if mode == "constant":
            rep = tuple([float(self.repetition["value"])] * num_classes)
        elif mode == "list":
            values = self.repetition["values"]
            _require(
                len(values) == num_classes,
                f"generator.repetition.values must list one value per class "
                f"({num_classes}), got {len(values)}",
            )
            rep = tuple(float(v) for v in values)
        else:
            base = SamplingConfig(self.n, self.s, fo, tuple([0.0] * num_classes), seed)
            return make_bimodal_config(num_classes, self.bimodal_spec(), base)
        cfg = SamplingConfig(self.n, self.s, fo, rep, seed)
        cfg.validate()
        return cfg

    def bimodal_spec(self) -> BimodalSpec | None:
        if self.kind != "sampling" or self.repetition.get("mode") != "bimodal":
            return None
        rep = self.repetition
        return BimodalSpec(
            fraction_infrequent=float(rep["fraction_infrequent"]),
            p_low=float(rep["p_low"]),
            p_high=float(rep["p_high"]),
            assignment_seed=int(rep.get("assignment_seed", 0)),
        )

    def infrequent_classes(self, num_classes: int) -> frozenset[int] | None:
        spec = self.bimodal_spec()
        if spec is None:
            return None
        infrequent, _ = bimodal_class_split(num_classes, spec)
        return frozenset(infrequent)


@dataclass(frozen=True)
class ModelSpec:
    hidden: tuple[int, ...] = (32,)
    activation: str = "relu"

    @classmethod
    def from_dict(cls, d: dict) -> "ModelSpec":
        hidden = tuple(int(h) for h in _get(d, "hidden", [32]))
        _require(all(h >= 1 for h in hidden), "model.hidden sizes must be >= 1")
        activation = _get(d, "activation", "relu")
        _require(
            activation in ACTIVATIONS,
            f"model.activation must be one of {ACTIVATIONS}, got {activation!r}",
        )
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
        interp = _get(d, "interpolation", {})
        bd = _get(d, "block_distance", {})
        cka = _get(d, "cka", {})
        spec = cls(
            interpolation=bool(_get(interp, "enabled", False)),
            interpolation_points=int(_get(interp, "n_points", 10)),
            block_distance=bool(_get(bd, "enabled", False)),
            cka=bool(_get(cka, "enabled", False)),
            cka_probe_size=int(_get(cka, "probe_size", 512)),
            cka_probe_seed=int(_get(cka, "probe_seed", 0)),
        )
        _require(spec.interpolation_points >= 2, "analysis.interpolation.n_points must be >= 2")
        _require(spec.cka_probe_size >= 2, "analysis.cka.probe_size must be >= 2")
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
        version = raw.get("schema_version")
        _require(
            version == SCHEMA_VERSION,
            f"config schema_version must be {SCHEMA_VERSION}, got {version!r}",
        )
        dataset = DatasetSpec.from_dict(_get(raw, "dataset", required=True))
        generator = GeneratorSpec.from_dict(_get(raw, "generator", required=True))
        strategies = tuple(_get(raw, "strategies", required=True))
        _require(len(strategies) >= 1, "strategies must list at least one strategy")
        for s in strategies:
            _require(s in STRATEGIES, f"unknown strategy {s!r}; expected one of {STRATEGIES}")
        _require(len(set(strategies)) == len(strategies), "strategies must be unique")
        buffer = _get(raw, "buffer", {})
        buffer_size = int(_get(buffer, "size", 200))
        buffer_policy = _get(buffer, "policy", "rs")
        _require(buffer_policy in ("rs", "cb", "fa"), "buffer.policy must be rs, cb or fa")
        needs_buffer = any(s.startswith("er") for s in strategies)
        if needs_buffer:
            _require(buffer_size >= 1, "buffer.size must be >= 1 for replay strategies")
        train_d = _get(raw, "train", {})
        train = TrainConfig(
            lr=float(_get(train_d, "lr", 0.1)),
            epochs_per_experience=int(_get(train_d, "epochs_per_experience", 2)),
            batch_size=int(_get(train_d, "batch_size", 32)),
            replay_mix=float(_get(train_d, "replay_mix", 0.5)),
        )
        try:
            train.validate()
        except ValueError as exc:
            raise ConfigError(f"train: {exc}") from exc
        _require(train.lr > 0, "train.lr must be > 0")
        model = ModelSpec.from_dict(_get(raw, "model", {}))
        seeds = tuple(int(s) for s in _get(raw, "seeds", required=True))
        _require(len(seeds) >= 1, "seeds must list at least one seed")
        _require(len(set(seeds)) == len(seeds), "seeds must be unique")
        output_dir = _get(raw, "output_dir", required=True)
        checkpoint_every = int(_get(raw, "checkpoint_every", 0))
        _require(checkpoint_every >= 0, "checkpoint_every must be >= 0")
        analysis = AnalysisSpec.from_dict(_get(raw, "analysis", {}))
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
            raw=copy.deepcopy(raw),
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


def load_config(path, overrides=()) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as f:
            raw = json.load(f)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
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

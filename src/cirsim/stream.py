"""Datasets, experiences and streams.

A stream is an ordered list of experiences, each referring to instances of a
single source dataset by index. Instance indices (not copies) keep long
streams with repetition memory-proportional to the dataset.
"""

import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass

import numpy as np

from . import files


class DanglingInstanceError(ValueError):
    """An experience references an instance index outside the dataset."""


@dataclass(frozen=True)
class LabeledDataset:
    """Class-indexed pool of (feature vector, class id) instances."""

    features: np.ndarray  # (n, dim) float64
    labels: np.ndarray  # (n,) int64 in [0, num_classes)
    num_classes: int

    def __post_init__(self):
        features = np.ascontiguousarray(np.asarray(self.features, dtype=np.float64))
        labels = np.ascontiguousarray(np.asarray(self.labels, dtype=np.int64))
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels)
        if features.ndim != 2:
            raise ValueError("features must be a 2-D array (instances x dims)")
        if labels.shape != (features.shape[0],):
            raise ValueError("labels must have one entry per instance")
        if labels.size and (labels.min() < 0 or labels.max() >= self.num_classes):
            raise ValueError("labels must lie in [0, num_classes)")

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    @property
    def class_counts(self) -> np.ndarray:
        """Number of instances of each class id, read-only. Computed on first
        access and cached."""
        cached = self.__dict__.get("_class_counts")
        if cached is None:
            cached = np.bincount(self.labels, minlength=self.num_classes)
            cached.flags.writeable = False
            object.__setattr__(self, "_class_counts", cached)
        return cached

    @property
    def per_class_index(self) -> dict[int, np.ndarray]:
        """Map class id -> ascending array of instance indices, covering all
        classes. Computed on first access and cached; the arrays are
        read-only, so callers copy before shuffling."""
        cached = self.__dict__.get("_per_class_index")
        if cached is None:
            # a stable sort keeps each class's indices ascending
            order = np.argsort(self.labels, kind="stable")
            order.flags.writeable = False
            pools = np.split(order, np.cumsum(self.class_counts)[:-1])
            cached = dict(zip(range(self.num_classes), pools))
            object.__setattr__(self, "_per_class_index", cached)
        return cached

    def digest(self) -> str:
        h = hashlib.sha256()
        h.update(np.int64(self.num_classes).tobytes())
        h.update(self.labels.tobytes())
        h.update(self.features.tobytes())
        return h.hexdigest()


@dataclass(frozen=True)
class Provenance:
    """How an experience was built.

    kind "slot_assignment": ``slots`` lists (class id, chunk id) pairs.
    kind "occurrence_column": ``column`` is the 0/1 presence column.
    """

    kind: str
    slots: tuple[tuple[int, int], ...] | None = None
    column: tuple[int, ...] | None = None

    def to_dict(self) -> dict:
        d = {"kind": self.kind}
        if self.slots is not None:
            d["slots"] = [list(s) for s in self.slots]
        if self.column is not None:
            d["column"] = list(self.column)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "Provenance":
        return cls(
            kind=d["kind"],
            slots=tuple(tuple(s) for s in d["slots"]) if "slots" in d else None,
            column=tuple(d["column"]) if "column" in d else None,
        )


@dataclass(frozen=True)
class Experience:
    index: int
    train_instances: np.ndarray  # instance indices into the source dataset
    present_classes: frozenset[int]
    provenance: Provenance
    flags: tuple[str, ...] = ()

    def __post_init__(self):
        inst = np.ascontiguousarray(np.asarray(self.train_instances, dtype=np.int64))
        object.__setattr__(self, "train_instances", inst)
        object.__setattr__(self, "present_classes", frozenset(int(c) for c in self.present_classes))

    def __len__(self) -> int:
        return self.train_instances.size


def make_experience(index, instances, dataset: LabeledDataset, provenance, flags=()) -> Experience:
    """Build an experience, deriving present_classes from the instance labels."""
    instances = np.asarray(instances, dtype=np.int64)
    _check_instances(instances, len(dataset))
    present = frozenset(int(c) for c in np.unique(dataset.labels[instances]))
    return Experience(index, instances, present, provenance, tuple(flags))


def _check_instances(instances: np.ndarray, n: int) -> None:
    if instances.size and (instances.min() < 0 or instances.max() >= n):
        raise DanglingInstanceError(
            f"instance index out of range [0, {n}): "
            f"min={instances.min()}, max={instances.max()}"
        )


@dataclass(frozen=True)
class Stream:
    experiences: tuple[Experience, ...]
    dataset_ref: str
    generator_config_hash: str
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "experiences", tuple(self.experiences))
        for i, exp in enumerate(self.experiences):
            if exp.index != i:
                raise ValueError("experience indices must be consecutive from 0")

    def __len__(self) -> int:
        return len(self.experiences)

    def __iter__(self):
        return iter(self.experiences)

    def to_manifest(self) -> dict:
        return {
            "schema_version": 1,
            "dataset_ref": self.dataset_ref,
            "generator_config_hash": self.generator_config_hash,
            "notes": list(self.notes),
            "experiences": [
                {
                    "index": e.index,
                    "instances": e.train_instances.tolist(),
                    "present_classes": sorted(e.present_classes),
                    "provenance": e.provenance.to_dict(),
                    "flags": list(e.flags),
                }
                for e in self.experiences
            ],
        }

    @classmethod
    def from_manifest(cls, manifest: dict) -> "Stream":
        if manifest.get("schema_version") != 1:
            raise ValueError("unsupported stream manifest schema_version")
        exps = tuple(
            Experience(
                index=e["index"],
                train_instances=np.asarray(e["instances"], dtype=np.int64),
                present_classes=frozenset(e["present_classes"]),
                provenance=Provenance.from_dict(e["provenance"]),
                flags=tuple(e.get("flags", ())),
            )
            for e in manifest["experiences"]
        )
        return cls(
            experiences=exps,
            dataset_ref=manifest["dataset_ref"],
            generator_config_hash=manifest["generator_config_hash"],
            notes=tuple(manifest.get("notes", ())),
        )

    def manifest_text(self, config_digest: str | None = None) -> str:
        """The manifest as ``json.dumps(indent=1)`` text and a newline;
        ``config_digest``, when given, is stored as its last key."""
        manifest = self.to_manifest()
        if config_digest is not None:
            manifest["config_digest"] = config_digest
        return _indented_json(manifest, 0) + "\n"

    def save_manifest(self, path, config_digest: str | None = None) -> None:
        files.write_atomic(path, self.manifest_text(config_digest))


def _indented_json(value, depth: int) -> str:
    """``json.dumps(value, indent=1)`` of a value nested ``depth`` levels deep
    in the document. Strings, floats and keys go through ``json.dumps``; a
    list of plain ints, the bulk of a manifest, is joined from ``str``s, where
    ``json.dumps(indent=...)`` would run its pure-Python encoder per int."""
    if isinstance(value, (dict, list)) and value:
        inner = ",\n" + " " * (depth + 1)
        if isinstance(value, dict):
            items = (f"{json.dumps(k)}: {_indented_json(v, depth + 1)}" for k, v in value.items())
        elif set(map(type, value)) == {int}:  # not bool, whose JSON is true/false
            items = map(str, value)
        else:
            items = (_indented_json(v, depth + 1) for v in value)
        opening, closing = "{}" if isinstance(value, dict) else "[]"
        return f"{opening}{inner[1:]}{inner.join(items)}\n{' ' * depth}{closing}"
    return json.dumps(value)


def make_synthetic_dataset(
    num_classes: int,
    per_class: int,
    dim: int,
    spread: float,
    rng: np.random.Generator,
    test_fraction: float = 0.1,
) -> tuple[LabeledDataset, LabeledDataset]:
    """Gaussian class clusters around well-separated centers.

    Returns a (train, test) pair drawn around the same centers; the test
    split holds max(1, round(test_fraction * per_class)) fresh instances
    per class. Linearly separable for small ``spread``.
    """
    if num_classes < 2:
        raise ValueError("need at least 2 classes")
    if per_class < 1:
        raise ValueError("need at least 1 instance per class")
    if dim < 2:
        raise ValueError("need feature dimension >= 2")
    centers = _separated_centers(num_classes, dim, rng)
    test_per_class = max(1, round(test_fraction * per_class))
    train = _sample_clusters(centers, per_class, spread, rng)
    test = _sample_clusters(centers, test_per_class, spread, rng)
    return train, test


def _separated_centers(num_classes, dim, rng, min_sep: float = 3.0) -> np.ndarray:
    centers = np.empty((num_classes, dim))
    count, tries, sep = 0, 0, min_sep
    while count < num_classes:
        cand = rng.normal(scale=2.0, size=dim)
        if count == 0 or np.linalg.norm(centers[:count] - cand, axis=1).min() >= sep:
            centers[count] = cand
            count += 1
            tries = 0
        else:
            tries += 1
            if tries > 200:
                sep *= 0.95  # crowded low-dim settings: relax gradually
                tries = 0
    return centers


def _sample_clusters(centers, per_class, spread, rng) -> LabeledDataset:
    # one draw fills the classes in order, as a draw per class would; the
    # centres are added in place (IEEE addition commutes, so the bytes match)
    num_classes, dim = centers.shape
    features = rng.normal(scale=spread, size=(num_classes, per_class, dim))
    features += centers[:, None, :]
    labels = np.repeat(np.arange(num_classes, dtype=np.int64), per_class)
    return LabeledDataset(features.reshape(-1, dim), labels, num_classes)


@dataclass
class PropertyReport:
    """Pairwise overlap and coverage statistics for a stream (Table-1 style)."""

    n_experiences: int
    n_pairs: int
    max_instance_overlap: int
    max_concept_overlap: int
    instances_pairwise_disjoint: bool
    concepts_pairwise_disjoint: bool
    domain_coverage: bool
    codomain_coverage: bool
    covered_instance_fraction: float
    covered_class_fraction: float
    every_experience_full_codomain: bool
    classification: str


def verify_scenario_properties(stream: Stream, dataset: LabeledDataset) -> PropertyReport:
    """Classify a stream as CI, DI or CIR from its overlap/coverage profile.

    CI: pairwise-disjoint instances and concepts with full coverage of both.
    DI: pairwise-disjoint instances, every class in every experience.
    Anything else (overlaps allowed, partial coverage allowed) is CIR.
    """
    n = len(dataset)
    n_exp = len(stream)
    incidence = np.zeros((n, n_exp), dtype=np.float32)
    presence = np.zeros((dataset.num_classes, n_exp), dtype=np.float32)
    for e in stream:
        _check_instances(e.train_instances, n)
        incidence[np.unique(e.train_instances), e.index] = 1.0
        presence[sorted(e.present_classes), e.index] = 1.0

    instance_overlap = (incidence.T @ incidence).astype(np.int64)
    concept_overlap = (presence.T @ presence).astype(np.int64)
    off = ~np.eye(n_exp, dtype=bool)
    max_io = int(instance_overlap[off].max()) if n_exp > 1 else 0
    max_co = int(concept_overlap[off].max()) if n_exp > 1 else 0

    covered_inst = float((incidence.sum(axis=1) > 0).mean()) if n else 1.0
    covered_cls = float((presence.sum(axis=1) > 0).mean())
    full_codomain = bool((presence.sum(axis=0) == dataset.num_classes).all())

    inst_disjoint = max_io == 0
    concept_disjoint = max_co == 0
    domain_cov = covered_inst == 1.0
    codomain_cov = covered_cls == 1.0

    if inst_disjoint and concept_disjoint and domain_cov and codomain_cov:
        classification = "CI"
    elif inst_disjoint and full_codomain and domain_cov:
        classification = "DI"
    else:
        classification = "CIR"

    return PropertyReport(
        n_experiences=n_exp,
        n_pairs=n_exp * (n_exp - 1),
        max_instance_overlap=max_io,
        max_concept_overlap=max_co,
        instances_pairwise_disjoint=inst_disjoint,
        concepts_pairwise_disjoint=concept_disjoint,
        domain_coverage=domain_cov,
        codomain_coverage=codomain_cov,
        covered_instance_fraction=covered_inst,
        covered_class_fraction=covered_cls,
        every_experience_full_codomain=full_codomain,
        classification=classification,
    )


def save_dataset_csv(dataset: LabeledDataset, path) -> None:
    """One row per instance: label, then feature values."""
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(["label"] + [f"f{i}" for i in range(dataset.dim)])
    for label, feats in zip(dataset.labels, dataset.features):
        writer.writerow([int(label)] + [repr(float(v)) for v in feats])
    files.write_atomic(path, text.getvalue())


def load_dataset_csv(path, num_classes: int | None = None) -> LabeledDataset:
    """Read a dataset written by ``save_dataset_csv``. Labels must lie in
    [0, ``num_classes``); without it, the class count is the largest label
    plus one. A row that does not parse, holds a non-finite feature, has
    another feature count than the first row or an out-of-range label raises
    ``ValueError`` naming the file and line."""
    labels, rows = [], []
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        for row in reader:
            if not row or row[0] == "label":
                continue
            where = f"{path}, line {reader.line_num}"
            try:
                label, features = int(row[0]), [float(v) for v in row[1:]]
            except ValueError as exc:
                raise ValueError(f"{exc} in {where}") from None
            if not all(map(math.isfinite, features)):
                raise ValueError(f"non-finite feature in {where}")
            if rows and len(features) != len(rows[0]):
                raise ValueError(
                    f"{len(features)} features in {where}; the rows before it have "
                    f"{len(rows[0])}"
                )
            if label < 0 or (num_classes is not None and label >= num_classes):
                bound = "num_classes" if num_classes is None else num_classes
                raise ValueError(f"label {label} in {where} lies outside [0, {bound})")
            labels.append(label)
            rows.append(features)
    if not rows:
        raise ValueError(f"no instances found in {path}")
    labels = np.asarray(labels, dtype=np.int64)
    if num_classes is None:
        num_classes = int(labels.max()) + 1
    return LabeledDataset(np.asarray(rows), labels, num_classes)

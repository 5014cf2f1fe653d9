"""Occurrence-matrix stream generator.

A C x N binary matrix decides which classes appear in each experience: class
c first occurs at an index drawn from a first-occurrence PMF, then reappears
in every later experience independently with probability repetition[c].
Experience data is then drawn from the class pools, floor(S / #present)
instances per present class, uniformly with replacement across experiences
(never within one), so old instances naturally recur.

Bimodal configs split the classes into an infrequent and a frequent mode
with distinct repetition probabilities, producing unbalanced streams.
"""

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from .distributions import PmfSpec, materialize_pmf, sample_index
from .stream import LabeledDataset, Provenance, Stream, make_experience


@dataclass(frozen=True)
class SamplingConfig:
    n_experiences: int
    experience_size: int
    first_occurrence: PmfSpec
    repetition: tuple[float, ...]  # one probability per class
    seed: int = 0

    def validate(self) -> None:
        if self.n_experiences < 1:
            raise ValueError("n_experiences must be >= 1")
        if self.experience_size < 1:
            raise ValueError("experience_size must be >= 1")
        if self.first_occurrence.support_len != self.n_experiences:
            raise ValueError("first_occurrence support_len must equal n_experiences")
        self.first_occurrence.validate()
        rep = np.asarray(self.repetition, dtype=float)
        if rep.ndim != 1 or rep.size == 0:
            raise ValueError("repetition must list one probability per class")
        if not np.all(np.isfinite(rep)) or np.any(rep < 0) or np.any(rep > 1):
            raise ValueError("repetition probabilities must lie in [0, 1]")

    @property
    def num_classes(self) -> int:
        return len(self.repetition)

    def config_dict(self) -> dict:
        return {
            "generator": "sampling",
            "n": self.n_experiences,
            "s": self.experience_size,
            "first_occurrence": self.first_occurrence.to_config(),
            "repetition": list(self.repetition),
            "seed": self.seed,
        }

    def config_hash(self, dataset_ref: str) -> str:
        payload = json.dumps(
            {**self.config_dict(), "dataset": dataset_ref}, sort_keys=True
        )
        return hashlib.sha256(payload.encode()).hexdigest()


@dataclass(frozen=True)
class BimodalSpec:
    """Two repetition modes: a fraction of classes repeat rarely (p_low),
    the rest often (p_high)."""

    fraction_infrequent: float
    p_low: float
    p_high: float
    assignment_seed: int = 0

    def validate(self) -> None:
        if not 0.0 <= self.fraction_infrequent <= 1.0:
            raise ValueError("fraction_infrequent must lie in [0, 1]")
        for name, p in (("p_low", self.p_low), ("p_high", self.p_high)):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        if self.p_low > self.p_high:
            raise ValueError("p_low must be <= p_high")


def bimodal_class_split(num_classes: int, spec: BimodalSpec) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Disjoint (infrequent, frequent) class-id partition, deterministic in
    the assignment seed. The infrequent side has floor(fraction * C) classes."""
    spec.validate()
    n_inf = int(spec.fraction_infrequent * num_classes)
    rng = np.random.default_rng(spec.assignment_seed)
    perm = rng.permutation(num_classes)
    infrequent = tuple(sorted(int(c) for c in perm[:n_inf]))
    frequent = tuple(sorted(int(c) for c in perm[n_inf:]))
    return infrequent, frequent


def make_bimodal_config(num_classes: int, spec: BimodalSpec, base: SamplingConfig) -> SamplingConfig:
    infrequent, _ = bimodal_class_split(num_classes, spec)
    rep = np.full(num_classes, spec.p_high)
    rep[list(infrequent)] = spec.p_low
    return SamplingConfig(
        n_experiences=base.n_experiences,
        experience_size=base.experience_size,
        first_occurrence=base.first_occurrence,
        repetition=tuple(float(p) for p in rep),
        seed=base.seed,
    )


@dataclass(frozen=True)
class OccurrenceMatrix:
    matrix: np.ndarray  # (C, N) of 0/1
    first_occurrence_index: np.ndarray  # (C,)
    repair_notes: tuple[str, ...] = ()

    @property
    def num_classes(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_experiences(self) -> int:
        return self.matrix.shape[1]

    def present_classes(self, experience: int) -> np.ndarray:
        return np.flatnonzero(self.matrix[:, experience])


def build_occurrence_matrix(cfg: SamplingConfig, rng: np.random.Generator) -> OccurrenceMatrix:
    """Sample first occurrences, then per-class Bernoulli repetition.

    Empty columns are repaired (an empty training experience is useless):
    their Bernoulli entries are re-drawn once; if still empty, the most
    recently seen class is inserted. A column before any first occurrence
    instead pulls the earliest-occurring class forward to it.
    """
    cfg.validate()
    c_count, n = cfg.num_classes, cfg.n_experiences
    pmf = materialize_pmf(cfg.first_occurrence)
    matrix = np.zeros((c_count, n), dtype=np.int8)
    foi = np.empty(c_count, dtype=np.int64)
    for c in range(c_count):
        i = sample_index(pmf, rng)
        foi[c] = i
        matrix[c, i] = 1
        if i + 1 < n:
            matrix[c, i + 1 :] = rng.random(n - i - 1) < cfg.repetition[c]

    notes = []
    for j in range(n):
        if matrix[:, j].any():
            continue
        seen = np.flatnonzero(foi < j)
        for c in seen:
            matrix[c, j] = rng.random() < cfg.repetition[c]
        if matrix[:, j].any():
            notes.append(f"column {j}: repaired by re-drawing repetition entries")
            continue
        if seen.size:
            last_occ = np.array([matrix[c, :j].nonzero()[0][-1] for c in seen])
            pick = seen[np.lexsort((seen, -last_occ))][0]
            matrix[pick, j] = 1
            notes.append(f"column {j}: inserted most recently seen class {pick}")
        else:
            pick = int(np.lexsort((np.arange(c_count), foi))[0])
            matrix[pick, j] = 1
            foi[pick] = j
            notes.append(f"column {j}: pulled first occurrence of class {pick} forward")
    return OccurrenceMatrix(matrix=matrix, first_occurrence_index=foi, repair_notes=tuple(notes))


def realize_stream(
    dataset: LabeledDataset,
    occurrence: OccurrenceMatrix,
    cfg: SamplingConfig,
    rng: np.random.Generator,
) -> Stream:
    """Draw experience datasets according to the occurrence matrix."""
    if occurrence.num_classes != dataset.num_classes:
        raise ValueError("occurrence matrix classes do not match dataset")
    pools = dataset.per_class_index
    for c in range(dataset.num_classes):
        if pools[c].size == 0:
            raise ValueError(f"class {c} has no instances in the dataset")

    s = cfg.experience_size
    dataset_ref = dataset.digest()
    notes = list(occurrence.repair_notes)
    experiences = []
    for i in range(occurrence.n_experiences):
        present = occurrence.present_classes(i)
        if present.size == 0:
            raise ValueError(f"occurrence matrix column {i} is empty")
        quota = s // present.size
        picks, flags = [], []
        for c in present:
            pool = pools[int(c)]
            if pool.size >= quota:
                picks.append(rng.choice(pool, size=quota, replace=False))
            else:
                picks.append(pool.copy())
                flags.append(f"class {int(c)} pool ({pool.size}) below quota ({quota})")
        instances = np.concatenate(picks)
        rng.shuffle(instances)
        prov = Provenance(kind="occurrence_column", column=tuple(int(v) for v in occurrence.matrix[:, i]))
        experiences.append(make_experience(i, instances, dataset, prov, flags=tuple(flags)))
        notes.extend(f"experience {i}: {msg}" for msg in flags)

    return Stream(
        experiences=tuple(experiences),
        dataset_ref=dataset_ref,
        generator_config_hash=cfg.config_hash(dataset_ref),
        notes=tuple(notes),
    )


def generate_sampling_stream(
    dataset: LabeledDataset, cfg: SamplingConfig, rng: np.random.Generator | None = None
) -> tuple[Stream, OccurrenceMatrix]:
    """Convenience wrapper: build the occurrence matrix and realize the stream."""
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    occurrence = build_occurrence_matrix(cfg, rng)
    return realize_stream(dataset, occurrence, cfg, rng), occurrence

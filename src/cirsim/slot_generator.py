"""Slot-based stream generator.

Builds streams of N experiences, each made of K single-class slots, such
that every dataset instance appears exactly once in the stream. K controls
the amount of concept repetition: K = C/N gives a class-incremental stream,
K = C a domain-incremental one, anything in between is CIR. N*K < C is
rejected, since some class would get no slot.

Each class contributes floor(N*K/C) or ceil(N*K/C) chunks (exact counts when
C divides N*K evenly); a class's pool is split across its chunks with any
remainder spread one instance per chunk over the earliest chunks, so no
instance is dropped or duplicated.
"""

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from .stream import LabeledDataset, Provenance, Stream, make_experience


class InfeasibleSlotConfig(ValueError):
    pass


@dataclass(frozen=True)
class SlotConfig:
    n_experiences: int
    slots_per_experience: int
    seed: int = 0

    def validate(self, dataset: LabeledDataset) -> None:
        n, k, c = self.n_experiences, self.slots_per_experience, dataset.num_classes
        if n < 1:
            raise InfeasibleSlotConfig("n_experiences must be >= 1")
        if k < 1:
            raise InfeasibleSlotConfig("slots_per_experience must be >= 1")
        if k > c:
            raise InfeasibleSlotConfig(
                f"slots_per_experience must be <= num_classes "
                f"(at most one slot per class per experience): K={k} > C={c}"
            )
        if n * k < c:
            raise InfeasibleSlotConfig(
                f"n_experiences * slots_per_experience must be >= num_classes "
                f"(every class needs at least one slot): N*K={n * k} < C={c}"
            )
        max_chunks = -(-n * k // c)  # ceil
        for cls, idx in dataset.per_class_index.items():
            if len(idx) < max_chunks:
                raise InfeasibleSlotConfig(
                    f"class {cls} has {len(idx)} instances but may need "
                    f"{max_chunks} non-empty chunks"
                )

    def config_hash(self, dataset_ref: str) -> str:
        payload = json.dumps(
            {
                "generator": "slot",
                "n": self.n_experiences,
                "k": self.slots_per_experience,
                "seed": self.seed,
                "dataset": dataset_ref,
            },
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode()).hexdigest()


def _class_chunks(dataset, chunk_counts, rng):
    """Partition each class pool into its chunk count; returns a flat list
    of (class_id, chunk_id, index array) covering every instance once."""
    pools = dataset.per_class_index
    chunks = []
    for c in range(dataset.num_classes):
        pool = pools[c].copy()
        rng.shuffle(pool)
        k = chunk_counts[c]
        base, rem = divmod(len(pool), k)
        start = 0
        for j in range(k):
            size = base + (1 if j < rem else 0)
            chunks.append((c, j, pool[start : start + size]))
            start += size
    return chunks


def _assign_chunks(chunks, n_experiences, slots_per_exp, n_classes, rng):
    """Deal chunks into experiences, K per experience, distinct classes
    within each. Random rejection sampling bounded by C retries, then a
    deterministic scan, then a swap repair against earlier experiences.
    Returns the experiences, or None when a slot cannot be filled."""
    remaining = list(chunks)
    rng.shuffle(remaining)
    experiences: list[list] = []
    for _ in range(n_experiences):
        slots = []
        used = set()
        for _ in range(slots_per_exp):
            picked = None
            for _ in range(n_classes):
                if not remaining:
                    break
                pos = int(rng.integers(len(remaining)))
                if remaining[pos][0] not in used:
                    picked = remaining.pop(pos)
                    break
            if picked is None:
                for pos, cand in enumerate(remaining):
                    if cand[0] not in used:
                        picked = remaining.pop(pos)
                        break
            if picked is None:
                picked = _swap_repair(experiences, remaining, used)
            if picked is None:
                return None
            slots.append(picked)
            used.add(picked[0])
        experiences.append(slots)
    return experiences


def _swap_repair(experiences, remaining, used):
    """All remaining chunks collide with ``used``: trade one into an earlier
    experience in exchange for a chunk that fits here."""
    for exp_slots in experiences:
        exp_classes = {ch[0] for ch in exp_slots}
        for slot_pos, chunk in enumerate(exp_slots):
            if chunk[0] in used:
                continue
            for pos, cand in enumerate(remaining):
                if cand[0] != chunk[0] and cand[0] not in exp_classes:
                    exp_slots[slot_pos] = remaining.pop(pos)
                    return chunk
    return None


def generate_slot_stream(dataset: LabeledDataset, cfg: SlotConfig) -> Stream:
    cfg.validate(dataset)
    n, k, c = cfg.n_experiences, cfg.slots_per_experience, dataset.num_classes
    rng = np.random.default_rng(cfg.seed)

    total_chunks = n * k
    base, rem = divmod(total_chunks, c)
    chunk_counts = np.full(c, base, dtype=int)
    if rem:
        extra = rng.permutation(c)[:rem]
        chunk_counts[extra] += 1
    chunks = _class_chunks(dataset, chunk_counts, rng)

    for attempt in range(20):
        assignment = _assign_chunks(list(chunks), n, k, c, rng)
        if assignment is not None:
            break
    if assignment is None:
        raise RuntimeError("could not assign slots with distinct classes per experience")

    dataset_ref = dataset.digest()
    experiences = []
    for i, slots in enumerate(assignment):
        instances = np.concatenate([ch[2] for ch in slots])
        prov = Provenance(kind="slot_assignment", slots=tuple((ch[0], ch[1]) for ch in slots))
        experiences.append(make_experience(i, instances, dataset, prov))
    return Stream(
        experiences=tuple(experiences),
        dataset_ref=dataset_ref,
        generator_config_hash=cfg.config_hash(dataset_ref),
        notes=(f"slot generator: n={n} k={k}",),
    )

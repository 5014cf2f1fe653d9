"""Bounded rehearsal memories with three storage policies.

reservoir (rs): classic reservoir sampling over the item stream; after n >= M
    items every item has inclusion probability M/n, so the buffer mirrors the
    stream's class distribution.
class-balanced (cb): an equal quota per seen class, earliest-seen classes
    absorbing the remainder slots; per-class reservoir updates within quotas.
frequency-aware (fa): per-class quota proportional to the inverse of the
    class's observation count (experiences in which it appeared), so rarely
    repeating classes hold more of the buffer; unused capacity is refilled
    from the most frequently observed classes.

Buffers store instance indices into the source dataset; features are looked
up at replay time.
"""

import math
from dataclasses import dataclass, field

import numpy as np

POLICIES = ("rs", "cb", "fa")


def frequency_aware_quotas(observations: dict[int, int], max_size: int) -> dict[int, int]:
    """Per-class slot targets: ceil(normalized 1/observations * max_size),
    trimmed until they sum to max_size.

    The trim is that of taking one slot at a time from the class with the
    most observations (ties: larger current slot count, then lower class
    id), which preserves the bias toward infrequent classes. Classes of one
    observation count start with equal slots (equal inverses round up
    alike), so that order trims level by level, most observed first: a
    level whose slots fit in the excess is zeroed, and the last one is
    lowered evenly, its lowest class ids giving one slot more.
    """
    if not observations:
        return {}
    classes = sorted(observations)
    inv = {c: 1.0 / observations[c] for c in classes}
    total = sum(inv.values())
    slots = {c: math.ceil(inv[c] / total * max_size) for c in classes}
    excess = sum(slots.values()) - max_size
    levels: dict[int, list[int]] = {}
    for c in classes:
        levels.setdefault(observations[c], []).append(c)
    for count in sorted(levels, reverse=True):
        if excess <= 0:
            break
        level = levels[count]
        height = slots[level[0]]
        take = min(excess, height * len(level))
        rounds, extra = divmod(take, len(level))
        for i, c in enumerate(level):
            slots[c] = height - rounds - (i < extra)
        excess -= take
    return slots


def class_balanced_quotas(seen_order: list[int], max_size: int) -> dict[int, int]:
    """floor(M / #seen) per class; the M mod #seen leftover slots go to the
    earliest-seen classes."""
    if not seen_order:
        return {}
    base, rem = divmod(max_size, len(seen_order))
    return {c: base + (1 if i < rem else 0) for i, c in enumerate(seen_order)}


@dataclass
class BufferComposition:
    per_class: dict[int, int]
    total: int
    infrequent_ratio: float
    empty: bool


def _reservoir(
    store: np.ndarray, incoming: np.ndarray, seen: int, cap: int, rng: np.random.Generator
) -> np.ndarray:
    """``store`` (at most ``cap`` items, ``seen`` streamed so far) after
    reservoir sampling ``incoming``. Free slots take items first; then the
    item at stream position t (1-based) claims slot rng[0,t), and slots <
    cap both accept (prob cap/t) and name the victim. One offset at a time:
    a slot claimed twice keeps the later item."""
    fill = min(cap - store.size, incoming.size)
    out = np.concatenate([store, incoming[:fill]])
    if fill < incoming.size and cap > 0:
        positions = seen + fill + 1 + np.arange(incoming.size - fill)
        slots = rng.integers(0, positions)
        for off in np.flatnonzero(slots < cap):
            out[slots[off]] = incoming[fill + off]
    return out


def _subsample(items: np.ndarray, size: int, rng: np.random.Generator) -> np.ndarray:
    """``size`` of ``items`` drawn without replacement, in their stored order."""
    return items[np.sort(rng.choice(len(items), size=size, replace=False))]


@dataclass(eq=False)
class ReplayBuffer:
    """Bounded sample store plus per-class observation counts.

    What it stores is two parallel read-only int64 arrays, ``instances`` and
    ``labels``. For ``rs`` they are the store itself, in reservoir slot
    order. ``cb``/``fa`` keep ``_store``, each seen class's instances in
    insertion order, and lay the arrays out from it class by class after
    every update. Classes are first-seen ordered: ``observations`` (and
    ``_store``) gain a class when it is first streamed.
    """

    max_size: int
    policy: str
    observations: dict[int, int] = field(init=False, default_factory=dict)
    rs_seen_count: int = field(init=False, default=0)
    instances: np.ndarray = field(init=False, repr=False)
    labels: np.ndarray = field(init=False, repr=False)
    _store: dict[int, np.ndarray] = field(init=False, default_factory=dict, repr=False)  # cb/fa
    _cb_class_seen: dict[int, int] = field(init=False, default_factory=dict)  # items streamed per class
    _quotas: dict[int, int] | None = field(init=False, repr=False)

    def __post_init__(self):
        if self.policy not in POLICIES:
            raise ValueError(f"unknown buffer policy {self.policy!r}")
        if self.max_size < 1:
            raise ValueError("buffer max_size must be >= 1")
        empty = np.empty(0, dtype=np.int64)
        self._set_arrays(empty, empty)
        self._quotas = self._compute_quotas()

    # -- views -------------------------------------------------------------

    def counts(self) -> dict[int, int]:
        """Stored items per class, in class order."""
        sizes = np.bincount(self.labels)
        classes = np.flatnonzero(sizes)
        return dict(zip(classes.tolist(), sizes[classes].tolist()))

    def total_stored(self) -> int:
        return int(self.labels.size)

    def stored_instances_and_labels(self) -> tuple[np.ndarray, np.ndarray]:
        return self.instances, self.labels

    def quotas(self) -> dict[int, int] | None:
        """Per-class slot targets as of the last update; None for the
        reservoir policy."""
        return self._quotas

    def sample(
        self, k: int | tuple[int, ...], rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        """Uniform draw (with replacement) of stored items; ``k`` is a count
        or a shape. One draw of shape (n, k) equals n draws of k, values and
        rng state alike."""
        if self.instances.size == 0:
            raise ValueError("cannot sample from an empty buffer")
        pick = rng.integers(self.instances.size, size=k)
        return self.instances[pick], self.labels[pick]

    # -- resume state --------------------------------------------------------

    def to_state(self) -> dict:
        """JSON-ready state from which ``from_state`` rebuilds this buffer."""
        rs = self.policy == "rs"
        return {
            "policy": self.policy,
            "max_size": self.max_size,
            "store": {str(c): items.tolist() for c, items in self._store.items()},
            "seen_order": list(self.observations),
            "observations": {str(c): n for c, n in self.observations.items()},
            "rs_seen_count": self.rs_seen_count,
            "rs_items": np.column_stack([self.instances, self.labels]).tolist() if rs else [],
            "cb_class_seen": {str(c): n for c, n in self._cb_class_seen.items()},
        }

    @classmethod
    def from_state(cls, state: dict) -> "ReplayBuffer":
        buf = cls(max_size=state["max_size"], policy=state["policy"])
        order = state["seen_order"]
        buf.observations = {c: state["observations"][str(c)] for c in order}
        buf.rs_seen_count = state["rs_seen_count"]
        buf._cb_class_seen = {int(c): n for c, n in state["cb_class_seen"].items()}
        if buf.policy == "rs":
            pairs = np.array(state["rs_items"], dtype=np.int64).reshape(-1, 2)
            buf._set_arrays(pairs[:, 0], pairs[:, 1])
        else:
            store = state["store"]
            buf._store = {c: np.array(store[str(c)], dtype=np.int64) for c in order}
            buf._lay_out()
        buf._quotas = buf._compute_quotas()
        return buf

    # -- updates -----------------------------------------------------------

    def _set_arrays(self, instances: np.ndarray, labels: np.ndarray) -> None:
        instances.flags.writeable = False
        labels.flags.writeable = False
        self.instances, self.labels = instances, labels

    def _lay_out(self) -> None:
        """``instances``/``labels`` from ``_store``, class by class."""
        store = self._store
        empty = np.empty(0, dtype=np.int64)
        labels = np.repeat(
            np.fromiter(store, dtype=np.int64, count=len(store)), [a.size for a in store.values()]
        )
        self._set_arrays(np.concatenate([empty, *store.values()]), labels)

    def _compute_quotas(self) -> dict[int, int] | None:
        if self.policy == "cb":
            return class_balanced_quotas(list(self.observations), self.max_size)
        if self.policy == "fa":
            return frequency_aware_quotas(self.observations, self.max_size)
        return None

    def update(self, instances: np.ndarray, labels: np.ndarray, rng: np.random.Generator) -> None:
        instances = np.asarray(instances, dtype=np.int64)
        labels = np.asarray(labels, dtype=np.int64)
        if instances.shape != labels.shape:
            raise ValueError("instances and labels must align")
        if instances.size == 0:
            return
        present = np.unique(labels).tolist()
        for c in present:
            self.observations[c] = self.observations.get(c, 0) + 1
        self._quotas = self._compute_quotas()
        if self.policy == "rs":
            # on row ids (old rows, then new), so instances and labels move together
            size = self.instances.size
            rows = _reservoir(
                np.arange(size), size + np.arange(instances.size),
                self.rs_seen_count, self.max_size, rng,
            )
            self.rs_seen_count += instances.size
            self._set_arrays(
                np.concatenate([self.instances, instances])[rows],
                np.concatenate([self.labels, labels])[rows],
            )
        else:
            empty = np.empty(0, dtype=np.int64)
            for c in present:
                self._store.setdefault(c, empty)
            if self.policy == "cb":
                self._update_cb(instances, labels, present, rng)
            else:
                self._update_fa(instances, labels, present, rng)
            self._lay_out()
        assert self.total_stored() <= self.max_size

    def _update_cb(self, instances, labels, present, rng) -> None:
        quotas, store = self._quotas, self._store
        for c, items in store.items():
            if items.size > quotas[c]:
                store[c] = _subsample(items, quotas[c], rng)
        for c in present:
            incoming = instances[labels == c]
            seen = self._cb_class_seen.get(c, 0)
            self._cb_class_seen[c] = seen + incoming.size
            store[c] = _reservoir(store[c], incoming, seen, quotas[c], rng)

    def _update_fa(self, instances, labels, present, rng) -> None:
        quotas, store = self._quotas, self._store
        incoming = {c: instances[labels == c] for c in present}
        available = {
            c: items.size + (incoming[c].size if c in incoming else 0)
            for c, items in store.items()
        }
        target = {c: min(quotas[c], available[c]) for c in store}
        # fill unused capacity from the most frequently observed classes
        leftover = self.max_size - sum(target.values())
        for c in sorted(store, key=lambda c: (-self.observations[c], c)):
            if leftover <= 0:
                break
            take = min(available[c] - target[c], leftover)
            target[c] += take
            leftover -= take
        for c, items in store.items():
            want = target[c]
            if want < items.size:
                store[c] = _subsample(items, want, rng)
            elif want > items.size:
                add = rng.choice(incoming[c], size=want - items.size, replace=False)
                store[c] = np.concatenate([items, add])


def buffer_composition(buffer: ReplayBuffer, infrequent_classes=()) -> BufferComposition:
    """Exact per-class counts plus the share held by the given classes.

    An empty buffer reports ratio 0 and is flagged as empty.
    """
    per_class = buffer.counts()
    total = sum(per_class.values())
    if total == 0:
        return BufferComposition(per_class={}, total=0, infrequent_ratio=0.0, empty=True)
    infrequent = set(int(c) for c in infrequent_classes)
    inf_count = sum(n for c, n in per_class.items() if c in infrequent)
    return BufferComposition(
        per_class=per_class,
        total=total,
        infrequent_ratio=inf_count / total,
        empty=False,
    )

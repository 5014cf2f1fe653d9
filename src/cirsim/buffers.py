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


@dataclass(eq=False)
class ReplayBuffer:
    """Bounded sample store plus per-class observation counts.

    What it stores is two parallel read-only int64 arrays, ``instances`` and
    ``labels``: in reservoir slot order for ``rs``, grouped by ``seen_order``
    (insertion order within a class) for ``cb``/``fa``. Every update replaces
    both arrays.
    """

    max_size: int
    policy: str
    seen_order: list[int] = field(default_factory=list)
    observations: dict[int, int] = field(default_factory=dict)
    rs_seen_count: int = 0
    instances: np.ndarray = field(init=False, repr=False)
    labels: np.ndarray = field(init=False, repr=False)
    _cb_class_seen: dict[int, int] = field(default_factory=dict)  # items streamed per class
    _quotas: dict[int, int] | None = field(init=False, repr=False)

    def __post_init__(self):
        if self.policy not in POLICIES:
            raise ValueError(f"unknown buffer policy {self.policy!r}")
        if self.max_size < 1:
            raise ValueError("buffer max_size must be >= 1")
        empty = np.empty(0, dtype=np.int64)
        self._set_store(empty, empty)
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
        if self.policy == "rs":
            store, rs_items = {}, np.column_stack([self.instances, self.labels]).tolist()
        else:
            store = {str(c): items for c, items in self._split_by_class().items()}
            rs_items = []
        return {
            "policy": self.policy,
            "max_size": self.max_size,
            "store": store,
            "seen_order": list(self.seen_order),
            "observations": {str(c): n for c, n in self.observations.items()},
            "rs_seen_count": self.rs_seen_count,
            "rs_items": rs_items,
            "cb_class_seen": {str(c): n for c, n in self._cb_class_seen.items()},
        }

    @classmethod
    def from_state(cls, state: dict) -> "ReplayBuffer":
        buf = cls(max_size=state["max_size"], policy=state["policy"])
        buf.seen_order = list(state["seen_order"])
        buf.observations = {int(c): n for c, n in state["observations"].items()}
        buf.rs_seen_count = state["rs_seen_count"]
        buf._cb_class_seen = {int(c): n for c, n in state["cb_class_seen"].items()}
        if buf.policy == "rs":
            pairs = np.array(state["rs_items"], dtype=np.int64).reshape(-1, 2)
            buf._set_store(pairs[:, 0], pairs[:, 1])
        else:
            buf._set_grouped({int(c): items for c, items in state["store"].items()})
        buf._quotas = buf._compute_quotas()
        return buf

    # -- updates -----------------------------------------------------------

    def _set_store(self, instances: np.ndarray, labels: np.ndarray) -> None:
        instances.flags.writeable = False
        labels.flags.writeable = False
        self.instances, self.labels = instances, labels

    def _split_by_class(self) -> dict[int, list[int]]:
        """Stored instances of every seen class (cb/fa), in insertion order."""
        per_class = self.counts()
        stored, out, end = self.instances.tolist(), {}, 0
        for c in self.seen_order:
            start, end = end, end + per_class.get(c, 0)
            out[c] = stored[start:end]
        return out

    def _set_grouped(self, per_class: dict[int, list[int]]) -> None:
        order = self.seen_order
        instances = [i for c in order for i in per_class[c]]
        labels = np.repeat(np.array(order, dtype=np.int64), [len(per_class[c]) for c in order])
        self._set_store(np.array(instances, dtype=np.int64), labels)

    def _compute_quotas(self) -> dict[int, int] | None:
        if self.policy == "cb":
            return class_balanced_quotas(self.seen_order, self.max_size)
        if self.policy == "fa":
            return frequency_aware_quotas(self.observations, self.max_size)
        return None

    def _observe(self, labels: np.ndarray) -> list[int]:
        present = sorted(int(c) for c in np.unique(labels))
        for c in present:
            if c not in self.observations:
                self.seen_order.append(c)
                self.observations[c] = 1
            else:
                self.observations[c] += 1
        return present

    def update(self, instances: np.ndarray, labels: np.ndarray, rng: np.random.Generator) -> None:
        instances = np.asarray(instances, dtype=np.int64)
        labels = np.asarray(labels, dtype=np.int64)
        if instances.shape != labels.shape:
            raise ValueError("instances and labels must align")
        if instances.size == 0:
            return
        present = self._observe(labels)
        self._quotas = self._compute_quotas()
        if self.policy == "rs":
            self._update_rs(instances, labels, rng)
        elif self.policy == "cb":
            self._update_cb(instances, labels, present, rng)
        else:
            self._update_fa(instances, labels, present, rng)
        assert self.total_stored() <= self.max_size

    def _update_rs(self, instances, labels, rng) -> None:
        m = self.max_size
        fill = min(m - self.instances.size, instances.size)
        inst = np.concatenate([self.instances, instances[:fill]])
        labs = np.concatenate([self.labels, labels[:fill]])
        t = self.rs_seen_count + fill
        if fill < instances.size:
            # item at stream position t (1-based) claims slot rng[0,t);
            # slots < m both accept (prob m/t) and name the victim. One
            # offset at a time: a slot claimed twice keeps the later item.
            positions = t + 1 + np.arange(instances.size - fill)
            slots = rng.integers(0, positions)
            for off in np.flatnonzero(slots < m):
                inst[slots[off]] = instances[fill + off]
                labs[slots[off]] = labels[fill + off]
            t = int(positions[-1])
        self.rs_seen_count = t
        self._set_store(inst, labs)

    def _update_cb(self, instances, labels, present, rng) -> None:
        quotas = self._quotas
        store = self._split_by_class()
        for c in self.seen_order:
            items = store[c]
            if len(items) > quotas[c]:
                keep = rng.choice(len(items), size=quotas[c], replace=False)
                store[c] = [items[i] for i in sorted(keep)]
        for c in present:
            cap = quotas[c]
            items = store[c]
            incoming = instances[labels == c]
            seen = self._cb_class_seen.get(c, 0)
            self._cb_class_seen[c] = seen + incoming.size
            fill = min(cap - len(items), incoming.size)
            items.extend(incoming[:fill].tolist())
            if fill < incoming.size and cap > 0:
                # per-class reservoir, as in _update_rs: the item at class
                # position t (1-based) claims slot rng[0,t); a slot claimed
                # twice keeps the later item
                positions = seen + fill + 1 + np.arange(incoming.size - fill)
                slots = rng.integers(0, positions)
                for off in np.flatnonzero(slots < cap):
                    items[slots[off]] = int(incoming[fill + off])
        self._set_grouped(store)

    def _update_fa(self, instances, labels, present, rng) -> None:
        m = self.max_size
        quotas = self._quotas
        store = self._split_by_class()
        incoming = {c: instances[labels == c] for c in present}
        available = {
            c: len(store[c]) + (incoming[c].size if c in incoming else 0)
            for c in self.seen_order
        }
        target = {c: min(quotas[c], available[c]) for c in self.seen_order}
        # fill unused capacity from the most frequently observed classes
        leftover = m - sum(target.values())
        for c in sorted(self.seen_order, key=lambda c: (-self.observations[c], c)):
            if leftover <= 0:
                break
            room = available[c] - target[c]
            take = min(room, leftover)
            target[c] += take
            leftover -= take
        for c in self.seen_order:
            items = store[c]
            want = target[c]
            if want < len(items):
                keep = rng.choice(len(items), size=want, replace=False)
                items = [items[i] for i in sorted(keep)]
            elif want > len(items):
                pool = incoming[c]
                add = rng.choice(pool, size=want - len(items), replace=False)
                items = items + [int(v) for v in add]
            store[c] = items
        self._set_grouped(store)


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

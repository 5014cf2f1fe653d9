"""Per-experience evaluation metrics.

All metrics are macro (per-class) averages of test accuracy over a class
set: the whole label space (ta), the classes seen so far (sca), the seen
classes absent from the current experience (mca), and the optional
infrequent/frequent class splits of bimodal streams. mca is undefined when
nothing is missing and is recorded as absent rather than zero.
"""

from dataclasses import dataclass, field

import numpy as np

from .learner import ModelParams, predict
from .stream import LabeledDataset


@dataclass(frozen=True)
class EvalContext:
    seen_classes: frozenset[int]
    present_classes: frozenset[int]
    infrequent_classes: frozenset[int] | None = None

    def __post_init__(self):
        object.__setattr__(self, "seen_classes", frozenset(int(c) for c in self.seen_classes))
        object.__setattr__(self, "present_classes", frozenset(int(c) for c in self.present_classes))
        if self.infrequent_classes is not None:
            object.__setattr__(
                self, "infrequent_classes", frozenset(int(c) for c in self.infrequent_classes)
            )
        if not self.present_classes <= self.seen_classes:
            raise ValueError("present classes must be a subset of seen classes")

    @property
    def missing_classes(self) -> frozenset[int]:
        return self.seen_classes - self.present_classes


@dataclass
class RunRecord:
    experience_index: int
    strategy: str
    seed: int
    ta: float
    sca: float | None
    mca: float | None
    per_class_acc: np.ndarray  # nan for classes without test items
    infrequent_acc: float | None = None
    frequent_acc: float | None = None
    excluded_classes: tuple[int, ...] = field(default=())


def _macro(per_class: np.ndarray, class_set) -> float | None:
    values = per_class[np.asarray(class_set, dtype=np.intp)]
    values = values[~np.isnan(values)]
    if not values.size:
        return None
    return float(np.mean(values))


def evaluate(
    params: ModelParams,
    test_set: LabeledDataset,
    ctx: EvalContext,
    experience_index: int = -1,
    strategy: str = "",
    seed: int = 0,
) -> RunRecord:
    """Score a parameter snapshot on the test set under an evaluation context."""
    if params.num_classes != test_set.num_classes:
        raise ValueError("model output dimension does not match test set classes")
    labels, _ = predict(params, test_set.features)
    correct = labels == test_set.labels

    # hits / totals per class: both are exact integer counts, so each entry
    # equals the mean of the class's boolean hit mask bit for bit
    c = test_set.num_classes
    totals = np.bincount(test_set.labels, minlength=c)
    hits = np.bincount(test_set.labels[correct], minlength=c)
    per_class = np.full(c, np.nan)
    np.divide(hits, totals, out=per_class, where=totals > 0)
    excluded = np.flatnonzero(totals == 0).tolist()

    record = RunRecord(
        experience_index=experience_index,
        strategy=strategy,
        seed=seed,
        ta=_macro(per_class, range(c)),
        sca=_macro(per_class, sorted(ctx.seen_classes)),
        mca=_macro(per_class, sorted(ctx.missing_classes)),
        per_class_acc=per_class,
        excluded_classes=tuple(excluded),
    )
    if ctx.infrequent_classes is not None:
        frequent = set(range(c)) - ctx.infrequent_classes
        record.infrequent_acc = _macro(per_class, sorted(ctx.infrequent_classes))
        record.frequent_acc = _macro(per_class, sorted(frequent))
    return record


# -- CSV schema ---------------------------------------------------------------
# experience_index, strategy, seed, ta, sca, mca, infrequent_acc, frequent_acc,
# then one per-class accuracy column per class. Absent values are empty fields.


def csv_header(num_classes: int) -> str:
    fixed = "experience_index,strategy,seed,ta,sca,mca,infrequent_acc,frequent_acc"
    return fixed + "".join(f",acc_c{c}" for c in range(num_classes)) + "\n"


def _fmt(value) -> str:
    if value is None or (isinstance(value, float) and np.isnan(value)):
        return ""
    return f"{value:.6f}"


def to_csv_row(record: RunRecord) -> str:
    cells = [
        str(record.experience_index),
        record.strategy,
        str(record.seed),
        _fmt(record.ta),
        _fmt(record.sca),
        _fmt(record.mca),
        _fmt(record.infrequent_acc),
        _fmt(record.frequent_acc),
    ]
    cells.extend(_fmt(v) for v in record.per_class_acc)
    return ",".join(cells) + "\n"


def parse_csv(path) -> list[dict]:
    """Read a metrics CSV back into dicts (floats where present, None where
    the field was recorded absent)."""
    rows = []
    with open(path, encoding="utf-8") as f:
        header = None
        for line in f:
            if line.startswith("#"):
                continue
            if header is None:
                header = line.strip().split(",")
                continue
            cells = line.rstrip("\n").split(",")
            row = {}
            for key, cell in zip(header, cells):
                if key in ("experience_index", "seed"):
                    row[key] = int(cell)
                elif key == "strategy":
                    row[key] = cell
                else:
                    row[key] = float(cell) if cell else None
            rows.append(row)
    return rows

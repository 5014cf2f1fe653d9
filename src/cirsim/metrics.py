"""Per-experience evaluation metrics.

All metrics are macro (per-class) averages of test accuracy over a class
set: the whole label space (ta), the classes seen so far (sca), the seen
classes absent from the current experience (mca), and the optional
infrequent/frequent class splits of bimodal streams. mca is undefined when
nothing is missing and is recorded as absent rather than zero.
"""

import collections
import math
from dataclasses import dataclass, field

import numpy as np

# predict is not called here, but perfbench/test_perfbench.py checks that the
# benchmark's tracer patches this by-name import of it, so the name stays
from .learner import ModelParams, predict, predict_labels  # noqa: F401
from .stream import LabeledDataset


@dataclass(frozen=True)
class EvalContext:
    """The classes of one experience: those seen up to it, those present in
    it, and the optional infrequent split. Every cell of a seed shares it, so
    the sorted class ids each macro average indexes are built once, here."""

    seen_classes: frozenset[int]
    present_classes: frozenset[int]
    infrequent_classes: frozenset[int] | None = None
    seen_index: np.ndarray = field(init=False, repr=False, compare=False)
    missing_index: np.ndarray = field(init=False, repr=False, compare=False)
    infrequent_index: np.ndarray | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "seen_classes", frozenset(map(int, self.seen_classes)))
        object.__setattr__(self, "present_classes", frozenset(map(int, self.present_classes)))
        if self.infrequent_classes is not None:
            object.__setattr__(self, "infrequent_classes", frozenset(map(int, self.infrequent_classes)))
        if not self.present_classes <= self.seen_classes:
            raise ValueError("present classes must be a subset of seen classes")
        object.__setattr__(self, "seen_index", _index(self.seen_classes))
        object.__setattr__(self, "missing_index", _index(self.missing_classes))
        infrequent = self.infrequent_classes
        object.__setattr__(self, "infrequent_index", None if infrequent is None else _index(infrequent))

    @property
    def missing_classes(self) -> frozenset[int]:
        return self.seen_classes - self.present_classes


def _index(classes) -> np.ndarray:
    return np.array(sorted(classes), dtype=np.intp)


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


def _macro(per_class: np.ndarray, classes) -> float | None:
    """Mean accuracy over ``classes`` (any index of ``per_class``), leaving
    out classes without test items; None when none is left."""
    values = per_class[classes]
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
    labels = predict_labels(params, test_set.features)
    correct = labels == test_set.labels

    # hits / totals per class: both are exact integer counts, so each entry
    # equals the mean of the class's boolean hit mask bit for bit
    c = test_set.num_classes
    totals = test_set.class_counts
    hits = np.bincount(test_set.labels[correct], minlength=c)
    per_class = np.full(c, np.nan)
    has_items = totals > 0
    np.divide(hits, totals, out=per_class, where=has_items)

    record = RunRecord(
        experience_index=experience_index,
        strategy=strategy,
        seed=seed,
        ta=_macro(per_class, has_items),
        sca=_macro(per_class, ctx.seen_index),
        mca=_macro(per_class, ctx.missing_index),
        per_class_acc=per_class,
        excluded_classes=tuple(np.flatnonzero(~has_items).tolist()),
    )
    if ctx.infrequent_index is not None:
        frequent = np.ones(c, dtype=bool)
        frequent[ctx.infrequent_index] = False
        record.infrequent_acc = _macro(per_class, ctx.infrequent_index)
        record.frequent_acc = _macro(per_class, frequent)
    return record


# -- CSV schema ---------------------------------------------------------------
# experience_index, strategy, seed, ta, sca, mca, infrequent_acc, frequent_acc,
# then one per-class accuracy column per class. Absent values are empty fields.


def csv_header(num_classes: int) -> str:
    fixed = "experience_index,strategy,seed,ta,sca,mca,infrequent_acc,frequent_acc"
    return fixed + "".join(f",acc_c{c}" for c in range(num_classes)) + "\n"


def to_csv_row(record: RunRecord) -> str:
    values = [
        math.nan if v is None else v
        for v in (record.ta, record.sca, record.mca, record.infrequent_acc, record.frequent_acc,
                  *record.per_class_acc.tolist())
    ]
    # one %-format for the whole row, each field "<v>,"; an absent value
    # (None or nan) formats as "nan," and then becomes an empty field
    # ("nan," is no part of any other field: those are digits, '-', '.', "inf")
    cells = (("%.6f," * len(values)) % tuple(values)).replace("nan,", ",")
    return f"{record.experience_index},{record.strategy},{record.seed}," + cells[:-1] + "\n"


def parse_csv(path) -> list[dict]:
    """Read a metrics CSV back into dicts (floats where present, None where
    the field was recorded absent)."""
    with open(path, encoding="utf-8") as f:
        lines = (line for line in f if not line.startswith("#"))
        header = next(lines, "").strip().split(",")
        return [_parse_row(header, line) for line in lines]


def last_row(path) -> dict | None:
    """The last row of a metrics CSV, as ``parse_csv`` gives it, parsing
    only that row and the header; None when there is no row."""
    with open(path, encoding="utf-8") as f:
        lines = (line for line in f if not line.startswith("#"))
        header = next(lines, "").strip().split(",")
        last = collections.deque(lines, maxlen=1)
    return _parse_row(header, last[0]) if last else None


def _parse_row(header: list[str], line: str) -> dict:
    row = {}
    for key, cell in zip(header, line.rstrip("\n").split(",")):
        if key in ("experience_index", "seed"):
            row[key] = int(cell)
        elif key == "strategy":
            row[key] = cell
        else:
            row[key] = float(cell) if cell else None
    return row

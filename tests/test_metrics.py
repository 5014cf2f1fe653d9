import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cirsim.learner import ModelParams, init_params, predict
from cirsim.metrics import (
    EvalContext, RunRecord, csv_header, evaluate, last_row, parse_csv, to_csv_row,
)
from cirsim.stream import LabeledDataset


def _three_class_test_set(per_class=4):
    features = np.array(
        [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    ).repeat(per_class, axis=0)
    labels = np.repeat([0, 1, 2], per_class)
    return LabeledDataset(features, labels, 3)


def _perfect_params():
    # identity readout: logits equal the one-hot features
    return ModelParams(weights=[np.eye(3) * 10.0], biases=[np.zeros(3)])


def _only_class0_params():
    # predicts class 0 everywhere
    w = np.zeros((3, 3))
    b = np.array([10.0, 0.0, 0.0])
    return ModelParams(weights=[w], biases=[b])


def test_perfect_classifier_all_metrics_one():
    test_set = _three_class_test_set()
    ctx = EvalContext(frozenset({0, 1, 2}), frozenset({0}))
    r = evaluate(_perfect_params(), test_set, ctx)
    assert r.ta == 1.0 and r.sca == 1.0 and r.mca == 1.0


def test_first_experience_has_no_missing_classes():
    test_set = _three_class_test_set()
    ctx = EvalContext(frozenset({0, 1}), frozenset({0, 1}))
    r = evaluate(_perfect_params(), test_set, ctx)
    assert r.mca is None
    assert r.sca == 1.0


def test_hand_built_confusion_case():
    # oracle: correct only on class 0; seen {0,1}, present {0}
    # per-class acc = [1, 0, 0] -> SCA over {0,1} = 1/2, MCA over {1} = 0,
    # TA over all three = 1/3
    test_set = _three_class_test_set()
    ctx = EvalContext(frozenset({0, 1}), frozenset({0}))
    r = evaluate(_only_class0_params(), test_set, ctx)
    assert r.sca == pytest.approx(0.5)
    assert r.mca == pytest.approx(0.0)
    assert r.ta == pytest.approx(1 / 3)
    assert np.allclose(r.per_class_acc, [1.0, 0.0, 0.0])


def test_sca_equals_ta_once_all_classes_seen():
    test_set = _three_class_test_set()
    ctx = EvalContext(frozenset({0, 1, 2}), frozenset({2}))
    r = evaluate(_only_class0_params(), test_set, ctx)
    assert r.sca == r.ta


def test_sca_bounded_by_per_class_extremes():
    rng = np.random.default_rng(0)
    test_set = _three_class_test_set()
    params = ModelParams(weights=[rng.normal(size=(3, 3))], biases=[rng.normal(size=3)])
    ctx = EvalContext(frozenset({0, 1}), frozenset({0}))
    r = evaluate(params, test_set, ctx)
    seen_accs = r.per_class_acc[[0, 1]]
    assert seen_accs.min() - 1e-12 <= r.sca <= seen_accs.max() + 1e-12


def test_missing_set_is_seen_minus_present():
    ctx = EvalContext(frozenset({0, 1, 4}), frozenset({1}))
    assert ctx.missing_classes == frozenset({0, 4})


def test_present_must_be_subset_of_seen():
    with pytest.raises(ValueError):
        EvalContext(frozenset({0}), frozenset({0, 1}))


def test_class_without_test_items_excluded_and_flagged():
    features = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    labels = np.array([0, 1])  # class 2 has no test items
    test_set = LabeledDataset(features, labels, 3)
    ctx = EvalContext(frozenset({0, 1, 2}), frozenset({0}))
    r = evaluate(_perfect_params(), test_set, ctx)
    assert r.excluded_classes == (2,)
    assert np.isnan(r.per_class_acc[2])
    assert r.ta == 1.0  # macro over classes with test items


@given(seed=st.integers(0, 2**32 - 1), num_classes=st.integers(2, 12))
@settings(max_examples=50, deadline=None)
def test_per_class_accuracy_matches_per_mask_loop_bitwise(seed, num_classes):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, num_classes, size=int(rng.integers(0, 40)))
    test_set = LabeledDataset(rng.normal(size=(labels.size, 3)), labels, num_classes)
    params = init_params(3, (4,), num_classes, "relu", rng)
    seen = frozenset(int(c) for c in rng.choice(num_classes, size=2, replace=False))
    r = evaluate(params, test_set, EvalContext(seen, frozenset(sorted(seen)[:1])))

    # reference: one boolean mask per class
    correct = predict(params, test_set.features)[0] == test_set.labels
    per_class = np.full(num_classes, np.nan)
    excluded = []
    for c in range(num_classes):
        mask = test_set.labels == c
        if mask.any():
            per_class[c] = float(correct[mask].mean())
        else:
            excluded.append(c)
    assert r.per_class_acc.tobytes() == per_class.tobytes()
    assert r.excluded_classes == tuple(excluded)
    scored = [per_class[c] for c in range(num_classes) if not np.isnan(per_class[c])]
    assert r.ta == (float(np.mean(scored)) if scored else None)


def test_infrequent_and_frequent_splits():
    test_set = _three_class_test_set()
    ctx = EvalContext(
        frozenset({0, 1, 2}), frozenset({0}), infrequent_classes=frozenset({1, 2})
    )
    r = evaluate(_only_class0_params(), test_set, ctx)
    assert r.infrequent_acc == pytest.approx(0.0)
    assert r.frequent_acc == pytest.approx(1.0)


def test_csv_round_trip_preserves_absent_values(tmp_path):
    test_set = _three_class_test_set()
    ctx = EvalContext(frozenset({0, 1}), frozenset({0, 1}))
    r = evaluate(_only_class0_params(), test_set, ctx, experience_index=0,
                 strategy="naive", seed=3)
    path = tmp_path / "metrics.csv"
    with open(path, "w") as f:
        f.write("# config_digest=abc\n")
        f.write(csv_header(3))
        f.write(to_csv_row(r))
    rows = parse_csv(path)
    assert len(rows) == 1
    row = rows[0]
    assert row["experience_index"] == 0 and row["seed"] == 3
    assert row["strategy"] == "naive"
    assert row["mca"] is None  # absent, not zero
    assert row["ta"] == pytest.approx(1 / 3, abs=1e-6)
    assert row["acc_c0"] == pytest.approx(1.0)


def test_last_row_is_parse_csvs_last_row(tmp_path):
    test_set = _three_class_test_set()
    path = tmp_path / "metrics.csv"
    with open(path, "w") as f:
        f.write("# config_digest=abc\n")
        f.write(csv_header(3))
    assert last_row(path) is None  # header only
    with open(path, "a") as f:
        for index, seen in enumerate(({0}, {0, 1}, {0, 1, 2})):
            ctx = EvalContext(frozenset(seen), frozenset({0}))
            f.write(to_csv_row(evaluate(_only_class0_params(), test_set, ctx,
                                        experience_index=index, strategy="er-fa", seed=1)))
    rows = parse_csv(path)
    assert len(rows) == 3
    assert last_row(path) == rows[-1]


def test_csv_row_leaves_none_and_nan_empty_in_fixed_and_per_class_fields():
    record = RunRecord(
        experience_index=3, strategy="er-rs", seed=7,
        ta=0.5, sca=None, mca=float("nan"),
        per_class_acc=np.array([1.0, None, np.nan, 1 / 3], dtype=object),
        infrequent_acc=np.float64("nan"), frequent_acc=0.125,
    )
    assert to_csv_row(record) == "3,er-rs,7,0.500000,,,,0.125000,1.000000,,,0.333333\n"

import gc
import tempfile
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cirsim import learner
from cirsim.buffers import ReplayBuffer
from cirsim.learner import (
    CheckpointError,
    ModelParams,
    TrainConfig,
    TrainingDivergedError,
    accuracy,
    activations,
    init_params,
    load_checkpoint,
    loss_and_grads,
    predict,
    predict_labels,
    save_checkpoint,
    snapshot,
    train_group,
    train_on_experience,
)
from cirsim.slot_generator import SlotConfig, generate_slot_stream
from cirsim.stream import make_synthetic_dataset


def _loss_at(params, x, y):
    loss, _, _ = loss_and_grads(params, x, y)
    return loss


def _finite_difference_grads(params, x, y, eps=1e-6):
    """Oracle: central differences on every parameter entry."""
    grads_w, grads_b = [], []
    for arrays, grads in ((params.weights, grads_w), (params.biases, grads_b)):
        for arr in arrays:
            g = np.zeros_like(arr)
            it = np.nditer(arr, flags=["multi_index"])
            while not it.finished:
                idx = it.multi_index
                orig = arr[idx]
                arr[idx] = orig + eps
                up = _loss_at(params, x, y)
                arr[idx] = orig - eps
                down = _loss_at(params, x, y)
                arr[idx] = orig
                g[idx] = (up - down) / (2 * eps)
                it.iternext()
            grads.append(g)
    return grads_w, grads_b


def _rel_error(a, b):
    denom = max(np.abs(a).max(), np.abs(b).max(), 1e-8)
    return np.abs(a - b).max() / denom


def test_gradients_match_central_differences():
    rng = np.random.default_rng(0)
    for trial in range(5):
        params = init_params(4, (6,), 3, "tanh" if trial % 2 else "relu", rng)
        x = rng.normal(size=(7, 4))
        y = rng.integers(0, 3, size=7)
        _, gw, gb = loss_and_grads(params, x, y)
        fw, fb = _finite_difference_grads(params, x, y)
        for analytic, numeric in zip(gw + gb, fw + fb):
            assert _rel_error(analytic, numeric) < 1e-4


def test_bias_gradient_at_zero_weights_is_probs_minus_onehot():
    # with zero weights the softmax is uniform: gradient w.r.t. the logits
    # (= bias entries for a single sample) equals 1/C - onehot
    c = 5
    params = ModelParams(weights=[np.zeros((3, c))], biases=[np.zeros(c)])
    x = np.random.default_rng(1).normal(size=(1, 3))
    y = np.array([2])
    _, _, gb = loss_and_grads(params, x, y)
    expected = np.full(c, 1.0 / c)
    expected[2] -= 1.0
    assert np.allclose(gb[0], expected, atol=1e-12)
    fw, fb = _finite_difference_grads(params, x, y)
    assert np.allclose(gb[0], fb[0], atol=1e-5)


def test_predict_zero_weights_uniform():
    params = ModelParams(weights=[np.zeros((4, 10))], biases=[np.zeros(10)])
    _, probs = predict(params, np.random.default_rng(0).normal(size=(6, 4)))
    assert np.allclose(probs, 0.1)


def test_predict_probabilities_sum_to_one():
    rng = np.random.default_rng(2)
    params = init_params(8, (12,), 5, "relu", rng)
    _, probs = predict(params, rng.normal(size=(40, 8)))
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-6)
    assert np.all(probs >= 0)


def test_predict_dimension_mismatch():
    params = init_params(8, (), 3, "relu", np.random.default_rng(0))
    with pytest.raises(ValueError):
        predict(params, np.zeros((2, 5)))


def _log_uniform(draw, low, high):
    return 10.0 ** draw(st.floats(np.log10(low), np.log10(high)))


@st.composite
def adversarial_logits(draw, shape=None):
    """Rows of logits with a top of magnitude 1e-3 to 700 at a random column;
    each other entry lies 1e-3 to 1400 below it, ties it exactly, is one to
    three floats below it (nextafter), lies within 2e-12 of it, or is nan or
    +-inf. Near-ties only collapse in exp() when the top is small, so the
    magnitudes are log-uniform. ``shape`` fixes (rows, classes)."""
    n, c = shape or (draw(st.integers(1, 5)), draw(st.integers(1, 8)))
    kinds = ("below", "below", "tie", "nextafter", "nextafter", "gap", "nan", "inf", "-inf")
    rows = []
    for _ in range(n):
        top = _log_uniform(draw, 1e-3, 700) * draw(st.sampled_from((-1.0, 1.0)))
        top_at = draw(st.integers(0, c - 1))
        row = []
        for j in range(c):
            kind = "top" if j == top_at else draw(st.sampled_from(kinds))
            value = top
            if kind == "below":
                value = top - _log_uniform(draw, 1e-3, 1400)
            elif kind == "nextafter":
                for _ in range(draw(st.integers(1, 3))):
                    value = np.nextafter(value, -np.inf)
            elif kind == "gap":
                value = top - draw(st.floats(0.0, 2e-12))
            elif kind in ("nan", "inf", "-inf"):
                value = float(kind)
            row.append(value)
        rows.append(row)
    return np.array(rows)


@given(logits=adversarial_logits(), one_d=st.booleans())
# a near-tie whose exp rounds to 1.0, so the softmax argmax is the first index
@example(logits=np.array([[np.nextafter(1e-3, -np.inf), 1e-3]]), one_d=False)
# numpy's argmax stops at the first nan; the all-nan softmax row gives index 0
@example(logits=np.array([[0.5, 0.25], [0.0, np.nan]]), one_d=False)
@settings(max_examples=300, deadline=None)
def test_predict_labels_equals_softmax_argmax(logits, one_d):
    c = logits.shape[1]
    params = ModelParams(weights=[np.zeros((c, c))], biases=[np.zeros(c)])
    if one_d:
        logits, features = logits[:1], np.zeros(c)
    else:
        features = np.zeros((logits.shape[0], c))
    with mock.patch.object(learner, "_forward", lambda p, x: (None, None, logits)):
        with np.errstate(invalid="ignore"):
            want = predict(params, features)[0]
            got = predict_labels(params, features)
    assert np.shape(got) == np.shape(want)
    assert np.array_equal(got, want)


@st.composite
def stacked_logits(draw):
    """(S, n, C) logits: S models' adversarial rows on one shared input."""
    s, n, c = draw(st.integers(1, 4)), draw(st.integers(1, 5)), draw(st.integers(1, 8))
    return np.stack([draw(adversarial_logits((n, c))) for _ in range(s)])


@given(logits=stacked_logits(), one_d=st.booleans())
@example(logits=np.array([[[0.5, 0.25], [0.0, np.nan]], [[1.0, 1.0], [np.inf, 0.0]]]),
         one_d=False)
@settings(max_examples=200, deadline=None)
def test_stacked_predict_labels_equals_each_model(logits, one_d):
    # the argmax, the near-tie test and the softmax fallback of a stacked call
    # act on each model's rows as its own call does
    s, _, c = logits.shape
    if one_d:
        logits, features = logits[:, :1], np.zeros(c)
    else:
        features = np.zeros((logits.shape[1], c))
    stacked = ModelParams(weights=[np.zeros((s, c, c))], biases=[np.zeros((s, c))])
    alone = ModelParams(weights=[np.zeros((c, c))], biases=[np.zeros(c)])
    with np.errstate(invalid="ignore"):
        with mock.patch.object(learner, "_forward", lambda p, x: (None, None, logits)):
            got = predict_labels(stacked, features)
        for k in range(s):
            with mock.patch.object(learner, "_forward", lambda p, x: (None, None, logits[k])):
                want = predict_labels(alone, features)
            assert np.shape(got[k]) == np.shape(want)
            assert np.array_equal(got[k], want)
    assert got.shape == ((s,) if one_d else logits.shape[:2])


def _count_rule_rows(logits):
    """The rows the tie check sent to the softmax before its second-max form:
    more than one logit >= top - _TIE_GAP, or a top that is not finite."""
    top = np.take_along_axis(logits, logits.argmax(axis=-1)[..., None], axis=-1)[..., 0]
    near = np.count_nonzero(logits >= top[..., None] - learner._TIE_GAP, axis=-1)
    return (near > 1) | ~np.isfinite(top)


@given(logits=adversarial_logits() | stacked_logits(), one_d=st.booleans())
@example(logits=np.array([[0.5], [-3.0]]), one_d=False)  # C = 1: no second logit
@example(logits=np.array([[np.inf], [-np.inf], [np.nan]]), one_d=False)
@example(logits=np.array([[-np.inf, -np.inf, -np.inf], [0.0, -np.inf, 1.0]]), one_d=False)
@settings(max_examples=300, deadline=None)
def test_second_max_tie_rule_selects_the_count_rule_rows(logits, one_d):
    # 2-D, stacked (S, n, C) and 1-D calls alike: the softmax path gets
    # exactly the count rule's rows, each as _forward gave it (no -inf left
    # at its top), and the logits are whole again after the call
    if one_d:
        logits = logits[..., :1, :]
    c = logits.shape[-1]
    stack = logits.shape[:-2]
    params = ModelParams(weights=[np.zeros((*stack, c, c))], biases=[np.zeros((*stack, c))])
    features = np.zeros(c) if one_d else np.zeros((logits.shape[-2], c))
    original = logits.copy()
    handed, real_softmax = [], learner.softmax

    def spy(rows):
        handed.append(rows.copy())
        return real_softmax(rows)

    with (mock.patch.object(learner, "_forward", lambda p, x: (None, None, logits)),
          mock.patch.object(learner, "softmax", spy), np.errstate(invalid="ignore")):
        predict_labels(params, features)
    want = original.reshape(-1, c)[_count_rule_rows(original).reshape(-1)]
    got = np.concatenate(handed) if handed else np.empty((0, c))
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(logits, original, equal_nan=True)


@given(
    activation=st.sampled_from(["relu", "tanh"]),
    hidden=st.lists(st.integers(1, 64), max_size=2),
    dims=st.tuples(st.integers(1, 20), st.integers(2, 60)),
    n_models=st.integers(1, 16),
    rows=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=120, deadline=None)
def test_stacked_forward_labels_equal_each_model(activation, hidden, dims, n_models, rows, seed):
    rng = np.random.default_rng(seed)
    d, c = dims
    models = [init_params(d, tuple(hidden), c, activation, rng) for _ in range(n_models)]
    for m in models:
        for b in m.biases:
            b += rng.normal(size=b.shape)
    stacked = _stack(models)
    assert (stacked.dim_in, stacked.num_classes) == (d, c)
    x = rng.normal(size=(rows, d))
    labels = predict_labels(stacked, x)
    assert labels.shape == (n_models, rows)
    for k, m in enumerate(models):
        assert np.array_equal(labels[k], predict_labels(m, x))
        assert np.array_equal(predict_labels(stacked, x[0])[k], predict_labels(m, x[0]))


def _stack(models):
    return ModelParams(
        weights=[np.stack(ws) for ws in zip(*(m.weights for m in models))],
        biases=[np.stack(bs) for bs in zip(*(m.biases for m in models))],
        activation=models[0].activation,
    )


_R = learner._LABEL_BLOCK_ROWS


@given(
    activation=st.sampled_from(["relu", "tanh"]),
    hidden=st.lists(st.integers(1, 48), max_size=2),
    dims=st.tuples(st.integers(1, 20), st.integers(2, 120)),
    n_models=st.integers(0, 3),  # 0: one 2-D model, else S stacked models
    rows=st.sampled_from([1, 2, _R - 1, _R, _R + 1, 2 * _R - 1, 2 * _R, 2 * _R + 1,
                          3 * _R + 1, 4 * _R - 1, 5 * _R + 1]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=100, deadline=None)
def test_blocked_predict_labels_equal_one_block(activation, hidden, dims, n_models, rows, seed):
    # the real forward pass, blocked by the module's rule, gives the labels
    # of one forward pass over every row; blocks are R rows but the last,
    # which takes the remainder, and an input under 2R rows is one block
    rng = np.random.default_rng(seed)
    d, c = dims
    models = [init_params(d, tuple(hidden), c, activation, rng) for _ in range(max(n_models, 1))]
    for m in models:
        for b in m.biases:
            b += rng.normal(size=b.shape)
    params = _stack(models) if n_models else models[0]
    x = rng.normal(size=(rows, d))
    block_rows, forward = [], learner._forward

    def spy(p, features):
        block_rows.append(len(features))
        return forward(p, features)

    with mock.patch.object(learner, "_forward", spy):
        blocked = predict_labels(params, x)
    with mock.patch.object(learner, "_LABEL_BLOCK_ROWS", rows + 1):
        whole = predict_labels(params, x)
    assert blocked.shape == whole.shape == ((n_models, rows) if n_models else (rows,))
    assert np.array_equal(blocked, whole)
    if rows < 2 * _R:
        assert block_rows == [rows]
    else:
        assert block_rows == [_R] * (rows // _R - 1) + [_R + rows % _R]


def test_predict_labels_peak_memory_is_about_one_block_of_logits():
    # tracemalloc sees numpy's buffers: the peak of a call on 8R rows stays
    # within two blocks of logits plus the hidden activations and the
    # labels, far under the whole input's logits
    c, hidden, d = 400, 16, 16
    rng = np.random.default_rng(0)
    params = init_params(d, (hidden,), c, "relu", rng)
    x = rng.normal(size=(8 * _R, d))
    predict_labels(params, x)  # first-call set-up is not what is bounded
    tracemalloc.start()
    try:
        predict_labels(params, x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    whole_logits = 8 * _R * c * 8
    bound = 2 * _R * c * 8 + 2 * 2 * _R * hidden * 8 + 3 * 8 * _R * 8
    assert peak <= bound, (peak, bound)
    assert bound < whole_logits / 3


@given(
    activation=st.sampled_from(["relu", "tanh"]),
    hidden=st.lists(st.integers(1, 64), max_size=2),
    dims=st.tuples(st.integers(1, 20), st.integers(2, 60)),
    n_models=st.integers(1, 4),
    rows=st.integers(1, 32),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=120, deadline=None)
def test_stacked_step_equals_per_model_steps_bitwise(activation, hidden, dims, n_models, rows, seed):
    # stacked loss, gradients and SGD update of S models: each model's slice
    # equals its own 2-D call exactly, so lockstep training changes no byte
    rng = np.random.default_rng(seed)
    d, c = dims
    models = [init_params(d, tuple(hidden), c, activation, rng) for _ in range(n_models)]
    for m in models:
        for b in m.biases:
            b += rng.normal(size=b.shape)
    x = rng.normal(size=(n_models, rows, d))
    y = rng.integers(0, c, size=(n_models, rows))
    stacked = _stack(models)
    losses, gws, gbs = loss_and_grads(stacked, x, y)
    assert losses.shape == (n_models,)
    for i in range(len(stacked.weights)):
        stacked.weights[i] -= 0.3 * gws[i]
        stacked.biases[i] -= 0.3 * gbs[i]
    for k, m in enumerate(models):
        loss, gw, gb = loss_and_grads(m, x[k], y[k])
        assert isinstance(loss, float) and loss == losses[k]
        for i in range(len(m.weights)):
            assert np.array_equal(gw[i], gws[i][k]) and np.array_equal(gb[i], gbs[i][k])
            m.weights[i] -= 0.3 * gw[i]
            m.biases[i] -= 0.3 * gb[i]
            assert np.array_equal(m.weights[i], stacked.weights[i][k])
            assert np.array_equal(m.biases[i], stacked.biases[i][k])


@pytest.mark.parametrize("activation,hidden", [("relu", (9,)), ("tanh", (7, 5))])
def test_train_group_equals_each_model_alone(activation, hidden):
    train, _ = make_synthetic_dataset(6, 20, 5, 0.5, np.random.default_rng(3))
    cfg = TrainConfig(lr=0.1, epochs_per_experience=2, batch_size=10, replay_mix=0.5)
    x, y = train.features[:37], train.labels[:37]  # a ragged last mini-batch

    def members():
        out = []
        for k, policy in enumerate(["rs", "cb", "fa"]):
            buf = ReplayBuffer(max_size=12, policy=policy)
            buf.update(np.arange(40, 60), train.labels[40:60], np.random.default_rng(k))
            params = init_params(5, hidden, 6, activation, np.random.default_rng(10 + k))
            out.append((params, np.random.default_rng(20 + k), buf))
        return out

    together, alone = members(), members()
    train_group([p for p, _, _ in together], x, y, cfg,
                [r for _, r, _ in together], [b for _, _, b in together], dataset=train)
    for (p, rng, buf), (p_in, rng_in, _) in zip(alone, together):
        train_on_experience(p, x, y, cfg, rng, buffer=buf, dataset=train)
        assert rng.bit_generator.state == rng_in.bit_generator.state
        for a, b in zip(p.weights + p.biases, p_in.weights + p_in.biases):
            assert np.array_equal(a, b)


def test_train_group_refuses_mixed_replay_rows():
    train, _ = make_synthetic_dataset(3, 10, 4, 0.5, np.random.default_rng(0))
    full = ReplayBuffer(max_size=5, policy="rs")
    full.update(np.arange(5), train.labels[:5], np.random.default_rng(0))
    models = [init_params(4, (), 3, "relu", np.random.default_rng(k)) for k in range(2)]
    rngs = [np.random.default_rng(k) for k in range(2)]
    empty = ReplayBuffer(max_size=5, policy="rs")
    with pytest.raises(ValueError, match="replay rows"):
        train_group(models, train.features, train.labels, TrainConfig(), rngs,
                    [full, empty], dataset=train)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_group_divergence_names_the_model():
    rng = np.random.default_rng(13)
    x, y = rng.normal(size=(30, 4)), rng.integers(0, 3, size=30)
    models = [init_params(4, (8,), 3, "relu", np.random.default_rng(k)) for k in range(3)]
    models[1].biases[-1][0] = np.inf  # only the middle model's loss is not finite
    with pytest.raises(TrainingDivergedError, match="model 1 of 3") as info:
        train_group(models, x, y, TrainConfig(), [np.random.default_rng(k) for k in range(3)],
                    [None] * 3)
    assert info.value.member == 1


def test_forward_leaves_parameters_unchanged():
    rng = np.random.default_rng(4)
    params = init_params(8, (12, 6), 5, "relu", rng)
    params.biases = [rng.normal(size=b.shape) for b in params.biases]
    before = params.copy()
    x = rng.normal(size=(30, 8))
    labels, _ = predict(params, x)
    assert np.array_equal(predict_labels(params, x), labels)
    loss_and_grads(params, x, labels)
    activations(params, x)
    for now, then in zip(params.weights + params.biases, before.weights + before.biases):
        assert now.tobytes() == then.tobytes()


def test_zero_learning_rate_leaves_parameters_unchanged():
    rng = np.random.default_rng(3)
    params = init_params(4, (8,), 3, "relu", rng)
    before = params.copy()
    x, y = rng.normal(size=(20, 4)), rng.integers(0, 3, size=20)
    train_on_experience(params, x, y, TrainConfig(lr=0.0), np.random.default_rng(0))
    for w0, w1 in zip(before.weights, params.weights):
        assert np.array_equal(w0, w1)
    for b0, b1 in zip(before.biases, params.biases):
        assert np.array_equal(b0, b1)


def test_separable_blobs_reach_high_accuracy():
    # oracle: plain full-batch softmax-regression GD written out here
    train, _ = make_synthetic_dataset(2, 60, 4, 0.2, np.random.default_rng(4))
    x, y = train.features, train.labels

    w = np.zeros((4, 2))
    b = np.zeros(2)
    onehot = np.eye(2)[y]
    for _ in range(200):
        logits = x @ w + b
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        p = e / e.sum(axis=1, keepdims=True)
        delta = (p - onehot) / len(y)
        w -= 1.0 * (x.T @ delta)
        b -= 1.0 * delta.sum(axis=0)
    oracle_acc = float(((x @ w + b).argmax(axis=1) == y).mean())
    assert oracle_acc >= 0.99

    params = init_params(4, (), 2, "relu", np.random.default_rng(5))
    train_on_experience(
        params, x, y, TrainConfig(lr=0.5, epochs_per_experience=20), np.random.default_rng(6)
    )
    assert accuracy(params, x, y) >= 0.99


def test_naive_forgets_on_class_incremental_stream():
    # heavy per-experience training so the two new classes crowd out the old
    train, test = make_synthetic_dataset(10, 40, 8, 0.8, np.random.default_rng(7))
    stream = generate_slot_stream(train, SlotConfig(5, 2, seed=0))
    params = init_params(8, (16,), 10, "relu", np.random.default_rng(8))
    cfg = TrainConfig(lr=1.0, epochs_per_experience=30)
    rng = np.random.default_rng(9)

    exp0 = stream.experiences[0]
    x0, y0 = train.features[exp0.train_instances], train.labels[exp0.train_instances]
    train_on_experience(params, x0, y0, cfg, rng)
    exp0_classes = sorted(exp0.present_classes)
    mask = np.isin(test.labels, exp0_classes)
    acc_before = accuracy(params, test.features[mask], test.labels[mask])
    assert acc_before >= 0.95

    exp1 = stream.experiences[1]
    x1, y1 = train.features[exp1.train_instances], train.labels[exp1.train_instances]
    train_on_experience(params, x1, y1, cfg, rng)
    acc_after = accuracy(params, test.features[mask], test.labels[mask])
    assert acc_after < 0.15  # collapses toward chance


def test_replay_mix_uses_buffer_samples():
    train, test = make_synthetic_dataset(4, 40, 6, 0.3, np.random.default_rng(10))
    idx = train.per_class_index
    buffer = ReplayBuffer(max_size=80, policy="cb")
    rng = np.random.default_rng(11)
    old = np.concatenate([idx[0], idx[1]])
    buffer.update(old, train.labels[old], rng)

    params = init_params(6, (16,), 4, "relu", np.random.default_rng(12))
    new = np.concatenate([idx[2], idx[3]])
    cfg = TrainConfig(lr=0.2, epochs_per_experience=20, replay_mix=0.5)
    train_on_experience(
        params, train.features[new], train.labels[new], cfg, rng,
        buffer=buffer, dataset=train,
    )
    mask_old = np.isin(test.labels, [0, 1])
    assert accuracy(params, test.features[mask_old], test.labels[mask_old]) >= 0.9


def test_training_rejects_empty_data():
    params = init_params(4, (), 2, "relu", np.random.default_rng(0))
    with pytest.raises(ValueError):
        train_on_experience(
            params, np.empty((0, 4)), np.empty(0, dtype=int), TrainConfig(),
            np.random.default_rng(0),
        )


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_raises_with_diagnostics():
    rng = np.random.default_rng(13)
    params = init_params(4, (8,), 3, "relu", rng)
    x = rng.normal(size=(30, 4)) * 1e4
    y = rng.integers(0, 3, size=30)
    with pytest.raises(TrainingDivergedError, match="lr="):
        train_on_experience(
            params, x, y, TrainConfig(lr=1e6, epochs_per_experience=50), rng
        )


def test_training_is_deterministic_given_seed():
    train, _ = make_synthetic_dataset(5, 30, 6, 0.3, np.random.default_rng(14))
    outs = []
    for _ in range(2):
        params = init_params(6, (12,), 5, "relu", np.random.default_rng(1))
        train_on_experience(
            params, train.features, train.labels,
            TrainConfig(lr=0.1, epochs_per_experience=3), np.random.default_rng(2),
        )
        outs.append(params)
    for w0, w1 in zip(outs[0].weights, outs[1].weights):
        assert np.array_equal(w0, w1)


def test_activations_expose_each_layer():
    rng = np.random.default_rng(15)
    params = init_params(6, (9, 7), 4, "tanh", rng)
    acts = activations(params, rng.normal(size=(10, 6)))
    assert [a.shape for a in acts] == [(10, 9), (10, 7), (10, 4)]


class TestCheckpoints:
    def test_snapshot_restore_bit_identical(self):
        params = init_params(5, (7,), 3, "relu", np.random.default_rng(0))
        ckpt = snapshot(params, 4)
        params.weights[0][0, 0] += 1.0  # mutate after snapshot
        restored = ckpt.params.copy()
        assert restored.weights[0][0, 0] != params.weights[0][0, 0]
        ckpt2 = snapshot(params, 5)
        again = ckpt2.params.copy()
        for w0, w1 in zip(params.weights, again.weights):
            assert np.array_equal(w0, w1)

    def test_checkpoints_differ_after_training(self):
        rng = np.random.default_rng(1)
        params = init_params(4, (), 2, "relu", rng)
        before = snapshot(params, 0)
        x, y = rng.normal(size=(20, 4)), rng.integers(0, 2, size=20)
        train_on_experience(params, x, y, TrainConfig(lr=0.5), rng)
        after = snapshot(params, 1)
        assert not np.array_equal(before.params.weights[0], after.params.weights[0])

    def test_file_round_trip(self, tmp_path):
        params = init_params(5, (7,), 3, "tanh", np.random.default_rng(2))
        path = tmp_path / "ckpt.npz"
        save_checkpoint(snapshot(params, 11, note="x"), path)
        loaded = load_checkpoint(path)
        assert loaded.experience_index == 11
        assert loaded.meta == {"note": "x"}
        assert loaded.params.activation == "tanh"
        for w0, w1 in zip(params.weights, loaded.params.weights):
            assert np.array_equal(w0, w1)

    def test_corrupt_checkpoint_rejected(self, tmp_path):
        params = init_params(5, (7,), 3, "relu", np.random.default_rng(3))
        path = tmp_path / "ckpt.npz"
        save_checkpoint(snapshot(params, 0), path)
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
        arrays["w0"] = arrays["w0"] + 1e-3  # tamper with a block, keep the header
        with open(path, "wb") as f:
            np.savez(f, **arrays)
        with pytest.raises(CheckpointError, match="digest"):
            load_checkpoint(path)

    def test_torn_checkpoint_closes_its_file(self, tmp_path):
        params = init_params(5, (7,), 3, "relu", np.random.default_rng(3))
        path = tmp_path / "ckpt.npz"
        save_checkpoint(snapshot(params, 0), path)
        path.write_bytes(path.read_bytes()[:50])  # torn mid-write: zipfile rejects it
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            # no pytest.raises: its traceback would keep the frame, and so the file, alive
            try:
                load_checkpoint(path)
            except CheckpointError as exc:
                message = str(exc)
            gc.collect()
        assert str(path) in message
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


@st.composite
def checkpoint_params(draw):
    """relu or tanh parameters of 1-3 layers, with nonzero biases."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    hidden = tuple(draw(st.lists(st.integers(1, 6), max_size=2)))
    activation = draw(st.sampled_from(["relu", "tanh"]))
    params = init_params(draw(st.integers(1, 6)), hidden, draw(st.integers(2, 6)), activation, rng)
    for b in params.biases:
        b += rng.normal(size=b.shape)
    return params


def _saved_blob(params, path, index=3) -> bytes:
    save_checkpoint(snapshot(params, index, config_digest="d"), path)
    return path.read_bytes()


def _assert_same_params(got: ModelParams, want: ModelParams) -> None:
    assert got.activation == want.activation
    assert len(got.weights) == len(want.weights) and len(got.biases) == len(want.biases)
    for g, w in zip(got.weights + got.biases, want.weights + want.biases):
        assert (g.dtype, g.shape) == (w.dtype, w.shape)
        assert g.tobytes() == w.tobytes()


@given(params=checkpoint_params(), index=st.integers(-1, 10**6))
@settings(max_examples=4, deadline=None)
def test_checkpoint_reader_equals_np_load_and_refuses_every_prefix(params, index):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ckpt.npz"
        blob = _saved_blob(params, path, index)
        loaded = load_checkpoint(path)
        assert loaded.experience_index == index and loaded.meta == {"config_digest": "d"}
        with np.load(path) as data:
            want = ModelParams(
                weights=[data[f"w{i}"] for i in range(len(params.weights))],
                biases=[data[f"b{i}"] for i in range(len(params.biases))],
                activation=params.activation,
            )
        _assert_same_params(loaded.params, want)
        _assert_same_params(loaded.params, params)
        # --resume trains on the loaded arrays in place
        assert all(a.flags.writeable for a in loaded.params.weights + loaded.params.biases)

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            for end in range(len(blob)):
                path.write_bytes(blob[:end])
                try:
                    load_checkpoint(path)
                except CheckpointError:
                    continue
                raise AssertionError(f"a {end}-byte prefix of {len(blob)} loaded")
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


@given(params=checkpoint_params(), mask=st.integers(1, 255))
# sets the encrypted and strong-encryption flags, and a version past zipfile's
@example(params=ModelParams(weights=[np.eye(2)], biases=[np.ones(2)]), mask=0x41)
@settings(max_examples=3, deadline=None)
def test_checkpoint_with_a_flipped_byte_is_refused_or_unchanged(params, mask):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ckpt.npz"
        blob = _saved_blob(params, path)
        for at in range(len(blob)):
            flipped = bytearray(blob)
            flipped[at] ^= mask
            path.write_bytes(flipped)
            try:
                loaded = load_checkpoint(path)
            except CheckpointError:
                continue
            # only bytes that no reader looks at (a timestamp, say) may change
            _assert_same_params(loaded.params, params)
            assert loaded.experience_index == 3 and loaded.meta == {"config_digest": "d"}

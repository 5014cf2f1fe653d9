import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cirsim.analysis import (
    block_distance,
    cka_layer_matrix,
    interpolate_checkpoints,
    linear_cka,
)
from cirsim.learner import (
    ModelParams,
    TrainConfig,
    accuracy,
    init_params,
    snapshot,
    train_on_experience,
)
from cirsim.stream import make_synthetic_dataset


@pytest.fixture()
def trained_pair():
    train, test = make_synthetic_dataset(4, 40, 6, 0.4, np.random.default_rng(0))
    params = init_params(6, (8,), 4, "relu", np.random.default_rng(1))
    rng = np.random.default_rng(2)
    cfg = TrainConfig(lr=0.3, epochs_per_experience=3)
    train_on_experience(params, train.features, train.labels, cfg, rng)
    ck_a = snapshot(params, 0)
    train_on_experience(params, train.features, train.labels, cfg, rng)
    ck_b = snapshot(params, 1)
    return ck_a, ck_b, test


class TestInterpolation:
    def test_identical_endpoints_flat_curve(self, trained_pair):
        ck_a, _, test = trained_pair
        curve = interpolate_checkpoints(ck_a, ck_a, 7, test.features, test.labels)
        assert np.all(curve.accuracies == curve.accuracies[0])

    def test_ten_points_mean_eight_interior_models(self, trained_pair):
        ck_a, ck_b, test = trained_pair
        curve = interpolate_checkpoints(ck_a, ck_b, 10, test.features, test.labels)
        assert curve.alphas.shape == (10,)
        assert curve.alphas[0] == 0.0 and curve.alphas[-1] == 1.0
        assert np.all(np.diff(curve.alphas) > 0)
        assert len(curve.alphas[1:-1]) == 8

    def test_endpoints_reproduce_checkpoint_evaluations(self, trained_pair):
        ck_a, ck_b, test = trained_pair
        curve = interpolate_checkpoints(ck_a, ck_b, 5, test.features, test.labels)
        # alpha=1 weights checkpoint a, alpha=0 checkpoint b
        assert curve.accuracies[-1] == accuracy(ck_a.params, test.features, test.labels)
        assert curve.accuracies[0] == accuracy(ck_b.params, test.features, test.labels)

    def test_shape_mismatch_rejected(self, trained_pair):
        ck_a, _, test = trained_pair
        other = snapshot(init_params(6, (9,), 4, "relu", np.random.default_rng(3)), 0)
        with pytest.raises(ValueError, match="mismatch"):
            interpolate_checkpoints(ck_a, other, 5, test.features, test.labels)

    def test_requires_two_points(self, trained_pair):
        ck_a, ck_b, test = trained_pair
        with pytest.raises(ValueError):
            interpolate_checkpoints(ck_a, ck_b, 1, test.features, test.labels)


def _combine(a: ModelParams, b: ModelParams, alpha: float) -> ModelParams:
    """Oracle: the interpolated model for one alpha, built alone."""
    return ModelParams(
        weights=[alpha * wa + (1.0 - alpha) * wb for wa, wb in zip(a.weights, b.weights)],
        biases=[alpha * ba + (1.0 - alpha) * bb for ba, bb in zip(a.biases, b.biases)],
        activation=a.activation,
    )


@given(
    activation=st.sampled_from(["relu", "tanh"]),
    hidden=st.lists(st.integers(1, 12), max_size=2),
    dims=st.tuples(st.integers(1, 8), st.integers(2, 9), st.integers(1, 40)),
    n_points=st.integers(2, 40),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_stacked_curve_equals_each_alpha_alone(activation, hidden, dims, n_points, seed):
    # the curve's models are scored in stacked chunks; every accuracy must be
    # that of its model combined and scored on its own
    rng = np.random.default_rng(seed)
    d, c, n = dims
    a, b = (init_params(d, tuple(hidden), c, activation, rng) for _ in range(2))
    for bias in a.biases + b.biases:
        bias += rng.normal(size=bias.shape)
    x, y = rng.normal(size=(n, d)), rng.integers(0, c, size=n)
    curve = interpolate_checkpoints(snapshot(a, 0), snapshot(b, 1), n_points, x, y)
    want = np.array([accuracy(_combine(a, b, float(al)), x, y) for al in curve.alphas])
    assert curve.accuracies.dtype == want.dtype
    assert curve.accuracies.tobytes() == want.tobytes()


class TestBlockDistance:
    def test_zero_for_identical_params(self):
        params = init_params(5, (7,), 3, "relu", np.random.default_rng(0))
        report = block_distance(params, params.copy())
        assert report.distances == (0.0, 0.0)
        assert report.block_names == ("block0", "block1")

    def test_doubling_gives_distance_one(self):
        params = init_params(5, (7,), 3, "relu", np.random.default_rng(1))
        doubled = ModelParams(
            weights=[2 * w for w in params.weights],
            biases=[2 * b for b in params.biases],
            activation=params.activation,
        )
        report = block_distance(params, doubled)
        assert all(d == pytest.approx(1.0) for d in report.distances)

    def test_zero_norm_reference_block_undefined(self):
        zero = ModelParams(weights=[np.zeros((3, 2))], biases=[np.zeros(2)])
        other = ModelParams(weights=[np.ones((3, 2))], biases=[np.ones(2)])
        report = block_distance(zero, other)
        assert report.distances == (None,)

    def test_pure_function_of_parameters(self):
        a = init_params(4, (5,), 3, "relu", np.random.default_rng(2))
        b = init_params(4, (5,), 3, "relu", np.random.default_rng(3))
        first = block_distance(a, b)
        second = block_distance(a.copy(), b.copy())
        assert first == second


class TestLinearCka:
    def test_self_similarity_is_one(self):
        x = np.random.default_rng(0).normal(size=(100, 12))
        assert linear_cka(x, x) == pytest.approx(1.0, abs=1e-9)

    def test_orthogonal_rotation_invariance(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(200, 10))
        q, _ = np.linalg.qr(rng.normal(size=(10, 10)))
        assert linear_cka(x, x @ q) == pytest.approx(1.0, abs=1e-9)

    def test_isotropic_scaling_invariance(self):
        x = np.random.default_rng(2).normal(size=(80, 6))
        y = np.random.default_rng(3).normal(size=(80, 9))
        assert linear_cka(x, y) == pytest.approx(linear_cka(3.7 * x, 0.2 * y), abs=1e-12)

    def test_symmetry(self):
        x = np.random.default_rng(4).normal(size=(60, 5))
        y = np.random.default_rng(5).normal(size=(60, 8))
        assert linear_cka(x, y) == pytest.approx(linear_cka(y, x), abs=1e-12)

    def test_independent_gaussians_near_zero(self):
        # oracle: independence implies low alignment at n >> d
        rng = np.random.default_rng(6)
        x = rng.normal(size=(1000, 50))
        y = rng.normal(size=(1000, 50))
        assert linear_cka(x, y) < 0.1

    def test_bounded_in_unit_interval(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            x = rng.normal(size=(30, 4))
            y = x @ rng.normal(size=(4, 6)) + 0.1 * rng.normal(size=(30, 6))
            value = linear_cka(x, y)
            assert 0.0 <= value <= 1.0 + 1e-12

    def test_errors(self):
        rng = np.random.default_rng(8)
        with pytest.raises(ValueError):
            linear_cka(rng.normal(size=(1, 4)), rng.normal(size=(1, 4)))
        with pytest.raises(ValueError):
            linear_cka(rng.normal(size=(5, 4)), rng.normal(size=(6, 4)))
        with pytest.raises(ValueError, match="zero-variance"):
            linear_cka(np.ones((10, 3)), rng.normal(size=(10, 3)))


def test_long_run_dynamics_stabilize_late_in_stream():
    # one long naive run at a fixed seed: consecutive-checkpoint interpolation
    # loses less accuracy late than early, the output block keeps drifting
    # from initialization faster than the input block, and same-layer CKA
    # between consecutive checkpoints moves toward 1
    from cirsim.distributions import PmfSpec
    from cirsim.sampling_generator import SamplingConfig, generate_sampling_stream
    from cirsim.seeding import derive_rng

    train, test = make_synthetic_dataset(
        50, 60, 8, 1.0, np.random.default_rng(0), test_fraction=0.25
    )
    n = 300
    cfg = SamplingConfig(n, 200, PmfSpec.geometric(0.01, n), tuple([0.2] * 50), seed=0)
    stream, _ = generate_sampling_stream(train, cfg, derive_rng(0, "stream"))
    params = init_params(8, (16,), 50, "relu", derive_rng(0, "learner-init"))
    init_snapshot = snapshot(params, -1)
    t_rng = derive_rng(0, "learner")
    t_cfg = TrainConfig(lr=0.3, epochs_per_experience=2, batch_size=32)
    marks = {40, 50, 60, 240, 250, 299}
    ckpts = {}
    for exp in stream:
        x, y = train.features[exp.train_instances], train.labels[exp.train_instances]
        if len(exp):
            train_on_experience(params, x, y, t_cfg, t_rng)
        if exp.index in marks:
            ckpts[exp.index] = snapshot(params, exp.index)

    def interp_drop(t):
        exp = stream.experiences[t]
        x, y = train.features[exp.train_instances], train.labels[exp.train_instances]
        curve = interpolate_checkpoints(ckpts[t], ckpts[t + 10], 10, x, y)
        return curve.accuracies[-1] - curve.accuracies.min()

    assert interp_drop(240) < interp_drop(40)

    mid = block_distance(init_snapshot.params, ckpts[60].params).distances
    end = block_distance(init_snapshot.params, ckpts[299].params).distances
    first_growth = end[0] / mid[0]
    last_growth = end[-1] / mid[-1]
    assert last_growth > first_growth
    assert end[-1] > mid[-1]

    probe = test.features[np.random.default_rng(0).choice(len(test), 256, replace=False)]
    early = np.diag(cka_layer_matrix(ckpts[40].params, ckpts[50].params, probe))
    late = np.diag(cka_layer_matrix(ckpts[240].params, ckpts[250].params, probe))
    assert late.mean() > early.mean()


def test_cka_layer_matrix_diagonal_high_for_same_model():
    train, _ = make_synthetic_dataset(4, 30, 6, 0.4, np.random.default_rng(0))
    params = init_params(6, (8, 5), 4, "relu", np.random.default_rng(1))
    probe = train.features[:64]
    matrix = cka_layer_matrix(params, params, probe)
    assert matrix.shape == (3, 3)
    assert np.allclose(np.diag(matrix), 1.0, atol=1e-9)

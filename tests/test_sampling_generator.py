import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cirsim.distributions import PmfSpec
from cirsim.sampling_generator import (
    BimodalSpec,
    OccurrenceMatrix,
    SamplingConfig,
    bimodal_class_split,
    build_occurrence_matrix,
    generate_sampling_stream,
    make_bimodal_config,
    realize_stream,
)
from cirsim.stream import make_synthetic_dataset


def _config(n=20, s=60, c=10, p_rep=0.3, fo=None, seed=0):
    fo = fo or PmfSpec.geometric(0.2, n)
    return SamplingConfig(n, s, fo, tuple([p_rep] * c), seed=seed)


def test_all_ones_matrix_when_everything_repeats():
    cfg = _config(n=15, c=6, p_rep=1.0, fo=PmfSpec.geometric(1.0, 15))
    occ = build_occurrence_matrix(cfg, np.random.default_rng(0))
    assert np.array_equal(occ.matrix, np.ones((6, 15), dtype=np.int8))
    assert np.array_equal(occ.first_occurrence_index, np.zeros(6))


def test_zero_repetition_gives_single_occurrence_rows():
    cfg = _config(n=30, c=8, p_rep=0.0)
    occ = build_occurrence_matrix(cfg, np.random.default_rng(1))
    # repairs may add extra presences to otherwise-empty columns; check the
    # un-repaired rows stay single-occurrence
    repaired = len(occ.repair_notes)
    assert occ.matrix.sum() <= 8 + repaired
    for c in range(8):
        row = occ.matrix[c]
        assert row[occ.first_occurrence_index[c]] == 1


def test_row_zero_before_first_occurrence():
    cfg = _config(n=40, c=12, p_rep=0.5)
    occ = build_occurrence_matrix(cfg, np.random.default_rng(2))
    for c in range(12):
        foi = occ.first_occurrence_index[c]
        assert occ.matrix[c, :foi].sum() == 0
        assert occ.matrix[c, foi] == 1


def test_repetition_rate_matches_bernoulli_mean():
    # oracle: empirical ones-rate after first occurrence ~ Bernoulli mean
    cfg = _config(n=500, c=50, p_rep=0.2, fo=PmfSpec.geometric(0.05, 500), seed=5)
    occ = build_occurrence_matrix(cfg, np.random.default_rng(5))
    for c in range(50):
        foi = occ.first_occurrence_index[c]
        tail = occ.matrix[c, foi + 1 :]
        if tail.size >= 200:
            assert abs(tail.mean() - 0.2) <= 0.05


def test_every_column_nonempty_after_repair():
    cfg = _config(n=50, c=3, p_rep=0.0, fo=PmfSpec.geometric(0.9, 50))
    occ = build_occurrence_matrix(cfg, np.random.default_rng(3))
    assert np.all(occ.matrix.sum(axis=0) >= 1)
    assert occ.repair_notes  # columns beyond the first occurrences needed repair


def test_repair_before_any_first_occurrence_pulls_class_forward():
    weights = [0.0] * 19 + [1.0]
    cfg = _config(n=20, c=4, p_rep=0.0, fo=PmfSpec.custom(weights))
    occ = build_occurrence_matrix(cfg, np.random.default_rng(4))
    assert np.all(occ.matrix.sum(axis=0) >= 1)
    assert occ.matrix[:, 0].sum() >= 1
    assert any("pulled first occurrence" in note for note in occ.repair_notes)
    for c in range(4):
        foi = occ.first_occurrence_index[c]
        assert occ.matrix[c, :foi].sum() == 0
        assert occ.matrix[c, foi] == 1


def test_determinism_and_seed_sensitivity():
    cfg = _config(seed=7)
    a = build_occurrence_matrix(cfg, np.random.default_rng(7))
    b = build_occurrence_matrix(cfg, np.random.default_rng(7))
    c = build_occurrence_matrix(cfg, np.random.default_rng(8))
    assert np.array_equal(a.matrix, b.matrix)
    assert not np.array_equal(a.matrix, c.matrix)


@pytest.fixture(scope="module")
def dataset():
    train, _ = make_synthetic_dataset(10, 50, 4, 0.2, np.random.default_rng(0))
    return train


def _manual_matrix(columns):
    matrix = np.asarray(columns, dtype=np.int8).T
    foi = np.array(
        [row.nonzero()[0][0] if row.any() else matrix.shape[1] for row in matrix]
    )
    return OccurrenceMatrix(matrix=matrix, first_occurrence_index=foi)


def test_floor_quota_three_classes(dataset):
    # S=100, three present classes -> 33 each, experience size 99
    occ = _manual_matrix([[1, 1, 1, 0, 0, 0, 0, 0, 0, 0]])
    cfg = SamplingConfig(1, 100, PmfSpec.uniform(1), tuple([0.5] * 10), seed=0)
    stream = realize_stream(dataset, occ, cfg, np.random.default_rng(0))
    exp = stream.experiences[0]
    assert len(exp) == 99
    labels = dataset.labels[exp.train_instances]
    assert all((labels == c).sum() == 33 for c in range(3))


def test_floor_quota_single_class(dataset):
    occ = _manual_matrix([[0, 0, 0, 0, 1, 0, 0, 0, 0, 0]])
    cfg = SamplingConfig(1, 10, PmfSpec.uniform(1), tuple([0.5] * 10), seed=0)
    stream = realize_stream(dataset, occ, cfg, np.random.default_rng(0))
    exp = stream.experiences[0]
    assert len(exp) == 10
    assert exp.present_classes == frozenset([4])


def test_no_duplicate_instances_within_one_experience(dataset):
    cfg = _config(n=10, s=40, c=10, p_rep=0.8)
    stream, _ = generate_sampling_stream(dataset, cfg)
    for exp in stream:
        labels = dataset.labels[exp.train_instances]
        for c in np.unique(labels):
            drawn = exp.train_instances[labels == c]
            assert len(drawn) == len(set(drawn.tolist()))


def test_experience_sizes_follow_floor_formula(dataset):
    cfg = _config(n=25, s=47, c=10, p_rep=0.4, seed=11)
    stream, occ = generate_sampling_stream(dataset, cfg)
    for exp in stream:
        n_present = int(occ.matrix[:, exp.index].sum())
        assert len(exp) == n_present * (47 // n_present)
        assert len(exp) <= 47


def test_pool_smaller_than_quota_falls_back_and_flags():
    from cirsim.stream import LabeledDataset

    rng = np.random.default_rng(0)
    features = rng.normal(size=(8, 3))
    labels = np.array([0, 0, 0, 0, 0, 1, 1, 1])  # class 1 pool of 3
    small = LabeledDataset(features, labels, 2)
    occ = _manual_matrix([[0, 1]])
    cfg = SamplingConfig(1, 10, PmfSpec.uniform(1), (0.5, 0.5), seed=0)
    stream = realize_stream(small, occ, cfg, np.random.default_rng(1))
    exp = stream.experiences[0]
    assert len(exp) == 3  # whole pool, not the quota of 10
    assert exp.flags and "below quota" in exp.flags[0]
    assert any("below quota" in n for n in stream.notes)


def test_instances_recur_across_experiences(dataset):
    # with repetition 1.0 and small pools, the same instances must reappear
    cfg = _config(n=20, s=50, c=10, p_rep=1.0, fo=PmfSpec.geometric(1.0, 20))
    stream, _ = generate_sampling_stream(dataset, cfg)
    seen = {}
    repeats = 0
    for exp in stream:
        for idx in exp.train_instances:
            repeats += int(idx in seen)
            seen[int(idx)] = True
    assert repeats > 0


def test_long_stream_covers_dataset():
    # a long stream with modest repetition eventually visits the whole pool
    train, _ = make_synthetic_dataset(100, 50, 4, 0.3, np.random.default_rng(9))
    cfg = _config(n=500, s=200, c=100, p_rep=0.2, fo=PmfSpec.geometric(0.01, 500), seed=3)
    stream, _ = generate_sampling_stream(train, cfg)
    covered = set()
    for exp in stream:
        covered.update(exp.train_instances.tolist())
    assert len(covered) >= 0.99 * len(train)


class TestBimodal:
    def test_fraction_point_three(self):
        spec = BimodalSpec(0.3, 0.1, 1.0, assignment_seed=1)
        base = _config(n=10, c=100)
        cfg = make_bimodal_config(100, spec, base)
        rep = np.asarray(cfg.repetition)
        assert (rep == 0.1).sum() == 30
        assert (rep == 1.0).sum() == 70

    def test_fraction_zero_all_high(self):
        spec = BimodalSpec(0.0, 0.1, 0.8)
        cfg = make_bimodal_config(10, spec, _config(c=10))
        assert all(p == 0.8 for p in cfg.repetition)

    def test_fraction_one_all_low(self):
        spec = BimodalSpec(1.0, 0.1, 0.8)
        cfg = make_bimodal_config(10, spec, _config(c=10))
        assert all(p == 0.1 for p in cfg.repetition)

    def test_split_is_a_partition(self):
        spec = BimodalSpec(0.4, 0.2, 0.9, assignment_seed=5)
        infrequent, frequent = bimodal_class_split(25, spec)
        assert set(infrequent) & set(frequent) == set()
        assert sorted(set(infrequent) | set(frequent)) == list(range(25))
        assert len(infrequent) == 10

    def test_invalid_specs(self):
        with pytest.raises(ValueError):
            BimodalSpec(1.5, 0.1, 0.9).validate()
        with pytest.raises(ValueError):
            BimodalSpec(0.5, 0.9, 0.1).validate()


@given(
    n=st.integers(1, 40),
    c=st.integers(1, 15),
    p_rep=st.floats(0.0, 1.0),
    seed=st.integers(0, 10_000),
)
@settings(max_examples=50, deadline=None)
def test_matrix_invariants_hold_for_random_configs(n, c, p_rep, seed):
    cfg = SamplingConfig(n, 10, PmfSpec.geometric(0.3, n), tuple([p_rep] * c), seed=seed)
    occ = build_occurrence_matrix(cfg, np.random.default_rng(seed))
    assert occ.matrix.shape == (c, n)
    assert np.all(occ.matrix.sum(axis=0) >= 1)
    for cls in range(c):
        foi = occ.first_occurrence_index[cls]
        assert occ.matrix[cls, :foi].sum() == 0
        assert occ.matrix[cls, foi] == 1


def test_invalid_configs_rejected():
    with pytest.raises(ValueError):
        _config(s=0).validate()
    with pytest.raises(ValueError):
        SamplingConfig(5, 10, PmfSpec.uniform(4), (0.5,), seed=0).validate()
    with pytest.raises(ValueError):
        SamplingConfig(5, 10, PmfSpec.uniform(5), (1.5,), seed=0).validate()

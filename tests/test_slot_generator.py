import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cirsim.slot_generator import InfeasibleSlotConfig, SlotConfig, generate_slot_stream
from cirsim.stream import LabeledDataset, make_synthetic_dataset, verify_scenario_properties


@pytest.fixture(scope="module")
def dataset10():
    train, _ = make_synthetic_dataset(10, 20, 4, 0.2, np.random.default_rng(0))
    return train


def _class_occurrences(stream, num_classes):
    counts = np.zeros(num_classes, dtype=int)
    for exp in stream:
        for c in exp.present_classes:
            counts[c] += 1
    return counts


def test_k2_is_split_style_ci(dataset10):
    stream = generate_slot_stream(dataset10, SlotConfig(5, 2, seed=0))
    assert verify_scenario_properties(stream, dataset10).classification == "CI"
    for exp in stream:
        assert len(exp.present_classes) == 2
    assert np.all(_class_occurrences(stream, 10) == 1)


def test_k10_is_di_with_fresh_instances(dataset10):
    stream = generate_slot_stream(dataset10, SlotConfig(5, 10, seed=0))
    report = verify_scenario_properties(stream, dataset10)
    assert report.classification == "DI"
    assert report.instances_pairwise_disjoint
    for exp in stream:
        assert exp.present_classes == frozenset(range(10))


def test_k4_intermediate_repetition_counts(dataset10):
    # oracle: direct tabulation of class occurrences across the stream
    stream = generate_slot_stream(dataset10, SlotConfig(5, 4, seed=0))
    assert np.all(_class_occurrences(stream, 10) == 5 * 4 // 10)
    report = verify_scenario_properties(stream, dataset10)
    assert report.classification == "CIR"
    assert not report.concepts_pairwise_disjoint
    assert report.instances_pairwise_disjoint


@pytest.mark.parametrize("k", [2, 4, 5, 10])
def test_exactly_once_multiset_union(dataset10, k):
    stream = generate_slot_stream(dataset10, SlotConfig(5, k, seed=1))
    combined = np.sort(np.concatenate([e.train_instances for e in stream]))
    assert np.array_equal(combined, np.arange(len(dataset10)))


@pytest.mark.parametrize("k", [2, 4, 6, 8, 10])
def test_within_experience_slot_classes_distinct(dataset10, k):
    stream = generate_slot_stream(dataset10, SlotConfig(5, k, seed=2))
    for exp in stream:
        slot_classes = [c for c, _ in exp.provenance.slots]
        assert len(slot_classes) == k
        assert len(set(slot_classes)) == len(slot_classes)


def test_determinism_same_config_same_stream(dataset10):
    a = generate_slot_stream(dataset10, SlotConfig(5, 4, seed=9))
    b = generate_slot_stream(dataset10, SlotConfig(5, 4, seed=9))
    assert a.to_manifest() == b.to_manifest()


def test_different_seed_differs(dataset10):
    a = generate_slot_stream(dataset10, SlotConfig(5, 4, seed=1))
    b = generate_slot_stream(dataset10, SlotConfig(5, 4, seed=2))
    assert a.to_manifest() != b.to_manifest()


def test_sweep_classifications(dataset10):
    streams = [generate_slot_stream(dataset10, SlotConfig(5, k, seed=0)) for k in (2, 5, 10)]
    labels = [verify_scenario_properties(s, dataset10).classification for s in streams]
    assert labels == ["CI", "CIR", "DI"]


def test_sweep_single_di_boundary(dataset10):
    stream = generate_slot_stream(dataset10, SlotConfig(5, 10, seed=0))
    assert verify_scenario_properties(stream, dataset10).classification == "DI"


def test_k_above_c_rejected(dataset10):
    with pytest.raises(InfeasibleSlotConfig, match="slots_per_experience"):
        generate_slot_stream(dataset10, SlotConfig(5, 11, seed=0))


def test_k_below_one_rejected(dataset10):
    with pytest.raises(InfeasibleSlotConfig):
        generate_slot_stream(dataset10, SlotConfig(5, 0, seed=0))


def test_class_with_too_few_instances_rejected():
    train, _ = make_synthetic_dataset(4, 2, 4, 0.2, np.random.default_rng(0))
    # each class would need 3 chunks but only has 2 instances
    with pytest.raises(InfeasibleSlotConfig, match="instances"):
        generate_slot_stream(train, SlotConfig(3, 4, seed=0))


def test_uneven_class_pools_keep_exactly_once():
    # class pools of different sizes: remainders spread over earliest chunks
    rng = np.random.default_rng(3)
    features = rng.normal(size=(7 + 11 + 9 + 13, 3))
    labels = np.repeat([0, 1, 2, 3], [7, 11, 9, 13])
    from cirsim.stream import LabeledDataset

    dataset = LabeledDataset(features, labels, 4)
    stream = generate_slot_stream(dataset, SlotConfig(2, 4, seed=0))
    combined = np.sort(np.concatenate([e.train_instances for e in stream]))
    assert np.array_equal(combined, np.arange(len(dataset)))


def test_too_few_slots_for_every_class_rejected():
    train, _ = make_synthetic_dataset(20, 10, 4, 0.2, np.random.default_rng(0))
    cfg = SlotConfig(5, 2, seed=0)  # N*K = 10 slots for C = 20 classes
    with pytest.raises(InfeasibleSlotConfig, match=r"N\*K=10 < C=20"):
        cfg.validate(train)
    with pytest.raises(InfeasibleSlotConfig, match=r"N\*K=10 < C=20"):
        generate_slot_stream(train, cfg)


@st.composite
def feasible_slot_configs(draw):
    """(dataset, SlotConfig) with K <= C, N*K >= C and every class pool at
    least as large as the most chunks a class may get."""
    c = draw(st.integers(1, 12))
    k = draw(st.integers(1, c))
    n = draw(st.integers(-(-c // k), -(-c // k) + 6))
    max_chunks = -(-n * k // c)
    sizes = draw(st.lists(st.integers(max_chunks, max_chunks + 4), min_size=c, max_size=c))
    labels = np.repeat(np.arange(c), sizes)
    dataset = LabeledDataset(np.zeros((labels.size, 1)), labels, c)
    return dataset, SlotConfig(n, k, seed=draw(st.integers(0, 2**32)))


@settings(max_examples=300, deadline=None)
@given(feasible_slot_configs())
def test_every_feasible_config_fills_each_slot_once_with_every_instance(case):
    dataset, cfg = case
    stream = generate_slot_stream(dataset, cfg)
    assert len(stream) == cfg.n_experiences
    for exp in stream:
        slot_classes = [c for c, _ in exp.provenance.slots]
        assert len(slot_classes) == cfg.slots_per_experience
        assert len(set(slot_classes)) == len(slot_classes)
        assert exp.flags == ()
    assert len(stream.notes) == 1
    combined = np.sort(np.concatenate([e.train_instances for e in stream]))
    assert np.array_equal(combined, np.arange(len(dataset)))

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cirsim.learner import TrainConfig, accuracy, init_params, train_on_experience
from cirsim.slot_generator import SlotConfig, generate_slot_stream
from cirsim.stream import (
    DanglingInstanceError,
    Experience,
    LabeledDataset,
    Provenance,
    Stream,
    _separated_centers,
    load_dataset_csv,
    make_experience,
    make_synthetic_dataset,
    save_dataset_csv,
    verify_scenario_properties,
)


def test_synthetic_sizes_forced_by_arguments():
    train, test = make_synthetic_dataset(2, 10, 2, 0.1, np.random.default_rng(0))
    assert len(train) == 20
    sizes = [len(v) for v in train.per_class_index.values()]
    assert sizes == [10, 10]
    assert len(test) == 2  # 10% of 10, floored to at least 1 per class


def test_class_counts_are_cached_read_only_and_cover_every_class():
    data = LabeledDataset(np.zeros((5, 2)), np.array([3, 0, 3, 3, 1]), num_classes=5)
    counts = data.class_counts
    assert counts.tolist() == [1, 1, 0, 3, 0]
    assert data.class_counts is counts
    with pytest.raises(ValueError):
        counts[0] = 7


def test_synthetic_same_seed_bit_identical():
    a_train, a_test = make_synthetic_dataset(5, 20, 6, 0.3, np.random.default_rng(42))
    b_train, b_test = make_synthetic_dataset(5, 20, 6, 0.3, np.random.default_rng(42))
    assert np.array_equal(a_train.features, b_train.features)
    assert np.array_equal(a_train.labels, b_train.labels)
    assert np.array_equal(a_test.features, b_test.features)


def test_synthetic_clusters_linearly_separable():
    # oracle: a linear softmax classifier fit on the whole dataset
    train, _ = make_synthetic_dataset(20, 100, 16, 0.5, np.random.default_rng(1))
    params = init_params(16, (), 20, "relu", np.random.default_rng(2))
    train_on_experience(
        params,
        train.features,
        train.labels,
        TrainConfig(lr=0.1, epochs_per_experience=20, batch_size=32),
        np.random.default_rng(3),
    )
    assert accuracy(params, train.features, train.labels) > 0.90


def test_synthetic_rejects_bad_sizes():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        make_synthetic_dataset(1, 10, 4, 0.1, rng)
    with pytest.raises(ValueError):
        make_synthetic_dataset(3, 0, 4, 0.1, rng)
    with pytest.raises(ValueError):
        make_synthetic_dataset(3, 10, 1, 0.1, rng)


def _clusters_class_by_class(centers, per_class, spread, rng) -> LabeledDataset:
    """Oracle: each class's cluster drawn on its own, in class order."""
    num_classes, dim = centers.shape
    features = np.empty((num_classes * per_class, dim))
    labels = np.empty(num_classes * per_class, dtype=np.int64)
    for c in range(num_classes):
        rows = slice(c * per_class, (c + 1) * per_class)
        features[rows] = centers[c] + rng.normal(scale=spread, size=(per_class, dim))
        labels[rows] = c
    return LabeledDataset(features, labels, num_classes)


@st.composite
def _cluster_shapes(draw):
    if draw(st.integers(0, 2)) == 0:  # crowded: dim-2 centres are rejected, min_sep relaxes
        return draw(st.integers(20, 40)), 2
    return draw(st.integers(2, 120)), draw(st.integers(2, 20))


@settings(max_examples=30, deadline=None)
@given(
    shape=_cluster_shapes(),
    per_class=st.integers(1, 12),
    spread=st.floats(0.01, 5.0),
    test_fraction=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**63),
)
@example(shape=(120, 2), per_class=12, spread=0.5, test_fraction=0.5, seed=0)
@example(shape=(2, 20), per_class=1, spread=5.0, test_fraction=0.0, seed=1)
def test_synthetic_dataset_equals_class_by_class_draws(shape, per_class, spread,
                                                       test_fraction, seed):
    num_classes, dim = shape
    rng = np.random.default_rng(seed)
    got = make_synthetic_dataset(num_classes, per_class, dim, spread, rng, test_fraction)
    oracle_rng = np.random.default_rng(seed)
    centers = _separated_centers(num_classes, dim, oracle_rng)
    want = [
        _clusters_class_by_class(centers, n, spread, oracle_rng)
        for n in (per_class, max(1, round(test_fraction * per_class)))
    ]
    for g, w in zip(got, want):
        assert g.num_classes == w.num_classes
        assert g.features.dtype == w.features.dtype and g.features.shape == w.features.shape
        assert g.features.tobytes() == w.features.tobytes()
        assert g.labels.dtype == w.labels.dtype
        assert g.labels.tobytes() == w.labels.tobytes()
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


def test_crowded_dim_2_centres_relax_their_separation():
    # the crowded example above does reach the relaxing branch: two of its
    # centres lie closer than the initial min_sep of 3.0
    centers = _separated_centers(120, 2, np.random.default_rng(0))
    gaps = np.linalg.norm(centers[:, None] - centers[None], axis=-1)
    np.fill_diagonal(gaps, np.inf)
    assert gaps.min() < 3.0


def test_per_class_index_partitions_dataset():
    train, _ = make_synthetic_dataset(7, 13, 4, 0.2, np.random.default_rng(3))
    index = train.per_class_index
    combined = np.sort(np.concatenate(list(index.values())))
    assert np.array_equal(combined, np.arange(len(train)))
    for c, idx in index.items():
        assert np.all(train.labels[idx] == c)


@given(
    case=st.integers(1, 8).flatmap(
        lambda c: st.tuples(st.just(c), st.lists(st.integers(0, c - 1), max_size=60))
    )
)
@settings(max_examples=100)
def test_per_class_index_is_cached_read_only_flatnonzero(case):
    num_classes, labels = case  # classes absent from ``labels`` get empty pools
    dataset = LabeledDataset(np.zeros((len(labels), 2)), np.array(labels), num_classes)
    index = dataset.per_class_index
    assert list(index) == list(range(num_classes))
    for c in range(num_classes):
        expected = np.flatnonzero(dataset.labels == c)
        assert index[c].dtype == expected.dtype
        assert np.array_equal(index[c], expected)
    assert dataset.per_class_index is index
    for pool in index.values():
        with pytest.raises(ValueError):
            pool[...] = 0


def test_labels_must_be_in_range():
    with pytest.raises(ValueError):
        LabeledDataset(np.zeros((3, 2)), np.array([0, 1, 5]), num_classes=3)


def test_make_experience_derives_present_classes():
    train, _ = make_synthetic_dataset(4, 5, 3, 0.2, np.random.default_rng(0))
    exp = make_experience(0, [0, 1, 5], train, Provenance(kind="slot_assignment", slots=()))
    assert exp.present_classes == frozenset(int(c) for c in np.unique(train.labels[[0, 1, 5]]))


def test_make_experience_rejects_dangling_indices():
    train, _ = make_synthetic_dataset(4, 5, 3, 0.2, np.random.default_rng(0))
    with pytest.raises(DanglingInstanceError):
        make_experience(0, [0, 99], train, Provenance(kind="slot_assignment", slots=()))


def _single_experience_stream(dataset):
    exp = make_experience(
        0, np.arange(len(dataset)), dataset, Provenance(kind="slot_assignment", slots=())
    )
    return Stream(experiences=(exp,), dataset_ref=dataset.digest(), generator_config_hash="x")


class TestVerifyScenarioProperties:
    def test_slot_ci_construction(self):
        train, _ = make_synthetic_dataset(10, 20, 4, 0.2, np.random.default_rng(0))
        stream = generate_slot_stream(train, SlotConfig(5, 2, seed=0))
        report = verify_scenario_properties(stream, train)
        assert report.classification == "CI"
        assert report.max_instance_overlap == 0
        assert report.max_concept_overlap == 0
        assert report.domain_coverage and report.codomain_coverage

    def test_slot_di_construction(self):
        train, _ = make_synthetic_dataset(10, 20, 4, 0.2, np.random.default_rng(0))
        stream = generate_slot_stream(train, SlotConfig(5, 10, seed=0))
        report = verify_scenario_properties(stream, train)
        assert report.classification == "DI"
        assert report.max_instance_overlap == 0
        assert report.every_experience_full_codomain

    def test_single_experience_whole_dataset(self):
        train, _ = make_synthetic_dataset(3, 6, 3, 0.2, np.random.default_rng(0))
        report = verify_scenario_properties(_single_experience_stream(train), train)
        assert report.n_pairs == 0
        assert report.domain_coverage and report.codomain_coverage

    def test_dangling_index_detected(self):
        train, _ = make_synthetic_dataset(3, 6, 3, 0.2, np.random.default_rng(0))
        exp = Experience(
            index=0,
            train_instances=np.array([0, 999]),
            present_classes=frozenset([0]),
            provenance=Provenance(kind="slot_assignment", slots=()),
        )
        stream = Stream(experiences=(exp,), dataset_ref="d", generator_config_hash="x")
        with pytest.raises(DanglingInstanceError):
            verify_scenario_properties(stream, train)


def test_stream_requires_consecutive_indices():
    train, _ = make_synthetic_dataset(3, 6, 3, 0.2, np.random.default_rng(0))
    exp = make_experience(1, [0], train, Provenance(kind="slot_assignment", slots=()))
    with pytest.raises(ValueError):
        Stream(experiences=(exp,), dataset_ref="d", generator_config_hash="x")


def test_manifest_round_trip_is_identity():
    train, _ = make_synthetic_dataset(10, 20, 4, 0.2, np.random.default_rng(0))
    stream = generate_slot_stream(train, SlotConfig(5, 4, seed=3))
    manifest = stream.to_manifest()
    restored = Stream.from_manifest(manifest)
    assert restored.to_manifest() == manifest


def test_manifest_file_round_trip(tmp_path):
    train, _ = make_synthetic_dataset(6, 10, 4, 0.2, np.random.default_rng(0))
    stream = generate_slot_stream(train, SlotConfig(3, 2, seed=1))
    path = tmp_path / "manifest.json"
    stream.save_manifest(path)
    restored = Stream.from_manifest(json.loads(path.read_text()))
    assert restored.to_manifest() == stream.to_manifest()


def test_manifest_digest_written_as_last_key(tmp_path):
    train, _ = make_synthetic_dataset(6, 10, 4, 0.2, np.random.default_rng(0))
    stream = generate_slot_stream(train, SlotConfig(3, 2, seed=1))
    stream.save_manifest(tmp_path / "plain.json")
    # reference: the plain manifest, reloaded, stamped and dumped again
    stamped = json.loads((tmp_path / "plain.json").read_text())
    stamped["config_digest"] = "abc"
    stream.save_manifest(tmp_path / "stamped.json", config_digest="abc")
    assert (tmp_path / "stamped.json").read_text() == json.dumps(stamped, indent=1) + "\n"
    restored = Stream.from_manifest(json.loads((tmp_path / "stamped.json").read_text()))
    assert restored.to_manifest() == stream.to_manifest()


_text = st.text(max_size=12) | st.just('"experiences": []')
_experience = st.fixed_dictionaries({
    "instances": st.lists(st.integers(0, 2**62), max_size=6),  # empty ones too
    "present": st.frozensets(st.integers(0, 2**40), max_size=4),
    "provenance": st.one_of(
        st.builds(Provenance, kind=st.just("occurrence_column"),
                  column=st.lists(st.integers(0, 1), max_size=5).map(tuple)),
        st.builds(Provenance, kind=st.just("slot_assignment"),
                  slots=st.lists(st.tuples(st.integers(0, 99), st.integers(0, 9)),
                                 max_size=3).map(tuple)),
    ),
    "flags": st.lists(_text, max_size=2).map(tuple),
})


@settings(max_examples=150, deadline=None)
@given(
    experiences=st.lists(_experience, max_size=4),
    notes=st.lists(_text, max_size=2),
    dataset_ref=_text,
    config_digest=st.none() | _text,
)
def test_manifest_text_equals_json_dumps(experiences, notes, dataset_ref, config_digest):
    stream = Stream(
        experiences=tuple(
            Experience(i, e["instances"], e["present"], e["provenance"], e["flags"])
            for i, e in enumerate(experiences)
        ),
        dataset_ref=dataset_ref,
        generator_config_hash="h",
        notes=tuple(notes),
    )
    manifest = stream.to_manifest()
    if config_digest is not None:
        manifest["config_digest"] = config_digest
    assert stream.manifest_text(config_digest) == json.dumps(manifest, indent=1) + "\n"


_SLOTS = Provenance("slot_assignment", slots=((3, 0), (7, 2)))
_COLUMN = Provenance("occurrence_column", column=(0, 1, 1, 0))


@pytest.mark.parametrize("experiences, notes", [
    pytest.param([], ["no experiences"], id="no-experiences"),
    pytest.param([([], {0}, _COLUMN, ())], [], id="an-experience-with-no-instances"),
    pytest.param([([4, 1], {1}, _SLOTS, ()), ([2], {2}, _COLUMN, ("x",))], [],
                 id="both-provenance-kinds"),
    pytest.param([([0], set(), Provenance("slot_assignment", slots=()), ()),
                   ([], set(), Provenance("occurrence_column", column=()), ())], [],
                 id="empty-slots-and-column"),
    pytest.param([([5], {5}, _SLOTS, ('say "hi"', "café ☃", "tab\tline\n"))],
                 ['a "quoted" note', "naïve \\ back\\slash", "漢\U0001f600"],
                 id="notes-and-flags-that-need-escaping"),
])
def test_manifest_text_equals_json_dumps_at_the_edges(experiences, notes):
    stream = Stream(
        experiences=tuple(Experience(i, *e) for i, e in enumerate(experiences)),
        dataset_ref='ref "é"',
        generator_config_hash="h",
        notes=tuple(notes),
    )
    for digest in (None, "abc"):
        manifest = stream.to_manifest()
        if digest is not None:
            manifest["config_digest"] = digest
        assert stream.manifest_text(digest) == json.dumps(manifest, indent=1) + "\n"


def test_dataset_csv_round_trip(tmp_path):
    train, _ = make_synthetic_dataset(4, 9, 5, 0.3, np.random.default_rng(5))
    path = tmp_path / "data.csv"
    save_dataset_csv(train, path)
    loaded = load_dataset_csv(path)
    assert loaded.num_classes == train.num_classes
    assert np.array_equal(loaded.labels, train.labels)
    assert np.array_equal(loaded.features, train.features)

import json
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cirsim.buffers import (
    POLICIES,
    ReplayBuffer,
    buffer_composition,
    class_balanced_quotas,
    frequency_aware_quotas,
)


def _feed(buffer, labels, rng, start=0):
    """Stream one experience whose instance ids are consecutive."""
    labels = np.asarray(labels, dtype=np.int64)
    instances = np.arange(start, start + labels.size, dtype=np.int64)
    buffer.update(instances, labels, rng)
    return start + labels.size


# -- reservoir ----------------------------------------------------------------


def test_rs_fill_phase_keeps_everything():
    buf = ReplayBuffer(max_size=100, policy="rs")
    _feed(buf, np.zeros(60, dtype=int), np.random.default_rng(0))
    assert buf.total_stored() == 60
    inst, _ = buf.stored_instances_and_labels()
    assert np.array_equal(np.sort(inst), np.arange(60))


def test_rs_capacity_respected():
    buf = ReplayBuffer(max_size=50, policy="rs")
    rng = np.random.default_rng(1)
    start = 0
    for _ in range(10):
        start = _feed(buf, np.zeros(40, dtype=int), rng, start)
        assert buf.total_stored() <= 50
    assert buf.total_stored() == 50
    assert buf.rs_seen_count == 400


def test_rs_inclusion_probability_monte_carlo_small():
    # oracle: reservoir property, inclusion frequency ~ M/n
    m, n, trials = 50, 500, 2000
    hits = np.zeros(n)
    for t in range(trials):
        buf = ReplayBuffer(max_size=m, policy="rs")
        _feed(buf, np.zeros(n, dtype=int), np.random.default_rng(t))
        inst, _ = buf.stored_instances_and_labels()
        hits[inst] += 1
    freqs = hits / trials
    assert np.all(np.abs(freqs - m / n) <= 0.03)


def test_rs_mirrors_stream_class_ratio():
    rng = np.random.default_rng(3)
    labels = np.array([0] * 900 + [1] * 100)
    rng.shuffle(labels)
    buf = ReplayBuffer(max_size=200, policy="rs")
    _feed(buf, labels, rng)
    counts = buf.counts()
    assert counts[1] / 200 == pytest.approx(0.1, abs=0.05)


@given(
    max_size=st.integers(1, 30),
    sizes=st.lists(st.integers(0, 25), min_size=1, max_size=8),
    c=st.integers(0, 9),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=100, deadline=None)
def test_cb_on_one_class_is_the_reservoir(max_size, sizes, c, seed):
    # cb's per-class reservoir and rs are one rule: with one class the quota
    # is the whole buffer, so both keep the same items in the same slots
    rs = ReplayBuffer(max_size=max_size, policy="rs")
    cb = ReplayBuffer(max_size=max_size, policy="cb")
    rng_rs, rng_cb = np.random.default_rng(seed), np.random.default_rng(seed)
    start_rs = start_cb = 0
    for n in sizes:
        start_rs = _feed(rs, np.full(n, c), rng_rs, start_rs)
        start_cb = _feed(cb, np.full(n, c), rng_cb, start_cb)
        assert np.array_equal(cb.instances, rs.instances)
        assert rng_cb.bit_generator.state == rng_rs.bit_generator.state
        assert cb.to_state()["cb_class_seen"].get(str(c), 0) == rs.rs_seen_count


# -- class balanced -------------------------------------------------------------


def test_cb_two_classes_split_evenly():
    buf = ReplayBuffer(max_size=100, policy="cb")
    rng = np.random.default_rng(0)
    _feed(buf, np.repeat([0, 1], 80), rng)
    assert buf.counts() == {0: 50, 1: 50}


def test_cb_third_class_rebalances_to_34_33_33():
    # oracle: hand-simulated rebalance, earliest-seen class keeps the extra slot
    buf = ReplayBuffer(max_size=100, policy="cb")
    rng = np.random.default_rng(0)
    start = _feed(buf, np.repeat([0, 1], 80), rng)
    _feed(buf, np.full(80, 2), rng, start)
    assert buf.counts() == {0: 34, 1: 33, 2: 33}
    assert buf.total_stored() == 100


def test_cb_quota_leftovers_to_earliest_seen():
    assert class_balanced_quotas([4, 2, 7], 100) == {4: 34, 2: 33, 7: 33}
    assert class_balanced_quotas([1], 10) == {1: 10}
    assert class_balanced_quotas([], 10) == {}


def test_cb_ratio_equals_class_fraction_at_steady_state():
    buf = ReplayBuffer(max_size=100, policy="cb")
    rng = np.random.default_rng(5)
    start = 0
    for _ in range(5):
        start = _feed(buf, np.repeat(np.arange(10), 30), rng, start)
    comp = buffer_composition(buf, infrequent_classes=[0, 1])
    assert comp.infrequent_ratio == pytest.approx(0.2, abs=0.011)


# -- frequency aware -------------------------------------------------------------


def test_fa_symmetric_quotas():
    assert frequency_aware_quotas({0: 1, 1: 1}, 100) == {0: 50, 1: 50}


def test_fa_quota_inverse_observations():
    # oracle: Q = {1, 1/4}; normalized {0.8, 0.2}; slots {80, 20}
    assert frequency_aware_quotas({0: 1, 1: 4}, 100) == {0: 80, 1: 20}


def _brute_force_quotas(observations, max_size):
    classes = sorted(observations)
    q = [1.0 / observations[c] for c in classes]
    total = sum(q)
    slots = {c: math.ceil(qc / total * max_size) for c, qc in zip(classes, q)}
    while sum(slots.values()) > max_size:
        candidates = [c for c in classes if slots[c] > 0]
        candidates.sort(key=lambda c: (-observations[c], -slots[c], c))
        slots[candidates[0]] -= 1
    return slots


@given(
    obs=st.dictionaries(st.integers(0, 30), st.integers(1, 50), min_size=1, max_size=12),
    max_size=st.integers(1, 500),
)
@settings(max_examples=100)
def test_fa_quotas_match_brute_force_and_sum_to_capacity(obs, max_size):
    slots = frequency_aware_quotas(obs, max_size)
    assert slots == _brute_force_quotas(obs, max_size)
    assert sum(slots.values()) == max_size
    assert all(v >= 0 for v in slots.values())


@given(
    obs=st.dictionaries(st.integers(0, 59), st.integers(1, 200), min_size=1, max_size=60),
    max_size=st.integers(1, 1000),
)
@example(obs={0: 1, 1: 200}, max_size=10)  # the top level is zeroed: {0: 10, 1: 0}
@example(obs={0: 1, 1: 2, 2: 2, 3: 2}, max_size=12)  # lowered unevenly: 3 -> 2, 2, 3
@example(obs={c: 1 + c % 7 for c in range(60)}, max_size=1000)
@settings(max_examples=200, deadline=None)
def test_fa_quotas_match_brute_force_at_replay_grid_scale(obs, max_size):
    # the replay grid's scale: 50 classes, M = 500, up to 200 observations
    slots = frequency_aware_quotas(obs, max_size)
    assert slots == _brute_force_quotas(obs, max_size)
    assert sum(slots.values()) == max_size


@given(
    obs=st.dictionaries(st.integers(0, 30), st.integers(1, 50), min_size=2, max_size=12),
    max_size=st.integers(10, 500),
)
@settings(max_examples=100)
def test_fa_monotone_fairness(obs, max_size):
    # fewer observations never earns a smaller quota
    slots = frequency_aware_quotas(obs, max_size)
    for c in obs:
        for d in obs:
            if obs[c] < obs[d]:
                assert slots[c] >= slots[d]


def test_fa_hand_simulated_fill_sequence():
    # M=10. Exp 1: 20 samples of A. Exp 2: 20 samples of B.
    # O={A:2? no: A:1,B:1}? -- trace: after exp1 O={A:1}, S={A:10}.
    # After exp2 O={A:1,B:1}: S={A:5,B:5}.
    # Exp 3 repeats A: O={A:2,B:1}: Q={.5,1} -> Qhat={1/3,2/3} -> ceil {4,7}
    # trim (A most observed) -> {3,7}; B stored 5, no incoming -> kept 5;
    # leftover 2 -> fill goes to A (most observed, has incoming): A=5.
    buf = ReplayBuffer(max_size=10, policy="fa")
    rng = np.random.default_rng(0)
    start = _feed(buf, np.full(20, 0), rng)
    assert buf.counts() == {0: 10}
    start = _feed(buf, np.full(20, 1), rng, start)
    assert buf.counts() == {0: 5, 1: 5}
    _feed(buf, np.full(20, 0), rng, start)
    assert buf.counts() == {0: 5, 1: 5}
    assert frequency_aware_quotas(buf.observations, 10) == {0: 3, 1: 7}
    assert buf.total_stored() == 10


def test_fa_quota_larger_than_available_leaves_no_hole():
    # infrequent class has tiny pool; fill must restore full capacity
    buf = ReplayBuffer(max_size=40, policy="fa")
    rng = np.random.default_rng(2)
    start = _feed(buf, np.full(3, 0), rng)  # class 0: only 3 samples ever
    for _ in range(6):
        start = _feed(buf, np.repeat([1, 2], 30), rng, start)
    counts = buf.counts()
    assert counts[0] == 3
    assert buf.total_stored() == 40  # frequent classes absorbed the slack


def test_fa_equal_presence_matches_cb_quotas():
    # every class in every experience: fa and cb coincide up to rounding
    fa = ReplayBuffer(max_size=100, policy="fa")
    cb = ReplayBuffer(max_size=100, policy="cb")
    rng_a, rng_b = np.random.default_rng(0), np.random.default_rng(0)
    start_a = start_b = 0
    for _ in range(7):
        labels = np.repeat(np.arange(7), 15)
        start_a = _feed(fa, labels, rng_a, start_a)
        start_b = _feed(cb, labels, rng_b, start_b)
    fa_counts, cb_counts = fa.counts(), cb.counts()
    for c in range(7):
        assert abs(fa_counts[c] - cb_counts[c]) <= 1


def test_capacity_invariant_across_policies_random_streams():
    rng = np.random.default_rng(9)
    for policy in ("rs", "cb", "fa"):
        buf = ReplayBuffer(max_size=37, policy=policy)
        start = 0
        streamed = 0
        for _ in range(12):
            labels = rng.integers(0, 6, size=rng.integers(1, 40))
            start = _feed(buf, labels, rng, start)
            streamed += labels.size
            assert buf.total_stored() <= 37
            if policy == "fa" and streamed >= 37:
                assert buf.total_stored() == 37


# -- duplicate instances ------------------------------------------------------------
# A sampling stream repeats an instance across experiences, never within one.
# The buffers store stream items, so one instance may fill several slots.


@given(
    policy=st.sampled_from(POLICIES),
    max_size=st.integers(1, 30),
    num_classes=st.integers(1, 5),
    experiences=st.lists(st.sets(st.integers(0, 19), max_size=20), min_size=1, max_size=10),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=100, deadline=None)
def test_an_instance_is_stored_at_most_as_often_as_it_was_streamed(
    policy, max_size, num_classes, experiences, seed
):
    buf = ReplayBuffer(max_size=max_size, policy=policy)
    rng = np.random.default_rng(seed)
    streamed = Counter()
    for instances in experiences:
        instances = rng.permutation(sorted(instances)).astype(np.int64)
        buf.update(instances, instances % num_classes, rng)
        streamed.update(instances.tolist())
        stored = Counter(buf.instances.tolist())
        assert all(n <= streamed[i] for i, n in stored.items())
        assert np.array_equal(buf.labels, buf.instances % num_classes)


@pytest.mark.parametrize("policy", POLICIES)
def test_an_instance_streamed_in_two_experiences_is_stored_twice(policy):
    buf = ReplayBuffer(max_size=10, policy=policy)
    rng = np.random.default_rng(0)
    for _ in range(2):
        buf.update(np.array([7]), np.array([0]), rng)
    assert buf.instances.tolist() == [7, 7]


@given(
    policy=st.sampled_from(POLICIES),
    max_size=st.integers(1, 30),
    experiences=st.lists(st.lists(st.integers(0, 9), max_size=25), min_size=1, max_size=8),
    cut=st.integers(0, 8),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=80, deadline=None)
def test_state_round_trip_mid_stream(policy, max_size, experiences, cut, seed):
    buf = ReplayBuffer(max_size=max_size, policy=policy)
    rng = np.random.default_rng(seed)
    start = 0
    for labels in experiences[:cut]:
        start = _feed(buf, labels, rng, start)
    restored = ReplayBuffer.from_state(json.loads(json.dumps(buf.to_state())))
    rng_restored = np.random.default_rng(seed)
    rng_restored.bit_generator.state = rng.bit_generator.state
    for labels in [[]] + experiences[cut:]:
        _feed(restored, labels, rng_restored, start)
        start = _feed(buf, labels, rng, start)
        assert json.dumps(restored.to_state()) == json.dumps(buf.to_state())
        assert restored.quotas() == buf.quotas()
        assert restored.counts() == buf.counts()
        assert list(buf.counts().items()) == sorted(Counter(buf.labels.tolist()).items())
        if buf.total_stored():
            for got, want in zip(restored.sample(7, rng_restored), buf.sample(7, rng)):
                assert np.array_equal(got, want)
    inst, labs = buf.stored_instances_and_labels()
    assert not inst.flags.writeable and not labs.flags.writeable


@given(
    policy=st.sampled_from(POLICIES),
    max_size=st.integers(1, 30),
    labels=st.lists(st.integers(0, 9), min_size=1, max_size=60),
    shape=st.tuples(st.integers(1, 8), st.integers(1, 9)),
    shuffled=st.integers(0, 40),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=80, deadline=None)
def test_sample_of_a_shape_equals_successive_draws(policy, max_size, labels, shape, shuffled, seed):
    # training draws an epoch's replay picks at once, after the epoch's
    # permutation; that must equal one draw per mini-batch
    buf = ReplayBuffer(max_size=max_size, policy=policy)
    _feed(buf, labels, np.random.default_rng(seed))
    at_once, per_batch = np.random.default_rng(seed), np.random.default_rng(seed)
    at_once.permutation(shuffled)
    per_batch.permutation(shuffled)
    n_batches, k = shape
    inst, labs = buf.sample(shape, at_once)
    draws = [buf.sample(k, per_batch) for _ in range(n_batches)]
    assert inst.shape == labs.shape == shape
    assert np.array_equal(inst, np.stack([i for i, _ in draws]))
    assert np.array_equal(labs, np.stack([lab for _, lab in draws]))
    assert at_once.bit_generator.state == per_batch.bit_generator.state


def test_composition_empty_buffer():
    comp = buffer_composition(ReplayBuffer(max_size=10, policy="rs"))
    assert comp.empty
    assert comp.infrequent_ratio == 0.0
    assert comp.total == 0


def test_composition_counts_are_exact():
    buf = ReplayBuffer(max_size=100, policy="cb")
    rng = np.random.default_rng(1)
    _feed(buf, np.repeat([3, 5], 10), rng)
    comp = buffer_composition(buf, infrequent_classes=[3])
    assert comp.per_class == {3: 10, 5: 10}
    assert comp.infrequent_ratio == 0.5


def test_rs_ratio_well_below_cb_on_unbalanced_stream():
    # two infrequent classes out of ten, appearing rarely
    rng = np.random.default_rng(4)
    rs = ReplayBuffer(max_size=100, policy="rs")
    cb = ReplayBuffer(max_size=100, policy="cb")
    start_a = start_b = 0
    for i in range(20):
        present = list(range(2, 10))
        if i % 10 == 0:
            present = [0, 1] + present
        labels = np.repeat(present, 20)
        start_a = _feed(rs, labels, rng, start_a)
        start_b = _feed(cb, labels, rng, start_b)
    rs_ratio = buffer_composition(rs, [0, 1]).infrequent_ratio
    cb_ratio = buffer_composition(cb, [0, 1]).infrequent_ratio
    assert cb_ratio == pytest.approx(0.2, abs=0.02)
    assert rs_ratio < cb_ratio / 2


def test_invalid_constructions_rejected():
    with pytest.raises(ValueError):
        ReplayBuffer(max_size=0, policy="rs")
    with pytest.raises(ValueError):
        ReplayBuffer(max_size=10, policy="lru")
    buf = ReplayBuffer(max_size=10, policy="rs")
    with pytest.raises(ValueError):
        buf.sample(3, np.random.default_rng(0))

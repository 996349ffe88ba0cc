import numpy as np
import pytest

from contradapt.sampling import BatchPlan, class_aware_batch, draw, uniform_source_batch


def _pools(n_classes=4, per_class=10):
    source_labels = np.repeat(np.arange(n_classes), per_class)
    target_indices = np.arange(n_classes * per_class)
    target_labels = np.repeat(np.arange(n_classes), per_class)
    return source_labels, target_indices, target_labels


def test_plan_validation():
    for field in ("classes_per_batch", "per_class_source", "per_class_target", "ce_batch_size"):
        with pytest.raises(ValueError, match=field):
            BatchPlan.seeded(0, **{field: 0})


def test_seeded_plans_are_reproducible():
    src, tidx, tlab = _pools()
    a = class_aware_batch(BatchPlan.seeded(7), src, tidx, tlab, range(4))
    b = class_aware_batch(BatchPlan.seeded(7), src, tidx, tlab, range(4))
    assert a.classes == b.classes
    assert np.array_equal(a.source_indices, b.source_indices)
    assert np.array_equal(a.target_indices, b.target_indices)
    c = class_aware_batch(BatchPlan.seeded(8), src, tidx, tlab, range(4))
    assert a.classes != c.classes or not np.array_equal(a.source_indices, c.source_indices)


def test_draw_without_replacement_when_pool_suffices():
    rng = np.random.default_rng(0)
    pool = np.arange(10, 20)
    for _ in range(20):
        out = draw(rng, pool, 10)
        assert sorted(out.tolist()) == pool.tolist()  # full pool = permutation
        out = draw(rng, pool, 4)
        assert len(set(out.tolist())) == 4
        assert set(out.tolist()) <= set(pool.tolist())


def test_draw_falls_back_to_replacement():
    rng = np.random.default_rng(1)
    pool = np.array([3, 5])
    out = draw(rng, pool, 6)
    assert out.shape == (6,)
    assert set(out.tolist()) <= {3, 5}


def test_draw_empty_pool_raises():
    with pytest.raises(ValueError, match="empty pool"):
        draw(np.random.default_rng(0), np.array([]), 1)
    with pytest.raises(ValueError, match="empty pool"):
        draw(np.random.default_rng(0), 0, 1)


def test_draw_from_a_count_equals_draw_from_its_range():
    # An integer pool n gives the draw of np.arange(n), with and without
    # replacement, and leaves the generator in the same state.
    for n, count in ((1, 1), (1, 3), (5, 5), (7, 3), (3, 7), (20000, 32), (40, 64)):
        for n_as in (n, np.int64(n)):
            by_count, by_range = np.random.default_rng(n), np.random.default_rng(n)
            for _ in range(3):
                got = draw(by_count, n_as, count)
                want = draw(by_range, np.arange(n), count)
                assert got.dtype == want.dtype and np.array_equal(got, want)
            assert by_count.bit_generator.state == by_range.bit_generator.state
    plan, ref = BatchPlan.seeded(8, ce_batch_size=32), BatchPlan.seeded(8, ce_batch_size=32)
    for n_source in (20000, 32, 10):
        assert np.array_equal(uniform_source_batch(plan, n_source),
                              draw(ref.ce_rng, np.arange(n_source), 32))


def test_class_aware_batch_shape_and_grouping():
    src, tidx, tlab = _pools(n_classes=5, per_class=12)
    plan = BatchPlan.seeded(3, classes_per_batch=3, per_class_source=4, per_class_target=6)
    batch = class_aware_batch(plan, src, tidx, tlab, range(5))
    assert len(batch.classes) == 3
    assert list(batch.classes) == sorted(batch.classes)
    assert batch.source_indices.shape == (12,)
    assert batch.target_indices.shape == (18,)
    assert np.array_equal(batch.source_labels, np.repeat(batch.classes, 4))
    assert np.array_equal(batch.target_labels, np.repeat(batch.classes, 6))
    # every drawn index really belongs to the class of its block
    assert np.array_equal(src[batch.source_indices], batch.source_labels)
    assert np.array_equal(tlab[batch.target_indices], batch.target_labels)


def test_class_aware_batch_uses_all_classes_when_few():
    src, tidx, tlab = _pools(n_classes=2)
    plan = BatchPlan.seeded(0, classes_per_batch=3)
    batch = class_aware_batch(plan, src, tidx, tlab, [0, 1])
    assert batch.classes == (0, 1)


def test_class_aware_batch_respects_eligible_subset():
    src, tidx, tlab = _pools(n_classes=6)
    plan = BatchPlan.seeded(1, classes_per_batch=2)
    for _ in range(25):
        batch = class_aware_batch(plan, src, tidx, tlab, [1, 3, 5])
        assert set(batch.classes) <= {1, 3, 5}


def test_class_aware_batch_replacement_fallback_on_small_pools():
    source_labels = np.array([0, 0, 1])  # class 1 has a single source sample
    target_indices = np.array([10, 11])
    target_labels = np.array([0, 1])
    plan = BatchPlan.seeded(2, classes_per_batch=2, per_class_source=3, per_class_target=2)
    batch = class_aware_batch(plan, source_labels, target_indices, target_labels, [0, 1])
    assert (batch.source_indices[batch.source_labels == 1] == 2).all()
    assert (batch.target_indices[batch.target_labels == 1] == 11).all()


def test_class_aware_batch_errors():
    src, tidx, tlab = _pools(n_classes=2)
    plan = BatchPlan.seeded(0)
    with pytest.raises(ValueError, match="no eligible classes"):
        class_aware_batch(plan, src, tidx, tlab, [])
    with pytest.raises(ValueError, match="lacks samples"):
        class_aware_batch(plan, src, tidx[tlab == 0], tlab[tlab == 0], [0, 1])
    with pytest.raises(ValueError, match="must align"):
        class_aware_batch(plan, src, tidx, tlab[:5], [0, 1])
    with pytest.raises(ValueError, match="eligible_classes holds duplicate ids"):
        class_aware_batch(plan, src, tidx, tlab, [0, 0, 1])


def test_class_aware_batch_rejects_labels_that_are_not_whole_numbers():
    with pytest.raises(ValueError, match=r"labels \[0\.5, 1\.7\] are not whole numbers"):
        class_aware_batch(BatchPlan.seeded(0), [0.5, 1.7], [0, 1], [0.2, 1.9], (0, 1))
    with pytest.raises(ValueError, match=r"labels \[0\.2, 1\.9\] are not whole numbers"):
        class_aware_batch(BatchPlan.seeded(0), [0, 1], [0, 1], [0.2, 1.9], (0, 1))
    a = class_aware_batch(BatchPlan.seeded(0), [0.0, 1.0], [0, 1], [0.0, 1.0], (0, 1))
    b = class_aware_batch(BatchPlan.seeded(0), [0, 1], [0, 1], [0, 1], (0, 1))
    assert a.classes == b.classes
    assert np.array_equal(a.source_indices, b.source_indices)
    assert np.array_equal(a.target_indices, b.target_indices)


def test_uniform_source_batch_contracts():
    plan = BatchPlan.seeded(4, ce_batch_size=32)
    batch = uniform_source_batch(plan, 100)
    assert batch.shape == (32,)
    assert batch.min() >= 0 and batch.max() < 100
    assert len(set(batch.tolist())) == 32  # no replacement needed
    plan = BatchPlan.seeded(4, ce_batch_size=10)
    assert sorted(uniform_source_batch(plan, 10).tolist()) == list(range(10))
    with pytest.raises(ValueError, match="empty source"):
        uniform_source_batch(plan, 0)


def test_ce_lane_independent_of_cas_lane():
    src, tidx, tlab = _pools()
    busy = BatchPlan.seeded(11)
    for _ in range(5):
        class_aware_batch(busy, src, tidx, tlab, range(4))
    idle = BatchPlan.seeded(11)
    assert np.array_equal(uniform_source_batch(busy, 50), uniform_source_batch(idle, 50))
    # and the converse: CE draws leave the CAS lane untouched
    busy2 = BatchPlan.seeded(12)
    for _ in range(5):
        uniform_source_batch(busy2, 50)
    idle2 = BatchPlan.seeded(12)
    a = class_aware_batch(busy2, src, tidx, tlab, range(4))
    b = class_aware_batch(idle2, src, tidx, tlab, range(4))
    assert a.classes == b.classes
    assert np.array_equal(a.source_indices, b.source_indices)
    assert np.array_equal(a.target_indices, b.target_indices)


def test_class_selection_frequencies_are_uniform():
    src, tidx, tlab = _pools(n_classes=6, per_class=3)
    plan = BatchPlan.seeded(13, classes_per_batch=3, per_class_source=1, per_class_target=1)
    counts = np.zeros(6)
    n_batches = 4000
    for _ in range(n_batches):
        for c in class_aware_batch(plan, src, tidx, tlab, range(6)).classes:
            counts[c] += 1
    # Each class enters a batch with p = 3/6; binomial 3-sigma envelope.
    expected = n_batches * 0.5
    sigma = np.sqrt(n_batches * 0.25)
    assert np.all(np.abs(counts - expected) < 3.0 * sigma)


def test_within_class_draws_are_uniform():
    rng = np.random.default_rng(14)
    pool = np.arange(8)
    counts = np.zeros(8)
    n_draws = 4000
    for _ in range(n_draws):
        counts[draw(rng, pool, 2)] += 1
    # Each entry appears with p = 2/8 per draw.
    expected = n_draws * 0.25
    sigma = np.sqrt(n_draws * 0.25 * 0.75)
    assert np.all(np.abs(counts - expected) < 3.0 * sigma)

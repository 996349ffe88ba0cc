import numpy as np
import pytest

from contradapt.clustering import (
    ClusterState,
    _group_sums,
    _pairwise_dissimilarity,
    _unit_rows,
    filter_targets,
    source_class_centers,
    spherical_kmeans,
)

from oracles import cosine_dissim, kmeans_best_objective, reference_spherical_kmeans


def _state(assignments, dissimilarities, n_clusters):
    a = np.asarray(assignments, dtype=int)
    return ClusterState(
        centers=np.eye(n_clusters),
        assignments=a,
        dissimilarities=np.asarray(dissimilarities, dtype=float),
        iterations_run=1,
        converged=True,
    )


def cosine_dissimilarity(a, b) -> float:
    """One entry of the dissimilarity matrix k-means and the filter use."""
    unit = _unit_rows(np.asarray([a, b], dtype=float))
    return float(_pairwise_dissimilarity(unit[:1], unit[1:])[0, 0])


def test_cosine_dissimilarity_examples():
    assert cosine_dissimilarity([1.0, 0.0], [1.0, 0.0]) == 0.0
    assert cosine_dissimilarity([1.0, 0.0], [0.0, 1.0]) == 0.5
    assert cosine_dissimilarity([1.0, 0.0], [-1.0, 0.0]) == 1.0
    assert cosine_dissimilarity([0.0, 0.0], [1.0, 0.0]) == 0.5  # zero-norm guard
    # scale invariance
    assert cosine_dissimilarity([3.0, 4.0], [30.0, 40.0]) == pytest.approx(0.0, abs=1e-15)


def test_cosine_dissimilarity_matches_oracle():
    rng = np.random.default_rng(0)
    for _ in range(25):
        a = rng.normal(size=4)
        b = rng.normal(size=4)
        assert cosine_dissimilarity(a, b) == pytest.approx(
            cosine_dissim(a.tolist(), b.tolist()), abs=1e-12
        )
        assert 0.0 <= cosine_dissimilarity(a, b) <= 1.0


def test_source_class_centers_example():
    centers = source_class_centers([[1.0, 0.0], [0.0, 1.0]], [0, 0], 1)
    expected = np.array([[1.0, 1.0]]) / np.linalg.norm([1.0, 1.0])
    assert np.array_equal(centers, expected)
    assert centers[0, 0] == pytest.approx(0.70710678, abs=1e-8)


def test_source_class_centers_two_classes():
    feats = np.array([[2.0, 0.0], [4.0, 0.0], [0.0, 1.0]])
    centers = source_class_centers(feats, [0, 0, 1], 2)
    assert np.allclose(centers, [[1.0, 0.0], [0.0, 1.0]], atol=1e-15)
    assert np.allclose(np.linalg.norm(centers, axis=1), 1.0, atol=1e-12)


def test_source_class_centers_errors():
    with pytest.raises(ValueError, match="uncovered class ids"):
        source_class_centers([[1.0, 0.0]], [0], 2)
    with pytest.raises(ValueError, match="outside"):
        source_class_centers([[1.0, 0.0]], [5], 2)
    with pytest.raises(ValueError, match="one label per row"):
        source_class_centers([[1.0, 0.0]], [0, 1], 1)


def test_source_class_centers_rejects_labels_that_are_not_whole_numbers():
    with pytest.raises(ValueError, match=r"labels \[0\.9, 1\.2\] are not whole numbers"):
        source_class_centers(np.eye(2), [0.9, 1.2], 2)
    whole = source_class_centers(np.eye(2), [1.0, 0.0], 2)
    assert np.array_equal(whole, source_class_centers(np.eye(2), [1, 0], 2))


def test_group_sums_equal_add_at_bit_for_bit():
    rng = np.random.default_rng(12)
    n, d, m = 400, 5, 9
    x = rng.normal(size=(n, d)) * 10.0 ** rng.integers(-300, 300, size=(n, d))
    x[rng.random(size=(n, d)) < 0.2] = -0.0
    x[:40] = -0.0
    groups = rng.choice([0, 2, 3, 5, 7], size=n)  # 1, 4, 6 and 8 stay empty
    groups[:40] = 8
    ref = np.zeros((m, d))
    np.add.at(ref, groups, x)
    got = _group_sums(x, groups, m)
    assert np.array_equal(got, ref)
    assert np.array_equal(np.signbit(got), np.signbit(ref))


def test_kmeans_two_well_separated_groups():
    rng = np.random.default_rng(1)
    a = np.array([1.0, 0.2]) + 0.02 * rng.normal(size=(8, 2))
    b = np.array([-1.0, -0.2]) + 0.02 * rng.normal(size=(8, 2))
    points = np.vstack([a, b])
    state = spherical_kmeans(points, [[1.0, 0.0], [-1.0, 0.0]])
    assert state.converged
    assert (state.assignments[:8] == 0).all()
    assert (state.assignments[8:] == 1).all()
    assert state.dissimilarities.max() < 0.01


def test_kmeans_fixed_point_converges_in_one_iteration():
    state = spherical_kmeans([[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]])
    assert state.converged
    assert state.iterations_run == 1
    assert np.array_equal(state.assignments, [0, 1])
    assert np.array_equal(state.centers, np.array([[1.0, 0.0], [0.0, 1.0]]))
    assert state.objective_trace[-1] == 0.0


def test_kmeans_tie_breaks_toward_lowest_id():
    # Equidistant from both centers.
    state = spherical_kmeans([[1.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]], max_iters=1)
    assert state.assignments[0] == 0


def test_kmeans_empty_cluster_keeps_center():
    points = [[1.0, 0.05], [1.0, -0.05], [0.9, 0.0]]
    state = spherical_kmeans(points, [[1.0, 0.0], [-1.0, 0.0]])
    assert state.converged
    assert (state.assignments == 0).all()
    assert np.array_equal(state.centers[1], [-1.0, 0.0])


def test_kmeans_objective_trace_non_increasing():
    rng = np.random.default_rng(2)
    for _ in range(10):
        points = rng.normal(size=(12, 3))
        init = rng.normal(size=(3, 3))
        state = spherical_kmeans(points, init)
        trace = state.objective_trace
        assert len(trace) >= 1
        for earlier, later in zip(trace, trace[1:]):
            assert later <= earlier + 1e-12


def test_kmeans_state_is_self_consistent():
    rng = np.random.default_rng(3)
    for _ in range(10):
        points = rng.normal(size=(10, 2))
        init = rng.normal(size=(4, 2))
        state = spherical_kmeans(points, init, max_iters=rng.integers(1, 6))
        unit_p = points / np.linalg.norm(points, axis=1, keepdims=True)
        unit_c = state.centers / np.where(
            np.linalg.norm(state.centers, axis=1, keepdims=True) > 1e-12,
            np.linalg.norm(state.centers, axis=1, keepdims=True),
            1.0,
        )
        diss = np.clip(0.5 * (1.0 - unit_p @ unit_c.T), 0.0, 1.0)
        assert np.array_equal(state.assignments, np.argmin(diss, axis=1))
        assert np.allclose(
            state.dissimilarities, diss[np.arange(10), state.assignments], atol=1e-15
        )


def test_kmeans_reaches_enumerated_optimum_when_separated():
    rng = np.random.default_rng(4)
    for _ in range(5):
        a = np.array([1.0, 0.0]) + 0.05 * rng.normal(size=(4, 2))
        b = np.array([0.0, 1.0]) + 0.05 * rng.normal(size=(4, 2))
        points = np.vstack([a, b])
        init = [[1.0, 0.1], [0.1, 1.0]]
        state = spherical_kmeans(points, init)
        assert state.converged
        best = kmeans_best_objective(points, init)
        assert state.objective_trace[-1] == pytest.approx(best, abs=1e-12)


def test_kmeans_determinism():
    rng = np.random.default_rng(5)
    points = rng.normal(size=(15, 3))
    init = rng.normal(size=(4, 3))
    first = spherical_kmeans(points, init)
    second = spherical_kmeans(points.copy(), init.copy())
    assert np.array_equal(first.centers, second.centers)
    assert np.array_equal(first.assignments, second.assignments)
    assert first.objective_trace == second.objective_trace
    assert first.iterations_run == second.iterations_run


def test_kmeans_iteration_budget():
    rng = np.random.default_rng(6)
    points = rng.normal(size=(20, 2))
    init = rng.normal(size=(5, 2))
    state = spherical_kmeans(points, init, max_iters=1)
    assert state.iterations_run == 1
    assert not state.converged
    full = spherical_kmeans(points, init)
    assert full.iterations_run <= 100


def test_kmeans_equals_reference_loop_bit_for_bit():
    rng = np.random.default_rng(23)
    seen = {"repeat": 0, "tolerance": 0, "budget": 0, "empty cluster": 0}
    for _ in range(600):
        n, m, d = rng.integers(1, 30), rng.integers(1, 6), rng.integers(1, 4)
        points = rng.normal(size=(n, d))
        points[rng.random(n) < 0.2] = 0.0  # all-zero rows
        init = rng.normal(size=(m, d))
        max_iters = int(rng.integers(1, 8))
        tol = (0.0, 1e-6, 1e-2, 0.2)[rng.integers(4)]
        got = spherical_kmeans(points, init, max_iters=max_iters, tol=tol)
        ref = reference_spherical_kmeans(points, init, max_iters=max_iters, tol=tol)
        assert np.array_equal(got.centers, ref.centers)
        assert np.array_equal(got.assignments, ref.assignments)
        assert np.array_equal(got.dissimilarities, ref.dissimilarities)
        assert type(got.iterations_run) is int
        assert got.iterations_run == ref.iterations_run
        assert got.converged == ref.converged
        assert got.objective_trace == ref.objective_trace
        if not ref.converged:
            seen["budget"] += 1
        elif len(ref.objective_trace) > ref.iterations_run:
            seen["tolerance"] += 1
        else:
            seen["repeat"] += 1
        seen["empty cluster"] += np.unique(ref.assignments).size < m
    assert min(seen.values()) > 50, seen


def test_kmeans_validation_errors():
    with pytest.raises(ValueError, match="equal width"):
        spherical_kmeans([[1.0, 0.0]], [[1.0, 0.0, 0.0]])
    with pytest.raises(ValueError, match="at least one"):
        spherical_kmeans(np.zeros((0, 2)), [[1.0, 0.0]])
    with pytest.raises(ValueError, match="max_iters"):
        spherical_kmeans([[1.0, 0.0]], [[1.0, 0.0]], max_iters=0)


def test_filter_keeps_confident_samples_of_covered_classes():
    # class 0: five confident samples; class 1: three confident (== n0, dropped);
    # one straggler of class 0 right at the threshold is excluded too.
    diss = [0.01, 0.02, 0.0, 0.04, 0.01, 0.05, 0.01, 0.02, 0.03]
    assign = [0, 0, 0, 0, 0, 0, 1, 1, 1]
    result = filter_targets(_state(assign, diss, 2), d0=0.05, n0=3)
    assert result.kept_classes == (0,)
    assert np.array_equal(result.kept_indices, [0, 1, 2, 3, 4])
    assert result.per_class_counts == {0: 5, 1: 3}


def test_filter_thresholds_are_strict():
    result = filter_targets(_state([0] * 4, [0.05, 0.049, 0.0, 0.02], 1), d0=0.05, n0=3)
    assert result.kept_classes == ()  # only 3 pass the distance cut, 3 > 3 is false
    assert result.kept_indices.size == 0
    result = filter_targets(_state([0] * 5, [0.0] * 5, 1), d0=0.05, n0=4)
    assert result.kept_classes == (0,)
    assert result.kept_indices.size == 5


def test_filter_validation():
    state = _state([0], [0.1], 1)
    with pytest.raises(ValueError, match="d0"):
        filter_targets(state, d0=1.5)
    with pytest.raises(ValueError, match="n0"):
        filter_targets(state, n0=-1)


def test_filter_invariants_on_random_states():
    rng = np.random.default_rng(7)
    for _ in range(20):
        m = int(rng.integers(1, 5))
        n = int(rng.integers(1, 40))
        state = _state(rng.integers(0, m, size=n), rng.uniform(0, 1, size=n), m)
        d0 = float(rng.uniform(0, 1))
        n0 = int(rng.integers(0, 5))
        result = filter_targets(state, d0=d0, n0=n0)
        for i in result.kept_indices:
            assert state.dissimilarities[i] < d0
            assert state.assignments[i] in result.kept_classes
        for c in result.kept_classes:
            close = (state.assignments == c) & (state.dissimilarities < d0)
            assert close.sum() > n0
            assert result.per_class_counts[c] == close.sum()

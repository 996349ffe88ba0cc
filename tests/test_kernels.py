import numpy as np
import pytest

from contradapt.gradcheck import central_difference, relative_gradient_error
from contradapt.kernels import (
    KernelSpec,
    kernel_value_and_grad,
    median_heuristic,
    median_kernel_spec,
    squared_distances,
)

from oracles import (
    expression_kernel_value_and_grad,
    expression_squared_distances,
    loop_kernel_matrix,
    loop_kernel_matrix_grad,
    naive_kernel,
)


def _entries(spec, a, b) -> np.ndarray:
    """The kernel matrix, entry (i, j) read as the value at a one-hot upstream."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return np.array([[kernel_value_and_grad(spec, a[i:i + 1], b[j:j + 1], [[1.0]])[0]
                      for j in range(b.shape[0])] for i in range(a.shape[0])])


def test_spec_validation():
    with pytest.raises(ValueError):
        KernelSpec(bandwidths=())
    with pytest.raises(ValueError):
        KernelSpec(bandwidths=(-1.0,))
    with pytest.raises(ValueError):
        KernelSpec(bandwidths=(1.0, float("inf")))
    with pytest.raises(TypeError):
        KernelSpec(bandwidths=(1.0, 2.0), weights=(0.5, 0.5))
    assert KernelSpec((1.0, 2.0)).weights == (0.5, 0.5)


def test_median_heuristic_two_points():
    assert median_heuristic([[0.0]], [[2.0]]) == 4.0


def test_median_heuristic_one_sided_pool():
    # pooled pairs {1, 1, 4} -> median 1
    assert median_heuristic([[0.0], [1.0], [2.0]], []) == 1.0
    assert median_heuristic(np.zeros((0, 1)), [[0.0], [1.0], [2.0]]) == 1.0


def test_median_heuristic_degenerate_falls_back():
    assert median_heuristic([[1.0, 1.0], [1.0, 1.0]], [[1.0, 1.0]]) == 1.0


def test_median_heuristic_near_coincident_rows_fall_back():
    # Rows 1e-7 apart: squared distances of ~5e-14 are at the rounding level
    # of |x|^2 ~ 1 in squared_distances and must not become a bandwidth.
    rng = np.random.default_rng(5)
    row = rng.normal(size=(1, 3))
    x = np.repeat(row, 6, axis=0) + 1e-7 * rng.normal(size=(6, 3))
    assert median_heuristic(x[:3], x[3:]) == 1.0
    assert median_heuristic(x[:1], x[1:2] + 1e-3) == pytest.approx(3e-6, rel=1e-3)


def test_median_heuristic_needs_two_rows():
    with pytest.raises(ValueError, match="no samples"):
        median_heuristic([[1.0]], [])
    with pytest.raises(ValueError, match="no samples"):
        median_heuristic([], [])


def test_median_kernel_spec_scales_multipliers():
    spec = median_kernel_spec([[0.0]], [[2.0]], multipliers=(0.25, 1.0, 4.0))
    assert spec.bandwidths == (1.0, 4.0, 16.0)
    assert spec.weights == (1.0 / 3, 1.0 / 3, 1.0 / 3)
    assert spec == KernelSpec((1.0, 4.0, 16.0))


def test_kernel_matrix_single_bandwidth_value():
    value, _ = kernel_value_and_grad(KernelSpec((1.0,)), [[0.0]], [[1.0]], [[1.0]])
    assert value == pytest.approx(0.6065306597126334, abs=1e-15)


def test_kernel_matrix_mixture_value():
    value, _ = kernel_value_and_grad(KernelSpec((1.0, 4.0)), [[0.0]], [[2.0]], [[1.0]])
    assert value == pytest.approx(0.37093297147462306, abs=1e-15)


def test_kernel_matrix_diagonal_and_symmetry():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(6, 3))
    spec = KernelSpec((0.5, 1.0, 2.0))
    k = _entries(spec, x, x)
    assert np.allclose(np.diag(k), 1.0, atol=1e-12)
    assert np.allclose(k, k.T, atol=1e-12)
    k_ab = _entries(spec, x[:4], x[4:])
    k_ba = _entries(spec, x[4:], x[:4])
    assert np.allclose(k_ab, k_ba.T, atol=1e-12)


def test_kernel_matrix_range_and_psd():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(10, 4))
    spec = KernelSpec((0.25, 1.0, 4.0))
    k = _entries(spec, x, x)
    assert np.all(k > 0.0) and np.all(k <= 1.0 + 1e-12)
    assert np.linalg.eigvalsh(k).min() >= -1e-8


def test_kernel_matrix_against_naive():
    rng = np.random.default_rng(11)
    for _ in range(5):
        spec = KernelSpec(np.exp(rng.uniform(-1, 1, size=2)))
        a = rng.normal(size=(3, 2))
        b = rng.normal(size=(4, 2))
        for i in range(3):
            for j in range(4):
                one_hot = np.zeros((3, 4))
                one_hot[i, j] = 1.0
                value, _ = kernel_value_and_grad(spec, a, b, one_hot)
                assert value == pytest.approx(naive_kernel(spec, a[i], b[j]), abs=1e-12)


def test_kernel_matrix_width_mismatch():
    with pytest.raises(ValueError, match="width"):
        kernel_value_and_grad(KernelSpec((1.0,)), [[0.0, 1.0]], [[1.0]], [[0.0]])
    with pytest.raises(ValueError, match="width"):
        kernel_value_and_grad(KernelSpec((1.0,)), np.zeros((0, 2)), [[1.0]], np.zeros((0, 1)))


@pytest.mark.parametrize("a, b", [
    (np.zeros((0, 3)), np.ones((2, 3))),
    (np.ones((2, 3)), np.zeros((0, 3))),
    ([], np.ones((2, 3))),
    (np.ones((2, 3)), []),
], ids=["empty-rows-first", "empty-rows-second", "empty-list-first", "empty-list-second"])
def test_kernels_take_an_empty_side_in_either_order(a, b):
    spec = KernelSpec((1.0, 2.0))
    shape = (np.shape(a)[0], np.shape(b)[0])
    value, (grad_a, grad_b) = kernel_value_and_grad(spec, a, b, np.zeros(shape))
    assert value == 0.0
    assert grad_a.shape == (shape[0], 3) and grad_b.shape == (shape[1], 3)


def test_kernel_grad_matches_finite_differences():
    rng = np.random.default_rng(42)
    for _ in range(10):
        spec = KernelSpec(np.exp(rng.uniform(-1.0, 1.5, size=rng.integers(1, 4))))
        a = rng.normal(size=(3, 2))
        b = rng.normal(size=(4, 2))
        up = rng.normal(size=(3, 4))
        grad_a, grad_b = kernel_value_and_grad(spec, a, b, up)[1]
        fd_a = central_difference(lambda m: kernel_value_and_grad(spec, m, b, up)[0], a)
        fd_b = central_difference(lambda m: kernel_value_and_grad(spec, a, m, up)[0], b)
        assert relative_gradient_error(grad_a, fd_a) < 1e-5
        assert relative_gradient_error(grad_b, fd_b) < 1e-5


def test_kernel_grad_zero_at_coincident_points():
    spec = KernelSpec((1.0, 3.0))
    a = np.array([[1.0, -2.0]])
    grad_a, grad_b = kernel_value_and_grad(spec, a, a.copy(), np.ones((1, 1)))[1]
    assert np.all(grad_a == 0.0)
    assert np.all(grad_b == 0.0)


def test_kernel_grad_upstream_shape_checked():
    spec = KernelSpec((1.0,))
    with pytest.raises(ValueError, match="upstream"):
        kernel_value_and_grad(spec, np.zeros((2, 1)), np.zeros((3, 1)), np.zeros((2, 2)))


def test_kernel_wrappers_match_component_loop_bit_for_bit():
    rng = np.random.default_rng(13)
    for trial in range(60):
        n_a, n_b, d = (int(v) for v in rng.integers(1, 7, size=3))
        # Up to 7 components: beyond that NumPy may sum a one-element result pairwise.
        spec = KernelSpec(np.exp(rng.uniform(-3.0, 2.0, size=rng.integers(1, 8))))
        a = rng.normal(size=(n_a, d))
        b = a.copy() if trial % 4 == 0 else rng.normal(size=(n_b, d))
        up = rng.normal(size=(a.shape[0], b.shape[0]))
        ref_a, ref_b = loop_kernel_matrix_grad(spec, a, b, up)
        value, grads = kernel_value_and_grad(spec, a, b, up)
        assert value == pytest.approx(float((up * loop_kernel_matrix(spec, a, b)).sum()), rel=1e-12)
        assert np.array_equal(grads[0], ref_a) and np.array_equal(grads[1], ref_b)


def test_in_place_kernel_equals_expression_form_bit_for_bit():
    rng = np.random.default_rng(29)
    cases = []
    for trial in range(200):
        n_a, n_b = (int(v) for v in rng.integers(1, 61, size=2))
        d = int(rng.integers(1, 65))
        a = rng.normal(scale=rng.uniform(0.1, 3.0), size=(n_a, d))
        if trial % 4 == 0:  # a self block, as cdd passes it and as a copy
            cases += [(a, a), (a, a.copy())]
        else:
            cases.append((a, rng.normal(size=(n_b, d))))
    cases += [(np.zeros((0, 3)), rng.normal(size=(4, 3))), (rng.normal(size=(4, 3)), np.zeros((0, 3)))]
    for a, b in cases:
        spec = KernelSpec(np.exp(rng.uniform(-3.0, 3.0, size=rng.integers(1, 10))))
        up = rng.normal(size=(a.shape[0], b.shape[0]))
        assert np.array_equal(squared_distances(a, b), expression_squared_distances(a, b))
        value, (grad_a, grad_b) = kernel_value_and_grad(spec, a, b, up)
        want, (want_a, want_b) = expression_kernel_value_and_grad(spec, a, b, up)
        assert value == want
        assert np.array_equal(grad_a, want_a) and np.array_equal(grad_b, want_b)

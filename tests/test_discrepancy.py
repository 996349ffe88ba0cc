import math

import numpy as np
import pytest

from contradapt.discrepancy import (
    LabeledBatch,
    cdd,
    cdd_grad,
    mmd_squared,
)
from contradapt.gradcheck import central_difference, relative_gradient_error
from contradapt.kernels import uniform_spec

from oracles import naive_cdd, naive_mmd, naive_pair


def _batch(rng, n_classes=2, per_side=(2, 3), dims=(3,), spread=1.0):
    src_labels = np.repeat(np.arange(n_classes), per_side[0])
    tgt_labels = np.repeat(np.arange(n_classes), per_side[1])
    src = [spread * rng.normal(size=(src_labels.size, d)) for d in dims]
    tgt = [spread * rng.normal(size=(tgt_labels.size, d)) for d in dims]
    return LabeledBatch(src, tgt, src_labels, tgt_labels, tuple(range(n_classes)))


def test_mmd_example_value():
    spec = uniform_spec((1.0,))
    assert mmd_squared(spec, [[0.0]], [[1.0]]) == pytest.approx(
        0.7869386805747332, abs=1e-15
    )


def test_mmd_identical_multisets_is_zero():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(5, 3))
    spec = uniform_spec((0.7, 2.0))
    assert abs(mmd_squared(spec, x, x.copy())) <= 1e-12


def test_mmd_symmetry_and_nonnegativity():
    rng = np.random.default_rng(1)
    spec = uniform_spec((1.0, 4.0))
    for _ in range(10):
        s = rng.normal(size=(rng.integers(1, 6), 2))
        t = rng.normal(size=(rng.integers(1, 6), 2))
        v = mmd_squared(spec, s, t)
        assert v == pytest.approx(mmd_squared(spec, t, s), abs=1e-12)
        assert v >= -1e-12  # squared RKHS norm


def test_mmd_matches_naive():
    rng = np.random.default_rng(2)
    for _ in range(10):
        spec = uniform_spec(np.exp(rng.uniform(-1, 1, size=2)))
        s = rng.normal(size=(rng.integers(1, 7), 3))
        t = rng.normal(size=(rng.integers(1, 7), 3))
        assert mmd_squared(spec, s, t) == pytest.approx(naive_mmd(spec, s, t), abs=1e-12)


def test_mmd_empty_domain_raises():
    spec = uniform_spec((1.0,))
    with pytest.raises(ValueError, match="empty domain"):
        mmd_squared(spec, np.zeros((0, 2)), np.zeros((3, 2)))


def test_class_pair_discrepancy_example():
    spec = uniform_spec((1.0,))
    batch = LabeledBatch(
        source_features=[np.array([[0.0]])],
        target_features=[np.array([[1.0]])],
        source_labels=np.array([0]),
        target_labels=np.array([1]),
        class_set=(0, 1),
    )
    # one sample per side: e1 = e2 = 1 and e3 = exp(-1/2), so the (0, 1) pair
    # is 2 - 2 exp(-1/2); no other pair has samples on both sides, so it is
    # the whole inter term and there is no intra term
    value = cdd([spec], batch, skip_missing_pairs=True)
    pair = 2.0 - 2.0 * math.exp(-0.5)
    assert cdd([spec], batch, intra_only=True, skip_missing_pairs=True).total == 0.0
    assert value.total == pytest.approx(-pair, abs=1e-15)
    with pytest.raises(ValueError, match="empty class pair"):
        cdd([spec], batch)


def test_cdd_matches_naive_oracle():
    rng = np.random.default_rng(3)
    for _ in range(30):
        n_classes = int(rng.integers(1, 4))
        dims = tuple(rng.integers(1, 4) for _ in range(rng.integers(1, 3)))
        batch = _batch(rng, n_classes, per_side=(rng.integers(1, 4), rng.integers(1, 4)), dims=dims)
        specs = [uniform_spec(np.exp(rng.uniform(-1, 1, size=2))) for _ in dims]
        value = cdd(specs, batch)
        args = (specs, batch.source_features, batch.target_features,
                batch.source_labels.tolist(), batch.target_labels.tolist(), batch.class_set)
        assert value.total == pytest.approx(naive_cdd(*args), abs=1e-12)
        assert cdd(specs, batch, intra_only=True).total == pytest.approx(
            naive_cdd(*args, intra_only=True), abs=1e-12)


@pytest.mark.parametrize("intra_only", [False, True])
@pytest.mark.parametrize("skip_missing", [False, True])
def test_cdd_total_matches_naive_oracle_in_every_mode(intra_only, skip_missing):
    rng = np.random.default_rng(31)
    for _ in range(20):
        n_classes = int(rng.integers(2, 5))
        ys = rng.integers(0, n_classes, size=rng.integers(1, 8))
        yt = rng.integers(0, n_classes, size=rng.integers(1, 8))
        if skip_missing:  # class 0 on the source side only, the last class on the target side only
            ys = np.concatenate([ys[ys != n_classes - 1], [0]])
            yt = np.concatenate([yt[yt != 0], [n_classes - 1]])
        else:  # strict mode needs every class on both sides
            ys = np.concatenate([ys, np.arange(n_classes)])
            yt = np.concatenate([yt, np.arange(n_classes)])
        dims = [int(d) for d in rng.integers(1, 5, size=rng.integers(1, 4))]
        src = [rng.normal(size=(ys.size, d)) for d in dims]
        tgt = [rng.normal(size=(yt.size, d)) for d in dims]
        specs = [uniform_spec(np.exp(rng.uniform(-1.0, 1.5, size=rng.integers(1, 4))))
                 for _ in dims]
        classes = tuple(range(n_classes))
        value = cdd(specs, LabeledBatch(src, tgt, ys, yt, classes), intra_only, skip_missing)
        want = naive_cdd(specs, src, tgt, ys.tolist(), yt.tolist(), classes,
                         intra_only=intra_only, skip_missing=skip_missing)
        assert value.total == pytest.approx(want, abs=1e-12)


def test_cdd_single_class_has_no_inter_term():
    rng = np.random.default_rng(4)
    batch = _batch(rng, n_classes=1, per_side=(3, 2))
    value = cdd([uniform_spec((1.0,))], batch)
    assert value.total == cdd([uniform_spec((1.0,))], batch, intra_only=True).total
    assert value.total == pytest.approx(
        naive_pair(uniform_spec((1.0,)), batch.source_features[0], batch.target_features[0],
                   batch.source_labels.tolist(), batch.target_labels.tolist(), 0, 0),
        abs=1e-12,
    )


def test_cdd_aligned_classes_negative_total():
    # Target per-class samples identical to source, classes far apart:
    # same-class discrepancy vanishes, cross-class stays positive.
    src = np.array([[0.0, 0.0], [0.1, 0.0], [5.0, 5.0], [5.1, 5.0]])
    labels = np.array([0, 0, 1, 1])
    batch = LabeledBatch([src], [src.copy()], labels, labels.copy(), (0, 1))
    value = cdd([uniform_spec((1.0,))], batch)
    intra = cdd([uniform_spec((1.0,))], batch, intra_only=True).total
    assert intra == pytest.approx(0.0, abs=1e-12)
    assert intra - value.total > 0.5  # the inter term
    assert value.total < 0.0


def test_cdd_permutation_invariance():
    rng = np.random.default_rng(6)
    batch = _batch(rng, n_classes=2, per_side=(3, 4), dims=(3,))
    value = cdd([uniform_spec((1.5,))], batch).total
    perm_s = rng.permutation(batch.source_labels.size)
    perm_t = rng.permutation(batch.target_labels.size)
    shuffled = LabeledBatch(
        [batch.source_features[0][perm_s]],
        [batch.target_features[0][perm_t]],
        batch.source_labels[perm_s],
        batch.target_labels[perm_t],
        batch.class_set,
    )
    assert cdd([uniform_spec((1.5,))], shuffled).total == pytest.approx(value, abs=1e-12)


def test_cdd_multilayer_sums_layers():
    rng = np.random.default_rng(7)
    batch = _batch(rng, n_classes=2, per_side=(2, 2), dims=(2, 4))
    specs = [uniform_spec((1.0,)), uniform_spec((2.0,))]
    combined = cdd(specs, batch).total
    first = cdd(
        specs[:1],
        LabeledBatch([batch.source_features[0]], [batch.target_features[0]],
                     batch.source_labels, batch.target_labels, batch.class_set),
    ).total
    second = cdd(
        specs[1:],
        LabeledBatch([batch.source_features[1]], [batch.target_features[1]],
                     batch.source_labels, batch.target_labels, batch.class_set),
    ).total
    assert combined == pytest.approx(first + second, abs=1e-12)


def test_cdd_needs_one_spec_per_layer():
    rng = np.random.default_rng(7)
    batch = _batch(rng, n_classes=2, per_side=(2, 2), dims=(2, 4))
    spec = uniform_spec((1.0,))
    for specs in (spec, [spec], [spec] * 3):
        with pytest.raises(ValueError, match="one KernelSpec required per layer"):
            cdd(specs, batch)


def test_cdd_strict_mode_requires_two_sided_classes():
    rng = np.random.default_rng(8)
    batch = LabeledBatch(
        [rng.normal(size=(3, 2))],
        [rng.normal(size=(2, 2))],
        np.array([0, 0, 1]),
        np.array([0, 0]),  # class 1 absent on the target side
        (0, 1),
    )
    with pytest.raises(ValueError, match="empty class pair"):
        cdd([uniform_spec((1.0,))], batch)


def test_cdd_skip_missing_pairs_renormalizes():
    rng = np.random.default_rng(9)
    src = rng.normal(size=(4, 2))
    tgt = rng.normal(size=(3, 2))
    ys = np.array([0, 0, 1, 1])
    yt = np.array([0, 0, 2])  # class 1 missing on target, class 2 on source
    batch = LabeledBatch([src], [tgt], ys, yt, (0, 1, 2))
    spec = uniform_spec((1.0,))
    value = cdd([spec], batch, skip_missing_pairs=True)
    expected = naive_cdd([spec], [src], [tgt], ys.tolist(), yt.tolist(), (0, 1, 2),
                         skip_missing=True)
    assert value.total == pytest.approx(expected, abs=1e-12)
    # (1, 1) and (2, 2) have one side empty and drop out; (0, 0) is the one
    # intra pair and (0, 2), (1, 0), (1, 2) the inter pairs
    def pair(c1, c2):
        return naive_pair(spec, src, tgt, ys.tolist(), yt.tolist(), c1, c2)

    intra = cdd([spec], batch, intra_only=True, skip_missing_pairs=True).total
    assert intra == pytest.approx(pair(0, 0), abs=1e-12)
    assert intra - value.total == pytest.approx(
        (pair(0, 2) + pair(1, 0) + pair(1, 2)) / 3.0, abs=1e-12)


def test_cdd_labels_must_lie_in_class_set():
    rng = np.random.default_rng(10)
    batch = LabeledBatch(
        [rng.normal(size=(2, 2))],
        [rng.normal(size=(2, 2))],
        np.array([0, 3]),
        np.array([0, 0]),
        (0,),
    )
    with pytest.raises(ValueError, match="outside class_set"):
        cdd([uniform_spec((1.0,))], batch)


def test_cdd_grad_matches_finite_differences():
    rng = np.random.default_rng(11)
    for trial in range(6):
        n_classes = int(rng.integers(1, 4))
        batch = _batch(rng, n_classes, per_side=(2, 2), dims=(2,))
        spec = uniform_spec(np.exp(rng.uniform(-0.5, 1.0, size=2)))
        intra_only = trial % 3 == 0
        (gs, gt), = cdd_grad([spec], batch, intra_only=intra_only)

        def at_source(m):
            b = LabeledBatch([m], batch.target_features, batch.source_labels,
                             batch.target_labels, batch.class_set)
            return cdd([spec], b, intra_only=intra_only).total

        def at_target(m):
            b = LabeledBatch(batch.source_features, [m], batch.source_labels,
                             batch.target_labels, batch.class_set)
            return cdd([spec], b, intra_only=intra_only).total

        fd_s = central_difference(at_source, batch.source_features[0])
        fd_t = central_difference(at_target, batch.target_features[0])
        assert relative_gradient_error(gs, fd_s) < 1e-4
        assert relative_gradient_error(gt, fd_t) < 1e-4


def test_cdd_grad_skip_missing_matches_finite_differences():
    rng = np.random.default_rng(12)
    src = rng.normal(size=(4, 2))
    tgt = rng.normal(size=(3, 2))
    ys = np.array([0, 0, 1, 1])
    yt = np.array([0, 2, 2])
    batch = LabeledBatch([src], [tgt], ys, yt, (0, 1, 2))
    spec = uniform_spec((0.8, 1.6))
    (gs, gt), = cdd_grad([spec], batch, skip_missing_pairs=True)

    def at_source(m):
        b = LabeledBatch([m], [tgt], ys, yt, (0, 1, 2))
        return cdd([spec], b, skip_missing_pairs=True).total

    def at_target(m):
        b = LabeledBatch([src], [m], ys, yt, (0, 1, 2))
        return cdd([spec], b, skip_missing_pairs=True).total

    assert relative_gradient_error(gs, central_difference(at_source, src)) < 1e-4
    assert relative_gradient_error(gt, central_difference(at_target, tgt)) < 1e-4


def test_labeled_batch_shape_validation():
    with pytest.raises(ValueError, match="layer count"):
        LabeledBatch([np.zeros((2, 2))], [], np.zeros(2, dtype=int), np.zeros(0, dtype=int), (0,))
    with pytest.raises(ValueError, match="row counts"):
        LabeledBatch(
            [np.zeros((2, 2))],
            [np.zeros((3, 2))],
            np.zeros(2, dtype=int),
            np.zeros(2, dtype=int),
            (0,),
        )


def test_cdd_value_and_grad_equals_separate_calls_bit_for_bit():
    rng = np.random.default_rng(21)
    for trial in range(40):
        n_classes = int(rng.integers(1, 5))
        skip_missing = trial % 2 == 1
        intra_only = trial % 3 == 0
        ys = rng.integers(0, n_classes, size=rng.integers(2, 10))
        yt = rng.integers(0, n_classes, size=rng.integers(2, 10))
        if not skip_missing:  # strict mode needs every class on both sides
            ys = np.concatenate([ys, np.arange(n_classes)])
            yt = np.concatenate([yt, np.arange(n_classes)])
        dims = [int(d) for d in rng.integers(1, 5, size=1 + trial % 2)]
        batch = LabeledBatch([rng.normal(size=(ys.size, d)) for d in dims],
                             [rng.normal(size=(yt.size, d)) for d in dims],
                             ys, yt, tuple(range(n_classes)))
        specs = [uniform_spec(np.exp(rng.uniform(-1.0, 1.5, size=rng.integers(1, 6))))
                 for _ in dims]
        kw = dict(intra_only=intra_only, skip_missing_pairs=skip_missing)
        both = cdd(specs, batch, with_grad=True, **kw)
        value_only = cdd(specs, batch, **kw)
        assert both.total == value_only.total
        intra_kw = dict(kw, intra_only=True)
        assert (cdd(specs, batch, with_grad=True, **intra_kw).total
                == cdd(specs, batch, **intra_kw).total)
        assert value_only.grads is None and len(both.grads) == len(dims)
        for (gs, gt), (rs, rt) in zip(both.grads, cdd_grad(specs, batch, **kw)):
            assert np.array_equal(gs, rs) and np.array_equal(gt, rt)

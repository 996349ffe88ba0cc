import logging

import numpy as np
import pytest

from contradapt import trainer
from contradapt.clustering import ClusterState, FilterResult, filter_targets, spherical_kmeans
from contradapt.data import BlobShift, Dataset, gen_blobs, gen_moons
from contradapt.discrepancy import LabeledBatch, cdd, cdd_grad
from contradapt.gradcheck import composite_loss_and_grads
from contradapt.kernels import KernelSpec
from contradapt.model import (
    ModelParams,
    backward,
    cross_entropy,
    forward,
    init_params,
    zeros_like_params,
)
from contradapt.sampling import draw
from contradapt.trainer import (
    METHODS,
    LoopMetrics,
    TrainConfig,
    _build_probe,
    evaluate,
    predict,
    train,
)

from oracles import add_params_
from test_acceptance import BLOBS_KW, BLOBS_SEED, MOONS_A3_CFG, MOONS_KW, MOONS_SEED


def _blobs(seed=0, n_classes=3, per_class=20, dim=2, **shift_kwargs):
    shift = BlobShift(**shift_kwargs) if shift_kwargs else BlobShift(rotation_deg=25.0)
    return gen_blobs(seed=seed, n_classes=n_classes, per_class=per_class, dim=dim, shift=shift)


def _config(**overrides):
    base = dict(
        method="can",
        seed=0,
        loops=2,
        steps_per_loop=5,
        hidden_sizes=(8,),
        bottleneck_dim=4,
        classes_per_batch=2,
        per_class_source=4,
        per_class_target=4,
        ce_batch_size=16,
        probe_per_class=4,
        d0=0.5,
        n0=0,
    )
    base.update(overrides)
    return TrainConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError, match="unknown method"):
        TrainConfig(method="magic")
    with pytest.raises(ValueError, match="loops"):
        TrainConfig(loops=-1)
    with pytest.raises(ValueError, match="steps_per_loop"):
        TrainConfig(steps_per_loop=0)
    with pytest.raises(ValueError, match="beta"):
        TrainConfig(beta=-0.1)
    with pytest.raises(ValueError, match="d0"):
        TrainConfig(d0=1.5)
    with pytest.raises(ValueError, match="probe_per_class"):
        TrainConfig(probe_per_class=0)


@pytest.mark.parametrize("field, value", [
    ("bandwidth_multipliers", ()),
    ("bandwidth_multipliers", (1.0, 0.0)),
    ("bandwidth_multipliers", (1.0, float("inf"))),
    ("bandwidth_multipliers", (float("nan"),)),
    ("kmeans_max_iters", 0),
    ("kmeans_tol", -1e-9),
    ("classes_per_batch", 0),
    ("per_class_source", 0),
    ("per_class_target", 0),
    ("ce_batch_size", 0),
    ("bottleneck_dim", 0),
    ("hidden_sizes", (8, 0)),
    ("eta0", 0.0),
    ("eta0", float("nan")),
    ("lr_a", -1.0),
    ("lr_b", 0.0),
    ("logits_lr_mult", 0.0),
    ("momentum", 1.0),
    ("momentum", -0.1),
    # wrong types, as a JSON config file can hold them
    ("hidden_sizes", 64),
    ("hidden_sizes", "8,8"),
    ("hidden_sizes", [8, 2.5]),
    ("bandwidth_multipliers", [1.0, "2"]),
    ("loops", "3"),
    ("loops", 3.0),
    ("n0", True),
    ("beta", None),
    ("beta", False),
    ("d0", "0.05"),
    ("seed", 1.5),
    ("seed", -1),
    # non-finite floats
    ("beta", float("nan")),
    ("beta", float("inf")),
    ("eta0", float("inf")),
    pytest.param("beta", 10**400, id="beta-10**400"),  # finite int, no finite float
])
def test_config_rejects_bad_field_at_construction(field, value):
    with pytest.raises(ValueError, match=field):
        TrainConfig(**{field: value})
    with pytest.raises(ValueError, match=field):
        TrainConfig.from_dict({field: value})


def test_config_round_trip_and_unknown_keys():
    config = _config(beta=0.7, bandwidth_multipliers=(0.5, 1.0, 2.0))
    assert TrainConfig.from_dict(config.to_dict()) == config
    with pytest.raises(ValueError, match="unknown config keys"):
        TrainConfig.from_dict({"method": "can", "zeppelin": 1})


def test_config_total_steps_has_no_floor():
    assert _config(loops=0).total_steps == 0
    assert _config(loops=3, steps_per_loop=7).total_steps == 21
    config = _config(loops=4, steps_per_loop=5, eta0=0.5)
    assert config.total_steps == 20 and config.eta_at(0) == 0.5
    assert 0.0 < config.eta_at(19) < 0.5
    with pytest.raises(ValueError, match="step 20 outside schedule of 20 steps"):
        config.eta_at(20)


def test_loop_metrics_record_has_no_wall_time():
    m = LoopMetrics(
        loop=0, ce_loss=1.0, cdd_estimate=None, cdd_g=None, target_accuracy=None,
        clustering_accuracy=None, n_kept=0, n_kept_classes=0, learning_rate=1e-3,
    )
    rec = m.record()
    assert "wall_time_s" not in rec
    assert rec["loop"] == 0 and rec["learning_rate"] == 1e-3


def test_evaluate_tie_breaks_toward_lowest_class():
    params = ModelParams([np.zeros((2, 3)), np.zeros((3, 2))], [np.zeros(3), np.zeros(2)])
    ds = Dataset(np.ones((4, 2)), np.array([0, 0, 1, 1]), "target")
    result = evaluate(params, ds)
    assert result.accuracy == 0.5
    assert result.per_class == {0: 1.0, 1: 0.0}
    assert result.mean_class_accuracy == 0.5
    with pytest.raises(ValueError, match="no ground-truth labels"):
        evaluate(params, ds.without_labels())


@pytest.mark.parametrize("n_rows", [50, 5000])
def test_predict_equals_forward_argmax(n_rows):
    rng = np.random.default_rng(6)
    params = init_params(rng, 2, (8,), 4, 3)
    x = 3.0 * rng.normal(size=(n_rows, 2))
    assert np.array_equal(predict(params, x), np.argmax(forward(params, x).outputs[-1], axis=1))


def test_train_zero_loops_reports_init_model():
    src, tgt = _blobs()
    result = train(_config(loops=0), src, tgt)
    assert result.metrics == []
    assert result.summary["loops_run"] == 0
    assert result.summary["steps_run"] == 0
    assert result.summary["final_ce_loss"] is None
    assert result.summary["final_target_accuracy"] is not None
    assert result.summary["final_cdd_g"] is not None


def test_train_single_step_run():
    src, tgt = _blobs()
    config = _config(loops=1, steps_per_loop=1)
    result = train(config, src, tgt)
    assert result.summary["steps_run"] == 1
    assert len(result.metrics) == 1
    assert result.metrics[0].learning_rate == pytest.approx(config.eta0, abs=1e-18)


def test_every_loop_records_the_rate_of_its_first_step():
    src, tgt = _blobs()
    config = _config(loops=3, steps_per_loop=4)
    result = train(config, src, tgt)
    assert [m.learning_rate for m in result.metrics] == [
        config.eta_at(loop * config.steps_per_loop) for loop in range(config.loops)
    ]
    assert len(set(m.learning_rate for m in result.metrics)) == config.loops


@pytest.mark.parametrize("method", ["can", "intra-only", "no-ao", "no-cas"])
def test_beta_zero_equals_source_only_exactly(method):
    src, tgt = _blobs(seed=1)
    cdd0 = train(_config(method=method, beta=0.0, loops=3), src, tgt)
    plain = train(_config(method="source-only", beta=0.0, loops=3), src, tgt)
    assert cdd0.metrics[-1].cdd_estimate is not None  # the discrepancy path did run
    assert np.array_equal(cdd0.params.flat, plain.params.flat)
    # the diagnostic stream matches too
    assert [m.cdd_g for m in cdd0.metrics] == [m.cdd_g for m in plain.metrics]


def test_target_labels_only_feed_diagnostics():
    src, tgt = _blobs(seed=2)
    config = _config(method="can", loops=2)
    with_labels = train(config, src, tgt)
    without = train(config, src, tgt.without_labels())
    assert np.array_equal(
        with_labels.params.flat, without.params.flat
    )
    assert with_labels.summary["final_cdd_g"] is not None
    assert without.summary["final_cdd_g"] is None
    assert without.summary["final_target_accuracy"] is None
    assert all(m.cdd_g is None for m in without.metrics)
    assert all(m.target_accuracy is None for m in without.metrics)


def test_training_is_deterministic_per_seed():
    src, tgt = _blobs(seed=3)
    a = train(_config(seed=11), src, tgt)
    b = train(_config(seed=11), src, tgt)
    assert np.array_equal(a.params.flat, b.params.flat)
    assert [m.record() for m in a.metrics] == [m.record() for m in b.metrics]
    c = train(_config(seed=12), src, tgt)
    assert not np.array_equal(a.params.flat, c.params.flat)


def test_metrics_writer_sees_each_loop():
    src, tgt = _blobs(seed=4)
    seen: list[int] = []
    train(_config(loops=3), src, tgt, metrics_writer=lambda m: seen.append(m.loop))
    assert seen == [0, 1, 2]


def test_zero_shift_target_clusters_onto_source_centers():
    shift = BlobShift(rotation_deg=0.0, translation=0.0, noise_sigma=0.3)
    src, tgt = gen_blobs(seed=5, n_classes=3, per_class=40, dim=2, shift=shift)
    config = _config(loops=4, steps_per_loop=30, hidden_sizes=(16,), bottleneck_dim=8,
                     eta0=5e-3, seed=1)
    result = train(config, src, tgt)
    assert result.metrics[-1].clustering_accuracy >= 0.9


def test_empty_filter_falls_back_to_classification(caplog):
    src, tgt = _blobs(seed=6)
    config = _config(method="can", d0=1e-9, n0=50, loops=1)
    with caplog.at_level(logging.WARNING, logger="contradapt.trainer"):
        result = train(config, src, tgt)
    assert any("no classes pass the filter" in r.message for r in caplog.records)
    assert result.metrics[0].n_kept_classes == 0
    assert result.metrics[0].cdd_estimate is None
    assert result.summary["steps_run"] == config.steps_per_loop  # CE steps still ran


# k-means runs per 2-loop run: every loop, once, or never, by label source
KMEANS_CALLS = {"source-only": 0, "can": 2, "intra-only": 2, "no-ao": 0, "no-cas": 2,
                "pseudo0": 1, "pseudo1": 2}


@pytest.mark.parametrize("method", METHODS)
def test_every_method_runs(method, monkeypatch):
    calls = []

    def counting_kmeans(*args, **kwargs):
        calls.append(1)
        return spherical_kmeans(*args, **kwargs)

    monkeypatch.setattr("contradapt.trainer.spherical_kmeans", counting_kmeans)
    src, tgt = _blobs(seed=7)
    result = train(_config(method=method), src, tgt)
    assert len(calls) == KMEANS_CALLS[method]
    assert result.summary["method"] == method
    assert result.summary["steps_run"] == 10
    assert np.isfinite(result.summary["final_target_accuracy"])
    last = result.metrics[-1]
    if method in ("can", "intra-only", "no-cas"):
        assert last.cdd_estimate is not None
        assert last.n_kept > 0
    if method == "no-ao":
        assert last.cdd_estimate is not None
        assert last.clustering_accuracy is not None
    if method in ("pseudo0", "pseudo1"):
        assert last.cdd_estimate is None
        assert last.n_kept > 0
    if method == "source-only":
        assert last.cdd_estimate is None
        assert last.clustering_accuracy is None


def test_pseudo0_keeps_first_clustering():
    src, tgt = _blobs(seed=8)
    result = train(_config(method="pseudo0", loops=4), src, tgt)
    accs = [m.clustering_accuracy for m in result.metrics]
    assert len(set(accs)) == 1  # cached assignments never move
    result1 = train(_config(method="pseudo1", loops=4), src, tgt)
    assert len(result1.metrics) == 4


def test_warm_start_round_trip():
    src, tgt = _blobs(seed=9)
    first = train(_config(loops=1), src, tgt)
    resumed = train(_config(loops=0), src, tgt, init=first.params)
    assert np.array_equal(resumed.params.flat, first.params.flat)
    with pytest.raises(ValueError, match="warm-start"):
        bad = ModelParams([np.zeros((5, 2)), np.zeros((2, 3))], [np.zeros(2), np.zeros(3)])
        train(_config(loops=0), src, tgt, init=bad)
    # the data's widths, but not the config's layers
    other = init_params(np.random.default_rng(0), src.dim, (8,), 3, 3)
    with pytest.raises(ValueError, match="warm-start parameters do not match"):
        train(_config(loops=0, hidden_sizes=(64, 64), bottleneck_dim=16), src, tgt, init=other)


@pytest.mark.parametrize("method", ["can", "pseudo0", "source-only"])
def test_run_loop_keeps_the_clustering_records(monkeypatch, method):
    states, run_loop = [], trainer.run_loop

    def spy(state, config):
        states.append(state)
        return run_loop(state, config)

    monkeypatch.setattr(trainer, "run_loop", spy)
    src, tgt = _blobs(seed=11)
    config = _config(method=method, loops=2)
    result = train(config, src, tgt)
    state = states[-1]
    if method == "source-only":
        assert state.clusters is None and state.filtered is None
        return
    assert isinstance(state.clusters, ClusterState)
    assert isinstance(state.filtered, FilterResult)
    again = filter_targets(state.clusters, d0=config.d0, n0=config.n0)
    assert np.array_equal(state.filtered.kept_indices, again.kept_indices)
    assert result.metrics[-1].n_kept == state.filtered.kept_indices.size
    assert result.metrics[-1].n_kept_classes == len(state.filtered.kept_classes)


def test_dataset_checks():
    src, tgt = _blobs(seed=10)
    with pytest.raises(ValueError, match="domain tags"):
        train(_config(), tgt, src)
    with pytest.raises(ValueError, match="fully labeled"):
        train(_config(), src.without_labels(), tgt)
    with pytest.raises(ValueError, match="widths differ"):
        wide, _ = _blobs(seed=10, dim=3)
        train(_config(), wide, tgt)
    with pytest.raises(ValueError, match="at least one source sample"):
        holey = Dataset(src.features[:10], np.array([0] * 5 + [2] * 5), "source")
        train(_config(), holey, tgt)
    with pytest.raises(ValueError, match="outside the source class range"):
        high = Dataset(tgt.features, np.full(tgt.n, 7), "target")
        train(_config(), src, high)


def test_gradcheck_composite_matches_step_composition_bit_for_bit():
    rng = np.random.default_rng(3)
    params = init_params(rng, 3, (4,), 3, 2)
    specs = [KernelSpec((0.5, 2.0)), KernelSpec((1.0,))]
    beta = 0.4
    ce_x, ce_y = rng.normal(size=(5, 3)), np.array([0, 1, 1, 0, 1])
    ys, yt = np.array([0, 0, 1, 1]), np.array([0, 1, 1])
    xs, xt = rng.normal(size=(4, 3)), rng.normal(size=(3, 3))
    loss, grads = composite_loss_and_grads(params, specs, beta, ce_x, ce_y, xs, ys, xt, yt, (0, 1))
    # The same step spelled out with the separate value and gradient calls.
    stack_ce, stack_s, stack_t = forward(params, ce_x), forward(params, xs), forward(params, xt)
    batch = LabeledBatch(stack_s.outputs[-2:], stack_t.outputs[-2:], ys, yt, (0, 1))
    ce_loss, ce_grad = cross_entropy(stack_ce.outputs[-1], ce_y)
    expected = zeros_like_params(params)
    add_params_(expected, backward(params, stack_ce, {-1: ce_grad}))
    layer_grads = cdd_grad(specs, batch)
    for side, stack in enumerate((stack_s, stack_t)):
        add_params_(expected, backward(params, stack, {-1: beta * layer_grads[1][side],
                                                       -2: beta * layer_grads[0][side]}))
    assert loss == ce_loss + beta * cdd(specs, batch).total
    assert np.array_equal(grads.flat, expected.flat)


def _probe_reference(rng, source, target, n_classes, per_class):
    """The probe drawn class by class: source then target rows of each class."""
    src_parts, tgt_parts = [], []
    for c in range(n_classes):
        src_parts.append(draw(rng, np.nonzero(source.labels == c)[0], per_class))
        tgt_parts.append(draw(rng, np.nonzero(target.labels == c)[0], per_class))
    return np.concatenate(src_parts), np.concatenate(tgt_parts)


@pytest.mark.parametrize("instance", ["moons", "blobs"])
@pytest.mark.parametrize("seed", [0, 7])
def test_probe_draws_every_class_in_order(instance, seed):
    if instance == "moons":
        src, tgt = gen_moons(seed=MOONS_SEED, **MOONS_KW)
    else:
        src, tgt = gen_blobs(seed=BLOBS_SEED, **BLOBS_KW)
    n_classes, per_class = src.n_classes(), 8
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    probe = _build_probe(rng, src, tgt, n_classes, per_class)
    ref_src, ref_tgt = _probe_reference(ref_rng, src, tgt, n_classes, per_class)
    labels = np.repeat(np.arange(n_classes), per_class)
    assert probe.classes == tuple(range(n_classes))
    assert np.array_equal(probe.source_indices, ref_src)
    assert np.array_equal(probe.target_indices, ref_tgt)
    assert np.array_equal(probe.source_labels, labels)
    assert np.array_equal(probe.target_labels, labels)
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert _build_probe(rng, src, tgt.without_labels(), n_classes, per_class) is None
    keep = tgt.labels != n_classes - 1
    holey = Dataset(tgt.features[keep], tgt.labels[keep], "target")
    assert _build_probe(rng, src, holey, n_classes, per_class) is None


def test_intra_only_survives_collapsing_features():
    # Training seed 3000 collapses the features until the median heuristic
    # returned rounding residue as a bandwidth and the gradient overflowed.
    src, tgt = gen_moons(seed=MOONS_SEED, **MOONS_KW)
    config = TrainConfig(method="intra-only", seed=3000, **MOONS_A3_CFG)
    result = train(config, src, tgt)
    assert result.summary["steps_run"] == config.total_steps
    assert np.isfinite(result.params.flat).all()

"""End-to-end acceptance gate.

Each test here checks one release criterion (A1-A8) on the shipped synthetic
instances and prints a single PASS/FAIL line with the measured numbers, so
``pytest -v -rA tests/test_acceptance.py`` reads as a checklist (``-rA``
echoes the captured lines of passing tests too).  Heavy training suites are
computed once in module-scoped fixtures and shared.

Known limitation, kept honest rather than papered over: the moons half of the
adaptation-gain criterion (A2) demands a +0.10 absolute per-seed margin that
this geometry does not reliably deliver — the source-only baseline already
transfers at 0.80-0.91 on the 30-degree instance, and the full-alignment
escape succeeds on only ~6 of 10 training seeds at the best configuration
found (~100 configurations, 21 instance seeds examined).  The test states the
criterion at full strength and is expected to fail on that half; the mean
adaptation gain at that configuration is still large (~+0.09) — it is the
per-seed margin that falls short, not the effect.
"""
from __future__ import annotations

import json
import time

import numpy as np
import pytest

from contradapt.clustering import filter_targets, source_class_centers, spherical_kmeans
from contradapt.data import BlobShift, gen_blobs, gen_moons
from contradapt.discrepancy import LabeledBatch, cdd, mmd_squared
from contradapt.gradcheck import run_all
from contradapt.kernels import KernelSpec, median_heuristic
from contradapt.model import init_params
from contradapt.trainer import METHODS, TrainConfig, train
from contradapt.cli import main

from oracles import naive_cdd, naive_mmd

# The two fixed evaluation instances.  Moons geometry (rotation, noise, size)
# is part of the criterion; the blobs shift is a design choice made so the
# source-only baseline is genuinely weak (~0.58) while the cluster structure
# stays recoverable by re-clustering (rotation well below the 45-degree
# ambiguity of 4 classes on a circle, translation off the source manifold).
MOONS_SEED = 2
MOONS_KW = dict(per_class=200, rotation_deg=30.0, noise_sigma=0.05)
MOONS_CFG = dict(loops=50, steps_per_loop=40, beta=4.5, eta0=7e-3,
                 per_class_source=16, per_class_target=16)

BLOBS_SEED = 5
BLOBS_KW = dict(n_classes=4, per_class=150, dim=4,
                shift=BlobShift(rotation_deg=25.0, translation=3.0,
                                noise_sigma=0.5),
                separation=3.0)
BLOBS_CFG = dict(loops=30, steps_per_loop=40, beta=2.0, eta0=7e-3,
                 classes_per_batch=4, per_class_source=12, per_class_target=12)

# Gentler discrepancy weight for the moons seven-method suite: the
# compression-only variant (intra-only) has no repulsive term and needs a
# weight at which it neither collapses nor diverges on any seed.
MOONS_A3_CFG = dict(MOONS_CFG, beta=0.8, eta0=6.5e-3)

N_SEEDS = 10


def _line(tag: str, ok: bool, detail: str) -> None:
    print(f"{tag}: {'PASS' if ok else 'FAIL'} ({detail})")


@pytest.fixture(scope="module")
def moons_data():
    return gen_moons(seed=MOONS_SEED, **MOONS_KW)


@pytest.fixture(scope="module")
def blobs_data():
    return gen_blobs(seed=BLOBS_SEED, **BLOBS_KW)


def _paired_runs(data, cfg):
    """source-only vs can on seeds 0..9, plus cdd_g endpoints of each can run."""
    src, tgt = data
    pairs = []
    trends = []
    t0 = time.perf_counter()
    for seed in range(N_SEEDS):
        so = train(TrainConfig(method="source-only", seed=seed, **cfg), src, tgt)
        can = train(TrainConfig(method="can", seed=seed, **cfg), src, tgt)
        pairs.append((so.summary["final_target_accuracy"],
                      can.summary["final_target_accuracy"]))
        trends.append((can.metrics[0].cdd_g, can.metrics[-1].cdd_g))
    return pairs, trends, time.perf_counter() - t0


@pytest.fixture(scope="module")
def moons_pairs(moons_data):
    return _paired_runs(moons_data, MOONS_CFG)


@pytest.fixture(scope="module")
def blobs_pairs(blobs_data):
    return _paired_runs(blobs_data, BLOBS_CFG)


def test_a1_gradient_suite():
    t0 = time.perf_counter()
    reports = run_all(seed=0, rtol=1e-4)
    elapsed = time.perf_counter() - t0
    total = sum(r.n_instances for r in reports)
    worst = max(r.max_rel_error for r in reports)
    ok = all(r.passed for r in reports) and total >= 30 and elapsed < 30.0
    _line("A1 gradient suite", ok,
          f"{total} instances, max rel err {worst:.2e}, {elapsed:.1f}s")
    assert all(r.passed for r in reports)
    assert total >= 30
    assert elapsed < 30.0


def test_a2_adaptation_gain_moons(moons_pairs):
    pairs, _, elapsed = moons_pairs
    n_ok = sum(b >= a + 0.10 for a, b in pairs)
    ok = n_ok >= 8 and elapsed < 180.0
    detail = ", ".join(f"{a:.2f}->{b:.2f}" for a, b in pairs)
    _line("A2 adaptation gain (moons)", ok,
          f"{n_ok}/10 seeds gained >= 0.10, {elapsed:.0f}s; {detail}")
    assert elapsed < 180.0
    assert n_ok >= 8, (
        f"only {n_ok}/10 seeds reached the +0.10 margin; the 30-degree moons "
        "baseline transfers at 0.80-0.91 and full realignment is not reliable "
        "per-seed at any configuration found (see tests docstring)"
    )


def test_a2_adaptation_gain_blobs(blobs_pairs):
    pairs, _, elapsed = blobs_pairs
    n_ok = sum(b >= a + 0.10 for a, b in pairs)
    ok = n_ok >= 8 and elapsed < 180.0
    detail = ", ".join(f"{a:.2f}->{b:.2f}" for a, b in pairs)
    _line("A2 adaptation gain (blobs)", ok,
          f"{n_ok}/10 seeds gained >= 0.10, {elapsed:.0f}s; {detail}")
    assert elapsed < 180.0
    assert n_ok >= 8


def _method_means(data, cfg, reuse=None):
    """Mean final accuracy per method over seeds 0..9, plus diverged runs.

    ``reuse`` optionally supplies (source-only, can) pairs already computed
    with the same config so those 20 runs are not repeated.
    """
    src, tgt = data
    means = {}
    diverged = []
    done = {}
    if reuse is not None:
        pairs = reuse
        done["source-only"] = float(np.mean([a for a, _ in pairs]))
        done["can"] = float(np.mean([b for _, b in pairs]))
    for method in METHODS:
        if method in done:
            means[method] = done[method]
            continue
        accs = []
        for seed in range(N_SEEDS):
            try:
                r = train(TrainConfig(method=method, seed=seed, **cfg), src, tgt)
            except ValueError:
                diverged.append((method, seed))
                continue
            accs.append(r.summary["final_target_accuracy"])
        means[method] = float(np.mean(accs)) if accs else float("nan")
    return means, diverged


def test_a3_ablation_ordering(moons_data, blobs_data, blobs_pairs):
    t0 = time.perf_counter()
    moons_means, moons_div = _method_means(moons_data, MOONS_A3_CFG)
    blobs_means, blobs_div = _method_means(blobs_data, BLOBS_CFG,
                                           reuse=blobs_pairs[0])
    elapsed = time.perf_counter() - t0

    oks = []
    for name, means, div in (("moons", moons_means, moons_div),
                             ("blobs", blobs_means, blobs_div)):
        complete = set(means) == set(METHODS) and not div
        ordering = (means["can"] >= means["intra-only"] >= means["source-only"]
                    and means["can"] >= means["pseudo0"])
        oks.append(complete and ordering)
        detail = " ".join(f"{m}={means[m]:.3f}" for m in
                          ("source-only", "intra-only", "can", "pseudo0"))
        if div:
            detail += f"; diverged runs {div}"
        _line(f"A3 ablation ordering ({name})", oks[-1], detail)
    _line("A3 runtime", elapsed < 900.0, f"{elapsed:.0f}s for both suites")
    assert elapsed < 900.0
    assert not moons_div and not blobs_div, (
        f"mean-over-10-seeds incomputable; diverged: {moons_div + blobs_div}")
    assert all(oks)


def test_a4_cdd_g_trend(moons_pairs):
    _, trends, _ = moons_pairs
    n_ok = sum(final < first for first, final in trends)
    ok = n_ok >= 9
    detail = ", ".join(f"{first:.2f}->{final:.2f}" for first, final in trends)
    _line("A4 ground-truth discrepancy trend", ok, f"{n_ok}/10 seeds; {detail}")
    assert n_ok >= 9


def test_a5_oracle_equivalence():
    rng = np.random.default_rng(11)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(1, 5))
        m = int(rng.integers(1, 4))
        n_s = int(rng.integers(m, 9))
        n_t = int(rng.integers(m, 9))
        xs = rng.normal(size=(n_s, d))
        xt = rng.normal(size=(n_t, d))
        # Every class present on both sides so strict mode is exercised.
        ys = np.concatenate([np.arange(m), rng.integers(0, m, size=n_s - m)])
        yt = np.concatenate([np.arange(m), rng.integers(0, m, size=n_t - m)])
        rng.shuffle(ys)
        rng.shuffle(yt)
        spec = KernelSpec((0.5, 1.7))

        got = mmd_squared(spec, xs, xt)
        want = naive_mmd(spec, xs, xt)
        worst = max(worst, abs(got - want))

        batch = LabeledBatch(source_features=(xs,), target_features=(xt,),
                             source_labels=ys, target_labels=yt,
                             class_set=tuple(range(m)))
        got_cdd = cdd((spec,), batch)
        want_cdd = naive_cdd((spec,), (xs,), (xt,), ys, yt, tuple(range(m)))
        worst = max(worst, abs(got_cdd.total - want_cdd))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 10.0
    _line("A5 oracle equivalence", ok,
          f"100 instances, max abs diff {worst:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-12
    assert elapsed < 10.0


def test_a6_clustering_and_filtering():
    rng = np.random.default_rng(3)
    t0 = time.perf_counter()

    monotone = True
    for _ in range(50):
        n = int(rng.integers(4, 40))
        d = int(rng.integers(2, 6))
        k = int(rng.integers(2, 5))
        x = rng.normal(size=(n, d))
        init = rng.normal(size=(k, d))
        state = spherical_kmeans(x, init, max_iters=30)
        trace = np.array(state.objective_trace)
        if trace.size > 1 and np.any(np.diff(trace) > 1e-12):
            monotone = False

    # Filter invariants, strictly.
    invariants = True
    for _ in range(50):
        n = int(rng.integers(6, 30))
        k = int(rng.integers(2, 4))
        x = rng.normal(size=(n, 3))
        state = spherical_kmeans(x, rng.normal(size=(k, 3)), max_iters=20)
        d0 = float(rng.uniform(0.05, 0.6))
        n0 = int(rng.integers(0, 4))
        kept = filter_targets(state, d0=d0, n0=n0)
        if kept.kept_indices.size:
            if not np.all(state.dissimilarities[kept.kept_indices] < d0):
                invariants = False
            labels = state.assignments[kept.kept_indices]
            counts = np.bincount(labels, minlength=state.centers.shape[0])
            for c in kept.kept_classes:
                if counts[c] <= n0:
                    invariants = False
            if set(np.unique(labels)) - set(kept.kept_classes):
                invariants = False

    # Well-separated data clusters perfectly from source-center init.
    centers_true = np.array([[10.0, 0.0, 0.0], [0.0, 10.0, 0.0], [0.0, 0.0, 10.0]])
    labels_true = np.repeat(np.arange(3), 30)
    points = centers_true[labels_true] + 0.05 * rng.normal(size=(90, 3))
    init = source_class_centers(points, labels_true, 3)
    state = spherical_kmeans(points, init, max_iters=50)
    sep_acc = float(np.mean(state.assignments == labels_true))

    elapsed = time.perf_counter() - t0
    ok = monotone and invariants and sep_acc == 1.0 and elapsed < 10.0
    _line("A6 clustering and filtering", ok,
          f"50 runs monotone={monotone}, invariants={invariants}, "
          f"separated acc={sep_acc:.2f}, {elapsed:.1f}s")
    assert monotone
    assert invariants
    assert sep_acc == 1.0
    assert elapsed < 10.0


def test_a7_degeneration_identities():
    t0 = time.perf_counter()
    src, tgt = gen_blobs(seed=9, n_classes=3, per_class=40, dim=3,
                         shift=BlobShift(rotation_deg=20.0, noise_sigma=0.5),
                         separation=3.0)
    small = dict(loops=3, steps_per_loop=10, eta0=3e-3,
                 per_class_source=6, per_class_target=6, ce_batch_size=16,
                 hidden_sizes=(16,), bottleneck_dim=8)
    zero = train(TrainConfig(method="can", beta=0.0, seed=4, **small), src, tgt)
    base = train(TrainConfig(method="source-only", beta=0.0, seed=4, **small), src, tgt)
    identical = np.array_equal(zero.params.flat, base.params.flat)

    # Zero-shift data: after brief source-only pretraining, the first
    # adaptation loop's clustering is already essentially perfect.
    src0, tgt0 = gen_blobs(seed=12, n_classes=3, per_class=60, dim=3,
                           shift=BlobShift(), separation=4.0)
    pre = train(TrainConfig(method="source-only", seed=0, loops=2,
                            steps_per_loop=30, eta0=5e-3, hidden_sizes=(16,),
                            bottleneck_dim=8), src0, tgt0)
    warm = train(TrainConfig(method="can", seed=0, loops=1, steps_per_loop=1,
                             eta0=5e-3, hidden_sizes=(16,), bottleneck_dim=8),
                 src0, tgt0, init=pre.params)
    c_acc = warm.metrics[0].clustering_accuracy

    elapsed = time.perf_counter() - t0
    ok = identical and c_acc >= 0.95 and elapsed < 60.0
    _line("A7 degeneration identities", ok,
          f"beta=0 bit-identical={identical}, loop-0 clustering acc={c_acc:.3f}, "
          f"{elapsed:.1f}s")
    assert identical
    assert c_acc >= 0.95
    assert elapsed < 60.0


def test_a8_manifest_determinism(tmp_path, capsys):
    data = tmp_path / "data"
    assert main(["gen", "--kind", "blobs", "--out", str(data), "--seed", "3",
                 "--per-class", "20", "--classes", "3", "--dims", "3"]) == 0
    first = tmp_path / "first"
    args = ["train", "--source", str(data / "source.csv"),
            "--target", str(data / "target.csv"), "--method", "can",
            "--seed", "7", "--loops", "4", "--steps-per-loop", "10",
            "--out", str(first)]
    assert main(args) == 0
    second = tmp_path / "second"
    assert main(["train", "--config", str(first / "manifest.json"),
                 "--out", str(second)]) == 0
    capsys.readouterr()

    metrics_same = (first / "metrics.jsonl").read_bytes() == (second / "metrics.jsonl").read_bytes()
    ckpt_same = (first / "checkpoint.txt").read_bytes() == (second / "checkpoint.txt").read_bytes()
    n_lines = len((first / "metrics.jsonl").read_text().splitlines())
    ok = metrics_same and ckpt_same
    _line("A8 manifest determinism", ok,
          f"metrics identical={metrics_same} ({n_lines} records), "
          f"checkpoint identical={ckpt_same}")
    assert metrics_same
    assert ckpt_same
    # The stream stays parseable record-per-line.
    for line in (first / "metrics.jsonl").read_text().splitlines():
        json.loads(line)

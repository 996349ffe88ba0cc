"""The benchmark's workloads: what each round runs, and how its outputs are checked.

A round is one closed-loop pass over a workload's operations: each
operation starts when the previous one has finished.  Every round of a
workload attempts the same operations, so the share of failed operations is
the same in every run.  Round ``r`` of a run with seed ``s`` trains with seed
``1000 * s + r``; the CLI workload also generates its data from that seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import time
from dataclasses import dataclass

import numpy as np

import contradapt.cli
from contradapt import clustering, data, discrepancy, kernels, model, sampling, trainer

import checks

# The shipped instances and configs, as in tests/test_acceptance.py.
MOONS_SEED = 2
MOONS_KW = dict(per_class=200, rotation_deg=30.0, noise_sigma=0.05)
MOONS_CFG = dict(loops=50, steps_per_loop=40, beta=4.5, eta0=7e-3,
                 per_class_source=16, per_class_target=16)
MOONS_A3_CFG = dict(MOONS_CFG, beta=0.8, eta0=6.5e-3)
BLOBS_SEED = 5
BLOBS_KW = dict(n_classes=4, per_class=150, dim=4,
                shift=data.BlobShift(rotation_deg=25.0, translation=3.0, noise_sigma=0.5),
                separation=3.0)
BLOBS_CFG = dict(loops=30, steps_per_loop=40, beta=2.0, eta0=7e-3,
                 classes_per_batch=4, per_class_source=12, per_class_target=12)

# The scaled blobs instance of the CLI workload: 10 classes 36 degrees apart,
# shifted by well under half that spacing so source-only stays far above chance.
LARGE_GEN = dict(classes=10, per_class=2000, dims=16, rotation=12.0, translation=1.0,
                 noise=0.6, separation=6.0)
# At most 5 k-means iterations per loop, so that every data seed clusters about
# the same amount: run to convergence, a run's iterations varied twofold by seed.
LARGE_TRAIN = dict(method="can", loops=50, steps_per_loop=4, beta=1.0, eta0=5e-3,
                   classes_per_batch=4, per_class_source=8, per_class_target=8, d0=0.05, n0=3,
                   kmeans_max_iters=5)

# CDD methods the benchmark trains -> skip_missing_pairs, as the trainer sets it.
CDD_SKIP_MISSING = {"can": False, "no-ao": False, "no-cas": True}


class Ops:
    """Operations attempted and failed.  A known program fault counts as a
    failed operation but leaves ``correct`` true; any other failure clears it."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.problems: list[str] = []

    def record(self, name: str, ok: bool, detail: str = "", known_fault: bool = False) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.correct = self.correct and known_fault
            self.problems.append(f"{name}: {detail or 'failed'}")

    def check(self, name: str, fn) -> None:
        """Run a check returning None when it holds, else a description."""
        try:
            problem = fn()
        except Exception as exc:  # a check that crashes has not passed
            problem = f"raised {exc!r}"
        self.record(name, problem is None, problem or "")


class TrainClock:
    """Timestamps ``train`` calls and their outer loops from outside the
    package, through ``train(..., metrics_writer=...)``."""

    def __init__(self) -> None:
        self.begin()

    def begin(self) -> None:
        self.recording = True
        self.first_entry: float | None = None
        self.loop_s: list[float] = []
        self.train_s = 0.0
        self.steps = 0

    def train(self, config, source, target, init=None, metrics_writer=None):
        t0 = time.perf_counter()
        if self.first_entry is None:
            self.first_entry = t0
        loop_s: list[float] = []
        last = [t0]

        def writer(m):
            now = time.perf_counter()
            loop_s.append(now - last[0])
            last[0] = now
            if metrics_writer is not None:
                metrics_writer(m)

        result = trainer.train(config, source, target, init=init, metrics_writer=writer)
        if self.recording:
            self.train_s += time.perf_counter() - t0
            self.steps += result.summary["steps_run"]
            self.loop_s.extend(loop_s)
        return result


@dataclass
class Round:
    seed: int
    workdir: str
    clock: TrainClock
    ops: Ops


@dataclass
class RunOutput:
    """One training run's outputs plus the labeled data its checks need."""

    config: trainer.TrainConfig
    records: list[dict]
    summary: dict
    checkpoint_text: str
    eval_output: dict
    source: tuple[np.ndarray, np.ndarray] | None = None  # (features, labels)
    target: tuple[np.ndarray, np.ndarray] | None = None

    def digest(self) -> str:
        h = hashlib.sha256()
        for rec in self.records:
            h.update(json.dumps(rec, sort_keys=True).encode())
        h.update(repr(self.summary.get("final_target_accuracy")).encode())
        h.update(self.checkpoint_text.encode())
        h.update(json.dumps(self.eval_output, sort_keys=True).encode())
        return h.hexdigest()


def run_cli(argv: list[str]) -> tuple[int, str]:
    """``contradapt <argv>`` in this process, returning exit code and stdout."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = contradapt.cli.main(argv)
    return code, buf.getvalue()


def _read(path: str) -> str:
    with open(path, "r", encoding="ascii") as fh:
        return fh.read()


def _read_csv(path: str, dim: int) -> tuple[np.ndarray, np.ndarray]:
    table = np.loadtxt(path, delimiter=",", skiprows=1, usecols=range(dim + 1), ndmin=2)
    return table[:, :dim], table[:, dim].astype(int)


def check_run(rnd: Round, out: RunOutput, expected_digest: str | None) -> None:
    """Every check of one training run; each counts as one operation."""
    ops, cfg = rnd.ops, out.config
    xs, ys = out.source
    xt, yt = out.target
    n_classes = int(ys.max()) + 1

    def records():
        if len(out.records) != cfg.loops or out.summary["loops_run"] != cfg.loops:
            return f"{len(out.records)} loops recorded, {cfg.loops} configured"
        if out.summary["steps_run"] != cfg.loops * cfg.steps_per_loop:
            return f"{out.summary['steps_run']} steps run"
        if not checks.records_finite(out.records):
            return "non-finite metrics record"
        if expected_digest is not None and out.digest() != expected_digest:
            return "traced outputs differ from the untraced round's"
        return None

    ops.check(f"{cfg.method}: steps and records", records)
    arrays = checks.parse_checkpoint(out.checkpoint_text)
    bs, ls = checks.plain_forward(arrays, xs)
    bt, lt = checks.plain_forward(arrays, xt)

    def acc():
        mine = checks.accuracy(lt, yt)
        reported = out.summary.get("final_target_accuracy")
        if reported is not None and reported != mine:
            return f"reported accuracy {reported!r} != {mine!r}"
        if out.eval_output.get("accuracy") != mine or out.eval_output.get("n") != yt.size:
            return f"eval output {out.eval_output} != accuracy {mine!r}"
        return None

    ops.check(f"{cfg.method}: accuracy from checkpoint", acc)

    if cfg.method in CDD_SKIP_MISSING:
        skip_missing = CDD_SKIP_MISSING[cfg.method]
        plan = sampling.BatchPlan.seeded(
            rnd.seed, classes_per_batch=cfg.classes_per_batch,
            per_class_source=cfg.per_class_source, per_class_target=cfg.per_class_target)
        cas = sampling.class_aware_batch(plan, ys, np.arange(yt.size), yt, range(n_classes))
        src_layers = [bs[cas.source_indices], ls[cas.source_indices]]
        tgt_layers = [bt[cas.target_indices], lt[cas.target_indices]]
        specs = [kernels.median_kernel_spec(s, t, multipliers=cfg.bandwidth_multipliers)
                 for s, t in zip(src_layers, tgt_layers)]
        batch = discrepancy.LabeledBatch(src_layers, tgt_layers, cas.source_labels,
                                         cas.target_labels, cas.classes)
        dense = checks.DenseLayerCdd(cas.source_labels, cas.target_labels, cas.classes,
                                     skip_missing)

        def value():
            got = discrepancy.cdd(specs, batch, skip_missing_pairs=skip_missing).total
            want = checks.scalar_cdd(specs, src_layers, tgt_layers, cas.source_labels,
                                     cas.target_labels, cas.classes, skip_missing)
            mine = sum(dense(*args) for args in zip(specs, src_layers, tgt_layers))
            if max(abs(got - want), abs(mine - want)) > checks.CDD_VALUE_ATOL:
                return f"cdd {got!r}, dense {mine!r}, scalar reference {want!r}"
            return None

        def gradient():
            grads = discrepancy.cdd_grad(specs, batch, skip_missing_pairs=skip_missing)
            err = checks.fd_gradient_error(specs, src_layers, tgt_layers, dense, grads)
            return None if err <= checks.FD_RTOL else f"relative error {err:.3e}"

        ops.check(f"{cfg.method}: cdd value vs scalar reference", value)
        ops.check(f"{cfg.method}: cdd gradient vs central differences", gradient)

    state = clustering.spherical_kmeans(bt, checks.class_centers(bs, ys, n_classes),
                                        max_iters=cfg.kmeans_max_iters, tol=cfg.kmeans_tol)
    ops.check(f"{cfg.method}: k-means state",
              lambda: "; ".join(checks.kmeans_state_problems(state, bt)) or None)
    kept = clustering.filter_targets(state, d0=cfg.d0, n0=cfg.n0)
    ops.check(f"{cfg.method}: filter",
              lambda: "; ".join(checks.filter_problems(state, kept, cfg.d0, cfg.n0)) or None)


class MethodSuite:
    """Several methods trained in-process on one shipped instance.  Each run's
    checkpoint is saved and scored with ``contradapt eval``."""

    def __init__(self, make_data, cfg: dict, methods: tuple[str, ...]) -> None:
        self.make_data, self.cfg, self.methods = make_data, cfg, methods

    def execute(self, rnd: Round) -> list[RunOutput]:
        source, target = self.make_data()
        target_csv = os.path.join(rnd.workdir, "target.csv")
        data.save_csv(target, target_csv)
        outputs = []
        for method in self.methods:
            config = trainer.TrainConfig(method=method, seed=rnd.seed, **self.cfg)
            result = rnd.clock.train(config, source, target)
            rnd.ops.record(f"train {method}", True)
            ckpt = os.path.join(rnd.workdir, f"{method}.ckpt")
            model.save_checkpoint(result.params, ckpt)
            code, text = run_cli(["eval", "--checkpoint", ckpt, "--data", target_csv])
            rnd.ops.record(f"contradapt eval ({method})", code == 0, text)
            outputs.append(RunOutput(
                config=config,
                records=[m.record() for m in result.metrics],
                summary=result.summary,
                checkpoint_text=_read(ckpt),
                eval_output=json.loads(text) if code == 0 else {},
                source=(source.features, source.labels),
                target=(target.features, target.labels),
            ))
        return outputs

    def check(self, rnd: Round, outputs: list[RunOutput], expected: list[str] | None) -> None:
        for i, out in enumerate(outputs):
            check_run(rnd, out, expected[i] if expected else None)


class LargeCli:
    """``contradapt gen`` -> ``train`` -> ``eval`` on a scaled blobs instance,
    training ``can`` on an unlabeled target."""

    def _gen_args(self, seed: int) -> list[str]:
        g = LARGE_GEN
        return ["--kind", "blobs", "--seed", str(seed), "--per-class", str(g["per_class"]),
                "--classes", str(g["classes"]), "--dims", str(g["dims"]),
                "--rotation", str(g["rotation"]), "--translation", str(g["translation"]),
                "--noise", str(g["noise"]), "--separation", str(g["separation"])]

    def _train_args(self, seed: int) -> list[str]:
        args = ["--seed", str(seed)]
        for key, value in LARGE_TRAIN.items():
            args += ["--" + key.replace("_", "-"), str(value)]
        return args

    def execute(self, rnd: Round) -> list[RunOutput]:
        ops, g = rnd.ops, LARGE_GEN
        data_dir = os.path.join(rnd.workdir, "data")
        run_dir = os.path.join(rnd.workdir, "run")
        code, text = run_cli(["gen", "--out", data_dir] + self._gen_args(rnd.seed))
        ops.record("contradapt gen", code == 0, text)
        source_csv = os.path.join(data_dir, "source.csv")
        target_csv = os.path.join(data_dir, "target.csv")
        unlabeled_csv = os.path.join(data_dir, "target_unlabeled.csv")
        # README.md says gen writes target_unlabeled.csv; cmd_gen does not.
        present = os.path.exists(unlabeled_csv)
        ops.record("gen writes target_unlabeled.csv", present, "file missing", known_fault=True)
        if not present:
            _, target = data.gen_blobs(
                seed=rnd.seed, n_classes=g["classes"], per_class=g["per_class"], dim=g["dims"],
                shift=data.BlobShift(rotation_deg=g["rotation"], translation=g["translation"],
                                     noise_sigma=g["noise"]),
                separation=g["separation"])
            data.save_csv(target.without_labels(), unlabeled_csv)
        code, text = run_cli(["train", "--source", source_csv, "--target", unlabeled_csv,
                              "--out", run_dir] + self._train_args(rnd.seed))
        ops.record("contradapt train", code == 0, text)
        ckpt = os.path.join(run_dir, "checkpoint.txt")
        code, text = run_cli(["eval", "--checkpoint", ckpt, "--data", target_csv])
        ops.record("contradapt eval", code == 0, text)
        eval_code, eval_text = code, text
        # The same run again from its manifest (A8); the check compares the two.
        code, text = run_cli(["train", "--config", os.path.join(run_dir, "manifest.json"),
                              "--out", os.path.join(rnd.workdir, "rerun")])
        ops.record("contradapt train --config manifest.json", code == 0, text)
        with open(os.path.join(run_dir, "summary.json"), encoding="ascii") as fh:
            summary = json.load(fh)
        metrics_text = _read(os.path.join(run_dir, "metrics.jsonl"))
        config = trainer.TrainConfig.from_dict(dict(LARGE_TRAIN, seed=rnd.seed))
        return [RunOutput(
            config=config,
            records=[json.loads(line) for line in metrics_text.splitlines()],
            summary=summary,
            checkpoint_text=_read(ckpt),
            eval_output=json.loads(eval_text) if eval_code == 0 else {},
        )]

    def check(self, rnd: Round, outputs: list[RunOutput], expected: list[str] | None) -> None:
        ops, out = rnd.ops, outputs[0]
        data_dir = os.path.join(rnd.workdir, "data")
        run_dir = os.path.join(rnd.workdir, "run")
        rerun_dir = os.path.join(rnd.workdir, "rerun")
        out.source = _read_csv(os.path.join(data_dir, "source.csv"), LARGE_GEN["dims"])
        out.target = _read_csv(os.path.join(data_dir, "target.csv"), LARGE_GEN["dims"])
        check_run(rnd, out, expected[0] if expected else None)

        def unlabeled_copy():
            feats, labels = _read_csv(os.path.join(data_dir, "target_unlabeled.csv"),
                                      LARGE_GEN["dims"])
            if not np.array_equal(feats, out.target[0]) or (labels != -1).any():
                return "target_unlabeled.csv is not target.csv without labels"
            return None

        ops.check("target_unlabeled.csv matches target.csv", unlabeled_copy)

        def identical():
            for name in ("metrics.jsonl", "checkpoint.txt"):
                with open(os.path.join(run_dir, name), "rb") as a, \
                        open(os.path.join(rerun_dir, name), "rb") as b:
                    if a.read() != b.read():
                        return f"{name} differs on rerun from the manifest"
            return None

        ops.check("rerun from manifest is byte-identical", identical)


WORKLOADS = {
    "moons-cdd": MethodSuite(lambda: data.gen_moons(seed=MOONS_SEED, **MOONS_KW),
                             MOONS_A3_CFG, ("can", "no-ao", "no-cas")),
    "blobs-ce": MethodSuite(lambda: data.gen_blobs(seed=BLOBS_SEED, **BLOBS_KW),
                            BLOBS_CFG, ("source-only", "pseudo0", "pseudo1")),
    "blobs-large-cli": LargeCli(),
}

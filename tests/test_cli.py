import dataclasses
import hashlib
import json
import subprocess
import sys

import numpy as np
import pytest

from contradapt import __version__, trainer
from contradapt.cli import build_parser, main
from contradapt.data import Dataset, load_csv, save_csv
from contradapt.model import init_params, save_checkpoint
from contradapt.trainer import METHODS, TrainConfig


def _gen_small(tmp_path, name="data", kind="blobs", seed=0, extra=()):
    out = tmp_path / name
    args = [
        "gen", "--kind", kind, "--out", str(out), "--seed", str(seed),
        "--per-class", "12",
    ]
    if kind == "blobs":
        args += ["--classes", "2", "--dims", "2"]
    assert main(args + list(extra)) == 0
    return out


_FAST_TRAIN = [
    "--loops", "2", "--steps-per-loop", "3", "--hidden-sizes", "8",
    "--bottleneck-dim", "4", "--probe-per-class", "4",
    "--per-class-source", "4", "--per-class-target", "4",
    "--ce-batch-size", "8", "--d0", "0.5", "--n0", "0",
]


def _run_train(data_dir, out_dir, extra=()):
    return main(
        ["train", "--source", str(data_dir / "source.csv"),
         "--target", str(data_dir / "target.csv"), "--out", str(out_dir)]
        + _FAST_TRAIN + list(extra)
    )


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert __version__ in capsys.readouterr().out


def test_gen_writes_deterministic_artifacts(tmp_path, capsys):
    a = _gen_small(tmp_path, "a", kind="moons", seed=7)
    b = _gen_small(tmp_path, "b", kind="moons", seed=7)
    assert (a / "source.csv").read_bytes() == (b / "source.csv").read_bytes()
    assert (a / "target.csv").read_bytes() == (b / "target.csv").read_bytes()
    manifest = json.loads((a / "gen_manifest.json").read_text())
    assert manifest["command"] == "gen"
    assert manifest["generator"]["generator"] == "moons"
    assert manifest["generator"]["seed"] == 7
    c = _gen_small(tmp_path, "c", kind="moons", seed=8)
    assert (a / "source.csv").read_bytes() != (c / "source.csv").read_bytes()


def test_gen_writes_unlabeled_target(tmp_path, capsys):
    out = _gen_small(tmp_path, kind="blobs", seed=4)
    assert "target_unlabeled.csv" in capsys.readouterr().out
    target = load_csv(out / "target.csv")
    unlabeled = load_csv(out / "target_unlabeled.csv")
    assert np.array_equal(unlabeled.features, target.features)
    assert (unlabeled.labels == -1).all() and not unlabeled.labeled
    artifacts = json.loads((out / "gen_manifest.json").read_text())["artifacts"]
    assert artifacts["target_unlabeled"] == str(out / "target_unlabeled.csv")
    # the unlabeled file trains as an adaptation target
    assert main(["train", "--source", str(out / "source.csv"),
                 "--target", artifacts["target_unlabeled"], "--out", str(tmp_path / "run")]
                + _FAST_TRAIN) == 0


# SHA-256 of every CSV that ``gen`` writes, recorded with the csv-module writer.
_GEN_DIGESTS = {
    "moons": (["--kind", "moons", "--seed", "0"], {
        "source.csv": "d585986876dc71495897118c5c98a4145ba1390c99c1c35cb5a91de332a377f8",
        "target.csv": "b5a2230e465d6b63c1edf52de608b1798cbb17fe51587f0b6851529d0f698dbd",
        "target_unlabeled.csv": "ae642e6a60a2a85458faf997cc84394136c013bea0b26d7ef29e1cdccb1fcdd1",
    }),
    "blobs": (["--kind", "blobs", "--seed", "3", "--per-class", "25", "--classes", "3",
               "--dims", "5", "--translation", "1.5"], {
        "source.csv": "3547224801242b570b632df8a5e49b943e9833e90a97a53b057431d20822b540",
        "target.csv": "d375f702b808cb167d3f3f592e75e4f71053f831eb260f688d5249efc5b07996",
        "target_unlabeled.csv": "0d196aa385aa073a770f0143f22528b91979eb7b5a67798c964db3a25fdddc78",
    }),
}


@pytest.mark.parametrize("kind", sorted(_GEN_DIGESTS))
def test_gen_output_bytes_are_pinned(tmp_path, capsys, kind):
    args, digests = _GEN_DIGESTS[kind]
    assert main(["gen", "--out", str(tmp_path)] + args) == 0
    for name, digest in digests.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


def test_gen_blobs_respects_flags(tmp_path):
    out = _gen_small(tmp_path, "blobs4", kind="blobs",
                     extra=("--rotation", "45", "--translation", "1.5"))
    manifest = json.loads((out / "gen_manifest.json").read_text())
    assert manifest["generator"]["rotation_deg"] == 45.0
    assert manifest["generator"]["translation"] == 1.5
    header = (out / "source.csv").read_text().splitlines()[0]
    assert header == "feature_0,feature_1,label,domain"


def test_gen_missing_required_flag_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--kind", "moons"])  # no --out
    assert exc.value.code == 2


def test_train_requires_dataset_paths(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["train", "--out", str(tmp_path / "run")])
    assert exc.value.code == 2
    assert "--source" in capsys.readouterr().err


def test_train_writes_run_artifacts(tmp_path, capsys):
    data = _gen_small(tmp_path)
    out = tmp_path / "run"
    assert _run_train(data, out, ["--method", "can", "--seed", "3"]) == 0
    line = capsys.readouterr().out.strip().splitlines()[-1]
    assert "method=can" in line and "seed=3" in line

    records = [json.loads(l) for l in (out / "metrics.jsonl").read_text().splitlines()]
    assert len(records) == 2
    assert [r["loop"] for r in records] == [0, 1]
    for r in records:
        assert set(r) == {
            "loop", "ce_loss", "cdd_estimate", "cdd_g", "target_accuracy",
            "clustering_accuracy", "n_kept", "n_kept_classes", "learning_rate",
        }
    summary = json.loads((out / "summary.json").read_text())
    assert summary["method"] == "can" and summary["loops_run"] == 2
    assert (out / "checkpoint.txt").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["method"] == "can"
    assert manifest["config"]["seed"] == 3
    assert manifest["datasets"]["source"].endswith("source.csv")
    assert manifest["datasets"]["source_generator"]["generator"] == "blobs"


def test_train_config_file_with_flag_override(tmp_path, capsys):
    data = _gen_small(tmp_path)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "method": "can", "loops": 1, "steps_per_loop": 2, "hidden_sizes": [8],
        "bottleneck_dim": 4, "probe_per_class": 4, "ce_batch_size": 8,
        "source": str(data / "source.csv"), "target": str(data / "target.csv"),
    }))
    out = tmp_path / "run"
    assert main(["train", "--out", str(out), "--config", str(cfg_path),
                 "--method", "source-only"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["method"] == "source-only"  # flag beats file
    assert summary["loops_run"] == 1


def test_train_rejects_unknown_config_keys(tmp_path, capsys):
    data = _gen_small(tmp_path)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"method": "can", "wombat": True}))
    code = main(["train", "--out", str(tmp_path / "r"), "--config", str(cfg_path),
                 "--source", str(data / "source.csv"),
                 "--target", str(data / "target.csv")])
    assert code == 1
    assert "unknown config keys" in capsys.readouterr().err


@pytest.mark.parametrize("config, field", [
    ({"hidden_sizes": 64}, "hidden_sizes"),
    ({"loops": "3"}, "loops"),
    ({"beta": None}, "beta"),
    ({"seed": 1.5}, "seed"),
    ({"beta": 10**400}, "beta"),  # a JSON number beyond float range
    ({"config": {}, "datasets": []}, "datasets"),
    ({"target": ["t.csv"]}, "target"),
    ({"source": 5}, "source"),  # never handed to open() as a file descriptor
    ({"lr_a": 1e300, "lr_b": 2}, "lr_a"),  # (1 + lr_a) ** lr_b overflows
])
def test_train_rejects_wrong_typed_config_values(tmp_path, capsys, config, field):
    data = _gen_small(tmp_path)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    code = main(["train", "--out", str(tmp_path / "r"), "--config", str(cfg_path),
                 "--source", str(data / "source.csv"),
                 "--target", str(data / "target.csv")])
    err = capsys.readouterr().err
    assert code == 1
    assert "error:" in err and field in err and "Traceback" not in err


@pytest.mark.parametrize("content", [b"[1, 2]", b"\xff\xfe"], ids=["not-an-object", "not-utf8"])
def test_train_ignores_malformed_sibling_gen_manifest(tmp_path, capsys, content):
    data = _gen_small(tmp_path)
    (data / "gen_manifest.json").write_bytes(content)
    out = tmp_path / "run"
    assert _run_train(data, out) == 0
    datasets = json.loads((out / "manifest.json").read_text())["datasets"]
    assert datasets["source_generator"] is None and datasets["target_generator"] is None
    assert (out / "checkpoint.txt").exists()


@pytest.mark.parametrize("method", METHODS)
def test_manifest_rerun_is_byte_identical(tmp_path, method):
    data = _gen_small(tmp_path)
    first = tmp_path / "first"
    assert _run_train(data, first, ["--method", method, "--seed", "5"]) == 0
    second = tmp_path / "second"
    assert main(["train", "--config", str(first / "manifest.json"),
                 "--out", str(second)]) == 0
    assert (first / "metrics.jsonl").read_bytes() == (second / "metrics.jsonl").read_bytes()
    assert (first / "checkpoint.txt").read_bytes() == (second / "checkpoint.txt").read_bytes()


@pytest.mark.parametrize("eta0, step, loops", [("1e300", 1, 0), ("1e10", 3, 1)])
def test_diverged_train_leaves_a_replayable_record(tmp_path, capsys, eta0, step, loops):
    data = _gen_small(tmp_path)
    first = tmp_path / "first"
    assert _run_train(data, first) == 0  # its checkpoint and summary must not outlive it
    assert _run_train(data, first, ["--eta0", eta0]) == 1
    message = f"divergence: non-finite gradient at step {step}"
    assert f"error: {message}" in capsys.readouterr().err
    assert sorted(p.name for p in first.iterdir()) == ["failure.json", "manifest.json",
                                                       "metrics.jsonl"]
    failure = json.loads((first / "failure.json").read_text())
    assert failure == {"error": message, "loops_completed": loops}
    assert len((first / "metrics.jsonl").read_text().splitlines()) == loops
    assert json.loads((first / "manifest.json").read_text())["config"]["eta0"] == float(eta0)
    second = tmp_path / "second"
    assert main(["train", "--config", str(first / "manifest.json"), "--out", str(second)]) == 1
    assert f"error: {message}" in capsys.readouterr().err
    for name in ("failure.json", "metrics.jsonl"):
        assert (first / name).read_bytes() == (second / name).read_bytes(), name
    assert not (second / "checkpoint.txt").exists()
    assert _run_train(data, second) == 0
    assert not (second / "failure.json").exists()


def test_train_failing_target_embed_leaves_a_failure_record(tmp_path, capsys, monkeypatch):
    data = _gen_small(tmp_path)
    # unlabeled, so the only embeds of the target rows are the clustering's
    target = load_csv(data / "target_unlabeled.csv").features
    embed, target_calls = trainer.embed, []

    def failing_on_second_target(params, inputs, out=None):
        if np.array_equal(inputs, target):
            target_calls.append(1)
            if len(target_calls) == 2:
                raise ValueError("target embed failed")
        return embed(params, inputs, out=out)

    monkeypatch.setattr(trainer, "embed", failing_on_second_target)
    out = tmp_path / "run"
    assert main(["train", "--source", str(data / "source.csv"),
                 "--target", str(data / "target_unlabeled.csv"), "--out", str(out)]
                + _FAST_TRAIN) == 1
    assert target_calls == [1, 1]
    assert "error: target embed failed" in capsys.readouterr().err
    assert sorted(p.name for p in out.iterdir()) == ["failure.json", "manifest.json",
                                                     "metrics.jsonl"]
    failure = json.loads((out / "failure.json").read_text())
    assert failure == {"error": "target embed failed", "loops_completed": 1}
    assert len((out / "metrics.jsonl").read_text().splitlines()) == 1


def test_eval_reports_accuracy(tmp_path, capsys):
    data = _gen_small(tmp_path)
    out = tmp_path / "run"
    assert _run_train(data, out) == 0
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(out / "checkpoint.txt"),
                 "--data", str(data / "target.csv")]) == 0
    report = json.loads(capsys.readouterr().out)
    assert set(report) == {"accuracy", "per_class", "mean_class_accuracy", "n"}
    assert 0.0 <= report["accuracy"] <= 1.0
    assert report["n"] == 24


def test_eval_failure_paths(tmp_path, capsys):
    data = _gen_small(tmp_path)
    assert main(["eval", "--checkpoint", str(tmp_path / "nope.txt"),
                 "--data", str(data / "target.csv")]) == 1
    assert "error:" in capsys.readouterr().err
    # a 2-class checkpoint cannot predict label 5
    checkpoint = tmp_path / "checkpoint.txt"
    save_checkpoint(init_params(np.random.default_rng(0), 2, (), 2, 2), checkpoint)
    target = load_csv(data / "target.csv")
    relabelled = tmp_path / "relabelled.csv"
    save_csv(Dataset(target.features, np.where(target.labels == 1, 5, target.labels),
                     "target"), relabelled)
    assert main(["eval", "--checkpoint", str(checkpoint), "--data", str(relabelled)]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("row, message", [
    ("1.0,2.0,99999999999999999999,target", "bad label"),  # was an OverflowError traceback
    ("1e400,2.0,0,target", "non-finite feature value"),
    ("nan,2.0,0,target", "non-finite feature value"),
])
def test_eval_names_file_and_line_of_out_of_range_values(tmp_path, capsys, row, message):
    checkpoint = tmp_path / "checkpoint.txt"
    save_checkpoint(init_params(np.random.default_rng(0), 2, (), 2, 2), checkpoint)
    data = tmp_path / "big.csv"
    data.write_text("feature_0,feature_1,label,domain\n0.5,0.5,1,target\n" + row + "\n")
    assert main(["eval", "--checkpoint", str(checkpoint), "--data", str(data)]) == 1
    assert capsys.readouterr().err == f"error: {data}: line 3: {message}\n"


def test_gradcheck_passes_and_reports(capsys):
    assert main(["gradcheck"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") >= 3
    assert "all components PASS" in out


def test_gradcheck_tight_tolerance_fails(capsys):
    # finite-difference truncation error is far above 1e-12, so the
    # threshold must trip
    assert main(["gradcheck", "--rtol", "1e-12"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_gradcheck_seed_reproducibility(capsys):
    assert main(["gradcheck", "--seed", "9"]) == 0
    first = capsys.readouterr().out
    assert main(["gradcheck", "--seed", "9"]) == 0
    assert capsys.readouterr().out == first


@pytest.mark.parametrize("imported, unloaded", [
    ("contradapt.cli", "contradapt.gradcheck"),
    ("contradapt.data", "contradapt.trainer"),
    ("contradapt.kernels", "contradapt.model"),
    ("contradapt.model", "contradapt.trainer"),
])
def test_import_leaves_module_unloaded(imported, unloaded):
    code = f"import sys, {imported}; sys.exit({unloaded!r} in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code]).returncode == 0


def test_hidden_sizes_parsing(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["train", "--out", str(tmp_path / "r"), "--hidden-sizes", "8,x"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--hidden-sizes" in err and "'8,x'" in err
    assert "_parse_hidden_sizes" not in err


def test_every_config_field_has_a_train_flag():
    parser = build_parser()
    for f in dataclasses.fields(TrainConfig):
        value = f.default
        text = ",".join(map(str, value)) if isinstance(value, tuple) else str(value)
        args = parser.parse_args(["train", "--out", "r", "--" + f.name.replace("_", "-"), text])
        assert getattr(args, f.name) == value


def test_bandwidth_multipliers_flag_reaches_manifest(tmp_path, capsys):
    data = _gen_small(tmp_path)
    out = tmp_path / "run"
    assert _run_train(data, out, ["--bandwidth-multipliers", "0.5,1,2"]) == 0
    multipliers = json.loads((out / "manifest.json").read_text())["config"]["bandwidth_multipliers"]
    assert multipliers == [0.5, 1.0, 2.0]
    assert all(isinstance(m, float) for m in multipliers)

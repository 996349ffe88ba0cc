"""Command-line interface: dataset generation, training, evaluation, and
gradient checking.

Exit codes: 0 on success, 1 on runtime failure, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import logging
import os
import sys

from . import __version__
from .data import BlobShift, gen_blobs, gen_moons, load_csv, save_csv
from .model import load_checkpoint, save_checkpoint
from .trainer import METHODS, TrainConfig, evaluate, train

log = logging.getLogger("contradapt")

_CONFIG_FIELDS = {f.name for f in dataclasses.fields(TrainConfig)}
_SCALARS = {"str": str, "int": int, "float": float}


def _write_json(path: str, obj: dict) -> None:
    with open(path, "w", encoding="ascii") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load_config_file(path: str) -> tuple[dict, str | None, str | None]:
    """Read a config JSON; accepts both a flat config and a full run manifest."""
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    if isinstance(obj.get("config"), dict):  # manifest-shaped: reproduce that run
        cfg = dict(obj["config"])
        datasets = obj.get("datasets", {})
        if not isinstance(datasets, dict):
            raise ValueError(f"{path}: datasets must be a JSON object")
        source, target = datasets.get("source"), datasets.get("target")
    else:
        cfg = dict(obj)
        source, target = cfg.pop("source", None), cfg.pop("target", None)
    for key, value in (("source", source), ("target", target)):
        if value is not None and not isinstance(value, str):
            raise ValueError(f"{path}: {key} must be a path string or null")
    unknown = set(cfg) - _CONFIG_FIELDS
    if unknown:
        raise ValueError(f"{path}: unknown config keys {sorted(unknown)}")
    return cfg, source, target


def _comma_list(annotation: str):
    """Argument type parsing a comma-separated list for a ``tuple[X, ...]`` field."""
    item = _SCALARS[annotation.removeprefix("tuple[").removesuffix(", ...]")]

    def parse(text: str) -> tuple:
        try:
            values = tuple(item(v) for v in text.split(",") if v.strip())
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected comma-separated {item.__name__} values, got {text!r}") from None
        if not values:
            raise argparse.ArgumentTypeError("expected at least one value")
        return values

    return parse


def cmd_gen(args: argparse.Namespace) -> int:
    if args.kind == "moons":
        source, target = gen_moons(
            seed=args.seed,
            per_class=args.per_class,
            rotation_deg=args.rotation,
            noise_sigma=args.noise if args.noise is not None else 0.05,
        )
    else:
        shift = BlobShift(
            rotation_deg=args.rotation,
            translation=args.translation,
            scale=args.scale,
            noise_sigma=args.noise if args.noise is not None else 0.5,
        )
        source, target = gen_blobs(
            seed=args.seed,
            n_classes=args.classes,
            per_class=args.per_class,
            dim=args.dims,
            shift=shift,
            separation=args.separation,
        )
    os.makedirs(args.out, exist_ok=True)
    source_path = os.path.join(args.out, "source.csv")
    target_path = os.path.join(args.out, "target.csv")
    unlabeled_path = os.path.join(args.out, "target_unlabeled.csv")
    save_csv(source, source_path)
    save_csv(target, target_path, unlabeled_path)
    _write_json(
        os.path.join(args.out, "gen_manifest.json"),
        {
            "tool": "contradapt",
            "version": __version__,
            "command": "gen",
            "generator": source.meta,
            "artifacts": {"source": source_path, "target": target_path,
                          "target_unlabeled": unlabeled_path},
        },
    )
    print(f"wrote {source_path} ({source.n} rows), {target_path} and {unlabeled_path} "
          f"({target.n} rows each)")
    return 0


def _sibling_gen_meta(csv_path: str) -> dict | None:
    candidate = os.path.join(os.path.dirname(os.path.abspath(csv_path)), "gen_manifest.json")
    try:
        with open(candidate, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
    except (OSError, ValueError):  # absent, unreadable, not UTF-8 or not JSON
        return None
    return manifest.get("generator") if isinstance(manifest, dict) else None


def cmd_train(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    cfg: dict = {}
    source_path = target_path = None
    if args.config:
        cfg, source_path, target_path = _load_config_file(args.config)
    overrides = {
        name: getattr(args, name)
        for name in _CONFIG_FIELDS
        if getattr(args, name, None) is not None
    }
    cfg.update(overrides)
    source_path = args.source or source_path
    target_path = args.target or target_path
    if not source_path or not target_path:
        parser.error("train requires --source and --target (directly or via --config)")
    config = TrainConfig.from_dict(cfg)
    source = load_csv(source_path)
    target = load_csv(target_path)
    os.makedirs(args.out, exist_ok=True)
    metrics_path = os.path.join(args.out, "metrics.jsonl")
    checkpoint_path = os.path.join(args.out, "checkpoint.txt")
    summary_path = os.path.join(args.out, "summary.json")
    manifest_path = os.path.join(args.out, "manifest.json")
    failure_path = os.path.join(args.out, "failure.json")
    for stale in (checkpoint_path, summary_path, failure_path):  # an earlier run's outcome
        with contextlib.suppress(FileNotFoundError):
            os.remove(stale)
    # written first, so a run that fails can be replayed from it
    _write_json(manifest_path, {
        "tool": "contradapt",
        "version": __version__,
        "command": "train",
        "config": config.to_dict(),
        "datasets": {
            "source": source_path,
            "target": target_path,
            "source_generator": _sibling_gen_meta(source_path),
            "target_generator": _sibling_gen_meta(target_path),
        },
        "artifacts": {
            "metrics": metrics_path,
            "summary": summary_path,
            "checkpoint": checkpoint_path,
        },
    })
    loops_completed = 0
    with open(metrics_path, "w", encoding="ascii") as fh:
        def _emit(m):
            nonlocal loops_completed
            fh.write(json.dumps(m.record()) + "\n")
            fh.flush()
            loops_completed += 1
            log.info(
                "loop %d: ce=%.4f acc=%s kept=%d/%d classes",
                m.loop, m.ce_loss,
                "n/a" if m.target_accuracy is None else f"{m.target_accuracy:.4f}",
                m.n_kept, m.n_kept_classes,
            )

        try:
            result = train(config, source, target, metrics_writer=_emit)
        except ValueError as exc:  # e.g. divergence; main reports it and exits 1
            _write_json(failure_path, {"error": str(exc), "loops_completed": loops_completed})
            raise
    save_checkpoint(result.params, checkpoint_path)
    _write_json(summary_path, result.summary)
    acc = result.summary["final_target_accuracy"]
    print(
        f"method={config.method} seed={config.seed} loops={result.summary['loops_run']} "
        f"target_accuracy={'n/a' if acc is None else f'{acc:.4f}'} out={args.out}"
    )
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    params = load_checkpoint(args.checkpoint)
    dataset = load_csv(args.data)
    result = evaluate(params, dataset)
    print(
        json.dumps(
            {
                "accuracy": result.accuracy,
                "per_class": {str(c): v for c, v in sorted(result.per_class.items())},
                "mean_class_accuracy": result.mean_class_accuracy,
                "n": dataset.n,
            },
            sort_keys=True,
        )
    )
    return 0


def cmd_gradcheck(args: argparse.Namespace) -> int:
    from .gradcheck import run_all  # here, so gen, train and eval do not load it

    reports = run_all(seed=args.seed, rtol=args.rtol, step=args.step)
    ok = True
    for r in reports:
        status = "PASS" if r.passed else "FAIL"
        print(f"{r.name}: max_rel_error={r.max_rel_error:.3e} rtol={r.rtol:.1e} "
              f"n={r.n_instances} {status}")
        ok = ok and r.passed
    total = sum(r.n_instances for r in reports)
    print(f"gradcheck: {total} instances, {'all components PASS' if ok else 'FAILURES present'}")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="contradapt",
        description="Class-aware unsupervised domain adaptation on synthetic shifts.",
    )
    parser.add_argument("--version", action="version", version=f"contradapt {__version__}")
    parser.add_argument("-v", "--verbose", action="store_true", help="log per-loop progress")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a synthetic source/target dataset pair")
    p_gen.add_argument("--kind", choices=("moons", "blobs"), required=True)
    p_gen.add_argument("--out", required=True, help="output directory")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--per-class", type=int, default=200)
    p_gen.add_argument("--rotation", type=float, default=30.0, help="rotation in degrees")
    p_gen.add_argument("--noise", type=float, default=None,
                       help="noise sigma (default 0.05 moons, 0.5 blobs)")
    p_gen.add_argument("--classes", type=int, default=4, help="blobs: class count")
    p_gen.add_argument("--dims", type=int, default=2, help="blobs: feature dimensions")
    p_gen.add_argument("--translation", type=float, default=0.0, help="blobs: mean shift length")
    p_gen.add_argument("--scale", type=float, default=1.0, help="blobs: mean scale factor")
    p_gen.add_argument("--separation", type=float, default=4.0, help="blobs: mean circle radius")

    p_train = sub.add_parser("train", help="train a model and write run artifacts")
    p_train.add_argument("--source", help="source CSV path")
    p_train.add_argument("--target", help="target CSV path")
    p_train.add_argument("--out", required=True, help="run directory")
    p_train.add_argument("--config", help="JSON config file (or a previous run manifest)")
    for f in dataclasses.fields(TrainConfig):  # one flag per config field
        flag = "--" + f.name.replace("_", "-")
        if f.name == "method":
            p_train.add_argument(flag, dest=f.name, choices=METHODS)
        elif f.type.startswith("tuple["):
            p_train.add_argument(flag, dest=f.name, type=_comma_list(f.type), metavar="V1,V2,...")
        else:
            p_train.add_argument(flag, dest=f.name, type=_SCALARS[f.type])

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint on a labeled CSV")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--data", required=True)

    p_gc = sub.add_parser("gradcheck", help="finite-difference check of analytic gradients")
    p_gc.add_argument("--seed", type=int, default=0)
    p_gc.add_argument("--rtol", type=float, default=1e-4)
    p_gc.add_argument("--step", type=float, default=1e-5)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    try:
        if args.command == "train":
            return cmd_train(args, parser)
        return {"gen": cmd_gen, "eval": cmd_eval, "gradcheck": cmd_gradcheck}[args.command](args)
    except (ValueError, OSError) as exc:  # a JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Command-line entry point.

Subcommands: train, predict, evaluate, split, build-cubes, make-synthetic.
Artifact paths go to stdout, diagnostics to stderr; exit code 0 iff no
module error. Reruns refuse to clobber existing outputs unless --force.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys

from . import engine, evalkit
from .config import load_config
from .errors import SdmkitError
from .geodata import (TaggedLayer, build_time_series_cubes, load_observations, load_raster,
                      multi_hot, read_csv)
from .pipeline import build_model, load_data, resolve_split
from .split import block_holdout, save_split
from .synthetic import default_config_yaml, make_synthetic

log = logging.getLogger(__name__)


def _apply_seed_override(cfg, seed):
    if seed is None:
        return cfg
    return dataclasses.replace(cfg, run=dataclasses.replace(cfg.run, seed=seed))


def _check_clobber(path: str, force: bool) -> None:
    if path and os.path.exists(path) and not force:
        raise SdmkitError(f"refusing to overwrite {path!r} (pass --force)")


def _check_out_dir(path: str) -> None:
    """Refuse an output directory path that exists as something other than a directory."""
    if os.path.exists(path) and not os.path.isdir(path):
        raise SdmkitError(f"output directory {path!r} exists and is not a directory")


def cmd_train(args) -> int:
    cfg = _apply_seed_override(load_config(args.config), args.seed)
    _check_out_dir(args.out or cfg.trainer.output_dir)
    data = load_data(cfg)
    split = resolve_split(cfg, data.table)
    train_source = data.source_for(split.partition("train"))
    val_source = data.source_for(split.partition("val"))
    model = build_model(cfg, data.cube_shapes())
    run_dir = engine.fit(cfg, model, train_source, val_source, out_root=args.out)
    metrics = read_csv(os.path.join(run_dir, "metrics.csv"), ("val_loss",))
    best = min(float(loss) for _, (loss,) in metrics)
    print(run_dir)
    print(f"best val loss: {best}", file=sys.stderr)
    return 0


def cmd_predict(args) -> int:
    cfg = _apply_seed_override(load_config(args.config), args.seed)
    out_path = args.out or "predictions.csv"
    _check_clobber(out_path, args.force)
    data = load_data(cfg)
    source = data.source_for(labels_mode="predict")
    model = build_model(cfg, data.cube_shapes())
    engine.predict(cfg, model, args.weights, source, out_path=out_path)
    print(out_path)
    return 0


def cmd_evaluate(args) -> int:
    out_dir = args.out or os.path.dirname(os.path.abspath(args.predictions))
    _check_out_dir(out_dir)
    json_path = os.path.join(out_dir, "report.json")
    txt_path = os.path.join(out_dir, "report.txt")
    _check_clobber(json_path, args.force)
    predictions = engine.load_predictions(args.predictions)
    if not predictions:
        raise SdmkitError(f"{args.predictions}: no prediction rows")
    num_classes = predictions.scores.shape[1]
    table = load_observations(args.labels, num_classes)
    by_id = {r.survey_id: r for r in table.records}
    unlabeled = [sid for sid in predictions.survey_ids if sid not in by_id]
    if unlabeled:
        raise SdmkitError(f"survey {unlabeled[0]!r} has predictions but no labels")
    labels = multi_hot([by_id[sid] for sid in predictions.survey_ids], num_classes)
    report = evalkit.evaluate(predictions, labels, args.k)
    os.makedirs(out_dir, exist_ok=True)
    evalkit.write_report(report, json_path, txt_path)
    print(json_path)
    print(txt_path)
    return 0


def cmd_split(args) -> int:
    cfg = _apply_seed_override(load_config(args.config), args.seed)
    out_path = args.out or "split.csv"
    _check_clobber(out_path, args.force)
    table = load_observations(cfg.data.observations, cfg.task.num_classes)
    split = block_holdout(table, seed=cfg.run.seed)
    save_split(split, out_path)
    print(out_path)
    print(f"val fraction: {split.val_fraction:.4f}", file=sys.stderr)
    return 0


def cmd_build_cubes(args) -> int:
    try:
        shape = tuple(int(x) for x in args.shape.split(","))
    except ValueError:
        shape = ()
    if len(shape) != 3:
        raise SdmkitError(f"--shape must be B,Q,Y integers, got {args.shape!r}")
    _check_clobber(args.out, args.force)
    with open(args.layers, encoding="utf-8") as fh:
        entries = json.load(fh)
    base = os.path.dirname(args.layers)
    tagged = [
        TaggedLayer(
            layer=load_raster(os.path.join(base, e["header"])),
            band=e["band"], step=e["step"], year=e["year"],
        )
        for e in entries
    ]
    table = load_observations(args.observations, args.num_classes)
    build_time_series_cubes(tagged, table, shape, args.out)
    print(args.out)
    return 0


def cmd_make_synthetic(args) -> int:
    paths = make_synthetic(args.out, n_surveys=args.n, num_species=args.species,
                           seed=args.seed if args.seed is not None else 7)
    config_path = os.path.join(args.out, "config.yaml")
    with open(config_path, "w", encoding="utf-8") as fh:
        fh.write(default_config_yaml(args.out, n_species=args.species))
    for path in [*paths.values(), config_path]:
        print(path)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sdmkit",
        description="Multimodal species-distribution modeling pipelines.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None, help="override the config seed")
    common.add_argument("--force", action="store_true", help="overwrite existing outputs")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model from a config", parents=[common])
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None, help="run directory root")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="score a dataset with trained weights", parents=[common])
    p.add_argument("--config", required=True)
    p.add_argument("--weights", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="metric report from predictions + labels", parents=[common])
    p.add_argument("--predictions", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--k", type=int, default=25)
    p.add_argument("--out", default=None, help="report directory")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("split", help="spatial block holdout split", parents=[common])
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("build-cubes", help="extract time-series cubes from tagged rasters", parents=[common])
    p.add_argument("--layers", required=True, help="JSON list of tagged raster headers")
    p.add_argument("--observations", required=True)
    p.add_argument("--num-classes", type=int, required=True)
    p.add_argument("--shape", required=True, help="B,Q,Y")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_build_cubes)

    p = sub.add_parser("make-synthetic", help="generate a synthetic fixture dataset", parents=[common])
    p.add_argument("--out", required=True)
    p.add_argument("--n", type=int, default=500)
    p.add_argument("--species", type=int, default=20)
    p.set_defaults(func=cmd_make_synthetic)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, stream=sys.stderr,
                        format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SdmkitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

import argparse
import csv
import dataclasses
import hashlib
import inspect
import json
import logging
import math
import os
import subprocess
import sys

import numpy as np
import pytest
import yaml

from sdmkit import engine, geodata
from sdmkit.cli import build_parser, main
from sdmkit.config import load_config
from sdmkit.evalkit import Predictions
from sdmkit.geodata import load_cubes, load_observations, load_raster, save_raster
from sdmkit.nn import build_encoder, register_encoder
from sdmkit.pipeline import build_model, load_data
from sdmkit.split import block_holdout, load_split
from sdmkit.synthetic import default_config_yaml, make_synthetic

from conftest import failing_writes


@pytest.fixture(scope="module")
def synthetic_dir(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("cli") / "syn")
    assert main(["make-synthetic", "--out", out, "--n", "150", "--species", "8",
                 "--seed", "7"]) == 0
    # shrink to a fast config for CLI tests
    cfg_path = os.path.join(out, "config.yaml")
    text = open(cfg_path).read().replace("epochs: 10", "epochs: 2")
    open(cfg_path, "w").write(text)
    return out


def test_make_synthetic_deterministic(tmp_path):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    for out in (a, b):
        assert main(["make-synthetic", "--out", out, "--n", "50", "--species", "5",
                     "--seed", "9"]) == 0
    assert sorted(os.listdir(a)) == sorted(os.listdir(b))
    for name in set(os.listdir(a)) - {"config.yaml"}:  # config.yaml names its directory
        assert open(os.path.join(a, name), "rb").read() == open(
            os.path.join(b, name), "rb").read()


def test_make_synthetic_refuses_to_overwrite(tmp_path, capsys):
    """A rerun into a directory that holds observations.csv or config.yaml
    exits 1 with one error line and writes nothing; --force overwrites."""
    out = tmp_path / "syn"
    out.mkdir()
    (out / "config.yaml").write_text("run: {seed: 1}\n")
    argv = ["make-synthetic", "--out", str(out), "--n", "30", "--species", "4"]
    for existing in ("config.yaml", "observations.csv"):
        before = {name: (out / name).read_bytes() for name in os.listdir(out)}
        capsys.readouterr()
        assert main(argv) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: refusing to overwrite {str(out / existing)!r} (pass --force)"]
        assert {name: (out / name).read_bytes() for name in os.listdir(out)} == before
        # seed 1, so a rerun at the default seed 7 would change the bytes
        assert main(argv + ["--seed", "1", "--force"]) == 0
    assert len(load_observations(str(out / "observations.csv"), 4)) == 30


@pytest.mark.parametrize("name, written", [("observations", "observations.csv"),
                                           ("config", "config.yaml"), ("rasters", "rasters.json")])
def test_make_synthetic_failed_rewrite_keeps_previous_file(tmp_path, capsys, monkeypatch,
                                                           name, written):
    """A --force rewrite whose write of the table, config.yaml or rasters.json fails exits 1
    with one error line and leaves the previous file as it was, with no
    temporary file behind."""
    out = tmp_path / "syn"
    argv = ["make-synthetic", "--out", str(out), "--n", "30", "--species", "4"]
    assert main(argv) == 0
    before = (out / written).read_bytes()
    capsys.readouterr()
    with failing_writes(monkeypatch, name, 0):
        assert main(argv + ["--seed", "1", "--force"]) == 1
    assert error_lines(capsys) == ["error: disk full"]
    assert (out / written).read_bytes() == before
    assert not [f for f in os.listdir(out) if f.endswith(".tmp")]


def test_make_synthetic_config_trains_with_fewer_species_than_top_k(tmp_path, capsys):
    """make-synthetic with fewer species than the default top_k of 5 writes
    top_k as the species count, so train runs the config it wrote."""
    out = tmp_path / "syn"
    assert main(["make-synthetic", "--out", str(out), "--n", "60", "--species", "4"]) == 0
    cfg_path = str(out / "config.yaml")
    assert load_config(cfg_path).task.top_k == 4
    capsys.readouterr()
    assert main(["train", "--config", cfg_path, "--out", str(tmp_path / "runs")]) == 0
    assert error_lines(capsys) == []


def test_every_flag_is_read_by_its_command():
    """Each subcommand registers only flags its command function reads."""
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    unread = []
    for name, parser in subparsers.choices.items():
        source = inspect.getsource(parser.get_default("func"))
        unread += [f"{name} --{a.dest}" for a in parser._actions
                   if not isinstance(a, argparse._HelpAction) and f"args.{a.dest}" not in source]
    assert unread == []


# sha256 of every file make_synthetic(n=200, species=20, seed=7) writes. perfbench
# builds its train and predict inputs with the same generator at seed 7, so a
# change to any of these bytes changes what the benchmark measures.
SYNTHETIC_SEED7_SHA256 = {
    "chan0.f32": "bd18562b4677b68498f88d99c58d01a71c9dcedbcc1e5c1b10877f6df2a3e1a5",
    "chan0.json": "82bc18ce04374f2b6b941249b8ea49400fb9dcaefd7748198e42ddffd741404b",
    "chan1.f32": "08e35577ebb3bf0356849ff66d2257c262386a2ad2f4d3eb33e2c426ddd51525",
    "chan1.json": "0735b1e0fdfe16bdf9c8d3041c999d0eaa61caff4d75b023517766d51a8f15a8",
    "chan2.f32": "25f5bbf21b5d57a85759866a444634f175a949f15b252ac12cc52366ebc7358d",
    "chan2.json": "9194f8b0cb93f07025e007c908b5b9d9281045b64cfe7b777418720c132605fe",
    "chan3.f32": "42798cdf9a2b1253d5b6319f82afbe5e80569803b31c7fec2d36c462bb5b28ff",
    "chan3.json": "bd3e9dcf350ed506ff37e70550fb650208c5568fe87b41e9bee8daff7f10159e",
    "cube_a.6128cf526ff2cf85.f32": "6128cf526ff2cf85d831f2a4cdaa5ea57b5bed2ff1031d08b8b3b7310e285084",
    "cube_a.json": "639fb8c8df338570ee1614100814ebf5c14f931814aa09559e44f79b141474f4",
    "cube_b.180a526472bdafbe.f32": "180a526472bdafbebd94b5cf8b961abe6502448cb1c2b0de848c4cfa421c3c7f",
    "cube_b.json": "4cc9f954ea73a8d5282a43f95bf65ccb9bcb999fdc87bd0416bee23012b8f970",
    "observations.csv": "e5234df8fb9934c90af73e6d0e00db698d0135ef2b7aa8695aab64a9f188dd70",
    "rasters.json": "a6f6492074f937e78b62ee7209c103c0ec403c9ebcb98b112afab1be85b60a29",
}


def test_make_synthetic_seed7_files_pinned(tmp_path):
    out = str(tmp_path / "syn")
    make_synthetic(out, n_surveys=200, num_species=20, seed=7)
    digests = {name: hashlib.sha256(open(os.path.join(out, name), "rb").read()).hexdigest()
               for name in sorted(os.listdir(out))}
    assert digests == SYNTHETIC_SEED7_SHA256


def test_train_produces_artifacts(synthetic_dir, tmp_path, capsys):
    cfg = os.path.join(synthetic_dir, "config.yaml")
    assert main(["train", "--config", cfg, "--out", str(tmp_path)]) == 0
    out = capsys.readouterr()
    run_dir = out.out.strip().splitlines()[-1]
    for artifact in ("metrics.csv", "best.ckpt", "last.ckpt", "config.yaml"):
        assert os.path.exists(os.path.join(run_dir, artifact))
    with open(os.path.join(run_dir, "metrics.csv"), newline="") as fh:
        losses = [float(row["val_loss"]) for row in csv.DictReader(fh)]
    assert f"best val loss: {min(losses)}" in out.err


def test_train_prints_best_finite_val_loss(synthetic_dir, tmp_path, capsys, monkeypatch):
    """An epoch whose val_loss is nan (no finite validation batch) is not the
    best: the printed loss is the least finite one, as best.ckpt records."""
    def fit(cfg, model, train, val, out_root=None):
        run_dir = os.path.join(out_root, "run")
        os.makedirs(run_dir)
        with open(os.path.join(run_dir, "metrics.csv"), "w", encoding="utf-8") as fh:
            fh.write("epoch,lr,train_loss,val_loss\n0,0.1,0.9,nan\n1,0.1,0.8,0.75\n"
                     "2,0.1,0.7,0.5\n3,0.1,0.6,nan\n")
        return run_dir

    monkeypatch.setattr(engine, "fit", fit)
    cfg = os.path.join(synthetic_dir, "config.yaml")
    assert main(["train", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert "best val loss: 0.5" in capsys.readouterr().err.splitlines()


def test_outputs_do_not_depend_on_blas_threads(tmp_path):
    """The same 3-epoch fit and a predict from its best.ckpt, each run through
    the CLI in a fresh interpreter at OPENBLAS_NUM_THREADS and OMP_NUM_THREADS
    1, 2 and 4, write the same metrics.csv, last.ckpt, best.ckpt and
    predictions.csv bytes. The train partition of these 300 surveys is not a
    multiple of the batch size, so every epoch ends in a partial batch, whose
    weight-gradient GEMMs summed differently at 1 thread than at 2 and 4
    while the thread count followed the environment. Each run reports the
    count OpenBLAS read before fit pinned it; OpenBLAS caps it at the CPUs it
    sees, so on a host where it runs one thread there is nothing to compare."""
    data = str(tmp_path / "syn")
    assert main(["make-synthetic", "--out", data, "--n", "300", "--species", "8"]) == 0
    cfg_path = os.path.join(data, "config.yaml")
    text = open(cfg_path).read()
    open(cfg_path, "w").write(text.replace("epochs: 10", "epochs: 3"))
    cfg = load_config(cfg_path)
    split = block_holdout(load_observations(cfg.data.observations, cfg.task.num_classes),
                          seed=cfg.run.seed)
    assert len(split.partition("train")) % cfg.data.batch_size != 0
    src = os.path.dirname(os.path.dirname(engine.__file__))
    script = ("import os, sys; from sdmkit import kernels; from sdmkit.cli import main; "
              "runs, pred = sys.argv[2:]; functions = kernels._openblas_threads(); "
              "print(functions[1]() if functions else 0, flush=True); "
              "assert main(['train', '--config', sys.argv[1], '--out', runs]) == 0; "
              "weights = os.path.join(runs, os.listdir(runs)[0], 'best.ckpt'); "
              "sys.exit(main(['predict', '--config', sys.argv[1], '--weights', weights, "
              "'--out', pred]))")
    outputs, read = {}, {}  # by OPENBLAS_NUM_THREADS: the files, the count OpenBLAS read
    for threads in ("1", "2", "4"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH"))
                                              if p))
        runs, pred = tmp_path / f"runs{threads}", tmp_path / f"pred{threads}.csv"
        done = subprocess.run([sys.executable, "-c", script, cfg_path, str(runs), str(pred)],
                              env=env, check=True, capture_output=True, text=True)
        read[threads] = int(done.stdout.split()[0])
        (run_dir,) = runs.iterdir()
        outputs[threads] = {name: (run_dir / name).read_bytes()
                            for name in ("metrics.csv", "last.ckpt", "best.ckpt")}
        outputs[threads]["predictions.csv"] = pred.read_bytes()
    if max(read.values()) <= 1:
        pytest.skip(f"OpenBLAS ran at most one thread at OPENBLAS_NUM_THREADS 1, 2 and 4 (read "
                    f"{read}; 0 is no OpenBLAS), so no two thread counts can be compared")
    assert len(set(read.values())) >= 2, f"fewer than two distinct OpenBLAS thread counts: {read}"
    for threads in ("2", "4"):
        for name, content in outputs[threads].items():
            assert content == outputs["1"][name], (
                f"{name} at {read[threads]} OpenBLAS threads differs from {read['1']}")


def test_train_missing_data_path(tmp_path, capsys):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(
        "data:\n  observations: /nonexistent/obs.csv\ntask:\n  num_classes: 30\n"
        "model:\n  encoders:\n    patch: {name: micro_conv2d}\n"
    )
    assert main(["train", "--config", str(cfg)]) == 1
    assert "observations" in capsys.readouterr().err


def test_train_rerun_reproduces_losses(synthetic_dir, tmp_path, capsys):
    cfg = os.path.join(synthetic_dir, "config.yaml")
    columns = []
    for run in range(2):
        assert main(["train", "--config", cfg, "--out", str(tmp_path / str(run))]) == 0
        run_dir = capsys.readouterr().out.strip().splitlines()[-1]
        with open(os.path.join(run_dir, "metrics.csv")) as fh:
            lines = fh.read().strip().splitlines()
        columns.append([float(l.split(",")[2]) for l in lines[1:]])
    np.testing.assert_allclose(columns[0], columns[1], atol=1e-6)


def test_predict_and_evaluate_flow(synthetic_dir, tmp_path, capsys):
    cfg = os.path.join(synthetic_dir, "config.yaml")
    assert main(["train", "--config", cfg, "--out", str(tmp_path)]) == 0
    run_dir = capsys.readouterr().out.strip().splitlines()[-1]
    pred_path = str(tmp_path / "predictions.csv")
    assert main(["predict", "--config", cfg,
                 "--weights", os.path.join(run_dir, "best.ckpt"),
                 "--out", pred_path]) == 0
    capsys.readouterr()
    assert main(["evaluate", "--predictions", pred_path,
                 "--labels", os.path.join(synthetic_dir, "observations.csv"),
                 "--k", "5", "--out", str(tmp_path)]) == 0
    report = json.load(open(tmp_path / "report.json"))
    assert 0.0 <= report["micro_auc"] <= 1.0
    assert os.path.exists(tmp_path / "report.txt")


def write_bom_crlf(path, lines):
    """A CSV as a spreadsheet exports it: a byte-order mark, then CRLF rows."""
    path.write_bytes(("\ufeff" + "\r\n".join(lines) + "\r\n").encode("utf-8"))


def test_messy_inputs_train_predict_evaluate(tmp_path, capsys):
    """train, predict and evaluate each succeed on real-data hazards at once:
    an EPSG:3857 layer with -3.4e38 nodata and NaN pixels, a survey outside
    every layer, a blank species row, BOM and CRLF CSVs with repeated
    identical rows, and a split file that names val test."""
    data = tmp_path / "data"
    make_synthetic(str(data), n_surveys=80, num_species=6, seed=5)
    # chan3 on an EPSG:3857 grid over the same area as the EPSG:4326 layers
    layer = load_raster(str(data / "chan3.json"))
    values = layer.values.copy()
    values[:20, :20] = np.float32(-3.4e38)
    values[60:62] = np.nan
    metres = 6378137.0 * math.radians(0.1)  # 0.1 degrees of longitude
    top = 6378137.0 * math.asinh(math.tan(math.radians(12.8)))
    save_raster(dataclasses.replace(layer, crs="EPSG:3857", origin_y=top, pixel_size_x=metres,
                                    pixel_size_y=-metres, nodata=-3.4e38, values=values),
                str(data / "chan3.json"))
    rows = (data / "observations.csv").read_text().splitlines()
    header, body = rows[0], rows[1:]
    blank = body[3].rsplit(",", 1)[0] + ","  # a species row without a species
    observations = tmp_path / "observations.csv"
    write_bom_crlf(observations, [header, *body, *body[:5], blank, "outside,100.0,40.0,2"])
    table = load_observations(str(observations), 6)
    split = block_holdout(table, seed=1)
    split_path = tmp_path / "split.csv"
    write_bom_crlf(split_path, ["surveyId,partition,cx,cy", *(
        f"{sid},{'test' if part == 'val' else part},{split.cell_of[sid][0]},"
        f"{split.cell_of[sid][1]}" for sid, part in split.assignment.items())])
    doc = yaml.safe_load(default_config_yaml(str(data), n_species=6, epochs=2, top_k=3,
                                             patch_size=8))
    doc["data"].update(observations=str(observations), split_path=str(split_path),
                       cube_manifests={}, batch_size=16)
    doc["model"]["encoders"] = {"patch": doc["model"]["encoders"]["patch"]}
    cfg = tmp_path / "config.yaml"
    cfg.write_text(yaml.safe_dump(doc))
    surveys = 80 + 1  # the synthetic ones and the outside one
    assert len(table) == surveys

    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "runs")]) == 0
    run_dir = capsys.readouterr().out.splitlines()[-1]
    with open(os.path.join(run_dir, "metrics.csv"), newline="") as fh:
        assert len(list(csv.DictReader(fh))) == 2
    predictions = tmp_path / "predictions.csv"
    assert main(["predict", "--config", str(cfg), "--weights",
                 os.path.join(run_dir, "best.ckpt"), "--out", str(predictions)]) == 0
    preds = engine.load_predictions(str(predictions))
    assert preds.survey_ids == table.survey_ids and preds.scores.shape == (surveys, 6)
    assert np.isfinite(preds.scores).all() and len(np.unique(preds.scores)) > surveys
    assert main(["evaluate", "--predictions", str(predictions), "--labels",
                 str(observations), "--k", "3", "--out", str(tmp_path / "report")]) == 0
    report = json.loads((tmp_path / "report" / "report.json").read_text())
    assert len(report) == 14 and report["skipped_samples"] == 0
    assert all(0.0 <= report[f"{avg}_auc"] <= 1.0 for avg in ("micro", "samples", "macro"))
    assert len((tmp_path / "report" / "report.txt").read_text().splitlines()) == 7


def test_evaluate_refuses_clobber(synthetic_dir, tmp_path, capsys):
    """Either report file in --out is refused without --force, with one error
    line naming it, and left as it was."""
    pred = tmp_path / "p.csv"
    pred.write_text("surveyId,topk,scores\ns00000,0 1,0.9 0.8 0.1\n")
    for existing in ("report.json", "report.txt"):
        out = tmp_path / existing.replace(".", "-")
        out.mkdir()
        (out / existing).write_text("{}")
        capsys.readouterr()
        assert main(["evaluate", "--predictions", str(pred),
                     "--labels", os.path.join(synthetic_dir, "observations.csv"),
                     "--k", "2", "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: refusing to overwrite {str(out / existing)!r} (pass --force)"]
        assert os.listdir(out) == [existing] and (out / existing).read_text() == "{}"


def test_evaluate_empty_predictions(tmp_path, synthetic_dir):
    pred = tmp_path / "empty.csv"
    pred.write_text("surveyId,topk,scores\n")
    assert main(["evaluate", "--predictions", str(pred),
                 "--labels", os.path.join(synthetic_dir, "observations.csv"),
                 "--k", "2"]) == 1


@pytest.mark.parametrize("rows", [
    ["s00000,1 0,0.9 0.8 0.1", "s00001,0 1,0.9 abc 0.1"],
    ["s00000,1 0,0.9 0.8 0.1", "s00001,0 7,0.9 0.8 0.1"],
    ["s00000,1 0,0.9 0.8 0.1", "s00001,0 1,0.9 0.8"],
    ["s00000,1 0,0.9 0.8 0.1", "s00000,0 1,0.9 0.8 0.1"],
])
def test_evaluate_bad_predictions_one_error_line(tmp_path, synthetic_dir, capsys, rows):
    pred = tmp_path / "p.csv"
    pred.write_text("\n".join(["surveyId,topk,scores", *rows]) + "\n")
    assert main(["evaluate", "--predictions", str(pred),
                 "--labels", os.path.join(synthetic_dir, "observations.csv"), "--k", "2"]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {pred} row 3")


def write_predictions(synthetic_dir, path, k=3):
    """Random scores for every survey of the synthetic labels."""
    ids = load_observations(os.path.join(synthetic_dir, "observations.csv"), 8).survey_ids
    scores = np.random.default_rng(0).random((len(ids), 8))
    engine.save_predictions(Predictions.from_scores(ids, scores, k), str(path))


def test_evaluate_creates_missing_out_dir(synthetic_dir, tmp_path, capsys):
    pred = tmp_path / "p.csv"
    write_predictions(synthetic_dir, pred)
    out = tmp_path / "reports" / "k3"
    assert main(["evaluate", "--predictions", str(pred),
                 "--labels", os.path.join(synthetic_dir, "observations.csv"),
                 "--k", "3", "--out", str(out)]) == 0
    assert capsys.readouterr().out.split() == [str(out / "report.json"), str(out / "report.txt")]
    assert 0.0 <= json.load(open(out / "report.json"))["micro_auc"] <= 1.0


def test_evaluate_k_too_large(tmp_path, synthetic_dir):
    pred = tmp_path / "p.csv"
    pred.write_text("surveyId,topk,scores\ns00000,0,0.9 0.1 0.2\n")
    assert main(["evaluate", "--predictions", str(pred),
                 "--labels", os.path.join(synthetic_dir, "observations.csv"),
                 "--k", "99"]) == 1


def test_split_command_block_purity(synthetic_dir, tmp_path, capsys):
    cfg = os.path.join(synthetic_dir, "config.yaml")
    out = str(tmp_path / "split.csv")
    assert main(["split", "--config", cfg, "--out", out]) == 0
    split = load_split(out)
    by_cell = {}
    for sid, part in split.assignment.items():
        by_cell.setdefault(split.cell_of[sid], set()).add(part)
    assert all(len(parts) == 1 for parts in by_cell.values())


def test_build_cubes_round_trip(synthetic_dir, tmp_path):
    layers = [
        {"header": os.path.join(synthetic_dir, f"chan{c}.json"), "band": c,
         "step": 0, "year": 0}
        for c in range(2)
    ]
    layers_path = tmp_path / "tagged.json"
    layers_path.write_text(json.dumps(layers))
    out = str(tmp_path / "built.json")
    assert main(["build-cubes", "--layers", str(layers_path),
                 "--observations", os.path.join(synthetic_dir, "observations.csv"),
                 "--num-classes", "8", "--shape", "2,1,1", "--out", out]) == 0
    cubes = load_cubes(out)
    assert cubes.survey_ids == load_observations(
        os.path.join(synthetic_dir, "observations.csv"), 8).survey_ids
    assert cubes.values.shape == (150, 2, 1, 1)


def test_build_cubes_logs_each_layer_missing_surveys_once(synthetic_dir, tmp_path, caplog):
    """Surveys outside the tagged rasters are logged once per layer, as a
    count and the first id, not once per survey and layer."""
    observations = tmp_path / "observations.csv"
    with open(os.path.join(synthetic_dir, "observations.csv")) as fh:
        observations.write_text(fh.read() + "".join(f"far{i},-170.0,-60.0,1\n" for i in range(20)))
    _, argv = build_cubes_args(synthetic_dir, tmp_path, [
        {"header": f"chan{c}.json", "band": c, "step": 0, "year": 0} for c in range(4)], "4,1,1")
    argv[argv.index("--observations") + 1] = str(observations)
    with caplog.at_level(logging.WARNING, logger="sdmkit.geodata"):
        assert main(argv) == 0
    assert [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING] == [
        f"20 of 170 surveys outside layer 'chan{c}', first 'far0'; filled" for c in range(4)]


@pytest.mark.parametrize("shape", ["2,x,3", "2,1"])
def test_build_cubes_bad_shape_one_error_line(synthetic_dir, tmp_path, capsys, shape):
    layers_path = tmp_path / "tagged.json"
    layers_path.write_text("[]")
    assert main(["build-cubes", "--layers", str(layers_path),
                 "--observations", os.path.join(synthetic_dir, "observations.csv"),
                 "--num-classes", "8", "--shape", shape,
                 "--out", str(tmp_path / "built.json")]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"error: --shape must be B,Q,Y integers, got '{shape}'"]


@pytest.fixture(scope="module")
def trained_weights(synthetic_dir, tmp_path_factory):
    """best.ckpt of a train run on the synthetic config."""
    out = tmp_path_factory.mktemp("trained")
    assert main(["train", "--config", os.path.join(synthetic_dir, "config.yaml"),
                 "--out", str(out)]) == 0
    (run_dir,) = os.listdir(out)
    return os.path.join(out, run_dir, "best.ckpt")


@pytest.mark.parametrize("old, new, refusal", [
    ("top_k: 5", "top_k: 3", None),
    ("dropout: 0.1", "dropout: 0.3", None),
    ("hidden_dim: 1024", "hidden_dim: 64", "head.1.w: checkpoint (1024, 192) vs model (64, 192);"),
    ("name: micro_conv2d", "name: conv2d_alias\n      provider: test",
     "model.encoders.patch: checkpoint ['builtin', 'micro_conv2d'] vs config "
     "['test', 'conv2d_alias']"),
], ids=["top-k", "dropout", "hidden-dim", "encoder-name"])
def test_predict_under_changed_setting(synthetic_dir, trained_weights, tmp_path, capsys,
                                       old, new, refusal):
    """A checkpoint loads under a config that changes a setting its params do
    not show; a changed param shape or encoder is refused, naming it."""
    # the synthetic patch encoder under another name: the same param names and shapes
    register_encoder("test", "conv2d_alias", lambda shape, dim, rng: build_encoder(
        "builtin", "micro_conv2d", shape, dim, rng))
    text = open(os.path.join(synthetic_dir, "config.yaml")).read()
    assert text.count(old) == 1
    cfg_path = tmp_path / "changed.yaml"
    cfg_path.write_text(text.replace(old, new))
    out = tmp_path / "p.csv"
    capsys.readouterr()
    code = main(["predict", "--config", str(cfg_path), "--weights", trained_weights,
                 "--out", str(out)])
    if refusal is None:
        assert code == 0
        assert engine.load_predictions(str(out)).topk.shape[1] == load_config(
            str(cfg_path)).task.top_k
    else:
        assert code == 1
        errors = error_lines(capsys)
        assert len(errors) == 1 and errors[0].startswith(f"error: {trained_weights}: {refusal}")
        assert not os.path.exists(out)


def error_lines(capsys) -> list[str]:
    return [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]


def test_predict_rejects_checkpoint_of_another_dtype(synthetic_dir, tmp_path, capsys):
    cfg_path = os.path.join(synthetic_dir, "config.yaml")
    cfg = load_config(cfg_path)
    model = build_model(cfg, load_data(cfg).cube_shapes())
    model.flatten_params(np.float64)
    weights = str(tmp_path / "float64.ckpt")
    engine.save_checkpoint(weights, model, None, engine.TrainState(), cfg)
    assert main(["predict", "--config", cfg_path, "--weights", weights,
                 "--out", str(tmp_path / "p.csv")]) == 1
    errors = error_lines(capsys)
    assert len(errors) == 1
    assert "enc.patch.0.w: checkpoint dtype float64 vs model float32" in errors[0]
    assert not os.path.exists(tmp_path / "p.csv")


def test_train_location_only_single_modality_one_error_line(synthetic_dir, tmp_path, capsys):
    # the location encoder is one Linear, not a layer stack whose last layer
    # could become the classifier
    with open(os.path.join(synthetic_dir, "config.yaml")) as fh:
        doc = yaml.safe_load(fh)
    doc["model"] = {"name": "sinusoidal_location",
                    "encoders": {"location": {"name": "sinusoidal_location"}}}
    cfg_path = tmp_path / "location.yaml"
    cfg_path.write_text(yaml.safe_dump(doc))
    assert main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "runs")]) == 1
    errors = error_lines(capsys)
    assert len(errors) == 1
    assert errors[0].startswith("error: SinusoidalLocationEncoder is not a Sequential")
    assert not os.path.exists(tmp_path / "runs")


def write_conflict_in_later_block(synthetic_dir, tmp_path):
    """Labels whose survey s00000 moves on a row more than a block of text
    after its first row; the predictions score that survey."""
    labels = tmp_path / "labels.csv"
    filler = [f"f{i:05d},1.2345678901234567,43.123456789012345,1" for i in range(4000)]
    labels.write_text("\n".join(["surveyId,lon,lat,speciesId", "s00000,3.0,43.0,2", *filler,
                                  "s00000,3.5,43.0,4"]) + "\n")
    assert os.path.getsize(labels) > 2 * geodata.TEXT_BLOCK
    pred = tmp_path / "p.csv"
    pred.write_text("surveyId,topk,scores\ns00000,0 1,0.9 0.8 0.1 0.2 0.3\n")
    return ["evaluate", "--predictions", str(pred), "--labels", str(labels), "--k", "2"], (
        f"{labels} row 4003: survey 's00000' at (3.5, 43.0) conflicts with (3.0, 43.0) in row 2")


def write_split_survey_twice(synthetic_dir, tmp_path):
    split = tmp_path / "split.csv"
    split.write_text("surveyId,partition,cx,cy\ns00000,train,0,0\ns00001,val,1,0\n"
                     "s00000,val,0,0\n")
    return train_args(synthetic_dir, tmp_path, data={"split_path": str(split)}), (
        f"{split} row 4: survey 's00000' already in row 2")


def write_ragged_predictions(synthetic_dir, tmp_path):
    pred = tmp_path / "p.csv"
    pred.write_text("surveyId,topk,scores\ns00000,1 0,0.9 0.8 0.1\ns00001,0 1,0.9 0.8\n")
    return ["evaluate", "--predictions", str(pred),
            "--labels", os.path.join(synthetic_dir, "observations.csv"), "--k", "2"], (
        f"{pred} row 3: 2 top-k ids and 2 scores, row 2 has 2 and 3")


def write_encoder_without_modality(synthetic_dir, tmp_path):
    return train_args(synthetic_dir, tmp_path,
                      encoders={"cube_c": {"name": "micro_conv3d"}}), "model.encoders.cube_c: "


def build_cubes_args(synthetic_dir, tmp_path, entries, shape):
    """build-cubes argv over a layers file of entries; each entry's header
    becomes the path of the synthetic raster it names."""
    layers = tmp_path / "tagged.json"
    layers.write_text(json.dumps([dict(e, header=os.path.join(synthetic_dir, e["header"]))
                                  for e in entries]))
    return layers, ["build-cubes", "--layers", str(layers),
                    "--observations", os.path.join(synthetic_dir, "observations.csv"),
                    "--num-classes", "8", "--shape", shape, "--out", str(tmp_path / "built.json")]


def write_repeated_cube_tag(synthetic_dir, tmp_path):
    layers, argv = build_cubes_args(
        synthetic_dir, tmp_path, [{"header": f"chan{c}.json", "band": 0, "step": 0, "year": 0}
                                  for c in range(2)], "1,1,1")
    headers = [os.path.join(synthetic_dir, f"chan{c}.json") for c in range(2)]
    return argv, (
        f"{layers}: entry 1 ({headers[1]}) repeats the (band, step, year) (0, 0, 0) of entry 0 "
        f"({headers[0]})")


def write_cube_tag_without_year(synthetic_dir, tmp_path):
    layers, argv = build_cubes_args(synthetic_dir, tmp_path,
                                    [{"header": "chan0.json", "band": 0, "step": 0}], "1,1,1")
    header = os.path.join(synthetic_dir, "chan0.json")
    return argv, f"{layers}: entry 0 ({header}) year None is not an integer in [0, 1)"


def write_cube_band_past_shape(synthetic_dir, tmp_path):
    layers, argv = build_cubes_args(
        synthetic_dir, tmp_path, [{"header": f"chan{c}.json", "band": c, "step": 0, "year": 0}
                                  for c in range(3)], "2,1,1")
    header = os.path.join(synthetic_dir, "chan2.json")
    return argv, f"{layers}: entry 2 ({header}) band 2 is not an integer in [0, 2)"


def write_cube_negative_band(synthetic_dir, tmp_path):
    # band -1 would index the last band and overwrite band 0 at this shape
    layers, argv = build_cubes_args(
        synthetic_dir, tmp_path, [{"header": f"chan{c}.json", "band": -c, "step": 0, "year": 0}
                                  for c in range(2)], "1,1,1")
    header = os.path.join(synthetic_dir, "chan1.json")
    return argv, f"{layers}: entry 1 ({header}) band -1 is not an integer in [0, 1)"


def write_cube_bool_step(synthetic_dir, tmp_path):
    # true would index step 1, which this shape has
    layers, argv = build_cubes_args(
        synthetic_dir, tmp_path, [{"header": "chan0.json", "band": 0, "step": 0, "year": 0},
                                  {"header": "chan1.json", "band": 0, "step": True, "year": 0}],
        "1,2,1")
    header = os.path.join(synthetic_dir, "chan1.json")
    return argv, f"{layers}: entry 1 ({header}) step True is not an integer in [0, 2)"


def write_cube_shape_untagged(synthetic_dir, tmp_path):
    # every entry is well formed, but step 1 of the shape has no layer
    _, argv = build_cubes_args(synthetic_dir, tmp_path,
                               [{"header": "chan0.json", "band": 0, "step": 0, "year": 0}],
                               "1,2,1")
    return argv, "missing (band, step, year) combinations: [(0, 1, 0)]"


def write_layers_trailing_comma(synthetic_dir, tmp_path):
    layers, argv = build_cubes_args(synthetic_dir, tmp_path, [], "1,1,1")
    header = os.path.join(synthetic_dir, "chan0.json")
    layers.write_text(f'[{{"header": "{header}", "band": 0, "step": 0, "year": 0}},]')
    return argv, f"{layers}: not valid JSON"


def write_layers_mapping(synthetic_dir, tmp_path):
    layers, argv = build_cubes_args(synthetic_dir, tmp_path, [], "1,1,1")
    layers.write_text('{"header": "chan0.json", "band": 0, "step": 0, "year": 0}')
    return argv, f"{layers}: expected a JSON list, got dict"


def write_raster_manifest_trailing_comma(synthetic_dir, tmp_path):
    manifest = tmp_path / "rasters.json"
    manifest.write_text(f'{{"layers": ["{os.path.join(synthetic_dir, "chan0.json")}",]}}')
    return train_args(synthetic_dir, tmp_path, data={"raster_manifest": str(manifest)}), (
        f"{manifest}: not valid JSON")


def raster_header_args(synthetic_dir, tmp_path, drop=(), **changes):
    """train argv whose only raster is chan0 with its header changed and the
    keys in drop removed."""
    with open(os.path.join(synthetic_dir, "chan0.json")) as fh:
        header = json.load(fh)
    header["payload"] = os.path.join(synthetic_dir, header["payload"])
    header.update(changes)
    path = tmp_path / "chan0.json"
    path.write_text(json.dumps({k: v for k, v in header.items() if k not in drop}))
    manifest = tmp_path / "rasters.json"
    manifest.write_text(json.dumps({"layers": [str(path)]}))
    return path, train_args(synthetic_dir, tmp_path, data={"raster_manifest": str(manifest)})


def write_raster_header_without_crs(synthetic_dir, tmp_path):
    path, argv = raster_header_args(synthetic_dir, tmp_path, drop=("crs",))
    return argv, f"{path}: missing key 'crs'"


def write_raster_width_text(synthetic_dir, tmp_path):
    path, argv = raster_header_args(synthetic_dir, tmp_path, width="128")
    return argv, f"{path}: width must be a positive integer, got '128'"


def write_raster_height_bool(synthetic_dir, tmp_path):
    path, argv = raster_header_args(synthetic_dir, tmp_path, height=True)
    return argv, f"{path}: height must be a positive integer, got True"


def write_raster_nodata_null(synthetic_dir, tmp_path):
    path, argv = raster_header_args(synthetic_dir, tmp_path, nodata=None)
    return argv, f"{path}: nodata must be a number, got None"


def write_raster_crs_number(synthetic_dir, tmp_path):
    path, argv = raster_header_args(synthetic_dir, tmp_path, crs=4326)
    return argv, f"{path}: crs must be a string, got 4326"


def write_raster_pixel_size_text(synthetic_dir, tmp_path):
    path, argv = raster_header_args(synthetic_dir, tmp_path, pixel_size_x="0.1")
    return argv, f"{path}: pixel_size_x must be a number, got '0.1'"


def write_raster_payload_number(synthetic_dir, tmp_path):
    path, argv = raster_header_args(synthetic_dir, tmp_path, payload=5)
    return argv, f"{path}: payload must be a string, got 5"


def write_raster_manifest_layers_string(synthetic_dir, tmp_path):
    manifest = tmp_path / "rasters.json"
    manifest.write_text(json.dumps({"layers": "chan0.json"}))
    return train_args(synthetic_dir, tmp_path, data={"raster_manifest": str(manifest)}), (
        f"{manifest}: layers must be a list of header paths, got 'chan0.json'")


def cube_manifest_args(synthetic_dir, tmp_path, **changes):
    """train argv whose cube_a manifest is the synthetic one with changes; a
    change to None drops the key."""
    with open(os.path.join(synthetic_dir, "cube_a.json")) as fh:
        manifest = json.load(fh)
    manifest["payload"] = os.path.join(synthetic_dir, manifest["payload"])
    manifest.update(changes)
    path = tmp_path / "cube_a.json"
    path.write_text(json.dumps({k: v for k, v in manifest.items() if v is not None}))
    cubes = {"cube_a": str(path), "cube_b": os.path.join(synthetic_dir, "cube_b.json")}
    return path, train_args(synthetic_dir, tmp_path, data={"cube_manifests": cubes})


def write_cube_manifest_without_shape(synthetic_dir, tmp_path):
    path, argv = cube_manifest_args(synthetic_dir, tmp_path, shape=None)
    return argv, f"{path}: missing key 'shape'"


def write_cube_shape_negative(synthetic_dir, tmp_path):
    # -4 * -3 is the payload's 12 entries per band, so only the sign check refuses it
    path, argv = cube_manifest_args(synthetic_dir, tmp_path, shape=[2, -4, -3])
    return argv, f"{path}: shape [2, -4, -3] is not three non-negative integers"


def synthetic_cube_surveys(synthetic_dir):
    with open(os.path.join(synthetic_dir, "cube_a.json")) as fh:
        return json.load(fh)["surveys"]


def write_cube_survey_ids_integers(synthetic_dir, tmp_path):
    # integer ids would load, then fail as surveys missing from the modality
    surveys = list(range(len(synthetic_cube_surveys(synthetic_dir))))
    path, argv = cube_manifest_args(synthetic_dir, tmp_path, surveys=surveys)
    return argv, f"{path}: surveys must be a list of survey ids, got an entry 0"


def write_cube_survey_repeated(synthetic_dir, tmp_path):
    surveys = synthetic_cube_surveys(synthetic_dir)
    surveys[5] = surveys[2]
    path, argv = cube_manifest_args(synthetic_dir, tmp_path, surveys=surveys)
    return argv, f"{path}: surveys: duplicate survey {surveys[2]!r}"


def write_cube_bands_string(synthetic_dir, tmp_path):
    # two characters for two bands, so only the type check refuses it
    path, argv = cube_manifest_args(synthetic_dir, tmp_path, bands="ab")
    return argv, f"{path}: bands must be a list of band names, got 'ab'"


def write_cube_payload_number(synthetic_dir, tmp_path):
    path, argv = cube_manifest_args(synthetic_dir, tmp_path, payload=5)
    return argv, f"{path}: payload must be a string, got 5"


def write_survey_outside_mercator_domain(synthetic_dir, tmp_path):
    # chan3 on an EPSG:3857 grid and a survey at lat 86, where EPSG:3857 is undefined
    header = tmp_path / "chan3.json"
    layer = load_raster(os.path.join(synthetic_dir, "chan3.json"))
    save_raster(dataclasses.replace(layer, crs="EPSG:3857"), str(header))
    manifest = tmp_path / "rasters.json"
    manifest.write_text(json.dumps({"layers": [
        *(os.path.join(synthetic_dir, f"chan{c}.json") for c in range(3)), str(header)]}))
    observations = tmp_path / "observations.csv"
    with open(os.path.join(synthetic_dir, "observations.csv")) as fh:
        observations.write_text(fh.read() + "polar,10.0,86.0,1\n")
    argv = train_args(synthetic_dir, tmp_path, data={
        "observations": str(observations), "raster_manifest": str(manifest), "cube_manifests": {}})
    doc = yaml.safe_load((tmp_path / "config.yaml").read_text())
    doc["model"]["encoders"] = {"patch": doc["model"]["encoders"]["patch"]}
    (tmp_path / "config.yaml").write_text(yaml.safe_dump(doc))
    return argv, "survey 'polar': latitude 86.0 outside EPSG:3857 domain"


def write_epochs_past_t_max(synthetic_dir, tmp_path):
    # epoch 25 of 26 would train at lr 0
    argv = train_args(synthetic_dir, tmp_path, trainer={"epochs": 26})
    return argv, "trainer.epochs: 26 exceeds optimizer.t_max 25"


def write_observations_without_surveys(synthetic_dir, tmp_path):
    # cube manifests of no survey hold no cube whose shape a model could take
    observations = tmp_path / "observations.csv"
    observations.write_text("surveyId,lon,lat,speciesId\n")
    cubes = str(tmp_path / "cubes.json")
    geodata.save_cubes([], np.empty((0, 1, 1, 1), np.float32), ["band0"], cubes)
    argv = train_args(synthetic_dir, tmp_path, data={
        "observations": str(observations), "cube_manifests": {"cube_a": cubes, "cube_b": cubes}})
    return ["predict", "--config", argv[2], "--weights", str(tmp_path / "w.ckpt"), "--out",
            str(tmp_path / "p.csv")], f"{observations}: no survey rows"


def write_split_observations_without_surveys(synthetic_dir, tmp_path):
    observations = tmp_path / "observations.csv"
    observations.write_text("surveyId,lon,lat,speciesId\n")
    argv = train_args(synthetic_dir, tmp_path, data={"observations": str(observations)})
    return ["split", "--config", argv[2], "--out", str(tmp_path / "split.csv")], (
        f"{observations}: no survey rows")


def predict_args(synthetic_dir, tmp_path, weights):
    return ["predict", "--config", os.path.join(synthetic_dir, "config.yaml"),
            "--weights", str(weights), "--out", str(tmp_path / "p.csv")]


def write_weights_yaml(synthetic_dir, tmp_path):
    weights = os.path.join(synthetic_dir, "config.yaml")
    return predict_args(synthetic_dir, tmp_path, weights), (
        f"{weights}: not an npz checkpoint archive")


def checkpoint_args(synthetic_dir, tmp_path, **arrays):
    """predict argv whose weights are an npz archive of arrays."""
    weights = tmp_path / "w.ckpt"
    with open(weights, "wb") as fh:
        np.savez(fh, **arrays)
    return weights, predict_args(synthetic_dir, tmp_path, weights)


def write_checkpoint_without_meta(synthetic_dir, tmp_path):
    weights, argv = checkpoint_args(synthetic_dir, tmp_path, **{"param/head.1.w": np.zeros(2)})
    return argv, f"{weights}: no meta record"


def write_checkpoint_meta_not_json(synthetic_dir, tmp_path):
    weights, argv = checkpoint_args(synthetic_dir, tmp_path, meta=np.array("{'state': {}}"))
    return argv, f"{weights}: meta is not valid JSON"


def write_checkpoint_meta_without_state(synthetic_dir, tmp_path):
    weights, argv = checkpoint_args(synthetic_dir, tmp_path,
                                    meta=np.array(json.dumps({"arch_digest": "0" * 12})))
    return argv, f"{weights}: meta has no state with epoch and best_val_loss"


def train_args(synthetic_dir, tmp_path, data=(), encoders=(), trainer=()):
    with open(os.path.join(synthetic_dir, "config.yaml")) as fh:
        doc = yaml.safe_load(fh)
    doc["data"].update(data)
    doc["model"]["encoders"].update(encoders)
    doc["trainer"].update(trainer)
    cfg_path = tmp_path / "config.yaml"
    cfg_path.write_text(yaml.safe_dump(doc))
    return ["train", "--config", str(cfg_path), "--out", str(tmp_path / "runs")]


@pytest.mark.parametrize("write", [write_conflict_in_later_block, write_split_survey_twice,
                                   write_ragged_predictions, write_encoder_without_modality,
                                   write_repeated_cube_tag, write_cube_tag_without_year,
                                   write_cube_band_past_shape, write_cube_negative_band,
                                   write_cube_bool_step, write_cube_shape_untagged,
                                   write_layers_trailing_comma,
                                   write_layers_mapping, write_raster_manifest_trailing_comma,
                                   write_raster_header_without_crs, write_raster_width_text,
                                   write_raster_height_bool, write_raster_nodata_null,
                                   write_raster_crs_number, write_raster_pixel_size_text,
                                   write_raster_payload_number,
                                   write_raster_manifest_layers_string,
                                   write_cube_manifest_without_shape, write_cube_shape_negative,
                                   write_cube_survey_ids_integers, write_cube_survey_repeated,
                                   write_cube_bands_string, write_cube_payload_number,
                                   write_survey_outside_mercator_domain,
                                   write_observations_without_surveys,
                                   write_split_observations_without_surveys,
                                   write_epochs_past_t_max, write_weights_yaml,
                                   write_checkpoint_without_meta, write_checkpoint_meta_not_json,
                                   write_checkpoint_meta_without_state],
                         ids=["conflict-later-block", "split-survey-twice",
                              "ragged-predictions", "encoder-without-modality",
                              "repeated-cube-tag", "cube-tag-without-year",
                              "cube-band-past-shape", "cube-negative-band",
                              "cube-bool-step", "cube-shape-untagged",
                              "layers-trailing-comma", "layers-mapping",
                              "raster-manifest-trailing-comma", "raster-header-without-crs",
                              "raster-width-text", "raster-height-bool", "raster-nodata-null",
                              "raster-crs-number", "raster-pixel-size-text",
                              "raster-payload-number", "raster-manifest-layers-string",
                              "cube-manifest-without-shape", "cube-shape-negative",
                              "cube-survey-ids-integers", "cube-survey-repeated",
                              "cube-bands-string", "cube-payload-number",
                              "survey-outside-mercator-domain", "observations-without-surveys",
                              "split-observations-without-surveys", "epochs-past-t-max",
                              "weights-yaml", "checkpoint-without-meta",
                              "checkpoint-meta-not-json", "checkpoint-meta-without-state"])
def test_rejected_input_one_error_line(synthetic_dir, tmp_path, capsys, write):
    """Real-data hazards that must be rejected: exit 1 and one error line
    naming the file and row, or the config key; no run directory or report."""
    argv, expected = write(synthetic_dir, tmp_path)
    capsys.readouterr()
    assert main(argv) == 1
    errors = error_lines(capsys)
    assert len(errors) == 1
    assert errors[0].startswith(f"error: {expected}")
    assert not os.path.exists(tmp_path / "runs")
    assert not os.path.exists(tmp_path / "report.json")
    assert not os.path.exists(tmp_path / "built.json")


@pytest.mark.parametrize("command", ["train", "evaluate", "predict"])
def test_out_path_one_error_line_or_created(synthetic_dir, tmp_path, capsys, monkeypatch,
                                            command):
    """train and evaluate refuse an --out that is a regular file with one error
    line naming it, before any data is read; predict creates a missing --out
    directory instead of failing on its temporary file."""
    cfg_path = os.path.join(synthetic_dir, "config.yaml")
    taken = tmp_path / "taken"
    taken.write_text("")
    if command == "predict":
        cfg = load_config(cfg_path)
        weights = str(tmp_path / "w.ckpt")
        engine.save_checkpoint(weights, build_model(cfg, load_data(cfg).cube_shapes()), None,
                               engine.TrainState(), cfg)
        out = tmp_path / "missing" / "p.csv"
        assert main(["predict", "--config", cfg_path, "--weights", weights,
                     "--out", str(out)]) == 0
        assert capsys.readouterr().out.split() == [str(out)]
        assert engine.load_predictions(str(out)).scores.shape[1] == cfg.task.num_classes
        return

    def no_data_read(*args, **kwargs):
        raise AssertionError("data read before --out was checked")

    monkeypatch.setattr("sdmkit.cli.load_data", no_data_read)
    monkeypatch.setattr(engine, "load_predictions", no_data_read)
    if command == "train":
        argv = ["train", "--config", cfg_path, "--out", str(taken)]
    else:
        pred = tmp_path / "p.csv"
        write_predictions(synthetic_dir, pred)
        argv = ["evaluate", "--predictions", str(pred),
                "--labels", os.path.join(synthetic_dir, "observations.csv"),
                "--k", "3", "--out", str(taken)]
    capsys.readouterr()
    assert main(argv) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: output directory {str(taken)!r} exists and is not a directory"]


def test_cli_import_loads_only_declared_deps():
    # importing the CLI may load the standard library and the declared runtime
    # deps (numpy, pyyaml) only; Cython extensions add their runtime modules
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    probe = ("import sys; before = {m.split('.')[0] for m in sys.modules}; import sdmkit.cli; "
             "print(' '.join({m.split('.')[0] for m in sys.modules} - before "
             "- set(sys.stdlib_module_names)))")
    result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                            text=True, check=True)
    loaded = {m for m in result.stdout.split()
              if m != "cython_runtime" and not m.startswith("_cython_")}
    assert loaded == {"sdmkit", "numpy", "yaml"}

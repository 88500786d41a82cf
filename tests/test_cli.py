import csv
import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest
import yaml

from sdmkit import engine, geodata
from sdmkit.cli import main
from sdmkit.config import load_config
from sdmkit.evalkit import Predictions
from sdmkit.geodata import load_cubes, load_observations
from sdmkit.pipeline import build_model, load_data
from sdmkit.split import load_split
from sdmkit.synthetic import make_synthetic


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
    for name in ("observations.csv", "chan0.f32", "cube_a.f32", "cube_a.json"):
        assert open(os.path.join(a, name), "rb").read() == open(
            os.path.join(b, name), "rb").read()


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
    "cube_a.f32": "6128cf526ff2cf85d831f2a4cdaa5ea57b5bed2ff1031d08b8b3b7310e285084",
    "cube_a.json": "b23c944eed932db2032a4971bb6df028583aedae3199bae99fdb9465cfe51b5c",
    "cube_b.f32": "180a526472bdafbebd94b5cf8b961abe6502448cb1c2b0de848c4cfa421c3c7f",
    "cube_b.json": "d58d77490ffde6fc660387f1dc67e25e55c0f07dbf656ea5161040f6acdeb112",
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


def test_evaluate_refuses_clobber(synthetic_dir, tmp_path, capsys):
    (tmp_path / "report.json").write_text("{}")
    pred = tmp_path / "p.csv"
    pred.write_text("surveyId,topk,scores\ns00000,0 1,0.9 0.8 0.1\n")
    assert main(["evaluate", "--predictions", str(pred),
                 "--labels", os.path.join(synthetic_dir, "observations.csv"),
                 "--k", "2", "--out", str(tmp_path)]) == 1
    assert "--force" in capsys.readouterr().err


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
    ids = load_observations(os.path.join(synthetic_dir, "observations.csv"), 8).survey_ids()
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
    assert len(cubes) == 150
    assert next(iter(cubes.values())).values.shape == (2, 1, 1)


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


def test_predict_digest_mismatch(synthetic_dir, tmp_path, capsys):
    cfg = os.path.join(synthetic_dir, "config.yaml")
    assert main(["train", "--config", cfg, "--out", str(tmp_path)]) == 0
    run_dir = capsys.readouterr().out.strip().splitlines()[-1]
    other_cfg = tmp_path / "other.yaml"
    other_cfg.write_text(open(cfg).read().replace("hidden_dim: 1024", "hidden_dim: 64"))
    assert main(["predict", "--config", str(other_cfg),
                 "--weights", os.path.join(run_dir, "best.ckpt"),
                 "--out", str(tmp_path / "p.csv")]) == 1
    assert "digest" in capsys.readouterr().err


def error_lines(capsys) -> list[str]:
    return [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]


def test_predict_rejects_checkpoint_of_another_dtype(synthetic_dir, tmp_path, capsys):
    cfg_path = os.path.join(synthetic_dir, "config.yaml")
    cfg = load_config(cfg_path)
    model = build_model(cfg, load_data(cfg).cube_shapes())
    model.cast_params(np.float64)
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
    assert os.path.getsize(labels) > 2 * geodata._OBSERVATION_BLOCK_CHARS
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


def train_args(synthetic_dir, tmp_path, data=(), encoders=()):
    with open(os.path.join(synthetic_dir, "config.yaml")) as fh:
        doc = yaml.safe_load(fh)
    doc["data"].update(data)
    doc["model"]["encoders"].update(encoders)
    cfg_path = tmp_path / "config.yaml"
    cfg_path.write_text(yaml.safe_dump(doc))
    return ["train", "--config", str(cfg_path), "--out", str(tmp_path / "runs")]


@pytest.mark.parametrize("write", [write_conflict_in_later_block, write_split_survey_twice,
                                   write_ragged_predictions, write_encoder_without_modality],
                         ids=["conflict-later-block", "split-survey-twice",
                              "ragged-predictions", "encoder-without-modality"])
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

"""The README's example configuration trains as printed."""

import os
import re

import pytest
import yaml

from sdmkit.cli import main
from sdmkit.synthetic import make_synthetic

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


@pytest.fixture
def readme_config(tmp_path):
    """The README's yaml block with its data paths on a make_synthetic
    directory, one epoch, and runs under tmp_path/runs."""
    text = open(README, encoding="utf-8").read()
    (block,) = re.findall(r"```yaml\n(.*?)```", text, flags=re.S)
    doc = yaml.safe_load(block)
    data_dir = str(tmp_path / "data")
    make_synthetic(data_dir, n_surveys=150, num_species=doc["task"]["num_classes"], seed=7)
    data = doc["data"]
    data["observations"] = os.path.join(data_dir, "observations.csv")
    data["raster_manifest"] = os.path.join(data_dir, "rasters.json")
    data["cube_manifests"] = {m: os.path.join(data_dir, f"{m}.json")
                              for m in data["cube_manifests"]}
    doc["trainer"].update(epochs=1, output_dir=str(tmp_path / "runs"))
    return doc


def train(tmp_path, doc) -> int:
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(doc))
    return main(["train", "--config", str(path)])


def test_readme_config_trains(tmp_path, readme_config, capsys):
    assert train(tmp_path, readme_config) == 0
    run_dir = capsys.readouterr().out.strip().splitlines()[-1]
    assert os.path.exists(os.path.join(run_dir, "best.ckpt"))


def test_encoder_for_missing_modality_rejected_before_run_dir(tmp_path, readme_config, capsys):
    readme_config["model"]["encoders"]["cube_c"] = {"name": "micro_conv3d"}
    assert train(tmp_path, readme_config) == 1
    errors = [line for line in capsys.readouterr().err.splitlines()
              if line.startswith("error:")]
    assert len(errors) == 1
    assert errors[0].startswith("error: model.encoders.cube_c: ")
    assert not os.path.exists(tmp_path / "runs")

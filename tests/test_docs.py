"""The README's example configuration trains as printed, and its package
layout names only what the modules hold."""

import importlib
import inspect
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


def test_layout_rows_name_module_attributes():
    """Each backticked `name` or `name(...)` in a package-layout row is an
    attribute of that row's module, and each `keyword=` inside such a call is
    one of its parameters. Dotted names, config keys and file names are not
    checked."""
    text = open(README, encoding="utf-8").read()
    rows = re.findall(r"^\| `(sdmkit[\w.]*)` \| (.*) \|$", text, flags=re.M)
    assert [name for name, _ in rows][:2] == ["sdmkit.config", "sdmkit.geodata"]
    wrong = []
    for module_name, cell in rows:
        module = importlib.import_module(module_name)
        for span in re.findall(r"`([^`]*)`", cell):
            match = re.fullmatch(r"([A-Za-z_]\w*)(?:\((.*)\))?", span)
            if match is None:
                continue
            name, args = match.groups()
            if not hasattr(module, name):
                wrong.append(f"{module_name}: `{span}` is not an attribute")
                continue
            params = inspect.signature(getattr(module, name)).parameters if args else {}
            wrong += [f"{module_name}: `{span}` has no parameter {kw!r}"
                      for kw in re.findall(r"(\w+)=", args or "") if kw not in params]
    assert wrong == []

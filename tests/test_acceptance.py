"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Tolerances are pinned here and nowhere else.
"""

import csv
import json
import math
import os
import time

import numpy as np
import pytest

from sdmkit import engine
from sdmkit.config import parse_config, render_config
from sdmkit.engine import (
    cosine_lr,
    make_batches,
    weighted_bce_logits,
    weighted_bce_logits_grad,
)
from sdmkit.evalkit import binary_auc, multilabel_auc, top_k, topk_prf
from sdmkit.geodata import (
    PatchSpec,
    RasterLayer,
    extract_patch,
    load_cubes,
    normalize_layers,
    save_cubes,
)
from sdmkit.nn import FusionModel, build_encoder, modify_first_layer, modify_last_layer
from sdmkit.pipeline import build_model, load_data, resolve_split
from sdmkit.split import block_holdout, cell_index, load_split, save_split
from sdmkit.synthetic import default_config_yaml, make_synthetic

from test_evalkit import oracle_pairwise_auc, oracle_prf, random_instance


def report(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def test_criterion_1_metric_oracle_equivalence():
    """100 randomized instances match the brute-force oracles within 1e-12."""
    t0 = time.time()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        n, s, k, scores, labels = random_instance(rng, n_max=200, s_max=50, k_max=10)
        topk = top_k(scores, k)
        topk_sets = [set(row) for row in topk.tolist()]
        label_sets = [set(np.flatnonzero(labels[i]).tolist()) for i in range(n)]
        for avg in ("micro", "samples", "macro"):
            got = np.array(topk_prf(topk, labels, avg))
            want = np.array(oracle_prf(topk_sets, label_sets, k, s, avg))
            worst = max(worst, float(np.max(np.abs(got - want))))
            if avg == "micro":
                want_auc = oracle_pairwise_auc(scores.ravel().tolist(), labels.ravel().tolist())
            elif avg == "macro":
                vals = [oracle_pairwise_auc(scores[:, c].tolist(), labels[:, c].tolist())
                        for c in range(s) if 0 < labels[:, c].sum() < n]
                want_auc = float(np.mean(vals))
            else:
                vals = [oracle_pairwise_auc(scores[i].tolist(), labels[i].tolist())
                        for i in range(n) if 0 < labels[i].sum() < s]
                want_auc = float(np.mean(vals))
            got_auc, _ = multilabel_auc(scores, labels, avg)
            worst = max(worst, abs(got_auc - want_auc))
    elapsed = time.time() - t0
    report(1, worst <= 1e-12 and elapsed < 30,
           f"(max |err| {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_2_hand_values():
    """Worked toy case and the 4-point AUC example hit the exact values."""
    labels = np.array([[0, 1, 1, 0], [1, 0, 0, 0]], dtype=float)
    topk = np.array([[1, 3], [0, 2]])  # top-2 of scores [.1 .9 .2 .8] and [.9 .1 .8 .2]
    p, r, f1 = topk_prf(topk, labels, "micro")
    auc = binary_auc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1])
    ok = (
        abs(p - 0.5) < 1e-15
        and abs(r - 2 / 3) < 1e-15
        and abs(f1 - 4 / 7) < 1e-15
        and auc == 0.75
    )
    report(2, ok, f"(P={p}, R={r}, F1={f1}, AUC={auc})")


def test_criterion_3_micro_samples_precision_identity():
    """With uniform k and non-empty rows, samples P equals micro P exactly."""
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(25):
        n, s, k, scores, labels = random_instance(rng, n_max=100, s_max=30, k_max=8)
        topk = top_k(scores, k)
        micro_p = topk_prf(topk, labels, "micro")[0]
        samples_p = topk_prf(topk, labels, "samples")[0]
        worst = max(worst, abs(micro_p - samples_p))
    report(3, worst <= 1e-15, f"(max |micro P - samples P| = {worst:.2e})")


def test_criterion_4_loss_and_schedule_closed_forms():
    loss0 = weighted_bce_logits(np.zeros((1, 1)), np.ones((1, 1)), 10.0)
    extreme = weighted_bce_logits(np.full((1, 1), 1e4), np.ones((1, 1)), 10.0)
    extreme_neg = weighted_bce_logits(np.full((1, 1), -1e4), np.zeros((1, 1)), 10.0)
    lr0, lr25 = cosine_lr(0, 2.5e-4, 25), cosine_lr(25, 2.5e-4, 25)
    ok = (
        abs(loss0 - 10 * math.log(2)) <= 1e-9
        and math.isfinite(extreme)
        and math.isfinite(extreme_neg)
        and lr0 == 2.5e-4
        and lr25 == 0.0
    )
    report(4, ok, f"(loss(0,1,10)={loss0!r}, lr(0)={lr0}, lr(25)={lr25})")


def test_criterion_5_gradient_check():
    """Analytic MME gradients vs central differences, 1e-4 relative, >=50 params."""
    t0 = time.time()
    rng = np.random.default_rng(0)
    encoders = {
        "patch": build_encoder("builtin", "micro_conv2d", (4, 32, 32), 16, rng),
        "cube_a": build_encoder("builtin", "micro_conv3d", (2, 4, 3), 16, rng),
        "cube_b": build_encoder("builtin", "micro_conv3d", (2, 4, 3), 16, rng),
    }
    model = FusionModel(encoders, num_classes=6, hidden_dim=32, dropout_p=0.0, rng=rng)
    g = np.random.default_rng(1)
    batch = {
        "patch": g.normal(size=(2, 4, 10, 10)),
        "cube_a": g.normal(size=(2, 2, 4, 3)),
        "cube_b": g.normal(size=(2, 2, 4, 3)),
    }
    labels = (g.random((2, 6)) < 0.4).astype(float)

    def loss_value():
        return weighted_bce_logits(model.forward(batch, training=True), labels, 10.0)

    logits = model.forward(batch, training=True)
    model.backward(weighted_bce_logits_grad(logits, labels, 10.0))
    params = list(model.named_params())
    h = 1e-4
    checked = 0
    worst = 0.0
    check_rng = np.random.default_rng(7)
    while checked < 60:
        name, p, grad = params[int(check_rng.integers(0, len(params)))]
        idx = tuple(int(check_rng.integers(0, d)) for d in p.shape)
        analytic = grad[idx]
        if abs(analytic) < 1e-7:
            continue
        orig = p[idx]
        p[idx] = orig + h
        fplus = loss_value()
        p[idx] = orig - h
        fminus = loss_value()
        p[idx] = orig
        fd = (fplus - fminus) / (2 * h)
        rel = abs(analytic - fd) / max(abs(analytic), abs(fd))
        worst = max(worst, rel)
        checked += 1
    elapsed = time.time() - t0
    report(5, worst <= 1e-4 and checked >= 50 and elapsed < 60,
           f"({checked} params, worst rel err {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_6_spatial_split_properties():
    t0 = time.time()
    rng = np.random.default_rng(5)
    from conftest import make_table

    points = [(float(rng.uniform(-12, 12)), float(rng.uniform(30, 50)), {0})
              for _ in range(1000)]
    table = make_table(points)
    split_a = block_holdout(table, seed=21)
    split_b = block_holdout(table, seed=21)
    deterministic = split_a.assignment == split_b.assignment
    by_cell = {}
    for sid, part in split_a.assignment.items():
        by_cell.setdefault(split_a.cell_of[sid], set()).add(part)
    pure = all(len(parts) == 1 for parts in by_cell.values())
    counts = {}
    for cell in split_a.cell_of.values():
        counts[cell] = counts.get(cell, 0) + 1
    max_share = max(counts.values()) / len(table)
    frac_ok = 0.15 <= split_a.val_fraction <= 0.15 + max_share
    cell_sz = 1 / 6
    hand_ok = cell_index(3.05, 43.61) == (1098, 801)
    for _ in range(19):
        lon = float(rng.uniform(-180, 180))
        lat = float(rng.uniform(-90, 90))
        cx, cy = cell_index(lon, lat)
        hand_ok &= cx == math.floor((lon + 180) / cell_sz)
        hand_ok &= cy == math.floor((lat + 90) / cell_sz)
    elapsed = time.time() - t0
    report(6, pure and deterministic and frac_ok and hand_ok and elapsed < 5,
           f"(val fraction {split_a.val_fraction:.3f}, max cell share {max_share:.3f}, {elapsed:.1f}s)")


def test_criterion_7_patch_extraction_oracle(toy_raster):
    t0 = time.time()
    rng = np.random.default_rng(17)
    ok = True
    checked = 0
    while checked < 500:
        h, w = (int(x) for x in rng.integers(4, 24, size=2))
        layer = RasterLayer(
            name="r", width=w, height=h,
            origin_x=float(rng.uniform(-50, 50)), origin_y=float(rng.uniform(-20, 60)),
            pixel_size_x=float(rng.uniform(0.05, 2)), pixel_size_y=-float(rng.uniform(0.05, 2)),
            crs="EPSG:4326", nodata=-9999.0,
            values=rng.normal(size=(h, w)).astype(np.float32),
        )
        spec = PatchSpec(side=1, layer_names=("r",))
        prepared = normalize_layers([layer], spec)
        for _ in range(10):
            row, col = int(rng.integers(0, h)), int(rng.integers(0, w))
            lon = layer.origin_x + (col + float(rng.uniform(0, 1))) * layer.pixel_size_x
            lat = layer.origin_y + (row + float(rng.uniform(0, 1))) * layer.pixel_size_y
            if not (-180 <= lon <= 180 and -90 <= lat <= 90):
                continue
            got = extract_patch(prepared, spec, lon, lat)[0, 0, 0]
            ok &= got == float(layer.values[row, col])
            checked += 1
    spec1 = PatchSpec(side=1, layer_names=("toy",))
    spec3 = PatchSpec(side=3, layer_names=("toy",))
    ok &= extract_patch(normalize_layers([toy_raster], spec1), spec1, 2.5, 1.5)[0, 0, 0] == 10.0
    ok &= np.array_equal(
        extract_patch(normalize_layers([toy_raster], spec3), spec3, 2.5, 1.5)[0],
        np.array([[5, 6, 7], [9, 10, 11], [13, 14, 15]], dtype=float),
    )
    elapsed = time.time() - t0
    report(7, ok and elapsed < 5, f"({checked} oracle points, {elapsed:.1f}s)")


def test_criterion_8_model_surgery_shape_suite():
    rng = np.random.default_rng(0)
    ok = True
    # identity case: unchanged channel count is an exact functional no-op
    enc_id = build_encoder("builtin", "micro_conv2d", (3, 32, 32), 32, np.random.default_rng(1))
    x = np.random.default_rng(2).normal(size=(2, 3, 16, 16))
    before = enc_id.forward(x)
    modify_first_layer(enc_id, 3)
    ok &= np.array_equal(enc_id.forward(x), before)
    # 3 -> 6 channels then head to 20 classes
    enc = build_encoder("builtin", "micro_conv2d", (3, 32, 32), 64, rng)
    modify_first_layer(enc, 6)
    modify_last_layer(enc, 20, rng)
    for n in (1, 2, 7):
        ok &= enc.forward(np.zeros((n, 6, 32, 32))).shape == (n, 20)
    # MME with dims 64, 64, 128 -> 20 classes at the same batch sizes
    encoders = {
        "a": build_encoder("builtin", "micro_mlp", (10,), 64, rng),
        "b": build_encoder("builtin", "micro_mlp", (10,), 64, rng),
        "c": build_encoder("builtin", "micro_mlp", (10,), 128, rng),
    }
    mme = FusionModel(encoders, num_classes=20, hidden_dim=256, dropout_p=0.0, rng=rng)
    for n in (1, 2, 7):
        batch = {k: np.zeros((n, 10)) for k in "abc"}
        ok &= mme.forward(batch).shape == (n, 20)
    report(8, ok, "(batch sizes 1, 2, 7; identity surgery exact)")


@pytest.fixture(scope="module")
def smoke_run(tmp_path_factory):
    """Shared end-to-end run on the 500-survey synthetic set (criterion 9/10)."""
    data_dir = str(tmp_path_factory.mktemp("accept") / "syn")
    make_synthetic(data_dir, n_surveys=500, num_species=20, seed=7)
    cfg = parse_config(default_config_yaml(data_dir, n_species=20, epochs=10, top_k=5))
    data = load_data(cfg)
    split = resolve_split(cfg, data.table)
    train = data.source_for(split.partition("train"))
    val = data.source_for(split.partition("val"))
    t0 = time.time()
    model = build_model(cfg, data.cube_shapes())
    run_dir = engine.fit(cfg, model, train, val, out_root=os.path.join(data_dir, "runs"))
    elapsed = time.time() - t0
    return cfg, data, split, train, val, model, run_dir, elapsed


def read_metrics(run_dir):
    with open(os.path.join(run_dir, "metrics.csv"), newline="") as fh:
        return list(csv.DictReader(fh))


def test_criterion_9_end_to_end_smoke_training(smoke_run, tmp_path):
    cfg, data, split, train, val, model, run_dir, elapsed = smoke_run
    rows = read_metrics(run_dir)
    final_auc = float(rows[-1]["micro_auc"])
    best_epoch = min(range(len(rows)), key=lambda i: float(rows[i]["val_loss"]))
    with np.load(os.path.join(run_dir, "best.ckpt"), allow_pickle=False) as ck:
        meta = json.loads(str(ck["meta"]))
    best_ok = meta["state"]["epoch"] == best_epoch
    # deterministic rerun
    model2 = build_model(cfg, data.cube_shapes())
    run_dir2 = engine.fit(cfg, model2, train, val, out_root=str(tmp_path))
    rows2 = read_metrics(run_dir2)
    loss_match = np.allclose(
        [float(r["train_loss"]) for r in rows],
        [float(r["train_loss"]) for r in rows2],
        atol=1e-6,
    ) and np.allclose(
        [float(r["val_loss"]) for r in rows],
        [float(r["val_loss"]) for r in rows2],
        atol=1e-6,
    )
    ok = final_auc > 0.85 and best_ok and loss_match and elapsed < 300
    report(9, ok, f"(final val micro AUC {final_auc:.4f}, train {elapsed:.1f}s, "
                  f"best epoch {best_epoch}, rerun match {loss_match})")


def test_criterion_10_round_trips(smoke_run, tmp_path):
    cfg, data, split, train, val, model, run_dir, _ = smoke_run
    # config parse/render
    cfg_ok = parse_config(render_config(cfg)) == cfg
    # cube build/load bit-exact
    rng = np.random.default_rng(0)
    survey_ids = [f"s{i}" for i in range(5)]
    values = rng.normal(size=(5, 2, 4, 3)).astype(np.float32)
    cube_path = str(tmp_path / "cubes.json")
    save_cubes(survey_ids, values, ["b0", "b1"], cube_path)
    loaded = load_cubes(cube_path)
    cube_ok = loaded.survey_ids == survey_ids and loaded.values.tobytes() == values.tobytes()
    # split save/load
    split_path = str(tmp_path / "split.csv")
    save_split(split, split_path)
    split_ok = load_split(split_path).assignment == split.assignment
    # checkpoint save -> predict equals in-training forward to 1e-6
    fresh = build_model(cfg, data.cube_shapes())
    preds = engine.predict(cfg, fresh, os.path.join(run_dir, "last.ckpt"), val)
    sigmoid = np.vectorize(lambda z: 1.0 / (1.0 + math.exp(-z)))
    batches = make_batches(len(val), cfg.data.batch_size, shuffle=False, seed=cfg.run.seed)
    direct = np.concatenate([
        sigmoid(model.forward(engine.collate(val, b), training=False)) for b in batches
    ])
    pred_ok = np.allclose(preds.scores, direct, atol=1e-6)
    ok = cfg_ok and cube_ok and split_ok and pred_ok
    report(10, ok, f"(config {cfg_ok}, cubes {cube_ok}, split {split_ok}, predict {pred_ok})")

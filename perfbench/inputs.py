"""Seeded inputs for each workload and the references their outputs are checked against.

The references are computed here, independently of the code paths they
check: patches are cut by direct indexing, the model forward uses a
direct (shift-and-add) convolution, and the evaluate metrics come from
per-score-bin counts instead of ranks.
"""

from __future__ import annotations

import csv
import json
import os

import numpy as np

TRAIN_SURVEYS = 2000
PREDICT_SURVEYS = 5000
SPECIES = 20
TRAIN_EPOCHS = 3

EVAL_ROWS = 5000
EVAL_CLASSES = 200
EVAL_K = 25
EVAL_EMPTY_ROWS = 0.005  # share of surveys with no species: the samples-AUC skip path
SCORE_LEVELS = 101  # scores are multiples of 0.01, so ties are common

# Predict check: scores must match the float64 reference to this absolute
# tolerance. It admits float32 compute and any summation order, nothing else.
PREDICT_SCORE_TOL = 1e-5
PREDICT_REF_STRIDE = 8  # reference rows: every 8th survey and the last one
EVAL_TOL = 1e-9


def _synthetic(work: str, seed: int, n: int) -> str:
    from sdmkit.synthetic import default_config_yaml, make_synthetic

    data_dir = os.path.join(work, "data")
    make_synthetic(data_dir, n_surveys=n, num_species=SPECIES, seed=seed)
    config_path = os.path.join(work, "config.yaml")
    with open(config_path, "w", encoding="utf-8") as fh:
        fh.write(default_config_yaml(data_dir, n_species=SPECIES, epochs=TRAIN_EPOCHS))
    return config_path


def make_train(work: str, seed: int) -> dict:
    return {"config": _synthetic(work, seed, TRAIN_SURVEYS)}


def make_predict(work: str, seed: int) -> dict:
    """Synthetic surveys, a checkpoint of the seeded initial model, and the
    reference scores for a subset of the surveys."""
    from sdmkit import engine
    from sdmkit.config import load_config
    from sdmkit.pipeline import build_model, load_data

    config_path = _synthetic(work, seed, PREDICT_SURVEYS)
    cfg = load_config(config_path)
    data = load_data(cfg)
    model = build_model(cfg, data.cube_shapes())
    weights = os.path.join(work, "model.ckpt")
    engine.save_checkpoint(weights, model, None, engine.TrainState(), cfg)
    params = {name: param.copy() for name, param, _ in model.named_params()}

    records = data.table.records
    rows = sorted(set(range(0, len(records), PREDICT_REF_STRIDE)) | {len(records) - 1})
    scores = np.concatenate([
        _reference_scores(params, data, [records[i] for i in rows[j : j + 500]])
        for j in range(0, len(rows), 500)
    ])
    ref_path = os.path.join(work, "reference.npz")
    np.savez(ref_path, survey_ids=np.array([records[i].survey_id for i in rows]),
             scores=scores)
    return {"config": config_path, "weights": weights, "reference": ref_path,
            "surveys": len(records), "top_k": cfg.task.top_k}


def _reference_patches(data, recs) -> np.ndarray:
    spec = data.patch_spec
    half = spec.side // 2
    offsets = np.arange(spec.side)
    out = np.empty((len(recs), len(data.layers), spec.side, spec.side))
    lons = np.array([r.lon for r in recs])
    lats = np.array([r.lat for r in recs])
    for ci, layer in enumerate(data.layers):
        if layer.crs != "EPSG:4326":
            raise ValueError(f"reference patches need EPSG:4326 rasters, got {layer.crs}")
        values = layer.values.astype(np.float64)
        cols = np.floor((lons - layer.origin_x) / layer.pixel_size_x).astype(int) - half
        rows = np.floor((lats - layer.origin_y) / layer.pixel_size_y).astype(int) - half
        if (rows.min() < 0 or cols.min() < 0 or rows.max() + spec.side > layer.height
                or cols.max() + spec.side > layer.width):
            raise ValueError("reference patches assume every patch lies inside the raster")
        block = values[(rows[:, None] + offsets)[:, :, None], (cols[:, None] + offsets)[:, None, :]]
        out[:, ci] = (block - values.mean()) / values.std()
    return out


def _conv(x, w, b, stride):
    n, c, h, wd = x.shape
    f, _, kh, kw = w.shape
    oh, ow = (h - kh) // stride + 1, (wd - kw) // stride + 1
    out = np.broadcast_to(b[None, :, None, None], (n, f, oh, ow)).copy()
    for i in range(kh):
        for j in range(kw):
            window = x[:, :, i : i + stride * (oh - 1) + 1 : stride,
                       j : j + stride * (ow - 1) + 1 : stride]
            out += np.einsum("fc,nchw->nfhw", w[:, :, i, j], window)
    return out


def _reference_scores(p, data, recs) -> np.ndarray:
    """Sigmoid scores of the default micro MME (patch conv2d encoder, two cube
    encoders, dropout-free two-layer head) in float64."""
    relu = lambda a: np.maximum(a, 0.0)  # noqa: E731
    linear = lambda a, name: a @ p[f"{name}.w"].T + p[f"{name}.b"]  # noqa: E731
    x = _reference_patches(data, recs)
    x = relu(_conv(x, p["enc.patch.0.w"], p["enc.patch.0.b"], 2))
    x = relu(_conv(x, p["enc.patch.2.w"], p["enc.patch.2.b"], 2))
    embeddings = [linear(x.mean(axis=(2, 3)), "enc.patch.5")]
    for cube in ("cube_a", "cube_b"):
        c = np.stack([data.cube_maps[cube][r.survey_id].values for r in recs]).astype(np.float64)
        c = relu(_conv(c, p[f"enc.{cube}.0.w"], p[f"enc.{cube}.0.b"], 1))
        embeddings.append(linear(c.mean(axis=(2, 3)), f"enc.{cube}.3"))
    hidden = relu(linear(np.concatenate(embeddings, axis=1), "head.1"))
    return 1.0 / (1.0 + np.exp(-linear(hidden, "head.3")))


def make_evaluate(work: str, seed: int) -> dict:
    """A predictions.csv with 2-decimal scores, its observation labels, and
    the reference report."""
    rng = np.random.default_rng(seed)
    n, s, k = EVAL_ROWS, EVAL_CLASSES, EVAL_K
    prevalence = rng.uniform(0.02, 0.20, size=s)
    labels = rng.random((n, s)) < prevalence
    labels[rng.random(n) < EVAL_EMPTY_ROWS] = False
    noise = rng.normal(0.0, 0.15, size=(n, s))
    levels = np.rint(np.clip(0.35 + 0.25 * labels + noise, 0.0, 1.0) * 100).astype(np.int64)
    topk = np.argsort(-levels, axis=1, kind="stable")[:, :k]
    ids = [f"e{i:05d}" for i in range(n)]

    text = [repr(v / 100) for v in range(SCORE_LEVELS)]
    predictions = os.path.join(work, "predictions.csv")
    with open(predictions, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["surveyId", "topk", "scores"])
        for i in range(n):
            writer.writerow([ids[i], " ".join(map(str, topk[i])),
                             " ".join(text[v] for v in levels[i])])
    lons = rng.uniform(-10.0, 10.0, size=n)
    lats = rng.uniform(40.0, 50.0, size=n)
    observations = os.path.join(work, "observations.csv")
    with open(observations, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["surveyId", "lon", "lat", "speciesId"])
        for i in range(n):
            species = np.flatnonzero(labels[i]) if labels[i].any() else [""]
            for sp in species:
                writer.writerow([ids[i], repr(float(lons[i])), repr(float(lats[i])), sp])

    reference = os.path.join(work, "reference.json")
    with open(reference, "w", encoding="utf-8") as fh:
        json.dump(reference_report(levels, labels, topk), fh, indent=2)
    return {"predictions": predictions, "labels": observations, "reference": reference,
            "rows": n, "k": k}


def _bin_auc(levels, labels, axis):
    """Mann-Whitney AUC per row (axis=1), per column (axis=0) or over all
    entries (axis=None) from per-score-level counts; ties count one half."""
    if axis is None:
        levels, labels = levels.reshape(1, -1), labels.reshape(1, -1)
    elif axis == 0:
        levels, labels = levels.T, labels.T
    groups = levels.shape[0]
    keys = np.arange(groups)[:, None] * SCORE_LEVELS + levels
    pos = np.bincount(keys[labels], minlength=groups * SCORE_LEVELS).reshape(groups, -1)
    neg = np.bincount(keys[~labels], minlength=groups * SCORE_LEVELS).reshape(groups, -1)
    neg_below = np.cumsum(neg, axis=1) - neg
    twice_wins = (pos * (2 * neg_below + neg)).sum(axis=1)
    n_pos, n_neg = pos.sum(axis=1), neg.sum(axis=1)
    valid = (n_pos > 0) & (n_neg > 0)
    auc = twice_wins[valid] / (2.0 * n_pos[valid] * n_neg[valid])
    return float(auc.mean()), int(groups - valid.sum())


def reference_report(levels, labels, topk) -> dict:
    n, s = labels.shape
    k = topk.shape[1]
    in_topk = np.zeros((n, s), dtype=bool)
    in_topk[np.arange(n)[:, None], topk] = True
    hits = in_topk & labels
    tp, label_counts = hits.sum(axis=1), labels.sum(axis=1)

    def f1(p, r):
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.where(p + r > 0, 2 * p * r / (p + r), 0.0)

    p_micro, r_micro = tp.sum() / (n * k), tp.sum() / label_counts.sum()
    valid = label_counts > 0
    p_i, r_i = tp[valid] / k, tp[valid] / label_counts[valid]
    tp_c, pred_c, pos_c = hits.sum(axis=0), in_topk.sum(axis=0), labels.sum(axis=0)
    with np.errstate(invalid="ignore", divide="ignore"):
        p_c = np.where(pred_c > 0, tp_c / pred_c, 0.0)
        r_c = np.where(pos_c > 0, tp_c / pos_c, 0.0)
    micro_auc, _ = _bin_auc(levels, labels, None)
    samples_auc, skipped_samples = _bin_auc(levels, labels, 1)
    macro_auc, skipped_classes = _bin_auc(levels, labels, 0)
    return {
        "micro_auc": micro_auc,
        "micro_precision": float(p_micro),
        "micro_recall": float(r_micro),
        "micro_f1": float(f1(p_micro, r_micro)),
        "samples_auc": samples_auc,
        "samples_precision": float(p_i.mean()),
        "samples_recall": float(r_i.mean()),
        "samples_f1": float(f1(p_i, r_i).mean()),
        "macro_auc": macro_auc,
        "macro_precision": float(p_c.mean()),
        "macro_recall": float(r_c.mean()),
        "macro_f1": float(f1(p_c, r_c).mean()),
        "skipped_samples": skipped_samples,
        "skipped_classes": skipped_classes,
    }


MAKERS = {"train": make_train, "predict": make_predict, "evaluate": make_evaluate}

import csv
import json
import math
import os
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdmkit import engine
from sdmkit.config import config_digest, parse_config
from sdmkit.engine import (
    AdamW,
    ScheduleSpec,
    TrainState,
    cosine_lr,
    load_checkpoint,
    make_batches,
    save_checkpoint,
    weighted_bce_logits,
    weighted_bce_logits_grad,
)
from sdmkit.errors import CheckpointMismatchError, FormatError, SdmkitError, ShapeError
from sdmkit.evalkit import Predictions, top_k
from sdmkit.geodata import parse_field, read_csv
from sdmkit.pipeline import build_model, load_data, resolve_split
from sdmkit.synthetic import default_config_yaml, make_synthetic


class TestWeightedBce:
    def test_positive_at_zero_logit(self):
        assert weighted_bce_logits(np.zeros((1, 1)), np.ones((1, 1)), 10.0) == pytest.approx(
            10 * math.log(2), abs=1e-12
        )

    def test_negative_at_zero_logit(self):
        assert weighted_bce_logits(np.zeros((1, 1)), np.zeros((1, 1)), 10.0) == pytest.approx(
            math.log(2), abs=1e-12
        )

    def test_saturated_correct_is_tiny(self):
        loss = weighted_bce_logits(np.full((1, 1), 100.0), np.ones((1, 1)), 10.0)
        assert 0 <= loss < 1e-40

    def test_stable_at_extreme_logits(self):
        for z in (1e4, -1e4):
            for y in (0.0, 1.0):
                loss = weighted_bce_logits(np.full((1, 1), z), np.full((1, 1), y), 10.0)
                assert math.isfinite(loss)
                assert loss >= 0

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            weighted_bce_logits(np.zeros((2, 3)), np.zeros((3, 2)), 1.0)

    def test_non_binary_label(self):
        with pytest.raises(SdmkitError):
            weighted_bce_logits(np.zeros((1, 1)), np.full((1, 1), 0.5), 1.0)

    def test_grad_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        z = rng.normal(size=(3, 4))
        y = (rng.random((3, 4)) < 0.5).astype(float)
        grad = weighted_bce_logits_grad(z, y, 10.0)
        h = 1e-6
        for idx in [(0, 0), (1, 2), (2, 3)]:
            zp, zm = z.copy(), z.copy()
            zp[idx] += h
            zm[idx] -= h
            fd = (weighted_bce_logits(zp, y, 10.0) - weighted_bce_logits(zm, y, 10.0)) / (2 * h)
            assert grad[idx] == pytest.approx(fd, rel=1e-6, abs=1e-10)


class TestLinkFunctions:
    Z = np.array([[1e4, -1e4, 0.0], [-1e4, 1e4, 2.0]])

    def test_expit_saturates_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = engine.expit(self.Z)
        np.testing.assert_array_equal(got[:, :2], [[1.0, 0.0], [0.0, 1.0]])
        assert got[0, 2] == 0.5
        assert got[1, 2] == pytest.approx(1.0 / (1.0 + math.exp(-2.0)), abs=1e-15)

    def test_bce_grad_finite_at_extreme_logits(self):
        y = np.array([[1.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            grad = weighted_bce_logits_grad(self.Z, y, 10.0)
        assert np.all(np.isfinite(grad))
        # correct saturated logits give zero gradient, wrong ones the full weight
        assert grad[0, 0] == 0.0 and grad[0, 1] == 0.0
        assert grad[1, 0] == pytest.approx(-10.0 / self.Z.size)
        assert grad[1, 1] == pytest.approx(1.0 / self.Z.size)


class TestCosineLr:
    SPEC = ScheduleSpec(eta_max=2.5e-4, t_max=25)

    def test_start(self):
        assert cosine_lr(0, self.SPEC) == 2.5e-4

    def test_end_exactly_zero(self):
        assert cosine_lr(25, self.SPEC) == 0.0

    def test_midpoint(self):
        spec = ScheduleSpec(eta_max=1.0, t_max=24)
        assert cosine_lr(12, spec) == pytest.approx(0.5, abs=1e-15)

    def test_out_of_range_clamped(self, caplog):
        import logging

        with caplog.at_level(logging.WARNING):
            assert cosine_lr(30, self.SPEC) == 0.0
        assert "clamp" in caplog.text


class TestAdamW:
    def test_zero_grad_fixed_point(self):
        p = np.ones(3)
        opt = AdamW(weight_decay=0.0)
        opt.step([("p", p, np.zeros(3))], lr=0.1)
        np.testing.assert_array_equal(p, np.ones(3))

    def test_descent_on_quadratic(self):
        w = np.array([1.0])
        opt = AdamW()
        opt.step([("w", w, 2 * w.copy())], lr=0.1)
        assert abs(w[0]) < 1.0

    def test_decoupled_decay_closed_form(self):
        w = np.full(4, 2.0)
        opt = AdamW(weight_decay=0.01)
        opt.step([("w", w, np.zeros(4))], lr=0.5)
        np.testing.assert_allclose(w, 2.0 * (1 - 0.5 * 0.01), atol=1e-15)

    def test_decay_applies_to_previous_weights(self):
        # theta_1 = theta_0 (1 - lr wd) - lr g / (|g| + eps): the first step's
        # bias-corrected moments are g and g^2
        theta = np.array([2.0, -1.0, 0.5])
        g = np.array([0.3, -4.0, 1e-3])
        lr, wd, eps = 0.1, 0.5, 1e-8
        w = theta.copy()
        AdamW(weight_decay=wd, eps=eps).step([("w", w, g)], lr=lr)
        np.testing.assert_allclose(w, theta * (1 - lr * wd) - lr * g / (np.abs(g) + eps),
                                   rtol=1e-12)

    def test_nonfinite_grad_skips_step(self, caplog):
        import logging

        w = np.ones(2)
        opt = AdamW()
        with caplog.at_level(logging.WARNING):
            ok = opt.step([("w", w, np.array([np.nan, 0.0]))], lr=0.1)
        assert not ok
        np.testing.assert_array_equal(w, np.ones(2))
        assert "skipped" in caplog.text


class TestMakeBatches:
    def test_partition_arithmetic(self):
        batches = make_batches(10, 4, shuffle=False, seed=0)
        assert [len(b) for b in batches] == [4, 4, 2]

    def test_same_seed_and_epoch_same_batches(self):
        for epoch in range(3):
            a = make_batches(50, 8, shuffle=True, seed=3, epoch=epoch)
            b = make_batches(50, 8, shuffle=True, seed=3, epoch=epoch)
            for x, y in zip(a, b):
                np.testing.assert_array_equal(x, y)

    def test_no_shuffle_identity(self):
        batches = make_batches(6, 10, shuffle=False, seed=0)
        np.testing.assert_array_equal(np.concatenate(batches), np.arange(6))

    def test_epoch_changes_order(self):
        a = np.concatenate(make_batches(100, 10, shuffle=True, seed=1, epoch=0))
        b = np.concatenate(make_batches(100, 10, shuffle=True, seed=1, epoch=1))
        assert not np.array_equal(a, b)
        assert sorted(a) == sorted(b)


@pytest.fixture(scope="module")
def tiny_experiment(tmp_path_factory):
    data_dir = str(tmp_path_factory.mktemp("tinydata"))
    make_synthetic(data_dir, n_surveys=120, num_species=8, seed=3)
    yaml_text = default_config_yaml(data_dir, n_species=8, epochs=3, top_k=3)
    cfg = parse_config(yaml_text)
    data = load_data(cfg)
    split = resolve_split(cfg, data.table)
    train = data.source_for(split.partition("train"))
    val = data.source_for(split.partition("val"))
    return cfg, data, train, val


def test_collate_matches_per_sample_stack(tiny_experiment):
    """A batch equals the stacked batches of one of its samples."""
    cfg, data, train, val = tiny_experiment
    indices = np.array([len(val) - 1, 0, 7, 3, 3, 11])
    for source in (val, data.source_for(labels_mode="predict")):
        batch = engine.collate(source, indices)
        items = [engine.collate(source, [i]) for i in indices]
        assert batch["survey_ids"] == [s["survey_ids"][0] for s in items]
        assert set(data.cube_maps) == {"cube_a", "cube_b"}
        for name in ["patch", "location", *data.cube_maps]:
            assert np.array_equal(batch[name], np.concatenate([s[name] for s in items]))
        if source.labels_mode == "train":
            assert np.array_equal(batch["labels"], np.concatenate([s["labels"] for s in items]))
            for row, i in zip(batch["labels"], indices):
                assert np.flatnonzero(row).tolist() == sorted(source.table.records[i].species_ids)
        else:
            assert "labels" not in batch


def read_metrics(run_dir):
    with open(os.path.join(run_dir, "metrics.csv"), newline="") as fh:
        return list(csv.DictReader(fh))


def read_checkpoint_meta(path):
    with np.load(path, allow_pickle=False) as ck:
        return json.loads(str(ck["meta"]))


class TestFit:
    def test_artifacts_and_row_count(self, tiny_experiment, tmp_path):
        cfg, data, train, val = tiny_experiment
        model = build_model(cfg, data.cube_shapes())
        run_dir = engine.fit(cfg, model, train, val, out_root=str(tmp_path))
        rows = read_metrics(run_dir)
        assert len(rows) == 3
        assert os.path.exists(os.path.join(run_dir, "best.ckpt"))
        assert os.path.exists(os.path.join(run_dir, "last.ckpt"))
        assert os.path.exists(os.path.join(run_dir, "config.yaml"))

    def test_lr_column_follows_schedule(self, tiny_experiment, tmp_path):
        cfg, data, train, val = tiny_experiment
        model = build_model(cfg, data.cube_shapes())
        run_dir = engine.fit(cfg, model, train, val, out_root=str(tmp_path))
        sched = ScheduleSpec(eta_max=cfg.optimizer.lr, t_max=cfg.optimizer.t_max)
        for t, row in enumerate(read_metrics(run_dir)):
            assert float(row["lr"]) == cosine_lr(t, sched)

    def test_best_ckpt_tracks_min_val_loss(self, tiny_experiment, tmp_path):
        cfg, data, train, val = tiny_experiment
        model = build_model(cfg, data.cube_shapes())
        run_dir = engine.fit(cfg, model, train, val, out_root=str(tmp_path))
        rows = read_metrics(run_dir)
        best_epoch = min(range(len(rows)), key=lambda i: float(rows[i]["val_loss"]))
        meta = read_checkpoint_meta(os.path.join(run_dir, "best.ckpt"))
        assert meta["state"]["epoch"] == best_epoch
        assert meta["state"]["best_val_loss"] == pytest.approx(
            min(float(r["val_loss"]) for r in rows)
        )

    def test_last_ckpt_records_best_val_loss(self, tiny_experiment, tmp_path):
        """At an epoch whose val loss improves, last.ckpt records that loss as
        the best, as best.ckpt does."""
        cfg, data, train, val = tiny_experiment
        run_dir = engine.fit(cfg, build_model(cfg, data.cube_shapes()), train, val,
                             out_root=str(tmp_path))
        losses = [float(r["val_loss"]) for r in read_metrics(run_dir)]
        assert losses[-1] == min(losses)  # the last epoch improves
        for name in ("last.ckpt", "best.ckpt"):
            state = read_checkpoint_meta(os.path.join(run_dir, name))["state"]
            assert state == {"epoch": len(losses) - 1, "best_val_loss": losses[-1]}, name

    def test_checkpoints_hold_only_params_and_meta(self, tiny_experiment, tmp_path):
        cfg, data, train, val = tiny_experiment
        model = build_model(cfg, data.cube_shapes())
        run_dir = engine.fit(cfg, model, train, val, out_root=str(tmp_path))
        expected = ["meta", *(f"param/{name}" for name, _, _ in model.named_params())]
        for name in ("last.ckpt", "best.ckpt"):
            with np.load(os.path.join(run_dir, name), allow_pickle=False) as ck:
                assert sorted(ck.files) == sorted(expected), name
                meta = json.loads(str(ck["meta"]))
            assert sorted(meta) == ["arch_digest", "config_digest", "state"]
            assert sorted(meta["state"]) == ["best_val_loss", "epoch"]

    def test_rerun_reproduces_loss_column(self, tiny_experiment, tmp_path):
        cfg, data, train, val = tiny_experiment
        losses = []
        for run in range(2):
            model = build_model(cfg, data.cube_shapes())
            run_dir = engine.fit(cfg, model, train, val, out_root=str(tmp_path / str(run)))
            losses.append([float(r["train_loss"]) for r in read_metrics(run_dir)])
        np.testing.assert_allclose(losses[0], losses[1], atol=1e-6)

    def test_rerun_writes_identical_metrics_and_checkpoints(self, tiny_experiment, tmp_path):
        """Two fits from fresh models at one seed write the same metrics.csv bytes
        and the same checkpoint arrays (the benchmark rejects a run otherwise)."""
        cfg, data, train, val = tiny_experiment
        runs = [engine.fit(cfg, build_model(cfg, data.cube_shapes()), train, val,
                           out_root=str(tmp_path / str(run))) for run in range(2)]
        metrics = []
        for run in runs:
            with open(os.path.join(run, "metrics.csv"), "rb") as fh:
                metrics.append(fh.read())
        assert metrics[0] == metrics[1]
        for name in ("last.ckpt", "best.ckpt"):
            with np.load(os.path.join(runs[0], name)) as a, \
                    np.load(os.path.join(runs[1], name)) as b:
                keys = sorted(set(a.files) - {"meta"})
                assert keys and keys == sorted(set(b.files) - {"meta"})
                for key in keys:
                    np.testing.assert_array_equal(a[key], b[key], err_msg=f"{name} {key}")


class TestCheckpointAndPredict:
    def test_round_trip_weights(self, tiny_experiment, tmp_path):
        cfg, data, train, val = tiny_experiment
        model = build_model(cfg, data.cube_shapes())
        path = str(tmp_path / "w.ckpt")
        save_checkpoint(path, model, None, TrainState(epoch=2, best_val_loss=0.5), cfg)
        clone = build_model(cfg, data.cube_shapes())
        loaded = load_checkpoint(path, clone, cfg)
        assert loaded == TrainState(epoch=2, best_val_loss=0.5)
        for (na, pa, _), (nb, pb, _) in zip(model.named_params(), clone.named_params()):
            assert na == nb
            np.testing.assert_array_equal(pa, pb)

    def test_arch_mismatch_detected(self, tiny_experiment, tmp_path):
        cfg, data, train, val = tiny_experiment
        model = build_model(cfg, data.cube_shapes())
        path = str(tmp_path / "w.ckpt")
        save_checkpoint(path, model, None, TrainState(), cfg)
        import dataclasses

        other = dataclasses.replace(
            cfg, task=dataclasses.replace(cfg.task, num_classes=9, top_k=3)
        )
        clone = build_model(other, data.cube_shapes())
        with pytest.raises(CheckpointMismatchError):
            load_checkpoint(path, clone, other)

    def test_checkpoint_with_optimizer_state_loads(self, tiny_experiment, tmp_path):
        """A checkpoint in the earlier layout (AdamW moments, step count and five
        state fields) loads, and predicts the same scores as the current one."""
        cfg, data, train, val = tiny_experiment
        model = build_model(cfg, data.cube_shapes())
        new = str(tmp_path / "new.ckpt")
        save_checkpoint(new, model, None, TrainState(epoch=4, best_val_loss=0.75), cfg)
        arrays = {}
        for prefix, fill in (("param", None), ("opt_m", 0.5), ("opt_v", 2.0)):
            for name, param, _ in model.named_params():
                arrays[f"{prefix}/{name}"] = param if fill is None else np.full_like(param, fill)
        state = {"epoch": 4, "best_val_loss": 0.75, "global_step": 40, "rng_seed": cfg.run.seed,
                 "lr_current": 1e-4}
        arrays["meta"] = np.array(json.dumps({
            "state": state, "arch_digest": engine.arch_digest(cfg),
            "config_digest": config_digest(cfg), "opt_t": 40}))
        old = str(tmp_path / "old.ckpt")
        with open(old, "wb") as fh:  # a path would gain a .npz suffix
            np.savez(fh, **arrays)
        assert load_checkpoint(old, build_model(cfg, data.cube_shapes()), cfg) == TrainState(
            epoch=4, best_val_loss=0.75)
        scores = [engine.predict(cfg, build_model(cfg, data.cube_shapes()), path, val).scores
                  for path in (old, new)]
        np.testing.assert_array_equal(scores[0], scores[1])

    def test_predict_matches_in_training_forward(self, tiny_experiment, tmp_path):
        cfg, data, train, val = tiny_experiment
        model = build_model(cfg, data.cube_shapes())
        run_dir = engine.fit(cfg, model, train, val, out_root=str(tmp_path))
        fresh = build_model(cfg, data.cube_shapes())
        preds = engine.predict(
            cfg, fresh, os.path.join(run_dir, "last.ckpt"), val,
            out_path=str(tmp_path / "predictions.csv"),
        )
        # reloading last.ckpt must reproduce the trained model's forward
        sigmoid = np.vectorize(lambda z: 1.0 / (1.0 + math.exp(-z)))
        batches = make_batches(len(val), cfg.data.batch_size, shuffle=False, seed=cfg.run.seed)
        direct = []
        for bidx in batches:
            batch = engine.collate(val, bidx)
            direct.append(sigmoid(model.forward(batch, training=False)))
        direct = np.concatenate(direct)
        np.testing.assert_allclose(preds.scores, direct, atol=1e-6)
        for scores, topk in zip(preds.scores, preds.topk):
            np.testing.assert_array_equal(topk, top_k(scores, cfg.task.top_k))

    def test_prediction_file_round_trip(self, tiny_experiment, tmp_path):
        cfg, data, train, val = tiny_experiment
        model = build_model(cfg, data.cube_shapes())
        run_dir = engine.fit(cfg, model, train, val, out_root=str(tmp_path))
        out = str(tmp_path / "p.csv")
        preds = engine.predict(cfg, build_model(cfg, data.cube_shapes()),
                               os.path.join(run_dir, "best.ckpt"), val, out_path=out)
        loaded = engine.load_predictions(out)
        assert loaded.survey_ids == preds.survey_ids
        np.testing.assert_array_equal(loaded.scores, preds.scores)
        np.testing.assert_array_equal(loaded.topk, preds.topk)

    def test_many_class_prediction_file_round_trip(self, tmp_path):
        """A scores field of 7 000 classes is longer than the csv module's default
        field limit (131 072 characters); the file must still load."""
        scores = np.random.default_rng(4).random((2, 7_000))
        assert len(" ".join(map(repr, scores[0]))) > 131_072
        preds = Predictions.from_scores(["a", "b"], scores, 5)
        path = str(tmp_path / "predictions.csv")
        engine.save_predictions(preds, path)
        loaded = engine.load_predictions(path)
        assert loaded.survey_ids == preds.survey_ids
        np.testing.assert_array_equal(loaded.scores, preds.scores)
        np.testing.assert_array_equal(loaded.topk, preds.topk)

    @pytest.mark.parametrize("rows", [
        ["a,1 0,0.1 0.7 0.2", "b,1 0,0.5 0.5 0.1", "c,1,0.7 0.1 0.2"],
        ["a,1 0,0.1 0.7 0.2", "b,1 0,0.5 0.5 0.1", "c,1 0,0.7 0.1"],
    ])
    def test_ragged_prediction_rows_rejected(self, tmp_path, rows):
        path = tmp_path / "predictions.csv"
        path.write_text("\n".join(["surveyId,topk,scores", *rows]) + "\n")
        with pytest.raises(FormatError, match=r"predictions\.csv row 4\b"):
            engine.load_predictions(str(path))

    @pytest.mark.parametrize("bad_id", ["7", "-1"])
    def test_topk_id_outside_classes_rejected(self, tmp_path, bad_id):
        path = tmp_path / "predictions.csv"
        path.write_text(f"surveyId,topk,scores\na,1,0.1 0.7\nb,{bad_id},0.6 0.5\n")
        with pytest.raises(FormatError, match=r"predictions\.csv row 3, column topk: .*\[0, 2\)"):
            engine.load_predictions(str(path))

    def test_topk_id_repeated_rejected(self, tmp_path):
        path = tmp_path / "predictions.csv"
        path.write_text("surveyId,topk,scores\na,1 0,0.1 0.7 0.2\nb,2 2,0.5 0.1 0.9\n")
        with pytest.raises(FormatError, match=r"predictions\.csv row 3, column topk: ids \[2, 2\]"):
            engine.load_predictions(str(path))

    def test_survey_on_two_rows_rejected(self, tmp_path):
        path = tmp_path / "predictions.csv"
        path.write_text("surveyId,topk,scores\na,1,0.1 0.7\nb,0,0.6 0.5\na,1,0.2 0.3\n")
        with pytest.raises(FormatError, match=r"predictions\.csv row 4: survey 'a' already in row 2"):
            engine.load_predictions(str(path))

    @settings(max_examples=200, deadline=None)
    @given(values=st.lists(st.floats(width=64) | st.decimals(places=4, allow_nan=False,
                                                             allow_infinity=False),
                           min_size=1, max_size=20),
           ids=st.lists(st.integers(-2**63, 2**63 - 1), max_size=20))
    def test_row_parse_bit_equal_to_python(self, values, ids):
        """Each row's fields are parsed by one numpy call; it must read repr output
        and short decimals exactly as float() and int() do."""
        text = [repr(v) if isinstance(v, float) else str(v) for v in values]
        parsed = engine._float_array(" ".join(text))
        expected = np.array([float(t) for t in text])
        assert parsed.dtype == np.float64
        assert parsed.view(np.uint64).tolist() == expected.view(np.uint64).tolist()
        assert engine._int_array(" ".join(map(str, ids))).tolist() == ids

    def test_equal_logits_topk_tie_rule(self):
        from sdmkit.evalkit import top_k

        assert list(top_k(np.zeros(10), 4)) == [0, 1, 2, 3]


def per_row_load_predictions(path):
    """The row-by-row predictions reader, one numpy call per field: the
    reference the column parse of load_predictions must reproduce."""
    row_of, topks, scores = {}, [], []
    for i, (sid, topk, row_scores) in read_csv(path, ("surveyId", "topk", "scores")):
        topk = parse_field(path, i, "topk", engine._int_array, topk)
        row_scores = parse_field(path, i, "scores", engine._float_array, row_scores)
        if topks and (topk.size, row_scores.size) != (topks[0].size, scores[0].size):
            raise FormatError(
                f"{path} row {i}: {topk.size} top-k ids and {row_scores.size} "
                f"scores, row 2 has {topks[0].size} and {scores[0].size}"
            )
        if row_of.setdefault(sid, i) != i:
            raise FormatError(f"{path} row {i}: survey {sid!r} already in row {row_of[sid]}")
        topks.append(topk)
        scores.append(row_scores)
    topk, scores = np.stack(topks), np.stack(scores)
    ranked = np.sort(topk, axis=1)
    bad = (((topk < 0) | (topk >= scores.shape[1])).any(axis=1)
           | (ranked[:, 1:] == ranked[:, :-1]).any(axis=1))
    if bad.any():
        rows = np.array(list(row_of.values()))[bad]
        raise FormatError(
            f"{path} row {rows[0]}, column topk: ids {topk[bad][0].tolist()} are not distinct "
            f"class indices in [0, {scores.shape[1]}) ({rows.size} such rows)"
        )
    return Predictions(list(row_of), scores, topk)


def load_outcome(load, path):
    """The FormatError text, or the ids and the exact dtype, shape and bytes
    of both arrays."""
    try:
        p = load(path)
    except FormatError as exc:
        return str(exc)
    return (p.survey_ids, [(a.dtype.str, a.shape, a.tobytes()) for a in (p.topk, p.scores)])


def outcome_and_warnings(path):
    """load_outcome of load_predictions, and every warning it let out. A
    warning is recorded, not raised, so it cannot send load_predictions to
    its per-row parse."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = load_outcome(engine.load_predictions, path)
    return got, [str(w.message) for w in caught]


SCORE_TOKENS = (st.floats(width=64).map(repr)
                | st.decimals(places=2, allow_nan=False, allow_infinity=False).map(str))
# numbers Python reads but numpy does not, comment marks, ids past int64, non-numbers
ODD_TOKENS = st.sampled_from(["1_0", "0_1", "٣", "#", "#3", "9223372036854775808",
                              "-9223372036854775809", "1.0", "nan", "x", "-"])


@st.composite
def prediction_tables(draw):
    """Rows of (surveyId, top-k tokens, score tokens) of one valid table,
    then up to three edits: an odd token, a dropped or extra token (ragged),
    an empty field or a repeated survey id."""
    n, s = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    k = draw(st.integers(1, s))
    rows = [[f"s{i}", [str(c) for c in draw(st.permutations(range(s)))[:k]],
             draw(st.lists(SCORE_TOKENS, min_size=s, max_size=s))] for i in range(n)]
    for _ in range(draw(st.integers(0, 3))):
        row, col = draw(st.sampled_from(rows)), draw(st.sampled_from([1, 2]))
        edit = draw(st.sampled_from(["odd", "drop", "extra", "empty", "duplicate"]))
        if edit == "odd" and row[col]:
            row[col][draw(st.integers(0, len(row[col]) - 1))] = draw(ODD_TOKENS)
        elif edit == "drop":
            row[col] = row[col][:-1]
        elif edit == "extra":
            row[col].append(draw(SCORE_TOKENS) if col == 2 else "0")
        elif edit == "empty":
            row[col] = []
        elif edit == "duplicate":
            row[0] = rows[0][0]
    # csv quotes a field holding a line break; numpy's reader would end a row there
    gaps = st.sampled_from([" ", "  ", "\t", " \t ", "\n", "\r", " \r\n"])
    pads = st.sampled_from(["", " ", "\t", "\n", "\r\n"])
    return [[sid] + [draw(pads) + draw(gaps).join(tokens) + draw(pads) for tokens in (topk, sc)]
            for sid, topk, sc in rows]


class TestLoadPredictionsColumnParse:
    """load_predictions parses each numeric column in one call and falls back
    to the row-by-row parse; either way it reads what that parse reads."""

    @settings(max_examples=400, deadline=None)
    @given(table=prediction_tables())
    def test_equal_to_per_row_parse(self, table):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "predictions.csv")
            with open(path, "w", encoding="utf-8", newline="") as fh:
                csv.writer(fh).writerows([["surveyId", "topk", "scores"], *table])
            got, caught = outcome_and_warnings(path)
            assert got == load_outcome(per_row_load_predictions, path)
            assert caught == []

    @pytest.mark.parametrize("token", ["1.5", "1.0", "1e0"])
    def test_float_top_k_id_rejected(self, tmp_path, token):
        """A top-k id in float syntax is a FormatError naming the row, as in
        the per-row parse."""
        path = str(tmp_path / "predictions.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"surveyId,topk,scores\na,0 1,0.1 0.2 0.3\nb,{token} 2,0.4 0.5 0.6\n")
        got, caught = outcome_and_warnings(path)
        assert got == load_outcome(per_row_load_predictions, path)
        assert got.startswith(f"{path} row 3, column topk: ") and token in got
        assert caught == []

    def test_line_break_inside_field_is_not_a_row(self, tmp_path):
        """A quoted scores field spanning two lines does not fill the empty
        field of the next row: the ragged-row FormatError names that row."""
        path = str(tmp_path / "predictions.csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh).writerows([["surveyId", "topk", "scores"], ["a", "0", "0.1 0.2 0.3 0.4"],
                                      ["b", "1", "0.1 0.2\n0.3 0.4"], ["c", "2", ""]])
        got, caught = outcome_and_warnings(path)
        assert got == load_outcome(per_row_load_predictions, path)
        assert got == f"{path} row 4: 1 top-k ids and 0 scores, row 2 has 1 and 4"
        assert caught == []

    def test_comment_mark_is_a_bad_field(self, tmp_path):
        """A '#' does not cut the row short: the scores field fails to parse."""
        path = str(tmp_path / "predictions.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("surveyId,topk,scores\na,0,0.1 #0.2\n")
        got, caught = outcome_and_warnings(path)
        assert got == load_outcome(per_row_load_predictions, path)
        assert got.startswith(f"{path} row 2, column scores: ") and "'#0.2'" in got
        assert caught == []

    @pytest.mark.parametrize("topk", ["", "0"])
    def test_all_empty_scores_column(self, tmp_path, topk):
        """np.loadtxt warns on a column without data; the per-row parse reads it."""
        path = str(tmp_path / "predictions.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"surveyId,topk,scores\na,{topk},\nb,{topk}, \n")
        got, caught = outcome_and_warnings(path)
        assert got == load_outcome(per_row_load_predictions, path)
        assert caught == []
        if topk:
            assert got.endswith("row 2, column topk: ids [0] are not distinct class indices "
                                "in [0, 0) (2 such rows)")
        else:
            assert got[0] == ["a", "b"] and got[1][1][1] == (2, 0)

    def test_python_number_syntax_still_read(self, tmp_path):
        """1_0 and non-ASCII digits fail np.loadtxt and load through the per-row parse."""
        path = tmp_path / "predictions.csv"
        path.write_text("surveyId,topk,scores\na,1_0 0,0.5 0_1 0.2 0.1 0.3 0.0 0.1 0.2 0.3 0.4 0.5\n"
                        "b,٣ 1,1 2 3 4 5 6 7 8 9 10 1_1\n", encoding="utf-8")
        preds = engine.load_predictions(str(path))
        assert preds.topk.tolist() == [[10, 0], [3, 1]]
        assert preds.scores[:, [1, -1]].tolist() == [[1.0, 0.5], [2.0, 11.0]]

    def test_bad_field_before_a_repeated_survey_reported_first(self, tmp_path):
        path = tmp_path / "predictions.csv"
        path.write_text("surveyId,topk,scores\na,1,0.1 0.7\nb,0,0.6 x\na,1,0.2 0.3\n")
        with pytest.raises(FormatError, match=r"predictions\.csv row 3, column scores: "):
            engine.load_predictions(str(path))


class TestAtomicWrites:
    """A write that fails midway leaves the previous file and no temporary file."""

    def test_failed_prediction_write_keeps_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "predictions.csv"
        scores = np.array([[0.1, 0.7, 0.2], [0.4, 0.3, 0.9], [0.6, 0.5, 0.8]])
        preds = Predictions.from_scores([f"s{i}" for i in range(3)], scores, 2)
        engine.save_predictions(preds, str(path))
        before = path.read_bytes()
        real_writer = csv.writer

        class FailingWriter:  # fails on the third row, after the header and one row
            def __init__(self, fh):
                self.inner, self.rows = real_writer(fh), 0

            def writerow(self, row):
                self.rows += 1
                if self.rows == 3:
                    raise OSError("disk full")
                self.inner.writerow(row)

            def writerows(self, rows):
                for row in rows:
                    self.writerow(row)

        monkeypatch.setattr(engine.csv, "writer", FailingWriter)
        with pytest.raises(OSError, match="disk full"):
            engine.save_predictions(Predictions.from_scores(["t", "u", "v"], scores, 1),
                                    str(path))
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["predictions.csv"]

    def test_failed_checkpoint_write_keeps_previous_file(self, tiny_experiment, tmp_path,
                                                         monkeypatch):
        cfg, data, _, _ = tiny_experiment
        model = build_model(cfg, data.cube_shapes())
        path = tmp_path / "last.ckpt"
        save_checkpoint(str(path), model, None, TrainState(), cfg)
        before = path.read_bytes()

        def failing_savez(file, **arrays):
            file.write(before[:100])
            raise OSError("disk full")

        monkeypatch.setattr(engine.np, "savez", failing_savez)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(str(path), model, None, TrainState(epoch=1), cfg)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["last.ckpt"]


def test_single_modality_model_fits_and_predicts(tmp_path):
    """model.name micro_conv2d on the one patch encoder: params under the
    modality name, a 2-epoch fit, and one prediction row per survey."""
    data_dir = str(tmp_path / "data")
    make_synthetic(data_dir, n_surveys=200, num_species=20, seed=7)
    yaml_text = default_config_yaml(data_dir, epochs=2)
    head, _, tail = yaml_text.partition("    cube_a:\n")
    yaml_text = (head + tail[tail.index("optimizer:"):]).replace("name: mme", "name: micro_conv2d")
    cfg = parse_config(yaml_text)
    assert list(cfg.model.encoders) == ["patch"]
    data = load_data(cfg)
    model = build_model(cfg, data.cube_shapes())
    assert [name for name, _, _ in model.named_params()] == [
        f"patch.{i}.{p}" for i in (0, 2, 5) for p in ("w", "b")]
    split = resolve_split(cfg, data.table)
    run_dir = engine.fit(cfg, model, data.source_for(split.partition("train")),
                         data.source_for(split.partition("val")), out_root=str(tmp_path / "runs"))
    assert len(read_metrics(run_dir)) == 2
    source = data.source_for(labels_mode="predict")
    out = str(tmp_path / "predictions.csv")
    preds = engine.predict(cfg, build_model(cfg, data.cube_shapes()),
                           os.path.join(run_dir, "best.ckpt"), source, out_path=out)
    assert preds.survey_ids == data.table.survey_ids()
    assert preds.scores.shape == (200, 20)
    assert engine.load_predictions(out).survey_ids == preds.survey_ids


def test_training_step_stays_float32(tmp_path):
    """One training step of an mme model over patch, both cubes and location,
    with dropout, leaves every param, grad and AdamW moment in float32, and
    every encoder returns float32: nothing in the step widens to float64."""
    data_dir = str(tmp_path)
    make_synthetic(data_dir, n_surveys=60, num_species=6, seed=2)
    yaml_text = default_config_yaml(data_dir, n_species=6, patch_size=16).replace(
        "  fusion:\n    dropout: 0.1",
        "    location:\n      name: sinusoidal_location\n      embedding_dim: 16\n"
        "  fusion:\n    dropout: 0.5")
    cfg = parse_config(yaml_text)
    data = load_data(cfg)
    model = build_model(cfg, data.cube_shapes())
    outputs = {}
    for name, encoder in model.encoders.items():
        def recorded(x, training=False, name=name, forward=encoder.forward):
            outputs[name] = forward(x, training=training)
            return outputs[name]

        encoder.forward = recorded
    model.set_dropout_rng(np.random.default_rng(0))
    optimizer = AdamW()
    engine._epoch_loss_pass(model, data.source_for(), [np.arange(32)], 10.0, optimizer,
                            lr=1e-3, training=True)
    assert optimizer.t == 1
    assert sorted(outputs) == ["cube_a", "cube_b", "location", "patch"]
    for name, out in outputs.items():
        assert out.dtype == np.float32, name
    for name, param, grad in model.named_params():
        dtypes = (param.dtype, grad.dtype, optimizer.m[name].dtype, optimizer.v[name].dtype)
        assert dtypes == (np.float32,) * 4, name

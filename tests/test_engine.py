import csv
import dataclasses
import hashlib
import json
import logging
import math
import os
import tempfile
import warnings

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from sdmkit import engine, kernels
from sdmkit.config import config_digest, parse_config
from sdmkit.engine import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    AdamW,
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
from sdmkit import geodata
from sdmkit.geodata import load_raster, save_raster
from sdmkit.nn import Module, build_encoder, modify_first_layer, register_encoder
from sdmkit.nn.layers import Linear, ReLU, Sequential
from sdmkit.pipeline import build_model, load_data, resolve_split
from sdmkit.synthetic import CUBE_SHAPE, N_CHANNELS, PATCH_SIZE, default_config_yaml, make_synthetic

from conftest import (ID_SUFFIXES, failing_writes, quoted_if_needed, table_of, table_rows,
                      traced_peak)
from csv_oracles import per_row_load_predictions


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
    def test_start(self):
        assert cosine_lr(0, 2.5e-4, 25) == 2.5e-4

    def test_end_exactly_zero(self):
        assert cosine_lr(25, 2.5e-4, 25) == 0.0

    def test_midpoint(self):
        assert cosine_lr(12, 1.0, 24) == pytest.approx(0.5, abs=1e-15)


def flat_module(values):
    """A leaf Module whose one param w holds values, flattened to float64 as
    build_model flattens a model to float32."""
    module = Module()
    module.params["w"] = np.array(values, dtype=float)
    module.grads["w"] = np.zeros_like(module.params["w"])
    module.flatten_params(np.float64)
    return module


def step_with_grad(opt, module, grad, lr):
    """Write grad into the module's flat grads, then step the module."""
    module.grads["w"][...] = grad
    return opt.step(module.named_params(), lr=lr)


class TestAdamW:
    def test_zero_grad_fixed_point(self):
        module = flat_module(np.ones(3))
        opt = AdamW(weight_decay=0.0)
        step_with_grad(opt, module, np.zeros(3), lr=0.1)
        np.testing.assert_array_equal(module.params["w"], np.ones(3))

    def test_descent_on_quadratic(self):
        module = flat_module([1.0])
        w = module.params["w"]
        opt = AdamW()
        step_with_grad(opt, module, 2 * w.copy(), lr=0.1)
        assert abs(w[0]) < 1.0

    def test_decoupled_decay_closed_form(self):
        module = flat_module(np.full(4, 2.0))
        opt = AdamW(weight_decay=0.01)
        step_with_grad(opt, module, np.zeros(4), lr=0.5)
        np.testing.assert_allclose(module.params["w"], 2.0 * (1 - 0.5 * 0.01), atol=1e-15)

    def test_decay_applies_to_previous_weights(self):
        # theta_1 = theta_0 (1 - lr wd) - lr g / (|g| + eps): the first step's
        # bias-corrected moments are g and g^2
        theta = np.array([2.0, -1.0, 0.5])
        g = np.array([0.3, -4.0, 1e-3])
        lr, wd, eps = 0.1, 0.5, 1e-8
        assert ADAM_EPS == eps
        module = flat_module(theta)
        step_with_grad(AdamW(weight_decay=wd), module, g, lr=lr)
        np.testing.assert_allclose(module.params["w"],
                                   theta * (1 - lr * wd) - lr * g / (np.abs(g) + eps),
                                   rtol=1e-12)

    def test_flattened_again_steps_as_fresh_optimizer(self):
        """A model flattened again gets zero moments, so its next step is the
        first step of a fresh AdamW, bias correction included, bit for bit."""
        rng = np.random.default_rng(5)
        module, opt = flat_module(rng.normal(size=6)), AdamW(weight_decay=0.01)
        for _ in range(199):
            assert step_with_grad(opt, module, rng.normal(size=6), lr=1e-2)
        fresh = flat_module(module.params["w"].copy())
        module.flatten_params(np.float64)
        g = rng.normal(size=6)
        assert step_with_grad(opt, module, g, lr=1e-2)
        assert step_with_grad(AdamW(weight_decay=0.01), fresh, g, lr=1e-2)
        assert module.params["w"].tobytes() == fresh.params["w"].tobytes()

    def test_nonfinite_grad_skips_step(self, caplog):
        import logging

        module = flat_module(np.ones(2))
        opt = AdamW()
        with caplog.at_level(logging.WARNING):
            ok = step_with_grad(opt, module, np.array([np.nan, 0.0]), lr=0.1)
        assert not ok
        np.testing.assert_array_equal(module.params["w"], np.ones(2))
        assert "skipped" in caplog.text


def built_model():
    """The default synthetic mme model as build_model leaves it: every param
    and grad a float32 view of one flat buffer each."""
    cfg = parse_config(default_config_yaml("data", n_species=20))
    return build_model(cfg, {"patch": (N_CHANNELS, PATCH_SIZE, PATCH_SIZE), "cube_a": CUBE_SHAPE,
                             "cube_b": CUBE_SHAPE})


def random_batch(model, rng, n):
    """A random float32 batch for built_model()'s encoders."""
    shapes = {name: enc.layers[0].in_channels for name, enc in model.encoders.items()}
    return {
        "patch": rng.normal(size=(n, shapes["patch"], 32, 32)).astype(np.float32),
        "cube_a": rng.normal(size=(n, shapes["cube_a"], 4, 3)).astype(np.float32),
        "cube_b": rng.normal(size=(n, shapes["cube_b"], 4, 3)).astype(np.float32),
    }


def backprop(model, seed, n=16):
    """One training forward and backward of a random batch."""
    rng = np.random.default_rng(seed)
    batch = random_batch(model, rng, n)
    labels = (rng.random((n, 20)) < 0.3).astype(float)
    model.set_dropout_rng(np.random.default_rng([seed, 1]))
    logits = model.forward(batch, training=True)
    grad = weighted_bce_logits_grad(logits, labels, 10.0)
    model.backward(grad.astype(logits.dtype))


def reference_step(state, triples, lr, weight_decay):
    """One AdamW step as a per-array loop of numpy expressions, each array's
    moments kept in state by name: the arithmetic the flat step must match."""
    state["t"] = t = state.get("t", 0) + 1
    bc1, bc2 = 1 - ADAM_BETA1**t, 1 - ADAM_BETA2**t
    for name, param, grad in triples:
        m = state.setdefault(("m", name), np.zeros_like(param))
        v = state.setdefault(("v", name), np.zeros_like(param))
        m *= ADAM_BETA1
        m += (1 - ADAM_BETA1) * grad
        v *= ADAM_BETA2
        v += (1 - ADAM_BETA2) * grad * grad
        if weight_decay:
            param *= 1 - lr * weight_decay
        param -= lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)


class TestFlatAdamW:
    """AdamW on a built model: one pass of each op over the flat buffers."""

    @pytest.mark.parametrize("weight_decay", [0.0, 0.01])
    def test_flat_steps_match_per_array_reference(self, weight_decay):
        model = built_model()
        reference = [(name, param.copy()) for name, param, _ in model.named_params()]
        optimizer, state = AdamW(weight_decay=weight_decay), {}
        for step, lr in enumerate([1e-3, 8e-4, 5e-4, 2e-4, 1e-4]):
            backprop(model, seed=step)
            triples = list(model.named_params())
            grads = [(name, param, grad.copy())
                     for (name, param), (_, _, grad) in zip(reference, triples)]
            assert optimizer.step(triples, lr)
            reference_step(state, grads, lr, weight_decay)
        assert optimizer.flat is not None and optimizer.t == 5
        for (name, param, _), (_, want) in zip(model.named_params(), reference):
            assert param.tobytes() == want.tobytes(), name

    def test_step_after_first_allocates_no_param_sized_array(self):
        import tracemalloc

        model = built_model()
        param_bytes = sum(param.nbytes for _, param, _ in model.named_params())
        optimizer = AdamW(weight_decay=0.01)
        backprop(model, seed=0)
        optimizer.step(model.named_params(), 1e-3)
        tracemalloc.start()
        try:
            assert optimizer.step(model.named_params(), 1e-3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * param_bytes, (peak, param_bytes)

    def test_first_step_retains_moments_and_two_chunks(self):
        """On a model larger than one chunk, the first step leaves AdamW
        holding the flat moments and two CHUNK-sized scratch buffers, not
        param-sized ones (4 x the param bytes)."""
        model = built_model()
        param_bytes = sum(param.nbytes for _, param, _ in model.named_params())
        assert param_bytes // 4 > engine.CHUNK
        backprop(model, seed=0)
        optimizer = AdamW(weight_decay=0.01)
        stepped, _, retained = traced_peak(optimizer.step, model.named_params(), 1e-3)
        assert stepped
        assert retained <= 2 * param_bytes + 2 * engine.CHUNK * 4 + 16_384, (retained,
                                                                            param_bytes)

    def test_steps_do_not_depend_on_chunk_size(self, monkeypatch):
        """Five steps leave the same param bits at every chunk size, one
        element, 7 (which does not divide the param count), one past the param
        count and the default, and they equal the per-array reference's."""
        def tiny():
            rng = np.random.default_rng(0)
            model = Sequential([Linear(10, 30, rng), ReLU(), Linear(30, 5, rng)])
            model.flatten_params(np.float32)
            return model

        size = sum(param.size for _, param, _ in tiny().named_params())
        assert size % 7
        rng = np.random.default_rng(8)
        grads = [rng.normal(size=size).astype(np.float32) for _ in range(5)]
        lrs = [1e-3, 8e-4, 5e-4, 2e-4, 1e-4]
        reference, state = tiny(), {}
        for lr, grad in zip(lrs, grads):
            next(reference.named_params())[2].base[...] = grad
            reference_step(state, list(reference.named_params()), lr, 0.01)
        want = [param.tobytes() for _, param, _ in reference.named_params()]
        for chunk in (1, 7, size + 1, engine.CHUNK):
            model, optimizer = tiny(), AdamW(weight_decay=0.01)
            with monkeypatch.context() as patch:
                patch.setattr(engine, "CHUNK", chunk)
                for lr, grad in zip(lrs, grads):
                    next(model.named_params())[2].base[...] = grad
                    assert optimizer.step(model.named_params(), lr)
            assert optimizer.flat.scratch[0].shape == (min(chunk, size),)
            assert [param.tobytes() for _, param, _ in model.named_params()] == want, chunk

    def test_nan_grad_skips_step_and_names_first_param(self, caplog):
        model = built_model()
        optimizer = AdamW(weight_decay=0.01)
        backprop(model, seed=0)
        assert optimizer.step(model.named_params(), 1e-3)
        backprop(model, seed=1)
        triples = list(model.named_params())
        triples[5][2].flat[3] = np.nan
        triples[9][2].flat[0] = np.inf
        before = [param.copy() for _, param, _ in triples]
        moments = optimizer.flat.m.copy(), optimizer.flat.v.copy()
        with caplog.at_level(logging.WARNING, logger="sdmkit.engine"):
            assert optimizer.step(model.named_params(), 1e-3) is False
        assert caplog.messages == [f"AdamW: non-finite gradient in {triples[5][0]}; step skipped"]
        assert optimizer.t == 1
        for (name, param, _), want in zip(triples, before):
            assert param.tobytes() == want.tobytes(), name
        assert optimizer.flat.m.tobytes() == moments[0].tobytes()
        assert optimizer.flat.v.tobytes() == moments[1].tobytes()

    def test_step_after_first_layer_surgery_refused(self):
        """modify_first_layer gives the patch encoder's first weight an array
        of its own, outside the flat buffers: the step names it and changes
        no param."""
        model = built_model()
        modify_first_layer(model.encoders["patch"], 7)
        backprop(model, seed=2)
        before = {name: param.copy() for name, param, _ in model.named_params()}
        optimizer = AdamW(weight_decay=0.01)
        with pytest.raises(ShapeError, match=r"^AdamW: enc\.patch\.0\.w .*flatten_params"):
            optimizer.step(model.named_params(), 1e-3)
        assert optimizer.t == 0 and optimizer.flat is None
        for name, param, _ in model.named_params():
            assert param.tobytes() == before[name].tobytes(), name

    def test_step_after_first_layer_surgery_updates_every_param(self):
        """Flattening the model again after modify_first_layer makes it steppable,
        and the step matches the reference on every param."""
        model = built_model()
        modify_first_layer(model.encoders["patch"], 7)
        model.flatten_params(np.float32)
        flat = model.head.layers[-1].params["w"].base
        assert model.encoders["patch"].layers[0].params["w"].base is flat
        before = {name: param.copy() for name, param, _ in model.named_params()}
        backprop(model, seed=2)
        optimizer = AdamW(weight_decay=0.01)
        reference = [(name, before[name].copy(), grad.copy())
                     for name, _, grad in model.named_params()]
        assert optimizer.step(model.named_params(), 1e-3)
        reference_step({}, reference, 1e-3, 0.01)
        assert optimizer.flat.params is flat
        for (name, param, _), (_, want, _) in zip(model.named_params(), reference):
            assert not np.array_equal(param, before[name]), name
            assert param.tobytes() == want.tobytes(), name


def cached(model) -> list[str]:
    """The forward caches a model's layers hold: inputs, im2col columns and
    masks."""
    return [f"{type(module).__name__}.{attr}" for module in model.modules()
            for attr in ("_x", "_cols", "_mask") if getattr(module, attr, None) is not None]


def test_backward_and_inference_leave_no_forward_cache():
    """A training forward caches what backward needs; backward frees every
    cache, and a forward with training=False keeps none, also after a
    training forward."""
    model = built_model()
    rng = np.random.default_rng(3)
    batch = random_batch(model, rng, 8)
    model.set_dropout_rng(np.random.default_rng(4))
    logits = model.forward(batch, training=True)
    assert {"Conv2d._x", "Conv2d._cols", "ReLU._mask", "Linear._x",
            "Dropout._mask"} == set(cached(model))
    model.backward(weighted_bce_logits_grad(logits, np.ones((8, 20)), 10.0).astype(np.float32))
    assert cached(model) == []
    model.forward(batch, training=True)
    model.forward(batch, training=False)
    assert cached(model) == []


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
                assert np.flatnonzero(row).tolist() == table_rows(source.table)[0][i][3]
        else:
            assert "labels" not in batch


def read_metrics(run_dir):
    with open(os.path.join(run_dir, "metrics.csv"), newline="") as fh:
        return list(csv.DictReader(fh))


def legacy_arch_digest(cfg, task_type: str) -> str:
    """The arch_digest that checkpoints held before their meta held the arch:
    the model and task sections, task.type included, hashed."""
    canon = json.dumps({"model": dataclasses.asdict(cfg.model),
                        "task": {**dataclasses.asdict(cfg.task), "type": task_type}},
                       sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:12]


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
        for t, row in enumerate(read_metrics(run_dir)):
            assert float(row["lr"]) == cosine_lr(t, cfg.optimizer.lr, cfg.optimizer.t_max)

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
            assert sorted(meta) == ["arch", "state"]
            assert sorted(meta["state"]) == ["best_val_loss", "epoch"]
            assert meta["arch"] == {"model": ["builtin", "mme"],
                                    **{f"model.encoders.{m}": ["builtin", name] for m, name in (
                                        ("patch", "micro_conv2d"), ("cube_a", "micro_conv3d"),
                                        ("cube_b", "micro_conv3d"))}}

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
            "state": state, "arch_digest": legacy_arch_digest(cfg, "multilabel"),
            "config_digest": config_digest(cfg), "opt_t": 40}))
        old = str(tmp_path / "old.ckpt")
        with open(old, "wb") as fh:  # a path would gain a .npz suffix
            np.savez(fh, **arrays)
        assert load_checkpoint(old, build_model(cfg, data.cube_shapes()), cfg) == TrainState(
            epoch=4, best_val_loss=0.75)
        scores = [engine.predict(cfg, build_model(cfg, data.cube_shapes()), path, val).scores
                  for path in (old, new)]
        np.testing.assert_array_equal(scores[0], scores[1])

    @pytest.mark.parametrize("task_type", ["binary", "multilabel"])
    def test_checkpoint_with_arch_digest_loads(self, tiny_experiment, tmp_path, task_type):
        """A checkpoint whose meta holds an arch_digest, as every one did before
        meta held the arch, loads at either task.type it was trained with, and
        predicts the same scores as the current layout; under another top_k
        its digest differs, and it is refused."""
        cfg, data, train, val = tiny_experiment
        model = build_model(cfg, data.cube_shapes())
        new = str(tmp_path / "new.ckpt")
        save_checkpoint(new, model, None, TrainState(epoch=1, best_val_loss=0.5), cfg)
        arrays = {f"param/{name}": param for name, param, _ in model.named_params()}
        arrays["meta"] = np.array(json.dumps({
            "state": {"epoch": 1, "best_val_loss": 0.5},
            "arch_digest": legacy_arch_digest(cfg, task_type)}))
        old = str(tmp_path / "old.ckpt")
        with open(old, "wb") as fh:
            np.savez(fh, **arrays)
        scores = [engine.predict(cfg, build_model(cfg, data.cube_shapes()), path, val).scores
                  for path in (old, new)]
        np.testing.assert_array_equal(scores[0], scores[1])
        other = dataclasses.replace(cfg, task=dataclasses.replace(cfg.task, top_k=2))
        with pytest.raises(CheckpointMismatchError, match="architecture digest"):
            load_checkpoint(old, build_model(other, data.cube_shapes()), other)
        assert load_checkpoint(new, build_model(other, data.cube_shapes()), other) == TrainState(
            epoch=1, best_val_loss=0.5)

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

    def test_prediction_file_quotes_survey_ids_as_csv_writer(self, tmp_path):
        """Survey ids holding a comma, a quote or a line break are quoted as
        csv.writer quotes them, and the file reads back."""
        ids = ["a,b", 'a"b', "a\nb", "a\rb", "", " a ", "plain", '"', "a\r\nb"]
        scores = np.random.default_rng(5).random((len(ids), 4))
        scores[0, 1], scores[1, 2] = 1e-300, 0.1
        preds = Predictions.from_scores(ids, scores, 2)
        path = tmp_path / "predictions.csv"
        engine.save_predictions(preds, str(path))
        oracle = tmp_path / "oracle.csv"
        with open(oracle, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh).writerows(
                [["surveyId", "topk", "scores"]]
                + [[sid, " ".join(map(str, topk)), " ".join(map(repr, row))]
                   for sid, topk, row in zip(ids, preds.topk.tolist(), scores.tolist())])
        assert path.read_bytes() == oracle.read_bytes()
        loaded = engine.load_predictions(str(path))
        assert loaded.survey_ids == ids
        np.testing.assert_array_equal(loaded.scores, scores)
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

    def test_save_predictions_memory_per_entry(self, tmp_path):
        """The traced peak of save_predictions grows by at most 2 bytes per
        added (survey, class) entry: rows are formatted a block of
        WRITE_BLOCK scores at a time (32.8 bytes when the whole score array
        was one list)."""
        rng = np.random.default_rng(1)
        peaks = []
        for n in (1_000, 4_000):
            preds = Predictions.from_scores([f"s{i}" for i in range(n)], rng.random((n, 200)), 5)
            _, peak, _ = traced_peak(engine.save_predictions, preds, str(tmp_path / f"{n}.csv"))
            peaks.append(peak)
        assert (peaks[1] - peaks[0]) / (3_000 * 200) <= 2, peaks

    @pytest.mark.parametrize("block", [1, 7, 200, 201])
    def test_save_predictions_bytes_do_not_depend_on_block(self, tmp_path, monkeypatch, block):
        """Blocks of one row, of rows that do not divide the row count, and of
        a row and a part write the bytes of one block of every row."""
        scores = np.random.default_rng(2).random((23, 10))
        preds = Predictions.from_scores([f"s{i}" for i in range(23)], scores, 3)
        engine.save_predictions(preds, str(tmp_path / "whole.csv"))
        monkeypatch.setattr(engine, "WRITE_BLOCK", block)
        engine.save_predictions(preds, str(tmp_path / "blocks.csv"))
        assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()

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
    return [[sid + draw(ID_SUFFIXES)]
            + [draw(pads) + draw(gaps).join(tokens) + draw(pads) for tokens in (topk, sc)]
            for sid, topk, sc in rows]


@st.composite
def prediction_files(draw):
    """The bytes of a predictions.csv of prediction_tables' rows, each field
    quoted as csv.writer quotes it, then the hazards of exported files: a
    literal quote inside an unquoted id before a quoted multi-line id, blank
    lines, a ragged row, LF or CRLF line ends and a BOM."""
    lines = [list(map(quoted_if_needed, row))
             for row in [["surveyId", "topk", "scores"], *draw(prediction_tables())]]
    for _ in range(draw(st.integers(0, 2))):
        hazard = draw(st.sampled_from(["literal_quote", "blank", "short", "long"]))
        at = draw(st.integers(1, len(lines) - 1))
        later = draw(st.integers(at, len(lines) - 1))
        if hazard == "literal_quote" and at < later and lines[at] and lines[later]:
            lines[at][0] = lines[at][0][:1] + '"' + lines[at][0][1:]
            lines[later][0] = draw(st.sampled_from(['"m\nx"', '"m\r\nx"', '"m\rx"']))
        elif hazard == "blank":
            lines.insert(at, [])
        elif hazard == "short" and lines[at]:
            del lines[at][-1]
        elif hazard == "long":
            lines[at].append("9")
    end = draw(st.sampled_from(["\n", "\r\n"]))
    text = end.join(",".join(cells) for cells in lines) + draw(st.sampled_from(["", end]))
    return (b"\xef\xbb\xbf" if draw(st.booleans()) else b"") + text.encode("utf-8")


class TestLoadPredictionsColumnParse:
    """load_predictions parses each numeric column of a block of rows in one
    call and falls back to the row-by-row parse for that block; either way,
    at any block size, it reads what the row-by-row parse over csv.reader
    reads."""

    @settings(max_examples=400, deadline=None)
    @given(data=prediction_files(), block=st.sampled_from([1, 12, 40, geodata.TEXT_BLOCK]))
    def test_equal_to_per_row_parse(self, data, block):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "predictions.csv")
            with open(path, "wb") as fh:
                fh.write(data)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(geodata, "TEXT_BLOCK", block)
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

    def test_transient_memory_per_entry(self, tmp_path):
        """The traced peak grows by at most 10 bytes per added (survey, class)
        entry on repr scores: the float64 (N, S) scores it returns, written a
        block at a time; only one block's field texts and arrays are held
        besides."""
        rng = np.random.default_rng(0)
        peaks = []
        for n in (2_000, 8_000):
            path = str(tmp_path / f"predictions-{n}.csv")
            engine.save_predictions(
                Predictions.from_scores([f"s{i}" for i in range(n)], rng.random((n, 200)), 5),
                path)
            loaded, peak, _ = traced_peak(engine.load_predictions, path)
            assert loaded.scores.shape == (n, 200)
            peaks.append(peak)
            del loaded
        assert (peaks[1] - peaks[0]) / (6_000 * 200) <= 10, peaks

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_every_line_end_makes_room_for_a_row(self, tmp_path, monkeypatch, end):
        """A lone CR ends a CSV row as LF and CRLF do, and each row is read
        into the arrays, also a block of one row at a time."""
        path = tmp_path / "predictions.csv"
        path.write_bytes(end.join(["surveyId,topk,scores", "a,1,0.1 0.7", "b,0,0.6 0.5"]).encode())
        monkeypatch.setattr(geodata, "TEXT_BLOCK", 1)
        preds = engine.load_predictions(str(path))
        assert preds.survey_ids == ["a", "b"]
        assert preds.scores.tolist() == [[0.1, 0.7], [0.6, 0.5]]

    def test_file_larger_than_its_size_read_whole(self, tmp_path, monkeypatch):
        """The arrays grow to the rows the file's size implies, and to every
        row read, also where the file holds more than its size said (one that
        grew after it was measured)."""
        path = tmp_path / "predictions.csv"
        path.write_text("surveyId,topk,scores\na,1,0.1 0.7\nb,0,0.6 0.5\nc,1,0.2 0.3\n")
        monkeypatch.setattr(geodata, "TEXT_BLOCK", 1)
        monkeypatch.setattr(os.path, "getsize", lambda path: 1)
        preds = engine.load_predictions(str(path))
        assert preds.survey_ids == ["a", "b", "c"]
        assert preds.scores.tolist() == [[0.1, 0.7], [0.6, 0.5], [0.2, 0.3]]

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
        # writes the header and one row, then fails
        with failing_writes(monkeypatch, "predictions.csv", after=2), \
                pytest.raises(OSError, match="disk full"):
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


def test_fit_without_openblas_warns_once_and_fits(tiny_experiment, tmp_path, monkeypatch,
                                                 caplog):
    """Where numpy's BLAS has none of the OpenBLAS thread symbols, fit logs one
    warning naming the BLAS and trains as before."""
    cfg, data, train, val = tiny_experiment
    monkeypatch.setattr(kernels, "_OPENBLAS_THREAD_SYMBOLS", (("no_set", "no_get"),))
    kernels._openblas_threads.cache_clear()
    try:
        with caplog.at_level(logging.WARNING):
            run_dir = engine.fit(cfg, build_model(cfg, data.cube_shapes()), train, val,
                                 out_root=str(tmp_path))
    finally:
        kernels._openblas_threads.cache_clear()
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    assert [(r.name, r.levelname, r.getMessage()) for r in caplog.records
            if r.levelno >= logging.WARNING] == [
        ("sdmkit.kernels", "WARNING", f"numpy's BLAS ({blas}) is not an OpenBLAS whose thread "
         "count sdmkit can set; results may depend on its thread count")]
    with open(os.path.join(run_dir, "metrics.csv"), newline="") as fh:
        assert len(list(csv.DictReader(fh))) == cfg.trainer.epochs
    assert os.path.exists(os.path.join(run_dir, "best.ckpt"))


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
    assert preds.survey_ids == data.table.survey_ids
    assert preds.scores.shape == (200, 20)
    assert engine.load_predictions(out).survey_ids == preds.survey_ids


def test_single_modality_checkpoint_names_its_resolved_encoder(tmp_path):
    """model.name micro_conv2d builds the same patch encoder with and without
    model.encoders.patch naming it, so a checkpoint of either config loads
    under the other, as does one written before the arch named the resolved
    encoder; another patch encoder is refused, naming the modality."""
    register_encoder("test", "conv2d_alias", lambda shape, dim, rng: build_encoder(
        "builtin", "micro_conv2d", shape, dim, rng))
    base = "data: {}\ntask: {num_classes: 4, top_k: 2}\nmodel:\n  name: micro_conv2d\n"
    configs = {name: parse_config(base + encoders) for name, encoders in (
        ("default", ""), ("named", "  encoders: {patch: {name: micro_conv2d}}\n"),
        ("alias", "  encoders: {patch: {provider: test, name: conv2d_alias}}\n"))}
    shapes = {"patch": (4, 8, 8), "location": (2,)}
    paths = {}
    for name in ("default", "named"):
        paths[name] = str(tmp_path / f"{name}.ckpt")
        save_checkpoint(paths[name], build_model(configs[name], shapes), None, TrainState(),
                        configs[name])
        assert read_checkpoint_meta(paths[name])["arch"] == {
            "model": ["builtin", "micro_conv2d"],
            "model.encoders.patch": ["builtin", "micro_conv2d"]}
    # the arch a single-modality model without model.encoders was saved with before
    model = build_model(configs["default"], shapes)
    arrays = {f"param/{name}": param for name, param, _ in model.named_params()}
    arrays["meta"] = np.array(json.dumps({"state": {"epoch": 0, "best_val_loss": 1.0},
                                          "arch": {"model": ["builtin", "micro_conv2d"]}}))
    paths["earlier"] = str(tmp_path / "earlier.ckpt")
    with open(paths["earlier"], "wb") as fh:
        np.savez(fh, **arrays)
    for path in paths.values():
        for name in ("default", "named"):
            load_checkpoint(path, build_model(configs[name], shapes), configs[name])
        with pytest.raises(CheckpointMismatchError) as refused:
            load_checkpoint(path, build_model(configs["alias"], shapes), configs["alias"])
        assert str(refused.value) == (
            f"{path}: model.encoders.patch: checkpoint ['builtin', 'micro_conv2d'] vs config "
            f"['test', 'conv2d_alias']")


def patch_only_fit_data(tmp_path, outside=()):
    """A 3-epoch patch-only config over 60 synthetic surveys in batches of 16,
    its chan3 moved onto an EPSG:3857 grid (so two grids), plus surveys at
    the given (lon, lat) points outside every layer: (cfg, data, train, val)."""
    data_dir = str(tmp_path / "data")
    make_synthetic(data_dir, n_surveys=60, num_species=6, seed=2)
    header = os.path.join(data_dir, "chan3.json")
    save_raster(dataclasses.replace(load_raster(header), crs="EPSG:3857"), header)
    doc = yaml.safe_load(default_config_yaml(data_dir, n_species=6, epochs=3, patch_size=8))
    doc["data"].update(cube_manifests={}, batch_size=16)
    doc["model"] = {"name": "micro_conv2d",
                    "encoders": {"patch": doc["model"]["encoders"]["patch"]}}
    cfg = parse_config(yaml.safe_dump(doc))
    data = load_data(cfg)
    rows, num_classes = table_rows(data.table)
    data.table = table_of(rows + [(f"outside{i}", lon, lat, {0})
                                  for i, (lon, lat) in enumerate(outside)], num_classes)
    split = resolve_split(cfg, data.table)
    return cfg, data, split.partition("train"), split.partition("val")


def test_outside_survey_logged_once_per_run(tmp_path, caplog):
    """A survey outside every layer is logged once, when its source is built,
    not on every batch of every epoch."""
    cfg, data, train_ids, val_ids = patch_only_fit_data(tmp_path, outside=[(-50.0, -50.0)])
    with caplog.at_level(logging.WARNING, logger="sdmkit.geodata"):
        train, val = data.source_for(train_ids), data.source_for(val_ids)
        engine.fit(cfg, build_model(cfg, data.cube_shapes()), train, val,
                   out_root=str(tmp_path / "runs"))
    n = len(train) if "outside0" in train_ids else len(val)
    assert [m for m in caplog.messages if "outside all patch layers" in m] == [
        f"1 of {n} surveys outside all patch layers, first 'outside0'; filled"]


def test_partition_shorter_than_batch_logs_no_warning(tmp_path, caplog):
    """A partition smaller than batch_size is one short batch, as every pass
    ends in one: a fit over such a val partition logs no engine warning."""
    cfg, data, train_ids, val_ids = patch_only_fit_data(tmp_path)
    train, val = data.source_for(train_ids), data.source_for(val_ids)
    assert len(val) < cfg.data.batch_size < len(train)
    with caplog.at_level(logging.WARNING, logger="sdmkit.engine"):
        engine.fit(cfg, build_model(cfg, data.cube_shapes()), train, val,
                   out_root=str(tmp_path / "runs"))
    assert [r.getMessage() for r in caplog.records
            if r.name == "sdmkit.engine" and r.levelno >= logging.WARNING] == []


def test_points_transformed_once_per_survey_and_grid(tmp_path, monkeypatch):
    """Building a source transforms each survey's point once per grid; a
    3-epoch fit and a prediction pass transform none."""
    cfg, data, train_ids, val_ids = patch_only_fit_data(tmp_path)
    calls = []

    def counted(lon, lat, crs, transform=geodata.transform_point):
        calls.append(crs)
        return transform(lon, lat, crs)

    monkeypatch.setattr(geodata, "transform_point", counted)
    train, val, test = (data.source_for(train_ids), data.source_for(val_ids),
                        data.source_for(labels_mode="predict"))
    n = len(train) + len(val) + len(test)
    assert sorted(set(calls)) == ["EPSG:3857", "EPSG:4326"] and len(calls) == 2 * n
    run_dir = engine.fit(cfg, build_model(cfg, data.cube_shapes()), train, val,
                         out_root=str(tmp_path / "runs"))
    engine.predict(cfg, build_model(cfg, data.cube_shapes()), os.path.join(run_dir, "best.ckpt"),
                   test)
    assert len(calls) == 2 * n


def test_training_step_stays_float32(tmp_path):
    """One training step of an mme model over patch, both cubes and location,
    with dropout, leaves every param, grad and AdamW moment in float32, and
    every encoder returns float32: nothing in the step widens to float64. The
    step runs on the flat buffers: every param and grad is a view of the
    model's flat buffers, AdamW's flat moments are float32 and param-sized,
    and its two scratch buffers float32 of min(CHUNK, params) elements."""
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
    engine._train_epoch(model, data.source_for(), [np.arange(32)], 10.0, optimizer, lr=1e-3)
    assert optimizer.t == 1
    assert sorted(outputs) == ["cube_a", "cube_b", "location", "patch"]
    for name, out in outputs.items():
        assert out.dtype == np.float32, name
    flat = optimizer.flat
    for buffer in (flat.params, flat.grads, flat.m, flat.v):
        assert buffer.dtype == np.float32 and buffer.shape == flat.params.shape
    for buffer in flat.scratch:
        assert buffer.dtype == np.float32
        assert buffer.shape == (min(engine.CHUNK, flat.params.size),)
    for name, param, grad in model.named_params():
        assert (param.dtype, grad.dtype) == (np.float32, np.float32), name
        assert param.base is flat.params and grad.base is flat.grads, name
